#pragma once

/// \file record.h
/// \brief Output plumbing for vodsim_suite: a flat JSON object written
/// as one line, spans kept in memory and written as a Chrome trace, and
/// the median the reported timings use.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace suite {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// A flat JSON object, built key by key and printed as one line.
class JsonLine {
 public:
  void add(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    append(key, buffer);
  }
  void add(const std::string& key, std::uint64_t value) {
    append(key, std::to_string(value));
  }
  void add(const std::string& key, const std::string& value) {
    append(key, quote(value));
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

 private:
  void append(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key) + ": " + raw;
  }
  std::string body_;
};

/// Spans around the benchmark's calls into each layer, kept in memory and
/// written once as Chrome-trace JSON ("X" events, microseconds). Nesting is
/// by time on one thread; `parent` names the enclosing span.
class SpanLog {
 public:
  /// Records a span that began at \p start and ends now; returns its
  /// length in seconds.
  double close(const std::string& name, const std::string& parent,
               Clock::time_point start) {
    const Clock::time_point end = Clock::now();
    spans_.push_back(Span{name, parent, start, end});
    return seconds_between(start, end);
  }

  /// Writes the spans to \p path; returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("[", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\": %s, \"cat\": \"suite\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": 0, "
                   "\"args\": {\"parent\": %s}}",
                   i == 0 ? "" : ",", JsonLine::quote(span.name).c_str(),
                   1e6 * seconds_between(origin_, span.start),
                   1e6 * seconds_between(span.start, span.end),
                   JsonLine::quote(span.parent).c_str());
    }
    std::fputs("\n]\n", out);
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    std::string name;
    std::string parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace suite
