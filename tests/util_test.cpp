// Tests for vodsim/util: RNG, CSV, tables, CLI, env helpers, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>

#include "vodsim/util/cli.h"
#include "vodsim/util/csv.h"
#include "vodsim/util/env.h"
#include "vodsim/util/rng.h"
#include "vodsim/util/stable_vector.h"
#include "vodsim/util/table.h"
#include "vodsim/util/thread_pool.h"
#include "vodsim/util/units.h"

namespace vodsim {
namespace {

// ---------------------------------------------------------------- units

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(minutes(10), 600.0);
  EXPECT_DOUBLE_EQ(hours(2), 7200.0);
  EXPECT_DOUBLE_EQ(gigabytes(1), 8000.0);
  EXPECT_DOUBLE_EQ(to_gigabytes(gigabytes(150)), 150.0);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(11);
  double sum = 0.0;
  double sumsq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    sum += u;
    sumsq += u * u;
  }
  const double mean = sum / kN;
  const double var = sumsq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntRangeAndCoverage) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntUnbiasedRoughly) {
  Rng rng(17);
  constexpr std::uint64_t kBuckets = 5;
  constexpr int kN = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kN; ++i) ++counts[rng.uniform_int(kBuckets)];
  for (auto count : counts) {
    EXPECT_NEAR(static_cast<double>(count), kN / 5.0, kN * 0.01);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  const double rate = 0.25;
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / kN, 1.0 / rate, 0.05);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.exponential(3.0), 0.0);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(29);
  const std::vector<double> weights = {1.0, 2.0, 7.0};
  int counts[3] = {};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.2, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.7, 0.015);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(37);
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[static_cast<std::size_t>(i)] = i;
  const auto original = items;
  rng.shuffle(items);
  EXPECT_NE(items, original);  // probability of identity is ~1/50!
}

TEST(Rng, ForkSeedIndependentStreams) {
  Rng parent(41);
  Rng child1(parent.fork_seed());
  Rng child2(parent.fork_seed());
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1.next_u64() == child2.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitmixAdvances) {
  std::uint64_t state = 0;
  const auto a = splitmix64_next(state);
  const auto b = splitmix64_next(state);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------- csv

TEST(Csv, PlainRow) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(Csv, QuotesWhenNeeded) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a,b", "say \"hi\"", "line\nbreak"});
  EXPECT_EQ(out.str(), "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(Csv, RoundTrip) {
  std::ostringstream out;
  CsvWriter writer(out);
  const std::vector<std::string> row = {"plain", "with,comma", "with\"quote", ""};
  writer.write_row(row);
  std::string line = out.str();
  line.pop_back();  // strip trailing newline
  std::vector<std::string> parsed;
  ASSERT_TRUE(parse_csv_line(line, parsed));
  EXPECT_EQ(parsed, row);
}

TEST(Csv, NumericFieldRoundTrip) {
  const double value = 0.12345678901234567;
  EXPECT_DOUBLE_EQ(std::stod(CsvWriter::field(value)), value);
}

TEST(Csv, ParseRejectsUnterminatedQuote) {
  std::vector<std::string> fields;
  EXPECT_FALSE(parse_csv_line("\"oops", fields));
}

TEST(Csv, ParseToleratesCrLf) {
  std::vector<std::string> fields;
  ASSERT_TRUE(parse_csv_line("a,b\r", fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b"}));
}

TEST(Csv, ParseRejectsTextAfterClosingQuote) {
  // `"ab"c` is not valid RFC 4180 — a lenient parse would silently merge
  // the stray text and corrupt the field.
  std::vector<std::string> fields;
  EXPECT_FALSE(parse_csv_line("\"ab\"c", fields));
  EXPECT_FALSE(parse_csv_line("\"ab\"\"cd\"x,next", fields));
  EXPECT_FALSE(parse_csv_line("a,\"b\"c,d", fields));
}

TEST(Csv, ParseRejectsQuoteOpeningMidField) {
  std::vector<std::string> fields;
  EXPECT_FALSE(parse_csv_line("ab\"c\"", fields));
}

TEST(Csv, ParseAllowsQuotedFieldThenComma) {
  std::vector<std::string> fields;
  ASSERT_TRUE(parse_csv_line("\"a,b\",c", fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"a,b", "c"}));
  ASSERT_TRUE(parse_csv_line("\"quoted\"\r", fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"quoted"}));
}

TEST(Csv, RecordRoundTripsEmbeddedNewlines) {
  std::ostringstream out;
  CsvWriter writer(out);
  const std::vector<std::string> row1 = {"multi\nline", "with,comma",
                                         "quote\"and\nnewline"};
  const std::vector<std::string> row2 = {"plain", "second"};
  writer.write_row(row1);
  writer.write_row(row2);

  std::istringstream in(out.str());
  std::vector<std::string> parsed;
  ASSERT_TRUE(read_csv_record(in, parsed));
  EXPECT_EQ(parsed, row1);
  ASSERT_TRUE(read_csv_record(in, parsed));
  EXPECT_EQ(parsed, row2);
  EXPECT_FALSE(read_csv_record(in, parsed));  // end of input
}

TEST(Csv, RecordRejectsEofInsideQuotes) {
  std::istringstream in("\"never closed\nstill going");
  std::vector<std::string> fields;
  EXPECT_FALSE(read_csv_record(in, fields));
}

TEST(Csv, NonFiniteDoublesNormalized) {
  // pandas and spreadsheets parse these spellings; platform printf output
  // for non-finite values varies, so field() pins them.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(CsvWriter::field(inf), "inf");
  EXPECT_EQ(CsvWriter::field(-inf), "-inf");
  EXPECT_EQ(CsvWriter::field(std::nan("")), "nan");
}

// ---------------------------------------------------------------- table

TEST(Table, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "23"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name   | value |"), std::string::npos);
  EXPECT_NE(text.find("| longer |    23 |"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(TablePrinter::num(0.12345, 3), "0.123");
  EXPECT_EQ(TablePrinter::pct(0.5, 1), "50.0%");
}

// ---------------------------------------------------------------- cli

TEST(Cli, DefaultsAndOverrides) {
  CliParser cli("prog", "test");
  cli.add_flag("alpha", "1.5", "a value");
  cli.add_bool_flag("verbose", "flag");
  const char* argv[] = {"prog", "--alpha", "2.5", "--verbose"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 2.5);
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, EqualsSyntax) {
  CliParser cli("prog", "test");
  cli.add_flag("n", "0", "count");
  const char* argv[] = {"prog", "--n=42"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_long("n"), 42);
}

TEST(Cli, UnknownFlagFails) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
  EXPECT_FALSE(cli.error().empty());
}

TEST(Cli, MissingValueFails) {
  CliParser cli("prog", "test");
  cli.add_flag("x", "0", "value");
  const char* argv[] = {"prog", "--x"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, RejectsMalformedNumber) {
  auto parser = [] {
    CliParser cli("prog", "test");
    cli.add_flag("shards", "1", "count");
    cli.add_flag("hours", "60", "duration");
    cli.add_flag("theta", "0.271", "skew");
    cli.add_flag("system", "small", "preset");
    cli.add_flag("out", "", "path");
    return cli;
  };
  // A value that is not one complete number fails parse() for every flag
  // whose default is a number, naming the flag and the value.
  for (const char* bad : {"4x", "abc", "", "1e", "0.5.1"}) {
    SCOPED_TRACE(bad);
    CliParser cli = parser();
    const char* argv[] = {"prog", "--shards", bad};
    EXPECT_FALSE(cli.parse(3, argv));
    EXPECT_EQ(cli.error(), std::string("invalid value for --shards: '") + bad + "'");
  }
  {
    CliParser cli = parser();
    const char* argv[] = {"prog", "--theta=0.3x"};
    EXPECT_FALSE(cli.parse(2, argv));
    EXPECT_EQ(cli.error(), "invalid value for --theta: '0.3x'");
  }
  // Real-valued quantities may take fractions and exponents even when the
  // default is written as an integer; non-numeric defaults take anything.
  {
    CliParser cli = parser();
    const char* argv[] = {"prog", "--hours", "0.5", "--theta", "-1e-1",
                          "--shards", "-3", "--system", "4x", "--out", "x.csv"};
    ASSERT_TRUE(cli.parse(11, argv)) << cli.error();
    EXPECT_DOUBLE_EQ(cli.get_double("hours"), 0.5);
    EXPECT_DOUBLE_EQ(cli.get_double("theta"), -0.1);
    EXPECT_EQ(cli.get_long("shards"), -3);
    EXPECT_EQ(cli.get_string("system"), "4x");
  }
  // A fractional count parses as a number but is not an integer: reading
  // it as one exits with status 2 instead of truncating 2.9 to 2.
  CliParser cli = parser();
  const char* argv[] = {"prog", "--shards", "2.9"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("shards"), 2.9);
  EXPECT_EXIT(cli.get_long("shards"), ::testing::ExitedWithCode(2),
              "invalid value for --shards: '2.9'");
}

// ---------------------------------------------------------------- env

TEST(Env, FallbacksAndParsing) {
  unsetenv("VODSIM_TEST_ENV");
  EXPECT_EQ(env_long("VODSIM_TEST_ENV", 5), 5);
  setenv("VODSIM_TEST_ENV", "12", 1);
  EXPECT_EQ(env_long("VODSIM_TEST_ENV", 5), 12);
  setenv("VODSIM_TEST_ENV", "3.5", 1);
  EXPECT_DOUBLE_EQ(env_double("VODSIM_TEST_ENV", 1.0), 3.5);
  setenv("VODSIM_TEST_ENV", "garbage", 1);
  EXPECT_EQ(env_long("VODSIM_TEST_ENV", 5), 5);
  unsetenv("VODSIM_TEST_ENV");
}

TEST(Env, BenchScaleOverrides) {
  unsetenv("REPRO_FULL");
  setenv("REPRO_TRIALS", "9", 1);
  setenv("REPRO_HOURS", "123", 1);
  const BenchScale scale = bench_scale();
  EXPECT_EQ(scale.trials, 9);
  EXPECT_DOUBLE_EQ(scale.sim_hours, 123.0);
  unsetenv("REPRO_TRIALS");
  unsetenv("REPRO_HOURS");
}

TEST(Env, ReproFullScale) {
  setenv("REPRO_FULL", "1", 1);
  const BenchScale scale = bench_scale();
  EXPECT_EQ(scale.trials, 5);
  EXPECT_DOUBLE_EQ(scale.sim_hours, 1000.0);
  unsetenv("REPRO_FULL");
}

// ---------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, IndicesCoverRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(StableVector, AddressesSurviveGrowth) {
  // The engine captures Request& in pending event callbacks, so elements
  // must never relocate — across as many chunk boundaries as we care to
  // cross.
  StableVector<int, 4> values;
  std::vector<const int*> addresses;
  for (int i = 0; i < 100; ++i) {
    addresses.push_back(&values.emplace_back(i));
  }
  ASSERT_EQ(values.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(&values[static_cast<std::size_t>(i)], addresses[static_cast<std::size_t>(i)]);
    EXPECT_EQ(values[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(&values.back(), addresses.back());
}

TEST(StableVector, RangeForVisitsInOrder) {
  StableVector<int, 3> values;
  EXPECT_TRUE(values.empty());
  for (int i = 0; i < 10; ++i) values.emplace_back(i * i);
  int expected = 0;
  for (const int& value : values) {
    EXPECT_EQ(value, expected * expected);
    ++expected;
  }
  EXPECT_EQ(expected, 10);
}

TEST(StableVector, DestroysElementsOnClear) {
  static int live = 0;
  struct Probe {
    Probe() { ++live; }
    ~Probe() { --live; }
  };
  StableVector<Probe, 2> probes;
  for (int i = 0; i < 7; ++i) probes.emplace_back();
  EXPECT_EQ(live, 7);
  probes.clear();
  EXPECT_EQ(live, 0);
  EXPECT_TRUE(probes.empty());
}

}  // namespace
}  // namespace vodsim
