#pragma once

/// \file time_weighted.h
/// \brief Time-weighted average of a piecewise-constant signal.
///
/// Tracks quantities like "number of active streams on a server" whose mean
/// must be weighted by how long each value was held, optionally restricted
/// to a measurement window [window_start, window_end].

#include "vodsim/util/units.h"

namespace vodsim {

class TimeWeighted {
 public:
  /// \param window_start samples before this time are ignored.
  /// \param window_end samples after this time are ignored (inf = open).
  explicit TimeWeighted(Seconds window_start = 0.0,
                        Seconds window_end = 1e300);

  /// Records that the signal held \p value from the previous update time to
  /// \p now, then switches to tracking the next segment. The first call
  /// establishes the starting time; pass the initial value with it.
  void update(Seconds now, double value);

  /// Closes the current segment at \p now without changing the value.
  void flush(Seconds now);

  /// Time-weighted mean over the observed, window-clipped duration.
  double mean() const;

  /// Total window-clipped observation time.
  Seconds observed() const { return observed_; }

 private:
  void accumulate(Seconds from, Seconds to);

  Seconds window_start_;
  Seconds window_end_;
  Seconds last_time_ = 0.0;
  double value_ = 0.0;
  bool started_ = false;
  double weighted_sum_ = 0.0;
  Seconds observed_ = 0.0;
};

}  // namespace vodsim
