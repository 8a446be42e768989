// Tests for vodsim/stats: Welford accumulator, Student-t, histogram,
// time-weighted averages.

#include <gtest/gtest.h>

#include <cmath>

#include "vodsim/stats/accumulator.h"
#include "vodsim/util/rng.h"
#include "vodsim/stats/histogram.h"
#include "vodsim/stats/student_t.h"
#include "vodsim/stats/time_weighted.h"

namespace vodsim {
namespace {

// ---------------------------------------------------------------- accumulator

TEST(Accumulator, MeanAndVariance) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 4.571428571, 1e-9);  // unbiased
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsSafe) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.ci_half_width(), 0.0);
}

TEST(Accumulator, SingleSampleHasZeroVariance) {
  Accumulator acc;
  acc.add(3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.ci_half_width(), 0.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Accumulator all;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(static_cast<double>(i)) * 10.0;
    all.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a;
  a.add(1.0);
  a.add(3.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  Accumulator b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Accumulator, CiHalfWidthKnownCase) {
  // Five samples, stddev 1: half-width = t_{4,0.975} / sqrt(5) = 2.776/2.236.
  Accumulator acc;
  for (double x : {-1.0, -0.5, 0.0, 0.5, 1.0}) acc.add(x);
  const double t = student_t_quantile(4, 0.975);
  EXPECT_NEAR(acc.ci_half_width(0.95), t * acc.stddev() / std::sqrt(5.0), 1e-12);
}

TEST(Accumulator, FormatMeanCi) {
  Accumulator acc;
  acc.add(1.0);
  acc.add(2.0);
  const std::string text = format_mean_ci(acc, 2);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  EXPECT_NE(text.find("±"), std::string::npos);
}

// ---------------------------------------------------------------- student t

TEST(StudentT, KnownQuantiles) {
  // Classic table values.
  EXPECT_NEAR(student_t_quantile(1, 0.975), 12.706, 0.01);
  EXPECT_NEAR(student_t_quantile(4, 0.975), 2.776, 0.005);
  EXPECT_NEAR(student_t_quantile(10, 0.975), 2.228, 0.005);
  EXPECT_NEAR(student_t_quantile(30, 0.975), 2.042, 0.005);
  EXPECT_NEAR(student_t_quantile(4, 0.95), 2.132, 0.005);
}

TEST(StudentT, MedianIsZeroAndSymmetry) {
  EXPECT_DOUBLE_EQ(student_t_quantile(7, 0.5), 0.0);
  EXPECT_NEAR(student_t_quantile(7, 0.25), -student_t_quantile(7, 0.75), 1e-9);
}

TEST(StudentT, LargeDofApproachesNormal) {
  EXPECT_NEAR(student_t_quantile(10000, 0.975), 1.960, 0.005);
}

TEST(StudentT, CdfQuantileRoundTrip) {
  for (int dof : {1, 3, 9, 25}) {
    for (double p : {0.1, 0.3, 0.6, 0.9, 0.99}) {
      EXPECT_NEAR(student_t_cdf(dof, student_t_quantile(dof, p)), p, 1e-8);
    }
  }
}

TEST(IncompleteBeta, Endpoints) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBeta, UniformSpecialCase) {
  // I_x(1,1) = x.
  for (double x : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-12);
  }
}

// ---------------------------------------------------------------- histogram

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);
  h.add(0.999);
  h.add(5.0);
  h.add(9.999);
  h.add(10.0);  // top edge joins the last bin
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(5), 1u);
  EXPECT_EQ(h.bin(9), 2u);
  EXPECT_EQ(h.total_count(), 5u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.5);
  h.add(2.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total_count(), 2u);
}

TEST(Histogram, WeightedAdd) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25, 10);
  EXPECT_EQ(h.bin(0), 10u);
  EXPECT_EQ(h.total_count(), 10u);
}

TEST(Histogram, QuantileApproximation) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(Histogram, ToStringShowsNonEmptyBins) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  const std::string text = h.to_string();
  EXPECT_NE(text.find('#'), std::string::npos);
}

TEST(Histogram, EmptyQuantileReturnsLowerEdge) {
  Histogram h(2.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(Histogram, SingleSampleQuantiles) {
  Histogram h(0.0, 10.0, 10);
  h.add(3.2);
  // Every positive quantile lands in the one occupied bin's midpoint;
  // q = 0 is the lower edge by convention.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.5);
}

TEST(Histogram, QuantileAtBucketEdges) {
  // 4 equal bins, 1 sample each: cumulative counts hit the quantile targets
  // exactly at bin boundaries — the estimate must be the covering bin's
  // midpoint, with no off-by-one at the edge.
  Histogram h(0.0, 4.0, 4);
  for (double x : {0.5, 1.5, 2.5, 3.5}) h.add(x);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.5);   // target 1, reached by bin 0
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);    // target 2, reached by bin 1
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.5);
}

TEST(Histogram, QuantileWithOutOfRangeMass) {
  // Underflow mass counts toward low quantiles (clamped to lo); overflow
  // mass pushes high quantiles to hi.
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0, 2);  // clamped below
  h.add(0.25);
  h.add(9.0);      // clamped above
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);    // inside the underflow mass
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 0.25);  // the one in-range sample
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);    // overflow pins the top at hi
}

TEST(Histogram, TopEdgeJoinsLastBinNotOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(1.0);
  EXPECT_EQ(h.bin(3), 1u);
  EXPECT_EQ(h.overflow(), 0u);
}

// ---------------------------------------------------------------- time weighted

TEST(TimeWeighted, PiecewiseConstantMean) {
  TimeWeighted tw;
  tw.update(0.0, 2.0);   // value 2 on [0, 10)
  tw.update(10.0, 6.0);  // value 6 on [10, 20)
  tw.flush(20.0);
  EXPECT_DOUBLE_EQ(tw.mean(), 4.0);
  EXPECT_DOUBLE_EQ(tw.observed(), 20.0);
}

TEST(TimeWeighted, WindowClipping) {
  TimeWeighted tw(/*window_start=*/5.0, /*window_end=*/15.0);
  tw.update(0.0, 2.0);
  tw.update(10.0, 6.0);
  tw.flush(20.0);
  // Clipped: value 2 on [5,10), value 6 on [10,15) -> mean 4.
  EXPECT_DOUBLE_EQ(tw.mean(), 4.0);
  EXPECT_DOUBLE_EQ(tw.observed(), 10.0);
}

TEST(TimeWeighted, NoObservationsIsZero) {
  TimeWeighted tw;
  EXPECT_DOUBLE_EQ(tw.mean(), 0.0);
  EXPECT_DOUBLE_EQ(tw.observed(), 0.0);
}

TEST(TimeWeighted, RepeatedUpdatesAtSameTime) {
  TimeWeighted tw;
  tw.update(0.0, 1.0);
  tw.update(0.0, 5.0);  // zero-length segment contributes nothing
  tw.flush(10.0);
  EXPECT_DOUBLE_EQ(tw.mean(), 5.0);
}

// --- property tests -------------------------------------------------------

TEST(HistogramProperty, QuantilesMonotoneInQ) {
  Rng rng(31);
  for (int instance = 0; instance < 20; ++instance) {
    Histogram hist(0.0, 100.0, 1 + rng.uniform_int(40));
    const int samples = 1 + static_cast<int>(rng.uniform_int(500));
    for (int i = 0; i < samples; ++i) {
      // Include out-of-range mass so under/overflow paths are exercised.
      hist.add(rng.uniform(-20.0, 120.0));
    }
    double last = -1e300;
    for (double q = 0.0; q <= 1.0 + 1e-12; q += 0.01) {
      const double value = hist.quantile(std::min(q, 1.0));
      EXPECT_GE(value, last) << "q=" << q << " instance " << instance;
      last = value;
    }
  }
}

TEST(HistogramProperty, QuantilesInvariantUnderBucketPreservingPermutations) {
  // Quantiles are a function of the bucket counts alone, so (a) insertion
  // order and (b) the position of a sample *within* its bucket must not
  // matter.
  Rng rng(32);
  Histogram original(0.0, 50.0, 25);  // bin width 2
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) samples.push_back(rng.uniform(0.0, 50.0));
  for (double sample : samples) original.add(sample);

  std::vector<double> scrambled = samples;
  rng.shuffle(scrambled);
  Histogram permuted(0.0, 50.0, 25);
  for (double sample : scrambled) {
    // Move the sample to a fresh position inside the same 2-wide bucket.
    const double bucket_lo = std::floor(sample / 2.0) * 2.0;
    permuted.add(std::min(bucket_lo + 2.0 * rng.uniform(), 49.999999));
  }

  ASSERT_EQ(original.total_count(), permuted.total_count());
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(original.quantile(q), permuted.quantile(q)) << "q=" << q;
  }
}

TEST(TimeWeightedProperty, AgreesWithHandIntegratedStepFunctions) {
  // Random step functions, integrated by hand over the clipped window.
  Rng rng(34);
  for (int instance = 0; instance < 50; ++instance) {
    const double window_start = rng.uniform(0.0, 20.0);
    const double window_end = window_start + rng.uniform(1.0, 50.0);
    TimeWeighted tw(window_start, window_end);

    double t = rng.uniform(0.0, 10.0);
    double value = rng.uniform(-5.0, 5.0);
    tw.update(t, value);
    double integral = 0.0;
    double observed = 0.0;
    for (int step = 0; step < 30; ++step) {
      const double next = t + rng.uniform(0.0, 5.0);
      const double lo = std::max(t, window_start);
      const double hi = std::min(next, window_end);
      if (hi > lo) {
        integral += value * (hi - lo);
        observed += hi - lo;
      }
      value = rng.uniform(-5.0, 5.0);
      tw.update(next, value);
      t = next;
    }
    tw.flush(t);
    EXPECT_NEAR(tw.observed(), observed, 1e-9) << "instance " << instance;
    if (observed > 0.0) {
      EXPECT_NEAR(tw.mean(), integral / observed, 1e-9)
          << "instance " << instance;
    }
  }
}

}  // namespace
}  // namespace vodsim
