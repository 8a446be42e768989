// Tests for vodsim/stats: Welford accumulator, Student-t, time-weighted
// averages.

#include <gtest/gtest.h>

#include <cmath>

#include "vodsim/stats/accumulator.h"
#include "vodsim/util/rng.h"
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
  EXPECT_DOUBLE_EQ(acc.mean() * static_cast<double>(acc.count()), 40.0);  // sum
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
