// Tests for vodsim/workload: Zipf law, Poisson arrivals, catalog generation,
// request generation, traces, popularity drift.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <sstream>

#include "vodsim/workload/catalog.h"
#include "vodsim/workload/drift.h"
#include "vodsim/workload/poisson.h"
#include "vodsim/workload/request_generator.h"
#include "vodsim/workload/trace.h"
#include "vodsim/workload/zipf.h"

namespace vodsim {
namespace {

// ---------------------------------------------------------------- zipf

/// Probability mass on the top \p k items.
double head_mass(const ZipfDistribution& zipf, std::size_t k) {
  const auto& pmf = zipf.probabilities();
  return std::accumulate(pmf.begin(), pmf.begin() + static_cast<std::ptrdiff_t>(k), 0.0);
}

TEST(Zipf, ProbabilitiesSumToOne) {
  for (double theta : {-1.5, -0.5, 0.0, 0.5, 1.0}) {
    ZipfDistribution zipf(100, theta);
    const double total = std::accumulate(zipf.probabilities().begin(),
                                         zipf.probabilities().end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12) << "theta=" << theta;
  }
}

TEST(Zipf, ThetaOneIsUniform) {
  ZipfDistribution zipf(50, 1.0);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_NEAR(zipf.pmf(i), 0.02, 1e-12);
}

TEST(Zipf, ThetaZeroIsClassicZipf) {
  ZipfDistribution zipf(10, 0.0);
  // p_i proportional to 1/i.
  EXPECT_NEAR(zipf.pmf(0) / zipf.pmf(1), 2.0, 1e-9);
  EXPECT_NEAR(zipf.pmf(0) / zipf.pmf(9), 10.0, 1e-9);
}

TEST(Zipf, NegativeThetaIsMoreSkewed) {
  ZipfDistribution mild(100, 0.5);
  ZipfDistribution zipf(100, 0.0);
  ZipfDistribution extreme(100, -1.5);
  EXPECT_LT(mild.pmf(0), zipf.pmf(0));
  EXPECT_LT(zipf.pmf(0), extreme.pmf(0));
  EXPECT_GT(head_mass(extreme, 5), 0.9);  // exponent 2.5: head takes ~everything
}

TEST(Zipf, MonotoneNonIncreasingInRank) {
  ZipfDistribution zipf(64, 0.271);
  for (std::size_t i = 1; i < 64; ++i) EXPECT_LE(zipf.pmf(i), zipf.pmf(i - 1));
}

TEST(Zipf, LargerCatalogMoreHeadMassShare) {
  // At fixed theta < 1, the most popular item's *relative advantage* over
  // the mean grows with N.
  ZipfDistribution small(10, 0.0);
  ZipfDistribution large(1000, 0.0);
  EXPECT_LT(small.pmf(0) * 10.0, large.pmf(0) * 1000.0);
}

TEST(Zipf, SamplingMatchesPmf) {
  ZipfDistribution zipf(20, 0.0);
  Rng rng(99);
  std::vector<int> counts(20, 0);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t i = 0; i < 20; ++i) {
    const double observed = counts[i] / static_cast<double>(kN);
    EXPECT_NEAR(observed, zipf.pmf(i), 0.005) << "rank " << i;
  }
}

TEST(Zipf, HeadMassBounds) {
  ZipfDistribution zipf(100, 0.0);
  EXPECT_DOUBLE_EQ(head_mass(zipf, 0), 0.0);
  EXPECT_NEAR(head_mass(zipf, 100), 1.0, 1e-12);
  EXPECT_GT(head_mass(zipf, 10), head_mass(zipf, 5));
}

TEST(Zipf, SingleItem) {
  ZipfDistribution zipf(1, 0.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(zipf.pmf(0), 1.0);
  EXPECT_EQ(zipf.sample(rng), 0u);
}

// ---------------------------------------------------------------- poisson

TEST(Poisson, MeanInterarrival) {
  PoissonProcess process(0.5);
  Rng rng(5);
  double total = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) total += process.next_gap(rng);
  EXPECT_NEAR(total / kN, 2.0, 0.05);
}

TEST(Poisson, OfferedLoadRate) {
  // 5 servers x 100 Mb/s, mean video 20 min at 3 Mb/s = 3600 Mb.
  const double rate = offered_load_rate(500.0, minutes(20), 3.0, 1.0);
  EXPECT_NEAR(rate, 500.0 / 3600.0, 1e-12);
  EXPECT_NEAR(offered_load_rate(500.0, minutes(20), 3.0, 0.5), rate / 2.0, 1e-12);
}

TEST(Poisson, OfferedLoadSaturatesCapacityInExpectation) {
  // rate x mean video size == total bandwidth at load factor 1.
  const double rate = offered_load_rate(6000.0, hours(1.5), 3.0, 1.0);
  EXPECT_NEAR(rate * hours(1.5) * 3.0, 6000.0, 1e-9);
}

// ---------------------------------------------------------------- catalog

TEST(Catalog, GeneratesRequestedShape) {
  CatalogSpec spec;
  spec.num_videos = 50;
  spec.min_duration = minutes(10);
  spec.max_duration = minutes(30);
  spec.view_bandwidth = 3.0;
  Rng rng(3);
  const VideoCatalog catalog = generate_catalog(spec, rng);
  ASSERT_EQ(catalog.size(), 50u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const Video& video = catalog[static_cast<VideoId>(i)];
    EXPECT_EQ(video.id, static_cast<VideoId>(i));
    EXPECT_GE(video.duration, minutes(10));
    EXPECT_LE(video.duration, minutes(30));
    EXPECT_DOUBLE_EQ(video.size(), video.duration * 3.0);
  }
}

TEST(Catalog, MeanStatistics) {
  CatalogSpec spec;
  spec.num_videos = 2000;
  Rng rng(4);
  const VideoCatalog catalog = generate_catalog(spec, rng);
  double total_duration = 0.0;
  for (const Video& video : catalog.videos()) total_duration += video.duration;
  EXPECT_NEAR(total_duration / static_cast<double>(catalog.size()), minutes(20),
              minutes(1));
  EXPECT_NEAR(catalog.mean_size(), minutes(20) * 3.0, minutes(1) * 3.0);
}

// ---------------------------------------------------------------- generator

TEST(RequestGenerator, TimesStrictlyIncreaseAndVideosValid) {
  StaticZipfPopularity popularity(30, 0.271);
  RequestGenerator generator(PoissonProcess(1.0), popularity, 77);
  Seconds last = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const auto arrival = generator.next();
    ASSERT_TRUE(arrival.has_value());
    EXPECT_GT(arrival->time, last);
    last = arrival->time;
    EXPECT_GE(arrival->video, 0);
    EXPECT_LT(arrival->video, 30);
  }
}

TEST(RequestGenerator, DeterministicFromSeed) {
  StaticZipfPopularity popularity(30, 0.0);
  RequestGenerator a(PoissonProcess(2.0), popularity, 42);
  RequestGenerator b(PoissonProcess(2.0), popularity, 42);
  for (int i = 0; i < 200; ++i) {
    const auto arrival_a = a.next();
    const auto arrival_b = b.next();
    EXPECT_DOUBLE_EQ(arrival_a->time, arrival_b->time);
    EXPECT_EQ(arrival_a->video, arrival_b->video);
  }
}

TEST(RequestGenerator, RateMatches) {
  StaticZipfPopularity popularity(5, 1.0);
  RequestGenerator generator(PoissonProcess(0.25), popularity, 5);
  Seconds last = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) last = generator.next()->time;
  EXPECT_NEAR(last / kN, 4.0, 0.1);
}

// ---------------------------------------------------------------- trace

TEST(Trace, RecordAndReplay) {
  StaticZipfPopularity popularity(10, 0.0);
  RequestGenerator generator(PoissonProcess(1.0), popularity, 9);
  const RequestTrace trace = RequestTrace::record(generator, 100);
  ASSERT_EQ(trace.size(), 100u);

  TraceArrivalSource source(trace);
  for (std::size_t i = 0; i < 100; ++i) {
    const auto arrival = source.next();
    ASSERT_TRUE(arrival.has_value());
    EXPECT_DOUBLE_EQ(arrival->time, trace[i].time);
    EXPECT_EQ(arrival->video, trace[i].video);
  }
  EXPECT_FALSE(source.next().has_value());
}

TEST(Trace, CsvRoundTrip) {
  StaticZipfPopularity popularity(10, 0.0);
  RequestGenerator generator(PoissonProcess(1.0), popularity, 10);
  const RequestTrace trace = RequestTrace::record(generator, 50);

  std::stringstream buffer;
  trace.save(buffer);
  const RequestTrace loaded = RequestTrace::load(buffer);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].time, trace[i].time);
    EXPECT_EQ(loaded[i].video, trace[i].video);
  }
}

TEST(Trace, RecordUntilHorizon) {
  StaticZipfPopularity popularity(10, 0.0);
  RequestGenerator generator(PoissonProcess(1.0), popularity, 11);
  const RequestTrace trace = RequestTrace::record_until(generator, 100.0);
  EXPECT_GT(trace.size(), 50u);
  EXPECT_LT(trace.size(), 200u);
  for (std::size_t i = 0; i < trace.size(); ++i) EXPECT_LE(trace[i].time, 100.0);
}

TEST(Trace, LoadRejectsBadHeader) {
  std::stringstream bad("nope,header\n1,2\n");
  EXPECT_THROW(RequestTrace::load(bad), std::runtime_error);
}

TEST(Trace, LoadRejectsBackwardsTime) {
  std::stringstream bad("time_s,video_id\n5,0\n3,1\n");
  EXPECT_THROW(RequestTrace::load(bad), std::runtime_error);
}

TEST(Trace, LoadRejectsGarbageRow) {
  std::stringstream bad("time_s,video_id\nxyz,0\n");
  EXPECT_THROW(RequestTrace::load(bad), std::runtime_error);
}

// ---------------------------------------------------------------- drift

TEST(Drift, StaticModelIgnoresTime) {
  StaticZipfPopularity popularity(20, 0.0);
  EXPECT_EQ(popularity.probabilities(0.0), popularity.probabilities(1e6));
}

TEST(Drift, ProbabilitiesAlwaysSumToOne) {
  DriftingZipfPopularity drifting(30, 0.0, hours(10), 7);
  for (Seconds t : {0.0, hours(5), hours(15), hours(123)}) {
    const auto probs = drifting.probabilities(t);
    EXPECT_NEAR(std::accumulate(probs.begin(), probs.end(), 0.0), 1.0, 1e-12);
  }
}

TEST(Drift, RotatesByStepEachEpoch) {
  DriftingZipfPopularity drifting(10, 0.0, 100.0, 3);
  EXPECT_EQ(drifting.epoch(0.0), 0u);
  EXPECT_EQ(drifting.epoch(99.9), 0u);
  EXPECT_EQ(drifting.epoch(100.0), 1u);
  EXPECT_EQ(drifting.video_at_rank(0.0, 0), 0);
  EXPECT_EQ(drifting.video_at_rank(150.0, 0), 3);
  EXPECT_EQ(drifting.video_at_rank(250.0, 0), 6);
  EXPECT_EQ(drifting.video_at_rank(350.0, 9), (9 + 9) % 10);
}

TEST(Drift, ZeroStepDegeneratesToStatic) {
  DriftingZipfPopularity drifting(15, 0.5, 100.0, 0);
  StaticZipfPopularity fixed(15, 0.5);
  EXPECT_EQ(drifting.probabilities(1e6), fixed.probabilities(0.0));
}

TEST(Drift, SamplingFollowsShiftedLaw) {
  DriftingZipfPopularity drifting(10, -1.0, 100.0, 4);
  Rng rng(12);
  // In epoch 2 the most popular video is (0 + 2*4) % 10 = 8.
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[static_cast<std::size_t>(drifting.sample(250.0, rng))];
  }
  const auto hottest =
      std::distance(counts.begin(), std::max_element(counts.begin(), counts.end()));
  EXPECT_EQ(hottest, 8);
}

}  // namespace
}  // namespace vodsim
