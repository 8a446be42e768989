// Tests for placement policies: copy budgets, storage feasibility,
// popularity proportionality.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "vodsim/placement/bsr.h"
#include "vodsim/placement/even.h"
#include "vodsim/placement/partial_predictive.h"
#include "vodsim/placement/placement.h"
#include "vodsim/placement/predictive.h"
#include "vodsim/util/rng.h"
#include "vodsim/workload/catalog.h"
#include "vodsim/workload/zipf.h"

namespace vodsim {
namespace {

VideoCatalog make_catalog(std::size_t n, Seconds duration = 600.0) {
  std::vector<Video> videos;
  for (std::size_t i = 0; i < n; ++i) {
    Video video;
    video.id = static_cast<VideoId>(i);
    video.duration = duration;
    video.view_bandwidth = 3.0;
    videos.push_back(video);
  }
  return VideoCatalog(std::move(videos));
}

std::vector<Server> make_servers(int n, Megabits storage = 1e9) {
  std::vector<Server> servers;
  for (int i = 0; i < n; ++i) servers.emplace_back(i, 100.0, storage);
  return servers;
}

std::vector<double> zipf_popularity(std::size_t n, double theta) {
  return ZipfDistribution(n, theta).probabilities();
}

// --------------------------------------------------------------- helpers

TEST(PlacementDetail, CopyBudgetRounds) {
  EXPECT_EQ(placement_detail::copy_budget(100, 2.2), 220);
  EXPECT_EQ(placement_detail::copy_budget(10, 2.25), 23);  // llround
  EXPECT_EQ(placement_detail::copy_budget(3, 1.0), 3);
}

TEST(PlacementDetail, ProportionalCopiesExactBudgetAndFloor) {
  const std::vector<double> weights = {0.6, 0.25, 0.1, 0.04, 0.01};
  const auto copies = placement_detail::proportional_copies(weights, 20);
  EXPECT_EQ(std::accumulate(copies.begin(), copies.end(), 0), 20);
  for (int c : copies) EXPECT_GE(c, 1);
  // Ordering follows weights.
  EXPECT_GE(copies[0], copies[1]);
  EXPECT_GE(copies[1], copies[2]);
  EXPECT_GE(copies[2], copies[4]);
}

TEST(PlacementDetail, ProportionalCopiesMinimumBudget) {
  const std::vector<double> weights = {0.9, 0.05, 0.05};
  const auto copies = placement_detail::proportional_copies(weights, 3);
  EXPECT_EQ(copies, (std::vector<int>{1, 1, 1}));
}

// The linear-scan apportionment proportional_copies used before its cap
// redistribution moved to a heap, kept verbatim as the reference the heap
// must reproduce copy for copy.
std::vector<int> linear_scan_proportional_copies(const std::vector<double>& weights,
                                                 int budget, int max_copies) {
  const std::size_t n = weights.size();
  const double total_weight = std::accumulate(weights.begin(), weights.end(), 0.0);

  std::vector<int> copies(n, 1);
  int remaining = budget - static_cast<int>(n);

  std::vector<double> quota(n);
  std::vector<int> floors(n);
  int floor_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    quota[i] = weights[i] / total_weight * static_cast<double>(remaining);
    floors[i] = static_cast<int>(std::floor(quota[i]));
    floor_sum += floors[i];
    copies[i] += floors[i];
  }
  int leftovers = remaining - floor_sum;

  std::vector<std::size_t> by_remainder(n);
  std::iota(by_remainder.begin(), by_remainder.end(), 0);
  std::sort(by_remainder.begin(), by_remainder.end(), [&](std::size_t a, std::size_t b) {
    const double ra = quota[a] - std::floor(quota[a]);
    const double rb = quota[b] - std::floor(quota[b]);
    if (ra != rb) return ra > rb;
    return a < b;
  });
  for (int i = 0; i < leftovers; ++i) {
    ++copies[by_remainder[static_cast<std::size_t>(i)]];
  }

  long overflow = 0;
  for (int& c : copies) {
    if (c > max_copies) {
      overflow += c - max_copies;
      c = max_copies;
    }
  }
  while (overflow > 0) {
    double best_score = -1.0;
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (copies[i] >= max_copies) continue;
      const double score = weights[i] / static_cast<double>(copies[i]);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == n) break;
    ++copies[best];
    --overflow;
  }
  return copies;
}

TEST(PlacementDetail, ProportionalCopiesMatchesLinearScanReference) {
  // Random instances across the weight shapes placement sees (Zipf skews
  // from super-Zipf to uniform) and the ones that make ties (equal and
  // small-integer weights) or zero scores (zero weights), with budgets from
  // the one-copy floor past n * max_copies.
  constexpr int kInstances = 600;
  Rng rng(20);
  int redistributed = 0;
  for (int k = 0; k < kInstances; ++k) {
    const std::size_t n = k % 150 == 0 ? 1000 + rng.uniform_int(3001)
                                       : 1 + rng.uniform_int(120);
    std::vector<double> weights(n);
    switch (k % 4) {
      case 0:
        weights = ZipfDistribution(n, rng.uniform(-1.5, 1.0)).probabilities();
        break;
      case 1:  // an all-equal tail behind a few heavy titles
        std::fill(weights.begin(), weights.end(), 1.0);
        std::fill_n(weights.begin(), n / 10 + 1, 20.0);
        break;
      case 2:
        for (double& w : weights) w = static_cast<double>(1 + rng.uniform_int(16));
        break;
      case 3:
        weights = ZipfDistribution(n, rng.uniform(-1.5, 1.0)).probabilities();
        for (double& w : weights) {
          if (rng.uniform() < 0.3) w = 0.0;
        }
        weights.front() = 1.0;
        break;
    }
    const int max_copies = 1 + static_cast<int>(rng.uniform_int(6));
    const int cap_total = static_cast<int>(n) * max_copies;
    // Budget in [n, n + 1.2 * (n * max_copies - n)]: about one in six
    // instances with a cap above 1 cannot be spent in full and caps every
    // title.
    const int spare = cap_total - static_cast<int>(n);
    const int budget = static_cast<int>(n) +
                       static_cast<int>(rng.uniform_int(
                           static_cast<std::uint64_t>(spare / 5 * 6) + 1));
    SCOPED_TRACE("instance " + std::to_string(k) + " n " + std::to_string(n) +
                 " budget " + std::to_string(budget) + " cap " +
                 std::to_string(max_copies));

    const std::vector<int> copies =
        placement_detail::proportional_copies(weights, budget, max_copies);
    ASSERT_EQ(copies, linear_scan_proportional_copies(weights, budget, max_copies));
    const std::vector<int> uncapped = linear_scan_proportional_copies(
        weights, budget, std::numeric_limits<int>::max());
    if (*std::max_element(uncapped.begin(), uncapped.end()) > max_copies &&
        budget < cap_total) {
      ++redistributed;  // the heap hands out overflow and outlasts it
    }
    EXPECT_EQ(std::accumulate(copies.begin(), copies.end(), 0),
              std::min(budget, cap_total));
  }
  // The comparison is not vacuous: a large share of instances redistribute
  // overflow to uncapped titles.
  EXPECT_GT(redistributed, kInstances / 3);

  // Every title capped: the heap empties with overflow left over.
  const std::vector<double> zipf = zipf_popularity(50, 0.0);
  const std::vector<int> all_capped = placement_detail::proportional_copies(zipf, 400, 3);
  EXPECT_EQ(all_capped, std::vector<int>(50, 3));
  EXPECT_EQ(all_capped, linear_scan_proportional_copies(zipf, 400, 3));
}

TEST(PlacementDetail, InstallRespectsDistinctServers) {
  const VideoCatalog catalog = make_catalog(4);
  auto servers = make_servers(3);
  Rng rng(1);
  const std::vector<int> copies = {3, 3, 3, 3};
  const auto result = placement_detail::install_replicas(catalog, copies, servers, rng);
  EXPECT_EQ(result.placed_total, 12);
  EXPECT_EQ(result.shortfall, 0);
  for (const Server& server : servers) EXPECT_EQ(server.replicas().size(), 4u);
}

TEST(PlacementDetail, InstallReportsStorageShortfall) {
  const VideoCatalog catalog = make_catalog(10, 600.0);  // 1800 Mb each
  auto servers = make_servers(2, /*storage=*/4000.0);    // 2 videos per server
  Rng rng(2);
  const std::vector<int> copies(10, 1);
  const auto result = placement_detail::install_replicas(catalog, copies, servers, rng);
  EXPECT_EQ(result.placed_total, 4);
  EXPECT_EQ(result.shortfall, 6);
}

// --------------------------------------------------------------- even

TEST(EvenPlacement, UniformCountsWithRandomSurplus) {
  const VideoCatalog catalog = make_catalog(10);
  auto servers = make_servers(5);
  Rng rng(3);
  EvenPlacement policy;
  const auto result =
      policy.place(catalog, zipf_popularity(10, 0.0), 2.2, servers, rng);
  EXPECT_EQ(result.placed_total, 22);
  int twos = 0;
  int threes = 0;
  for (int c : result.copies) {
    EXPECT_TRUE(c == 2 || c == 3) << c;
    (c == 2 ? twos : threes)++;
  }
  EXPECT_EQ(twos, 8);
  EXPECT_EQ(threes, 2);
}

TEST(EvenPlacement, IgnoresPopularity) {
  const VideoCatalog catalog = make_catalog(20);
  Rng rng_a(7);
  Rng rng_b(7);
  auto servers_a = make_servers(5);
  auto servers_b = make_servers(5);
  EvenPlacement policy;
  const auto with_skew =
      policy.place(catalog, zipf_popularity(20, -1.5), 2.0, servers_a, rng_a);
  const auto with_uniform =
      policy.place(catalog, zipf_popularity(20, 1.0), 2.0, servers_b, rng_b);
  EXPECT_EQ(with_skew.copies, with_uniform.copies);
}

// --------------------------------------------------------------- predictive

TEST(PredictivePlacement, FollowsPopularity) {
  const VideoCatalog catalog = make_catalog(50);
  auto servers = make_servers(10);
  Rng rng(4);
  PredictivePlacement policy;
  const auto popularity = zipf_popularity(50, -0.5);
  const auto result = policy.place(catalog, popularity, 2.2, servers, rng);
  EXPECT_EQ(result.placed_total, 110);
  // The most popular title gets the most copies; every title gets >= 1.
  EXPECT_EQ(*std::max_element(result.copies.begin(), result.copies.end()),
            result.copies[0]);
  for (int c : result.copies) EXPECT_GE(c, 1);
  EXPECT_GT(result.copies[0], result.copies[49]);
}

TEST(PredictivePlacement, CopiesCappedAtServerCount) {
  const VideoCatalog catalog = make_catalog(5);
  auto servers = make_servers(3);
  Rng rng(5);
  PredictivePlacement policy;
  // Extreme skew: proportional share of video 0 far exceeds 3 copies.
  const auto result =
      policy.place(catalog, zipf_popularity(5, -1.5), 3.0, servers, rng);
  for (int c : result.copies) EXPECT_LE(c, 3);
}

// --------------------------------------------------------------- partial

TEST(PartialPredictive, SurplusGoesToPopularHead) {
  const VideoCatalog catalog = make_catalog(10);
  auto servers = make_servers(5);
  Rng rng(6);
  PartialPredictivePlacement policy(/*head_fraction=*/0.2, /*tail_shift=*/0.0);
  const auto result =
      policy.place(catalog, zipf_popularity(10, 0.0), 2.2, servers, rng);
  EXPECT_EQ(result.placed_total, 22);
  // The 2 surplus copies land on the 2 most popular titles.
  EXPECT_EQ(result.copies[0], 3);
  EXPECT_EQ(result.copies[1], 3);
  for (std::size_t i = 2; i < 10; ++i) EXPECT_EQ(result.copies[i], 2);
}

TEST(PartialPredictive, TailShiftMovesBudgetToHead) {
  const VideoCatalog catalog = make_catalog(20);
  auto servers = make_servers(10);
  Rng rng(7);
  PartialPredictivePlacement policy(/*head_fraction=*/0.1, /*tail_shift=*/0.2);
  const auto result =
      policy.place(catalog, zipf_popularity(20, 0.0), 2.0, servers, rng);
  EXPECT_EQ(result.placed_total, 40);  // budget preserved
  for (int c : result.copies) EXPECT_GE(c, 1);
  EXPECT_GT(result.copies[0], 3);           // head boosted
  EXPECT_EQ(result.copies[19], 1);          // tail shrunk to floor
}

// --------------------------------------------------------------- bsr

TEST(BsrPlacement, PlacesFullBudgetAndFloor) {
  const VideoCatalog catalog = make_catalog(30);
  auto servers = make_servers(6);
  Rng rng(8);
  BsrPlacement policy;
  const auto result =
      policy.place(catalog, zipf_popularity(30, 0.0), 2.0, servers, rng);
  EXPECT_EQ(result.placed_total, 60);
  EXPECT_EQ(result.shortfall, 0);
  for (int c : result.copies) EXPECT_GE(c, 1);
}

TEST(BsrPlacement, HotTitlesSpreadAcrossServers) {
  const VideoCatalog catalog = make_catalog(12);
  auto servers = make_servers(4);
  Rng rng(9);
  BsrPlacement policy;
  const auto result =
      policy.place(catalog, zipf_popularity(12, -1.0), 2.0, servers, rng);
  // The hottest title's copies are on distinct servers by construction.
  int holders = 0;
  for (const Server& server : servers) {
    if (server.holds(0)) ++holders;
  }
  EXPECT_EQ(holders, result.copies[0]);
}

// --------------------------------------------------------------- factory

TEST(PlacementFactory, RoundTripNames) {
  const Topology topology(TopologyConfig{true, 2, 1}, 4);
  for (PlacementKind kind : {PlacementKind::kEven, PlacementKind::kPredictive,
                             PlacementKind::kPartialPredictive, PlacementKind::kBsr,
                             PlacementKind::kDomainSpread}) {
    PlacementConfig config;
    config.kind = kind;
    EXPECT_EQ(make_placement(config, topology)->name(), to_string(kind));
    if (kind != PlacementKind::kDomainSpread) {
      EXPECT_EQ(make_placement(kind)->name(), to_string(kind));
    }
    EXPECT_EQ(placement_kind_from_string(to_string(kind)), kind);
  }
  // Without the topology a domain-spread policy would index an empty tree.
  EXPECT_THROW(make_placement(PlacementKind::kDomainSpread), std::invalid_argument);
  EXPECT_THROW(placement_kind_from_string("nope"), std::invalid_argument);
}

// ------------------------------------------------- budget-parity property

class PlacementBudgetParity : public ::testing::TestWithParam<PlacementKind> {};

TEST_P(PlacementBudgetParity, AllPoliciesSpendTheSameBudget) {
  const VideoCatalog catalog = make_catalog(40);
  auto servers = make_servers(8);
  Rng rng(10);
  PlacementConfig config;
  config.kind = GetParam();
  const auto policy = make_placement(config, Topology(TopologyConfig{true, 4, 2}, 8));
  const auto result =
      policy->place(catalog, zipf_popularity(40, 0.271), 2.2, servers, rng);
  EXPECT_EQ(result.placed_total, placement_detail::copy_budget(40, 2.2));
  EXPECT_EQ(result.shortfall, 0);
  // Directory sanity: every video is somewhere.
  for (int c : result.copies) EXPECT_GE(c, 1);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PlacementBudgetParity,
                         ::testing::Values(PlacementKind::kEven,
                                           PlacementKind::kPredictive,
                                           PlacementKind::kPartialPredictive,
                                           PlacementKind::kBsr,
                                           PlacementKind::kDomainSpread),
                         [](const ::testing::TestParamInfo<PlacementKind>& info) {
                           return to_string(info.param);
                         });

}  // namespace
}  // namespace vodsim
