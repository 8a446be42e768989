#include "vodsim/placement/placement.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "vodsim/placement/bsr.h"
#include "vodsim/placement/domain_spread.h"
#include "vodsim/placement/even.h"
#include "vodsim/placement/partial_predictive.h"
#include "vodsim/placement/predictive.h"

namespace vodsim {

std::unique_ptr<PlacementPolicy> make_placement(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kEven:
      return std::make_unique<EvenPlacement>();
    case PlacementKind::kPredictive:
      return std::make_unique<PredictivePlacement>();
    case PlacementKind::kPartialPredictive:
      return std::make_unique<PartialPredictivePlacement>();
    case PlacementKind::kBsr:
      return std::make_unique<BsrPlacement>();
    case PlacementKind::kDomainSpread:
      throw std::invalid_argument(
          "domain_spread placement needs the topology: use "
          "make_placement(PlacementConfig, Topology)");
  }
  throw std::invalid_argument("unknown PlacementKind");
}

std::unique_ptr<PlacementPolicy> make_placement(const PlacementConfig& config,
                                                const Topology& topology) {
  switch (config.kind) {
    case PlacementKind::kPartialPredictive:
      return std::make_unique<PartialPredictivePlacement>(
          config.partial_head_fraction, config.partial_tail_shift);
    case PlacementKind::kDomainSpread:
      return std::make_unique<DomainSpreadPlacement>(topology);
    default:
      return make_placement(config.kind);
  }
}

PlacementKind placement_kind_from_string(const std::string& name) {
  return enum_from_string<PlacementKind>(kPlacementNames, name, "placement");
}

std::string to_string(PlacementKind kind) { return enum_to_string(kPlacementNames, kind); }

namespace placement_detail {

int copy_budget(std::size_t num_videos, double avg_copies) {
  assert(avg_copies >= 1.0);
  return static_cast<int>(
      std::llround(static_cast<double>(num_videos) * avg_copies));
}

PlacementResult install_replicas(const VideoCatalog& catalog,
                                 const std::vector<int>& copies,
                                 std::vector<Server>& servers, Rng& rng) {
  assert(copies.size() == catalog.size());
  PlacementResult result;
  result.copies.assign(catalog.size(), 0);

  // Place heavily replicated videos first so they can still find enough
  // distinct servers with space.
  std::vector<std::size_t> order(catalog.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return copies[a] > copies[b]; });

  std::vector<std::size_t> server_order(servers.size());
  std::iota(server_order.begin(), server_order.end(), 0);

  for (std::size_t v : order) {
    const Video& video = catalog[static_cast<VideoId>(v)];
    const int wanted = std::min<int>(copies[v], static_cast<int>(servers.size()));
    rng.shuffle(server_order);
    int placed = 0;
    for (std::size_t s : server_order) {
      if (placed >= wanted) break;
      if (servers[s].add_replica(video)) ++placed;
    }
    result.copies[v] = placed;
    result.placed_total += placed;
    result.shortfall += copies[v] - placed;
  }
  return result;
}

std::vector<int> proportional_copies(const std::vector<double>& weights, int budget,
                                     int max_copies) {
  const std::size_t n = weights.size();
  assert(budget >= static_cast<int>(n));
  assert(max_copies >= 1);
  const double total_weight = std::accumulate(weights.begin(), weights.end(), 0.0);
  assert(total_weight > 0.0);

  // Largest-remainder apportionment with a floor of one copy. First give
  // everyone one copy; apportion the rest proportionally.
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

  // Clip at the cap and redistribute the overflow D'Hondt-style: each freed
  // copy goes to the uncapped video with the highest weight-per-copy, so
  // proportionality is preserved as closely as the cap allows. A max-heap
  // of uncapped videos keyed on (score, lowest index) hands them out in
  // O((n + overflow) log n); ties go to the lowest index, so the order is
  // that of a first-strictly-larger linear scan, score for score.
  long overflow = 0;
  for (int& c : copies) {
    if (c > max_copies) {
      overflow += c - max_copies;
      c = max_copies;
    }
  }
  if (overflow == 0) return copies;
  using Entry = std::pair<double, std::size_t>;  // (weight per copy, video)
  const auto lower = [](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  std::vector<Entry> heap;
  for (std::size_t i = 0; i < n; ++i) {
    if (copies[i] < max_copies) {
      heap.emplace_back(weights[i] / static_cast<double>(copies[i]), i);
    }
  }
  std::make_heap(heap.begin(), heap.end(), lower);
  // An empty heap means everything is capped: budget > n * max_copies.
  for (; overflow > 0 && !heap.empty(); --overflow) {
    std::pop_heap(heap.begin(), heap.end(), lower);
    const std::size_t best = heap.back().second;
    heap.pop_back();
    if (++copies[best] < max_copies) {
      heap.emplace_back(weights[best] / static_cast<double>(copies[best]), best);
      std::push_heap(heap.begin(), heap.end(), lower);
    }
  }
  return copies;
}

}  // namespace placement_detail

}  // namespace vodsim
