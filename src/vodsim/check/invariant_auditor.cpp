#include "vodsim/check/invariant_auditor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "vodsim/cluster/request.h"
#include "vodsim/cluster/server.h"
#include "vodsim/engine/vod_simulation.h"

namespace vodsim {

namespace {

/// Narrow failure helper: everything the operator needs to reproduce and
/// localize the violation goes into the message (the throw site is cold).
[[noreturn]] void fail(const std::string& invariant, const std::ostringstream& detail) {
  throw AuditFailure("invariant violated: " + invariant + " — " + detail.str());
}

}  // namespace

InvariantAuditor::InvariantAuditor(const VodSimulation& simulation)
    : sim_(simulation) {
  last_reachable_.assign(sim_.servers().size(), 1);
}

void InvariantAuditor::check_request(const Request& request, const Server& server,
                                     std::size_t index_on_server) {
  std::ostringstream d;
  d << "request " << request.id() << " on server " << server.id();
  if (request.state() != RequestState::kStreaming) {
    d << ": state " << static_cast<int>(request.state());
    fail("active requests are streaming", d);
  }
  if (request.server() != server.id()) {
    d << ": back-pointer " << request.server();
    fail("active request points at its server", d);
  }
  if (request.active_index != index_on_server) {
    d << ": active_index " << request.active_index << " != " << index_on_server;
    fail("active_index matches list position", d);
  }
  if (request.allocation() < -kTolerance) {
    d << ": allocation " << request.allocation();
    fail("allocation is nonnegative", d);
  }
  if (request.allocation() > request.receive_bandwidth() + kTolerance) {
    d << ": allocation " << request.allocation() << " > receive cap "
      << request.receive_bandwidth();
    fail("allocation respects the client receive cap", d);
  }
  if (request.buffer_level() < -kTolerance ||
      request.buffer_level() > request.buffer_capacity() + kTolerance) {
    d << ": buffer level " << request.buffer_level() << " capacity "
      << request.buffer_capacity();
    fail("staging buffer level within [0, capacity]", d);
  }
  if (request.remaining() < 0.0) {
    d << ": remaining " << request.remaining();
    fail("remaining data is nonnegative", d);
  }
}

void InvariantAuditor::check_server(const Server& server,
                                    const ServerExpectations& expect) {
  const std::vector<Request*>& active = server.active_requests();

  if (server.reserved_bandwidth() < -kTolerance) {
    std::ostringstream d;
    d << "server " << server.id() << ": reserved " << server.reserved_bandwidth();
    fail("reservations are nonnegative", d);
  }
  if (!server.available() && !active.empty()) {
    std::ostringstream d;
    d << "server " << server.id() << ": " << active.size() << " active streams";
    fail("failed servers host no streams", d);
  }
  // A partitioned server is up but unreachable: the partition-begin event
  // must have shed every stream (recover / park / drop), and no admission
  // or migration path may grant onto it while serviceable() is false.
  if (!server.reachable() && !active.empty()) {
    std::ostringstream d;
    d << "server " << server.id() << ": " << active.size()
      << " active streams while partitioned";
    fail("unreachable servers host no streams", d);
  }
  if (!server.reachable() && server.committed_bandwidth() > kTolerance) {
    std::ostringstream d;
    d << "server " << server.id() << ": committed "
      << server.committed_bandwidth() << " Mb/s while partitioned";
    fail("no grants on an unreachable server", d);
  }

  Mbps allocated = 0.0;
  Mbps committed = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    const Request& request = *active[i];
    check_request(request, server, i);
    const StreamTraits& traits = server.lane().traits(i);
    if (traits.video != request.video_id() || traits.hops != request.hops()) {
      std::ostringstream d;
      d << "request " << request.id() << " on server " << server.id()
        << " slot " << i << ": traits (video " << traits.video << ", hops "
        << traits.hops << ") vs (video " << request.video_id() << ", hops "
        << request.hops() << ")";
      fail("stream traits match their requests", d);
    }
    allocated += request.allocation();
    committed += request.view_bandwidth();
    if (expect.minimum_flow &&
        request.allocation() < request.minimum_rate() - kTolerance) {
      std::ostringstream d;
      d << "request " << request.id() << " on server " << server.id()
        << ": allocation " << request.allocation() << " < minimum "
        << request.minimum_rate();
      fail("minimum-flow guarantee", d);
    }
  }

  if (std::abs(server.committed_bandwidth() - committed) > kTolerance) {
    std::ostringstream d;
    d << "server " << server.id() << ": committed_bandwidth "
      << server.committed_bandwidth() << " vs active sum " << committed;
    fail("commitment bookkeeping matches the active set", d);
  }
  if (server.capacity_factor() <= 0.0 || server.capacity_factor() > 1.0) {
    std::ostringstream d;
    d << "server " << server.id() << ": capacity_factor "
      << server.capacity_factor();
    fail("brownout capacity factor stays in (0, 1]", d);
  }
  // Both capacity bounds use the *effective* (brownout-degraded) link:
  // the brownout-begin event sheds overload and recomputes within the same
  // event, so post-event state already fits the degraded capacity.
  if (expect.enforce_capacity &&
      server.committed_bandwidth() > server.effective_bandwidth() + kTolerance) {
    std::ostringstream d;
    d << "server " << server.id() << ": committed " << server.committed_bandwidth()
      << " > effective link " << server.effective_bandwidth();
    fail("admission never over-commits a server", d);
  }
  // Allocations must fit the physical link. Not schedulable_bandwidth():
  // a fresh migration reservation constrains only *future* allocations —
  // existing workahead keeps flowing until the next recompute touches the
  // server — so the reservation-adjusted bound would false-positive.
  if (allocated > server.effective_bandwidth() + kTolerance) {
    std::ostringstream d;
    d << "server " << server.id() << ": allocated " << allocated << " > link "
      << server.effective_bandwidth();
    fail("allocations fit the link", d);
  }
}

void InvariantAuditor::check_prediction_timer(const Server& server,
                                              EventKey armed) {
  const std::vector<Request*>& active = server.active_requests();
  const FluidLane& lane = server.lane();
  EventKey earliest = kNoEventKey;
  for (std::size_t i = 0; i < lane.size(); ++i) {
    for (const EventKey& key : lane.predictions(i)) {
      if (!key.live()) continue;
      const Request& request = *active[i];
      if (request.state() != RequestState::kStreaming ||
          request.lane() != &lane || request.active_index != i) {
        std::ostringstream d;
        d << "server " << server.id() << " slot " << i << ": request "
          << request.id() << " state " << static_cast<int>(request.state())
          << " holds a key at " << key.time;
        fail("live predictions belong to attached streaming requests", d);
      }
      earliest = std::min(earliest, key);
    }
  }
  if (armed != earliest) {
    std::ostringstream d;
    d << "server " << server.id() << ": timer armed at (" << armed.time << ", "
      << armed.seq << "), earliest prediction (" << earliest.time << ", "
      << earliest.seq << ")";
    fail("the prediction timer is armed at the earliest prediction", d);
  }
  // A sync precedes every return to the event loop: the tracking is current.
  const FluidLane::NextPrediction* tracked = lane.tracked_prediction();
  if (tracked == nullptr || tracked->key != armed ||
      (armed.live() && (tracked->slot >= lane.size() ||
                        lane.earliest_prediction(tracked->slot) != armed))) {
    std::ostringstream d;
    d << "server " << server.id() << ": timer armed at (" << armed.time
      << ", " << armed.seq << "), tracked holder "
      << (tracked ? "slot " + std::to_string(tracked->slot) : "stale");
    fail("the lane tracks the armed key and the slot holding it", d);
  }
}

void InvariantAuditor::on_event() {
  const Seconds now = sim_.simulator().now();
  if (now + 1e-9 < last_event_time_) {
    std::ostringstream d;
    d << "now " << now << " after event at " << last_event_time_;
    fail("simulation time is monotone", d);
  }
  last_event_time_ = now;

  ServerExpectations expect;
  expect.minimum_flow = sim_.scheduler().minimum_flow();
  expect.enforce_capacity = !sim_.controller().config().buffer_aware;

  const std::vector<Server>& servers = sim_.servers();
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Server& server = servers[i];
    check_server(server, expect);
    check_prediction_timer(server, sim_.prediction_timer_key(server.id()));
    for (const Request* request : server.active_requests()) {
      // Same named bound the mutators assert (util/units.h): the SoA fast
      // path cannot widen the fluid-clock tolerance without failing here.
      if (request->last_update() > now + kTimeSyncTolerance) {
        std::ostringstream d;
        d << "request " << request->id() << " updated at "
          << request->last_update() << ", now " << now;
        fail("fluid state never runs ahead of the clock", d);
      }
    }
    checks_run_ += 1 + server.active_requests().size();
    last_reachable_[i] = server.reachable() ? 1 : 0;
  }
  ++events_audited_;
}

void InvariantAuditor::check_memoized_rejection(
    VideoId video, Mbps view_bandwidth, const AdmissionDecision& memoized) const {
  ++checks_run_;
  // A controller of its own shares no memo with the engine's, and carries
  // no trace recorder.
  const AdmissionController fresh(sim_.controller().config(), sim_.directory());
  Rng unused(0);
  const AdmissionDecision decision =
      fresh.decide(0.0, video, view_bandwidth, sim_.servers(), unused);
  if (decision.accepted || decision.search_nodes != memoized.search_nodes) {
    std::ostringstream d;
    d << "video " << video << " at " << view_bandwidth << " Mb/s: memo rejects after "
      << memoized.search_nodes << " search nodes, a fresh decision "
      << (decision.accepted ? "accepts" : "rejects") << " after "
      << decision.search_nodes;
    fail("a memoized rejection is what a fresh decision returns", d);
  }
}

void InvariantAuditor::on_advance(const Request& request, Seconds t0, Seconds t1) {
  if (t1 < t0 - 1e-12) {
    std::ostringstream d;
    d << "request " << request.id() << ": [" << t0 << ", " << t1 << "]";
    fail("transmission intervals run forward", d);
  }
  // No bits cross a partition: the interval streamed under the reachability
  // recorded at the last audited event (zero-length intervals never get
  // here; advance_and_account early-returns when now <= last_update).
  const auto server_index = static_cast<std::size_t>(request.server());
  if (t1 > t0 && server_index < last_reachable_.size() &&
      last_reachable_[server_index] == 0 &&
      request.allocation() * (t1 - t0) > kTolerance) {
    std::ostringstream d;
    d << "request " << request.id() << " on server " << request.server()
      << ": " << request.allocation() * (t1 - t0) << " Mb over [" << t0 << ", "
      << t1 << "] while partitioned";
    fail("no bits flow across a partition", d);
  }
  observed_flow_ += request.allocation() * (t1 - t0);
  ++intervals_observed_;
}

void InvariantAuditor::finalize() const {
  double delivered = 0.0;
  std::size_t request_count = 0;
  for (const Request& request : sim_.requests()) {
    delivered += request.delivered();
    ++request_count;

    if (request.state() == RequestState::kStreaming) {
      // Cut off by the horizon mid-stream: it must still be exactly where
      // its server's active list says it is.
      const auto server_index = static_cast<std::size_t>(request.server());
      if (server_index >= sim_.servers().size()) {
        std::ostringstream d;
        d << "request " << request.id() << ": server " << request.server();
        fail("streaming requests name a real server", d);
      }
      const Server& server = sim_.servers()[server_index];
      const std::vector<Request*>& active = server.active_requests();
      if (request.active_index >= active.size() ||
          active[request.active_index] != &request) {
        std::ostringstream d;
        d << "request " << request.id() << " missing from server "
          << server.id() << "'s active list";
        fail("streaming requests sit on their server's active list", d);
      }
    }
  }

  // Bits conservation: the flow integral the auditor accumulated on its own
  // must equal the per-request delivery ledger. Slop covers the per-
  // completion clamp (a predicted completion firing a float-ulp late
  // over-integrates by ~rate * ulp) plus relative accumulation error.
  const double slop =
      kTolerance * (1.0 + static_cast<double>(request_count)) + 1e-9 * observed_flow_;
  if (std::abs(observed_flow_ - delivered) > slop) {
    std::ostringstream d;
    d << "flow integral " << observed_flow_ << " Mb vs delivered " << delivered
      << " Mb over " << request_count << " requests";
    fail("transmitted bits reconcile with request sizes", d);
  }
  // The metrics meter the same intervals clipped to the window, so it can
  // only see less than the physical flow.
  if (sim_.metrics().transmitted() > observed_flow_ + slop) {
    std::ostringstream d;
    d << "metered " << sim_.metrics().transmitted() << " Mb vs physical flow "
      << observed_flow_ << " Mb";
    fail("metered transmission never exceeds physical flow", d);
  }
  if (sim_.metrics().utilization() > 1.0 + 1e-9) {
    std::ostringstream d;
    d << "utilization " << sim_.metrics().utilization();
    fail("utilization cannot exceed 1", d);
  }
  // "Measured never beats a proven bound": the analytic achievability
  // envelope (analysis/bounds.h) is a differential oracle — a run whose
  // utilization exceeds the achievable bound, or whose rejected+dropped
  // fraction beats the rejection lower bound by more than statistical
  // slack, has a simulator bug somewhere (metering, admission, or the
  // bound math itself). audit_bounds sizes the slack from the window and
  // arrival count, so tiny fuzz worlds stay noise-tolerant while
  // sweep-scale runs are checked tightly.
  const std::string bound_violation = audit_bounds(sim_.bounds(), sim_.metrics());
  if (!bound_violation.empty()) {
    std::ostringstream d;
    d << bound_violation;
    fail("measured results never beat the analytic bounds", d);
  }
}

}  // namespace vodsim
