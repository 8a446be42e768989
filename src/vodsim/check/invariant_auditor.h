#pragma once

/// \file invariant_auditor.h
/// \brief Runtime verification of the fluid model's physical invariants.
///
/// The paper's results rest on properties the engine is supposed to
/// maintain by construction: minimum-flow schedulers never starve a stream,
/// a server never transmits beyond its link, staging buffers stay within
/// [0, capacity], admission never over-commits a server (outside the
/// buffer-aware extension), and every megabit the metrics count was
/// actually delivered to some client. The auditor re-derives each of these
/// from raw cluster state after *every* executed event, independently of
/// the bookkeeping being audited — the same role the paper's Erlang-B
/// cross-check (E9) plays for rejection ratios.
///
/// Enabled via SimulationConfig::paranoid or the VODSIM_PARANOID
/// environment variable. The auditor only reads; a run with it attached is
/// bit-identical to one without (pinned by determinism_test). On a violated
/// invariant it throws AuditFailure with full context — simulation time,
/// event count, the server/request involved and the offending values.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "vodsim/cluster/video.h"
#include "vodsim/des/event_queue.h"
#include "vodsim/util/units.h"

namespace vodsim {

struct AdmissionDecision;
class Request;
class Server;
class VodSimulation;

/// A physical invariant of the fluid model was violated. Deliberately not
/// std::runtime_error: an audit failure is a logic bug in the engine (or
/// the auditor), never an environmental condition.
class AuditFailure : public std::logic_error {
 public:
  explicit AuditFailure(const std::string& what) : std::logic_error(what) {}
};

class InvariantAuditor {
 public:
  /// \param simulation must outlive the auditor. The world must already be
  ///        built (servers sized).
  explicit InvariantAuditor(const VodSimulation& simulation);

  /// Validates the full cluster state; the engine calls this after every
  /// executed event. Throws AuditFailure on the first violation.
  void on_event();

  /// Observes one integrated transmission interval: \p request transmitted
  /// at its current allocation over [t0, t1]. The engine calls this from
  /// advance_and_account, *before* the fluid state is advanced. Accumulates
  /// the independently-integrated delivery for finalize()'s reconciliation.
  void on_advance(const Request& request, Seconds t0, Seconds t1);

  /// Re-decides a rejection the admission controller served from its
  /// memo (AdmissionDecision::memoized) on a fresh controller, against the
  /// cluster as it stands; the engine calls it right after such a decide.
  /// The fresh decision must reject too, after the same search nodes.
  void check_memoized_rejection(VideoId video, Mbps view_bandwidth,
                                const AdmissionDecision& memoized) const;

  /// End-of-run reconciliation (engine calls it after the final flush):
  /// the flow integral observed via on_advance must match the sum of
  /// per-request delivered() bits, metered transmission cannot exceed the
  /// physical flow, and utilization cannot exceed 1.
  void finalize() const;

  std::uint64_t events_audited() const { return events_audited_; }
  std::uint64_t checks_run() const { return checks_run_; }

  /// What the active policies promise about a server's state; selects which
  /// invariants apply.
  struct ServerExpectations {
    /// The scheduler guarantees every active request its minimum rate.
    bool minimum_flow = true;
    /// Admission keeps nominal commitments within the link (false only
    /// under buffer-aware admission, which over-commits by design).
    bool enforce_capacity = true;
  };

  // --- individual checks ------------------------------------------------
  // Exposed so tests can probe them against fabricated states (proving the
  // auditor is not vacuous); the engine only calls them through on_event().

  /// Validates one server: commitment bookkeeping vs. the active set, link
  /// capacity, reservation sanity, availability, each slot's StreamTraits
  /// against its request (video, hops), and every active request via
  /// check_request (plus the minimum-flow bound when promised).
  static void check_server(const Server& server,
                           const ServerExpectations& expect);

  /// Validates one active request against its hosting server: lifecycle
  /// state, back-pointer and active-list index, allocation within
  /// [0, receive cap], buffer level within [0, capacity], remaining >= 0.
  static void check_request(const Request& request, const Server& server,
                            std::size_t index_on_server);

  /// Validates one server's predicted-event timer (DESIGN.md §8) against
  /// its lane: \p armed — the key the timer is armed at, kNoEventKey when
  /// none is pending — must equal the earliest live prediction key in the
  /// lane (none when the lane holds no live key), re-derived here from
  /// every slot's three keys; every live key must belong to a streaming
  /// request attached at that slot; and the lane's tracking must be current
  /// (not stale, at the armed key, in a slot holding it).
  static void check_prediction_timer(const Server& server, EventKey armed);

  /// Absolute tolerance on bandwidth sums (Mb/s) and buffer levels (Mb):
  /// generous against accumulated float error, far below one stream's rate.
  static constexpr double kTolerance = 1e-6;

 private:
  const VodSimulation& sim_;
  std::uint64_t events_audited_ = 0;
  mutable std::uint64_t checks_run_ = 0;
  Seconds last_event_time_ = 0.0;
  /// Per-server reachability as of the last audited event. on_advance runs
  /// *before* the current event mutates state, so an interval's flow is
  /// judged against the reachability that held while it was streaming —
  /// this is how "no bits cross a partition" is enforced without racing the
  /// partition-begin event that sheds the victims.
  std::vector<std::uint8_t> last_reachable_;
  /// Integral of allocation * dt over every advanced interval (megabits) —
  /// the auditor's own account of delivered flow.
  double observed_flow_ = 0.0;
  std::uint64_t intervals_observed_ = 0;
};

}  // namespace vodsim
