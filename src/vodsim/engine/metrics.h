#pragma once

/// \file metrics.h
/// \brief Measurement of one trial, clipped to a warmup-free window.
///
/// The paper's headline metric is bandwidth utilization: megabits actually
/// transmitted divided by the megabits the cluster could have transmitted at
/// full blast over the window. Transmission is recorded as (t0, t1, rate)
/// intervals and clipped to [window_start, window_end], so warmup and
/// horizon edges cannot bias the ratio.

#include <cstdint>
#include <vector>

#include "vodsim/cluster/topology.h"
#include "vodsim/stats/accumulator.h"
#include "vodsim/util/units.h"

namespace vodsim {

class Metrics {
 public:
  /// \param total_bandwidth aggregate cluster capacity (Mb/s).
  Metrics(Seconds window_start, Seconds window_end, Mbps total_bandwidth);

  // --- recording (engine-driven) --------------------------------------
  /// A request transmitted at \p rate during [t0, t1] (clipped to window).
  void record_transmission(Seconds t0, Seconds t1, Mbps rate);

  /// The transmission meter itself, for FluidLane::advance_batch to
  /// continue in place: it adds each stream's interval, clipped exactly
  /// like record_transmission, in active order — the same additions one
  /// record_transmission call per stream would make.
  Megabits& transmission_meter() { return transmitted_; }

  void record_arrival(Seconds t);
  void record_acceptance(Seconds t, bool via_migration);
  void record_rejection(Seconds t);

  /// \p steps migration steps executed to admit one arrival.
  void record_migration_chain(Seconds t, std::size_t steps);

  /// Playback continuity violation: \p megabits the client was short.
  void record_underflow(Seconds t, Megabits megabits);

  /// A request finished playback inside the window.
  void record_completion(Seconds t);

  /// A stream lost to a server failure (fault-injection runs).
  void record_drop(Seconds t);

  /// A dynamic replication transfer completed, having moved \p megabits
  /// during [t0, t1] (clipped accounting like record_transmission, but kept
  /// separate: replication traffic is overhead, not delivered video).
  void record_replication(Seconds t0, Seconds t1, Mbps rate);

  // --- resilience (fault-injection runs) -------------------------------
  /// A server crashed at \p t.
  void record_server_down(Seconds t);

  /// A server came back at \p t after \p downtime seconds down.
  void record_server_recovery(Seconds t, Seconds downtime);

  /// Attaches the failure-domain tree so capacity loss and glitches are
  /// additionally attributed per rack and per zone. \p server_bandwidth
  /// gives each server's nominal link capacity (indexed by ServerId) for
  /// the per-domain availability denominators. Observe-only: attribution
  /// never changes the cluster-wide meters. The topology must outlive this.
  void set_topology(const Topology* topology,
                    const std::vector<Mbps>& server_bandwidth);

  /// Capacity lost to a fault: \p lost_mbps unusable during [t0, t1]
  /// (clipped to the window). Crashes lose the whole link; brownouts lose
  /// bandwidth * (1 - capacity_factor); partitions lose the whole link
  /// while the server stays up. Feeds availability(). When \p server is a
  /// real id and a topology is attached, the loss is also charged to the
  /// server's rack and zone.
  void record_capacity_loss(Seconds t0, Seconds t1, Mbps lost_mbps,
                            ServerId server = kNoServer);

  /// A stream evicted by brownout load shedding; \p migrated tells whether
  /// it moved to another holder (true) or left the server entirely (false:
  /// parked for retry or dropped).
  void record_shed(Seconds t, bool migrated);

  /// Playback interruption: the client starved for \p seconds of playback
  /// (glitch-seconds, the viewer-facing face of an underflow). \p server
  /// attributes the glitch to a failure domain when a topology is attached.
  void record_glitch(Seconds t, Seconds seconds, ServerId server = kNoServer);

  /// Dedupe variant (FailureConfig::glitch_dedupe_window): accrues
  /// glitch-seconds without counting a new interruption — the stream
  /// already logged one inside the current dedupe window.
  void record_glitch_seconds(Seconds t, Seconds seconds,
                             ServerId server = kNoServer);

  /// Network-partition bookkeeping: a rack (or scripted server set) became
  /// unreachable / healed after \p duration seconds. Infrastructure events,
  /// counted regardless of the window like server downs.
  void record_partition_begin(Seconds t);
  void record_partition_heal(Seconds t, Seconds duration);

  /// Retry-queue bookkeeping.
  void record_retry_enqueued(Seconds t);
  void record_readmission(Seconds t);
  void record_retry_abandoned(Seconds t);

  /// A repair re-replication was planned for a long-down server's video.
  void record_repair(Seconds t);

  /// Folds in the fields a sharded run's per-shard Metrics write — the
  /// transmission meter and the client-side starvation accounting
  /// (underflows, glitches/interruptions). Every other counter (arrivals,
  /// admissions, migrations, faults, retries, replication, capacity loss)
  /// is recorded by the coordinator on the root instance directly and
  /// must NOT be merged. Integer counts add exactly; the FP sums are
  /// regrouped shard-major, an ulp-scale difference from the single-queue
  /// run that the shard/single differential tolerates.
  void merge_shard(const Metrics& shard);

  /// Attaches the analytic achievability envelope for this trial's
  /// configuration (analysis/bounds.h): the utilization no policy can
  /// exceed and the rejection ratio none can beat. Set once at world
  /// construction; pure annotation — recording is unaffected.
  void set_bounds(double utilization_upper, double rejection_lower);

  // --- results ----------------------------------------------------------
  Seconds window() const { return window_end_ - window_start_; }

  /// Transmitted / maximum transmissible over the window — the paper's
  /// utilization.
  double utilization() const;

  /// Rejected arrivals / all arrivals in the window.
  double rejection_ratio() const;

  /// Accepted arrivals / all arrivals in the window.
  double acceptance_ratio() const;

  /// Migration steps per arrival in the window.
  double migrations_per_arrival() const;

  Megabits transmitted() const { return transmitted_; }
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t accepts() const { return accepts_; }
  std::uint64_t accepts_via_migration() const { return accepts_via_migration_; }
  std::uint64_t rejects() const { return rejects_; }
  std::uint64_t migration_steps() const { return migration_steps_; }
  std::uint64_t completions() const { return completions_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t underflow_events() const { return underflow_events_; }
  Megabits underflow_megabits() const { return underflow_megabits_; }
  std::uint64_t replications() const { return replications_; }
  Megabits replication_megabits() const { return replication_megabits_; }

  // --- resilience results ----------------------------------------------
  /// Fraction of cluster capacity-seconds that was actually usable over
  /// the window: 1 - (lost capacity integral) / (total capacity integral).
  /// 1.0 in fault-free runs.
  double availability() const;

  /// Seconds of starved playback per window (summed over streams).
  Seconds glitch_seconds() const { return glitch_seconds_; }

  std::uint64_t server_downs() const { return server_downs_; }
  std::uint64_t server_recoveries() const { return server_recoveries_; }
  std::uint64_t sheds() const { return sheds_; }
  std::uint64_t sheds_migrated() const { return sheds_migrated_; }
  std::uint64_t interruptions() const { return interruptions_; }
  std::uint64_t retry_enqueued() const { return retry_enqueued_; }
  std::uint64_t readmissions() const { return readmissions_; }
  std::uint64_t retry_abandoned() const { return retry_abandoned_; }
  std::uint64_t repairs() const { return repairs_; }

  /// Time-to-recover distribution (per server-down episode, seconds).
  const Accumulator& recovery_time() const { return recovery_time_; }

  // --- failure-domain results (set_topology runs) -----------------------
  /// Racks/zones the attached topology reports (0 when none attached).
  int metric_racks() const { return static_cast<int>(rack_bandwidth_.size()); }
  int metric_zones() const { return static_cast<int>(zone_bandwidth_.size()); }

  /// Per-domain availability: 1 - (domain capacity lost) / (domain
  /// capacity integral). 1.0 for a fault-free domain.
  double rack_availability(int rack) const {
    return 1.0 - rack_capacity_lost_[static_cast<std::size_t>(rack)] /
                     (rack_bandwidth_[static_cast<std::size_t>(rack)] * window());
  }
  double zone_availability(int zone) const {
    return 1.0 - zone_capacity_lost_[static_cast<std::size_t>(zone)] /
                     (zone_bandwidth_[static_cast<std::size_t>(zone)] * window());
  }

  /// Per-domain glitch-seconds (attributed by the glitching stream's
  /// server at record time).
  Seconds rack_glitch_seconds(int rack) const {
    return rack_glitch_seconds_[static_cast<std::size_t>(rack)];
  }
  Seconds zone_glitch_seconds(int zone) const {
    return zone_glitch_seconds_[static_cast<std::size_t>(zone)];
  }

  std::uint64_t partitions() const { return partitions_; }
  std::uint64_t partition_heals() const { return partition_heals_; }

  /// Partition duration distribution (per healed episode, seconds).
  const Accumulator& partition_time() const { return partition_time_; }

  // --- measured-vs-bound gaps ------------------------------------------
  bool has_bounds() const { return has_bounds_; }
  double bound_utilization() const { return bound_utilization_; }
  double bound_rejection() const { return bound_rejection_; }

  /// Headroom to theory: achievable-utilization bound minus measured
  /// (>= ~0 up to statistical noise; the paper's "how close to full
  /// cluster utilization" question, answered against the bound instead of
  /// against 1). 0.0 until set_bounds.
  double utilization_gap() const {
    return has_bounds_ ? bound_utilization_ - utilization() : 0.0;
  }

  /// Measured rejection ratio minus its proven lower bound (>= ~0 up to
  /// statistical noise). 0.0 until set_bounds.
  double rejection_gap() const {
    return has_bounds_ ? rejection_ratio() - bound_rejection_ : 0.0;
  }

 private:
  bool in_window(Seconds t) const { return t >= window_start_ && t < window_end_; }

  Seconds window_start_;
  Seconds window_end_;
  Mbps total_bandwidth_;

  Megabits transmitted_ = 0.0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t accepts_ = 0;
  std::uint64_t accepts_via_migration_ = 0;
  std::uint64_t rejects_ = 0;
  std::uint64_t migration_steps_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t underflow_events_ = 0;
  Megabits underflow_megabits_ = 0.0;
  std::uint64_t replications_ = 0;
  Megabits replication_megabits_ = 0.0;

  Megabits capacity_lost_ = 0.0;  ///< Mb·s of capacity unusable in-window
  Seconds glitch_seconds_ = 0.0;
  std::uint64_t server_downs_ = 0;
  std::uint64_t server_recoveries_ = 0;
  std::uint64_t sheds_ = 0;
  std::uint64_t sheds_migrated_ = 0;
  std::uint64_t interruptions_ = 0;
  std::uint64_t retry_enqueued_ = 0;
  std::uint64_t readmissions_ = 0;
  std::uint64_t retry_abandoned_ = 0;
  std::uint64_t repairs_ = 0;
  Accumulator recovery_time_;

  /// Failure-domain attribution (empty until set_topology).
  const Topology* topology_ = nullptr;
  std::vector<Mbps> rack_bandwidth_;
  std::vector<Mbps> zone_bandwidth_;
  std::vector<Megabits> rack_capacity_lost_;
  std::vector<Megabits> zone_capacity_lost_;
  std::vector<Seconds> rack_glitch_seconds_;
  std::vector<Seconds> zone_glitch_seconds_;
  std::uint64_t partitions_ = 0;
  std::uint64_t partition_heals_ = 0;
  Accumulator partition_time_;

  bool has_bounds_ = false;
  double bound_utilization_ = 1.0;
  double bound_rejection_ = 0.0;
};

}  // namespace vodsim
