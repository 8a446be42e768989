#pragma once

/// \file replay.h
/// \brief Outside-in per-layer timings: calls into each layer's public
/// functions on a workload's end-of-run state, timed from the benchmark's
/// own code. Each result is the median, over timed rounds after one
/// warm-up round, of the mean time per call within a round.

#include <cstddef>

#include "record.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/workload/trace.h"
#include "workloads.h"

namespace suite {

struct ReplayInputs {
  const Workload& workload;
  /// The workload's last cell, after run().
  const vodsim::VodSimulation& sim;
  const vodsim::RequestTrace& trace;
  /// Pending events the run ended with: the event-queue replay's size.
  std::size_t pending_events = 0;
  /// Mean streams per server: the fluid-advance replay's population.
  double streams_per_server = 0.0;
};

/// Runs every replay and adds its "<layer>.<op>" result to \p out.
void run_replays(const ReplayInputs& inputs, SpanLog& spans, JsonLine& out);

}  // namespace suite
