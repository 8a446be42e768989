// Tests for the cluster model: staging buffer fluid math, request
// lifecycle/advance, server replica & active-set management.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "vodsim/cluster/client.h"
#include "vodsim/cluster/fluid_lane.h"
#include "vodsim/cluster/request.h"
#include "vodsim/cluster/server.h"
#include "vodsim/cluster/video.h"
#include "vodsim/engine/metrics.h"
#include "vodsim/util/stable_vector.h"

namespace vodsim {
namespace {

Video make_video(VideoId id = 0, Seconds duration = 600.0, Mbps view = 3.0) {
  Video video;
  video.id = id;
  video.duration = duration;
  video.view_bandwidth = view;
  return video;
}

// ---------------------------------------------------------------- staging buffer

TEST(StagingBuffer, FillsAndDrains) {
  StagingBuffer buffer(100.0);
  EXPECT_DOUBLE_EQ(buffer.apply(30.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(buffer.level(), 20.0);
  EXPECT_DOUBLE_EQ(buffer.apply(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(buffer.level(), 15.0);
}

TEST(StagingBuffer, ReportsUnderflow) {
  StagingBuffer buffer(100.0);
  buffer.apply(10.0, 0.0);
  const Megabits underflow = buffer.apply(0.0, 25.0);
  EXPECT_DOUBLE_EQ(underflow, 15.0);
  EXPECT_DOUBLE_EQ(buffer.level(), 0.0);  // clamped
}

TEST(StagingBuffer, ClampsAtCapacity) {
  StagingBuffer buffer(50.0);
  buffer.apply(60.0, 0.0);
  EXPECT_DOUBLE_EQ(buffer.level(), 50.0);
  EXPECT_TRUE(buffer.full());
  EXPECT_DOUBLE_EQ(buffer.headroom(), 0.0);
}

TEST(StagingBuffer, FullWithinTolerance) {
  StagingBuffer buffer(50.0);
  buffer.apply(50.0 - 1e-8, 0.0);
  EXPECT_TRUE(buffer.full());
}

TEST(StagingBuffer, PlaybackCover) {
  StagingBuffer buffer(100.0);
  buffer.apply(30.0, 0.0);
  EXPECT_DOUBLE_EQ(buffer.playback_cover(3.0), 10.0);
}

TEST(StagingBuffer, ZeroCapacityAlwaysFull) {
  StagingBuffer buffer(0.0);
  EXPECT_TRUE(buffer.full());
  EXPECT_DOUBLE_EQ(buffer.headroom(), 0.0);
}

TEST(StagingBuffer, TinyUnderflowIgnored) {
  StagingBuffer buffer(10.0);
  buffer.apply(1.0, 0.0);
  EXPECT_DOUBLE_EQ(buffer.apply(0.0, 1.0 + 1e-9), 0.0);  // below tolerance
}

// ---------------------------------------------------------------- request

TEST(Request, InitialState) {
  ClientProfile client{120.0, 30.0};
  Request request(1, make_video(0, 600.0), 100.0, client);
  EXPECT_EQ(request.state(), RequestState::kStreaming);
  EXPECT_EQ(request.server(), kNoServer);
  EXPECT_DOUBLE_EQ(request.remaining(), 1800.0);  // 600 s x 3 Mb/s
  EXPECT_DOUBLE_EQ(request.playback_end(), 700.0);
  EXPECT_DOUBLE_EQ(request.total_size(), 1800.0);
  EXPECT_EQ(request.hops(), 0);
  EXPECT_FALSE(request.finished());
}

TEST(Request, AdvanceAtViewRateKeepsBufferEmpty) {
  ClientProfile client{120.0, 30.0};
  Request request(1, make_video(), 0.0, client);
  request.begin_streaming(0.0, 0);
  request.set_allocation(0.0, 3.0);
  EXPECT_DOUBLE_EQ(request.advance(100.0), 0.0);
  EXPECT_DOUBLE_EQ(request.remaining(), 1800.0 - 300.0);
  EXPECT_DOUBLE_EQ(request.buffer_level(), 0.0);
}

TEST(Request, WorkaheadFillsBuffer) {
  ClientProfile client{120.0, 30.0};
  Request request(1, make_video(), 0.0, client);
  request.begin_streaming(0.0, 0);
  request.set_allocation(0.0, 15.0);
  request.advance(10.0);
  // Sent 150, viewed 30 -> buffer 120 (exactly capacity).
  EXPECT_DOUBLE_EQ(request.buffer_level(), 120.0);
  EXPECT_TRUE(request.buffer_full());
  EXPECT_DOUBLE_EQ(request.remaining(), 1650.0);
}

TEST(Request, ProjectedFinishUsesViewBandwidth) {
  ClientProfile client{120.0, 30.0};
  Server server(0, 1000.0, 1e6);
  Request request(1, make_video(), 0.0, client);
  request.begin_streaming(0.0, 0);
  server.attach(request);
  EXPECT_DOUBLE_EQ(server.lane().projected_finish(request.active_index, 50.0),
                   50.0 + 1800.0 / 3.0);
}

TEST(Request, AdvanceStopsConsumingAfterPlaybackEnd) {
  ClientProfile client{10000.0, 1000.0};
  Request request(1, make_video(0, 100.0), 0.0, client);  // 300 Mb total
  request.begin_streaming(0.0, 0);
  request.set_allocation(0.0, 300.0);
  request.advance(1.0);  // all 300 Mb sent in 1 s; viewed 3 Mb
  EXPECT_TRUE(request.finished());
  EXPECT_DOUBLE_EQ(request.buffer_level(), 297.0);
  request.set_allocation(1.0, 0.0);
  request.advance(100.0);  // playback end
  EXPECT_NEAR(request.buffer_level(), 0.0, 1e-9);
  request.advance(200.0);  // beyond playback end: no further consumption
  EXPECT_NEAR(request.buffer_level(), 0.0, 1e-9);
}

TEST(Request, LifecycleToDone) {
  ClientProfile client{0.0, 3.0};
  Request request(1, make_video(), 0.0, client);
  request.begin_streaming(0.0, 2);
  EXPECT_EQ(request.server(), 2);
  request.set_allocation(0.0, 3.0);
  request.advance(600.0);
  EXPECT_TRUE(request.finished());
  request.mark_tx_complete(600.0);
  EXPECT_EQ(request.state(), RequestState::kTxComplete);
  EXPECT_EQ(request.server(), kNoServer);
  request.mark_done(600.0);
  EXPECT_EQ(request.state(), RequestState::kDone);
}

TEST(Request, MigrationIncrementsHops) {
  ClientProfile client{120.0, 30.0};
  Request request(1, make_video(), 0.0, client);
  request.begin_streaming(0.0, 0);
  request.set_allocation(0.0, 3.0);
  request.advance(10.0);
  request.begin_migration(10.0);
  EXPECT_EQ(request.state(), RequestState::kMigrating);
  EXPECT_EQ(request.hops(), 1);
  EXPECT_DOUBLE_EQ(request.allocation(), 0.0);
  request.complete_migration(10.0, 3);
  EXPECT_EQ(request.state(), RequestState::kStreaming);
  EXPECT_EQ(request.server(), 3);
}

TEST(Request, MigrationPauseDrainsBuffer) {
  ClientProfile client{120.0, 30.0};
  Request request(1, make_video(), 0.0, client);
  request.begin_streaming(0.0, 0);
  request.set_allocation(0.0, 9.0);
  request.advance(10.0);  // buffer: (9-3)*10 = 60
  EXPECT_DOUBLE_EQ(request.buffer_level(), 60.0);
  request.begin_migration(10.0);
  EXPECT_DOUBLE_EQ(request.advance(20.0), 0.0);  // drains 30, no underflow
  EXPECT_DOUBLE_EQ(request.buffer_level(), 30.0);
}

TEST(Request, RejectionIsTerminal) {
  ClientProfile client{0.0, 3.0};
  Request request(1, make_video(), 0.0, client);
  request.mark_rejected();
  EXPECT_EQ(request.state(), RequestState::kRejected);
}

// ---------------------------------------------------------------- server

TEST(Server, ReplicaStorageAccounting) {
  Server server(0, 100.0, 5000.0);
  const Video a = make_video(0, 600.0);   // 1800 Mb
  const Video b = make_video(1, 1000.0);  // 3000 Mb
  const Video c = make_video(2, 600.0);   // 1800 Mb: does not fit after a+b
  EXPECT_TRUE(server.add_replica(a));
  EXPECT_TRUE(server.add_replica(b));
  EXPECT_FALSE(server.add_replica(c));
  EXPECT_TRUE(server.holds(0));
  EXPECT_TRUE(server.holds(1));
  EXPECT_FALSE(server.holds(2));
  EXPECT_DOUBLE_EQ(server.storage_used(), 4800.0);
  EXPECT_EQ(server.replicas().size(), 2u);
}

TEST(Server, DuplicateReplicaRejected) {
  Server server(0, 100.0, 100000.0);
  const Video a = make_video(0);
  EXPECT_TRUE(server.add_replica(a));
  EXPECT_FALSE(server.add_replica(a));
  EXPECT_DOUBLE_EQ(server.storage_used(), a.size());
}

TEST(Server, AdmissionArithmetic) {
  Server server(0, 10.0, 1e6);
  ClientProfile client{0.0, 3.0};
  Request r1(1, make_video(0), 0.0, client);
  Request r2(2, make_video(0), 0.0, client);
  Request r3(3, make_video(0), 0.0, client);

  EXPECT_TRUE(server.can_admit(3.0));
  server.attach(r1);
  server.attach(r2);
  server.attach(r3);
  EXPECT_DOUBLE_EQ(server.committed_bandwidth(), 9.0);
  EXPECT_FALSE(server.can_admit(3.0));  // 12 > 10
  EXPECT_DOUBLE_EQ(server.slack(), 1.0);
  EXPECT_EQ(server.active_count(), 3u);
}

TEST(Server, DetachSwapsInConstantTime) {
  Server server(0, 100.0, 1e6);
  ClientProfile client{0.0, 3.0};
  Request r1(1, make_video(0), 0.0, client);
  Request r2(2, make_video(0), 0.0, client);
  Request r3(3, make_video(0), 0.0, client);
  server.attach(r1);
  server.attach(r2);
  server.attach(r3);
  server.detach(r1);  // r3 swaps into slot 0
  EXPECT_EQ(server.active_count(), 2u);
  EXPECT_EQ(server.active_requests()[r3.active_index], &r3);
  EXPECT_EQ(server.active_requests()[r2.active_index], &r2);
  server.detach(r3);
  server.detach(r2);
  EXPECT_EQ(server.active_count(), 0u);
  EXPECT_NEAR(server.committed_bandwidth(), 0.0, 1e-12);
}

TEST(Server, UnavailableRefusesAdmission) {
  Server server(0, 100.0, 1e6);
  EXPECT_TRUE(server.can_admit(3.0));
  server.set_available(false);
  EXPECT_FALSE(server.can_admit(3.0));
  server.set_available(true);
  EXPECT_TRUE(server.can_admit(3.0));
}

TEST(Server, ReservationBlocksAdmission) {
  Server server(0, 10.0, 1e6);
  server.reserve_bandwidth(9.0);
  EXPECT_FALSE(server.can_admit(3.0));
  EXPECT_DOUBLE_EQ(server.schedulable_bandwidth(), 1.0);
  server.release_reservation(9.0);
  EXPECT_TRUE(server.can_admit(3.0));
  EXPECT_DOUBLE_EQ(server.schedulable_bandwidth(), 10.0);
}

TEST(Server, TotalAttachedCounts) {
  Server server(0, 100.0, 1e6);
  ClientProfile client{0.0, 3.0};
  Request r1(1, make_video(0), 0.0, client);
  server.attach(r1);
  server.detach(r1);
  Request r2(2, make_video(0), 0.0, client);
  server.attach(r2);
  EXPECT_EQ(server.total_attached(), 2u);
}

// ---------------------------------------------------------------- fluid lane

// The batched kernel must be BIT-identical to the per-stream advance path:
// both call the same fluid_detail formulas in the same order per slot, and
// the batch continues the running meter with the same additions, in slot
// order, as one Metrics::record_transmission per stream — so exact doubles
// compare equal, meter included. Three regimes in one batch: workahead
// (buffer fills), exact-rate (buffer stays empty), starved (buffer empty,
// drains into underflow).
TEST(FluidLane, BatchAdvanceIsBitIdenticalToPerStream) {
  ClientProfile client{120.0, 30.0};
  Server per_stream_server(0, 1000.0, 1e6);
  Server batched_server(1, 1000.0, 1e6);
  const Mbps rates[] = {15.0, 3.0, 1.0};

  Request p1(1, make_video(0), 0.0, client), p2(2, make_video(1), 0.0, client),
      p3(3, make_video(2), 0.0, client);
  Request b1(1, make_video(0), 0.0, client), b2(2, make_video(1), 0.0, client),
      b3(3, make_video(2), 0.0, client);
  Request* per_stream[] = {&p1, &p2, &p3};
  Request* batched[] = {&b1, &b2, &b3};
  for (int i = 0; i < 3; ++i) {
    per_stream[i]->begin_streaming(0.0, 0);
    batched[i]->begin_streaming(0.0, 1);
    per_stream_server.attach(*per_stream[i]);
    batched_server.attach(*batched[i]);
    per_stream[i]->set_allocation(0.0, rates[i]);
    batched[i]->set_allocation(0.0, rates[i]);
  }

  // Both meters start from the same nonzero running total and clip to a
  // window opening at t=0.1, chosen so that a regrouped batch sum (adding
  // the batch's terms to each other first) rounds differently from the
  // per-stream additions: 188.20000000000002 vs 188.2.
  Metrics per_stream_meter(0.1, 100.0, 1000.0);
  per_stream_meter.record_transmission(0.0, 0.2, 1.0);
  Megabits batch_meter = per_stream_meter.transmitted();

  Megabits per_stream_underflow[3];
  for (int i = 0; i < 3; ++i) {
    per_stream_meter.record_transmission(per_stream[i]->last_update(), 10.0,
                                         per_stream[i]->allocation());
    per_stream_underflow[i] = per_stream[i]->advance(10.0);
  }

  std::vector<Megabits> scratch;
  const FluidLane::BatchResult batch = batched_server.lane().advance_batch(
      10.0, 0.1, 100.0, batch_meter, scratch);
  EXPECT_EQ(batch.advanced, 3u);
  EXPECT_TRUE(batch.any_underflow);

  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    // Exact double equality on purpose: identical formulas, identical order.
    EXPECT_EQ(batched[i]->remaining(), per_stream[i]->remaining());
    EXPECT_EQ(batched[i]->buffer_level(), per_stream[i]->buffer_level());
    EXPECT_EQ(batched[i]->last_update(), per_stream[i]->last_update());
    EXPECT_EQ(scratch[static_cast<std::size_t>(i)], per_stream_underflow[i]);
  }
  // The starved stream (rate 1 vs view 3, empty buffer): 10 in, 30 out.
  EXPECT_DOUBLE_EQ(per_stream_underflow[2], 20.0);
  // Batch metering: every stream live across [0.1,10] inside the window.
  EXPECT_EQ(batch_meter, per_stream_meter.transmitted());
}

TEST(FluidLane, BatchMeteringClipsToWindow) {
  ClientProfile client{0.0, 3.0};
  Server server(0, 1000.0, 1e6);
  Request request(1, make_video(0), 0.0, client);
  request.begin_streaming(0.0, 0);
  server.attach(request);
  request.set_allocation(0.0, 3.0);
  // Two slots that must add exactly +0.0 to the meter: a zero-rate stream
  // live across the whole window, and a stream whose last update is
  // already `now` (dt == 0).
  Request idle(3, make_video(2), 0.0, client);
  idle.begin_streaming(0.0, 0);
  server.attach(idle);
  Request fresh(4, make_video(3), 30.0, client);
  fresh.begin_streaming(30.0, 0);
  server.attach(fresh);
  fresh.set_allocation(30.0, 3.0);

  std::vector<Megabits> scratch;
  Megabits meter = 0.5;  // a running total from earlier batches
  // Window starts at t=20: the advance over [0,30] must meter only [20,30].
  const FluidLane::BatchResult batch =
      server.lane().advance_batch(30.0, 20.0, 100.0, meter, scratch);
  EXPECT_EQ(batch.advanced, 2u);  // `fresh` has dt == 0
  EXPECT_EQ(meter, 0.5 + 3.0 * 10.0);
  // And an advance wholly before the window meters nothing... (new stream)
  Request early(2, make_video(1), 0.0, client);
  early.begin_streaming(30.0, 0);
  server.attach(early);
  early.set_allocation(30.0, 3.0);
  server.lane().advance_batch(40.0, 50.0, 100.0, meter, scratch);
  EXPECT_EQ(meter, 0.5 + 3.0 * 10.0);
}

TEST(FluidLane, SwapRemoveKeepsSlotsCoherent) {
  ClientProfile client{120.0, 30.0};
  Server server(0, 1000.0, 1e6);
  Request r1(1, make_video(0), 0.0, client), r2(2, make_video(1), 0.0, client),
      r3(3, make_video(2), 0.0, client);
  const Mbps rates[] = {3.0, 6.0, 9.0};
  Request* all[] = {&r1, &r2, &r3};
  for (int i = 0; i < 3; ++i) {
    all[i]->begin_streaming(0.0, 0);
    server.attach(*all[i]);
    all[i]->set_allocation(0.0, rates[i]);
  }
  for (Request* request : all) request->advance(10.0);

  // Detach the middle stream: r3's lane slot swaps into r2's, mirroring the
  // active_ vector swap — indices and values must stay paired.
  server.detach(r2);
  EXPECT_EQ(server.lane().size(), 2u);
  EXPECT_EQ(server.active_requests()[r3.active_index], &r3);
  // The detached request reads its home scalars (copied back on detach).
  EXPECT_DOUBLE_EQ(r2.remaining(), 1800.0 - 60.0);
  EXPECT_DOUBLE_EQ(r2.buffer_level(), 30.0);  // (6-3)*10
  // The survivors still read correct state through their (moved) lane slots.
  EXPECT_DOUBLE_EQ(r1.remaining(), 1800.0 - 30.0);
  EXPECT_DOUBLE_EQ(r3.remaining(), 1800.0 - 90.0);
  EXPECT_DOUBLE_EQ(r3.buffer_level(), 60.0);  // (9-3)*10
  EXPECT_EQ(server.lane().remaining(r3.active_index), r3.remaining());

  // And the survivors keep advancing correctly post-swap.
  r3.advance(20.0);
  EXPECT_DOUBLE_EQ(r3.remaining(), 1800.0 - 180.0);
}

TEST(FluidLane, MutatorsWriteThroughToLane) {
  ClientProfile client{120.0, 30.0};
  Server server(0, 1000.0, 1e6);
  Request request(1, make_video(0), 0.0, client);
  request.begin_streaming(0.0, 0);
  server.attach(request);
  request.set_allocation(0.0, 6.0);
  request.advance(10.0);
  EXPECT_DOUBLE_EQ(request.buffer_level(), 30.0);  // (6-3)*10

  // Pause: transmission keeps filling, playback stops draining — the lane
  // must see the paused flag or the batched advance would keep draining.
  request.pause_viewing(10.0);
  std::vector<Megabits> scratch;
  Megabits meter = 0.0;
  server.lane().advance_batch(15.0, 0.0, 1e9, meter, scratch);
  EXPECT_DOUBLE_EQ(request.buffer_level(), 60.0);  // +6*5 in, nothing out

  request.resume_viewing(15.0);
  request.set_allocation(15.0, 0.0);
  server.lane().advance_batch(25.0, 0.0, 1e9, meter, scratch);
  EXPECT_DOUBLE_EQ(request.buffer_level(), 30.0);  // -3*10 out, nothing in
}

// The batched sort-key pass must produce exactly the doubles the scalar
// per-candidate loop computes: same division, same add, per slot — and the
// lane's per-slot form must agree with it.
TEST(FluidLane, FillProjectedFinishMatchesScalar) {
  ClientProfile client{120.0, 30.0};
  Server server(0, 1000.0, 1e6);
  Request r1(1, make_video(0, 600.0), 0.0, client),
      r2(2, make_video(1, 1000.0), 0.0, client),
      r3(3, make_video(2, 600.0), 0.0, client);
  const Mbps rates[] = {15.0, 3.0, 1.0};
  Request* all[] = {&r1, &r2, &r3};
  for (int i = 0; i < 3; ++i) {
    all[i]->begin_streaming(0.0, 0);
    server.attach(*all[i]);
    all[i]->set_allocation(0.0, rates[i]);
    all[i]->advance(10.0);
  }

  std::vector<Seconds> keys;
  server.lane().fill_projected_finish(37.5, keys);
  ASSERT_EQ(keys.size(), 3u);
  for (Request* request : all) {
    // Exact double equality on purpose: identical formula, identical inputs.
    EXPECT_EQ(keys[request->active_index],
              37.5 + request->remaining() / request->view_bandwidth());
    EXPECT_EQ(keys[request->active_index],
              server.lane().projected_finish(request->active_index, 37.5));
  }
}

// The batched predicted-event pass must reproduce the engine's scalar
// retiming arithmetic bit for bit, and its gates decision for decision,
// with +inf encoding "no event". Four regimes in one lane: a workahead
// filler (buffer-full kept), a starved drainer with staged data
// (buffer-low kept), a zero-rate stream (tx-complete never), and a
// full-buffer filler (buffer-full suppressed by the fullness gate).
TEST(FluidLane, FillPredictedTimesMatchesScalarGates) {
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  ClientProfile client{120.0, 30.0};
  Server server(0, 1000.0, 1e6);
  Request filler(1, make_video(0), 0.0, client),
      drainer(2, make_video(1), 0.0, client),
      stalled(3, make_video(2), 0.0, client),
      brimming(4, make_video(3), 0.0, client);
  Request* all[] = {&filler, &drainer, &stalled, &brimming};
  const Mbps warm_rates[] = {6.0, 9.0, 9.0, 15.0};
  for (int i = 0; i < 4; ++i) {
    all[i]->begin_streaming(0.0, 0);
    server.attach(*all[i]);
    all[i]->set_allocation(0.0, warm_rates[i]);
    all[i]->advance(10.0);  // stage some data; brimming reaches capacity
  }
  ASSERT_TRUE(brimming.buffer_full());
  const Seconds now = 10.0;
  drainer.set_allocation(now, 1.0);  // below the 3.0 view rate: draining
  stalled.set_allocation(now, 0.0);  // starved entirely

  const double safety_cover = 4.0;  // threshold = 12 Mb at view 3.0
  std::vector<Seconds> tx, full, low;
  server.lane().fill_predicted_times(now, safety_cover, tx, full, low);
  ASSERT_EQ(tx.size(), 4u);

  // Branchy scalar replicas of the retiming arithmetic and gates, computed
  // through the Request accessors: an independent reference for the
  // branch-free fluid_detail::predicted_times. Exact equality on purpose.
  auto scalar_tx = [&](const Request& r) {
    return r.allocation() > 0.0 ? now + r.remaining() / r.allocation() : kNever;
  };
  for (Request* request : all) {
    EXPECT_EQ(tx[request->active_index], scalar_tx(*request));
    // The per-slot form the engine retimes sparse changes with.
    const fluid_detail::PredictedTimes times =
        server.lane().predicted_times(request->active_index, now, safety_cover);
    EXPECT_EQ(times.tx_complete, tx[request->active_index]);
    EXPECT_EQ(times.buffer_full, full[request->active_index]);
    EXPECT_EQ(times.buffer_low, low[request->active_index]);
  }

  {  // filler: surplus 3 > 0, buffer has headroom, fills before tx.
    const Mbps surplus = filler.allocation() - filler.drain_rate(now);
    const Seconds expected = now + filler.buffer_headroom() / surplus;
    ASSERT_LT(expected, scalar_tx(filler));
    EXPECT_EQ(full[filler.active_index], expected);
    EXPECT_EQ(low[filler.active_index], kNever);
  }
  {  // drainer: surplus -2, level 60 above threshold 12 -> low at +24 s.
    const Mbps surplus = drainer.allocation() - drainer.drain_rate(now);
    ASSERT_LT(surplus, 0.0);
    const Megabits threshold = safety_cover * drainer.view_bandwidth();
    const Seconds expected =
        now + (drainer.buffer_level() - threshold) / -surplus;
    EXPECT_EQ(low[drainer.active_index], expected);
    EXPECT_EQ(full[drainer.active_index], kNever);
  }
  {  // stalled: rate 0 -> no tx-complete; still drains toward the threshold.
    EXPECT_EQ(tx[stalled.active_index], kNever);
    const Mbps surplus = 0.0 - stalled.drain_rate(now);
    const Megabits threshold = safety_cover * stalled.view_bandwidth();
    const Seconds expected =
        now + (stalled.buffer_level() - threshold) / -surplus;
    EXPECT_EQ(low[stalled.active_index], expected);
  }
  {  // brimming: surplus 12 > 0 but the buffer is full -> no full event.
    EXPECT_EQ(full[brimming.active_index], kNever);
    EXPECT_EQ(low[brimming.active_index], kNever);
  }
}

// Churn across the arena's hot/cold split: swap_remove must move every
// array — including the cold receive-bandwidth tail — as one unit, and the
// write-through sinks must keep landing in the *moved* slot afterwards.
TEST(FluidLane, ChurnKeepsColdFieldsAndWriteThroughCoherent) {
  ClientProfile fast_client{120.0, 30.0};
  ClientProfile slow_client{120.0, 2.0};  // receive < view: never eligible
  Server server(0, 1000.0, 1e6);
  Request r1(1, make_video(0), 0.0, fast_client),
      r2(2, make_video(1), 0.0, slow_client),
      r3(3, make_video(2), 0.0, fast_client);
  Request* all[] = {&r1, &r2, &r3};
  for (Request* request : all) {
    request->begin_streaming(0.0, 0);
    server.attach(*request);
    // 6 Mb/s, or all the slow client can receive: r2 drains (2 < 3 Mb/s)
    // and its buffer bottoms out at 0.
    request->set_allocation(0.0, std::min(6.0, request->receive_bandwidth()));
    request->advance(10.0);
  }

  server.detach(r1);  // r3's slots (all ten arrays) swap into slot 0
  const FluidLane& lane = server.lane();
  ASSERT_EQ(lane.size(), 2u);
  EXPECT_EQ(lane.receive_bandwidth(r3.active_index), 30.0);
  EXPECT_EQ(lane.receive_bandwidth(r2.active_index), 2.0);

  // Eligibility reads the cold array: only r3 can absorb workahead.
  std::vector<std::size_t> eligible;
  lane.eligible_slots(eligible);
  ASSERT_EQ(eligible.size(), 1u);
  EXPECT_EQ(eligible[0], r3.active_index);

  // Write-through after the swap targets the moved slot: pausing r3 must
  // stop the batched drain of r3's buffer, not r2's.
  r3.pause_viewing(10.0);
  std::vector<Megabits> scratch;
  Megabits meter = 0.0;
  server.lane().advance_batch(20.0, 0.0, 1e9, meter, scratch);
  EXPECT_DOUBLE_EQ(r3.buffer_level(), 30.0 + 6.0 * 10.0);  // inflow only
  // Still draining faster than it fills: a pause misdirected to r2's slot
  // would have banked 2 Mb/s * 10 s instead.
  EXPECT_DOUBLE_EQ(r2.buffer_level(), 0.0);
}

// AVX-512 smoke: on hosts with avx512f the ifunc resolver dispatches the
// widest clone of every batch kernel; a lane wider than one zmm register
// must still be bit-identical to the scalar path. Compile coverage of the
// clone is unconditional; runtime coverage skips on older hardware.
TEST(FluidLaneAvx512, WideLaneBatchesMatchScalar) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("avx512f")) {
    GTEST_SKIP() << "host lacks avx512f; clone compiled but not dispatchable";
  }
  // Every fifth client receives slower than playback, and the one after it
  // stages only 20 Mb (full at the faster rates): both are ineligible for
  // workahead in the grant inputs.
  const ClientProfile clients[] = {{120.0, 30.0}, {120.0, 2.0}, {20.0, 30.0}};
  Server scalar_server(0, 1000.0, 1e8);
  Server batched_server(1, 1000.0, 1e8);
  constexpr int kStreams = 19;  // 2 full zmm lanes + remainder
  StableVector<Request> scalar_requests, batched_requests;
  for (int i = 0; i < kStreams; ++i) {
    const ClientProfile& client = clients[i % 5 < 3 ? 0 : i % 5 - 2];
    const Mbps rate = std::min(0.5 + 1.25 * static_cast<double>(i % 7),
                               client.receive_bandwidth);
    scalar_requests.emplace_back(i, make_video(i), 0.0, client);
    batched_requests.emplace_back(i, make_video(i), 0.0, client);
    scalar_requests.back().begin_streaming(0.0, 0);
    batched_requests.back().begin_streaming(0.0, 1);
    scalar_server.attach(scalar_requests.back());
    batched_server.attach(batched_requests.back());
    scalar_requests.back().set_allocation(0.0, rate);
    batched_requests.back().set_allocation(0.0, rate);
  }

  for (Request& request : scalar_requests) request.advance(10.0);
  std::vector<Megabits> scratch;
  Megabits meter = 0.0;
  batched_server.lane().advance_batch(10.0, 0.0, 1e9, meter, scratch);

  // A paused client with a full buffer has a minimum rate of 0.
  ASSERT_TRUE(scalar_requests[4].buffer_full());
  scalar_requests[4].pause_viewing(10.0);
  batched_requests[4].pause_viewing(10.0);

  const FluidLane& lane = batched_server.lane();
  std::vector<Seconds> keys, tx, full, low;
  lane.fill_projected_finish(10.0, keys);
  lane.fill_predicted_times(10.0, 4.0, tx, full, low);
  std::vector<Mbps> minimum, room;
  std::vector<std::int64_t> earliest_keys, latest_keys;
  lane.fill_grant_inputs(10.0, /*earliest_first=*/false, minimum, room,
                         latest_keys);
  const FluidLane::GrantSums sums = lane.fill_grant_inputs(
      10.0, /*earliest_first=*/true, minimum, room, earliest_keys);
  constexpr std::int64_t kIneligible = std::numeric_limits<std::int64_t>::max();
  Mbps committed = 0.0;
  Mbps room_sum = 0.0;
  int eligible_slots = 0;
  for (int i = 0; i < kStreams; ++i) {
    SCOPED_TRACE(i);
    const Request& scalar = scalar_requests[static_cast<std::size_t>(i)];
    const Request& batched = batched_requests[static_cast<std::size_t>(i)];
    const std::size_t slot = batched.active_index;
    EXPECT_EQ(batched.remaining(), scalar.remaining());
    EXPECT_EQ(batched.buffer_level(), scalar.buffer_level());
    const Seconds finish = 10.0 + scalar.remaining() / scalar.view_bandwidth();
    EXPECT_EQ(keys[slot], finish);
    EXPECT_EQ(tx[slot], scalar.allocation() > 0.0
                            ? 10.0 + scalar.remaining() / scalar.allocation()
                            : std::numeric_limits<Seconds>::infinity());

    const bool eligible = !scalar.buffer_full() &&
                          scalar.receive_bandwidth() > scalar.view_bandwidth() &&
                          !scalar.finished();
    const Mbps expected_room =
        eligible ? scalar.receive_bandwidth() - scalar.view_bandwidth() : 0.0;
    const std::int64_t bits = std::bit_cast<std::int64_t>(finish);
    EXPECT_EQ(std::bit_cast<std::int64_t>(minimum[slot]),
              std::bit_cast<std::int64_t>(scalar.minimum_rate()));
    EXPECT_EQ(std::bit_cast<std::int64_t>(room[slot]),
              std::bit_cast<std::int64_t>(expected_room));
    EXPECT_EQ(earliest_keys[slot], eligible ? bits : kIneligible);
    EXPECT_EQ(latest_keys[slot], eligible ? ~bits : kIneligible);
    committed += scalar.minimum_rate();
    room_sum += expected_room;
    eligible_slots += eligible;
  }
  EXPECT_EQ(sums.committed, committed);
  EXPECT_EQ(sums.room, room_sum);
  EXPECT_EQ(minimum[batched_requests[4].active_index], 0.0);
  EXPECT_GT(eligible_slots, 0);
  EXPECT_LT(eligible_slots, kStreams - 4);
#else
  GTEST_SKIP() << "x86-64 only";
#endif
}

// ---------------------------------------------------------------- catalog

TEST(VideoCatalog, MeansComputed) {
  std::vector<Video> videos;
  videos.push_back(make_video(0, 100.0));
  videos.push_back(make_video(1, 300.0));
  const VideoCatalog catalog(std::move(videos));
  EXPECT_DOUBLE_EQ(catalog.mean_duration(), 200.0);
  EXPECT_DOUBLE_EQ(catalog.mean_size(), 600.0);
}

}  // namespace
}  // namespace vodsim
