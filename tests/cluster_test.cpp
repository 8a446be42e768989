// Tests for the cluster model: staging buffer fluid math, request
// lifecycle/advance, server replica & active-set management.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "vodsim/cluster/client.h"
#include "vodsim/cluster/fluid_lane.h"
#include "vodsim/cluster/request.h"
#include "vodsim/cluster/server.h"
#include "vodsim/cluster/video.h"
#include "vodsim/engine/metrics.h"
#include "vodsim/sched/scheduler.h"
#include "vodsim/util/rng.h"
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
// A client's staging buffer is a level and a capacity; its fill/drain step
// is fluid_detail::apply_buffer, its full test fluid_detail::buffer_full.

TEST(ClientBuffer, FillsAndDrains) {
  Megabits level = 0.0;
  EXPECT_DOUBLE_EQ(fluid_detail::apply_buffer(level, 100.0, 30.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(level, 20.0);
  EXPECT_DOUBLE_EQ(fluid_detail::apply_buffer(level, 100.0, 0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(level, 15.0);
}

TEST(ClientBuffer, ReportsUnderflow) {
  Megabits level = 0.0;
  fluid_detail::apply_buffer(level, 100.0, 10.0, 0.0);
  const Megabits underflow = fluid_detail::apply_buffer(level, 100.0, 0.0, 25.0);
  EXPECT_DOUBLE_EQ(underflow, 15.0);
  EXPECT_DOUBLE_EQ(level, 0.0);  // clamped
}

TEST(ClientBuffer, ClampsAtCapacity) {
  Megabits level = 0.0;
  fluid_detail::apply_buffer(level, 50.0, 60.0, 0.0);
  EXPECT_DOUBLE_EQ(level, 50.0);
  EXPECT_TRUE(fluid_detail::buffer_full(level, 50.0));
}

TEST(ClientBuffer, FullWithinTolerance) {
  Megabits level = 0.0;
  fluid_detail::apply_buffer(level, 50.0, 50.0 - 1e-8, 0.0);
  EXPECT_TRUE(fluid_detail::buffer_full(level, 50.0));
  EXPECT_FALSE(fluid_detail::buffer_full(50.0 - 1e-5, 50.0));
}

TEST(ClientBuffer, PlaybackCover) {
  // 6 Mb/s in, 3 Mb/s played for 10 s: 30 Mb staged = 10 s of playback.
  Request request(1, make_video(0, 600.0, 3.0), 0.0, ClientProfile{100.0});
  request.begin_streaming(0.0, 0);
  request.set_allocation(0.0, 6.0);
  EXPECT_DOUBLE_EQ(request.advance(10.0), 0.0);
  EXPECT_DOUBLE_EQ(request.buffer_level(), 30.0);
  EXPECT_DOUBLE_EQ(request.buffer_level() / request.view_bandwidth(), 10.0);
  EXPECT_DOUBLE_EQ(request.buffer_headroom(), 70.0);
}

TEST(ClientBuffer, ZeroCapacityAlwaysFull) {
  EXPECT_TRUE(fluid_detail::buffer_full(0.0, 0.0));
  Request request(1, make_video(), 0.0, ClientProfile{0.0});
  EXPECT_TRUE(request.buffer_full());
  EXPECT_DOUBLE_EQ(request.buffer_headroom(), 0.0);
}

TEST(ClientBuffer, TinyUnderflowIgnored) {
  Megabits level = 0.0;
  fluid_detail::apply_buffer(level, 10.0, 1.0, 0.0);
  // Below tolerance.
  EXPECT_DOUBLE_EQ(fluid_detail::apply_buffer(level, 10.0, 0.0, 1.0 + 1e-9), 0.0);
}

// ---------------------------------------------------------------- request

TEST(Request, InitialState) {
  ClientProfile client{120.0, 30.0};
  Request request(1, make_video(0, 600.0), 100.0, client);
  EXPECT_EQ(request.state(), RequestState::kStreaming);
  EXPECT_EQ(request.server(), kNoServer);
  EXPECT_DOUBLE_EQ(request.remaining(), 1800.0);  // 600 s x 3 Mb/s
  EXPECT_DOUBLE_EQ(request.playback_end(), 700.0);
  EXPECT_DOUBLE_EQ(request.delivered(), 0.0);  // the whole 1800 Mb remains
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

// One server's stream table taken through several arena doublings (past 64,
// 128 and 256 slots), a scattered detach of a third of its streams and a
// re-attach of half of those. After every attach and detach each slot must
// hold its request: the Request*, the request's active_index and lane
// binding, its traits, and the fluid fields the request carried when it
// was attached (or that were last written into its slot). A detached
// request must carry its slot's fields home.
TEST(Server, StreamTableTracksItsRequestsThroughGrowth) {
  constexpr int kStreams = 320;
  Server server(0, 1e6, 1e12);
  StableVector<Request> requests;
  // Per request id: the fluid fields its slot must hold.
  struct Fields {
    Megabits remaining, buffer_level;
    Seconds last_update;
    Mbps allocation, view, receive;
    bool urgent;
  };
  std::vector<Fields> want;
  const auto fields_of = [](const Request& r) {
    return Fields{r.remaining(),      r.buffer_level(),
                  r.last_update(),    r.allocation(),
                  r.view_bandwidth(), r.receive_bandwidth(),
                  r.workahead_urgent()};
  };
  for (int k = 0; k < kStreams; ++k) {
    const ClientProfile client{120.0, 30.0 + k % 3};
    Request& r = requests.emplace_back(
        static_cast<RequestId>(k), make_video(k, 600.0, 1.0 + (k % 13) * 0.25),
        0.0, client);
    for (int hop = 0; hop < k % 5; ++hop) {
      r.begin_migration(0.0);
      r.complete_migration(0.0, 0);
    }
    r.set_allocation(0.0, 1.0 + (k % 17) * 0.5);
    r.advance(10.0 + k * 0.01);
    r.set_workahead_urgent(k % 4 == 0);
    want.push_back(fields_of(r));
  }

  // The first slot that disagrees with its request, or "" when none does.
  const auto mismatch = [&server, &want]() -> std::string {
    const FluidLane& lane = server.lane();
    const std::vector<Request*>& active = server.active_requests();
    if (active.size() != lane.size() || server.active_count() != lane.size()) {
      return "table size";
    }
    for (std::size_t i = 0; i < lane.size(); ++i) {
      const Request& r = *active[i];
      const Fields& f = want[static_cast<std::size_t>(r.id())];
      const std::string slot = "slot " + std::to_string(i) + ": ";
      if (r.active_index != i || r.lane() != &lane) return slot + "binding";
      if (lane.traits(i).video != r.video_id() ||
          lane.traits(i).hops != r.hops() ||
          r.hops() != static_cast<int>(r.id() % 5)) {
        return slot + "traits";
      }
      if (lane.remaining(i) != f.remaining ||
          lane.buffer_level(i) != f.buffer_level ||
          lane.last_update(i) != f.last_update ||
          lane.allocation(i) != f.allocation ||
          lane.view_bandwidth(i) != f.view ||
          lane.receive_bandwidth(i) != f.receive ||
          lane.urgent(i) != f.urgent) {
        return slot + "fluid fields";
      }
    }
    return "";
  };

  for (int k = 0; k < kStreams; ++k) {
    server.attach(requests[static_cast<std::size_t>(k)]);
    ASSERT_EQ(mismatch(), "") << "after attaching " << k;
  }
  Mbps committed = 0.0;
  for (const Request* r : server.active_requests()) {
    committed += r->view_bandwidth();
  }
  EXPECT_DOUBLE_EQ(server.committed_bandwidth(), committed);

  // Detach every third request (ids 1, 4, ...), highest id first, so the
  // removed slots are scattered over the table. Each gets a fresh rate in
  // its slot first, which detach must carry home.
  std::size_t detached = 0;
  for (int k = kStreams - 1; k >= 0; k -= 3, ++detached) {
    Request& r = requests[static_cast<std::size_t>(k)];
    const Mbps rate = 0.5 + (k % 7) * 0.125;
    server.lane().set_allocation(r.active_index, rate);
    Fields& f = want[static_cast<std::size_t>(k)];
    f.allocation = rate;
    server.detach(r);
    ASSERT_EQ(r.lane(), nullptr);
    ASSERT_EQ(r.allocation(), rate);
    ASSERT_EQ(r.remaining(), f.remaining);
    ASSERT_EQ(r.buffer_level(), f.buffer_level);
    ASSERT_EQ(r.workahead_urgent(), f.urgent);
    ASSERT_EQ(mismatch(), "") << "after detaching " << k;
  }
  EXPECT_EQ(server.active_count(), kStreams - detached);

  // Re-attach half of the detached ones (ids 1, 7, ...).
  std::uint64_t reattached = 0;
  for (int k = 1; k < kStreams; k += 6, ++reattached) {
    server.attach(requests[static_cast<std::size_t>(k)]);
    ASSERT_EQ(mismatch(), "") << "after re-attaching " << k;
  }
  EXPECT_EQ(server.active_count(), kStreams - detached + reattached);

  // The schedulers accept the table's own request array and nothing else,
  // not even an equal copy of it.
  EXPECT_EQ(&sched_detail::lane_of(server.active_requests()), &server.lane());
  const std::vector<Request*> copy = server.active_requests();
  EXPECT_THROW(sched_detail::lane_of(copy), std::invalid_argument);

  // A copied server holds an independent table over the same requests,
  // which stay bound to the original.
  Server clone = server;
  ASSERT_EQ(clone.active_requests(), server.active_requests());
  EXPECT_NE(&clone.active_requests(), &server.active_requests());
  EXPECT_THROW(sched_detail::lane_of(clone.active_requests()),
               std::invalid_argument);
  const Mbps before = server.lane().allocation(0);
  clone.lane().set_allocation(0, before + 1.0);
  EXPECT_EQ(server.lane().allocation(0), before);
  EXPECT_EQ(clone.lane().allocation(0), before + 1.0);
  EXPECT_EQ(server.active_requests()[0]->allocation(), before);
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

// The per-slot predicted-event formula must reproduce a branchy replica
// of the engine's retiming arithmetic bit for bit, and its gates decision
// for decision, with +inf encoding "no event". Six regimes in one lane: a
// workahead filler (buffer-full kept), a starved drainer with staged data
// (buffer-low kept), a zero-rate stream (tx-complete never), a full-buffer
// filler (buffer-full suppressed by the fullness gate), a paused client
// with staged data and a stream past its playback end. The last two do not
// drain, so a rate below the view bandwidth still fills their buffers.
TEST(FluidLane, PredictedTimesMatchesScalarGates) {
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  ClientProfile client{120.0, 30.0};
  ClientProfile small_client{12.0, 30.0};
  Server server(0, 1000.0, 1e6);
  Request filler(1, make_video(0), 0.0, client),
      drainer(2, make_video(1), 0.0, client),
      stalled(3, make_video(2), 0.0, client),
      brimming(4, make_video(3), 0.0, client),
      paused(5, make_video(4), 0.0, client),
      ended(6, make_video(5, 5.0), 0.0, small_client);
  Request* all[] = {&filler, &drainer, &stalled, &brimming, &paused, &ended};
  const Mbps warm_rates[] = {6.0, 9.0, 9.0, 15.0, 6.0, 0.0};
  for (int i = 0; i < 6; ++i) {
    all[i]->begin_streaming(0.0, 0);
    server.attach(*all[i]);
    all[i]->set_allocation(0.0, warm_rates[i]);
  }
  // ended starves through its 5 s of playback, then stages 5 Mb.
  ended.advance(5.0);
  ended.set_allocation(5.0, 1.0);
  for (Request* request : all) {
    request->advance(10.0);  // stage some data; brimming reaches capacity
  }
  ASSERT_TRUE(brimming.buffer_full());
  const Seconds now = 10.0;
  drainer.set_allocation(now, 1.0);  // below the 3.0 view rate: draining
  stalled.set_allocation(now, 0.0);  // starved entirely
  paused.pause_viewing(now);
  paused.set_allocation(now, 2.0);  // below the view rate, but not draining
  ASSERT_GE(now, ended.playback_end());
  ASSERT_GT(ended.remaining(), 0.0);

  const double safety_cover = 4.0;  // threshold = 12 Mb at view 3.0

  // Branchy scalar replica of the retiming arithmetic and gates, computed
  // through the Request accessors: an independent reference for
  // fluid_detail::predicted_times.
  const auto reference = [&](const Request& r) {
    fluid_detail::PredictedTimes times{kNever, kNever, kNever};
    if (r.allocation() > 0.0) {
      times.tx_complete = now + r.remaining() / r.allocation();
    }
    const Mbps surplus = r.allocation() - r.drain_rate(now);
    if (surplus > 1e-12 && !r.buffer_full()) {
      const Seconds at = now + r.buffer_headroom() / surplus;
      if (at < times.tx_complete) times.buffer_full = at;
    } else if (surplus < -1e-12) {
      const Megabits threshold = safety_cover * r.view_bandwidth();
      if (r.buffer_level() > threshold + fluid_detail::kLevelTolerance) {
        const Seconds at = now + (r.buffer_level() - threshold) / -surplus;
        if (at < times.tx_complete) times.buffer_low = at;
      }
    }
    return times;
  };
  const auto bits = [](Seconds t) { return std::bit_cast<std::uint64_t>(t); };
  const auto predicted = [&](const Request& r) {
    return server.lane().predicted_times(r.active_index, now, safety_cover);
  };

  for (Request* request : all) {
    SCOPED_TRACE(request->id());
    const fluid_detail::PredictedTimes expected = reference(*request);
    const fluid_detail::PredictedTimes times = predicted(*request);
    EXPECT_EQ(bits(times.tx_complete), bits(expected.tx_complete));
    EXPECT_EQ(bits(times.buffer_full), bits(expected.buffer_full));
    EXPECT_EQ(bits(times.buffer_low), bits(expected.buffer_low));
  }

  // Each regime reaches the gate it is named for.
  {  // filler: surplus 3 > 0, buffer has headroom, fills before tx.
    const fluid_detail::PredictedTimes times = predicted(filler);
    EXPECT_LT(times.buffer_full, times.tx_complete);
    EXPECT_EQ(times.buffer_low, kNever);
  }
  {  // drainer: surplus -2, level 60 above threshold 12 -> low at +24 s.
    const fluid_detail::PredictedTimes times = predicted(drainer);
    EXPECT_EQ(times.buffer_low, now + 24.0);
    EXPECT_EQ(times.buffer_full, kNever);
  }
  {  // stalled: rate 0 -> no tx-complete; still drains toward the threshold.
    const fluid_detail::PredictedTimes times = predicted(stalled);
    EXPECT_EQ(times.tx_complete, kNever);
    EXPECT_LT(times.buffer_low, kNever);
  }
  {  // brimming: surplus 12 > 0 but the buffer is full -> no full event.
    const fluid_detail::PredictedTimes times = predicted(brimming);
    EXPECT_EQ(times.buffer_full, kNever);
    EXPECT_EQ(times.buffer_low, kNever);
  }
  {  // paused: level 30, no drain, surplus 2 -> full at +45 s, no low.
    const fluid_detail::PredictedTimes times = predicted(paused);
    EXPECT_EQ(times.buffer_full, now + 45.0);
    EXPECT_EQ(times.buffer_low, kNever);
  }
  {  // ended: level 5 of 12, no drain, surplus 1 -> full at +7 s, before
     // tx-complete at +10 s.
    const fluid_detail::PredictedTimes times = predicted(ended);
    EXPECT_EQ(times.tx_complete, now + 10.0);
    EXPECT_EQ(times.buffer_full, now + 7.0);
    EXPECT_EQ(times.buffer_low, kNever);
  }
}

// Churn across the arena's hot/cold split: FluidLane::remove must move every
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
    // The lane owns an attached stream's rate: the request reads it there.
    EXPECT_EQ(request->allocation(),
              server.lane().allocation(request->active_index));
  }

  // A rate written to the lane is the request's rate, and detach takes the
  // last lane rate home.
  server.lane().set_allocation(r1.active_index, 4.5);
  EXPECT_EQ(r1.allocation(), 4.5);
  server.detach(r1);  // r3's slots (all ten arrays) swap into slot 0
  EXPECT_EQ(r1.allocation(), 4.5);
  const FluidLane& lane = server.lane();
  for (const Request* request : {&r2, &r3}) {
    EXPECT_EQ(request->allocation(), lane.allocation(request->active_index));
  }
  ASSERT_EQ(lane.size(), 2u);
  EXPECT_EQ(lane.receive_bandwidth(r3.active_index), 30.0);
  EXPECT_EQ(lane.receive_bandwidth(r2.active_index), 2.0);

  // Eligibility reads the cold array: only r3 can absorb workahead.
  std::vector<Mbps> minimum, room;
  std::vector<std::int64_t> keys;
  lane.fill_grant_inputs(10.0, /*earliest_first=*/true, minimum, room, keys);
  EXPECT_EQ(room[r3.active_index], 30.0 - 3.0);
  EXPECT_EQ(room[r2.active_index], 0.0);

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

// The lane's tracked earliest prediction ({key, slot, kind}) against a
// brute-force scan over every slot's keys, under random key writes, single
// clears, appends and swap-removes. Removal follows the engine's contract:
// the slot's keys are cleared first. Two edge cases are forced and counted:
// removing another slot while the holder sits in the last slot (its keys
// move to the removed index), and removing the holder itself.
TEST(FluidLane, TrackedEarliestPredictionSurvivesChurn) {
  ClientProfile client{120.0, 30.0};
  StableVector<Request> sources;  // bound to the lane alone, no server
  Rng rng(2024);
  FluidLane lane;
  std::uint64_t next_seq = 1;
  int holder_last_removals = 0, holder_removals = 0, rescans = 0;

  const auto brute_force = [&lane] {
    FluidLane::NextPrediction best;
    for (std::size_t i = 0; i < lane.size(); ++i) {
      for (std::size_t k = 0; k < 3; ++k) {
        const EventKey key = lane.predictions(i)[k];
        if (key.live() && key < best.key) {
          best = {key, i, static_cast<Prediction>(k)};
        }
      }
    }
    return best;
  };
  const auto expect_tracked = [&](int step) {
    const FluidLane::NextPrediction want = brute_force();
    EXPECT_EQ(lane.earliest_slot(),
              want.key.live() ? want.slot : lane.size())
        << "step " << step;
    // Current tracking must be exact without a rescan; a stale one is
    // rescanned on every other step, so stale runs span several writes.
    if (lane.tracked_prediction() == nullptr) {
      if (rng.uniform_int(2) == 0) return;
      ++rescans;
    }
    const FluidLane::NextPrediction& got = lane.next_prediction();
    ASSERT_NE(lane.tracked_prediction(), nullptr);
    EXPECT_EQ(got.key, want.key) << "step " << step;
    EXPECT_EQ(got.slot, want.slot) << "step " << step;
    EXPECT_EQ(got.kind, want.kind) << "step " << step;
  };
  const auto append = [&] {
    sources.emplace_back(static_cast<RequestId>(sources.size()),
                         make_video(0), 0.0, client);
    lane.append(sources.back());
  };
  const auto random_key = [&] {
    // Few distinct times, so equal times fall back on the seq.
    return rng.uniform_int(4) == 0
               ? kNoEventKey
               : EventKey{1.0 + static_cast<Seconds>(rng.uniform_int(8)),
                          next_seq++};
  };
  // Keys at time 0 with falling seqs: each is below every key before it.
  std::uint64_t lowest_seq = std::numeric_limits<std::uint64_t>::max() - 1;
  const auto remove = [&](std::size_t slot, int step) {
    lane.set_predictions(slot, kNoPredictions);
    expect_tracked(step);
    lane.remove(slot);
    expect_tracked(step);
  };

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.uniform_int(10);
    if (lane.size() < 2 || (op == 0 && lane.size() < 40)) {
      append();
    } else if (op <= 4) {
      lane.set_predictions(rng.uniform_int(lane.size()),
                           {random_key(), random_key(), random_key()});
    } else if (op <= 6) {
      lane.clear_prediction(rng.uniform_int(lane.size()),
                            static_cast<Prediction>(rng.uniform_int(3)));
    } else if (op == 7) {
      remove(rng.uniform_int(lane.size()), step);
    } else {
      // The edge cases, from current tracking.
      const FluidLane::NextPrediction next = lane.next_prediction();
      if (!next.key.live()) continue;
      if (op == 8) {
        ++holder_removals;
        remove(next.slot, step);
      } else if (next.slot == lane.size() - 1) {
        ++holder_last_removals;
        remove(rng.uniform_int(lane.size() - 1), step);
      } else {
        // Make the holder the last slot: give it a key below every other.
        lane.set_predictions(lane.size() - 1,
                             {EventKey{0.0, lowest_seq--}, kNoEventKey,
                              kNoEventKey});
      }
    }
    expect_tracked(step);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(holder_removals, 100);
  EXPECT_GT(holder_last_removals, 100);
  EXPECT_GT(rescans, 1000);
}

// The schedulers build their workahead pools from room[i] > 0.0
// (FluidLane::fill_grant_inputs): it must hold exactly for the slots that
// can take workahead, on whichever kernel clone the host dispatches. The
// edge cases sit on each side of every term of the eligibility test.
TEST(FluidLane, PositiveRoomIsExactlyEligibility) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr Megabits kTol = Request::kRemainingTolerance;
  struct Case {
    const char* name;
    ClientProfile client;
    Video video;
    Mbps rate;  // over [0, 10] s
    bool pause;
    bool eligible;
  };
  const Case cases[] = {
      {"receive == view", {120.0, 3.0}, make_video(0), 3.0, false, false},
      {"receive just above view", {120.0, std::nextafter(3.0, kInf)},
       make_video(1), 3.0, false, true},
      {"receive below view", {120.0, 2.0}, make_video(2), 2.0, false, false},
      {"receive = +inf", {120.0, kInf}, make_video(3), 6.0, false, true},
      // 20 Mb of staging, filled by 60 Mb in against 30 Mb played.
      {"paused, buffer full", {20.0, 30.0}, make_video(4), 6.0, true, false},
      {"playing, buffer full", {20.0, 30.0}, make_video(5), 6.0, false, false},
      {"paused, headroom left", {120.0, 30.0}, make_video(6), 6.0, true, true},
      // A video of exactly kRemainingTolerance megabits, never sent to.
      {"remaining == tolerance", {120.0, 30.0}, make_video(7, kTol, 1.0), 0.0,
       false, false},
      {"remaining just above tolerance", {120.0, 30.0},
       make_video(8, 2.0 * kTol, 1.0), 0.0, false, true},
  };
  Server server(0, 1000.0, 1e6);
  StableVector<Request> requests;
  for (const Case& c : cases) {
    requests.emplace_back(static_cast<RequestId>(requests.size()), c.video,
                          0.0, c.client);
    Request& request = requests.back();
    request.begin_streaming(0.0, 0);
    server.attach(request);
    request.set_allocation(0.0, c.rate);
    request.advance(10.0);
    if (c.pause) request.pause_viewing(10.0);
  }

  std::vector<Mbps> minimum, room;
  std::vector<std::int64_t> keys;
  server.lane().fill_grant_inputs(10.0, /*earliest_first=*/true, minimum, room,
                                  keys);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Case& c = cases[i];
    const Request& request = requests[i];
    SCOPED_TRACE(c.name);
    const std::size_t slot = request.active_index;
    const bool eligible = !request.buffer_full() &&
                          request.receive_bandwidth() > request.view_bandwidth() &&
                          !request.finished();
    EXPECT_EQ(eligible, c.eligible);
    EXPECT_EQ(room[slot] > 0.0, eligible);
    EXPECT_EQ(keys[slot] != std::numeric_limits<std::int64_t>::max(), eligible);
    if (!eligible) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(room[slot]), 0u);  // +0.0
    }
  }
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
  std::vector<Seconds> keys;
  lane.fill_projected_finish(10.0, keys);
  std::vector<Mbps> minimum, room;
  std::vector<std::int64_t> earliest_keys, latest_keys;
  lane.fill_grant_inputs(10.0, /*earliest_first=*/false, minimum, room,
                         latest_keys);
  const FluidLane::GrantSums sums = lane.fill_grant_inputs(
      10.0, /*earliest_first=*/true, minimum, room, earliest_keys);
  constexpr std::int64_t kIneligible = std::numeric_limits<std::int64_t>::max();
  Mbps committed = 0.0;
  Mbps room_sum = 0.0;
  int eligible_count = 0;
  for (int i = 0; i < kStreams; ++i) {
    SCOPED_TRACE(i);
    const Request& scalar = scalar_requests[static_cast<std::size_t>(i)];
    const Request& batched = batched_requests[static_cast<std::size_t>(i)];
    const std::size_t slot = batched.active_index;
    EXPECT_EQ(batched.remaining(), scalar.remaining());
    EXPECT_EQ(batched.buffer_level(), scalar.buffer_level());
    const Seconds finish = 10.0 + scalar.remaining() / scalar.view_bandwidth();
    EXPECT_EQ(keys[slot], finish);

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
    eligible_count += eligible;
  }
  EXPECT_EQ(sums.committed, committed);
  EXPECT_EQ(sums.room, room_sum);
  EXPECT_EQ(minimum[batched_requests[4].active_index], 0.0);
  EXPECT_GT(eligible_count, 0);
  EXPECT_LT(eligible_count, kStreams - 4);
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
  EXPECT_DOUBLE_EQ(catalog.mean_size(), 600.0);
}

}  // namespace
}  // namespace vodsim
