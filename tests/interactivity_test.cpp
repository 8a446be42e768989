// Tests for the client interactivity (pause/resume) extension: request-level
// semantics and end-to-end engine behavior.

#include <gtest/gtest.h>

#include "vodsim/engine/vod_simulation.h"

namespace vodsim {
namespace {

Video make_video(Seconds duration = 600.0) {
  Video video;
  video.id = 0;
  video.duration = duration;
  video.view_bandwidth = 3.0;
  return video;
}

// ------------------------------------------------------- request semantics

TEST(Interactivity, PauseStopsConsumption) {
  ClientProfile client{300.0, 30.0};
  Request request(1, make_video(), 0.0, client);
  request.begin_streaming(0.0, 0);
  request.set_allocation(0.0, 9.0);
  request.advance(10.0);  // buffer (9-3)*10 = 60
  EXPECT_DOUBLE_EQ(request.buffer_level(), 60.0);

  request.pause_viewing(10.0);
  request.advance(20.0);  // inflow 90, no drain
  EXPECT_DOUBLE_EQ(request.buffer_level(), 150.0);
  EXPECT_TRUE(request.viewing_paused());
}

TEST(Interactivity, ResumeShiftsDeadline) {
  ClientProfile client{300.0, 30.0};
  Request request(1, make_video(600.0), 0.0, client);
  request.begin_streaming(0.0, 0);
  request.set_allocation(0.0, 3.0);
  EXPECT_DOUBLE_EQ(request.playback_end(), 600.0);
  request.advance(100.0);
  request.pause_viewing(100.0);
  request.advance(130.0);
  request.resume_viewing(130.0);
  EXPECT_DOUBLE_EQ(request.playback_end(), 630.0);
}

TEST(Interactivity, DrainRateReflectsState) {
  ClientProfile client{300.0, 30.0};
  Request request(1, make_video(600.0), 0.0, client);
  request.begin_streaming(0.0, 0);
  request.set_allocation(0.0, 3.0);
  EXPECT_DOUBLE_EQ(request.drain_rate(10.0), 3.0);
  request.advance(10.0);
  request.pause_viewing(10.0);
  EXPECT_DOUBLE_EQ(request.drain_rate(10.0), 0.0);
  request.advance(20.0);
  request.resume_viewing(20.0);
  EXPECT_DOUBLE_EQ(request.drain_rate(20.0), 3.0);
}

TEST(Interactivity, PausedFullBufferAbsorbsNothing) {
  ClientProfile client{60.0, 30.0};
  Request request(1, make_video(), 0.0, client);
  request.begin_streaming(0.0, 0);
  request.set_allocation(0.0, 9.0);
  request.advance(10.0);  // buffer hits 60 = capacity
  EXPECT_TRUE(request.buffer_full());
  EXPECT_DOUBLE_EQ(request.minimum_rate(), 3.0);  // playing: drains at 3
  request.set_allocation(10.0, 3.0);
  request.pause_viewing(10.0);
  EXPECT_DOUBLE_EQ(request.minimum_rate(), 0.0);  // paused + full: nothing
  request.advance(15.0);
  request.resume_viewing(15.0);
  EXPECT_DOUBLE_EQ(request.minimum_rate(), 3.0);
}

// ------------------------------------------------------- end to end

SimulationConfig interactive_config(std::uint64_t seed) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.zipf_theta = 0.271;
  config.duration = hours(20);
  config.warmup = hours(2);
  config.seed = seed;
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.interactivity.enabled = true;
  config.interactivity.pauses_per_hour = 4.0;
  config.interactivity.mean_pause_duration = 180.0;
  return config;
}

TEST(Interactivity, EngineRunsWithPausesAndStaysContinuous) {
  VodSimulation simulation(interactive_config(51));
  const Metrics& metrics = simulation.run();
  EXPECT_GT(simulation.pauses_started(), 100u);
  // Pausing never starves playback: consumption stops while paused, so the
  // continuity invariant must still hold.
  EXPECT_EQ(simulation.continuity_violations(), 0u);
  EXPECT_LE(metrics.utilization(), 1.0 + 1e-9);
  // Buffers still within bounds.
  for (const Request& request : simulation.requests()) {
    EXPECT_GE(request.buffer_level(), 0.0);
    EXPECT_LE(request.buffer_level(),
              request.buffer_capacity() + fluid_detail::kLevelTolerance);
  }
}

TEST(Interactivity, PausesExtendResidencyAndCostUtilization) {
  // Paused viewers hold their admission slot longer (deadline shifts), so
  // at 100% offered load the system can serve slightly less; it must not
  // gain from pauses.
  SimulationConfig with = interactive_config(52);
  SimulationConfig without = with;
  without.interactivity.enabled = false;
  VodSimulation sim_with(with);
  VodSimulation sim_without(without);
  const double u_with = sim_with.run().utilization();
  const double u_without = sim_without.run().utilization();
  EXPECT_LT(u_with, u_without + 0.02);
  EXPECT_EQ(sim_with.continuity_violations(), 0u);
}

TEST(Interactivity, DisabledMeansNoPauses) {
  SimulationConfig config = interactive_config(53);
  config.interactivity.enabled = false;
  VodSimulation simulation(config);
  simulation.run();
  EXPECT_EQ(simulation.pauses_started(), 0u);
  for (const Request& request : simulation.requests()) {
    EXPECT_FALSE(request.viewing_paused());
  }
}

TEST(Interactivity, WorksTogetherWithMigration) {
  SimulationConfig config = interactive_config(54);
  config.admission.migration.enabled = true;
  config.admission.migration.max_hops_per_request = 1;
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();
  EXPECT_GT(metrics.migration_steps(), 0u);
  EXPECT_GT(simulation.pauses_started(), 0u);
  EXPECT_EQ(simulation.continuity_violations(), 0u);
}

TEST(Interactivity, DeterministicUnderSeed) {
  VodSimulation a(interactive_config(55));
  VodSimulation b(interactive_config(55));
  a.run();
  b.run();
  EXPECT_DOUBLE_EQ(a.metrics().utilization(), b.metrics().utilization());
  EXPECT_EQ(a.pauses_started(), b.pauses_started());
}

}  // namespace
}  // namespace vodsim
