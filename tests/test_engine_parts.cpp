// Tier-1 tests for the two units Engine::run is built from (docs/server.md
// §2): the VirtualModel alone must reproduce every virtual-timeline field
// of a full Engine::run — the proof that admission, pricing, degrade mode
// and latency never depend on the data plane — and the DataPlane must
// drain in-flight sessions before it tears anything down, however its
// owner unwinds.  The DataPlane test is also a designated ASan/TSan
// workload (tools/ci/sanitize.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/compile.h"
#include "server/data_plane.h"
#include "server/engine.h"
#include "server/virtual_model.h"
#include "server_section.h"

namespace wsp {
namespace {

/// Drives TrafficGenerator + VirtualModel alone, exactly as Engine::run's
/// loop does but with no DataPlane behind it.
server::RunReport model_only(const server::EngineConfig& config,
                             const server::TrafficScenario& scenario) {
  server::VirtualModel model(config, scenario);
  server::TrafficGenerator gen(scenario, model.phase_means(), config.shards);
  while (const auto arrival = gen.next()) {
    const auto admission = model.offer(*arrival);
    gen.on_outcome(*arrival,
                   admission ? admission->completion : arrival->at_cycles,
                   !admission);
  }
  server::RunReport rep;
  rep.shards.resize(config.shards);
  model.finish(rep);
  return rep;
}

/// Runs `scenario` both ways and asserts exact equality on every field the
/// virtual model owns.  Returns the full run's report.
server::RunReport expect_model_matches_engine(
    server::EngineConfig config, const server::TrafficScenario& scenario,
    const std::string& what) {
  SCOPED_TRACE(what);
  config.threads = 2;
  server::Engine engine(config);
  const server::RunReport full = engine.run(scenario);
  const server::RunReport model = model_only(engine.config(), scenario);
  EXPECT_EQ(model.offered, full.offered);
  EXPECT_EQ(model.admitted, full.admitted);
  EXPECT_EQ(model.dropped, full.dropped);
  EXPECT_EQ(model.shed, full.shed);
  EXPECT_EQ(model.degrade_enters, full.degrade_enters);
  EXPECT_EQ(model.latency.p50, full.latency.p50);
  EXPECT_EQ(model.latency.p90, full.latency.p90);
  EXPECT_EQ(model.latency.p99, full.latency.p99);
  EXPECT_EQ(model.latency.max, full.latency.max);
  EXPECT_EQ(model.makespan_cycles, full.makespan_cycles);
  EXPECT_EQ(model.peak_sessions, full.peak_sessions);
  EXPECT_EQ(model.peak_virtual_depth, full.peak_virtual_depth);
  EXPECT_EQ(model.mean_service_cycles, full.mean_service_cycles);
  EXPECT_EQ(model.platform_cycles_base, full.platform_cycles_base);
  EXPECT_EQ(model.platform_cycles_optimized, full.platform_cycles_optimized);
  EXPECT_EQ(model.equivalent_speedup, full.equivalent_speedup);
  EXPECT_EQ(model.shards.size(), full.shards.size());
  for (std::size_t s = 0; s < std::min(model.shards.size(), full.shards.size());
       ++s) {
    EXPECT_EQ(model.shards[s].admitted, full.shards[s].admitted) << s;
    EXPECT_EQ(model.shards[s].dropped, full.shards[s].dropped) << s;
    EXPECT_EQ(model.shards[s].peak_virtual_depth,
              full.shards[s].peak_virtual_depth)
        << s;
  }
  EXPECT_EQ(full.completed + full.aborted, full.admitted);
  return full;
}

server::EngineConfig bench_config() {
  server::EngineConfig cfg;
  cfg.shards = 4;
  cfg.queue_capacity = 64;
  return cfg;
}

TEST(VirtualModel, MatchesEngineRunOnEveryExampleScenario) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(WSP_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".wsp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 6u);
  for (const auto& file : files) {
    server::TrafficScenario scenario =
        scenario::compile_file(file.string()).scenario;
    // Disarm crash_storm's scheduled kill: the comparison needs a report.
    for (server::TrafficPhase& ph : scenario.phases) {
      if (ph.faults) ph.faults->crash_at_cycles = 0.0;
    }
    expect_model_matches_engine(bench_config(), scenario,
                                file.filename().string());
  }
}

TEST(VirtualModel, MatchesEngineRunOnBenchScenarios) {
  const server::EngineConfig cfg = bench_config();
  expect_model_matches_engine(cfg, bench::steady_scenario(71, 96), "steady");

  server::EngineConfig over = cfg;
  over.queue_capacity = 16;
  const auto overload = expect_model_matches_engine(
      over, bench::overload_scenario(72, 96), "overload");
  EXPECT_GT(overload.dropped, 0u) << "overload must exercise the drop path";

  expect_model_matches_engine(cfg, bench::closed_scenario(73, 48, 8),
                              "closed");

  server::EngineConfig chaos = cfg;
  chaos.faults = bench::chaos_fault_config();
  chaos.degrade_depth = 3 * cfg.shards;
  const auto chaotic = expect_model_matches_engine(
      chaos, bench::chaos_scenario(74, 96), "chaos");
  EXPECT_GT(chaotic.faults_injected, 0u);
  EXPECT_GT(chaotic.degrade_enters, 0u) << "chaos must exercise degrade mode";

  expect_model_matches_engine(bench::scale_config(2),
                              bench::scale_scenario(71, 4000), "scale");
}

TEST(DataPlane, DestroyedMidHandshakeDrainsBeforeTeardown) {
  // An exception on the run() thread right after admitting full-handshake
  // sessions (real 512-bit RSA, 32 KiB of 3DES records each): unwinding
  // destroys the data plane while its workers are still inside
  // Session::handshake.  The destructor must drain them before the table,
  // the event ledger and the server key go away.
  server::EngineConfig cfg;
  cfg.threads = 4;
  cfg.shards = 2;
  server::TrafficScenario scenario;
  scenario.seed = 811;
  scenario.phases.resize(1);
  scenario.phases[0].sessions = 8;
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        {
          server::DataPlane plane(cfg, scenario);
          for (std::uint64_t id = 0; id < 8; ++id) {
            server::Admission a;
            a.shard = static_cast<unsigned>(id % cfg.shards);
            a.session.id = id;
            a.session.cipher = ssl::Cipher::kTripleDesCbc;
            a.session.transaction_bytes = 32768;
            a.session.seed = 0x5EED0000 + id;
            a.batch = 4;
            plane.admit(a);
          }
          throw std::runtime_error("unwind with sessions in flight");
        },
        std::runtime_error);
  }
}

TEST(DataPlane, FullHandshakeWithoutServerKeyIsRejectedBeforePush) {
  // A resume-only scenario generates no server key, so a full-handshake
  // admission has nothing to sign with: typed refusal on the caller's
  // thread, never a null dereference on a worker.
  server::EngineConfig cfg;
  cfg.shards = 1;
  server::TrafficScenario scenario = bench::scale_scenario(5, 8);
  server::DataPlane plane(cfg, scenario);
  server::Admission a;
  a.session.transaction_bytes = 256;
  EXPECT_THROW(plane.admit(a), std::logic_error);
  a.resume = true;
  plane.admit(a);
  server::RunReport rep;
  rep.shards.resize(1);
  plane.fold(rep);
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.aborted, 0u);
}

}  // namespace
}  // namespace wsp
