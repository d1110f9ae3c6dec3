// Recording helper for the tests: a run recorded through the one trace
// writer (server::RunRecorder), as `wspc run --record` and bench_report do.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/engine.h"
#include "server/record.h"

namespace wsp::test {

/// Runs `scenario` through a server::RunRecorder (in memory, and to `path`
/// when one is given) and returns the complete trace.
inline std::vector<std::uint8_t> record_trace(
    const server::EngineConfig& config, const server::TrafficScenario& scenario,
    std::string source = {}, const std::string& path = {}) {
  server::RunRecorder recorder(config, scenario, std::move(source), path);
  server::Engine engine(recorder.engine_config());
  recorder.finish(engine.run(scenario));
  return recorder.bytes();
}

/// The complete trace of one recorded run, read back strictly.
inline server::RunRecord record(const server::EngineConfig& config,
                                const server::TrafficScenario& scenario,
                                std::string source = {}) {
  return server::decode_run_record(
      record_trace(config, scenario, std::move(source)));
}

/// A plain replay: re-runs a complete record from its inputs and verifies
/// the outcome against it.
inline server::ReplayResult replay(const server::RunRecord& rec,
                                   unsigned threads) {
  return server::resume_run({.record = rec, .complete = true}, threads);
}

}  // namespace wsp::test
