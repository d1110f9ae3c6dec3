// The .wsp scenario compiler (src/scenario, docs/scenarios.md): golden
// diagnostics (stable Ennn codes + line:column), lowering correctness, and
// the equivalence contract — a one-phase .wsp program must reproduce the
// hand-built one-phase program it spells out (the bench scenarios) bit for
// bit.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/compile.h"
#include "server/engine.h"
#include "server/record.h"
#include "server_section.h"

namespace wsp {
namespace {

using scenario::Code;
using scenario::ScenarioError;

/// Compiles `source`, requiring failure; returns the caught error.
ScenarioError compile_error(const std::string& source) {
  try {
    scenario::compile(source, "test.wsp");
  } catch (const ScenarioError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a ScenarioError for:\n" << source;
  return ScenarioError(scenario::Diagnostic{}, "test.wsp");
}

struct GoldenCase {
  const char* source;
  Code code;
  int line;
  int column;
};

TEST(ScenarioDiagnostics, GoldenErrorSuite) {
  // One golden case per stable error code: the code AND the line:column
  // anchor are part of the compiler's contract (docs/scenarios.md §4).
  const GoldenCase cases[] = {
      // Lexical.
      {"scenario {\n  @seed 1\n}\n", Code::kInvalidChar, 2, 3},
      {"scenario \"unterminated\n{ }\n", Code::kUnterminatedString, 1, 10},
      {"scenario {\n  load 3..5\n}\n", Code::kMalformedNumber, 2, 8},
      // Syntactic.
      {"scenario {\n  { }\n}\n", Code::kUnexpectedToken, 2, 3},
      {"scenario {\n", Code::kUnexpectedEnd, 2, 1},
      {"phase \"p\" { }\n", Code::kExpectedScenario, 1, 1},
      {"scenario { phase \"p\" { sessions 1 } } }\n", Code::kTrailingInput, 1,
       39},
      // Semantic.
      {"scenario {\n  bogus 3\n  phase \"p\" { sessions 1 }\n}\n",
       Code::kUnknownKey, 2, 3},
      {"scenario {\n  seed 1\n  seed 2\n  phase \"p\" { sessions 1 }\n}\n",
       Code::kDuplicateKey, 3, 3},
      {"scenario {\n  phase \"p\" {\n    sessions 1\n    mix { des3: 1 }\n"
       "  }\n}\n",
       Code::kUnknownCipher, 4, 11},
      {"scenario {\n  seed { }\n  phase \"p\" { sessions 1 }\n}\n",
       Code::kTypeMismatch, 2, 3},
      {"scenario {\n  phase \"p\" {\n    sessions 1\n    resume 1.5\n  }\n}\n",
       Code::kOutOfRange, 4, 12},
      {"scenario {\n  seed 9\n}\n", Code::kNoPhases, 1, 1},
      {"scenario {\n  phase \"p\" {\n    load 0.5\n  }\n}\n",
       Code::kMissingKey, 2, 3},
      {"scenario {\n  phase \"p\" {\n    sessions 1\n    mix { }\n  }\n}\n",
       Code::kEmptyMix, 4, 5},
      {"scenario {\n  phase \"p\" {\n    sessions 1\n    arrivals sideways\n"
       "  }\n}\n",
       Code::kUnknownEnum, 4, 14},
      {"scenario {\n  phase \"p\" {\n    sessions 1\n"
       "    mix { rc4: 1, rc4: 2 }\n  }\n}\n",
       Code::kDuplicateEntry, 4, 19},
  };
  for (const GoldenCase& c : cases) {
    const ScenarioError err = compile_error(c.source);
    EXPECT_EQ(err.code(), c.code) << c.source;
    EXPECT_EQ(err.diagnostic().loc.line, c.line) << c.source;
    EXPECT_EQ(err.diagnostic().loc.column, c.column) << c.source;
  }
}

TEST(ScenarioDiagnostics, RenderCarriesFileLineColumnCodeAndCaret) {
  const ScenarioError err = compile_error(
      "scenario {\n  phase \"p\" {\n    sessions 1\n    resume 1.5\n  }\n}\n");
  const std::string what = err.what();
  EXPECT_NE(what.find("test.wsp:4:12: error E205"), std::string::npos) << what;
  EXPECT_NE(what.find("resume 1.5"), std::string::npos) << what;  // excerpt
  EXPECT_NE(what.find('^'), std::string::npos) << what;           // caret
}

TEST(ScenarioCompile, LowersPhasesWithDefaultsInheritance) {
  const auto compiled = scenario::compile(
      "# comment\n"
      "scenario \"demo\" {\n"
      "  seed 99\n"
      "  record_bytes 512\n"
      "  defaults {\n"
      "    arrivals open\n"
      "    load 0.5\n"
      "    mix { aes128: 2, rc4: 1 }\n"
      "  }\n"
      "  phase \"a\" { sessions 10 }\n"
      "  phase \"b\" {\n"
      "    sessions 20, arrivals closed, users 4, think 1000\n"
      "    resume on\n"
      "    sizes { 2048: 3, 8192: 1 }\n"
      "    faults { wire_flip_rate 0.1, record_retry_budget 2 }\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(compiled.name, "demo");
  const server::TrafficScenario& sc = compiled.scenario;
  ASSERT_EQ(sc.phases.size(), 2u);
  EXPECT_EQ(sc.seed, 99u);
  EXPECT_EQ(sc.record_bytes, 512u);
  EXPECT_EQ(sc.total_sessions(), 30u);

  const server::TrafficPhase& a = sc.phases[0];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(a.sessions, 10u);
  EXPECT_EQ(a.model, server::ArrivalModel::kOpenLoop);
  EXPECT_DOUBLE_EQ(a.offered_load, 0.5);  // from defaults
  ASSERT_EQ(a.cipher_mix.size(), 2u);     // from defaults
  EXPECT_EQ(a.cipher_mix[0].cipher, ssl::Cipher::kAes128Cbc);
  EXPECT_EQ(a.cipher_mix[0].weight, 2u);
  EXPECT_EQ(a.size_mix.size(), 6u);  // built-in Fig. 8 grid
  EXPECT_FALSE(a.faults.has_value());
  EXPECT_DOUBLE_EQ(a.resume_fraction, 0.0);

  const server::TrafficPhase& b = sc.phases[1];
  EXPECT_EQ(b.model, server::ArrivalModel::kClosedLoop);
  EXPECT_EQ(b.users, 4u);
  EXPECT_DOUBLE_EQ(b.think_cycles, 1000.0);
  EXPECT_DOUBLE_EQ(b.resume_fraction, 1.0);  // `resume on`
  ASSERT_EQ(b.size_mix.size(), 2u);
  EXPECT_EQ(b.size_mix[0].bytes, 2048u);
  EXPECT_EQ(b.size_mix[0].weight, 3u);
  ASSERT_TRUE(b.faults.has_value());
  EXPECT_DOUBLE_EQ(b.faults->wire_flip_rate, 0.1);
  EXPECT_EQ(b.faults->record_retry_budget, 2u);

  // The compiler's output must always pass the engine's validator.
  EXPECT_NO_THROW(sc.validate());
}

TEST(ScenarioCompile, UnnamedPhasesAndOptionalPunctuation) {
  // Colons and commas are sugar; phases without labels get stable names.
  const auto compiled = scenario::compile(
      "scenario{phase{sessions:5}phase{sessions:7,resume:0.5}}");
  ASSERT_EQ(compiled.scenario.phases.size(), 2u);
  EXPECT_EQ(compiled.scenario.phases[0].name, "phase0");
  EXPECT_EQ(compiled.scenario.phases[1].name, "phase1");
  EXPECT_DOUBLE_EQ(compiled.scenario.phases[1].resume_fraction, 0.5);
}

TEST(ScenarioCompile, FaultsBlockReplacesInheritedOverlay) {
  const auto compiled = scenario::compile(
      "scenario {\n"
      "  defaults { faults { wire_flip_rate 0.2 } }\n"
      "  phase \"stormy\" { sessions 1 }\n"
      "  phase \"calm\" { sessions 1, faults { } }\n"
      "}\n");
  ASSERT_TRUE(compiled.scenario.phases[0].faults.has_value());
  EXPECT_DOUBLE_EQ(compiled.scenario.phases[0].faults->wire_flip_rate, 0.2);
  // An empty faults block resets to the benign default config.
  ASSERT_TRUE(compiled.scenario.phases[1].faults.has_value());
  EXPECT_DOUBLE_EQ(compiled.scenario.phases[1].faults->wire_flip_rate, 0.0);
}

// --- Equivalence with hand-built programs (the compiler's contract) ---------

server::RunReport run_with(const server::TrafficScenario& sc,
                           unsigned threads = 2) {
  server::EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = 4;
  server::Engine engine(cfg);
  return engine.run(sc);
}

TEST(ScenarioEquivalence, OnePhaseOpenLoopMatchesFlatFig8Bitwise) {
  // The acceptance gate: the Fig. 8 grid spelled as a .wsp (the bench's
  // steady.wsp) produces a report IDENTICAL to the hand-built program —
  // same Rng draws, same IEEE mean-service arithmetic, same everything.
  const auto compiled = bench::load_bench_scenario("steady").program;
  EXPECT_EQ(server::compare_reports(run_with(compiled.scenario),
                                    run_with(bench::steady_oracle())),
            std::vector<std::string>{});
}

TEST(ScenarioEquivalence, OnePhaseClosedLoopMatchesFlatBitwise) {
  const auto compiled = scenario::compile(
      "scenario {\n"
      "  seed 72\n"
      "  record_bytes 1024\n"
      "  phase { sessions 32, arrivals closed, users 8, think 6000000 }\n"
      "}\n");
  server::TrafficScenario built;
  built.seed = 72;
  server::TrafficPhase ph;
  ph.sessions = 32;
  ph.model = server::ArrivalModel::kClosedLoop;
  ph.users = 8;
  ph.think_cycles = 6e6;
  built.phases = {ph};
  EXPECT_EQ(
      server::compare_reports(run_with(compiled.scenario), run_with(built)),
      std::vector<std::string>{});
}

TEST(ScenarioEquivalence, FaultOverlayMatchesEngineFaultConfigBitwise) {
  // The bench scenarios carry their fault mix as a phase overlay; an
  // engine-wide FaultConfig can carry the same mix.  Both key one FaultPlan
  // off the scenario seed, so the two forms must agree bit for bit.
  // Every run records events: the resumed run below carries its event
  // stream, and compare_reports checks it.
  bench::BenchScenario b = bench::load_bench_scenario("chaos");
  b.config.record_events = true;
  const server::TrafficScenario& overlay = b.program.scenario;
  ASSERT_EQ(overlay.seed, 74u);
  ASSERT_EQ(overlay.phases.size(), 1u);
  ASSERT_TRUE(overlay.phases[0].faults.has_value());
  server::TrafficScenario plain = overlay;
  plain.phases[0].faults.reset();
  server::EngineConfig engine_wide = b.config;
  engine_wide.faults = *overlay.phases[0].faults;

  const server::RunReport ref = server::Engine(engine_wide).run(plain);
  ASSERT_GT(ref.faults_injected, 0u);
  EXPECT_EQ(
      server::compare_reports(ref, server::Engine(b.config).run(overlay)),
      std::vector<std::string>{});

  // A crash armed engine-wide over the overlay's rates, then crash ->
  // resume_run, still lands on the engine-wide reference.
  server::EngineConfig crashed = b.config;
  crashed.checkpoint_every = ref.makespan_cycles / 7.0;
  crashed.faults.crash_at_cycles = ref.makespan_cycles * 0.6;
  server::RunRecorder recorder(crashed, overlay);
  EXPECT_THROW(
      {
        server::Engine engine(recorder.engine_config());
        recorder.finish(engine.run(overlay));
      },
      server::CrashFault);
  recorder.crash();
  ASSERT_GT(recorder.checkpoints(), 0u);
  const server::ReplayResult resumed = server::resume_run(
      server::scan_trace_for_resume(recorder.bytes()), 3);
  EXPECT_EQ(server::compare_reports(ref, resumed.report),
            std::vector<std::string>{});
}

TEST(ScenarioEquivalence, ResumeOnMatchesFlatResumeSessionsBitwise) {
  // `resume on` (fraction exactly 1.0) must lower to resume_fraction 1.0
  // exactly: resumed pricing, abbreviated handshakes, no keygen, and
  // crucially NO per-arrival resume coin consuming Rng draws.
  const auto compiled = scenario::compile(
      "scenario {\n"
      "  seed 73\n"
      "  record_bytes 256\n"
      "  phase {\n"
      "    sessions 48, arrivals open, load 1.2, resume on\n"
      "    mix { rc4: 1 }\n"
      "    sizes { 256: 1, 512: 1 }\n"
      "  }\n"
      "}\n");
  server::TrafficScenario built;
  built.seed = 73;
  built.record_bytes = 256;
  server::TrafficPhase ph;
  ph.sessions = 48;
  ph.model = server::ArrivalModel::kOpenLoop;
  ph.offered_load = 1.2;
  ph.resume_fraction = 1.0;
  ph.cipher_mix = {{ssl::Cipher::kRc4, 1}};
  ph.size_mix = {{256, 1}, {512, 1}};
  built.phases = {ph};
  EXPECT_EQ(
      server::compare_reports(run_with(compiled.scenario), run_with(built)),
      std::vector<std::string>{});
}

TEST(ScenarioEquivalence, WeightedMixEqualsDuplicatedGridEntries) {
  // A weight-2 entry must consume the Rng exactly like the same entry
  // listed twice at unit weight: pick_weighted draws below(total weight)
  // either way, and the cumulative walk maps the same raw draw to the same
  // cipher/size.
  const auto compiled = scenario::compile(
      "scenario {\n"
      "  seed 81\n"
      "  record_bytes 1024\n"
      "  phase {\n"
      "    sessions 40, arrivals open, load 0.7\n"
      "    mix { 3des: 2, rc4: 1 }\n"
      "    sizes { 1024: 1, 4096: 2 }\n"
      "  }\n"
      "}\n");
  server::TrafficScenario built;
  built.seed = 81;
  server::TrafficPhase ph;
  ph.sessions = 40;
  ph.model = server::ArrivalModel::kOpenLoop;
  ph.offered_load = 0.7;
  ph.cipher_mix = {{ssl::Cipher::kTripleDesCbc, 1},
                   {ssl::Cipher::kTripleDesCbc, 1},
                   {ssl::Cipher::kRc4, 1}};
  ph.size_mix = {{1024, 1}, {4096, 1}, {4096, 1}};
  built.phases = {ph};
  EXPECT_EQ(
      server::compare_reports(run_with(compiled.scenario), run_with(built)),
      std::vector<std::string>{});
}

TEST(ScenarioPrograms, MultiPhaseRunsAllPhasesAndKeepsLeakInvariant) {
  const auto compiled = scenario::compile(
      "scenario {\n"
      "  seed 91\n"
      "  phase \"calm\"  { sessions 16, load 0.4 }\n"
      "  phase \"spike\" { sessions 48, load 3.0, resume 0.75 }\n"
      "  phase \"storm\" { sessions 16, load 0.8,\n"
      "                   faults { handshake_failure_rate 0.3,\n"
      "                            handshake_retry_budget 2 } }\n"
      "}\n");
  const auto rep = run_with(compiled.scenario);
  EXPECT_EQ(rep.offered, 80u);
  EXPECT_EQ(rep.admitted, rep.completed + rep.aborted + 0u);
  EXPECT_GT(rep.faults_injected, 0u);  // the storm overlay must bite
}

TEST(ScenarioPrograms, PhaseFaultOverlayConfinedToItsPhase) {
  // Identical programs except one phase's overlay: the benign phases of
  // both runs see identical traffic, so total faults differ only by the
  // overlaid phase's contribution.
  const char* benign =
      "scenario { seed 14\n"
      "  phase \"a\" { sessions 24, load 0.5 }\n"
      "  phase \"b\" { sessions 24, load 0.5 }\n"
      "}\n";
  const char* overlaid =
      "scenario { seed 14\n"
      "  phase \"a\" { sessions 24, load 0.5 }\n"
      "  phase \"b\" { sessions 24, load 0.5,\n"
      "               faults { abort_rate 0.5 } }\n"
      "}\n";
  const auto rep_benign = run_with(scenario::compile(benign).scenario);
  const auto rep_overlaid = run_with(scenario::compile(overlaid).scenario);
  EXPECT_EQ(rep_benign.faults_injected, 0u);
  EXPECT_GT(rep_overlaid.aborted, 0u);
  // The overlay must not leak sessions either way.
  EXPECT_EQ(rep_overlaid.admitted,
            rep_overlaid.completed + rep_overlaid.aborted);
}

TEST(ScenarioCompile, CompileFileErrorsNameTheFile) {
  EXPECT_THROW(scenario::compile_file("/nonexistent/nope.wsp"),
               std::runtime_error);
}

}  // namespace
}  // namespace wsp
