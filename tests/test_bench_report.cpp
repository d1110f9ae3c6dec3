// Tests for the machine-readable bench artifact layer (bench/bench_util.h):
// flag parsing, the wsp-bench-v1 JSON schema, and file round-tripping.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "server_section.h"
#include "support/benchdiff.h"
#include "support/json.h"

namespace wsp {
namespace {

char** fake_argv(std::vector<std::string>& storage) {
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (auto& s : storage) ptrs.push_back(s.data());
  return ptrs.data();
}

// A bench binary's flag set: two value flags and two bare ones.
constexpr support::FlagSpec kTestFlags[] = {
    {"--threads", true}, {"--outdir", true}, {"--with-explore", false}, {"--check", false}};

support::FlagValues parse(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  return support::parse_flags(static_cast<int>(args.size()), fake_argv(args), kTestFlags);
}

TEST(BenchFlags, ParseThreadsBothForms) {
  EXPECT_EQ(bench::parse_threads(parse({"--threads", "4"})), 4u);
  EXPECT_EQ(bench::parse_threads(parse({"--threads=8"})), 8u);
  EXPECT_EQ(bench::parse_threads(parse({}), 2), 2u);
  EXPECT_EQ(bench::parse_threads(parse({"--threads", "1024"})), 1024u);
}

TEST(BenchFlags, ParseThreadsRejectsBadValues) {
  // Anything support::parse_count refuses for --threads; the bench binaries
  // exit 2 on these, as wspc does, instead of starting some worker count.
  for (const char* bad : {"0", "-1", "+4", "abc", "4x", "", "1025",
                          "18446744073709551616"}) {
    EXPECT_THROW(bench::parse_threads(parse({"--threads", bad})), std::invalid_argument)
        << "'" << bad << "'";
    EXPECT_THROW(bench::parse_threads(parse({std::string("--threads=") + bad})),
                 std::invalid_argument)
        << "'" << bad << "'";
  }
  EXPECT_THROW(bench::parse_threads(parse({"--threads"})), std::invalid_argument);
}

TEST(BenchFlags, ParseStringFlagBothForms) {
  EXPECT_EQ(bench::flag_or(parse({"--outdir", "/tmp/x"}), "--outdir"), "/tmp/x");
  EXPECT_EQ(bench::flag_or(parse({"--outdir=/tmp/y"}), "--outdir"), "/tmp/y");
  EXPECT_EQ(bench::flag_or(parse({"--outdir", "d", "--outdir=e"}), "--outdir"), "e");
  EXPECT_EQ(bench::flag_or(parse({}), "--outdir", "dflt"), "dflt");
}

TEST(BenchFlags, ParseBoolFlag) {
  const support::FlagValues flags = parse({"--with-explore"});
  EXPECT_TRUE(flags.contains("--with-explore"));
  EXPECT_FALSE(flags.contains("--check"));
  EXPECT_TRUE(parse({"--check", "--help"}).contains("--help"));
  EXPECT_TRUE(parse({"-h"}).contains("-h"));
}

TEST(BenchFlags, ParseFlagsRejectsUnknownAndMalformed) {
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{"--chek"}, {"--check", "--bogus"}, {"stray"}, {"-c"},
        {"--outdir"}, {"--check=yes"}, {"--outdirx=d"}, {"--help=1"}}) {
    EXPECT_THROW(parse(bad), std::invalid_argument) << bad.back();
  }
}

// Runs the bench_report binary with `args` in a fresh, empty directory and
// returns its exit status and the number of files it left there.
struct CliRun {
  int status = -1;
  std::size_t files = 0;
};

CliRun run_bench_report(const std::string& args) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("wsp_bench_report_cli_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string cmd = "cd '" + dir.string() + "' && '" WSP_BENCH_REPORT_BIN "' " +
                          args + " > /dev/null 2>&1";
  const int raw = std::system(cmd.c_str());
  CliRun run;
  if (WIFEXITED(raw)) run.status = WEXITSTATUS(raw);
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir)) ++run.files;
  fs::remove_all(dir);
  return run;
}

// A misspelt --check used to run the whole report, write its artifacts and
// exit 0 without gating anything.
TEST(BenchReportCli, UnknownArgumentsExit2AndWriteNothing) {
  for (const char* args : {"--chek", "--check --bogus", "stray", "--only",
                           "--only nosuch --check", "--with-explore"}) {
    const CliRun run = run_bench_report(args);
    EXPECT_EQ(run.status, 2) << args;
    EXPECT_EQ(run.files, 0u) << args;
  }
}

TEST(BenchReportCli, HelpPrintsUsageAndWritesNothing) {
  for (const char* args : {"--help", "-h", "--check --help"}) {
    const CliRun run = run_bench_report(args);
    EXPECT_EQ(run.status, 0) << args;
    EXPECT_EQ(run.files, 0u) << args;
  }
}

bench::BenchResult sample_result() {
  bench::BenchResult r;
  r.name = "unit";
  r.config["seed"] = "61";
  r.config["variant"] = "base";
  r.cycles["total"] = 123456789.0;
  r.cycles["per_block"] = 421.5;
  r.wall_ns = 987654321;
  r.threads = 2;
  return r;
}

TEST(BenchJson, SchemaFieldsPresentAndTyped) {
  const json::Value doc = bench::to_json(sample_result());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").as_string(), "wsp-bench-v1");
  EXPECT_EQ(doc.at("name").as_string(), "unit");
  ASSERT_TRUE(doc.at("config").is_object());
  EXPECT_EQ(doc.at("config").at("seed").as_string(), "61");
  ASSERT_TRUE(doc.at("cycles").is_object());
  EXPECT_EQ(doc.at("cycles").at("total").as_number(), 123456789.0);
  EXPECT_EQ(doc.at("cycles").at("per_block").as_number(), 421.5);
  EXPECT_EQ(doc.at("wall_ns").as_number(), 987654321.0);
  EXPECT_EQ(doc.at("threads").as_number(), 2.0);
  ASSERT_TRUE(doc.at("git_rev").is_string());
  EXPECT_FALSE(doc.at("git_rev").as_string().empty());
}

TEST(BenchJson, WriteRoundTripsThroughParser) {
  const std::string dir = ::testing::TempDir();
  const std::string path = bench::write_bench_json(sample_result(), dir);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("BENCH_unit.json"), std::string::npos);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  const json::Value doc = json::Value::parse(text);
  EXPECT_EQ(doc.at("schema").as_string(), "wsp-bench-v1");
  // Large integers must serialize exactly (no exponent notation).
  EXPECT_NE(text.find("123456789"), std::string::npos);
  EXPECT_NE(text.find("987654321"), std::string::npos);
  EXPECT_EQ(doc.at("cycles").at("total").as_number(), 123456789.0);
}

TEST(BenchJson, WriteFailsIntoMissingDirectory) {
  EXPECT_EQ(bench::write_bench_json(sample_result(), "/nonexistent-dir-xyz"),
            "");
}

server::RunReport sample_server_report() {
  server::RunReport rep;
  rep.offered = 96;
  rep.admitted = 90;
  rep.completed = 85;
  rep.dropped = 6;
  rep.aborted = 5;
  rep.retried = 23;
  rep.repaired = 4;
  rep.faults_injected = 31;
  rep.shed = 2;
  rep.degrade_enters = 1;
  rep.records = 720;
  rep.wire_bytes = 1234567;
  rep.bytes_digest = 0xDEADBEEF;
  rep.latency = {1.5e6, 3.0e6, 4.5e6, 6.0e6};
  rep.makespan_cycles = 2.5e8;
  rep.throughput_per_gcycle = 360.0;
  rep.peak_virtual_depth = 11;
  rep.peak_sessions = 14;
  rep.mean_service_cycles = 2.1e6;
  rep.platform_cycles_base = 9.9e9;
  rep.platform_cycles_optimized = 3.3e8;
  rep.equivalent_speedup = 30.0;
  // Host-dependent fields: must NOT leak into the cycles map.
  rep.wall_ns = 42;
  rep.backpressure_waits = 7;
  rep.peak_real_depth = 9;
  rep.threads = 8;
  return rep;
}

TEST(BenchServerSchema, MetricsLandUnderPrefixWithExpectedKeys) {
  bench::BenchResult r;
  r.name = "server";
  bench::append_server_metrics(r, "steady/", sample_server_report());

  const json::Value doc = bench::to_json(r);
  const json::Value& cycles = doc.at("cycles");
  ASSERT_TRUE(cycles.is_object());
  // The fields ISSUE.md names explicitly: throughput, latency, drops.
  EXPECT_EQ(cycles.at("steady/throughput_per_gcycle").as_number(), 360.0);
  EXPECT_EQ(cycles.at("steady/latency_p50_cycles").as_number(), 1.5e6);
  EXPECT_EQ(cycles.at("steady/latency_p99_cycles").as_number(), 4.5e6);
  EXPECT_EQ(cycles.at("steady/dropped").as_number(), 6.0);
  // Session accounting and platform-equivalent pricing.
  EXPECT_EQ(cycles.at("steady/offered").as_number(), 96.0);
  EXPECT_EQ(cycles.at("steady/admitted").as_number(), 90.0);
  EXPECT_EQ(cycles.at("steady/wire_bytes").as_number(), 1234567.0);
  EXPECT_EQ(cycles.at("steady/bytes_digest").as_number(),
            static_cast<double>(0xDEADBEEFu));
  EXPECT_EQ(cycles.at("steady/platform_cycles_base").as_number(), 9.9e9);
  EXPECT_EQ(cycles.at("steady/platform_cycles_opt").as_number(), 3.3e8);
  EXPECT_EQ(cycles.at("steady/platform_equiv_speedup").as_number(), 30.0);
  EXPECT_EQ(cycles.at("steady/queue_depth_peak").as_number(), 11.0);
  // Fault/recovery accounting (the chaos section keys, docs/faults.md).
  EXPECT_EQ(cycles.at("steady/completed").as_number(), 85.0);
  EXPECT_EQ(cycles.at("steady/aborted").as_number(), 5.0);
  EXPECT_EQ(cycles.at("steady/retried").as_number(), 23.0);
  EXPECT_EQ(cycles.at("steady/repaired").as_number(), 4.0);
  EXPECT_EQ(cycles.at("steady/faults_injected").as_number(), 31.0);
  EXPECT_EQ(cycles.at("steady/shed").as_number(), 2.0);
  EXPECT_EQ(cycles.at("steady/degrade_enters").as_number(), 1.0);
}

TEST(BenchServerSchema, HostDependentFieldsStayOutOfCycles) {
  bench::BenchResult r;
  r.name = "server";
  bench::append_server_metrics(r, "overload/", sample_server_report());
  // The cycles map is the determinism contract: wall time, backpressure
  // waits, real queue depth and thread count must never appear in it.
  for (const auto& [key, value] : r.cycles) {
    (void)value;
    EXPECT_EQ(key.find("wall"), std::string::npos) << key;
    EXPECT_EQ(key.find("backpressure"), std::string::npos) << key;
    EXPECT_EQ(key.find("real"), std::string::npos) << key;
    EXPECT_EQ(key.find("threads"), std::string::npos) << key;
  }
  EXPECT_EQ(r.cycles.count("overload/dropped"), 1u);
}

TEST(BenchServerSchema, DigestSurvivesJsonRoundTrip) {
  bench::BenchResult r;
  r.name = "server_digest";
  bench::append_server_metrics(r, "x/", sample_server_report());

  const std::string dir = ::testing::TempDir();
  const std::string path = bench::write_bench_json(r, dir);
  ASSERT_FALSE(path.empty());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  // A 32-bit digest is exactly representable as a double, so the value must
  // round-trip bit-for-bit through serialize + parse.
  const json::Value doc = json::Value::parse(text);
  EXPECT_EQ(doc.at("cycles").at("x/bytes_digest").as_number(),
            static_cast<double>(0xDEADBEEFu));
}

// --- the regression gate (support/benchdiff.h, docs/benchmarks.md) ---------

TEST(BenchGate, GlobMatch) {
  EXPECT_TRUE(bench::glob_match("*", "anything"));
  EXPECT_TRUE(bench::glob_match("steady/*", "steady/throughput_per_gcycle"));
  EXPECT_FALSE(bench::glob_match("steady/*", "chaos/leaked"));
  EXPECT_TRUE(bench::glob_match("*/leaked", "chaos/leaked"));
  EXPECT_TRUE(bench::glob_match("*digest*", "steady/bytes_digest"));
  EXPECT_TRUE(bench::glob_match("*_opt", "rc4/cycles_opt"));
  EXPECT_FALSE(bench::glob_match("*_opt", "rc4/cycles_optimized"));
  EXPECT_TRUE(bench::glob_match("exact", "exact"));
  EXPECT_FALSE(bench::glob_match("exact", "exactly"));
  EXPECT_TRUE(bench::glob_match("a*b*c", "a__b__b__c"));  // backtracking
  EXPECT_FALSE(bench::glob_match("a*b*c", "a__c__b"));
}

TEST(BenchGate, DefaultTableClassifiesKeyMetrics) {
  const auto& rules = bench::default_tolerance_table();
  const auto* thr =
      bench::match_rule(rules, "steady/throughput_per_gcycle");
  ASSERT_NE(thr, nullptr);
  EXPECT_EQ(thr->dir, bench::Direction::kHigherBetter);
  const auto* leak = bench::match_rule(rules, "chaos/leaked");
  ASSERT_NE(leak, nullptr);
  EXPECT_EQ(leak->dir, bench::Direction::kExact);
  const auto* p99 = bench::match_rule(rules, "chaos/latency_p99_cycles");
  ASSERT_NE(p99, nullptr);
  EXPECT_EQ(p99->dir, bench::Direction::kLowerBetter);
  // Digests change whenever the workload mix changes — informational only.
  const auto* digest = bench::match_rule(rules, "steady/bytes_digest");
  ASSERT_NE(digest, nullptr);
  EXPECT_EQ(digest->dir, bench::Direction::kInfo);
}

json::Value bench_doc(double throughput, double p99, double leaked) {
  bench::BenchResult r;
  r.name = "server";
  r.cycles["steady/throughput_per_gcycle"] = throughput;
  r.cycles["steady/latency_p99_cycles"] = p99;
  r.cycles["steady/leaked"] = leaked;
  r.cycles["steady/bytes_digest"] = 12345.0;
  return bench::to_json(r);
}

TEST(BenchGate, ThroughputDropBeyondToleranceFails) {
  const json::Value base = bench_doc(400.0, 4.5e6, 0.0);
  // 10% throughput drop against a 5% tolerance: must gate.
  const auto rep = bench::check_bench(base, bench_doc(360.0, 4.5e6, 0.0));
  EXPECT_FALSE(rep.ok());
  ASSERT_EQ(rep.regressions.size(), 1u);
  EXPECT_EQ(rep.regressions[0].key, "steady/throughput_per_gcycle");
  EXPECT_NEAR(rep.regressions[0].delta_pct, -10.0, 1e-9);
  // The report must say so in prose, too.
  const std::string text = bench::format_check_report(rep);
  EXPECT_NE(text.find("throughput_per_gcycle"), std::string::npos);
}

TEST(BenchGate, InToleranceWobblePasses) {
  const json::Value base = bench_doc(400.0, 4.5e6, 0.0);
  // -3% throughput and +8% p99: both inside the 5%/10% tolerances.
  const auto rep = bench::check_bench(base, bench_doc(388.0, 4.86e6, 0.0));
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.regressions.size(), 0u);
  EXPECT_EQ(rep.drifts.size(), 2u);  // still reported as drift
}

TEST(BenchGate, ImprovementsNeverGate) {
  const json::Value base = bench_doc(400.0, 4.5e6, 0.0);
  // +50% throughput, -50% latency: the gate is one-sided.
  const auto rep = bench::check_bench(base, bench_doc(600.0, 2.25e6, 0.0));
  EXPECT_TRUE(rep.ok());
}

TEST(BenchGate, LeakCounterIsExact) {
  const json::Value base = bench_doc(400.0, 4.5e6, 0.0);
  // A single leaked session is a hard failure regardless of tolerance.
  const auto rep = bench::check_bench(base, bench_doc(400.0, 4.5e6, 1.0));
  EXPECT_FALSE(rep.ok());
  ASSERT_EQ(rep.regressions.size(), 1u);
  EXPECT_EQ(rep.regressions[0].key, "steady/leaked");
}

TEST(BenchGate, OverloadThatStopsSheddingIsARegression) {
  // Drops are deterministic for a fixed seed: an overload run that sheds
  // nothing means admission control stopped working.
  bench::BenchResult r;
  r.name = "server";
  r.cycles["overload/dropped"] = 36.0;
  const json::Value base = bench::to_json(r);
  r.cycles["overload/dropped"] = 0.0;
  const auto rep = bench::check_bench(base, bench::to_json(r));
  EXPECT_FALSE(rep.ok());
  ASSERT_EQ(rep.regressions.size(), 1u);
  EXPECT_EQ(rep.regressions[0].key, "overload/dropped");
}

TEST(BenchGate, MissingMetricIsSchemaRegression) {
  const json::Value base = bench_doc(400.0, 4.5e6, 0.0);
  bench::BenchResult r;
  r.name = "server";
  r.cycles["steady/throughput_per_gcycle"] = 400.0;  // p99 + leaked gone
  const auto rep = bench::check_bench(base, bench::to_json(r));
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.missing.size(), 3u);
  EXPECT_EQ(rep.regressions.size(), 0u);
}

TEST(BenchGate, NewMetricsPassButAreReported) {
  bench::BenchResult r;
  r.name = "server";
  r.cycles["steady/throughput_per_gcycle"] = 400.0;
  const json::Value base = bench::to_json(r);
  r.cycles["steady/new_counter"] = 7.0;
  const auto rep = bench::check_bench(base, bench::to_json(r));
  EXPECT_TRUE(rep.ok());
  ASSERT_EQ(rep.added.size(), 1u);
  EXPECT_EQ(rep.added[0], "steady/new_counter");
  EXPECT_EQ(rep.compared, 1u);
}

TEST(BenchGate, DigestChangesAreInfoNotFailure) {
  const json::Value base = bench_doc(400.0, 4.5e6, 0.0);
  bench::BenchResult r;
  r.name = "server";
  r.cycles["steady/throughput_per_gcycle"] = 400.0;
  r.cycles["steady/latency_p99_cycles"] = 4.5e6;
  r.cycles["steady/leaked"] = 0.0;
  r.cycles["steady/bytes_digest"] = 99999.0;  // totally different digest
  const auto rep = bench::check_bench(base, bench::to_json(r));
  EXPECT_TRUE(rep.ok());
}

TEST(BenchGate, RejectsNonBenchDocuments) {
  EXPECT_THROW(bench::check_bench(json::Value::parse("{\"x\": 1}"),
                                  bench_doc(1.0, 1.0, 0.0)),
               std::runtime_error);
  EXPECT_THROW(bench::load_json_file("/nonexistent-dir-xyz/BENCH_x.json"),
               std::runtime_error);
}

// Blessing a baseline must be byte-deterministic: writing the same result
// twice produces identical files, so re-blessing an unchanged tree never
// dirties the committed baselines.
TEST(BenchGate, BlessOutputIsByteDeterministic) {
  bench::BenchResult r = sample_result();
  r.name = "bless_determinism";
  const std::string dir = ::testing::TempDir();
  auto slurp = [](const std::string& p) {
    std::FILE* f = std::fopen(p.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    return text;
  };
  const std::string p1 = bench::write_bench_json(r, dir);
  ASSERT_FALSE(p1.empty());
  const std::string first = slurp(p1);
  const std::string p2 = bench::write_bench_json(r, dir);
  const std::string second = slurp(p2);
  std::remove(p1.c_str());
  EXPECT_EQ(p1, p2);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace wsp
