// W4 design_space (README.md): paper phases (i)-(ii).  Set-up characterizes
// the mpn routines on the XR32 ISS; each timed repetition then estimates all
// 450 modular-exponentiation configurations natively from the macro-models
// and cross-validates the estimator against the ISS.  The server does no
// work here.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "bench.h"
#include "explore/space.h"
#include "kernels/modexp_kernel.h"
#include "kernels/mpn_kernels.h"
#include "macromodel/characterize.h"
#include "mp/modexp.h"

namespace perfbench {
namespace {

using namespace wsp;

constexpr std::size_t kModulusBits = 512;
constexpr int kRepetitions = 2;  ///< private-key operations per estimate

/// Ranking of the default seed, pinned from a run of this benchmark: the
/// top configuration and an FNV-1a digest over every configuration name in
/// ranked order.
constexpr const char* kPinnedTop = "mont-cios/w4/crt-garner/radix32/cache-full";
constexpr std::uint64_t kPinnedRankingDigest = 0xffe15fa3fb933f0bull;

std::uint64_t ranking_digest(const explore::ExplorationReport& rep) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& ce : rep.ranked) {
    for (const char ch : ce.config.name()) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ULL;
    }
    h ^= 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The characterized platform.  Machines are not movable (the CPU refers
/// to its program), so a Platform is only ever built in place.
struct Platform {
  kernels::Machine machine32 = kernels::make_modexp_machine();
  kernels::Machine machine16 = kernels::make_mpn16_machine();
  macromodel::MacroModelSet models;
};

void check_exploration(Checks& checks, const explore::ExplorationReport& rep,
                       std::uint64_t seed) {
  bool finite = rep.ranked.size() == 450;
  for (const auto& ce : rep.ranked) {
    finite = finite && std::isfinite(ce.estimate.avg_cycles) &&
             ce.estimate.avg_cycles > 0.0;
  }
  checks.expect(finite, "450 configurations, every estimate finite and > 0");
  if (seed == kDefaultSeed) {
    // The observed values are in the messages, so that re-pinning after an
    // intended change of outputs only means reading a failed run at seed 42.
    const std::string top = rep.ranked.empty() ? "none" : rep.ranked.front().config.name();
    checks.expect(top == kPinnedTop, "top configuration " + top +
                                         " equals the pinned " + kPinnedTop);
    char digest[80];
    std::snprintf(digest, sizeof digest, "ranking digest 0x%016llx equals the pinned 0x%016llx",
                  static_cast<unsigned long long>(ranking_digest(rep)),
                  static_cast<unsigned long long>(kPinnedRankingDigest));
    checks.expect(ranking_digest(rep) == kPinnedRankingDigest, digest);
  }
}

bool same_validation(const explore::ValidationReport& a,
                     const explore::ValidationReport& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].estimated_cycles != b.points[i].estimated_cycles ||
        a.points[i].measured_cycles != b.points[i].measured_cycles) {
      return false;
    }
  }
  return true;
}

void traced_run(const Options& opt, Platform& p,
                const explore::RsaWorkload& workload, Checks& checks,
                std::map<std::string, double>& v) {
  Ledger ledger(true);
  const auto count_events = [](const explore::ExplorationReport& rep) {
    double n = 0.0;
    for (const auto& ce : rep.ranked) n += static_cast<double>(ce.estimate.events);
    return n;
  };

  // Characterization on fresh machines, counters read around the call.
  Platform fresh;
  double characterize_ns = 0.0;
  {
    Scope s(ledger, "macromodel.characterize");
    const auto t0 = Clock::now();
    fresh.models = macromodel::characterize_mpn_full(fresh.machine32, fresh.machine16);
    characterize_ns = ns_since(t0);
  }
  checks.expect(fresh.models.serialize() == p.models.serialize(),
                "characterization repeats exactly");
  const macromodel::CharacterizeOptions copt;
  // characterize_mpn_full samples 11 radix-32 and 10 radix-16 routines,
  // reps_per_size stimuli at each size point.
  v["macromodel.points"] =
      21.0 * static_cast<double>(copt.sizes.size() * copt.reps_per_size);
  v["macromodel.characterize_ns"] = characterize_ns;

  // Estimation at one thread, so per-config time is not divided by cores.
  double explore_ns = 0.0;
  explore::ExplorationReport rep;
  {
    Scope s(ledger, "explore.explore_modexp_space");
    const auto t0 = Clock::now();
    rep = explore::explore_modexp_space(workload, p.models, all_modexp_configs(), 1);
    explore_ns = ns_since(t0);
  }
  check_exploration(checks, rep, opt.seed);
  checks.expect(ranking_digest(rep) ==
                    ranking_digest(explore::explore_modexp_space(
                        workload, p.models, all_modexp_configs(), opt.threads)),
                "ranking identical at 1 and " + std::to_string(opt.threads) +
                    " threads");
  v["explore.estimate.ns_per_config"] = explore_ns / 450.0;
  v["explore.hook_events"] = count_events(rep);

  // The same modular exponentiations without the cost hook: the mp layer's
  // share of estimation.  Every configuration must compute the same value.
  double modexp_ns = 0.0;
  double ops = 0.0;
  {
    Scope s(ledger, "mp.modexp");
    ModexpEngine reference_engine{ModexpConfig{}};
    const Mpz want = reference_engine.powm(workload.c, workload.d, workload.n);
    bool all_equal = true;
    const auto t0 = Clock::now();
    for (const ModexpConfig& cfg : all_modexp_configs()) {
      ModexpEngine engine(cfg);
      for (int i = 0; i < workload.repetitions; ++i) {
        all_equal = all_equal && engine.powm_crt(workload.c, workload.d, workload.key) == want;
        ops += 1.0;
      }
    }
    modexp_ns = ns_since(t0);
    checks.expect(all_equal, "every configuration computes the same modexp");
  }
  v["mp.modexp.ops"] = ops;
  v["mp.modexp.ns_per_op"] = modexp_ns / ops;

  // ISS validation, counters read around the call.
  sim::Cpu& cpu = p.machine32.cpu();
  const std::uint64_t i0 = cpu.instret(), c0 = cpu.cycles();
  explore::ValidationReport val;
  {
    Scope s(ledger, "explore.validate_estimates");
    val = explore::validate_estimates(p.machine32, workload, p.models);
  }
  const double instret = static_cast<double>(cpu.instret() - i0);
  v["sim.cpu.instret"] = instret;
  v["sim.cpu.cycles"] = static_cast<double>(cpu.cycles() - c0);
  v["sim.cpu.host_ns_per_instr"] = val.iss_wall_seconds * 1e9 / instret;
  v["kernels.call.count"] = static_cast<double>(val.points.size());
  v["kernels.call.busy_ns"] = val.iss_wall_seconds * 1e9;
  v["explore.validate.iss_ns"] = val.iss_wall_seconds * 1e9;
  v["explore.validate.estimate_ns"] = val.estimate_wall_seconds * 1e9;

  // Cache behaviour: one validation candidate (Montgomery CIOS, 4-bit
  // window) on a machine with the I/D cache models switched on.
  double cache_ns = 0.0;
  {
    Scope s(ledger, "sim.cache_model");
    const auto t0 = Clock::now();
    sim::CpuConfig cc;
    cc.model_caches = true;
    kernels::Machine cached = kernels::make_modexp_machine({}, cc);
    kernels::IssModexp iss(cached);
    (void)iss.powm_mont(workload.c, workload.d, workload.n, 4);
    const sim::Cache* ic = cached.cpu().icache();
    const sim::Cache* dc = cached.cpu().dcache();
    auto ratio = [](const sim::Cache* c) {
      const double all = static_cast<double>(c->hits() + c->misses());
      return all > 0 ? static_cast<double>(c->misses()) / all : 0.0;
    };
    v["sim.cache.icache_miss_ratio"] = ic ? ratio(ic) : 0.0;
    v["sim.cache.dcache_miss_ratio"] = dc ? ratio(dc) : 0.0;
    cache_ns = ns_since(t0);
  }

  // Tracing overhead: the same estimation sweep without spans.
  const auto t0 = Clock::now();
  (void)explore::explore_modexp_space(workload, p.models, all_modexp_configs(), 1);
  v["bench.trace_overhead_ns"] = explore_ns - ns_since(t0);

  const double iss_ns = val.iss_wall_seconds * 1e9;
  std::map<std::string, double> layers = {
      {"mp", modexp_ns},
      {"macromodel", characterize_ns},
      {"explore", (explore_ns - modexp_ns) + val.estimate_wall_seconds * 1e9},
      {"sim", iss_ns + cache_ns},
  };
  double total = 0.0;
  for (const auto& [name, ns] : layers) total += std::max(0.0, ns);
  for (const auto& [name, ns] : layers) {
    v["share." + name] = total > 0 ? std::max(0.0, ns) / total : 0.0;
  }
  if (!opt.trace_out.empty()) {
    checks.expect(ledger.write_chrome_json(opt.trace_out, 1),
                  "trace written to " + opt.trace_out);
  }
}

}  // namespace

Result run_design_space(const Options& opt) {
  Checks checks;
  Result r;

  // Set-up: build the ISS machines and characterize the mpn routines.  The
  // timed set-ups follow 0.2 s of untimed ones (see run_server_workload).
  auto set_up = [](std::unique_ptr<Platform>& into) {
    into.reset();
    const auto t0 = Clock::now();
    into = std::make_unique<Platform>();
    into->models =
        macromodel::characterize_mpn_full(into->machine32, into->machine16);
    return seconds_since(t0);
  };
  std::unique_ptr<Platform> platform;
  for (const auto t0 = Clock::now(); seconds_since(t0) < 0.2;) set_up(platform);
  const std::string models_text = platform->models.serialize();
  std::vector<double> setup_t;
  auto sample_set_up = [&] {
    std::unique_ptr<Platform> fresh;
    setup_t.push_back(set_up(fresh));
    checks.expect(fresh->models.serialize() == models_text,
                  "characterization repeats exactly");
  };
  constexpr int kSetupReps = 5;
  for (int i = 0; i < kSetupReps; ++i) sample_set_up();
  Platform& p = *platform;

  Rng rng(opt.seed);
  explore::RsaWorkload workload = explore::make_rsa_workload(kModulusBits, rng);
  workload.repetitions = kRepetitions;

  if (opt.trace) {
    std::map<std::string, double> v;
    traced_run(opt, p, workload, checks, v);
    r.attempted = 3 * 450;
    r.metrics = per_layer_metrics(v);
    r.failed = checks.failed();
    r.correct = checks.failed() == 0;
    return r;
  }

  // The ISS validation is checked and sampled on every kValidateEvery-th
  // repetition only: it is not gated, and on every repetition it took about
  // half of the run, time not spent sampling the exploration rate.
  constexpr int kValidateEvery = 4;
  // Explores all configurations; with `rates` set, also samples the rate.
  auto explore = [&](std::vector<double>* rates) {
    const auto t0 = Clock::now();
    explore::ExplorationReport rep = explore::explore_modexp_space(
        workload, p.models, all_modexp_configs(), opt.threads);
    if (rates != nullptr) rates->push_back(450.0 / seconds_since(t0));
    check_exploration(checks, rep, opt.seed);
    return rep;
  };
  // Validates on the ISS; with `minstr` set, also samples the ISS rate.
  auto validate = [&](std::vector<double>* minstr) {
    const std::uint64_t i0 = p.machine32.cpu().instret();
    explore::ValidationReport val =
        explore::validate_estimates(p.machine32, workload, p.models);
    if (minstr != nullptr) {
      minstr->push_back(static_cast<double>(p.machine32.cpu().instret() - i0) /
                        val.iss_wall_seconds / 1e6);
    }
    return val;
  };

  // Untimed warm-up; its ranking and validation are the references every
  // timed repetition must repeat exactly.
  const explore::ExplorationReport first = explore(nullptr);
  const explore::ValidationReport first_validation = validate(nullptr);
  std::vector<double> cps, mips;
  std::uint64_t attempted = 450;
  const auto t_measure = Clock::now();
  constexpr int kMinReps = kValidateEvery;  // at least one timed validation
  for (int rep = 0; cps.size() < kMinReps || seconds_since(t_measure) < opt.seconds;
       ++rep) {
    const explore::ExplorationReport e = explore(&cps);
    attempted += 450;
    checks.expect(ranking_digest(e) == ranking_digest(first), "ranking repeats exactly");
    // More set-up samples between repetitions (see run_server_workload).
    sample_set_up();
    if (rep % kValidateEvery == kValidateEvery - 1) {
      checks.expect(same_validation(validate(&mips), first_validation),
                    "ISS validation repeats exactly");
    }
  }

  const double setup_s = median(setup_t);
  const double best = first.ranked.front().estimate.avg_cycles;
  // The speedup the exploration finds: slowest over fastest configuration.
  const double spread = first.ranked.back().estimate.avg_cycles / best;
  const double rss = peak_rss_mib();
  r.attempted = attempted;
  r.failed = checks.failed();
  r.correct = checks.failed() == 0;
  r.report = {
      {"explore_configs_per_s", median(cps), "configs/s"},
      {"iss_minstr_per_s", median(mips), "Minstr/s"},
      {"estimate_error_pct", first_validation.mean_abs_error_pct, "%"},
      {"best_modexp_cycles", best, "cycles"},
      {"explored_speedup", spread, "x"},
      {"failed_ratio",
       static_cast<double>(checks.failed()) / static_cast<double>(attempted),
       "fraction"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", rss, "MiB"},
      {"repetitions", static_cast<double>(cps.size()), "count"},
  };
  r.metrics = {
      {"throughput_per_s", median(cps), "1/s"},
      {"platform_speedup", spread, "x"},
      {"success_ratio", 1.0 - static_cast<double>(checks.failed()) /
                                  static_cast<double>(attempted),
       "fraction"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", rss, "MiB"},
  };
  return r;
}

}  // namespace perfbench
