// Sec. 4.3: algorithm design-space exploration.
//
//   paper: 450 candidates evaluated by macro-models in < 4h40m vs. only 6
//   candidates in ~66h of ISS time; macro-model estimation on average 1407x
//   faster than ISS, with 11.8% mean absolute error and correct ranking.
//
// Here: characterize the mpn routines on the ISS, estimate all 450
// configurations of a 1024-bit RSA private operation natively, cross-check
// six ISS-implementable candidates, and report accuracy + the wall-clock
// speedup factor of estimation over simulation.
#include <cstdio>

#include "bench_util.h"
#include "explore/space.h"
#include "macromodel/characterize.h"
#include "support/threadpool.h"

constexpr wsp::support::FlagSpec kFlags[] = {{"--threads", true}};

int main(int argc, char** argv) {
  using namespace wsp;
  const support::FlagValues flags =
      bench::flags_or_exit(argc, argv, kFlags,
                           "[--threads N]\n"
                           "  Characterizes the mpn routines on the ISS, estimates all 450\n"
                           "  RSA-1024 modexp configurations serially and on N threads, and\n"
                           "  checks the ranking against six ISS runs.\n");
  const unsigned threads =
      bench::threads_or_exit(flags, argv[0], ThreadPool::hardware_threads());
  bench::header("Algorithm design-space exploration via performance macro-models",
                "paper Sec. 4.3");

  // Phase 1: one-time characterization on the cycle-accurate ISS, with
  // measured radix-16 models (mpn16 kernels) for the radix axis.
  kernels::Machine machine = kernels::make_modexp_machine();
  kernels::Machine machine16 = kernels::make_mpn16_machine();
  const auto models = macromodel::characterize_mpn_full(machine, machine16);
  std::printf("\nCharacterized macro-models (ISS + least-squares):\n%s",
              models.describe().c_str());

  // Phase 2: native estimation of the full 450-configuration space —
  // serially, then across the thread pool, checking the determinism
  // contract (identical ranking for any thread count).
  Rng rng(51);
  auto workload = explore::make_rsa_workload(1024, rng);
  workload.repetitions = 2;
  const auto serial_report =
      explore::explore_modexp_space(workload, models, all_modexp_configs(), 1);
  const auto report = explore::explore_modexp_space(
      workload, models, all_modexp_configs(), threads);
  std::printf("\nExplored %zu configurations (native, macro-model based):\n",
              report.configs);
  std::printf("  serial:               %.3f s\n", serial_report.wall_seconds);
  std::printf("  parallel (%2u threads): %.3f s  (%.2fx speedup)\n",
              report.threads, report.wall_seconds,
              report.wall_seconds > 0
                  ? serial_report.wall_seconds / report.wall_seconds
                  : 0.0);
  bool identical = serial_report.ranked.size() == report.ranked.size();
  for (std::size_t i = 0; identical && i < report.ranked.size(); ++i) {
    identical = serial_report.ranked[i].config.name() ==
                    report.ranked[i].config.name() &&
                serial_report.ranked[i].estimate.avg_cycles ==
                    report.ranked[i].estimate.avg_cycles;
  }
  std::printf("  ranking identical to serial: %s\n", identical ? "yes" : "NO");
  std::printf("\nTop 5 configurations (1024-bit RSA private op):\n");
  for (std::size_t i = 0; i < 5 && i < report.ranked.size(); ++i) {
    const auto& ce = report.ranked[i];
    std::printf("  %zu. %-55s %12.0f cycles\n", i + 1, ce.config.name().c_str(),
                ce.estimate.avg_cycles);
  }
  std::printf("\nBottom 3 configurations:\n");
  for (std::size_t i = report.ranked.size() - 3; i < report.ranked.size(); ++i) {
    const auto& ce = report.ranked[i];
    std::printf("  %zu. %-55s %12.0f cycles\n", i + 1, ce.config.name().c_str(),
                ce.estimate.avg_cycles);
  }

  // Axis ablations: marginal effect of each design-space dimension.
  std::printf("\nAxis ablation (median estimate with the axis pinned):\n");
  auto median_for = [&](auto pred) {
    std::vector<double> vals;
    for (const auto& ce : report.ranked) {
      if (pred(ce.config)) vals.push_back(ce.estimate.avg_cycles);
    }
    std::sort(vals.begin(), vals.end());
    return vals[vals.size() / 2];
  };
  std::printf("  CRT: none %.3e | textbook %.3e | garner %.3e\n",
              median_for([](const ModexpConfig& c) { return c.crt == CrtMode::kNone; }),
              median_for([](const ModexpConfig& c) { return c.crt == CrtMode::kTextbook; }),
              median_for([](const ModexpConfig& c) { return c.crt == CrtMode::kGarner; }));
  std::printf("  radix: 16-bit %.3e | 32-bit %.3e\n",
              median_for([](const ModexpConfig& c) { return c.radix == Radix::k16; }),
              median_for([](const ModexpConfig& c) { return c.radix == Radix::k32; }));
  std::printf("  mulalgo: div %.3e | barrett %.3e | mont-cios %.3e\n",
              median_for([](const ModexpConfig& c) { return c.mul == MulAlgo::kBasecaseDiv; }),
              median_for([](const ModexpConfig& c) { return c.mul == MulAlgo::kBarrett; }),
              median_for([](const ModexpConfig& c) { return c.mul == MulAlgo::kMontCIOS; }));
  std::printf("  window: w=1 %.3e | w=5 %.3e\n",
              median_for([](const ModexpConfig& c) { return c.window_bits == 1; }),
              median_for([](const ModexpConfig& c) { return c.window_bits == 5; }));

  // Phase 3: cross-validation against the ISS (the paper's six candidates).
  const auto validation = explore::validate_estimates(machine, workload, models);
  std::printf("\nMacro-model estimates vs. cycle-accurate ISS:\n");
  std::printf("  %-18s %14s %14s %8s\n", "candidate", "estimated", "ISS", "error");
  for (const auto& p : validation.points) {
    std::printf("  %-18s %14.0f %14.0f %7.1f%%\n", p.name.c_str(),
                p.estimated_cycles, p.measured_cycles, p.error_pct);
  }
  std::printf("\nmean absolute error: %.1f%%   (paper: 11.8%%)\n",
              validation.mean_abs_error_pct);
  std::printf("estimation wall time: %.3f s; ISS wall time: %.3f s\n",
              validation.estimate_wall_seconds, validation.iss_wall_seconds);
  std::printf("macro-model estimation is %.0fx faster than ISS simulation "
              "(paper: 1407x on a 440 MHz Ultra 10)\n",
              validation.speedup_factor);
  return 0;
}
