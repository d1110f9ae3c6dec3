// End-to-end global custom-instruction selection (paper Sec. 3.4) with an
// area-budget ablation: measure leaf A-D curves on the ISS, build the
// Montgomery-multiply call graph from profiler data, propagate curves
// bottom-up, and pick configurations under several area constraints.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "kernels/modexp_kernel.h"
#include "mp/prime.h"
#include "select/select.h"
#include "support/random.h"
#include "support/threadpool.h"
#include "tie/characterize.h"

constexpr wsp::support::FlagSpec kFlags[] = {{"--threads", true}};

int main(int argc, char** argv) {
  using namespace wsp;
  const support::FlagValues flags =
      bench::flags_or_exit(argc, argv, kFlags,
                           "[--threads N]\n"
                           "  Measures the mpn routines' A-D curves on the ISS serially and on\n"
                           "  N threads, then selects custom instructions under several area\n"
                           "  budgets.\n");
  const unsigned threads =
      bench::threads_or_exit(flags, argv[0], ThreadPool::hardware_threads());
  bench::header("Global custom-instruction selection under area constraints",
                "paper Sec. 3.4 methodology (design-choice ablation)");

  // --- leaf A-D curves (real ISS measurements, one machine per candidate) ---
  // Measured serially and then across the pool: the ISS is deterministic and
  // every candidate owns its machine, so both sweeps yield identical curves.
  tie::AdMeasureOptions ad_options;
  ad_options.limbs = 16;  // 512-bit (CRT half of RSA-1024)
  const auto candidates = tie::mpn_routine_candidates();

  const auto t_serial = std::chrono::steady_clock::now();
  auto leaf_curves = tie::measure_mpn_adcurves(candidates, ad_options);
  const double serial_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_serial)
          .count();

  ad_options.threads = threads;
  const auto t_par = std::chrono::steady_clock::now();
  const auto leaf_curves_par = tie::measure_mpn_adcurves(candidates, ad_options);
  const double parallel_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_par)
          .count();

  bool identical = leaf_curves.size() == leaf_curves_par.size();
  for (const auto& [name, curve] : leaf_curves) {
    const auto it = leaf_curves_par.find(name);
    identical = identical && it != leaf_curves_par.end() &&
                it->second.points().size() == curve.points().size();
    for (std::size_t i = 0; identical && i < curve.points().size(); ++i) {
      identical = curve.points()[i].area == it->second.points()[i].area &&
                  curve.points()[i].cycles == it->second.points()[i].cycles;
    }
  }
  std::printf("\nA-D characterization of %zu leaf routines:\n",
              leaf_curves.size());
  std::printf("  serial:               %.3f s\n", serial_s);
  std::printf("  parallel (%2u threads): %.3f s  (%.2fx speedup)\n", threads,
              parallel_s, parallel_s > 0 ? serial_s / parallel_s : 0.0);
  std::printf("  curves identical to serial: %s\n", identical ? "yes" : "NO");

  // --- call graph from a real profile ---------------------------------------
  Rng rng(72);
  Mpz mod = random_bits(512, rng);
  if (mod.is_even()) mod = mod + Mpz(1);
  kernels::Machine machine = kernels::make_modexp_machine();
  kernels::IssModexp mx(machine);
  machine.cpu().reset_stats();
  mx.mont_mul_once(random_below(mod, rng), random_below(mod, rng), mod);
  const auto graph =
      select::CallGraph::from_profiler(machine.cpu().profiler(), "mont_mul");
  std::printf("\nprofiled call graph:\n%s", graph.format("mont_mul").c_str());

  // --- selection under a sweep of area budgets -------------------------------
  const auto catalog = tie::default_catalog();
  std::printf("\n%-14s %-12s %-12s %s\n", "area budget", "area used",
              "cycles", "selected instructions");
  for (double budget : {0.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0, 1e9}) {
    const auto result = select::select_instructions(graph, "mont_mul",
                                                    leaf_curves, catalog, budget);
    std::string instrs;
    for (const auto& i : result.chosen.instrs) {
      instrs += (instrs.empty() ? "" : ", ") + i;
    }
    if (instrs.empty()) instrs = "(none — software only)";
    std::printf("%-14.0f %-12.0f %-12.0f %s\n", budget, result.chosen.area,
                result.chosen.cycles, instrs.c_str());
  }
  std::printf("\nLarger budgets buy monotonically faster mont_mul; the "
              "ablation shows where each\nfunctional unit earns its area — "
              "the paper's area-vs-performance trade (Sec. 3.4).\n");
  return 0;
}
