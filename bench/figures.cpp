#include "figures.h"

#include <algorithm>
#include <cstdarg>
#include <set>
#include <stdexcept>
#include <vector>

#include "explore/space.h"
#include "kernels/aes_kernel.h"
#include "kernels/des_kernel.h"
#include "kernels/modexp_kernel.h"
#include "kernels/mpn_kernels.h"
#include "kernels/sha1_kernel.h"
#include "macromodel/characterize.h"
#include "mp/prime.h"
#include "select/callgraph.h"
#include "ssl/workload.h"
#include "support/random.h"
#include "tie/adcurve.h"

namespace wsp::bench {
namespace {

/// printf onto the end of `out`.
__attribute__((format(printf, 2, 3))) void appendf(std::string& out,
                                                   const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, again);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(again);
}

void append_curve(std::string& out, const char* name, const tie::ADCurve& curve) {
  appendf(out, "\nA-D curve for %s:\n", name);
  appendf(out, "   area (grids)    cycles    instructions\n");
  for (const auto& p : curve.points()) {
    appendf(out, "   %10.0f   %8.0f    {", p.area, p.cycles);
    bool first = true;
    for (const auto& i : p.instrs) {
      appendf(out, "%s%s", first ? "" : ", ", i.c_str());
      first = false;
    }
    appendf(out, "}\n");
  }
}

}  // namespace

// --- Fig. 1: the security processing gap -----------------------------------
//
// The security-processing requirement is derived from the measured baseline
// cost of an SSL-protected stream (3DES + HMAC-SHA1) on the simulated core,
// times each wireless generation's data rate.  Processor MIPS follow the
// classic ~2x-per-node trend around the paper's 188 MHz 0.18um design point.
Figure fig1() {
  WSP_TRACE_SPAN("bench", "fig1");
  Figure f;
  BenchResult& r = f.result;
  r.name = "fig1";
  r.config = {{"seed", "61"}, {"bytes", "1024"}, {"cipher", "3DES-ECB"}};
  const auto t0 = Clock::now();
  Rng rng(61);
  kernels::Machine m = kernels::make_des_machine(false);
  kernels::DesKernel k(m, false);
  k.set_3des_keys(rng.next_u64(), rng.next_u64(), rng.next_u64());
  std::uint64_t cycles = 0;
  const auto data = rng.bytes(1024);
  k.encrypt_ecb_3des(data, &cycles);
  const double cipher_cpb = static_cast<double>(cycles) / 1024.0;
  const double hash_cpb = ssl::misc_cost_defaults().hash_cycles_per_byte;
  const double stream_cpb = cipher_cpb + hash_cpb;
  r.cycles["des3_base_1kb"] = static_cast<double>(cycles);
  r.cycles["des3_base_cpb"] = cipher_cpb;
  r.cycles["stream_cpb"] = stream_cpb;
  r.wall_ns = ns_since(t0);

  std::string& t = f.table;
  t = header_text("The security processing gap", "paper Fig. 1");
  appendf(t, "\nmeasured baseline stream protection: 3DES %.0f + HMAC-SHA1 %.0f "
             "= %.0f cycles/byte\n",
          cipher_cpb, hash_cpb, stream_cpb);
  struct Generation {
    const char* wireless;
    double mbps;
    const char* node;
    double cpu_mips;
  };
  // CPU MIPS: single-issue embedded core trend, 2x per node, anchored at
  // the paper's 188 MHz 0.18um Xtensa-class design (~188 MIPS).
  const Generation gens[] = {
      {"2G    (14.4 kbps)", 0.0144, "0.35u", 47},
      {"2.5G  (384 kbps) ", 0.384, "0.25u", 94},
      {"3G    (2 Mbps)   ", 2.0, "0.18u", 188},
      {"3G+   (10 Mbps)  ", 10.0, "0.13u", 376},
      {"WLAN  (55 Mbps)  ", 55.0, "0.10u", 752},
  };
  appendf(t, "\n%-22s %-8s %16s %14s %8s\n", "wireless technology", "node",
          "required MIPS", "CPU MIPS", "gap");
  for (const auto& g : gens) {
    // bytes/s * cycles/byte -> cycles/s -> MIPS (1 cycle ~ 1 instruction on
    // the single-issue baseline).
    const double required = g.mbps * 1e6 / 8.0 * stream_cpb / 1e6;
    appendf(t, "%-22s %-8s %16.1f %14.0f %7.1fx\n", g.wireless, g.node,
            required, g.cpu_mips, required / g.cpu_mips);
  }
  appendf(t, "\nThe requirement grows ~10x per generation while processor "
             "performance grows ~2x per node:\nthe widening gap motivates "
             "the platform (paper Fig. 1).\n");
  return f;
}

// --- Table 1 + the Fig. 5 inset: per-algorithm base vs. optimized ----------
//
//   paper: DES 476.8 -> 15.4 cyc/B (31.0X); 3DES 1426.4 -> 42.1 (33.9X);
//          AES 1526.2 -> 87.5 (17.4X); RSA enc 10.8X; RSA dec 66.4X.
//
// The absolute numbers differ (different core/compiler); the shape — large
// double-digit private-key speedups, RSA-decrypt speedup much larger than
// RSA-encrypt — is the reproduction target (see EXPERIMENTS.md).
Figure table1() {
  WSP_TRACE_SPAN("bench", "table1");
  Figure f;
  BenchResult& r = f.result;
  r.name = "table1";
  r.config = {{"sym_bytes", "1024"}, {"rsa_bits", "1024"},
              {"seeds", "11/12/13"}};
  const auto t0 = Clock::now();
  constexpr double kSymBytes = 1024.0;

  // DES / 3DES: 1 KiB of seed-11 data; 3DES draws fresh keys per platform.
  for (bool triple : {false, true}) {
    Rng rng(11);
    const auto data = rng.bytes(1024);
    for (bool tie : {false, true}) {
      kernels::Machine m = kernels::make_des_machine(tie);
      kernels::DesKernel k(m, tie);
      std::uint64_t cycles = 0;
      if (triple) {
        k.set_3des_keys(rng.next_u64(), rng.next_u64(), rng.next_u64());
        k.encrypt_ecb_3des(data, &cycles);
      } else {
        k.set_key(0x0123456789abcdefull);
        k.encrypt_ecb(data, &cycles);
      }
      r.cycles[std::string(triple ? "des3" : "des") +
               (tie ? "_opt" : "_base")] = static_cast<double>(cycles);
    }
  }
  {  // AES
    Rng rng(12);
    const auto data = rng.bytes(1024);
    const auto key = rng.bytes(16);
    for (auto variant : {kernels::AesKernelVariant::kBase,
                         kernels::AesKernelVariant::kTiePartial}) {
      kernels::Machine m = kernels::make_aes_machine(variant);
      kernels::AesKernel k(m, variant);
      k.set_key(key);
      std::uint64_t cycles = 0;
      k.encrypt_ecb(data, &cycles);
      r.cycles[variant == kernels::AesKernelVariant::kBase ? "aes_base"
                                                           : "aes_opt"] =
          static_cast<double>(cycles);
    }
  }

  // RSA-1024 processing rates.
  Rng rng(13);
  const auto key = rsa::generate_key(1024, rng);
  const Mpz msg = random_below(key.n, rng);
  kernels::Machine base_m = kernels::make_modexp_machine();
  kernels::Machine opt_m =
      kernels::make_modexp_machine(kernels::MpnTieConfig{8, 8});
  kernels::IssModexp base_mx(base_m), opt_mx(opt_m);
  // Encryption: short public exponent (65537).
  const auto enc_base = base_mx.powm_base(msg, key.e, key.n);
  const auto enc_opt = opt_mx.powm_mont(msg, key.e, key.n, 2);
  // Decryption: full private exponent; the optimized platform additionally
  // uses the explored algorithm (Garner CRT + 5-bit windows + Montgomery).
  const auto dec_base = base_mx.powm_base(enc_base.result, key.d, key.n);
  const auto dec_opt = opt_mx.rsa_crt(enc_base.result, key, 5);
  if (!(dec_base.result == dec_opt.result) ||
      !(enc_base.result == enc_opt.result)) {
    throw std::runtime_error("table1: base/optimized RSA results disagree");
  }
  r.cycles["rsa_enc_base"] = static_cast<double>(enc_base.cycles);
  r.cycles["rsa_enc_opt"] = static_cast<double>(enc_opt.cycles);
  r.cycles["rsa_dec_base"] = static_cast<double>(dec_base.cycles);
  r.cycles["rsa_dec_opt"] = static_cast<double>(dec_opt.cycles);
  // Ablation: the tuned algorithm alone on the base hardware.
  const auto dec_algo = base_mx.rsa_crt(enc_base.result, key, 5);
  r.wall_ns = ns_since(t0);

  std::string& t = f.table;
  t = header_text(
      "Security-algorithm speedups (base XR32 vs custom-instruction platform)",
      "paper Table 1 and the RSA processing-rate table in Fig. 5");
  appendf(t, "\nSecurity algorithm   Orig. perf.     Optimized perf.   Speedup   (paper)\n");
  appendf(t, "                     (cycle/byte)    (cycle/byte)\n");
  const struct {
    const char* label;
    const char* key;
    const char* paper;
  } sym_rows[] = {{"DES enc./dec.   ", "des", "31.0X"},
                  {"3DES enc./dec.  ", "des3", "33.9X"},
                  {"AES enc./dec.   ", "aes", "17.4X"}};
  for (const auto& row : sym_rows) {
    const double base = r.cycles.at(std::string(row.key) + "_base") / kSymBytes;
    const double opt = r.cycles.at(std::string(row.key) + "_opt") / kSymBytes;
    appendf(t, "%s     %8.1f        %8.1f          %5.1fX    (%s)\n", row.label,
            base, opt, base / opt, row.paper);
  }
  const double mhz = 188.0;
  auto rate = [&](std::uint64_t cycles) {
    // 1024-bit operands: bits per operation over seconds per operation.
    return 1024.0 * mhz * 1e6 / static_cast<double>(cycles);
  };
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return static_cast<double>(num) / static_cast<double>(den);
  };
  appendf(t, "\nRSA-1024 processing rates @ %.0f MHz (bits/s):\n", mhz);
  appendf(t, "                     Orig.           Final             Speedup   (paper)\n");
  appendf(t, "RSA enc.             %11.3e     %11.3e       %5.1fX    (10.8X)\n",
          rate(enc_base.cycles), rate(enc_opt.cycles),
          ratio(enc_base.cycles, enc_opt.cycles));
  appendf(t, "RSA dec.             %11.3e     %11.3e       %5.1fX    (66.4X)\n",
          rate(dec_base.cycles), rate(dec_opt.cycles),
          ratio(dec_base.cycles, dec_opt.cycles));
  appendf(t, "\nRSA decryption speedup decomposition (ablation):\n");
  appendf(t, "  tuned algorithm on base HW (CRT+window+Montgomery): %5.1fX\n",
          ratio(dec_base.cycles, dec_algo.cycles));
  appendf(t, "  custom instructions on top (add_8 + mac_8):          %5.1fX\n",
          ratio(dec_algo.cycles, dec_opt.cycles));
  return f;
}

// --- Fig. 4: weighted call graph of an optimized modexp --------------------
//
// Profiling a real run on the cycle-accurate ISS gives call counts on the
// edges and per-invocation local cycles on the nodes.
Figure fig4() {
  WSP_TRACE_SPAN("bench", "fig4");
  Figure f;
  BenchResult& r = f.result;
  r.name = "fig4";
  r.config = {{"seed", "41"}, {"rsa_bits", "512"}, {"window", "4"}};
  const auto t0 = Clock::now();
  Rng rng(41);
  const auto key = rsa::generate_key(512, rng);
  const Mpz base = random_below(key.n, rng);
  kernels::Machine machine = kernels::make_modexp_machine();
  kernels::IssModexp mx(machine);
  machine.cpu().reset_stats();
  const auto res = mx.powm_mont(base, key.d, key.n, 4);
  const auto& profiler = machine.cpu().profiler();
  r.cycles["workload_total"] = static_cast<double>(res.cycles);
  for (const auto& [name, stats] : profiler.functions()) {
    r.cycles["calls/" + name] = static_cast<double>(stats.calls);
    r.cycles["self/" + name] = static_cast<double>(stats.self_cycles);
  }
  r.wall_ns = ns_since(t0);

  std::string& t = f.table;
  t = header_text("Weighted call graph of optimized modular exponentiation",
                  "paper Fig. 4");
  appendf(t, "\nworkload: 512-bit Montgomery modexp (4-bit windows), %llu cycles\n",
          static_cast<unsigned long long>(res.cycles));
  appendf(t, "\nEdges (caller -> callee x calls):\n%s",
          profiler.format_call_graph().c_str());
  appendf(t, "\nPer-function profile:\n");
  appendf(t, "  %-18s %10s %14s %14s\n", "function", "calls", "self cycles",
          "total cycles");
  for (const auto& [name, stats] : profiler.functions()) {
    appendf(t, "  %-18s %10llu %14llu %14llu\n", name.c_str(),
            static_cast<unsigned long long>(stats.calls),
            static_cast<unsigned long long>(stats.self_cycles),
            static_cast<unsigned long long>(stats.total_cycles));
  }
  const auto graph = select::CallGraph::from_profiler(profiler, "mont_mul");
  appendf(t, "\nCall tree rooted at mont_mul (per-invocation weights):\n%s",
          graph.format("mont_mul").c_str());
  appendf(t, "\npaper Fig. 4 shows the same structure: the exponentiation "
             "driver fanning out\ninto mpz/mpn leaf routines with edge "
             "weights (e.g. decrypt -> mpz_mul x4).\n");
  return f;
}

// --- Fig. 5: measured A-D curves and their composite root ------------------
//
// Each point is a real ISS measurement of the routine (n = 32 limbs, the
// 1024-bit operand size) under a different custom-instruction allocation;
// areas come from the tie gate-area model.  The composite curve combines
// the children per Eq. (1) with sharing + dominance, then Pareto-prunes —
// the paper's P1/P2/P3 pruning discussion.
Figure fig5() {
  WSP_TRACE_SPAN("bench", "fig5");
  Figure f;
  BenchResult& r = f.result;
  r.name = "fig5";
  r.config = {{"seeds", "31/32"}, {"limbs", "32"}};
  const auto t0 = Clock::now();
  const std::size_t n = 32;  // 1024-bit operands
  const auto catalog = tie::default_catalog();
  auto instrs_for = [](const char* op, int width) {
    std::set<std::string> s;
    if (width) s = {"ur_load", "ur_store", op + std::to_string(width)};
    return s;
  };
  tie::ADCurve add_curve;
  {
    Rng rng(31);
    std::vector<std::uint32_t> a(n), b(n), out;
    for (auto& x : a) x = rng.next_u32();
    for (auto& x : b) x = rng.next_u32();
    for (int width : {0, 2, 4, 8, 16}) {
      kernels::Machine m =
          kernels::make_mpn_machine(kernels::MpnTieConfig{width, 0});
      const auto res = kernels::run_add_n(m, out, a, b);
      r.cycles["add_n/w" + std::to_string(width)] =
          static_cast<double>(res.cycles);
      const auto s = instrs_for("add_", width);
      add_curve.add({catalog.set_area(s), static_cast<double>(res.cycles), s});
    }
  }
  tie::ADCurve mul_curve;
  {
    Rng rng(32);
    std::vector<std::uint32_t> a(n);
    for (auto& x : a) x = rng.next_u32();
    for (int width : {0, 1, 2, 4}) {
      kernels::Machine m =
          kernels::make_mpn_machine(kernels::MpnTieConfig{0, width});
      std::vector<std::uint32_t> out(n, 0x5a5a5a5a);
      const auto res = kernels::run_addmul_1(m, out, a, 0x9e3779b9u);
      r.cycles["addmul_1/w" + std::to_string(width)] =
          static_cast<double>(res.cycles);
      const auto s = instrs_for("mac_", width);
      mul_curve.add({catalog.set_area(s), static_cast<double>(res.cycles), s});
    }
  }
  // Fig. 5(c): a parent calling mpn_add_n twice and mpn_addmul_1 once per
  // invocation, with 10 local cycles (the paper's illustration).
  tie::ADCurve::CombineStats stats;
  tie::ADCurve root = tie::ADCurve::combine(
      10.0, {{2.0, &add_curve}, {1.0, &mul_curve}}, catalog, &stats);
  const tie::ADCurve unpruned = root;
  root.pareto_prune();
  r.wall_ns = ns_since(t0);

  std::string& t = f.table;
  t = header_text("A-D curves for mpn_add_n / mpn_addmul_1 and their combination",
                  "paper Fig. 5(a), 5(b), 5(c)");
  append_curve(t, "mpn_add_n (n=32; paper base point: 202 cycles)", add_curve);
  append_curve(t, "mpn_addmul_1 (n=32)", mul_curve);
  append_curve(t, "root (local 10 cycles; calls: 2 x add_n, 1 x addmul_1)",
               unpruned);
  appendf(t, "\nCartesian points: %zu, after sharing+dominance: %zu, after "
             "Pareto pruning at the root: %zu\n",
          stats.cartesian_points, unpruned.points().size(), root.points().size());
  append_curve(t, "root (Pareto-pruned)", root);
  return f;
}

// --- Fig. 6: design-space combination collapse -----------------------------
//
// The Cartesian product of the paper's example (5 mpn_add_n points x 5
// mpn_addmul_1 points whose entries also use adders) collapses under
// instruction sharing and dominance reduction (paper: 25 -> 9 entries).
Figure fig6() {
  WSP_TRACE_SPAN("bench", "fig6");
  Figure f;
  BenchResult& r = f.result;
  r.name = "fig6";
  r.config = {{"example", "paper-fig6"}};
  const auto t0 = Clock::now();
  const auto catalog = tie::default_catalog();
  // mpn_add_n: original + add_2/4/8/16 (paper Fig. 6 row labels).
  tie::ADCurve add_curve;
  add_curve.add({0, 202, {}});
  for (int k : {2, 4, 8, 16}) {
    const std::set<std::string> s = {"ur_load", "ur_store",
                                     "add_" + std::to_string(k)};
    add_curve.add({catalog.set_area(s), 202.0 / k + 30, s});
  }
  // mpn_addmul_1: original + mac_1 with increasing adder support
  // (paper Fig. 6 column labels: mul_1, add_2 mul_1, add_4 mul_1, ...).
  tie::ADCurve mul_curve;
  mul_curve.add({0, 650, {}});
  int adder = 0;
  for (double cyc : {420.0, 330.0, 260.0, 210.0}) {
    std::set<std::string> s = {"ur_load", "ur_store", "mac_1"};
    if (adder) s.insert("add_" + std::to_string(adder));
    mul_curve.add({catalog.set_area(s), cyc, s});
    adder = adder == 0 ? 2 : adder * 2;
  }

  std::string& t = f.table;
  t = header_text("Combining the design spaces of two A-D curves", "paper Fig. 6");
  appendf(t, "\nRaw Cartesian product: %zu x %zu = %zu design points\n",
          add_curve.points().size(), mul_curve.points().size(),
          add_curve.points().size() * mul_curve.points().size());
  // The grid the way Fig. 6 draws it, each entry's dominance-reduced union.
  appendf(t, "\nGrid of reduced instruction unions (rows: add_n points; "
             "columns: addmul_1 points):\n");
  std::set<std::set<std::string>> distinct;
  for (const auto& pa : add_curve.points()) {
    for (const auto& pm : mul_curve.points()) {
      std::set<std::string> u = pa.instrs;
      u.insert(pm.instrs.begin(), pm.instrs.end());
      u = catalog.reduce(u);
      u.erase("ur_load");  // the paper ignores shared load/store instructions
      u.erase("ur_store");
      distinct.insert(u);
      std::string label;
      for (const auto& i : u) label += (label.empty() ? "" : "+") + i;
      if (label.empty()) label = "(none)";
      appendf(t, "  %-22s", label.c_str());
    }
    appendf(t, "\n");
  }
  appendf(t, "\nDistinct design points after sharing + dominance: %zu "
             "(paper: 25 -> 9)\n",
          distinct.size());

  tie::ADCurve::CombineStats stats;
  tie::ADCurve root =
      tie::ADCurve::combine(0.0, {{1.0, &add_curve}, {1.0, &mul_curve}},
                            catalog, &stats);
  r.cycles["cartesian_points"] = static_cast<double>(stats.cartesian_points);
  r.cycles["reduced_points"] = static_cast<double>(stats.reduced_points);
  root.pareto_prune();
  r.cycles["pareto_points"] = static_cast<double>(root.points().size());
  r.wall_ns = ns_since(t0);
  appendf(t, "combine(): cartesian=%zu reduced=%zu\n", stats.cartesian_points,
          stats.reduced_points);
  appendf(t, "after Pareto pruning at the root: %zu points\n",
          root.points().size());
  return f;
}

// --- Fig. 8: SSL transaction speedups --------------------------------------
//
//   paper: ~21.8X for small (handshake-dominated) transactions, falling to
//   3.05X for large (bulk-dominated) transactions, because the MAC and
//   protocol "misc" work is not accelerated.
//
// Component costs are measured on the ISS (3DES record cipher, RSA-1024
// handshake); hashing/framing costs use the documented defaults in
// ssl/workload.h.  server::calibrated_costs() bakes these RSA and 3DES
// numbers in as constants (test_figures keeps the two equal).
Figure fig8() {
  WSP_TRACE_SPAN("bench", "fig8");
  Figure f;
  BenchResult& r = f.result;
  r.name = "fig8";
  r.config = {{"seed", "21"}, {"rsa_bits", "1024"}, {"record_cipher", "3DES-CBC"}};
  const auto t0 = Clock::now();
  Rng rng(21);
  const auto key = rsa::generate_key(1024, rng);
  const Mpz ct = random_below(key.n, rng);

  ssl::PlatformCosts base = ssl::misc_cost_defaults();
  ssl::PlatformCosts opt = ssl::misc_cost_defaults();  // misc not accelerated
  {
    kernels::Machine m = kernels::make_modexp_machine();
    kernels::IssModexp mx(m);
    base.rsa_private_cycles =
        static_cast<double>(mx.powm_base(ct, key.d, key.n).cycles);
    base.rsa_public_cycles =
        static_cast<double>(mx.powm_base(ct, key.e, key.n).cycles);
  }
  {
    kernels::Machine m =
        kernels::make_modexp_machine(kernels::MpnTieConfig{8, 8});
    kernels::IssModexp mx(m);
    opt.rsa_private_cycles = static_cast<double>(mx.rsa_crt(ct, key, 5).cycles);
    opt.rsa_public_cycles =
        static_cast<double>(mx.powm_mont(ct, key.e, key.n, 2).cycles);
  }
  {
    const auto data = rng.bytes(1024);
    for (bool tie : {false, true}) {
      kernels::Machine m = kernels::make_des_machine(tie);
      kernels::DesKernel k(m, tie);
      k.set_3des_keys(rng.next_u64(), rng.next_u64(), rng.next_u64());
      std::uint64_t cycles = 0;
      k.encrypt_ecb_3des(data, &cycles);
      (tie ? opt : base).symmetric_cycles_per_byte =
          static_cast<double>(cycles) / static_cast<double>(data.size());
    }
  }
  std::uint64_t sha_cycles = 0;
  {
    kernels::Machine m = kernels::make_sha1_machine();
    kernels::Sha1Kernel sha(m);
    sha.hash(rng.bytes(4096), &sha_cycles);
  }
  r.cycles["rsa_private_base"] = base.rsa_private_cycles;
  r.cycles["rsa_private_opt"] = opt.rsa_private_cycles;
  r.cycles["rsa_public_base"] = base.rsa_public_cycles;
  r.cycles["rsa_public_opt"] = opt.rsa_public_cycles;
  r.cycles["sym_cpb_base"] = base.symmetric_cycles_per_byte;
  r.cycles["sym_cpb_opt"] = opt.symmetric_cycles_per_byte;
  const auto rows =
      ssl::ssl_speedup_table(base, opt, {1024, 2048, 4096, 8192, 16384, 32768});
  for (const auto& row : rows) {
    if (row.bytes == 1024 || row.bytes == 4096 || row.bytes == 32768) {
      r.cycles["speedup_" + std::to_string(row.bytes)] = row.speedup;
    }
  }
  r.wall_ns = ns_since(t0);

  std::string& t = f.table;
  t = header_text("SSL transaction speedups vs. transaction size", "paper Fig. 8");
  appendf(t, "\nMeasured components (cycles):\n");
  appendf(t, "  RSA-1024 private op : base %12.0f   opt %12.0f\n",
          base.rsa_private_cycles, opt.rsa_private_cycles);
  appendf(t, "  RSA-1024 public op  : base %12.0f   opt %12.0f\n",
          base.rsa_public_cycles, opt.rsa_public_cycles);
  appendf(t, "  3DES (per byte)     : base %12.1f   opt %12.1f\n",
          base.symmetric_cycles_per_byte, opt.symmetric_cycles_per_byte);
  appendf(t, "  SHA-1 kernel        : measured %.1f cycles/byte on the core\n",
          static_cast<double>(sha_cycles) / 4096.0);
  appendf(t, "  misc model (per byte): %.1f hash + %.1f framing/copying\n"
             "    (calibrated to the paper's Fig. 8 Misc share — the full\n"
             "    SSLv3 stack double-hashes and copies every byte; see\n"
             "    ssl/workload.h)\n",
          base.hash_cycles_per_byte, base.misc_cycles_per_byte);
  appendf(t, "\n%s", ssl::format_speedup_table(rows).c_str());
  appendf(t, "\npaper: 1KB -> ~21.8X (public-key dominated), 32KB -> 3.05X\n"
             "(unaccelerated misc/MAC work caps the large-transfer speedup)\n");
  return f;
}

// --- Sec. 4.3: algorithm design-space exploration --------------------------
//
//   paper: 450 candidates evaluated by macro-models in < 4h40m vs. only 6
//   candidates in ~66h of ISS time; macro-model estimation on average 1407x
//   faster than ISS, with 11.8% mean absolute error and correct ranking.
//
// Here: characterize the mpn routines on the ISS, estimate all 450
// configurations of a 1024-bit RSA private operation natively, cross-check
// the ISS-implementable candidates, and report accuracy and the wall-clock
// ratio of simulation over estimation (iss_over_estimate: host wall time,
// so informational only).
Figure sec43_explore(unsigned threads) {
  WSP_TRACE_SPAN("bench", "sec43_explore");
  Figure f;
  BenchResult& r = f.result;
  r.name = "sec43_explore";
  r.threads = threads;
  r.config = {{"seed", "51"}, {"rsa_bits", "1024"}, {"repetitions", "2"}};
  const auto t0 = Clock::now();
  // Phase 1: one-time characterization on the cycle-accurate ISS, with
  // measured radix-16 models (mpn16 kernels) for the radix axis.
  kernels::Machine machine = kernels::make_modexp_machine();
  kernels::Machine machine16 = kernels::make_mpn16_machine();
  const auto models = macromodel::characterize_mpn_full(machine, machine16);
  // Phase 2: native estimation of the full space on one thread and on
  // `threads`; the determinism contract says the rankings are identical.
  Rng rng(51);
  auto workload = explore::make_rsa_workload(1024, rng);
  workload.repetitions = 2;
  const auto serial =
      explore::explore_modexp_space(workload, models, all_modexp_configs(), 1);
  const auto report = explore::explore_modexp_space(
      workload, models, all_modexp_configs(), threads);
  bool identical = serial.ranked.size() == report.ranked.size();
  for (std::size_t i = 0; identical && i < report.ranked.size(); ++i) {
    identical = serial.ranked[i].config.name() == report.ranked[i].config.name() &&
                serial.ranked[i].estimate.avg_cycles ==
                    report.ranked[i].estimate.avg_cycles;
  }
  // Phase 3: cross-validation against the ISS (the paper's six candidates).
  const auto validation = explore::validate_estimates(machine, workload, models);
  r.cycles["configs"] = static_cast<double>(report.configs);
  r.cycles["best_avg_cycles"] = report.ranked.front().estimate.avg_cycles;
  r.cycles["worst_avg_cycles"] = report.ranked.back().estimate.avg_cycles;
  r.cycles["validate_mae_pct"] = validation.mean_abs_error_pct;
  r.cycles["iss_over_estimate"] = validation.speedup_factor;
  r.cycles["parallel/equiv_mismatch"] = identical ? 0.0 : 1.0;
  r.config["best"] = report.ranked.front().config.name();
  r.wall_ns = ns_since(t0);

  std::string& t = f.table;
  t = header_text("Algorithm design-space exploration via performance macro-models",
                  "paper Sec. 4.3");
  appendf(t, "\nCharacterized macro-models (ISS + least-squares):\n%s",
          models.describe().c_str());
  appendf(t, "\nExplored %zu configurations (native, macro-model based):\n",
          report.configs);
  appendf(t, "  serial:               %.3f s\n", serial.wall_seconds);
  appendf(t, "  parallel (%2u threads): %.3f s  (%.2fx speedup)\n",
          report.threads, report.wall_seconds,
          report.wall_seconds > 0 ? serial.wall_seconds / report.wall_seconds
                                  : 0.0);
  appendf(t, "  ranking identical to serial: %s\n", identical ? "yes" : "NO");
  appendf(t, "\nTop 5 configurations (1024-bit RSA private op):\n");
  for (std::size_t i = 0; i < 5 && i < report.ranked.size(); ++i) {
    const auto& ce = report.ranked[i];
    appendf(t, "  %zu. %-55s %12.0f cycles\n", i + 1, ce.config.name().c_str(),
            ce.estimate.avg_cycles);
  }
  appendf(t, "\nBottom 3 configurations:\n");
  for (std::size_t i = report.ranked.size() - 3; i < report.ranked.size(); ++i) {
    const auto& ce = report.ranked[i];
    appendf(t, "  %zu. %-55s %12.0f cycles\n", i + 1, ce.config.name().c_str(),
            ce.estimate.avg_cycles);
  }
  // Axis ablations: marginal effect of each design-space dimension.
  appendf(t, "\nAxis ablation (median estimate with the axis pinned):\n");
  auto median_for = [&](auto pred) {
    std::vector<double> vals;
    for (const auto& ce : report.ranked) {
      if (pred(ce.config)) vals.push_back(ce.estimate.avg_cycles);
    }
    std::sort(vals.begin(), vals.end());
    return vals[vals.size() / 2];
  };
  appendf(t, "  CRT: none %.3e | textbook %.3e | garner %.3e\n",
          median_for([](const ModexpConfig& c) { return c.crt == CrtMode::kNone; }),
          median_for([](const ModexpConfig& c) { return c.crt == CrtMode::kTextbook; }),
          median_for([](const ModexpConfig& c) { return c.crt == CrtMode::kGarner; }));
  appendf(t, "  radix: 16-bit %.3e | 32-bit %.3e\n",
          median_for([](const ModexpConfig& c) { return c.radix == Radix::k16; }),
          median_for([](const ModexpConfig& c) { return c.radix == Radix::k32; }));
  appendf(t, "  mulalgo: div %.3e | barrett %.3e | mont-cios %.3e\n",
          median_for([](const ModexpConfig& c) { return c.mul == MulAlgo::kBasecaseDiv; }),
          median_for([](const ModexpConfig& c) { return c.mul == MulAlgo::kBarrett; }),
          median_for([](const ModexpConfig& c) { return c.mul == MulAlgo::kMontCIOS; }));
  appendf(t, "  window: w=1 %.3e | w=5 %.3e\n",
          median_for([](const ModexpConfig& c) { return c.window_bits == 1; }),
          median_for([](const ModexpConfig& c) { return c.window_bits == 5; }));
  appendf(t, "\nMacro-model estimates vs. cycle-accurate ISS:\n");
  appendf(t, "  %-18s %14s %14s %8s\n", "candidate", "estimated", "ISS", "error");
  for (const auto& p : validation.points) {
    appendf(t, "  %-18s %14.0f %14.0f %7.1f%%\n", p.name.c_str(),
            p.estimated_cycles, p.measured_cycles, p.error_pct);
  }
  appendf(t, "\nmean absolute error: %.1f%%   (paper: 11.8%%)\n",
          validation.mean_abs_error_pct);
  appendf(t, "estimation wall time: %.3f s; ISS wall time: %.3f s\n",
          validation.estimate_wall_seconds, validation.iss_wall_seconds);
  appendf(t, "macro-model estimation is %.0fx faster than ISS simulation "
             "(paper: 1407x on a 440 MHz Ultra 10)\n",
          validation.speedup_factor);
  return f;
}

}  // namespace wsp::bench
