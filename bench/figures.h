// The paper-figure measurements: Fig. 1, Table 1 (with the Fig. 5 inset RSA
// rates), Figs. 4/5/6/8 and the Sec. 4.3 exploration.  Each function is the
// one copy of its figure's measurement: bench_report runs it as a section,
// gates `result` against bench/baselines/BENCH_<name>.json and prints
// `table`; test_figures ties the Fig. 8 numbers to the server's calibrated
// costs.
//
// Every `result.cycles` metric is a simulated-cycle count or derived from
// one, bit-deterministic for the fixed seeds; the tables may also quote
// host wall times.
#pragma once

#include <string>

#include "bench_util.h"

namespace wsp::bench {

/// One figure's measurement: the gated metrics and the human-readable table.
struct Figure {
  BenchResult result;
  std::string table;
};

/// Fig. 1: the security processing gap, from the measured 3DES stream cost.
Figure fig1();

/// Table 1 and the Fig. 5 inset: DES/3DES/AES and RSA-1024 base vs.
/// optimized, plus the CRT/TIE ablation of the RSA-decrypt speedup.  Throws
/// std::runtime_error when the base and optimized RSA results disagree.
Figure table1();

/// Fig. 4: the weighted call graph of a 512-bit Montgomery modexp.
Figure fig4();

/// Fig. 5: measured A-D curves of mpn_add_n / mpn_addmul_1 and their
/// composite root, before and after Pareto pruning.
Figure fig5();

/// Fig. 6: the combination of two A-D curves collapsing under instruction
/// sharing and dominance.
Figure fig6();

/// Fig. 8: SSL transaction speedups for 1-32 KiB, from ISS-measured RSA-1024
/// and 3DES component costs.
Figure fig8();

/// Sec. 4.3: characterize the mpn routines, estimate all 450 modexp
/// configurations on `threads` workers (and once on one, which must rank
/// identically), and validate the estimates against the ISS.
Figure sec43_explore(unsigned threads);

}  // namespace wsp::bench
