// Repository benchmark: runs one named workload under a seed, checks its
// outputs and prints one JSON result line (README.md in this directory).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workload-dir <dir>] [--trace-out <file.json>]
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"

namespace {

void print_metrics(const std::vector<perfbench::Metric>& ms) {
  std::printf("{");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(),
                std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                ms[i].unit.c_str());
  }
  std::printf("}");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fig8_handshake|resume_churn|checkpointed_chaos|design_space> "
               "--seed <n> --seconds <s> --trace <0|1> [--workload-dir <dir>] "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--workload-dir") {
        opt.workload_dir = v;
      } else if (a == "--trace-out") {
        opt.trace_out = v;
      } else {
        return usage(("unknown option " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  opt.threads = hw == 0 ? 1 : std::min(4u, hw);

  perfbench::Result r;
  try {
    if (opt.workload == "design_space") {
      r = perfbench::run_design_space(opt);
    } else if (opt.workload == "fig8_handshake" ||
               opt.workload == "resume_churn" ||
               opt.workload == "checkpointed_chaos") {
      r = perfbench::run_server_workload(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"report\": ",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0);
  print_metrics(r.report);
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(r.metrics);
  std::printf("}\n");
  std::fflush(stdout);
  return 0;
}
