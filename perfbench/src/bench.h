// Shared plumbing of the repository benchmark: options, output checks, the
// result line, host clocks and the span ledger of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Seed the pinned output values were taken at.  Other seeds run every
/// invariant and cross-check, but no pinned comparison.
constexpr std::uint64_t kDefaultSeed = 42;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string workload_dir = "perfbench/workloads";
  std::string trace_out;  ///< Chrome/Perfetto JSON of the traced run
  unsigned threads = 4;   ///< worker threads of the timed runs
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Output checks.  Every failed check is printed to stderr and counted; the
/// count feeds `failed` and failed_ratio.
class Checks {
 public:
  bool expect(bool ok, const std::string& what);
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t failed_ = 0;
};

/// What one invocation reports.  `metrics` goes into the final JSON line;
/// `report` (the workload's own metric names, informational) is printed as a
/// JSON line before it.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<Metric> report;
};

double median(std::vector<double> v);
/// Process peak resident set (VmHWM), MiB; 0 when /proc is unavailable.
double peak_rss_mib();

// ---------------------------------------------------------------------------
// Span ledger of the traced run.  Spans are recorded only by the benchmark,
// around its calls into each layer.  A span's self time is its duration
// minus the time its child spans cover; children of one span never overlap
// (every recorded call is sequential on one thread).

class Ledger {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0xffffffffu;

  explicit Ledger(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Opens a span; returns kNone when the ledger is disabled.
  Id begin(const char* name, Id parent, std::uint64_t request);
  void end(Id id);
  /// Re-labels a span's request id (known only after the call returned).
  void set_request(Id id, std::uint64_t request);

  /// Per span name: summed duration and summed self time, ns.
  struct Totals {
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Totals> totals() const;
  /// Summed duration of root spans (no parent), ns.
  double root_ns() const;

  /// Writes spans of the first `max_requests` request ids as Chrome/Perfetto
  /// JSON via support/trace (B/E pairs, request id in the span name).
  bool write_chrome_json(const std::string& path,
                         std::size_t max_requests) const;

 private:
  struct Span {
    const char* name;
    Id parent;
    std::uint32_t tid;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mutex_;  // guards spans_ (worker and bench thread)
  std::vector<Span> spans_;
};

/// RAII span: closes on scope exit.
class Scope {
 public:
  Scope(Ledger& ledger, const char* name, Ledger::Id parent = Ledger::kNone,
        std::uint64_t request = 0)
      : ledger_(ledger), id_(ledger.begin(name, parent, request)) {}
  ~Scope() { ledger_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Ledger::Id id() const { return id_; }

 private:
  Ledger& ledger_;
  Ledger::Id id_;
};

Result run_server_workload(const Options& opt);
Result run_design_space(const Options& opt);

}  // namespace perfbench

namespace perfbench {
/// Every per-layer metric of the traced run, in output order, with `values`
/// filled in (missing names read 0: the layer did no work in this
/// workload).  Throws std::logic_error on a name outside the list.
std::vector<Metric> per_layer_metrics(
    const std::map<std::string, double>& values);
}  // namespace perfbench
