#include "bench.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "support/trace.h"

namespace perfbench {

bool Checks::expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
  return ok;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::int64_t Ledger::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

namespace {
std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag = next++;
  return tag;
}
}  // namespace

Ledger::Id Ledger::begin(const char* name, Id parent, std::uint64_t request) {
  if (!enabled_) return kNone;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, parent, thread_tag(), request, t, t});
  return static_cast<Id>(spans_.size() - 1);
}

void Ledger::end(Id id) {
  if (id == kNone) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end_ns = t;
}

void Ledger::set_request(Id id, std::uint64_t request) {
  if (id == kNone) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].request = request;
}

std::map<std::string, Ledger::Totals> Ledger::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    Totals& t = out[s.name];
    t.total_ns += d;
    t.self_ns += d - child_ns[i];
  }
  return out;
}

double Ledger::root_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == kNone) sum += static_cast<double>(s.end_ns - s.start_ns);
  }
  return sum;
}

bool Ledger::write_chrome_json(const std::string& path,
                               std::size_t max_requests) const {
  struct Mark {
    std::int64_t ts;
    int kind;  // 0 = end, 1 = begin: an end at t closes before a begin at t
    std::int64_t order;
    std::size_t span;
  };
  std::vector<Mark> marks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].request >= max_requests) continue;
      const auto idx = static_cast<std::int64_t>(i);
      marks.push_back(Mark{spans_[i].start_ns, 1, idx, i});
      marks.push_back(Mark{spans_[i].end_ns, 0, -idx, i});
    }
  }
  std::sort(marks.begin(), marks.end(), [](const Mark& a, const Mark& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.order < b.order;
  });
  std::vector<wsp::trace::Event> events;
  events.reserve(marks.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Mark& m : marks) {
    const Span& s = spans_[m.span];
    wsp::trace::Event e{};
    e.phase = m.kind ? wsp::trace::Phase::kBegin : wsp::trace::Phase::kEnd;
    e.category = "perfbench";
    e.name = std::string(s.name) + " req=" + std::to_string(s.request);
    e.ts = static_cast<std::uint64_t>(m.ts);
    e.tid = s.tid;
    events.push_back(std::move(e));
  }
  return wsp::trace::write_chrome_json(events, path);
}

}  // namespace perfbench

namespace perfbench {

std::vector<Metric> per_layer_metrics(
    const std::map<std::string, double>& values) {
  static const std::pair<const char*, const char*> kLayer[] = {
      // mp
      {"mp.modexp.ns_per_op", "ns"},
      {"mp.modexp.ops", "count"},
      {"crypto.rsa.keygen_ns", "ns"},
      // crypto ciphers
      {"crypto.des3_cbc.ns_per_byte", "ns/B"},
      {"crypto.des3.key_schedule_ns", "ns"},
      {"crypto.aes128_cbc.ns_per_byte", "ns/B"},
      {"crypto.aes128.key_schedule_ns", "ns"},
      {"crypto.rc4.ns_per_byte", "ns/B"},
      {"crypto.rc4.key_setup_ns", "ns"},
      {"crypto.cipher.bytes", "B"},
      // crypto hashes
      {"crypto.sha1.ns_per_byte", "ns/B"},
      {"crypto.md5.ns_per_byte", "ns/B"},
      {"crypto.hmac_sha1.ns_per_call", "ns"},
      {"crypto.hash.bytes", "B"},
      // ssl
      {"ssl.handshake.busy_ns", "ns"},
      {"ssl.handshake.calls", "count"},
      {"ssl.kdf.busy_ns", "ns"},
      {"ssl.kdf.calls", "count"},
      {"ssl.seal.busy_ns", "ns"},
      {"ssl.open.busy_ns", "ns"},
      {"ssl.records", "count"},
      {"ssl.record_bytes", "B"},
      // server: session
      {"server.session.handshake.busy_ns", "ns"},
      {"server.session.resume.busy_ns", "ns"},
      {"server.session.pump.busy_ns", "ns"},
      {"server.session.pump.calls", "count"},
      {"server.session.retries", "count"},
      {"server.session.repairs", "count"},
      {"server.session.useful_record_ratio", "ratio"},
      {"server.session.handshake_success_ratio", "ratio"},
      // server: table
      {"server.session_table.insert_ns", "ns"},
      {"server.session_table.erase_ns", "ns"},
      {"server.session_table.ops", "count"},
      {"server.session_table.peak_size", "count"},
      {"server.session_table.bytes_reserved", "B"},
      // server: scheduler
      {"server.scheduler.push_ns", "ns"},
      {"server.scheduler.pushes", "count"},
      {"server.scheduler.drain_wait_ns", "ns"},
      {"server.scheduler.backpressure_waits", "count"},
      {"server.scheduler.peak_real_depth", "count"},
      {"server.scheduler.failed_tasks", "count"},
      // server: traffic
      {"server.traffic.next_ns", "ns"},
      {"server.traffic.arrivals", "count"},
      // server: engine
      {"server.engine.run.busy_ns", "ns"},
      {"server.engine.unattributed_ns", "ns"},
      // server: checkpoint / record (+ support replay codec)
      {"server.checkpoint.count", "count"},
      {"server.checkpoint.bytes", "B"},
      {"server.checkpoint.entries", "count"},
      {"server.checkpoint.live_entry_ratio", "ratio"},
      {"server.checkpoint.encode_ns", "ns"},
      {"server.checkpoint.decode_ns", "ns"},
      {"server.checkpoint.validate_ns", "ns"},
      {"server.record.scan_ns", "ns"},
      {"server.record.resume_ns", "ns"},
      // sim
      {"sim.cpu.instret", "count"},
      {"sim.cpu.cycles", "count"},
      {"sim.cpu.host_ns_per_instr", "ns"},
      {"sim.cache.icache_miss_ratio", "ratio"},
      {"sim.cache.dcache_miss_ratio", "ratio"},
      // kernels
      {"kernels.call.count", "count"},
      {"kernels.call.busy_ns", "ns"},
      // macromodel
      {"macromodel.characterize_ns", "ns"},
      {"macromodel.points", "count"},
      // explore
      {"explore.estimate.ns_per_config", "ns"},
      {"explore.hook_events", "count"},
      {"explore.validate.iss_ns", "ns"},
      {"explore.validate.estimate_ns", "ns"},
      // scenario
      {"scenario.compile_ns", "ns"},
      // the traced run itself
      {"bench.trace_overhead_ns", "ns"},
      {"bench.walk_mismatches", "count"},
      // self-time share of each layer in the traced run's ledger
      {"share.mp", "ratio"},
      {"share.crypto.cipher", "ratio"},
      {"share.crypto.hash", "ratio"},
      {"share.ssl", "ratio"},
      {"share.server.session", "ratio"},
      {"share.server.session_table", "ratio"},
      {"share.server.scheduler", "ratio"},
      {"share.server.traffic", "ratio"},
      {"share.server.checkpoint", "ratio"},
      {"share.server.unattributed", "ratio"},
      {"share.sim", "ratio"},
      {"share.macromodel", "ratio"},
      {"share.explore", "ratio"},
  };
  std::vector<Metric> out;
  std::map<std::string, double> left = values;
  for (const auto& [name, unit] : kLayer) {
    const auto it = left.find(name);
    out.push_back(Metric{name, it == left.end() ? 0.0 : it->second, unit});
    if (it != left.end()) left.erase(it);
  }
  if (!left.empty()) {
    throw std::logic_error("perfbench: undeclared per-layer metric " +
                           left.begin()->first);
  }
  return out;
}

}  // namespace perfbench
