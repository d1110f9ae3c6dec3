#include "scenario/sema.h"

#include <cmath>
#include <cstdint>
#include <set>
#include <string>

namespace wsp::scenario {

namespace {

using server::ArrivalModel;
using server::CipherMix;
using server::FaultConfig;
using server::SizeMix;
using server::TrafficPhase;
using server::TrafficScenario;

class Resolver {
 public:
  Resolver(const ScenarioAst& ast, std::string_view source,
           std::string_view filename)
      : ast_(ast), src_(source), filename_(filename) {}

  ResolvedScenario run() {
    ResolvedScenario out;
    out.name = ast_.name;
    TrafficScenario& sc = out.scenario;

    // The template every phase starts from: TrafficPhase's own defaults
    // (the paper's Fig. 8 grid under a steady open loop), then the
    // `defaults` block.
    TrafficPhase defaults;
    bool seen_defaults = false;
    std::set<std::string> seen_top;
    // Two passes: scalars and `defaults` first, so `phase` blocks inherit
    // the resolved defaults no matter where the defaults block is written.
    for (const Entry& e : ast_.entries) {
      if (e.key == "phase") continue;
      if (e.key == "seed") {
        require_unique(seen_top, e);
        sc.seed = count(e, 0, 9007199254740991.0);  // 2^53 - 1: exact doubles
      } else if (e.key == "record_bytes") {
        require_unique(seen_top, e);
        sc.record_bytes = static_cast<std::size_t>(count(e, 1, 65536.0));
      } else if (e.key == "defaults") {
        if (seen_defaults) {
          fail(Code::kDuplicateKey, e.loc,
               "duplicate `defaults` block (only one is allowed)");
        }
        seen_defaults = true;
        need_block(e);
        if (e.has_label) {
          fail(Code::kTypeMismatch, e.loc, "`defaults` does not take a name");
        }
        apply_phase_block(defaults, e, /*is_phase=*/false);
      } else {
        fail(Code::kUnknownKey, e.loc,
             "unknown key '" + e.key + "' at scenario level (expected seed, "
             "record_bytes, defaults or phase)");
      }
    }

    for (const Entry& e : ast_.entries) {
      if (e.key != "phase") continue;
      need_block(e);
      TrafficPhase ph = defaults;
      ph.name = e.has_label
                    ? e.label
                    : "phase" + std::to_string(sc.phases.size());
      apply_phase_block(ph, e, /*is_phase=*/true);
      if (ph.sessions == 0) {
        fail(Code::kMissingKey, e.loc,
             "phase '" + ph.name + "' must declare `sessions` (> 0)");
      }
      sc.phases.push_back(std::move(ph));
    }

    if (sc.phases.empty()) {
      fail(Code::kNoPhases, ast_.loc,
           "scenario declares no phases (at least one `phase { ... }` block "
           "is required)");
    }
    return out;
  }

 private:
  [[noreturn]] void fail(Code code, SourceLoc at, std::string message) const {
    throw ScenarioError(make_diagnostic(code, at, std::move(message), src_),
                        filename_);
  }

  void require_unique(std::set<std::string>& seen, const Entry& e) const {
    if (!seen.insert(e.key).second) {
      fail(Code::kDuplicateKey, e.loc, "duplicate key '" + e.key + "'");
    }
  }

  void need_block(const Entry& e) const {
    if (!e.is_block) {
      fail(Code::kTypeMismatch, e.loc,
           "`" + e.key + "` expects a `{ ... }` block");
    }
  }

  void need_scalar(const Entry& e) const {
    if (e.is_block) {
      fail(Code::kTypeMismatch, e.loc,
           "key '" + e.key + "' expects a value, not a block");
    }
  }

  double number(const Entry& e) const {
    need_scalar(e);
    if (e.value.kind != Value::Kind::kNumber) {
      fail(Code::kTypeMismatch, e.value.loc,
           "key '" + e.key + "' expects a number");
    }
    return e.value.number;
  }

  double ranged(const Entry& e, double lo, double hi,
                const char* what) const {
    const double v = number(e);
    if (!(std::isfinite(v) && v >= lo && v <= hi)) {
      fail(Code::kOutOfRange, e.value.loc,
           "key '" + e.key + "' " + what);
    }
    return v;
  }

  std::uint64_t count(const Entry& e, std::uint64_t lo, double hi) const {
    const double v = number(e);
    if (!(std::isfinite(v) && v >= static_cast<double>(lo) && v <= hi &&
          v == std::floor(v))) {
      fail(Code::kOutOfRange, e.value.loc,
           "key '" + e.key + "' expects an integer in [" +
               std::to_string(lo) + ", " +
               std::to_string(static_cast<std::uint64_t>(hi)) + "]");
    }
    return static_cast<std::uint64_t>(v);
  }

  /// Applies one defaults/phase block onto `p`.  Only phase blocks take
  /// the (required) `sessions` key.
  void apply_phase_block(TrafficPhase& p, const Entry& block,
                         bool is_phase) const {
    const char* where = is_phase ? "phase" : "defaults";
    std::set<std::string> seen;
    for (const Entry& e : block.block) {
      if (e.key == "sessions" && is_phase) {
        require_unique(seen, e);
        p.sessions = static_cast<std::size_t>(count(e, 1, 10000000.0));
      } else if (e.key == "arrivals") {
        require_unique(seen, e);
        p.model = arrivals_word(e);
      } else if (e.key == "load") {
        require_unique(seen, e);
        p.offered_load = ranged(e, 1e-6, 1000.0,
                                "expects a load in (0, 1000] (fraction of "
                                "modeled capacity)");
      } else if (e.key == "users") {
        require_unique(seen, e);
        p.users = static_cast<unsigned>(count(e, 1, 1000000.0));
      } else if (e.key == "think") {
        require_unique(seen, e);
        p.think_cycles =
            ranged(e, 0.0, 1e15, "expects think cycles in [0, 1e15]");
      } else if (e.key == "resume") {
        require_unique(seen, e);
        p.resume_fraction = resume_word(e);
      } else if (e.key == "mix") {
        require_unique(seen, e);
        need_block(e);
        p.cipher_mix = mix_block(e);
      } else if (e.key == "sizes") {
        require_unique(seen, e);
        need_block(e);
        p.size_mix = sizes_block(e);
      } else if (e.key == "faults") {
        require_unique(seen, e);
        need_block(e);
        // REPLACE semantics: a faults block always starts from the benign
        // default config, never from an inherited overlay — so an empty
        // `faults { }` in a phase cancels the defaults' storm.
        p.faults = faults_block(e, FaultConfig{});
      } else {
        fail(Code::kUnknownKey, e.loc,
             "unknown key '" + e.key + "' in " + where +
                 " block (expected " +
                 (is_phase ? "sessions, " : "") +
                 "arrivals, load, users, think, resume, mix, sizes or "
                 "faults)");
      }
    }
  }

  ArrivalModel arrivals_word(const Entry& e) const {
    need_scalar(e);
    if (e.value.kind == Value::Kind::kIdent) {
      if (e.value.text == "open") return ArrivalModel::kOpenLoop;
      if (e.value.text == "closed") return ArrivalModel::kClosedLoop;
    }
    fail(Code::kUnknownEnum, e.value.loc,
         "key 'arrivals' expects `open` or `closed`");
  }

  double resume_word(const Entry& e) const {
    need_scalar(e);
    if (e.value.kind == Value::Kind::kIdent) {
      if (e.value.text == "on") return 1.0;
      if (e.value.text == "off") return 0.0;
      fail(Code::kUnknownEnum, e.value.loc,
           "key 'resume' expects `on`, `off` or a fraction in [0, 1]");
    }
    return ranged(e, 0.0, 1.0, "expects a resume fraction in [0, 1]");
  }

  std::uint32_t weight(const Entry& e) const {
    return static_cast<std::uint32_t>(count(e, 1, 1000000.0));
  }

  std::vector<CipherMix> mix_block(const Entry& block) const {
    std::vector<CipherMix> out;
    if (block.block.empty()) {
      fail(Code::kEmptyMix, block.loc, "`mix` block has no entries");
    }
    for (const Entry& e : block.block) {
      CipherMix m;
      if (e.key_is_number || !cipher_by_name(e.key, m.cipher)) {
        fail(Code::kUnknownCipher, e.loc,
             "unknown cipher '" + e.key +
                 "' (expected 3des, aes128 or rc4)");
      }
      for (const CipherMix& prev : out) {
        if (prev.cipher == m.cipher) {
          fail(Code::kDuplicateEntry, e.loc,
               "cipher '" + e.key + "' listed twice in this mix");
        }
      }
      m.weight = weight(e);
      out.push_back(m);
    }
    return out;
  }

  std::vector<SizeMix> sizes_block(const Entry& block) const {
    std::vector<SizeMix> out;
    if (block.block.empty()) {
      fail(Code::kEmptyMix, block.loc, "`sizes` block has no entries");
    }
    for (const Entry& e : block.block) {
      if (!e.key_is_number) {
        fail(Code::kTypeMismatch, e.loc,
             "size mix entries are keyed by byte count (e.g. `4096: 2`), "
             "got '" + e.key + "'");
      }
      const double b = e.key_number;
      if (!(std::isfinite(b) && b >= 1.0 && b <= 1073741824.0 &&
            b == std::floor(b))) {
        fail(Code::kOutOfRange, e.loc,
             "transaction size must be an integer in [1, 2^30] bytes");
      }
      SizeMix m;
      m.bytes = static_cast<std::size_t>(b);
      for (const SizeMix& prev : out) {
        if (prev.bytes == m.bytes) {
          fail(Code::kDuplicateEntry, e.loc,
               "size " + e.key + " listed twice in this mix");
        }
      }
      m.weight = weight(e);
      out.push_back(m);
    }
    return out;
  }

  FaultConfig faults_block(const Entry& block, FaultConfig fc) const {
    std::set<std::string> seen;
    for (const Entry& e : block.block) {
      if (e.key == "wire_flip_rate") {
        require_unique(seen, e);
        fc.wire_flip_rate = ranged(e, 0.0, 1.0, "expects a rate in [0, 1]");
      } else if (e.key == "handshake_failure_rate") {
        require_unique(seen, e);
        fc.handshake_failure_rate =
            ranged(e, 0.0, 1.0, "expects a rate in [0, 1]");
      } else if (e.key == "abort_rate") {
        require_unique(seen, e);
        fc.abort_rate = ranged(e, 0.0, 1.0, "expects a rate in [0, 1]");
      } else if (e.key == "stall_rate") {
        require_unique(seen, e);
        fc.stall_rate = ranged(e, 0.0, 1.0, "expects a rate in [0, 1]");
      } else if (e.key == "stall_cycles") {
        require_unique(seen, e);
        fc.stall_cycles =
            ranged(e, 1.0, 1e15, "expects stall cycles in [1, 1e15]");
      } else if (e.key == "record_retry_budget") {
        require_unique(seen, e);
        fc.record_retry_budget = static_cast<unsigned>(count(e, 0, 64.0));
      } else if (e.key == "handshake_retry_budget") {
        require_unique(seen, e);
        fc.handshake_retry_budget = static_cast<unsigned>(count(e, 0, 64.0));
      } else if (e.key == "backoff_base_cycles") {
        require_unique(seen, e);
        fc.backoff_base_cycles =
            ranged(e, 1.0, 1e15, "expects backoff cycles in [1, 1e15]");
      } else if (e.key == "backoff_cap_cycles") {
        require_unique(seen, e);
        fc.backoff_cap_cycles =
            ranged(e, 1.0, 1e15, "expects backoff cycles in [1, 1e15]");
      } else if (e.key == "crash_at_cycles") {
        // A scheduled process kill at this virtual time (docs/recovery.md).
        // Unlike the per-session fault rates it is an external event: the
        // engine throws CrashFault when the clock passes it, and it never
        // rides along in a recording — a resumed run must not re-crash.
        require_unique(seen, e);
        fc.crash_at_cycles =
            ranged(e, 1.0, 1e15, "expects a crash time in [1, 1e15] cycles");
      } else {
        fail(Code::kUnknownKey, e.loc,
             "unknown key '" + e.key + "' in faults block");
      }
    }
    if (fc.backoff_cap_cycles < fc.backoff_base_cycles) {
      fail(Code::kOutOfRange, block.loc,
           "faults backoff_cap_cycles must be >= backoff_base_cycles");
    }
    return fc;
  }

  static bool cipher_by_name(const std::string& name, ssl::Cipher& out) {
    if (name == "3des") {
      out = ssl::Cipher::kTripleDesCbc;
      return true;
    }
    if (name == "aes128") {
      out = ssl::Cipher::kAes128Cbc;
      return true;
    }
    if (name == "rc4") {
      out = ssl::Cipher::kRc4;
      return true;
    }
    return false;
  }

  const ScenarioAst& ast_;
  std::string_view src_;
  std::string_view filename_;
};

}  // namespace

ResolvedScenario resolve(const ScenarioAst& ast, std::string_view source,
                         std::string_view filename) {
  return Resolver(ast, source, filename).run();
}

}  // namespace wsp::scenario
