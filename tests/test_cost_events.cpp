// The primitive-event stream that macro-model estimation prices (paper
// Sec. 3.2).  The host mpn kernels may compute however they like, but the
// stream of (routine, n, m, radix) events the modular-arithmetic contexts
// emit is the cost model's input and must not move: it is pinned here by
// digest, and the batched MacroModelHook must total it to the same bits as
// a hook that prices one event at a time.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "explore/estimator.h"
#include "support/random.h"

namespace wsp {
namespace {

// Receives every event one by one (no on_prims override) and folds
// (prim, n, m, limb_bits) into a 64-bit FNV-1a digest.
class DigestHook : public CostHook {
 public:
  void on_prim(Prim p, std::size_t n, std::size_t m, unsigned limb_bits) override {
    mix(static_cast<std::uint64_t>(p));
    mix(n);
    mix(m);
    mix(limb_bits);
    ++events;
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 0x100000001b3ull;
    }
  }
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::size_t events = 0;
};

// Prices every event on its own, as MacroModelHook did before it took
// batches.
class PerEventModelHook : public CostHook {
 public:
  explicit PerEventModelHook(const macromodel::MacroModelSet& models)
      : models_(models) {}
  void on_prim(Prim p, std::size_t n, std::size_t m, unsigned limb_bits) override {
    total += models_.cycles(p, n, m, limb_bits);
    ++events;
  }
  double total = 0.0;
  std::size_t events = 0;

 private:
  const macromodel::MacroModelSet& models_;
};

// Forwards to MacroModelHook and counts the batches and the mixed runs it is
// handed, so the bitwise comparison below is known to exercise both batched
// paths.
class BatchCountingHook : public explore::MacroModelHook {
 public:
  using MacroModelHook::MacroModelHook;
  void on_prims(Prim p, std::size_t n, std::size_t m, unsigned limb_bits,
                std::size_t count) override {
    ++batches;
    MacroModelHook::on_prims(p, n, m, limb_bits, count);
  }
  void on_events(const PrimEvent* events, std::size_t count, unsigned limb_bits) override {
    ++runs;
    MacroModelHook::on_events(events, count, limb_bits);
  }
  std::size_t batches = 0;
  std::size_t runs = 0;
};

const explore::RsaWorkload& workload() {
  static const explore::RsaWorkload w = [] {
    Rng rng(2002);
    auto wl = explore::make_rsa_workload(512, rng);
    wl.repetitions = 2;  // the second run takes the cached-table path
    return wl;
  }();
  return w;
}

// Every multiplication algorithm, radix and CRT mode at window 4 with full
// caching: 30 configurations.
std::vector<ModexpConfig> stream_configs() {
  std::vector<ModexpConfig> out;
  for (MulAlgo mul : {MulAlgo::kBasecaseDiv, MulAlgo::kKaratsubaDiv, MulAlgo::kBarrett,
                      MulAlgo::kMontSOS, MulAlgo::kMontCIOS}) {
    for (Radix radix : {Radix::k16, Radix::k32}) {
      for (CrtMode crt : {CrtMode::kNone, CrtMode::kTextbook, CrtMode::kGarner}) {
        out.push_back(ModexpConfig{mul, 4, crt, radix, Caching::kFull});
      }
    }
  }
  return out;
}

// Non-linear models with fractional coefficients, so that summing the
// same terms in another order would change the low bits of the total.
const macromodel::MacroModelSet& quadratic_models() {
  static const macromodel::MacroModelSet set = [] {
    macromodel::MacroModelSet s;
    for (int p = 0; p < static_cast<int>(Prim::kCount); ++p) {
      for (unsigned bits : {16u, 32u}) {
        s.set(static_cast<Prim>(p), bits,
              {macromodel::PolyModel({{0, 0}, {1, 0}, {2, 0}, {1, 1}},
                                     {17.3 + 0.7 * p, 9.13 + bits / 97.0, 0.071, 0.37}),
               {}});
      }
    }
    return s;
  }();
  return set;
}

template <typename Hook>
void run_workload(const ModexpConfig& cfg, Hook& hook) {
  ModexpEngine engine(cfg, &hook);
  for (int rep = 0; rep < workload().repetitions; ++rep) {
    (void)engine.powm_crt(workload().c, workload().d, workload().key);
  }
}

// Pinned from the limb-at-a-time kernels and per-event emitters that
// preceded the word-wide kernels and batched events.
constexpr std::uint64_t kPinnedStreamDigest = 0x6ee4020676476735ull;
constexpr std::size_t kPinnedStreamEvents = 1964510;

TEST(CostEvents, StreamMatchesPinnedDigest) {
  DigestHook hook;
  for (const ModexpConfig& cfg : stream_configs()) {
    run_workload(cfg, hook);
    hook.mix(0xffffffffffffffffull);  // configuration boundary
  }
  EXPECT_EQ(hook.digest, kPinnedStreamDigest) << std::hex << "0x" << hook.digest;
  EXPECT_EQ(hook.events, kPinnedStreamEvents);
}

TEST(CostEvents, BatchedMacroModelTotalsEqualPerEventTotals) {
  for (const ModexpConfig& cfg : stream_configs()) {
    BatchCountingHook batched(quadratic_models());
    PerEventModelHook single(quadratic_models());
    run_workload(cfg, batched);
    run_workload(cfg, single);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.total_cycles()),
              std::bit_cast<std::uint64_t>(single.total))
        << cfg.name() << ": " << batched.total_cycles() << " vs " << single.total;
    EXPECT_EQ(batched.events(), single.events) << cfg.name();
    EXPECT_GT(batched.batches, 0u) << cfg.name();
    EXPECT_GT(batched.runs, 0u) << cfg.name();
  }
}

}  // namespace
}  // namespace wsp
