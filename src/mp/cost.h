// Primitive-call instrumentation hook.
//
// The paper's algorithm-exploration phase (Sec. 3.2) replaces ISS runs with
// native execution in which every library-routine call site is augmented
// with its performance macro-model.  We realize the same idea with a hook:
// the modular-arithmetic contexts report every mpn primitive invocation
// (routine id + input sizes + radix), and the explorer sums macro-model
// cycle estimates over the stream while the algorithm itself runs natively.
#pragma once

#include <cstddef>

namespace wsp {

/// Identifiers for the characterized mpn library routines.
enum class Prim {
  kAddN,
  kSubN,
  kAdd1,
  kSub1,
  kMul1,
  kAddMul1,
  kSubMul1,
  kDivrem,
  kLshift,
  kRshift,
  kCmp,
  kDiv2by1,  ///< one 64/32 software division step (qhat estimation)
  kCount,
};

const char* prim_name(Prim p);

/// One event of a run handed to CostHook::on_events.
struct PrimEvent {
  Prim prim;
  std::size_t n;
  std::size_t m;
};

/// Receives one event per primitive call made by an instrumented algorithm.
class CostHook {
 public:
  virtual ~CostHook() = default;

  /// `n` is the primary operand size in limbs; `m` a secondary size
  /// (divisor limbs for kDivrem, 0 otherwise); `limb_bits` is 16 or 32.
  virtual void on_prim(Prim p, std::size_t n, std::size_t m, unsigned limb_bits) = 0;

  /// `count` identical consecutive events.  The default delivers them one
  /// by one, so a hook that only overrides on_prim sees the same stream; a
  /// hook may override this to price the run at once.
  virtual void on_prims(Prim p, std::size_t n, std::size_t m, unsigned limb_bits,
                        std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) on_prim(p, n, m, limb_bits);
  }

  /// A run of `count` mixed events at one radix, in stream order.  The
  /// default delivers them one by one, so a hook that only overrides on_prim
  /// sees the same stream; a hook may override this to take the run in one
  /// virtual call.
  virtual void on_events(const PrimEvent* events, std::size_t count, unsigned limb_bits) {
    for (std::size_t i = 0; i < count; ++i) {
      on_prim(events[i].prim, events[i].n, events[i].m, limb_bits);
    }
  }
};

/// Collects a run of mixed events for a non-null hook and hands it over
/// through on_events, kCapacity events at a time.  Call flush() when the run
/// ends, before anything else reaches the hook, so the stream keeps its
/// order.
class EventBatch {
 public:
  EventBatch(CostHook* hook, unsigned limb_bits) : hook_(hook), limb_bits_(limb_bits) {}

  void add(Prim p, std::size_t n, std::size_t m = 0) {
    events_[size_++] = PrimEvent{p, n, m};
    if (size_ == kCapacity) flush();
  }

  void flush() {
    if (size_ != 0) hook_->on_events(events_, size_, limb_bits_);
    size_ = 0;
  }

 private:
  static constexpr std::size_t kCapacity = 128;
  CostHook* hook_;
  unsigned limb_bits_;
  std::size_t size_ = 0;
  PrimEvent events_[kCapacity];  // left uninitialized: only [0, size_) is read
};

/// Convenience: emits one event if the hook is non-null.
inline void note_prim(CostHook* hook, Prim p, std::size_t n, std::size_t m,
                      unsigned limb_bits) {
  if (hook) hook->on_prim(p, n, m, limb_bits);
}

/// Emits the primitive-event decomposition of a Knuth-D division of a
/// un-limb dividend by a dn-limb divisor: one normalization shift pass each
/// way plus one qhat step and one submul_1 sweep per quotient limb, as one
/// run.
inline void note_divrem(CostHook* hook, std::size_t un, std::size_t dn,
                        unsigned limb_bits) {
  if (!hook || un < dn) return;
  EventBatch batch(hook, limb_bits);
  batch.add(Prim::kLshift, un);
  for (std::size_t i = 0; i + dn <= un; ++i) {
    batch.add(Prim::kDiv2by1, 1);
    batch.add(Prim::kSubMul1, dn);
  }
  batch.add(Prim::kRshift, dn);
  batch.flush();
}

/// Emits the primitive-event decomposition of an n x n limb product as
/// performed by mpn::mul (Karatsuba above the threshold, schoolbook below).
inline void note_mul_square_events(CostHook* hook, std::size_t n,
                                   std::size_t karatsuba_threshold,
                                   unsigned limb_bits) {
  if (!hook) return;
  if (n < karatsuba_threshold || (n & 1)) {
    hook->on_prims(Prim::kAddMul1, n, 0, limb_bits, n);
    return;
  }
  const std::size_t h = n / 2;
  note_mul_square_events(hook, h, karatsuba_threshold, limb_bits);  // z0
  note_mul_square_events(hook, h, karatsuba_threshold, limb_bits);  // z2
  // (a0+a1)(b0+b1) is (h+1)x(h+1) schoolbook in our implementation.
  hook->on_prims(Prim::kAddMul1, h + 1, 0, limb_bits, h + 1);
  hook->on_prim(Prim::kAddN, h, 0, limb_bits);   // asum
  hook->on_prim(Prim::kAddN, h, 0, limb_bits);   // bsum
  hook->on_prim(Prim::kSubN, 2 * h, 0, limb_bits);  // zm -= z0
  hook->on_prim(Prim::kSubN, 2 * h, 0, limb_bits);  // zm -= z2
  hook->on_prim(Prim::kAddN, 2 * h, 0, limb_bits);  // assemble middle
}

/// Emits events for a plain schoolbook an x bn product.
inline void note_mul_basecase(CostHook* hook, std::size_t an, std::size_t bn,
                              unsigned limb_bits) {
  if (!hook) return;
  hook->on_prims(Prim::kAddMul1, an, 0, limb_bits, bn);
}

inline const char* prim_name(Prim p) {
  switch (p) {
    case Prim::kAddN: return "mpn_add_n";
    case Prim::kSubN: return "mpn_sub_n";
    case Prim::kAdd1: return "mpn_add_1";
    case Prim::kSub1: return "mpn_sub_1";
    case Prim::kMul1: return "mpn_mul_1";
    case Prim::kAddMul1: return "mpn_addmul_1";
    case Prim::kSubMul1: return "mpn_submul_1";
    case Prim::kDivrem: return "mpn_divrem";
    case Prim::kLshift: return "mpn_lshift";
    case Prim::kRshift: return "mpn_rshift";
    case Prim::kCmp: return "mpn_cmp";
    case Prim::kDiv2by1: return "div_2by1";
    case Prim::kCount: break;
  }
  return "?";
}

}  // namespace wsp
