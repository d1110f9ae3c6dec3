// Deterministic pseudo-random generation used throughout the library.
//
// All stochastic components of the methodology (characterization stimuli,
// test vectors, key generation in examples) draw from this generator so that
// every experiment in the repository is reproducible bit-for-bit.
//
// The generator is xoshiro256** (Blackman & Vigna).  It is NOT
// cryptographically secure; `crypto/rsa.h` documents that key generation in
// this reproduction is for simulation/benchmarking, not deployment.
#pragma once

#include <cstdint>
#include <vector>

namespace wsp {

/// Deterministic 64-bit PRNG (xoshiro256**) with convenience helpers.
class Rng {
 public:
  /// The full generator state (xoshiro256**'s four words).  Snapshotting it
  /// and restoring later resumes the exact draw sequence — the engine's
  /// checkpoint/restore layer (docs/recovery.md) depends on this being a
  /// bit-exact round trip.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};

    bool operator==(const State&) const = default;
  };

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  State state() const { return State{{s_[0], s_[1], s_[2], s_[3]}}; }
  void set_state(const State& st) {
    s_[0] = st.s[0];
    s_[1] = st.s[1];
    s_[2] = st.s[2];
    s_[3] = st.s[3];
  }

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Next 32-bit value.
  std::uint32_t next_u32() { return static_cast<std::uint32_t>(next_u64() >> 32); }

  /// Uniform value in [0, bound); throws std::invalid_argument for
  /// bound == 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform value in [lo, hi] inclusive (the full 64-bit span is one raw
  /// draw).
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// `n` bytes of pseudo-random data, one draw per byte (its low byte).
  /// Known-answer tests, RSA key generation and the characterization
  /// stimuli are pinned to this stream; keep it as it is.
  std::vector<std::uint8_t> bytes(std::size_t n);

  /// Fills `out[0..n)` eight bytes per draw: each next_u64() in
  /// little-endian order, the last one truncated, so ceil(n/8) draws.
  /// The fast path for bulk data whose exact stream nothing pins.
  void fill(std::uint8_t* out, std::size_t n);

 private:
  std::uint64_t s_[4];
};

}  // namespace wsp
