// Multi-buffer (lane-interleaved) DES / 3DES-EDE CBC kernels.
//
// Same shape as aes_mb.h: each lane is one independent CBC stream, the
// Feistel round loop advances all lanes of a group in lockstep, and the
// compile-time `Lanes` width (1/2/4/8) is selected at runtime.  The rounds
// are des.h's table-driven ones (fast E, IP/FP scatter tables, fused 3DES),
// the same code the scalar des::encrypt_block / encrypt_block_3des run, so
// the lane width is the only difference between the two paths.
//
// Bit-identical to des::encrypt_cbc / decrypt_cbc and the 3DES-EDE CBC
// composition used by ssl::SecureChannel; proven differentially in
// tests/test_crypto_batch.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "des.h"

namespace wsp::des_mb {

inline constexpr unsigned kMaxLanes = 8;

/// One independent CBC stream.  Exactly one of `ks` (single DES) or `ks3`
/// (3DES-EDE) must be set for a live lane; `ks3` wins if both are.
/// `chain` is the 8-byte IV on entry, the CBC residue (last ciphertext
/// block) on exit.  `in`/`out` may alias exactly, not partially.
struct CbcLane {
  const des::KeySchedule* ks = nullptr;
  const des::TripleKeySchedule* ks3 = nullptr;
  const std::uint8_t* in = nullptr;
  std::uint8_t* out = nullptr;
  std::size_t blocks = 0;     ///< whole 8-byte blocks
  std::uint8_t* chain = nullptr;  ///< 8-byte IV in / residue out
};

/// Compile-time-width kernels; `n` may be smaller than `Lanes`.  Single-DES
/// and 3DES lanes may be mixed (they are partitioned internally).
template <int Lanes>
void encrypt_cbc(CbcLane* lanes, std::size_t n);
template <int Lanes>
void decrypt_cbc(CbcLane* lanes, std::size_t n);

/// Runtime-width entry points; validation as in aes_mb.
void encrypt_cbc(CbcLane* lanes, std::size_t n, unsigned lane_width);
void decrypt_cbc(CbcLane* lanes, std::size_t n, unsigned lane_width);

}  // namespace wsp::des_mb
