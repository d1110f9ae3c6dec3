// The byte-state RC4 the library shipped before its 32-bit-state rewrite,
// kept verbatim as the test oracle (as test_hash.cpp keeps sha1_ref and
// md5_ref): a uint8_t permutation, i/j as members, and the key schedule's
// key[i % key.size()].  Shared by the RC4 differential tests and the SSL
// record-layer oracle.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace wsp {

class Rc4Ref {
 public:
  explicit Rc4Ref(const std::vector<std::uint8_t>& key) {
    if (key.empty()) throw std::invalid_argument("rc4: empty key");
    for (int i = 0; i < 256; ++i) s_[i] = static_cast<std::uint8_t>(i);
    std::uint8_t j = 0;
    for (int i = 0; i < 256; ++i) {
      j = static_cast<std::uint8_t>(j + s_[i] + key[static_cast<std::size_t>(i) % key.size()]);
      std::swap(s_[i], s_[j]);
    }
  }

  void process(std::uint8_t* data, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      i_ = static_cast<std::uint8_t>(i_ + 1);
      j_ = static_cast<std::uint8_t>(j_ + s_[i_]);
      std::swap(s_[i_], s_[j_]);
      data[k] ^= s_[static_cast<std::uint8_t>(s_[i_] + s_[j_])];
    }
  }

  std::vector<std::uint8_t> process(const std::vector<std::uint8_t>& data) {
    std::vector<std::uint8_t> out = data;
    process(out.data(), out.size());
    return out;
  }

 private:
  std::uint8_t s_[256];
  std::uint8_t i_ = 0, j_ = 0;
};

/// One-shot oracle: `data` XOR'd with the first data.size() keystream bytes.
inline std::vector<std::uint8_t> rc4_ref(const std::vector<std::uint8_t>& key,
                                         const std::vector<std::uint8_t>& data) {
  return Rc4Ref(key).process(data);
}

}  // namespace wsp
