// RC4 stream cipher — the lightweight cipher-suite option in the SSL model
// (SSL_RSA_WITH_RC4_128_* suites were the common low-end handset choice).
#pragma once

#include <cstdint>
#include <vector>

namespace wsp {

class Rc4 {
 public:
  explicit Rc4(const std::vector<std::uint8_t>& key);

  /// XORs the keystream into `data` in place (encrypt == decrypt).
  void process(std::uint8_t* data, std::size_t n);
  std::vector<std::uint8_t> process(const std::vector<std::uint8_t>& data);

 private:
  // The permutation holds byte values in 32-bit words: indexing and the
  // swap then need no byte loads/stores or zero-extensions, which is what
  // the keystream loop spends its time on.  Copying an Rc4 copies the
  // whole stream position, so a copy advances independently of its source.
  std::uint32_t s_[256];
  std::uint32_t i_ = 0, j_ = 0;
};

}  // namespace wsp
