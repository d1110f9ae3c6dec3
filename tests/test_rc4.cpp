#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/rc4.h"
#include "rc4_ref.h"
#include "support/hex.h"
#include "support/random.h"

namespace wsp {
namespace {

std::vector<std::uint8_t> bytes_of(const char* s) {
  return std::vector<std::uint8_t>(s, s + std::string(s).size());
}

TEST(Rc4, ClassicVectors) {
  {
    Rc4 rc4(bytes_of("Key"));
    EXPECT_EQ(to_hex(rc4.process(bytes_of("Plaintext"))), "bbf316e8d940af0ad3");
  }
  {
    Rc4 rc4(bytes_of("Wiki"));
    EXPECT_EQ(to_hex(rc4.process(bytes_of("pedia"))), "1021bf0420");
  }
  {
    Rc4 rc4(bytes_of("Secret"));
    EXPECT_EQ(to_hex(rc4.process(bytes_of("Attack at dawn"))),
              "45a01f645fc35b383552544b9bf5");
  }
}

TEST(Rc4, EncryptDecryptSymmetry) {
  const auto key = bytes_of("sessionkey");
  const auto data = bytes_of("some longer message with structure 1234567890");
  Rc4 enc(key), dec(key);
  EXPECT_EQ(dec.process(enc.process(data)), data);
}

TEST(Rc4, EmptyKeyRejected) {
  EXPECT_THROW(Rc4{std::vector<std::uint8_t>{}}, std::invalid_argument);
}

TEST(Rc4, StreamContinuity) {
  // Processing in two pieces must equal processing at once.
  const auto key = bytes_of("k");
  const auto data = bytes_of("abcdefghij");
  Rc4 whole(key);
  const auto all = whole.process(data);
  Rc4 split(key);
  auto first = split.process(std::vector<std::uint8_t>(data.begin(), data.begin() + 4));
  auto second = split.process(std::vector<std::uint8_t>(data.begin() + 4, data.end()));
  first.insert(first.end(), second.begin(), second.end());
  EXPECT_EQ(first, all);
}

TEST(Rc4, ReferenceMatchesClassicVectors) {
  EXPECT_EQ(to_hex(rc4_ref(bytes_of("Key"), bytes_of("Plaintext"))),
            "bbf316e8d940af0ad3");
  EXPECT_EQ(to_hex(rc4_ref(bytes_of("Secret"), bytes_of("Attack at dawn"))),
            "45a01f645fc35b383552544b9bf5");
}

// Every key length the key schedule's wrapping index treats differently:
// one byte, lengths that do not divide 256, the SSL key length, and keys
// as long as the permutation; then random lengths.
TEST(Rc4, KeyLengthsMatchReference) {
  Rng rng(4001);
  std::vector<std::size_t> lengths = {1, 3, 5, 13, 16, 255, 256};
  for (int i = 0; i < 24; ++i) lengths.push_back(1 + static_cast<std::size_t>(rng.below(256)));
  for (const std::size_t len : lengths) {
    SCOPED_TRACE(len);
    const auto key = rng.bytes(len);
    const auto data = rng.bytes(1500);
    Rc4 fast(key);
    EXPECT_EQ(fast.process(data), rc4_ref(key, data));
  }
}

// One stream of 64 KiB and more cut at random points, some empty: the
// keystream position carried across calls must match one reference pass.
TEST(Rc4, RandomSplitsMatchReference) {
  Rng rng(4002);
  for (int trial = 0; trial < 4; ++trial) {
    const auto key = rng.bytes(16);
    const auto data = rng.bytes(65536 + static_cast<std::size_t>(rng.below(4096)));
    const auto want = rc4_ref(key, data);
    Rc4 fast(key);
    std::vector<std::uint8_t> got = data;
    std::size_t at = 0;
    while (at < got.size()) {
      const std::size_t n =
          std::min<std::size_t>(static_cast<std::size_t>(rng.below(3000)), got.size() - at);
      fast.process(got.data() + at, n);
      at += n;
    }
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

// A copy carries the stream position and then advances on its own: the
// record layer starts its opening direction from a copy of the sealing
// one.
TEST(Rc4, CopyAdvancesIndependently) {
  Rng rng(4003);
  const auto key = rng.bytes(16);
  const auto data = rng.bytes(2000);
  const auto want = rc4_ref(key, data);
  Rc4 source(key);
  std::vector<std::uint8_t> head(data.begin(), data.begin() + 300);
  source.process(head.data(), head.size());
  Rc4 copy = source;
  // The source runs ahead first; the copy must still resume at byte 300.
  std::vector<std::uint8_t> ahead(data.begin() + 300, data.end());
  source.process(ahead.data(), ahead.size());
  std::vector<std::uint8_t> behind(data.begin() + 300, data.end());
  copy.process(behind.data(), behind.size());
  EXPECT_EQ(ahead, std::vector<std::uint8_t>(want.begin() + 300, want.end()));
  EXPECT_EQ(behind, ahead);
  EXPECT_TRUE(std::equal(head.begin(), head.end(), want.begin()));
}

}  // namespace
}  // namespace wsp
