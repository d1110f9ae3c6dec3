// One platform, three protocol layers — the paper's core flexibility
// argument (Sec. 1): the same programmable security processor must serve
// WEP at the link layer, IPsec ESP at the network layer and SSL at the
// transport layer simultaneously.  This example protects the same message
// at all three layers with the library's real cryptography.
//
//   $ ./examples/protocols
#include <cstdio>
#include <string>

#include "ssl/esp.h"
#include "ssl/ssl.h"
#include "ssl/wep.h"
#include "support/hex.h"

int main() {
  using namespace wsp;
  std::printf("wsp multi-protocol demo: WEP / IPsec-ESP / SSL\n\n");

  Rng rng(99);
  const std::string text = "handset telemetry frame #42";
  const std::vector<std::uint8_t> payload(text.begin(), text.end());

  // --- link layer: WEP ------------------------------------------------------
  const auto wep_key = rng.bytes(13);
  const auto frame = wep::seal(payload, wep_key, rng);
  std::printf("[WEP]  iv=%06x  %zu -> %zu bytes, ct head %s...\n", frame.iv,
              payload.size(), frame.ciphertext.size(),
              to_hex(frame.ciphertext).substr(0, 16).c_str());
  std::printf("       round trip: %s\n",
              wep::open(frame, wep_key) == payload ? "ok" : "FAILED");

  // --- network layer: IPsec ESP ---------------------------------------------
  const auto esp_enc_key = rng.bytes(24);
  const auto esp_auth_key = rng.bytes(20);
  esp::Sa sa(0xC0DE, esp_enc_key, esp_auth_key);
  const auto packet = esp::seal(sa, payload, rng);
  std::uint32_t seq = 0;
  const auto esp_plain = esp::open(sa, packet, &seq);
  std::printf("[ESP]  spi=%04x seq=%u  %zu -> %zu bytes (3DES-CBC + "
              "HMAC-SHA1-96)\n",
              sa.spi, seq, payload.size(), packet.size());
  std::printf("       round trip: %s\n", esp_plain == payload ? "ok" : "FAILED");

  // --- transport layer: SSL ---------------------------------------------------
  const auto server_key = rsa::generate_key(512, rng);
  ModexpEngine ce{ModexpConfig{}}, se{ModexpConfig{}};
  auto hs = ssl::perform_handshake(server_key, ssl::Cipher::kAes128Cbc, ce, se, rng);
  const auto record = hs.client_write.seal(payload);
  std::printf("[SSL]  handshake %zu wire bytes; record %zu -> %zu bytes "
              "(AES-128-CBC + HMAC-SHA1)\n",
              hs.handshake_bytes, payload.size(), record.size());
  std::printf("       round trip: %s\n",
              hs.client_write.open(record) == payload ? "ok" : "FAILED");

  std::printf("\nAll three stacks run on the same crypto substrate — the "
              "programmability the\npaper trades against raw ASIC "
              "efficiency.\n");
  return 0;
}
