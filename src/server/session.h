// One secure session's connection lifecycle, driven by the real
// ssl::SecureChannel / handshake code:
//
//   kPending ──handshake()──► kEstablished ──teardown()──► kClosed
//        │                        │  ▲   │
//        │ (budget exhausted)     │  │   │ (repair exhausted)
//        └──────────► kAborted ◄──┘  │   │
//                         ▲   pump() │   │ rekey()
//                         └──────────┴───┘
//
// Every operation validates the state machine and throws on misuse
// (handshake twice, records before keys, rekey after teardown, ...), which
// is what the tier-1 lifecycle tests pin down.  All randomness — record
// payloads, handshake nonces, rekey nonces — comes from a per-session Rng
// seeded at construction, so a session's byte totals are a pure function of
// its SessionConfig regardless of which worker thread runs it.
//
// Fault recovery (docs/faults.md): when the SessionConfig carries a
// FaultSchedule, scheduled records are corrupted on the wire and the repair
// ladder engages — retransmit up to `record_retry_budget` times, then
// rekey() to re-derive channels (healing CBC chaining / sequence desync the
// tampered record left behind), then abort with a typed SessionError.
// Stream-cipher sessions typically heal on plain retransmit; CBC sessions
// need the rekey leg.  Every step is deterministic per session.
//
// Memory layout (million-session data plane): the Session object itself is
// the HOT block — config, state, Rng and accounting, a flat POD-ish struct
// the SessionTable packs densely into slab slots.  Key material (the
// ssl::Handshake: two channels + master secret) is the COLD block, heap-
// allocated behind one pointer only while the session is established, so a
// large admitted-but-pending backlog costs hot blocks only.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

#include "server/faults.h"
#include "ssl/ssl.h"

namespace wsp::server {

enum class SessionState { kPending, kEstablished, kClosed, kAborted };

const char* to_string(SessionState s);

struct SessionConfig {
  std::uint64_t id = 0;
  ssl::Cipher cipher = ssl::Cipher::kRc4;
  std::size_t transaction_bytes = 0;  ///< application payload to transfer
  std::size_t record_bytes = 1024;    ///< payload bytes per record
  std::uint64_t seed = 0;             ///< per-session Rng seed
  FaultSchedule faults;               ///< benign by default
};

class Session {
 public:
  explicit Session(const SessionConfig& cfg);

  std::uint64_t id() const { return cfg_.id; }
  ssl::Cipher cipher() const { return cfg_.cipher; }
  SessionState state() const { return state_; }

  /// Runs the real RSA key-exchange handshake against `server_key` and
  /// enters kEstablished.  Throws std::logic_error unless kPending.
  /// While the fault schedule says this attempt fails, the premaster is
  /// corrupted on the wire and a SessionError(kHandshakeFailed) is thrown;
  /// the session stays kPending so the caller may retry (with backoff) up
  /// to its budget.
  void handshake(const rsa::PrivateKey& server_key, ModexpEngine& client_engine,
                 ModexpEngine& server_engine);

  /// Abbreviated (session-resumption) handshake: no RSA key exchange — the
  /// two sides share a cached master secret, re-derived here from the
  /// per-session Rng, and only hellos + Finished cross the wire
  /// (kResumedHandshakeBytes).  Same state machine and fault semantics as
  /// handshake(): throws SessionError(kHandshakeFailed) while the fault
  /// schedule says the attempt fails (ticket rejected), session stays
  /// kPending for retry.  This is what makes 10^5..10^6-session scale runs
  /// tractable: record-layer costs dominate instead of RSA.
  void resume();

  /// Seals and opens up to `max_records` records of the transaction stream
  /// (client seals, server opens).  Scheduled wire faults corrupt records
  /// in transit; verification failure engages the repair ladder
  /// (retransmit -> rekey -> abort).  Returns the wire bytes moved,
  /// retransmissions included.  Throws std::logic_error unless
  /// kEstablished, SessionError(kAborted) when repair is exhausted.
  std::size_t pump(std::size_t max_records);

  /// True once the whole transaction payload has been transferred.
  bool finished() const { return bytes_sent_ >= cfg_.transaction_bytes; }

  /// Rederives fresh record keys from the handshake's master secret
  /// (kdf_ssl3 over new nonces) and swaps in new channels; the record
  /// stream continues under the new keys.  Throws std::logic_error unless
  /// kEstablished — in particular, rekeying a torn-down session is
  /// rejected, never silently re-opened.
  void rekey();

  /// kPending/kEstablished -> kClosed; idempotent on kClosed and on
  /// kAborted (an aborted session is already torn down).
  void teardown();

  /// Drops key material and enters the terminal kAborted state, from any
  /// state but kClosed (idempotent on kAborted; no-op on kClosed).
  void abort();

  // Deterministic per-session accounting.
  std::uint64_t wire_bytes() const { return wire_bytes_; }
  std::uint64_t records() const { return records_; }
  std::uint64_t handshake_bytes() const { return handshake_bytes_; }
  std::uint32_t rekeys() const { return rekeys_; }
  std::uint32_t retries() const { return retries_; }       ///< retransmissions
  std::uint32_t repairs() const { return repairs_; }       ///< rekey repairs
  std::uint32_t faults_seen() const { return faults_seen_; }
  std::uint32_t handshake_attempts() const { return handshake_attempts_; }

  /// Wire bytes of the abbreviated handshake resume() models (hellos with
  /// session id + both Finished messages).
  static constexpr std::size_t kResumedHandshakeBytes = 128;

  /// Size of the out-of-line cold block an established session carries —
  /// the structural term the memory-per-session accounting charges per
  /// slot on top of the hot block (see SessionTable::bytes_per_session).
  static constexpr std::size_t cold_bytes() { return sizeof(ssl::Handshake); }

 private:
  void require(SessionState expected, const char* op) const;

  /// Applies the scheduled wire tamper (if any) for `record`/`attempt` to a
  /// sealed record and returns the next attempt number.
  unsigned tamper_wire(std::vector<std::uint8_t>& wire, std::uint64_t record,
                       bool poisoned, unsigned& flips_left, unsigned attempt);

  /// Continues one record's transfer after `failures` failed attempts:
  /// the ladder decision (retransmit / rekey / abort) followed by a
  /// re-seal + re-open, looping until delivery.  Returns the wire bytes it
  /// moved.
  std::size_t repair_transfer(const std::vector<std::uint8_t>& payload,
                              std::uint64_t record, bool poisoned,
                              unsigned flips_left, unsigned attempt,
                              unsigned failures);

  /// Derives a fresh {client_write, server_write} channel pair from
  /// `master` via fresh nonces + kdf_ssl3 (the SSLv3 key-block split).
  /// Shared by rekey() and resume(); no wire/byte accounting here.
  std::pair<ssl::SecureChannel, ssl::SecureChannel> derive_channel_pair(
      const std::vector<std::uint8_t>& master);

  SessionConfig cfg_;
  SessionState state_ = SessionState::kPending;
  Rng rng_;
  std::unique_ptr<ssl::Handshake> keys_;  ///< cold block: channels + master secret
  std::size_t bytes_sent_ = 0;
  std::uint64_t wire_bytes_ = 0;
  std::uint64_t handshake_bytes_ = 0;
  std::uint64_t records_ = 0;
  std::uint32_t rekeys_ = 0;
  std::uint32_t retries_ = 0;
  std::uint32_t repairs_ = 0;
  std::uint32_t faults_seen_ = 0;
  std::uint32_t handshake_attempts_ = 0;
};

}  // namespace wsp::server
