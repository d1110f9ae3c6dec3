// Tier-1 tests for the secure-session server: the per-connection lifecycle
// state machine (driven by the real handshake/record code), the sharded
// session table, the bounded scheduler, and an engine smoke run.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "server/engine.h"
#include "server/session_table.h"

namespace wsp {
namespace {

using server::Session;
using server::SessionConfig;
using server::SessionState;

// One shared small server key: generation dominates the test's cost.
const rsa::PrivateKey& server_key() {
  static const rsa::PrivateKey key = [] {
    Rng rng(601);
    return rsa::generate_key(512, rng);
  }();
  return key;
}

SessionConfig small_session(std::uint64_t id, ssl::Cipher cipher,
                            std::size_t bytes) {
  SessionConfig cfg;
  cfg.id = id;
  cfg.cipher = cipher;
  cfg.transaction_bytes = bytes;
  cfg.record_bytes = 256;
  cfg.seed = 0xABCD0000 + id;
  return cfg;
}

void establish(Session& s) {
  ModexpEngine client{ModexpConfig{}}, server{ModexpConfig{}};
  s.handshake(server_key(), client, server);
}

TEST(ServerSession, LifecycleHappyPath) {
  Session s(small_session(1, ssl::Cipher::kAes128Cbc, 600));
  EXPECT_EQ(s.state(), SessionState::kPending);
  EXPECT_EQ(s.wire_bytes(), 0u);

  establish(s);
  EXPECT_EQ(s.state(), SessionState::kEstablished);
  EXPECT_GT(s.handshake_bytes(), 100u);
  EXPECT_FALSE(s.finished());

  // 600 bytes in 256-byte records: 3 records, the last short.
  std::size_t moved = s.pump(100);
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(s.records(), 3u);
  EXPECT_GT(moved, 600u);  // MAC + padding overhead on the wire
  EXPECT_EQ(s.wire_bytes(), s.handshake_bytes() + moved);

  s.teardown();
  EXPECT_EQ(s.state(), SessionState::kClosed);
  s.teardown();  // idempotent
  EXPECT_EQ(s.state(), SessionState::kClosed);
}

TEST(ServerSession, PumpIsBatchedAndResumable) {
  Session s(small_session(2, ssl::Cipher::kRc4, 1000));
  establish(s);
  EXPECT_GT(s.pump(2), 0u);  // 2 of 4 records
  EXPECT_FALSE(s.finished());
  EXPECT_EQ(s.records(), 2u);
  s.pump(2);
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(s.records(), 4u);
  EXPECT_EQ(s.pump(4), 0u);  // nothing left: allowed, moves no bytes
}

TEST(ServerSession, ZeroByteTransactionFinishesAtHandshake) {
  Session s(small_session(3, ssl::Cipher::kRc4, 0));
  establish(s);
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(s.pump(8), 0u);
  EXPECT_EQ(s.records(), 0u);
}

TEST(ServerSession, StateMachineRejectsMisuse) {
  Session s(small_session(4, ssl::Cipher::kTripleDesCbc, 512));
  // Records and rekeys need keys.
  EXPECT_THROW(s.pump(1), std::logic_error);
  EXPECT_THROW(s.rekey(), std::logic_error);

  establish(s);
  // Double handshake is a protocol violation.
  ModexpEngine ce{ModexpConfig{}}, se{ModexpConfig{}};
  EXPECT_THROW(s.handshake(server_key(), ce, se), std::logic_error);
}

TEST(ServerSession, RekeyContinuesStreamAndIsRejectedAfterTeardown) {
  Session s(small_session(5, ssl::Cipher::kAes128Cbc, 1024));
  establish(s);
  s.pump(1);
  const auto before = s.wire_bytes();
  s.rekey();
  EXPECT_EQ(s.rekeys(), 1u);
  EXPECT_GT(s.wire_bytes(), before);  // rekey nonces hit the wire
  s.pump(100);                        // stream continues under new keys
  EXPECT_TRUE(s.finished());

  s.teardown();
  // A torn-down connection must never be re-keyed back to life.
  EXPECT_THROW(s.rekey(), std::logic_error);
  EXPECT_THROW(s.pump(1), std::logic_error);
  ModexpEngine ce{ModexpConfig{}}, se{ModexpConfig{}};
  EXPECT_THROW(s.handshake(server_key(), ce, se), std::logic_error);
}

TEST(ServerSession, ByteTotalsAreSeedDeterministic) {
  auto run = [] {
    Session s(small_session(6, ssl::Cipher::kTripleDesCbc, 900));
    establish(s);
    s.pump(100);
    s.teardown();
    return s.wire_bytes();
  };
  EXPECT_EQ(run(), run());
}

TEST(ServerTable, InsertFindEraseAcrossShards) {
  server::SessionTable table(4);
  EXPECT_EQ(table.shard_count(), 4u);
  for (std::uint64_t id = 0; id < 12; ++id) {
    const auto ins = table.insert(small_session(id, ssl::Cipher::kRc4, 64));
    ASSERT_NE(ins.session, nullptr);
    EXPECT_EQ(ins.session->id(), id);
    EXPECT_EQ(ins.handle.id, id);
    EXPECT_EQ(table.shard_of(id), id % 4);
  }
  EXPECT_EQ(table.size(), 12u);
  EXPECT_EQ(table.peak_size(), 12u);

  ASSERT_NE(table.find(7), nullptr);
  EXPECT_EQ(table.find(7)->id(), 7u);
  EXPECT_EQ(table.find(99), nullptr);

  EXPECT_TRUE(table.erase(7));
  EXPECT_FALSE(table.erase(7));
  EXPECT_EQ(table.find(7), nullptr);
  EXPECT_EQ(table.size(), 11u);
  EXPECT_EQ(table.peak_size(), 12u);  // high-water mark sticks

  EXPECT_THROW(table.insert(small_session(3, ssl::Cipher::kRc4, 64)),
               std::logic_error);
}

TEST(ServerTable, HandlesGoStaleOnEraseAndSlotReuse) {
  server::SessionTable table(2);
  const auto a = table.insert(small_session(10, ssl::Cipher::kRc4, 64));
  EXPECT_EQ(table.get(a.handle), a.session);

  EXPECT_TRUE(table.erase(a.handle));
  EXPECT_EQ(table.get(a.handle), nullptr);   // stale, not dangling
  EXPECT_FALSE(table.erase(a.handle));       // double-erase refused
  EXPECT_EQ(table.size(), 0u);

  // A new session reuses the freed slot (same shard: 12 % 2 == 10 % 2);
  // the old handle's generation no longer matches, so it stays stale
  // instead of aliasing the new tenant.
  const auto b = table.insert(small_session(12, ssl::Cipher::kRc4, 64));
  EXPECT_EQ(table.get(a.handle), nullptr);
  ASSERT_NE(table.get(b.handle), nullptr);
  EXPECT_EQ(table.get(b.handle)->id(), 12u);
}

TEST(ServerTable, ChurnKeepsIndexAndAccountingExact) {
  // Insert/erase waves across slot reuse: the flat index's backward-shift
  // deletion and the slab free list must agree with find()/size() exactly.
  server::SessionTable table(3);
  std::size_t live = 0;
  for (std::uint64_t wave = 0; wave < 4; ++wave) {
    for (std::uint64_t i = 0; i < 30; ++i) {
      table.insert(small_session(wave * 1000 + i, ssl::Cipher::kRc4, 0));
      ++live;
    }
    for (std::uint64_t i = 0; i < 30; i += 2) {
      EXPECT_TRUE(table.erase(wave * 1000 + i));
      --live;
    }
    EXPECT_EQ(table.size(), live);
    for (std::uint64_t i = 0; i < 30; ++i) {
      Session* s = table.find(wave * 1000 + i);
      if (i % 2 == 0) {
        EXPECT_EQ(s, nullptr);
      } else {
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->id(), wave * 1000 + i);
      }
    }
  }
  // Each wave nets +15 live; the peak lands in the last wave's insert
  // burst: 45 survivors + 30 new.
  EXPECT_EQ(table.peak_size(), 75u);
  EXPECT_GT(table.bytes_reserved(), 0u);
  EXPECT_GT(server::SessionTable::bytes_per_session(), sizeof(Session));
}

TEST(ServerScheduler, ExecutesFifoPerShardWithBoundedQueue) {
  ThreadPool pool(2);
  server::RecordScheduler sched(pool, 2, /*capacity=*/4, /*batch=*/3);
  std::vector<int> order;  // only shard 0 writes: FIFO check needs no lock
  for (int i = 0; i < 20; ++i) {
    sched.push(0, [i, &order] { order.push_back(i); });
  }
  sched.drain();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  const auto counters = sched.counters(0);
  EXPECT_EQ(counters.enqueued, 20u);
  EXPECT_EQ(counters.executed, 20u);
  EXPECT_LE(counters.peak_depth, 4u);  // bounded despite 20 pushes
  EXPECT_GE(counters.batches, 20u / 3u);
}

TEST(ServerScheduler, ShardIndexIsBoundsChecked) {
  ThreadPool pool(1);
  server::RecordScheduler sched(pool, 2, /*capacity=*/4);
  EXPECT_THROW(sched.push(2, [] {}), std::out_of_range);
  EXPECT_THROW(sched.push(7, [] {}), std::out_of_range);
  EXPECT_THROW(sched.counters(2), std::out_of_range);
  // Valid indices still work after the rejected calls.
  sched.push(1, [] {});
  sched.drain();
  EXPECT_EQ(sched.counters(1).executed, 1u);
  EXPECT_EQ(sched.counters(0).enqueued, 0u);
}

TEST(ServerScheduler, ReentrantPushFromPumpSpillsInsteadOfDeadlocking) {
  // Regression: a work item pushing into its own FULL shard used to block
  // on the backpressure condvar from the pump thread — and the pump is the
  // only thing that frees space, so the shard deadlocked.  Re-entrant
  // pushes must spill and complete instead.
  ThreadPool pool(1);
  server::RecordScheduler sched(pool, 1, /*capacity=*/2, /*batch=*/1);
  std::atomic<int> ran{0};
  sched.push(0, [&sched, &ran] {
    // 8 pushes into a ring of 2 from inside the pump: guaranteed overflow.
    for (int i = 0; i < 8; ++i) {
      sched.push(0, [&ran] { ran.fetch_add(1); });
    }
    ran.fetch_add(1);
  });
  sched.drain();
  EXPECT_EQ(ran.load(), 9);
  const auto counters = sched.counters(0);
  EXPECT_EQ(counters.enqueued, 9u);
  EXPECT_EQ(counters.executed, 9u);
  EXPECT_GT(counters.overflow_spills, 0u);
  EXPECT_EQ(counters.failed, 0u);
}

TEST(ServerSession, ResumeSkipsKeyExchangeAndStreamsRecords) {
  Session s(small_session(21, ssl::Cipher::kAes128Cbc, 600));
  s.resume();
  EXPECT_EQ(s.state(), SessionState::kEstablished);
  EXPECT_EQ(s.handshake_bytes(), Session::kResumedHandshakeBytes);

  const std::size_t moved = s.pump(100);
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(s.records(), 3u);
  EXPECT_GT(moved, 600u);  // MAC + padding overhead on the wire
  EXPECT_EQ(s.wire_bytes(), s.handshake_bytes() + moved);

  // Rekey works from the resumed master secret, and the state machine is
  // the same one: double-resume and resume-after-teardown are rejected.
  s.rekey();
  EXPECT_EQ(s.rekeys(), 1u);
  EXPECT_THROW(s.resume(), std::logic_error);
  s.teardown();
  EXPECT_THROW(s.resume(), std::logic_error);
}

TEST(ServerSession, ResumedByteTotalsAreSeedDeterministic) {
  auto run = [] {
    Session s(small_session(22, ssl::Cipher::kRc4, 900));
    s.resume();
    s.pump(100);
    s.teardown();
    return s.wire_bytes();
  };
  EXPECT_EQ(run(), run());
}

TEST(ServerEngine, SmokeRunAccountsEverySession) {
  server::EngineConfig cfg;
  cfg.threads = 1;
  cfg.shards = 2;
  server::TrafficScenario scenario;
  scenario.seed = 9;
  scenario.record_bytes = 512;
  server::TrafficPhase ph;
  ph.sessions = 10;
  ph.offered_load = 0.8;
  ph.cipher_mix = {{ssl::Cipher::kRc4, 1}, {ssl::Cipher::kAes128Cbc, 1}};
  ph.size_mix = {{512, 1}, {1024, 1}};
  scenario.phases = {ph};

  server::Engine engine(cfg);
  const auto rep = engine.run(scenario);
  EXPECT_EQ(rep.offered, 10u);
  EXPECT_EQ(rep.admitted + rep.dropped, rep.offered);
  EXPECT_EQ(rep.completed, rep.admitted);  // every admitted session executes
  EXPECT_GT(rep.completed, 0u);
  EXPECT_GT(rep.wire_bytes, rep.completed * 512);
  EXPECT_GT(rep.records, 0u);
  EXPECT_GT(rep.latency.p50, 0.0);
  EXPECT_GE(rep.latency.p99, rep.latency.p50);
  EXPECT_GE(rep.latency.max, rep.latency.p99);
  EXPECT_GT(rep.makespan_cycles, 0.0);
  EXPECT_GT(rep.throughput_per_gcycle, 0.0);
  EXPECT_GT(rep.equivalent_speedup, 1.0);  // optimized platform is faster
  EXPECT_GT(rep.peak_sessions, 0u);
  ASSERT_EQ(rep.shards.size(), 2u);
  std::uint64_t shard_admitted = 0, shard_bytes = 0;
  for (const auto& s : rep.shards) {
    shard_admitted += s.admitted;
    shard_bytes += s.wire_bytes;
  }
  EXPECT_EQ(shard_admitted, rep.admitted);
  EXPECT_EQ(shard_bytes, rep.wire_bytes);
}

TEST(ServerEngine, ResumeModeCompletesAndReportsMemory) {
  server::EngineConfig cfg;
  cfg.threads = 1;
  cfg.shards = 2;
  server::TrafficScenario scenario;
  scenario.seed = 11;
  scenario.record_bytes = 256;
  server::TrafficPhase ph;
  ph.sessions = 40;
  ph.offered_load = 0.8;
  ph.resume_fraction = 1.0;  // every session resumes
  ph.cipher_mix = {{ssl::Cipher::kRc4, 1}};
  ph.size_mix = {{256, 1}, {512, 1}};
  scenario.phases = {ph};

  server::Engine engine(cfg);
  const auto rep = engine.run(scenario);
  EXPECT_EQ(rep.offered, 40u);
  EXPECT_EQ(rep.completed + rep.aborted + rep.dropped, rep.offered);
  EXPECT_GT(rep.completed, 0u);
  EXPECT_GT(rep.throughput_per_gcycle, 0.0);
  EXPECT_EQ(rep.memory_per_session, server::SessionTable::bytes_per_session());
  // Resumed sessions skip both RSA operations, so their platform-equivalent
  // speedup reflects record-layer acceleration only — well under the full
  // handshake's, but still > 1.
  EXPECT_GT(rep.equivalent_speedup, 1.0);
}

TEST(ServerEngine, AutoShardCountScalesWithHardware) {
  server::EngineConfig cfg;  // shards defaults to 0 = auto
  server::Engine engine(cfg);
  EXPECT_GE(engine.config().shards, 1u);
  EXPECT_LE(engine.config().shards, 64u);
}

TEST(ServerEngine, CalibratedCostsOrdering) {
  const auto base = server::calibrated_costs(server::Pricing::kBase);
  const auto opt = server::calibrated_costs(server::Pricing::kOptimized);
  EXPECT_GT(base.rsa_private_cycles, opt.rsa_private_cycles);
  EXPECT_GT(base.symmetric_cycles_per_byte, opt.symmetric_cycles_per_byte);
  // The unaccelerated misc share is identical by construction.
  EXPECT_EQ(base.hash_cycles_per_byte, opt.hash_cycles_per_byte);
  EXPECT_EQ(base.handshake_misc_cycles, opt.handshake_misc_cycles);
}

}  // namespace
}  // namespace wsp
