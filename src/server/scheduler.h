// Batched record scheduler: bounded lock-free per-shard work queues drained
// by single-shard "pump" tasks on the shared support::ThreadPool.
//
// Per shard there is at most ONE pump task in flight at a time (an atomic
// pump-active flag handed off with exchange()), so all work for a shard
// executes in FIFO order on one worker — this is what lets the SessionTable
// hand out unsynchronized Session pointers, it keeps a session's record
// sequence numbers consistent without per-record locks, and it makes the
// items a shard has finished a prefix of its external pushes (the
// DataPlane's checkpoint cuts rely on that, docs/recovery.md §1).  Different
// shards pump concurrently on different workers.
//
// The queue itself is a support::MpscRing (Vyukov bounded ring): push and
// pop are wait-free single-CAS operations, so at million-session scale the
// producer never serializes against the pump on a queue mutex.  A mutex +
// condvar pair exists per shard but only on the backpressure SLOW path.
//
// Flow control is explicit and two-sided:
//   * admission control (deciding whether a session is accepted at all, and
//     drop accounting) lives in the Engine's deterministic virtual-time
//     model — the scheduler never silently discards work;
//   * push() applies *backpressure*: when a shard's ring is full the
//     producing thread blocks until the pump drains a batch, which bounds
//     queue memory no matter how fast arrivals are generated.
//
// Re-entrant pushes: a work item MAY push more work, including into its own
// shard.  A pump thread never blocks on a full ring — blocking on its own
// shard would self-deadlock (the pump is the only thing that frees space),
// and blocking on another shard could deadlock through a pump cycle.
// Instead the item is spilled to the shard's overflow list (counted in
// `overflow_spills`) and drained by the pump after the ring.  Overflow
// memory is bounded by the work a single pump invocation generates, not by
// the arrival rate.
//
// Fault containment: an item that exits by exception is counted in `failed`
// and the pump keeps draining — one poisoned session can never wedge its
// shard, strand the remaining queue entries, or deadlock a producer blocked
// in push().  Callers that need the error itself must catch it inside the
// submitted closure (the Engine does exactly that and converts
// SessionErrors into abort accounting before they reach here).
//
// Counters are lock-free atomics; counters() may be called concurrently
// with a run but only settles once drain() has returned.  Every entry point
// validates its shard index and throws std::out_of_range on a bad one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "support/mpsc_ring.h"
#include "support/threadpool.h"

namespace wsp::server {

struct ShardCounters {
  std::uint64_t enqueued = 0;
  std::uint64_t executed = 0;
  std::uint64_t failed = 0;            ///< items that exited by exception
  std::uint64_t batches = 0;           ///< pump invocations that ran >= 1 item
  std::uint64_t backpressure_waits = 0;  ///< pushes that had to block
  std::uint64_t overflow_spills = 0;   ///< re-entrant pushes past a full ring
  std::size_t peak_depth = 0;          ///< ring high-water mark (approximate)
};

class RecordScheduler {
 public:
  /// `capacity` bounds each shard's ring (rounded up to a power of two);
  /// `batch` caps the items one pump iteration drains before re-checking.
  RecordScheduler(ThreadPool& pool, unsigned shards, std::size_t capacity,
                  std::size_t batch = 8);

  unsigned shard_count() const { return static_cast<unsigned>(shards_.size()); }
  std::size_t capacity() const { return capacity_; }

  /// Enqueues work on `shard`, blocking while the shard ring is full
  /// (backpressure) — except from a pump thread of this scheduler, where a
  /// full ring spills to the overflow list instead (see header comment).
  /// Spawns the shard's pump task if none is running.  Throws
  /// std::out_of_range on an invalid shard index.
  void push(unsigned shard, std::function<void()> work);

  /// Blocks until every shard queue is empty and all pumps have exited.
  /// Only the pushing thread may call this, after its last push().
  void drain();

  /// Counter snapshot (stable once drain() has returned).  Throws
  /// std::out_of_range on an invalid shard index.
  ShardCounters counters(unsigned shard) const;

 private:
  using Work = std::function<void()>;

  struct Shard {
    explicit Shard(std::size_t capacity) : ring(capacity) {}

    support::MpscRing<Work> ring;
    std::atomic<bool> pump_active{false};

    // Slow paths only: backpressure waiting and re-entrant overflow.
    std::mutex mutex;
    std::condition_variable space;
    std::size_t waiters = 0;    ///< producers blocked in push(); guarded by mutex
    std::deque<Work> overflow;  ///< guarded by mutex
    std::atomic<std::size_t> overflow_size{0};  ///< lock-free emptiness probe

    // Counters (ShardCounters mirrors these).
    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> backpressure_waits{0};
    std::atomic<std::uint64_t> overflow_spills{0};
    std::atomic<std::size_t> peak_depth{0};
  };

  /// Validates a shard index; throws std::out_of_range (the same contract
  /// as Cpu::ur's range check: a bad index faults, it never aliases).
  Shard& shard_at(unsigned shard) const;

  void maybe_start_pump(unsigned index, Shard& s);
  void pump(unsigned index);

  ThreadPool& pool_;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< stable addresses
  std::size_t capacity_;
  std::size_t batch_;
};

}  // namespace wsp::server
