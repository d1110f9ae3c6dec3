#include "server/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/trace.h"

namespace wsp::server {

namespace {

// Identifies pump threads of a specific scheduler instance so push() can
// detect re-entrancy.  A pointer (not a bool) because two schedulers may
// coexist: a pump of scheduler A pushing into scheduler B is an ordinary
// external producer for B.
thread_local const RecordScheduler* t_pump_owner = nullptr;

class PumpScope {
 public:
  explicit PumpScope(const RecordScheduler* owner) : saved_(t_pump_owner) {
    t_pump_owner = owner;
  }
  ~PumpScope() { t_pump_owner = saved_; }
  PumpScope(const PumpScope&) = delete;
  PumpScope& operator=(const PumpScope&) = delete;

 private:
  const RecordScheduler* saved_;
};

void bump_peak(std::atomic<std::size_t>& peak, std::size_t depth) {
  std::size_t prev = peak.load(std::memory_order_relaxed);
  while (depth > prev &&
         !peak.compare_exchange_weak(prev, depth, std::memory_order_relaxed)) {
  }
}

}  // namespace

RecordScheduler::RecordScheduler(ThreadPool& pool, unsigned shards,
                                 std::size_t capacity, std::size_t batch)
    : pool_(pool), batch_(std::max<std::size_t>(1, batch)) {
  const unsigned count = std::max(1u, shards);
  shards_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(std::max<std::size_t>(1, capacity)));
  }
  capacity_ = shards_.front()->ring.capacity();
}

RecordScheduler::Shard& RecordScheduler::shard_at(unsigned shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("RecordScheduler: shard index " +
                            std::to_string(shard) + " out of range (" +
                            std::to_string(shards_.size()) + " shards)");
  }
  return *shards_[shard];
}

void RecordScheduler::push(unsigned shard, std::function<void()> work) {
  Shard& s = shard_at(shard);

  if (!s.ring.try_push(work)) {
    if (t_pump_owner == this) {
      // Re-entrant push from one of our own pumps.  Blocking here would
      // self-deadlock (own shard) or risk a pump-cycle deadlock (another
      // shard), so spill to the overflow list instead.
      {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.overflow.push_back(std::move(work));
        s.overflow_size.store(s.overflow.size(), std::memory_order_release);
      }
      s.overflow_spills.fetch_add(1, std::memory_order_relaxed);
      WSP_TRACE_INSTANT("server.sched",
                        "overflow_spill/shard" + std::to_string(shard));
    } else {
      // External producer: block until the pump frees a cell.  The waiters
      // count is read by the pump under this same mutex, so the pump can
      // never both miss a registered waiter and skip the notify.
      s.backpressure_waits.fetch_add(1, std::memory_order_relaxed);
      WSP_TRACE_INSTANT("server.sched",
                        "backpressure/shard" + std::to_string(shard));
      std::unique_lock<std::mutex> lock(s.mutex);
      ++s.waiters;
      s.space.wait(lock, [&] { return s.ring.try_push(work); });
      --s.waiters;
    }
  }

  s.enqueued.fetch_add(1, std::memory_order_relaxed);
  bump_peak(s.peak_depth, s.ring.size_approx());
  WSP_TRACE_COUNTER("server.sched", "shard" + std::to_string(shard) + "/depth",
                    static_cast<double>(s.ring.size_approx()));
  maybe_start_pump(shard, s);
}

void RecordScheduler::maybe_start_pump(unsigned index, Shard& s) {
  // Publish-then-check against the pump's check-then-sleep exit (classic
  // store-buffering): the fences guarantee that either this load/exchange
  // observes the pump still active, or the exiting pump's re-check observes
  // the item we just enqueued — never both miss.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (s.pump_active.load(std::memory_order_seq_cst)) return;
  if (!s.pump_active.exchange(true, std::memory_order_seq_cst)) {
    pool_.submit([this, index] { pump(index); });
  }
}

void RecordScheduler::pump(unsigned index) {
  Shard& s = shard_at(index);
  PumpScope scope(this);
  WSP_TRACE_SPAN("server.sched", trace::enabled()
                                     ? "pump/shard" + std::to_string(index)
                                     : std::string());
  auto run_one = [&](Work& item) {
    bool ok = true;
    try {
      item();
    } catch (...) {
      // Containment: the item already left the queue, so all that remains
      // is to record the failure and keep pumping the shard.
      ok = false;
    }
    s.executed.fetch_add(1, std::memory_order_relaxed);
    if (!ok) {
      s.failed.fetch_add(1, std::memory_order_relaxed);
      WSP_TRACE_INSTANT("server.sched",
                        "task_failed/shard" + std::to_string(index));
    }
  };

  for (;;) {
    std::size_t ran = 0;
    Work item;
    while (ran < batch_ && s.ring.try_pop(item)) {
      run_one(item);
      ++ran;
    }
    if (ran == 0 && s.overflow_size.load(std::memory_order_acquire) > 0) {
      // Ring drained: work re-entrant spillover back in, one batch at a
      // time so external FIFO pushes are not starved indefinitely.
      std::vector<Work> spill;
      {
        std::lock_guard<std::mutex> lock(s.mutex);
        const std::size_t take = std::min(batch_, s.overflow.size());
        spill.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          spill.push_back(std::move(s.overflow.front()));
          s.overflow.pop_front();
        }
        s.overflow_size.store(s.overflow.size(), std::memory_order_release);
      }
      for (auto& w : spill) run_one(w);
      ran = spill.size();
    }
    if (ran > 0) {
      s.batches.fetch_add(1, std::memory_order_relaxed);
      WSP_TRACE_COUNTER("server.sched",
                        "shard" + std::to_string(index) + "/depth",
                        static_cast<double>(s.ring.size_approx()));
      bool wake;
      {
        // Lock-ordered against push(): either this section runs after a
        // waiter registered (we see waiters > 0 and notify), or the waiter
        // registers after us and its wait predicate re-checks a ring we
        // already drained.
        std::lock_guard<std::mutex> lock(s.mutex);
        wake = s.waiters > 0;
      }
      if (wake) s.space.notify_all();
      continue;
    }

    // Nothing left: release the pump, then re-check for items that raced
    // in between the last pop and the release (see maybe_start_pump).
    s.pump_active.store(false, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (s.ring.size_approx() == 0 &&
        s.overflow_size.load(std::memory_order_seq_cst) == 0) {
      return;
    }
    if (s.pump_active.exchange(true, std::memory_order_seq_cst)) {
      return;  // a producer reclaimed the flag; it submits the next pump
    }
  }
}

void RecordScheduler::drain() {
  // All pushes happened-before this call, every nonempty shard has an
  // active pump, and pumps only exit on an empty queue — so pool idleness
  // implies every shard queue is drained.
  pool_.wait_idle();
}

ShardCounters RecordScheduler::counters(unsigned shard) const {
  const Shard& s = shard_at(shard);
  ShardCounters c;
  c.enqueued = s.enqueued.load(std::memory_order_relaxed);
  c.executed = s.executed.load(std::memory_order_relaxed);
  c.failed = s.failed.load(std::memory_order_relaxed);
  c.batches = s.batches.load(std::memory_order_relaxed);
  c.backpressure_waits = s.backpressure_waits.load(std::memory_order_relaxed);
  c.overflow_spills = s.overflow_spills.load(std::memory_order_relaxed);
  c.peak_depth = s.peak_depth.load(std::memory_order_relaxed);
  return c;
}

}  // namespace wsp::server
