// Slab arena: chunked, handle-based object storage for the million-session
// data plane (ROADMAP item 1).
//
// A Slab<T> owns its objects in fixed-size chunks of `ChunkSlots` slots, so
//   * allocation is O(1) — pop a free-list head or append to the newest
//     chunk — with no per-object malloc on the hot path;
//   * addresses are stable for an object's whole lifetime (chunks never
//     move), which is what lets the session table hand out raw pointers
//     while other slots churn;
//   * live objects of one slab sit densely in a few contiguous arrays,
//     the cache layout the struct-of-arrays SessionTable wants for its hot
//     session blocks.
//
// Every slot carries a 32-bit generation counter (odd = live, even = free,
// incremented on both transitions), so a Ref held after erase() goes stale
// instead of aliasing the slot's next tenant: get() on a stale Ref returns
// nullptr, erase() returns false.  With 2^31 reuses per slot before wrap,
// a run would need billions of same-slot churns to confuse a handle.
//
// Not internally synchronized: callers provide external locking (the
// session table shards one slab per shard behind the shard mutex).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace wsp::support {

/// Handle to a slab slot: index + generation.  Value-semantic and POD-ish;
/// the default-constructed Ref is never valid.
struct SlabRef {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;  ///< odd when the handle was live at issue time

  bool operator==(const SlabRef&) const = default;
};

template <typename T, std::size_t ChunkSlots = 1024>
class Slab {
  static_assert(ChunkSlots > 0 && (ChunkSlots & (ChunkSlots - 1)) == 0,
                "ChunkSlots must be a power of two");

 public:
  Slab() = default;
  ~Slab() { clear(); }

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  /// Constructs a T in a free slot and returns its handle.
  template <typename... Args>
  SlabRef emplace(Args&&... args) {
    std::uint32_t slot;
    if (free_head_ != kNone) {
      slot = free_head_;
      free_head_ = slot_at(slot).next_free;
    } else {
      if (size_ == chunks_.size() * ChunkSlots) {
        chunks_.push_back(std::make_unique<Slot[]>(ChunkSlots));
      }
      slot = static_cast<std::uint32_t>(size_++);
    }
    Slot& s = slot_at(slot);
    ::new (static_cast<void*>(s.storage)) T(std::forward<Args>(args)...);
    ++s.gen;  // even -> odd: live
    ++live_;
    return SlabRef{slot, s.gen};
  }

  /// The object behind `ref`, or nullptr when the handle is stale (slot
  /// freed or re-used since issue) or out of range.
  T* get(SlabRef ref) {
    if (ref.slot >= size_) return nullptr;
    Slot& s = slot_at(ref.slot);
    if (s.gen != ref.gen || (s.gen & 1u) == 0) return nullptr;
    return std::launder(reinterpret_cast<T*>(s.storage));
  }
  const T* get(SlabRef ref) const {
    return const_cast<Slab*>(this)->get(ref);
  }

  /// Destroys the object and recycles its slot; false on a stale handle.
  bool erase(SlabRef ref) {
    T* obj = get(ref);
    if (obj == nullptr) return false;
    obj->~T();
    Slot& s = slot_at(ref.slot);
    ++s.gen;  // odd -> even: free (and stale-ify outstanding handles)
    s.next_free = free_head_;
    free_head_ = ref.slot;
    --live_;
    return true;
  }

  /// Destroys every live object and releases all chunks.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) {
      Slot& s = slot_at(static_cast<std::uint32_t>(i));
      if (s.gen & 1u) {
        std::launder(reinterpret_cast<T*>(s.storage))->~T();
        ++s.gen;
      }
    }
    chunks_.clear();
    size_ = 0;
    live_ = 0;
    free_head_ = kNone;
  }

  std::size_t live() const { return live_; }
  std::size_t capacity() const { return chunks_.size() * ChunkSlots; }

  /// Bytes of slot storage currently reserved (chunks never shrink).
  std::size_t bytes_reserved() const {
    return chunks_.size() * ChunkSlots * sizeof(Slot);
  }

  /// Per-slot footprint: the object plus the generation/free-list header —
  /// the number the memory-per-session accounting is built from.
  static constexpr std::size_t slot_bytes() { return sizeof(Slot); }

 private:
  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];
    std::uint32_t gen = 0;        ///< odd = live, even = free
    std::uint32_t next_free = 0;  ///< free-list link while free
  };

  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  Slot& slot_at(std::uint32_t slot) {
    return chunks_[slot / ChunkSlots][slot % ChunkSlots];
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t size_ = 0;   ///< slots ever touched (high-water, incl. free)
  std::size_t live_ = 0;
  std::uint32_t free_head_ = kNone;
};

}  // namespace wsp::support
