/// \file
/// Per-thread handle machinery shared by every backend that registers
/// threads.
///
/// SlotRegistry hands out slot indices in [0, capacity) and takes
/// them back, so per-thread state indexed by slot (wCQ's ThreadRec,
/// the SMR domain's hazard, epoch and retire-list strips) is bounded
/// by *concurrent* participants, not by lifetime thread count.
/// Without recycling, any thread-churn workload (a pool that retires
/// workers, a server spawning a thread per connection wave) exhausts
/// max_threads even though only a few threads are ever live at once.
///
/// `RegistryHandle<Owner, Slot>` is the one RAII handle over such a
/// registration: it holds the owner and the calling thread's slot,
/// and gives the slot back to the owner on destruction. Three owners
/// hand it out: `WcqQueueT` (the slot is a ThreadRec), `smr::Domain`
/// (a slot index, for FAA, MSQ, LSCQ and LCRQ) and `shard_set` (a row
/// of one sub-handle per shard).
///
/// The free list is a Treiber stack of indices. ABA on the head is
/// prevented with a 32-bit tag packed next to the 32-bit index;
/// `next` links live in a side array so releasing a slot never
/// touches the owner's own record (which a helper may still be
/// scanning).
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <utility>

#include "wcq/mem.hpp"

namespace wcq {

/// Empty per-thread state for backends that need none (SCQ, NCQ and
/// CCQ — scq.hpp's TwoRingQueue — whose rings are static and whose
/// ops carry no thread identity). Exists so every backend has the
/// same {try_get_handle, try_push, try_pop} shape and the typed
/// facade never special-cases.
struct TrivialHandle {};

/// RAII registration with an owner: holds the owner and the slot its
/// per-thread state lives at, and calls `owner->release_slot(slot)` on
/// destruction. Only the owner makes one. Move-only; a moved-from
/// handle releases nothing and must not be used, and a handle must not
/// outlive its owner. slot() is mutable because a `shard_set` row
/// carries the handle's shard cursors.
template <typename Owner, typename Slot = unsigned>
class RegistryHandle {
 public:
  RegistryHandle() = delete;

  RegistryHandle(RegistryHandle&& other) noexcept
      : owner_(std::exchange(other.owner_, nullptr)), slot_(other.slot_) {}

  RegistryHandle& operator=(RegistryHandle&& other) noexcept {
    if (this != &other) {
      release();
      owner_ = std::exchange(other.owner_, nullptr);
      slot_ = other.slot_;
    }
    return *this;
  }

  RegistryHandle(const RegistryHandle&) = delete;
  RegistryHandle& operator=(const RegistryHandle&) = delete;

  ~RegistryHandle() { release(); }

  Slot& slot() { return slot_; }
  const Slot& slot() const { return slot_; }

 private:
  friend Owner;
  RegistryHandle(Owner* owner, Slot slot) : owner_(owner), slot_(slot) {}

  void release() {
    if (owner_ != nullptr) {
      owner_->release_slot(slot_);
      owner_ = nullptr;
    }
  }

  Owner* owner_ = nullptr;
  Slot slot_{};
};

/// Lock-free index allocator behind every registering owner's slots:
/// acquire() prefers recycled indices (keeping the high-water mark —
/// and any state scan over it — small), release() pushes them back on
/// a tagged Treiber stack.
class SlotRegistry {
 public:
  static constexpr unsigned kNone = 0xffffffffu;

  explicit SlotRegistry(unsigned capacity) : capacity_(capacity) {
    next_ = static_cast<std::atomic<unsigned>*>(
        mem::alloc(capacity_ * sizeof(std::atomic<unsigned>)));
    for (unsigned i = 0; i < capacity_; ++i) {
      new (&next_[i]) std::atomic<unsigned>(kNone);
    }
  }

  ~SlotRegistry() {
    for (unsigned i = 0; i < capacity_; ++i) next_[i].~atomic<unsigned>();
    mem::free(next_, capacity_ * sizeof(std::atomic<unsigned>));
  }

  SlotRegistry(const SlotRegistry&) = delete;
  SlotRegistry& operator=(const SlotRegistry&) = delete;

  /// Returns a slot index, or kNone iff `capacity` slots are
  /// currently live. Recycled slots are preferred over never-used
  /// ones so the high-water mark (and any state scan over it) stays
  /// small.
  unsigned acquire() {
    if (const unsigned idx = pop_free(); idx != kNone) {
      live_.fetch_add(1, std::memory_order_acq_rel);
      return idx;
    }
    unsigned b = bump_.load(std::memory_order_acquire);
    while (b < capacity_) {
      if (bump_.compare_exchange_weak(b, b + 1, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        live_.fetch_add(1, std::memory_order_acq_rel);
        return b;
      }
    }
    // Fresh slots ran out; a concurrent release may have refilled the
    // free list since the first look.
    if (const unsigned idx = pop_free(); idx != kNone) {
      live_.fetch_add(1, std::memory_order_acq_rel);
      return idx;
    }
    return kNone;
  }

  void release(unsigned slot) {
    live_.fetch_sub(1, std::memory_order_acq_rel);
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    for (;;) {
      next_[slot].store(static_cast<unsigned>(head & 0xffffffffu),
                        std::memory_order_relaxed);
      const std::uint64_t tag = (head >> 32) + 1;
      if (head_.compare_exchange_weak(head, (tag << 32) | slot,
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }

  /// Slots ever handed out (monotone). Records in [0, high_water())
  /// may be live or recycled; anything beyond was never touched.
  unsigned high_water() const { return bump_.load(std::memory_order_acquire); }

  /// Currently-acquired slot count. Zero at destruction time is the
  /// owner's contract: every handle died before its queue.
  unsigned live() const { return live_.load(std::memory_order_acquire); }

  unsigned capacity() const { return capacity_; }

 private:
  unsigned pop_free() {
    std::uint64_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      const unsigned idx = static_cast<unsigned>(head & 0xffffffffu);
      if (idx == kNone) return kNone;
      const unsigned next = next_[idx].load(std::memory_order_relaxed);
      const std::uint64_t tag = (head >> 32) + 1;
      if (head_.compare_exchange_weak(head, (tag << 32) | next,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return idx;
      }
    }
  }

  const unsigned capacity_;
  std::atomic<unsigned>* next_ = nullptr;
  // {tag:32 | top index:32}; empty stack has index kNone.
  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> head_{
      (std::uint64_t{0} << 32) | kNone};
  alignas(detail::kNoFalseSharing) std::atomic<unsigned> bump_{0};
  alignas(detail::kNoFalseSharing) std::atomic<unsigned> live_{0};
};

}  // namespace wcq
