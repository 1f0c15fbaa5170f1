/// \file
/// Per-thread handle machinery shared by every backend.
///
/// SlotRegistry hands out slot indices in [0, capacity) and takes
/// them back, so a queue's per-thread records (wCQ's ThreadRec) are a
/// bound on *concurrent* participants, not on lifetime thread count.
/// Without recycling, any thread-churn workload (a pool that retires
/// workers, a server spawning a thread per connection wave) exhausts
/// max_threads even though only a few threads are ever live at once.
///
/// The free list is a Treiber stack of indices. ABA on the head is
/// prevented with a 32-bit tag packed next to the 32-bit index;
/// `next` links live in a side array so releasing a slot never
/// touches the queue's own record (which a helper may still be
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

/// RAII handle over any SlotRegistry-backed backend: carries the
/// owning queue plus the slot index its per-thread state (hazard
/// pointers, epoch word, retire list — see wcq/smr.hpp) lives at.
/// Destruction calls Q::release_slot(slot), which quiesces the slot's
/// SMR state and returns it to the registry, so — exactly like wCQ's
/// ThreadRec handles — max_threads bounds *concurrent* participants.
/// A handle must not outlive its queue. MSQ, FAA, LSCQ and LCRQ (the
/// last two through ring_list.hpp's RingList) all use this one
/// template instead of hand-rolling identical handles.
template <typename Q>
class RegistryHandle {
 public:
  RegistryHandle() = delete;

  RegistryHandle(RegistryHandle&& other) noexcept
      : q_(std::exchange(other.q_, nullptr)), slot_(other.slot_) {}

  RegistryHandle& operator=(RegistryHandle&& other) noexcept {
    if (this != &other) {
      release();
      q_ = std::exchange(other.q_, nullptr);
      slot_ = other.slot_;
    }
    return *this;
  }

  RegistryHandle(const RegistryHandle&) = delete;
  RegistryHandle& operator=(const RegistryHandle&) = delete;

  ~RegistryHandle() { release(); }

  unsigned slot() const { return slot_; }

 private:
  friend Q;
  RegistryHandle(Q* q, unsigned slot) : q_(q), slot_(slot) {}

  void release() {
    if (q_ != nullptr) {
      q_->release_slot(slot_);
      q_ = nullptr;
    }
  }

  Q* q_ = nullptr;
  unsigned slot_ = 0;
};

/// Lock-free index allocator behind every backend's handle slots:
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
