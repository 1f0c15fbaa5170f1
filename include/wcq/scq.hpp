// SCQ as a bounded MPMC queue of 64-bit values: the classic two-ring
// construction. `aq` holds free data slots, `fq` holds filled ones;
// enqueue moves a slot aq -> data -> fq, dequeue moves it back. The
// data array is synchronised by the rings' release/acquire entry CASes.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/scq_ring.hpp"

namespace wcq {

class ScqQueue {
 public:
  // SCQ keeps no per-thread state; the empty handle exists so every
  // backend has the same shape behind wcq::concepts::Backend.
  using Handle = TrivialHandle;

  // Reads order (capacity = 2^order values) and remap.
  explicit ScqQueue(const options& opt)
      : n_(std::uint64_t{1} << opt.validate("scq", ring::kMaxOrder).order()),
        aq_(opt.order(), opt.remap()),
        fq_(opt.order(), opt.remap()) {
    data_ = static_cast<std::atomic<std::uint64_t>*>(
        mem::alloc(n_ * sizeof(std::atomic<std::uint64_t>)));
    for (std::uint64_t i = 0; i < n_; ++i) {
      data_[i].store(0, std::memory_order_relaxed);
      aq_.enqueue_idx(i, ScqRing::kUnbounded);
    }
  }

  ~ScqQueue() { mem::free(data_, n_ * sizeof(std::atomic<std::uint64_t>)); }

  ScqQueue(const ScqQueue&) = delete;
  ScqQueue& operator=(const ScqQueue&) = delete;

  std::uint64_t capacity() const { return n_; }

  Handle get_handle() { return Handle{}; }
  std::optional<Handle> try_get_handle() { return Handle{}; }

  // False iff the queue is full.
  bool try_push(std::uint64_t v, Handle&) { return push_impl(v); }

  // False iff the queue is empty.
  bool try_pop(std::uint64_t* v, Handle&) { return pop_impl(v); }

 private:
  bool push_impl(std::uint64_t v) {
    std::uint64_t idx = 0;
    if (aq_.dequeue_idx(&idx, ScqRing::kUnbounded) == ScqRing::kEmpty) {
      return false;  // no free slots: full
    }
    data_[idx].store(v, std::memory_order_relaxed);
    fq_.enqueue_idx(idx, ScqRing::kUnbounded);
    return true;
  }

  bool pop_impl(std::uint64_t* v) {
    std::uint64_t idx = 0;
    if (fq_.dequeue_idx(&idx, ScqRing::kUnbounded) == ScqRing::kEmpty) {
      return false;
    }
    *v = data_[idx].load(std::memory_order_relaxed);
    aq_.enqueue_idx(idx, ScqRing::kUnbounded);
    return true;
  }

  const std::uint64_t n_;
  ScqRing aq_;  // free slots (starts full)
  ScqRing fq_;  // filled slots (starts empty)
  std::atomic<std::uint64_t>* data_ = nullptr;
};

}  // namespace wcq
