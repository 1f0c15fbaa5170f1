// Michael-Scott queue (PODC 1996): the classic CAS-based linked-list
// MPMC queue, the "MSQ" baseline series. Dequeued nodes are retired
// through the shared SMR layer (wcq/smr.hpp) under the two hazard
// pointers of Michael's 2004 scheme — hp0 on the node in hand, hp1 on
// its successor — so the footprint Figure 10 reports is the
// algorithm's true in-flight garbage (bounded by the domain's
// amnesty), not a leak-until-destructor artifact.
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <optional>

#include "wcq/detail.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/smr.hpp"

namespace wcq {

class MsqQueue {
 public:
  using Handle = smr::Domain::Handle;

  // Reads max_threads.
  explicit MsqQueue(const options& opt)
      : smr_(opt.validate("msq").max_threads()) {
    Node* dummy = new_node(0);
    head_.store(dummy, std::memory_order_relaxed);
    tail_.store(dummy, std::memory_order_relaxed);
  }

  ~MsqQueue() {
    Node* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      free_node(this, n);
      n = next;
    }
    // Retired-but-unreclaimed nodes are freed by the domain's dtor.
  }

  MsqQueue(const MsqQueue&) = delete;
  MsqQueue& operator=(const MsqQueue&) = delete;

  std::optional<Handle> try_get_handle() { return smr_.try_get_handle(); }

  // Always succeeds (unbounded).
  [[gnu::noinline]] bool try_push(std::uint64_t v, Handle& h) {
    return push_impl(v, h.slot());
  }

  // False iff the queue is empty.
  [[gnu::noinline]] bool try_pop(std::uint64_t* v, Handle& h) {
    return pop_impl(v, h.slot());
  }

  smr::Stats smr_stats() const { return smr_.stats(); }

 private:
  bool push_impl(std::uint64_t v, unsigned slot) {
    Node* node = new_node(v);
    for (;;) {
      // hp0 keeps `t` alive across the next-load and the two CASes; a
      // concurrent dequeuer may retire it but the domain cannot free
      // it until our hazard moves on.
      Node* t = smr_.protect(slot, 0, tail_);
      Node* next = t->next.load(std::memory_order_acquire);
      if (t != tail_.load(std::memory_order_acquire)) continue;
      if (next == nullptr) {
        Node* expected = nullptr;
        if (t->next.compare_exchange_weak(expected, node,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
          tail_.compare_exchange_strong(t, node, std::memory_order_release,
                                        std::memory_order_relaxed);
          return true;
        }
      } else {
        tail_.compare_exchange_strong(t, next, std::memory_order_release,
                                      std::memory_order_relaxed);
      }
    }
  }

  bool pop_impl(std::uint64_t* v, unsigned slot) {
    for (;;) {
      Node* h = smr_.protect(slot, 0, head_);
      Node* t = tail_.load(std::memory_order_acquire);
      Node* next = smr_.protect(slot, 1, h->next);
      if (h != head_.load(std::memory_order_acquire)) continue;
      if (h == t) {
        if (next == nullptr) return false;
        // Tail is lagging behind a half-finished enqueue; push it.
        tail_.compare_exchange_strong(t, next, std::memory_order_release,
                                      std::memory_order_relaxed);
        continue;
      }
      // Read before unlinking (Michael 2004 D10-D11): hp1 guarantees
      // `next` outlives the read even if it is dequeued right after.
      const std::uint64_t value = next->value;
      if (head_.compare_exchange_weak(h, next, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        smr_.retire(slot, h, &free_node_erased, this);
        *v = value;
        return true;
      }
    }
  }

  struct alignas(detail::kCacheLine) Node {
    std::atomic<Node*> next{nullptr};
    std::uint64_t value = 0;
  };

  Node* new_node(std::uint64_t v) {
    Node* n = new (mem::alloc(sizeof(Node), alignof(Node))) Node();
    n->value = v;
    return n;
  }

  static void free_node(MsqQueue*, Node* n) {
    n->~Node();
    mem::free(n, sizeof(Node), alignof(Node));
  }

  static void free_node_erased(void* p, void* ctx) {
    free_node(static_cast<MsqQueue*>(ctx), static_cast<Node*>(p));
  }

  alignas(detail::kNoFalseSharing) std::atomic<Node*> head_{nullptr};
  alignas(detail::kNoFalseSharing) std::atomic<Node*> tail_{nullptr};
  smr::Domain smr_;
};

}  // namespace wcq
