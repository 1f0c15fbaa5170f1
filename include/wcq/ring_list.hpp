// The unbounded ring queue (LSCQ, SCQ paper §5; LCRQ, Morrison & Afek
// §2): a Michael-Scott list whose nodes are whole bounded rings.
// RingList<Node> writes the list once; lscq.hpp and lcrq.hpp supply
// only their node.
//
// Enqueue works on the list tail's node; when the node refuses (full,
// or closed), a fresh node seeded with the value is appended. Dequeue
// drains the head node; when it is empty *and* a successor exists, the
// node takes no new values, so one last pop settles it: a value found
// then is the result, otherwise the node is unlinked and retired
// through the queue's SMR domain (wcq/smr.hpp) under the caller's
// hazard pointer, which keeps the parked-node count bounded by the
// amnesty threshold.
//
// A Node supplies:
//
//   kName, kMaxOrder        refusal prefix and order ceiling
//   make(order)             a fresh, empty, open node of 2^order values
//   destroy(node)           free it (a node records its own size)
//   refuses(v)              values the node cannot store
//   push(v), pop(&v)        false iff the node refuses / is empty
//   last_pop(&v)            the pop that settles a node once a
//                           successor is linked: true hands out a
//                           surviving value, false certifies that no
//                           value can arrive anymore
//   next                    std::atomic<Node*>, the list link
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>

#include "wcq/detail.hpp"
#include "wcq/options.hpp"
#include "wcq/smr.hpp"

namespace wcq {

template <typename Node>
class RingList {
 public:
  using Handle = smr::Domain::Handle;

  static constexpr unsigned kMaxOrder = Node::kMaxOrder;

  // Reads order (2^order values per node) and max_threads.
  explicit RingList(const options& opt)
      : order_(opt.validate(Node::kName, kMaxOrder).order()),
        smr_(opt.max_threads()) {
    Node* n = Node::make(order_);
    head_.store(n, std::memory_order_relaxed);
    tail_.store(n, std::memory_order_relaxed);
  }

  ~RingList() {
    // head_ anchors every live node; retired ones are freed by the
    // domain's destructor.
    Node* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      Node::destroy(n);
      n = next;
    }
  }

  RingList(const RingList&) = delete;
  RingList& operator=(const RingList&) = delete;

  std::optional<Handle> try_get_handle() { return smr_.try_get_handle(); }

  // Succeeds for every value the node stores (unbounded: a full or
  // closed node is succeeded by a fresh one); a refused value is
  // reported (false) rather than silently lost.
  [[gnu::noinline]] bool try_push(std::uint64_t v, Handle& h) {
    if (Node::refuses(v)) return false;
    const unsigned slot = h.slot();
    for (;;) {
      // The hazard keeps the node alive across its ring ops even if
      // dequeuers drain and retire it meanwhile.
      Node* n = smr_.protect(slot, 0, tail_);
      if (Node* next = n->next.load(std::memory_order_acquire)) {
        // Someone already appended; help swing tail and retry there.
        tail_.compare_exchange_strong(n, next, std::memory_order_release,
                                      std::memory_order_relaxed);
        continue;
      }
      if (n->push(v)) return true;
      // Node full or closed. Seed a fresh node with the value (it is
      // empty and open, so this cannot fail) and link it.
      Node* fresh = Node::make(order_);
      const bool seeded = fresh->push(v);
      assert(seeded && "push on a fresh node cannot fail");
      (void)seeded;
      Node* expected = nullptr;
      if (n->next.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        tail_.compare_exchange_strong(n, fresh, std::memory_order_release,
                                      std::memory_order_relaxed);
        return true;
      }
      Node::destroy(fresh);  // lost the append race; nobody saw ours
    }
  }

  // False iff the queue is empty.
  [[gnu::noinline]] bool try_pop(std::uint64_t* v, Handle& h) {
    const unsigned slot = h.slot();
    for (;;) {
      Node* n = smr_.protect(slot, 0, head_);
      if (n->pop(v)) return true;
      Node* next = n->next.load(std::memory_order_acquire);
      if (next == nullptr) return false;  // no successor: truly empty
      if (n->last_pop(v)) return true;
      Node* expected = n;
      if (head_.compare_exchange_strong(expected, next,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        smr_.retire(slot, n, &destroy_erased, nullptr);
      }
    }
  }

  smr::Stats smr_stats() const { return smr_.stats(); }

 private:
  static void destroy_erased(void* p, void*) {
    Node::destroy(static_cast<Node*>(p));
  }

  const unsigned order_;

  alignas(detail::kNoFalseSharing) std::atomic<Node*> head_{nullptr};
  alignas(detail::kNoFalseSharing) std::atomic<Node*> tail_{nullptr};
  smr::Domain smr_;
};

}  // namespace wcq
