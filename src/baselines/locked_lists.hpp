// Lock-based baselines for the --baselines rows of the paper tables:
//
//   CoarseLockList -- one mutex around a sequential list; the honest
//     "just use a lock" yardstick.
//   LazyLockList   -- Heller et al.'s lazy list: wait-free contains,
//     hand-over-hand-free updates that lock only (pred, cur) and
//     revalidate. Nodes carry an explicit `marked` flag; physical
//     unlinking happens inside the critical section. Unlinked nodes are
//     kept on a retire registry until list destruction because readers
//     traverse without locks.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/sequential_list.hpp"
#include "src/core/iset.hpp"
#include "src/core/list_base.hpp"

namespace pragmalist::baselines {

class CoarseLockList {
 public:
  // The inner SequentialList keeps its own counters; those are simply
  // never read -- each handle's ledger is authoritative. Scans hold
  // the one lock for the whole walk -- the coarse baseline's honest
  // price for a trivially atomic range read. The sink must not reenter
  // the set (it would self-deadlock).
  class Handle : public core::CountingHandle<Handle> {
   public:
    /// Uncounted paging primitive behind range_scan()/ascend().
    long scan_raw(long from, long hi, long limit,
                  const core::KeySink& sink) {
      std::lock_guard<std::mutex> g(list_->mu_);
      return list_->inner_.range_scan(from, hi, limit, sink);
    }

   private:
    friend class CoarseLockList;
    friend class core::CountingHandle<Handle>;
    explicit Handle(CoarseLockList* list) : list_(list) {}
    bool add_raw(long key) {
      std::lock_guard<std::mutex> g(list_->mu_);
      return list_->inner_.add(key);
    }
    bool remove_raw(long key) {
      std::lock_guard<std::mutex> g(list_->mu_);
      return list_->inner_.remove(key);
    }
    bool contains_raw(long key) {
      std::lock_guard<std::mutex> g(list_->mu_);
      return list_->inner_.contains(key);
    }
    CoarseLockList* list_;
  };

  Handle make_handle() { return Handle(this); }

  bool validate(std::string* err) const { return inner_.validate(err); }
  std::size_t size() const { return inner_.size(); }
  std::vector<long> snapshot() const { return inner_.snapshot(); }

 private:
  mutable std::mutex mu_;
  SequentialList inner_;
};

class LazyLockList {
  struct Node {
    long key;
    std::atomic<Node*> next{nullptr};
    std::atomic<bool> marked{false};
    std::mutex mu;
    Node* reg_next = nullptr;

    explicit Node(long k) : key(k) {}
  };

 public:
  // Scans are lock-free like the lazy list's contains: readers
  // traverse without locks and skip marked nodes; unlinked nodes stay
  // on the retire registry until teardown, so the walk never dangles.
  class Handle : public core::CountingHandle<Handle> {
   public:
    /// Uncounted paging primitive behind range_scan()/ascend().
    long scan_raw(long from, long hi, long limit,
                  const core::KeySink& sink) {
      return list_->do_scan(from, hi, limit, sink);
    }

   private:
    friend class LazyLockList;
    friend class core::CountingHandle<Handle>;
    explicit Handle(LazyLockList* list) : list_(list) {}
    bool add_raw(long key) { return list_->do_add(key); }
    bool remove_raw(long key) { return list_->do_remove(key); }
    bool contains_raw(long key) { return list_->do_contains(key); }
    LazyLockList* list_;
  };

  LazyLockList() {
    tail_ = track(new Node(std::numeric_limits<long>::max()));
    head_ = track(new Node(std::numeric_limits<long>::min()));
    head_->next.store(tail_, std::memory_order_relaxed);
  }
  LazyLockList(const LazyLockList&) = delete;
  LazyLockList& operator=(const LazyLockList&) = delete;
  ~LazyLockList() {
    Node* n = retired_.load(std::memory_order_acquire);
    while (n != nullptr) {
      Node* next = n->reg_next;
      delete n;
      n = next;
    }
  }

  Handle make_handle() { return Handle(this); }

  bool validate(std::string* err) const {
    const Node* prev = head_;
    std::size_t steps = 0;
    for (const Node* n = head_->next.load(); n != tail_;
         n = n->next.load()) {
      if (n == nullptr) {
        if (err) *err = "lazy list chain broke before tail";
        return false;
      }
      if (++steps > 1u << 28) {
        if (err) *err = "lazy list cycle";
        return false;
      }
      if (prev != head_ && n->key <= prev->key) {
        if (err) *err = "lazy list out of order";
        return false;
      }
      prev = n;
    }
    return true;
  }

  std::size_t size() const {
    std::size_t count = 0;
    for (const Node* n = head_->next.load(); n != tail_;
         n = n->next.load())
      if (!n->marked.load(std::memory_order_relaxed)) ++count;
    return count;
  }

  std::vector<long> snapshot() const {
    // The quiescent snapshot is the full-range scan walk.
    std::vector<long> keys;
    do_scan(std::numeric_limits<long>::min(),
            std::numeric_limits<long>::max(), /*limit=*/-1,
            [&](long k) { keys.push_back(k); });
    return keys;
  }

 private:
  Node* track(Node* n) {
    core::push_intrusive(retired_, n);
    return n;
  }

  bool still_linked(Node* pred, Node* cur) const {
    return !pred->marked.load() && !cur->marked.load() &&
           pred->next.load() == cur;
  }

  bool do_add(long key) {
    for (;;) {
      Node* pred = head_;
      Node* cur = pred->next.load();
      while (cur->key < key) {
        pred = cur;
        cur = cur->next.load();
      }
      std::scoped_lock lk(pred->mu, cur->mu);
      if (!still_linked(pred, cur)) continue;
      if (cur != tail_ && cur->key == key) return false;
      Node* n = track(new Node(key));
      n->next.store(cur, std::memory_order_relaxed);
      pred->next.store(n, std::memory_order_release);
      return true;
    }
  }

  bool do_remove(long key) {
    for (;;) {
      Node* pred = head_;
      Node* cur = pred->next.load();
      while (cur->key < key) {
        pred = cur;
        cur = cur->next.load();
      }
      std::scoped_lock lk(pred->mu, cur->mu);
      if (!still_linked(pred, cur)) continue;
      if (cur == tail_ || cur->key != key) return false;
      cur->marked.store(true, std::memory_order_release);  // logical
      pred->next.store(cur->next.load(), std::memory_order_release);
      return true;
    }
  }

  bool do_contains(long key) const {
    const Node* cur = head_->next.load();
    while (cur->key < key) cur = cur->next.load();
    return cur != tail_ && cur->key == key &&
           !cur->marked.load(std::memory_order_acquire);
  }

  /// Lock-free scan walk (also the quiescent snapshot walk): a removed
  /// node's next pointer still leads onward into the list, so keys stay
  /// strictly ascending along any traversal path.
  long do_scan(long from, long hi, long limit,
               const core::KeySink& sink) const {
    long emitted = 0;
    for (const Node* n = head_->next.load(); n != tail_;
         n = n->next.load()) {
      if (n->marked.load(std::memory_order_acquire)) continue;
      if (n->key > hi || (limit >= 0 && emitted >= limit)) break;
      if (n->key >= from) {
        sink(n->key);
        ++emitted;
      }
    }
    return emitted;
  }

  Node* head_;
  Node* tail_;
  std::atomic<Node*> retired_{nullptr};  // doubles as the alloc registry
};

}  // namespace pragmalist::baselines
