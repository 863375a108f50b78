// The doubly-linked variants of the paper (c and f): the singly-linked
// pragmatic list plus an unsynchronized back pointer per node. The back
// pointer is a *hint*, never part of the correctness argument for
// membership: it always points to some node with a strictly smaller key
// (initially the insert predecessor), so following back pointers from a
// dead node reaches a live node with key < target and the search can
// resume there instead of at the head. That turns the mild variant's
// restart-from-head on a failed cleanup CAS — and a handle's stale
// cursor — into a short local walk.
//
// The kPreciseBack knob (ablation id `doubly_cursor_noprec` turns it
// off) refreshes the survivor's back pointer after every successful
// unlink/insert so hints stay one hop tight; imprecise mode leaves the
// insert-time hint in place and walks farther on recovery.
//
// Reclamation: the back-pointer *hints are an arena artifact*. A back
// pointer is never cleaned when its target dies, so under a reclaiming
// policy it may name long-freed memory; the paper itself leans on the
// end-of-run arena here. With reclaim::Ebr or reclaim::Hp the engine
// therefore never dereferences back pointers (recover() degrades to a
// head restart) and the family behaves like the singly pragmatic list
// that still *maintains* the hints. Hazard traversal reuses the
// anchored-validation walk documented in list_base.hpp, pinning the
// successor around an unlink (in the between-searches-idle kRun slot)
// so the precise-back refresh can still write through it safely.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/hint_index.hpp"
#include "src/core/iset.hpp"
#include "src/core/list_base.hpp"
#include "src/reclaim/arena.hpp"
#include "src/reclaim/maybe_owned.hpp"

namespace pragmalist::core {

template <Cursor kCursor, bool kPreciseBack,
          template <typename> class ReclaimPolicy = reclaim::Arena>
class DoublyFamilyList {
  struct Node {
    long key;
    MarkPtr<Node> next;
    std::atomic<Node*> back;
    Node* reg_next = nullptr;
    std::atomic<int> hint_slot{-1};  // HintIndex home slot

    Node(long k, Node* succ, Node* pred) : key(k), next(succ), back(pred) {}
  };

 public:
  /// The reclamation *domain* this engine runs against. Stand-alone
  /// lists make their own; a sharded set makes one and hands it to
  /// every shard, so N shards cost one epoch clock / slot table.
  using Reclaim = ReclaimPolicy<Node>;
  using ReclaimHandle = typename Reclaim::Handle;

  /// Every node is acquired through the domain's pool, so the engine
  /// is eligible for slab mode (shard::ShardedSet asserts this trait
  /// before sharing one slab-mode domain across its shards).
  static constexpr bool kPoolAllocates = true;

  /// Progress traits (iset.hpp matrix; asserted in variants.hpp). The
  /// family is always mild, so contains() never CASes; the arena/EBR
  /// walk is one forward pass, and under HP the anchored walk resumes
  /// from the last validated anchor (bounded restart).
  static constexpr bool kContainsCasFree = true;
  static constexpr bool kContainsRestartFree = !ReclaimPolicy<Node>::kHazards;

 private:
  static constexpr bool kHazards = Reclaim::kHazards;
  static constexpr bool kStable = Reclaim::kStableAddresses;
  // Every reclaimer keeps a cursor followable its own way -- the
  // cursor-validity capability (reclaim.hpp), as in the singly family:
  // always under the arena and HP, within the stamped epoch under EBR.
  static constexpr bool kCursorOn = kCursor == Cursor::kPerHandle;

 public:
  class Handle : public CountingHandle<Handle> {
   public:
    /// Uncounted paging primitive: the sharded k-way merge drives this
    /// per shard and counts once per logical scan at the set level.
    long scan_raw(long from, long hi, long limit, const KeySink& sink) {
      return list_->do_scan(*this, from, hi, limit, sink);
    }

    /// Fault injection (see faults.hpp): op-level kinds run a
    /// deliberately botched remove of `key`; lease-level kinds crash
    /// the reclaim handle itself. Only destruction may follow.
    void abandon(faults::FaultKind k, long key) {
      list_->do_abandon(*this, k, key);
    }

    Handle(Handle&&) = default;  // MaybeOwned re-seats its pointer
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

   private:
    friend class DoublyFamilyList;
    friend class CountingHandle<Handle>;
    bool add_raw(long key) { return list_->do_add(*this, key); }
    bool remove_raw(long key) { return list_->do_remove(*this, key); }
    bool contains_raw(long key) { return list_->do_contains(*this, key); }

    Handle(DoublyFamilyList* list, ReclaimHandle rh)  // owning
        : list_(list), rh_(std::move(rh)) {}
    Handle(DoublyFamilyList* list, ReclaimHandle* rh)  // borrowing
        : list_(list), rh_(rh) {}

    DoublyFamilyList* list_;
    // Stand-alone handles own their reclaim handle; shard handles
    // borrow the one their worker leased for the whole sharded set.
    reclaim::MaybeOwned<ReclaimHandle> rh_;
    Node* cursor_ = nullptr;
    std::uint64_t cursor_stamp_ = 0;  // rh_->cursor_stamp() at cursor_ set
    unsigned hint_tick_ = 0;  // throttles hint publishes (1 in 8 ops)
  };

  explicit DoublyFamilyList(std::shared_ptr<Reclaim> domain = nullptr,
                            bool hints = true)
      : domain_(domain ? std::move(domain) : std::make_shared<Reclaim>()),
        head_(domain_->construct(kSentinelKey, nullptr, nullptr)),
        hints_(hints) {
    domain_->track(head_);
  }
  /// Stand-alone list with an explicit allocation mode (slab twins).
  explicit DoublyFamilyList(alloc::Mode mode, bool hints = true)
      : DoublyFamilyList(std::make_shared<Reclaim>(mode), hints) {}
  DoublyFamilyList(const DoublyFamilyList&) = delete;
  DoublyFamilyList& operator=(const DoublyFamilyList&) = delete;

  ~DoublyFamilyList() {
    if constexpr (Reclaim::kReclaims) {
      Node* n = head_;
      while (n != nullptr) {
        Node* next = n->next.load().ptr;
        domain_->destroy(n);
        n = next;
      }
    }
  }

  /// Stand-alone use: lease a fresh per-thread handle from the domain.
  Handle make_handle() { return Handle(this, domain_->make_handle()); }

  /// Sharded use: borrow a per-thread reclaim handle the caller leased
  /// from this engine's (shared) domain. `shared` must outlive the
  /// returned handle.
  Handle make_handle(ReclaimHandle& shared) { return Handle(this, &shared); }

  // --- quiescent API ------------------------------------------------

  bool validate(std::string* err) const {
    if (!quiescent::validate_chain(head_, domain_->live_nodes() + 1, err))
      return false;
    if constexpr (kStable) {
      // Back-pointer sanity: every linked node's hint has a strictly
      // smaller key (or is the head sentinel). Only checkable under the
      // arena — with mid-run reclamation the hints may dangle and are
      // never dereferenced, by the engine or by us.
      for (const Node* n = head_->next.load_ptr(); n != nullptr;
           n = n->next.load().ptr) {
        const Node* b = n->back.load(std::memory_order_relaxed);
        if (b == nullptr) {
          if (err) *err = "node with null back pointer";
          return false;
        }
        if (b != head_ && b->key >= n->key) {
          if (err) *err = "back pointer does not decrease the key";
          return false;
        }
      }
    }
    return true;
  }
  std::size_t size() const { return quiescent::size(head_); }
  std::vector<long> snapshot() const { return quiescent::snapshot(head_); }

  std::size_t allocated_nodes() const { return domain_->live_nodes(); }

  /// Quiescent-only: nodes physically linked, marked ones included
  /// (head excluded); see quiescent::linked for the ledger it closes.
  std::size_t linked_node_count() const { return quiescent::linked(head_); }

  /// Retired-and-not-yet-freed count (0 under the arena); the soak
  /// harness samples it as the limbo-depth series.
  std::size_t limbo_nodes() const {
    if constexpr (Reclaim::kReclaims)
      return domain_->limbo_nodes();
    else
      return 0;
  }

  /// Supervisor recovery and blast-radius metrics, forwarded to the
  /// reclamation domain (no-op / all-zero under the arena). See
  /// src/faults/faults.hpp.
  std::size_t reap_crashed() {
    if constexpr (Reclaim::kReclaims)
      return domain_->reap_crashed();
    else
      return 0;
  }
  faults::BlastStats blast_stats() const {
    if constexpr (Reclaim::kReclaims)
      return domain_->blast_stats();
    else
      return {};
  }

  /// Test-only: break the order invariant by swapping the keys of the
  /// first two physically linked nodes (requires >= 2 nodes).
  void corrupt_order_for_test() {
    Node* a = head_->next.load_ptr();
    if (a == nullptr) return;
    Node* b = a->next.load_ptr();
    if (b == nullptr) return;
    std::swap(a->key, b->key);
  }

 private:
  friend class Handle;

  static constexpr long kSentinelKey = std::numeric_limits<long>::min();

  struct Pos {
    Node* prev;
    Node* cur;
  };

  /// Walk back pointers from `n` until a live node (keys strictly
  /// decrease along the chain, so this terminates at the head). Under
  /// a reclaiming policy the hints may dangle, so a dead start falls
  /// back to the head instead.
  Node* recover(Node* n) const {
    if constexpr (kStable) {
      while (n != head_ && n->next.load().marked)
        n = n->back.load(std::memory_order_acquire);
      return n;
    } else {
      return (n != head_ && n->next.load().marked) ? head_ : n;
    }
  }

  /// Forget the handle's cursor hint, releasing the persistent hazard
  /// cell only if this engine still owns it (core::hazard's
  /// owner-tagged cursor protocol; under a sharded set the cell may
  /// meanwhile guard another shard's cursor).
  void drop_cursor(Handle& h) {
    h.cursor_ = nullptr;
    if constexpr (kHazards) hazard::release_cursor(*h.rh_, this);
  }

  /// Validated hint-index candidate, or nullptr -- same flavors and
  /// safety argument as the singly family (see its hint_start and
  /// hint_index.hpp): the back-pointer machinery is irrelevant here,
  /// a hint is validated forward (key/mark) like any anchor.
  Node* hint_start(Handle& h, long key) {
    if constexpr (kHazards) {
      return hints_.best(key, [&](Node* n, int slot) {
        h.rh_->protect(hazard::kAnchor, n);
        if (hints_.slot_node(slot) != n) return false;
        return n->key < key && !n->next.load().marked;
      });
    } else {
      return hints_.best(key, [&](Node* n, int) {
        return n->key < key && !n->next.load().marked;
      });
    }
  }

  /// Advertise `n` in the hint index, 1 op in 8 (hint_index.hpp caller
  /// contract: n covered by the caller's guard, observed unmarked
  /// during this op).
  void maybe_publish(Handle& h, Node* n) {
    if (!hints_.enabled()) return;
    if (n == nullptr || n == head_) return;
    if ((++h.hint_tick_ & 7u) != 0) return;
    hints_.publish(n->key, n);
  }

  Node* start_node(Handle& h, long key) {
    Node* c = nullptr;
    if constexpr (kCursorOn) {
      if constexpr (kHazards) {
        // Another shard took the cell since our last op: our node is
        // unprotected and must not be dereferenced.
        if (!hazard::owns_cursor(*h.rh_, this)) h.cursor_ = nullptr;
      }
      // EBR: stamped in an earlier epoch, the node may be freed -- drop
      // it before any load (always valid under the arena and HP).
      if (!h.rh_->cursor_valid(h.cursor_stamp_)) h.cursor_ = nullptr;
      c = h.cursor_;
      if (c != nullptr && c->key < key) {
        c = recover(c);  // dead cursor: hop back instead of head restart
        if (c == head_) {
          c = nullptr;  // keep the cursor; the head floor wins below
        } else if (c->key >= key) {
          drop_cursor(h);
          c = nullptr;
        }
      } else if (c != nullptr) {
        drop_cursor(h);
        c = nullptr;
      }
    }
    Node* g = hint_start(h, key);
    Node* s = start::tighter(head_, c, g);
    if (s != head_ && s == g) ++h.ctr_.hint_hits;
    if (s == c) ++h.ctr_.cursor_hits;  // c is never the head
    return s;
  }

  void update_cursor(Handle& h, Node* n) {
    if constexpr (kCursorOn) {
      if (n == head_) n = nullptr;
      if constexpr (kHazards) hazard::publish_cursor(*h.rh_, this, n);
      h.cursor_ = n;
      h.cursor_stamp_ = h.rh_->cursor_stamp();
    }
  }

  void retire_run(Handle& h, Node* first, Node* last) {
    if constexpr (Reclaim::kReclaims) {
      Node* n = first;
      while (n != last) {
        Node* next = n->next.load().ptr;
        hints_.purge(n);  // no slot may name n once retire can free it
        h.rh_->retire(n);
        n = next;
      }
    }
  }

  /// `from`, when non-null, is a node with key < `key` that this
  /// operation saw live: the plain walk begins there (recover() hops
  /// back if it died) instead of at start_node(). The hazard walk keeps
  /// its own anchors and ignores it.
  Pos search(Handle& h, long key, Node* from = nullptr) {
    if constexpr (kHazards)
      return search_hazard(h, key);
    else
      return search_plain(h, key, from);
  }

  Pos search_plain(Handle& h, long key, Node* from) {
    Node* start = from != nullptr ? from : start_node(h, key);
    for (;;) {
      start = recover(start);
      Node* prev = start;
      const auto pv = prev->next.load();
      if (pv.marked) continue;  // died between recover and load; loop
      Node* left_next = pv.ptr;
      Node* cur = left_next;
      while (cur != nullptr) {
        const auto cv = cur->next.load();
        if (cv.marked) {
          cur = cv.ptr;
          continue;
        }
        if (cur->key >= key) break;
        prev = cur;
        left_next = cv.ptr;
        cur = cv.ptr;
      }
      if (left_next == cur) return {prev, cur};
      if (prev->next.cas_clean(left_next, cur)) {
        if constexpr (kPreciseBack) {
          if (cur != nullptr)
            cur->back.store(prev, std::memory_order_release);
        }
        retire_run(h, left_next, cur);
        return {prev, cur};
      }
      // Cleanup CAS lost: resume from prev (recover() hops back if prev
      // itself got marked) rather than from the head.
      ++h.ctr_.restarts;
      start = prev;
    }
  }

  /// The shared anchored-validation hazard walk (see list_base.hpp).
  /// No back pointer is ever followed; a restart goes to the cursor or
  /// head.
  Pos search_hazard(Handle& h, long key) {
    const auto w =
        hazard::anchored_walk<Traversal::kMild, Backoff::kNone, true, Node>(
            *h.rh_, key, [&] { return start_node(h, key); },
            [&] { drop_cursor(h); },
            [&](Node* prev, Node* first, Node* last) {
              if constexpr (kPreciseBack) {
                // last is walk-slot protected: retire cannot free it
                // under us.
                if (last != nullptr)
                  last->back.store(prev, std::memory_order_release);
              }
              retire_run(h, first, last);
            },
            &h.ctr_.restarts);
    return {w.prev, w.cur};
  }

  bool do_add(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    Node* node = nullptr;
    Node* from = nullptr;
    for (;;) {
      const Pos p = search(h, key, from);
      if (p.cur != nullptr && p.cur->key == key) {
        h.rh_->dispose(node);  // never published, still private
        // The present node itself (live when observed; HP: kWalk still
        // covers it) is the tightest start for the next, larger key.
        update_cursor(h, p.cur);
        return false;
      }
      if (node == nullptr) {
        node = h.rh_->construct(key, p.cur, p.prev);
      } else {
        node->next.store(p.cur);
        node->back.store(p.prev, std::memory_order_relaxed);
      }
      if (p.prev->next.cas_clean(p.cur, node)) {
        domain_->track(node);
        if constexpr (kPreciseBack) {
          // p.cur is still covered (arena/EBR: stable or pinned;
          // HP: walk slot), so the refresh write cannot hit freed
          // memory even if p.cur was concurrently retired.
          if (p.cur != nullptr)
            p.cur->back.store(node, std::memory_order_release);
        }
        if constexpr (kHazards) {
          update_cursor(h, p.prev);  // p.prev is anchor-protected; the
          maybe_publish(h, p.prev);  // fresh node is not in any slot
        } else {
          update_cursor(h, node);
          maybe_publish(h, node);
        }
        return true;
      }
      // Lost the insert CAS: resume from p.prev instead of a fresh
      // start_node() (the paper's first observation). Under the arena
      // recover() hops back from a p.prev that died meanwhile; under EBR
      // a dead one decays to start_node(). HP keeps its anchored walk.
      ++h.ctr_.restarts;
      if constexpr (!kHazards)
        from = kStable || !p.prev->next.load().marked ? p.prev : nullptr;
    }
  }

  bool do_remove(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    const Pos p = search(h, key);
    if (p.cur == nullptr || p.cur->key != key) {
      update_cursor(h, p.prev);
      return false;
    }
    bool won = false;
    Node* succ = nullptr;
    for (;;) {
      const auto cv = p.cur->next.load();
      if (cv.marked) break;
      if (p.cur->next.cas_mark(cv.ptr)) {
        won = true;
        succ = cv.ptr;
        break;
      }
    }
    update_cursor(h, p.prev);
    maybe_publish(h, p.prev);
    if (!won) return false;
    if constexpr (kHazards) {
      // Pin succ before the unlink (the kRun slot is free between
      // searches): if the CAS below succeeds, succ was still attached
      // when the hazard was already visible, so the precise-back
      // refresh may dereference it.
      if (succ != nullptr) h.rh_->protect(hazard::kRun, succ);
    }
    if (p.prev->next.cas_clean(p.cur, succ)) {
      if constexpr (kPreciseBack) {
        if (succ != nullptr)
          succ->back.store(p.prev, std::memory_order_release);
      }
      if constexpr (Reclaim::kReclaims) {
        hints_.purge(p.cur);
        h.rh_->retire(p.cur);
      }
    }
    return true;
  }

  /// Fault dispatch (Handle::abandon) -- same contract as the singly
  /// family: op-level kinds count as a remove attempt (the logical
  /// removal happens, so the population ledger keeps balancing) and
  /// leave the reclaim lease healthy; lease-level kinds crash it.
  void do_abandon(Handle& h, faults::FaultKind k, long key) {
    if (faults::is_op_fault(k)) {
      ++h.ctr_.rem_calls;
      h.ctr_.rems += k == faults::FaultKind::kMidOpAbandon
                         ? do_remove_abandoned(h, key)
                         : do_remove_leaky(h, key);
    } else {
      h.rh_->abandon(k);
    }
  }

  /// kMidOpAbandon: win the marking CAS, then vanish -- no unlink, no
  /// back-pointer refresh, no cursor update. Survivors sweep the node
  /// (and their recover() hops treat its stale hint like any other
  /// imprecise one). Returns whether the logical remove took effect.
  bool do_remove_abandoned(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    const Pos p = search(h, key);
    if (p.cur == nullptr || p.cur->key != key) return false;
    for (;;) {
      const auto cv = p.cur->next.load();
      if (cv.marked) return false;  // another remover won
      if (p.cur->next.cas_mark(cv.ptr)) return true;
    }
  }

  /// kRetireSkipped: a complete remove that dies between the unlink
  /// CAS and the retire -- the successor's back hint is also left
  /// stale (hints are correctness-neutral; a crashed peer maintains
  /// nothing). The detached node goes to the domain's leak ledger; a
  /// failed unlink degrades to kMidOpAbandon and nothing leaks.
  bool do_remove_leaky(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    const Pos p = search(h, key);
    if (p.cur == nullptr || p.cur->key != key) return false;
    bool won = false;
    Node* succ = nullptr;
    for (;;) {
      const auto cv = p.cur->next.load();
      if (cv.marked) break;
      if (p.cur->next.cas_mark(cv.ptr)) {
        won = true;
        succ = cv.ptr;
        break;
      }
    }
    if (!won) return false;
    if constexpr (kHazards) {
      // Pin succ as in do_remove: the unlink CAS publishing succ at
      // p.prev must not race its reclamation.
      if (succ != nullptr) h.rh_->protect(hazard::kRun, succ);
    }
    if (p.prev->next.cas_clean(p.cur, succ)) {
      if constexpr (Reclaim::kReclaims) {
        hints_.purge(p.cur);  // leaves the live chain now; freed at
        h.rh_->leak(p.cur);   // teardown via the leak ledger
      }
    }
    return true;
  }

  bool do_contains(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    if constexpr (kHazards) {
      return contains_hazard(h, key);
    } else {
      Node* prev = start_node(h, key);
      Node* cur = prev->next.load().ptr;
      while (cur != nullptr) {
        const auto cv = cur->next.load();
        if (cv.marked) {
          cur = cv.ptr;
          continue;
        }
        if (cur->key >= key) break;
        prev = cur;
        cur = cv.ptr;
      }
      update_cursor(h, prev);
      maybe_publish(h, prev);
      return cur != nullptr && cur->key == key;
    }
  }

  bool contains_hazard(Handle& h, long key) {
    const auto w =
        hazard::anchored_walk<Traversal::kMild, Backoff::kNone, false, Node>(
            *h.rh_, key, [&] { return start_node(h, key); },
            [&] { drop_cursor(h); }, [](Node*, Node*, Node*) {},
            &h.ctr_.restarts);
    update_cursor(h, w.prev);
    maybe_publish(h, w.prev);  // kAnchor still covers w.prev
    return w.cur != nullptr && w.cur->key == key;
  }

  /// The scan primitive behind range_scan()/ascend(). Back pointers
  /// are never involved: scans walk forward only, with the same
  /// protocol split as the singly family (arena free walk / one EBR
  /// pin per scan / re-anchoring HP scan), and never touch the cursor.
  long do_scan(Handle& h, long from, long hi, long limit,
               const KeySink& sink) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    if constexpr (kHazards) {
      return scan::hazard_scan(
          *h.rh_, head_, from, hi, limit, sink,
          [&] {
            Node* g = hint_start(h, from);
            if (g == nullptr) return head_;
            ++h.ctr_.hint_hits;
            return g;  // validated key < from, kAnchor-covered
          },
          &h.ctr_.restarts);
    } else {
      // A validated hint with key < from is a correct pseudo-head: all
      // keys it skips are below the range.
      Node* g = hint_start(h, from);
      if (g != nullptr) ++h.ctr_.hint_hits;
      return scan::plain_scan(g != nullptr ? g : head_, from, hi, limit,
                              sink);
    }
  }

  std::shared_ptr<Reclaim> domain_;
  Node* head_;
  HintIndex<Node> hints_;
};

using DoublyList = DoublyFamilyList<Cursor::kNone, true>;
using DoublyCursorList = DoublyFamilyList<Cursor::kPerHandle, true>;
using DoublyCursorNoPrecList = DoublyFamilyList<Cursor::kPerHandle, false>;

}  // namespace pragmalist::core
