// Unrolled ("fat node") variant of the pragmatic list: each node packs
// up to K keys next to one Harris-marked next pointer, so the chain the
// paper's traversal rules walk is K times shorter and every step lands
// on a slab-slot-sized block of keys instead of one. The point of the
// engine is to exercise the per-domain slab allocator (src/alloc/) with
// a node type whose footprint is an actual cache-line multiple, and to
// price unrolling against the one-key-per-node families on the same
// reclaim policies.
//
// Structure:
//   * The head is a pure sentinel (anchor LONG_MIN, never holds keys,
//     never marked). Every other node carries an *immutable anchor*
//     stored in the field named `key` -- the name is load-bearing: it is
//     what lets the engine reuse core::hazard::anchored_walk verbatim,
//     which routes by comparing `cur->key` exactly as the one-key list
//     engine (ListFamily) does. Anchors are strictly increasing along
//     the physical chain at all times (splits insert between their
//     source's and its successor's anchors; fresh nodes insert after
//     the head, below the first anchor).
//   * Keys live in K atomic cells, kept sorted, guarded by a per-node
//     seqlock (`version`): even = unlocked, odd = writer inside. The
//     version doubles as the writer mutex -- a writer CASes even->odd
//     (acquire the lock), mutates cells/count/mark, then stores +1 with
//     release. Readers snapshot (version, count, cells, mark) and
//     retry if the version was odd or moved; the mark bit only ever
//     changes under the lock, so a validated snapshot is coherent.
//   * Membership invariant: every key of an unmarked node n satisfies
//     anchor(n) <= key < anchor(first *unmarked* successor of n). So
//     the covering node for a search key -- the last unmarked node with
//     anchor <= key -- is the only place the key can live.
//   * marked => empty, permanently: a node is marked (under its lock)
//     exactly when its last key leaves, and a marked node's next is
//     frozen (core::MarkPtr), so sweeps can detach it with the familiar
//     one-CAS run swing. Writers' routing walks and scans both sweep.
//
// Rebalancing, all under the seqlock(s):
//   * Split-right at K+1 keys: inserting into a full node keeps the
//     lower (K+1)/2 keys and moves the rest to a fresh node anchored at
//     its lowest moved key; the link CAS happens *before* the source's
//     cells shrink, and the whole window sits inside the source's lock,
//     so no reader can observe a key missing (readers of the source
//     retry until unlock; readers arriving through the chain see the
//     complete new sibling).
//   * Merge-left only: a remove leaving count <= K/4 may absorb its
//     *immediate unmarked successor* (combined count <= K/2), under
//     both locks, left-then-right -- lock order follows anchor order,
//     so no deadlock; the right lock is a trylock anyway. Absorbing
//     left-to-right preserves the anchor invariant (the moved keys are
//     all >= the absorber's anchor); merging into the successor would
//     not. The absorbed node is emptied, marked, unlinked, retired.
//
// Concurrent reads: a contains routes to the covering node and takes a
// version-validated snapshot. A hit is authoritative (keys of an
// unmarked node are live). A miss is not -- a split may have moved the
// key to a new right sibling after the route -- so a miss re-routes and
// only reports absent if the covering node is *still* the same node at
// the same version (64-bit, no ABA); anything else retries. Under HP
// the snapshot node is pinned in the persistent kCursor cell across
// the second walk (owner-tagged, like the cursor engines). Scans
// restart from the head on meeting a marked node -- after one sweep
// attempt to bound the restarts -- because merge-left can move keys
// *behind* a forward scanner; the resume point (`next_from`) makes
// restarts emission-idempotent.
//
// Keys must lie in (LONG_MIN, LONG_MAX): LONG_MIN is the head anchor
// and the empty-cell sentinel, LONG_MAX would overflow the key+1
// routing probe. Scan *bounds* may still be the full long range.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/debug.hpp"
#include "src/core/hint_index.hpp"
#include "src/core/iset.hpp"
#include "src/core/list_base.hpp"
#include "src/reclaim/maybe_owned.hpp"
#include "src/reclaim/reclaim.hpp"

namespace pragmalist::core {

template <int kK, template <typename> class ReclaimPolicy = reclaim::Arena>
class UnrolledFamilyList {
  static_assert(kK >= 4, "fat nodes need room to split and merge");

  struct Node {
    long key;  // immutable anchor; named `key` for anchored_walk reuse
    MarkPtr<Node> next;
    Node* reg_next = nullptr;
    std::atomic<std::uint64_t> version{0};  // seqlock; odd = locked
    std::atomic<int> count{0};
    std::atomic<int> hint_slot{-1};  // HintIndex home, in count's padding
    std::atomic<long> cells[kK];

    explicit Node(long anchor, Node* succ = nullptr)
        : key(anchor), next(succ) {
      for (auto& c : cells)
        c.store(kEmptyCell, std::memory_order_relaxed);
    }
  };

 public:
  /// The reclamation *domain* this engine runs against. Stand-alone
  /// lists make their own; a sharded set makes one and hands it to
  /// every shard, so N shards cost one epoch clock / slot table.
  using Reclaim = ReclaimPolicy<Node>;
  using ReclaimHandle = typename Reclaim::Handle;

  /// Every node is acquired through the domain's pool, so the engine
  /// is eligible for slab mode (shard::ShardedSet asserts this trait
  /// before sharing one slab-mode domain across its shards). Fat
  /// nodes are the pool's intended tenant: sizeof(Node) is a
  /// cache-line multiple, so slab slots tile without waste.
  static constexpr bool kPoolAllocates = true;

  /// Progress traits (iset.hpp matrix; asserted in variants.hpp).
  /// contains never CASes, but it is *not* restart-free under any
  /// reclaimer: a miss must be confirmed by a second route landing on
  /// the same covering node at the same seqlock version, and a moved
  /// node re-routes -- bounded in practice, unbounded only under
  /// continuous split/merge at the probed anchor.
  static constexpr bool kContainsCasFree = true;
  static constexpr bool kContainsRestartFree = false;

 private:
  static constexpr bool kHazards = Reclaim::kHazards;
  static constexpr long kEmptyCell = std::numeric_limits<long>::min();
  static constexpr long kHeadAnchor = std::numeric_limits<long>::min();
  // Split keeps the lower half; merge fires on count <= kK/4 when the
  // combined node stays at most half full (conservative: a just-merged
  // node is never split-ready, avoiding merge/split ping-pong).
  static constexpr int kSplitKeep = (kK + 1) / 2;
  static constexpr int kMergeCount = kK / 4;
  static constexpr int kMergeCombined = kK / 2;

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
    friend class UnrolledFamilyList;
    friend class CountingHandle<Handle>;
    bool add_raw(long key) { return list_->do_add(*this, key); }
    bool remove_raw(long key) {
      return list_->remove_impl(*this, key, RemoveMode::kNormal);
    }
    bool contains_raw(long key) { return list_->do_contains(*this, key); }

    Handle(UnrolledFamilyList* list, ReclaimHandle rh)  // owning
        : list_(list), rh_(std::move(rh)) {}
    Handle(UnrolledFamilyList* list, ReclaimHandle* rh)  // borrowing
        : list_(list), rh_(rh) {}

    UnrolledFamilyList* list_;
    reclaim::MaybeOwned<ReclaimHandle> rh_;
    unsigned hint_tick_ = 0;  // throttles hint publishes (1 in 8 ops)
  };

  explicit UnrolledFamilyList(std::shared_ptr<Reclaim> domain = nullptr,
                              bool hints = true)
      : domain_(domain ? std::move(domain) : std::make_shared<Reclaim>()),
        head_(domain_->construct(kHeadAnchor)),
        hints_(hints) {
    domain_->track(head_);
  }
  /// Stand-alone list with an explicit allocation mode (slab twins).
  explicit UnrolledFamilyList(alloc::Mode mode, bool hints = true)
      : UnrolledFamilyList(std::make_shared<Reclaim>(mode), hints) {}
  UnrolledFamilyList(const UnrolledFamilyList&) = delete;
  UnrolledFamilyList& operator=(const UnrolledFamilyList&) = delete;

  ~UnrolledFamilyList() {
    if constexpr (Reclaim::kReclaims) {
      // The arena owns every node it tracked; a reclaiming policy only
      // owns the retired ones, so the still-linked chain (live or
      // marked) is ours to free. Handles are gone by now.
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
    const std::size_t bound = domain_->live_nodes() + 1;
    const Node* prev = nullptr;
    long last_live_key = kHeadAnchor;  // max key of the last unmarked node
    bool have_live = false;
    std::size_t steps = 0;
    for (const Node* n = head_->next.load_ptr(); n != nullptr;) {
      if (++steps > bound) {
        if (err) *err = "cycle: chain longer than total allocations";
        return false;
      }
      const auto v = n->next.load();
      if (prev != nullptr && n->key <= prev->key) {
        if (err) {
          std::ostringstream os;
          os << "anchors not increasing: " << prev->key << " before "
             << n->key;
          *err = os.str();
        }
        return false;
      }
      const int cnt = n->count.load(std::memory_order_relaxed);
      if (v.marked) {
        if (cnt != 0) {
          if (err) {
            std::ostringstream os;
            os << "marked node with " << cnt << " keys at anchor " << n->key;
            *err = os.str();
          }
          return false;
        }
      } else {
        if (cnt < 1 || cnt > kK) {
          if (err) {
            std::ostringstream os;
            os << "live node count " << cnt << " out of [1," << kK
               << "] at anchor " << n->key;
            *err = os.str();
          }
          return false;
        }
        long last = kHeadAnchor;
        for (int i = 0; i < cnt; ++i) {
          const long k = n->cells[i].load(std::memory_order_relaxed);
          if (k < n->key || (i > 0 && k <= last)) {
            if (err) {
              std::ostringstream os;
              os << "cells unsorted or below anchor " << n->key
                 << " (cell " << i << " = " << k << ")";
              *err = os.str();
            }
            return false;
          }
          last = k;
        }
        if (have_live && n->key <= last_live_key) {
          if (err) {
            std::ostringstream os;
            os << "anchor " << n->key << " not above predecessor max key "
               << last_live_key;
            *err = os.str();
          }
          return false;
        }
        last_live_key = last;
        have_live = true;
      }
      prev = n;
      n = v.ptr;
    }
    return true;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Node* n = head_->next.load_ptr(); n != nullptr;) {
      const auto v = n->next.load();
      if (!v.marked)
        total += static_cast<std::size_t>(
            n->count.load(std::memory_order_relaxed));
      n = v.ptr;
    }
    return total;
  }

  std::vector<long> snapshot() const {
    std::vector<long> keys;
    for (const Node* n = head_->next.load_ptr(); n != nullptr;) {
      const auto v = n->next.load();
      if (!v.marked) {
        const int cnt = n->count.load(std::memory_order_relaxed);
        for (int i = 0; i < cnt; ++i)
          keys.push_back(n->cells[i].load(std::memory_order_relaxed));
      }
      n = v.ptr;
    }
    return keys;
  }

  /// Published-and-not-yet-freed node count (fat nodes, not keys); the
  /// churn tests bound it under the reclaiming policies.
  std::size_t allocated_nodes() const { return domain_->live_nodes(); }

  /// Quiescent-only: nodes physically linked, marked ones included
  /// (head excluded); see quiescent::linked for the ledger it closes.
  std::size_t linked_node_count() const { return quiescent::linked(head_); }

  /// Quiescent-only: unmarked fat nodes currently linked (head
  /// sentinel excluded). The split/merge unit tests assert node-count
  /// transitions with this.
  std::size_t live_node_count() const {
    std::size_t nodes = 0;
    for (const Node* n = head_->next.load_ptr(); n != nullptr;) {
      const auto v = n->next.load();
      if (!v.marked) ++nodes;
      n = v.ptr;
    }
    return nodes;
  }

  std::size_t limbo_nodes() const {
    if constexpr (Reclaim::kReclaims)
      return domain_->limbo_nodes();
    else
      return 0;
  }

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

  /// Test-only: break the sorted-cells invariant of the first live
  /// node (requires a node with >= 2 keys).
  void corrupt_order_for_test() {
    for (Node* n = head_->next.load_ptr(); n != nullptr;
         n = n->next.load_ptr()) {
      if (n->next.load().marked) continue;
      const int cnt = n->count.load(std::memory_order_relaxed);
      if (cnt < 2) continue;
      const long a = n->cells[0].load(std::memory_order_relaxed);
      const long b = n->cells[1].load(std::memory_order_relaxed);
      n->cells[0].store(b, std::memory_order_relaxed);
      n->cells[1].store(a, std::memory_order_relaxed);
      return;
    }
  }

 private:
  friend class Handle;

  enum class RemoveMode { kNormal, kAbandon, kLeaky };
  enum class Cov { kOk, kLost };

  struct Pos {
    Node* prev;  // covering candidate: last unmarked anchor < probe
    Node* cur;   // first unmarked anchor >= probe, physically adjacent
  };

  /// Version-validated read of one node: (mark, count, cells) coherent
  /// as of some instant inside the call. The mark only changes under
  /// the node's seqlock, so the version check covers it too.
  struct NodeView {
    std::uint64_t version;
    bool marked;
    Node* next;
    int count;
    long keys[kK];
  };

  static NodeView read_node(const Node* n) {
    NodeView out;
    for (;;) {
      const std::uint64_t v1 = n->version.load(std::memory_order_acquire);
      if (v1 & 1) continue;  // writer inside; spin
      out.version = v1;
      int cnt = n->count.load(std::memory_order_acquire);
      if (cnt < 0) cnt = 0;
      if (cnt > kK) cnt = kK;  // torn read; the version check rejects it
      out.count = cnt;
      // Acquire loads instead of the textbook acquire *fence* before
      // the re-check (TSan does not model fences): the validating load
      // below cannot be reordered before any of these, which is all
      // the fence bought us. On x86 both compile to plain loads.
      for (int i = 0; i < cnt; ++i)
        out.keys[i] = n->cells[i].load(std::memory_order_acquire);
      const auto nv = n->next.load();
      out.marked = nv.marked;
      out.next = nv.ptr;
      if (n->version.load(std::memory_order_relaxed) == v1) return out;
    }
  }

  static bool view_contains(const NodeView& v, long key) {
    for (int i = 0; i < v.count; ++i) {
      if (v.keys[i] == key) return true;
      if (v.keys[i] > key) return false;
    }
    return false;
  }

  static void lock_node(Node* n) {
    std::uint64_t v = n->version.load(std::memory_order_relaxed);
    for (;;) {
      if (v & 1) {
        v = n->version.load(std::memory_order_relaxed);
        continue;
      }
      if (n->version.compare_exchange_weak(v, v + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
        return;
    }
  }
  static bool try_lock_node(Node* n) {
    std::uint64_t v = n->version.load(std::memory_order_relaxed);
    return !(v & 1) &&
           n->version.compare_exchange_strong(v, v + 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed);
  }
  static void unlock_node(Node* n) {
    n->version.store(n->version.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
  }

  void retire_one(Handle& h, Node* n) {
    if constexpr (Reclaim::kReclaims) {
      hints_.purge(n);  // no slot may name n once retire can free it
      h.rh_->retire(n);
    }
  }

  void retire_run(Handle& h, Node* first, Node* last) {
    if constexpr (Reclaim::kReclaims)
      hint::retire_run(hints_, h.rh_, first, last);
  }

  /// Validated hint-index candidate for a walk toward `probe`, or
  /// nullptr. A validated fat node (unmarked, anchor < probe) is a
  /// correct routing start: anchors increase along the chain, so the
  /// covering node sits at or after it.
  Node* hint_start(Handle& h, long probe) {
    return hint::start<kHazards>(hints_, h.rh_, probe);
  }

  /// Advertise the covering node (hint::maybe_publish's contract).
  void maybe_publish(Handle& h, Node* n) {
    hint::maybe_publish(hints_, h.hint_tick_, head_, n);
  }

  /// Routing walk toward `probe` with adjacency (prev->next == cur at
  /// an observed instant; the final dead run swept). Route with
  /// probe = key + 1 and `prev` is the covering candidate: the last
  /// unmarked node with anchor <= key.
  Pos route(Handle& h, long probe) {
    if constexpr (kHazards) {
      const auto w =
          hazard::anchored_walk<Traversal::kMild, Backoff::kNone, true, Node>(
              *h.rh_, probe,
              [&] {
                Node* g = hint_start(h, probe);
                if (g == nullptr) return head_;
                ++h.ctr_.hint_hits;
                return g;  // validated anchor < probe, kAnchor-covered
              },
              [] {},
              [&](Node*, Node* first, Node* last) {
                retire_run(h, first, last);
              },
              &h.ctr_.restarts);
      return {w.prev, w.cur};
    } else {
      Node* start = hint_start(h, probe);
      if (start == nullptr)
        start = head_;
      else
        ++h.ctr_.hint_hits;
      for (;;) {
        Node* prev = start;
        if (prev != head_ && prev->next.load().marked) {
          // The start died since its validation. A marked fat node was
          // emptied, possibly merged *left* -- the covering node may
          // now sit behind it, so decay to the head, never walk on.
          start = head_;
          continue;
        }
        Node* left_next = prev->next.load().ptr;
        Node* cur = left_next;
        while (cur != nullptr) {
          const auto cv = cur->next.load();
          if (cv.marked) {
            cur = cv.ptr;  // pragmatic: just walk through it
            continue;
          }
          if (cur->key >= probe) break;
          prev = cur;
          left_next = cv.ptr;
          cur = cv.ptr;
        }
        if (left_next == cur) return {prev, cur};
        // Swing the whole dead run [left_next..cur) out in one CAS.
        if (prev->next.cas_clean(left_next, cur)) {
          retire_run(h, left_next, cur);
          return {prev, cur};
        }
        // Sweep CAS lost: resume from prev (dereference-safe -- arena
        // addresses are stable, EBR's pin covers the op) while it
        // lives; the dead-start check above handles the decay.
        ++h.ctr_.restarts;
        start = prev;
      }
    }
  }

  /// Read-only covering probe for contains: no CAS, no protection
  /// beyond the caller's (arena addresses are stable, EBR's guard
  /// covers the op). Returns the last unmarked node observed with
  /// anchor < probe. A hint start is sound here: all candidates are
  /// observed unmarked during this op with anchor < probe, and the
  /// walk's endpoint -- the last such node before the probe -- does
  /// not depend on where below the probe it began.
  Node* route_weak(Handle& h, long probe) {
    Node* prev = hint_start(h, probe);
    if (prev == nullptr || prev->next.load().marked)
      prev = head_;
    else
      ++h.ctr_.hint_hits;
    Node* cur = prev->next.load().ptr;
    while (cur != nullptr) {
      const auto cv = cur->next.load();
      if (cv.marked) {
        cur = cv.ptr;
        continue;
      }
      if (cur->key >= probe) break;
      prev = cur;
      cur = cv.ptr;
    }
    return prev;
  }

  /// Caller holds A's lock, A unmarked. Verify no *unmarked* successor
  /// has an anchor <= key (a split since the route would have moved the
  /// key's home right). Anchors increase along the chain, so only the
  /// prefix of successors with anchor <= key matters -- and any marked
  /// ones among them are empty corpses this helper sweeps on the way.
  /// kLost means the caller must re-route.
  Cov ensure_coverage(Handle& h, Node* a, long key) {
    for (;;) {
      Node* s = a->next.load().ptr;  // A unmarked => mark bit clear
      if (s == nullptr) return Cov::kOk;
      if constexpr (kHazards) {
        h.rh_->protect(hazard::kWalk, s);
        // A is locked and unmarked, so s can only have been retired if
        // it was first detached from A -- which this re-read detects.
        if (a->next.load().ptr != s) continue;
      }
      if (s->key > key) return Cov::kOk;
      const auto sv = s->next.load();
      if (!sv.marked) return Cov::kLost;
      // Marked blocker: frozen next, safe to detach with one CAS.
      if (a->next.cas_clean(s, sv.ptr)) retire_one(h, s);
    }
  }

  /// Detach-and-dispose walk for a node this thread just emptied and
  /// marked: route to its anchor so the kMutate sweep swings the run
  /// containing it. `leak` (kRetireSkipped) sends the victim to the
  /// domain's leak ledger instead of limbo; every other detached
  /// corpse retires normally. The victim pointer is only *compared*,
  /// never dereferenced -- by the time we re-walk it may already be
  /// someone else's retiree.
  void sweep_for(Handle& h, long anchor, Node* leak_victim) {
    auto dispose = [&](Node* first, Node* last) {
      if constexpr (Reclaim::kReclaims) {
        Node* n = first;
        while (n != last) {
          Node* next = n->next.load().ptr;
          hints_.purge(n);  // before the node can leave the live chain
          if (n == leak_victim)
            h.rh_->leak(n);
          else
            h.rh_->retire(n);
          n = next;
        }
      }
    };
    if constexpr (kHazards) {
      hazard::anchored_walk<Traversal::kMild, Backoff::kNone, true, Node>(
          *h.rh_, anchor, [&] { return head_; }, [] {},
          [&](Node*, Node* first, Node* last) { dispose(first, last); });
    } else {
      for (;;) {
        Node* prev = head_;
        Node* left_next = prev->next.load().ptr;
        Node* cur = left_next;
        while (cur != nullptr) {
          const auto cv = cur->next.load();
          if (cv.marked) {
            cur = cv.ptr;
            continue;
          }
          if (cur->key >= anchor) break;
          prev = cur;
          left_next = cv.ptr;
          cur = cv.ptr;
        }
        if (left_next == cur) return;  // someone else swept it
        if (prev->next.cas_clean(left_next, cur)) {
          dispose(left_next, cur);
          return;
        }
      }
    }
  }

  /// Caller holds A's lock, A unmarked and underfull. Absorb A's
  /// immediate unmarked successor if the pair fits in half a node.
  /// Locks s (trylock -- contention just skips the merge), empties and
  /// marks it under both locks, then unlinks and retires it.
  void try_merge(Handle& h, Node* a) {
    for (;;) {
      Node* s = a->next.load().ptr;
      if (s == nullptr) return;
      if constexpr (kHazards) {
        h.rh_->protect(hazard::kRun, s);
        if (a->next.load().ptr != s) continue;
      }
      if (s->next.load().marked) return;  // corpse; the next walk sweeps
      if (!try_lock_node(s)) return;
      const auto sv = s->next.load();
      if (sv.marked) {  // emptied between the check and our lock
        unlock_node(s);
        return;
      }
      const int ac = a->count.load(std::memory_order_relaxed);
      const int sc = s->count.load(std::memory_order_relaxed);
      if (sc == 0 || ac + sc > kMergeCombined) {
        unlock_node(s);
        return;
      }
      // All of s's keys are >= s->key > every key of A: append keeps
      // A's cells sorted and A's range still below s's old successor.
      for (int i = 0; i < sc; ++i)
        a->cells[ac + i].store(s->cells[i].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
      a->count.store(ac + sc, std::memory_order_relaxed);
      for (int i = 0; i < sc; ++i)
        s->cells[i].store(kEmptyCell, std::memory_order_relaxed);
      s->count.store(0, std::memory_order_relaxed);
      // marked => empty; next frozen. Unlink to the *frozen* successor,
      // not sv.ptr: s's lock excludes splits of s but not lock-free
      // sweeps from s, so sv.ptr may be a corpse swept (and retired)
      // since it was read -- relinking it would retire it twice.
      Node* succ = s->next.fetch_or_mark().ptr;
      unlock_node(s);
      // A is locked and unmarked, so A->next is still s (splits of A
      // are excluded by the lock; sweeps only remove marked nodes and
      // s was unmarked until just now). CAS regardless -- a racing
      // sweeper may beat us to the unlink now that s is marked.
      if (a->next.cas_clean(s, succ)) retire_one(h, s);
      return;
    }
  }

  bool do_add(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    PRAGMALIST_CHECK(key != kHeadAnchor &&
                         key != std::numeric_limits<long>::max(),
                     "unrolled keys must lie in (LONG_MIN, LONG_MAX)");
    for (;;) {
      const Pos p = route(h, key + 1);
      Node* a = p.prev;
      if (a == head_) {
        // No covering node: a fresh node anchored at the key, linked
        // right after the head (below the first anchor, if any).
        Node* fresh = h.rh_->construct(key, p.cur);
        fresh->cells[0].store(key, std::memory_order_relaxed);
        fresh->count.store(1, std::memory_order_relaxed);
        if (head_->next.cas_clean(p.cur, fresh)) {
          domain_->track(fresh);
          return true;
        }
        h.rh_->dispose(fresh);  // never published, still private
        continue;
      }
      lock_node(a);
      if (a->next.load().marked) {  // emptied under us; re-route
        unlock_node(a);
        ++h.ctr_.restarts;
        continue;
      }
      if (ensure_coverage(h, a, key) == Cov::kLost) {
        unlock_node(a);
        ++h.ctr_.restarts;
        continue;
      }
      const int cnt = a->count.load(std::memory_order_relaxed);
      int idx = 0;
      while (idx < cnt) {
        const long c = a->cells[idx].load(std::memory_order_relaxed);
        if (c == key) {
          unlock_node(a);
          maybe_publish(h, a);  // a stays guard-covered past the unlock
          return false;  // present (live: the node is unmarked)
        }
        if (c > key) break;
        ++idx;
      }
      if (cnt < kK) {
        for (int i = cnt; i > idx; --i)
          a->cells[i].store(a->cells[i - 1].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        a->cells[idx].store(key, std::memory_order_relaxed);
        a->count.store(cnt + 1, std::memory_order_relaxed);
        unlock_node(a);
        maybe_publish(h, a);
        return true;
      }
      // Split-right: K existing keys + the new one; the lower
      // kSplitKeep stay, the rest move to a fresh sibling anchored at
      // its lowest key. Link first, shrink after -- all under A's
      // lock, so no reader observes the transient duplication.
      long tmp[kK + 1];
      for (int i = 0, j = 0; i < cnt; ++i, ++j) {
        if (j == idx) tmp[j++] = key;
        tmp[j] = a->cells[i].load(std::memory_order_relaxed);
      }
      if (idx == cnt) tmp[cnt] = key;
      Node* b = h.rh_->construct(tmp[kSplitKeep]);
      for (int i = kSplitKeep; i <= kK; ++i)
        b->cells[i - kSplitKeep].store(tmp[i], std::memory_order_relaxed);
      b->count.store(kK + 1 - kSplitKeep, std::memory_order_relaxed);
      for (;;) {  // racing sweeps may move A's next under us
        Node* succ = a->next.load().ptr;
        b->next.store(succ);
        if (a->next.cas_clean(succ, b)) break;
      }
      for (int i = 0; i < kSplitKeep; ++i)
        a->cells[i].store(tmp[i], std::memory_order_relaxed);
      for (int i = kSplitKeep; i < kK; ++i)
        a->cells[i].store(kEmptyCell, std::memory_order_relaxed);
      a->count.store(kSplitKeep, std::memory_order_relaxed);
      unlock_node(a);
      domain_->track(b);
      maybe_publish(h, a);  // not b: the fresh sibling is unprotected
      return true;
    }
  }

  bool remove_impl(Handle& h, long key, RemoveMode mode) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    if (key == kHeadAnchor || key == std::numeric_limits<long>::max())
      return false;
    for (;;) {
      const Pos p = route(h, key + 1);
      Node* a = p.prev;
      if (a == head_) return false;  // no node can cover the key
      lock_node(a);
      if (a->next.load().marked) {
        unlock_node(a);
        ++h.ctr_.restarts;
        continue;
      }
      if (ensure_coverage(h, a, key) == Cov::kLost) {
        unlock_node(a);
        ++h.ctr_.restarts;
        continue;
      }
      const int cnt = a->count.load(std::memory_order_relaxed);
      int idx = -1;
      for (int i = 0; i < cnt; ++i) {
        const long c = a->cells[i].load(std::memory_order_relaxed);
        if (c == key) {
          idx = i;
          break;
        }
        if (c > key) break;
      }
      if (idx < 0) {
        unlock_node(a);
        return false;
      }
      for (int i = idx; i + 1 < cnt; ++i)
        a->cells[i].store(a->cells[i + 1].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      a->cells[cnt - 1].store(kEmptyCell, std::memory_order_relaxed);
      a->count.store(cnt - 1, std::memory_order_relaxed);
      if (cnt - 1 == 0) {
        // Last key out: mark under the lock (marked => empty), then
        // clean up per mode. kAbandon vanishes mid-removal -- the
        // marked node stays linked for the survivors' sweeps, the
        // cooperative-helping debt a crashed peer leaves behind.
        const long anchor = a->key;
        a->next.fetch_or_mark();
        unlock_node(a);
        if (mode == RemoveMode::kNormal)
          sweep_for(h, anchor, nullptr);
        else if (mode == RemoveMode::kLeaky)
          sweep_for(h, anchor, a);
        return true;
      }
      if (mode == RemoveMode::kNormal && cnt - 1 <= kMergeCount)
        try_merge(h, a);
      unlock_node(a);
      maybe_publish(h, a);  // still unmarked: it kept >= 1 key
      return true;
    }
  }

  /// Fault dispatch (Handle::abandon), mirroring ListFamily:
  /// op-level kinds count as a remove attempt so the population
  /// conservation check keeps balancing across crashes. kMidOpAbandon
  /// skips all physical cleanup (no sweep, no merge); kRetireSkipped
  /// completes the unlink but leaks the node past limbo. Neither fires
  /// the fat-node-specific paths unless the remove actually empties
  /// its node -- a non-emptying faulted remove degrades to a plain
  /// remove, exactly like a failed unlink degrades in ListFamily.
  void do_abandon(Handle& h, faults::FaultKind k, long key) {
    if (faults::is_op_fault(k)) {
      ++h.ctr_.rem_calls;
      h.ctr_.rems += k == faults::FaultKind::kMidOpAbandon
                         ? remove_impl(h, key, RemoveMode::kAbandon)
                         : remove_impl(h, key, RemoveMode::kLeaky);
    } else {
      h.rh_->abandon(k);
    }
  }

  bool do_contains(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    if (key == kHeadAnchor || key == std::numeric_limits<long>::max())
      return false;
    if constexpr (kHazards)
      return contains_hazard(h, key);
    else
      return contains_plain(h, key);
  }

  /// CAS-free contains (arena/EBR). A hit in a validated snapshot of
  /// an unmarked covering node is authoritative. A miss is confirmed
  /// only if a second route lands on the *same* node at the *same*
  /// version -- the cells provably did not change through the second
  /// route's observation instant, so the key was absent then. The
  /// 64-bit version cannot ABA.
  bool contains_plain(Handle& h, long key) {
    for (;;) {
      Node* a = route_weak(h, key + 1);
      if (a == head_) return false;  // no covering node observed
      const NodeView v = read_node(a);
      if (v.marked) {  // emptied under us; re-route
        ++h.ctr_.restarts;
        continue;
      }
      if (view_contains(v, key)) {
        maybe_publish(h, a);
        return true;
      }
      Node* a2 = route_weak(h, key + 1);
      if (a2 == a &&
          a->version.load(std::memory_order_acquire) == v.version)
        return false;
      ++h.ctr_.restarts;
    }
  }

  /// HP contains: anchored read-only walk, snapshot, then pin the
  /// covering node in the persistent kCursor cell (owner-tagged, the
  /// cursor engines' protocol) across a second walk. Same-node +
  /// same-version confirms the miss; the pin keeps the snapshot node
  /// allocated while the second walk runs.
  bool contains_hazard(Handle& h, long key) {
    auto hinted_start = [&] {
      Node* g = hint_start(h, key + 1);
      if (g == nullptr) return head_;
      ++h.ctr_.hint_hits;
      return g;  // validated anchor < probe, kAnchor-covered
    };
    for (;;) {
      const auto w1 =
          hazard::anchored_walk<Traversal::kMild, Backoff::kNone, false,
                                Node>(*h.rh_, key + 1, hinted_start, [] {},
                                      [](Node*, Node*, Node*) {},
                                      &h.ctr_.restarts);
      Node* a = w1.prev;
      if (a == head_) return false;
      const NodeView v = read_node(a);  // a is kAnchor-protected
      if (v.marked) {
        ++h.ctr_.restarts;
        continue;
      }
      if (view_contains(v, key)) {
        maybe_publish(h, a);  // kAnchor still covers a
        return true;
      }
      hazard::publish_cursor(*h.rh_, this, a);  // gapless: kAnchor live
      const auto w2 =
          hazard::anchored_walk<Traversal::kMild, Backoff::kNone, false,
                                Node>(*h.rh_, key + 1, hinted_start, [] {},
                                      [](Node*, Node*, Node*) {},
                                      &h.ctr_.restarts);
      const bool confirmed =
          w2.prev == a &&
          a->version.load(std::memory_order_acquire) == v.version;
      hazard::release_cursor(*h.rh_, this);
      if (confirmed) return false;
      ++h.ctr_.restarts;
    }
  }

  /// The scan primitive behind range_scan()/ascend(): emit live keys
  /// in [from, hi], at most `limit` (< 0 = unbounded). Per-node
  /// emission comes from a version-validated snapshot, so a node's
  /// keys are observed atomically; across nodes the usual per-key
  /// contract holds. Meeting a marked node restarts from the head
  /// (after one sweep attempt): merge-left may have moved its keys
  /// *behind* the scanner, and only a re-route can find them. The
  /// resume point makes restarts emission-idempotent, and each restart
  /// retired (or raced the retirement of) one corpse, which bounds
  /// them.
  long do_scan(Handle& h, long from, long hi, long limit,
               const KeySink& sink) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    if (from > hi || limit == 0) return 0;
    if constexpr (kHazards)
      return scan_hazard(h, from, hi, limit, sink);
    else
      return scan_plain(h, from, hi, limit, sink);
  }

  long scan_plain(Handle& h, long from, long hi, long limit,
                  const KeySink& sink) {
    long emitted = 0;
    long next_from = from;  // first key position not yet observed
    for (;;) {
      Node* prev = head_;
      Node* cur = head_->next.load().ptr;
      bool restart = false;
      while (cur != nullptr) {
        if (cur->key > hi) return emitted;  // anchors only grow
        const NodeView v = read_node(cur);
        if (v.marked) {
          // prev->next == cur was observed directly (we restart at the
          // first marked node, so no run-walking happened); the corpse
          // has a frozen next, one CAS detaches it. Restarts go to the
          // head -- never a hint: merge-left may have moved this
          // node's keys *behind* any start below the resume point.
          if (prev->next.cas_clean(cur, v.next)) retire_one(h, cur);
          ++h.ctr_.restarts;
          restart = true;
          break;
        }
        for (int i = 0; i < v.count; ++i) {
          const long k = v.keys[i];
          if (k < next_from) continue;
          if (k > hi) return emitted;
          if (limit >= 0 && emitted >= limit) return emitted;
          sink(k);
          ++emitted;
          if (k == hi) return emitted;
          next_from = k + 1;
        }
        prev = cur;
        cur = v.next;
      }
      if (!restart) return emitted;  // clean end of chain
    }
  }

  /// Hazard flavor: kAnchor on the last live node, kWalk on the node
  /// being snapshotted, anchor revalidation before every snapshot --
  /// the same discipline as scan::hazard_scan, minus run-walking
  /// (marked nodes restart, as above, so kRun is never needed).
  long scan_hazard(Handle& h, long from, long hi, long limit,
                   const KeySink& sink) {
    long emitted = 0;
    long next_from = from;
    for (;;) {
      Node* prev = head_;  // the head sentinel is never marked
      h.rh_->protect(hazard::kAnchor, prev);
      Node* cur = prev->next.load().ptr;
      bool restart = false;
      while (cur != nullptr) {
        h.rh_->protect(hazard::kWalk, cur);
        {
          const auto av = prev->next.load();
          if (av.marked || av.ptr != cur) {
            ++h.ctr_.restarts;
            restart = true;
            break;
          }
        }
        if (cur->key > hi) return emitted;
        const NodeView v = read_node(cur);
        if (v.marked) {
          if (prev->next.cas_clean(cur, v.next)) retire_one(h, cur);
          ++h.ctr_.restarts;
          restart = true;
          break;
        }
        for (int i = 0; i < v.count; ++i) {
          const long k = v.keys[i];
          if (k < next_from) continue;
          if (k > hi) return emitted;
          if (limit >= 0 && emitted >= limit) return emitted;
          sink(k);
          ++emitted;
          if (k == hi) return emitted;
          next_from = k + 1;
        }
        prev = cur;
        h.rh_->protect(hazard::kAnchor, cur);  // kWalk still covers cur
        cur = v.next;
      }
      if (!restart) return emitted;
    }
  }

  std::shared_ptr<Reclaim> domain_;
  Node* head_;
  HintIndex<Node> hints_;
};

template <template <typename> class R>
using UnrolledK8ListWith = UnrolledFamilyList<8, R>;

using UnrolledK8List = UnrolledK8ListWith<reclaim::Arena>;
using UnrolledK8ListEbr = UnrolledK8ListWith<reclaim::Ebr>;
using UnrolledK8ListHp = UnrolledK8ListWith<reclaim::Hp>;

// iset.hpp matrix, compile-time: fat-node contains never CASes, but
// the version-confirm re-route means it is not restart-free anywhere.
static_assert(UnrolledK8List::kContainsCasFree &&
                  UnrolledK8ListEbr::kContainsCasFree &&
                  UnrolledK8ListHp::kContainsCasFree &&
                  !UnrolledK8List::kContainsRestartFree,
              "unrolled contains: CAS-free, version-confirm re-routes");

}  // namespace pragmalist::core
