// The singly-linked variants of the paper, one engine templated on the
// three design knobs the ablation bench isolates plus a pluggable
// memory-reclamation policy:
//
//   Traversal::kDraconic  -- Michael-style: a traversal may never pass a
//     marked node; it must unlink it first and restart from the head
//     whenever the unlink CAS fails. Readers pay for writers.
//   Traversal::kMild      -- the paper's pragmatic rule: marked nodes
//     are simply traversed; the whole dead run is swung out with one
//     CAS right before the position is used, and contains() never
//     performs a CAS at all.
//   Marking::kCas / kFetchOr -- logical deletion via CAS-retry on the
//     next pointer vs a single fetch_or of the mark bit (variant e).
//   Cursor::kPerHandle    -- each handle remembers the last live node
//     it stood on and starts the next search there when the target key
//     is larger.
//   Backoff::kExponential -- exponential backoff on retry loops.
//
//   ReclaimPolicy (src/reclaim/) -- reclaim::Arena is the paper's
//     scheme: nothing is freed mid-run, stale pointers stay valid,
//     cursors are free. reclaim::Ebr wraps every operation in an epoch
//     pin; traversal is unchanged (the classic result that Harris-style
//     lists are safe under deferred reclamation), and the cursor is
//     stamped with the epoch its operation pinned: a node pointer held
//     across the unpinned gap may be freed, so the next operation
//     follows it only if it pinned at that same epoch (proof in
//     ebr.hpp). reclaim::Hp runs the *anchored-validation* traversal
//     below; cursors survive via a dedicated hazard slot.
//
// Hazard traversal is the anchored-validation walk shared via
// core::hazard::anchored_walk (see list_base.hpp for the safety
// argument). The pragmatic variants keep their no-CAS contains()
// under HP -- they pay publish+revalidate per step instead.
//
// Instantiations (paper letters): a) DraconicList, b) SinglyList,
// d) SinglyCursorList, e) SinglyFetchOrList, plus the ablation-only
// SinglyCursorBackoffList. The variant x reclaimer grid is named in
// variants.hpp.
#pragma once

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

template <Traversal kTraversal, Marking kMarking, Cursor kCursor,
          Backoff kBackoff,
          template <typename> class ReclaimPolicy = reclaim::Arena>
class SinglyFamilyList {
  struct Node {
    long key;
    MarkPtr<Node> next;
    Node* reg_next = nullptr;
    std::atomic<int> hint_slot{-1};  // HintIndex home slot

    explicit Node(long k, Node* succ = nullptr) : key(k), next(succ) {}
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

  /// Progress traits, asserted across the grid in variants.hpp (see
  /// the matrix in iset.hpp). The mild variants answer contains()
  /// without ever issuing a CAS; on top of that, the arena/EBR walk is
  /// one forward pass -- no restart path exists in do_contains's plain
  /// branch at all. Draconic readers help unlink (CAS + restart on a
  /// lost CAS) by design; HP readers are CAS-free but bounded-restart
  /// (anchored_walk resumes from the last validated anchor).
  static constexpr bool kContainsCasFree = kTraversal == Traversal::kMild;
  static constexpr bool kContainsRestartFree =
      kContainsCasFree && !ReclaimPolicy<Node>::kHazards;

 private:
  static constexpr bool kHazards = Reclaim::kHazards;
  // Cursors hold a node pointer across operations; every reclaimer
  // says when that pointer may be followed through its cursor-validity
  // capability (reclaim.hpp): always under the arena (stable addresses)
  // and HP (the kCursor hazard cell), within the stamped epoch under
  // EBR.
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
    friend class SinglyFamilyList;
    friend class CountingHandle<Handle>;
    bool add_raw(long key) { return list_->do_add(*this, key); }
    bool remove_raw(long key) { return list_->do_remove(*this, key); }
    bool contains_raw(long key) { return list_->do_contains(*this, key); }

    Handle(SinglyFamilyList* list, ReclaimHandle rh)  // owning
        : list_(list), rh_(std::move(rh)) {}
    Handle(SinglyFamilyList* list, ReclaimHandle* rh)  // borrowing
        : list_(list), rh_(rh) {}

    SinglyFamilyList* list_;
    // Stand-alone handles own their reclaim handle; shard handles
    // borrow the one their worker leased for the whole sharded set.
    reclaim::MaybeOwned<ReclaimHandle> rh_;
    Node* cursor_ = nullptr;
    std::uint64_t cursor_stamp_ = 0;  // rh_->cursor_stamp() at cursor_ set
    unsigned hint_tick_ = 0;  // throttles hint publishes (1 in 8 ops)
  };

  explicit SinglyFamilyList(std::shared_ptr<Reclaim> domain = nullptr,
                            bool hints = true)
      : domain_(domain ? std::move(domain) : std::make_shared<Reclaim>()),
        head_(domain_->construct(kSentinelKey)),
        hints_(hints) {
    domain_->track(head_);
  }
  /// Stand-alone list with an explicit allocation mode (slab twins).
  explicit SinglyFamilyList(alloc::Mode mode, bool hints = true)
      : SinglyFamilyList(std::make_shared<Reclaim>(mode), hints) {}
  SinglyFamilyList(const SinglyFamilyList&) = delete;
  SinglyFamilyList& operator=(const SinglyFamilyList&) = delete;

  ~SinglyFamilyList() {
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
    return quiescent::validate_chain(head_, domain_->live_nodes() + 1, err);
  }
  std::size_t size() const { return quiescent::size(head_); }
  std::vector<long> snapshot() const { return quiescent::snapshot(head_); }

  /// Published-and-not-yet-freed node count; the churn tests bound it
  /// under the reclaiming policies and watch it grow under the arena.
  /// Counts the whole *domain* -- all shards, when the domain is
  /// shared -- which is exactly what the footprint bounds want.
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
    Node* prev;  // live at observation, prev->next observed == cur
    Node* cur;   // first live node with key >= target, or nullptr
  };

  /// Forget the handle's cursor hint, releasing the persistent hazard
  /// cell only if this engine still owns it (core::hazard's
  /// owner-tagged cursor protocol; under a sharded set the cell may
  /// meanwhile guard another shard's cursor).
  void drop_cursor(Handle& h) {
    h.cursor_ = nullptr;
    if constexpr (kHazards) hazard::release_cursor(*h.rh_, this);
  }

  /// Validated hint-index candidate for a traversal toward `key`, or
  /// nullptr. Arena/EBR flavor: key/mark check only (arena addresses
  /// are stable; under EBR the caller's pin plus the purge/advance
  /// ordering keep a slot-visible node allocated -- see
  /// hint_index.hpp). HP flavor: kAnchor-protect the candidate, then
  /// re-read the slot seq_cst -- still naming it means the protection
  /// is ordered before any purge, hence before the retire that could
  /// free it -- then the same key/mark check. Either way the candidate
  /// stays covered through the caller's start-node pick.
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

  /// Advertise `n` in the hint index, 1 op in 8 (the slots go stale in
  /// well under 8 ops' time only under adversarial churn, and the
  /// publish is two seq_cst accesses -- too dear for every contains).
  /// Caller contract (hint_index.hpp): n covered by the caller's guard
  /// (HP: a hazard slot) and observed unmarked during this op.
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
      if (c != nullptr && !(c->key < key && !c->next.load().marked)) {
        // Unmarked implies still physically linked (nodes are only ever
        // unlinked after being marked), so the suffix from a validated
        // cursor is a valid place to begin. Under HP the cursor slot
        // keeps it allocated, under EBR the unmoved epoch.
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

  /// Remember `n` as the handle's next search hint. Under hazards the
  /// caller must still hold `n` in another slot (or pass the head/
  /// nullptr): publishing into the cursor slot while the old slot is
  /// live is what makes the protection gapless.
  void update_cursor(Handle& h, Node* n) {
    if constexpr (kCursorOn) {
      if (n == head_) n = nullptr;
      if constexpr (kHazards) hazard::publish_cursor(*h.rh_, this, n);
      h.cursor_ = n;
      h.cursor_stamp_ = h.rh_->cursor_stamp();
    }
  }

  /// Retire every node of the detached run [first, last): after the
  /// sweep CAS succeeded the frozen chain is reachable only by threads
  /// that entered it earlier, and only the detacher may retire it.
  void retire_run(Handle& h, Node* first, Node* last) {
    if constexpr (Reclaim::kReclaims) {
      Node* n = first;
      while (n != last) {
        Node* next = n->next.load().ptr;  // read before retire: a scan
        hints_.purge(n);  // no slot may name n once retire can free it
        h.rh_->retire(n);                  // may free n immediately
        n = next;
      }
    }
  }

  /// `from`, when non-null, is a node with key < `key` that this
  /// operation saw live: the plain walk begins there instead of at
  /// start_node(). The hazard walk keeps its own anchors and ignores it.
  Pos search(Handle& h, long key, Node* from = nullptr) {
    if constexpr (kHazards)
      return search_hazard(h, key);
    else
      return search_plain(h, key, from);
  }

  /// Locate `key` and guarantee physical adjacency prev->next == cur at
  /// some observed instant (required before an insert or unlink CAS).
  /// Arena/EBR flavor: no per-step protection (arena: addresses are
  /// stable; EBR: the caller's epoch pin covers the whole operation).
  Pos search_plain(Handle& h, long key, Node* from) {
    Backoffer bo;
    Node* start = from != nullptr ? from : start_node(h, key);
    for (;;) {
      Node* prev = start;
      const auto pv = prev->next.load();
      if (pv.marked) {  // cursor start died between check and here
        start = head_;
        continue;
      }
      Node* left_next = pv.ptr;  // the value we will CAS against at prev
      Node* cur = left_next;
      bool restart = false;
      while (cur != nullptr) {
        const auto cv = cur->next.load();
        if (cv.marked) {
          if constexpr (kTraversal == Traversal::kDraconic) {
            // Never step over a dead node: unlink it now or start over.
            if (prev->next.cas_clean(cur, cv.ptr)) {
              if constexpr (Reclaim::kReclaims) {
                hints_.purge(cur);
                h.rh_->retire(cur);
              }
              left_next = cv.ptr;
              cur = cv.ptr;
              continue;
            }
            restart = true;
            break;
          } else {
            cur = cv.ptr;  // pragmatic: just walk through it
            continue;
          }
        }
        if (cur->key >= key) break;
        prev = cur;
        left_next = cv.ptr;
        cur = cv.ptr;
      }
      if (!restart) {
        if (left_next == cur) return {prev, cur};
        // Swing the whole dead run [left_next..cur) out in one CAS.
        if (prev->next.cas_clean(left_next, cur)) {
          retire_run(h, left_next, cur);
          return {prev, cur};
        }
        restart = true;
      }
      // Lost the position (helping CAS or sweep CAS). The mild
      // variants resume from prev while it lives -- dereferenceable
      // here by construction (arena: stable addresses; EBR: the op's
      // pin) -- so the validated prefix is never re-walked; draconic
      // keeps its from-the-head discipline.
      ++h.ctr_.restarts;
      if constexpr (kBackoff == Backoff::kExponential) bo.pause();
      if constexpr (kTraversal == Traversal::kDraconic)
        start = head_;
      else
        start = !prev->next.load().marked ? prev : start_node(h, key);
    }
  }

  /// Hazard-pointer flavor of search: the shared anchored-validation
  /// walk. Returns with prev held in the anchor slot and cur in the
  /// walk slot; the caller may dereference both until its next search.
  Pos search_hazard(Handle& h, long key) {
    const auto w = hazard::anchored_walk<kTraversal, kBackoff, true, Node>(
        *h.rh_, key, [&] { return start_node(h, key); },
        [&] { drop_cursor(h); },
        [&](Node*, Node* first, Node* last) { retire_run(h, first, last); },
        &h.ctr_.restarts);
    return {w.prev, w.cur};
  }

  bool do_add(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    Backoffer bo;
    Node* node = nullptr;
    Node* from = nullptr;
    for (;;) {
      const Pos p = search(h, key, from);
      if (p.cur != nullptr && p.cur->key == key) {
        h.rh_->dispose(node);  // never published, still private
        // The present node itself (live when observed; HP: kWalk still
        // covers it) is the tightest start for the next, larger key.
        update_cursor(h, p.cur);
        return false;  // present (the node was live when observed)
      }
      if (node == nullptr)
        node = h.rh_->construct(key, p.cur);
      else
        node->next.store(p.cur);
      if (p.prev->next.cas_clean(p.cur, node)) {
        domain_->track(node);
        if constexpr (kHazards) {
          update_cursor(h, p.prev);  // p.prev is anchor-protected; the
          maybe_publish(h, p.prev);  // fresh node is not in any slot
        } else {
          update_cursor(h, node);
          maybe_publish(h, node);
        }
        return true;
      }
      // Lost the insert CAS. The mild variants resume from p.prev while
      // it is unmarked -- the paper's first observation: the validated
      // prefix is never re-walked -- instead of a fresh start_node();
      // draconic keeps Michael's fresh search, and HP its anchored walk.
      ++h.ctr_.restarts;
      if constexpr (kTraversal == Traversal::kMild && !kHazards)
        from = !p.prev->next.load().marked ? p.prev : nullptr;
      if constexpr (kBackoff == Backoff::kExponential) bo.pause();
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
    if constexpr (kMarking == Marking::kFetchOr) {
      const auto old = p.cur->next.fetch_or_mark();
      won = !old.marked;
      succ = old.ptr;
    } else {
      for (;;) {
        const auto cv = p.cur->next.load();
        if (cv.marked) break;  // another remover won
        if (p.cur->next.cas_mark(cv.ptr)) {
          won = true;
          succ = cv.ptr;
          break;
        }
      }
    }
    update_cursor(h, p.prev);
    maybe_publish(h, p.prev);
    if (!won) return false;
    // Physical unlink: one attempt in the mild variants (the next
    // search will sweep it), mandatory help in the draconic one. A
    // successful CAS detached exactly p.cur, so we own its retirement.
    if (p.prev->next.cas_clean(p.cur, succ)) {
      if constexpr (Reclaim::kReclaims) {
        hints_.purge(p.cur);
        h.rh_->retire(p.cur);
      }
    } else {
      if constexpr (kTraversal == Traversal::kDraconic) search(h, key);
    }
    return true;
  }

  /// Fault dispatch (Handle::abandon). The op-level kinds count as a
  /// remove attempt in the handle's ledger -- their logical removal
  /// really happens, so the population conservation check
  /// (prefill + adds - rems == size) keeps balancing across crashes.
  /// They deliberately leave the reclaim lease healthy: each fault
  /// kind isolates one recovery path (combine with a lease-level
  /// abandon on another worker to test both at once).
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

  /// kMidOpAbandon: win the remove's marking CAS, then vanish -- no
  /// unlink attempt, no draconic helping, no cursor update. The node
  /// stays marked-but-linked until a survivor's traversal sweeps it:
  /// exactly the cooperative-helping obligation a crashed peer leaves
  /// behind. Returns whether the logical remove took effect.
  bool do_remove_abandoned(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    const Pos p = search(h, key);
    if (p.cur == nullptr || p.cur->key != key) return false;
    if constexpr (kMarking == Marking::kFetchOr) {
      return !p.cur->next.fetch_or_mark().marked;
    } else {
      for (;;) {
        const auto cv = p.cur->next.load();
        if (cv.marked) return false;  // another remover won
        if (p.cur->next.cas_mark(cv.ptr)) return true;
      }
    }
  }

  /// kRetireSkipped: a complete remove -- mark and unlink -- that dies
  /// between the unlink CAS and the retire. The detached node goes to
  /// the domain's leak ledger instead of limbo; under the arena this
  /// degrades to a normal remove (retire was a no-op anyway). A failed
  /// unlink CAS leaves the node linked, degrading to kMidOpAbandon: a
  /// survivor sweeps and retires it normally, and nothing leaks.
  bool do_remove_leaky(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    const Pos p = search(h, key);
    if (p.cur == nullptr || p.cur->key != key) return false;
    bool won = false;
    Node* succ = nullptr;
    if constexpr (kMarking == Marking::kFetchOr) {
      const auto old = p.cur->next.fetch_or_mark();
      won = !old.marked;
      succ = old.ptr;
    } else {
      for (;;) {
        const auto cv = p.cur->next.load();
        if (cv.marked) break;
        if (p.cur->next.cas_mark(cv.ptr)) {
          won = true;
          succ = cv.ptr;
          break;
        }
      }
    }
    if (!won) return false;
    if (p.prev->next.cas_clean(p.cur, succ)) {
      if constexpr (Reclaim::kReclaims) {
        hints_.purge(p.cur);  // a leaked node is freed at teardown, but
        h.rh_->leak(p.cur);   // it leaves the live chain now
      }
    }
    return true;
  }

  bool do_contains(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    if constexpr (kTraversal == Traversal::kDraconic) {
      // Draconic readers help clean up (and pay the restarts for it).
      const Pos p = search(h, key);
      return p.cur != nullptr && p.cur->key == key;
    } else if constexpr (kHazards) {
      return contains_hazard(h, key);
    } else {
      // The fast lane (iset.hpp matrix): one forward pass from the
      // tighter of cursor/hint/head, no CAS, no restart path at all.
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

  /// The scan primitive behind range_scan()/ascend(): emit live keys
  /// in [from, hi], at most `limit` (< 0 = unbounded). Protocol per
  /// policy: the arena walks freely, EBR pins once for the whole scan
  /// (the guard below), HP runs the re-anchoring hazard scan. Scans
  /// are read-only on every variant -- even the draconic one -- and
  /// never touch the handle's cursor.
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
      // A validated hint with key < from is a correct pseudo-head for
      // the plain scan: every key it skips is below the range.
      Node* g = hint_start(h, from);
      if (g != nullptr) ++h.ctr_.hint_hits;
      return scan::plain_scan(g != nullptr ? g : head_, from, hi, limit,
                              sink);
    }
  }

  /// The mild contains under HP: still CAS-free (read-only walk), but
  /// every step pays the publish + anchor-revalidation.
  bool contains_hazard(Handle& h, long key) {
    const auto w =
        hazard::anchored_walk<Traversal::kMild, kBackoff, false, Node>(
            *h.rh_, key, [&] { return start_node(h, key); },
            [&] { drop_cursor(h); }, [](Node*, Node*, Node*) {},
            &h.ctr_.restarts);
    update_cursor(h, w.prev);
    maybe_publish(h, w.prev);  // kAnchor still covers w.prev
    return w.cur != nullptr && w.cur->key == key;
  }

  std::shared_ptr<Reclaim> domain_;
  Node* head_;
  HintIndex<Node> hints_;
};

using DraconicList = SinglyFamilyList<Traversal::kDraconic, Marking::kCas,
                                      Cursor::kNone, Backoff::kNone>;
using SinglyList = SinglyFamilyList<Traversal::kMild, Marking::kCas,
                                    Cursor::kNone, Backoff::kNone>;
using SinglyCursorList = SinglyFamilyList<Traversal::kMild, Marking::kCas,
                                          Cursor::kPerHandle, Backoff::kNone>;
using SinglyFetchOrList =
    SinglyFamilyList<Traversal::kMild, Marking::kFetchOr, Cursor::kPerHandle,
                     Backoff::kNone>;
using SinglyCursorBackoffList =
    SinglyFamilyList<Traversal::kMild, Marking::kCas, Cursor::kPerHandle,
                     Backoff::kExponential>;

}  // namespace pragmalist::core
