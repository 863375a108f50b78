// The paper's one-key-per-node lists (variants a-f and the ablation
// configurations): one engine templated on the design knobs the
// ablation bench isolates plus a pluggable memory-reclamation policy:
//
//   Traversal::kDraconic  -- Michael-style: a traversal may never pass a
//     marked node; it must unlink it first and restart from the head
//     whenever the unlink CAS fails. Readers pay for writers.
//   Traversal::kMild      -- the paper's pragmatic rule: marked nodes
//     are simply traversed. Under every reclaimer all three ops share
//     one CAS-free walk, core::locate() (list_base.hpp). contains(), an
//     add of a present key and a remove of an absent key are decided by
//     that walk and issue no CAS. An effective update issues exactly one
//     CAS on the list (plus the remove's mark), and that CAS also swings
//     out the dead run the walk crossed.
//   Marking::kCas / kFetchOr -- logical deletion via CAS-retry on the
//     next pointer vs a single fetch_or of the mark bit (variant e).
//   Cursor::kPerHandle    -- each handle remembers the last live node
//     it stood on and starts the next search there when the target key
//     is larger.
//   Backoff::kExponential -- exponential backoff on retry loops.
//   Back::kImprecise / kPrecise -- the paper's approximate backwards
//     pointers (variants c and f): an unsynchronized back hint per node
//     naming some node with a strictly smaller key (initially the
//     insert predecessor). Following back pointers from a dead start,
//     cursor or resume point reaches a live node below the target, so
//     the walk resumes there instead of at the head. kPrecise also
//     refreshes the survivor's hint after every insert and unlink so
//     it stays one hop tight (ablation id
//     `doubly_cursor_noprec` is kImprecise). The hint is never part of
//     the membership argument, and it is never cleaned when its target
//     dies: only the arena's stable addresses let the engine follow
//     it. Under EBR and HP the hints are maintained but never followed,
//     and a dead start falls to the Back::kNone rule.
//
//   ReclaimPolicy (src/reclaim/) -- reclaim::Arena is the paper's
//     scheme: nothing is freed mid-run, stale pointers stay valid,
//     cursors are free. reclaim::Ebr wraps every operation in an epoch
//     pin; traversal is unchanged (the classic result that Harris-style
//     lists are safe under deferred reclamation), and the cursor is
//     stamped with the epoch its operation pinned: a node pointer held
//     across the unpinned gap may be freed, so the next operation
//     follows it only if it pinned at that same epoch (proof in
//     ebr.hpp). reclaim::Hp runs the same walk with its anchored-
//     validation hazard steps compiled in; cursors survive via a
//     dedicated hazard slot.
//
// Under HP the pragmatic variants keep the no-CAS contains() and the
// one-CAS update path: they pay publish+revalidate per step instead,
// and a lost revalidation resumes from the last live anchor (see
// core::locate in list_base.hpp for the safety argument).
//
// Instantiations (paper letters): a) DraconicList, b) SinglyList,
// c) DoublyList, d) SinglyCursorList, e) SinglyFetchOrList,
// f) DoublyCursorList, plus the ablation-only SinglyCursorBackoffList
// and DoublyCursorNoPrecList, with the `With<R>` alias templates at
// the bottom naming every variant x reclaimer cell.
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

/// A node's back hint, or nothing: an empty base, so a Back::kNone node
/// keeps its four-word layout.
template <typename Node, bool kOn>
struct BackLink {
  explicit BackLink(Node*) {}
};
template <typename Node>
struct BackLink<Node, true> {
  explicit BackLink(Node* pred) : back(pred) {}
  std::atomic<Node*> back;
};

template <Traversal kTraversal, Marking kMarking, Cursor kCursor,
          Backoff kBackoff, Back kBack,
          template <typename> class ReclaimPolicy = reclaim::Arena>
class ListFamily {
  static_assert(kBack == Back::kNone || kTraversal == Traversal::kMild,
                "back pointers ride on the mild traversal");

  struct Node : BackLink<Node, kBack != Back::kNone> {
    long key;
    MarkPtr<Node> next;
    Node* reg_next = nullptr;
    std::atomic<int> hint_slot{-1};  // HintIndex home slot

    explicit Node(long k, Node* succ = nullptr, Node* pred = nullptr)
        : BackLink<Node, kBack != Back::kNone>(pred), key(k), next(succ) {}
  };
  // Node memory is what rss_peak_mb measures: the back field must not
  // leak into the rows without back pointers.
  static_assert(kBack != Back::kNone || sizeof(Node) == 4 * sizeof(void*),
                "a node without back pointers is four words");
  static_assert(kBack == Back::kNone || sizeof(Node) == 5 * sizeof(void*),
                "a back pointer costs exactly one word");

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
  /// without ever issuing a CAS; on top of that, off hazards the walk is
  /// one forward pass -- locate() has no restart path at all. The same
  /// walk makes the arena/EBR mild remove restart-free: one locate(), the
  /// mark (a fetch_or, or a lock-free CAS-mark loop that restarts
  /// nothing) and at most one unlink CAS. HP rows run the same bodies
  /// but are bounded-restart: a lost anchor revalidation resumes the
  /// walk from the last validated anchor. Draconic readers help unlink
  /// (CAS + restart from the head on a lost CAS) by design.
  static constexpr bool kContainsCasFree = kTraversal == Traversal::kMild;
  static constexpr bool kContainsRestartFree =
      kContainsCasFree && !ReclaimPolicy<Node>::kHazards;
  static constexpr bool kRemoveRestartFree =
      kTraversal == Traversal::kMild && !ReclaimPolicy<Node>::kHazards;

 private:
  static constexpr bool kHazards = Reclaim::kHazards;
  // Back hints are followed only where addresses are stable (the
  // arena); a reclaimer may have freed a hint's target.
  static constexpr bool kHopBack =
      kBack != Back::kNone && Reclaim::kStableAddresses;
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
    friend class ListFamily;
    friend class CountingHandle<Handle>;
    bool add_raw(long key) { return list_->do_add(*this, key); }
    bool remove_raw(long key) { return list_->do_remove(*this, key); }
    bool contains_raw(long key) { return list_->do_contains(*this, key); }

    Handle(ListFamily* list, ReclaimHandle rh)  // owning
        : list_(list), rh_(std::move(rh)) {}
    Handle(ListFamily* list, ReclaimHandle* rh)  // borrowing
        : list_(list), rh_(rh) {}

    ListFamily* list_;
    // Stand-alone handles own their reclaim handle; shard handles
    // borrow the one their worker leased for the whole sharded set.
    reclaim::MaybeOwned<ReclaimHandle> rh_;
    Node* cursor_ = nullptr;
    std::uint64_t cursor_stamp_ = 0;  // rh_->cursor_stamp() at cursor_ set
    int hint_from_ = -1;  // slot of the op's hint start (hint::start)
    hint::WalkWindow walks_;  // recent hinted walks (hint::note_walk)
    bool hint_own_ = false;   // the last start was the key's own bucket
  };

  explicit ListFamily(std::shared_ptr<Reclaim> domain = nullptr,
                      bool hints = true)
      : domain_(domain ? std::move(domain) : std::make_shared<Reclaim>()),
        head_(domain_->construct(kSentinelKey)),
        hints_(hints) {
    domain_->track(head_);
  }
  /// Stand-alone list with an explicit allocation mode (slab twins).
  explicit ListFamily(alloc::Mode mode, bool hints = true)
      : ListFamily(std::make_shared<Reclaim>(mode), hints) {}
  ListFamily(const ListFamily&) = delete;
  ListFamily& operator=(const ListFamily&) = delete;

  ~ListFamily() {
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
    if (!quiescent::validate_chain(head_, domain_->live_nodes() + 1, err))
      return false;
    if constexpr (kHopBack) {
      // Every linked node's back hint has a strictly smaller key (or is
      // the head). Only checkable under stable addresses: elsewhere a
      // hint may dangle and is never dereferenced, by us or the engine.
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

  /// Published-and-not-yet-freed node count; the churn tests bound it
  /// under the reclaiming policies and watch it grow under the arena.
  /// Counts the whole *domain* -- all shards, when the domain is
  /// shared -- which is exactly what the footprint bounds want.
  std::size_t allocated_nodes() const { return domain_->live_nodes(); }

  /// Quiescent-only: nodes physically linked, marked ones included
  /// (head excluded); see quiescent::linked for the ledger it closes.
  std::size_t linked_node_count() const { return quiescent::linked(head_); }

  /// The hint index's current slot count and re-indexes so far (safe
  /// while workers run).
  HintStats hint_stats() const {
    return {hints_.slots(), hints_.slots(), hints_.generation()};
  }

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

  using Pos = WalkPos<Node>;
  static bool hit(const Pos& p, long key) {
    return p.cur != nullptr && p.cur->key == key;
  }

  /// Forget the handle's cursor hint, releasing the persistent hazard
  /// cell only if this engine still owns it (core::hazard's
  /// owner-tagged cursor protocol; under a sharded set the cell may
  /// meanwhile guard another shard's cursor).
  void drop_cursor(Handle& h) {
    h.cursor_ = nullptr;
    if constexpr (kHazards) hazard::release_cursor(*h.rh_, this);
  }

  /// The hint index's caller glue (hint_index.hpp, namespace hint).
  Node* hint_start(Handle& h, long key) {
    return hint::start<kHazards>(hints_, h.rh_, key, h.hint_from_,
                                 &h.hint_own_);
  }
  void maybe_publish(Handle& h, Node* n) {
    hint::maybe_publish(hints_, h.hint_from_, head_, n);
  }

  /// kHopBack only: the nearest live node at or before `n` along back
  /// hints. Keys strictly decrease along them, so the hop ends at the
  /// head at worst.
  Node* recover(Node* n) const {
    while (n != head_ && n->next.load().marked)
      n = n->back.load(std::memory_order_acquire);
    return n;
  }

  /// Back::kPrecise: `pred` now sits right before `n`, make it n's back
  /// hint. The caller keeps n covered (arena: stable; EBR: the op's
  /// pin; HP: a hazard slot), so the write never hits freed memory.
  static void refresh_back(Node* n, Node* pred) {
    if constexpr (kBack == Back::kPrecise) {
      if (n != nullptr) n->back.store(pred, std::memory_order_release);
    }
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
      if constexpr (kHopBack) {
        // A dead cursor hops back to its nearest live predecessor
        // instead of being dropped; reaching the head drops it.
        if (c != nullptr && c->key < key) c = recover(c);
        if (c == head_) {
          drop_cursor(h);
          c = nullptr;
        }
      }
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
    const bool hinted = s != head_ && s == g;
    if (hinted) ++h.ctr_.hint_hits;
    h.hint_own_ = h.hint_own_ && hinted;  // a cursor start is not the hint
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

  void retire_run(Handle& h, Node* first, Node* last) {
    if constexpr (Reclaim::kReclaims)
      hint::retire_run(hints_, h.rh_, first, last);
  }

  /// The op's position: core::locate() from `from` -- a node this op
  /// saw live, after a lost insert CAS -- or from start_node(). The
  /// draconic walk's inline unlinks retire through the same purge-
  /// before-retire path as an update's run.
  /// Its length feeds the handle's walk ledger and, when the walk
  /// started at the hint in key's own bucket, the index's walk window.
  Pos search(Handle& h, long key, Node* from = nullptr) {
    Node* start = from != nullptr ? from : start_node(h, key);
    const bool own = from == nullptr && h.hint_own_;
    long steps = 0;
    const Pos p = locate<kTraversal, kBackoff, kHazards>(
        *h.rh_, head_, start, key,
        [&](Node* dead) { return dead_start(h, dead); },
        [&](Node* first, Node* last) { retire_run(h, first, last); },
        &h.ctr_.restarts, &steps);
    h.ctr_.walk_steps += steps;
    hint::note_walk(hints_, h.walks_, own, steps);
    return p;
  }

  /// A walk start that died since its check: drop it if it was the
  /// cursor, then hop back from it along back hints where addresses
  /// are stable, else begin at the head (never marked).
  Node* dead_start(Handle& h, Node* dead) {
    if (dead == h.cursor_) drop_cursor(h);
    if constexpr (kHopBack)
      return recover(dead);
    else
      return head_;
  }

  /// Logically delete `n`: one fetch_or (variant e) or a CAS-mark loop
  /// that stops once another remover's mark appears. `won` says whether
  /// this call set the mark; `succ` is n's successor, frozen from then.
  struct Marked {
    bool won;
    Node* succ;
  };
  static Marked mark(Node* n) {
    if constexpr (kMarking == Marking::kFetchOr) {
      const auto old = n->next.fetch_or_mark();
      return {!old.marked, old.ptr};
    } else {
      for (;;) {
        const auto cv = n->next.load();
        if (cv.marked) return {false, cv.ptr};  // another remover won
        if (n->next.cas_mark(cv.ptr)) return {true, cv.ptr};
      }
    }
  }

  bool do_add(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    Backoffer bo;
    Node* node = nullptr;
    Node* from = nullptr;
    for (;;) {
      const Pos p = search(h, key, from);
      if (hit(p, key)) {
        // Present (p.cur was live when observed): decided by the walk,
        // no CAS -- the dead run before p.cur is left for an update.
        h.rh_->dispose(node);  // never published, still private
        // The present node itself (HP: kWalk still covers it) is the
        // tightest start for the next, larger key.
        update_cursor(h, p.cur);
        return false;
      }
      if (node == nullptr) {
        node = h.rh_->construct(key, p.cur, p.prev);
      } else {
        node->next.store(p.cur);
        if constexpr (kBack != Back::kNone)
          node->back.store(p.prev, std::memory_order_relaxed);
      }
      // The one CAS: links the node and detaches the dead run
      // [left_next, cur) in the same step, so this op retires that run.
      if (p.prev->next.cas_clean(p.left_next, node)) {
        h.rh_->track(node);
        refresh_back(p.cur, node);  // HP: p.cur is still in kWalk
        retire_run(h, p.left_next, p.cur);
        if constexpr (kHazards) {
          update_cursor(h, p.prev);  // p.prev is anchor-protected; the
          maybe_publish(h, p.prev);  // fresh node is not in any slot
        } else {
          update_cursor(h, node);
          maybe_publish(h, node);
        }
        return true;
      }
      // Lost the insert CAS. The mild rows resume from p.prev (HP:
      // kAnchor still holds it) -- the paper's first observation: the
      // validated prefix is never re-walked. Once p.prev died, the
      // back-pointer rows hop back from it (the walk's dead start) and
      // the others take a fresh start_node(); draconic keeps Michael's
      // fresh search.
      ++h.ctr_.restarts;
      if constexpr (kHopBack)
        from = p.prev;
      else if constexpr (kTraversal == Traversal::kMild)
        from = !p.prev->next.load().marked ? p.prev : nullptr;
      if constexpr (kBackoff == Backoff::kExponential) bo.pause();
    }
  }

  bool do_remove(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    const Pos p = search(h, key);
    if (!hit(p, key)) {
      update_cursor(h, p.prev);
      return false;  // absent: decided by the walk, no CAS
    }
    const Marked m = mark(p.cur);
    update_cursor(h, p.prev);
    maybe_publish(h, p.prev);
    if (!m.won) return false;
    if constexpr (kHazards && kBack == Back::kPrecise) {
      // Pin succ for the refresh below: if the unlink CAS succeeds, succ
      // was still attached when the hazard became visible, so it cannot
      // have been freed. Never in the slot that holds the CAS's
      // expected left_next (core::locate's header): kWalk when a run
      // sits in kRun, else the idle kRun.
      if (m.succ != nullptr)
        h.rh_->protect(p.left_next != p.cur ? hazard::kWalk : hazard::kRun,
                       m.succ);
    }
    // Physical unlink: one CAS detaches the dead run and the victim,
    // [left_next, succ), so this op retires them all. The mild rows
    // make one attempt and leave a lost one to the next update at this
    // position; the draconic one must help.
    if (p.prev->next.cas_clean(p.left_next, m.succ)) {
      refresh_back(m.succ, p.prev);
      retire_run(h, p.left_next, m.succ);
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
  /// stays marked-but-linked until a survivor sweeps it (mild: the next
  /// effective update at that position, inside its own CAS): exactly
  /// the cooperative-helping obligation a crashed peer leaves behind.
  /// Returns whether the logical remove took effect.
  bool do_remove_abandoned(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    const Pos p = search(h, key);
    return hit(p, key) && mark(p.cur).won;
  }

  /// kRetireSkipped: a complete remove -- mark and unlink -- that dies
  /// between the unlink CAS and the victim's retire. The detached
  /// victim goes to the domain's leak ledger instead of limbo (the dead
  /// run the same CAS swept out is retired as usual); under the arena
  /// this degrades to a normal remove (retire was a no-op anyway). A
  /// failed unlink CAS leaves the node linked, degrading to
  /// kMidOpAbandon: a survivor sweeps and retires it, and nothing leaks.
  bool do_remove_leaky(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    const Pos p = search(h, key);
    if (!hit(p, key)) return false;
    const Marked m = mark(p.cur);
    if (!m.won) return false;
    if (p.prev->next.cas_clean(p.left_next, m.succ)) {
      retire_run(h, p.left_next, p.cur);
      if constexpr (Reclaim::kReclaims) {
        hints_.purge(p.cur);  // a leaked node is freed at teardown, but
        h.rh_->leak(p.cur);   // it leaves the live chain now
      }
    }
    return true;
  }

  bool do_contains(Handle& h, long key) {
    [[maybe_unused]] auto guard = h.rh_->guard();
    // Mild: the fast lane (iset.hpp matrix), one locate() from the
    // tighter of cursor/hint/head, no CAS (and off hazards no restart
    // path at all). Draconic readers help clean up (and pay the
    // restarts for it).
    const Pos p = search(h, key);
    if constexpr (kTraversal == Traversal::kMild) {
      update_cursor(h, p.prev);  // HP: kAnchor still covers p.prev
      maybe_publish(h, p.prev);
    }
    return hit(p, key);
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

  std::shared_ptr<Reclaim> domain_;
  Node* head_;
  HintIndex<Node> hints_;
};

// Every variant's `With<R>` alias names its column of the variant x
// reclaimer grid (the catalog builds each cell from it); the plain
// alias is the paper's arena cell.
template <template <typename> class R>
using DraconicListWith = ListFamily<Traversal::kDraconic, Marking::kCas,
                                    Cursor::kNone, Backoff::kNone,
                                    Back::kNone, R>;
template <template <typename> class R>
using SinglyListWith = ListFamily<Traversal::kMild, Marking::kCas,
                                  Cursor::kNone, Backoff::kNone, Back::kNone,
                                  R>;
template <template <typename> class R>
using DoublyListWith = ListFamily<Traversal::kMild, Marking::kCas,
                                  Cursor::kNone, Backoff::kNone,
                                  Back::kPrecise, R>;
template <template <typename> class R>
using SinglyCursorListWith =
    ListFamily<Traversal::kMild, Marking::kCas, Cursor::kPerHandle,
               Backoff::kNone, Back::kNone, R>;
template <template <typename> class R>
using SinglyFetchOrListWith =
    ListFamily<Traversal::kMild, Marking::kFetchOr, Cursor::kPerHandle,
               Backoff::kNone, Back::kNone, R>;
template <template <typename> class R>
using DoublyCursorListWith =
    ListFamily<Traversal::kMild, Marking::kCas, Cursor::kPerHandle,
               Backoff::kNone, Back::kPrecise, R>;

using DraconicList = DraconicListWith<reclaim::Arena>;
using SinglyList = SinglyListWith<reclaim::Arena>;
using DoublyList = DoublyListWith<reclaim::Arena>;
using SinglyCursorList = SinglyCursorListWith<reclaim::Arena>;
using SinglyFetchOrList = SinglyFetchOrListWith<reclaim::Arena>;
using DoublyCursorList = DoublyCursorListWith<reclaim::Arena>;
using SinglyCursorBackoffList =
    ListFamily<Traversal::kMild, Marking::kCas, Cursor::kPerHandle,
               Backoff::kExponential, Back::kNone>;
using DoublyCursorNoPrecList =
    ListFamily<Traversal::kMild, Marking::kCas, Cursor::kPerHandle,
               Backoff::kNone, Back::kImprecise>;

}  // namespace pragmalist::core
