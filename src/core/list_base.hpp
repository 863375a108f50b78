// Shared machinery for the marked-pointer list variants:
//
//  * MarkPtr     -- an atomic next-pointer whose low bit is the Harris
//                   deletion mark. Marking a node's *own* next pointer
//                   logically deletes the node and simultaneously
//                   poisons any in-flight CAS that expected the
//                   unmarked value, which is what makes the pragmatic
//                   variants safe without draconic traversal rules.
//  * AllocRegistry -- the paper's reclamation scheme: every node ever
//                   allocated is threaded onto a lock-free registry and
//                   freed when the list is destroyed. Nothing is freed
//                   (or reused) mid-run, so traversals may hold stale
//                   pointers and CAS never suffers ABA. The
//                   hazard-pointer and epoch baselines exist precisely
//                   to price this choice against real reclamation.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace pragmalist::core {

inline constexpr std::uintptr_t kMarkBit = 1;

// Design knobs of the paper's variants; see the list engine
// (singly_family.hpp) for the full semantics of each.
enum class Traversal { kDraconic, kMild };
enum class Marking { kCas, kFetchOr };
enum class Cursor { kNone, kPerHandle };
enum class Backoff { kNone, kExponential };
enum class Back { kNone, kImprecise, kPrecise };

/// Bounded exponential backoff for CAS retry loops (the ablation's
/// `backoff` knob). Starts at 16 pause iterations, doubles to 1024.
class Backoffer {
 public:
  void pause() {
    for (std::uint32_t i = 0; i < (1u << shift_); ++i) cpu_relax();
    if (shift_ < 10) ++shift_;
  }

 private:
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }
  std::uint32_t shift_ = 4;
};

template <typename Node>
class MarkPtr {
 public:
  struct Value {
    Node* ptr;
    bool marked;
  };

  MarkPtr() : bits_(0) {}
  explicit MarkPtr(Node* p) : bits_(reinterpret_cast<std::uintptr_t>(p)) {}

  Value load(std::memory_order order = std::memory_order_acquire) const {
    return unpack(bits_.load(order));
  }

  Node* load_ptr(std::memory_order order = std::memory_order_acquire) const {
    return unpack(bits_.load(order)).ptr;
  }

  /// Re-read via a no-op RMW (fetch_or 0, seq_cst). Unlike a plain
  /// load, an RMW reads the *latest* value in this cell's modification
  /// order, so it cannot lag behind a concurrent mark. The hint index
  /// publish protocol depends on exactly that (hint_index.hpp): the
  /// post-publish mark re-check must not miss a mark that a purge has
  /// already acted on.
  Value load_rmw() {
    return unpack(bits_.fetch_or(0, std::memory_order_seq_cst));
  }

  void store(Node* p, std::memory_order order = std::memory_order_release) {
    bits_.store(pack(p, false), order);
  }

  /// CAS from the *unmarked* pointer `expected` to the unmarked pointer
  /// `desired`. Fails if a mark appeared: this is the only way the
  /// variants ever modify a next pointer, so a marked node's next is
  /// frozen forever -- the key structural invariant.
  bool cas_clean(Node* expected, Node* desired) {
    std::uintptr_t e = pack(expected, false);
    return bits_.compare_exchange_strong(e, pack(desired, false),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  /// CAS from the unmarked `expected` to the *marked* same pointer:
  /// the logical-deletion step of the CAS-marking variants.
  bool cas_mark(Node* expected) {
    std::uintptr_t e = pack(expected, false);
    return bits_.compare_exchange_strong(e, pack(expected, true),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  /// Unconditionally set the mark bit; returns the previous raw value.
  /// One atomic instruction replaces the CAS retry loop -- the paper's
  /// fetch-or marking variant (e). The caller owns the deletion iff the
  /// bit was previously clear.
  Value fetch_or_mark() {
    return unpack(bits_.fetch_or(kMarkBit, std::memory_order_acq_rel));
  }

 private:
  static std::uintptr_t pack(Node* p, bool marked) {
    return reinterpret_cast<std::uintptr_t>(p) | (marked ? kMarkBit : 0);
  }
  static Value unpack(std::uintptr_t bits) {
    return {reinterpret_cast<Node*>(bits & ~kMarkBit),
            (bits & kMarkBit) != 0};
  }

  std::atomic<std::uintptr_t> bits_;
};

/// Treiber push of `n` onto the intrusive stack threaded through the
/// nodes' `reg_next` field. Shared by the alloc registry and the
/// baselines' retire/leftover stacks.
template <typename Node>
void push_intrusive(std::atomic<Node*>& head_atomic, Node* n) {
  Node* head = head_atomic.load(std::memory_order_relaxed);
  do {
    n->reg_next = head;
  } while (!head_atomic.compare_exchange_weak(head, n,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
}

/// Lock-free registry of every node a list ever allocated (via the
/// node's `reg_next` field); the owning list frees the lot on
/// destruction. See file comment for why this is the paper's scheme.
template <typename Node>
class AllocRegistry {
 public:
  AllocRegistry() = default;
  AllocRegistry(const AllocRegistry&) = delete;
  AllocRegistry& operator=(const AllocRegistry&) = delete;

  ~AllocRegistry() { free_all(); }

  void track(Node* n) {
    count_.fetch_add(1, std::memory_order_relaxed);
    push_intrusive(head_, n);
  }

  std::size_t count() const { return count_.load(std::memory_order_relaxed); }

  void free_all() {
    free_all([](Node* n) { delete n; });
  }

  /// Drain with a custom deleter -- domains whose nodes live in slab
  /// slots return them to the pool instead of `delete`ing.
  template <typename Free>
  void free_all(Free&& free_node) {
    Node* n = head_.exchange(nullptr, std::memory_order_acquire);
    while (n != nullptr) {
      Node* next = n->reg_next;
      free_node(n);
      n = next;
    }
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<Node*> head_{nullptr};
  std::atomic<std::size_t> count_{0};
};

/// Hazard-pointer slot roles and the persistent-cursor protocol, shared
/// by the list engines whenever the reclamation policy sets kHazards.
/// The slots are what make locate() below sound under HP; its header
/// carries the argument.
namespace hazard {

// Slot roles (reclaim::Hp::kSlots >= 4):
inline constexpr int kAnchor = 0;  // last live predecessor `prev`
inline constexpr int kWalk = 1;    // the node the walk stands on, `cur`
inline constexpr int kRun = 2;     // current dead run's head, `left_next`
inline constexpr int kCursor = 3;  // per-handle cursor, held across ops

// The persistent kCursor cell is a per-*thread* resource: under a
// sharded set many list engines borrow one reclaim handle, so the cell
// carries an owner tag (reclaim::Hp::Handle::cursor_owner) naming the
// engine whose cursor it currently protects. These three helpers are
// the whole protocol -- the list engine and the unrolled engine use
// them verbatim, so the rules live once:
//   * only the owner may clear the cell (another engine's cursor may
//     be parked there);
//   * publishing stamps the caller as owner;
//   * an engine that is not the owner must treat its remembered cursor
//     node as unprotected and never dereference it.

/// True when `owner` (an engine) still holds the kCursor cell.
template <typename ReclaimHandle>
bool owns_cursor(const ReclaimHandle& rh, const void* owner) {
  return rh.cursor_owner == owner;
}

/// Clear the cell iff `owner` holds it.
template <typename ReclaimHandle>
void release_cursor(ReclaimHandle& rh, const void* owner) {
  if (rh.cursor_owner == owner) {
    rh.clear(kCursor);
    rh.cursor_owner = nullptr;
  }
}

/// Protect `n` in the cell and stamp `owner`; nullptr releases instead.
template <typename ReclaimHandle, typename Node>
void publish_cursor(ReclaimHandle& rh, const void* owner, Node* n) {
  if (n == nullptr) {
    release_cursor(rh, owner);
  } else {
    rh.protect(kCursor, n);
    rh.cursor_owner = owner;
  }
}

}  // namespace hazard

/// Where locate() leaves an operation.
template <typename Node>
struct WalkPos {
  Node* prev;       // seen live with prev->next == left_next
  Node* left_next;  // first node of the dead run [left_next, cur), or cur
  Node* cur;        // first live node with key >= target, or nullptr
};

/// The one forward point-op walk. Both engines position every point
/// op with it, under every reclaimer (the unrolled engine's fat nodes
/// route by their anchor, stored in the field named `key`). From
/// `start` toward `key` it returns {prev, left_next, cur}:
///   * cur is the first live node with key >= `key`, or nullptr;
///   * prev was seen live with prev->next == left_next;
///   * every node of [left_next, cur) was seen marked, so its next is
///     frozen.
/// One CAS prev->next: left_next -> x therefore detaches the whole dead
/// run together with whatever the caller links or unlinks, and the
/// thread whose CAS won retires the run (the single-detacher argument,
/// docs/ARCHITECTURE.md "Update path"). The walk never sweeps: the run
/// is left to the caller's one CAS, so an op the walk decides writes
/// nothing. The draconic traversal (Michael-style) instead never
/// steps over a marked node: it unlinks it inline and hands the
/// one-node run to on_swept(first, last) -- the caller purges and
/// retires it there -- so its left_next is always cur.
///
/// A start found dead is replaced by dead_start(start), the engine's
/// fallback (the head, or a back-hint hop). *steps (when non-null) gains
/// the number of nodes the walk examined, over every pass: what the op
/// paid, and what the hint index's re-index trigger reads
/// (hint::note_walk). A lost pass bumps *restarts (when non-null) and
/// goes again; where it goes depends on the
/// traversal, not the reclaimer. A draconic walk loses a pass to a
/// lost helping CAS and starts over from the head (Michael's rule,
/// paper row a). A mild walk loses one only to a failed anchor
/// revalidation under hazards and resumes at `prev`, the last live
/// anchor, still kAnchor-protected -- the validated prefix of the key
/// space is never re-walked, and a dead resume point falls to
/// dead_start(). Off hazards the mild walk has no restart path at all.
///
/// Hazard pointers (kHazards). Plain HP is incompatible with traversals
/// that step over marked nodes (Michael, TPDS'04): a marked node's next
/// is frozen, so re-reading it can never reveal that its successor was
/// swept out and freed. The walk instead revalidates against the *run
/// anchor*: prev is the last live node (kAnchor) and left_next the
/// first node of the dead run hanging off it. Any CAS that detaches --
/// and hence retires -- any node of that run must swing prev->next away
/// from left_next (marked nexts are frozen; the anchor cell is the
/// run's only mutable attachment point). So after publishing a hazard
/// on the next node (kWalk), one re-read of prev->next suffices: still
/// left_next and unmarked means nothing in the run was retired before
/// the hazard became visible. For the address compare to mean
/// anything, left_next itself stays protected for the whole run (kRun):
/// an unprotected run head could be freed and its address recycled by
/// a fresh insert, making both the re-read and the caller's CAS succeed
/// against a different, live node (ABA).
///
/// On return prev is in kAnchor, cur in kWalk, and left_next in kRun
/// whenever it differs from cur, so the caller's CAS prev->next:
/// left_next -> x is ABA-safe. These pins must survive from the walk's
/// return until that CAS: between the two a caller may reuse a slot
/// only if the CAS does not need what it holds. The one such reuse is
/// the Back::kPrecise remove's pin on the victim's successor `succ`,
/// which its back-hint refresh writes after the CAS. When left_next !=
/// cur the pin takes kWalk: cur, the marked victim, is not dereferenced
/// between the mark and the CAS, and after a won CAS the detached run
/// [left_next, succ) belongs to this thread alone, so nobody else can
/// retire any of it. When left_next == cur, kWalk holds the CAS's
/// expected value and the pin takes the idle kRun instead. Pinning succ
/// in kRun unconditionally would re-open the ABA hole kRun closes.
template <Traversal kTraversal, Backoff kBackoff, bool kHazards,
          typename Node, typename ReclaimHandle, typename DeadStartFn,
          typename SweptFn>
WalkPos<Node> locate([[maybe_unused]] ReclaimHandle& rh, Node* head,
                     Node* start, long key, DeadStartFn&& dead_start,
                     [[maybe_unused]] SweptFn&& on_swept, long* restarts,
                     long* steps = nullptr) {
  Backoffer bo;
  long examined = 0;  // stays in a register; stored once at the end
  for (;;) {
    Node* prev = start;
    if constexpr (kHazards) rh.protect(hazard::kAnchor, prev);
    const auto pv = prev->next.load();
    if (pv.marked) {  // the start died since its check
      start = dead_start(prev);
      continue;
    }
    Node* left_next = pv.ptr;
    Node* cur = left_next;
    bool lost = false;
    while (cur != nullptr) {
      ++examined;
      if constexpr (kHazards) {
        rh.protect(hazard::kWalk, cur);
        // Anchor revalidation: run still attached => cur not retired
        // before the hazard above became visible.
        const auto av = prev->next.load();
        if (av.marked || av.ptr != left_next) {
          lost = true;
          break;
        }
      }
      const auto cv = cur->next.load();
      if (cv.marked) {
        if constexpr (kTraversal == Traversal::kDraconic) {
          // Never step over a dead node: unlink it now or start over.
          // left_next == cur here, so under HP kWalk covers the CAS
          // expectation.
          if (!prev->next.cas_clean(cur, cv.ptr)) {
            lost = true;
            break;
          }
          on_swept(cur, cv.ptr);
          left_next = cur = cv.ptr;
        } else {
          // Entering a run: pin its head until the caller's CAS.
          // Gapless: kWalk still covers cur == left_next here.
          if constexpr (kHazards) {
            if (cur == left_next) rh.protect(hazard::kRun, cur);
          }
          cur = cv.ptr;  // pragmatic: just walk through it
        }
        continue;
      }
      if (cur->key >= key) break;
      prev = cur;
      // Gapless: kWalk still covers cur while kAnchor takes it over.
      if constexpr (kHazards) rh.protect(hazard::kAnchor, cur);
      left_next = cur = cv.ptr;
    }
    if (!lost) {
      if (steps != nullptr) *steps += examined;
      return {prev, left_next, cur};
    }
    if (restarts != nullptr) ++*restarts;
    if constexpr (kBackoff == Backoff::kExponential) bo.pause();
    start = kTraversal == Traversal::kDraconic ? head : prev;
  }
}

/// Traversal-start selection shared by the list engines. Two
/// independent shortcut mechanisms can propose a start anchor for the
/// same search -- the per-handle cursor (Cursor::kPerHandle) and the
/// set-wide hint index (hint_index.hpp) -- and before this helper each
/// engine picked whichever it consulted first, so the two raced
/// instead of composing. The rule lives here, once: every candidate
/// the caller passes must already be *validated* (key < target,
/// unmarked, covered by the caller's guard -- under HP the cursor sits
/// in kCursor and the hint in kAnchor, so both stay protected through
/// the pick), and the tighter anchor -- the greatest key -- wins.
/// nullptr candidates mean "no proposal"; the head is the floor.
namespace start {

template <typename Node>
Node* tighter(Node* head, Node* cursor, Node* hint) {
  Node* best = head;
  if (cursor != nullptr && (best == head || cursor->key > best->key))
    best = cursor;
  if (hint != nullptr && (best == head || hint->key > best->key))
    best = hint;
  return best;
}

}  // namespace start

/// Ordered range scans: the one scan walk behind every engine's
/// range_scan()/ascend() and quiescent snapshot(). The walk owns the
/// position and the protection; each engine passes only its per-node
/// step, which reads one node, offers its keys to `Out` and says what
/// the node was (`Verdict`). The one-key list's step is KeyStep below;
/// the unrolled engine's offers a version-validated fat-node snapshot.
///
/// Protection per reclaimer (docs/ARCHITECTURE.md "Range scans"):
///   * arena -- none: addresses are stable for the list's lifetime.
///   * EBR   -- the caller's ONE epoch pin covers the whole walk, so a
///     long scan holds the reclamation horizon -- the cost bench_grid's
///     scan cells price against HP.
///   * HP    -- locate()'s discipline, compiled in under kHazards:
///     publish kWalk, revalidate the kAnchor cell (prev->next still
///     left_next, unmarked), pin a dead run's head in kRun, re-anchor
///     on every live node. A lost revalidation resumes from the last
///     validated anchor, still in kAnchor; the persistent kCursor cell
///     is never touched, so a scan cannot disturb an engine's cursor.
///
/// Emission runs past `next_from`, the successor of the last emitted
/// key: a re-walked prefix is never emitted twice and observation
/// instants increase along the key space, so every resume keeps the
/// per-key scan contract (iset.hpp). A start or resume point is the
/// head or a node validated unmarked that no wanted key lies before
/// (a list key < next_from, a fat-node anchor <= next_from). The walk
/// steps every anchor but the head (the head is only a pointer): a
/// list anchor emits nothing, since its key is below next_from, while
/// an unrolled anchor emits its keys from next_from on, which covers
/// a start node's tail and whatever a merge moved into it. An anchor
/// found dead decays to the engine's start (a validated hint, else
/// the head).
///
/// No scan issues a CAS or retires a node, on any variant (even the
/// draconic row never unlinks during a scan).
///
/// Marked nodes. A list key never moves, so the list steps through a
/// marked node. A fat node's keys do move: a split moves keys *right*,
/// into a fresh sibling linked right after its source, which a forward
/// walk still reaches (through the source's frozen next if the source
/// dies); merge-left moves a node's keys into its immediate unmarked
/// predecessor L, under L's seqlock, *before* it marks the emptied
/// node. That can put keys behind the walk. Let P be the last live node
/// the walk snapshotted (version v) and M the marked node it stands on,
/// reached from P through marked nodes only. The unrolled step crosses
/// M only if, after reading M marked, P's version still reads v (for P
/// = the head, which holds no keys and has no lock: head->next still
/// reads left_next). Then no key that has been present since the scan
/// began, at or past next_from, can be behind the walk:
///   * into P: a merge into P holds P's lock across the absorbed node's
///     mark, so a walk that saw the mark sees P's version move;
///   * behind P: a merge into a node before P needs that node's next to
///     be the source, so P was unlinked first -- and marked, under its
///     lock, before that;
///   * into a node between P and M: no live node was there when the
///     walk read P (the walk saw each node on its path marked, and
///     marks are permanent). The first live node to enter that gap
///     comes from a split of P (P's version moves) or, when P is the
///     head, from a fresh link after the head (head->next moves; if it
///     came back to left_next every node linked meanwhile has been
///     unlinked, and a node can empty before its unlink only by
///     removes, since nothing merges into the head -- the keys it took
///     were removed during the scan). Keys that went into a node on the
///     path while it was still live left again before it was marked:
///     by removes, rightward by a split (still ahead), or leftward by a
///     merge into its own live predecessor -- the cases above, again.
/// So a crossed corpse needs no CAS: it is left for the writers'
/// sweeps. Otherwise the step answers kBack and the walk re-anchors
/// at P, re-snapshotting it from next_from (falling to the start if P
/// died). Each kBack follows a write to P (or to head->next), so a scan
/// re-anchors only as often as writers change its anchor; left_next is
/// compared as an address only while it cannot be reused (arena: never
/// freed; EBR: the pin; HP: kWalk, then kRun).
namespace scan {

/// What a step made of one node.
enum class Verdict {
  kLive,  // unmarked: its keys were offered; the walk anchors on it
  kDead,  // marked: the walk steps through it
  kBack,  // marked, and keys may have moved behind the walk: re-anchor
  kStop,  // the scan is complete
};

template <typename Node>
struct Seen {
  Verdict verdict;
  Node* next;  // kLive / kDead: the node's successor
};

/// A scan's emission state: live keys in [next_from, hi], at most
/// `limit` of them (< 0 = unbounded).
template <typename Sink>
struct Out {
  long next_from;  // first key position not yet observed
  long hi;
  long limit;
  Sink& sink;
  long emitted = 0;

  /// Emit k unless it lies below next_from; false once the scan is
  /// complete (k past hi, k == hi emitted, or the limit reached).
  bool offer(long k) {
    if (k < next_from) return true;
    if (k > hi || emitted == limit) return false;
    sink(k);
    ++emitted;
    if (k == hi) return false;  // also dodges the +1 overflow
    next_from = k + 1;
    return emitted != limit;
  }
};

/// The reclaim handle of a walk without hazards (the quiescent
/// snapshots): never touched.
struct Unguarded {};

/// Walk from start(next_from) -- the head, or a validated start point
/// (see above), kAnchor-covered under HP -- emitting
/// through `out`. step(WalkPos{prev, left_next, cur}, out) reads cur,
/// where prev is the last live node and [left_next, cur) the marked
/// run after it; an anchor is stepped as {prev, prev, prev}. Each
/// re-anchor (a lost revalidation, a kBack) bumps *restarts. Returns
/// the number of keys emitted.
template <bool kHazards, typename Node, typename ReclaimHandle,
          typename Sink, typename StartFn, typename StepFn>
long walk([[maybe_unused]] ReclaimHandle&& rh, Node* head, Out<Sink>& out,
          StartFn&& start, StepFn&& step, long* restarts = nullptr) {
  Node* prev = start(out.next_from);
  if constexpr (kHazards) rh.protect(hazard::kAnchor, prev);
  for (;;) {
    Node* left_next;
    if (prev == head) {
      left_next = head->next.load().ptr;  // the head is never marked
    } else {
      const Seen<Node> s = step(WalkPos<Node>{prev, prev, prev}, out);
      if (s.verdict == Verdict::kStop) return out.emitted;
      if (s.verdict != Verdict::kLive) {  // the anchor died
        prev = start(out.next_from);
        if constexpr (kHazards) rh.protect(hazard::kAnchor, prev);
        continue;
      }
      left_next = s.next;
    }
    // A break leaves cur non-null: re-anchor at prev.
    Node* cur = left_next;
    while (cur != nullptr) {
      if constexpr (kHazards) {
        rh.protect(hazard::kWalk, cur);
        // Anchor revalidation: run still attached => cur not retired
        // before the hazard above became visible.
        const auto av = prev->next.load();
        if (av.marked || av.ptr != left_next) break;
      }
      const Seen<Node> s = step(WalkPos<Node>{prev, left_next, cur}, out);
      if (s.verdict == Verdict::kStop) return out.emitted;
      if (s.verdict == Verdict::kBack) break;
      if (s.verdict == Verdict::kDead) {
        // Entering a dead run: pin its head for the run's duration
        // (same ABA argument as locate()). kWalk still covers cur.
        if constexpr (kHazards) {
          if (cur == left_next) rh.protect(hazard::kRun, cur);
        }
        cur = s.next;
        continue;
      }
      prev = cur;
      if constexpr (kHazards) rh.protect(hazard::kAnchor, cur);  // kWalk too
      left_next = cur = s.next;
    }
    if (cur == nullptr) return out.emitted;  // clean end of chain
    if (restarts != nullptr) ++*restarts;
  }
}

/// The one-key list's step: a node is its key, and a marked node's key
/// is gone without having moved, so the walk steps through it.
struct KeyStep {
  template <typename Node, typename Sink>
  Seen<Node> operator()(const WalkPos<Node>& at, Out<Sink>& out) const {
    const auto v = at.cur->next.load();
    if (v.marked) return {Verdict::kDead, v.ptr};
    return {out.offer(at.cur->key) ? Verdict::kLive : Verdict::kStop, v.ptr};
  }
};

/// Every live key, ascending: the full-range walk from the head, for
/// quiescent use (no protection).
template <typename Node, typename StepFn>
std::vector<long> all(Node* head, StepFn&& step) {
  std::vector<long> keys;
  auto push = [&](long k) { keys.push_back(k); };
  Out<decltype(push)> out{std::numeric_limits<long>::min(),
                          std::numeric_limits<long>::max(), -1, push};
  walk<false>(Unguarded{}, head, out, [&](long) { return head; }, step);
  return keys;
}

}  // namespace scan

/// Quiescent walkers shared by the list variants. `Node` must expose
/// `key` and a MarkPtr<Node> `next`.
namespace quiescent {

template <typename Node>
std::vector<long> snapshot(const Node* head) {
  return scan::all(head, scan::KeyStep{});
}

template <typename Node>
std::size_t size(const Node* head) {
  std::size_t count = 0;
  for (const Node* n = head->next.load_ptr(); n != nullptr;) {
    const auto v = n->next.load();
    if (!v.marked) ++count;
    n = v.ptr;
  }
  return count;
}

/// Nodes physically linked after `head`, marked ones included. A node
/// is retired only once unlinked, so at quiescence allocated ==
/// linked + 1 (the head) + limbo closes the node ledger.
template <typename Node>
std::size_t linked(const Node* head) {
  std::size_t count = 0;
  for (const Node* n = head->next.load_ptr(); n != nullptr;
       n = n->next.load_ptr())
    ++count;
  return count;
}

/// Physical-chain invariants every marked-pointer variant must satisfy
/// at quiescence:
///   1. keys never decrease along the chain;
///   2. of two adjacent equal keys at least one is marked (a dead
///      node can linger next to its live replacement, on either side);
///   3. no cycle (bounded by the number of tracked allocations).
template <typename Node>
bool validate_chain(const Node* head, std::size_t alloc_bound,
                    std::string* err) {
  const Node* prev = nullptr;
  std::size_t steps = 0;
  bool prev_marked = false;
  for (const Node* n = head->next.load_ptr(); n != nullptr;) {
    if (++steps > alloc_bound) {
      if (err) *err = "cycle: chain longer than total allocations";
      return false;
    }
    const auto v = n->next.load();
    if (prev != nullptr) {
      if (n->key < prev->key) {
        if (err) {
          std::ostringstream os;
          os << "order violated: " << prev->key << " before " << n->key;
          *err = os.str();
        }
        return false;
      }
      if (n->key == prev->key && !prev_marked && !v.marked) {
        if (err) {
          std::ostringstream os;
          os << "duplicate live key " << n->key;
          *err = os.str();
        }
        return false;
      }
    }
    prev = n;
    prev_marked = v.marked;
    n = v.ptr;
  }
  return true;
}

}  // namespace quiescent
}  // namespace pragmalist::core
