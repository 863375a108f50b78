// Wait-free shortcut-hint index: tables of (key, node*) slots that let
// the read path start a traversal at a published node just below the
// target instead of at the head sentinel. The index re-indexes itself
// -- more slots, or a new key span -- when the walks it starts get
// long.
//
// Routing is by key *range*, not key hash. The current table splits a
// key span [lo, hi] into `slots` equal buckets; slot b holds a node
// published into the b-th bucket, at rest the lowest live one (see
// "Publish on miss" below). best(k) probes bucket(k), then the nearest
// non-empty buckets below it, found through the table's occupancy
// bitmap, so the walk starts at the nearest advertised node below k
// however sparse the table is (a set of a few hundred keys, or one
// shard of a sharded set, leaves most of the 1024 buckets empty).
// bucket(k) is one 64x64->128 multiply by a precomputed
// 2^64 * slots / span scale plus a clamp -- no division on the lookup
// path. lo, hi and the scale are relaxed atomics: a racing writer can
// hand a reader a torn (lo, scale) pair, which only picks a worse
// bucket.
//
// Tables and generations. A fresh index has one table of kSlots = 1024
// slots, generation 0. Every table's span widens to cover every key
// published into it (it never shrinks). A *re-index* installs
// generation g+1 in another table, over the keys the current one's
// occupied buckets hold: a larger power-of-two size class when the
// index is dense, the other table of the same class when the keys left
// most of the span. The new table starts empty and lookups that find
// nothing in it -- or find only a node far below the key -- fall back
// to its parent, the table it replaced, which still holds the previous
// generation's nodes; each op then publishes its walk's
// end into the new table, moving that node's home out of the parent.
// So the new generation fills lazily from the old one, as a
// split-ordered list initialises a bucket from its parent (Shalev &
// Shavit, JACM 2006). A lookup ignores older generations otherwise: it
// reads the current table and its parent only, and a reused table is
// cleared when its new generation is installed.
//
// The slot pair is *routing data, never truth*: the key field is a
// relaxed, possibly-torn copy used only to pick a candidate, and every
// candidate must be re-validated by the caller -- key/mark check under
// the caller's existing reclamation cover (arena: addresses are
// stable; EBR: the op's epoch pin; HP: one kAnchor publish plus a slot
// re-read, see best()). A stale hint therefore costs one failed
// validation and a decay to the next candidate, never correctness.
//
// Node contract: besides `key` and `next` (a MarkPtr), a node carries
//
//   std::atomic<int> hint_slot{-1};
//
// its *home*: -1, or a token naming one physical slot and the
// generation it was set in (table id, generation mod 64, slot index,
// packed in 31 bits; see token()). A node is only ever published into
// its home. A publish of n *re-homes* it when its key routes elsewhere:
// into the current table after a re-index, and into its new bucket of
// the same table after a widen moved it (below). Nothing else moves a
// home; a purge never does. The constructor's -1 is
// what makes slab reuse safe: a recycled slot is placement-new'ed, and
// a node is freed only after its purge, so no stale home survives into
// the next tenant. A fresh index's tokens are plain slot numbers
// (table 0, generation 0).
//
// Safety. The invariant: a slot X names n only if X is n's home, or
// some thread that still holds a guard covering n has yet to clear X
// (a publisher before its re-check, or a re-homer before it clears the
// home it left). Every slot and home access below is seq_cst. n's mark
// is an acq_rel RMW on n's next word, and every write of that word
// after n is linked is an RMW, so an RMW that reads n unmarked heads a
// release sequence the mark reads from: it happens before the mark,
// and so before everything the retiring thread does after seeing the
// mark (the purge, the retire).
//
//   publish(k, n)  -- caller guarantees n is covered by its guard and
//     was observed unmarked during the current op. Read the current
//     table t and its generation g, widen t's span to k, then read n's
//     home h. If h is not the slot k routes to in t at g, CAS h -> that
//     slot (a first publish from h = -1, a re-home otherwise) and, if h
//     named a slot, clear it of n -- after the home CAS, never before.
//     Then read n's mark with a no-op RMW (MarkPtr::load_rmw) and stop
//     if it is set. Store the slot (node seq_cst) and RE-CHECK,
//     self-clearing the slot (CAS n -> null) while the guard still
//     covers n if any of three changed: n's mark, read with a second
//     no-op RMW so it cannot miss a concurrent mark the way a plain load
//     can; n's home; t's generation.
//   purge(n)       -- the retiring thread clears n's home slot, if it
//     still names n, *before* retire(n)/leak(n). O(1): one home read
//     and at most one slot read. Take a store W of n into slot X by
//     publisher P:
//       * P's re-check fails: P clears X under its guard.
//       * P's re-check passes and a re-home R later moves n's home
//         away from X: R's home CAS comes after P's home re-read, hence
//         after W, and R's clear of X after its CAS, so R's clear reads
//         W (or a later value that no longer names n) and clears it.
//       * Otherwise the purge reads home X (homes change only by CAS,
//         and a move away is the case above). P's re-check RMW read
//         "unmarked", so W happens before the mark and hence before
//         the purge's slot load, which sees W (or a later value) and
//         clears it.
//     And a purge that reads home h clears h itself: a publish store
//     into h after the purge's slot load cannot be ordered before the
//     mark that way, so its re-check RMW reads the mark and it
//     self-clears; a re-home after the purge's home read stores into
//     its new slot only behind the same re-check, and clears h on the
//     way. Once purge(n) has returned, no slot names n except
//     transiently while a guard covering n still holds it.
//   re-index       -- only ever *clears* slots (a reused table, before
//     it is installed) and rewrites routing data, so it cannot break
//     the invariant. A publisher racing it either stored into a table
//     the re-index does not touch (a growth leaves the old table as
//     the new one's parent, unchanged), or into the reused table: the
//     re-index sets that table's generation (seq_cst) and then issues
//     a seq_cst fence before its relaxed clears, so the store either
//     precedes the clears in the slot's modification order or follows
//     the generation change and fails the publisher's generation
//     re-check. A node whose home sits in an old table stays safe
//     there: its purge clears that slot, and its re-home clears it
//     first. Tables are freed only with the index, so a reader holding
//     a stale table pointer reads slots that keep the invariant.
//   best(k, valid) -- probe bucket(k) of the current table, then walk
//     the occupancy bitmap down from it and probe the set bits nearest
//     first; unless that answered from k's bucket or the one below, do
//     the same in the parent table for a tighter start. Per table each
//     slot is probed and validated at most once, at most kMaxProbes =
//     18 times after at most kMaxWords = 16 bitmap words, so lookup is
//     wait-free regardless of concurrent writers. A refused parent
//     candidate may have taken the current one's HP cover, so that one
//     is validated again (slot re-read included) before it is returned.
//     A probe that finds a slot whose routing key a widen has moved to
//     another bucket *drops* it (CAS n -> null) instead of starting a
//     walk from what may be far below: a clear, so it keeps the
//     invariant, and n keeps its home, whose purge then finds the slot
//     empty. The next walk that ends in that bucket publishes into it.
//     The bitmap is routing data like the keys: publish sets a slot's
//     bit, the clear that empties the slot clears it, and a racing pair
//     can leave it stale either way, which costs one empty probe or
//     hides the slot until its next publish.
//
// Why a validated hint is then safe to dereference, per reclaimer, is
// the engines' argument (docs/ARCHITECTURE.md "Read path"). Take a
// reader Q that loaded n from slot X. Some thread is *responsible* for
// n leaving X: the retirer's purge, a publisher's self-clear, or a
// re-homer's clear of the home it left (purge(n) above). Its access C
// to X -- the CAS that removes n, or the load that finds X no longer
// naming n because a probe dropped it first -- follows Q's load in X's
// modification order.
//
// An HP reader re-reads the *same physical slot* after its kAnchor
// publish, and the slot still naming n orders the protection before
// C: before the retire when C is the purge's, so the retirer's hazard
// scan sees the protection, and before the guard holder releases its
// hazard otherwise, so a scan that can free n comes after it. HP's
// kAnchor re-read is what slot_node() serves: the candidate's token
// names its physical slot, whichever table it came from.
//
// An EBR reader Q pinned at q keeps n allocated if n was retired at an
// epoch r >= q - 1 (ebr.hpp frees n's bag once every pinned handle has
// reached r + 2). Let C's thread be pinned at p. C happens before that
// thread's unpin, which an epoch advance past p + 1 needs; had Q pinned
// at p + 2 or later, C would happen before Q's load, which would then
// not see n. So q <= p + 1, and it remains to show r >= p, from the
// C++ model alone:
//   * C is the purge's: the retirer reads r after its own pin at p.
//   * C is a publisher P's self-clear: P's first RMW read n unmarked
//     before P stored n anywhere, so P's pin at p happens before the
//     mark, which happens before the retirer reads r. Read-read
//     coherence on the epoch word gives r >= p. (Without that first
//     RMW, P's only sighting of "unmarked" is a plain load, which
//     orders nothing after it, and r >= p - 1 is all ebr.hpp proves.)
//   * C is a re-homer R's clear of the home it left, and the purge
//     read R's new home (had it read X, the purge's own access comes
//     after Q's load too, the first case): R's home CAS synchronizes
//     with the purge's home load, so R's pin at p happens before the
//     retirer reads r, and r >= p again.
//
// Publish on miss (hint::maybe_publish). An op publishes the node its
// walk ended at only if its validated start candidate did not come
// from that node's own slot in the current generation. A walk only
// moves forward, so a start from bucket b that ends in bucket b ended
// at or above the node the slot already holds: republishing would only
// raise the slot and write a line every reader of b shares. Otherwise
// slot b was empty, dead, or held a node not below the key -- above
// the walk's end -- so the publish lowers it (barring a stale bitmap
// bit or a widen since the lookup, which cost at most one raise). A
// start taken from the parent table never matches, so the first ops
// after a re-index fill the new table. Each slot therefore converges
// to the lowest live node of its bucket and is rewritten only after a
// purge empties it or a lower node appears; a read-mostly op whose
// slot is settled writes no shared memory at all.
//
// When to re-index: on what ops pay. core::locate counts the nodes
// each walk crosses; a handle folds the counts of the walks that
// started at the hint in the key's own bucket of the current table --
// the walks that cross the keys sharing a bucket -- into a window
// (hint::note_walk), and when its last kWindowWalks such walks averaged
// more than kTargetWalk nodes it calls reindex(). (Walks from a cursor,
// the head, a lower bucket or the parent of a table still filling say
// nothing about how many keys share a bucket.) That surveys the
// current table's bitmap -- occupied buckets, the lowest and the
// highest -- and acts only if one of these holds:
//   * dense: more than three quarters of the buckets of the occupied
//     range hold a node, so walks are long because buckets hold many
//     keys (a uniform set fills that share at 1.4 keys a bucket) ->
//     the next size class;
//   * narrow: the occupied range is at most a quarter of the table
//     (the keys left most of the span) -> the same size.
// Either way the new table spans the keys of the occupied buckets.
// Keys that drift widen the current span, which makes buckets wider
// and walks longer until one of the two holds: a window that slides
// over a fixed number of keys grows the index only until it covers at
// most a quarter of the table by the time its walks are long again;
// from then on each re-index re-spans to it.
// One CAS on the generation word picks the thread that installs it;
// the others keep using the current table. A window that saw the
// generation change is discarded, so every decision is made on walks
// of the generation it replaces. A static range whose walks stay short,
// or whose buckets are mostly empty (a shard of a sharded set), never
// re-indexes.
//
// Memory bound. The index holds at most two tables per size class
// (kSlots << c slots for c < kClasses) and only ever moves to a larger
// class, so its slot memory is below four times its current table's
// and never above kMaxSlotBytes (four tables of kMaxSlots = 2^19
// slots, 16 bytes a slot plus one occupancy bit: about 34 MB). A class
// above 0 is entered only when more than three quarters of the
// occupied range's buckets hold a node.
//
// The caller half of the protocol -- validating a candidate, the
// publish-on-miss rule and contract, the walk window, purge-before-
// retire on a detached run -- is the free helpers in namespace hint
// below, which every engine calls instead of spelling the rules out
// again.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/core/list_base.hpp"

namespace pragmalist::core {

template <typename Node>
class HintIndex {
 public:
  /// Slots of a fresh index; size class c has kSlots << c.
  static constexpr int kSlots = 1024;
  static constexpr int kClasses = 10;
  static constexpr int kMaxSlots = kSlots << (kClasses - 1);
  /// best() probes at most this many slots per table it consults...
  static constexpr int kMaxProbes = 18;
  /// ...after at most this many bitmap words.
  static constexpr int kMaxWords = kSlots / 64;
  /// A handle asks for a re-index when its last kWindowWalks walks
  /// crossed more than kTargetWalk = kTargetNum / kTargetDen nodes on
  /// average.
  static constexpr long kWindowWalks = 1024;
  static constexpr long kTargetNum = 3;
  static constexpr long kTargetDen = 2;

  /// One slot: the advertised node and its routing key.
  struct Slot {
    std::atomic<Node*> node{nullptr};
    std::atomic<long> key{0};
  };
  static_assert(sizeof(Slot) <= 16, "a slot is at most two words");

  /// Bytes of a table of `slots` slots: the slots and the bitmap.
  static constexpr std::size_t table_bytes(int slots) {
    return static_cast<std::size_t>(slots) * sizeof(Slot) +
           static_cast<std::size_t>(slots) / 8;
  }
  /// The slot-memory bound of one index (file comment).
  static constexpr std::size_t kMaxSlotBytes = 4 * table_bytes(kMaxSlots);

  explicit HintIndex(bool enabled = true) : enabled_(enabled) {
    Table* t = new Table(0, kSlots);
    tables_[0].store(t, std::memory_order_relaxed);
    cur_.store(t, std::memory_order_release);
  }
  ~HintIndex() {
    for (auto& t : tables_) delete t.load(std::memory_order_relaxed);
  }
  HintIndex(const HintIndex&) = delete;
  HintIndex& operator=(const HintIndex&) = delete;

  /// Runtime off-switch: the catalog's `/nohint` twin ids construct the
  /// engine with hints disabled so the A/B pricing is a pure read-path
  /// diff (same binary, same layout, no publish/lookup traffic).
  bool enabled() const { return enabled_; }

  /// Publish (key, n) into key's bucket of the current table, widening
  /// its span first if key falls outside it; a no-op if that slot is
  /// `from` (the slot the caller's walk started from, see "Publish on
  /// miss") or if n is marked. Caller contract: n is covered by the
  /// caller's reclamation guard for the whole call and was observed
  /// unmarked during the current operation. See the file comment for
  /// the home, re-home and re-check/self-clear rules.
  void publish(long key, Node* n, int from = -1) {
    if (!enabled_ || n == nullptr) return;
    Table& t = *cur_.load(std::memory_order_acquire);
    const unsigned gen = t.gen.load(std::memory_order_seq_cst);
    widen(t, key);
    const int b = bucket_in(t, key);
    const int want = token(t.id, gen, b);
    if (want == from) return;
    int home = n->hint_slot.load(std::memory_order_seq_cst);
    if (home != want) {
      // First publish or re-home. On a lost race `home` reads back the
      // winner's token and n stays where the winner put it.
      if (!n->hint_slot.compare_exchange_strong(home, want)) return;
      if (home >= 0) clear(home, n);  // after the home CAS, never before
    }
    // Our own sighting of "unmarked", as an RMW, before n is stored
    // anywhere: it orders our pin before n's retirement (file comment,
    // the EBR case).
    if (n->next.load_rmw().marked) return;
    Slot& s = t.cells[b];
    s.key.store(key, std::memory_order_relaxed);
    s.node.store(n, std::memory_order_seq_cst);
    std::atomic<std::uint64_t>& word = t.occupied[b / 64];
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    if ((word.load(std::memory_order_relaxed) & bit) == 0)
      word.fetch_or(bit, std::memory_order_relaxed);
    if (n->next.load_rmw().marked ||
        n->hint_slot.load(std::memory_order_seq_cst) != want ||
        t.gen.load(std::memory_order_seq_cst) != gen) {
      // n died, moved home, or the table was re-indexed under us:
      // withdraw the hint ourselves -- the retirer's purge (or the
      // re-homer's clear, or the re-index's) may already have run and
      // missed our store. The guard still covers n, so the RMW above
      // and this CAS never touch freed memory.
      empty(t, b, n);
    }
  }

  /// Clear n's home slot if it still names n: the only slot a settled
  /// publish of n can have written, so one home read and at most one
  /// slot read. MUST run before every retire(n) / leak(n) of a node
  /// that may ever have been published (engines call it on every
  /// retirement path).
  void purge(Node* n) {
    if (n == nullptr) return;
    const int home = n->hint_slot.load(std::memory_order_seq_cst);
    if (home >= 0) clear(home, n);
  }

  /// Nearest validated candidate below `key`, or nullptr (start from
  /// the head). `valid(n, slot)` runs the caller's validation -- key/
  /// mark check under its guard; HP callers additionally kAnchor-
  /// protect n and re-read slot_node(slot) == n before dereferencing.
  /// The last call that returned true names the candidate returned;
  /// *own (when given) says whether it is the current table's slot of
  /// key's own bucket.
  /// Probes bucket(key) of the current table, then walks the occupancy
  /// bitmap down from it, so the next probes go to the nearest
  /// non-empty buckets below however sparse the table is. Unless that
  /// answered from the key's bucket or the one below, the parent table
  /// is searched the same way for a tighter start: a table still
  /// filling after a re-index answers from far below, or not at all.
  /// Slots that turn out empty or whose routing key is not below `key`
  /// (in the parent: not above the current table's candidate) are
  /// skipped, and one whose routing key a widen moved to another bucket
  /// is dropped (file comment). Per table, every slot is probed at most
  /// once and at most kMaxProbes in all, after at most kMaxWords bitmap
  /// words, and the current table's candidate is re-validated at most
  /// once, so the lookup is wait-free.
  template <typename Validate>
  Node* best(long key, Validate&& valid, bool* own = nullptr) const {
    if (own != nullptr) *own = false;
    if (!enabled_) return nullptr;
    Table& t = *cur_.load(std::memory_order_acquire);
    int tok = -1, at = -1, top = 0;
    Node* n = lookup(t, key, nullptr, valid, tok, at, top);
    Table* parent = t.parent.load(std::memory_order_acquire);
    if (n != nullptr && at == top && own != nullptr) *own = true;
    if (parent == nullptr || (n != nullptr && at + 1 >= top)) return n;
    bool tried = false;
    const auto tighter = [&](Node* c, int slot) {
      tried = true;
      return valid(c, slot);
    };
    int parent_tok = -1, parent_at = -1, parent_top = 0;
    if (Node* p = lookup(*parent, key, n, tighter, parent_tok, parent_at,
                         parent_top))
      return p;
    // A refused try may have taken n's cover (HP's kAnchor cell).
    if (n != nullptr && tried && !valid(n, tok)) return nullptr;
    return n;
  }

  /// Seq_cst re-read of the physical slot `slot` (a token best() passed
  /// to the validator) for the HP validation handshake: a reader that
  /// protected n and still sees it here is ordered before whichever
  /// clear removes n, hence before any free of n.
  Node* slot_node(int slot) const {
    const Table* t = tables_[slot_table(slot)].load(std::memory_order_acquire);
    return t->cells[slot_index(slot)].node.load(std::memory_order_seq_cst);
  }

  /// The bucket `key` routes to in the current table, in [0, slots()).
  /// Keys below the span route to 0, keys above it to slots() - 1.
  int bucket(long key) const {
    return bucket_in(*cur_.load(std::memory_order_acquire), key);
  }

  /// Slots of the current table.
  int slots() const { return cur_.load(std::memory_order_acquire)->slots; }

  /// Re-indexes so far (the current table's generation).
  unsigned generation() const {
    return gen_.load(std::memory_order_relaxed) >> 1;
  }

  /// Bytes of every table the index holds; at most kMaxSlotBytes.
  std::size_t slot_bytes() const {
    std::size_t bytes = 0;
    for (const auto& t : tables_) {
      const Table* p = t.load(std::memory_order_acquire);
      if (p != nullptr) bytes += table_bytes(p->slots);
    }
    return bytes;
  }

  /// True when `steps` nodes over `walks` walks is above kTargetWalk.
  static bool too_long(long steps, long walks) {
    return steps * kTargetDen > walks * kTargetNum;
  }

  /// Install the next generation if the current table is dense or
  /// narrow (file comment, "When to re-index"); a no-op otherwise, or
  /// when another thread is installing one.
  void reindex() {
    if (!enabled_) return;
    Table& t = *cur_.load(std::memory_order_acquire);
    const unsigned gen = t.gen.load(std::memory_order_relaxed);
    int pop = 0, first = -1, last = -1;
    for (int w = 0; w < t.slots / 64; ++w) {
      const std::uint64_t bits = t.occupied[w].load(std::memory_order_relaxed);
      if (bits == 0) continue;
      pop += __builtin_popcountll(bits);
      if (first < 0) first = w * 64 + __builtin_ctzll(bits);
      last = w * 64 + 63 - __builtin_clzll(bits);
    }
    if (pop == 0) return;
    const long range = last - first + 1;
    const bool narrow = range * 4 <= t.slots;
    const bool dense =
        !narrow && pop * 4 > range * 3 && class_of(t) + 1 < kClasses;
    if (!narrow && !dense) return;
    unsigned claim = gen * 2;
    if (!gen_.compare_exchange_strong(claim, claim + 1)) return;

    // The new span: the keys of the occupied buckets (to the span's end
    // on a side whose edge bucket is occupied).
    const long lo = bucket_start(t, first);
    const long hi = last + 1 < t.slots ? bucket_start(t, last + 1) - 1
                                       : t.hi.load(std::memory_order_relaxed);
    Table& next = table_for(class_of(t) + (dense ? 1 : 0), t, gen + 1);
    next.lo.store(lo, std::memory_order_relaxed);
    next.hi.store(hi, std::memory_order_relaxed);
    next.scale.store(scale_for(lo, hi, next.slots), std::memory_order_relaxed);
    next.parent.store(&t, std::memory_order_release);
    cur_.store(&next, std::memory_order_seq_cst);
    gen_.store((gen + 1) * 2, std::memory_order_release);
  }

 private:
  __extension__ typedef unsigned __int128 U128;

  // Token layout: generation mod 64 | table id | slot index.
  static constexpr int kSlotBits = 20;
  static constexpr int kTableBits = 5;
  static constexpr unsigned kGenMask = 63;
  static_assert(kMaxSlots <= (1 << kSlotBits), "slot index fits");
  static_assert(2 * kClasses <= (1 << kTableBits), "table id fits");

  static int token(int table, unsigned gen, int slot) {
    return static_cast<int>(((gen & kGenMask) << (kSlotBits + kTableBits)) |
                            (static_cast<unsigned>(table) << kSlotBits) |
                            static_cast<unsigned>(slot));
  }
  static int slot_table(int tok) {
    return (tok >> kSlotBits) & ((1 << kTableBits) - 1);
  }
  static int slot_index(int tok) { return tok & ((1 << kSlotBits) - 1); }

  /// One generation's slots. Table id 2c and 2c + 1 are size class c's
  /// two tables. The header line is what every lookup reads.
  struct Table {
    Table(int table_id, int n)
        : id(table_id),
          slots(n),
          cells(new Slot[static_cast<std::size_t>(n)]),
          occupied(new std::atomic<std::uint64_t>[static_cast<std::size_t>(
              n / 64)]()) {}
    ~Table() {
      delete[] cells;
      delete[] occupied;
    }
    Table(const Table&) = delete;
    Table& operator=(const Table&) = delete;

    /// Empty every slot and bit (a reused table, before install). Its
    /// generation is already set; the fence orders every publish store
    /// that missed the change before these clears (file comment).
    void reset() {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      for (int b = 0; b < slots; ++b)
        cells[b].node.store(nullptr, std::memory_order_relaxed);
      for (int w = 0; w < slots / 64; ++w)
        occupied[w].store(0, std::memory_order_relaxed);
    }

    const int id;
    const int slots;
    std::atomic<unsigned> gen{0};
    // The empty span (lo > hi) routes every key to bucket 0 until the
    // first publish.
    std::atomic<long> lo{std::numeric_limits<long>::max()};
    std::atomic<long> hi{std::numeric_limits<long>::min()};
    std::atomic<std::uint64_t> scale{0};
    Slot* const cells;
    std::atomic<std::uint64_t>* const occupied;  // bit b % 64 of word b / 64
    std::atomic<Table*> parent{nullptr};
  };

  static int class_of(const Table& t) { return t.id / 2; }

  /// Size class `cls`'s table for generation `gen`, the one after
  /// `t`'s: the other table of t's class for a re-span, the class's
  /// first table for a growth. Made on first use; a reused table gets
  /// its generation before it is emptied (file comment, "re-index").
  Table& table_for(int cls, const Table& t, unsigned gen) {
    const int id = cls == class_of(t) ? t.id ^ 1 : 2 * cls;
    Table* next = tables_[id].load(std::memory_order_relaxed);
    if (next == nullptr) {
      next = new Table(id, kSlots << cls);
      next->gen.store(gen, std::memory_order_relaxed);
      tables_[id].store(next, std::memory_order_release);
    } else {
      next->gen.store(gen, std::memory_order_seq_cst);
      next->reset();
    }
    return *next;
  }

  static int bucket_in(const Table& t, long key) {
    const long lo = t.lo.load(std::memory_order_relaxed);
    if (key <= lo) return 0;
    const std::uint64_t off =
        static_cast<std::uint64_t>(key) - static_cast<std::uint64_t>(lo);
    const std::uint64_t b = static_cast<std::uint64_t>(
        (static_cast<U128>(off) * t.scale.load(std::memory_order_relaxed)) >>
        64);
    return b < static_cast<std::uint64_t>(t.slots) ? static_cast<int>(b)
                                                   : t.slots - 1;
  }

  /// The least key that routes to bucket b (b in [0, slots)).
  static long bucket_start(const Table& t, int b) {
    const long lo = t.lo.load(std::memory_order_relaxed);
    const std::uint64_t scale = t.scale.load(std::memory_order_relaxed);
    if (b == 0 || scale == 0) return lo;
    const U128 off = ((static_cast<U128>(b) << 64) + scale - 1) / scale;
    return raise(lo, off > std::numeric_limits<std::uint64_t>::max()
                         ? std::numeric_limits<std::uint64_t>::max()
                         : static_cast<std::uint64_t>(off));
  }

  /// hi - lo as an unsigned distance (0 when hi <= lo).
  static std::uint64_t span_of(long lo, long hi) {
    return hi > lo ? static_cast<std::uint64_t>(hi) -
                         static_cast<std::uint64_t>(lo)
                   : 0;
  }

  /// key + d, clamped to long's range.
  static long raise(long key, std::uint64_t d) {
    return d >= span_of(key, std::numeric_limits<long>::max())
               ? std::numeric_limits<long>::max()
               : static_cast<long>(static_cast<std::uint64_t>(key) + d);
  }

  /// best() in one table: the first validated candidate below `key`
  /// (and above `floor`, when given), its token in `tok` and its bucket
  /// in `at`; `top` is key's bucket.
  template <typename Validate>
  static Node* lookup(Table& t, long key, const Node* floor,
                      Validate& valid, int& tok, int& at, int& top) {
    const int base = token(t.id, t.gen.load(std::memory_order_relaxed), 0);
    const long low = floor != nullptr ? floor->key : 0;
    top = bucket_in(t, key);
    const auto probe = [&](int b) -> Node* {
      // The node load must synchronize with the publisher's seq_cst
      // store: validation dereferences plain fields (key, the node's
      // construction), and the publish store is the only edge that
      // orders them after the node's initialization for a reader that
      // never walked to n. The routing key and the bitmap stay
      // relaxed -- they are never dereferenced, only compared.
      Slot& s = t.cells[b];
      Node* n = s.node.load(std::memory_order_seq_cst);
      if (n == nullptr) return nullptr;
      const long k = s.key.load(std::memory_order_relaxed);
      if (!(k < key && (floor == nullptr || k > low))) return nullptr;
      if (bucket_in(t, k) != b) {
        // A widen routed n to another bucket, maybe far below: drop it
        // here (n keeps its home; its purge finds this slot empty).
        empty(t, b, n);
        return nullptr;
      }
      if (!valid(n, base | b)) return nullptr;
      tok = base | b;
      at = b;
      return n;
    };
    // The key's own bucket first, without the bitmap: in a dense table
    // it usually answers, and the bitmap's lines are the ones purges
    // write.
    if (Node* n = probe(top)) return n;
    int w = top / 64;
    const int stop = std::max(0, w - kMaxWords + 1);
    std::uint64_t bits = t.occupied[w].load(std::memory_order_relaxed) &
                         ((std::uint64_t{1} << (top % 64)) - 1);
    for (int probes = 1; probes < kMaxProbes; ++probes) {
      while (bits == 0) {
        if (w == stop) return nullptr;
        bits = t.occupied[--w].load(std::memory_order_relaxed);
      }
      const int high = 63 - __builtin_clzll(bits);
      bits &= ~(std::uint64_t{1} << high);
      if (Node* n = probe(w * 64 + high)) return n;
    }
    return nullptr;
  }

  /// Clear slot `tok` if it still names n.
  void clear(int tok, Node* n) {
    Table& t = *tables_[slot_table(tok)].load(std::memory_order_acquire);
    const int b = slot_index(tok);
    if (t.cells[b].node.load(std::memory_order_seq_cst) == n) empty(t, b, n);
  }

  /// CAS slot b of t from n to null, and clear its bit if that emptied
  /// it.
  static void empty(Table& t, int b, Node* n) {
    Node* expected = n;
    if (t.cells[b].node.compare_exchange_strong(expected, nullptr,
                                                std::memory_order_seq_cst,
                                                std::memory_order_relaxed))
      t.occupied[b / 64].fetch_and(~(std::uint64_t{1} << (b % 64)),
                                   std::memory_order_relaxed);
  }

  /// floor(2^64 * slots / (hi - lo + 1)), saturated: a span of at most
  /// `slots` keys gives one key per bucket (less the first, which
  /// shares bucket 0 with the key after it).
  static std::uint64_t scale_for(long lo, long hi, int slots) {
    const U128 span = static_cast<U128>(span_of(lo, hi)) + 1;
    const U128 s = (static_cast<U128>(slots) << 64) / span;
    const U128 max = std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(s < max ? s : max);
  }

  /// Grow t's [lo, hi] to cover key and recompute the scale. The fast path (key already inside) is two relaxed loads.
  /// The slow path is seq_cst so that the last scale stored matches the
  /// final span: a widener re-reads lo/hi after its scale store and
  /// recomputes if another widen landed in between.
  static void widen(Table& t, long key) {
    long lo = t.lo.load(std::memory_order_relaxed);
    long hi = t.hi.load(std::memory_order_relaxed);
    if (lo <= key && key <= hi) return;
    while (key < lo && !t.lo.compare_exchange_weak(lo, key)) {
    }
    while (key > hi && !t.hi.compare_exchange_weak(hi, key)) {
    }
    for (;;) {
      lo = t.lo.load();
      hi = t.hi.load();
      t.scale.store(scale_for(lo, hi, t.slots));
      if (t.lo.load() == lo && t.hi.load() == hi) return;
    }
  }

  // The current table and the generation word (generation << 1 | a
  // re-index in progress), on a line of their own: every lookup reads
  // cur_, and only a re-index writes either.
  alignas(64) std::atomic<Table*> cur_{nullptr};
  std::atomic<unsigned> gen_{0};
  const bool enabled_;
  // Every table the index made, by id; freed only with the index.
  std::atomic<Table*> tables_[2 * kClasses] = {};
};

/// Engine glue for the hint index: the caller contract, once. `rh` is
/// the caller's per-thread reclaim handle, reached through `->` (the
/// engines pass the MaybeOwned that holds it).
namespace hint {

/// Validated candidate for a walk toward `key`, or nullptr; `from` is
/// set to the slot it came from (-1 with no candidate), for the
/// publish at the op's end (maybe_publish), and *own (when given) to
/// whether that is key's own bucket of the current table, for the walk
/// window (note_walk). Without
/// hazards (arena/EBR) the check is key/mark only: arena addresses are
/// stable, and under EBR the caller's pin plus the purge/advance order
/// keep a slot-visible node allocated. With hazards the candidate is
/// kAnchor-protected first and the slot re-read seq_cst: still naming
/// it orders the protection before any clear of it, hence before any
/// free. Either way the candidate stays covered through the caller's
/// start-node pick.
template <bool kHazards, typename Node, typename ReclaimRef>
inline Node* start(const HintIndex<Node>& hints, ReclaimRef& rh, long key,
                   int& from, bool* own = nullptr) {
  from = -1;
  return hints.best(
      key,
      [&](Node* n, int slot) {
        if constexpr (kHazards) {
          rh->protect(hazard::kAnchor, n);
          if (hints.slot_node(slot) != n) return false;
        }
        if (!(n->key < key && !n->next.load().marked)) return false;
        from = slot;
        return true;
      },
      own);
}

/// Advertise `n`, the node the op's walk ended at, unless `from` (the
/// slot its start candidate came from, set by start()) is n's own
/// slot: publish on miss, see the file comment. Caller contract: n is
/// covered by the caller's guard (HP: a hazard slot) and was observed
/// unmarked during this op. The head sentinel is never advertised.
template <typename Node>
inline void maybe_publish(HintIndex<Node>& hints, int from, const Node* head,
                          Node* n) {
  if (n != nullptr && n != head) hints.publish(n->key, n, from);
}

/// A handle's recent walks: nodes crossed, walks counted, and the
/// generation they ran under.
struct WalkWindow {
  long steps = 0;
  long walks = 0;
  unsigned gen = 0;
};

/// Fold one walk of `steps` nodes into the handle's window if it
/// started at the hint in its key's own bucket of the current table
/// (`own`, from start()): such a walk crosses the keys that share the
/// bucket, which is what a re-index divides (a walk from a lower
/// bucket, or from the parent of a table still filling, also crosses
/// empty or unfilled buckets). Every kWindowWalks walks, ask for a
/// re-index if they averaged more than the target under one
/// generation (a window that saw a re-index is dropped). The hot path
/// is an add, an increment and a compare.
template <typename Node>
inline void note_walk(HintIndex<Node>& hints, WalkWindow& w, bool own,
                      long steps) {
  if (!own) return;
  w.steps += steps;
  if (++w.walks < HintIndex<Node>::kWindowWalks) return;
  if (hints.generation() == w.gen &&
      HintIndex<Node>::too_long(w.steps, w.walks))
    hints.reindex();
  w = {0, 0, hints.generation()};
}

/// Retire every node of the detached run [first, last), purging each
/// first: no slot may name a node once retire can free it. After the
/// CAS that detached it (a sweep, or an update's own link/unlink CAS)
/// the frozen chain is reachable only by threads that entered it
/// earlier, and only the detacher may retire it. Reclaiming policies
/// only.
template <typename Node, typename ReclaimRef>
inline void retire_run(HintIndex<Node>& hints, ReclaimRef& rh, Node* first,
                       Node* last) {
  Node* n = first;
  while (n != last) {
    Node* next = n->next.load().ptr;  // read before retire: may free n
    hints.purge(n);
    rh->retire(n);
    n = next;
  }
}

}  // namespace hint
}  // namespace pragmalist::core
