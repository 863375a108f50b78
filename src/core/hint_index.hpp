// Wait-free shortcut-hint index: a fixed array of (key, node*) slots
// that lets the read path start a traversal at a published node just
// below the target instead of at the head sentinel.
//
// Routing is by key *range*, not key hash. The index tracks the
// observed key span [lo, hi] (publish widens it; it never shrinks) and
// splits it into kSlots equal buckets; slot b holds a node published
// into the b-th bucket, at rest the lowest live one (see "Publish on
// miss" below). best(k) probes bucket(k), then the
// nearest non-empty buckets below it, found through a 1024-bit
// occupancy bitmap, so the walk starts at the nearest advertised node
// below k however sparse the index is (a set of a few hundred keys, or
// one shard of a sharded set, leaves most of the 1024 buckets empty).
// bucket(k) is one 64x64->128 multiply by a precomputed
// 2^64 * kSlots / span scale plus a clamp -- no division on the lookup
// path. lo, hi and the scale are relaxed atomics: a racing widen can
// hand a reader a torn (lo, scale) pair, which only picks a worse
// bucket.
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
// its *home slot*. It is -1 until the node's first publish, which sets
// it once (CAS -1 -> bucket) for the node's lifetime; the node is only
// ever published into its home. The constructor's -1 is what makes
// slab reuse safe: a recycled slot is placement-new'ed, and a node is
// freed only after its purge, so no stale home survives into the next
// tenant.
//
// Lifecycle protocol (all slot and home accesses that matter are
// seq_cst; the safety argument needs the single total order S):
//
//   publish(k, n)  -- caller guarantees n is covered by its guard and
//     was observed unmarked during the current op. Read n's home; if
//     it is -1, CAS it to bucket(k). If the home is not bucket(k) (the
//     span widened since n's first publish), return without
//     publishing. Otherwise store the slot (node seq_cst), then
//     RE-CHECK n's mark with a no-op RMW (MarkPtr::load_rmw): an RMW
//     reads the latest value in n->next's modification order, so it
//     cannot miss a concurrent mark the way a plain load can. If
//     marked, self-clear the slot (CAS n -> null) while the guard
//     still covers n.
//   purge(n)       -- the retiring thread clears n's home slot, if it
//     still names n, *before* retire(n)/leak(n). O(1): one home read
//     and at most one slot read. Either the purge's home read sees the
//     home b (the home CAS <S purge): then for a publish store of n
//     into b, either store <S the purge's slot load, which sees n (or
//     a later value, which no longer names n) and clears it, or the
//     load <S store, so mark <S purge <S store <S re-check and the
//     publisher self-clears. Or the purge reads -1: then purge <S the
//     home CAS <S every publish store of n, so again mark <S re-check
//     and the publisher self-clears. Both ways, no slot names n once
//     its retirement can free it -- except transiently while some
//     publisher's guard still pins n alive.
//   best(k, valid) -- probe bucket(k), then walk the occupancy bitmap
//     down from it and probe the set bits nearest first. Each slot is
//     probed and validated at most once, at most kMaxProbes = 18 times
//     after at most kSlots / 64 = 16 bitmap words, so lookup is
//     wait-free regardless of concurrent writers. The bitmap is
//     routing data like the keys: publish sets a slot's bit, the purge
//     that empties the slot clears it, and a racing pair can leave it
//     stale either way, which costs one empty probe or hides the slot
//     until its next publish.
//
// Publish on miss (hint::maybe_publish). An op publishes the node its
// walk ended at only if its validated start candidate did not come
// from that node's own bucket. A walk only moves forward, so a start
// from bucket b that ends in bucket b ended at or above the node the
// slot already holds: republishing would only raise the slot and write
// a line every reader of b shares. Otherwise slot b was empty, dead, or
// held a node not below the key -- above the walk's end -- so the
// publish lowers it (barring a stale bitmap bit or a widen since the
// lookup, which cost at most one raise). Each slot therefore
// converges to the lowest live node of its bucket and is rewritten
// only after a purge empties it or a lower node appears; a read-mostly
// op whose slot is settled writes no shared memory at all.
//
// The safety argument never consults the current key -> slot mapping,
// only n's home: a widen that moves n's bucket after its first publish
// stops n from being published again, and purge still clears the one
// slot n can occupy.
//
// Why a validated hint is then safe to dereference, per reclaimer, is
// the engines' argument (docs/ARCHITECTURE.md "Read path"): the short
// version is that an HP reader re-reads the slot *after* its kAnchor
// publish (protect <S purge <S retire means the retirer's hazard scan
// sees the protection), and an EBR reader pinned late enough to allow
// the free must have pinned after an epoch advance that happens-after
// the purge, so it reads the cleared slot.
//
// The caller half of the protocol -- validating a candidate, the
// publish-on-miss rule and contract, purge-before-retire on a detached
// run -- is the free helpers in namespace hint below, which every
// engine calls instead of spelling the rules out again.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>

#include "src/core/list_base.hpp"

namespace pragmalist::core {

template <typename Node>
class HintIndex {
 public:
  static constexpr int kSlots = 1024;
  /// best() probes at most this many slots per lookup.
  static constexpr int kMaxProbes = 18;

  explicit HintIndex(bool enabled = true) : enabled_(enabled) {}
  HintIndex(const HintIndex&) = delete;
  HintIndex& operator=(const HintIndex&) = delete;

  /// Runtime off-switch: the catalog's `/nohint` twin ids construct the
  /// engine with hints disabled so the A/B pricing is a pure read-path
  /// diff (same binary, same layout, no publish/lookup traffic).
  bool enabled() const { return enabled_; }

  /// Publish (key, n) into key's bucket, widening the span first if
  /// key falls outside it; a no-op if that bucket is `from` (the slot
  /// the caller's walk started from, see "Publish on miss") or is not
  /// n's home (set here on n's first publish). Caller contract: n is
  /// covered by the caller's reclamation guard for the whole call and
  /// was observed unmarked during the current operation. See file
  /// comment for the home and re-check/self-clear rules.
  void publish(long key, Node* n, int from = -1) {
    if (!enabled_ || n == nullptr) return;
    widen(key);
    const int b = bucket(key);
    if (b == from) return;
    int home = n->hint_slot.load(std::memory_order_seq_cst);
    // First publish: home n here. On a lost race `home` reads back the
    // winner's bucket.
    if (home < 0 && n->hint_slot.compare_exchange_strong(home, b)) home = b;
    if (home != b) return;
    keys_[b].store(key, std::memory_order_relaxed);
    nodes_[b].store(n, std::memory_order_seq_cst);
    std::atomic<std::uint64_t>& word = occupied_[b / 64];
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    if ((word.load(std::memory_order_relaxed) & bit) == 0)
      word.fetch_or(bit, std::memory_order_relaxed);
    if (n->next.load_rmw().marked) {
      // n died before (or while) we advertised it: withdraw the hint
      // ourselves -- the retirer's purge may already have run and
      // missed our store. The guard still covers n, so the RMW above
      // and this CAS never touch freed memory.
      Node* expected = n;
      nodes_[b].compare_exchange_strong(expected, nullptr,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
    }
  }

  /// Clear n's home slot if it still names n: the only slot any
  /// publish of n can have written, so one home read and at most one
  /// slot read. MUST run before every retire(n) / leak(n) of a node
  /// that may ever have been published (engines call it on every
  /// retirement path).
  void purge(Node* n) {
    if (n == nullptr) return;
    const int home = n->hint_slot.load(std::memory_order_seq_cst);
    if (home < 0) return;
    std::atomic<Node*>& slot = nodes_[home];
    if (slot.load(std::memory_order_seq_cst) != n) return;
    Node* expected = n;
    if (slot.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
      occupied_[home / 64].fetch_and(~(std::uint64_t{1} << (home % 64)),
                                     std::memory_order_relaxed);
  }

  /// Nearest validated candidate below `key`, or nullptr (start from
  /// the head). `valid(n, slot)` runs the caller's validation -- key/
  /// mark check under its guard; HP callers additionally kAnchor-
  /// protect n and re-read slot_node(slot) == n before dereferencing.
  /// Probes bucket(key) itself, then walks the occupancy bitmap down
  /// from it, so the next probes go to the nearest non-empty buckets
  /// below however sparse the index is. Slots that turn out empty or
  /// whose routing key is not below `key` are skipped. Every slot is
  /// probed at most once and at most kMaxProbes in all, after at most
  /// kSlots / 64 bitmap words, so the lookup is wait-free.
  template <typename Validate>
  Node* best(long key, Validate&& valid) const {
    if (!enabled_) return nullptr;
    const auto probe = [&](int b) -> Node* {
      // The node load must synchronize with the publisher's seq_cst
      // store: validation dereferences plain fields (key, the node's
      // construction), and the publish store is the only edge that
      // orders them after the node's initialization for a reader that
      // never walked to n. The routing key and the bitmap stay
      // relaxed -- they are never dereferenced, only compared.
      Node* n = nodes_[b].load(std::memory_order_seq_cst);
      return n != nullptr &&
                     keys_[b].load(std::memory_order_relaxed) < key &&
                     valid(n, b)
                 ? n
                 : nullptr;
    };
    const int top = bucket(key);
    // The key's own bucket first, without the bitmap: in a dense index
    // it usually answers, and the bitmap's lines are the ones purges
    // write.
    if (Node* n = probe(top)) return n;
    int w = top / 64;
    std::uint64_t bits = occupied_[w].load(std::memory_order_relaxed) &
                         ((std::uint64_t{1} << (top % 64)) - 1);
    for (int probes = 1; probes < kMaxProbes; ++probes) {
      while (bits == 0) {
        if (w == 0) return nullptr;
        bits = occupied_[--w].load(std::memory_order_relaxed);
      }
      const int high = 63 - __builtin_clzll(bits);
      bits &= ~(std::uint64_t{1} << high);
      if (Node* n = probe(w * 64 + high)) return n;
    }
    return nullptr;
  }

  /// Seq_cst slot re-read for the HP validation handshake: a reader
  /// that protected n and still sees it here is ordered before any
  /// purge of n, hence before the retire that could free it.
  Node* slot_node(int slot) const {
    return nodes_[slot].load(std::memory_order_seq_cst);
  }

  /// The slot `key` routes to under the current span, in [0, kSlots).
  /// Keys below the span route to 0, keys above it to kSlots - 1.
  int bucket(long key) const {
    const long lo = lo_.load(std::memory_order_relaxed);
    if (key <= lo) return 0;
    const std::uint64_t off =
        static_cast<std::uint64_t>(key) - static_cast<std::uint64_t>(lo);
    const std::uint64_t b = static_cast<std::uint64_t>(
        (static_cast<U128>(off) * scale_.load(std::memory_order_relaxed)) >>
        64);
    return b < kSlots ? static_cast<int>(b) : kSlots - 1;
  }

 private:
  __extension__ typedef unsigned __int128 U128;

  /// floor(2^64 * kSlots / (hi - lo + 1)), saturated: a span of at most
  /// kSlots keys gives one key per bucket (less the first, which
  /// shares bucket 0 with the key after it).
  static std::uint64_t scale_for(long lo, long hi) {
    const U128 span = static_cast<U128>(static_cast<std::uint64_t>(hi) -
                                        static_cast<std::uint64_t>(lo)) +
                      1;
    const U128 s = (static_cast<U128>(kSlots) << 64) / span;
    const U128 max = std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(s < max ? s : max);
  }

  /// Grow [lo, hi] to cover key and recompute the scale. The fast path
  /// (key already inside) is two relaxed loads. The slow path is
  /// seq_cst so that the last scale stored matches the final span:
  /// a widener re-reads lo/hi after its scale store and recomputes if
  /// another widen landed in between.
  void widen(long key) {
    long lo = lo_.load(std::memory_order_relaxed);
    long hi = hi_.load(std::memory_order_relaxed);
    if (lo <= key && key <= hi) return;
    while (key < lo && !lo_.compare_exchange_weak(lo, key)) {
    }
    while (key > hi && !hi_.compare_exchange_weak(hi, key)) {
    }
    for (;;) {
      lo = lo_.load();
      hi = hi_.load();
      scale_.store(scale_for(lo, hi));
      if (lo_.load() == lo && hi_.load() == hi) return;
    }
  }

  // Routing state, read by every lookup and written only by a widen:
  // one line of its own. The empty span (lo > hi) routes every key to
  // bucket 0 until the first publish.
  alignas(64) std::atomic<long> lo_{std::numeric_limits<long>::max()};
  std::atomic<long> hi_{std::numeric_limits<long>::min()};
  std::atomic<std::uint64_t> scale_{0};
  const bool enabled_;
  // Node pointers and routing keys in separate arrays (8 KB each): a
  // probe that finds its slot empty never touches the key line.
  alignas(64) std::atomic<Node*> nodes_[kSlots] = {};
  alignas(64) std::atomic<long> keys_[kSlots] = {};
  // Occupancy bitmap: bit b % 64 of word b / 64 for slot b.
  alignas(64) std::atomic<std::uint64_t> occupied_[kSlots / 64] = {};
};

/// Engine glue for the hint index: the caller contract, once. `rh` is
/// the caller's per-thread reclaim handle, reached through `->` (the
/// engines pass the MaybeOwned that holds it).
namespace hint {

/// Validated candidate for a walk toward `key`, or nullptr; `from` is
/// set to the slot it came from (-1 with no candidate), for the
/// publish at the op's end (maybe_publish). Without
/// hazards (arena/EBR) the check is key/mark only: arena addresses are
/// stable, and under EBR the caller's pin plus the purge/advance order
/// keep a slot-visible node allocated. With hazards the candidate is
/// kAnchor-protected first and the slot re-read seq_cst: still naming
/// it orders the protection before any purge, hence before the retire
/// that could free it. Either way the candidate stays covered through
/// the caller's start-node pick.
template <bool kHazards, typename Node, typename ReclaimRef>
inline Node* start(const HintIndex<Node>& hints, ReclaimRef& rh, long key,
                   int& from) {
  from = -1;
  return hints.best(key, [&](Node* n, int slot) {
    if constexpr (kHazards) {
      rh->protect(hazard::kAnchor, n);
      if (hints.slot_node(slot) != n) return false;
    }
    if (!(n->key < key && !n->next.load().marked)) return false;
    from = slot;
    return true;
  });
}

/// Advertise `n`, the node the op's walk ended at, unless `from` (the
/// slot its start candidate came from, set by start()) is n's own
/// bucket: publish on miss, see the file comment. Caller contract: n is
/// covered by the caller's guard (HP: a hazard slot) and was observed
/// unmarked during this op. The head sentinel is never advertised.
template <typename Node>
inline void maybe_publish(HintIndex<Node>& hints, int from, const Node* head,
                          Node* n) {
  if (n != nullptr && n != head) hints.publish(n->key, n, from);
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
