// Wait-free shortcut-hint index: a fixed array of (key, node*) slots
// that lets the read path start a traversal at a recently published
// node just below the target instead of at the head sentinel.
//
// Routing is by key *range*, not key hash. The index tracks the
// observed key span [lo, hi] (publish widens it; it never shrinks) and
// splits it into kSlots equal buckets; slot b holds the latest node
// published into the b-th bucket. best(k) probes bucket(k), then the
// buckets below it, so the first usable candidate is at most about one
// bucket width below k whenever the buckets around k are populated.
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
// Lifecycle protocol (all slot accesses that matter are seq_cst; the
// safety argument needs the single total order S):
//
//   publish(k, n)  -- caller guarantees n is covered by its guard and
//     was observed unmarked during the current op. Store the slot
//     (node seq_cst), then RE-CHECK n's mark with a no-op RMW
//     (MarkPtr::load_rmw): an RMW reads the latest value in n->next's
//     modification order, so it cannot miss a concurrent mark the way
//     a plain load can. If marked, self-clear the slot (CAS n -> null)
//     while the guard still covers n.
//   purge(n)       -- the retiring thread clears every slot holding n
//     *before* retire(n)/leak(n). With publish-store, re-check RMW and
//     purge all seq_cst, either publish <S purge (the purge's load
//     sees n and clears it) or the re-check sees the mark (mark <S
//     purge <S publish <S re-check would order the re-check after the
//     mark) and the publisher self-clears. Both ways, no slot names n
//     once its retirement can free it -- except transiently while some
//     publisher's guard still pins n alive.
//   best(k, valid) -- probe bucket(k) downward to bucket 0, at most one
//     validation per slot, so lookup is wait-free: <= kSlots
//     validations regardless of concurrent writers.
//
// The safety argument never mentions the key -> slot mapping: purge
// scans *every* slot for n, not n's bucket. A widen that moves n's
// bucket between its publish and its purge therefore cannot strand a
// slot naming a freed node; it only makes the routing coarser.
//
// Why a validated hint is then safe to dereference, per reclaimer, is
// the engines' argument (docs/ARCHITECTURE.md "Read path"): the short
// version is that an HP reader re-reads the slot *after* its kAnchor
// publish (protect <S purge <S retire means the retirer's hazard scan
// sees the protection), and an EBR reader pinned late enough to allow
// the free must have pinned after an epoch advance that happens-after
// the purge, so it reads the cleared slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>

namespace pragmalist::core {

template <typename Node>
class HintIndex {
 public:
  static constexpr int kSlots = 64;

  explicit HintIndex(bool enabled = true) : enabled_(enabled) {}
  HintIndex(const HintIndex&) = delete;
  HintIndex& operator=(const HintIndex&) = delete;

  /// Runtime off-switch: the catalog's `/nohint` twin ids construct the
  /// engine with hints disabled so the A/B pricing is a pure read-path
  /// diff (same binary, same layout, no publish/lookup traffic).
  bool enabled() const { return enabled_; }

  /// Publish (key, n) into key's bucket, widening the span first if
  /// key falls outside it. Caller contract: n is covered by the
  /// caller's reclamation guard for the whole call and was observed
  /// unmarked during the current operation. See file comment for the
  /// re-check/self-clear rule.
  void publish(long key, Node* n) {
    if (!enabled_ || n == nullptr) return;
    widen(key);
    const int b = bucket(key);
    keys_[b].store(key, std::memory_order_relaxed);
    nodes_[b].store(n, std::memory_order_seq_cst);
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

  /// Clear every slot naming n -- all kSlots, not just n's bucket, so
  /// the guarantee holds whatever the span did since n was published.
  /// MUST run before every retire(n) / leak(n) of a node that may ever
  /// have been published (engines call it on every retirement path;
  /// the pointers are packed eight to a cache line, so the miss case
  /// is eight line reads).
  void purge(Node* n) {
    if (n == nullptr) return;
    for (auto& slot : nodes_) {
      if (slot.load(std::memory_order_seq_cst) != n) continue;
      Node* expected = n;
      slot.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_seq_cst,
                                   std::memory_order_relaxed);
    }
  }

  /// Nearest validated candidate below `key`, or nullptr (start from
  /// the head). `valid(n, slot)` runs the caller's validation -- key/
  /// mark check under its guard; HP callers additionally kAnchor-
  /// protect n and re-read slot_node(slot) == n before dereferencing.
  /// Slots are probed from bucket(key) down to 0; empty slots and
  /// slots whose routing key is not below `key` are skipped, and each
  /// remaining slot is validated at most once (decay chain: next
  /// bucket down, then head), so the lookup is wait-free.
  template <typename Validate>
  Node* best(long key, Validate&& valid) const {
    if (!enabled_) return nullptr;
    for (int b = bucket(key); b >= 0; --b) {
      // The node load must synchronize with the publisher's seq_cst
      // store: validation dereferences plain fields (key, the node's
      // construction), and the publish store is the only edge that
      // orders them after the node's initialization for a reader that
      // never walked to n. The routing key stays relaxed -- it is
      // never dereferenced, only compared.
      Node* n = nodes_[b].load(std::memory_order_seq_cst);
      if (n == nullptr) continue;
      if (keys_[b].load(std::memory_order_relaxed) >= key) continue;
      if (valid(n, b)) return n;
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
  // Node pointers and routing keys in separate arrays: purge reads only
  // the pointers (eight cache lines for all 64 slots).
  alignas(64) std::atomic<Node*> nodes_[kSlots] = {};
  alignas(64) std::atomic<long> keys_[kSlots] = {};
};

}  // namespace pragmalist::core
