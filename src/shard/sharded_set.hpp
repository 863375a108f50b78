// Hash-sharded set: N independent lists of one engine type behind a
// single set interface. The key space is partitioned by
// shard::shard_of, so each shard is a shorter, less contended list and
// aggregate throughput scales past the single-list ceiling.
//
// The part that is *not* a trivial fan-out is reclamation. All shards
// share ONE reclamation domain (the engines' shared_ptr<Reclaim>
// constructor parameter exists for this), and every worker leases ONE
// per-thread reclaim handle which all of its per-shard engine handles
// borrow (Engine::make_handle(ReclaimHandle&)). Consequences:
//
//   * one epoch clock / hazard-slot table / registry for the whole
//     sharded set -- reclamation state is O(threads), never
//     O(threads x shards), and a 200-thread 8-shard service fits the
//     same 256-slot domain a single list does;
//   * retire ordering between shards is free: a thread's epoch pin or
//     hazard cells cover whichever shard it is currently operating on;
//   * domain-level metrics (allocated_nodes, limbo_nodes) already
//     aggregate across shards, so the footprint/limbo bounds of the
//     churn and soak tiers apply to the sharded set verbatim;
//   * under HP, the persistent cursor cell is a per-thread resource
//     shared by all shards; the engines' cursor_owner protocol
//     (reclaim/hp.hpp) keeps exactly one shard's cursor protected --
//     the hot shard keeps its locality win, the others fall back to
//     head starts.
//
// Quiescent calls (validate/size/snapshot/shard_sizes) follow the same
// contract as every engine: all worker handles closed. Per-shard op
// counts are accumulated handle-locally and folded into the set's
// atomics at handle close, so shard_ops() is also quiescent-only.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/alloc/slab.hpp"
#include "src/common/debug.hpp"
#include "src/core/iset.hpp"
#include "src/faults/faults.hpp"
#include "src/shard/shard_map.hpp"

namespace pragmalist::shard {

template <typename Engine>
class ShardedSet {
  // Every shard allocates through the one shared domain, so the
  // domain's slab mode must be safe for the engine's nodes.
  static_assert(Engine::kPoolAllocates,
                "shards must allocate through the shared domain");

 public:
  using Reclaim = typename Engine::Reclaim;
  using ReclaimHandle = typename Engine::ReclaimHandle;

  class Handle {
   public:
    bool add(long key) { return handles_[set_->shard_of(key)].add(key); }
    bool remove(long key) {
      return handles_[set_->shard_of(key)].remove(key);
    }
    bool contains(long key) {
      return handles_[set_->shard_of(key)].contains(key);
    }

    // A global ordered scan over a hash partition is a k-way merge:
    // every shard holds an arbitrary subset of [lo, hi], so each shard
    // contributes an ascending cursor (paged through the engines'
    // uncounted scan_raw primitive) and the merge emits the minimum
    // across cursors. All per-shard pages run under this worker's ONE
    // borrowed reclaim handle, one page at a time -- under EBR each
    // page is one epoch pin (the merge never holds a pin across the
    // whole scan), under HP each page re-anchors per step as usual.
    // Keys are unique across shards (the partition routes each key to
    // exactly one shard), so the merge needs no duplicate handling.
    //
    // The cursors and their page buffers belong to the handle (one
    // worker's) and are reused, so a scan allocates nothing beyond its
    // output. A sink may run point ops on this handle but must not
    // start another scan on it (checked).
    long range_scan(long lo, long hi, const core::KeySink& sink) {
      return core::counted_range_scan(*this, scan_ctr_, lo, hi, sink);
    }
    std::vector<long> ascend(long from, std::size_t limit) {
      return core::counted_ascend(*this, scan_ctr_, from, limit);
    }
    /// Uncounted merge primitive (the counted forms above delegate
    /// here, like every engine handle's scan_raw).
    long scan_raw(long from, long hi, long limit,
                  const core::KeySink& sink) {
      return merge_scan(from, hi, limit, sink);
    }

    /// Keys this handle's scans have fetched from shards (the sum of
    /// every page's length), emitted or not. Handle-local, not on
    /// ISetHandle: it prices the merge, it is not an op ledger.
    long keys_fetched() const { return fetched_; }

    core::OpCounters counters() const {
      // Point ops live in the per-shard engine ledgers; scans are
      // whole-set operations counted here (never per shard, which
      // would inflate scan_calls by the page fan-out).
      core::OpCounters agg = scan_ctr_;
      for (const auto& h : handles_) agg += h.counters();
      return agg;
    }

    /// Fault injection: op-level kinds route to `key`'s shard like any
    /// other op; lease-level kinds crash the ONE reclaim handle this
    /// worker leased for the whole set -- which is the point: a single
    /// crashed worker's blast radius covers every shard at once,
    /// because reclamation state is per thread, not per shard.
    void abandon(faults::FaultKind k, long key) {
      if (faults::is_op_fault(k))
        handles_[set_->shard_of(key)].abandon(k, key);
      else
        rh_->abandon(k);
    }

    // Default move is safe: the engine handles point at *rh_, whose
    // heap address survives the move (a moved-from handles_ is empty,
    // so the moved-from destructor folds nothing).
    Handle(Handle&&) = default;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    ~Handle() {
      // Fold the per-shard ledgers (each engine handle's own counters)
      // into the set's quiescent totals.
      for (std::size_t s = 0; s < handles_.size(); ++s)
        set_->shard_ops_[s].fetch_add(handles_[s].counters().total_ops(),
                                      std::memory_order_relaxed);
      // Members die in reverse order: the borrowing engine handles
      // first, the owned reclaim handle (departure protocol: final
      // scan/collect, orphan hand-off, slot release) last.
    }

   private:
    friend class ShardedSet;
    explicit Handle(ShardedSet* set)
        : set_(set),
          rh_(std::make_unique<ReclaimHandle>(set->domain_->make_handle())),
          cursors_(set->shards_.size()),
          heads_(set->shards_.size()),
          ids_(set->shards_.size()) {
      handles_.reserve(set->shards_.size());
      for (auto& engine : set->shards_)
        handles_.push_back(engine->make_handle(*rh_));
    }

    /// Largest scan_raw page. Large enough that refills are rare on
    /// realistic widths, small enough that a page (one EBR pin) never
    /// pins the epoch for long. Unbounded scans use it for every page;
    /// bounded ones start at twice their even share of the limit and
    /// double per refill up to it (see merge_scan).
    static constexpr long kScanPage = 64;

    struct ShardCursor {
      std::vector<long> page;  // reused across scans (capacity sticks)
      std::size_t idx = 0;
      long next_from = 0;
      long want = 0;  // length of the page requested last
      bool drained = false;  // shard has nothing further in range
    };

    /// Fetches shard s's next page of at most `want` keys; false when
    /// the page came back empty.
    bool refill(std::size_t s, long hi) {
      ShardCursor& c = cursors_[s];
      c.page.clear();
      c.idx = 0;
      handles_[s].scan_raw(c.next_from, hi, c.want,
                           [&c](long k) { c.page.push_back(k); });
      fetched_ += static_cast<long>(c.page.size());
      // A short page means the shard's range is exhausted; a full page
      // ending on hi must not advance past it (hi may be LONG_MAX).
      if (c.page.size() < static_cast<std::size_t>(c.want) ||
          c.page.back() >= hi)
        c.drained = true;
      else
        c.next_from = c.page.back() + 1;
      return !c.page.empty();
    }

    // Page sizing for a bounded scan: each shard's first page is
    // min(kScanPage, limit, 2 * ceil(limit / shards)), and a refill
    // doubles the shard's previous page, capped at kScanPage and at
    // the keys still wanted. A shard fetches page k only after
    // emitting pages 0..k-1, so it fetches at most 2 x its emitted
    // keys + its first page: a scan fetches <= 4 * limit + 2 * shards
    // keys. The live cursors' head keys sit in one flat array (swap-
    // removed when a cursor runs dry, so no sentinel key is needed:
    // LONG_MAX is a legal key), and the minimum is a cmov scan.
    long merge_scan(long from, long hi, long limit,
                    const core::KeySink& sink) {
      if (limit == 0) return 0;
      PRAGMALIST_CHECK(!scanning_,
                       "a scan's sink started a scan on the same handle");
      scanning_ = true;
      const std::size_t n = handles_.size();
      long first = kScanPage;  // unbounded scans page at full size
      if (limit > 0) {
        const long share = (limit - 1) / static_cast<long>(n) + 1;
        first = std::min({kScanPage, limit, 2 * std::min(share, kScanPage)});
      }
      std::size_t live = 0;
      for (std::size_t s = 0; s < n; ++s) {
        cursors_[s].next_from = from;
        cursors_[s].want = first;
        cursors_[s].drained = false;
        if (refill(s, hi)) {
          heads_[live] = cursors_[s].page[0];
          ids_[live++] = s;
        }
      }
      long emitted = 0;
      while (live > 0) {
        // Linear min across the heads: shard counts are small
        // (typically <= 16), so a heap would cost more than it saves.
        std::size_t b = 0;
        long min = heads_[0];
        for (std::size_t j = 1; j < live; ++j) {
          const bool lt = heads_[j] < min;
          b = lt ? j : b;
          min = lt ? heads_[j] : min;
        }
        sink(min);
        // Stop before any refill once the limit-th key is out: a fresh
        // page (a whole scan_raw walk, one EBR pin) would be discarded.
        if (++emitted == limit) break;
        ShardCursor& c = cursors_[ids_[b]];
        if (++c.idx < c.page.size()) {
          heads_[b] = c.page[c.idx];
          continue;
        }
        if (!c.drained) {
          c.want = std::min(2 * c.want, kScanPage);
          if (limit > 0) c.want = std::min(c.want, limit - emitted);
          if (refill(ids_[b], hi)) {
            heads_[b] = c.page[0];
            continue;
          }
        }
        --live;
        heads_[b] = heads_[live];
        ids_[b] = ids_[live];
      }
      scanning_ = false;
      return emitted;
    }

    ShardedSet* set_;
    // Heap-held so the borrowed pointers inside the engine handles
    // survive moves of this Handle. Declared before handles_: borrowers
    // are destroyed before the handle they borrow.
    std::unique_ptr<ReclaimHandle> rh_;
    std::vector<typename Engine::Handle> handles_;
    core::OpCounters scan_ctr_;  // whole-set scan ledger (see counters)
    // Merge scratch, one slot per shard, reused by every scan.
    std::vector<ShardCursor> cursors_;
    std::vector<long> heads_;        // live cursors' head keys
    std::vector<std::size_t> ids_;   // their shard indices
    long fetched_ = 0;               // see keys_fetched()
    bool scanning_ = false;          // a merge_scan is running
  };

  explicit ShardedSet(int shards,
                      alloc::Mode mode = alloc::Mode::kHeap,
                      bool hints = true)
      : domain_(std::make_shared<Reclaim>(mode)) {
    PRAGMALIST_CHECK(shards >= 1, "ShardedSet needs at least one shard");
    shards_.reserve(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i)
      shards_.push_back(std::make_unique<Engine>(domain_, hints));
    shard_ops_ =
        std::make_unique<std::atomic<long>[]>(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i)
      shard_ops_[static_cast<std::size_t>(i)].store(
          0, std::memory_order_relaxed);
  }
  ShardedSet(const ShardedSet&) = delete;
  ShardedSet& operator=(const ShardedSet&) = delete;

  /// Safe to call concurrently from worker threads (leases a reclaim
  /// handle from the shared domain, then only reads shards_).
  Handle make_handle() { return Handle(this); }

  std::size_t shard_of(long key) const {
    return shard::shard_of(key, shards_.size());
  }

  // --- quiescent API ------------------------------------------------

  bool validate(std::string* err) const {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s]->validate(err)) {
        if (err != nullptr)
          *err = "shard " + std::to_string(s) + ": " + *err;
        return false;
      }
    }
    return true;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& engine : shards_) total += engine->size();
    return total;
  }

  /// Ascending over the whole key space: per-shard snapshots are
  /// sorted, but the hash partition interleaves them arbitrarily.
  std::vector<long> snapshot() const {
    std::vector<long> all;
    for (const auto& engine : shards_) {
      const auto part = engine->snapshot();
      all.insert(all.end(), part.begin(), part.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

  /// Domain-wide (the shared domain already aggregates every shard).
  std::size_t allocated_nodes() const { return domain_->live_nodes(); }

  std::size_t limbo_nodes() const {
    if constexpr (Reclaim::kReclaims)
      return domain_->limbo_nodes();
    else
      return 0;
  }

  /// Supervisor recovery and blast-radius metrics: one shared domain,
  /// so one call covers every shard (no-op / all-zero under the
  /// arena). See src/faults/faults.hpp.
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

  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Operations routed to each shard (attempts, all op kinds), folded
  /// in as worker handles close.
  std::vector<long> shard_ops() const {
    std::vector<long> ops(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s)
      ops[s] = shard_ops_[s].load(std::memory_order_relaxed);
    return ops;
  }

  /// Every shard carries its own hint index: slots summed and the
  /// largest, re-indexes summed. Safe while workers run.
  core::HintStats hint_stats() const {
    core::HintStats out;
    for (const auto& engine : shards_) {
      const core::HintStats s = engine->hint_stats();
      out.slots += s.slots;
      out.slots_max = std::max(out.slots_max, s.slots_max);
      out.reindexes += s.reindexes;
    }
    return out;
  }

  /// Live keys per shard.
  std::vector<std::size_t> shard_sizes() const {
    std::vector<std::size_t> sizes(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s)
      sizes[s] = shards_[s]->size();
    return sizes;
  }

 private:
  friend class Handle;

  // Declared before shards_: engines (which may free still-linked
  // nodes through their destructors) die before the domain they share.
  std::shared_ptr<Reclaim> domain_;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::unique_ptr<std::atomic<long>[]> shard_ops_;
};

}  // namespace pragmalist::shard
