// Epoch-based reclamation, shared by every list engine and the sharded
// set: operations run inside an epoch-pinned critical
// section (Handle::guard()); detached nodes are retired into the
// current epoch's limbo bag and freed once every pinned handle has
// advanced at least two epochs past it.
//
//   Progress guarantee: operations stay lock-free (pin/unpin and
//     retire are wait-free; the free pass runs outside the pin), but
//     *reclamation* is only blocking-free in aggregate -- one thread
//     parked inside a critical section stalls the epoch and no node
//     retired since its pin can be freed until it unpins.
//   Memory bound: none in the worst case (a stalled epoch grows limbo
//     without limit); in steady state limbo per handle is bounded by
//     the retire rate of roughly three epochs plus kRetireThreshold.
//     The churn and soak tiers assert the steady-state bound.
//   Engine requirements: none beyond the retire contract -- traversals
//     are unchanged (no per-step protection, no marked-node
//     restrictions), which is why the pragmatic walk keeps its shape
//     under EBR. Per-handle cursors follow the epoch-stamp rule below.
//
// The pin is one word. A handle's slot holds `epoch << 1 | 1` while
// pinned and 0 otherwise, so a pin is one seq_cst store of the
// combined word (Handle::pin()), retried until a seq_cst re-read of
// the global epoch returns the e it published; unpin is one release
// store of 0. A scanner (try_advance, min_pinned_epoch) reads the flag
// and the epoch in one load, so it never sees a pinned flag with the
// previous operation's epoch. Why a pin at e holds the global epoch
// to at most e+1 (what the two-epoch grace period needs), over the
// seq_cst total order S, with P our store and R our re-read of e:
//
//   * A try_advance T reads the global epoch (G), then our slot (L),
//     then CASes G's value g to g+1. If P <S L, T sees us pinned at e
//     and advances only if g == e. If L <S P, then G <S P <S R, so
//     g <= e, and T's CAS either lands before R (then g+1 <= e, or R
//     would not read e) or after R (then the global still read e at
//     R, so g == e): either way the global reaches at most e+1.
//   * Any later advance from e+1 reads G = e+1, which comes after R
//     read e, hence after P; its slot load sees us pinned at e != e+1
//     and gives up. So while we stay pinned at e, no advance passes
//     e+1 and no bag retired at e-1 or later can be freed.
//
// Footprint counters (live_nodes(), limbo_nodes()) live in the same
// slot, single-writer and relaxed, next to the pin word the handle
// writes on every operation anyway; the global epoch, which every pin
// reads twice, has a cache line of its own. See footprint.hpp.
//
// Epoch-stamped cursors (the cursor-validity capability of reclaim.hpp).
// A node pointer held across the unpinned gap between two operations
// may be freed meanwhile. So the engine stamps a cursor with the epoch
// e its operation pinned (Handle::cursor_stamp(), the value the Guard
// published), and the next operation follows it only if that operation
// pinned at the same e (Handle::cursor_valid()); otherwise the cursor
// is dropped before any load. The cost is one integer compare per
// operation, on a value the guard already loaded. Why it is safe:
//
//   1. The cursor node c was reached, and seen unmarked -- so still
//      linked, hence not yet retired -- while we were pinned at e.
//   2. c's retire is tagged r >= e-1. The retirer tags with a global
//      epoch it reads after its own pin at p <= r. Were p <= e-2, the
//      global epoch could not reach e before that retirer unpinned
//      (try_advance needs every pinned slot at the current epoch), so
//      our pin at e, and our unmarked sighting of c, would come after
//      the retirer had marked, unlinked and retired c: contradiction.
//   3. Freeing c needs collect()/collect_orphans() to compute a horizon
//      min_pinned_epoch() >= r+2 >= e+1, or retire() to reuse r's bag
//      at an epoch >= r+3 >= e+2 (free_bag). Either way some thread has
//      read a global epoch past e. The epoch only grows, so if our next
//      Guard reads e again no such read came before it; and one that
//      comes after it finds our slot pinned at e (the Guard publishes
//      its pin word before its seq_cst re-read of e, and the epoch
//      cannot pass e+1 while we stay pinned at e), so its horizon is at
//      most e < r+2 and no bag holding c is reused either. c is still
//      allocated, and not recycled by the slab pool, for that whole
//      operation.
//   4. From there the cursor is validated like any start candidate (key
//      below the target, unmarked) before the walk begins at it.
//
// The stamp is the *domain's* epoch, so the rule holds per engine
// handle: every shard of a sharded set keeps its own cursor under one
// borrowed reclaim handle (unlike HP's single shared kCursor cell).
//
// Limbo is **epoch-bucketed**: each handle owns kBags (= 3) rotating
// bags, one per epoch residue. retire() drops the node into the bag
// for the current epoch; because the global epoch can only advance
// when every pinned handle has caught up, by the time the rotation
// comes back around to a bag (three epochs later) no reader can still
// hold anything in it, and the whole bag is freed in O(|bag|) --
// nothing is ever re-examined or rebuilt, so the free-pass cost tracks
// the number of nodes actually freed, not the total limbo size (the
// old scheme rebuilt one flat limbo vector per pass, which is O(all
// of limbo) per pass under churn).
//
//   bag lifecycle (global epoch e, bags indexed e % 3):
//
//          retire() fills            collect() frees when
//               v                    min pinned epoch >= bag+2
//     +-----------------+
//     | bag[e % 3]      |  epoch e      (current: filling)
//     +-----------------+
//     | bag[(e-1) % 3]  |  epoch e-1    (cooling: readers from e-1
//     +-----------------+               may still hold pointers)
//     | bag[(e-2) % 3]  |  epoch e-2    (free as soon as every pinned
//     +-----------------+               handle reaches e, i.e. two
//                                       advances after retirement)
//
//     At epoch e+1 the rotation reuses bag[(e+1) % 3] == bag[(e-2) % 3];
//     if collect() has not already emptied it, retire() frees it whole
//     before refilling (same-residue reuse implies the bag is >= 3
//     epochs old, strictly older than the two-epoch grace period).
//
// Departure: a dying handle runs one last collect(), then hands its
// still-young bags (nodes tagged with their retire epoch) to a small
// mutex-guarded orphan pool that any survivor's collect() adopts under
// the same two-epoch rule -- so thread arrival/departure churn cannot
// grow memory toward teardown. The mutex is taken only at departures
// and try_locked from collect(); no list operation ever blocks on it.
//
// Reclamation runs at guard *release*, after the unpin: freeing while
// pinned is a death spiral -- a thread scanning with a pre-advance
// epoch blocks try_advance for everyone, epochs stall, limbo grows,
// scans get slower, pins get longer. Unpinned passes cannot block
// anything, so the epoch keeps moving no matter how churn-saturated
// the workload is (the churn test tier asserts exactly this).
//
// Collect cadence is **adaptive**: the per-handle trigger threshold
// tracks an EWMA of the handle's recent retire rate (floored at
// kRetireThreshold, capped at kCollectThresholdMax), and backs off
// exponentially while passes are futile -- under an oversubscribed
// scheduler a descheduled pinned thread stalls the horizon, and
// re-scanning the handle table at every guard release frees nothing
// while making the stall worse. The moment the global epoch moves
// again, the next guard release collects regardless of the backed-off
// threshold, so a spike drains as soon as it can instead of waiting
// for limbo to reach the raised trigger.
//
// One Ebr instance is a *domain*: it may back any number of lists of
// the same node type (the sharded set runs every shard against one
// domain), and handles are leased per *thread*, not per list -- one
// epoch slot covers a thread's operations on all of them.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "src/alloc/slab.hpp"
#include "src/common/debug.hpp"
#include "src/faults/faults.hpp"
#include "src/reclaim/footprint.hpp"

namespace pragmalist::reclaim {

template <typename Node>
class Ebr {
 public:
  static constexpr bool kStableAddresses = false;
  static constexpr bool kHazards = false;
  static constexpr bool kReclaims = true;
  static constexpr int kMaxHandles = 256;
  static constexpr int kBags = 3;
  static constexpr std::size_t kRetireThreshold = 128;
  static constexpr std::size_t kCollectThresholdMax = 4096;

 private:
  /// One handle's cache line: the pin word every other thread's
  /// try_advance/min_pinned_epoch reads, and the footprint counters
  /// only the leaseholder writes (footprint.hpp).
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> pin{0};  // epoch << 1 | pinned; 0 unpinned
    std::atomic<bool> active{false};
    Footprint fp;
  };
  static_assert(sizeof(Slot) == 64, "an EBR slot is one cache line");

  /// One epoch's worth of retired nodes. `epoch` is meaningful only
  /// while `nodes` is non-empty.
  struct Bag {
    std::vector<Node*> nodes;
    std::uint64_t epoch = 0;
  };

 public:
  class Handle {
   public:
    Handle(Handle&& o) noexcept
        : d_(o.d_),
          slot_(o.slot_),
          limbo_size_(o.limbo_size_),
          collect_threshold_(o.collect_threshold_),
          retired_since_collect_(o.retired_since_collect_),
          rate_ewma_(o.rate_ewma_),
          last_collect_epoch_(o.last_collect_epoch_),
          pin_epoch_(o.pin_epoch_),
          cache_(std::move(o.cache_)) {
      for (int b = 0; b < kBags; ++b) bags_[b] = std::move(o.bags_[b]);
      o.d_ = nullptr;
      o.limbo_size_ = 0;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() {
      if (d_ == nullptr) return;
      // One last unpinned free pass, then hand whatever is still too
      // young to the domain's orphan pool, where any survivor's next
      // collect() adopts and frees it. Departing threads therefore
      // never leak their limbo to the end of the run -- the service
      // tier's arrival/departure churn depends on this.
      collect();
      d_->orphan_bags(bags_, *this);
      d_->slots_[slot_].active.store(false, std::memory_order_release);
    }

    /// RAII epoch pin around one operation. See the file comment for
    /// why the free pass runs at release, never while pinned.
    class Guard {
     public:
      explicit Guard(Handle& h) : h_(h) { h.pin_epoch_ = h.pin(); }
      Guard(const Guard&) = delete;
      Guard& operator=(const Guard&) = delete;
      ~Guard() {
        h_.slot().pin.store(0, std::memory_order_release);
        if (h_.collect_due()) h_.collect();
      }

     private:
      Handle& h_;
    };

    Guard guard() { return Guard(*this); }

    /// Cursor validity (see the file comment): a cursor is stamped with
    /// the epoch the current guard pinned, and a later operation may
    /// follow it only if its own guard pinned at that same epoch. Both
    /// are called inside a live guard.
    std::uint64_t cursor_stamp() const { return pin_epoch_; }
    bool cursor_valid(std::uint64_t stamp) const {
      return stamp == pin_epoch_;
    }

    /// Node allocation, through the per-thread slot cache (a plain
    /// `new` when the domain runs in heap mode). The cache drains on
    /// handle destruction -- and on abandon: cached slots are clean
    /// memory, never protected state, so a crash leaks none of them.
    template <typename... Args>
    Node* construct(Args&&... args) {
      return cache_.construct(std::forward<Args>(args)...);
    }

    /// Free a never-published node (a lost insert race) immediately:
    /// no reader can hold it, so it skips limbo entirely.
    void dispose(Node* n) { cache_.destroy(n); }

    /// Count a published node into this handle's slot (reclaim.hpp).
    void track(Node*) { Footprint::add(slot().fp.allocated, 1); }

    void retire(Node* n) {
      const std::uint64_t e =
          d_->global_epoch_.load(std::memory_order_acquire);
      Bag& bag = bags_[e % kBags];
      if (!bag.nodes.empty() && bag.epoch != e) {
        // Same residue, strictly older: the bag is >= kBags epochs old,
        // past the two-epoch grace period, free it whole before reuse.
        d_->free_bag(bag, *this);
      }
      bag.epoch = e;
      bag.nodes.push_back(n);
      ++limbo_size_;
      ++retired_since_collect_;
      Footprint::add(slot().fp.limbo, 1);
    }

    /// Adaptive cadence trigger, checked at guard release. Pressure is
    /// the worse of own limbo and the orphan pool (a straggler that
    /// barely retires must still adopt the garbage of departed
    /// threads, or a join/leave-heavy run leaks) -- both gated the
    /// same way: fire at the backed-off threshold, or at the base
    /// threshold as soon as the epoch has moved since the last pass
    /// (a backed-off spike must drain the moment the stall clears).
    /// Past the cap the trigger fires every release by design: those
    /// passes keep calling try_advance, which is what lets the epoch
    /// move promptly once a stalled straggler unpins.
    bool collect_due() const {
      const std::size_t pressure = std::max(
          limbo_size_, d_->orphan_count_.load(std::memory_order_relaxed));
      if (pressure >= collect_threshold_) return true;
      return pressure >= kRetireThreshold &&
             d_->global_epoch_.load(std::memory_order_relaxed) !=
                 last_collect_epoch_;
    }

    /// Free pass: advance the epoch if possible, then free every bag
    /// two epochs behind the slowest pinned handle. O(#bags freed +
    /// kMaxHandles), never O(total limbo). Intended to run unpinned
    /// (the guard destructor calls it after the unpin -- see file
    /// comment); calling it inside a live guard is safe but mostly
    /// futile, as the caller's own pin holds the horizon back. Public
    /// so departing service workers and the bucket-rotation tests can
    /// force a pass.
    void collect() {
      d_->try_advance();
      const std::uint64_t min_epoch = d_->min_pinned_epoch();
      const std::size_t limbo_before = limbo_size_;
      const std::size_t orphans_before =
          d_->orphan_count_.load(std::memory_order_relaxed);
      for (Bag& bag : bags_) {
        if (bag.nodes.empty()) continue;
        if (bag.epoch + 2 <= min_epoch) d_->free_bag(bag, *this);
      }
      d_->collect_orphans(min_epoch);
      adapt_cadence(limbo_before, orphans_before);
    }

    /// Retired-not-yet-freed nodes parked on this handle.
    std::size_t limbo_size() const { return limbo_size_; }

    /// Current adaptive trigger (tests/metrics only).
    std::size_t collect_threshold() const { return collect_threshold_; }

    /// Fault injection: the owning worker crashed.
    /// kAbortWithGuardHeld re-pins the slot at the current epoch and
    /// leaves it pinned -- the reclamation horizon can advance at most
    /// once and then stalls until the lease is reaped.
    /// kDepartWithoutRelease skips the departure protocol (no final
    /// collect, no orphan hand-off, slot kept leased). Either way the
    /// handle's limbo is parked on the domain -- still counted by
    /// limbo_nodes(), but unadoptable until reap_crashed() -- and the
    /// handle is dead afterwards (its destructor is a no-op).
    void abandon(faults::FaultKind k) {
      PRAGMALIST_CHECK(!faults::is_op_fault(k),
                       "op-level faults are injected by the engine, not "
                       "the reclaim handle");
      if (k == faults::FaultKind::kAbortWithGuardHeld) pin();
      d_->park_crashed(slot_, bags_, *this);
      d_ = nullptr;
    }

    /// Fault injection (kRetireSkipped): `n` was unlinked but the
    /// crash skipped its retire. The domain attributes and owns it --
    /// counted by blast_stats().leaked_nodes, freed only at teardown,
    /// never part of limbo.
    void leak(Node* n) { d_->leak_node(n); }

   private:
    friend class Ebr;
    Handle(Ebr* d, int slot) : d_(d), slot_(slot), cache_(&d->pool_) {}

    Slot& slot() const { return d_->slots_[slot_]; }

    /// Pin this handle's slot at the current global epoch and return
    /// it: one seq_cst store of the combined word, re-published until
    /// the global epoch reads back unchanged, so no scanner ever sees
    /// a stale-at-birth pin (the argument is in the file comment).
    std::uint64_t pin() {
      std::atomic<std::uint64_t>& word = slot().pin;
      for (;;) {
        const std::uint64_t e =
            d_->global_epoch_.load(std::memory_order_seq_cst);
        word.store(e << 1 | 1, std::memory_order_seq_cst);
        if (d_->global_epoch_.load(std::memory_order_seq_cst) == e) return e;
      }
    }

    /// Re-tune the trigger after a pass. A futile pass (freed nothing,
    /// own limbo or orphans alike) over above-threshold pressure means
    /// a stalled horizon: double the threshold up to the cap. A
    /// productive pass re-anchors it to the EWMA retire rate, floored
    /// at the base threshold. A futile pass *below* the threshold
    /// (only the epoch-moved clause fired) leaves it alone -- it is
    /// neither evidence of a stall nor of drainage.
    void adapt_cadence(std::size_t limbo_before,
                       std::size_t orphans_before) {
      rate_ewma_ = (3 * rate_ewma_ + retired_since_collect_) / 4;
      retired_since_collect_ = 0;
      last_collect_epoch_ =
          d_->global_epoch_.load(std::memory_order_relaxed);
      const std::size_t orphans_after =
          d_->orphan_count_.load(std::memory_order_relaxed);
      const bool futile =
          limbo_size_ == limbo_before && orphans_after >= orphans_before;
      const std::size_t pressure = std::max(limbo_size_, orphans_after);
      if (futile && pressure >= collect_threshold_) {
        if (collect_threshold_ < kCollectThresholdMax)
          collect_threshold_ =
              std::min(kCollectThresholdMax, collect_threshold_ * 2);
      } else if (!futile) {
        collect_threshold_ =
            std::max(kRetireThreshold,
                     std::min(kCollectThresholdMax, rate_ewma_));
      }
    }

    Ebr* d_;
    int slot_;
    Bag bags_[kBags];
    std::size_t limbo_size_ = 0;
    std::size_t collect_threshold_ = kRetireThreshold;
    std::size_t retired_since_collect_ = 0;
    std::size_t rate_ewma_ = kRetireThreshold;
    std::uint64_t last_collect_epoch_ = 0;
    std::uint64_t pin_epoch_ = 0;  // epoch of the current/last guard
    alloc::ThreadCache<Node> cache_;
  };

  explicit Ebr(alloc::Mode mode = alloc::Mode::kHeap) : pool_(mode) {}
  Ebr(const Ebr&) = delete;
  Ebr& operator=(const Ebr&) = delete;

  ~Ebr() {
    for (const auto& entry : orphans_) pool_.destroy(entry.first);
    // Crashed leases nobody reaped, and attributed leaks: the domain
    // owns both, so even a faulted run tears down ASan-clean.
    for (const auto& lease : crashed_)
      for (const auto& entry : lease.nodes) pool_.destroy(entry.first);
    for (Node* n : leaked_) pool_.destroy(n);
  }

  Handle make_handle() {
    for (int i = 0; i < kMaxHandles; ++i) {
      bool expected = false;
      if (slots_[i].active.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel))
        return Handle(this, i);
    }
    PRAGMALIST_CHECK(false, "reclaim::Ebr: more than 256 live handles");
    __builtin_unreachable();
  }

  /// Count a node published off any handle (sentinels); handles count
  /// theirs into their own slot (Handle::track).
  void track(Node*) {
    shared_.allocated.fetch_add(1, std::memory_order_relaxed);
  }

  std::size_t live_nodes() const { return Footprint::live(shared_, slots_); }

  /// Retired-not-yet-freed nodes across every handle plus the orphan
  /// pool left by departed handles and the limbo parked by crashed
  /// ones. The soak harness samples this as the limbo-depth series.
  std::size_t limbo_nodes() const {
    return Footprint::limbo_total(shared_, slots_);
  }

  /// Current global epoch (metrics/tests only).
  std::uint64_t epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Supervisor recovery: release every crashed lease. Unpins the
  /// slot (the horizon resumes), moves the parked nodes into the
  /// orphan pool (any survivor's next collect adopts and frees them
  /// under the usual two-epoch rule), and frees the slot for
  /// re-lease. Returns the number of leases reaped. Safe to call from
  /// any thread while workers run.
  std::size_t reap_crashed() {
    std::vector<CrashedLease> leases;
    {
      std::lock_guard<std::mutex> lock(crashed_mu_);
      leases.swap(crashed_);
      crashed_count_.store(0, std::memory_order_relaxed);
    }
    if (leases.empty()) return 0;
    {
      std::lock_guard<std::mutex> lock(orphans_mu_);
      for (const auto& lease : leases)
        for (const auto& entry : lease.nodes) orphans_.push_back(entry);
      orphan_count_.store(orphans_.size(), std::memory_order_relaxed);
    }
    std::size_t parked = 0;
    for (const auto& lease : leases) {
      parked += lease.nodes.size();
      // Hand the nodes off *before* unpinning: the stalled horizon
      // keeps them unfreeable until this store, so adoption can never
      // free something the dead pin still covered.
      slots_[lease.slot].pin.store(0, std::memory_order_seq_cst);
      slots_[lease.slot].active.store(false, std::memory_order_release);
    }
    parked_limbo_.fetch_sub(parked, std::memory_order_relaxed);
    return leases.size();
  }

  /// Blast-radius snapshot (see faults::BlastStats). Sampled per tick
  /// by the soak driver; horizon_lag > 0 with no crashed slots is just
  /// normal epoch skew, while a persistent lag under a crashed slot is
  /// the guard-held stall.
  faults::BlastStats blast_stats() const {
    faults::BlastStats b;
    b.leaked_nodes = leaked_count_.load(std::memory_order_relaxed);
    b.crashed_slots = crashed_count_.load(std::memory_order_relaxed);
    b.parked_limbo = parked_limbo_.load(std::memory_order_relaxed);
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    b.horizon_lag = e - min_pinned_epoch();
    b.leaked_slabs = leaked_slab_count();
    return b;
  }

  /// Domain-level allocation (sentinels, teardown paths).
  template <typename... Args>
  Node* construct(Args&&... args) {
    return pool_.construct(std::forward<Args>(args)...);
  }
  void destroy(Node* n) { pool_.destroy(n); }

  alloc::Mode alloc_mode() const { return pool_.mode(); }
  alloc::SlabStats slab_stats() const { return pool_.stats(); }
  alloc::SlabPool<Node>& pool() { return pool_; }

 private:
  friend class Handle;

  void free_bag(Bag& bag, Handle& h) {
    for (Node* n : bag.nodes) pool_.destroy(n);
    Footprint& fp = h.slot().fp;
    Footprint::add(fp.freed, bag.nodes.size());
    Footprint::sub(fp.limbo, bag.nodes.size());
    h.limbo_size_ -= bag.nodes.size();
    bag.nodes.clear();
  }

  /// Smallest epoch any pinned handle has published (the reclamation
  /// horizon); the global epoch when nothing is pinned.
  std::uint64_t min_pinned_epoch() const {
    std::uint64_t min_epoch = global_epoch_.load(std::memory_order_seq_cst);
    for (const auto& slot : slots_) {
      if (!slot.active.load(std::memory_order_acquire)) continue;
      const std::uint64_t w = slot.pin.load(std::memory_order_seq_cst);
      if ((w & 1) != 0 && (w >> 1) < min_epoch) min_epoch = w >> 1;
    }
    return min_epoch;
  }

  /// Bump the global epoch if every pinned handle caught up with it.
  void try_advance() {
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    for (const auto& slot : slots_) {
      if (!slot.active.load(std::memory_order_acquire)) continue;
      const std::uint64_t w = slot.pin.load(std::memory_order_seq_cst);
      if ((w & 1) != 0 && (w >> 1) != e) return;
    }
    std::uint64_t expected = e;
    global_epoch_.compare_exchange_strong(expected, e + 1,
                                          std::memory_order_seq_cst);
  }

  /// Departure path: move a dying handle's too-young bags into the
  /// orphan pool, keeping each node's retire epoch so adoption applies
  /// the same two-epoch rule. The mutex is only ever taken here (rare:
  /// schedule edges) and in collect_orphans (try_lock, off the
  /// operation path), so operations themselves stay lock-free.
  void orphan_bags(Bag (&bags)[kBags], Handle& h) {
    std::lock_guard<std::mutex> lock(orphans_mu_);
    for (Bag& bag : bags) {
      for (Node* n : bag.nodes) orphans_.emplace_back(n, bag.epoch);
      bag.nodes.clear();
    }
    h.slot().fp.hand_off_limbo(shared_, h.limbo_size_);
    h.limbo_size_ = 0;
    orphan_count_.store(orphans_.size(), std::memory_order_relaxed);
  }

  /// Free every orphan whose epoch is two behind the horizon. Skips
  /// out immediately when the pool is empty or contended.
  void collect_orphans(std::uint64_t min_epoch) {
    if (orphan_count_.load(std::memory_order_relaxed) == 0) return;
    if (!orphans_mu_.try_lock()) return;
    std::size_t freed = 0;
    std::size_t w = 0;
    for (std::size_t r = 0; r < orphans_.size(); ++r) {
      if (orphans_[r].second + 2 <= min_epoch) {
        pool_.destroy(orphans_[r].first);
        ++freed;
      } else {
        orphans_[w++] = orphans_[r];
      }
    }
    orphans_.resize(w);
    orphan_count_.store(w, std::memory_order_relaxed);
    orphans_mu_.unlock();
    shared_.freed.fetch_add(freed, std::memory_order_relaxed);
    shared_.limbo.fetch_sub(freed, std::memory_order_relaxed);
  }

  /// One abandoned handle: the slot it still occupies and its parked
  /// limbo (with retire epochs, so adoption after reaping applies the
  /// normal two-epoch rule).
  struct CrashedLease {
    int slot;
    std::vector<std::pair<Node*, std::uint64_t>> nodes;
  };

  /// Park an abandoned handle's bags and record the lease. The slot
  /// stays active (and possibly pinned) until reap_crashed().
  void park_crashed(int slot, Bag (&bags)[kBags], Handle& h) {
    CrashedLease lease;
    lease.slot = slot;
    for (Bag& bag : bags) {
      for (Node* n : bag.nodes) lease.nodes.emplace_back(n, bag.epoch);
      bag.nodes.clear();
    }
    h.slot().fp.hand_off_limbo(shared_, h.limbo_size_);
    h.limbo_size_ = 0;
    std::lock_guard<std::mutex> lock(crashed_mu_);
    parked_limbo_.fetch_add(lease.nodes.size(), std::memory_order_relaxed);
    crashed_.push_back(std::move(lease));
    crashed_count_.store(crashed_.size(), std::memory_order_relaxed);
  }

  /// Attribute a kRetireSkipped leak: the node stays allocated (it is
  /// outside limbo and the orphan pool) and is freed at teardown.
  void leak_node(Node* n) {
    std::lock_guard<std::mutex> lock(leaked_mu_);
    leaked_.push_back(n);
    leaked_count_.store(leaked_.size(), std::memory_order_relaxed);
  }

  /// Distinct slabs holding attributed leaks (slab-leak attribution
  /// for the fault tier; 0 in heap mode where there are no slabs).
  std::size_t leaked_slab_count() const {
    if (pool_.mode() != alloc::Mode::kSlab) return 0;
    std::lock_guard<std::mutex> lock(leaked_mu_);
    std::vector<const void*> slabs;
    for (const Node* n : leaked_) {
      const void* s = pool_.slab_of(n);
      if (std::find(slabs.begin(), slabs.end(), s) == slabs.end())
        slabs.push_back(s);
    }
    return slabs.size();
  }

  alloc::SlabPool<Node> pool_;  // first: every free above drains into it
  Slot slots_[kMaxHandles];
  // Read twice by every pin and once by every retire, written only by
  // try_advance: a line of its own, away from every counter.
  alignas(64) std::atomic<std::uint64_t> global_epoch_{2};
  // Off-slot footprint: sentinels, the orphan pool, crashed leases.
  alignas(64) Footprint shared_;
  std::mutex orphans_mu_;
  std::vector<std::pair<Node*, std::uint64_t>> orphans_;  // guarded by mu
  std::atomic<std::size_t> orphan_count_{0};
  std::mutex crashed_mu_;
  std::vector<CrashedLease> crashed_;  // guarded by crashed_mu_
  std::atomic<std::size_t> crashed_count_{0};
  std::atomic<std::size_t> parked_limbo_{0};
  mutable std::mutex leaked_mu_;  // blast_stats() walks leaked_ (const)
  std::vector<Node*> leaked_;     // guarded by leaked_mu_
  std::atomic<std::size_t> leaked_count_{0};
};

}  // namespace pragmalist::reclaim
