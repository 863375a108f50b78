// Hazard-pointer reclamation (Michael, PODC'02/TPDS'04), shared by
// every list engine and the sharded set. Each handle
// owns kSlots hazard cells; a reader publishes the node it is about to
// dereference, revalidates reachability against a shared cell, and may
// then use the node until the cell is overwritten. scan() frees every
// retiree no cell currently protects.
//
//   Progress guarantee: fully lock-free, including reclamation -- a
//     parked thread pins at most kSlots nodes forever; it can never
//     stall anyone else's frees the way a parked EBR pin stalls the
//     epoch.
//   Memory bound: per-domain garbage is bounded by
//     kMaxHandles * (kRetireThreshold + kSlots) regardless of how long
//     the run lasts or how threads come and go -- the strongest bound
//     of the three policies (the churn and soak tiers assert it).
//   Engine requirements: the engine must run a hazard traversal --
//     publish into a slot before every dereference and revalidate
//     afterwards. Stepping over marked nodes additionally requires the
//     anchored-validation walk (core::hazard::anchored_walk): plain HP
//     validation cannot detect that a marked node's frozen successor
//     chain was swept, see list_base.hpp. Per-handle cursors are
//     supported via a dedicated persistent slot (hazard::kCursor).
//
// Slot-role conventions are the caller's business: the engines use
// four (anchor/walk/run + a persistent cursor slot, see hazard:: in
// list_base.hpp).
//
// Cursor-slot reuse (departure/arrival protocol): hazard slots are a
// fixed kMaxHandles-entry table, so a long-running service must
// re-lease the slots of departed threads to arrivals. A departing
// handle (destructor) does, in order:
//   1. one last scan(), freeing every retiree no cell protects;
//   2. hands survivors to the domain's lock-free *orphan* stack -- the
//      next scan() by any live handle adopts and frees them, so a
//      departed thread's garbage never waits for domain teardown;
//   3. clears all kSlots cells -- including the persistent kCursor
//      cell, which unlike the traversal cells is deliberately kept
//      published *between* operations and would otherwise pin its node
//      (and with it one list position) for the rest of the run;
//   4. releases the slot with a release-store that the arrival's
//      acquire-CAS in make_handle() synchronizes with, so a re-leased
//      slot is observed with all cells null and no stale protection
//      can leak from the previous owner into the new lease.
//
// One Hp instance is a *domain*: it may back any number of lists of
// the same node type (the sharded set runs every shard against one
// domain), and handles are leased per *thread*, not per list -- one
// kSlots-cell row covers a thread's traversals on all of them, which
// is what keeps the hazard-slot total O(threads) instead of
// O(threads x shards). Because the persistent kCursor cell is then a
// per-thread resource shared by every borrowing list, the handle
// carries a `cursor_owner` tag: the engine that last published a
// cursor stamps itself, and any engine finding another owner's stamp
// treats its own remembered cursor as lost instead of dereferencing a
// node the cell no longer protects (or clearing a cell that now
// guards someone else's cursor).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/alloc/slab.hpp"
#include "src/common/debug.hpp"
#include "src/core/list_base.hpp"
#include "src/faults/faults.hpp"
#include "src/reclaim/footprint.hpp"

namespace pragmalist::reclaim {

template <typename Node>
class Hp {
 public:
  static constexpr bool kStableAddresses = false;
  static constexpr bool kHazards = true;
  static constexpr bool kReclaims = true;
  static constexpr int kMaxHandles = 256;
  static constexpr int kSlots = 4;
  static constexpr std::size_t kRetireThreshold = 64;

 private:
  /// One handle's cache line: the hazard cells every scan reads, and
  /// the footprint counters only the leaseholder writes (footprint.hpp).
  struct alignas(64) Slot {
    std::array<std::atomic<Node*>, kSlots> hp{};
    std::atomic<bool> active{false};
    Footprint fp;
  };
  static_assert(sizeof(Slot) == 64, "an HP slot is one cache line");

 public:
  class Handle {
   public:
    Handle(Handle&& o) noexcept
        : cursor_owner(o.cursor_owner),
          d_(o.d_),
          slot_(o.slot_),
          retired_(std::move(o.retired_)),
          cache_(std::move(o.cache_)) {
      o.d_ = nullptr;
      o.retired_.clear();
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() {
      if (d_ == nullptr) return;
      // Departure protocol -- see the file comment. The final scan runs
      // with our own cells still published, so a self-protected cursor
      // node correctly survives into the orphan stack rather than being
      // freed out from under a concurrent reader of the same node.
      d_->scan(*this);
      d_->orphan_retired(*this);
      for (auto& h : d_->slots_[slot_].hp)
        h.store(nullptr, std::memory_order_release);
      d_->slots_[slot_].active.store(false, std::memory_order_release);
    }

    struct Guard {};
    Guard guard() { return {}; }

    /// Cursor validity (reclaim.hpp): the persistent kCursor cell keeps
    /// the cursor node protected, so the stamp carries nothing; the
    /// engines check the cell's owner tag separately (see the file
    /// comment and core::hazard::owns_cursor).
    static constexpr std::uint64_t cursor_stamp() { return 0; }
    static constexpr bool cursor_valid(std::uint64_t) { return true; }

    /// Node allocation, through the per-thread slot cache (a plain
    /// `new` when the domain runs in heap mode). The cache drains on
    /// handle destruction -- and on abandon: cached slots are clean
    /// memory, never protected state, so a crash leaks none of them.
    template <typename... Args>
    Node* construct(Args&&... args) {
      return cache_.construct(std::forward<Args>(args)...);
    }

    /// Free a never-published node (a lost insert race) immediately:
    /// no reader can hold it, so it skips retire/scan entirely.
    void dispose(Node* n) { cache_.destroy(n); }

    /// Count a published node into this handle's slot (reclaim.hpp).
    void track(Node*) { Footprint::add(fp().allocated, 1); }

    /// Publish: the store must be ordered before the caller's
    /// revalidation read, hence seq_cst (a release store could be
    /// reordered past the subsequent load on x86 and elsewhere).
    void protect(int slot, Node* n) {
      d_->slots_[slot_].hp[static_cast<std::size_t>(slot)].store(
          n, std::memory_order_seq_cst);
    }

    void clear(int slot) {
      d_->slots_[slot_].hp[static_cast<std::size_t>(slot)].store(
          nullptr, std::memory_order_release);
    }

    void retire(Node* n) {
      retired_.push_back(n);
      Footprint::add(fp().limbo, 1);
      if (retired_.size() >= kRetireThreshold) collect();
    }

    /// Scan now instead of waiting for the retire threshold (departing
    /// service workers and the slot-reuse tests force passes with it).
    void collect() { d_->scan(*this); }

    /// Retired-not-yet-freed nodes parked on this handle.
    std::size_t limbo_size() const { return retired_.size(); }

    /// Fault injection: the owning worker crashed.
    /// kAbortWithGuardHeld leaves every published cell as-is -- each
    /// dead cell quarantines at most one node from every future scan,
    /// which is HP's whole blast radius (contrast the EBR horizon
    /// stall). kDepartWithoutRelease models a worker dying *between*
    /// operations: the traversal cells are empty but the persistent
    /// kCursor cell (by convention the highest slot) is still
    /// published, so exactly that one leaks. Either way the retire bag
    /// is parked on the domain -- counted by limbo_nodes(), but
    /// unadoptable -- and the slot stays leased until reap_crashed().
    /// The handle is dead afterwards (its destructor is a no-op).
    void abandon(faults::FaultKind k) {
      PRAGMALIST_CHECK(!faults::is_op_fault(k),
                       "op-level faults are injected by the engine, not "
                       "the reclaim handle");
      if (k == faults::FaultKind::kDepartWithoutRelease) {
        for (int s = 0; s + 1 < kSlots; ++s)
          d_->slots_[slot_].hp[static_cast<std::size_t>(s)].store(
              nullptr, std::memory_order_release);
      }
      d_->park_crashed(*this);
      d_ = nullptr;
    }

    /// Fault injection (kRetireSkipped): `n` was unlinked but the
    /// crash skipped its retire. The domain attributes and owns it --
    /// counted by blast_stats().leaked_nodes, freed only at teardown,
    /// never part of limbo.
    void leak(Node* n) { d_->leak_node(n); }

    /// Which borrower (list engine) currently owns the persistent
    /// kCursor cell -- see the file comment. Only ever read/written by
    /// the handle's own thread; nullptr when the cell is unclaimed.
    const void* cursor_owner = nullptr;

   private:
    friend class Hp;
    Handle(Hp* d, int slot) : d_(d), slot_(slot), cache_(&d->pool_) {}

    Footprint& fp() const { return d_->slots_[slot_].fp; }

    Hp* d_;
    int slot_;
    std::vector<Node*> retired_;
    alloc::ThreadCache<Node> cache_;
  };

  explicit Hp(alloc::Mode mode = alloc::Mode::kHeap) : pool_(mode) {}
  Hp(const Hp&) = delete;
  Hp& operator=(const Hp&) = delete;

  ~Hp() {
    Node* r = orphans_.load(std::memory_order_acquire);
    while (r != nullptr) {
      Node* next = r->reg_next;
      pool_.destroy(r);
      r = next;
    }
    // Crashed leases nobody reaped, and attributed leaks: the domain
    // owns both, so even a faulted run tears down ASan-clean.
    for (const auto& lease : crashed_)
      for (Node* n : lease.retired) pool_.destroy(n);
    for (Node* n : leaked_) pool_.destroy(n);
  }

  Handle make_handle() {
    for (int i = 0; i < kMaxHandles; ++i) {
      bool expected = false;
      if (slots_[i].active.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        // Re-lease: the departed owner's release-store of `active`
        // ordered its cell clears before this CAS, so the cells are
        // null; re-null defensively so a fresh lease never starts with
        // stale protection even if the slot was never used before.
        for (auto& h : slots_[i].hp)
          h.store(nullptr, std::memory_order_relaxed);
        return Handle(this, i);
      }
    }
    PRAGMALIST_CHECK(false, "reclaim::Hp: more than 256 live handles");
    __builtin_unreachable();
  }

  /// Count a node published off any handle (sentinels); handles count
  /// theirs into their own slot (Handle::track).
  void track(Node*) {
    shared_.allocated.fetch_add(1, std::memory_order_relaxed);
  }

  std::size_t live_nodes() const { return Footprint::live(shared_, slots_); }

  /// Retired-not-yet-freed nodes: every handle's retire bag plus the
  /// orphan stack and the bags parked by crashed handles. The soak
  /// harness samples this as the limbo-depth series.
  std::size_t limbo_nodes() const {
    return Footprint::limbo_total(shared_, slots_);
  }

  /// Supervisor recovery: release every crashed lease. Hands the
  /// parked retire bag to the orphan stack (the next scan by any live
  /// handle adopts it), clears the dead cells -- un-quarantining
  /// whatever they pinned -- and frees the slot for re-lease. Returns
  /// the number of leases reaped. Safe to call from any thread while
  /// workers run.
  std::size_t reap_crashed() {
    std::vector<CrashedLease> leases;
    {
      std::lock_guard<std::mutex> lock(crashed_mu_);
      leases.swap(crashed_);
    }
    if (leases.empty()) return 0;
    std::size_t parked = 0;
    for (auto& lease : leases) {
      parked += lease.retired.size();
      // Same order as a clean departure: orphan the bag first, clear
      // the cells, then the release-store of `active` publishes the
      // nulls to the next make_handle.
      for (Node* n : lease.retired) core::push_intrusive(orphans_, n);
      for (auto& h : slots_[lease.slot].hp)
        h.store(nullptr, std::memory_order_release);
      slots_[lease.slot].active.store(false, std::memory_order_release);
    }
    parked_limbo_.fetch_sub(parked, std::memory_order_relaxed);
    return leases.size();
  }

  /// Blast-radius snapshot (see faults::BlastStats): leaked_cells
  /// counts the non-null hazard cells of crashed leases -- the exact
  /// number of nodes a scan may have to quarantine because of the
  /// crashes. No horizon_lag: HP has no epoch to stall.
  faults::BlastStats blast_stats() const {
    faults::BlastStats b;
    b.leaked_nodes = leaked_count_.load(std::memory_order_relaxed);
    b.parked_limbo = parked_limbo_.load(std::memory_order_relaxed);
    b.leaked_slabs = leaked_slab_count();
    std::lock_guard<std::mutex> lock(crashed_mu_);
    b.crashed_slots = crashed_.size();
    for (const auto& lease : crashed_)
      for (const auto& cell : slots_[lease.slot].hp)
        if (cell.load(std::memory_order_acquire) != nullptr)
          ++b.leaked_cells;
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

  /// Free every retiree of `h` no hazard pointer currently protects.
  /// Adopts the orphan stack first (retirees of departed handles), so
  /// one surviving handle is enough to keep the whole domain's garbage
  /// bounded under thread churn.
  void scan(Handle& h) {
    std::vector<Node*>& retired = h.retired_;
    Footprint& fp = h.fp();
    Node* o = orphans_.exchange(nullptr, std::memory_order_acq_rel);
    std::size_t adopted = 0;
    while (o != nullptr) {
      Node* next = o->reg_next;
      retired.push_back(o);
      ++adopted;
      o = next;
    }
    if (adopted != 0) {  // their limbo count moves into h's slot
      Footprint::add(fp.limbo, adopted);
      shared_.limbo.fetch_sub(adopted, std::memory_order_relaxed);
    }
    std::unordered_set<Node*> protected_nodes;
    for (const auto& slot : slots_) {
      if (!slot.active.load(std::memory_order_acquire)) continue;
      for (const auto& hazard : slot.hp) {
        Node* n = hazard.load(std::memory_order_acquire);
        if (n != nullptr) protected_nodes.insert(n);
      }
    }
    std::vector<Node*> keep;
    keep.reserve(retired.size());
    std::size_t freed = 0;
    for (Node* n : retired) {
      if (protected_nodes.count(n) != 0) {
        keep.push_back(n);
      } else {
        pool_.destroy(n);
        ++freed;
      }
    }
    retired = std::move(keep);
    Footprint::add(fp.freed, freed);
    Footprint::sub(fp.limbo, freed);
  }

  /// Move a departing handle's limbo count, then its retire bag, to
  /// the domain's orphan stack.
  void orphan_retired(Handle& h) {
    h.fp().hand_off_limbo(shared_, h.retired_.size());
    for (Node* n : h.retired_) core::push_intrusive(orphans_, n);
    h.retired_.clear();
  }

  /// One abandoned handle: the slot it still occupies (cells possibly
  /// still published) and its parked retire bag.
  struct CrashedLease {
    int slot;
    std::vector<Node*> retired;
  };

  /// Park an abandoned handle's retire bag and record the lease. The
  /// bag stays counted in limbo (retired, not freed), moved from the
  /// handle's slot to the domain; the slot stays active so its cells
  /// keep quarantining until reap_crashed().
  void park_crashed(Handle& h) {
    CrashedLease lease;
    lease.slot = h.slot_;
    lease.retired = std::move(h.retired_);
    h.retired_.clear();
    h.fp().hand_off_limbo(shared_, lease.retired.size());
    std::lock_guard<std::mutex> lock(crashed_mu_);
    parked_limbo_.fetch_add(lease.retired.size(),
                            std::memory_order_relaxed);
    crashed_.push_back(std::move(lease));
  }

  /// Attribute a kRetireSkipped leak: the node stays allocated (it is
  /// outside limbo and the orphan stack) and is freed at teardown.
  void leak_node(Node* n) {
    std::lock_guard<std::mutex> lock(leaked_mu_);
    leaked_.push_back(n);
    leaked_count_.store(leaked_.size(), std::memory_order_relaxed);
  }

  /// Slab-leak attribution: how many distinct slabs are pinned live by
  /// kRetireSkipped leaks. Zero in heap mode (no slabs to pin).
  std::size_t leaked_slab_count() const {
    if (pool_.mode() != alloc::Mode::kSlab) return 0;
    std::lock_guard<std::mutex> lock(leaked_mu_);
    std::vector<const void*> slabs;
    for (Node* n : leaked_) {
      const void* s = pool_.slab_of(n);
      if (std::find(slabs.begin(), slabs.end(), s) == slabs.end())
        slabs.push_back(s);
    }
    return slabs.size();
  }

  alloc::SlabPool<Node> pool_;  // first: every member above drains into it
  Slot slots_[kMaxHandles];
  std::atomic<Node*> orphans_{nullptr};
  Footprint shared_;  // off-slot: sentinels, orphans, crashed leases
  mutable std::mutex crashed_mu_;
  std::vector<CrashedLease> crashed_;  // guarded by crashed_mu_
  std::atomic<std::size_t> parked_limbo_{0};
  mutable std::mutex leaked_mu_;
  std::vector<Node*> leaked_;  // guarded by leaked_mu_
  std::atomic<std::size_t> leaked_count_{0};
};

}  // namespace pragmalist::reclaim
