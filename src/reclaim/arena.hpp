// The paper's reclamation scheme as a policy: every published node is
// threaded onto a lock-free registry and freed only when the list dies.
// Nothing is freed (or reused) mid-run, so traversals may hold stale
// pointers, CAS never sees ABA, and cursors / back-pointer hints are
// safe with no per-access protection. The EBR and HP policies exist to
// price real mid-run reclamation against this choice.
//
//   Progress guarantee: wait-free -- track() is one lock-free push,
//     retire() and guard() are no-ops; reclamation cannot interfere
//     with operations because there is none until teardown.
//   Memory bound: none by design. The footprint is one node per
//     successful insert for the whole lifetime of the list (the churn
//     tier's ArenaContrast test measures exactly this), which is why
//     the arena is a benchmark-harness scheme and not a service-mode
//     one.
//   Engine requirements: none -- any traversal is safe as-is. This is
//     the only policy with kStableAddresses, the capability gate for
//     following the list engine's back-pointer hints. Per-handle
//     cursors need no gate: the cursor-validity capability
//     (reclaim.hpp) is constant here, every remembered cursor stays
//     dereferenceable.
//
// Like the reclaiming policies, one Arena instance is a *domain*: a
// sharded set backs every shard with the same registry, so
// allocated_nodes() aggregates across shards for free and handles
// (stateless here) are leased per thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/alloc/slab.hpp"
#include "src/core/list_base.hpp"
#include "src/faults/faults.hpp"

namespace pragmalist::reclaim {

template <typename Node>
class Arena {
 public:
  static constexpr bool kStableAddresses = true;
  static constexpr bool kHazards = false;
  static constexpr bool kReclaims = false;

  class Handle {
   public:
    struct Guard {};
    Guard guard() { return {}; }
    void retire(Node*) {}  // the registry frees everything at teardown

    /// Cursor validity (reclaim.hpp): addresses are stable, so every
    /// cursor stays valid and the stamp carries nothing.
    static constexpr std::uint64_t cursor_stamp() { return 0; }
    static constexpr bool cursor_valid(std::uint64_t) { return true; }

    /// Node allocation, through the per-thread slot cache (a plain
    /// `new` when the domain runs in heap mode).
    template <typename... Args>
    Node* construct(Args&&... args) {
      return cache_.construct(std::forward<Args>(args)...);
    }

    /// Free a never-published node (a lost insert race). Published
    /// nodes are the registry's to free at teardown.
    void dispose(Node* n) { cache_.destroy(n); }

    /// Fault injection is a no-op: there is no guard to leak, no
    /// departure protocol to skip, and retires already do nothing.
    /// The arena is fault-oblivious by construction -- crashed workers
    /// cost exactly what well-behaved ones do (the fault tier asserts
    /// its blast stats stay all-zero). The slot cache still drains on
    /// destruction: cached slots are clean memory, not protected state.
    void abandon(faults::FaultKind) {}

   private:
    friend class Arena;
    explicit Handle(alloc::SlabPool<Node>* pool) : cache_(pool) {}
    alloc::ThreadCache<Node> cache_;
  };

  explicit Arena(alloc::Mode mode = alloc::Mode::kHeap) : pool_(mode) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Free every tracked node through the pool *before* the members
  /// destruct (the registry's own destructor would `delete` them).
  ~Arena() {
    registry_.free_all([this](Node* n) { pool_.destroy(n); });
  }

  Handle make_handle() { return Handle(&pool_); }

  void track(Node* n) { registry_.track(n); }

  std::size_t live_nodes() const { return registry_.count(); }

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
  alloc::SlabPool<Node> pool_;  // first: nodes drain into it above
  core::AllocRegistry<Node> registry_;
};

}  // namespace pragmalist::reclaim
