// Pluggable safe memory reclamation for the list variants.
//
// Every policy is a class template over the node type and exposes the
// same duck-typed surface, so the list engines can be parameterized on
// a `template <typename> class ReclaimPolicy` and select code paths
// with `if constexpr` on the policy's capability constants:
//
//   static constexpr bool kStableAddresses;
//       Nodes are never freed (or reused) while the list is alive, so
//       raw node pointers stay dereferenceable across operations. Only
//       the arena guarantees this; it is what lets the list engine
//       follow its back-pointer hints (Back::kImprecise/kPrecise)
//       without any per-access protection.
//   static constexpr bool kHazards;
//       Traversals must publish a hazard pointer on every node before
//       dereferencing it and revalidate reachability afterwards (see
//       core::locate in list_base.hpp for the anchored validation).
//       Implies per-access cost but per-thread bounded garbage.
//   static constexpr bool kReclaims;
//       retire() eventually frees nodes mid-run. When true the list
//       must retire every node it physically detaches and must free the
//       still-linked chain itself on destruction; when false the policy
//       owns every tracked node and frees the lot when it dies.
//
//   Handle make_handle();        // per-thread, move-only, released on
//                                // destruction; must not outlive the
//                                // policy object. Slots are re-leased:
//                                // a departed handle's slot (and its
//                                // hazard cells) may be handed to a
//                                // later arrival, see hp.hpp
//   void track(Node* n);         // a published node no handle
//                                // allocated (sentinels)
//   std::size_t live_nodes();    // tracked minus freed: the node
//                                // footprint the churn tests bound
//   std::size_t limbo_nodes();   // reclaiming policies only: retired
//                                // but not yet freed -- the limbo
//                                // depth the soak harness samples
//
// Per-thread Handle surface:
//   auto guard();                // RAII critical section around one
//                                // operation (epoch pin for EBR, no-op
//                                // otherwise)
//   void track(Node* n);         // called once per *published* node;
//                                // EBR/HP count it in the handle's own
//                                // slot (footprint.hpp)
//   void retire(Node* n);        // n is detached and will never be
//                                // reached again except through stale
//                                // protected pointers; free it once no
//                                // reader can hold it
//   void collect();              // reclaiming policies only: force a
//                                // free pass now (departing service
//                                // workers, tests)
//   void protect(int slot, Node* n);  // hazard policies only
//   void clear(int slot);             //
//
// Cursor validity -- the one capability behind per-handle cursors,
// which every policy supports (a node pointer a handle keeps *between*
// operations, where no guard covers it):
//   std::uint64_t cursor_stamp();       // called inside the guard of
//                                       // the op that sets the cursor
//   bool cursor_valid(std::uint64_t s); // called inside the guard of a
//                                       // later op, before any load
//                                       // through the cursor
// The engine stores the stamp beside the cursor and follows the cursor
// only while cursor_valid(stamp) holds:
//   Arena  always -- stable addresses (constant stamp).
//   Hp     always -- the persistent kCursor hazard cell pins the node;
//          the engines separately check the cell's owner tag.
//   Ebr    only in the epoch it was stamped in: the stamp is the
//          guard's pinned epoch (proof in ebr.hpp).
//
// Fault-injection surface (src/faults/faults.hpp): every Handle has
//   void abandon(faults::FaultKind);  // the owner crashed: skip the
//                                     // departure protocol, possibly
//                                     // with a guard/cell still held;
//                                     // the handle is dead afterwards
// and the reclaiming policies add Handle::leak(Node*) (a
// retire-skipped node the domain attributes) plus domain-level
// reap_crashed() / blast_stats() for supervisor recovery and the
// blast-radius metrics. Arena's abandon is a no-op -- it is
// fault-oblivious by construction.
//
// Each policy header states its progress guarantee, worst-case memory
// bound, and the traversal capabilities it demands of the engine.
//
// The retire contract every caller upholds: a node is retired by
// exactly one thread -- the one whose CAS physically detached it --
// and only after that CAS succeeded. Arena's retire is a no-op;
// nothing in the shared code assumes retire implies free.
//
// A policy instance is a *domain*, not a per-list resource: the list
// engines hold their domain through a shared_ptr, so any number of
// same-node-type lists (the shards of shard::ShardedSet) can run
// against one epoch clock / hazard-slot table / registry, and a
// worker thread leases ONE handle from the domain and lends it to
// every shard's engine handle (Engine::make_handle(ReclaimHandle&)).
// That keeps per-process reclamation state O(threads), never
// O(threads x shards).
#pragma once

#include "src/reclaim/arena.hpp"        // IWYU pragma: export
#include "src/reclaim/ebr.hpp"          // IWYU pragma: export
#include "src/reclaim/hp.hpp"           // IWYU pragma: export
#include "src/reclaim/maybe_owned.hpp"  // IWYU pragma: export
