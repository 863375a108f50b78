// Type-erased concurrent ordered-set interface the harness drives. Each
// concrete structure exposes a thread-local Handle (per-thread cursor,
// hazard slots, reclamation bags, op counters); the harness creates one
// handle per worker thread through ISet::make_handle().
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/faults/faults.hpp"

namespace pragmalist::core {

/// Per-handle operation ledger. `adds`/`rems`/`cons` count *successful*
/// operations (add inserted, remove deleted, contains hit); the
/// *_calls fields count attempts. The random-mix conservation check
/// (prefill + adds - rems == population) depends on the success counts.
/// `scan_calls` counts range_scan()/ascend() invocations (one per call,
/// like the other *_calls) and `scans` the keys those calls emitted.
///
/// `hint_hits`, `cursor_hits`, `restarts` and `walk_steps` are progress
/// diagnostics, not operations, and are deliberately excluded from
/// total_ops():
/// hint_hits and cursor_hits count traversal starts taken from the
/// hint index and from the handle's own cursor (the two candidates
/// core::start::tighter composes; a start both proposed counts for
/// both), restarts counts lost anchors -- a traversal pass abandoned
/// and resumed (lost insert CASes, lost draconic helping CASes -- mild
/// ops never sweep outside their own update CAS -- lost unrolled
/// run-swing CASes, and HP anchor revalidation failures), and
/// walk_steps counts the nodes core::locate examined, every pass of
/// every point-op walk (scans are not walks). The
/// starvation tier asserts restarts stays proportional to ops --
/// bounded retries -- and bench_grid prints hints and restarts per
/// cell.
struct OpCounters {
  long adds = 0;
  long rems = 0;
  long cons = 0;
  long scans = 0;
  long add_calls = 0;
  long rem_calls = 0;
  long con_calls = 0;
  long scan_calls = 0;
  long hint_hits = 0;
  long cursor_hits = 0;
  long restarts = 0;
  long walk_steps = 0;

  long total_ops() const {
    return add_calls + rem_calls + con_calls + scan_calls;
  }

  OpCounters& operator+=(const OpCounters& o) {
    adds += o.adds;
    rems += o.rems;
    cons += o.cons;
    scans += o.scans;
    add_calls += o.add_calls;
    rem_calls += o.rem_calls;
    con_calls += o.con_calls;
    scan_calls += o.scan_calls;
    hint_hits += o.hint_hits;
    cursor_hits += o.cursor_hits;
    restarts += o.restarts;
    walk_steps += o.walk_steps;
    return *this;
  }
};

/// The shape of a set's hint index (src/core/hint_index.hpp): slots in
/// its current table(s), summed over shards, the largest shard's, and
/// re-indexes so far, summed. All zero for a structure without one.
struct HintStats {
  long slots = 0;
  long slots_max = 0;
  long reindexes = 0;
};

// --- Progress-guarantee matrix (engine x reclaimer x op) -------------
//
// What each read/write path guarantees, by construction. "CAS-free"
// means the op never issues a compare-and-swap (it can still be made
// to wait by cache traffic); "restart-free" means one forward pass,
// never abandoned; "bounded-restart" means a lost pass resumes from
// the last validated anchor (kept protected across the restart), so
// the validated key-space prefix is never re-walked; "wait-free
// lookup" refers to the hint index's candidate selection (one downward
// pass over the 1024 key-range buckets' occupancy bitmap, <= 18 slot
// probes and validations), independent of writers.
//
//                     arena / EBR              HP
//   contains (mild,
//     singly/doubly)  CAS-free, restart-free   CAS-free, bounded-restart
//   contains
//     (draconic)      helps unlink: CAS +      same; a lost anchor also
//                     restart from the head    restarts from the head
//   contains
//     (unrolled)      CAS-free; miss confirm   CAS-free walks; same
//                     may re-route (version    version re-route loop
//                     check), unbounded only
//                     under continuous resize
//   range_scan/ascend CAS-free, restart-free   CAS-free, bounded-restart
//     (singly/doubly) (one pass)               (resume past last emitted)
//   add (mild,        decided (present): no CAS;  same bodies; the walk is
//     singly/doubly)  else one CAS that links    bounded-restart (a lost
//                     and sweeps; a lost CAS     anchor resumes from the
//                     resumes from prev          last live one)
//   remove (mild,     decided (absent): no CAS;  same bodies, bounded-
//     singly/doubly)  else mark + one unlink     restart walk
//                     CAS that also sweeps;
//                     restart-free (only a
//                     CAS-mark can retry)
//   add/remove        lock-free (CAS retry, help-unlink restarts from
//     (draconic,      head); hint/cursor starts shorten the reattempt
//     unrolled)       walk
//
// The arena/EBR mild `contains` column is the paper's claim made
// enforceable: core::locate (every one-key row, back pointers or
// not) issues no CAS and never loops back -- the engines export
// kContainsCasFree / kContainsRestartFree / kRemoveRestartFree and
// variants.hpp static_asserts the whole grid, so a regression that
// adds a CAS or a restart to those paths fails to compile, not to
// benchmark. Hint-index lookups keep every guarantee above: a stale
// hint costs one failed validation and decays (next candidate, then
// head) -- never a retry loop.

/// Receives the keys a range scan emits, in ascending order.
using KeySink = std::function<void(long)>;

/// The counted public scan forms, implemented once over any concrete
/// handle exposing the uncounted `scan_raw(from, hi, limit, sink)`
/// primitive. Every engine/baseline/sharded handle delegates here, so
/// the scans/scan_calls ledger rules live in exactly one place.
template <typename Handle>
long counted_range_scan(Handle& h, OpCounters& ctr, long lo, long hi,
                        const KeySink& sink) {
  ++ctr.scan_calls;
  const long n = h.scan_raw(lo, hi, /*limit=*/-1, sink);
  ctr.scans += n;
  return n;
}

template <typename Handle>
std::vector<long> counted_ascend(Handle& h, OpCounters& ctr, long from,
                                 std::size_t limit) {
  ++ctr.scan_calls;
  std::vector<long> out;
  out.reserve(limit);
  h.scan_raw(from, std::numeric_limits<long>::max(),
             static_cast<long>(limit), [&](long k) { out.push_back(k); });
  ctr.scans += static_cast<long>(out.size());
  return out;
}

/// The counted public op surface of every structure's handle, written
/// once (CRTP). The derived handle supplies the uncounted primitives
/// `add_raw`/`remove_raw`/`contains_raw`/`scan_raw`; this base applies
/// the ledger rules of OpCounters around them: one *_calls per
/// attempt, one success count per true result.
template <typename Derived>
class CountingHandle {
 public:
  bool add(long key) {
    ++ctr_.add_calls;
    const bool ok = self().add_raw(key);
    ctr_.adds += ok;
    return ok;
  }
  bool remove(long key) {
    ++ctr_.rem_calls;
    const bool ok = self().remove_raw(key);
    ctr_.rems += ok;
    return ok;
  }
  bool contains(long key) {
    ++ctr_.con_calls;
    const bool ok = self().contains_raw(key);
    ctr_.cons += ok;
    return ok;
  }
  long range_scan(long lo, long hi, const KeySink& sink) {
    return counted_range_scan(self(), ctr_, lo, hi, sink);
  }
  std::vector<long> ascend(long from, std::size_t limit) {
    return counted_ascend(self(), ctr_, from, limit);
  }
  const OpCounters& counters() const { return ctr_; }

 protected:
  OpCounters ctr_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

/// A thread's view of a set. Not thread-safe: exactly one thread uses a
/// given handle. Handles must not outlive their set.
///
/// Scan contract (range_scan/ascend): keys are emitted in strictly
/// ascending order while other workers mutate the set; every emitted
/// key was present, and every in-range omitted key absent, at some
/// instant during the call (per-key atomicity -- each key of the range
/// linearizes as its own atomic membership read inside the scan's
/// window; the scan linearizability tier checks exactly this). A scan
/// is *not* an atomic snapshot of the whole range: keys mutated while
/// the scan is in flight may or may not appear. Quiescently (no
/// concurrent writers) a full-range scan equals ISet::snapshot().
class ISetHandle {
 public:
  virtual ~ISetHandle() = default;
  virtual bool add(long key) = 0;
  virtual bool remove(long key) = 0;
  virtual bool contains(long key) = 0;

  /// Emit every live key in [lo, hi] (inclusive) into `sink`, ascending.
  /// Returns the number of keys emitted (0 when lo > hi).
  virtual long range_scan(long lo, long hi, const KeySink& sink) = 0;

  /// Paging form: up to `limit` live keys >= `from`, ascending. An
  /// ascending pager resumes with from = last returned key + 1; a
  /// result shorter than `limit` means the key space is exhausted.
  virtual std::vector<long> ascend(long from, std::size_t limit) = 0;

  virtual OpCounters counters() const = 0;

  /// Fault injection: simulate this handle's worker crashing with the
  /// given fault (src/faults/faults.hpp). The op-level kinds
  /// (kMidOpAbandon, kRetireSkipped) perform a deliberately botched
  /// remove of `key` first; the lease-level kinds crash the reclaim
  /// handle itself. After this call the handle must only be destroyed
  /// (its destructor performs a *clean* departure of whatever the
  /// fault left alive, which for the lease-level kinds is nothing).
  /// Default: no-op -- baselines without an abandon path are
  /// fault-oblivious and just depart cleanly.
  virtual void abandon(faults::FaultKind, long /*key*/) {}
};

/// The shared structure. make_handle() may be called concurrently from
/// worker threads; validate()/size()/snapshot() are quiescent-only
/// (call after all workers joined).
class ISet {
 public:
  virtual ~ISet() = default;

  virtual std::unique_ptr<ISetHandle> make_handle() = 0;

  /// Structural self-check. Returns false and fills *err (if non-null)
  /// on a broken invariant (unsorted chain, duplicate live key, ...).
  virtual bool validate(std::string* err) const = 0;

  /// Number of live (logically present) keys.
  virtual std::size_t size() const = 0;

  /// Live keys in ascending order.
  virtual std::vector<long> snapshot() const = 0;

  /// Nodes currently allocated and not yet freed (0 when the structure
  /// does not track it). Under the arena this grows with every
  /// successful insert; under a reclaiming policy (src/reclaim/) the
  /// churn tests assert it stays bounded.
  virtual std::size_t allocated_nodes() const { return 0; }

  /// Nodes retired but not yet freed -- the reclaimer's limbo depth (0
  /// when the structure does not reclaim). Safe to sample while
  /// workers run; the soak harness records it as a time series and the
  /// soak tests assert it stays bounded.
  virtual std::size_t limbo_nodes() const { return 0; }

  /// Hash shards behind this set (1 for every unsharded structure).
  virtual int shard_count() const { return 1; }

  /// Operations routed to each shard (attempts, all op kinds) --
  /// quiescent-only, like validate(). Empty when unsharded; the
  /// shard-load reports in bench_grid/bench_soak use it to show how
  /// a skewed key stream loads the partition.
  virtual std::vector<long> shard_ops() const { return {}; }

  /// Live keys per shard (quiescent-only; empty when unsharded).
  virtual std::vector<std::size_t> shard_sizes() const { return {}; }

  /// The hint index's slots and re-indexes (HintStats). Safe to call
  /// while workers run: INFO reports it live.
  virtual HintStats hint_stats() const { return {}; }

  /// Supervisor recovery after worker crashes: release every lease
  /// abandoned via ISetHandle::abandon -- unpin stalled epochs, clear
  /// leaked hazard cells, hand parked limbo to the survivors. Returns
  /// the number of leases reaped (0 when the structure has no crashed
  /// leases, or no reclaim layer at all). Safe to call while workers
  /// run; the soak driver calls it a configurable delay after each
  /// injected fault.
  virtual std::size_t reap_crashed() { return 0; }

  /// Blast-radius counters for the faults injected so far (all zero
  /// for structures without a reclaim layer). Safe to sample while
  /// workers run; the soak driver records one per tick.
  virtual faults::BlastStats blast_stats() const { return {}; }

  virtual std::string_view name() const = 0;
};

}  // namespace pragmalist::core
