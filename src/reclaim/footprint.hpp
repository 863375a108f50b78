// Node-footprint ledger of the reclaiming policies (Ebr, Hp): nodes
// tracked, nodes freed, and nodes retired but not yet freed (limbo).
//
// Each handle counts into the Footprint inside its own cache-line
// slot -- the line it already writes on every operation (the EBR pin
// word, the HP hazard cells) -- with single-writer relaxed load+store
// bumps: no locked RMW, and no line shared with every other thread's
// inserts and retires. Only the handle that leases the slot writes it;
// a re-leased slot carries its counts over to the next leaseholder,
// ordered by the release/acquire handoff of the slot's `active` flag.
// Paths that run off any one live handle (sentinels, the orphan pool,
// crashed leases) count into one domain-level Footprint with ordinary
// RMWs.
//
// live_nodes()/limbo_nodes() sum the domain Footprint and every slot's.
// At quiescence the sums are exact; read mid-run (the soak and limbo
// samplers) they are a sample of relaxed counters, which may lag
// individual bumps but never reads a torn value.
#pragma once

#include <atomic>
#include <cstddef>

namespace pragmalist::reclaim {

struct Footprint {
  std::atomic<std::size_t> allocated{0};
  std::atomic<std::size_t> freed{0};
  std::atomic<std::size_t> limbo{0};

  /// Single-writer update of a slot counter (see file comment).
  static void add(std::atomic<std::size_t>& c, std::size_t d) {
    c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  static void sub(std::atomic<std::size_t>& c, std::size_t d) {
    c.store(c.load(std::memory_order_relaxed) - d, std::memory_order_relaxed);
  }

  /// A departing or crashing leaseholder hands `n` limbo nodes from
  /// this slot's count to the domain's (orphan pool, crashed lease).
  /// Call it before handing the nodes themselves over: an adopter's
  /// decrement of the domain's count is then ordered after this add,
  /// so that count never wraps.
  void hand_off_limbo(Footprint& shared, std::size_t n) {
    shared.limbo.fetch_add(n, std::memory_order_relaxed);
    sub(limbo, n);
  }

  /// Tracked minus freed over `shared` and every slot's `fp`. A node is
  /// tracked after its insert CAS, so a racing remove can count its
  /// free first; a mid-run sample that sees more frees than tracks
  /// reads 0, never a wrapped count.
  template <typename Slots>
  static std::size_t live(const Footprint& shared, const Slots& slots) {
    std::size_t allocated = shared.allocated.load(std::memory_order_relaxed);
    std::size_t freed = shared.freed.load(std::memory_order_relaxed);
    for (const auto& slot : slots) {
      allocated += slot.fp.allocated.load(std::memory_order_relaxed);
      freed += slot.fp.freed.load(std::memory_order_relaxed);
    }
    return allocated > freed ? allocated - freed : 0;
  }

  /// Limbo over `shared` and every slot's `fp`.
  template <typename Slots>
  static std::size_t limbo_total(const Footprint& shared,
                                 const Slots& slots) {
    std::size_t limbo = shared.limbo.load(std::memory_order_relaxed);
    for (const auto& slot : slots)
      limbo += slot.fp.limbo.load(std::memory_order_relaxed);
    return limbo;
  }
};

}  // namespace pragmalist::reclaim
