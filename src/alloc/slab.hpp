// Per-domain slab allocation for list nodes. Every reclaim domain owns
// one SlabPool: engines allocate nodes from cache-line-aligned slabs
// through per-thread ThreadCaches (the fast path is an array pop with
// no lock, no CAS), retire still flows through the policy's existing
// retire/collect surface, and a *free* returns the slot to the owning
// slab's lock-free free list -- whole slabs are released back to the
// OS only when empty and quiescent.
//
// Why a pool per *domain* and not per list: the domain is the unit
// that outlives every node it ever freed (handles lease from it,
// shards share it), so "the slab may be unmapped" and "no reader can
// hold a node" are decided by the same object. The policy's horizon
// (epoch distance, hazard scan) keeps protecting recycled *slots*
// exactly as it protected heap nodes; the pool only changes where the
// bytes come from.
//
// Concurrency design, deliberately minimal:
//   * per-slab free list: push-only Treiber stack. Frees (any thread)
//     push; only refills consume, and they drain the whole list with
//     one exchange(nullptr) -- there is no lock-free *pop*, so there
//     is no ABA window to reason about.
//   * virgin slots: per-slab bump counter, advanced only under the
//     pool mutex (refills are amortized over kRefill slots, so the
//     mutex is off the per-op path by construction).
//   * slab release: a slab with used == 0 has no outstanding slot
//     anywhere (thread caches count as outstanding), so with refills
//     excluded by the mutex nothing can touch it concurrently.
//
// Mode::kHeap keeps the exact pre-slab behavior (plain new/delete):
// the policies default to it so raw-domain unit tests stay correct,
// and the
// catalog's `/heap` twin ids price the slab win instead of asserting
// it. Only paths where *every* node flows through the pool may turn
// kSlab on (the engines advertise this with kPoolAllocates).
//
// Under ASan, free slots are poisoned while they sit in a free list or
// a thread cache and unpoisoned on acquire -- the allocator-lifetime
// tripwire: a reader that dereferences a recycled slot the reclaim
// horizon should still be protecting faults immediately instead of
// silently reading the next owner's bytes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "src/common/debug.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PRAGMALIST_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define PRAGMALIST_ASAN 1
#endif

#if defined(PRAGMALIST_ASAN)
#include <sanitizer/asan_interface.h>
#define PRAGMALIST_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define PRAGMALIST_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define PRAGMALIST_POISON(p, n) ((void)(p), (void)(n))
#define PRAGMALIST_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace pragmalist::alloc {

/// Where a domain's nodes come from. kHeap is plain new/delete (the
/// pre-slab behavior and the `/heap` bench twins); kSlab is the pool.
enum class Mode { kHeap, kSlab };

/// Pool-level counters, all monotonic except slabs_live/slots_in_use.
struct SlabStats {
  std::size_t slabs_created = 0;
  std::size_t slabs_released = 0;
  std::size_t slabs_live = 0;
  std::size_t slots_per_slab = 0;
  std::size_t slot_acquires = 0;
  std::size_t slot_releases = 0;
  std::size_t refills = 0;
};

template <typename Node>
class SlabPool {
 public:
  /// Power-of-two slab size: ptr -> owning slab is one mask, no map.
  static constexpr std::size_t kSlabBytes = 16 * 1024;

  explicit SlabPool(Mode mode = Mode::kHeap) : mode_(mode) {}
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() {
    for (Slab* s : slabs_) operator delete(s, std::align_val_t(kSlabBytes));
  }

  Mode mode() const { return mode_; }

  /// Construct a node. Heap mode is a plain `new`; slab mode acquires
  /// a slot (one refill's worth at a time under the pool mutex) and
  /// placement-constructs. Prefer the ThreadCache fast path -- this is
  /// the shared slow path it refills from.
  template <typename... Args>
  Node* construct(Args&&... args) {
    if (mode_ == Mode::kHeap) return new Node(std::forward<Args>(args)...);
    void* slot = nullptr;
    const std::size_t got = refill(&slot, 1);
    PRAGMALIST_CHECK(got == 1, "slab pool failed to produce a slot");
    return ::new (slot) Node(std::forward<Args>(args)...);
  }

  /// Destroy a node and return its memory. Null-safe.
  void destroy(Node* n) {
    if (n == nullptr) return;
    if (mode_ == Mode::kHeap) {
      delete n;
      return;
    }
    n->~Node();
    release(n);
  }

  /// Fill `out[0..want)` with ready-to-construct slots; returns the
  /// count delivered (always `want` -- a fresh slab covers any
  /// shortfall). Slab mode only.
  std::size_t refill(void** out, std::size_t want) {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t got = 0;
    for (Slab* s : slabs_) {
      got += harvest(s, out + got, want - got);
      if (got == want) break;
    }
    while (got < want) {
      Slab* s = new_slab();
      got += harvest(s, out + got, want - got);
    }
    refills_.fetch_add(1, std::memory_order_relaxed);
    acquires_.fetch_add(got, std::memory_order_relaxed);
    return got;
  }

  /// Return one slot to its *owning* slab's free list (lock-free; any
  /// thread). Slab mode only.
  void release(void* slot) {
    Slab* s = owning_slab(slot);
    push_free(s, slot);
    s->used.fetch_sub(1, std::memory_order_release);
    releases_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The owning slab's base address (slab mode, pool-allocated `p`
  /// only -- this is an address mask, not a lookup).
  const void* slab_of(const void* p) const {
    return reinterpret_cast<const void*>(
        reinterpret_cast<std::uintptr_t>(p) &
        ~static_cast<std::uintptr_t>(kSlabBytes - 1));
  }

  /// Release every slab with no outstanding slot back to the OS.
  /// Quiescent-only: callers guarantee no concurrent construct/refill
  /// on this pool (thread caches hold their slots as outstanding, so a
  /// merely *cached* slab never qualifies). Returns slabs released.
  std::size_t release_empty_slabs() {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t released = 0;
    std::vector<Slab*> keep;
    keep.reserve(slabs_.size());
    for (Slab* s : slabs_) {
      if (s->used.load(std::memory_order_acquire) == 0) {
        operator delete(s, std::align_val_t(kSlabBytes));
        ++released;
      } else {
        keep.push_back(s);
      }
    }
    slabs_.swap(keep);
    released_.fetch_add(released, std::memory_order_relaxed);
    return released;
  }

  std::size_t slab_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return slabs_.size();
  }

  /// Slots currently handed out (constructed nodes + thread-cached).
  std::size_t slots_in_use() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t used = 0;
    for (const Slab* s : slabs_)
      used += s->used.load(std::memory_order_acquire);
    return used;
  }

  SlabStats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    SlabStats st;
    st.slabs_created = created_;
    st.slabs_released = released_.load(std::memory_order_relaxed);
    st.slabs_live = slabs_.size();
    st.slots_per_slab = kCapacity;
    st.slot_acquires = acquires_.load(std::memory_order_relaxed);
    st.slot_releases = releases_.load(std::memory_order_relaxed);
    st.refills = refills_.load(std::memory_order_relaxed);
    return st;
  }

 private:
  /// Slab header, resident at the slab's base; slots follow after a
  /// cache-line gap (the header's free list / counters must not share
  /// a line with slot 0's hot node fields).
  struct Slab {
    std::atomic<void*> free_list{nullptr};  // push-only Treiber stack
    std::atomic<std::uint32_t> bump{0};     // virgin slots handed out
    std::atomic<std::uint32_t> used{0};     // outstanding slots
  };

  // Slots pack at node granularity, not cache-line granularity: list
  // ops are traversal-bound, and halving the stride halves the cache
  // lines a walk touches. Denser than malloc, too -- no per-chunk
  // header. Adjacent nodes sharing a line is the same trade malloc
  // makes. The free-list link must fit in a slot, hence the pointer
  // floor.
  static constexpr std::size_t kSlotAlign = alignof(Node);
  static constexpr std::size_t kSlotMin =
      sizeof(Node) > sizeof(void*) ? sizeof(Node) : sizeof(void*);
  static constexpr std::size_t kStride =
      (kSlotMin + kSlotAlign - 1) / kSlotAlign * kSlotAlign;
  static constexpr std::size_t kHeaderAlign =
      alignof(Node) > 64 ? alignof(Node) : 64;
  static constexpr std::size_t kSlotsOffset =
      (sizeof(Slab) + kHeaderAlign - 1) / kHeaderAlign * kHeaderAlign;
  static constexpr std::size_t kCapacity =
      (kSlabBytes - kSlotsOffset) / kStride;
  static_assert((kSlabBytes & (kSlabBytes - 1)) == 0,
                "slab size must be a power of two for the address mask");
  static_assert(kCapacity >= 8, "node too large for the slab geometry");
  static_assert(kStride >= sizeof(void*),
                "free-list link must fit in a slot");

  Slab* owning_slab(void* p) {
    return reinterpret_cast<Slab*>(const_cast<void*>(slab_of(p)));
  }

  static void* slot_at(Slab* s, std::size_t i) {
    return reinterpret_cast<char*>(s) + kSlotsOffset + i * kStride;
  }

  static void push_free(Slab* s, void* slot) {
    // The link lives in the slot itself; everything past it stays
    // poisoned until the slot is handed out again. Poison *before*
    // publishing: once the CAS lands a concurrent refill may grab and
    // unpoison the slot immediately.
    PRAGMALIST_UNPOISON(slot, sizeof(void*));
    PRAGMALIST_POISON(static_cast<char*>(slot) + sizeof(void*),
                      kStride - sizeof(void*));
    void* head = s->free_list.load(std::memory_order_relaxed);
    do {
      *reinterpret_cast<void**>(slot) = head;
    } while (!s->free_list.compare_exchange_weak(
        head, slot, std::memory_order_release, std::memory_order_relaxed));
  }

  /// Under mu_: take up to `room` slots from `s` (freed first, then
  /// virgin), pushing any over-grabbed freed slots straight back.
  std::size_t harvest(Slab* s, void** out, std::size_t room) {
    std::size_t n = 0;
    void* head = s->free_list.exchange(nullptr, std::memory_order_acquire);
    while (head != nullptr && n < room) {
      void* next = *reinterpret_cast<void**>(head);
      PRAGMALIST_UNPOISON(head, kStride);
      out[n++] = head;
      head = next;
    }
    while (head != nullptr) {
      void* next = *reinterpret_cast<void**>(head);
      push_free(s, head);
      head = next;
    }
    while (n < room) {
      const std::uint32_t b = s->bump.load(std::memory_order_relaxed);
      if (b >= kCapacity) break;
      s->bump.store(b + 1, std::memory_order_relaxed);
      out[n++] = slot_at(s, b);
    }
    s->used.fetch_add(static_cast<std::uint32_t>(n),
                      std::memory_order_relaxed);
    return n;
  }

  /// Under mu_.
  Slab* new_slab() {
    void* mem = operator new(kSlabBytes, std::align_val_t(kSlabBytes));
    Slab* s = ::new (mem) Slab();
    slabs_.push_back(s);
    ++created_;
    return s;
  }

  const Mode mode_;
  mutable std::mutex mu_;
  std::vector<Slab*> slabs_;
  std::size_t created_ = 0;
  std::atomic<std::size_t> released_{0};
  std::atomic<std::size_t> acquires_{0};
  std::atomic<std::size_t> releases_{0};
  std::atomic<std::size_t> refills_{0};
};

/// Per-thread slot cache, owned by a policy Handle: construct() pops a
/// cached slot (refilling kRefill at a time from the pool), destroy()
/// caches the slot for reuse, and the destructor drains everything
/// back to the owning slabs -- a departed worker leaves nothing
/// stranded, which is what lets empty slabs actually be released.
/// Pass-through (plain new/delete) when the pool runs in heap mode.
template <typename Node>
class ThreadCache {
 public:
  static constexpr std::size_t kCacheCap = 64;
  static constexpr std::size_t kRefill = 32;

  ThreadCache() = default;  // detached (moved-from) cache
  explicit ThreadCache(SlabPool<Node>* pool) : pool_(pool) {}
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  ThreadCache(ThreadCache&& o) noexcept : pool_(o.pool_), n_(o.n_) {
    for (std::size_t i = 0; i < n_; ++i) slots_[i] = o.slots_[i];
    o.pool_ = nullptr;
    o.n_ = 0;
  }
  ThreadCache& operator=(ThreadCache&& o) noexcept {
    if (this != &o) {
      drain();
      pool_ = o.pool_;
      n_ = o.n_;
      for (std::size_t i = 0; i < n_; ++i) slots_[i] = o.slots_[i];
      o.pool_ = nullptr;
      o.n_ = 0;
    }
    return *this;
  }

  ~ThreadCache() { drain(); }

  template <typename... Args>
  Node* construct(Args&&... args) {
    if (pool_ == nullptr || pool_->mode() == Mode::kHeap)
      return pool_ != nullptr ? pool_->construct(std::forward<Args>(args)...)
                              : new Node(std::forward<Args>(args)...);
    if (n_ == 0) n_ = pool_->refill(slots_, kRefill);
    void* slot = slots_[--n_];
    PRAGMALIST_UNPOISON(slot, sizeof(Node));
    return ::new (slot) Node(std::forward<Args>(args)...);
  }

  void destroy(Node* n) {
    if (n == nullptr) return;
    if (pool_ == nullptr || pool_->mode() == Mode::kHeap) {
      if (pool_ != nullptr)
        pool_->destroy(n);
      else
        delete n;
      return;
    }
    n->~Node();
    if (n_ < kCacheCap) {
      slots_[n_++] = n;
      PRAGMALIST_POISON(n, sizeof(Node));
    } else {
      pool_->release(n);
    }
  }

  /// Return every cached slot to its owning slab (idempotent).
  void drain() {
    if (pool_ == nullptr || pool_->mode() == Mode::kHeap) {
      n_ = 0;
      return;
    }
    while (n_ > 0) {
      void* slot = slots_[--n_];
      PRAGMALIST_UNPOISON(slot, sizeof(Node));
      pool_->release(slot);
    }
  }

  std::size_t cached() const { return n_; }

 private:
  SlabPool<Node>* pool_ = nullptr;
  std::size_t n_ = 0;
  void* slots_[kCacheCap];
};

}  // namespace pragmalist::alloc
