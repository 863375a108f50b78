// Sustained-churn stress for the reclamation subsystem: insert/delete
// loops long enough to force retire-list scans and epoch advances,
// with quiescent checkpoints *between* churn phases -- validate() used
// to be exercised only after clean sequential runs, so mid-churn
// integrity (marked runs, parked leftovers, reused handle slots) went
// unchecked. The footprint assertions are the point of the tier: under
// EBR and HP the number of allocated-but-unfreed nodes must stay near
// the live set no matter how long the churn runs, while the arena
// grows with every successful insert. Run under ASan/TSan in CI (label
// `sanitizer`).
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/iset.hpp"
#include "src/core/unrolled_family.hpp"
#include "src/core/variants.hpp"
#include "src/faults/faults.hpp"
#include "src/harness/catalog.hpp"
#include "src/harness/thread_team.hpp"
#include "src/workload/rng.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

constexpr int kThreads = 4;
constexpr long kUniverse = 64;
constexpr long kOpsPerPhase = 6000;  // per thread
constexpr int kPhases = 4;

/// Footprint ceiling after `phases_done` churn phases: the live set,
/// plus per-handle in-flight retire bags (EBR may briefly hold a few
/// multiples of its threshold while epochs catch up), plus leftovers
/// parked by the handles destroyed so far — all independent of the
/// per-phase op count, which is what "bounded" means here.
std::size_t footprint_bound(int phases_done) {
  return static_cast<std::size_t>(kUniverse) +
         static_cast<std::size_t>(phases_done) * kThreads * 400 +
         kThreads * 300;
}

/// Quiescent drain: a fresh scratch handle runs a few read-only ops so
/// its guard releases keep advancing the epoch and adopting what the
/// departed workers orphaned. Under EBR's adaptive cadence a phase may
/// end with up to a threshold's worth of young bags per handle still
/// in the orphan pool (nothing is ever freeable sooner than two epochs
/// after retirement); a couple of advances make all of it eligible, so
/// the checkpoint asserts the real invariant -- everything beyond the
/// live set is *reclaimable* within a few epochs, not that the
/// scheduler happened to drain it already.
void drain_quiescent(core::ISet& set) {
  auto h = set.make_handle();
  for (int i = 0; i < 8; ++i) h->contains(0);
}

/// One churn phase: every thread hammers a 50/45/5 add/remove/contains
/// mix over the small universe (update-heavy so retirements dominate).
core::OpCounters churn_phase(core::ISet& set, std::uint64_t seed) {
  std::vector<core::OpCounters> counters(kThreads);
  harness::run_team(
      kThreads,
      [&](int t) {
        auto h = set.make_handle();
        workload::Rng rng(workload::thread_seed(seed, t));
        for (long i = 0; i < kOpsPerPhase; ++i) {
          const long k = static_cast<long>(rng.below(kUniverse));
          const auto roll = rng.below(100);
          if (roll < 50)
            h->add(k);
          else if (roll < 95)
            h->remove(k);
          else
            h->contains(k);
        }
        counters[static_cast<std::size_t>(t)] = h->counters();
      },
      /*pin=*/false);
  core::OpCounters agg;
  for (const auto& c : counters) agg += c;
  return agg;
}

class EveryReclaimCombo : public ::testing::TestWithParam<std::string_view> {};

/// The reclaim grid plus its sharded counterpart: the footprint bound
/// must hold identically when N shards share one reclamation domain
/// (the domain-wide allocated_nodes() already aggregates every shard).
std::vector<std::string_view> reclaim_and_sharded_ids() {
  std::vector<std::string_view> ids = harness::reclaim_variant_ids();
  const auto& sharded = harness::sharded_variant_ids();
  ids.insert(ids.end(), sharded.begin(), sharded.end());
  return ids;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryReclaimCombo,
    ::testing::ValuesIn(reclaim_and_sharded_ids()),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)
        if (c == '/') c = '_';
      return name;
    });

// The reclaiming policies must keep the node footprint bounded by
// live-set + per-handle garbage, not by the total churn volume, and
// every quiescent checkpoint mid-churn must see an intact structure.
TEST_P(EveryReclaimCombo, ChurnKeepsFootprintBoundedAndStructureValid) {
  const std::uint64_t seed = test::env_seed(1000);
  test::ReproOnFailure repro(seed);
  auto set = harness::make_set(GetParam());
  core::OpCounters agg;
  for (int phase = 0; phase < kPhases; ++phase) {
    agg += churn_phase(*set, seed + static_cast<std::uint64_t>(phase));

    // Quiescent checkpoint: all workers joined, handles destroyed.
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << "phase " << phase << ": " << err;
    ASSERT_EQ(static_cast<long>(set->size()), agg.adds - agg.rems)
        << "phase " << phase;

    // Footprint after a drain: nowhere near the cumulative churn
    // volume.
    drain_quiescent(*set);
    EXPECT_LE(set->allocated_nodes(), footprint_bound(phase + 1))
        << "phase " << phase;
  }
  // The bound had teeth: the run allocated far more than it may keep.
  EXPECT_GT(agg.adds, 2 * static_cast<long>(footprint_bound(kPhases)));
}

// The same churn under the arena must *grow* the footprint: exactly
// one tracked node per successful insert (plus the head sentinel).
// This is the contrast that proves the bounded assertion above is
// measuring reclamation and not a miscounting ledger.
TEST(ArenaContrast, ArenaFootprintGrowsWithEveryInsert) {
  const std::uint64_t seed = test::env_seed(2000);
  test::ReproOnFailure repro(seed);
  for (const std::string_view id :
       {std::string_view("singly"), std::string_view("doubly_cursor")}) {
    auto set = harness::make_set(id);
    core::OpCounters agg;
    for (int phase = 0; phase < 2; ++phase)
      agg += churn_phase(*set, seed + static_cast<std::uint64_t>(phase));
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << err;
    EXPECT_EQ(set->allocated_nodes(),
              static_cast<std::size_t>(agg.adds) + 1)
        << id;
  }
}

// Handle slots must be released and reusable: cycle far more handles
// than the domain has slots (256), each parking a little garbage.
TEST(HandleLifecycle, SlotsAreReleasedAndLeftoversParked) {
  for (const auto id : reclaim_and_sharded_ids()) {
    auto set = harness::make_set(id);
    for (int i = 0; i < 300; ++i) {
      auto h = set->make_handle();
      EXPECT_TRUE(h->add(i % kUniverse));
      EXPECT_TRUE(h->remove(i % kUniverse));
    }
    std::string err;
    EXPECT_TRUE(set->validate(&err)) << id << ": " << err;
    EXPECT_EQ(set->size(), 0u) << id;
  }
}

// The shared-domain budget, the reason the domain/handle split exists:
// 200 *concurrent* workers on an 8-shard set fit the one 256-slot
// domain because each worker leases ONE reclaim handle for all eight
// shards. Per-shard domains would need 1600 slots (or 1600 hazard-cell
// rows) and abort in make_handle.
TEST(HandleLifecycle, ShardedWorkersCostOneSlotNotOnePerShard) {
  constexpr int kWorkers = 200;  // > 256 / 8, well under 256
  const std::uint64_t seed = test::env_seed(77);
  test::ReproOnFailure repro(seed);
  for (const std::string_view id : {std::string_view("singly/ebr/sh8"),
                                    std::string_view("singly_cursor/hp/sh8")}) {
    auto set = harness::make_set(id);
    harness::run_team(
        kWorkers,
        [&](int t) {
          auto h = set->make_handle();
          workload::Rng rng(workload::thread_seed(seed, t));
          for (long i = 0; i < 200; ++i) {
            const long k = static_cast<long>(rng.below(kUniverse));
            if (rng.below(2) == 0)
              h->add(k);
            else
              h->remove(k);
          }
        },
        /*pin=*/false);
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << id << ": " << err;
    // Limbo residue is per-thread bounded, never per-thread-per-shard.
    EXPECT_LE(set->limbo_nodes(),
              static_cast<std::size_t>(kWorkers) * 400 + kUniverse)
        << id;
  }
}

// Long-running scans under churn: one thread runs continuous
// full-range range_scan() passes and another pages with ascend()
// while the remaining threads hammer insert/delete. Scans hold an
// epoch pin for their whole pass under EBR and re-anchor per step
// under HP; a reclamation bug -- a node freed while a scan can still
// reach it -- is a use-after-free the sanitizer tier (ASan/TSan re-run
// this label) catches on the spot, while the in-sink checks catch any
// ordering violation in every build. Covers the whole reclaim grid
// plus its sh4 sharded counterpart (where the scanner is the k-way
// merge over one shared domain).
TEST_P(EveryReclaimCombo, LongRunningScansNeverObserveAFreedNode) {
  const std::uint64_t seed = test::env_seed(4000);
  test::ReproOnFailure repro(seed);
  auto set = harness::make_set(GetParam());
  std::atomic<int> churners{kThreads};
  harness::run_team(
      kThreads + 2,
      [&](int t) {
        auto h = set->make_handle();
        workload::Rng rng(workload::thread_seed(seed, t));
        if (t < kThreads) {
          for (long i = 0; i < kOpsPerPhase; ++i) {
            const long k = static_cast<long>(rng.below(kUniverse));
            if (rng.below(2) == 0)
              h->add(k);
            else
              h->remove(k);
          }
          churners.fetch_sub(1, std::memory_order_release);
        } else if (t == kThreads) {
          // Full-range scanner: every emitted key must be in range and
          // strictly ascending within its pass, no matter how much was
          // retired and freed under the walk.
          long passes = 0;
          do {
            long last = std::numeric_limits<long>::min();
            h->range_scan(0, kUniverse - 1, [&](long k) {
              EXPECT_TRUE(k >= 0 && k < kUniverse && k > last)
                  << "scan emitted " << k << " after " << last;
              last = k;
            });
            ++passes;
          } while (churners.load(std::memory_order_acquire) != 0);
          EXPECT_GT(passes, 0);
        } else {
          // Pager: ascend() in small pages, restarting from the bottom
          // whenever the key space is exhausted.
          long from = 0;
          do {
            const std::vector<long> page = h->ascend(from, 8);
            long last = from - 1;
            for (const long k : page) {
              EXPECT_TRUE(k >= from && k < kUniverse && k > last)
                  << "page emitted " << k << " after " << last
                  << " (from " << from << ")";
              last = k;
            }
            from = (page.size() < 8) ? 0 : page.back() + 1;
          } while (churners.load(std::memory_order_acquire) != 0);
        }
      },
      /*pin=*/false);

  std::string err;
  ASSERT_TRUE(set->validate(&err)) << err;
  drain_quiescent(*set);
  EXPECT_LE(set->allocated_nodes(), footprint_bound(1));
}

// Regression for the satellite fix: validate() must hold at a
// quiescent checkpoint in the middle of churn for *every* catalog
// structure, not only after clean sequential runs.
class EveryVariantMidChurn
    : public ::testing::TestWithParam<std::string_view> {};

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryVariantMidChurn,
    ::testing::ValuesIn(test::catalog_test_ids()),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)
        if (c == '/') c = '_';
      return name;
    });

TEST_P(EveryVariantMidChurn, QuiescentCheckpointSeesIntactStructure) {
  const std::uint64_t seed = test::env_seed(3000);
  test::ReproOnFailure repro(seed);
  auto set = harness::make_set(GetParam());
  core::OpCounters agg;
  for (int phase = 0; phase < 2; ++phase) {
    std::vector<core::OpCounters> counters(kThreads);
    harness::run_team(
        kThreads,
        [&](int t) {
          auto h = set->make_handle();
          workload::Rng rng(workload::thread_seed(
              seed + static_cast<std::uint64_t>(phase), t));
          for (long i = 0; i < 1500; ++i) {
            const long k = static_cast<long>(rng.below(kUniverse));
            if (rng.below(2) == 0)
              h->add(k);
            else
              h->remove(k);
          }
          counters[static_cast<std::size_t>(t)] = h->counters();
        },
        /*pin=*/false);
    for (const auto& c : counters) agg += c;

    std::string err;
    ASSERT_TRUE(set->validate(&err)) << "phase " << phase << ": " << err;
    ASSERT_EQ(static_cast<long>(set->size()), agg.adds - agg.rems);
    // Snapshot/membership coherence at the checkpoint.
    auto h = set->make_handle();
    for (const long k : set->snapshot())
      EXPECT_TRUE(h->contains(k)) << "snapshot key " << k;
  }
}

// Regression for the fat-node merge's unlink target. try_merge used to
// swing A->next from s to the successor it read *before* marking s;
// s's lock excludes splits of s but not lock-free sweeps from s, so
// that successor could be a corpse already swept and retired, which
// the merge then relinked and a later sweep retired a second time. A
// 16-key universe keeps nodes at one to four keys, so merges race the
// sweep of the next node constantly. The node ledger catches a
// relinked retiree even when the allocator does not: once a full scan
// has swept every corpse, each published node is exactly one of
// linked, in limbo, or freed.
template <typename List>
class UnrolledMergeVsSweep : public ::testing::Test {};
using UnrolledReclaimers =
    ::testing::Types<core::UnrolledK8ListEbr, core::UnrolledK8ListHp>;
TYPED_TEST_SUITE(UnrolledMergeVsSweep, UnrolledReclaimers);

TYPED_TEST(UnrolledMergeVsSweep, EveryRetireeWasUnlinkedExactlyOnce) {
  constexpr long kTinyUniverse = 16;
  const std::uint64_t seed = test::env_seed(4000);
  test::ReproOnFailure repro(seed);
  for (int round = 0; round < 4; ++round) {
    TypeParam list;
    harness::run_team(
        kThreads,
        [&](int t) {
          auto h = list.make_handle();
          workload::Rng rng(workload::thread_seed(
              seed + static_cast<std::uint64_t>(round), t));
          for (long i = 0; i < 200000; ++i) {
            const long k = static_cast<long>(rng.below(kTinyUniverse));
            if (rng.below(2) == 0)
              h.add(k);
            else
              h.remove(k);
          }
        },
        /*pin=*/false);
    std::string err;
    ASSERT_TRUE(list.validate(&err)) << "round " << round << ": " << err;
    list.make_handle().range_scan(0, kTinyUniverse, [](long) {});
    EXPECT_EQ(list.allocated_nodes(),
              list.live_node_count() + 1 + list.limbo_nodes())
        << "round " << round << " (the 1 is the head sentinel)";
  }
}

// Span-widening churn for the key-range hint index: each thread's keys
// climb through five magnitudes (x1, x10^3, ... x10^12), so the
// index's [lo, hi] span widens by orders of magnitude mid-run and
// every node published under an older mapping sits in a slot its key
// no longer routes to. Removers keep retiring those old-magnitude
// nodes while readers look up across the whole range. A node is only
// ever published into its home slot, the bucket of its first publish,
// and purge() clears that slot, so no slot may keep naming a node once
// it can be freed: under ASan the slab's poisoned slots turn a missed
// purge into a use-after-poison on the next validation. The node
// ledger then accounts for every allocation: linked, the head, or in
// limbo.
template <typename List>
class SpanWideningChurn : public ::testing::Test {};
using SpanWideningLists =
    ::testing::Types<core::SinglyFetchOrListEbr, core::DoublyCursorListEbr,
                     core::UnrolledK8ListHp>;
TYPED_TEST_SUITE(SpanWideningChurn, SpanWideningLists);

TYPED_TEST(SpanWideningChurn, OldMappingRetireesAreNeverReachedThroughHints) {
  constexpr int kStages = 5;
  constexpr long kOps = 20000;  // per thread
  const std::uint64_t seed = test::env_seed(5000);
  test::ReproOnFailure repro(seed);
  TypeParam list(alloc::Mode::kSlab);
  std::vector<core::OpCounters> counters(kThreads);
  harness::run_team(
      kThreads,
      [&](int t) {
        auto h = list.make_handle();
        workload::Rng rng(workload::thread_seed(seed, t));
        for (long i = 0; i < kOps; ++i) {
          const int stage = static_cast<int>(i * kStages / kOps);
          // Adds go to the current magnitude; removes and lookups to
          // any magnitude reached so far.
          const auto roll = rng.below(100);
          const int at =
              roll < 40 ? stage
                        : static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(stage) + 1));
          long mag = 1;
          for (int s = 0; s < at; ++s) mag *= 1000;
          const long k = static_cast<long>(rng.below(kUniverse)) * mag;
          if (roll < 40)
            h.add(k);
          else if (roll < 80)
            h.remove(k);
          else
            h.contains(k);
        }
        counters[static_cast<std::size_t>(t)] = h.counters();
      },
      /*pin=*/false);
  core::OpCounters agg;
  for (const auto& c : counters) agg += c;

  std::string err;
  ASSERT_TRUE(list.validate(&err)) << err;
  EXPECT_EQ(static_cast<long>(list.size()), agg.adds - agg.rems);
  EXPECT_GT(agg.rems, 0);
  EXPECT_GT(agg.hint_hits, 0) << "the hint index was never used";
  EXPECT_EQ(list.allocated_nodes(),
            list.linked_node_count() + 1 + list.limbo_nodes())
      << "(the 1 is the head sentinel)";
}

// Lock-step drain rounds, the shape of the paper's same-keys worst
// case: all threads add 0..kKeys-1, meet, then all remove 0..kKeys-1.
// The adds publish one node per hint bucket in turn; the removes then
// empty the buckets below every key, so each lookup scans the
// occupancy bitmap down to bucket 0 past emptied slots and bits that
// purges race to clear, and every removal runs the one-slot purge. Over slab memory a slot left naming a freed
// node is a use-after-poison under ASan on the next validation. After
// each round the structure validates, the op ledger balances (each key
// added and removed exactly once) and every allocation is linked, the
// head, or in limbo.
template <typename List>
class LockStepDrainChurn : public ::testing::Test {};
using LockStepDrainLists =
    ::testing::Types<core::SinglyFetchOrListEbr, core::DoublyCursorListHp,
                     core::UnrolledK8ListEbr>;
TYPED_TEST_SUITE(LockStepDrainChurn, LockStepDrainLists);

TYPED_TEST(LockStepDrainChurn, EveryRoundDrainsToAnExactLedger) {
  constexpr long kKeys = 4096;
  constexpr int kRounds = 6;
  TypeParam list(alloc::Mode::kSlab);
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> arrived{0};
    std::vector<core::OpCounters> counters(kThreads);
    harness::run_team(
        kThreads,
        [&](int t) {
          auto h = list.make_handle();
          for (long k = 0; k < kKeys; ++k) h.add(k);
          arrived.fetch_add(1);
          while (arrived.load() < kThreads) std::this_thread::yield();
          for (long k = 0; k < kKeys; ++k) h.remove(k);
          counters[static_cast<std::size_t>(t)] = h.counters();
        },
        /*pin=*/false);
    core::OpCounters agg;
    for (const auto& c : counters) agg += c;

    std::string err;
    ASSERT_TRUE(list.validate(&err)) << "round " << round << ": " << err;
    EXPECT_EQ(agg.adds, kKeys) << "round " << round;
    EXPECT_EQ(agg.rems, kKeys) << "round " << round;
    EXPECT_EQ(list.size(), 0u) << "round " << round;
    EXPECT_EQ(list.allocated_nodes(),
              list.linked_node_count() + 1 + list.limbo_nodes())
        << "round " << round << " (the 1 is the head sentinel)";
  }
}

// The per-slot footprint ledger (src/reclaim/footprint.hpp): each
// handle counts its tracks, retires and frees into its own slot, and
// the orphan pool and crashed leases count into the domain. Workers
// live several handle lifetimes each -- departure orphans the young
// bags, the next lease reuses the slot and carries its counters on --
// and one lifetime per worker ends in a lease-level crash that a
// supervisor thread reaps mid-run, while it also samples
// allocated_nodes()/limbo_nodes() (the TSan leg audits those relaxed
// reads against the owners' bumps). At quiescence every allocation is
// linked, the head, or in limbo, and collect passes drain limbo to 0.
template <typename List>
class FootprintLedger : public ::testing::Test {};
using FootprintLedgerLists =
    ::testing::Types<core::SinglyFetchOrListEbr, core::UnrolledK8ListEbr,
                     core::DoublyCursorListHp>;
TYPED_TEST_SUITE(FootprintLedger, FootprintLedgerLists);

TYPED_TEST(FootprintLedger, SlotCountersCloseAcrossDepartureReuseAndCrash) {
  constexpr int kLives = 6;  // handle lifetimes per worker
  constexpr long kOpsPerLife = 3000;
  const std::uint64_t seed = test::env_seed(6000);
  test::ReproOnFailure repro(seed);
  auto domain = std::make_shared<typename TypeParam::Reclaim>();
  TypeParam list(domain);
  std::atomic<int> working{kThreads};
  std::size_t reaped = 0;
  harness::run_team(
      kThreads + 1,
      [&](int t) {
        if (t == kThreads) {  // supervisor: sample and reap mid-run
          do {
            const std::size_t allocated = list.allocated_nodes();
            const std::size_t limbo = list.limbo_nodes();
            EXPECT_LT(allocated, std::size_t{1} << 32) << "wrapped count";
            EXPECT_LT(limbo, std::size_t{1} << 32) << "wrapped count";
            reaped += domain->reap_crashed();
            std::this_thread::yield();
          } while (working.load(std::memory_order_acquire) != 0);
          return;
        }
        workload::Rng rng(workload::thread_seed(seed, t));
        for (int life = 0; life < kLives; ++life) {
          auto h = list.make_handle();
          for (long i = 0; i < kOpsPerLife; ++i) {
            const long k = static_cast<long>(rng.below(kUniverse));
            if (rng.below(2) == 0)
              h.add(k);
            else
              h.remove(k);
          }
          // One crash per worker, alternating the two lease-level
          // kinds; every other lifetime departs cleanly.
          if (life == t % kLives)
            h.abandon(t % 2 == 0 ? faults::FaultKind::kAbortWithGuardHeld
                                 : faults::FaultKind::kDepartWithoutRelease,
                      0);
        }
        working.fetch_sub(1, std::memory_order_release);
      },
      /*pin=*/false);
  reaped += domain->reap_crashed();
  EXPECT_EQ(reaped, static_cast<std::size_t>(kThreads));
  {
    // One last lifetime that fills and empties the key range: its
    // departure leaves freshly retired nodes behind.
    auto h = list.make_handle();
    for (long k = 0; k < kUniverse; ++k) h.add(k);
    for (long k = 0; k < kUniverse; ++k) h.remove(k);
  }

  std::string err;
  ASSERT_TRUE(list.validate(&err)) << err;
  EXPECT_EQ(list.allocated_nodes(),
            list.linked_node_count() + 1 + list.limbo_nodes())
      << "(the 1 is the head sentinel)";
  if constexpr (!TypeParam::Reclaim::kHazards) {
    // That departure left its young bags to the orphan pool (HP's
    // final scan may free everything it retired).
    EXPECT_GT(list.limbo_nodes(), 0u) << "nothing was left to adopt";
  }

  // Every worker handle is gone: its limbo sits in the orphan pool,
  // which a few collect passes (each advancing the epoch) adopt.
  {
    auto rh = domain->make_handle();
    for (int pass = 0; pass < 8 && list.limbo_nodes() != 0; ++pass)
      rh.collect();
  }
  EXPECT_EQ(list.limbo_nodes(), 0u);
  EXPECT_EQ(list.allocated_nodes(), list.linked_node_count() + 1)
      << "(the 1 is the head sentinel)";
}

}  // namespace
}  // namespace pragmalist
