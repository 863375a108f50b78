// Concurrent stress: disjoint-range ownership must leave exactly the
// expected set; same-key hammering must preserve validate() and the
// OpCounters population ledger; the deterministic driver must drain
// every catalog structure to empty.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/catalog.hpp"
#include "src/harness/drivers.hpp"
#include "src/harness/thread_team.hpp"
#include "src/workload/op_mix.hpp"
#include "src/workload/rng.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

constexpr int kThreads = 4;

class EveryVariant : public ::testing::TestWithParam<std::string_view> {};

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryVariant,
    ::testing::ValuesIn(test::catalog_test_ids()),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)        // "singly/ebr" -> "singly_ebr": gtest
        if (c == '/') c = '_';    // names must be alphanumeric
      return name;
    });

// N threads, disjoint key ranges, partial removes: the survivors must
// be exactly the union of what each thread kept.
TEST_P(EveryVariant, DisjointRangesLeaveExpectedSet) {
  auto set = harness::make_set(GetParam());
  constexpr long kPerThread = 400;
  harness::run_team(
      kThreads,
      [&](int t) {
        auto h = set->make_handle();
        const long base = t * kPerThread;
        for (long i = 0; i < kPerThread; ++i)
          ASSERT_TRUE(h->add(base + i));
        for (long i = 0; i < kPerThread; i += 2)  // drop the evens
          ASSERT_TRUE(h->remove(base + i));
      },
      /*pin=*/false);

  std::string err;
  ASSERT_TRUE(set->validate(&err)) << err;
  std::vector<long> expected;
  for (int t = 0; t < kThreads; ++t)
    for (long i = 1; i < kPerThread; i += 2)
      expected.push_back(t * kPerThread + i);
  EXPECT_EQ(set->snapshot(), expected);
  EXPECT_EQ(set->size(), expected.size());
}

// N threads hammering the same small universe: no invariant may break,
// and prefill + successful adds - successful removes must equal the
// surviving population exactly.
TEST_P(EveryVariant, SameKeysConserveTheLedger) {
  auto set = harness::make_set(GetParam());
  constexpr long kUniverse = 64;
  constexpr long kOps = 4000;
  std::vector<core::OpCounters> counters(kThreads);
  harness::run_team(
      kThreads,
      [&](int t) {
        auto h = set->make_handle();
        workload::Rng rng(workload::thread_seed(99, t));
        for (long i = 0; i < kOps; ++i) {
          const long k = static_cast<long>(rng.below(kUniverse));
          switch (rng.below(4)) {
            case 0:
            case 1:
              h->add(k);
              break;
            case 2:
              h->remove(k);
              break;
            default:
              h->contains(k);
              break;
          }
        }
        counters[static_cast<std::size_t>(t)] = h->counters();
      },
      /*pin=*/false);

  std::string err;
  ASSERT_TRUE(set->validate(&err)) << err;
  core::OpCounters agg;
  for (const auto& c : counters) agg += c;
  EXPECT_EQ(static_cast<long>(set->size()), agg.adds - agg.rems);
  EXPECT_EQ(agg.total_ops(), kThreads * kOps);
  // Everything that survived must really be in the set.
  for (const long k : set->snapshot()) {
    auto h = set->make_handle();
    EXPECT_TRUE(h->contains(k)) << "snapshot key " << k << " not found";
  }
}

// The paper's deterministic benchmark drains the set: every thread adds
// its n keys then removes them, with both key schedules.
TEST_P(EveryVariant, DeterministicDriverDrainsTheSet) {
  for (const auto sched : {workload::KeySchedule::kSameKeys,
                           workload::KeySchedule::kDisjointKeys}) {
    auto set = harness::make_set(GetParam());
    const auto r =
        harness::run_deterministic(*set, kThreads, 300, sched, false);
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << err;
    EXPECT_EQ(set->size(), 0u);
    EXPECT_EQ(r.agg.adds, r.agg.rems);
    EXPECT_EQ(r.total_ops, kThreads * 2L * 300);
  }
}

// --- starvation tier -------------------------------------------------
//
// One reader and one remover versus writer saturation: kThreads - 1
// writers hammer add/remove for the whole run, one more thread leaves
// dead nodes linked for them to cross, and the reader and the remover
// must each still complete a FIXED number of calls -- not
// "eventually", but with a restart budget proportional to their own op
// count. This is the progress-guarantee matrix of iset.hpp made
// operational: restart-free cells must report zero restarts;
// bounded-restart (HP), helping (draconic) and version-confirm
// (unrolled) cells must stay under a linear budget, never livelock.
struct StarvationCase {
  std::string_view id;
  bool reader_restart_free;   // kContainsRestartFree for this cell
  bool remover_restart_free;  // kRemoveRestartFree for this cell
};

class ReaderVsWriterSaturation
    : public ::testing::TestWithParam<StarvationCase> {};

INSTANTIATE_TEST_SUITE_P(
    ReclaimGrid, ReaderVsWriterSaturation,
    ::testing::Values(StarvationCase{"singly", true, true},
                      StarvationCase{"singly/ebr", true, true},
                      StarvationCase{"singly/hp", false, false},
                      StarvationCase{"singly_fetch_or/ebr", true, true},
                      StarvationCase{"doubly_cursor", true, true},
                      StarvationCase{"doubly_cursor/ebr", true, true},
                      StarvationCase{"doubly_cursor/hp", false, false},
                      StarvationCase{"draconic/ebr", false, false},
                      StarvationCase{"unrolled_k8/ebr", false, false},
                      StarvationCase{"unrolled_k8/hp", false, false},
                      StarvationCase{"singly/ebr/nohint", true, true}),
    [](const ::testing::TestParamInfo<StarvationCase>& info) {
      std::string name(info.param.id);
      for (char& c : name)
        if (c == '/') c = '_';
      return name;
    });

TEST_P(ReaderVsWriterSaturation, ReaderCompletesUnderABoundedBudget) {
  const StarvationCase cs = GetParam();
  auto set = harness::make_set(cs.id);
  constexpr long kUniverse = 256;
  constexpr long kReaderOps = 3000;
  {  // survivors the reader can actually hit
    auto h = set->make_handle();
    for (long k = 0; k < kUniverse; k += 2) ASSERT_TRUE(h->add(k));
  }
  std::atomic<int> measured_done{0};
  core::OpCounters reader;
  core::OpCounters remover;
  // Threads 1..kThreads-1 are the writers; the remover and the
  // abandoner are added on top.
  constexpr int kRemover = kThreads;
  constexpr int kAbandoner = kThreads + 1;
  harness::run_team(
      kThreads + 2,
      [&](int t) {
        auto h = set->make_handle();
        workload::Rng rng(workload::thread_seed(1234, t));
        const auto churned = [&] {
          return static_cast<long>(rng.below(kUniverse / 2)) * 2 + 1;
        };
        if (t == 0) {
          for (long i = 0; i < kReaderOps; ++i)
            h->contains(static_cast<long>(rng.below(kUniverse)));
          reader = h->counters();
          measured_done.fetch_add(1, std::memory_order_relaxed);
        } else if (t == kRemover) {
          // Remove-only, on the churned keys: a mix of hits (mark +
          // unlink CAS) and decided misses, amid the writers' dead runs.
          for (long i = 0; i < kReaderOps; ++i) h->remove(churned());
          remover = h->counters();
          measured_done.fetch_add(1, std::memory_order_relaxed);
        } else if (t == kAbandoner) {
          // Leaves marked-but-linked nodes (a remove that dies after its
          // mark), so dead runs linger until an update swings them out:
          // a remove that swept on a decided miss would race for them.
          while (measured_done.load(std::memory_order_relaxed) < 2) {
            const long k = churned();
            h->add(k);
            h->abandon(faults::FaultKind::kMidOpAbandon, k);
          }
        } else {
          // Saturating churn on the odd keys: the evens stay put so
          // the measured walks cross an always-hot interleaving of
          // marked/unlinked nodes.
          while (measured_done.load(std::memory_order_relaxed) < 2) {
            const long k = churned();
            h->add(k);
            h->remove(k);
          }
        }
      },
      /*pin=*/false);

  std::string err;
  ASSERT_TRUE(set->validate(&err)) << err;
  EXPECT_EQ(reader.con_calls, kReaderOps);
  EXPECT_EQ(remover.rem_calls, kReaderOps);
  if (cs.reader_restart_free)
    EXPECT_EQ(reader.restarts, 0)
        << cs.id << ": a restart-free contains cell restarted";
  else
    EXPECT_LE(reader.restarts, kReaderOps * 16 + 4096)
        << cs.id << ": reader restarts blew the linear budget";
  if (cs.remover_restart_free)
    EXPECT_EQ(remover.restarts, 0)
        << cs.id << ": a restart-free remove cell restarted";
  else
    EXPECT_LE(remover.restarts, kReaderOps * 16 + 4096)
        << cs.id << ": remover restarts blew the linear budget";
}

// The random-mix driver's ledger must balance for the six paper
// variants under the table mix.
TEST_P(EveryVariant, RandomMixDriverLedgerBalances) {
  auto set = harness::make_set(GetParam());
  const auto r = harness::run_random_mix(*set, kThreads, /*c=*/2000,
                                         /*prefill=*/100, /*universe=*/512,
                                         workload::kTableMix, /*seed=*/42,
                                         /*pin=*/false);
  std::string err;
  ASSERT_TRUE(set->validate(&err)) << err;
  EXPECT_EQ(set->size(),
            static_cast<std::size_t>(100 + r.agg.adds - r.agg.rems));
  EXPECT_EQ(r.total_ops, kThreads * 2000L);
}

}  // namespace
}  // namespace pragmalist
