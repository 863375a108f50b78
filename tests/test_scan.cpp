// Tier-1 semantics for the range-scan API: range_scan()/ascend() vs a
// std::set oracle over every catalog id (including hash-sharded sets,
// whose scans are k-way merges and must come back globally sorted),
// the sharded merge's fetch bound, the paging contract, the
// scans/scan_calls counter ledger, and the quiescent identity
// full-range scan == snapshot(). Concurrency is the stress tier's job
// (test_linearizability, test_reclaim_churn).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/variants.hpp"
#include "src/harness/catalog.hpp"
#include "src/net/protocol.hpp"
#include "src/reclaim/ebr.hpp"
#include "src/shard/sharded_set.hpp"
#include "src/workload/rng.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

constexpr long kUniverse = 512;

/// Every unsharded catalog id plus a sharded sample of each merge
/// flavor (arena, EBR, HP, and the draconic row and its textbook
/// Michael twin on both domains).
std::vector<std::string_view> scan_ids() {
  std::vector<std::string_view> ids = test::catalog_test_ids();
  static const std::vector<std::string> sharded = {
      "singly/ebr/sh4",  "singly_cursor/hp/sh4", "doubly_cursor/sh8",
      "draconic/hp/sh4", "draconic/ebr/sh4",     "singly/sh3",
      "draconic/hp/sh4/heap/nohint", "draconic/ebr/sh4/heap/nohint",
      "unrolled_k8/ebr/sh4",  // fat-node pages feeding the k-way merge
  };
  for (const auto& s : sharded) ids.push_back(s);
  return ids;
}

class EveryScannable : public ::testing::TestWithParam<std::string_view> {};

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryScannable, ::testing::ValuesIn(scan_ids()),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)
        if (c == '/') c = '_';
      return name;
    });

/// Random membership churn mirrored into a std::set oracle.
std::set<long> populate(core::ISetHandle& h, std::uint64_t seed) {
  std::set<long> oracle;
  workload::Rng rng(seed);
  for (int i = 0; i < 600; ++i) {
    const long k = static_cast<long>(rng.below(kUniverse));
    if (rng.below(4) == 0) {
      h.remove(k);
      oracle.erase(k);
    } else {
      h.add(k);
      oracle.insert(k);
    }
  }
  return oracle;
}

TEST_P(EveryScannable, RangeScanMatchesASetOracle) {
  auto set = harness::make_set(GetParam());
  auto h = set->make_handle();
  const std::uint64_t seed = test::env_seed(7);
  test::ReproOnFailure repro(seed);
  const std::set<long> oracle = populate(*h, seed);

  const std::pair<long, long> windows[] = {
      {0, kUniverse - 1},                     // the whole universe
      {17, 93},                               // interior window
      {100, 100},                             // single key
      {200, 150},                             // empty: lo > hi
      {-50, 40},                              // partially below range
      {kUniverse - 30, kUniverse + 100},      // past the top
      {std::numeric_limits<long>::min(),
       std::numeric_limits<long>::max()},     // full range
  };
  for (const auto& [lo, hi] : windows) {
    std::vector<long> got;
    const long n = h->range_scan(lo, hi, [&](long k) { got.push_back(k); });
    EXPECT_EQ(n, static_cast<long>(got.size())) << GetParam();
    std::vector<long> want;
    for (const long k : oracle)
      if (k >= lo && k <= hi) want.push_back(k);
    EXPECT_EQ(got, want) << GetParam() << " window [" << lo << ", " << hi
                         << "]";
  }
}

TEST_P(EveryScannable, QuiescentFullScanIsTheSnapshot) {
  auto set = harness::make_set(GetParam());
  auto h = set->make_handle();
  const std::uint64_t seed = test::env_seed(11);
  test::ReproOnFailure repro(seed);
  populate(*h, seed);
  std::vector<long> scanned;
  h->range_scan(std::numeric_limits<long>::min(),
                std::numeric_limits<long>::max(),
                [&](long k) { scanned.push_back(k); });
  EXPECT_EQ(scanned, set->snapshot()) << GetParam();
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
}

TEST_P(EveryScannable, AscendPagesTheWholeKeySpace) {
  auto set = harness::make_set(GetParam());
  auto h = set->make_handle();
  const std::uint64_t seed = test::env_seed(13);
  test::ReproOnFailure repro(seed);
  populate(*h, seed);

  // Page with an odd size so the last page is short; the concatenation
  // must be exactly the snapshot, each page internally sorted and
  // strictly after the previous one.
  constexpr std::size_t kPage = 37;
  std::vector<long> paged;
  long from = std::numeric_limits<long>::min();
  for (;;) {
    const std::vector<long> page = h->ascend(from, kPage);
    ASSERT_TRUE(std::is_sorted(page.begin(), page.end())) << GetParam();
    if (!paged.empty() && !page.empty()) {
      ASSERT_GT(page.front(), paged.back()) << GetParam();
    }
    paged.insert(paged.end(), page.begin(), page.end());
    if (page.size() < kPage) break;  // key space exhausted
    from = page.back() + 1;
  }
  EXPECT_EQ(paged, set->snapshot()) << GetParam();

  // Degenerate pages.
  EXPECT_TRUE(h->ascend(0, 0).empty());
  EXPECT_TRUE(h->ascend(kUniverse + 1000, 8).empty());
}

TEST_P(EveryScannable, ScanCountersLedger) {
  auto set = harness::make_set(GetParam());
  auto h = set->make_handle();
  for (long k = 0; k < 10; ++k) ASSERT_TRUE(h->add(k));

  const core::OpCounters before = h->counters();
  EXPECT_EQ(h->range_scan(2, 5, [](long) {}), 4);
  EXPECT_EQ(h->ascend(0, 3), (std::vector<long>{0, 1, 2}));
  const core::OpCounters after = h->counters();

  EXPECT_EQ(after.scan_calls - before.scan_calls, 2) << GetParam();
  EXPECT_EQ(after.scans - before.scans, 7) << GetParam();
  // Scan calls are operations: the throughput ledger counts them.
  EXPECT_EQ(after.total_ops() - before.total_ops(), 2) << GetParam();
  // Point-op ledgers are untouched by scanning.
  EXPECT_EQ(after.adds, before.adds);
  EXPECT_EQ(after.cons, before.cons);
}

// The k-way merge must interleave shards, not concatenate them: with a
// dense key range over 8 shards, consecutive scanned keys come from
// different shards (the hash partition scatters neighbors), so a
// per-shard-concatenation bug cannot produce a sorted result.
TEST(ShardedScan, MergeInterleavesShardsGloballySorted) {
  auto sharded = harness::make_set("singly/ebr/sh8");
  auto oracle = harness::make_set("singly");
  auto sh = sharded->make_handle();
  auto oh = oracle->make_handle();
  for (long k = 0; k < 256; ++k) {
    ASSERT_TRUE(sh->add(k));
    ASSERT_TRUE(oh->add(k));
  }
  for (const auto& [lo, hi] :
       std::vector<std::pair<long, long>>{{0, 255}, {31, 97}, {250, 900}}) {
    std::vector<long> got, want;
    sh->range_scan(lo, hi, [&](long k) { got.push_back(k); });
    oh->range_scan(lo, hi, [&](long k) { want.push_back(k); });
    EXPECT_EQ(got, want) << "[" << lo << ", " << hi << "]";
  }
  // Paging across shard boundaries: page size far below the per-shard
  // key count forces multiple refills per shard cursor.
  std::vector<long> paged;
  long from = 0;
  for (;;) {
    const auto page = sh->ascend(from, 10);
    paged.insert(paged.end(), page.begin(), page.end());
    if (page.size() < 10) break;
    from = page.back() + 1;
  }
  EXPECT_EQ(paged, sharded->snapshot());
}

using EbrShards = shard::ShardedSet<core::SinglyListWith<reclaim::Ebr>>;

/// Keys the shards handed to one ascend(from, limit) call.
long fetched_by_ascend(EbrShards::Handle& h, long from, std::size_t limit,
                       std::vector<long>* out = nullptr) {
  const long before = h.keys_fetched();
  std::vector<long> page = h.ascend(from, limit);
  if (out != nullptr) *out = std::move(page);
  return h.keys_fetched() - before;
}

/// The stated fetch bound of a bounded sharded scan.
long fetch_bound(std::size_t limit, int shards) {
  return 4 * static_cast<long>(limit) + 2 * shards;
}

// A bounded scan fetches about what it returns: each shard's first
// page is twice its even share of the limit, and refills double from
// there, so a dense sh8 page of 64 costs ~2x its keys (a full 64-key
// page from every shard would be 8x), every scan stays within
// 4 * limit + 2 * shards -- also at the protocol's kMaxScanCount --
// and a zero-limit scan fetches nothing.
TEST(ShardedScan, BoundedAscendFetchesItsShare) {
  constexpr long kDense = 4096;
  constexpr std::size_t kLimit = 64;
  const std::uint64_t seed = test::env_seed(17);
  test::ReproOnFailure repro(seed);
  workload::Rng rng(seed);
  {
    EbrShards set(8);
    auto h = set.make_handle();
    for (long k = 0; k < kDense; ++k) ASSERT_TRUE(h.add(k));
    long emitted = 0;
    long fetched = 0;
    std::vector<long> page;
    for (int i = 0; i < 1000; ++i) {
      fetched += fetched_by_ascend(
          h, static_cast<long>(rng.below(kDense - kLimit)), kLimit, &page);
      emitted += static_cast<long>(page.size());
    }
    ASSERT_EQ(emitted, 1000 * static_cast<long>(kLimit));
    EXPECT_LE(fetched * 2, emitted * 5)
        << "sh8 fetched " << fetched << " keys to emit " << emitted;
  }
  {
    constexpr int kShards = 256;
    EbrShards set(kShards);
    auto h = set.make_handle();
    for (long k = 0; k < kDense; ++k) ASSERT_TRUE(h.add(k));
    for (int i = 0; i < 200; ++i) {
      const long from = static_cast<long>(rng.below(kDense));
      EXPECT_LE(fetched_by_ascend(h, from, kLimit),
                fetch_bound(kLimit, kShards))
          << "ascend(" << from << ", " << kLimit << ")";
    }
    const auto max_count =
        static_cast<std::size_t>(net::protocol::kMaxScanCount);
    for (const long from : {-1L, kDense / 3}) {
      EXPECT_LE(fetched_by_ascend(h, from, max_count),
                fetch_bound(max_count, kShards))
          << "ascend(" << from << ", kMaxScanCount)";
    }
    std::vector<long> page{-1};
    EXPECT_EQ(fetched_by_ascend(h, 0, 0, &page), 0);
    EXPECT_TRUE(page.empty());
  }
}

// Bounded ascend against the unsharded list at every edge of the page
// sizing: limits around the shard count (the share's rounding), around
// kScanPage, and far past the key count; keys that all hash to one
// shard (that shard's cursor refills with doubling pages while the
// others run dry); and the extreme legal keys, so exhaustion can never
// hide behind a LONG_MAX sentinel.
TEST(ShardedScan, BoundedAscendMatchesOracleAtEveryLimit) {
  constexpr long kMin = std::numeric_limits<long>::min();
  constexpr long kMax = std::numeric_limits<long>::max();
  for (const int shards : {1, 3, 8, 16}) {
    const auto n = static_cast<std::size_t>(shards);
    std::vector<long> dense(300);
    for (long k = 0; k < 300; ++k) dense[static_cast<std::size_t>(k)] = k;
    std::vector<long> one_shard;
    for (long k = 0; one_shard.size() < 300; ++k)
      if (shard::shard_of(k, n) == 0) one_shard.push_back(k);
    const std::vector<long> extremes = {kMin + 1, kMin + 2, -7, 0,   5,
                                        64,       999,      kMax - 1, kMax};
    for (const auto* keys : std::initializer_list<const std::vector<long>*>{
             &dense, &one_shard, &extremes}) {
      EbrShards set(shards);
      auto oracle = harness::make_set("singly");
      auto sh = set.make_handle();
      auto oh = oracle->make_handle();
      for (const long k : *keys) {
        ASSERT_TRUE(sh.add(k));
        ASSERT_TRUE(oh->add(k));
      }
      const long mid = (*keys)[keys->size() / 2];
      for (const long from :
           {kMin, keys->front(), mid, mid + 1, keys->back(), kMax}) {
        for (const std::size_t limit :
             {std::size_t{0}, std::size_t{1}, n - 1, n, n + 1, 2 * n,
              std::size_t{63}, std::size_t{64}, std::size_t{65},
              std::size_t{4096}}) {
          std::vector<long> got;
          const long fetched = fetched_by_ascend(sh, from, limit, &got);
          EXPECT_EQ(got, oh->ascend(from, limit))
              << "sh" << shards << " ascend(" << from << ", " << limit << ")";
          EXPECT_LE(fetched, fetch_bound(limit, shards))
              << "sh" << shards << " ascend(" << from << ", " << limit << ")";
        }
      }
    }
  }
}

// The merge's cursors are handle-owned scratch: a sink may run point
// ops on its own handle, but a nested scan would reuse the cursors
// the running merge is still reading, so it is refused loudly.
TEST(ShardedScan, ASinkMayNotScanItsOwnHandle) {
  EbrShards set(4);
  auto h = set.make_handle();
  for (long k = 0; k < 32; ++k) ASSERT_TRUE(h.add(k));
  long seen = 0;
  h.range_scan(0, 31, [&](long k) {
    EXPECT_TRUE(h.contains(k));
    h.add(k + 100);
    ++seen;
  });
  EXPECT_EQ(seen, 32);
  EXPECT_DEATH(h.range_scan(0, 31, [&](long) { h.ascend(0, 1); }),
               "started a scan on the same handle");
}

}  // namespace
}  // namespace pragmalist
