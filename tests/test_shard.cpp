// Tier-1 units for the shard layer:
//  * shard_map -- deterministic, in-range, every shard reachable, and
//    roughly uniform over the dense key ranges the benches use (the
//    reason the mapper mixes instead of key % shards);
//  * ShardedSet -- one ISet over N lists: membership/size/snapshot
//    aggregation matches an unsharded oracle, snapshot() is globally
//    sorted, validate() runs every shard;
//  * per-shard ledgers -- shard_ops() sums to the attempts routed and
//    every op lands on shard_of(key); shard_sizes() sums to size();
//  * catalog ids -- `<base>/shN` parses for any N, name() keeps the
//    full id, shard_count() reports N, unsharded ids report the
//    defaults; zipf-skewed streams concentrate on hot shards (the
//    shard-load report the skew benches print).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/harness/catalog.hpp"
#include "src/harness/table.hpp"
#include "src/shard/shard_map.hpp"
#include "src/shard/sharded_set.hpp"
#include "src/workload/distributions.hpp"
#include "src/workload/rng.hpp"

namespace pragmalist {
namespace {

// --- the mapper ------------------------------------------------------

TEST(ShardMap, DeterministicAndInRange) {
  for (const std::size_t shards : {1u, 2u, 7u, 8u, 16u}) {
    for (long key = -100; key < 4096; ++key) {
      const std::size_t s = shard::shard_of(key, shards);
      ASSERT_LT(s, shards);
      ASSERT_EQ(s, shard::shard_of(key, shards)) << "not a pure function";
    }
  }
}

TEST(ShardMap, EveryShardReachableOverADenseRange) {
  for (const std::size_t shards : {2u, 4u, 8u, 16u, 64u}) {
    std::set<std::size_t> hit;
    for (long key = 0; key < 1024; ++key)
      hit.insert(shard::shard_of(key, shards));
    EXPECT_EQ(hit.size(), shards) << shards << " shards";
  }
}

TEST(ShardMap, RoughlyUniformOverDenseKeys) {
  // The bench universes are dense [0, u); the mixed map must spread
  // them within ~25% of the ideal per-shard share.
  constexpr std::size_t kShards = 8;
  constexpr long kKeys = 64 * 1024;
  std::vector<long> count(kShards, 0);
  for (long key = 0; key < kKeys; ++key)
    ++count[shard::shard_of(key, kShards)];
  const long ideal = kKeys / kShards;
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(count[s], ideal * 3 / 4) << "shard " << s;
    EXPECT_LT(count[s], ideal * 5 / 4) << "shard " << s;
  }
}

// --- aggregation over the catalog ------------------------------------

TEST(ShardedSet, MembershipAndSnapshotMatchAnUnshardedOracle) {
  for (const auto& id :
       {std::string("singly/ebr/sh4"), std::string("singly_cursor/hp/sh4"),
        std::string("doubly_cursor/sh8")}) {
    auto sharded = harness::make_set(id);
    auto oracle = harness::make_set("singly");
    auto sh = sharded->make_handle();
    auto oh = oracle->make_handle();
    workload::Rng rng(17);
    for (int i = 0; i < 4000; ++i) {
      const long key = static_cast<long>(rng.below(256));
      if (rng.below(3) == 0)
        ASSERT_EQ(sh->remove(key), oh->remove(key)) << id << " op " << i;
      else
        ASSERT_EQ(sh->add(key), oh->add(key)) << id << " op " << i;
    }
    for (long key = 0; key < 256; ++key)
      ASSERT_EQ(sh->contains(key), oh->contains(key)) << id << " key " << key;

    std::string err;
    ASSERT_TRUE(sharded->validate(&err)) << id << ": " << err;
    EXPECT_EQ(sharded->size(), oracle->size()) << id;
    const auto snap = sharded->snapshot();
    EXPECT_EQ(snap, oracle->snapshot()) << id;
    EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end())) << id;
  }
}

TEST(ShardedSet, PerShardLedgersSumAndRouteByTheMapper) {
  auto set = harness::make_set("singly/ebr/sh8");
  ASSERT_EQ(set->shard_count(), 8);
  constexpr long kOps = 3000;
  std::vector<long> expected(8, 0);
  {
    auto h = set->make_handle();
    workload::Rng rng(23);
    for (long i = 0; i < kOps; ++i) {
      const long key = static_cast<long>(rng.below(512));
      ++expected[shard::shard_of(key, 8)];
      switch (rng.below(3)) {
        case 0: h->add(key); break;
        case 1: h->remove(key); break;
        default: h->contains(key); break;
      }
    }
  }  // handle closed: ledgers folded

  const auto ops = set->shard_ops();
  ASSERT_EQ(ops.size(), 8u);
  EXPECT_EQ(ops, expected);  // every op routed exactly by shard_of
  EXPECT_EQ(std::accumulate(ops.begin(), ops.end(), 0L), kOps);

  const auto sizes = set->shard_sizes();
  ASSERT_EQ(sizes.size(), 8u);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}),
            set->size());
}

TEST(ShardedSet, CatalogIdsParseAndReport) {
  for (const auto& [id, shards] :
       std::vector<std::pair<std::string, int>>{{"singly/ebr/sh4", 4},
                                                {"draconic/hp/sh16", 16},
                                                {"singly_fetch_or/sh2", 2},
                                                {"draconic/hp/sh8", 8},
                                                {"draconic/ebr/sh8", 8},
                                                {"doubly/ebr/sh1", 1}}) {
    auto set = harness::make_set(id);
    EXPECT_EQ(set->name(), id);
    EXPECT_EQ(set->shard_count(), shards) << id;
    auto h = set->make_handle();
    EXPECT_TRUE(h->add(7));
    EXPECT_TRUE(h->contains(7));
    EXPECT_TRUE(h->remove(7));
  }
  // Every id of the sharded showcase grid constructs.
  for (const auto id : harness::sharded_variant_ids()) {
    auto set = harness::make_set(id);
    EXPECT_EQ(set->shard_count(), 4) << id;
  }
  // Unsharded structures keep the defaults.
  auto plain = harness::make_set("singly");
  EXPECT_EQ(plain->shard_count(), 1);
  EXPECT_TRUE(plain->shard_ops().empty());
  EXPECT_TRUE(plain->shard_sizes().empty());
  EXPECT_FALSE(harness::shard_load(*plain).sharded());
  EXPECT_TRUE(harness::shard_load_line(*plain).empty());
}

// A zipf-skewed stream must concentrate on hot shards: the per-shard
// load report exists to make that visible, so pin the mechanism --
// same keys -> same shards, hot ranks -> few shards.
TEST(ShardedSet, ZipfSkewConcentratesOnHotShards) {
  auto set = harness::make_set("singly/ebr/sh8");
  {
    auto h = set->make_handle();
    const workload::ZipfKeys zipf(4096, 0.99);
    workload::Rng rng(31);
    for (int i = 0; i < 20000; ++i) h->contains(zipf(rng));
  }
  const harness::ShardLoad load = harness::shard_load(*set);
  ASSERT_TRUE(load.sharded());
  // Rank 1 alone carries ~11% of a theta=0.99 stream over 4096 keys,
  // so the shard it hashes to must clearly dominate the coldest shard
  // (the same stream spread uniformly lands near max/min = 1.03).
  EXPECT_GT(load.max_ops, 2 * std::max(load.min_ops, 1L));
  EXPECT_GT(load.imbalance(), 1.8);
}

}  // namespace
}  // namespace pragmalist
