// Direct unit tests for the key-range hint index (src/core/hint_index.hpp):
// routing quality in dense and sparse indexes, the bounded wait-free
// lookup, the per-node home slot and the O(1) purge across a span
// widen, extreme and negative key spans, the publish self-clear rule,
// the publish-on-miss rule of the engine glue (namespace hint), the
// disabled index, and re-indexing: growth on a dense set, re-spans
// after the keys drift, the slot-memory bound, and the shapes that must
// never re-index. The engines' use of the index is covered by the
// catalog-wide suites; these pin the index's own contract. The
// ASan+UBSan and TSan CI legs run this binary by its `hint` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <limits>
#include <thread>
#include <vector>

#include "src/alloc/slab.hpp"
#include "src/core/hint_index.hpp"
#include "src/core/list_base.hpp"
#include "src/core/variants.hpp"
#include "src/harness/thread_team.hpp"
#include "src/shard/shard_map.hpp"
#include "src/workload/op_mix.hpp"
#include "src/workload/rng.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

struct TestNode {
  long key;
  core::MarkPtr<TestNode> next;
  std::atomic<int> hint_slot{-1};
  explicit TestNode(long k = 0) : key(k) {}
};

using Index = core::HintIndex<TestNode>;
constexpr int kSlots = Index::kSlots;
constexpr int kMaxProbes = Index::kMaxProbes;
constexpr long kMin = std::numeric_limits<long>::min();
constexpr long kMax = std::numeric_limits<long>::max();

/// The engines' arena validator: a candidate is usable iff its key is
/// below the target and it is unmarked.
auto below(long key) {
  return [key](TestNode* n, int) {
    return n->key < key && !n->next.load().marked;
  };
}

/// The glue's reclaim handle, unused without hazards.
struct NoHazards {};

/// One engine read op through the glue (hint::start, then
/// hint::maybe_publish), over `nodes` in ascending key order, a marked
/// node being dead: the walk from the validated start ends at the last
/// live node below `key`, wherever below it began, and that node -- or
/// the head, never advertised -- is offered for publishing. Returns
/// the start candidate.
TestNode* read_op(Index& idx, std::deque<TestNode>& nodes, long key) {
  static TestNode head(kMin);
  NoHazards rh;
  int from = -1;
  TestNode* start = core::hint::start<false>(idx, rh, key, from);
  TestNode* end = &head;
  for (TestNode& n : nodes) {
    if (n.key >= key) break;
    if (!n.next.load().marked) end = &n;
  }
  core::hint::maybe_publish(idx, from, &head, end);
  return start;
}

/// bucket() is in range and never decreases along `keys` (ascending).
void expect_monotone_in_range(const Index& idx, const std::vector<long>& keys) {
  int prev = 0;
  for (const long k : keys) {
    const int b = idx.bucket(k);
    EXPECT_GE(b, 0) << "key " << k;
    EXPECT_LT(b, kSlots) << "key " << k;
    EXPECT_GE(b, prev) << "bucket decreased at key " << k;
    prev = b;
  }
}

// One node in the middle of each bucket of [0, kSlots W): every lookup
// above the lowest node lands on a node at most one bucket width below
// it. An index that spreads keys over its slots by hash keeps only a
// handful of random points of the key space and fails this.
TEST(HintIndexRouting, BestIsWithinOneBucketWidthOfTheKey) {
  constexpr long kWidth = 1000;
  Index idx;
  TestNode lo(0), hi(kSlots * kWidth - 1);
  idx.publish(lo.key, &lo);
  idx.publish(hi.key, &hi);
  std::deque<TestNode> mids;
  for (int b = 0; b < kSlots; ++b) mids.emplace_back(b * kWidth + kWidth / 2);
  for (TestNode& n : mids) {
    idx.publish(n.key, &n);
    EXPECT_EQ(idx.slot_node(idx.bucket(n.key)), &n) << "key " << n.key;
  }
  // The span ends were overwritten by the mids of the end buckets.
  for (int s = 0; s < kSlots; ++s) {
    EXPECT_NE(idx.slot_node(s), &lo);
    EXPECT_NE(idx.slot_node(s), &hi);
  }

  EXPECT_EQ(idx.best(mids.front().key, below(mids.front().key)), nullptr);
  for (long k = mids.front().key + 1; k < kSlots * kWidth; k += 7) {
    TestNode* n = idx.best(k, below(k));
    ASSERT_NE(n, nullptr) << "key " << k;
    EXPECT_LT(n->key, k);
    EXPECT_LE(k - n->key, kWidth) << "key " << k << " got " << n->key;
  }
}

// A validator that always refuses sees each slot at most once and
// kMaxProbes calls in total at most, however many slots are full below
// the key -- the wait-free lookup bound.
TEST(HintIndexRouting, RefusingValidatorRunsAtMostOncePerSlot) {
  Index idx;
  std::deque<TestNode> nodes;
  for (int b = 0; b < kSlots; ++b) nodes.emplace_back(b * 100L);
  // Both span ends first, so every node is homed in a bucket of its
  // own.
  idx.publish(nodes.front().key, &nodes.front());
  idx.publish(nodes.back().key, &nodes.back());
  for (TestNode& n : nodes) {
    idx.publish(n.key, &n);
    ASSERT_EQ(idx.slot_node(static_cast<int>(n.key / 100)), &n);
  }
  for (const long k : {kMax, 31050L, 3150L, 50L, 0L}) {
    std::array<int, kSlots> calls{};
    int total = 0;
    EXPECT_EQ(idx.best(k,
                       [&](TestNode*, int slot) {
                         ++calls[static_cast<std::size_t>(slot)];
                         ++total;
                         return false;
                       }),
              nullptr);
    EXPECT_LE(total, kMaxProbes) << "key " << k;
    for (int s = 0; s < kSlots; ++s)
      EXPECT_LE(calls[static_cast<std::size_t>(s)], 1)
          << "slot " << s << " key " << k;
    // Every slot at or below the key's bucket is full and below k
    // (bar k's own), so only the budget ends the walk.
    if (k >= 3150) {
      EXPECT_EQ(total, kMaxProbes) << "key " << k;
    }
  }
}

// Sparse index: one node every 37 buckets. The probes after the key's
// own bucket follow the occupancy bitmap, so every lookup still starts
// at the nearest node below its key, however many empty buckets lie in
// between, in one validation.
TEST(HintIndexRouting, SparseIndexStillYieldsTheNearestNodeBelow) {
  constexpr long kWidth = 1000;
  constexpr int kGap = 37;
  Index idx;
  TestNode lo(0), hi(kSlots * kWidth - 1);
  idx.publish(lo.key, &lo);
  idx.publish(hi.key, &hi);
  idx.purge(&lo);
  idx.purge(&hi);
  std::deque<TestNode> nodes;
  for (int b = kGap; b < kSlots; b += kGap)
    nodes.emplace_back(b * kWidth + kWidth / 2);
  for (TestNode& n : nodes) idx.publish(n.key, &n);

  for (long k = 0; k < kSlots * kWidth; k += 997) {
    const TestNode* want = nullptr;
    for (const TestNode& n : nodes)
      if (n.key < k) want = &n;
    int calls = 0;
    EXPECT_EQ(idx.best(k,
                       [&](TestNode* n, int slot) {
                         ++calls;
                         return below(k)(n, slot);
                       }),
              want)
        << "key " << k;
    EXPECT_LE(calls, 1) << "key " << k;
  }
}

// A lone node in bucket 0 is still found from the top bucket: the
// empty buckets in between cost bitmap words, not probes.
TEST(HintIndexRouting, FarCandidateInBucketZeroIsStillFound) {
  Index idx;
  TestNode lone(0), top(1'000'000);
  idx.publish(lone.key, &lone);
  idx.publish(top.key, &top);
  ASSERT_EQ(idx.slot_node(0), &lone);
  ASSERT_EQ(idx.slot_node(kSlots - 1), &top);
  idx.purge(&top);
  ASSERT_EQ(idx.slot_node(kSlots - 1), nullptr);
  ASSERT_EQ(idx.bucket(top.key), kSlots - 1);
  int calls = 0;
  EXPECT_EQ(idx.best(top.key,
                     [&](TestNode* n, int slot) {
                       ++calls;
                       EXPECT_EQ(slot, 0);
                       return below(top.key)(n, slot);
                     }),
            &lone);
  EXPECT_EQ(calls, 1);
}

// n is published under the [0, 1000) mapping; a widen to [0, 10^12)
// moves n's key to another bucket. purge(n) must still clear the slot
// that names it: n's home, which the widen does not move.
TEST(HintIndexSafety, PurgeAfterWidenClearsEverySlotNamingTheNode) {
  Index idx;
  TestNode lo(0), hi(999), n(500), far(1'000'000'000'000L - 1);
  idx.publish(lo.key, &lo);
  idx.publish(hi.key, &hi);
  idx.publish(n.key, &n);
  const int old_slot = idx.bucket(n.key);
  ASSERT_EQ(idx.slot_node(old_slot), &n);

  idx.publish(far.key, &far);
  ASSERT_NE(idx.bucket(n.key), old_slot) << "the widen did not move n";
  ASSERT_EQ(idx.slot_node(old_slot), &n);

  idx.purge(&n);
  for (int s = 0; s < kSlots; ++s) EXPECT_NE(idx.slot_node(s), &n) << s;
  EXPECT_NE(idx.best(n.key + 1, below(n.key + 1)), &n);
}

// A node's home follows its bucket: after the span widens, publishing
// it again re-homes it into its new bucket and clears the old slot, so
// one slot names it and purge's one-slot clear stays complete.
TEST(HintIndexSafety, HomeFollowsItsBucketAcrossAWiden) {
  Index idx;
  TestNode lo(0), hi(999), n(500), far(1'000'000'000'000L - 1);
  idx.publish(lo.key, &lo);
  idx.publish(hi.key, &hi);
  idx.publish(n.key, &n);
  const int home = idx.bucket(n.key);
  ASSERT_EQ(n.hint_slot.load(), home);
  ASSERT_EQ(idx.slot_node(home), &n);

  idx.publish(far.key, &far);
  const int now = idx.bucket(n.key);
  ASSERT_NE(now, home) << "the widen did not move n";
  idx.publish(n.key, &n);
  EXPECT_EQ(n.hint_slot.load(), now);
  EXPECT_EQ(idx.slot_node(now), &n);
  for (int s = 0; s < kSlots; ++s) {
    if (s != now) {
      EXPECT_NE(idx.slot_node(s), &n) << s;
    }
  }

  idx.purge(&n);
  for (int s = 0; s < kSlots; ++s) EXPECT_NE(idx.slot_node(s), &n) << s;
  EXPECT_EQ(n.hint_slot.load(), now);  // purge never re-homes
}

// A lookup that probes a slot whose node a widen routed to another
// bucket drops it rather than start a walk far below its key; n keeps
// its home, and its purge then finds no slot naming it.
TEST(HintIndexSafety, LookupDropsASlotAWidenMovedItsNodeOutOf) {
  Index idx;
  TestNode lo(0), hi(999), n(500), far(1'000'000'000'000L - 1);
  idx.publish(lo.key, &lo);
  idx.publish(hi.key, &hi);
  idx.publish(n.key, &n);
  const int home = idx.bucket(n.key);
  ASSERT_EQ(idx.slot_node(home), &n);
  idx.publish(far.key, &far);
  ASSERT_NE(idx.bucket(n.key), home) << "the widen did not move n";

  long k = far.key / kSlots * home + 1;  // a key of bucket `home` now
  while (idx.bucket(k) < home) k += far.key / kSlots / 4;
  ASSERT_EQ(idx.bucket(k), home);
  EXPECT_EQ(idx.best(k, below(k)), &lo);
  EXPECT_EQ(idx.slot_node(home), nullptr);
  EXPECT_EQ(n.hint_slot.load(), home);

  idx.purge(&n);
  for (int s = 0; s < kSlots; ++s) EXPECT_NE(idx.slot_node(s), &n) << s;
}

// A node that was never published has no home, and its purge reads no
// slot: every slot keeps what it held.
TEST(HintIndexSafety, PurgeOfANeverPublishedNodeChangesNoSlot) {
  Index idx;
  std::deque<TestNode> nodes;
  for (int b = 0; b < kSlots; ++b) nodes.emplace_back(b * 10L);
  idx.publish(nodes.front().key, &nodes.front());
  idx.publish(nodes.back().key, &nodes.back());
  for (TestNode& n : nodes) idx.publish(n.key, &n);
  std::vector<TestNode*> before(kSlots);
  for (int s = 0; s < kSlots; ++s) {
    before[static_cast<std::size_t>(s)] = idx.slot_node(s);
    ASSERT_NE(before[static_cast<std::size_t>(s)], nullptr) << s;
  }
  TestNode fresh(505);
  ASSERT_EQ(fresh.hint_slot.load(), -1);
  idx.purge(&fresh);
  EXPECT_EQ(fresh.hint_slot.load(), -1);
  for (int s = 0; s < kSlots; ++s)
    EXPECT_EQ(idx.slot_node(s), before[static_cast<std::size_t>(s)]) << s;
}

// Slab reuse: a slot destroyed and re-constructed at the same address
// starts homeless again, so the next tenant's first publish picks its
// own bucket instead of inheriting the previous tenant's.
TEST(HintIndexSafety, SlabReuseResetsTheHome) {
  alloc::SlabPool<TestNode> pool(alloc::Mode::kSlab);
  Index idx;
  TestNode lo(0), hi(1'000'000);
  idx.publish(lo.key, &lo);
  idx.publish(hi.key, &hi);
  TestNode* a = pool.construct(400'000L);
  idx.publish(a->key, a);
  const int home = a->hint_slot.load();
  ASSERT_EQ(home, idx.bucket(a->key));
  ASSERT_TRUE(a->next.cas_mark(nullptr));
  idx.purge(a);
  EXPECT_EQ(idx.slot_node(home), nullptr);
  pool.destroy(a);

  TestNode* b = pool.construct(800'000L);
  ASSERT_EQ(static_cast<void*>(b), static_cast<void*>(a));
  EXPECT_EQ(b->hint_slot.load(), -1);
  idx.publish(b->key, b);
  EXPECT_EQ(b->hint_slot.load(), idx.bucket(b->key));
  EXPECT_NE(b->hint_slot.load(), home);
  EXPECT_EQ(idx.slot_node(idx.bucket(b->key)), b);
  idx.purge(b);
  pool.destroy(b);
}

// A node that is already marked when published withdraws itself (the
// publish re-check), so no slot names it afterwards.
TEST(HintIndexSafety, PublishOfAMarkedNodeSelfClears) {
  Index idx;
  TestNode n(42);
  ASSERT_TRUE(n.next.cas_mark(nullptr));
  idx.publish(n.key, &n);
  for (int s = 0; s < kSlots; ++s) EXPECT_EQ(idx.slot_node(s), nullptr);
}

// Index over [0, kSlots * 100): bucket b holds keys [100 b, 100 b + 100).
void span_of_width_100(Index& idx) {
  TestNode lo(0), hi(kSlots * 100L - 1);
  idx.publish(lo.key, &lo);
  idx.publish(hi.key, &hi);
  idx.purge(&lo);
  idx.purge(&hi);
}

// An op whose start came from its walk's end bucket publishes nothing:
// that slot's node stays, with its routing key, and the walk's end is
// never even homed.
TEST(HintIndexPublishOnMiss, OpStartingInItsOwnBucketLeavesTheSlot) {
  Index idx;
  span_of_width_100(idx);
  std::deque<TestNode> nodes;
  nodes.emplace_back(1010);
  nodes.emplace_back(1050);
  TestNode& low = nodes[0];
  TestNode& high = nodes[1];
  idx.publish(low.key, &low);
  ASSERT_EQ(idx.slot_node(10), &low);

  for (const long k : {1051L, 1060L, 1099L}) {
    EXPECT_EQ(read_op(idx, nodes, k), &low) << "key " << k;
    EXPECT_EQ(idx.slot_node(10), &low) << "key " << k;
  }
  EXPECT_EQ(high.hint_slot.load(), -1) << "the walk's end was published";
  // The routing key is still low's: a lookup at high's own key, which
  // a slot keyed `high` would refuse, still starts at low.
  EXPECT_EQ(idx.best(high.key, below(high.key)), &low);
}

// Start every slot at its bucket's highest node, then run random read
// ops: each bucket's slot only ever moves down, and settles on the
// lowest live node of its bucket.
TEST(HintIndexPublishOnMiss, SlotConvergesToItsBucketsLowestLiveNode) {
  constexpr int kFirst = 10, kLast = 20;  // buckets holding nodes
  const std::uint64_t seed = test::env_seed(18);
  test::ReproOnFailure repro(seed);
  Index idx;
  span_of_width_100(idx);
  std::deque<TestNode> nodes;
  for (int b = kFirst; b < kLast; ++b)
    for (const long off : {10L, 30L, 50L, 70L, 90L})
      nodes.emplace_back(b * 100L + off);
  for (int b = kFirst; b < kLast; ++b) {
    TestNode& top = nodes[static_cast<std::size_t>((b - kFirst) * 5 + 4)];
    idx.publish(top.key, &top);
    ASSERT_EQ(idx.slot_node(b), &top);
  }

  workload::Rng rng(seed);
  for (int op = 0; op < 4000; ++op) {
    std::vector<long> before;
    for (int b = kFirst; b < kLast; ++b)
      before.push_back(idx.slot_node(b)->key);
    const long key = static_cast<long>(rng.below((kLast - kFirst) * 100));
    read_op(idx, nodes, kFirst * 100L + key);
    for (int b = kFirst; b < kLast; ++b) {
      const TestNode* n = idx.slot_node(b);
      ASSERT_NE(n, nullptr) << "bucket " << b << " op " << op;
      ASSERT_LE(n->key, before[static_cast<std::size_t>(b - kFirst)])
          << "bucket " << b << " rose at op " << op;
    }
  }
  for (int b = kFirst; b < kLast; ++b)
    EXPECT_EQ(idx.slot_node(b)->key, b * 100L + 10) << "bucket " << b;
}

// A purge empties a slot; the next op that walks into that bucket from
// a lower one publishes its walk's end there.
TEST(HintIndexPublishOnMiss, PurgedBucketIsRepublishedByTheNextMiss) {
  Index idx;
  span_of_width_100(idx);
  std::deque<TestNode> nodes;
  nodes.emplace_back(950);   // bucket 9
  nodes.emplace_back(1010);  // bucket 10, its lowest
  nodes.emplace_back(1050);  // bucket 10
  for (TestNode& n : nodes) read_op(idx, nodes, n.key + 1);
  ASSERT_EQ(idx.slot_node(9), &nodes[0]);
  ASSERT_EQ(idx.slot_node(10), &nodes[1]);

  ASSERT_TRUE(nodes[1].next.cas_mark(nullptr));
  idx.purge(&nodes[1]);
  ASSERT_EQ(idx.slot_node(10), nullptr);

  EXPECT_EQ(read_op(idx, nodes, 1070), &nodes[0]) << "start from bucket 9";
  EXPECT_EQ(idx.slot_node(10), &nodes[2]);
  EXPECT_EQ(nodes[2].hint_slot.load(), 10);
}

// The index one shard of an 8-way hash-sharded set carries: its keys
// are a pseudo-random eighth of the key space, so most buckets stay
// empty. Once read ops have run over it, every lookup starts within
// the bucket of the nearest live node below its key -- at that
// bucket's lowest node, in one validation.
TEST(HintIndexPublishOnMiss, SparseShardIndexYieldsTheNearestNodeBelow) {
  constexpr long kUniverse = 2048;
  const std::uint64_t seed = test::env_seed(19);
  test::ReproOnFailure repro(seed);
  std::deque<TestNode> nodes;
  for (long k = 0; k < kUniverse; ++k)
    if (shard::shard_of(k, 8) == 0) nodes.emplace_back(k);
  ASSERT_GT(nodes.size(), 200u);
  // Settle the span first: a node homed while the span was still
  // narrower would route to its new bucket only from its next publish
  // (see HomeFollowsItsBucketAcrossAWiden).
  Index idx;
  TestNode lo(0), hi(kUniverse - 1);
  idx.publish(lo.key, &lo);
  idx.publish(hi.key, &hi);
  idx.purge(&lo);
  idx.purge(&hi);
  workload::Rng rng(seed);
  for (int op = 0; op < 20000; ++op)
    read_op(idx, nodes, static_cast<long>(rng.below(kUniverse)));

  int occupied = 0;
  for (int s = 0; s < kSlots; ++s) occupied += idx.slot_node(s) != nullptr;
  EXPECT_LT(occupied, kSlots / 2) << "not a sparse index";

  for (long k = nodes.front().key + 1; k < kUniverse; ++k) {
    const TestNode* pred = nullptr;  // the walk's end
    const TestNode* lowest = nullptr;  // the lowest node in pred's bucket
    for (const TestNode& n : nodes) {
      if (n.key >= k) break;
      pred = &n;
    }
    for (const TestNode& n : nodes) {
      if (idx.bucket(n.key) == idx.bucket(pred->key)) {
        lowest = &n;
        break;
      }
    }
    int calls = 0;
    EXPECT_EQ(idx.best(k,
                       [&](TestNode* n, int slot) {
                         ++calls;
                         return below(k)(n, slot);
                       }),
              lowest)
        << "key " << k;
    EXPECT_LE(calls, 1) << "key " << k;
  }
}

TEST(HintIndexRouting, ExtremeKeysStayInRange) {
  const std::vector<long> probes = {kMin,      kMin + 1, -1'000'000L, -10L,
                                    -1L,       0L,       1L,          7L,
                                    8L,        1L << 40, kMax - 1,    kMax};
  {
    Index idx;  // empty span: everything routes to bucket 0
    expect_monotone_in_range(idx, probes);
    EXPECT_EQ(idx.bucket(kMax), 0);
  }
  {
    Index idx;  // single-key span
    TestNode n(7);
    idx.publish(n.key, &n);
    expect_monotone_in_range(idx, probes);
    EXPECT_EQ(idx.best(8, below(8)), &n);
    EXPECT_EQ(idx.best(7, below(7)), nullptr);
    EXPECT_EQ(idx.best(kMax, below(kMax)), &n);
  }
  {
    Index idx;  // the widest span the engines can publish
    TestNode a(kMin + 1), z(kMax);
    idx.publish(a.key, &a);
    idx.publish(z.key, &z);
    expect_monotone_in_range(idx, probes);
    EXPECT_EQ(idx.bucket(kMin), 0);
    EXPECT_EQ(idx.bucket(kMax), kSlots - 1);
    EXPECT_EQ(idx.best(kMax, below(kMax)), &a);
    EXPECT_EQ(idx.best(0, below(0)), &a);
  }
  {
    Index idx;  // an all-negative span
    TestNode a(-1'000'000L), z(-10L);
    idx.publish(a.key, &a);
    idx.publish(z.key, &z);
    expect_monotone_in_range(idx, probes);
    EXPECT_EQ(idx.bucket(a.key), 0);
    EXPECT_EQ(idx.bucket(z.key), kSlots - 1);
    EXPECT_EQ(idx.best(-9, below(-9)), &z);
    EXPECT_EQ(idx.best(-11, below(-11)), &a);
  }
}

TEST(HintIndexRouting, DisabledIndexNeverReturnsACandidate) {
  Index idx(/*enabled=*/false);
  EXPECT_FALSE(idx.enabled());
  TestNode a(10), b(20);
  idx.publish(a.key, &a);
  idx.publish(b.key, &b);
  int calls = 0;
  for (const long k : {kMin, 0L, 15L, 25L, kMax}) {
    EXPECT_EQ(idx.best(k,
                       [&](TestNode*, int) {
                         ++calls;
                         return true;
                       }),
              nullptr);
  }
  EXPECT_EQ(calls, 0);
  for (int s = 0; s < kSlots; ++s) EXPECT_EQ(idx.slot_node(s), nullptr);
}

// Racing widens: four threads publish keys spread over ever larger
// magnitudes at once. Whatever order their span updates land in, the
// last scale stored must match the final span, so the index routes
// exactly like one that saw only the two span ends.
TEST(HintIndexRouting, RacingWidensSettleOnTheFinalSpan) {
  constexpr int kThreads = 4;
  const std::uint64_t seed = test::env_seed(14);
  test::ReproOnFailure repro(seed);
  Index idx;
  std::vector<TestNode> nodes(kThreads);
  std::atomic<long> lo{kMax}, hi{kMin};
  harness::run_team(
      kThreads,
      [&](int t) {
        workload::Rng rng(workload::thread_seed(seed, t));
        TestNode& n = nodes[static_cast<std::size_t>(t)];
        long my_lo = kMax, my_hi = kMin;
        for (long scale = 1; scale <= 1'000'000'000'000L; scale *= 10) {
          for (int i = 0; i < 200; ++i) {
            const long k = (static_cast<long>(rng.below(2001)) - 1000) * scale;
            idx.publish(k, &n);
            if (k < my_lo) my_lo = k;
            if (k > my_hi) my_hi = k;
            // Lookups race the widens; any answer must be in range.
            const int b = idx.bucket(k);
            EXPECT_TRUE(b >= 0 && b < kSlots) << b;
          }
        }
        long cur = lo.load();
        while (my_lo < cur && !lo.compare_exchange_weak(cur, my_lo)) {
        }
        cur = hi.load();
        while (my_hi > cur && !hi.compare_exchange_weak(cur, my_hi)) {
        }
      },
      /*pin=*/false);

  Index ref;
  TestNode a(lo.load()), z(hi.load());
  ref.publish(a.key, &a);
  ref.publish(z.key, &z);
  workload::Rng rng(seed);
  for (int i = 0; i < 1000; ++i) {
    const long k = lo.load() + static_cast<long>(rng.below(
                                   static_cast<std::uint64_t>(hi.load()) -
                                   static_cast<std::uint64_t>(lo.load())));
    EXPECT_EQ(idx.bucket(k), ref.bucket(k)) << "key " << k;
  }
  EXPECT_EQ(idx.bucket(hi.load()), kSlots - 1);
}


// --- re-indexing -------------------------------------------------------

/// A single-threaded model of a list under the engine glue: `nodes` are
/// the live nodes in key order, and a read op takes hint::start's
/// candidate, walks to the first node >= its key (counting the nodes
/// examined, as core::locate does), offers the walk's end to
/// hint::maybe_publish and folds the walk into a hint::WalkWindow. A
/// removal purges the node before it goes, as the engines' retirement
/// paths do.
class ModelList {
 public:
  Index idx;

  /// Live nodes at keys first, first + step, ... (n of them).
  ModelList(long first, long step, long n) {
    for (long i = 0; i < n; ++i) nodes_.emplace_back(first + i * step);
  }

  /// One read op toward `key`; returns the nodes its walk examined.
  long read(long key) {
    NoHazards rh;
    int from = -1;
    bool own = false;
    TestNode* start = core::hint::start<false>(idx, rh, key, from, &own);
    const long ge = index_of(key);  // first node >= key
    const long at = start != nullptr ? index_of(start->key) : -1;
    const long size = static_cast<long>(nodes_.size());
    const long steps = std::min(ge, size - 1) - at;
    TestNode* end = ge > 0 ? &nodes_[static_cast<std::size_t>(ge - 1)] : &head_;
    core::hint::maybe_publish(idx, from, &head_, end);
    core::hint::note_walk(idx, window_, own, steps);
    total_steps_ += steps;
    ++total_reads_;
    return steps;
  }

  /// Slide the window up: the lowest node goes, a new one `step` above
  /// the highest comes in.
  void slide(long step) {
    TestNode& low = nodes_.front();
    ASSERT_TRUE(low.next.cas_mark(nullptr));
    idx.purge(&low);
    const long top = nodes_.back().key;
    nodes_.pop_front();
    nodes_.emplace_back(top + step);
  }

  long lowest() const { return nodes_.front().key; }
  long highest() const { return nodes_.back().key; }

  /// Mean walk of the reads since the last call.
  double take_mean_walk() {
    const double mean = total_reads_ > 0 ? static_cast<double>(total_steps_) /
                                               static_cast<double>(total_reads_)
                                         : 0.0;
    total_steps_ = total_reads_ = 0;
    return mean;
  }

  /// The live node just below `key` -- where a walk toward it ends.
  const TestNode* pred(long key) const {
    const long ge = index_of(key);
    return ge > 0 ? &nodes_[static_cast<std::size_t>(ge - 1)] : nullptr;
  }

 private:
  long index_of(long key) const {
    return std::lower_bound(nodes_.begin(), nodes_.end(), key,
                            [](const TestNode& n, long k) { return n.key < k; }) -
           nodes_.begin();
  }

  TestNode head_{kMin};
  std::deque<TestNode> nodes_;
  core::hint::WalkWindow window_;
  long total_steps_ = 0;
  long total_reads_ = 0;
};

/// Every lookup toward a key of [lo, hi] starts within one bucket width
/// of the current table below where its walk ends.
void expect_best_within_one_bucket(const ModelList& m, long lo, long hi) {
  const long buckets = m.idx.bucket(hi) - m.idx.bucket(lo) + 1;
  const long width = (hi - lo + 1) / buckets + 1;
  for (long k = lo; k <= hi; k += 3) {
    const TestNode* want = m.pred(k);
    if (want == nullptr) continue;
    const TestNode* got = m.idx.best(k, below(k));
    ASSERT_NE(got, nullptr) << "key " << k;
    EXPECT_LE(got->key, want->key) << "key " << k;
    EXPECT_LE(want->key - got->key, width)
        << "key " << k << " slots " << m.idx.slots();
  }
}

// The list_mix shape: 5000 live keys, every other key of [0, 10000),
// read at uniform keys. At 1024 slots walks cross ~5 keys a bucket, so
// the index grows until they are short, then stays put; afterwards
// every lookup starts within one bucket width of its walk's end.
TEST(HintIndexReindex, DenseSetGrowsUntilWalksAreShortThenSettles) {
  const std::uint64_t seed = test::env_seed(26);
  test::ReproOnFailure repro(seed);
  ModelList m(0, 2, 5000);
  workload::Rng rng(seed);
  for (int op = 0; op < 200000; ++op)
    m.read(static_cast<long>(rng.below(10000)));
  const unsigned settled = m.idx.generation();
  EXPECT_GE(settled, 1u) << "the index never grew";
  EXPECT_GT(m.idx.slots(), kSlots);
  m.take_mean_walk();
  for (int op = 0; op < 100000; ++op)
    m.read(static_cast<long>(rng.below(10000)));
  EXPECT_LE(m.take_mean_walk(), 2.0);
  EXPECT_EQ(m.idx.generation(), settled) << "a settled set re-indexed";
  expect_best_within_one_bucket(m, 1, 9999);
}

// A window of 2000 live keys slides up by 100 times its width. Each
// re-index takes the new key range in, so after the slide walks are as
// short as on a static window and lookups start within one bucket.
TEST(HintIndexReindex, DriftingWindowIsFollowed) {
  constexpr long kWidth = 2000;
  const std::uint64_t seed = test::env_seed(27);
  test::ReproOnFailure repro(seed);
  ModelList m(0, 2, kWidth);
  workload::Rng rng(seed);
  const auto read_in_window = [&] {
    const long span = m.highest() - m.lowest();
    return m.read(m.lowest() + static_cast<long>(rng.below(
                                   static_cast<std::uint64_t>(span) + 1)));
  };
  for (int op = 0; op < 50000; ++op) read_in_window();
  m.take_mean_walk();
  for (int op = 0; op < 50000; ++op) read_in_window();
  const double fixed = m.take_mean_walk();
  const unsigned before = m.idx.generation();

  for (long s = 0; s < 100 * kWidth; ++s) {
    m.slide(2);
    for (int r = 0; r < 4; ++r) read_in_window();
  }
  EXPECT_GT(m.idx.generation(), before + 10) << "the span never moved";
  m.take_mean_walk();
  for (int op = 0; op < 50000; ++op) read_in_window();
  EXPECT_LE(m.take_mean_walk(), 2 * fixed + 0.5)
      << "static window walked " << fixed;
  expect_best_within_one_bucket(m, m.lowest() + 1, m.highest());
}

// A static range whose walks are short -- 1000 keys over 1024 slots --
// never re-indexes, however long it runs.
TEST(HintIndexReindex, StaticRangeNeverReindexes) {
  const std::uint64_t seed = test::env_seed(28);
  test::ReproOnFailure repro(seed);
  ModelList m(0, 2, 1000);
  workload::Rng rng(seed);
  for (int op = 0; op < 300000; ++op)
    m.read(static_cast<long>(rng.below(2000)));
  EXPECT_EQ(m.idx.generation(), 0u);
  EXPECT_EQ(m.idx.slots(), kSlots);
}

// The slot-memory bound: an index driven to its largest size class
// holds at most kMaxSlotBytes, below four times its current table, at
// every step; at the cap it stops growing.
TEST(HintIndexReindex, SlotMemoryStaysWithinTheStatedBound) {
  constexpr long kKeys = Index::kMaxSlots;  // one key per largest-class bucket
  static_assert(Index::kMaxSlotBytes <= 40u << 20, "the stated ~34 MB bound");
  std::deque<TestNode> nodes;
  for (long k = 0; k < kKeys; ++k) nodes.emplace_back(k);
  Index idx;
  idx.publish(nodes.front().key, &nodes.front());
  idx.publish(nodes.back().key, &nodes.back());
  for (int step = 0; step < 2 * Index::kClasses; ++step) {
    // Fill every bucket of the current table, then report long walks.
    const long stride = kKeys / idx.slots();
    for (long k = 0; k < kKeys; k += stride)
      idx.publish(k, &nodes[static_cast<std::size_t>(k)]);
    idx.reindex();
    EXPECT_LE(idx.slot_bytes(), Index::kMaxSlotBytes) << "step " << step;
    EXPECT_LT(idx.slot_bytes(), 4 * Index::table_bytes(idx.slots()))
        << "step " << step;
    EXPECT_LE(idx.slots(), Index::kMaxSlots) << "step " << step;
  }
  EXPECT_EQ(idx.slots(), Index::kMaxSlots) << "never reached the cap";
  const unsigned at_cap = idx.generation();
  const long stride = kKeys / idx.slots();
  for (long k = 0; k < kKeys; k += stride)
    idx.publish(k, &nodes[static_cast<std::size_t>(k)]);
  idx.reindex();
  EXPECT_EQ(idx.generation(), at_cap) << "grew past the cap";
}

// Across a re-index a node's home moves with it: the next publish
// re-homes it into the new table and clears the old slot, so purge
// still finds the one slot that names it.
TEST(HintIndexReindex, RehomedNodeLeavesNoSlotBehind) {
  std::deque<TestNode> nodes;
  for (long k = 0; k < 4 * kSlots; k += 2) nodes.emplace_back(k);
  Index idx;
  idx.publish(nodes.front().key, &nodes.front());  // settle the span first
  idx.publish(nodes.back().key, &nodes.back());
  for (TestNode& n : nodes) idx.publish(n.key, &n);
  TestNode n(1001);  // between two published keys
  idx.publish(n.key, &n);
  const int home = n.hint_slot.load();
  ASSERT_EQ(idx.slot_node(home), &n);
  // Every bucket holds a node: a long-walk report grows the index.
  idx.reindex();
  ASSERT_EQ(idx.generation(), 1u);
  ASSERT_EQ(idx.slot_node(home), &n) << "a growth leaves the old table";
  idx.publish(n.key, &n);
  const int moved = n.hint_slot.load();
  EXPECT_NE(moved, home);
  EXPECT_NE(idx.slot_node(home), &n) << "the old slot still names n";
  EXPECT_EQ(idx.slot_node(moved), &n);
  ASSERT_TRUE(n.next.cas_mark(nullptr));
  idx.purge(&n);
  EXPECT_NE(idx.slot_node(moved), &n);
}

// The engine on the list_mix shape, one thread: walk_steps is what
// locate paid, and once the index has grown a point op walks at most
// two nodes on average.
TEST(HintIndexReindex, EngineWalksAtMostTwoNodesPerOpOnTheListMixShape) {
  const std::uint64_t seed = test::env_seed(30);
  test::ReproOnFailure repro(seed);
  core::SinglyFetchOrListEbr list;
  auto h = list.make_handle();
  workload::Rng rng(seed);
  for (long i = 0; i < 5000;)
    i += h.add(static_cast<long>(rng.below(10000)));
  const auto run = [&](long ops) {
    for (long i = 0; i < ops; ++i) {
      const long key = static_cast<long>(rng.below(10000));
      switch (workload::kTableMix.pick(rng)) {
        case workload::OpKind::kAdd: h.add(key); break;
        case workload::OpKind::kRemove: h.remove(key); break;
        default: h.contains(key); break;
      }
    }
  };
  run(200000);
  const core::HintStats grown = list.hint_stats();
  EXPECT_GT(grown.slots, kSlots);
  const core::OpCounters before = h.counters();
  run(100000);
  const core::OpCounters after = h.counters();
  const double per_op =
      static_cast<double>(after.walk_steps - before.walk_steps) /
      static_cast<double>(after.total_ops() - before.total_ops());
  EXPECT_LE(per_op, 2.0);
  EXPECT_EQ(list.hint_stats().reindexes, grown.reindexes);
  std::string err;
  EXPECT_TRUE(list.validate(&err)) << err;
}

// The paper's same-keys shape in lock step (perfbench's list_retry):
// four threads add 0..9999, meet, remove them, for several rounds. The
// per-handle cursors keep walks short, so the index never re-indexes.
TEST(HintIndexReindex, LockStepSameKeysNeverReindexes) {
  constexpr int kThreads = 4;
  constexpr long kKeys = 10000;
  core::SinglyFetchOrListEbr list;
  for (int round = 0; round < 4; ++round) {
    std::atomic<int> added{0};
    harness::run_team(
        kThreads,
        [&](int) {
          auto h = list.make_handle();
          for (long k = 0; k < kKeys; ++k) h.add(k);
          added.fetch_add(1);
          while (added.load() < kThreads) std::this_thread::yield();
          for (long k = 0; k < kKeys; ++k) h.remove(k);
        },
        /*pin=*/false);
    ASSERT_EQ(list.size(), 0u) << "round " << round;
  }
  EXPECT_EQ(list.hint_stats().reindexes, 0);
  EXPECT_EQ(list.hint_stats().slots, kSlots);
}

}  // namespace
}  // namespace pragmalist
