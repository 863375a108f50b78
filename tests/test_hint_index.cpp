// Direct unit tests for the key-range hint index (src/core/hint_index.hpp):
// routing quality in dense and sparse indexes, the bounded wait-free
// lookup, the per-node home slot and the O(1) purge across a span
// widen, extreme and negative key spans, the publish self-clear rule,
// the publish-on-miss rule of the engine glue (namespace hint) and the
// disabled index. The engines' use of the index is covered by
// the catalog-wide suites; these pin the index's own contract. The
// ASan+UBSan and TSan CI legs run this binary by its `hint` label.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <deque>
#include <limits>
#include <vector>

#include "src/alloc/slab.hpp"
#include "src/core/hint_index.hpp"
#include "src/core/list_base.hpp"
#include "src/harness/thread_team.hpp"
#include "src/shard/shard_map.hpp"
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

// A node's first publish fixes its home slot for life: after the span
// widens, publishing it again is a no-op rather than a second slot
// naming it, so purge's one-slot clear stays complete.
TEST(HintIndexSafety, HomeSlotIsSticky) {
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
  EXPECT_EQ(n.hint_slot.load(), home);
  for (int s = 0; s < kSlots; ++s) {
    if (s != home) {
      EXPECT_NE(idx.slot_node(s), &n) << s;
    }
  }

  idx.purge(&n);
  for (int s = 0; s < kSlots; ++s) EXPECT_NE(idx.slot_node(s), &n) << s;
  EXPECT_EQ(n.hint_slot.load(), home);  // purge never re-homes
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
  // narrower keeps that home for life (see HomeSlotIsSticky).
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

}  // namespace
}  // namespace pragmalist
