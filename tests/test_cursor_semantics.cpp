// Cursor regression: the cursor is a performance hint and must never
// change set semantics. Drive every cursor-augmented lock-free list
// through single-handle schedules (ascending build first -- the pattern
// where the cursor actually short-circuits -- then mixed churn) and
// demand op-for-op result equality with the SequentialCursorList
// oracle; also cross-check two independent handles whose cursors
// diverge on the same shared list. Every cursor variant runs under
// every reclaimer: the cursor is on under EBR too, where it is only
// followed within the epoch it was stamped in (the EbrCursorEpoch
// suite below pins that rule). The OneCasPerUpdate test pins the mild
// update rule the cursor rides on: decided ops issue no CAS.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/harness/catalog.hpp"
#include "src/workload/rng.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

template <typename List>
class CursorSemantics : public ::testing::Test {};

using CursorLists =
    ::testing::Types<core::SinglyCursorList, core::SinglyFetchOrList,
                     core::DoublyCursorList, core::DoublyCursorNoPrecList,
                     core::SinglyCursorBackoffList, core::SinglyCursorListEbr,
                     core::SinglyCursorListHp, core::SinglyFetchOrListEbr,
                     core::SinglyFetchOrListHp, core::DoublyCursorListEbr,
                     core::DoublyCursorListHp>;
TYPED_TEST_SUITE(CursorSemantics, CursorLists);

TYPED_TEST(CursorSemantics, AscendingBuildMatchesOracle) {
  TypeParam list;
  auto h = list.make_handle();
  baselines::SequentialCursorList oracle;

  for (long k = 0; k < 500; ++k) {
    ASSERT_EQ(h.add(k), oracle.add(k)) << "add " << k;
    // Re-adding the key the cursor sits on must still be rejected.
    ASSERT_EQ(h.add(k), oracle.add(k)) << "re-add " << k;
    // Membership probes around the cursor position.
    ASSERT_EQ(h.contains(k), oracle.contains(k));
    ASSERT_EQ(h.contains(k + 1), oracle.contains(k + 1));
  }
  EXPECT_EQ(list.snapshot(), oracle.snapshot());
  std::string err;
  EXPECT_TRUE(list.validate(&err)) << err;
}

TYPED_TEST(CursorSemantics, MixedScheduleMatchesOracle) {
  TypeParam list;
  auto h = list.make_handle();
  baselines::SequentialCursorList oracle;
  workload::Rng rng(4242);

  for (int i = 0; i < 6000; ++i) {
    const long k = static_cast<long>(rng.below(128));
    switch (rng.below(3)) {
      case 0:
        ASSERT_EQ(h.add(k), oracle.add(k)) << "op " << i << " add " << k;
        break;
      case 1:
        ASSERT_EQ(h.remove(k), oracle.remove(k))
            << "op " << i << " remove " << k;
        break;
      default:
        ASSERT_EQ(h.contains(k), oracle.contains(k))
            << "op " << i << " contains " << k;
        break;
    }
  }
  EXPECT_EQ(list.snapshot(), oracle.snapshot());
  EXPECT_EQ(list.size(), oracle.size());
}

// Two handles on one list have independent cursors; interleaving them
// (one walking up, one walking down) must not perturb semantics.
TYPED_TEST(CursorSemantics, TwoHandlesWithDivergentCursors) {
  TypeParam list;
  auto up = list.make_handle();
  auto down = list.make_handle();
  baselines::SequentialCursorList oracle;

  for (long k = 0; k < 200; ++k) {
    const long hi = 399 - k;
    ASSERT_EQ(up.add(k), oracle.add(k));
    ASSERT_EQ(down.add(hi), oracle.add(hi));
  }
  EXPECT_EQ(list.size(), 400u);
  for (long k = 0; k < 200; ++k) {
    const long hi = 399 - k;
    ASSERT_EQ(up.remove(k), oracle.remove(k));
    ASSERT_EQ(down.contains(k), oracle.contains(k));
    ASSERT_EQ(down.remove(hi), oracle.remove(hi));
    ASSERT_EQ(up.contains(hi), oracle.contains(hi));
  }
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.snapshot(), oracle.snapshot());
  std::string err;
  EXPECT_TRUE(list.validate(&err)) << err;
}

// The paper's same-keys pattern, one step at a time: a follower
// re-adding the keys a leader already inserted finds each one present,
// and every search after its first must start from its own cursor --
// under EBR as under the arena and HP.
constexpr long kFollowKeys = 400;

template <typename Handle>
void leader_then_follower(Handle& leader, Handle& follower) {
  for (long k = 0; k < kFollowKeys; ++k) ASSERT_TRUE(leader.add(k)) << k;
  for (long k = 0; k < kFollowKeys; ++k) ASSERT_FALSE(follower.add(k)) << k;
}

TYPED_TEST(CursorSemantics, FollowerStartsFromItsCursor) {
  TypeParam list;
  auto leader = list.make_handle();
  auto follower = list.make_handle();
  leader_then_follower(leader, follower);
  EXPECT_GE(follower.counters().cursor_hits, kFollowKeys - 1);
  EXPECT_EQ(list.size(), static_cast<std::size_t>(kFollowKeys));
}

// Each shard of a sharded EBR set keeps its own epoch-stamped cursor
// under the worker's one borrowed reclaim handle, so the follower only
// misses the first add of each shard.
TEST(ShardedCursor, EbrFollowerStartsFromEachShardsCursor) {
  constexpr long kShards = 4;
  auto set = harness::make_set("singly_fetch_or/ebr/sh4");
  auto leader = set->make_handle();
  auto follower = set->make_handle();
  leader_then_follower(*leader, *follower);
  EXPECT_GE(follower->counters().cursor_hits, kFollowKeys - kShards);
  std::string err;
  EXPECT_TRUE(set->validate(&err)) << err;
}

// Back-pointer recovery (rows c and f): handle A parks its cursor on
// node 900, handle B removes 900, and A's next search starts from 900's
// live predecessor 899 -- reached over the dead node's back hint --
// instead of from the head. Only the arena follows back hints; the
// singly cursor row drops a dead cursor, and under EBR the hints are
// maintained but never followed, so neither takes a cursor start.
// Hints are off, so the cursor is the only shortcut.
template <typename List>
long cursor_hits_after_losing_the_cursor_node() {
  List list(nullptr, /*hints=*/false);
  auto a = list.make_handle();
  auto b = list.make_handle();
  for (long k = 0; k < 1000; ++k) EXPECT_TRUE(a.add(k));
  EXPECT_TRUE(a.contains(901));  // the cursor parks on node 900
  EXPECT_TRUE(b.remove(900));
  const long hits = a.counters().cursor_hits;
  EXPECT_TRUE(a.contains(950));
  std::string err;
  EXPECT_TRUE(list.validate(&err)) << err;
  EXPECT_EQ(list.size(), 999u);
  return a.counters().cursor_hits - hits;
}

TEST(BackPointerRecovery, OnlyArenaBackPointerRowsKeepTheCursor) {
  EXPECT_EQ(cursor_hits_after_losing_the_cursor_node<core::DoublyCursorList>(),
            1);
  EXPECT_EQ(
      cursor_hits_after_losing_the_cursor_node<core::DoublyCursorNoPrecList>(),
      1);
  EXPECT_EQ(cursor_hits_after_losing_the_cursor_node<core::SinglyCursorList>(),
            0);
  EXPECT_EQ(
      cursor_hits_after_losing_the_cursor_node<core::DoublyCursorListEbr>(),
      0);
}

// One CAS per effective update, on the mild arena/EBR rows: a remove
// that crashed after its mark leaves key 5 marked but still linked.
// Ops whose walk decides the answer -- removing the absent 5, adding
// the present 6, looking 6 up -- issue no CAS, so they must leave the
// dead node exactly where it is: nothing detached, nothing retired, no
// restart. The next effective update at that position, add(5), carries
// the dead node out inside its own insert CAS and retires it.
template <typename List>
void decided_ops_leave_the_dead_node_to_the_next_update() {
  List list;
  auto h = list.make_handle();
  for (long k = 0; k < 10; ++k) ASSERT_TRUE(h.add(k));
  {
    auto crashed = list.make_handle();
    crashed.abandon(faults::FaultKind::kMidOpAbandon, 5);
  }
  ASSERT_EQ(list.size(), 9u);
  ASSERT_EQ(list.linked_node_count(), 10u);
  const std::size_t limbo = list.limbo_nodes();

  EXPECT_FALSE(h.remove(5));
  EXPECT_FALSE(h.add(6));
  EXPECT_TRUE(h.contains(6));
  EXPECT_EQ(list.linked_node_count(), 10u) << "a decided op swept";
  EXPECT_EQ(list.limbo_nodes(), limbo) << "a decided op retired";
  EXPECT_EQ(h.counters().restarts, 0);

  EXPECT_TRUE(h.add(5));
  EXPECT_EQ(list.linked_node_count(), 10u)
      << "the insert CAS did not detach the dead node";
  EXPECT_EQ(list.limbo_nodes(), limbo + (List::Reclaim::kReclaims ? 1 : 0));
  EXPECT_EQ(h.counters().restarts, 0);
  EXPECT_EQ(list.snapshot(), (std::vector<long>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  std::string err;
  EXPECT_TRUE(list.validate(&err)) << err;
}

TEST(OneCasPerUpdate, DecidedOpsLeaveTheDeadNodeToTheNextUpdate) {
  decided_ops_leave_the_dead_node_to_the_next_update<
      core::SinglyFetchOrListWith<reclaim::Ebr>>();
  decided_ops_leave_the_dead_node_to_the_next_update<
      core::SinglyListWith<reclaim::Ebr>>();
  decided_ops_leave_the_dead_node_to_the_next_update<core::DoublyCursorList>();
}

// A cursor saved in one epoch must never be followed after the epoch
// moved: its node may be freed by then. Park a handle's cursor on a
// node, remove and retire that node from another handle, push the
// epoch on until a free pass releases it (slab mode: the slot goes back
// to the pool, poisoned under ASan; heap mode: deleted, so ASan flags
// any read), then run the stale handle: it must take no cursor start,
// answer correctly and leave a valid list.
template <typename List>
class EbrCursorEpoch : public ::testing::Test {};

using EbrCursorLists =
    ::testing::Types<core::SinglyCursorListEbr, core::SinglyFetchOrListEbr,
                     core::DoublyCursorListEbr>;
TYPED_TEST_SUITE(EbrCursorEpoch, EbrCursorLists);

TYPED_TEST(EbrCursorEpoch, StaleCursorIsDroppedOnceTheEpochMoved) {
  for (const alloc::Mode mode : {alloc::Mode::kSlab, alloc::Mode::kHeap}) {
    auto domain = std::make_shared<typename TypeParam::Reclaim>(mode);
    TypeParam list(domain);
    auto stale = list.make_handle();
    for (const long k : {10L, 20L, 30L}) ASSERT_TRUE(stale.add(k));
    ASSERT_FALSE(stale.contains(25));  // the cursor parks on node 20
    {
      auto remover = list.make_handle();
      ASSERT_TRUE(remover.remove(20));
    }  // departure: a last collect, the young bag goes to the orphans
    const std::uint64_t parked = domain->epoch();
    auto spare = domain->make_handle();
    for (int i = 0; i < 3; ++i) spare.collect();
    ASSERT_GE(domain->epoch(), parked + 2);
    ASSERT_EQ(domain->limbo_nodes(), 0u) << "node 20 was not freed";

    const long hits = stale.counters().cursor_hits;
    EXPECT_FALSE(stale.contains(25));
    EXPECT_EQ(stale.counters().cursor_hits, hits)
        << "followed a cursor stamped in an earlier epoch";
    EXPECT_FALSE(stale.contains(20));
    EXPECT_TRUE(stale.add(20));
    EXPECT_TRUE(stale.add(25));
    EXPECT_EQ(list.snapshot(), (std::vector<long>{10, 20, 25, 30}));
    std::string err;
    EXPECT_TRUE(list.validate(&err)) << err;
  }
}

}  // namespace
}  // namespace pragmalist
