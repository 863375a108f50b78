// Linearizability-style stress over a bounded key space: N threads
// record complete op histories (invocation/response ticks from one
// global clock plus the returned boolean), and a Wing&Gong-style
// search then asks whether some linearization order explains every
// result -- exploring exactly the sequential oracle's reachable-state
// set (a <=8-key set is a bitmask, so the oracle state space has at
// most 256 states and the search memoizes on frontier x state). Every
// pragmatic variant is checked under the arena and under both real
// reclaimers; a reclamation bug (a key resurrected through a recycled
// node, a lost insert through a freed predecessor) shows up here as a
// history no sequential order can explain.
//
// Range scans are checked against their documented contract (see
// core::ISetHandle): each key of the scanned range linearizes as its
// own atomic membership read somewhere inside the scan's [inv, res]
// window. The checker therefore expands a scan into per-key reads
// that may interleave freely with other operations (but never escape
// the window); an emitted key that was never simultaneously present,
// or an omitted key that was never absent, during the scan makes the
// history unexplainable. A scan is deliberately NOT modeled as one
// atomic snapshot -- the traversal-based implementation does not
// provide that (see the AcceptsWeaklyConsistentScan self-test for the
// distinguishing history), and the self-tests pin both sides of the
// boundary.
//
// Crashed threads (the fault tier's mid-op abandonment) record a final
// *pending* op: invoked, never responded. Wing & Gong's rule for a
// pending op is a branch point -- it either never took effect (skip it
// with no state change) or linearized somewhere after its invocation
// with a result nobody observed (apply the transition, any result).
// What a crash can NOT do is un-happen a completed op; the
// RejectsAContainsTrueAfterACompletedRemove self-test pins that.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/baselines/sequential_list.hpp"
#include "src/faults/faults.hpp"
#include "src/harness/catalog.hpp"
#include "src/harness/thread_team.hpp"
#include "src/workload/rng.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 30;
constexpr long kKeys = 6;  // <= 8 so a state is one bitmask byte

enum OpKind { kAdd, kRemove, kContains, kScan };

struct Op {
  OpKind kind;
  long key;  // point ops: the key; scans: the range's lo
  bool ok;
  long inv;  // global clock at invocation
  long res;  // global clock at response
  // Scan ops only: inclusive upper bound and the present-key bitmask
  // the scan reported for [key, hi].
  long hi = 0;
  unsigned observed = 0;
  // The thread crashed after invoking this op and never saw a
  // response: `ok` is meaningless and `res` must be kNever so the op
  // constrains nobody's real-time order. Always a thread's last op.
  bool pending = false;
};

/// The response tick of an op that never responded: later than every
/// real tick, so `min_res` is never lowered by a crashed op.
constexpr long kNever = std::numeric_limits<long>::max();

using History = std::vector<std::vector<Op>>;  // [thread][op order]

/// Bitmask over the scan range [lo, hi] (absolute key bits).
unsigned range_mask(long lo, long hi) {
  return ((1u << (hi + 1)) - 1u) & ~((1u << lo) - 1u);
}

/// Sequential set-semantics oracle on a bitmask state. Returns the
/// result the op must report from `state` and advances the state.
bool oracle_apply(OpKind kind, long key, unsigned& state) {
  const unsigned bit = 1u << key;
  switch (kind) {
    case kAdd: {
      const bool ok = (state & bit) == 0;
      state |= bit;
      return ok;
    }
    case kRemove: {
      const bool ok = (state & bit) != 0;
      state &= ~bit;
      return ok;
    }
    case kContains:
      return (state & bit) != 0;
    case kScan:
      break;  // scans expand into per-key reads inside the checker
  }
  return false;
}

/// Wing & Gong search with memoized failures: can the recorded history
/// be linearized from `initial`? A pending head op may be linearized
/// next iff no other pending op responded before it was invoked; its
/// recorded result must match the oracle transition.
class LinChecker {
 public:
  explicit LinChecker(const History& hist) : hist_(hist) {}

  bool linearizable(unsigned initial) {
    failed_.clear();
    std::vector<int> frontier(hist_.size(), 0);
    std::vector<unsigned> scan_done(hist_.size(), 0);
    return dfs(frontier, scan_done, initial);
  }

 private:
  // 12 bits per thread (6-bit frontier index, 6-bit scan progress)
  // plus the 8-bit oracle state: fits u64 for <= 4 threads x 64 ops.
  std::uint64_t encode(const std::vector<int>& frontier,
                       const std::vector<unsigned>& scan_done,
                       unsigned state) const {
    std::uint64_t key = state;
    for (std::size_t t = 0; t < frontier.size(); ++t)
      key = (key << 12) | (static_cast<std::uint64_t>(frontier[t]) << 6) |
            scan_done[t];
    return key;
  }

  bool dfs(std::vector<int>& frontier, std::vector<unsigned>& scan_done,
           unsigned state) {
    bool done = true;
    long min_res = std::numeric_limits<long>::max();
    for (std::size_t t = 0; t < hist_.size(); ++t) {
      if (frontier[t] >= static_cast<int>(hist_[t].size())) continue;
      done = false;
      const Op& o = hist_[t][static_cast<std::size_t>(frontier[t])];
      if (o.res < min_res) min_res = o.res;
    }
    if (done) return true;
    const std::uint64_t key = encode(frontier, scan_done, state);
    if (failed_.count(key) != 0) return false;
    for (std::size_t t = 0; t < hist_.size(); ++t) {
      if (frontier[t] >= static_cast<int>(hist_[t].size())) continue;
      const Op& o = hist_[t][static_cast<std::size_t>(frontier[t])];
      // Some other pending op finished before o began: o cannot be
      // linearized first (real-time order must be respected).
      if (o.inv > min_res) continue;
      if (o.kind == kScan) {
        // Linearize any one not-yet-linearized key of the range as an
        // atomic read whose result matches the scan's report; reads
        // within one scan may interleave with anything (per-key
        // atomicity). The scan completes when every key has read.
        const unsigned full = range_mask(o.key, o.hi);
        for (long k = o.key; k <= o.hi; ++k) {
          const unsigned bit = 1u << k;
          if ((scan_done[t] & bit) != 0) continue;
          if (((state & bit) != 0) != ((o.observed & bit) != 0)) continue;
          const unsigned prev = scan_done[t];
          scan_done[t] |= bit;
          const bool advanced = scan_done[t] == full;
          if (advanced) {
            scan_done[t] = 0;
            ++frontier[t];
          }
          const bool ok = dfs(frontier, scan_done, state);
          if (advanced) --frontier[t];
          scan_done[t] = prev;
          if (ok) return true;
        }
        continue;
      }
      if (o.pending) {
        // Crashed before responding. Branch 1: the op never took
        // effect -- drop it from the history with no state change.
        // (Deferring this branch behind the real-time gate above is
        // harmless: skipping linearizes nothing, so "skip now" and
        // "skip later" reach the same states.)
        ++frontier[t];
        bool ok = dfs(frontier, scan_done, state);
        if (!ok) {
          // Branch 2: it linearized somewhere after its invocation
          // with a result nobody observed -- apply the transition and
          // accept whatever the oracle returns.
          unsigned next = state;
          oracle_apply(o.kind, o.key, next);
          ok = dfs(frontier, scan_done, next);
        }
        --frontier[t];
        if (ok) return true;
        continue;
      }
      unsigned next = state;
      if (oracle_apply(o.kind, o.key, next) != o.ok) continue;
      ++frontier[t];
      const bool ok = dfs(frontier, scan_done, next);
      --frontier[t];
      if (ok) return true;
    }
    failed_.insert(key);
    return false;
  }

  const History& hist_;
  std::unordered_set<std::uint64_t> failed_;
};

/// Run one concurrent recording round against `set` and return the
/// per-thread histories (40/40/20 add/remove/contains over kKeys).
History record_history(core::ISet& set, std::uint64_t seed) {
  History hist(kThreads);
  std::atomic<long> clock{0};
  harness::run_team(
      kThreads,
      [&](int t) {
        auto h = set.make_handle();
        workload::Rng rng(workload::thread_seed(seed, t));
        auto& ops = hist[static_cast<std::size_t>(t)];
        ops.reserve(kOpsPerThread);
        for (int i = 0; i < kOpsPerThread; ++i) {
          Op op;
          op.key = static_cast<long>(rng.below(kKeys));
          const auto roll = rng.below(100);
          op.kind = roll < 40 ? kAdd : roll < 80 ? kRemove : kContains;
          op.inv = clock.fetch_add(1);
          switch (op.kind) {
            case kAdd: op.ok = h->add(op.key); break;
            case kRemove: op.ok = h->remove(op.key); break;
            case kContains: op.ok = h->contains(op.key); break;
            case kScan: break;  // this recorder draws no scans
          }
          op.res = clock.fetch_add(1);
          ops.push_back(op);
        }
      },
      /*pin=*/false);
  return hist;
}

/// Like record_history but with a scan share: 35/35/10/20
/// add/remove/contains/scan over kKeys. Half the scans are range_scan
/// windows of width 1-3, half are ascend(key, 1..3) pages, each mapped
/// to the window it read. Emissions are checked against the contract
/// (ascending, in range) on the spot.
History record_scan_history(core::ISet& set, std::uint64_t seed) {
  History hist(kThreads);
  std::atomic<long> clock{0};
  harness::run_team(
      kThreads,
      [&](int t) {
        auto h = set.make_handle();
        workload::Rng rng(workload::thread_seed(seed, t));
        auto& ops = hist[static_cast<std::size_t>(t)];
        ops.reserve(kOpsPerThread);
        for (int i = 0; i < kOpsPerThread; ++i) {
          Op op;
          op.key = static_cast<long>(rng.below(kKeys));
          const auto roll = rng.below(100);
          op.kind = roll < 35   ? kAdd
                    : roll < 70 ? kRemove
                    : roll < 80 ? kContains
                                : kScan;
          if (op.kind == kScan) {
            const bool bounded = rng.below(2) == 0;
            const long width = 1 + static_cast<long>(rng.below(3));
            long last = std::numeric_limits<long>::min();
            unsigned observed = 0;
            const auto observe = [&](long k, long hi) {
              EXPECT_TRUE(k >= op.key && k <= hi && k > last)
                  << "scan emitted " << k << " out of order or range";
              last = k;
              observed |= 1u << k;
            };
            if (bounded) {
              // The paging form (the sharded bounded merge SCAN uses):
              // a full page read [from, its last key]; a short one
              // read everything from `from` up.
              op.inv = clock.fetch_add(1);
              const std::vector<long> page =
                  h->ascend(op.key, static_cast<std::size_t>(width));
              op.res = clock.fetch_add(1);
              for (const long k : page) observe(k, kKeys - 1);
              op.hi = page.size() == static_cast<std::size_t>(width)
                          ? page.back()
                          : kKeys - 1;
            } else {
              op.hi = std::min<long>(kKeys - 1, op.key + width - 1);
              op.inv = clock.fetch_add(1);
              h->range_scan(op.key, op.hi,
                            [&](long k) { observe(k, op.hi); });
              op.res = clock.fetch_add(1);
            }
            op.observed = observed;
            op.ok = true;
            ops.push_back(op);
            continue;
          }
          op.inv = clock.fetch_add(1);
          switch (op.kind) {
            case kAdd: op.ok = h->add(op.key); break;
            case kRemove: op.ok = h->remove(op.key); break;
            case kContains: op.ok = h->contains(op.key); break;
            case kScan: break;  // handled above
          }
          op.res = clock.fetch_add(1);
          ops.push_back(op);
        }
      },
      /*pin=*/false);
  return hist;
}

/// Like record_history, but two threads crash mid-history the way the
/// fault tier crashes them: thread 0 dies *inside* a remove (mid-op
/// abandonment -- it may or may not have taken effect, recorded as a
/// pending op), thread 1 dies *between* ops holding its guard
/// (abort-with-guard-held -- no pending op, just a truncated history
/// and, under EBR/HP, a crashed lease for the supervisor to reap).
History record_crash_history(core::ISet& set, std::uint64_t seed) {
  History hist(kThreads);
  std::atomic<long> clock{0};
  harness::run_team(
      kThreads,
      [&](int t) {
        auto h = set.make_handle();
        workload::Rng rng(workload::thread_seed(seed, t));
        auto& ops = hist[static_cast<std::size_t>(t)];
        ops.reserve(kOpsPerThread);
        for (int i = 0; i < kOpsPerThread; ++i) {
          Op op;
          op.key = static_cast<long>(rng.below(kKeys));
          if (t == 0 && i == 10) {
            op.kind = kRemove;
            op.pending = true;
            op.inv = clock.fetch_add(1);
            op.res = kNever;
            h->abandon(faults::FaultKind::kMidOpAbandon, op.key);
            ops.push_back(op);
            return;  // crashed: no response, no further ops
          }
          if (t == 1 && i == 15) {
            h->abandon(faults::FaultKind::kAbortWithGuardHeld, op.key);
            return;  // crashed between ops: history just truncates
          }
          const auto roll = rng.below(100);
          op.kind = roll < 40 ? kAdd : roll < 80 ? kRemove : kContains;
          op.inv = clock.fetch_add(1);
          switch (op.kind) {
            case kAdd: op.ok = h->add(op.key); break;
            case kRemove: op.ok = h->remove(op.key); break;
            case kContains: op.ok = h->contains(op.key); break;
            case kScan: break;  // this recorder draws no scans
          }
          op.res = clock.fetch_add(1);
          ops.push_back(op);
        }
      },
      /*pin=*/false);
  return hist;
}

// --- checker self-tests (the checker must be able to say "no") -------

TEST(LinCheckerSelfTest, AcceptsASequentialHistory) {
  History hist(1);
  unsigned state = 0;
  workload::Rng rng(5);
  long clock = 0;
  for (int i = 0; i < 50; ++i) {
    Op op;
    op.key = static_cast<long>(rng.below(kKeys));
    op.kind = static_cast<OpKind>(rng.below(3));
    op.ok = oracle_apply(op.kind, op.key, state);
    op.inv = clock++;
    op.res = clock++;
    hist[0].push_back(op);
  }
  EXPECT_TRUE(LinChecker(hist).linearizable(0));
}

TEST(LinCheckerSelfTest, RejectsDoubleInsertInRealTimeOrder) {
  // T0 inserts key 0 and completes; T1 then also inserts key 0 and
  // reports success without anyone removing it: no order explains it.
  History hist(2);
  hist[0].push_back({kAdd, 0, true, 0, 1});
  hist[1].push_back({kAdd, 0, true, 2, 3});
  EXPECT_FALSE(LinChecker(hist).linearizable(0));
}

TEST(LinCheckerSelfTest, RejectsPhantomContains) {
  History hist(1);
  hist[0].push_back({kContains, 3, true, 0, 1});  // empty initial state
  EXPECT_FALSE(LinChecker(hist).linearizable(0));
}

TEST(LinCheckerSelfTest, AcceptsOverlappingRace) {
  // Two overlapping adds of the same key: either may be the winner.
  History hist(2);
  hist[0].push_back({kAdd, 2, true, 0, 3});
  hist[1].push_back({kAdd, 2, false, 1, 2});
  EXPECT_TRUE(LinChecker(hist).linearizable(0));
}

// --- scan-model self-tests -------------------------------------------

TEST(LinCheckerSelfTest, AcceptsAScanOfAQuiescentPrefix) {
  // add(1), add(3) complete, then a scan of [0, 4] reports exactly
  // {1, 3}: trivially explainable.
  History hist(1);
  hist[0].push_back({kAdd, 1, true, 0, 1});
  hist[0].push_back({kAdd, 3, true, 2, 3});
  hist[0].push_back({kScan, 0, true, 4, 5, 4, (1u << 1) | (1u << 3)});
  EXPECT_TRUE(LinChecker(hist).linearizable(0));
}

TEST(LinCheckerSelfTest, RejectsAPhantomScanKey) {
  // The scan reports key 2 present, but nothing ever added it.
  History hist(2);
  hist[0].push_back({kAdd, 1, true, 0, 1});
  hist[1].push_back({kScan, 0, true, 2, 3, 4, (1u << 1) | (1u << 2)});
  EXPECT_FALSE(LinChecker(hist).linearizable(0));
}

TEST(LinCheckerSelfTest, RejectsAScanThatEscapesItsWindow) {
  // The scan completes (res = 1) before add(2) even begins (inv = 2),
  // yet reports 2 present: the read cannot linearize inside its
  // window.
  History hist(2);
  hist[0].push_back({kScan, 0, true, 0, 1, 4, 1u << 2});
  hist[1].push_back({kAdd, 2, true, 2, 3});
  EXPECT_FALSE(LinChecker(hist).linearizable(0));
}

TEST(LinCheckerSelfTest, RejectsAScanMissingAStablySurroundingKey) {
  // Key 2 is present before the scan starts and never removed; a scan
  // of [0, 4] that omits it has no absent instant to read.
  History hist(2);
  hist[0].push_back({kAdd, 2, true, 0, 1});
  hist[1].push_back({kScan, 0, true, 2, 3, 4, 0u});
  EXPECT_FALSE(LinChecker(hist).linearizable(0));
}

TEST(LinCheckerSelfTest, AcceptsWeaklyConsistentScan) {
  // add(1) completes, then add(3) completes, both inside the scan's
  // window; the scan reports {3} but not 1. No single instant holds
  // {3} without 1 (1 was present before 3 ever was), so an
  // atomic-snapshot model would reject this history -- but the
  // traversal contract allows it: the walk passed position 1 before
  // add(1), then reached 3 after add(3). Per-key reads inside the
  // window explain it (read 1 absent early, read 3 present late), so
  // the checker must accept.
  History hist(2);
  hist[0].push_back({kScan, 0, true, 0, 5, 4, 1u << 3});
  hist[1].push_back({kAdd, 1, true, 1, 2});
  hist[1].push_back({kAdd, 3, true, 3, 4});
  EXPECT_TRUE(LinChecker(hist).linearizable(0));
}

TEST(LinCheckerSelfTest, ScanReadsNeverReorderOtherThreadsOps) {
  // T1 removes 2 strictly before T2 adds it back; a scan overlapping
  // only the gap between them must be able to report 2 absent.
  History hist(3);
  hist[0].push_back({kScan, 2, true, 3, 4, 2, 0u});
  hist[1].push_back({kAdd, 2, true, 0, 1});
  hist[1].push_back({kRemove, 2, true, 2, 3});
  hist[2].push_back({kAdd, 2, true, 5, 6});
  EXPECT_TRUE(LinChecker(hist).linearizable(0));
}

// --- crashed-thread (pending op) self-tests --------------------------

TEST(LinCheckerSelfTest, AcceptsACrashedAddThatTookEffect) {
  // T0 invokes add(0) and crashes; T1 later reads 0 present. Only the
  // "took effect" branch explains it -- the checker must find it.
  History hist(2);
  hist[0].push_back({kAdd, 0, false, 0, kNever, 0, 0, true});
  hist[1].push_back({kContains, 0, true, 1, 2});
  EXPECT_TRUE(LinChecker(hist).linearizable(0));
}

TEST(LinCheckerSelfTest, AcceptsACrashedAddThatNeverHappened) {
  // Same crash, but T1 reads 0 absent: the "never took effect" branch
  // explains it. A crashed op constrains nothing either way.
  History hist(2);
  hist[0].push_back({kAdd, 0, false, 0, kNever, 0, 0, true});
  hist[1].push_back({kContains, 0, false, 1, 2});
  EXPECT_TRUE(LinChecker(hist).linearizable(0));
}

TEST(LinCheckerSelfTest, RejectsAContainsTrueAfterACompletedRemove) {
  // T0 completed remove(0) before crashing on an unrelated key-1 op;
  // T1 then reads 0 present. The crash cannot un-happen the remove,
  // and the pending op touches the wrong key: no order explains it.
  History hist(2);
  hist[0].push_back({kAdd, 0, true, 0, 1});
  hist[0].push_back({kRemove, 0, true, 2, 3});
  hist[0].push_back({kAdd, 1, false, 4, kNever, 0, 0, true});
  hist[1].push_back({kContains, 0, true, 5, 6});
  EXPECT_FALSE(LinChecker(hist).linearizable(0));
}

// The bitmask model above *is* the sequential oracle: cross-check it
// against baselines::SequentialList on a long random schedule so the
// linearizability verdicts inherit the oracle's authority.
TEST(LinCheckerSelfTest, BitmaskModelMatchesSequentialOracle) {
  baselines::SequentialList oracle;
  unsigned state = 0;
  workload::Rng rng(29);
  for (int i = 0; i < 2000; ++i) {
    const long key = static_cast<long>(rng.below(kKeys));
    const auto kind = static_cast<OpKind>(rng.below(3));
    const bool expected = oracle_apply(kind, key, state);
    bool got = false;
    switch (kind) {
      case kAdd: got = oracle.add(key); break;
      case kRemove: got = oracle.remove(key); break;
      case kContains: got = oracle.contains(key); break;
      case kScan: continue;  // point-op oracle cross-check only
    }
    ASSERT_EQ(got, expected) << "op " << i;
  }
}

// --- the real thing --------------------------------------------------

class EveryPragmaticCombo
    : public ::testing::TestWithParam<std::string_view> {};

std::vector<std::string_view> pragmatic_and_reclaim_ids() {
  std::vector<std::string_view> ids = harness::paper_variant_ids();
  // The unrolled fat-node engine under its arena form; its ebr/hp and
  // sharded forms arrive through the catalog grids below.
  ids.push_back("unrolled_k8");
  const auto& combos = harness::reclaim_variant_ids();
  ids.insert(ids.end(), combos.begin(), combos.end());
  // The sharded grid (every combo behind >= 2 hash shards): the
  // Wing-Gong verdict must hold when the key space is partitioned
  // across lists sharing one reclamation domain -- a cross-shard
  // reclamation bug (e.g. a hazard cell clobbered by another shard)
  // shows up here as an unexplainable history.
  const auto& sharded = harness::sharded_variant_ids();
  ids.insert(ids.end(), sharded.begin(), sharded.end());
  return ids;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryPragmaticCombo,
    ::testing::ValuesIn(pragmatic_and_reclaim_ids()),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      for (char& c : name)
        if (c == '/') c = '_';
      return name;
    });

TEST_P(EveryPragmaticCombo, ConcurrentHistoriesAreLinearizable) {
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    auto set = harness::make_set(GetParam());
    const History hist = record_history(*set, seed);
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << err;
    EXPECT_TRUE(LinChecker(hist).linearizable(0))
        << GetParam() << ": history with seed " << seed
        << " admits no linearization";
  }
}

// The scan tier: histories with a 20% range-scan share must still be
// explainable, with every scan's keys linearizing as atomic reads
// inside the scan's window -- for every pragmatic variant under
// arena/EBR/HP and the whole sharded sh4 grid (where a scan is a k-way
// merge over shards sharing one reclamation domain, and a bounded
// ascend takes the share-sized paging path that SCAN uses).
TEST_P(EveryPragmaticCombo, ScanHistoriesAreLinearizable) {
  for (std::uint64_t seed = 60; seed < 65; ++seed) {
    auto set = harness::make_set(GetParam());
    const History hist = record_scan_history(*set, seed);
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << err;
    EXPECT_TRUE(LinChecker(hist).linearizable(0))
        << GetParam() << ": scan history with seed " << seed
        << " admits no linearization";
  }
}

// The crash tier: histories where thread 0 dies inside a remove and
// thread 1 dies holding its guard must still be explainable under the
// pending-op rule -- and stay explainable after the supervisor reaps
// the crashed leases (a reap that resurrected or lost a key would have
// produced the evidence *during* the recording of the next seed's
// survivors; validate() catches structural damage immediately).
TEST_P(EveryPragmaticCombo, CrashHistoriesAreLinearizable) {
  const std::uint64_t base = test::env_seed(80);
  for (std::uint64_t seed = base; seed < base + 4; ++seed) {
    test::ReproOnFailure repro(seed);
    auto set = harness::make_set(GetParam());
    const History hist = record_crash_history(*set, seed);
    set->reap_crashed();
    std::string err;
    ASSERT_TRUE(set->validate(&err)) << err;
    EXPECT_TRUE(LinChecker(hist).linearizable(0))
        << GetParam() << ": crash history with seed " << seed
        << " admits no linearization";
  }
}

}  // namespace
}  // namespace pragmalist
