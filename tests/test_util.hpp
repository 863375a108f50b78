// Shared helpers for the pragmalist test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/baselines/sequential_list.hpp"
#include "src/core/variants.hpp"
#include "src/harness/catalog.hpp"

#if defined(__GLIBC__)
// glibc's argv[0], for copy-paste repro lines (declared here so the
// header needs no _GNU_SOURCE).
extern "C" char* program_invocation_name;
#endif

namespace pragmalist::test {

/// The seed a randomized test actually runs with: PRAGMALIST_SEED from
/// the environment when set, `def` otherwise. Paired with
/// ReproOnFailure so a failing run prints the exact command that
/// replays it.
inline std::uint64_t env_seed(std::uint64_t def) {
  const char* s = std::getenv("PRAGMALIST_SEED");
  if (s == nullptr || *s == '\0') return def;
  return static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
}

/// RAII repro printer for randomized tests: construct one at the top
/// of the test (or of each seed iteration) with the seed in use; if
/// the enclosed scope produces a *new* gtest failure, the destructor
/// prints a copy-paste repro line:
///
///   repro: PRAGMALIST_SEED=7 ./test_soak --gtest_filter=Suite.Name
///
/// Recording HasFailure() at construction keeps multi-seed loops
/// honest: only the iteration that first failed prints, with *its*
/// seed, not every iteration after it.
class ReproOnFailure {
 public:
  explicit ReproOnFailure(std::uint64_t seed)
      : seed_(seed), had_failure_(::testing::Test::HasFailure()) {}

  ReproOnFailure(const ReproOnFailure&) = delete;
  ReproOnFailure& operator=(const ReproOnFailure&) = delete;

  ~ReproOnFailure() {
    if (!::testing::Test::HasFailure() || had_failure_) return;
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
#if defined(__GLIBC__)
    const char* binary = program_invocation_name;
#else
    const char* binary = "<test-binary>";
#endif
    std::cerr << "repro: PRAGMALIST_SEED=" << seed_ << " " << binary
              << " --gtest_filter=" << (info ? info->test_suite_name() : "?")
              << "." << (info ? info->name() : "?") << "\n";
  }

 private:
  std::uint64_t seed_;
  bool had_failure_;
};

/// Uniform single-threaded facade over both API styles: the lock-free
/// lists (operations live on a per-thread Handle) and the sequential
/// baselines (operations live on the list itself). Gives the typed
/// tests one shape for all eight structures.
template <typename List>
struct HandleFacade {
  List list;
  typename List::Handle h{list.make_handle()};

  bool add(long k) { return h.add(k); }
  bool remove(long k) { return h.remove(k); }
  bool contains(long k) { return h.contains(k); }
  core::OpCounters counters() const { return h.counters(); }
  std::vector<long> snapshot() const { return list.snapshot(); }
  std::size_t size() const { return list.size(); }
  bool validate(std::string* err) const { return list.validate(err); }
};

template <typename List>
struct DirectFacade {
  List list;

  bool add(long k) { return list.add(k); }
  bool remove(long k) { return list.remove(k); }
  bool contains(long k) { return list.contains(k); }
  core::OpCounters counters() const { return list.counters(); }
  std::vector<long> snapshot() const { return list.snapshot(); }
  std::size_t size() const { return list.size(); }
  bool validate(std::string* err) const { return list.validate(err); }
};

inline std::vector<long> sorted_unique(std::vector<long> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// The ids the catalog-wide suites run: every catalog id plus the
/// textbook Michael list on both domains, which is row a's
/// `/heap/nohint` twin and the reference row of the benches, and one
/// twin of each other layer axis: heap node memory under the headline
/// engine, and the fat-node engine's unhinted read path under HP.
inline std::vector<std::string_view> catalog_test_ids() {
  std::vector<std::string_view> ids = harness::all_variant_ids();
  ids.push_back("draconic/hp/heap/nohint");
  ids.push_back("draconic/ebr/heap/nohint");
  ids.push_back("singly_fetch_or/ebr/heap");
  ids.push_back("unrolled_k8/hp/nohint");
  return ids;
}

}  // namespace pragmalist::test
