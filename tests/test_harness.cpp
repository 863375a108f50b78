// Harness and workload unit tests: options parsing, catalog wiring,
// RNG determinism, distributions, op mixes, stats, table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "src/harness/catalog.hpp"
#include "src/harness/options.hpp"
#include "src/harness/stats.hpp"
#include "src/harness/table.hpp"
#include "src/workload/distributions.hpp"
#include "src/workload/op_mix.hpp"
#include "src/workload/rng.hpp"
#include "src/workload/schedule.hpp"

namespace pragmalist {
namespace {

harness::Options parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prog"));
  for (auto& a : args) argv.push_back(a.data());
  return harness::Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, ParsesSpaceAndEqualsAndBareFlags) {
  const auto opt =
      parse({"--threads", "8", "--n=1234", "--paper", "--no-pin"});
  EXPECT_EQ(opt.get_int("threads", 1), 8);
  EXPECT_EQ(opt.get_long("n", 0), 1234);
  EXPECT_TRUE(opt.get_bool("paper"));
  EXPECT_TRUE(opt.get_bool("no-pin"));
  EXPECT_FALSE(opt.get_bool("absent"));
  EXPECT_EQ(opt.get_int("absent", 42), 42);
}

TEST(Options, GetStringReturnsRawValueOrDefault) {
  const auto opt = parse({"--variants", "a,c,e", "--bare"});
  EXPECT_EQ(opt.get_string("variants", "all"), "a,c,e");
  EXPECT_EQ(opt.get_string("missing", "all"), "all");
  EXPECT_EQ(opt.get_string("bare", "def"), "def");
}

TEST(Options, ParsesLongLists) {
  const auto opt = parse({"--threads", "1,2,4,8"});
  EXPECT_EQ(opt.get_longs("threads", {}),
            (std::vector<long>{1, 2, 4, 8}));
  EXPECT_EQ(opt.get_longs("missing", {3, 5}),
            (std::vector<long>{3, 5}));
}

TEST(Options, GetLongsSkipsEmptyItemsAndZerosBadOnes) {
  // Stray commas are skipped; non-integer items warn and parse as 0
  // (the get_long contract, item-wise); an all-empty value falls back
  // to the default, as do bare flags.
  const auto opt = parse({"--shards", "1,,4,", "--bad", "x,2", "--none=,,"});
  EXPECT_EQ(opt.get_longs("shards", {}), (std::vector<long>{1, 4}));
  EXPECT_EQ(opt.get_longs("bad", {}), (std::vector<long>{0, 2}));
  EXPECT_EQ(opt.get_longs("none", {7}), (std::vector<long>{7}));
  const auto bare = parse({"--shards"});
  EXPECT_EQ(bare.get_longs("shards", {9}), (std::vector<long>{9}));
}

TEST(Options, ListFlavorsShareOneSplitter) {
  // get_longs and get_string_list are the same comma splitter; the
  // string view of a numeric list tokenizes identically.
  const auto opt = parse({"--xs", "10,,20,30,"});
  EXPECT_EQ(opt.get_longs("xs", {}), (std::vector<long>{10, 20, 30}));
  EXPECT_EQ(opt.get_string_list("xs", {}),
            (std::vector<std::string>{"10", "20", "30"}));
}

TEST(Options, HostPortParsesBothHalvesOrEither) {
  const harness::Options::HostPort def{"127.0.0.1", 7111};
  const auto opt = parse({"--listen", "0.0.0.0:9000", "--port-only",
                          ":8080", "--host-only", "10.1.2.3"});
  EXPECT_EQ(opt.get_host_port("listen", def).host, "0.0.0.0");
  EXPECT_EQ(opt.get_host_port("listen", def).port, 9000);
  // Either side may be omitted and keeps its default.
  EXPECT_EQ(opt.get_host_port("port-only", def).host, "127.0.0.1");
  EXPECT_EQ(opt.get_host_port("port-only", def).port, 8080);
  EXPECT_EQ(opt.get_host_port("host-only", def).host, "10.1.2.3");
  EXPECT_EQ(opt.get_host_port("host-only", def).port, 7111);
  EXPECT_EQ(opt.get_host_port("absent", def).port, 7111);
}

TEST(Options, HostPortRejectsBadPortsWhole) {
  // A broken port discards the whole value (warn + default, the
  // get_long contract) -- no half-applied host with a default port.
  const harness::Options::HostPort def{"127.0.0.1", 7111};
  for (const char* bad : {"h:99999", "h:-1", "h:x", "h:80x"}) {
    const auto opt = parse({"--listen", bad});
    const auto hp = opt.get_host_port("listen", def);
    EXPECT_EQ(hp.host, "127.0.0.1") << bad;
    EXPECT_EQ(hp.port, 7111) << bad;
  }
}

TEST(Options, DurationSuffixesScaleToMilliseconds) {
  const auto opt =
      parse({"--a", "500ms", "--b", "5s", "--c", "2m", "--d", "1h",
             "--e", "3", "--f", "0.25s", "--g", "0"});
  EXPECT_EQ(opt.get_duration_ms("a", 0), 500);
  EXPECT_EQ(opt.get_duration_ms("b", 0), 5000);
  EXPECT_EQ(opt.get_duration_ms("c", 0), 120000);
  EXPECT_EQ(opt.get_duration_ms("d", 0), 3600000);
  // Bare numbers stay seconds: `--duration 3` has always meant 3 s.
  EXPECT_EQ(opt.get_duration_ms("e", 0), 3000);
  EXPECT_EQ(opt.get_duration_ms("f", 0), 250);
  EXPECT_EQ(opt.get_duration_ms("g", 99), 0);
  EXPECT_EQ(opt.get_duration_ms("absent", 42), 42);
}

TEST(Options, DurationRejectsJunkAndNegatives) {
  const auto opt = parse({"--a", "5x", "--b", "-1s", "--c", "ms",
                          "--d", "1 h"});
  EXPECT_EQ(opt.get_duration_ms("a", 7), 7);
  EXPECT_EQ(opt.get_duration_ms("b", 7), 7);
  EXPECT_EQ(opt.get_duration_ms("c", 7), 7);
  EXPECT_EQ(opt.get_duration_ms("d", 7), 7);
}

TEST(Catalog, PaperVariantsAreTheSixRows) {
  const auto& ids = harness::paper_variant_ids();
  ASSERT_EQ(ids.size(), 6u);
  EXPECT_EQ(harness::variant_letter(ids[0]), "a");
  EXPECT_EQ(harness::variant_letter(ids[5]), "f");
  EXPECT_EQ(harness::figure_variant_ids().size(), 5u);
  EXPECT_EQ(harness::variant_letter("nonsense"), "-");
}

TEST(Catalog, EveryIdConstructsAWorkingSet) {
  for (const auto id : harness::all_variant_ids()) {
    auto set = harness::make_set(id);
    ASSERT_NE(set, nullptr) << id;
    EXPECT_EQ(set->name(), id);
    auto h = set->make_handle();
    EXPECT_TRUE(h->add(1));
    EXPECT_TRUE(h->add(2));
    EXPECT_FALSE(h->add(1));
    EXPECT_TRUE(h->contains(2));
    EXPECT_TRUE(h->remove(1));
    EXPECT_EQ(set->size(), 1u);
    std::string err;
    EXPECT_TRUE(set->validate(&err)) << id << ": " << err;
  }
}

// The id grammar's rejections: a typo, a suffix on a plain row, a
// shard count outside [1, 1024].
TEST(CatalogDeathTest, RejectsMalformedIds) {
  const char* kPlainOnly = "takes no /ebr, /hp or /shN";
  EXPECT_DEATH(harness::make_set("nonsense"), "unknown variant 'nonsense'");
  EXPECT_DEATH(harness::make_set("coarse_lock/nohint"), "no hint index");
  EXPECT_DEATH(harness::make_set("skiplist/sh4"), kPlainOnly);
  EXPECT_DEATH(harness::make_set("lazy_lock/ebr"), kPlainOnly);
  EXPECT_DEATH(harness::make_set("doubly_cursor_noprec/hp"), kPlainOnly);
  EXPECT_DEATH(harness::make_set("singly/sh0"), "shard count");
  EXPECT_DEATH(harness::make_set("singly/sh1025"), "shard count");
}

TEST(Catalog, EverySuffixComposes) {
  auto set = harness::make_set("unrolled-k8/hp/sh2/heap/nohint");
  EXPECT_EQ(set->name(), "unrolled-k8/hp/sh2/heap/nohint");
  EXPECT_EQ(set->shard_count(), 2);
  auto h = set->make_handle();
  EXPECT_TRUE(h->add(5));
  EXPECT_TRUE(h->contains(5));
}

// docs/CATALOG.md names every id backticked, and every shardable base
// (each engine under each reclaimer) in its `base/shN` form.
TEST(Catalog, EveryIdIsDocumented) {
  std::ifstream in(PRAGMALIST_SOURCE_DIR "/docs/CATALOG.md");
  ASSERT_TRUE(in) << "cannot open docs/CATALOG.md";
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto documented = [&](std::string_view id) {
    return doc.find("`" + std::string(id) + "`") != std::string::npos;
  };
  const auto& engines = harness::engine_variant_ids();
  int bases = 0;
  for (const auto id : harness::all_variant_ids()) {
    EXPECT_TRUE(documented(id)) << id << " is missing from docs/CATALOG.md";
    const auto engine = id.substr(0, id.find('/'));
    if (std::find(engines.begin(), engines.end(), engine) == engines.end())
      continue;
    ++bases;
    EXPECT_TRUE(documented(std::string(id) + "/shN"))
        << id << "/shN is missing from docs/CATALOG.md";
  }
  EXPECT_EQ(bases, static_cast<int>(3 * engines.size()));
}

TEST(Rng, DeterministicAndSeedSplit) {
  workload::Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  bool differs = false;
  for (int i = 0; i < 100; ++i) differs |= (a() != c());
  EXPECT_TRUE(differs);
  EXPECT_NE(workload::thread_seed(42, 0), workload::thread_seed(42, 1));
  EXPECT_EQ(workload::thread_seed(42, 3), workload::thread_seed(42, 3));
}

TEST(Rng, BelowStaysInRange) {
  workload::Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Distributions, UniformCoversTheUniverse) {
  workload::Rng rng(9);
  const workload::UniformKeys keys(32);
  std::vector<int> seen(32, 0);
  for (int i = 0; i < 20000; ++i) {
    const long k = keys(rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 32);
    ++seen[static_cast<std::size_t>(k)];
  }
  for (int i = 0; i < 32; ++i) EXPECT_GT(seen[i], 0) << "key " << i;
}

TEST(Distributions, ZipfIsSkewedAndInRange) {
  workload::Rng rng(11);
  const workload::ZipfKeys keys(1024, 0.99);
  long hot = 0;
  for (int i = 0; i < 20000; ++i) {
    const long k = keys(rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 1024);
    hot += (k == 0);
  }
  // Rank 1 of zipf(0.99) over 1024 keys carries ~13% of the mass;
  // uniform would give ~0.1%.
  EXPECT_GT(hot, 20000 / 50);
}

TEST(OpMix, PercentagesAreRespected) {
  workload::Rng rng(13);
  const workload::OpMix mix{25, 25, 40, 10};
  int add = 0, rem = 0, con = 0, scan = 0;
  for (int i = 0; i < 40000; ++i) {
    switch (mix.pick(rng)) {
      case workload::OpKind::kAdd: ++add; break;
      case workload::OpKind::kRemove: ++rem; break;
      case workload::OpKind::kContains: ++con; break;
      case workload::OpKind::kScan: ++scan; break;
    }
  }
  EXPECT_NEAR(add, 10000, 600);
  EXPECT_NEAR(rem, 10000, 600);
  EXPECT_NEAR(con, 16000, 800);
  EXPECT_NEAR(scan, 4000, 400);
  EXPECT_EQ(workload::kTableMix.con_pct, 80);
  EXPECT_EQ(workload::kScalingMix.add_pct, 25);
  // The paper mixes never scan; their streams stay golden.
  EXPECT_EQ(workload::kTableMix.scan_pct, 0);
  EXPECT_EQ(workload::kScalingMix.scan_pct, 0);
}

TEST(Schedule, SameAndDisjointKeys) {
  using workload::KeySchedule;
  EXPECT_EQ(workload::schedule_key(KeySchedule::kSameKeys, 3, 17, 8), 17);
  EXPECT_EQ(workload::schedule_key(KeySchedule::kDisjointKeys, 3, 17, 8),
            3 + 17 * 8);
}

TEST(Stats, SummarizeBasics) {
  const auto s = harness::summarize({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
  EXPECT_EQ(s.n, 3u);
  EXPECT_TRUE(s.stddev_defined());
}

TEST(Stats, SummarizeSmallSamples) {
  // Empty: nothing is defined; stddev is NaN, not a fake 0.0.
  const auto none = harness::summarize({});
  EXPECT_EQ(none.n, 0u);
  EXPECT_FALSE(none.stddev_defined());
  EXPECT_TRUE(std::isnan(none.stddev));

  // One sample: mean/min/max are the sample, but a single observation
  // has no spread -- stddev must be NaN (flagged), never 0.0, so a
  // caller cannot mistake "no information" for "perfectly stable".
  const auto one = harness::summarize({5.0});
  EXPECT_EQ(one.n, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 5.0);
  EXPECT_DOUBLE_EQ(one.min, 5.0);
  EXPECT_DOUBLE_EQ(one.max, 5.0);
  EXPECT_FALSE(one.stddev_defined());
  EXPECT_TRUE(std::isnan(one.stddev));

  // Two samples: the smallest n where spread exists (sample stddev,
  // n-1 denominator): {1,3} -> sqrt(2).
  const auto two = harness::summarize({1.0, 3.0});
  EXPECT_EQ(two.n, 2u);
  EXPECT_DOUBLE_EQ(two.mean, 2.0);
  EXPECT_TRUE(two.stddev_defined());
  EXPECT_DOUBLE_EQ(two.stddev, std::sqrt(2.0));
}

TEST(Table, SummaryCellsRenderEmDashNotNanWhenSpreadIsUndefined) {
  // n < 2: stddev is NaN by design, but nothing downstream may print
  // "nan" -- the table shows an em dash and the CSV leaves the stddev
  // field empty (distinguishable from a real 0.0).
  const auto one = harness::summarize({12.34});
  EXPECT_EQ(harness::summary_cell(one, 1), "12.3 —");
  EXPECT_EQ(harness::stddev_cell(one, 1), "—");
  EXPECT_EQ(harness::summary_csv_fields(one, 1), "12.3,");

  // n >= 2: spread exists, rendered as +-value at the asked precision.
  const auto two = harness::summarize({1.0, 3.0});  // stddev sqrt(2)
  EXPECT_EQ(harness::summary_cell(two, 2), "2.00 ±1.41");
  EXPECT_EQ(harness::stddev_cell(two, 2), "±1.41");
  EXPECT_EQ(harness::summary_csv_fields(two, 2), "2.00,1.41");

  // The empty summary (no samples at all) renders the dash too, never
  // "nan" for the mean's neighbour.
  const auto none = harness::summarize({});
  EXPECT_EQ(harness::stddev_cell(none, 1), "—");
  EXPECT_EQ(harness::summary_csv_fields(none, 0).back(), ',');
}

TEST(Table, RendersRowsAndCsv) {
  harness::RunResult r;
  r.ms = 12.5;
  r.agg.adds = 10;
  r.agg.add_calls = 12;
  r.total_ops = 12;
  const std::vector<harness::TableRow> rows = {{"a) draconic", r}};
  std::ostringstream table;
  harness::print_paper_table(table, "title", rows);
  EXPECT_NE(table.str().find("a) draconic"), std::string::npos);
  EXPECT_NE(table.str().find("title"), std::string::npos);
  std::ostringstream csv;
  harness::write_csv(csv, rows);
  EXPECT_NE(csv.str().find("variant,ms,ops"), std::string::npos);
  EXPECT_NE(csv.str().find("a) draconic,12.5,12"), std::string::npos);
}

TEST(OpCounters, Aggregation) {
  core::OpCounters a, b;
  a.adds = 1;
  a.add_calls = 2;
  b.rems = 3;
  b.rem_calls = 4;
  b.con_calls = 5;
  a += b;
  EXPECT_EQ(a.adds, 1);
  EXPECT_EQ(a.rems, 3);
  EXPECT_EQ(a.total_ops(), 11);
}

}  // namespace
}  // namespace pragmalist
