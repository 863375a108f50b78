// Reproduces Tables 3 (AMD), 6 (Xeon) and 9 (SPARC): the random
// operation mix benchmark, 10% add / 10% rem / 80% con over a key
// universe U=10000 with f=1000 prefilled items. Paper parameters:
// p = 64/80, c = 1e6 ops/thread.
//
//   table_random_mix [--threads P] [--c OPS] [--f PREFILL] [--u UNIVERSE]
//                    [--add PCT] [--rem PCT] [--seed S] [--paper]
//                    [--no-pin] [--baselines]
#include <iostream>
#include <sstream>

#include "bench/bench_util.hpp"
#include "src/harness/drivers.hpp"
#include "src/workload/op_mix.hpp"

int main(int argc, char** argv) {
  using namespace pragmalist;
  const auto opt = harness::Options::parse(argc, argv);
  const bool paper = opt.get_bool("paper");
  const int p = bench::default_threads(opt, 64);
  const long c = opt.get_long("c", paper ? 1000000 : 40000);
  const long f = opt.get_long("f", 1000);
  const long u = opt.get_long("u", 10000);
  const int add_pct = opt.get_int("add", 10);
  const int rem_pct = opt.get_int("rem", 10);
  const auto seed = static_cast<std::uint64_t>(opt.get_long("seed", 42));
  const bool pin = !opt.get_bool("no-pin");
  const workload::OpMix mix{add_pct, rem_pct, 100 - add_pct - rem_pct};

  std::vector<harness::TableRow> rows;
  std::vector<std::string_view> ids(harness::paper_variant_ids());
  if (opt.get_bool("baselines")) {
    ids.push_back("coarse_lock");
    ids.push_back("lazy_lock");
    ids.push_back("draconic/hp/heap/nohint");
  }
  for (const auto id : ids) {
    auto set = harness::make_set(id);
    auto result = harness::run_random_mix(*set, p, c, f, u, mix, seed, pin);
    bench::check_valid(*set);
    // Conservation: prefill + successful adds - successful removes must
    // equal the surviving population.
    PRAGMALIST_CHECK(set->size() == static_cast<std::size_t>(f) +
                                        result.agg.adds - result.agg.rems,
                     "population ledger mismatch after random mix");
    rows.push_back({bench::row_label(id), result});
  }

  std::ostringstream title;
  title << "Random mix " << mix.add_pct << "/" << mix.rem_pct << "/"
        << mix.con_pct << " (Tables 3/6/9), p=" << p << ", c=" << c
        << ", f=" << f << ", U=" << u;
  harness::print_paper_table(std::cout, title.str(), rows);
  bench::emit_csv("table_random_mix.csv", rows);
  return 0;
}
