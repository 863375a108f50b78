// Reproduces Tables 2 (AMD), 5 (Xeon) and 8 (SPARC): the deterministic
// worst-case benchmark with per-thread disjoint key sequences
// k(i) = t + i*p. Paper parameters: p = 64/80, n = 10000.
//
//   table_deterministic_disjoint [--threads P] [--n N] [--paper]
//                                [--no-pin] [--baselines]
#include <iostream>
#include <sstream>

#include "bench/bench_util.hpp"
#include "src/harness/drivers.hpp"
#include "src/workload/schedule.hpp"

int main(int argc, char** argv) {
  using namespace pragmalist;
  const auto opt = harness::Options::parse(argc, argv);
  const int p = bench::default_threads(opt, 64);
  const long n = opt.get_long("n", opt.get_bool("paper") ? 10000 : 700);
  const bool pin = !opt.get_bool("no-pin");

  std::vector<harness::TableRow> rows;
  std::vector<std::string_view> ids(harness::paper_variant_ids());
  if (opt.get_bool("baselines")) {
    ids.push_back("coarse_lock");
    ids.push_back("lazy_lock");
    ids.push_back("draconic/hp/heap/nohint");
  }
  for (const auto id : ids) {
    auto set = harness::make_set(id);
    auto result = harness::run_deterministic(
        *set, p, n, workload::KeySchedule::kDisjointKeys, pin);
    bench::check_valid(*set);
    PRAGMALIST_CHECK(set->size() == 0,
                     "deterministic benchmark must end empty");
    rows.push_back({bench::row_label(id), result});
  }

  std::ostringstream title;
  title << "Deterministic benchmark k(i)=t+ip (Tables 2/5/8), p=" << p
        << ", n=" << n << ", " << hardware_cpus() << " CPUs";
  harness::print_paper_table(std::cout, title.str(), rows);
  bench::emit_csv("table_deterministic_disjoint.csv", rows);
  return 0;
}
