// Reproduces Tables 1 (AMD), 4 (Xeon) and 7 (SPARC): the deterministic
// worst-case benchmark with shared key sequences k(i) = i, all six
// variants. Paper parameters: p = 64 (AMD/SPARC) or 80 (Xeon),
// n = 100000. Host-scale defaults keep the run in seconds; use
// --paper (optionally with --threads/--n) for the full-size run.
//
//   table_deterministic_same [--threads P] [--n N] [--paper] [--no-pin]
//                            [--baselines] [--reclaim arena,ebr,hp]
//
// --reclaim runs the six rows under each named reclaimer (arena = the
// paper's bare ids, the default); rows are `d) singly_cursor/ebr` and
// so on. --baselines rows are appended once, after the grid.
#include <cstddef>
#include <iostream>
#include <sstream>

#include "bench/bench_util.hpp"
#include "src/harness/drivers.hpp"
#include "src/workload/schedule.hpp"

int main(int argc, char** argv) {
  using namespace pragmalist;
  const auto opt = harness::Options::parse(argc, argv);
  const int p = bench::default_threads(opt, 64);
  const long n = opt.get_long("n", opt.get_bool("paper") ? 100000 : 1500);
  const bool pin = !opt.get_bool("no-pin");

  const std::vector<std::string> variants(harness::paper_variant_ids().begin(),
                                          harness::paper_variant_ids().end());
  std::vector<std::string> ids;
  for (const auto& cell : bench::expand_grid(
           variants, opt.get_string_list("reclaim", {"arena"}), {1}))
    ids.push_back(cell.id);
  if (opt.get_bool("baselines")) {
    ids.push_back("coarse_lock");
    ids.push_back("lazy_lock");
    ids.push_back("draconic/hp/heap/nohint");
  }

  std::vector<harness::TableRow> rows;
  for (const auto& id : ids) {
    auto set = harness::make_set(id);
    auto result = harness::run_deterministic(*set, p, n,
                                             workload::KeySchedule::kSameKeys,
                                             pin);
    bench::check_valid(*set);
    // The deterministic benchmark fully drains the list (every thread's
    // adds precede its removes of the same keys).
    PRAGMALIST_CHECK(set->size() == 0,
                     "deterministic benchmark must end empty");
    rows.push_back({bench::row_label(id), result});
  }

  std::ostringstream title;
  title << "Deterministic benchmark k(i)=i (Tables 1/4/7), p=" << p
        << ", n=" << n << ", " << hardware_cpus() << " CPUs";
  harness::print_paper_table(std::cout, title.str(), rows);
  bench::emit_csv("table_deterministic_same.csv", rows);
  return 0;
}
