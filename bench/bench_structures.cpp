// Beyond-paper bench: the downstream structures the paper motivates.
// Compares the flat ordered list (best variant f), the lock-free skip
// list and the per-bucket hash set on the random mix at growing key
// universes -- the regime where the list's O(n) search loses to the
// skip list's O(log n) and the hash set's O(n/buckets).
//
//   bench_structures [--threads P] [--c OPS] [--u U,...] [--ids ID,...]
//                    [--no-pin]
//
// --u lists the key universes (default 1024,8192,65536; prefill U/2)
// and --ids the catalog ids (default doubly_cursor, skiplist,
// skiplist_draconic). The hint index's large-set probe is one command:
//   bench_structures --threads 4 --c 500000 --u 10000,65536,262144,1048576
//     --ids singly_fetch_or/ebr,unrolled_k8/ebr,skiplist,singly_fetch_or/ebr/sh8
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/harness/drivers.hpp"
#include "src/workload/op_mix.hpp"

int main(int argc, char** argv) {
  using namespace pragmalist;
  const auto opt = harness::Options::parse(argc, argv);
  const int p = bench::default_threads(opt, 16);
  const long c = opt.get_long("c", 20000);
  const bool pin = !opt.get_bool("no-pin");
  const std::vector<long> universes =
      opt.get_longs("u", {1024L, 8192L, 65536L});
  const std::vector<std::string> ids = opt.get_string_list(
      "ids", {"doubly_cursor", "skiplist", "skiplist_draconic"});

  for (const long universe : universes) {
    std::vector<harness::TableRow> rows;
    for (const std::string& id : ids) {
      auto set = harness::make_set(id);
      auto r = harness::run_random_mix(*set, p, c, universe / 2, universe,
                                       workload::kTableMix, 42, pin);
      bench::check_valid(*set);
      rows.push_back({id, r});
    }
    std::ostringstream title;
    title << "Structures, mix 10/10/80, U=" << universe << " f=" << universe / 2
          << " p=" << p << " c=" << c;
    harness::print_paper_table(std::cout, title.str(), rows);
    std::cout << "\n";
  }
  return 0;
}
