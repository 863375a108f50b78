// Ablation bench for the design knobs of the paper's §2 (rows and ids
// in docs/CATALOG.md). Each section isolates one knob by comparing two
// catalog entries that differ only in that knob, on both benchmark
// families:
//   cursor:          b) singly        vs d) singly_cursor
//   marking:         d) singly_cursor vs e) singly_fetch_or
//   linkage:         d) singly_cursor vs f) doubly_cursor
//   prev precision:  f) doubly_cursor vs doubly_cursor_noprec
//
//   ablation [--threads P] [--n N] [--c OPS] [--no-pin]
#include <iostream>
#include <sstream>

#include "bench/bench_util.hpp"
#include "src/harness/drivers.hpp"
#include "src/workload/op_mix.hpp"
#include "src/workload/schedule.hpp"

namespace {

using namespace pragmalist;

struct Section {
  const char* knob;
  const char* base;
  const char* variant;
};

constexpr Section kSections[] = {
    {"cursor", "singly", "singly_cursor"},
    {"marking(fetch-or)", "singly_cursor", "singly_fetch_or"},
    {"linkage(backptr)", "singly_cursor", "doubly_cursor"},
    {"prev-precision", "doubly_cursor", "doubly_cursor_noprec"},
    {"backoff", "singly_cursor", "singly_cursor_backoff"},
};

harness::RunResult det(std::string_view id, int p, long n, bool pin) {
  auto set = harness::make_set(id);
  auto r = harness::run_deterministic(*set, p, n,
                                      workload::KeySchedule::kSameKeys, pin);
  bench::check_valid(*set);
  return r;
}

harness::RunResult mix(std::string_view id, int p, long c, bool pin) {
  auto set = harness::make_set(id);
  auto r = harness::run_random_mix(*set, p, c, /*f=*/1000, /*universe=*/10000,
                                   workload::kTableMix, /*seed=*/42, pin);
  bench::check_valid(*set);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = harness::Options::parse(argc, argv);
  const int p = bench::default_threads(opt, 16);
  const long n = opt.get_long("n", 1000);
  const long c = opt.get_long("c", 25000);
  const bool pin = !opt.get_bool("no-pin");

  for (const auto& s : kSections) {
    std::vector<harness::TableRow> rows;
    rows.push_back({std::string(s.base) + " [det]", det(s.base, p, n, pin)});
    rows.push_back(
        {std::string(s.variant) + " [det]", det(s.variant, p, n, pin)});
    rows.push_back({std::string(s.base) + " [mix]", mix(s.base, p, c, pin)});
    rows.push_back(
        {std::string(s.variant) + " [mix]", mix(s.variant, p, c, pin)});
    std::ostringstream title;
    title << "Ablation: " << s.knob << "  (p=" << p << ", n=" << n
          << ", c=" << c << ")";
    harness::print_paper_table(std::cout, title.str(), rows);
    std::cout << "\n";
  }
  return 0;
}
