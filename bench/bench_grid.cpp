// The sweep bench: one random-mix run per cell of the grid
//
//   variant x reclaimer x shard count x twin   (bench::expand_grid)
//
// plus any raw catalog ids (--ids), at every key universe (--u, with
// its prefill --f) and every scan share (--scan-frac). Each cell prints
// throughput, the node footprint left allocated after the run
// (the arena's grows with every insert, a reclaiming scheme's stays
// near the live set), reclaim limbo, keys per scan and the p99/p999
// tail over all op classes, and a per-shard load line for sharded
// cells. The per-op-class percentiles (add/remove/contains/scan,
// p50..max) follow as a table.
//
// The layers read straight off the grid: `--twins heap` puts each cell
// next to its plain-malloc twin (node memory), `--twins nohint` next
// to its hint-index-disabled twin (read path), --reclaim the arena vs
// epoch vs hazard-pointer protocols, --shards sh1 vs shN. Scans are
// carved out of the mix's contains share; --rate R switches to the
// fixed-rate, coordinated-omission-aware driver (latency from each
// op's *intended* start, so a stall charges the ops queued behind it).
//
// No numbers from a broken structure: after every run the cell must
// pass validate(), the population ledger (prefill + adds - rems ==
// size), a quiescent full-range scan equal to snapshot() (for sharded
// sets, the k-way merge) and p50 <= p99 <= p999 <= max on every
// non-empty op class. CSVs: bench_grid.csv (one row per cell) and
// bench_grid_latency.csv (one row per cell and op class). A label is
// the catalog id, plus ":u<U>" when --u lists several universes and
// ":scan<P>" when --scan-frac lists several shares.
//
// Flags are checked: an unknown flag or a malformed value prints the
// usage and exits 2 before any cell runs; --help prints it, exit 0.
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/harness/drivers.hpp"
#include "src/workload/op_mix.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_grid [--threads P] [--c OPS] [--seed S] [--no-pin]\n"
    "         [--variants a,c,e|ids|all] [--reclaim arena,ebr,hp]\n"
    "         [--shards 1,4,...] [--twins heap,nohint,heap/nohint]\n"
    "         [--ids ID,...] [--u U,...] [--f F,...]\n"
    "         [--mix scaling|table|reads] [--scan-frac P,...]\n"
    "         [--scan-width W] [--dist uniform|zipf] [--theta T]\n"
    "         [--rate OPS_PER_SEC_PER_THREAD] [--no-latency] [--paper]\n"
    "  grid = --variants x --reclaim x --shards x (plain + each twin);\n"
    "  --ids alone runs just those ids (with --variants: grid, then ids);\n"
    "  --f is the prefill per --u (one value, or one per universe).\n"
    "  defaults: --variants all --reclaim arena,ebr,hp --shards 1 --c 25000\n"
    "  --u 4096 --f 1000 --mix scaling --scan-frac 0 --scan-width 64\n";

using namespace pragmalist;

/// A quiescent full-range scan through a fresh handle must reproduce
/// snapshot() key for key (the k-way merge, for sharded sets).
void check_scan_matches_snapshot(core::ISet& set) {
  std::vector<long> scanned;
  set.make_handle()->range_scan(std::numeric_limits<long>::min(),
                                std::numeric_limits<long>::max(),
                                [&](long k) { scanned.push_back(k); });
  PRAGMALIST_CHECK(scanned == set.snapshot(),
                   "quiescent full-range scan does not match snapshot()");
}

void check_monotone(const harness::LatencyProfile& lat) {
  for (int cls = 0; cls < harness::kNumOpClasses; ++cls) {
    const auto& h = lat.of(static_cast<harness::OpClass>(cls));
    if (h.count() == 0) continue;
    PRAGMALIST_CHECK(h.percentile(0.50) <= h.percentile(0.99) &&
                         h.percentile(0.99) <= h.percentile(0.999) &&
                         h.percentile(0.999) <= h.max(),
                     "percentiles are not monotone");
  }
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

int main(int argc, char** argv) {
  const auto opt = harness::Options::parse(
      argc, argv,
      {"variants", "reclaim", "shards", "twins", "ids", "mix", "scan-frac",
       "scan-width", "rate", "dist", "theta", "u", "f", "c", "seed",
       "no-latency"},
      kUsage);
  // Every flag is read (and so checked) here, before any cell runs.
  const int p = bench::default_threads(opt, 16);
  const long c = opt.get_long("c", 25000);
  const auto seed = static_cast<std::uint64_t>(opt.get_long("seed", 42));
  const bool pin = !opt.get_bool("no-pin");
  const bool latency = bench::latency_enabled(opt);
  const double rate = opt.get_double("rate", 0.0);
  const std::vector<long> universes = opt.get_longs("u", {4096});
  const std::vector<long> prefills = opt.get_longs("f", {1000});
  const std::vector<long> scan_fracs = opt.get_longs("scan-frac", {0});
  const long width = opt.get_long("scan-width", 64);
  const double theta = opt.get_double("theta", 0.99);
  const std::string dist_name = opt.get_string("dist", "uniform");
  const std::string mix_name = opt.get_string("mix", "scaling");
  const std::vector<std::string> ids = opt.get_string_list("ids", {});
  const std::vector<long> shards = opt.get_longs("shards", {1});
  const std::vector<std::string> reclaimers =
      opt.get_string_list("reclaim", {"arena", "ebr", "hp"});
  std::vector<std::string> suffixes = {""};
  for (const auto& twin : opt.get_string_list("twins", {}))
    suffixes.push_back("/" + twin);

  workload::OpMix base = workload::kScalingMix;
  if (mix_name == "table")
    base = workload::kTableMix;
  else if (mix_name == "reads")
    base = workload::kReadMostlyMix;
  else if (mix_name != "scaling")
    opt.usage_error("--mix must be scaling, table or reads");
  if (dist_name != "uniform" && dist_name != "zipf")
    opt.usage_error("--dist must be uniform or zipf");
  const harness::KeyDist dist = dist_name == "zipf"
                                    ? harness::KeyDist::zipf(theta)
                                    : harness::KeyDist::uniform();
  if (width < 1) opt.usage_error("--scan-width must be at least 1");
  for (const long frac : scan_fracs)
    if (frac < 0 || frac > base.con_pct)
      opt.usage_error("--scan-frac must be in [0, the mix's contains share]");
  if (prefills.size() != 1 && prefills.size() != universes.size())
    opt.usage_error("--f takes one prefill, or one per --u universe");
  const auto prefill_of = [&](std::size_t ui) {
    return prefills[prefills.size() == 1 ? 0 : ui];
  };
  for (std::size_t ui = 0; ui < universes.size(); ++ui)
    if (universes[ui] < 1 || prefill_of(ui) < 0 ||
        prefill_of(ui) > universes[ui])
      opt.usage_error("each --f must be in [0, its --u universe]");

  std::vector<bench::GridCell> cells;
  if (ids.empty() || !opt.get_string_list("variants", {}).empty())
    cells = bench::expand_grid(bench::select_variants(opt, {"all"}),
                               reclaimers, shards, suffixes);
  for (const auto& id : ids) cells.push_back({id, id, "", 1, ""});
  // A typo in the last id aborts now, not after the cells before it ran.
  for (const auto& cell : cells) harness::make_set(cell.id);

  std::cout << "Grid, p=" << p << ", c=" << c << ", mix " << mix_name
            << " " << base.add_pct << "/" << base.rem_pct << "/"
            << base.con_pct << " add/rem/con (scan share carved from con;"
            << " widths 1-" << width << "), dist=" << dist_name;
  if (dist_name == "zipf") std::cout << "(" << theta << ")";
  if (rate > 0.0)
    std::cout << ", fixed-rate " << std::fixed << std::setprecision(0)
              << rate << " ops/s/worker (latency from *intended* start)";
  std::cout << "\n(fp = nodes still allocated after the run; keys = keys"
            << " per scan)\n\n";

  std::vector<harness::TableRow> csv_rows;
  std::vector<harness::LatencyRow> lat_rows;
  for (std::size_t ui = 0; ui < universes.size(); ++ui) {
    const long u = universes[ui];
    const long f = prefill_of(ui);
    std::cout << "U=" << u << ", prefill " << f << "\n"
              << std::left << std::setw(34) << "cell" << std::right
              << std::setw(11) << "kops/s" << std::setw(10) << "fp"
              << std::setw(10) << "limbo" << std::setw(8) << "keys";
    if (latency)
      std::cout << std::setw(9) << "p99us" << std::setw(9) << "p999us";
    std::cout << "\n";
    for (const auto& cell : cells) {
      for (const long frac : scan_fracs) {
        const workload::OpMix mix =
            bench::with_scans(base, static_cast<int>(frac));
        auto set = harness::make_set(cell.id);
        harness::LatencyProfile lat;
        long behind = 0;
        const harness::RunResult res =
            rate > 0.0
                ? harness::run_fixed_rate(*set, p, c, f, u, mix, seed, pin,
                                          rate, lat, &behind, dist,
                                          {1, width})
                : harness::run_random_mix(*set, p, c, f, u, mix, seed, pin,
                                          dist, {1, width},
                                          latency ? &lat : nullptr);
        bench::check_valid(*set);
        PRAGMALIST_CHECK(static_cast<long>(set->size()) ==
                             f + res.agg.adds - res.agg.rems,
                         "population ledger does not balance after the run");
        check_scan_matches_snapshot(*set);
        check_monotone(lat);

        std::string label = cell.id;
        if (universes.size() > 1) label += ":u" + std::to_string(u);
        if (scan_fracs.size() > 1) label += ":scan" + std::to_string(frac);
        const auto& agg = res.agg;
        std::cout << std::left << std::setw(34) << label << std::right
                  << std::fixed << std::setprecision(0) << std::setw(11)
                  << res.kops_per_sec() << std::setw(10)
                  << set->allocated_nodes() << std::setw(10)
                  << set->limbo_nodes() << std::setw(8)
                  << std::setprecision(1)
                  << (agg.scan_calls > 0 ? static_cast<double>(agg.scans) /
                                               agg.scan_calls
                                         : 0.0);
        if (latency) {
          const harness::LatHistogram all = lat.merged();
          std::cout << std::setw(9) << us(all.percentile(0.99)) << std::setw(9)
                    << us(all.percentile(0.999));
          lat_rows.push_back(
              {label, lat, res.kops_per_sec(), agg.hint_hits, agg.restarts});
        }
        std::cout << "\n";
        const std::string load = harness::shard_load_line(*set);
        if (!load.empty()) std::cout << "      " << load << "\n";
        if (behind > 0)
          std::cout << "      " << behind << " of " << res.total_ops
                    << " ops started >= 1 period late\n";
        csv_rows.push_back({std::move(label), res});
      }
    }
    std::cout << "\n";
  }

  if (!lat_rows.empty())
    harness::print_latency_table(std::cout, "Per-op-class latency", lat_rows);
  bench::emit_csv("bench_grid.csv", csv_rows);
  bench::emit_latency_csv("bench_grid_latency.csv", lat_rows);
  return 0;
}
