// Memory-reclamation cost comparison, three views:
//
//  1. The variant x reclaimer grid: each paper variant under the
//     paper's arena (reclamation deferred to the end of the run) vs
//     epoch-based vs hazard-pointer reclamation from src/reclaim/.
//     Quantifies what the paper's "simple memory reclamation after
//     each experiment" buys, and what §2's claim that the mild
//     improvements tolerate standard schemes costs in practice --
//     note how the pragmatic traversal keeps its shape under EBR but
//     pays anchored revalidation per step under HP.
//  2. Reference rows: the textbook Michael list -- row a's
//     `/heap/nohint` twin (malloc nodes, no hint index) -- under HP
//     and EBR, plus the lock-based lazy list.
//  3. (--shards N,N,...) The shard sweep: each selected variant x
//     reclaimer behind a hash-sharded set at every requested shard
//     count (shard count 1 is the plain single list). This is where
//     single-list throughput ceilings fall -- and because all shards
//     share one reclamation domain, the limbo column stays
//     O(threads), not O(threads x shards). --dist zipf shows hot
//     shards in the per-row shard-load line.
//
// All views also report the node footprint (allocated minus freed
// after the run): the arena's grows with every insert, the reclaiming
// schemes' stays near the live set.
//
// Every view also records per-op-class latency (p50..p999/max printed
// as a table after the grid, full percentiles in
// bench_reclaim_latency.csv): reclamation cost is a *tail* story --
// an EBR collect pass or an HP anchored revalidation shows up at p999
// long before it moves a mean. --no-latency restores the
// clock-read-free op loop (the honest-throughput baseline; the smoke
// grid regresses <= 3% vs pre-latency builds in that mode).
//
// Every cell in views 1 and 3 runs twice: once with nodes allocated
// from the domain's slab pool (the catalog default) and once as the
// `/heap` twin (plain malloc per node). The twin rows price the slab
// allocator directly -- same engine, same schedule, only the node
// memory differs. The grid also carries the unrolled fat-node family
// (unrolled_k8: K=8 sorted keys per cache-line-sized node) next to
// the paper rows.
//
//   bench_reclaim [--threads P] [--c OPS] [--u UNIVERSE] [--seed S]
//                 [--variants a,c,e | all] [--no-pin] [--no-latency]
//                 [--shards 1,4,16] [--dist uniform|zipf] [--theta T]
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/harness/drivers.hpp"
#include "src/workload/op_mix.hpp"

namespace {

struct Cell {
  pragmalist::harness::RunResult result;
  pragmalist::harness::LatencyProfile latency;
  std::size_t footprint = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pragmalist;
  const auto opt = harness::Options::parse(argc, argv);
  const int p = bench::default_threads(opt, 16);
  const long c = opt.get_long("c", 25000);
  const long universe = opt.get_long("u", 4096);
  const auto seed = static_cast<std::uint64_t>(opt.get_long("seed", 42));
  const bool pin = !opt.get_bool("no-pin");
  // Update-heavy mix to stress retirement: 25/25/50.
  const workload::OpMix mix = workload::kScalingMix;
  const bool latency = bench::latency_enabled(opt);

  // --variants takes paper row letters (a,c,e) or ids; default is all
  // six paper rows plus the unrolled fat-node family.
  const std::vector<std::string> variants =
      bench::select_variants(opt, {"all"});
  const std::vector<std::string> reclaimers = {"arena", "ebr", "hp"};

  auto run_one = [&](std::string_view id) {
    auto set = harness::make_set(id);
    Cell cell;
    cell.result = harness::run_random_mix(
        *set, p, c, /*f=*/1000, universe, mix, seed, pin,
        harness::KeyDist::uniform(), {}, latency ? &cell.latency : nullptr);
    bench::check_valid(*set);
    cell.footprint = set->allocated_nodes();
    return cell;
  };

  // --- view 1: variant x reclaimer grid ------------------------------
  // Two rows per variant: the slab row (catalog default) and its
  // `/heap` malloc twin, so the node-memory cost reads straight down
  // the column.
  std::cout << "Reclamation grid, mix 25/25/50, p=" << p << ", c=" << c
            << ", u=" << universe
            << " (kops/s; fp = nodes still allocated after the run)\n\n";
  std::cout << std::left << std::setw(28) << "variant";
  for (const auto& r : reclaimers)
    std::cout << std::right << std::setw(12) << r << std::setw(10) << "fp";
  std::cout << "\n";

  std::vector<harness::TableRow> csv_rows;
  std::vector<harness::LatencyRow> lat_rows;
  for (const auto& v : variants) {
    for (const std::string_view mem : {"", "/heap"}) {
      std::cout << std::left << std::setw(28)
                << bench::row_label(v) + std::string(mem);
      for (const auto& r : reclaimers) {
        const Cell cell = run_one(bench::grid_id(v, r, 1, mem));
        std::cout << std::right << std::setw(12) << std::fixed
                  << std::setprecision(0) << cell.result.kops_per_sec()
                  << std::setw(10) << cell.footprint;
        const std::string label = v + "/" + r + std::string(mem);
        if (latency)
          lat_rows.push_back({label, cell.latency,
                              cell.result.kops_per_sec(),
                              cell.result.agg.hint_hits,
                              cell.result.agg.restarts});
        csv_rows.push_back({label, cell.result});
      }
      std::cout << "\n";
    }
  }
  std::cout << "\n";
  if (!lat_rows.empty())
    harness::print_latency_table(
        std::cout, "Per-op-class latency, variant x reclaimer grid",
        lat_rows);

  // --- view 2: reference rows ---------------------------------------
  std::vector<harness::TableRow> ref_rows;
  for (const std::string_view id :
       {std::string_view("draconic/hp/heap/nohint"),
        std::string_view("draconic/ebr/heap/nohint"),
        std::string_view("lazy_lock")}) {
    const Cell cell = run_one(id);
    ref_rows.push_back({std::string(id), cell.result});
  }
  std::ostringstream title;
  title << "Reference baselines (shared reclaim domains), p=" << p
        << ", c=" << c;
  harness::print_paper_table(std::cout, title.str(), ref_rows);

  csv_rows.insert(csv_rows.end(), ref_rows.begin(), ref_rows.end());

  // --- view 3: shard sweep ------------------------------------------
  const std::vector<long> shard_counts = opt.get_longs("shards", {});
  if (!shard_counts.empty()) {
    harness::KeyDist dist = harness::KeyDist::uniform();
    if (opt.get_string("dist", "uniform") == "zipf")
      dist = harness::KeyDist::zipf(opt.get_double("theta", 0.99));
    std::cout << "\nShard sweep, mix 25/25/50, p=" << p << ", c=" << c
              << ", u=" << universe << ", dist="
              << (dist.kind == harness::KeyDist::Kind::kZipf ? "zipf"
                                                             : "uniform")
              << " (one shared reclaim domain per set: limbo stays"
              << " O(threads) at every shard count)\n\n";
    std::cout << std::left << std::setw(26) << "variant" << std::right
              << std::setw(6) << "sh" << std::setw(12) << "kops/s"
              << std::setw(10) << "fp" << std::setw(10) << "limbo"
              << "\n";
    for (const auto& cell : bench::expand_grid(variants, {"ebr", "hp"},
                                                shard_counts,
                                                {"", "/heap"})) {
      const std::string base = cell.variant + "/" + cell.reclaimer;
      auto set = harness::make_set(cell.id);
      harness::LatencyProfile lat;
      harness::RunResult res = harness::run_random_mix(
          *set, p, c, /*f=*/1000, universe, mix, seed, pin, dist, {},
          latency ? &lat : nullptr);
      bench::check_valid(*set);
      std::cout << std::left << std::setw(26) << base + cell.suffix
                << std::right << std::setw(6) << cell.shards << std::setw(12)
                << std::fixed << std::setprecision(0) << res.kops_per_sec()
                << std::setw(10) << set->allocated_nodes() << std::setw(10)
                << set->limbo_nodes() << "\n";
      const std::string load = harness::shard_load_line(*set);
      if (!load.empty()) std::cout << "      " << load << "\n";
      // CSV label always carries the shard count (the n==1 leg runs
      // the bare id but must not collide with view 1's row) and the
      // key distribution when it is not the default; the heap twin
      // keeps its /heap suffix last, mirroring the catalog id grammar.
      std::string csv_label =
          base + "/sh" + std::to_string(cell.shards) + cell.suffix;
      if (dist.kind == harness::KeyDist::Kind::kZipf) csv_label += ":zipf";
      if (latency)
        lat_rows.push_back({csv_label, lat, res.kops_per_sec(),
                            res.agg.hint_hits, res.agg.restarts});
      csv_rows.push_back({std::move(csv_label), res});
    }
  }

  bench::emit_csv("bench_reclaim.csv", csv_rows);
  bench::emit_latency_csv("bench_reclaim_latency.csv", lat_rows);
  return 0;
}
