// Long-running service soak across the variant x reclaimer grid:
// worker threads arrive and depart mid-run on a deterministic schedule
// (ramp / burst / waves / stragglers / steady) while the harness
// samples throughput, node footprint, and reclaimer limbo depth once
// per tick. The question the fixed-duration benches cannot answer:
// does memory stay bounded when threads come and go for as long as the
// service runs? Arena rows are deliberately absent -- the paper's
// scheme grows without bound by design (bench_grid shows that);
// this bench is about the reclaimers surviving membership churn.
//
//   bench_soak [--threads-schedule ramp|steady|burst|waves|stragglers]
//              [--duration PER-ID (5s/500ms/2m; bare = s)] [--tick-ms MS]
//              [--max-threads P] [--u UNIVERSE] [--prefill F]
//              [--seed S] [--ids all|ID,ID,...] [--no-pin] [--series]
//              [--shards N,N,...] [--zipf-theta T]
//              [--scan-frac PCT] [--scan-width W] [--no-latency]
//
// --scan-frac carves PCT of the contains share into range scans
// (widths uniform in [1, W]); long scans pin EBR's epoch for their
// whole duration, which is exactly what the limbo series is for.
//
// Per id: one summary row (kops/s, p99/p999 over all ops, arrivals,
// peak/end footprint, peak/end limbo) plus a per-op-class latency
// table, plus a per-shard load line (op counts and max/min imbalance)
// for sharded ids. --shards sweeps every id at each shard count (1 =
// the plain list, N appends `/shN`); --zipf-theta draws keys
// Zipf(theta) so the sweep shows hot shards. The full time series of
// every run goes to bench_soak.csv -- ticks are paced by absolute
// deadlines and each row carries its *measured* window (dur_ms), which
// is what the kops column is normalized by -- and the per-tick tail
// columns (p50/p99/p999/max us, all classes merged) show latency
// breathing with membership churn. --series also prints the series;
// --no-latency turns recording off (clock-read-free op loop).
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/service/soak.hpp"

namespace {

void print_series(const pragmalist::service::SoakResult& r, bool latency) {
  std::cout << "    tick    t_ms  dur_ms  thr      ops    kops  footprint"
               "  limbo";
  if (latency) std::cout << "   p50us   p99us  p999us   maxus";
  std::cout << "\n";
  for (const auto& s : r.series) {
    std::cout << std::setw(8) << s.tick << std::setw(8) << std::fixed
              << std::setprecision(0) << s.t_ms << std::setw(8)
              << std::setprecision(1) << s.dur_ms << std::setw(5)
              << s.threads << std::setw(9) << s.ops << std::setw(8)
              << std::setprecision(0) << s.kops_per_sec() << std::setw(11)
              << s.footprint << std::setw(7) << s.limbo;
    if (latency)
      std::cout << std::setprecision(1) << std::setw(8) << s.p50_us
                << std::setw(8) << s.p99_us << std::setw(8) << s.p999_us
                << std::setw(8) << s.max_us;
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pragmalist;
  const auto opt = harness::Options::parse(argc, argv);

  service::SoakConfig cfg;
  cfg.schedule = service::parse_soak_schedule(
      opt.get_string("threads-schedule", "ramp"));
  cfg.tick_ms = opt.get_int("tick-ms", 100);
  if (cfg.tick_ms < 1) cfg.tick_ms = 1;
  const long duration_ms = opt.get_duration_ms("duration", 5000);
  cfg.ticks = static_cast<int>(duration_ms / cfg.tick_ms);
  if (cfg.ticks < 1) cfg.ticks = 1;
  cfg.max_threads =
      opt.get_int("max-threads", bench::default_threads(opt, 16));
  cfg.universe = opt.get_long("u", 1024);
  cfg.prefill = opt.get_long("prefill", cfg.universe / 4);
  cfg.seed = static_cast<std::uint64_t>(opt.get_long("seed", 42));
  cfg.pin = !opt.get_bool("no-pin");
  cfg.zipf_theta = opt.get_double("zipf-theta", 0.0);
  const int scan_frac = opt.get_int("scan-frac", 0);
  cfg.mix = bench::with_scans(cfg.mix, scan_frac);
  cfg.scan_widths = bench::scan_widths(opt);
  cfg.record_latency = bench::latency_enabled(opt);
  const bool series = opt.get_bool("series");

  // --ids: default is the whole reclaim grid (every <variant>/ebr|hp).
  std::vector<std::string> ids = opt.get_string_list("ids", {});
  if (ids.empty() ||
      (ids.size() == 1 && ids.front() == "all")) {
    ids.clear();
    for (const auto id : harness::reclaim_variant_ids())
      ids.emplace_back(id);
  }

  // --shards sweeps every id at each count: 1 leaves the id alone, any
  // other count appends the catalog's /shN suffix.
  std::vector<std::string> run_ids;
  for (const long n : opt.get_longs("shards", {1})) {
    if (n < 1) continue;
    for (const auto& id : ids)
      run_ids.push_back(n == 1 ? id : id + "/sh" + std::to_string(n));
  }

  std::cout << "Soak grid, schedule=" << soak_schedule_name(cfg.schedule)
            << ", " << duration_ms / 1000.0 << " s/id (" << cfg.ticks << " ticks x "
            << cfg.tick_ms << " ms), max p=" << cfg.max_threads
            << ", u=" << cfg.universe << ", mix " << cfg.mix.add_pct << "/"
            << cfg.mix.rem_pct << "/" << cfg.mix.con_pct;
  if (cfg.mix.scan_pct > 0)
    std::cout << "/" << cfg.mix.scan_pct << " scans (width 1-"
              << cfg.scan_widths.max_width << ")";
  if (cfg.zipf_theta > 0.0)
    std::cout << ", keys zipf(" << cfg.zipf_theta << ")";
  std::cout << "\n(fp = allocated-not-freed nodes, limbo = retired-not-freed;"
            << " peak over the series / value at the end";
  if (cfg.record_latency)
    std::cout << "; p99/p999 in us over all op classes";
  std::cout << ")\n\n";
  std::cout << std::left << std::setw(26) << "variant" << std::right
            << std::setw(10) << "kops/s";
  if (cfg.record_latency)
    std::cout << std::setw(9) << "p99us" << std::setw(9) << "p999us";
  std::cout << std::setw(10) << "arrivals" << std::setw(14) << "fp peak/end"
            << std::setw(16) << "limbo peak/end" << "\n";

  std::ofstream csv("bench_soak.csv");
  if (csv)
    csv << "id,schedule,shards,tick,t_ms,dur_ms,threads,ops,kops,footprint,"
           "limbo,p50_us,p99_us,p999_us,max_us,leaked,crashed_slots,"
           "leaked_cells,parked_limbo,horizon_lag\n";

  std::vector<harness::LatencyRow> lat_rows;
  for (const auto& id : run_ids) {
    auto set = harness::make_set(id);
    const auto r = service::run_soak(*set, cfg);

    // Quiescent integrity + population ledger, like every driver.
    bench::check_valid(*set);
    PRAGMALIST_CHECK(
        static_cast<long>(set->size()) ==
            cfg.prefill + r.agg.adds - r.agg.rems,
        "population ledger does not balance after the soak");

    std::ostringstream fp, limbo;
    fp << r.peak_footprint() << "/" << set->allocated_nodes();
    limbo << r.peak_limbo() << "/" << set->limbo_nodes();
    std::cout << std::left << std::setw(26) << id << std::right
              << std::setw(10) << std::fixed << std::setprecision(0)
              << r.kops_per_sec();
    if (cfg.record_latency) {
      const harness::LatHistogram all = r.latency.merged();
      std::cout << std::setprecision(1) << std::setw(9)
                << static_cast<double>(all.percentile(0.99)) / 1e3
                << std::setw(9)
                << static_cast<double>(all.percentile(0.999)) / 1e3
                << std::setprecision(0);
    }
    std::cout << std::setw(10) << r.arrivals << std::setw(14) << fp.str()
              << std::setw(15) << limbo.str() << "\n";
    const std::string load = harness::shard_load_line(*set);
    if (!load.empty()) std::cout << "    " << load << "\n";
    if (series) print_series(r, cfg.record_latency);
    if (cfg.record_latency)
      lat_rows.push_back({id, r.latency,
                          r.ms > 0.0 ? static_cast<double>(r.agg.total_ops()) /
                                           r.ms
                                     : 0.0,
                          r.agg.hint_hits, r.agg.restarts});

    if (csv)
      for (const auto& s : r.series)
        csv << id << "," << soak_schedule_name(cfg.schedule) << ","
            << set->shard_count() << "," << s.tick << "," << s.t_ms << ","
            << s.dur_ms << "," << s.threads << "," << s.ops << ","
            << s.kops_per_sec() << "," << s.footprint << "," << s.limbo
            << "," << s.p50_us << "," << s.p99_us << "," << s.p999_us << ","
            << s.max_us << "," << s.leaked << "," << s.crashed_slots << ","
            << s.leaked_cells << "," << s.parked_limbo << ","
            << s.horizon_lag << "\n";
  }
  if (!lat_rows.empty()) {
    std::cout << "\n";
    harness::print_latency_table(std::cout, "Per-op-class latency (whole run)",
                                 lat_rows);
  }
  if (csv) std::cout << "\ncsv: bench_soak.csv\n";
  return 0;
}
