// Shared plumbing for the paper-table bench binaries.
#pragma once

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/affinity.hpp"
#include "src/common/debug.hpp"
#include "src/harness/catalog.hpp"
#include "src/harness/options.hpp"
#include "src/harness/table.hpp"
#include "src/workload/op_mix.hpp"

namespace pragmalist::bench {

/// Default thread count: 2x logical CPUs (contention without paper-scale
/// hardware); --threads overrides, --paper restores the paper's counts.
inline int default_threads(const harness::Options& opt, int paper_threads) {
  if (opt.get_bool("paper")) return opt.get_int("threads", paper_threads);
  return opt.get_int("threads", 2 * hardware_cpus());
}

/// "a) draconic" style row label; a grid id ("singly_cursor/ebr") takes
/// its base variant's letter ("d) singly_cursor/ebr").
inline std::string row_label(std::string_view id) {
  return std::string(harness::variant_letter(id.substr(0, id.find('/')))) +
         ") " + std::string(id);
}

/// Emit the CSV twin next to the binary (best effort).
inline void emit_csv(const std::string& filename,
                     const std::vector<harness::TableRow>& rows) {
  std::ofstream out(filename);
  if (!out) {
    std::cerr << "(could not write " << filename << ")\n";
    return;
  }
  harness::write_csv(out, rows);
  std::cout << "csv: " << filename << "\n";
}

/// Post-run structural check; benches refuse to report numbers from a
/// corrupted structure.
inline void check_valid(const core::ISet& set) {
  std::string err;
  PRAGMALIST_CHECK(set.validate(&err), err.c_str());
}

/// Carve a scan fraction out of a point mix's contains share:
/// {25,25,50} with scan_pct 20 becomes 25/25/30/20. The shared
/// --scan-frac semantics of bench_grid and bench_soak.
inline workload::OpMix with_scans(workload::OpMix mix, int scan_pct) {
  PRAGMALIST_CHECK(scan_pct >= 0 && scan_pct <= mix.con_pct,
                   "--scan-frac must be in [0, contains share]");
  mix.con_pct -= scan_pct;
  mix.scan_pct = scan_pct;
  return mix;
}

/// The shared --scan-width flag: widths drawn uniformly in [1, W].
inline workload::ScanWidths scan_widths(const harness::Options& opt,
                                        long def_width = 64) {
  const long w = opt.get_long("scan-width", def_width);
  PRAGMALIST_CHECK(w >= 1, "--scan-width must be at least 1");
  return {1, w};
}

/// The shared --no-latency flag: per-op recording defaults on (this is
/// an observability-first harness) and is force-off when the layer is
/// compiled out. Pass --no-latency for pre-PR-6-comparable throughput
/// numbers (no clock reads in the op loop).
inline bool latency_enabled(const harness::Options& opt) {
  return harness::kLatencyCompiled && !opt.get_bool("no-latency");
}

/// The shared --variants selection: paper row letters (a,c,e), full
/// ids, or "all"; candidates are the six paper rows plus the unrolled
/// fat-node family. A token that matches no row is a usage error (exit
/// 2): a typo must not silently shrink a bench.
inline std::vector<std::string> select_variants(
    const harness::Options& opt, const std::vector<std::string>& def) {
  const auto& candidates = harness::engine_variant_ids();
  const std::vector<std::string> tokens =
      opt.get_string_list("variants", def);
  const bool all = tokens.size() == 1 && tokens.front() == "all";
  const auto matches = [](const std::string& tok, std::string_view id) {
    return tok == id || tok == harness::variant_letter(id);
  };
  if (!all)
    for (const auto& tok : tokens)
      if (std::none_of(candidates.begin(), candidates.end(),
                       [&](std::string_view id) { return matches(tok, id); }))
        opt.usage_error("--variants: '" + tok +
                        "' is none of the rows a-f/unrolled_k8");
  std::vector<std::string> variants;
  for (const std::string_view id : candidates) {
    bool wanted = all;
    for (const auto& tok : tokens) wanted |= matches(tok, id);
    if (wanted) variants.emplace_back(id);
  }
  if (variants.empty()) opt.usage_error("--variants selects no row");
  return variants;
}

/// Catalog id of one grid cell, per the id grammar: arena keeps the
/// bare variant, `/shN` is omitted at one shard, and the memory/hint
/// suffix ("", "/heap", "/nohint") comes last.
inline std::string grid_id(std::string_view variant,
                           std::string_view reclaimer, long shards,
                           std::string_view suffix = "") {
  std::string id(variant);
  if (!reclaimer.empty() && reclaimer != "arena") {
    id += '/';
    id += reclaimer;
  }
  if (shards > 1) id += "/sh" + std::to_string(shards);
  id += suffix;
  return id;
}

/// One cell of the variant x reclaimer x shards (x suffix) grid.
struct GridCell {
  std::string id;  // catalog id (grid_id of the coordinates below)
  std::string variant;
  std::string reclaimer;
  long shards = 1;
  std::string suffix;
};

/// Row-major expansion (variant -> reclaimer -> shards -> suffix) of
/// the grid the reclaim-aware benches sweep; shard counts < 1 are
/// skipped.
inline std::vector<GridCell> expand_grid(
    const std::vector<std::string>& variants,
    const std::vector<std::string>& reclaimers,
    const std::vector<long>& shard_counts,
    const std::vector<std::string>& suffixes = {""}) {
  std::vector<GridCell> cells;
  for (const auto& v : variants)
    for (const auto& r : reclaimers)
      for (const long n : shard_counts) {
        if (n < 1) continue;
        for (const auto& s : suffixes)
          cells.push_back({grid_id(v, r, n, s), v, r, n, s});
      }
  return cells;
}

/// Emit the per-op-class latency CSV twin (best effort), mirroring
/// emit_csv.
inline void emit_latency_csv(const std::string& filename,
                             const std::vector<harness::LatencyRow>& rows) {
  if (rows.empty()) return;
  std::ofstream out(filename);
  if (!out) {
    std::cerr << "(could not write " << filename << ")\n";
    return;
  }
  harness::write_latency_csv(out, rows);
  std::cout << "latency csv: " << filename << "\n";
}

}  // namespace pragmalist::bench
