// Variant catalog: maps the string ids the bench binaries use to
// concrete structures, type-erased behind core::ISet.
//
// Engine ids follow one grammar, `<engine>[/ebr|/hp][/shN][/heap][/nohint]`,
// generated from one table of engine families in catalog.cpp:
//   engines: the paper rows a-f (draconic, singly, doubly,
//     singly_cursor, singly_fetch_or, doubly_cursor) and unrolled_k8
//     (K=8 sorted keys per cache-line-sized fat node; `unrolled-k8` is
//     an alias -- dashes normalize to underscores)
//   /ebr, /hp: epoch-based or hazard-pointer reclamation (src/reclaim/);
//     no segment is the paper's arena
//   /shN: N hash-partitioned lists behind one set, sharing one
//     reclamation domain (src/shard/), any N in [1, 1024]
//   /heap: plain-malloc node memory instead of per-domain slabs
//     (src/alloc/)
//   /nohint: the shortcut-hint index disabled
// Row a is the Harris/Michael discipline, so the textbook Michael list
// on EBR or HP is `draconic/ebr/heap/nohint` or `draconic/hp/heap/nohint`.
//
// Plain ids are single cells that take no /ebr, /hp or /shN segment:
//   ablation-only engines: doubly_cursor_noprec, singly_cursor_backoff
//   baselines: coarse_lock, lazy_lock (these ignore /heap and reject
//     /nohint)
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/iset.hpp"

namespace pragmalist::harness {

/// Construct the structure registered under `id`; aborts with
/// id_error(id) (on a typo, the list of known ids) when it names none.
std::unique_ptr<core::ISet> make_set(std::string_view id);

/// Why `id` names no catalog cell, or "" when it names one: the check
/// make_set runs, for callers that report a bad id instead of aborting
/// (a command line exits 2).
std::string id_error(std::string_view id);

/// The engine families, in table order: rows a-f, then unrolled_k8.
const std::vector<std::string_view>& engine_variant_ids();

/// The six variants of the paper tables, in row order a-f.
const std::vector<std::string_view>& paper_variant_ids();

/// The five variants of the scaling figures (a, b, c, d, f).
const std::vector<std::string_view>& figure_variant_ids();

/// Every row of the catalog under every reclaimer it takes, unsharded
/// (tests iterate this).
const std::vector<std::string_view>& all_variant_ids();

/// The `<variant>/<reclaimer>` grid: every engine under ebr and hp
/// reclamation (the stress tier iterates this).
const std::vector<std::string_view>& reclaim_variant_ids();

/// The sharded showcase grid: every `<variant>/<reclaimer>` id behind
/// a 4-way hash-sharded set (`<id>/sh4`). make_set accepts any
/// `<base>/shN`; this fixed list is what the stress tiers iterate.
const std::vector<std::string_view>& sharded_variant_ids();

/// Paper row letter for an id ("a".."f"), g/h for the locked
/// baselines, "-" for anything unlettered.
std::string_view variant_letter(std::string_view id);

}  // namespace pragmalist::harness
