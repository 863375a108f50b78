#include "src/harness/catalog.hpp"

#include <string>
#include <utility>

#include "src/alloc/slab.hpp"
#include "src/baselines/locked_lists.hpp"
#include "src/common/debug.hpp"
#include "src/core/unrolled_family.hpp"
#include "src/core/variants.hpp"
#include "src/shard/sharded_set.hpp"
#include "src/structures/skiplist.hpp"

namespace pragmalist::harness {
namespace {

// What an adapted structure exposes beyond the common set surface.
// Engines carry node accounting, reclaim limbo and fault injection; a
// sharded set of them adds per-shard load. The plain rows (locked
// lists, skip lists) have none of it, so ISet's defaults stand -- and
// ISetHandle's no-op abandon makes them fault-oblivious (a "crash" is
// just a clean departure there).
enum class Surface { kPlain, kEngine, kSharded };

/// Adapts a concrete structure with the
/// make_handle()/validate()/size()/snapshot() shape to core::ISet.
/// Owns its id as a string: composed ids (`.../sh4/heap`) have no
/// static storage to point into.
template <typename Structure, Surface kSurface>
class SetAdapter final : public core::ISet {
  static constexpr bool kEngine = kSurface != Surface::kPlain;
  static constexpr bool kSharded = kSurface == Surface::kSharded;

  class HandleAdapter final : public core::ISetHandle {
   public:
    explicit HandleAdapter(typename Structure::Handle h)
        : h_(std::move(h)) {}
    bool add(long key) override { return h_.add(key); }
    bool remove(long key) override { return h_.remove(key); }
    bool contains(long key) override { return h_.contains(key); }
    long range_scan(long lo, long hi, const core::KeySink& sink) override {
      return h_.range_scan(lo, hi, sink);
    }
    std::vector<long> ascend(long from, std::size_t limit) override {
      return h_.ascend(from, limit);
    }
    core::OpCounters counters() const override { return h_.counters(); }
    void abandon(faults::FaultKind k, long key) override {
      if constexpr (kEngine) h_.abandon(k, key);
    }

   private:
    typename Structure::Handle h_;
  };

 public:
  template <typename... Args>
  explicit SetAdapter(std::string id, Args&&... args)
      : id_(std::move(id)), inner_(std::forward<Args>(args)...) {}

  std::unique_ptr<core::ISetHandle> make_handle() override {
    return std::make_unique<HandleAdapter>(inner_.make_handle());
  }
  bool validate(std::string* err) const override {
    return inner_.validate(err);
  }
  std::size_t size() const override { return inner_.size(); }
  std::vector<long> snapshot() const override { return inner_.snapshot(); }
  std::size_t allocated_nodes() const override {
    if constexpr (kEngine)
      return inner_.allocated_nodes();
    else
      return 0;
  }
  std::size_t limbo_nodes() const override {
    if constexpr (kEngine)
      return inner_.limbo_nodes();
    else
      return 0;
  }
  std::size_t reap_crashed() override {
    if constexpr (kEngine)
      return inner_.reap_crashed();
    else
      return 0;
  }
  faults::BlastStats blast_stats() const override {
    if constexpr (kEngine)
      return inner_.blast_stats();
    else
      return {};
  }
  int shard_count() const override {
    if constexpr (kSharded)
      return inner_.shard_count();
    else
      return 1;
  }
  std::vector<long> shard_ops() const override {
    if constexpr (kSharded)
      return inner_.shard_ops();
    else
      return {};
  }
  std::vector<std::size_t> shard_sizes() const override {
    if constexpr (kSharded)
      return inner_.shard_sizes();
    else
      return {};
  }
  std::string_view name() const override { return id_; }

 private:
  std::string id_;
  Structure inner_;
};

// --- the id grammar: <base>[/ebr|/hp][/shN][/heap][/nohint] ----------

enum class Reclaimer { kArena, kEbr, kHp };

/// One parsed id: which cell of a row's grid to build.
struct Cell {
  Reclaimer reclaimer = Reclaimer::kArena;
  int shards = 0;  // 0: one plain list; N: N hash shards (`/shN`)
  alloc::Mode mode = alloc::Mode::kSlab;
  bool hints = true;
};

using SetPtr = std::unique_ptr<core::ISet>;
using Maker = SetPtr (*)(std::string id, const Cell& cell);

template <typename Engine>
SetPtr make_cell(std::string id, const Cell& c) {
  if (c.shards == 0)
    return std::make_unique<SetAdapter<Engine, Surface::kEngine>>(
        std::move(id), c.mode, c.hints);
  return std::make_unique<
      SetAdapter<shard::ShardedSet<Engine>, Surface::kSharded>>(
      std::move(id), c.shards, c.mode, c.hints);
}

template <template <template <typename> class> class ListWith>
SetPtr make_engine(std::string id, const Cell& c) {
  if (c.reclaimer == Reclaimer::kEbr)
    return make_cell<ListWith<reclaim::Ebr>>(std::move(id), c);
  if (c.reclaimer == Reclaimer::kHp)
    return make_cell<ListWith<reclaim::Hp>>(std::move(id), c);
  return make_cell<ListWith<reclaim::Arena>>(std::move(id), c);
}

// Locked lists and skip lists `new` their own nodes, so the node-memory
// mode is silently irrelevant to them. They have no hint index either,
// but that is NOT silent: their `/nohint` twin would benchmark the
// structure against itself, so it is rejected.
template <typename Structure>
SetPtr make_plain(std::string id, const Cell& c) {
  PRAGMALIST_CHECK(c.hints,
                   "'/nohint' needs an engine id: this structure has no "
                   "hint index to disable");
  return std::make_unique<SetAdapter<Structure, Surface::kPlain>>(
      std::move(id));
}

struct EngineRow {
  std::string_view id;
  std::string_view letter;  // paper table row; "-" for unrolled_k8
  bool in_figures;          // plotted in the paper's scaling figures
  Maker make;
};

// One row per engine family: every cell of the grammar is built from
// the family's `With<R>` alias. The paper rows a-f come first, in
// table order. `unrolled_k8` is K=8 sorted keys per cache-line-sized
// node (src/core/unrolled_family.hpp), also reachable as `unrolled-k8`.
constexpr EngineRow kEngines[] = {
    {"draconic", "a", true, &make_engine<core::DraconicListWith>},
    {"singly", "b", true, &make_engine<core::SinglyListWith>},
    {"doubly", "c", true, &make_engine<core::DoublyListWith>},
    {"singly_cursor", "d", true, &make_engine<core::SinglyCursorListWith>},
    {"singly_fetch_or", "e", false,
     &make_engine<core::SinglyFetchOrListWith>},
    {"doubly_cursor", "f", true, &make_engine<core::DoublyCursorListWith>},
    {"unrolled_k8", "-", false, &make_engine<core::UnrolledK8ListWith>},
};

struct PlainRow {
  std::string_view id;
  std::string_view letter;
  Maker make;
};

// Arena-only ablation cells: engines, so `/heap` and `/nohint` apply.
constexpr PlainRow kAblations[] = {
    {"doubly_cursor_noprec", "-", &make_cell<core::DoublyCursorNoPrecList>},
    {"singly_cursor_backoff", "-",
     &make_cell<core::SinglyCursorBackoffList>},
};

// Baselines g/h and the skip-list structures k/l.
constexpr PlainRow kPlain[] = {
    {"coarse_lock", "g", &make_plain<baselines::CoarseLockList>},
    {"lazy_lock", "h", &make_plain<baselines::LazyLockList>},
    {"skiplist", "k", &make_plain<structures::SkipList>},
    {"skiplist_draconic", "l", &make_plain<structures::SkipListDraconic>},
};

constexpr std::string_view kReclaimSegments[] = {"", "/ebr", "/hp"};

bool is_paper_row(const EngineRow& row) { return row.letter != "-"; }

/// Strip a trailing `suffix` off a longer `*id`; true when it was there.
bool strip_suffix(std::string_view* id, std::string_view suffix) {
  if (id->size() <= suffix.size() ||
      id->substr(id->size() - suffix.size()) != suffix)
    return false;
  id->remove_suffix(suffix.size());
  return true;
}

/// Split `<base>/shN` into base and shard count. Returns false when the
/// id has no well-formed `/sh<digits>` suffix.
bool split_sharded_id(std::string_view id, std::string_view* base,
                      int* shards) {
  const auto pos = id.rfind("/sh");
  if (pos == std::string_view::npos) return false;
  const std::string_view digits = id.substr(pos + 3);
  if (digits.empty() || digits.size() > 4) return false;
  int n = 0;
  for (const char ch : digits) {
    if (ch < '0' || ch > '9') return false;
    n = n * 10 + (ch - '0');
  }
  *base = id.substr(0, pos);
  *shards = n;
  return true;
}

/// The enumerations hand out string_views of composed ids: keep their
/// backing strings for the program's lifetime. The views come first, so
/// the returned reference is the block's start and keeps it reachable.
const std::vector<std::string_view>& intern(std::vector<std::string> ids) {
  struct Interned {
    std::vector<std::string_view> views;
    std::vector<std::string> storage;
  };
  auto* in = new Interned{{}, std::move(ids)};
  in->views.assign(in->storage.begin(), in->storage.end());
  return in->views;
}

}  // namespace

std::unique_ptr<core::ISet> make_set(std::string_view id) {
  // Dashes are id-alias sugar (`unrolled-k8` == `unrolled_k8`): the
  // docs spell the family with a dash, the catalog key with an
  // underscore.
  std::string norm(id);
  for (char& ch : norm) {
    if (ch == '-') ch = '_';
  }
  // Suffixes peel off outermost first. `/nohint` builds the same cell
  // with the shortcut-hint index disabled (readers always start from
  // head/cursor) -- the ablation twin the read-path benches compare
  // against. `/heap` requests the plain-malloc twin of the default
  // slab node memory.
  std::string_view base = norm;
  Cell cell;
  cell.hints = !strip_suffix(&base, "/nohint");
  if (strip_suffix(&base, "/heap")) cell.mode = alloc::Mode::kHeap;
  if (split_sharded_id(base, &base, &cell.shards))
    PRAGMALIST_CHECK(cell.shards >= 1 && cell.shards <= 1024,
                     "shard count must be in [1, 1024]");
  if (strip_suffix(&base, "/ebr"))
    cell.reclaimer = Reclaimer::kEbr;
  else if (strip_suffix(&base, "/hp"))
    cell.reclaimer = Reclaimer::kHp;

  for (const auto& row : kEngines)
    if (row.id == base) return row.make(std::string(id), cell);
  // The plain rows are single cells: the reclaimer and shard segments
  // exist only for the engines.
  const auto make_plain_row = [&](const PlainRow& row) {
    if (cell.reclaimer != Reclaimer::kArena || cell.shards != 0) {
      std::string msg = "id '" + std::string(id) + "': '" +
                        std::string(base) +
                        "' takes no /ebr, /hp or /shN segment; engines:";
      for (const auto& engine : kEngines) {
        msg += ' ';
        msg += engine.id;
      }
      PRAGMALIST_CHECK(false, msg.c_str());
    }
    return row.make(std::string(id), cell);
  };
  for (const auto& row : kAblations)
    if (row.id == base) return make_plain_row(row);
  for (const auto& row : kPlain)
    if (row.id == base) return make_plain_row(row);
  std::string msg = "unknown variant '" + std::string(id) + "'; known:";
  for (const auto known : all_variant_ids()) {
    msg += ' ';
    msg += known;
  }
  msg +=
      " (any engine id also takes /shN, e.g. singly/ebr/sh8, a trailing"
      " /heap for its malloc twin and a trailing /nohint for its"
      " hint-index-disabled twin)";
  PRAGMALIST_CHECK(false, msg.c_str());
  __builtin_unreachable();
}

const std::vector<std::string_view>& engine_variant_ids() {
  static const std::vector<std::string_view> ids = [] {
    std::vector<std::string_view> v;
    for (const auto& row : kEngines) v.push_back(row.id);
    return v;
  }();
  return ids;
}

const std::vector<std::string_view>& paper_variant_ids() {
  static const std::vector<std::string_view> ids = [] {
    std::vector<std::string_view> v;
    for (const auto& row : kEngines)
      if (is_paper_row(row)) v.push_back(row.id);
    return v;
  }();
  return ids;
}

const std::vector<std::string_view>& figure_variant_ids() {
  static const std::vector<std::string_view> ids = [] {
    std::vector<std::string_view> v;
    for (const auto& row : kEngines)
      if (row.in_figures) v.push_back(row.id);
    return v;
  }();
  return ids;
}

const std::vector<std::string_view>& all_variant_ids() {
  // The paper rows and their arena-only ablations, the paper rows under
  // each reclaimer, the other engine families under every reclaimer,
  // then the plain structures.
  static const auto& ids = intern([] {
    std::vector<std::string> v;
    for (const auto seg : kReclaimSegments) {
      for (const auto& row : kEngines)
        if (is_paper_row(row))
          v.push_back(std::string(row.id).append(seg));
      if (seg.empty())
        for (const auto& row : kAblations) v.emplace_back(row.id);
    }
    for (const auto& row : kEngines)
      if (!is_paper_row(row))
        for (const auto seg : kReclaimSegments)
          v.push_back(std::string(row.id).append(seg));
    for (const auto& row : kPlain) v.emplace_back(row.id);
    return v;
  }());
  return ids;
}

const std::vector<std::string_view>& reclaim_variant_ids() {
  static const std::vector<std::string_view> ids = [] {
    std::vector<std::string_view> v;
    for (const auto id : all_variant_ids())
      if (id.find('/') != std::string_view::npos) v.push_back(id);
    return v;
  }();
  return ids;
}

const std::vector<std::string_view>& sharded_variant_ids() {
  static const auto& ids = intern([] {
    std::vector<std::string> v;
    for (const auto id : reclaim_variant_ids())
      v.push_back(std::string(id) + "/sh4");
    return v;
  }());
  return ids;
}

std::string_view variant_letter(std::string_view id) {
  for (const auto& row : kEngines)
    if (row.id == id) return row.letter;
  for (const auto& row : kPlain)
    if (row.id == id) return row.letter;
  return "-";
}

}  // namespace pragmalist::harness
