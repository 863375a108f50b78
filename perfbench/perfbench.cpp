// perfbench: the repository's benchmark. One invocation runs one
// workload, checks every result, prints each metric by name and unit
// on stderr, and prints one JSON object as the last line of stdout.
//
//   perfbench --workload list_mix|list_retry|wire_mix --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// untraced phase, then a traced phase of the same length, and reports
// the per-layer metrics plus trace.overhead_frac (the throughput the
// tracing cost); --spans names the CSV the traced phase's spans go to.
// A failed check prints its reason on stderr and exits 1 with no
// result. perfbench/README.md documents the workloads and metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/iset.hpp"
#include "src/harness/catalog.hpp"
#include "src/harness/latency.hpp"
#include "src/harness/thread_team.hpp"
#include "src/net/loadgen.hpp"
#include "src/net/server.hpp"
#include "src/workload/distributions.hpp"
#include "src/workload/op_mix.hpp"
#include "src/workload/rng.hpp"

namespace {

using namespace pragmalist;
using harness::LatencyProfile;
using harness::LatHistogram;
using harness::OpClass;

// --- workload parameters ---------------------------------------------

constexpr int kThreads = 4;     // list workers; the box has 4 cores
constexpr int kSetupReps = 5;   // setup_s is the median of these
constexpr std::uint64_t kWakeNs = 1'500'000'000ULL;  // see wake_cpus()
constexpr const char* kListId = "singly_fetch_or/ebr";
constexpr std::uint64_t kWindowNs = 1'000'000'000ULL;  // one timed window

// list_mix: the paper's Tables 3/6/9 random mix at its equilibrium.
constexpr long kMixUniverse = 10000;
constexpr long kMixPrefill = kMixUniverse / 2;
constexpr long kMixWarmOps = 50000;  // per thread, per setup

// list_retry: the paper's Tables 1/4/7 same-keys schedule, lock-step.
constexpr long kRetryKeys = 10000;
constexpr int kRetryWarmRounds = 3;

// wire_mix: in-process pragmalistd driven by loadgen, closed loop.
constexpr const char* kWireId = "singly_fetch_or/ebr/sh8";
constexpr int kWireWorkers = 2;
constexpr int kWireConns = 4;
constexpr int kWireClientThreads = 2;
constexpr long kWireWarmOps = 20000;

// Tracing keeps one call span in kSpanStride per thread, at most
// kSpanCap per thread; every call still lands in the histograms.
constexpr long kSpanStride = 64;
constexpr std::size_t kSpanCap = 1 << 16;

struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return ratio(s, static_cast<double>(v.size()));
}

/// Quantile q of a histogram, in microseconds, interpolated linearly
/// inside the bucket holding the rank. LatHistogram::percentile reports
/// the bucket's upper bound, which reads identically run after run.
double quantile_us(const LatHistogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const double rank = q * static_cast<double>(n);
  std::uint64_t below = 0;
  for (int i = 0; i < LatHistogram::kBuckets; ++i) {
    const std::uint64_t c = h.bucket_count(i);
    if (c == 0) continue;
    if (static_cast<double>(below + c) >= rank) {
      const auto lo = static_cast<double>(LatHistogram::bucket_min(i));
      const auto width =
          static_cast<double>(LatHistogram::bucket_max(i)) - lo + 1;
      const double at =
          lo + width * (rank - static_cast<double>(below)) /
                   static_cast<double>(c);
      return std::min(at, static_cast<double>(h.max())) / 1000.0;
    }
    below += c;
  }
  return static_cast<double>(h.max()) / 1000.0;
}

/// max over mean of a per-shard vector; 1 for a single (or no) shard.
template <typename T>
double max_over_mean(const std::vector<T>& v) {
  if (v.size() < 2) return 1.0;
  double sum = 0, mx = 0;
  for (const T x : v) {
    sum += static_cast<double>(x);
    mx = std::max(mx, static_cast<double>(x));
  }
  return ratio(mx, sum / static_cast<double>(v.size()));
}

void check_valid(const core::ISet& set, const char* when) {
  std::string why;
  check(set.validate(&why), std::string("validate() ") + when + ": " + why);
}

// --- tracing ----------------------------------------------------------

struct Span {
  std::uint64_t start_ns, end_ns;
  int parent;  // index into the owning thread's loop spans
  const char* name;
};

/// One thread's trace: its loop spans (one per window or round) and a
/// stride sample of the call spans under them.
struct ThreadTrace {
  std::vector<Span> loops;
  std::vector<Span> calls;
  long ordinal = 0;
  std::uint64_t busy_ns = 0;  // time inside ISetHandle calls

  void call(const char* name, std::uint64_t t0, std::uint64_t t1) {
    busy_ns += t1 - t0;
    if (ordinal++ % kSpanStride == 0 && calls.size() < kSpanCap)
      calls.push_back({t0, t1, static_cast<int>(loops.size()), name});
  }
  void loop(const char* name, std::uint64_t t0, std::uint64_t t1) {
    loops.push_back({t0, t1, -1, name});
  }
  std::uint64_t loop_ns() const {
    std::uint64_t s = 0;
    for (const Span& l : loops) s += l.end_ns - l.start_ns;
    return s;
  }
};

/// Writes every thread's spans as CSV (id, parent, thread, name, start
/// and end in ns from `t0`). Call spans record the loop span they ran
/// under; a call recorded after its thread's last loop closed (none do)
/// would point one past it.
void write_spans(const std::string& path,
                 const std::vector<ThreadTrace>& traces, std::uint64_t t0) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  check(f != nullptr, "cannot write span file " + path);
  std::fprintf(f, "id,parent,thread,name,start_ns,end_ns\n");
  long id = 0;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const long base = id;
    for (const Span& s : traces[t].loops)
      std::fprintf(f, "%ld,,%zu,%s,%llu,%llu\n", ++id, t, s.name,
                   static_cast<unsigned long long>(s.start_ns - t0),
                   static_cast<unsigned long long>(s.end_ns - t0));
    for (const Span& s : traces[t].calls)
      std::fprintf(f, "%ld,%ld,%zu,%s,%llu,%llu\n", ++id, base + s.parent + 1,
                   t, s.name, static_cast<unsigned long long>(s.start_ns - t0),
                   static_cast<unsigned long long>(s.end_ns - t0));
  }
  check(std::fclose(f) == 0, "cannot finish span file " + path);
}

/// Samples a set's limbo depth every millisecond while alive.
class LimboSampler {
 public:
  explicit LimboSampler(const core::ISet& set)
      : thread_([this, &set] {
          while (!stop_.load(std::memory_order_acquire)) {
            const auto n = static_cast<double>(set.limbo_nodes());
            peak_ = std::max(peak_, n);
            sum_ += n;
            ++samples_;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  LimboSampler(const LimboSampler&) = delete;
  LimboSampler& operator=(const LimboSampler&) = delete;
  ~LimboSampler() { stop(); }

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  double peak() const { return peak_; }
  double mean() const { return ratio(sum_, static_cast<double>(samples_)); }

 private:
  std::atomic<bool> stop_{false};
  double peak_ = 0, sum_ = 0;
  long samples_ = 0;
  std::thread thread_;  // last: starts after the fields it writes
};

/// Spins one SCHED_IDLE thread per core while alive, so that no core
/// halts. A depth-1 round trip over loopback is a chain of cross-thread
/// wake-ups; waking a halted vCPU costs the host's scheduler, not the
/// program, and that cost changes with the host's load. A SCHED_IDLE
/// thread runs only when nothing else wants the core, and a woken
/// benchmark thread preempts it at once.
class IdleSpinners {
 public:
  explicit IdleSpinners(int n) {
    for (int t = 0; t < n; ++t)
      team_.emplace_back([this] {
        // At normal priority a spinner would take cores from the
        // benchmark, so one that cannot go idle-class does not spin.
        const sched_param none{};
        if (sched_setscheduler(0, SCHED_IDLE, &none) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& th : team_) th.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> team_;
};

// --- results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What the end-to-end metrics report from a phase: medians over its
/// quiet half, the ceil(n/2) windows of highest rate.
struct Reading {
  double rate, p50, p99;
};

/// One timed phase of a workload: its 1 s windows and what it gathers
/// for the per-layer metrics. Host noise only ever slows a window, so
/// the end-to-end figures come from the phase's fastest windows. A
/// median over that quiet half spread less from run to run than the
/// single best window (whose percentiles are the extremes of noisy
/// values) or the median over every window (which a slow stretch
/// moves).
struct Phase {
  explicit Phase(bool traced = false) : traces(traced ? kThreads : 0) {}

  std::vector<double> rates, p50s, p99s;  // one per window
  std::uint64_t lat_samples = 0;
  long attempted = 0;
  long failed = 0;
  LatencyProfile calls;             // ISetHandle call latency by class
  core::OpCounters counters;        // the handles' counters
  std::vector<ThreadTrace> traces;  // one per worker when traced
  std::vector<Metric> layers;       // filled by traced phases only

  bool traced() const { return !traces.empty(); }
  ThreadTrace* trace_of(int t) {
    return traced() ? &traces[static_cast<std::size_t>(t)] : nullptr;
  }
  void window(double ops_per_s, const LatHistogram& lat) {
    rates.push_back(ops_per_s);
    p50s.push_back(quantile_us(lat, 0.5));
    p99s.push_back(quantile_us(lat, 0.99));
    lat_samples += lat.count();
  }
  Reading quiet() const {
    std::vector<std::size_t> order(rates.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return rates[x] > rates[y];
    });
    order.resize((order.size() + 1) / 2);
    std::vector<double> r, p50, p99;
    for (const std::size_t i : order) {
      r.push_back(rates[i]);
      p50.push_back(p50s[i]);
      p99.push_back(p99s[i]);
    }
    return {median(r), median(p50), median(p99)};
  }
};

/// Call `op` on a handle, record its latency, and (traced) its span.
template <typename Op>
bool timed(LatencyProfile& lat, ThreadTrace* tr, OpClass cls, Op&& op,
           std::uint64_t* end = nullptr) {
  const std::uint64_t t0 = now_ns();
  const bool r = op();
  const std::uint64_t t1 = now_ns();
  lat.of(cls).record(t1 - t0);
  if (tr) tr->call(harness::op_class_name(cls), t0, t1);
  if (end) *end = t1;
  return r;
}

/// Per-layer metrics of the `core` layer from the phase's call
/// histograms, handle counters and traces.
void core_layers(Phase& ph) {
  const core::OpCounters& c = ph.counters;
  const auto ops = static_cast<double>(c.total_ops());
  const auto p = [&](OpClass cls, double q) {
    return quantile_us(ph.calls.of(cls), q);
  };
  std::uint64_t busy = 0, loop = 0;
  for (const ThreadTrace& t : ph.traces) {
    busy += t.busy_ns;
    loop += t.loop_ns();
  }
  ph.layers = {
      {"core.add_p50_us", p(OpClass::kAdd, 0.5), "us"},
      {"core.add_p99_us", p(OpClass::kAdd, 0.99), "us"},
      {"core.remove_p50_us", p(OpClass::kRemove, 0.5), "us"},
      {"core.remove_p99_us", p(OpClass::kRemove, 0.99), "us"},
      {"core.contains_p50_us", p(OpClass::kContains, 0.5), "us"},
      {"core.contains_p99_us", p(OpClass::kContains, 0.99), "us"},
      {"core.hint_hit_frac", ratio(static_cast<double>(c.hint_hits), ops),
       "ratio"},
      {"core.restarts_per_kop",
       ratio(1000.0 * static_cast<double>(c.restarts), ops), "1/kop"},
      {"core.busy_frac",
       ratio(static_cast<double>(busy), static_cast<double>(loop)), "ratio"},
      {"core.add_ok_frac",
       ratio(static_cast<double>(c.adds), static_cast<double>(c.add_calls)),
       "ratio"},
      {"core.remove_ok_frac",
       ratio(static_cast<double>(c.rems), static_cast<double>(c.rem_calls)),
       "ratio"},
      {"core.contains_hit_frac",
       ratio(static_cast<double>(c.cons), static_cast<double>(c.con_calls)),
       "ratio"},
  };
}

void reclaim_layers(Phase& ph, double limbo_peak, double limbo_mean,
                    double nodes_per_key) {
  ph.layers.push_back({"reclaim.limbo_peak_nodes", limbo_peak, "nodes"});
  ph.layers.push_back({"reclaim.limbo_mean_nodes", limbo_mean, "nodes"});
  ph.layers.push_back({"reclaim.nodes_per_key", nodes_per_key, "ratio"});
}

void shard_layers(Phase& ph, double ops_max_over_mean,
                  double keys_max_over_mean) {
  ph.layers.push_back({"shard.ops_max_over_mean", ops_max_over_mean, "ratio"});
  ph.layers.push_back(
      {"shard.keys_max_over_mean", keys_max_over_mean, "ratio"});
}

/// The `net` metrics; every one is 0 off the wire workload.
struct NetLayer {
  double service_p50_us = 0, service_p99_us = 0, scan_service_p99_us = 0;
  double outside_p50_us = 0, outside_frac = 0, frames_per_op = 0;
  double client_errors = 0, conn_failures = 0, abandoned = 0;
  double protocol_errors = 0, hint_hit_frac = 0, restarts_per_kop = 0;
};

void net_layers(Phase& ph, const NetLayer& n) {
  const std::vector<Metric> m = {
      {"net.service_p50_us", n.service_p50_us, "us"},
      {"net.service_p99_us", n.service_p99_us, "us"},
      {"net.scan_service_p99_us", n.scan_service_p99_us, "us"},
      {"net.outside_p50_us", n.outside_p50_us, "us"},
      {"net.outside_frac", n.outside_frac, "ratio"},
      {"net.frames_per_op", n.frames_per_op, "ratio"},
      {"net.client_errors", n.client_errors, "count"},
      {"net.conn_failures", n.conn_failures, "count"},
      {"net.abandoned", n.abandoned, "count"},
      {"net.protocol_errors", n.protocol_errors, "count"},
      {"net.hint_hit_frac", n.hint_hit_frac, "ratio"},
      {"net.restarts_per_kop", n.restarts_per_kop, "1/kop"},
  };
  ph.layers.insert(ph.layers.end(), m.begin(), m.end());
}

/// Every workload runs setup kSetupReps times (setup_s is their median),
/// one untraced phase, and a traced phase when asked.
struct WorkloadRun {
  double setup_s = 0;
  Phase untraced;
  Phase traced;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  long seconds = 10;
  bool trace = false;
  std::string spans;
};

// --- list_mix -----------------------------------------------------------

/// A list_mix set and its population ledger (prefill + adds - rems).
struct MixSet {
  std::unique_ptr<core::ISet> set;
  long population = 0;
  long window = 0;  // windows run so far; keys each one's RNG stream
};

/// One list_mix window on kThreads fresh handles: each thread runs the
/// 10/10/80 mix for `ops` ops, or until `ns` elapse when ops == 0.
/// Records the window into `ph`; checks validate() and the population.
void mix_window(MixSet& ms, std::uint64_t seed, long ops, std::uint64_t ns,
                Phase& ph) {
  const std::uint64_t stream =
      workload::thread_seed(seed, static_cast<int>(1000 + ms.window++));
  const workload::UniformKeys keys(kMixUniverse);
  std::vector<std::unique_ptr<LatencyProfile>> parts;
  for (int t = 0; t < kThreads; ++t)
    parts.push_back(std::make_unique<LatencyProfile>());
  std::vector<core::OpCounters> counters(kThreads);
  const double ms_elapsed = harness::run_team(
      kThreads,
      [&](int t) {
        auto h = ms.set->make_handle();
        workload::Rng rng(workload::thread_seed(stream, t));
        LatencyProfile& lp = *parts[static_cast<std::size_t>(t)];
        ThreadTrace* tr = ph.trace_of(t);
        const std::uint64_t start = now_ns();
        std::uint64_t now = start;
        for (long i = 0; ops ? i < ops : now - start < ns; ++i) {
          const long key = keys(rng);
          switch (workload::kTableMix.pick(rng)) {
            case workload::OpKind::kAdd:
              timed(lp, tr, OpClass::kAdd, [&] { return h->add(key); }, &now);
              break;
            case workload::OpKind::kRemove:
              timed(lp, tr, OpClass::kRemove, [&] { return h->remove(key); },
                    &now);
              break;
            default:
              timed(lp, tr, OpClass::kContains,
                    [&] { return h->contains(key); }, &now);
          }
        }
        if (tr) tr->loop("worker_loop", start, now);
        counters[static_cast<std::size_t>(t)] = h->counters();
      },
      /*pin=*/false);

  core::OpCounters agg;
  for (const auto& c : counters) agg += c;
  LatencyProfile win;
  for (const auto& p : parts) win += *p;
  ph.calls += win;
  ph.counters += agg;
  ph.attempted += agg.total_ops();
  ph.window(ratio(static_cast<double>(agg.total_ops()), ms_elapsed / 1000.0),
            win.merged());
  ms.population += agg.adds - agg.rems;
  check_valid(*ms.set, "after a list_mix window");
  check(static_cast<long>(ms.set->size()) == ms.population,
        "list_mix: prefill + adds - rems != size()");
}

MixSet mix_setup(std::uint64_t seed) {
  MixSet ms{harness::make_set(kListId), 0, 0};
  auto h = ms.set->make_handle();
  workload::Rng rng(workload::thread_seed(seed, -1));
  while (ms.population < kMixPrefill)
    ms.population += h->add(static_cast<long>(
        rng.below(static_cast<std::uint64_t>(kMixUniverse))));
  h.reset();
  Phase warm;
  mix_window(ms, seed, kMixWarmOps, 0, warm);
  return ms;
}

Phase mix_phase(MixSet& ms, const Args& a, bool traced) {
  Phase ph(traced);
  std::vector<double> nodes_per_key;
  std::unique_ptr<LimboSampler> limbo;
  if (traced) limbo = std::make_unique<LimboSampler>(*ms.set);
  const std::uint64_t t0 = now_ns();
  for (long w = 0; w < a.seconds; ++w) {
    mix_window(ms, a.seed, 0, kWindowNs, ph);
    nodes_per_key.push_back(
        ratio(static_cast<double>(ms.set->allocated_nodes()),
              static_cast<double>(ms.set->size())));
  }
  if (traced) {
    limbo->stop();
    core_layers(ph);
    reclaim_layers(ph, limbo->peak(), limbo->mean(), mean(nodes_per_key));
    shard_layers(ph, 1.0, 1.0);
    net_layers(ph, {});
    write_spans(a.spans, ph.traces, t0);
  }
  return ph;
}

WorkloadRun run_list_mix(const Args& a) {
  WorkloadRun r;
  std::vector<double> setups;
  MixSet ms;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = now_ns();
    ms = mix_setup(a.seed);
    setups.push_back(seconds_since(t0));
  }
  r.setup_s = median(setups);
  r.untraced = mix_phase(ms, a, false);
  if (a.trace) r.traced = mix_phase(ms, a, true);
  return r;
}

// --- list_retry ---------------------------------------------------------

/// Spinning barrier whose last arrival runs `last` before releasing the
/// others, so `last` sees every thread's phase complete and quiescent.
class SpinBarrier {
 public:
  explicit SpinBarrier(int n) : n_(n) {}

  template <typename Last>
  void arrive_and_wait(Last&& last) {
    const int gen = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      last();
      count_.store(0, std::memory_order_relaxed);
      gen_.store(gen + 1, std::memory_order_release);
      return;
    }
    while (gen_.load(std::memory_order_acquire) == gen)
      std::this_thread::yield();
  }

 private:
  const int n_;
  std::atomic<int> count_{0};
  std::atomic<int> gen_{0};
};

/// Lock-step same-keys rounds on one long-lived handle per thread: all
/// threads add 0..n-1, meet, all remove 0..n-1, meet. Runs `rounds`
/// rounds, or when rounds == 0 whole rounds until `windows` windows
/// closed. A window is the consecutive rounds that first fill 1 s, so
/// that no single lucky or unlucky interleaving is a window. Checks
/// adds == removes == n per round, the set empty after each round, and
/// validate(). When traced, samples nodes per key at the end of every
/// add phase.
void retry_rounds(core::ISet& set, int rounds, long windows, Phase& ph,
                  std::vector<double>& nodes_per_key) {
  SpinBarrier barrier(kThreads);
  std::vector<long> adds(kThreads), rems(kThreads);
  int done = 0;
  std::uint64_t window_ns = 0;
  double window_ops = 0;
  LatHistogram before;  // the latencies of every closed window
  std::vector<std::unique_ptr<LatencyProfile>> parts;
  for (int t = 0; t < kThreads; ++t)
    parts.push_back(std::make_unique<LatencyProfile>());
  std::vector<core::OpCounters> counters(kThreads);
  std::string failure;  // written only by a barrier's last arrival
  bool go_on = true;
  std::uint64_t round_start = 0;

  const auto sum = [](const std::vector<long>& v) {
    long s = 0;
    for (const long x : v) s += x;
    return s;
  };

  harness::run_team(
      kThreads,
      [&](int t) {
        auto h = set.make_handle();
        LatencyProfile& lp = *parts[static_cast<std::size_t>(t)];
        ThreadTrace* tr = ph.trace_of(t);
        const auto ts = static_cast<std::size_t>(t);
        for (;;) {
          barrier.arrive_and_wait([&] { round_start = now_ns(); });
          const std::uint64_t loop_start = now_ns();
          long ok = 0;
          for (long k = 0; k < kRetryKeys; ++k)
            ok += timed(lp, tr, OpClass::kAdd, [&] { return h->add(k); });
          adds[ts] = ok;
          barrier.arrive_and_wait([&] {
            if (sum(adds) != kRetryKeys || set.size() != kRetryKeys) {
              failure = "list_retry: adds != n in an add phase";
              go_on = false;
            }
            if (ph.traced())
              nodes_per_key.push_back(
                  ratio(static_cast<double>(set.allocated_nodes()),
                        static_cast<double>(kRetryKeys)));
          });
          ok = 0;
          for (long k = 0; k < kRetryKeys; ++k)
            ok += timed(lp, tr, OpClass::kRemove,
                        [&] { return h->remove(k); });
          rems[ts] = ok;
          if (tr) tr->loop("worker_round", loop_start, now_ns());
          barrier.arrive_and_wait([&] {
            const std::uint64_t end = now_ns();
            std::string why;
            if (sum(rems) != kRetryKeys || set.size() != 0) {
              failure = "list_retry: removes != n, or the set is not empty";
              go_on = false;
            } else if (!set.validate(&why)) {
              failure = "validate() after a list_retry round: " + why;
              go_on = false;
            }
            window_ns += end - round_start;
            window_ops += 2.0 * kThreads * kRetryKeys;
            if (window_ns >= kWindowNs) {
              LatencyProfile all;
              for (const auto& p : parts) all += *p;
              LatHistogram window = all.merged();
              window -= before;
              before = all.merged();
              ph.window(
                  ratio(window_ops, static_cast<double>(window_ns) / 1e9),
                  window);
              window_ns = 0;
              window_ops = 0;
            }
            ++done;
            if (rounds ? done >= rounds
                       : static_cast<long>(ph.rates.size()) >= windows)
              go_on = false;
          });
          if (!go_on) break;
        }
        counters[ts] = h->counters();
      },
      /*pin=*/false);

  check(failure.empty(), failure);
  core::OpCounters agg;
  for (const auto& c : counters) agg += c;
  ph.counters += agg;
  ph.attempted += agg.total_ops();
  for (const auto& p : parts) ph.calls += *p;
}

Phase retry_phase(core::ISet& set, const Args& a, bool traced) {
  Phase ph(traced);
  std::vector<double> nodes_per_key;
  std::unique_ptr<LimboSampler> limbo;
  if (traced) limbo = std::make_unique<LimboSampler>(set);
  const std::uint64_t t0 = now_ns();
  retry_rounds(set, 0, a.seconds, ph, nodes_per_key);
  if (traced) {
    limbo->stop();
    core_layers(ph);
    reclaim_layers(ph, limbo->peak(), limbo->mean(), mean(nodes_per_key));
    shard_layers(ph, 1.0, 1.0);
    net_layers(ph, {});
    write_spans(a.spans, ph.traces, t0);
  }
  return ph;
}

WorkloadRun run_list_retry(const Args& a) {
  WorkloadRun r;
  std::vector<double> setups;
  std::unique_ptr<core::ISet> set;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = now_ns();
    set = harness::make_set(kListId);
    Phase warm;
    std::vector<double> unused;
    retry_rounds(*set, kRetryWarmRounds, 0, warm, unused);
    setups.push_back(seconds_since(t0));
  }
  r.setup_s = median(setups);
  r.untraced = retry_phase(*set, a, false);
  if (a.trace) r.traced = retry_phase(*set, a, true);
  return r;
}

// --- wire_mix -----------------------------------------------------------

/// Everything one fresh-server window yields, gathered after stop().
struct WireWindow {
  net::LoadGenResult res;
  net::ServerStats stats;
  core::OpCounters ledger;
  LatencyProfile service;
  double shard_ops = 1, shard_keys = 1, nodes_per_key = 0;
  double limbo_peak = 0, limbo_mean = 0;
};

/// Start a fresh pragmalistd, drive it with loadgen for `ms` (or
/// `ops` acknowledged ops when ms == 0), stop it, and check the ledger,
/// the structure and the blast surface.
WireWindow wire_window(std::uint64_t seed, long ms, long ops,
                       ThreadTrace* tr) {
  WireWindow w;
  net::ServerConfig cfg;
  cfg.port = 0;
  cfg.set_id = kWireId;
  cfg.workers = kWireWorkers;
  const std::uint64_t t0 = now_ns();
  net::Server server(cfg);
  std::string err;
  check(server.start(&err), "pragmalistd start: " + err);
  const std::uint64_t t1 = now_ns();

  net::LoadGenConfig lg;
  lg.port = server.port();
  lg.threads = kWireClientThreads;
  lg.connections = kWireConns;
  lg.duration_ms = ms;
  lg.total_ops = ops;
  lg.mix = {10, 10, 70, 10};
  lg.universe = 1 << 16;
  lg.zipf_theta = 0.99;
  lg.scan_count = 64;
  lg.seed = seed;
  {
    std::unique_ptr<LimboSampler> limbo;
    if (tr) limbo = std::make_unique<LimboSampler>(server.set());
    w.res = net::run_loadgen(lg);
    if (limbo) {
      limbo->stop();
      w.limbo_peak = limbo->peak();
      w.limbo_mean = limbo->mean();
    }
  }
  const std::uint64_t t2 = now_ns();
  server.stop();
  const std::uint64_t t3 = now_ns();
  if (tr) {
    tr->calls.push_back({t0, t1, static_cast<int>(tr->loops.size()),
                         "Server::start"});
    tr->calls.push_back({t1, t2, static_cast<int>(tr->loops.size()),
                         "net::run_loadgen"});
    tr->calls.push_back({t2, t3, static_cast<int>(tr->loops.size()),
                         "Server::stop"});
    tr->loop("wire_window", t0, t3);
  }

  check(w.res.ok, "loadgen: " + w.res.error);
  check(w.res.ledger_match,
        "wire_mix: ledger MISMATCH (server total_ops " +
            std::to_string(w.res.server_total_ops) + ", client " +
            std::to_string(w.res.total_completed()) + ")");
  core::ISet& set = server.set();
  check_valid(set, "at pragmalistd shutdown");
  const faults::BlastStats blast = set.blast_stats();
  check(blast.crashed_slots == 0 && blast.leaked_cells == 0,
        "wire_mix: reclaim state not quiescent at shutdown");
  w.stats = server.stats();
  w.ledger = server.ledger();
  w.service = server.latency();
  w.shard_ops = max_over_mean(set.shard_ops());
  w.shard_keys = max_over_mean(set.shard_sizes());
  w.nodes_per_key = ratio(static_cast<double>(set.allocated_nodes()),
                          static_cast<double>(set.size()));
  return w;
}

Phase wire_phase(const Args& a, bool traced) {
  Phase ph;
  ThreadTrace trace;  // the benchmark's own thread: one span per call
  std::vector<double> shard_ops, shard_keys, nodes_per_key;
  std::vector<double> limbo_peak, limbo_mean;
  LatencyProfile client, service;
  NetLayer n;
  core::OpCounters ledger;
  double frames = 0;
  const std::uint64_t t0 = now_ns();
  for (long i = 0; i < a.seconds; ++i) {
    const WireWindow w =
        wire_window(workload::thread_seed(a.seed, static_cast<int>(i)),
                    static_cast<long>(kWindowNs / 1'000'000), 0,
                    traced ? &trace : nullptr);
    const long done = w.res.total_completed();
    ph.window(ratio(static_cast<double>(done), w.res.ms / 1000.0),
              w.res.profile.merged());
    client += w.res.profile;
    service += w.service;
    ledger += w.ledger;
    frames += static_cast<double>(w.stats.frames);
    ph.attempted += w.res.total_sent();
    ph.failed += w.res.errors + w.res.abandoned + w.res.conn_failures;
    n.client_errors += static_cast<double>(w.res.errors);
    n.conn_failures += static_cast<double>(w.res.conn_failures);
    n.abandoned += static_cast<double>(w.res.abandoned);
    n.protocol_errors += static_cast<double>(w.stats.protocol_errors);
    shard_ops.push_back(w.shard_ops);
    shard_keys.push_back(w.shard_keys);
    nodes_per_key.push_back(w.nodes_per_key);
    limbo_peak.push_back(w.limbo_peak);
    limbo_mean.push_back(w.limbo_mean);
  }
  if (traced) {
    const LatHistogram served = service.merged();
    const double client_p50 = quantile_us(client.merged(), 0.5);
    const auto ops = static_cast<double>(ledger.total_ops());
    n.service_p50_us = quantile_us(served, 0.5);
    n.service_p99_us = quantile_us(served, 0.99);
    n.scan_service_p99_us = quantile_us(service.of(OpClass::kScan), 0.99);
    n.outside_p50_us = client_p50 - n.service_p50_us;
    n.outside_frac = ratio(n.outside_p50_us, client_p50);
    n.frames_per_op =
        ratio(frames, static_cast<double>(ph.attempted - n.abandoned));
    n.hint_hit_frac = ratio(static_cast<double>(ledger.hint_hits), ops);
    n.restarts_per_kop =
        ratio(1000.0 * static_cast<double>(ledger.restarts), ops);
    // The core layer is driven by the server's workers here, not by
    // benchmark code, so its call metrics read 0 on this workload.
    core_layers(ph);
    reclaim_layers(ph, *std::max_element(limbo_peak.begin(), limbo_peak.end()),
                   mean(limbo_mean), mean(nodes_per_key));
    shard_layers(ph, mean(shard_ops), mean(shard_keys));
    net_layers(ph, n);
    write_spans(a.spans, {trace}, t0);
  }
  return ph;
}

WorkloadRun run_wire_mix(const Args& a) {
  const IdleSpinners spin(kThreads);
  WorkloadRun r;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = now_ns();
    wire_window(a.seed, 0, kWireWarmOps, nullptr);
    setups.push_back(seconds_since(t0));
  }
  r.setup_s = median(setups);
  r.untraced = wire_phase(a, false);
  if (a.trace) r.traced = wire_phase(a, true);
  return r;
}

// --- main ---------------------------------------------------------------

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives execve, so it would report the parent's peak.)
double rss_peak_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  check(f != nullptr, "cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (kib < 0 && std::fgets(line, sizeof line, f))
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atol(line + 6);
  std::fclose(f);
  check(kib > 0, "no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

/// Keep every core busy for kWakeNs before anything is timed. On the
/// KVM guest this was tuned on, the first second of multi-threaded load
/// after idle ran up to 4x slower even for a fixed pointer chase: the
/// host waking the vCPUs, not the program.
void wake_cpus() {
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t)
    team.emplace_back([] {
      const std::uint64_t t0 = now_ns();
      while (now_ns() - t0 < kWakeNs) {
      }
    });
  for (auto& th : team) th.join();
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtol(v.c_str(), &end, 10);
    } else if (k == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") return false;
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
    if (end && *end != '\0') return false;
  }
  return argc % 2 == 1 && a.seconds >= 1 &&
         (a.workload == "list_mix" || a.workload == "list_retry" ||
          a.workload == "wire_mix");
}

void print_json(const WorkloadRun& r, const Args& a,
                const std::vector<Metric>& metrics) {
  long attempted = r.untraced.attempted, failed = r.untraced.failed;
  if (a.trace) {
    attempted += r.traced.attempted;
    failed += r.traced.failed;
  }
  std::printf("{\"correct\": true, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload list_mix|list_retry|wire_mix "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }
  WorkloadRun r;
  wake_cpus();
  try {
    if (a.workload == "list_mix")
      r = run_list_mix(a);
    else if (a.workload == "list_retry")
      r = run_list_retry(a);
    else
      r = run_wire_mix(a);
  } catch (const CheckFailed& e) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.what());
    return 1;
  }

  const Phase& u = r.untraced;
  const Reading q = u.quiet();
  const std::vector<Metric> e2e = {
      {"ops_per_s", q.rate, "1/s"},
      {"lat_p50_us", q.p50, "us"},
      {"lat_p99_us", q.p99, "us"},
      {"rss_peak_mb", rss_peak_mb(), "MB"},
      {"setup_s", r.setup_s, "s"},
  };
  std::vector<Metric> layers = r.traced.layers;
  if (a.trace)
    layers.push_back({"trace.overhead_frac",
                      1.0 - ratio(r.traced.quiet().rate, q.rate), "ratio"});

  const auto windows = u.rates.size();
  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%ld trace=%d\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               a.seconds, a.trace ? 1 : 0);
  std::fprintf(stderr,
               "  %zu windows, ops/s from %.0f to %.0f; %llu latency samples "
               "(%llu per window, 1%% of them beyond p99)\n",
               windows, *std::min_element(u.rates.begin(), u.rates.end()),
               *std::max_element(u.rates.begin(), u.rates.end()),
               static_cast<unsigned long long>(u.lat_samples),
               static_cast<unsigned long long>(u.lat_samples / windows));
  std::fprintf(stderr, "  p99 us by window:");
  for (const double p : u.p99s) std::fprintf(stderr, " %.1f", p);
  std::fprintf(stderr, "\n");
  std::vector<Metric> all = e2e;
  all.insert(all.end(), layers.begin(), layers.end());
  for (const Metric& m : all)
    std::fprintf(stderr, "  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  for (const Metric& m : all)
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name.c_str());
      return 1;
    }
  print_json(r, a, a.trace ? layers : e2e);
  return 0;
}
