// pragmalistd: the networked service front-end over any catalog set.
//
// Topology: one acceptor thread (nonblocking listen socket; doubles as
// the crash supervisor) plus N event-loop workers, each with its own
// epoll instance. Accepted connections are handed to workers round
// robin and stay pinned to their worker for life, so every request on
// a connection executes on one thread.
//
// Busy-polling: a depth-1 client's next request usually arrives a few
// microseconds after its reply left, and a worker blocked in epoll_wait
// then pays a sleep and a wakeup on every round trip -- nearly all of
// the server-side latency, since the set op itself takes well under a
// microsecond. So a worker whose last gap (from the end of a batch to
// the next event) was under kPollWindow (50 us) polls its epoll set
// with a zero timeout until kPollWindow has passed since its last batch
// ended, and only then blocks as usual. A window that expires empty
// makes the next wait block at once, until a blocked wait again returns
// within kPollWindow; an idle worker therefore sleeps, and the wake fd
// stays in the set, so adoption and shutdown are unchanged. A poll that
// expired empty, or during which the worker was preempted (its core is
// shared with a thread that needs it, such as its own client), also
// makes the worker skip polling for a run of batches that doubles with
// each such poll, up to 256, and resets on a clean hit. Without that
// backoff, a worker forced onto one core with its client lost 30-50%
// of the connection's ops/s and tripled its p99.
//
// Polling trades CPU for latency, and pays only when each polling
// worker has a core of its own. start() enables it only when the
// process's affinity mask holds at least twice as many CPUs as there
// are workers; otherwise the loop is a plain blocking epoll loop, so
// the default 4 workers on a 4-CPU box do not poll. INFO reports
// busy_poll:0|1 and poll_hits (batches that arrived while polling).
// Measured on a 4-CPU x86 box, loadgen co-located (4 conns, taskset):
//   4 CPUs, 2 workers (polls): 139k -> 189k ops/s, p50 25 -> 16 us,
//     server CPU 1.3 -> 1.9 cores (medians of 6 runs of 3 s);
//   polling regardless of CPUs, without the backoff (medians of 4):
//     1 CPU, 2 workers: 71k -> 45k ops/s, p99 133 -> 238 us;
//     4 CPUs, 4 workers: 128k -> 104k ops/s, p99 67 -> 176 us;
//   and with the backoff, 4 CPUs with 4 workers still went 141k ->
//     123k ops/s, p99 58 -> 92 us.
//
// The load-bearing invariant (PR 4, now end-to-end): each worker
// leases exactly ONE ISetHandle for its whole lifetime -- under a
// sharded catalog id that is one reclaim handle (one EBR epoch slot /
// one HP hazard-cell row) borrowed by all shard cursors -- and serves
// every connection assigned to it through that lease. Reclamation
// state is O(workers), never O(connections): ten thousand clients cost
// the reclaimers exactly what N workers cost.
//
// Lifecycles:
//   client disconnect -- frees the connection's parser/buffers only;
//     the worker's lease is untouched (it belongs to the worker, not
//     the connection).
//   worker shutdown   -- destroys the handle, i.e. the clean departure
//     of the PR 3 re-lease protocol: EBR limbo handed to survivors, HP
//     cells cleared before the slot release.
//   injected crash    -- a FaultPlan entry (worker -> op ordinal ->
//     FaultKind, the PR 7 taxonomy) fires inside a request handler:
//     the worker abandon()s its lease mid-request, answers that
//     request with -ERR crashed, then immediately re-leases a fresh
//     handle and keeps serving. The acceptor/supervisor reaps the
//     crashed lease (ISet::reap_crashed) after a configurable
//     detection delay -- the full crash -> blast -> reap -> re-lease
//     cycle, measurable over the wire via INFO's blast counters.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/iset.hpp"
#include "src/faults/faults.hpp"
#include "src/harness/latency.hpp"
#include "src/net/protocol.hpp"

namespace pragmalist::net {

/// Execute one parsed request frame against a handle, appending the
/// encoded reply to `out`. `info` supplies the INFO body (empty bulk
/// when absent, as in the dispatch unit tests). Unknown commands, bad
/// arity and non-integer keys get -ERR replies and touch nothing.
struct DispatchOutcome {
  bool data_op = false;  // a GET/SET/DEL/SCAN ran against the handle
  harness::OpClass cls = harness::OpClass::kContains;
  bool error = false;    // an -ERR reply was written instead
};
DispatchOutcome dispatch_request(
    const std::vector<std::string>& args, core::ISetHandle& handle,
    std::string& out, const std::function<std::string()>& info = nullptr);

/// Per-connection reply backlog cap. A connection whose unwritten
/// replies reach it is neither read nor parsed until the socket drains
/// it below the cap, so a client that pipelines without reading holds
/// at most this plus one reply on the server.
inline constexpr std::size_t kMaxPendingOut = 1 << 20;

struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; Server::port() reports the binding
  std::string set_id = "singly/ebr/sh8";
  int workers = 4;
  // Injected request-handler crashes: worker index -> (data-op
  // ordinal, kind). Empty = no faults.
  faults::FaultPlan faults;
  // Supervisor detection delay: a crashed lease is reaped this long
  // after its fault fired (and unconditionally at shutdown).
  int reap_delay_ms = 50;
  std::size_t max_frame = protocol::kMaxFrame;
  // Record per-op-class service time (dispatch start -> reply encoded)
  // into per-worker histograms, merged into latency() at stop().
  bool record_latency = true;
};

/// Run-wide counters, safe to sample while serving (relaxed atomics
/// folded into plain values).
struct ServerStats {
  long accepted = 0;
  long accept_errors = 0;   // hard accept4 failures (EMFILE, ENFILE, ...)
  long closed = 0;
  long frames = 0;          // complete request frames dispatched
  long protocol_errors = 0; // malformed streams (connection closed)
  int faults_fired = 0;
  int reaps = 0;            // crashed leases reaped by the supervisor
  std::size_t out_peak = 0; // largest reply backlog one connection held
  long poll_hits = 0;       // batches whose events arrived while polling
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spawn the acceptor + workers. Aborts on an
  /// unusable host; returns false (with *err) when the port cannot be
  /// bound -- the one failure a caller plausibly retries.
  bool start(std::string* err = nullptr);

  /// The bound port (after start()).
  int port() const { return port_; }

  /// Graceful shutdown: stop accepting, close every connection, join
  /// every worker (clean lease departures), reap any crashed leases.
  /// Idempotent.
  void stop();

  /// The INFO body ("key:value" lines). Valid while serving.
  std::string info() const;

  ServerStats stats() const;

  /// Aggregated handle OpCounters over every lease the server ever
  /// held (departed, crashed and live-folded at stop()). Quiescent:
  /// call after stop().
  core::OpCounters ledger() const;

  /// Per-op-class service-time histograms, merged over workers.
  /// Quiescent: call after stop().
  const harness::LatencyProfile& latency() const;

  /// The served structure (validate()/limbo_nodes()/blast_stats()).
  core::ISet& set() { return *set_; }
  const ServerConfig& config() const { return cfg_; }

 private:
  struct Worker;

  void acceptor_loop();
  /// Called by a worker when its FaultPlan entry fires: bumps the
  /// fault counter and schedules a supervisor reap deadline.
  void record_fault();

  ServerConfig cfg_;
  std::unique_ptr<core::ISet> set_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  bool stopped_ = false;
  bool busy_poll_ = false;  // decided by start() from the affinity mask
  int port_ = 0;
  int listen_fd_ = -1;  // owned by acceptor state in server.cpp

  // Filled at stop().
  core::OpCounters ledger_;
  harness::LatencyProfile latency_;

  // Supervisor state (acceptor thread): fault timestamps awaiting
  // their reap deadline.
  std::atomic<int> faults_fired_{0};
  std::atomic<int> reaps_{0};
  std::atomic<long> accepted_{0};
  std::atomic<long> accept_errors_{0};

  struct AcceptorState;
  std::unique_ptr<AcceptorState> acc_;
};

}  // namespace pragmalist::net
