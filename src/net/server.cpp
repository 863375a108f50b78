#include "src/net/server.hpp"

#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <deque>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "src/common/affinity.hpp"
#include "src/common/debug.hpp"
#include "src/harness/catalog.hpp"
#include "src/net/socket.hpp"

namespace pragmalist::net {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a busy-polling worker keeps polling after a batch before it
/// blocks (see server.hpp).
constexpr std::chrono::microseconds kPollWindow{50};
/// Most batches a worker blocks through, without polling, after
/// wasted polls in a row.
constexpr int kMaxPollBackoff = 256;

/// Times the calling thread was preempted while runnable.
long involuntary_switches() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_nivcsw;
}

std::string upper(std::string_view s) {
  std::string u(s);
  for (char& c : u)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return u;
}

/// True when the frame's command is one of the four set ops (the ones
/// a FaultPlan ordinal counts).
bool is_data_op(const std::vector<std::string>& args) {
  if (args.empty()) return false;
  const std::string cmd = upper(args[0]);
  return cmd == "GET" || cmd == "SET" || cmd == "DEL" || cmd == "SCAN";
}

}  // namespace

DispatchOutcome dispatch_request(const std::vector<std::string>& args,
                                 core::ISetHandle& handle, std::string& out,
                                 const std::function<std::string()>& info) {
  DispatchOutcome res;
  auto err = [&](std::string_view msg) {
    protocol::encode_error(out, msg);
    res.error = true;
    return res;
  };
  if (args.empty()) return err("ERR empty frame");
  const std::string cmd = upper(args[0]);

  if (cmd == "PING") {
    if (args.size() != 1) return err("ERR wrong arity for PING");
    protocol::encode_simple(out, "PONG");
    return res;
  }
  if (cmd == "INFO") {
    if (args.size() != 1) return err("ERR wrong arity for INFO");
    protocol::encode_bulk(out, info ? info() : std::string());
    return res;
  }
  if (cmd == "GET" || cmd == "SET" || cmd == "DEL") {
    if (args.size() != 2) return err("ERR wrong arity for " + cmd);
    long key = 0;
    if (!protocol::parse_key(args[1], &key))
      return err("ERR key is not an integer");
    bool ok;
    if (cmd == "SET") {
      ok = handle.add(key);
      res.cls = harness::OpClass::kAdd;
    } else if (cmd == "DEL") {
      ok = handle.remove(key);
      res.cls = harness::OpClass::kRemove;
    } else {
      ok = handle.contains(key);
      res.cls = harness::OpClass::kContains;
    }
    res.data_op = true;
    protocol::encode_integer(out, ok ? 1 : 0);
    return res;
  }
  if (cmd == "SCAN") {
    if (args.size() != 3) return err("ERR wrong arity for SCAN");
    long from = 0, count = 0;
    if (!protocol::parse_key(args[1], &from) ||
        !protocol::parse_key(args[2], &count) || count < 0)
      return err("ERR SCAN takes integer <from> <count>");
    count = std::min(count, protocol::kMaxScanCount);
    const std::vector<long> keys =
        handle.ascend(from, static_cast<std::size_t>(count));
    res.data_op = true;
    res.cls = harness::OpClass::kScan;
    protocol::encode_int_array(out, keys);
    return res;
  }
  return err("ERR unknown command '" + cmd + "'");
}

// --- worker ----------------------------------------------------------

struct Server::Worker {
  explicit Worker(Server* s, int idx) : server(s), index(idx) {}

  Server* server;
  int index;
  std::thread thread;
  Epoll ep;
  WakeFd wake;

  std::mutex mu;
  std::vector<int> incoming;  // accepted fds awaiting adoption

  // Run-wide relaxed counters the INFO handler reads cross-thread.
  std::atomic<long> dispatched[harness::kNumOpClasses] = {};
  std::atomic<long> frames{0};
  std::atomic<long> closed{0};
  std::atomic<long> proto_errors{0};
  std::atomic<long> active{0};
  std::atomic<long> poll_hits{0};
  std::atomic<std::size_t> out_peak{0};  // written by the worker only

  // Written by the worker thread only; read after join.
  core::OpCounters folded;
  harness::LatencyProfile profile;
  bool fault_fired_ = false;  // each plan entry fires at most once
  // The frame serve() parses into, reused by every frame so that a
  // steady request stream allocates nothing per frame.
  std::vector<std::string> args;

  struct Conn {
    explicit Conn(std::size_t max_frame) : parser(max_frame) {}
    protocol::FrameParser parser;
    std::string out;                  // encoded replies not yet written
    std::uint32_t events = EPOLLIN;   // the interest set registered
  };
  std::unordered_map<int, Conn> conns;

  /// How a serve() pass ended.
  enum class Served { kDrained, kFull, kClosed };

  void run();
  void adopt_incoming();
  void handle_io(int fd, std::uint32_t events,
                 std::unique_ptr<core::ISetHandle>& handle);
  /// Dispatch buffered frames and read more while conn.out is under
  /// kMaxPendingOut: kDrained once the socket has nothing more, kFull
  /// at the cap, kClosed if the connection is gone.
  Served serve(int fd, Conn& conn, std::unique_ptr<core::ISetHandle>& handle);
  /// Execute the frame in `args`.
  void handle_frame(Conn& conn, std::unique_ptr<core::ISetHandle>& handle);
  long data_ops_so_far() const {
    long sum = 0;
    for (const auto& d : dispatched) sum += d.load(std::memory_order_relaxed);
    return sum;
  }
  /// Write as much buffered output as the socket takes, then re-arm
  /// the interest set: EPOLLIN only under the cap, EPOLLOUT while
  /// output is pending. False when the connection died under us.
  bool flush(int fd, Conn& conn);
  void close_conn(int fd);
};

void Server::Worker::run() {
  // The one lease of this worker's lifetime (per sharded domain: one
  // reclaim handle borrowed by every shard cursor). Re-leased only
  // across an injected crash.
  auto handle = server->set_->make_handle();
  ep.add(wake.get(), EPOLLIN);

  // Busy-polling (see server.hpp). `poll` holds while the last gap
  // between the end of a batch and the next event was under
  // kPollWindow; the next wait then polls until kPollWindow has passed
  // since `idle_from`, the end of the last batch, and only then blocks.
  // A wasted poll -- it expired empty, or the worker was preempted
  // since its last poll, so its core is shared with a thread that
  // needs it -- makes the worker block through the next `backoff`
  // batches that would have polled. The backoff doubles with each
  // wasted poll, up to kMaxPollBackoff, and resets on a clean hit.
  const bool busy_poll = server->busy_poll_;
  bool poll = false;
  int skip = 0, backoff = 1;
  long preempted = busy_poll ? involuntary_switches() : 0;
  Clock::time_point idle_from{};
  epoll_event evs[64];
  bool running = true;
  while (running) {
    int n = 0;
    const bool polled = poll && skip == 0;
    if (polled) {
      const Clock::time_point until = idle_from + kPollWindow;
      while ((n = ep.wait(evs, 64, 0)) == 0 && Clock::now() < until) {
      }
      if (n > 0) poll_hits.fetch_add(1, std::memory_order_relaxed);
    } else if (poll) {
      --skip;
    }
    const bool hit = n > 0;
    if (n == 0) {
      n = ep.wait(evs, 64, -1);
      if (busy_poll) poll = Clock::now() - idle_from < kPollWindow;
    }
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.fd == wake.get()) {
        wake.drain();
        adopt_incoming();
        if (!server->running_.load(std::memory_order_acquire))
          running = false;
        continue;
      }
      handle_io(evs[i].data.fd, evs[i].events, handle);
    }
    if (polled) {
      // Read after the replies are out, so it delays no request.
      const long now_preempted = involuntary_switches();
      if (hit && now_preempted == preempted) {
        backoff = 1;
      } else {
        skip = backoff;
        backoff = std::min(2 * backoff, kMaxPollBackoff);
      }
      preempted = now_preempted;
    }
    if (busy_poll) idle_from = Clock::now();
  }

  // Shutdown: drop every connection, then depart the lease cleanly
  // (the PR 3 re-lease protocol: limbo handed off, cells cleared).
  std::vector<int> fds;
  fds.reserve(conns.size());
  for (const auto& [fd, conn] : conns) fds.push_back(fd);
  for (const int fd : fds) close_conn(fd);
  folded += handle->counters();
  handle.reset();
}

void Server::Worker::adopt_incoming() {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(mu);
    fds.swap(incoming);
  }
  for (const int fd : fds) {
    conns.emplace(fd, Conn(server->cfg_.max_frame));
    active.fetch_add(1, std::memory_order_relaxed);
    ep.add(fd, EPOLLIN);
  }
}

void Server::Worker::handle_io(int fd, std::uint32_t events,
                               std::unique_ptr<core::ISetHandle>& handle) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;  // already closed this wait batch
  Conn& conn = it->second;

  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_conn(fd);
    return;
  }

  // Readable, or writable again after the cap stopped the reads: a
  // client that pipelines without reading its replies is served only
  // as fast as it drains them. Frames already buffered in the parser
  // are served first, so a drain resumes them without new input.
  for (;;) {
    Served st = Served::kFull;
    if (conn.out.size() < kMaxPendingOut) {
      st = serve(fd, conn, handle);
      if (st == Served::kClosed) return;
    }
    if (!flush(fd, conn)) return;
    // Stopped at the cap, and the socket has since taken enough output
    // to go on: serve the rest now rather than on the next wakeup.
    if (st != Served::kFull || conn.out.size() >= kMaxPendingOut) return;
  }
}

Server::Worker::Served Server::Worker::serve(
    int fd, Conn& conn, std::unique_ptr<core::ISetHandle>& handle) {
  bool drained = false;
  for (;;) {
    while (conn.out.size() < kMaxPendingOut) {
      const protocol::ParseStatus st = conn.parser.next(&args);
      if (st == protocol::ParseStatus::kNeedMore) break;
      if (st == protocol::ParseStatus::kError) {
        // A malformed stream cannot be resynchronized: report, flush
        // best effort, close.
        proto_errors.fetch_add(1, std::memory_order_relaxed);
        protocol::encode_error(conn.out,
                               "ERR protocol: " + conn.parser.error());
        flush(fd, conn);
        close_conn(fd);
        return Served::kClosed;
      }
      handle_frame(conn, handle);
    }
    if (conn.out.size() >= kMaxPendingOut) return Served::kFull;
    if (drained) return Served::kDrained;

    char buf[4096];
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) {
      conn.parser.feed(buf, static_cast<std::size_t>(r));
      drained = r < static_cast<ssize_t>(sizeof(buf));
    } else if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Served::kDrained;
    } else {
      // Disconnect (r == 0) or a hard error: drop the connection state
      // (a half-buffered frame simply evaporates). The worker's lease
      // is untouched -- it belongs to the worker, not the client.
      close_conn(fd);
      return Served::kClosed;
    }
  }
}

void Server::Worker::handle_frame(Conn& conn,
                                  std::unique_ptr<core::ISetHandle>& handle) {
  frames.fetch_add(1, std::memory_order_relaxed);

  const faults::FaultSpec* fault = server->cfg_.faults.find(index);
  if (fault != nullptr && !fault_fired_ && is_data_op(args) &&
      data_ops_so_far() >= fault->op_ordinal) {
    // The request handler "crashes" mid-request: the lease is
    // abandoned with the op's key (the op-level kinds perform their
    // deliberately botched remove of it), the client gets an error,
    // and the worker re-leases immediately -- the supervisor reaps the
    // crashed lease after the detection delay.
    long key = 0;
    if (args.size() >= 2) protocol::parse_key(args[1], &key);
    handle->abandon(fault->kind, key);
    fault_fired_ = true;
    server->record_fault();
    protocol::encode_error(
        conn.out, std::string("ERR crashed (injected ") +
                      std::string(faults::fault_kind_name(fault->kind)) +
                      ")");
    folded += handle->counters();
    handle.reset();                       // destroy the crashed shell
    handle = server->set_->make_handle();  // re-lease
    return;
  }

  const std::uint64_t t0 =
      server->cfg_.record_latency ? harness::lat_now_ns() : 0;
  const DispatchOutcome out = dispatch_request(
      args, *handle, conn.out, [this] { return server->info(); });
  if (out.data_op) {
    dispatched[static_cast<int>(out.cls)].fetch_add(
        1, std::memory_order_relaxed);
    if (server->cfg_.record_latency)
      profile.of(out.cls).record(harness::lat_now_ns() - t0);
  }
}

bool Server::Worker::flush(int fd, Conn& conn) {
  if (conn.out.size() > out_peak.load(std::memory_order_relaxed))
    out_peak.store(conn.out.size(), std::memory_order_relaxed);
  std::size_t off = 0;
  while (off < conn.out.size()) {
    const ssize_t n =
        ::write(fd, conn.out.data() + off, conn.out.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      close_conn(fd);
      return false;
    }
  }
  conn.out.erase(0, off);
  const std::uint32_t want =
      (conn.out.size() < kMaxPendingOut ? EPOLLIN : 0u) |
      (conn.out.empty() ? 0u : EPOLLOUT);
  if (want != conn.events) {
    conn.events = want;
    ep.mod(fd, want);
  }
  return true;
}

void Server::Worker::close_conn(int fd) {
  if (conns.erase(fd) == 0) return;
  ep.del(fd);
  ::close(fd);
  active.fetch_sub(1, std::memory_order_relaxed);
  closed.fetch_add(1, std::memory_order_relaxed);
}

// --- acceptor / supervisor -------------------------------------------

struct Server::AcceptorState {
  Fd listen;
  WakeFd wake;
  // Made with the server, not in the acceptor thread: once start()
  // returns, the acceptor needs no new fd (a full fd table must not
  // abort it).
  Epoll ep;
  std::mutex mu;
  std::deque<Clock::time_point> reap_at;  // fault deadlines, FIFO
};

void Server::record_fault() {
  faults_fired_.fetch_add(1, std::memory_order_relaxed);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(cfg_.reap_delay_ms);
  std::lock_guard<std::mutex> lock(acc_->mu);
  acc_->reap_at.push_back(deadline);
}

void Server::acceptor_loop() {
  constexpr auto kTick = std::chrono::milliseconds(20);
  Epoll& ep = acc_->ep;
  const int listen_fd = acc_->listen.get();
  std::size_t next_worker = 0;
  epoll_event evs[16];
  // Set while the listen fd is out of the epoll set after a hard
  // accept failure (EMFILE, ENFILE, ENOBUFS, ...): the pending
  // connection keeps the level-triggered fd readable, so polling it
  // again at once would spin. It is re-armed at the first tick past
  // the deadline.
  bool listen_paused = false;
  Clock::time_point resume_at{};
  while (running_.load(std::memory_order_acquire)) {
    // Short timeout: the acceptor doubles as the crash supervisor and
    // must notice reap deadlines without a dedicated timer fd.
    const int n = ep.wait(evs, 16, static_cast<int>(kTick.count()));
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.fd == acc_->wake.get()) {
        acc_->wake.drain();
        continue;
      }
      for (;;) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EINTR || errno == ECONNABORTED) continue;
          if (errno != EAGAIN && errno != EWOULDBLOCK) {
            accept_errors_.fetch_add(1, std::memory_order_relaxed);
            ep.del(listen_fd);
            listen_paused = true;
            resume_at = Clock::now() + kTick;
          }
          break;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        accepted_.fetch_add(1, std::memory_order_relaxed);
        Worker& w = *workers_[next_worker];
        next_worker = (next_worker + 1) % workers_.size();
        {
          std::lock_guard<std::mutex> lock(w.mu);
          w.incoming.push_back(fd);
        }
        w.wake.wake();
      }
    }
    // Supervisor pass: one reap_crashed() covers every due fault (it
    // releases all crashed leases), so drain all expired deadlines.
    bool due = false;
    {
      std::lock_guard<std::mutex> lock(acc_->mu);
      const auto now = Clock::now();
      while (!acc_->reap_at.empty() && acc_->reap_at.front() <= now) {
        acc_->reap_at.pop_front();
        due = true;
      }
    }
    if (due)
      reaps_.fetch_add(static_cast<int>(set_->reap_crashed()),
                       std::memory_order_relaxed);
    if (listen_paused && Clock::now() >= resume_at) {
      ep.add(listen_fd, EPOLLIN);
      listen_paused = false;
    }
  }
}

// --- server ----------------------------------------------------------

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  PRAGMALIST_CHECK(cfg_.workers >= 1, "server needs at least one worker");
  set_ = harness::make_set(cfg_.set_id);
  acc_ = std::make_unique<AcceptorState>();
}

Server::~Server() { stop(); }

bool Server::start(std::string* err) {
  PRAGMALIST_CHECK(!started_, "server already started");
  std::string why;
  acc_->listen = listen_tcp(cfg_.host, cfg_.port, &why);
  if (!acc_->listen.valid()) {
    if (err != nullptr) *err = why;
    return false;
  }
  port_ = bound_port(acc_->listen.get());
  listen_fd_ = acc_->listen.get();
  acc_->ep.add(listen_fd_, EPOLLIN);
  acc_->ep.add(acc_->wake.get(), EPOLLIN);
  busy_poll_ = affinity_cpus() >= 2 * cfg_.workers;
  running_.store(true, std::memory_order_release);
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(this, i));
    Worker& w = *workers_.back();
    w.thread = std::thread([&w] { w.run(); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  return true;
}

void Server::stop() {
  if (!started_ || stopped_) return;
  running_.store(false, std::memory_order_release);
  acc_->wake.wake();
  acceptor_.join();
  for (auto& w : workers_) {
    w->wake.wake();
    w->thread.join();
  }
  // Whatever crashed inside the last detection window is reaped now;
  // after this the only leases ever held were cleanly departed.
  reaps_.fetch_add(static_cast<int>(set_->reap_crashed()),
                   std::memory_order_relaxed);
  for (const auto& w : workers_) {
    ledger_ += w->folded;
    latency_ += w->profile;
  }
  stopped_ = true;
}

std::string Server::info() const {
  long calls[harness::kNumOpClasses] = {};
  long frames = 0, active = 0, closed = 0, proto_errors = 0, poll_hits = 0;
  for (const auto& w : workers_) {
    for (int c = 0; c < harness::kNumOpClasses; ++c)
      calls[c] += w->dispatched[c].load(std::memory_order_relaxed);
    frames += w->frames.load(std::memory_order_relaxed);
    active += w->active.load(std::memory_order_relaxed);
    closed += w->closed.load(std::memory_order_relaxed);
    proto_errors += w->proto_errors.load(std::memory_order_relaxed);
    poll_hits += w->poll_hits.load(std::memory_order_relaxed);
  }
  const faults::BlastStats blast = set_->blast_stats();
  std::ostringstream os;
  os << "set:" << cfg_.set_id << "\n"
     << "workers:" << cfg_.workers << "\n"
     << "busy_poll:" << (busy_poll_ ? 1 : 0) << "\n"
     << "poll_hits:" << poll_hits << "\n"
     << "accepted:" << accepted_.load(std::memory_order_relaxed) << "\n"
     << "accept_errors:" << accept_errors_.load(std::memory_order_relaxed)
     << "\n"
     << "active_conns:" << active << "\n"
     << "closed_conns:" << closed << "\n"
     << "frames:" << frames << "\n"
     << "protocol_errors:" << proto_errors << "\n"
     << "add_calls:" << calls[static_cast<int>(harness::OpClass::kAdd)]
     << "\n"
     << "rem_calls:" << calls[static_cast<int>(harness::OpClass::kRemove)]
     << "\n"
     << "con_calls:" << calls[static_cast<int>(harness::OpClass::kContains)]
     << "\n"
     << "scan_calls:" << calls[static_cast<int>(harness::OpClass::kScan)]
     << "\n"
     << "total_ops:" << calls[0] + calls[1] + calls[2] + calls[3] << "\n"
     << "faults:" << faults_fired_.load(std::memory_order_relaxed) << "\n"
     << "reaps:" << reaps_.load(std::memory_order_relaxed) << "\n"
     << "limbo:" << set_->limbo_nodes() << "\n"
     << "crashed_slots:" << blast.crashed_slots << "\n"
     << "leaked_cells:" << blast.leaked_cells << "\n"
     << "parked_limbo:" << blast.parked_limbo << "\n";
  return os.str();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.accept_errors = accept_errors_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    s.closed += w->closed.load(std::memory_order_relaxed);
    s.frames += w->frames.load(std::memory_order_relaxed);
    s.protocol_errors += w->proto_errors.load(std::memory_order_relaxed);
    s.poll_hits += w->poll_hits.load(std::memory_order_relaxed);
    s.out_peak =
        std::max(s.out_peak, w->out_peak.load(std::memory_order_relaxed));
  }
  s.faults_fired = faults_fired_.load(std::memory_order_relaxed);
  s.reaps = reaps_.load(std::memory_order_relaxed);
  return s;
}

core::OpCounters Server::ledger() const {
  PRAGMALIST_CHECK(stopped_, "ledger() is quiescent-only: stop() first");
  return ledger_;
}

const harness::LatencyProfile& Server::latency() const {
  PRAGMALIST_CHECK(stopped_, "latency() is quiescent-only: stop() first");
  return latency_;
}

}  // namespace pragmalist::net
