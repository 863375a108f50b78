// Network front-end tests: the RESP-subset frame/reply parsers under
// partial, pipelined and adversarial input; dispatch_request against a
// sequential std::set oracle; and an in-process loopback smoke --
// Server on an ephemeral port driven by the real run_loadgen engine,
// asserting the exact client/server ledger match, a valid structure
// and a bounded limbo afterwards, plus the injected-crash path
// (abandon -> -ERR -> re-lease -> supervisor reap) over the wire.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/affinity.hpp"
#include "src/harness/catalog.hpp"
#include "src/net/loadgen.hpp"
#include "src/net/protocol.hpp"
#include "src/net/server.hpp"
#include "src/net/socket.hpp"

namespace pragmalist {
namespace {

using net::protocol::FrameParser;
using net::protocol::ParseStatus;
using net::protocol::Reply;
using net::protocol::ReplyParser;

std::string frame_of(const std::vector<std::string>& args) {
  std::string out;
  net::protocol::encode_request(out, args);
  return out;
}

// --- frame parser ----------------------------------------------------

TEST(FrameParser, RoundTripsOneFrame) {
  FrameParser p;
  p.feed(frame_of({"GET", "42"}));
  std::vector<std::string> args;
  ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
  EXPECT_EQ(args, (std::vector<std::string>{"GET", "42"}));
  EXPECT_EQ(p.next(&args), ParseStatus::kNeedMore);
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(FrameParser, ByteAtATimeDelivery) {
  // kNeedMore at every prefix, exactly one frame at the last byte:
  // the partial-read path a real socket exercises constantly.
  const std::string wire = frame_of({"SET", "-987654321"});
  FrameParser p;
  std::vector<std::string> args;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    p.feed(wire.data() + i, 1);
    ASSERT_EQ(p.next(&args), ParseStatus::kNeedMore) << "at byte " << i;
  }
  p.feed(wire.data() + wire.size() - 1, 1);
  ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
  EXPECT_EQ(args, (std::vector<std::string>{"SET", "-987654321"}));
}

TEST(FrameParser, DrainsAPipelinedBurst) {
  FrameParser p;
  std::string wire;
  for (int i = 0; i < 100; ++i)
    wire += frame_of({"GET", std::to_string(i)});
  p.feed(wire);
  std::vector<std::string> args;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
    EXPECT_EQ(args[1], std::to_string(i));
  }
  EXPECT_EQ(p.next(&args), ParseStatus::kNeedMore);
}

TEST(FrameParser, SplitAcrossFeedsMidPayload) {
  const std::string wire = frame_of({"SCAN", "100", "64"});
  FrameParser p;
  std::vector<std::string> args;
  p.feed(wire.substr(0, 9));
  EXPECT_EQ(p.next(&args), ParseStatus::kNeedMore);
  p.feed(wire.substr(9));
  ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
  EXPECT_EQ(args, (std::vector<std::string>{"SCAN", "100", "64"}));
}

TEST(FrameParser, ReusesOneVectorAcrossShrinkingFrames) {
  // The server parses every frame of a worker into one vector: each
  // frame must replace the previous one exactly, with no argument of a
  // longer earlier frame left behind.
  FrameParser p;
  p.feed(frame_of({"SCAN", "-12345678901", "64"}));
  p.feed(frame_of({"SET", "7"}));
  p.feed(frame_of({"PING"}));
  std::vector<std::string> args;
  ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
  EXPECT_EQ(args, (std::vector<std::string>{"SCAN", "-12345678901", "64"}));
  ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
  EXPECT_EQ(args, (std::vector<std::string>{"SET", "7"}));
  ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
  EXPECT_EQ(args, (std::vector<std::string>{"PING"}));
  // kNeedMore leaves the last frame in place.
  p.feed("*2\r\n$3\r\nGET");
  EXPECT_EQ(p.next(&args), ParseStatus::kNeedMore);
  EXPECT_EQ(args, (std::vector<std::string>{"PING"}));
}

TEST(FrameParser, RejectsMalformedStreams) {
  // Each case must yield kError (sticky), never UB and never a frame.
  const std::vector<std::string> bad = {
      "GET 42\r\n",                    // inline command, not RESP
      "*x\r\n",                        // non-numeric argc
      "*0\r\n",                        // empty frame
      "*-1\r\n",                       // negative argc
      "*1\r\nGET\r\n",                 // missing bulk header
      "*1\r\n$3\r\nGETX\r\n",          // payload longer than declared
      "*1\r\n$-4\r\n",                 // negative bulk length
      "*99\r\n",                       // argc over kMaxArgs
      "*1\r\n$999999\r\n",             // bulk over kMaxBulk
      "*1\r\n$99999999999999999\r\n",  // length field overflow
  };
  for (const auto& wire : bad) {
    FrameParser p;
    p.feed(wire);
    std::vector<std::string> args;
    EXPECT_EQ(p.next(&args), ParseStatus::kError) << "input: " << wire;
    EXPECT_FALSE(p.error().empty());
    // Sticky until reset.
    p.feed(frame_of({"PING"}));
    EXPECT_EQ(p.next(&args), ParseStatus::kError);
    p.reset();
    p.feed(frame_of({"PING"}));
    EXPECT_EQ(p.next(&args), ParseStatus::kFrame);
  }
}

TEST(FrameParser, OversizedFrameIsRejectedNotBuffered) {
  // A frame that never completes but keeps growing must trip the
  // frame-size ceiling instead of buffering without bound.
  FrameParser p(/*max_frame=*/256);
  p.feed("*8\r\n");
  std::vector<std::string> args;
  ParseStatus st = ParseStatus::kNeedMore;
  for (int i = 0; i < 64 && st == ParseStatus::kNeedMore; ++i) {
    p.feed("$100\r\n");  // headers forever, payload never arrives
    st = p.next(&args);
  }
  EXPECT_EQ(st, ParseStatus::kError);
}

TEST(FrameParser, CompactsConsumedPrefix) {
  // A long-lived pipelined connection must not grow the buffer without
  // bound: after many consumed frames the retained bytes stay small.
  FrameParser p;
  std::vector<std::string> args;
  for (int i = 0; i < 10000; ++i) {
    p.feed(frame_of({"GET", std::to_string(i)}));
    ASSERT_EQ(p.next(&args), ParseStatus::kFrame);
  }
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(ParseKey, StrictDecimalLongs) {
  long v = 0;
  EXPECT_TRUE(net::protocol::parse_key("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(net::protocol::parse_key("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(net::protocol::parse_key("", &v));
  EXPECT_FALSE(net::protocol::parse_key("12x", &v));
  EXPECT_FALSE(net::protocol::parse_key("4.2", &v));
  EXPECT_FALSE(net::protocol::parse_key(" 1", &v));
  EXPECT_FALSE(net::protocol::parse_key("999999999999999999999999999", &v));
}

// --- reply parser ----------------------------------------------------

TEST(ReplyParser, RoundTripsEveryReplyType) {
  std::string wire;
  net::protocol::encode_simple(wire, "PONG");
  net::protocol::encode_error(wire, "ERR nope");
  net::protocol::encode_integer(wire, -3);
  net::protocol::encode_bulk(wire, "a:1\nb:2\n");
  net::protocol::encode_int_array(wire, {1, 2, 3});

  // Byte at a time, to cover every resume point.
  ReplyParser p;
  std::vector<Reply> got;
  for (char c : wire) {
    p.feed(&c, 1);
    Reply r;
    while (p.next(&r) == ParseStatus::kFrame) got.push_back(r);
  }
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].type, Reply::Type::kSimple);
  EXPECT_EQ(got[0].text, "PONG");
  EXPECT_EQ(got[1].type, Reply::Type::kError);
  EXPECT_EQ(got[1].text, "ERR nope");
  EXPECT_EQ(got[2].type, Reply::Type::kInteger);
  EXPECT_EQ(got[2].integer, -3);
  EXPECT_EQ(got[3].type, Reply::Type::kBulk);
  EXPECT_EQ(got[3].text, "a:1\nb:2\n");
  EXPECT_EQ(got[4].type, Reply::Type::kIntArray);
  EXPECT_EQ(got[4].ints, (std::vector<long>{1, 2, 3}));
}

TEST(ReplyParser, RejectsUnknownTypeByte) {
  ReplyParser p;
  p.feed("?what\r\n");
  Reply r;
  EXPECT_EQ(p.next(&r), ParseStatus::kError);
}

// --- dispatch vs sequential oracle -----------------------------------

/// Run one command through dispatch_request and decode the reply.
Reply dispatch(core::ISetHandle& handle,
               const std::vector<std::string>& args) {
  std::string out;
  net::dispatch_request(args, handle, out);
  ReplyParser p;
  p.feed(out);
  Reply r;
  EXPECT_EQ(p.next(&r), ParseStatus::kFrame);
  return r;
}

TEST(Dispatch, MatchesSequentialOracle) {
  const auto set = harness::make_set("singly");
  const auto handle = set->make_handle();
  std::set<long> oracle;
  std::uint64_t x = 12345;
  for (int i = 0; i < 4000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const long key = static_cast<long>((x >> 33) % 512);
    const int op = static_cast<int>((x >> 20) % 3);
    const std::string ks = std::to_string(key);
    if (op == 0) {
      const Reply r = dispatch(*handle, {"SET", ks});
      ASSERT_EQ(r.type, Reply::Type::kInteger);
      EXPECT_EQ(r.integer, oracle.insert(key).second ? 1 : 0);
    } else if (op == 1) {
      const Reply r = dispatch(*handle, {"DEL", ks});
      ASSERT_EQ(r.type, Reply::Type::kInteger);
      EXPECT_EQ(r.integer, oracle.erase(key) != 0 ? 1 : 0);
    } else {
      const Reply r = dispatch(*handle, {"GET", ks});
      ASSERT_EQ(r.type, Reply::Type::kInteger);
      EXPECT_EQ(r.integer, oracle.count(key) != 0 ? 1 : 0);
    }
  }
  // SCAN pages agree with the oracle's sorted order.
  const Reply scan = dispatch(*handle, {"SCAN", "100", "50"});
  ASSERT_EQ(scan.type, Reply::Type::kIntArray);
  std::vector<long> expect;
  for (auto it = oracle.lower_bound(100);
       it != oracle.end() && expect.size() < 50; ++it)
    expect.push_back(*it);
  EXPECT_EQ(scan.ints, expect);
  std::string err;
  EXPECT_TRUE(set->validate(&err)) << err;
}

TEST(Dispatch, ErrorsTouchNothing) {
  const auto set = harness::make_set("singly");
  const auto handle = set->make_handle();
  dispatch(*handle, {"SET", "7"});
  const std::vector<std::vector<std::string>> bad = {
      {"FROB", "7"},       // unknown command
      {"SET"},             // missing key
      {"GET", "7", "8"},   // extra arg
      {"DEL", "seven"},    // non-integer key
      {"SCAN", "0"},       // missing count
      {"SCAN", "0", "-1"}, // negative count
      {"PING", "x"},       // arity
  };
  for (const auto& args : bad) {
    const Reply r = dispatch(*handle, args);
    EXPECT_EQ(r.type, Reply::Type::kError) << args[0];
    EXPECT_EQ(r.text.rfind("ERR", 0), 0u) << r.text;
  }
  EXPECT_EQ(set->size(), 1u);
  const long ops_before = handle->counters().total_ops();
  EXPECT_EQ(ops_before, 1);  // only the one good SET dispatched
}

TEST(Dispatch, ScanCountIsClamped) {
  const auto set = harness::make_set("singly");
  const auto handle = set->make_handle();
  for (long k = 0; k < 64; ++k) handle->add(k);
  std::string out;
  const auto o =
      net::dispatch_request({"SCAN", "0", "99999999"}, *handle, out);
  EXPECT_TRUE(o.data_op);
  ReplyParser p;
  p.feed(out);
  Reply r;
  ASSERT_EQ(p.next(&r), ParseStatus::kFrame);
  EXPECT_EQ(r.ints.size(), 64u);  // all present keys, clamp held
}

// --- loopback server/client smoke ------------------------------------

TEST(Loopback, LedgerMatchesAndStructureSurvives) {
  net::ServerConfig scfg;
  scfg.port = 0;  // ephemeral
  scfg.set_id = "singly/ebr/sh2";
  scfg.workers = 2;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  net::LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.threads = 2;
  cfg.connections = 16;
  cfg.total_ops = 3000;
  cfg.universe = 1024;
  cfg.mix = {20, 20, 50, 10};
  const net::LoadGenResult res = net::run_loadgen(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.total_completed(), 3000);
  EXPECT_EQ(res.errors, 0);
  EXPECT_EQ(res.abandoned, 0);
  // The tentpole acceptance check, in-process: every acknowledged op
  // is in the server's ledger and nothing else is.
  EXPECT_TRUE(res.ledger_match)
      << "server=" << res.server_total_ops
      << " client=" << res.total_completed();

  server.stop();
  EXPECT_EQ(server.ledger().total_ops(), res.total_completed());
  core::ISet& set = server.set();
  std::string why;
  EXPECT_TRUE(set.validate(&why)) << why;
  // All leases departed cleanly: no crashed slots, nothing parked.
  const faults::BlastStats blast = set.blast_stats();
  EXPECT_EQ(blast.crashed_slots, 0u);
  EXPECT_EQ(blast.leaked_cells, 0u);
  EXPECT_EQ(blast.parked_limbo, 0u);
}

TEST(Loopback, ReconnectChurnKeepsLedgerExact) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.set_id = "unrolled_k8/hp";
  scfg.workers = 2;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  net::LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.threads = 2;
  cfg.connections = 12;
  // Duration mode so the waves schedule gets whole down->up cycles:
  // 14 ticks of 50 ms = half/full/half/full, so churned-out slots are
  // re-opened (reconnects) twice within the window.
  cfg.duration_ms = 700;
  cfg.universe = 512;
  cfg.schedule = service::SoakSchedule::kWaves;
  cfg.churn_ticks = 14;
  const net::LoadGenResult res = net::run_loadgen(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.reconnects, 0);  // churn actually churned
  EXPECT_EQ(res.abandoned, 0);
  EXPECT_TRUE(res.ledger_match)
      << "server=" << res.server_total_ops
      << " client=" << res.total_completed();

  server.stop();
  std::string why;
  EXPECT_TRUE(server.set().validate(&why)) << why;
  // Zero leaked hazard slots after every connection dropped (HP leg).
  EXPECT_EQ(server.set().blast_stats().leaked_cells, 0u);
}

TEST(Loopback, InjectedCrashReLeasesAndReaps) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.set_id = "singly/ebr/sh2";
  scfg.workers = 2;
  scfg.reap_delay_ms = 20;
  scfg.faults.at(0, 40, faults::FaultKind::kDepartWithoutRelease)
      .at(1, 60, faults::FaultKind::kMidOpAbandon);
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  net::LoadGenConfig cfg;
  cfg.port = server.port();
  cfg.threads = 2;
  cfg.connections = 8;
  cfg.total_ops = 2000;
  cfg.universe = 256;
  const net::LoadGenResult res = net::run_loadgen(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  // Each fired fault answered exactly one request with -ERR crashed;
  // those requests were never dispatched, so the ledger still matches.
  EXPECT_GE(res.errors, 1);
  EXPECT_TRUE(res.ledger_match)
      << "server=" << res.server_total_ops
      << " client=" << res.total_completed();

  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_GE(stats.faults_fired, 1);
  EXPECT_GE(stats.reaps, 1);  // the supervisor actually recovered them
  std::string why;
  EXPECT_TRUE(server.set().validate(&why)) << why;
  // Post-reap the blast radius is fully cleaned up.
  const faults::BlastStats blast = server.set().blast_stats();
  EXPECT_EQ(blast.crashed_slots, 0u);
  EXPECT_EQ(blast.leaked_cells, 0u);
}

// A client that pipelines far more than the reply cap and reads
// nothing: the server must stop reading and parsing once a connection
// holds kMaxPendingOut bytes of unwritten replies, instead of buffering
// every reply, and resume as the client drains them. Every reply still
// arrives, in request order.
TEST(Server, SlowReaderBacklogIsCapped) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.workers = 1;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // Blocking client with a small fixed receive window, so the kernel
  // absorbs little of the reply stream and the server-side cap is what
  // bounds it.
  net::Fd client(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(client.valid());
  const int rcvbuf = 64 * 1024;
  ASSERT_EQ(::setsockopt(client.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  ASSERT_TRUE(net::make_addr("127.0.0.1", server.port(), &addr));
  ASSERT_EQ(::connect(client.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // SET every third key below kKeys, then GET i % kKeys for i < kGets:
  // every reply is 4 bytes and its value is known, so the stream is
  // checked exactly, and aperiodic enough that a lost, duplicated or
  // reordered reply shows. The ~8 MB of replies outgrow the kernel's
  // socket buffers (a 4 MB send buffer at most by default) plus the
  // cap, so the server must stall.
  constexpr long kKeys = 1009;
  constexpr long kSets = (kKeys + 2) / 3;
  constexpr long kGets = 2'000'000;
  const auto key_of = [](long i) { return i < kSets ? 3 * i : i % kKeys; };
  const auto reply_of = [&](long i) {
    return i < kSets || key_of(i) % 3 == 0 ? ":1\r\n" : ":0\r\n";
  };
  constexpr std::size_t kReply = 4;

  std::size_t sent = 0;
  std::thread writer([&] {
    std::string batch;
    for (long i = 0; i < kSets + kGets;) {
      batch.clear();
      for (const long end = std::min(i + 4096, kSets + kGets); i < end; ++i)
        batch += frame_of({i < kSets ? "SET" : "GET",
                           std::to_string(key_of(i))});
      for (std::size_t off = 0; off < batch.size();) {
        const ssize_t n =
            ::write(client.get(), batch.data() + off, batch.size() - off);
        if (n <= 0) return;
        off += static_cast<std::size_t>(n);
      }
      sent += batch.size();
    }
  });

  // The server fills the connection's backlog to the cap, then stops.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.stats().out_peak < net::kMaxPendingOut &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // A GET reply is 4 bytes, the largest this stream can produce.
  constexpr std::size_t kBound = net::kMaxPendingOut + kReply;
  EXPECT_GE(server.stats().out_peak, net::kMaxPendingOut)
      << "the backlog never reached the cap";
  EXPECT_LE(server.stats().out_peak, kBound);
  EXPECT_LT(server.stats().frames, kSets + kGets)
      << "the server kept parsing";

  long replies = 0;
  long first_bad = -1;
  std::string pending;
  char buf[65536];
  while (replies < kSets + kGets) {
    const ssize_t n = ::read(client.get(), buf, sizeof(buf));
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t off = 0;
    for (; off + kReply <= pending.size(); off += kReply, ++replies) {
      if (first_bad < 0 &&
          pending.compare(off, kReply, reply_of(replies)) != 0)
        first_bad = replies;
    }
    pending.erase(0, off);
  }
  writer.join();
  EXPECT_GT(sent, 10u * 1000 * 1000);
  EXPECT_EQ(replies, kSets + kGets);
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(first_bad, -1) << "replies diverge from request order";
  EXPECT_LE(server.stats().out_peak, kBound);
  EXPECT_EQ(server.stats().frames, kSets + kGets);
  server.stop();
}

TEST(Server, InfoIsServableWhileServing) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.workers = 1;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  const std::string info = server.info();
  EXPECT_NE(info.find("set:singly/ebr/sh8"), std::string::npos);
  EXPECT_NE(info.find("total_ops:0"), std::string::npos);
  EXPECT_NE(info.find("limbo:"), std::string::npos);
  server.stop();
}

// Out of fds, accept4 fails with EMFILE while the pending connection
// keeps the level-triggered listen fd readable. The acceptor must count
// the failure and stop polling that fd until its next 20 ms tick, not
// spin on it (a spin makes ~10^5 failed accepts in 200 ms), and must
// accept the client once fds are free again.
TEST(Server, AcceptorBacksOffWhenOutOfFds) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.workers = 1;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // The client socket exists before the fd table fills; only its
  // connect happens while the server is out of fds.
  net::Fd client(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(client.valid());

  // Fills the fd table under a lowered RLIMIT_NOFILE; release() (or
  // the destructor, on an early test exit) frees it again.
  struct FdTableFiller {
    rlimit saved{};
    bool lowered = false;
    std::vector<int> fds;
    bool fill() {
      if (::getrlimit(RLIMIT_NOFILE, &saved) != 0) return false;
      rlimit low = saved;
      low.rlim_cur = 256;
      if (::setrlimit(RLIMIT_NOFILE, &low) != 0) return false;
      lowered = true;
      for (int fd; (fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;)
        fds.push_back(fd);
      return errno == EMFILE;
    }
    void release() {
      for (const int fd : fds) ::close(fd);
      fds.clear();
      if (lowered) ::setrlimit(RLIMIT_NOFILE, &saved);
      lowered = false;
    }
    ~FdTableFiller() { release(); }
  } filler;
  ASSERT_TRUE(filler.fill());

  sockaddr_in addr{};
  ASSERT_TRUE(net::make_addr("127.0.0.1", server.port(), &addr));
  ASSERT_EQ(::connect(client.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);  // completes in the listen backlog, before any accept
  const long before = server.stats().accept_errors;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const long errors = server.stats().accept_errors - before;
  const long accepted_while_full = server.stats().accepted;

  filler.release();
  EXPECT_EQ(accepted_while_full, 0);
  EXPECT_GE(server.stats().accept_errors, 1) << "EMFILE never hit";
  EXPECT_LE(errors, 20) << "acceptor spun on a readable listen fd";

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().accepted < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.stats().accepted, 1) << "pending client never accepted";
  EXPECT_NE(server.info().find("accept_errors:"), std::string::npos);
  server.stop();
}

/// The value of `key` in an INFO body ("key:value" lines), or -1.
long info_field(const std::string& info, const std::string& key) {
  const std::string tag = "\n" + key + ":";
  const std::size_t at = ("\n" + info).find(tag);
  if (at == std::string::npos) return -1;
  return std::stol(info.substr(at + tag.size() - 1));
}

// INFO reports the shards' hint indexes live: slots summed and the
// largest shard's, and re-indexes. A fresh sh8 set holds eight
// 1024-slot indexes that have never re-indexed.
TEST(Server, InfoReportsTheShardsHintIndexes) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.workers = 1;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  const std::string info = server.info();
  EXPECT_EQ(info_field(info, "hint_slots"), 8 * 1024) << info;
  EXPECT_EQ(info_field(info, "hint_slots_max"), 1024) << info;
  EXPECT_EQ(info_field(info, "hint_reindexes"), 0) << info;
  server.stop();
}

/// A depth-1 burst on one blocking connection: `ops` GETs of absent
/// keys, each sent only after the previous reply arrived. A plain
/// socket loop, so the client turns each reply around in a few
/// microseconds even under a sanitizer.
bool depth1_burst(int port, long ops) {
  net::Fd client(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  sockaddr_in addr{};
  if (!client.valid() || !net::make_addr("127.0.0.1", port, &addr) ||
      ::connect(client.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0)
    return false;
  const int one = 1;
  ::setsockopt(client.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const std::string get = frame_of({"GET", "7"});
  for (long i = 0; i < ops; ++i) {
    if (::write(client.get(), get.data(), get.size()) !=
        static_cast<ssize_t>(get.size()))
      return false;
    char reply[4];
    std::size_t got = 0;
    while (got < sizeof(reply)) {
      const ssize_t n = ::read(client.get(), reply + got, sizeof(reply) - got);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    if (std::string(reply, sizeof(reply)) != ":0\r\n") return false;
  }
  return true;
}

double process_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Restricts the calling thread to one CPU for its lifetime; threads
/// it spawns meanwhile inherit the mask.
struct OneCpu {
  cpu_set_t saved{};
  bool ok = false;
  OneCpu() {
    if (::sched_getaffinity(0, sizeof(saved), &saved) != 0) return;
    int first = 0;
    while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved)) ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ok = ::sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~OneCpu() {
    if (ok) ::sched_setaffinity(0, sizeof(saved), &saved);
  }
};

// A polling worker must stop polling once its clients go quiet: after
// a depth-1 burst the whole process (server and test alike) is idle,
// and an idle server sleeps in epoll_wait. The acceptor's 20 ms
// supervisor tick is the only wakeup left.
TEST(Server, IdleWorkersSleep) {
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.workers = 1;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_TRUE(depth1_burst(server.port(), 2000));

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double before = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double used = process_cpu_ms() - before;
  EXPECT_LT(used, 30.0) << "the server kept a core busy while idle";
  server.stop();
}

// Polling is switched on only when every worker can have a core of its
// own next to a client: twice as many CPUs in the affinity mask as
// workers. On fewer CPUs the loop blocks exactly as before.
TEST(Server, BusyPollNeedsSpareCpus) {
  {
    const OneCpu pin;
    ASSERT_TRUE(pin.ok);
    net::ServerConfig scfg;
    scfg.port = 0;
    scfg.workers = 1;
    net::Server server(scfg);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ASSERT_TRUE(depth1_burst(server.port(), 2000));
    EXPECT_EQ(info_field(server.info(), "busy_poll"), 0);
    EXPECT_EQ(info_field(server.info(), "poll_hits"), 0);
    EXPECT_EQ(server.stats().poll_hits, 0);
    server.stop();
  }
  if (affinity_cpus() < 2)
    GTEST_SKIP() << "polling needs 2 CPUs for one worker";
  net::ServerConfig scfg;
  scfg.port = 0;
  scfg.workers = 1;
  net::Server server(scfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  EXPECT_EQ(info_field(server.info(), "busy_poll"), 1);
  // A loaded host (other tests running) can keep the worker preempted,
  // and so backed off, for a while: keep bursting until a poll hits.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().poll_hits == 0 &&
         std::chrono::steady_clock::now() < deadline)
    ASSERT_TRUE(depth1_burst(server.port(), 2000));
  EXPECT_GT(server.stats().poll_hits, 0)
      << "no depth-1 request arrived while the worker polled";
  EXPECT_EQ(info_field(server.info(), "poll_hits"), server.stats().poll_hits);
  server.stop();
}

}  // namespace
}  // namespace pragmalist
