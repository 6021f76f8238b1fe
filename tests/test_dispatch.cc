// Tests for the fleet-scale dispatch layer (DESIGN.md §6): the dynamic
// chunk scheduler, its DispatchStats telemetry, the straggler win it was
// built for, and the socket shard transport (loopback wira_workerd
// endpoints, including one dying mid-sweep).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "exp/population_experiment.h"
#include "exp/record_codec.h"
#include "exp/record_sink.h"
#include "exp/session_export.h"
#include "exp/shard_dispatch.h"
#include "obs/metrics.h"

namespace wira::exp {
namespace {

PopulationConfig small_config(uint64_t seed = 23) {
  PopulationConfig cfg;
  cfg.sessions = 12;
  cfg.seed = seed;
  return cfg;
}

// Encoded-bytes comparison: every field the codec carries participates.
bool records_equal(const std::vector<SessionRecord>& a,
                   const std::vector<SessionRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    std::vector<uint8_t> ea, eb;
    CodecWriter wa(ea), wb(eb);
    encode_session_record(a[i], wa);
    encode_session_record(b[i], wb);
    if (ea != eb) return false;
  }
  return true;
}

TEST(Chunks, FixedSizeCutsWithShortTail) {
  const auto c = make_chunks(10, 4, 3);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].begin, 0u);
  EXPECT_EQ(c[0].end, 4u);
  EXPECT_EQ(c[1].begin, 4u);
  EXPECT_EQ(c[1].end, 8u);
  EXPECT_EQ(c[2].begin, 8u);
  EXPECT_EQ(c[2].end, 10u);  // short tail
}

TEST(Chunks, OversizedChunkIsOneChunk) {
  const auto c = make_chunks(12, 4096, 4);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].begin, 0u);
  EXPECT_EQ(c[0].end, 12u);
}

TEST(Chunks, ZeroMeansStaticBalancedStripes) {
  // 14 over 4 workers: 4,4,3,3 — the legacy static assignment.
  const auto c = make_chunks(14, 0, 4);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c[0].begin, 0u);
  EXPECT_EQ(c[0].end, 4u);
  EXPECT_EQ(c[1].begin, 4u);
  EXPECT_EQ(c[1].end, 8u);
  EXPECT_EQ(c[2].begin, 8u);
  EXPECT_EQ(c[2].end, 11u);
  EXPECT_EQ(c[3].begin, 11u);
  EXPECT_EQ(c[3].end, 14u);
}

TEST(Chunks, StaticStripingSkipsEmptyStripes) {
  // More workers than sessions: only non-empty stripes survive.
  const auto c = make_chunks(3, 0, 8);
  ASSERT_EQ(c.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c[i].begin, i);
    EXPECT_EQ(c[i].end, i + 1);
  }
}

TEST(Chunks, EmptyPopulationHasNoChunks) {
  EXPECT_TRUE(make_chunks(0, 64, 4).empty());
  EXPECT_TRUE(make_chunks(0, 0, 4).empty());
}

// The tentpole contract: stdout-order records AND the metrics aggregate
// are byte-identical to serial at any (worker count, chunk size) point,
// because reassembly is index-addressed and per-session randomness
// derives only from (seed, index).
TEST(Dispatch, ChunkMatrixMatchesSerialExactly) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 24;
  cfg.collect_metrics = true;
  obs::MetricsRegistry serial_m;
  const auto serial = run_population(cfg, &serial_m);
  std::ostringstream serial_js;
  serial_m.write_json(serial_js);

  for (size_t procs : {2u, 4u}) {
    for (size_t chunk : {size_t{1}, size_t{5}, size_t{4096}}) {
      PopulationConfig sharded_cfg = cfg;
      sharded_cfg.processes = procs;
      sharded_cfg.chunk = chunk;
      obs::MetricsRegistry sharded_m;
      const auto sharded = run_population(sharded_cfg, &sharded_m);
      EXPECT_TRUE(records_equal(serial, sharded))
          << procs << " procs, chunk " << chunk;
      std::ostringstream ls, lp;
      write_records_jsonl(serial, ls);
      write_records_jsonl(sharded, lp);
      EXPECT_EQ(ls.str(), lp.str()) << procs << " procs, chunk " << chunk;
      std::ostringstream sharded_js;
      sharded_m.write_json(sharded_js);
      EXPECT_EQ(serial_js.str(), sharded_js.str())
          << procs << " procs, chunk " << chunk;
    }
  }
}

// The streaming sink sees the exact same bytes as collect mode under the
// dynamic scheduler, even when chunks complete wildly out of order.
TEST(Dispatch, StreamedSinkMatchesCollectUnderDynamicChunks) {
  PopulationConfig cfg = small_config(29);
  cfg.sessions = 18;
  cfg.processes = 3;
  cfg.chunk = 2;
  cfg.collect_metrics = true;
  obs::MetricsRegistry collect_m;
  const auto collected = run_population(cfg, &collect_m);

  obs::MetricsRegistry stream_m;
  CollectSink sink(cfg.sessions);
  run_population(cfg, &stream_m, sink);

  EXPECT_TRUE(records_equal(collected, sink.records()));
  EXPECT_EQ(collect_m.counters(), stream_m.counters());
  std::ostringstream jc, js;
  collect_m.write_json(jc);
  stream_m.write_json(js);
  EXPECT_EQ(jc.str(), js.str());
}

// S1: workers with an empty assignment are never spawned — the worker
// count is structurally min(requested, number of chunks).
TEST(Dispatch, EmptyAssignmentsSkipWorkers) {
  PopulationConfig cfg = small_config(31);
  cfg.sessions = 3;
  cfg.processes = 8;
  cfg.chunk = 1;  // 3 chunks -> only 3 of the 8 requested workers exist
  DispatchStats stats;
  cfg.dispatch_stats = &stats;
  const auto records = run_population(cfg);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(stats.workers_spawned, 3u);
  ASSERT_EQ(stats.chunks_completed.size(), 3u);
  ASSERT_EQ(stats.sessions_completed.size(), 3u);
  uint64_t chunks = 0, sessions = 0;
  for (size_t w = 0; w < 3; ++w) {
    chunks += stats.chunks_completed[w];
    sessions += stats.sessions_completed[w];
  }
  EXPECT_EQ(chunks, 3u);
  EXPECT_EQ(sessions, 3u);
  EXPECT_LE(stats.busy_workers, stats.workers_spawned);
  EXPECT_GE(stats.busy_workers, 1u);

  // One oversized chunk collapses the fleet to a single worker.
  DispatchStats one;
  cfg.chunk = 64;
  cfg.dispatch_stats = &one;
  run_population(cfg);
  EXPECT_EQ(one.workers_spawned, 1u);
  ASSERT_EQ(one.chunks_completed.size(), 1u);
  EXPECT_EQ(one.chunks_completed[0], 1u);
  EXPECT_EQ(one.sessions_completed[0], 3u);
}

// The reason the scheduler exists: with one injected straggler worker,
// dynamic chunking routes work around it while static striping waits for
// its whole stripe.  The check counts what the straggler ran rather than
// timing the two runs against each other, so load from other processes
// cannot flip it; output must stay byte-identical either way.
TEST(Dispatch, DynamicChunksBeatStaticStripingWithStraggler) {
  using clock = std::chrono::steady_clock;
  PopulationConfig clean = small_config(37);
  clean.sessions = 24;
  const auto t0 = clock::now();
  const auto clean_records = run_population(clean);
  const auto per_session_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock::now() - t0)
          .count() /
      clean.sessions);

  PopulationConfig cfg = clean;
  cfg.processes = 4;
  cfg.straggler_worker = 0;
  // Worker 0 sleeps at least 150 ms and four healthy sessions' worth
  // before each of its sessions, so it stays the slowest worker by far
  // however fast this build (sanitizers) and host load run a session.
  cfg.straggler_delay_us = std::max<uint64_t>(150000, 4 * per_session_us);

  DispatchStats static_stats;
  cfg.chunk = 0;  // static striping: worker 0 serializes its 6 sessions
  cfg.dispatch_stats = &static_stats;
  const auto static_records = run_population(cfg);

  DispatchStats dyn_stats;
  cfg.chunk = 1;  // dynamic: worker 0 pulls ~2 chunks, others take the rest
  cfg.dispatch_stats = &dyn_stats;
  const auto dyn_records = run_population(cfg);

  EXPECT_TRUE(records_equal(static_records, dyn_records));
  EXPECT_TRUE(records_equal(clean_records, dyn_records));
  // Static striping makes the straggler run its whole stripe.  Dynamic
  // chunking hands it two single-session chunks up front and another
  // only when one finishes; meanwhile the three healthy workers drain
  // the queue, so it runs fewer than its stripe.
  ASSERT_EQ(static_stats.sessions_completed.size(), 4u);
  ASSERT_EQ(dyn_stats.sessions_completed.size(), 4u);
  EXPECT_EQ(static_stats.sessions_completed[0], 6u);
  EXPECT_GE(dyn_stats.sessions_completed[0], 2u);
  EXPECT_LT(dyn_stats.sessions_completed[0],
            static_stats.sessions_completed[0])
      << "straggler delay " << cfg.straggler_delay_us << " us";
}

// ---- loopback TCP transport --------------------------------------------

// A one-connection wira_workerd stand-in: binds an ephemeral loopback
// port, forks, and the child serves exactly one dispatcher connection
// in-process (so kill_at_index kills the server — the dead-endpoint case
// the taxonomy tests need).
struct TestWorkerd {
  pid_t pid = -1;
  std::string endpoint;
};

TestWorkerd spawn_test_workerd() {
  TestWorkerd w;
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(listen_fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  EXPECT_EQ(::listen(listen_fd, 1), 0);
  struct sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&bound), &len);
  w.endpoint = "127.0.0.1:" + std::to_string(ntohs(bound.sin_port));

  w.pid = ::fork();
  if (w.pid == 0) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    ::close(listen_fd);
    if (conn < 0) _Exit(1);
    const int code = serve_shard_worker(conn);
    ::close(conn);
    _Exit(code);
  }
  ::close(listen_fd);
  return w;
}

int reap_test_workerd(const TestWorkerd& w) {
  int status = 0;
  while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

// Dispatching over loopback sockets to wira_workerd-style endpoints
// yields the exact serial bytes — same reassembly, different transport.
TEST(Dispatch, LoopbackTcpMatchesSerialExactly) {
  PopulationConfig cfg = small_config(41);
  cfg.sessions = 18;
  cfg.collect_metrics = true;
  obs::MetricsRegistry serial_m;
  const auto serial = run_population(cfg, &serial_m);

  const TestWorkerd a = spawn_test_workerd();
  const TestWorkerd b = spawn_test_workerd();
  cfg.workers = {a.endpoint, b.endpoint};
  cfg.chunk = 4;
  obs::MetricsRegistry tcp_m;
  const auto over_tcp = run_population(cfg, &tcp_m);

  EXPECT_TRUE(records_equal(serial, over_tcp));
  std::ostringstream ls, lt;
  write_records_jsonl(serial, ls);
  write_records_jsonl(over_tcp, lt);
  EXPECT_EQ(ls.str(), lt.str());
  std::ostringstream js, jt;
  serial_m.write_json(js);
  tcp_m.write_json(jt);
  EXPECT_EQ(js.str(), jt.str());

  const int sa = reap_test_workerd(a);
  const int sb = reap_test_workerd(b);
  EXPECT_TRUE(WIFEXITED(sa) && WEXITSTATUS(sa) == 0);
  EXPECT_TRUE(WIFEXITED(sb) && WEXITSTATUS(sb) == 0);
}

// A TCP endpoint has no exit status, so a daemon SIGKILLed mid-chunk is
// diagnosed purely from its stream state — and still salvaged.
TEST(Dispatch, KilledWorkerdIsNamedAndSalvaged) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 12;
  cfg.chunk = 6;  // chunks [0,6) and [6,12), dealt to workers 0/1
  cfg.kill_at_index = 9;  // worker 1's daemon dies after streaming 6..8
  const TestWorkerd a = spawn_test_workerd();
  const TestWorkerd b = spawn_test_workerd();
  cfg.workers = {a.endpoint, b.endpoint};
  try {
    run_population(cfg);
    FAIL() << "expected PopulationShardError";
  } catch (const PopulationShardError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "worker 1 (sessions [6,12)) truncated record stream "
                  "while on session 9"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("salvaged 9 of 12 records"),
              std::string::npos)
        << e.what();
    ASSERT_EQ(e.deaths.size(), 1u);
    EXPECT_EQ(e.deaths[0].worker, 1);
    EXPECT_EQ(e.deaths[0].stripe_begin, 6u);
    EXPECT_EQ(e.deaths[0].stripe_end, 12u);
    EXPECT_EQ(e.deaths[0].died_at, 9u);
    EXPECT_EQ(e.missing, (std::vector<size_t>{9, 10, 11}));
    ASSERT_EQ(e.salvaged.size(), 12u);
    for (size_t i = 0; i < 9; ++i) {
      EXPECT_FALSE(e.salvaged[i].results.empty()) << i;
    }
  }
  const int sa = reap_test_workerd(a);
  const int sb = reap_test_workerd(b);
  EXPECT_TRUE(WIFEXITED(sa) && WEXITSTATUS(sa) == 0);
  EXPECT_TRUE(WIFSIGNALED(sb) && WTERMSIG(sb) == SIGKILL);
}

// --retry-dead-shards over TCP: the parent re-runs the dead daemon's
// missing sessions in-process and the sweep completes byte-identically.
TEST(Dispatch, RetryDeadShardsOverTcpCompletesIdentically) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 12;
  cfg.chunk = 6;
  cfg.kill_at_index = 9;
  cfg.retry_dead_shards = true;
  const TestWorkerd a = spawn_test_workerd();
  const TestWorkerd b = spawn_test_workerd();
  cfg.workers = {a.endpoint, b.endpoint};
  const auto salvaged = run_population(cfg);

  PopulationConfig clean = cfg;
  clean.workers.clear();
  clean.kill_at_index = kNoSessionIndex;
  clean.retry_dead_shards = false;
  EXPECT_TRUE(records_equal(run_population(clean), salvaged));
  reap_test_workerd(a);
  reap_test_workerd(b);
}

// Streaming-mode retry over pipes: a worker killed mid-chunk is retired,
// its remaining chunks run in-process, and the sink still sees the full
// uninterrupted serial byte sequence.
TEST(Dispatch, StreamRetrySurvivesDeadWorker) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 12;
  cfg.processes = 2;
  cfg.chunk = 6;
  cfg.kill_at_index = 9;
  cfg.retry_dead_shards = true;
  CollectSink sink(cfg.sessions);
  run_population(cfg, nullptr, sink);

  PopulationConfig clean = cfg;
  clean.processes = 1;
  clean.kill_at_index = kNoSessionIndex;
  clean.retry_dead_shards = false;
  EXPECT_TRUE(records_equal(run_population(clean), sink.records()));
}

// ---------------------------------------------------------------------------
// Connect-phase failures (endpoint unreachable / tarpit): the dispatcher
// must classify them as named shard deaths — not abort the sweep with a
// raw throw — so --retry-dead-shards can salvage the assignment.

// A loopback listener whose accept queue is saturated: SYNs to it are
// dropped, so connect() hangs until the client's own timeout.  Keeps the
// queue-filling sockets open for its lifetime.
struct TarpitListener {
  int listen_fd = -1;
  std::vector<int> fillers;
  std::string endpoint;

  TarpitListener() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    EXPECT_EQ(::listen(listen_fd, 0), 0);  // minimal backlog, never accepts
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    endpoint = "127.0.0.1:" + std::to_string(ntohs(bound.sin_port));
    for (int i = 0; i < 4; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      ::connect(fd, reinterpret_cast<sockaddr*>(&bound), sizeof bound);
      fillers.push_back(fd);
    }
  }
  ~TarpitListener() {
    for (const int fd : fillers) ::close(fd);
    ::close(listen_fd);
  }
};

TEST(Dispatch, ConnectTimeoutIsNamedShardDeath) {
  const TarpitListener tarpit;
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 6;
  cfg.chunk = 6;
  cfg.workers = {tarpit.endpoint};
  cfg.connect_timeout_ms = 300;
  try {
    run_population(cfg);
    FAIL() << "expected PopulationShardError";
  } catch (const PopulationShardError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out after 300 ms"),
              std::string::npos)
        << e.what();
    ASSERT_EQ(e.deaths.size(), 1u);
    EXPECT_EQ(e.deaths[0].worker, 0);
  }
}

TEST(Dispatch, ConnectTimeoutIsSalvagedByRetry) {
  const TarpitListener tarpit;
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 12;
  cfg.chunk = 6;
  cfg.workers = {tarpit.endpoint};
  cfg.connect_timeout_ms = 300;
  cfg.retry_dead_shards = true;
  const auto salvaged = run_population(cfg);

  PopulationConfig clean = cfg;
  clean.workers.clear();
  clean.retry_dead_shards = false;
  EXPECT_TRUE(records_equal(run_population(clean), salvaged));
}

TEST(Dispatch, ConnectRefusedIsNamedShardDeath) {
  // A port with nothing bound: connect() fails fast with ECONNREFUSED,
  // which must surface as a named death, not an aborting throw.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(probe, reinterpret_cast<sockaddr*>(&bound), &len);
  const std::string dead_ep =
      "127.0.0.1:" + std::to_string(ntohs(bound.sin_port));
  ::close(probe);  // bound-but-closed: the port is now free and refusing

  PopulationConfig cfg = small_config(23);
  cfg.sessions = 6;
  cfg.chunk = 6;
  cfg.workers = {dead_ep};
  try {
    run_population(cfg);
    FAIL() << "expected PopulationShardError";
  } catch (const PopulationShardError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot connect to " + dead_ep),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wira::exp
