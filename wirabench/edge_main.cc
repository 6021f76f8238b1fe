// wb_edge: open-loop viewer generator for a running wira_proxyd.
//
// One process, one epoll thread.  Every viewer gets its own connected UDP
// socket only because proxyd keys sessions on the source address.  Arrivals
// come at a fixed rate (kRate) with seeded jitter; viewer i goes to the
// i-th endpoint of the port file modulo their number, so schemes share the
// load interleaved, never in blocks.  A viewer's first-frame time is taken
// from its *due* instant, so generator lag counts against the server; the
// lag itself is reported.  After kWatch of playback past its first frame
// the viewer sends CONNECTION_CLOSE.
//
//   wb_edge --ports FILE --seconds 34 --seed 1 [--trace-dir DIR]
//           [--predict N]
#include <sys/resource.h>
#include <sys/socket.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/player_client.h"
#include "bench_util.h"
#include "core/transport_cookie.h"
#include "crypto/aead.h"
#include "net/clock.h"
#include "net/epoll_runtime.h"
#include "net/udp_socket.h"
#include "obs/qlog.h"
#include "trace/tracer.h"
#include "util/rng.h"

namespace {

using namespace wira;

/// Offered load: well under one proxyd core (about a quarter of it).
constexpr double kRate = 30;
/// Playback per viewer after its first frame, then CONNECTION_CLOSE.
constexpr int64_t kWatch = milliseconds(500);
/// proxyd's default --origin-latency-us; the daemon is run with it.
constexpr int64_t kOriginLatency = microseconds(5000);
/// Viewers whose first frame broke one of proxyd's two timing faults
/// (stuck, or sooner than kOriginLatency) that a run may see before the
/// edge check fails: 1% of them.  A run of 1020 sees 0-4.
constexpr double kMaxFaultedShare = 0.01;

struct Args {
  std::string ports;
  std::string trace_dir;
  long viewers = 0;  ///< kRate x --seconds
  uint64_t seed = 1;
  long predict = 0;  ///< draws to re-run in the sim over a loopback path
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--ports") a.ports = v;
    else if (k == "--trace-dir") a.trace_dir = v;
    else if (k == "--seconds") a.viewers = std::lround(kRate * std::atof(v));
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--predict") a.predict = std::atol(v);
  }
  if (a.ports.empty() || a.viewers < 1) {
    std::fprintf(stderr, "usage: wb_edge --ports FILE --seconds S [--seed N] "
                         "[--trace-dir DIR] [--predict N]\n");
    std::exit(2);
  }
  return a;
}

struct Endpoint {
  core::Scheme scheme;
  std::string addr;
  uint16_t port = 0;
};

std::vector<Endpoint> read_ports(const std::string& file) {
  std::vector<Endpoint> out;
  std::ifstream in(file);
  std::string tok, ep;
  while (in >> tok >> ep) {
    Endpoint e;
    const size_t colon = ep.rfind(':');
    if (!core::scheme_from_token(tok.c_str(), &e.scheme) ||
        colon == std::string::npos) {
      continue;
    }
    e.addr = ep.substr(0, colon);
    e.port = static_cast<uint16_t>(std::atoi(ep.c_str() + colon + 1));
    out.push_back(e);
  }
  return out;
}

struct Viewer {
  net::UdpSocket sock;
  app::ClientCache cache;
  std::optional<app::PlayerClient> client;
  trace::Tracer tracer;
  std::ofstream qlog;
  std::optional<obs::QlogStreamWriter> qlog_writer;
  core::Scheme scheme = core::Scheme::kWira;
  uint64_t client_id = 0;
  bool zero_rtt = false;
  bool cookie = false;
  int64_t due = 0;
  int64_t started = 0;
  int64_t first_frame = 0;  ///< monotonic ns, 0 = not yet
  bool closed = false;
  bool stuck = false;  ///< stream never reached a video tag (see below)
  uint64_t rx = 0;
};

/// Bytes after which a viewer whose demuxer has still not seen a video tag
/// is declared stuck: a healthy join burst reaches its I frame within the
/// first kilobyte (FLV header, metadata, at most an audio tag).
constexpr uint64_t kStuckBytes = 256 * 1024;

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::vector<Endpoint> endpoints = read_ports(args.ports);
  if (endpoints.empty()) {
    std::fprintf(stderr, "wb_edge: no endpoints in %s\n", args.ports.c_str());
    return 1;
  }
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
  }

  sim::EventLoop loop;
  net::EpollRuntime runtime(loop);
  if (!runtime.ok()) {
    std::fprintf(stderr, "wb_edge: %s\n", runtime.error().c_str());
    return 1;
  }
  runtime.sync_now();
  const net::MonotonicClock mono;

  const uint64_t server_id = 7;
  const std::vector<uint8_t> scid = {0x57, 0x49, 0x52, 0x41};  // "WIRA"
  core::CookieSealer sealer(crypto::key_from_string("wira-server-7"));
  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 17);

  // All sockets and clients exist before the first due instant, so set-up
  // never delays an arrival.
  std::vector<std::unique_ptr<Viewer>> viewers;
  size_t closed = 0;
  for (long i = 0; i < args.viewers; ++i) {
    auto v = std::make_unique<Viewer>();
    Viewer* vp = v.get();
    const Endpoint& ep = endpoints[static_cast<size_t>(i) % endpoints.size()];
    vp->scheme = ep.scheme;
    vp->client_id = static_cast<uint64_t>(i) + 1;
    vp->zero_rtt = rng.chance(0.90);
    vp->cookie = rng.chance(0.93);
    // A fixed rate with seeded jitter: viewer i is due somewhere in the
    // first half of its own 1/rate slot.
    vp->due = static_cast<int64_t>(
        (static_cast<double>(i) + rng.uniform(0.0, 0.5)) / kRate * 1e9);
    std::string error;
    if (!vp->sock.open_connected(ep.addr, ep.port, &error)) {
      std::fprintf(stderr, "wb_edge: %s\n", error.c_str());
      return 1;
    }
    // Room for a whole join burst, so a busy generator never drops what
    // the server sent.
    const int rcvbuf = 1 << 20;
    setsockopt(vp->sock.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    const uint64_t od = core::od_pair_key(vp->client_id, server_id, 0);
    if (vp->zero_rtt) vp->cache.server_configs[server_id] = scid;
    if (vp->cookie) {
      // A fresh "fast, short path" history, as a returning loopback
      // viewer would carry.
      core::HxQosRecord rec;
      rec.min_rtt = milliseconds(1);
      rec.max_bw = mbps(500);
      rec.server_timestamp = net::MonotonicClock::raw_now();
      rec.od_key = od;
      vp->cache.cookies.store(od, sealer.seal(rec), rec.server_timestamp);
    }
    app::ClientConfig cfg;
    cfg.client_id = vp->client_id;
    cfg.server_id = server_id;
    cfg.track_frames = 1;
    vp->client.emplace(loop, cfg, vp->cache,
                       [vp, &loop](std::vector<uint8_t> dgram) {
                         vp->sock.send(dgram);
                         loop.buffers().release(std::move(dgram));
                       });
    vp->client->connection().set_clock(&mono);
    if (!args.trace_dir.empty()) {
      const std::string name = "peer_" + vp->sock.local_addr().file_tag();
      vp->qlog.open(args.trace_dir + "/" + name + ".client.sqlog",
                    std::ios::trunc);
      if (vp->qlog) {
        obs::QlogTraceInfo info;
        info.title = name;
        info.group_id = name;
        info.vantage_point_name = "wira-client";
        info.vantage_point_type = "client";
        vp->qlog_writer.emplace(vp->qlog, info);
        vp->tracer.stream_to(&*vp->qlog_writer, false);
        vp->client->set_tracer(&vp->tracer);
      }
    }
    vp->client->set_on_frame_complete(
        [vp, &closed, &loop, &runtime](uint32_t idx) {
          if (idx != 1 || vp->first_frame != 0) return;
          vp->first_frame = net::MonotonicClock::raw_now();
          loop.schedule_in(kWatch, [vp, &closed, &runtime] {
            vp->client->connection().close(0, "viewer left");
            runtime.remove_fd(vp->sock.fd());
            vp->closed = true;
            ++closed;
          });
        });
    runtime.add_fd(vp->sock.fd(), [vp, &closed, &runtime, &loop](uint32_t) {
      uint8_t buf[65536];
      for (;;) {
        const ssize_t n = vp->sock.recv_from(buf, sizeof buf, nullptr);
        if (n < 0) return;
        if (vp->closed) continue;
        vp->rx++;
        vp->client->on_datagram({buf, static_cast<size_t>(n)});
        const auto& m = vp->client->metrics();
        if (vp->first_frame == 0 && m.first_frame_byte_at == kNoTime &&
            m.total_bytes_received > kStuckBytes) {
          // A live-tail tag overtook the join burst's FLV header, so the
          // demuxer rejected the stream; it will never show a frame.
          // (The handler must not unregister itself while it runs.)
          vp->client->connection().close(0, "stream unreadable");
          vp->stuck = vp->closed = true;
          ++closed;
          loop.schedule_in(0, [vp, &runtime] {
            runtime.remove_fd(vp->sock.fd());
          });
          return;
        }
      }
    });
    viewers.push_back(std::move(v));
  }

  const int64_t base = net::MonotonicClock::raw_now() + milliseconds(100);
  for (auto& v : viewers) {
    Viewer* vp = v.get();
    vp->due += base;
    loop.schedule_at(vp->due, [vp] {
      vp->started = net::MonotonicClock::raw_now();
      vp->client->start();
    });
  }
  // Every viewer is due within viewers / kRate; a minute more lets the
  // last ones finish even on a slow host.
  const int64_t deadline = base + static_cast<int64_t>(
      (static_cast<double>(args.viewers) / kRate + 60) * 1e9);
  const size_t total = viewers.size();
  runtime.run([&] {
    return closed >= total || net::MonotonicClock::raw_now() >= deadline;
  }, 20);

  // ---- results ----
  // A viewer either shows its first frame and leaves, or is stuck, or is
  // unfinished at the deadline (a failed operation).  Viewers hit by one
  // of proxyd's two timing faults (stuck, or a first frame sooner than the
  // origin latency allows) come and go with host timing, 0-4 per run, so
  // they are left out of attempted; check_edge bounds their number and
  // the traced run reports it.
  std::vector<double> ffct_due_ms, ffct_ms, lag_ms;
  std::vector<int64_t> ffct_ns;  ///< every shown first frame, from start
  uint64_t undecodable = 0, rx = 0, tx = 0, failed = 0;
  uint64_t stuck = 0, below_origin = 0;
  for (const auto& v : viewers) {
    const auto& m = v->client->metrics();
    undecodable += v->client->packets_undecodable();
    rx += v->rx;
    tx += v->client->connection().stats().packets_sent;
    if (v->started) lag_ms.push_back((v->started - v->due) * 1e-6);
    if (v->stuck) {
      ++stuck;
      continue;
    }
    if (v->first_frame == 0 || !v->closed) {
      std::fprintf(stderr,
                   "wb_edge: viewer %llu (%s) unfinished: started %d "
                   "established %d bytes %llu rx %llu pkts_sent %llu\n",
                   static_cast<unsigned long long>(v->client_id),
                   core::scheme_token(v->scheme), v->started != 0,
                   v->client->connection().established(),
                   static_cast<unsigned long long>(m.total_bytes_received),
                   static_cast<unsigned long long>(v->rx),
                   static_cast<unsigned long long>(
                       v->client->connection().stats().packets_sent));
      ++failed;
      continue;
    }
    ffct_ns.push_back(v->first_frame - v->started);
    if (ffct_ns.back() < kOriginLatency) {
      ++below_origin;
      continue;
    }
    ffct_due_ms.push_back((v->first_frame - v->due) * 1e-6);
    ffct_ms.push_back(to_ms(m.ffct()));
  }

  // Sim prediction for the same draws over a loopback-like path.
  std::vector<double> sim_ms;
  for (long i = 0; i < args.predict && i < args.viewers; ++i) {
    const Viewer& v = *viewers[static_cast<size_t>(i)];
    const exp::SessionResult r = exp::run_session(wb::loopback_session(
        v.scheme, v.client_id, v.zero_rtt, v.cookie, kOriginLatency));
    if (r.first_frame_completed) sim_ms.push_back(to_ms(r.ffct));
  }

  const std::string why = wb::check_edge(
      total, total, ffct_ns, kOriginLatency, undecodable, stuck,
      static_cast<uint64_t>(kMaxFaultedShare * static_cast<double>(total)));
  std::vector<std::string> failures;
  if (!why.empty()) failures.push_back(why);

  // run.py adds setup_s, sessions_per_s, cpu_ms_per_session and
  // peak_rss_mb from proxyd's own counters.
  wb::Metrics m;
  m.add("ffct_p50_ms", wb::percentile(ffct_due_ms, 0.50), "ms");
  m.add("ffct_p99_ms", wb::percentile(ffct_due_ms, 0.99), "ms");
  const std::map<std::string, double> extras = {
      {"viewers", static_cast<double>(total)},
      {"completed", static_cast<double>(ffct_due_ms.size())},
      {"stuck", static_cast<double>(stuck)},
      {"below_origin", static_cast<double>(below_origin)},
      {"client_ffct_p50_ms", wb::percentile(ffct_ms, 0.50)},
      {"lag_p50_ms", wb::percentile(lag_ms, 0.50)},
      {"lag_max_ms", wb::percentile(lag_ms, 1.0)},
      {"dgrams_rx", static_cast<double>(rx)},
      {"dgrams_tx", static_cast<double>(tx)},
      {"undecodable", static_cast<double>(undecodable)},
      {"sim_ffct_p50_ms", wb::percentile(sim_ms, 0.50)},
      {"sim_predicted", static_cast<double>(sim_ms.size())}};
  std::printf("%s\n", wb::result_json(failures.empty(),
                                      total - stuck - below_origin, failed, m,
                                      failures, extras)
                          .c_str());
  return 0;
}
