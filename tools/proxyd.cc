// wira_proxyd: real-socket serving mode (DESIGN.md §6; ROADMAP tentpole).
//
// An epoll-driven UDP front end that speaks the repo's QUIC dialect over
// real sockets.  The session objects are the *same* app::WiraServer /
// quic::Connection instances the simulator runs — they schedule on one
// sim::EventLoop that net::EpollRuntime keeps synchronized to
// CLOCK_MONOTONIC, so the discrete-event loop doubles as the daemon's
// timer wheel and nothing in src/app, src/quic or src/cc knows whether
// time is virtual or real.
//
// One UDP socket per Table-I scheme, each behind an app::SocketEdge that
// demuxes sessions by peer address (wira_loadgen gives every session its
// own connected socket, so the source port is the session identity) and
// retires a session once its connection closes, by CONNECTION_CLOSE or
// idle timeout.  --port-file lists one "scheme_token addr:port" line per
// scheme — the exact endpoints wira_loadgen consumes.  On SIGTERM/SIGINT
// the daemon exits with
//
//   wira_proxyd: served N session(s), M datagram(s), retired R, live L,
//   dropped D
//
// (one line): N sessions admitted in all, R of them retired, L still
// open, D datagrams dropped from unknown peers that sent no Initial.
//
//   wira_proxyd --listen 0 --port-file /tmp/proxyd.ports
//   wira_proxyd --schemes wira --trace-dir traces   # server-vantage qlogs
#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "app/socket_edge.h"
#include "core/init_config.h"
#include "crypto/aead.h"
#include "net/epoll_runtime.h"
#include "net/udp_socket.h"
#include "sim/event_loop.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct Args {
  std::string bind = "127.0.0.1";
  std::string port_file;
  std::string schemes = "baseline,wira_ff,wira_hx,wira";
  std::string trace_dir;  ///< empty = no server-vantage qlogs
  uint16_t listen = 0;    ///< first scheme's port; 0 = all ephemeral
  int rcvbuf_bytes = 8 * 1024 * 1024;
  long origin_latency_us = 5000;
  long stream_horizon_ms = 12000;
};

[[noreturn]] void usage(const char* prog, const char* msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: %s [--bind ADDR] [--listen PORT] [--port-file FILE]\n"
               "          [--schemes tok,...] [--trace-dir DIR]\n"
               "          [--rcvbuf BYTES] [--origin-latency-us N]\n"
               "          [--stream-horizon-ms N]\n",
               msg, prog);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(arg, flag) != 0) return nullptr;
      if (i + 1 >= argc) usage(argv[0], "flag needs a value");
      return argv[++i];
    };
    auto num = [&](const char* flag, long lo, long hi,
                   long* out) -> bool {
      const char* v = value(flag);
      if (v == nullptr) return false;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n < lo || n > hi) {
        usage(argv[0], (std::string(flag) + " out of range").c_str());
      }
      *out = n;
      return true;
    };
    long n = 0;
    if (const char* v = value("--bind")) {
      a.bind = v;
    } else if (const char* v = value("--port-file")) {
      a.port_file = v;
    } else if (const char* v = value("--schemes")) {
      a.schemes = v;
    } else if (const char* v = value("--trace-dir")) {
      a.trace_dir = v;
    } else if (num("--listen", 0, 65535, &n)) {
      a.listen = static_cast<uint16_t>(n);
    } else if (num("--rcvbuf", 0, 1 << 30, &n)) {
      a.rcvbuf_bytes = static_cast<int>(n);
    } else if (num("--origin-latency-us", 0, 60'000'000, &n)) {
      a.origin_latency_us = n;
    } else if (num("--stream-horizon-ms", 100, 600'000, &n)) {
      a.stream_horizon_ms = n;
    } else {
      usage(argv[0], "unknown argument");
    }
  }
  return a;
}

std::vector<wira::core::Scheme> parse_schemes(const Args& a,
                                              const char* prog) {
  std::vector<wira::core::Scheme> out;
  size_t at = 0;
  while (at <= a.schemes.size()) {
    const size_t comma = a.schemes.find(',', at);
    const std::string tok = a.schemes.substr(
        at, comma == std::string::npos ? std::string::npos : comma - at);
    wira::core::Scheme s;
    if (!wira::core::scheme_from_token(tok.c_str(), &s)) {
      usage(prog, ("unknown scheme token \"" + tok + "\"").c_str());
    }
    out.push_back(s);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wira;
  const Args args = parse_args(argc, argv);
  const std::vector<core::Scheme> schemes = parse_schemes(args, argv[0]);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  sim::EventLoop loop;
  net::EpollRuntime runtime(loop);
  if (!runtime.ok()) {
    std::fprintf(stderr, "wira_proxyd: %s\n", runtime.error().c_str());
    return 1;
  }
  // Session timers are real timestamps from here on; scheduling anything
  // before this sync would backdate it to loop time 0.
  runtime.sync_now();

  app::ServerConfig server;
  server.master_key = crypto::key_from_string("wira-server-7");
  server.expected_od_key = 0;  // serve any client's cookie binding
  server.origin_latency = microseconds(args.origin_latency_us);
  server.stream_horizon = milliseconds(args.stream_horizon_ms);
  // The stream goes on air with the daemon: a viewer arriving t after
  // start joins the GOP at t on every run, whatever the host's uptime.
  server.stream_epoch = loop.now();

  // One edge per scheme socket; each drains its socket fully per wakeup.
  std::vector<std::unique_ptr<app::SocketEdge>> edges;
  for (size_t si = 0; si < schemes.size(); ++si) {
    const uint16_t port =
        args.listen == 0 ? 0 : static_cast<uint16_t>(args.listen + si);
    net::UdpSocket sock;
    std::string error;
    if (!sock.open_bound(args.bind, port, args.rcvbuf_bytes, &error)) {
      std::fprintf(stderr, "wira_proxyd: %s: %s\n",
                   core::scheme_token(schemes[si]), error.c_str());
      return 1;
    }
    server.scheme = schemes[si];
    auto edge = std::make_unique<app::SocketEdge>(runtime, std::move(sock),
                                                  server, args.trace_dir);
    app::SocketEdge* e = edge.get();
    runtime.add_fd(e->socket().fd(), [e](uint32_t) { e->drain(); });
    edges.push_back(std::move(edge));
  }

  if (!args.port_file.empty()) {
    std::FILE* f = std::fopen(args.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "wira_proxyd: cannot write %s\n",
                   args.port_file.c_str());
      return 1;
    }
    for (size_t si = 0; si < edges.size(); ++si) {
      std::fprintf(f, "%s %s\n", core::scheme_token(schemes[si]),
                   edges[si]->socket().local_addr().display().c_str());
    }
    std::fclose(f);
  }
  for (size_t si = 0; si < edges.size(); ++si) {
    std::fprintf(stderr, "wira_proxyd: %s on %s\n",
                 core::scheme_token(schemes[si]),
                 edges[si]->socket().local_addr().display().c_str());
  }

  const bool ok = runtime.run([] { return g_stop != 0; });
  if (!ok) {
    std::fprintf(stderr, "wira_proxyd: %s\n", runtime.error().c_str());
    return 1;
  }
  // "served N session(s), M datagram(s)" is a fixed prefix scripts parse;
  // N counts every session ever admitted.
  uint64_t admitted = 0, datagrams = 0, retired = 0, live = 0, dropped = 0;
  for (const auto& e : edges) {
    admitted += e->admitted();
    datagrams += e->datagrams();
    retired += e->retired();
    live += e->live();
    dropped += e->dropped();
  }
  std::fprintf(stderr,
               "wira_proxyd: served %llu session(s), %llu datagram(s), "
               "retired %llu, live %llu, dropped %llu\n",
               static_cast<unsigned long long>(admitted),
               static_cast<unsigned long long>(datagrams),
               static_cast<unsigned long long>(retired),
               static_cast<unsigned long long>(live),
               static_cast<unsigned long long>(dropped));
  return 0;
}
