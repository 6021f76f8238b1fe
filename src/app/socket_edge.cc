#include "app/socket_edge.h"

#include <fstream>
#include <optional>

#include "media/stream_source.h"
#include "obs/qlog.h"
#include "quic/types.h"
#include "trace/tracer.h"

namespace wira::app {

/// One viewer: the same objects exp::run_session wires up, minus the
/// simulated path — datagrams arrive from the socket and leave through
/// sendto(peer).
struct SocketEdge::Session {
  net::PeerAddr peer;
  media::LiveStream stream;
  // Each member outlives the ones declared after it that point at it.
  std::ofstream qlog;
  std::optional<obs::QlogStreamWriter> qlog_writer;
  trace::Tracer tracer;
  std::optional<WiraServer> server;
  TimeNs last_rx = 0;
  sim::EventId idle_timer = 0;  ///< armed for the session's whole life

  /// The simulator's default profile and corpus seed.
  explicit Session(const net::PeerAddr& p)
      : peer(p), stream(media::StreamProfile{}, /*corpus_seed=*/42) {}
};

SocketEdge::SocketEdge(net::EpollRuntime& runtime, net::UdpSocket sock,
                       ServerConfig server, std::string trace_dir)
    : runtime_(runtime),
      loop_(runtime.loop()),
      sock_(std::move(sock)),
      server_config_(std::move(server)),
      trace_dir_(std::move(trace_dir)) {}

SocketEdge::~SocketEdge() {
  // Closing first cancels each connection's timers, so the loop may keep
  // running after the table is gone.
  while (!sessions_.empty()) {
    auto it = sessions_.begin();
    it->second->server->connection().close(0, "server shutdown");
    retire(it);
  }
}

void SocketEdge::drain() {
  uint8_t buf[65536];
  for (;;) {
    net::PeerAddr peer;
    const ssize_t n = sock_.recv_from(buf, sizeof buf, &peer);
    if (n < 0) break;
    datagrams_++;
    runtime_.sync_now();
    auto it = sessions_.find(peer);
    if (it == sessions_.end()) {
      if (n == 0 ||
          buf[0] != static_cast<uint8_t>(quic::PacketType::kInitial)) {
        dropped_++;
        continue;
      }
      it = admit(peer);
    }
    Session& s = *it->second;
    s.last_rx = loop_.now();
    s.server->on_datagram({buf, static_cast<size_t>(n)});
    if (s.server->connection().closed()) closed_.push_back(peer);
  }
  // A session whose idle timer fired during the batch is already gone,
  // and its peer may have been admitted again since.
  for (const net::PeerAddr& peer : closed_) {
    const auto it = sessions_.find(peer);
    if (it != sessions_.end() && it->second->server->connection().closed()) {
      retire(it);
    }
  }
  closed_.clear();
}

SocketEdge::SessionMap::iterator SocketEdge::admit(
    const net::PeerAddr& peer) {
  auto session = std::make_unique<Session>(peer);
  Session& s = *session;
  if (!trace_dir_.empty()) {
    const std::string name = "peer_" + peer.file_tag();
    s.qlog.open(trace_dir_ + "/" + name + ".server.sqlog",
                std::ios::trunc);
    if (s.qlog) {
      obs::QlogTraceInfo info;
      info.title = name;
      info.group_id = name;
      s.qlog_writer.emplace(s.qlog, info);
      s.tracer.stream_to(&*s.qlog_writer, /*keep_buffer=*/false);
    }
  }
  s.server.emplace(loop_, s.stream, server_config_,
                   [this, peer](std::vector<uint8_t> dgram) {
                     sock_.send_to(peer, dgram);
                     loop_.buffers().release(std::move(dgram));
                   });
  s.server->connection().set_clock(&clock_);
  if (s.qlog_writer.has_value()) s.server->set_tracer(&s.tracer);
  arm_idle(s, loop_.now() + kIdleTimeout);
  admitted_++;
  return sessions_.emplace(peer, std::move(session)).first;
}

void SocketEdge::retire(SessionMap::iterator it) {
  loop_.cancel(it->second->idle_timer);
  sessions_.erase(it);
  retired_++;
}

void SocketEdge::arm_idle(Session& s, TimeNs at) {
  s.idle_timer = loop_.schedule_at(at, [this, &s] { on_idle(s); });
}

void SocketEdge::on_idle(Session& s) {
  // Re-armed lazily: a datagram only stamps last_rx, and the timer moves
  // to the new deadline when it fires early.
  const TimeNs deadline = s.last_rx + kIdleTimeout;
  if (loop_.now() < deadline) {
    arm_idle(s, deadline);
    return;
  }
  s.server->connection().close(0, "idle timeout");
  retire(sessions_.find(s.peer));
}

}  // namespace wira::app
