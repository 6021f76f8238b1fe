// Real-socket CDN edge (DESIGN.md §6): the session table behind one of
// wira_proxyd's UDP sockets.  Sessions are keyed by peer address and live
// through admit -> serve -> retire:
//
//   admit   an Initial packet from an unknown peer builds the session (a
//           LiveStream, a WiraServer, optionally a server-vantage sqlog);
//           any other datagram from an unknown peer is counted and dropped,
//           so a late packet from a retired viewer cannot resurrect it;
//   serve   datagrams route to the session's WiraServer;
//   retire  once the session's connection is closed — by the viewer's
//           CONNECTION_CLOSE, or by the edge after kIdleTimeout of silence
//           from the peer — the session is destroyed with everything it
//           had queued (origin deliveries, live tail, cookie sync).
//
// WiraEdge (edge.h) is the simulator's counterpart, demuxed by connection
// id on a simulated path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/wira_server.h"
#include "net/clock.h"
#include "net/epoll_runtime.h"
#include "net/udp_socket.h"

namespace wira::app {

class SocketEdge {
 public:
  /// QUIC's max_idle_timeout (RFC 9000 §10.1), fixed rather than
  /// negotiated: a session whose peer has sent nothing for this long is
  /// closed and retired.  A watching viewer acknowledges the live tail
  /// every few packets, so ten silent seconds mean it has gone.
  static constexpr TimeNs kIdleTimeout = seconds(10);

  /// Serves the datagrams arriving on `sock` (bound, non-blocking) on
  /// `runtime`'s loop, each session with `server` config and, when
  /// `trace_dir` is set, a server-vantage sqlog there.  Every session
  /// streams the simulator's default live stream.  The caller registers
  /// drain() for the socket's fd.
  SocketEdge(net::EpollRuntime& runtime, net::UdpSocket sock,
             ServerConfig server, std::string trace_dir);
  /// Closes every live session (each peer gets a CONNECTION_CLOSE), then
  /// destroys it.
  ~SocketEdge();
  SocketEdge(const SocketEdge&) = delete;
  SocketEdge& operator=(const SocketEdge&) = delete;

  const net::UdpSocket& socket() const { return sock_; }

  /// Reads the socket until it would block.  The loop clock is synced
  /// before each datagram, so a session's timers count from when its
  /// datagram was read, not from the start of the batch.  Sessions that
  /// closed during the batch are retired at its end.
  void drain();

  uint64_t admitted() const { return admitted_; }  ///< cumulative
  uint64_t retired() const { return retired_; }
  size_t live() const { return sessions_.size(); }
  uint64_t datagrams() const { return datagrams_; }
  /// Datagrams from unknown peers that were not an Initial packet.
  uint64_t dropped() const { return dropped_; }

 private:
  struct Session;
  using SessionMap = std::map<net::PeerAddr, std::unique_ptr<Session>>;

  SessionMap::iterator admit(const net::PeerAddr& peer);
  void retire(SessionMap::iterator it);
  void arm_idle(Session& s, TimeNs at);
  void on_idle(Session& s);

  net::EpollRuntime& runtime_;
  sim::EventLoop& loop_;
  net::UdpSocket sock_;
  const ServerConfig server_config_;
  const std::string trace_dir_;
  const net::MonotonicClock clock_;
  SessionMap sessions_;
  std::vector<net::PeerAddr> closed_;  ///< closed during this drain batch
  uint64_t admitted_ = 0;
  uint64_t retired_ = 0;
  uint64_t datagrams_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace wira::app
