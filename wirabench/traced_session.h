// The traced run's session wiring: one simulator session assembled from
// public parts (sim::EventLoop, sim::Path's links, app::WiraServer,
// app::PlayerClient) the way exp::run_session assembles it, with
// steady_clock spans around the layer boundaries the benchmark can reach
// from outside: EventLoop::run_until, Link::send, both on_datagram entry
// points, and the flight recorder's event sink.  It also captures every
// datagram for the codec, CC and socket replays.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/session_runner.h"

namespace wb {

/// Counts and busy times summed over traced sessions (ns unless named).
struct LayerTally {
  uint64_t sessions = 0;
  uint64_t loop_events = 0;
  uint64_t loop_ns = 0;        ///< inside EventLoop::run_until
  uint64_t link_sends = 0;
  uint64_t link_send_ns = 0;
  uint64_t link_drops = 0;
  uint64_t server_rx = 0;      ///< datagrams into WiraServer::on_datagram
  uint64_t server_rx_ns = 0;   ///< self time (nested Link::send removed)
  uint64_t client_rx = 0;
  uint64_t client_rx_ns = 0;
  uint64_t rx_nested_send_ns = 0;
  uint64_t trace_events = 0;   ///< events through both vantages' tracers
  uint64_t recorder_ns = 0;    ///< inside the flight recorder's sinks
  uint64_t arena_bytes = 0;
  uint64_t retx_bytes = 0;
  uint64_t stream_bytes = 0;

  uint64_t loop_self_ns() const {
    const uint64_t inner = link_send_ns + server_rx_ns + client_rx_ns;
    return loop_ns > inner ? loop_ns - inner : 0;
  }
};

/// One captured datagram: loop time, direction, bytes.
struct CapturedDgram {
  int64_t t = 0;
  bool to_client = false;  ///< server -> client
  std::vector<uint8_t> bytes;
};
struct Capture {
  std::vector<CapturedDgram> datagrams;
};

/// Runs `cfg` through the traced wiring; must return what
/// exp::run_session(cfg) returns for FFCT, FF_Size and the init decision.
/// A recorder in cfg is attached as run_session attaches it, behind a
/// timing shim.
wira::exp::SessionResult run_traced(const wira::exp::SessionConfig& cfg,
                                    LayerTally& tally, Capture* capture);

}  // namespace wb
