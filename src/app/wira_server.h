// The Wira CDN proxy server (Fig. 10): accepts a QUIC connection, pulls the
// requested live stream from the (local) origin, runs every outgoing byte
// through Frame Perception, initializes the send controller from the
// Table-I scheme, and periodically synchronizes the transport cookie.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/frame_parser.h"
#include "core/init_config.h"
#include "core/transport_cookie.h"
#include "media/stream_source.h"
#include "quic/connection.h"
#include "sim/event_loop.h"
#include "trace/tracer.h"

namespace wira::app {

struct ServerConfig {
  core::Scheme scheme = core::Scheme::kWira;
  core::ExperiencedDefaults defaults;
  uint32_t theta_vf = 1;
  TimeNs sync_period = core::kDefaultSyncPeriod;
  TimeNs staleness_threshold = core::kDefaultStaleness;
  cc::CcAlgo cc_algo = cc::CcAlgo::kBbrV1;
  bool cookie_sync_enabled = true;
  /// Seed the congestion controller's converged state from a fresh cookie
  /// (skip BBR startup).  Off by default: cookies under-estimate
  /// app-limited paths, and without startup the session stays pinned at
  /// the remembered rate (see bench/abl_resume).
  bool careful_resume = false;
  crypto::Key master_key{};         ///< cookie-sealing master secret
  uint64_t expected_od_key = 0;     ///< cookie binding check (§VII)
  /// Group-average QoS for Scheme::kUserGroup (what a per-UG model would
  /// predict for this client); ignored by the other schemes.
  std::optional<core::HxQosRecord> ug_qos;
  quic::ConnectionId conn_id = 1;
  /// Origin-fetch latency: the gap between the client request reaching the
  /// proxy and stream bytes arriving from the origin.  Non-zero values
  /// exercise corner case 1 (FF_Size parsed after the first bytes ship).
  TimeNs origin_latency = milliseconds(5);
  /// Proxy<->origin throughput; staggers join-burst chunk arrivals.
  Bandwidth origin_bandwidth = mbps(200);
  /// Stop producing live frames after this stream-time horizon.
  TimeNs stream_horizon = seconds(12);
  /// Loop time at which the live stream's pts 0 went on air.  The
  /// simulator's loop starts at 0 together with the stream; a real-time
  /// edge, whose loop clock is CLOCK_MONOTONIC, sets its own start time
  /// here, so which GOP a viewer joins follows when it joined rather than
  /// the host's uptime.
  TimeNs stream_epoch = 0;
  /// Testbed override: fixed init_cwnd/init_pacing instead of the Table-I
  /// scheme computation (used by the Fig. 2 parameter sweeps).
  struct ManualInit {
    uint64_t init_cwnd = 0;
    Bandwidth init_pacing = 0;
  };
  std::optional<ManualInit> manual_init;
};

class WiraServer {
 public:
  using SendFn = quic::Connection::SendDatagramFn;

  WiraServer(sim::EventLoop& loop, const media::LiveStream& stream,
             ServerConfig config, SendFn send);
  /// Cancels every origin delivery, tail re-arm and cookie-sync event the
  /// server still has queued, so a server may be destroyed while its loop
  /// keeps running.  The connection's own timers are cancelled when it
  /// closes; destroy a server with a live connection only when its loop
  /// will not run again.
  ~WiraServer();
  WiraServer(const WiraServer&) = delete;
  WiraServer& operator=(const WiraServer&) = delete;

  void on_datagram(std::span<const uint8_t> data) {
    conn_.on_datagram(data);
  }

  quic::Connection& connection() { return conn_; }
  const quic::Connection& connection() const { return conn_; }
  /// Datagrams the server dropped as unparseable (see ConnStats).
  uint64_t packets_undecodable() const {
    return conn_.stats().packets_undecodable;
  }
  const core::FrameParser& parser() const { return parser_; }
  const core::InitDecision& last_init() const { return last_init_; }
  /// The Hx_QoS record recovered from the client's cookie (if any).
  const std::optional<core::HxQosRecord>& received_cookie() const {
    return received_cookie_;
  }
  /// Number of Hx_QoS sync packets sent so far.
  uint64_t cookies_synced() const { return cookies_synced_; }
  /// Server config id clients must cache for 0-RTT.
  const std::vector<uint8_t>& server_config_id() const { return scid_; }

  /// Attaches an event tracer to the transport connection *and* the
  /// server's application-level markers (request_received, origin_byte,
  /// ff_parsed, cookie and corner-case events).  nullptr detaches; the
  /// tracer must outlive the server's activity.
  void set_tracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    conn_.set_tracer(tracer);
  }
  /// Times the send controller was initialized while FF_Size was still
  /// unparsed (corner case 1: init_cwnd_exp substituted).
  uint32_t ff_fallback_inits() const { return ff_fallback_inits_; }

 private:
  void on_handshake_message(const quic::HandshakeMessage& msg);
  void on_request(std::span<const uint8_t> data);
  void apply_init();                 ///< (re)compute Table-I parameters
  void start_streaming();
  void deliver_from_origin(media::StreamChunk chunk);

  /// Origin-fetch scratch: join_chunks/chunks_between rebuild into this
  /// vector (capacity retained) before the chunks move into their
  /// delivery events.
  std::vector<media::StreamChunk> chunk_scratch_;
  void schedule_live_tail(TimeNs from_pts);
  void sync_cookie();
  /// Schedules an origin delivery (or the tail re-arm) and keeps its id
  /// for the destructor.
  void schedule_tracked(TimeNs when, sim::EventLoop::EventFn fn) {
    events_.push_back(loop_.schedule_at(when, std::move(fn)));
  }

  sim::EventLoop& loop_;
  const media::LiveStream& stream_;
  ServerConfig config_;
  quic::Connection conn_;
  core::FrameParser parser_;
  core::CookieSealer sealer_;

  std::optional<core::HxQosRecord> received_cookie_;
  bool client_supports_sync_ = false;  ///< HQST Bool from the CHLO
  core::InitDecision last_init_;
  std::optional<uint64_t> parsed_ff_size_;
  bool streaming_ = false;
  TimeNs join_time_ = 0;  ///< stream pts at the join
  Bandwidth session_max_bw_ = 0;   ///< running max of cc bandwidth estimate
  uint64_t cookies_synced_ = 0;
  uint32_t ff_fallback_inits_ = 0;
  bool first_byte_sent_ = false;
  std::vector<uint8_t> scid_ = {0x57, 0x49, 0x52, 0x41};  // "WIRA"
  /// Queued origin deliveries and the tail re-arm; ids of events that
  /// already ran are trimmed at each re-arm (capacity retained).
  std::vector<sim::EventId> events_;
  std::optional<sim::EventId> sync_timer_;

  trace::Tracer* tracer_ = nullptr;
  void trace(trace::EventType type, uint64_t a = 0, uint64_t b = 0,
             std::string detail = {}) {
    if (tracer_) tracer_->record(loop_.now(), type, a, b, std::move(detail));
  }
};

}  // namespace wira::app
