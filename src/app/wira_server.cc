#include "app/wira_server.h"

#include <algorithm>
#include <string_view>

#include "util/logging.h"

namespace wira::app {

WiraServer::WiraServer(sim::EventLoop& loop, const media::LiveStream& stream,
                       ServerConfig config, SendFn send)
    : loop_(loop),
      stream_(stream),
      config_(config),
      conn_(loop,
            quic::ConnectionConfig{.is_server = true,
                                   .conn_id = config.conn_id,
                                   .cc_algo = config.cc_algo},
            std::move(send)),
      parser_(core::FrameParser::Config{.theta_vf = config.theta_vf}),
      sealer_(config.master_key) {
  conn_.set_server_options(quic::Connection::ServerOptions{scid_});
  conn_.set_on_handshake_message(
      [this](const quic::HandshakeMessage& msg) { on_handshake_message(msg); });
  conn_.set_on_stream_data(
      [this](quic::StreamId id, std::span<const uint8_t> data, bool) {
        if (id == quic::kRequestStream) on_request(data);
      });
}

WiraServer::~WiraServer() {
  for (const sim::EventId id : events_) loop_.cancel(id);
  if (sync_timer_) loop_.cancel(*sync_timer_);
}

void WiraServer::on_handshake_message(const quic::HandshakeMessage& msg) {
  if (msg.msg_tag != quic::kTagCHLO) return;
  // Extract the Wira HQST tag (parse_hs_data analogue, §V): the sealed
  // cookie can only be opened — and is only trusted — by this server.
  if (msg.has(quic::kTagHQST)) {
    auto hqst = quic::parse_hqst(msg.get(quic::kTagHQST));
    if (hqst) client_supports_sync_ = hqst->supports_sync;
    if (hqst && hqst->supports_sync && !hqst->sealed_cookie.empty()) {
      auto record = sealer_.open(hqst->sealed_cookie);
      if (record && record->valid() &&
          (config_.expected_od_key == 0 ||
           record->od_key == config_.expected_od_key)) {
        received_cookie_ = *record;
        trace(trace::EventType::kCookieEvent, 0, 0, "opened");
      } else {
        // Tampered / mistargeted cookies fail AEAD or the OD check and are
        // dropped: fail-closed to baseline behaviour (§VII).
        trace(trace::EventType::kCookieEvent, 0, 0, "rejected");
      }
    }
  }
  // Initialize the send controller before any response byte is written.
  apply_init();
}

void WiraServer::apply_init() {
  if (config_.manual_init) {
    last_init_ = core::InitDecision{};
    last_init_.init_cwnd = config_.manual_init->init_cwnd;
    last_init_.init_pacing = config_.manual_init->init_pacing;
    conn_.set_initial_parameters(last_init_.init_cwnd,
                                 last_init_.init_pacing);
    return;
  }
  core::InitInputs in;
  in.ff_size = parsed_ff_size_;
  in.hx_qos = received_cookie_;
  in.ug_qos = config_.ug_qos;
  in.now = loop_.now();
  in.staleness_threshold = config_.staleness_threshold;

  core::ExperiencedDefaults defaults = config_.defaults;
  // 1-RTT connections measured the path RTT during the REJ/CHLO exchange;
  // the paper substitutes it for the configured initial RTT (§VI).
  const TimeNs hs_rtt = conn_.stats().handshake_rtt;
  if (hs_rtt != kNoTime) {
    defaults.init_rtt_exp = hs_rtt;
    if (in.hx_qos) in.hx_qos->min_rtt = hs_rtt;
  }

  last_init_ = core::compute_init(config_.scheme, in, defaults);

  // Corner-case accounting.  The FF fallback is the expected path for
  // FF-consuming schemes on the handshake-time init (FLV header/script/
  // audio tags precede the I frame, so parse completes only mid-burst);
  // the counter tracks how often the substitution window was entered at
  // all, and the phase.ff_parse histogram tracks how long it stayed open.
  if (last_init_.ff_pending) {
    ff_fallback_inits_++;
    trace(trace::EventType::kCornerCase, last_init_.init_cwnd, 0,
          "cwnd_before_parse");
    WIRA_WARN("wira_server",
              "init before FF_Size parse: substituting init_cwnd_exp");
  }
  if (last_init_.hx_stale) {
    trace(trace::EventType::kCornerCase, 0, 0, "stale_cookie");
    WIRA_WARN("wira_server", "Hx_QoS cookie stale: falling back to "
                             "FF_Size-derived init (corner case 2)");
  }

  if (config_.careful_resume && last_init_.used_hx_qos && in.hx_qos) {
    conn_.congestion().resume_from_history(in.hx_qos->max_bw,
                                           in.hx_qos->min_rtt);
  }

  // The decision is payload-denominated (FF_Size counts FLV bytes); the
  // transport accounts packet headers and UDP/IP framing against the
  // window.  Translate so that "init_cwnd adapted to FF_Size" admits the
  // whole first frame including its packetization overhead.
  const uint64_t packets =
      last_init_.init_cwnd / quic::kMaxPacketPayload + 1;
  const uint64_t wire_cwnd =
      last_init_.init_cwnd +
      packets * (quic::kPacketHeaderSize + quic::kPacketOverhead + 15);
  conn_.set_initial_parameters(wire_cwnd, last_init_.init_pacing);
}

void WiraServer::on_request(std::span<const uint8_t> data) {
  const std::string_view req(reinterpret_cast<const char*>(data.data()),
                             data.size());
  if (streaming_ || req.find("PLAY") == std::string_view::npos) return;
  streaming_ = true;
  trace(trace::EventType::kRequestReceived, data.size());
  start_streaming();
}

void WiraServer::start_streaming() {
  join_time_ = loop_.now() - config_.stream_epoch;

  // Join burst: fetched from the origin with fetch latency + origin-link
  // serialization, so early tags (header/script/audio) can reach L4 before
  // the I frame — the paper's corner case 1.
  TimeNs arrival = loop_.now() + config_.origin_latency;
  stream_.join_chunks(join_time_, chunk_scratch_, &loop_.buffers());
  for (media::StreamChunk& chunk : chunk_scratch_) {
    arrival += transfer_time(chunk.bytes.size(), config_.origin_bandwidth);
    schedule_tracked(arrival, [this, c = std::move(chunk)]() mutable {
      deliver_from_origin(std::move(c));
    });
  }
  schedule_live_tail(join_time_);

  // Periodic Hx_QoS synchronization only when the client declared support
  // in its CHLO (HQST Bool = 1, §IV-B).
  if (config_.cookie_sync_enabled && client_supports_sync_) {
    sync_timer_ =
        loop_.schedule_in(config_.sync_period, [this] { sync_cookie(); });
  }
}

void WiraServer::deliver_from_origin(media::StreamChunk chunk) {
  if (conn_.closed()) return;
  if (!first_byte_sent_ && !chunk.bytes.empty()) {
    first_byte_sent_ = true;
    trace(trace::EventType::kOriginByte, chunk.bytes.size());
  }
  // Frame Perception: the parser observes bytes on their way to the send
  // module; when FF_Size completes, re-initialize (corner case 1 ends).
  if (auto ff = parser_.feed(chunk.bytes)) {
    parsed_ff_size_ = *ff;
    trace(trace::EventType::kFfParsed, *ff, parser_.bytes_seen());
    apply_init();
  }
  conn_.write_stream(quic::kResponseStream, chunk.bytes);
  // The bytes were copied into the send stream; the buffer goes back to
  // the loop pool the muxer drew it from.
  loop_.buffers().release(std::move(chunk.bytes));
}

void WiraServer::schedule_live_tail(TimeNs from_pts) {
  // Pull the next second of frames, deliver each at pts + origin latency,
  // then re-arm.  Stops at the configured horizon, or once the viewer's
  // connection has closed: nothing muxed after that could be sent.
  const TimeNs until = std::min<TimeNs>(from_pts + seconds(1),
                                        join_time_ + config_.stream_horizon);
  if (from_pts >= until || conn_.closed()) return;
  std::erase_if(events_,
                [this](sim::EventId id) { return !loop_.scheduled(id); });
  stream_.chunks_between(from_pts, until, chunk_scratch_, &loop_.buffers());
  for (media::StreamChunk& chunk : chunk_scratch_) {
    const TimeNs at =
        config_.stream_epoch + chunk.pts + config_.origin_latency;
    schedule_tracked(at, [this, c = std::move(chunk)]() mutable {
      deliver_from_origin(std::move(c));
    });
  }
  schedule_tracked(config_.stream_epoch + until,
                   [this, until] { schedule_live_tail(until); });
}

void WiraServer::sync_cookie() {
  if (conn_.closed()) return;
  session_max_bw_ =
      std::max(session_max_bw_, conn_.congestion().bandwidth_estimate());
  const TimeNs min_rtt = conn_.rtt().min();
  if (min_rtt != kNoTime && session_max_bw_ > 0) {
    core::HxQosRecord record;
    record.min_rtt = min_rtt;
    record.max_bw = session_max_bw_;
    record.server_timestamp = loop_.now();
    record.od_key = config_.expected_od_key;
    const auto& st = conn_.stats();
    if (st.data_packets_sent > 0) {
      record.loss_rate = static_cast<double>(st.packets_lost) /
                         static_cast<double>(st.data_packets_sent);
    }
    // The frame borrows `blob`; send_hxqos serializes synchronously.
    const std::vector<uint8_t> blob = sealer_.seal(record);
    quic::HxQosFrame frame;
    frame.server_time_ms = static_cast<uint64_t>(to_ms(loop_.now()));
    frame.sealed_blob = blob;
    conn_.send_hxqos(frame);
    cookies_synced_++;
    trace(trace::EventType::kCookieEvent, frame.sealed_blob.size(), 0,
          "sealed");
  }
  sync_timer_ =
      loop_.schedule_in(config_.sync_period, [this] { sync_cookie(); });
}

}  // namespace wira::app
