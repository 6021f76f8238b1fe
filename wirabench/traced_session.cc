#include "traced_session.h"

#include <algorithm>
#include <chrono>

#include "app/player_client.h"
#include "app/wira_server.h"
#include "core/transport_cookie.h"
#include "media/stream_source.h"
#include "obs/phase_timeline.h"
#include "sim/path.h"
#include "trace/tracer.h"

namespace wb {

using namespace wira;

namespace {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

/// Times and counts each event on its way into a flight-recorder vantage.
class TimedTap final : public trace::EventSink {
 public:
  TimedTap(trace::EventSink& inner, LayerTally& t) : inner_(inner), t_(t) {}
  void on_event(const trace::Event& e) override {
    const uint64_t a = now_ns();
    inner_.on_event(e);
    t_.recorder_ns += now_ns() - a;
    t_.trace_events++;
  }

 private:
  trace::EventSink& inner_;
  LayerTally& t_;
};

}  // namespace

exp::SessionResult run_traced(const exp::SessionConfig& cfg, LayerTally& t,
                              Capture* capture) {
  sim::EventLoop loop;
  sim::Path path(loop, cfg.path, cfg.seed);
  media::LiveStream stream(cfg.stream, cfg.corpus_seed);
  trace::Tracer server_tracer;
  trace::Tracer client_tracer;

  const uint64_t server_id = 7;
  const uint64_t client_id = cfg.seed;
  const uint64_t od_key = core::od_pair_key(client_id, server_id, 0);
  const crypto::Key master_key = crypto::key_from_string("wira-server-7");

  app::ServerConfig server_cfg;
  server_cfg.scheme = cfg.scheme;
  server_cfg.defaults = cfg.defaults;
  server_cfg.theta_vf = cfg.theta_vf;
  server_cfg.sync_period = cfg.sync_period;
  server_cfg.staleness_threshold = cfg.staleness_threshold;
  server_cfg.cc_algo = cfg.cc_algo;
  server_cfg.cookie_sync_enabled = cfg.cookie_sync_enabled;
  server_cfg.careful_resume = cfg.careful_resume;
  server_cfg.master_key = master_key;
  server_cfg.expected_od_key = od_key;
  server_cfg.origin_latency = cfg.origin_latency;
  server_cfg.ug_qos = cfg.ug_qos;

  bool in_rx = false;
  auto send_on = [&](sim::Link& link, bool to_client,
                     std::vector<uint8_t> dgram) {
    if (capture) {
      capture->datagrams.push_back({loop.now(), to_client, dgram});
    }
    sim::Datagram d;
    d.size = dgram.size();
    d.payload = std::move(dgram);
    const uint64_t a = now_ns();
    link.send(std::move(d));
    const uint64_t dt = now_ns() - a;
    t.link_send_ns += dt;
    t.link_sends++;
    if (in_rx) t.rx_nested_send_ns += dt;
  };

  app::WiraServer server(loop, stream, server_cfg,
                         [&](std::vector<uint8_t> dgram) {
                           send_on(path.forward(), true, std::move(dgram));
                         });
  app::ClientCache cache;
  if (cfg.zero_rtt) cache.server_configs[server_id] = server.server_config_id();
  if (cfg.cookie) {
    core::HxQosRecord rec = *cfg.cookie;
    rec.od_key = od_key;
    core::CookieSealer sealer(master_key);
    cache.cookies.store(od_key, sealer.seal(rec),
                        rec.server_timestamp != kNoTime
                            ? rec.server_timestamp
                            : TimeNs{0});
  }
  app::ClientConfig client_cfg;
  client_cfg.client_id = client_id;
  client_cfg.server_id = server_id;
  client_cfg.network_type = 0;
  client_cfg.theta_vf = cfg.theta_vf;
  client_cfg.supports_cookie_sync = cfg.client_supports_cookie;
  client_cfg.track_frames = cfg.track_frames;
  client_cfg.container = cfg.stream.container;
  app::PlayerClient client(loop, client_cfg, cache,
                           [&](std::vector<uint8_t> dgram) {
                             send_on(path.reverse(), false, std::move(dgram));
                           });

  // on_datagram spans: self time excludes the Link::send calls nested in
  // them (the responses and ACKs a datagram triggers).
  auto rx = [&](auto& endpoint, std::span<const uint8_t> data, uint64_t& n,
                uint64_t& ns) {
    const uint64_t nested0 = t.rx_nested_send_ns;
    in_rx = true;
    const uint64_t a = now_ns();
    endpoint.on_datagram(data);
    const uint64_t dt = now_ns() - a;
    in_rx = false;
    ns += dt - (t.rx_nested_send_ns - nested0);
    n++;
  };
  path.forward().set_receiver([&](std::span<sim::Datagram> batch) {
    for (sim::Datagram& d : batch) {
      rx(client, d.payload, t.client_rx, t.client_rx_ns);
    }
  });
  path.reverse().set_receiver([&](std::span<sim::Datagram> batch) {
    for (sim::Datagram& d : batch) {
      rx(server, d.payload, t.server_rx, t.server_rx_ns);
    }
  });

  const bool server_traced = cfg.collect_phases || cfg.recorder;
  if (server_traced) server.set_tracer(&server_tracer);
  if (cfg.recorder) client.set_tracer(&client_tracer);
  std::optional<TimedTap> server_tap, client_tap;
  if (cfg.recorder) {
    cfg.recorder->reset();
    server_tap.emplace(cfg.recorder->server(), t);
    client_tap.emplace(cfg.recorder->client(), t);
    server_tracer.set_tap(&*server_tap, cfg.collect_phases);
    client_tracer.set_tap(&*client_tap, false);
  }

  loop.schedule_at(cfg.start_time, [&] { client.start(); });
  const TimeNs deadline = cfg.start_time + cfg.max_session_time;
  while (loop.now() < deadline) {
    const uint64_t a = now_ns();
    t.loop_events +=
        loop.run_until(std::min(loop.now() + milliseconds(100), deadline));
    t.loop_ns += now_ns() - a;
    if (client.metrics().frame_complete_at.size() >= cfg.track_frames &&
        loop.now() >= cfg.start_time + 2 * cfg.sync_period) {
      break;
    }
  }
  if (!cfg.recorder && server_traced) {
    t.trace_events += server_tracer.events().size();
  }

  exp::SessionResult r;
  const auto& m = client.metrics();
  r.zero_rtt = m.zero_rtt;
  r.first_frame_completed = m.first_frame_done();
  r.ffct = m.ffct();
  r.ff_size = server.parser().complete() ? server.parser().ff_size() : 0;
  r.init = server.last_init();
  r.server_stats = server.connection().stats();
  if (cfg.collect_phases) {
    obs::FfctBoundaries b = obs::boundaries_from_trace(server_tracer);
    b.request_sent = m.request_sent_at;
    b.first_byte_received = m.first_frame_byte_at != kNoTime
                                ? m.first_frame_byte_at
                                : m.first_byte_at;
    b.first_frame_complete =
        m.frame_complete_at.empty() ? kNoTime : m.frame_complete_at[0];
    r.phases = obs::ffct_phases(b);
  }
  r.arena_bytes = loop.arena().total_allocated();

  t.sessions++;
  t.link_drops += path.forward().stats().queue_drops +
                  path.forward().stats().wire_drops +
                  path.reverse().stats().queue_drops +
                  path.reverse().stats().wire_drops;
  t.arena_bytes += r.arena_bytes;
  t.retx_bytes += r.server_stats.stream_bytes_retransmitted;
  t.stream_bytes += r.server_stats.stream_bytes_sent;
  return r;
}

}  // namespace wb
