// wb_layers: the traced pass.  Per-layer costs measured from outside the
// program: spans around the layer boundaries of the traced session wiring
// (traced_session.h), and replays of the workload's own inputs through
// the public API of the layers no boundary reaches.  The edge's process
// counters and joined sqlog phases are added by run.py.
//
//   wb_layers --workload sim_population --seed 1 --seconds 20
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "app/wira_server.h"
#include "bench_util.h"
#include "cc/congestion_controller.h"
#include "core/frame_parser.h"
#include "core/transport_cookie.h"
#include "exp/record_codec.h"
#include "media/stream_source.h"
#include "net/udp_socket.h"
#include "obs/flight_recorder.h"
#include "popgen/population.h"
#include "quic/packet.h"
#include "traced_session.h"
#include "util/alloc_stats.h"
#include "util/rng.h"

namespace {

using namespace wira;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

/// Mean ns per call of `fn` over `n` items, repeated until at least
/// 20 ms of work was timed.
template <typename Fn>
double ns_per(size_t n, Fn&& fn) {
  if (n == 0) return 0;
  uint64_t total = 0, calls = 0;
  while (total < 20'000'000) {
    const uint64_t a = now_ns();
    for (size_t i = 0; i < n; ++i) fn(i);
    total += now_ns() - a;
    calls += n;
  }
  return static_cast<double>(total) / static_cast<double>(calls);
}

/// Session inputs of the workload: population draws for the simulator
/// workloads, loopback draws (as wb_edge makes them) for the edge.
std::vector<exp::SessionConfig> workload_sessions(const std::string& w,
                                                  uint64_t seed, size_t n,
                                                  obs::FlightRecorder* rec) {
  std::vector<exp::SessionConfig> out;
  if (w == "sim_population" || w == "sim_fleet") {
    // The stretch of sessions the untraced run sweeps first (wb_sim).
    exp::PopulationConfig c;
    c.seed = w == "sim_fleet" ? seed + 1 : 1;
    const size_t first = w == "sim_fleet" ? 0 : 1 + (seed % 1000) * 10;
    popgen::Population pop(c.seed * 31 + 7, c.num_groups);
    for (size_t i = first; out.size() < n; ++i) {
      const wb::DrawnSession d = wb::draw_population_session(c, pop, i);
      for (core::Scheme s : wb::table1_schemes()) {
        exp::SessionConfig cfg = d.base;
        cfg.scheme = s;
        // Phases on for both: the population pass needs the phase split
        // too, and the phase tracer only adds a buffered copy per event.
        cfg.collect_phases = true;
        if (w == "sim_population") cfg.recorder = rec;
        out.push_back(cfg);
      }
    }
    return out;
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  for (size_t i = 0; i < n; ++i) {
    const bool zero_rtt = rng.chance(0.90);
    const bool cookie = rng.chance(0.93);
    rng.uniform();  // the arrival jitter draw
    const core::Scheme s = w == "edge_steady"
                               ? core::Scheme::kWira
                               : wb::table1_schemes()[i % 4];
    exp::SessionConfig cfg =
        wb::loopback_session(s, i + 1, zero_rtt, cookie, milliseconds(5));
    cfg.collect_phases = true;
    out.push_back(cfg);
  }
  return out;
}

/// CC replay: the server's sends and the ACKs it received, rebuilt from
/// the captured datagrams and fed to a fresh BBRv1 controller.
struct CcReplay {
  struct Step {
    bool ack = false;
    cc::CongestionEvent event;
    uint64_t pn = 0, bytes = 0;
    int64_t t = 0;
  };
  std::vector<Step> steps;
};

CcReplay build_cc_replay(const wb::Capture& cap) {
  CcReplay r;
  std::map<uint64_t, std::pair<int64_t, uint64_t>> outstanding;
  TimeNs min_rtt = kNoTime;
  for (const wb::CapturedDgram& d : cap.datagrams) {
    const auto p = quic::parse_packet(d.bytes);
    if (!p) continue;
    if (d.to_client) {
      if (!p->retransmittable()) continue;
      outstanding[p->packet_number] = {d.t, d.bytes.size()};
      CcReplay::Step s;
      s.pn = p->packet_number;
      s.bytes = d.bytes.size();
      s.t = d.t;
      r.steps.push_back(std::move(s));
      continue;
    }
    for (const quic::Frame& f : p->frames) {
      const auto* ack = std::get_if<quic::AckFrame>(&f);
      if (!ack) continue;
      CcReplay::Step s;
      s.ack = true;
      s.event.now = d.t;
      uint64_t largest_bytes = 0;
      for (auto it = outstanding.begin(); it != outstanding.end();) {
        if (ack->covers(it->first)) {
          s.event.acked.push_back({it->first, it->second.second,
                                   it->second.first});
          s.event.latest_rtt = d.t - it->second.first;
          largest_bytes += it->second.second;
          it = outstanding.erase(it);
        } else if (it->first + 3 <= ack->largest_acked) {
          s.event.lost.push_back({it->first, it->second.second});
          it = outstanding.erase(it);
        } else {
          ++it;
        }
      }
      if (s.event.acked.empty() && s.event.lost.empty()) continue;
      if (s.event.latest_rtt != kNoTime &&
          (min_rtt == kNoTime || s.event.latest_rtt < min_rtt)) {
        min_rtt = s.event.latest_rtt;
      }
      s.event.min_rtt = min_rtt;
      s.event.smoothed_rtt = min_rtt;
      s.event.bandwidth_sample =
          s.event.latest_rtt > 0
              ? delivery_rate(largest_bytes, s.event.latest_rtt)
              : 0;
      r.steps.push_back(std::move(s));
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (!std::strcmp(argv[i], "--workload")) workload = argv[i + 1];
    else if (!std::strcmp(argv[i], "--seed"))
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    else if (!std::strcmp(argv[i], "--seconds"))
      seconds = std::strtod(argv[i + 1], nullptr);
  }
  if (workload.empty()) {
    std::fprintf(stderr, "usage: wb_layers --workload W --seed N "
                         "--seconds S\n");
    return 2;
  }
  const bool sim = workload == "sim_population" || workload == "sim_fleet";
  std::vector<std::string> failures;
  wb::Metrics m;

  // ---- traced sessions: spans at the sim/app boundaries ----
  // 1200 scheme runs leave twelve samples beyond the traced FFCT p99.
  obs::FlightRecorder recorder;
  const std::vector<exp::SessionConfig> configs =
      workload_sessions(workload, seed, 1200, &recorder);
  wb::LayerTally tally;
  std::vector<wb::Capture> captures;
  std::vector<exp::SessionResult> results;
  std::vector<std::vector<double>> phase_ms(obs::kNumPhases);
  const uint64_t rss0 = wb::peak_rss_kb();
  const uint64_t allocs0 = util::heap_alloc_count();
  const int64_t budget = static_cast<int64_t>(seconds * 0.5e9);
  const int64_t t0 = wb::mono_ns();
  for (size_t i = 0; i < configs.size() && wb::mono_ns() - t0 < budget; ++i) {
    wb::Capture cap;
    const bool keep = captures.size() < 24;
    results.push_back(wb::run_traced(configs[i], tally, keep ? &cap : nullptr));
    if (keep) captures.push_back(std::move(cap));
    const auto& ph = results.back().phases;
    for (size_t p = 0; p < ph.size() && p < obs::kNumPhases; ++p) {
      phase_ms[p].push_back(to_ms(ph[p].duration()));
    }
  }
  const double traced_s = static_cast<double>(wb::mono_ns() - t0) * 1e-9;
  const double sessions = static_cast<double>(tally.sessions);
  const double allocs =
      static_cast<double>(util::heap_alloc_count() - allocs0) / sessions;
  // Traced wiring equals the program's own, for a sample.
  for (size_t i = 0; i < results.size() && i < 8; ++i) {
    exp::SessionConfig cfg = configs[i];
    const std::string why =
        wb::check_same_outcome(exp::run_session(cfg), results[i]);
    if (!why.empty()) failures.push_back(why);
  }

  // FF_Size against LiveStream ground truth.  A mismatch passes only when
  // the program's own delivery order explains it (a live-tail tag landed
  // inside the join burst, see bench_util.h); its share is reported.
  // A run that never completed its first frame must be explained by the
  // header overtaking fault; its share is reported.
  double ff_interleaved_share = 0, stuck_share = 0;
  {
    size_t checked = 0, interleaved = 0, stuck = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const exp::SessionResult& r = results[i];
      const exp::SessionConfig& cfg = configs[i];
      const media::LiveStream stream(cfg.stream, cfg.corpus_seed);
      if (!r.first_frame_completed) {
        const std::string why = wb::check_incomplete(cfg, stream);
        if (!why.empty()) failures.push_back(why);
        ++stuck;
        continue;
      }
      if (r.phases.empty()) continue;
      const wb::FfVerdict v =
          wb::check_ff_size(stream, r.phases.front().end, cfg.origin_latency,
                            cfg.theta_vf, r.ff_size);
      if (!v.failure.empty()) failures.push_back(v.failure);
      ++checked;
      if (v.tail_interleaved) ++interleaved;
    }
    if (checked > 0) {
      ff_interleaved_share = static_cast<double>(interleaved) /
                             static_cast<double>(checked);
    }
    if (!results.empty()) {
      stuck_share = static_cast<double>(stuck) /
                    static_cast<double>(results.size());
    }
  }

  m.add("sim.events_per_session", tally.loop_events / sessions, "events");
  m.add("sim.loop_self_us_per_session",
        static_cast<double>(tally.loop_self_ns()) * 1e-3 / sessions, "us");
  m.add("sim.link_send_ns",
        static_cast<double>(tally.link_send_ns) / tally.link_sends, "ns");
  m.add("sim.link_drops_per_session", tally.link_drops / sessions, "dgrams");
  m.add("quic.dgrams_per_session", tally.link_sends / sessions, "dgrams");

  // ---- QUIC codec replay (and the round-trip check) ----
  std::vector<const std::vector<uint8_t>*> dgrams;
  for (const wb::Capture& c : captures) {
    for (const wb::CapturedDgram& d : c.datagrams) dgrams.push_back(&d.bytes);
  }
  std::vector<quic::Packet> parsed;
  for (const auto* d : dgrams) {
    const std::string why = wb::check_roundtrip(*d);
    if (!why.empty()) failures.push_back(why);
    if (auto p = quic::parse_packet(*d)) parsed.push_back(std::move(*p));
  }
  m.add("quic.parse_ns", ns_per(dgrams.size(), [&](size_t i) {
          auto p = quic::parse_packet(*dgrams[i]);
          if (!p) std::abort();
        }), "ns");
  m.add("quic.serialize_ns", ns_per(parsed.size(), [&](size_t i) {
          if (quic::serialize_packet(parsed[i]).empty()) std::abort();
        }), "ns");
  m.add("quic.retx_ratio",
        tally.stream_bytes ? static_cast<double>(tally.retx_bytes) /
                                 static_cast<double>(tally.stream_bytes)
                           : 0.0,
        "ratio");

  m.add("app.server_rx_self_ns",
        static_cast<double>(tally.server_rx_ns) / tally.server_rx, "ns");
  m.add("app.client_rx_self_ns",
        static_cast<double>(tally.client_rx_ns) / tally.client_rx, "ns");
  {
    // Session bring-up: the LiveStream and WiraServer a proxy builds for
    // each new viewer.
    sim::EventLoop loop;
    const size_t n = std::min<size_t>(configs.size(), 64);
    m.add("app.bringup_us", ns_per(n, [&](size_t i) {
            media::LiveStream stream(configs[i].stream,
                                     configs[i].corpus_seed);
            app::ServerConfig sc;
            sc.scheme = configs[i].scheme;
            app::WiraServer server(loop, stream, sc,
                                   [](std::vector<uint8_t>) {});
            if (server.cookies_synced() != 0) std::abort();
          }) * 1e-3, "us");
  }

  // ---- CC replay ----
  {
    std::vector<CcReplay> replays;
    size_t events = 0;
    for (const wb::Capture& c : captures) {
      replays.push_back(build_cc_replay(c));
      for (const auto& s : replays.back().steps) events += s.ack ? 1 : 0;
    }
    uint64_t total = 0, calls = 0;
    while (total < 20'000'000 && events > 0) {
      for (const CcReplay& r : replays) {
        auto ctl = cc::make_controller(cc::CcAlgo::kBbrV1);
        uint64_t inflight = 0;
        const uint64_t a = now_ns();
        for (const CcReplay::Step& s : r.steps) {
          if (s.ack) {
            ctl->on_congestion_event(s.event);
            for (const auto& p : s.event.acked) inflight -= std::min(inflight, p.bytes);
            for (const auto& p : s.event.lost) inflight -= std::min(inflight, p.bytes);
          } else {
            inflight += s.bytes;
            ctl->on_packet_sent(s.t, s.pn, s.bytes, inflight, true);
          }
          ++calls;
        }
        total += now_ns() - a;
      }
    }
    m.add("cc.events_per_session",
          static_cast<double>(events) / static_cast<double>(captures.size()),
          "events");
    m.add("cc.event_ns", calls ? static_cast<double>(total) / calls : 0.0,
          "ns");
  }

  // ---- media mux and Frame Perception replays ----
  {
    const size_t n = std::min<size_t>(configs.size(), 32);
    std::vector<media::LiveStream> streams;
    for (size_t i = 0; i < n; ++i) {
      streams.emplace_back(configs[i].stream, configs[i].corpus_seed);
    }
    std::vector<media::StreamChunk> out;
    uint64_t bytes = 0, t_mux = 0, t_parse = 0, parse_bytes = 0;
    while (t_mux < 20'000'000) {
      for (size_t i = 0; i < n; ++i) {
        const TimeNs join = configs[i].start_time;
        uint64_t a = now_ns();
        streams[i].join_chunks(join, out, nullptr);
        uint64_t b = 0;
        for (const auto& c : out) b += c.bytes.size();
        std::vector<media::StreamChunk> burst = out;
        streams[i].chunks_between(join, join + wira::seconds(1), out, nullptr);
        for (const auto& c : out) b += c.bytes.size();
        t_mux += now_ns() - a;
        bytes += b;
        core::FrameParser parser(
            core::FrameParser::Config{.theta_vf = configs[i].theta_vf});
        a = now_ns();
        for (const auto& c : burst) {
          parse_bytes += c.bytes.size();
          if (parser.feed(c.bytes)) break;
        }
        t_parse += now_ns() - a;
      }
    }
    m.add("media.mux_ns_per_kb", t_mux * 1024.0 / bytes, "ns/KB");
    m.add("core.ffparse_ns_per_kb", t_parse * 1024.0 / parse_bytes, "ns/KB");
  }

  // ---- transport cookie ----
  {
    core::CookieSealer sealer(crypto::key_from_string("wira-server-7"));
    std::vector<core::HxQosRecord> recs;
    for (const auto& c : configs) {
      core::HxQosRecord r;
      r.min_rtt = c.cookie ? c.cookie->min_rtt : milliseconds(40);
      r.max_bw = c.cookie ? c.cookie->max_bw : mbps(10);
      r.server_timestamp = c.start_time;
      recs.push_back(r);
      if (recs.size() == 64) break;
    }
    std::vector<std::vector<uint8_t>> sealed;
    for (const auto& r : recs) sealed.push_back(sealer.seal(r));
    m.add("crypto.cookie_seal_ns", ns_per(recs.size(), [&](size_t i) {
            if (sealer.seal(recs[i]).empty()) std::abort();
          }), "ns");
    m.add("crypto.cookie_open_ns", ns_per(sealed.size(), [&](size_t i) {
            if (!sealer.open(sealed[i])) std::abort();
          }), "ns");
  }

  // ---- tracer and flight recorder ----
  m.add("app.ff_size_interleaved_share", ff_interleaved_share, "ratio");
  m.add("app.stuck_share", stuck_share, "ratio");
  m.add("trace.events_per_session", tally.trace_events / sessions, "events");
  {
    // Recorder cost per event: timed at the tap on the population pass,
    // else replayed from a buffered session trace.
    double ns = tally.trace_events && tally.recorder_ns
                    ? static_cast<double>(tally.recorder_ns) /
                          static_cast<double>(tally.trace_events)
                    : 0.0;
    if (ns == 0.0) {
      trace::Tracer tr;
      exp::SessionConfig cfg = configs.front();
      cfg.tracer = &tr;
      exp::run_session(cfg);
      const auto& ev = tr.events();
      ns = ns_per(ev.size(), [&](size_t i) {
        if (i == 0) recorder.reset();
        recorder.server().on_event(ev[i]);
      });
    }
    m.add("obs.recorder_ns_per_event", ns, "ns");
  }

  m.add("util.allocs_per_session", allocs, "allocs");
  m.add("util.arena_bytes_per_session", tally.arena_bytes / sessions,
        "bytes");

  // ---- session-record codec and the dispatcher's CPU split ----
  {
    exp::PopulationConfig c;
    c.seed = seed;
    c.sessions = 24;
    c.processes = sim ? 2 : 1;
    c.chunk = 4;
    c.collect_metrics = workload == "sim_fleet";
    const int64_t self0 = wb::cpu_ns(false), all0 = wb::cpu_ns(true);
    const std::vector<exp::SessionRecord> recs = exp::run_population(c);
    const int64_t self1 = wb::cpu_ns(false), all1 = wb::cpu_ns(true);
    const int64_t kids = std::max<int64_t>(0, (all1 - all0) - (self1 - self0));
    std::vector<std::vector<uint8_t>> enc;
    double bytes = 0;
    for (const auto& r : recs) {
      enc.push_back(wb::encode_record(r));
      bytes += static_cast<double>(enc.back().size());
    }
    m.add("exp.record_bytes", bytes / static_cast<double>(recs.size()),
          "bytes");
    m.add("exp.encode_ns", ns_per(recs.size(), [&](size_t i) {
            if (wb::encode_record(recs[i]).empty()) std::abort();
          }), "ns");
    m.add("exp.decode_ns", ns_per(enc.size(), [&](size_t i) {
            exp::CodecReader rd(enc[i]);
            exp::SessionRecord out;
            if (!exp::decode_session_record(rd, &out)) std::abort();
          }), "ns");
    m.add("exp.parent_cpu_ms_per_session",
          static_cast<double>(self1 - self0) * 1e-6 / c.sessions, "ms");
    m.add("exp.children_cpu_ms_per_session",
          static_cast<double>(kids) * 1e-6 / c.sessions, "ms");
  }

  // ---- net: captured datagrams replayed through net::UdpSocket ----
  {
    net::UdpSocket rx, tx;
    std::string err;
    double send_ns = 0, recv_ns = 0;
    if (rx.open_bound("127.0.0.1", 0, 8 << 20, &err) &&
        tx.open_connected("127.0.0.1", rx.local_port(), &err)) {
      rusage ru0{}, ru1{};
      getrusage(RUSAGE_SELF, &ru0);
      uint64_t ts = 0, tr = 0, n = 0;
      uint8_t buf[65536];
      for (int round = 0; round < 4; ++round) {
        for (size_t i = 0; i < dgrams.size(); i += 64) {
          const size_t end = std::min(dgrams.size(), i + 64);
          uint64_t a = now_ns();
          for (size_t j = i; j < end; ++j) tx.send(*dgrams[j]);
          ts += now_ns() - a;
          a = now_ns();
          for (size_t j = i; j < end; ++j) {
            if (rx.recv_from(buf, sizeof buf, nullptr) < 0) break;
          }
          tr += now_ns() - a;
          n += end - i;
        }
      }
      getrusage(RUSAGE_SELF, &ru1);
      send_ns = static_cast<double>(ts) / n;
      recv_ns = static_cast<double>(tr) / n;
      auto us = [](const timeval& a, const timeval& b) {
        return (b.tv_sec - a.tv_sec) * 1e6 + (b.tv_usec - a.tv_usec);
      };
      const double user = us(ru0.ru_utime, ru1.ru_utime);
      const double sys = us(ru0.ru_stime, ru1.ru_stime);
      if (sim) {
        // The simulator touches no socket: these describe the replay.
        m.add("net.dgrams_per_session", tally.link_sends / sessions, "dgrams");
        m.add("net.cpu_us_per_dgram", (user + sys) / (2.0 * n), "us");
        m.add("net.sys_share", user + sys > 0 ? sys / (user + sys) : 0.0,
              "ratio");
        m.add("net.wakeups_per_dgram",
              static_cast<double>(ru1.ru_nvcsw - ru0.ru_nvcsw) / n, "count");
      }
    } else {
      failures.push_back("loopback socket replay: " + err);
    }
    m.add("net.send_ns", send_ns, "ns");
    m.add("net.recv_ns", recv_ns, "ns");
    if (sim) {
      m.add("net.rss_kb_per_session",
            static_cast<double>(wb::peak_rss_kb() - rss0) / sessions, "KB");
    }
  }

  for (size_t p = 0; sim && p < obs::kNumPhases; ++p) {
    m.add(std::string("obs.phase.") + obs::kPhaseNames[p] + "_p50_ms",
          wb::percentile(phase_ms[p], 0.5), "ms");
  }

  std::map<std::string, double> extras = {
      {"traced_sessions", sessions},
      {"traced_scheme_sessions_per_s", sessions / traced_s},
      {"sim_ffct_p50_ms", 0.0},
      {"replayed_dgrams", static_cast<double>(dgrams.size())}};
  {
    std::vector<double> ffct;
    for (const auto& r : results) {
      if (r.first_frame_completed) ffct.push_back(to_ms(r.ffct));
    }
    extras["sim_ffct_p50_ms"] = wb::percentile(ffct, 0.5);
    // The FFCT tail, unbounded (README, "Bounds"); run.py puts the real
    // edge's own p99 in its place on edge_steady.
    if (sim) m.add("ffct_p99_ms", wb::percentile(ffct, 0.99), "ms");
  }
  std::printf("%s\n", wb::result_json(failures.empty(), tally.sessions, 0, m,
                                      failures, extras)
                          .c_str());
  return 0;
}
