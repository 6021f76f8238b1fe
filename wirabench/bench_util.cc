#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "exp/record_codec.h"
#include "media/stream_source.h"
#include "popgen/population.h"
#include "quic/packet.h"
#include "trace/tracer.h"

namespace wb {

using namespace wira;

int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t cpu_ns(bool children) {
  auto ns = [](const rusage& ru) {
    return (static_cast<int64_t>(ru.ru_utime.tv_sec) +
            static_cast<int64_t>(ru.ru_stime.tv_sec)) *
               1'000'000'000 +
           (static_cast<int64_t>(ru.ru_utime.tv_usec) +
            static_cast<int64_t>(ru.ru_stime.tv_usec)) *
               1'000;
  };
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  int64_t total = ns(self);
  if (children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    total += ns(kids);
  }
  return total;
}

uint64_t peak_rss_kb(int pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

uint64_t children_peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const Metrics& m,
                        const std::vector<std::string>& failures,
                        const std::map<std::string, double>& extras) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < m.items.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << m.items[i].first << "\": {\"value\": "
       << num(m.items[i].second.first) << ", \"unit\": \""
       << m.items[i].second.second << "\"}";
  }
  os << "}, \"check_failures\": [";
  const size_t shown = std::min<size_t>(failures.size(), 20);
  for (size_t i = 0; i < shown; ++i) {
    if (i) os << ", ";
    os << "\"" << json_escape(failures[i]) << "\"";
  }
  os << "], \"check_failure_count\": " << failures.size() << ", \"extras\": {";
  bool first = true;
  for (const auto& [k, v] : extras) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << k << "\": " << num(v);
  }
  os << "}}";
  return os.str();
}

// ---- checks ----

namespace {

// Independent integer arithmetic for Table I: bytes * 1e9 / ns etc.
uint64_t rate_over(uint64_t bytes, int64_t rtt_ns) {
  if (rtt_ns <= 0) rtt_ns = 1'000'000;
  return static_cast<uint64_t>(static_cast<unsigned __int128>(bytes) *
                               1'000'000'000u / static_cast<uint64_t>(rtt_ns));
}
uint64_t bytes_in(uint64_t rate, int64_t ns) {
  return static_cast<uint64_t>(static_cast<unsigned __int128>(rate) *
                               static_cast<uint64_t>(ns) / 1'000'000'000u);
}

}  // namespace

std::string check_table1(const InitFacts& f, const core::InitDecision& got) {
  if (f.ff_size == 0) return "";  // corner case 1 never ended: no FF_Size
  const int64_t rtt_exp = f.handshake_rtt_ns >= 0
                              ? f.handshake_rtt_ns
                              : f.defaults.init_rtt_exp;
  bool hx = false;
  uint64_t max_bw = 0;
  int64_t min_rtt = 0;
  if (f.cookie && f.cookie->min_rtt >= 0 && f.cookie->max_bw > 0) {
    // The decision is taken up to a few seconds after the session start,
    // so a cookie aged within 10 s of Delta is a flagged corner case.
    if (std::llabs(f.cookie_age_ns - f.staleness_ns) < 10'000'000'000LL) {
      return "";
    }
    hx = f.cookie_age_ns <= f.staleness_ns;
    max_bw = f.cookie->max_bw;
    // The sealed cookie carries MinRTT in whole microseconds; a 1-RTT
    // handshake's measured RTT replaces it.
    min_rtt = f.handshake_rtt_ns >= 0 ? f.handshake_rtt_ns
                                      : f.cookie->min_rtt / 1000 * 1000;
  }
  const uint64_t exp_cwnd = f.defaults.init_cwnd_exp;
  uint64_t cwnd = 0;
  uint64_t pacing = 0;
  switch (f.scheme) {
    case core::Scheme::kBaseline:
      cwnd = exp_cwnd;
      pacing = rate_over(cwnd, rtt_exp);
      break;
    case core::Scheme::kWiraFF:
      cwnd = f.ff_size;
      pacing = rate_over(cwnd, rtt_exp);
      break;
    case core::Scheme::kWiraHx:
      if (hx) {
        cwnd = bytes_in(max_bw, min_rtt);
        pacing = max_bw;
      } else {
        cwnd = exp_cwnd;
        pacing = rate_over(cwnd, rtt_exp);
      }
      break;
    case core::Scheme::kWira:
      if (hx) {
        cwnd = std::min(f.ff_size, bytes_in(max_bw, min_rtt));  // Eq. 3
        pacing = max_bw;                                        // Eq. 2
      } else {
        cwnd = f.ff_size;
        pacing = rate_over(cwnd, rtt_exp);
      }
      break;
    default:
      return "";  // only the four Table-I rows are checked
  }
  cwnd = std::max<uint64_t>(cwnd, 2 * 1460);
  pacing = std::max<uint64_t>(pacing, 100'000 / 8);
  if (got.init_cwnd != cwnd || got.init_pacing != pacing) {
    return std::string("table1 ") + core::scheme_token(f.scheme) +
           ": init_cwnd " + std::to_string(got.init_cwnd) + " want " +
           std::to_string(cwnd) + ", init_pacing " +
           std::to_string(got.init_pacing) + " want " +
           std::to_string(pacing);
  }
  return "";
}

namespace {

struct Arrival {
  int64_t at;
  size_t seq;  ///< scheduling order; 0 = the burst's first chunk
  size_t bytes;
  bool video;
};

/// Origin deliveries of one join in arrival order.  The proxy schedules
/// the join burst back to back over the origin link and each live-tail
/// frame at pts + origin latency; equal instants keep scheduling order
/// (burst first).
std::vector<Arrival> delivery_order(const media::LiveStream& stream,
                                    int64_t join, int64_t origin_latency,
                                    uint64_t origin_bps) {
  std::vector<Arrival> order;
  int64_t at = join + origin_latency;
  for (const media::StreamChunk& c : stream.join_chunks(join)) {
    at += static_cast<int64_t>(static_cast<unsigned __int128>(c.bytes.size()) *
                               1'000'000'000u / origin_bps);
    order.push_back({at, order.size(), c.bytes.size(),
                     c.type == media::TagType::kVideo});
  }
  for (const media::StreamChunk& c :
       stream.chunks_between(join, join + 1'000'000'000)) {
    order.push_back({c.pts + origin_latency, order.size(), c.bytes.size(),
                     c.type == media::TagType::kVideo});
  }
  std::sort(order.begin(), order.end(), [](const Arrival& a, const Arrival& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  return order;
}

}  // namespace

uint64_t delivered_ff_size(const media::LiveStream& stream, int64_t join,
                           int64_t origin_latency, uint64_t origin_bps,
                           uint32_t theta_vf) {
  uint64_t sum = 0;
  uint32_t videos = 0;
  for (const Arrival& a :
       delivery_order(stream, join, origin_latency, origin_bps)) {
    sum += a.bytes;
    if (a.video && ++videos == theta_vf) return sum;
  }
  return 0;
}

bool header_overtaken(const media::LiveStream& stream, int64_t join,
                      int64_t origin_latency) {
  const std::vector<Arrival> order =
      delivery_order(stream, join, origin_latency, kOriginBps);
  return !order.empty() && order.front().seq != 0;
}

int64_t join_instant(exp::SessionConfig cfg) {
  trace::Tracer tracer;
  cfg.tracer = &tracer;
  cfg.recorder = nullptr;
  exp::run_session(cfg);
  for (const trace::Event& e : tracer.events()) {
    if (e.type == trace::EventType::kRequestReceived) return e.time;
  }
  return -1;
}

std::string check_incomplete(const exp::SessionConfig& cfg,
                             const media::LiveStream& stream) {
  const int64_t join = join_instant(cfg);
  if (join < 0) return "first frame incomplete: no request reached the server";
  if (!header_overtaken(stream, join, cfg.origin_latency)) {
    return "first frame incomplete, FLV header delivered first (join " +
           std::to_string(join) + " ns)";
  }
  return "";
}

FfVerdict check_ff_size(const media::LiveStream& stream, int64_t join,
                        int64_t origin_latency, uint32_t theta_vf,
                        uint64_t ff_size) {
  FfVerdict v;
  const uint64_t truth = stream.first_frame_size(join, theta_vf);
  if (ff_size == truth) return v;
  const uint64_t delivered = delivered_ff_size(
      stream, join, origin_latency, kOriginBps, theta_vf);
  if (ff_size == delivered) {
    v.tail_interleaved = true;
    return v;
  }
  v.failure = "ff_size " + std::to_string(ff_size) + " != ground truth " +
              std::to_string(truth) + " (delivery order gives " +
              std::to_string(delivered) + ")";
  return v;
}

std::string check_ffct_floor(int64_t rtt_ns, uint64_t bottleneck_bps,
                             uint64_t ff_size, int64_t ffct_ns) {
  if (bottleneck_bps == 0) return "ffct floor: zero bottleneck rate";
  const int64_t floor_ns =
      rtt_ns + static_cast<int64_t>(static_cast<unsigned __int128>(ff_size) *
                                    1'000'000'000u / bottleneck_bps);
  if (ffct_ns < floor_ns) {
    return "ffct " + std::to_string(ffct_ns) + " ns below physical floor " +
           std::to_string(floor_ns) + " ns";
  }
  return "";
}

std::string check_wira_beats_baseline(double wira_mean_ms,
                                      double baseline_mean_ms) {
  if (!(wira_mean_ms < baseline_mean_ms)) {
    return "mean FFCT: Wira " + std::to_string(wira_mean_ms) +
           " ms not below Baseline " + std::to_string(baseline_mean_ms) +
           " ms";
  }
  return "";
}

std::string check_roundtrip(std::span<const uint8_t> original,
                            std::span<const uint8_t> reserialized) {
  if (original.size() != reserialized.size() ||
      !std::equal(original.begin(), original.end(), reserialized.begin())) {
    return "datagram of " + std::to_string(original.size()) +
           " bytes does not round-trip (got " +
           std::to_string(reserialized.size()) + " bytes)";
  }
  return "";
}

std::string check_roundtrip(std::span<const uint8_t> datagram) {
  const auto parsed = quic::parse_packet(datagram);
  if (!parsed) {
    return "datagram of " + std::to_string(datagram.size()) +
           " bytes does not parse";
  }
  const std::vector<uint8_t> again = quic::serialize_packet(*parsed);
  return check_roundtrip(datagram, again);
}

std::vector<uint8_t> encode_record(const exp::SessionRecord& rec) {
  std::vector<uint8_t> out;
  exp::CodecWriter w(out);
  exp::encode_session_record(rec, w);
  return out;
}

std::string check_same_record(std::span<const uint8_t> a,
                              std::span<const uint8_t> b) {
  if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin())) {
    return "re-run record differs from the dispatched record (" +
           std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
           " bytes)";
  }
  return "";
}

std::string check_edge(uint64_t served, uint64_t started,
                       const std::vector<int64_t>& ffct_ns,
                       int64_t origin_latency_ns, uint64_t undecodable,
                       uint64_t stuck, uint64_t max_faulted) {
  if (served != started) {
    return "proxyd served " + std::to_string(served) + " sessions, " +
           std::to_string(started) + " viewers started";
  }
  if (undecodable != 0) {
    return std::to_string(undecodable) + " datagram(s) failed to decode";
  }
  uint64_t early = 0;
  int64_t earliest = origin_latency_ns;
  for (int64_t f : ffct_ns) {
    if (f < origin_latency_ns) {
      ++early;
      earliest = std::min(earliest, f);
    }
  }
  if (early + stuck > max_faulted) {
    return std::to_string(early) + " edge ffct(s) below origin latency " +
           std::to_string(origin_latency_ns) + " ns (earliest " +
           std::to_string(earliest) + " ns) and " + std::to_string(stuck) +
           " stuck viewer(s), more than the " + std::to_string(max_faulted) +
           " allowed";
  }
  return "";
}

std::string check_same_outcome(const exp::SessionResult& program,
                               const exp::SessionResult& traced) {
  const auto& a = program.init;
  const auto& b = traced.init;
  if (program.first_frame_completed != traced.first_frame_completed ||
      program.ffct != traced.ffct || program.ff_size != traced.ff_size ||
      a.init_cwnd != b.init_cwnd || a.init_pacing != b.init_pacing ||
      a.used_ff_size != b.used_ff_size || a.used_hx_qos != b.used_hx_qos ||
      a.hx_stale != b.hx_stale || a.ff_pending != b.ff_pending) {
    return "traced wiring diverges from exp::run_session: ffct " +
           std::to_string(traced.ffct) + " vs " +
           std::to_string(program.ffct) + ", init_cwnd " +
           std::to_string(b.init_cwnd) + " vs " + std::to_string(a.init_cwnd);
  }
  return "";
}

// ---- session inputs ----

DrawnSession draw_population_session(const exp::PopulationConfig& config,
                                     const popgen::Population& population,
                                     size_t i) {
  // Mirrors the draw order of the population sweep's per-session code;
  // check_table1 only passes when this reproduces its inputs exactly.
  Rng rng(config.seed ^ (0x5DEECE66Dull * (i + 1)));
  const popgen::OdPair od = population.random_od(rng);
  const TimeNs gap = popgen::Population::sample_session_gap(rng);
  const TimeNs prev_time = from_seconds(rng.uniform(60.0, 7200.0));
  const TimeNs start_time = prev_time + gap;
  const popgen::PathSample prev = od.sample(prev_time, rng);
  const popgen::PathSample now = od.sample(start_time, rng);
  const bool zero_rtt = rng.chance(config.p_zero_rtt);
  const bool had_cookie = rng.chance(config.p_cookie);

  DrawnSession d;
  d.cookie_age_ns = gap;
  exp::SessionConfig& base = d.base;
  base.path = popgen::OdPair::to_path_config(now);
  base.cc_algo = config.cc_algo;
  base.seed = rng.next() | 1;
  base.stream = media::sample_stream_profile(rng, i + 1);
  base.stream.container = config.container;
  base.corpus_seed = config.seed * 1000 + 99;
  base.start_time = start_time;
  base.theta_vf = config.theta_vf;
  base.zero_rtt = zero_rtt;
  base.defaults = config.defaults;
  base.staleness_threshold = config.staleness_threshold;
  base.sync_period = config.sync_period;
  base.careful_resume = config.careful_resume;
  if (had_cookie) {
    core::HxQosRecord cookie;
    cookie.min_rtt = prev.min_rtt;
    cookie.max_bw = static_cast<Bandwidth>(static_cast<double>(prev.max_bw) *
                                           rng.uniform(0.65, 1.0));
    cookie.server_timestamp = prev_time;
    cookie.loss_rate = prev.loss_rate * rng.uniform(0.7, 1.3);
    base.cookie = cookie;
  }
  const auto ug = population.group_average_qos(od.group_id());
  core::HxQosRecord ug_qos;
  ug_qos.min_rtt = ug.mean_rtt;
  ug_qos.max_bw = ug.mean_bw;
  ug_qos.server_timestamp = start_time;
  base.ug_qos = ug_qos;
  return d;
}

InitFacts init_facts(const exp::SessionConfig& cfg, int64_t cookie_age_ns,
                     const exp::SessionResult& res) {
  InitFacts f;
  f.scheme = cfg.scheme;
  f.ff_size = res.ff_size;
  f.cookie = cfg.cookie;
  f.cookie_age_ns = cookie_age_ns;
  f.handshake_rtt_ns = res.server_stats.handshake_rtt;
  f.defaults = cfg.defaults;
  f.staleness_ns = cfg.staleness_threshold;
  return f;
}

exp::SessionConfig loopback_session(core::Scheme scheme, uint64_t client_id,
                                    bool zero_rtt, bool cookie,
                                    int64_t origin_latency_ns) {
  exp::SessionConfig cfg;
  cfg.path.bandwidth = mbps(5000);
  cfg.path.reverse_bandwidth = mbps(5000);
  cfg.path.rtt = microseconds(200);
  cfg.path.buffer_bytes = 4 * 1024 * 1024;
  cfg.scheme = scheme;
  cfg.seed = client_id;
  cfg.zero_rtt = zero_rtt;
  if (cookie) {
    core::HxQosRecord rec;
    rec.min_rtt = milliseconds(1);
    rec.max_bw = mbps(500);
    rec.server_timestamp = 0;
    cfg.cookie = rec;
  }
  cfg.origin_latency = origin_latency_ns;
  cfg.track_frames = 1;
  return cfg;
}

}  // namespace wb
