// Shared pieces of the wirabench programs: clocks, process counters,
// percentiles, the JSON result line, and the output checks.  The checks
// recompute what they verify from the session's inputs with the
// benchmark's own arithmetic; none of them calls the code under test
// (core::compute_init, the sim) to decide what is right.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/init_config.h"
#include "exp/population_experiment.h"
#include "exp/session_runner.h"

namespace wb {

/// CLOCK_MONOTONIC in ns: the same clock Python's time.monotonic() reads,
/// so run.py can subtract its own launch stamp from it.
int64_t mono_ns();
/// This process's user+system CPU (ns); `children` adds reaped children.
int64_t cpu_ns(bool children = false);
/// VmHWM of /proc/<pid>/status in KiB (pid 0 = self); 0 if unreadable.
uint64_t peak_rss_kb(int pid = 0);
/// Peak RSS (KiB) of the largest reaped child process.
uint64_t children_peak_rss_kb();

/// Nearest-rank percentile of `v` (sorted copy), q in [0,1].
double percentile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Ordered name -> (value, unit) map printed as the "metrics" object.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

/// One JSON object per line, the format run.py reads: checks, counts and
/// metrics, plus free-form numeric extras.
std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const Metrics& m,
                        const std::vector<std::string>& failures,
                        const std::map<std::string, double>& extras = {});

/// The benchmark's scheme set: the four Table-I rows.
inline const std::vector<wira::core::Scheme>& table1_schemes() {
  static const std::vector<wira::core::Scheme> k = {
      wira::core::Scheme::kBaseline, wira::core::Scheme::kWiraFF,
      wira::core::Scheme::kWiraHx, wira::core::Scheme::kWira};
  return k;
}

// ---- output checks (each returns "" when the output passes) ----

/// What the server knew when it took its final init decision.
struct InitFacts {
  wira::core::Scheme scheme = wira::core::Scheme::kWira;
  uint64_t ff_size = 0;                     ///< parser-reported, 0 = none
  std::optional<wira::core::HxQosRecord> cookie;  ///< as sealed, if any
  int64_t cookie_age_ns = 0;                ///< session start - sealed
  int64_t handshake_rtt_ns = -1;            ///< -1 = 0-RTT (none measured)
  wira::core::ExperiencedDefaults defaults;
  int64_t staleness_ns = wira::core::kDefaultStaleness;
};
/// Table I / Eq. 2-3 recomputed from `f`.  Sessions whose decision sits on
/// a flagged corner case (FF_Size never parsed, cookie within a second of
/// the staleness threshold) are skipped and return "".
std::string check_table1(const InitFacts& f,
                         const wira::core::InitDecision& got);

/// app::ServerConfig's default proxy<->origin rate (200 Mbit/s).
inline constexpr uint64_t kOriginBps = 25'000'000;

/// FF_Size the parser sees when the proxy's origin deliveries are fed in
/// arrival order: join burst serialized over the origin link, live-tail
/// frames at pts + origin latency.  Differs from first_frame_size() when a
/// tail frame lands before the burst's first video frame completes.
uint64_t delivered_ff_size(const wira::media::LiveStream& stream, int64_t join,
                           int64_t origin_latency, uint64_t origin_bps,
                           uint32_t theta_vf);

/// FF_Size must equal LiveStream::first_frame_size at the join instant.
/// A mismatch fully explained by the live tail interleaving the join burst
/// is a known program fault: counted, not failed.
struct FfVerdict {
  std::string failure;
  bool tail_interleaved = false;
};
FfVerdict check_ff_size(const wira::media::LiveStream& stream, int64_t join,
                        int64_t origin_latency, uint32_t theta_vf,
                        uint64_t ff_size);

/// True when that delivery order puts a live-tail tag ahead of the join
/// burst's first chunk, which carries the FLV header.  The client's
/// demuxer and the server's parser then reject the stream, and no frame
/// ever completes: a known program fault (CHANGES.md).
bool header_overtaken(const wira::media::LiveStream& stream, int64_t join,
                      int64_t origin_latency);

/// The server's join instant (its request_received event) for `cfg`, from
/// a re-run with a tracer attached; -1 if no request arrived.
int64_t join_instant(wira::exp::SessionConfig cfg);

/// A scheme run whose first frame never completed passes only when
/// header_overtaken() explains it; such runs are left out of attempted
/// and counted, never silently skipped.
std::string check_incomplete(const wira::exp::SessionConfig& cfg,
                             const wira::media::LiveStream& stream);

/// A completed FFCT can be no shorter than one path RTT plus FF_Size
/// serialized at the bottleneck rate.
std::string check_ffct_floor(int64_t rtt_ns, uint64_t bottleneck_bps,
                             uint64_t ff_size, int64_t ffct_ns);

/// Wira's population-mean FFCT must beat Baseline's.
std::string check_wira_beats_baseline(double wira_mean_ms,
                                      double baseline_mean_ms);

/// serialize_packet(parse_packet(d)) must give back d byte for byte.
std::string check_roundtrip(std::span<const uint8_t> original,
                            std::span<const uint8_t> reserialized);
std::string check_roundtrip(std::span<const uint8_t> datagram);

/// Two encodings of one session record must agree bit for bit.
std::string check_same_record(std::span<const uint8_t> a,
                              std::span<const uint8_t> b);
std::vector<uint8_t> encode_record(const wira::exp::SessionRecord& rec);

/// The real-socket run: proxyd served exactly the viewers started and
/// nothing failed to decode.  `ffct_ns` holds every first frame a viewer
/// showed, timed from its start; those below proxyd's origin latency plus
/// the `stuck` viewers (no frame ever) are faults, and at most
/// `max_faulted` of them pass.
std::string check_edge(uint64_t served, uint64_t started,
                       const std::vector<int64_t>& ffct_ns,
                       int64_t origin_latency_ns, uint64_t undecodable,
                       uint64_t stuck, uint64_t max_faulted);

/// A traced session must reproduce exp::run_session bit for bit on FFCT
/// and the init decision.
std::string check_same_outcome(const wira::exp::SessionResult& program,
                               const wira::exp::SessionResult& traced);

// ---- session inputs ----

/// Reconstructs SessionConfig for index i exactly as the population
/// sweep draws it (same RNG order as exp::internal::run_one_session).
struct DrawnSession {
  wira::exp::SessionConfig base;  ///< scheme left at its default
  int64_t cookie_age_ns = 0;
};
DrawnSession draw_population_session(const wira::exp::PopulationConfig& cfg,
                                     const wira::popgen::Population& pop,
                                     size_t i);

/// Facts for check_table1 from a population session's config and result.
InitFacts init_facts(const wira::exp::SessionConfig& cfg,
                     int64_t cookie_age_ns,
                     const wira::exp::SessionResult& res);

/// Loopback session config used for edge predictions (the path
/// wira_loadgen --sim-compare uses for 127.0.0.1).
wira::exp::SessionConfig loopback_session(wira::core::Scheme scheme,
                                          uint64_t client_id, bool zero_rtt,
                                          bool cookie,
                                          int64_t origin_latency_ns);

}  // namespace wb
