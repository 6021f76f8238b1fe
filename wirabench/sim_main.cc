// wb_sim: the two simulator workloads, untraced.
//
//   sim_population  closed-loop serial sweep of the synthetic population,
//                   four Table-I schemes per session, flight recorder on
//                   (the population sweep's defaults).
//   sim_fleet       the same kind of population through the forked
//                   dynamic-chunk dispatcher (2 workers), phase metrics on,
//                   so every session runs the full tracer and registry.
//
// Both sweep for --seconds of wall time and check every record they
// produce.  A paired session with a scheme run whose first frame never
// completed is a failed operation, unless the benchmark's delivery-order
// model shows the FLV header overtaken (a known program fault); such
// sessions are left out of attempted and counted in the extras.  The last
// stdout line is one JSON object (bench_util.h).
//
//   wb_sim --workload sim_population --seed 1 --seconds 15
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/population_internal.h"
#include "exp/record_sink.h"
#include "media/stream_source.h"
#include "popgen/population.h"
#include "traced_session.h"

namespace {

using namespace wira;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (!std::strcmp(argv[i], "--workload")) a.workload = argv[i + 1];
    else if (!std::strcmp(argv[i], "--seed"))
      a.seed = std::strtoull(argv[i + 1], nullptr, 10);
    else if (!std::strcmp(argv[i], "--seconds"))
      a.seconds = std::strtod(argv[i + 1], nullptr);
  }
  if ((a.workload != "sim_population" && a.workload != "sim_fleet") ||
      a.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: wb_sim --workload sim_population|sim_fleet "
                 "--seed N --seconds S\n");
    std::exit(2);
  }
  return a;
}

/// Population config of one sweep: the shipped defaults, plus the fleet's
/// dispatcher settings.
exp::PopulationConfig sweep_config(const Args& a, uint64_t seed,
                                   size_t sessions) {
  exp::PopulationConfig c;
  c.seed = seed;
  c.sessions = sessions;
  c.schemes = wb::table1_schemes();
  if (a.workload == "sim_fleet") {
    c.processes = 2;
    c.chunk = 4;
    c.collect_metrics = true;
  }
  return c;
}

/// Join instant of the last scheme run the recorder holds.
int64_t recorded_join(const obs::FlightRecorder& recorder) {
  for (const trace::Event& e : recorder.server().snapshot()) {
    if (e.type == trace::EventType::kRequestReceived) return e.time;
  }
  return -1;
}

/// Collects records and stamps the first one's arrival.
class StampSink final : public exp::RecordSink {
 public:
  StampSink(std::vector<exp::SessionRecord>& out, int64_t& first)
      : out_(out), first_(first) {}
  void on_record(size_t, exp::SessionRecord&& rec) override {
    if (first_ == 0) first_ = wb::mono_ns();
    out_.push_back(std::move(rec));
  }

 private:
  std::vector<exp::SessionRecord>& out_;
  int64_t& first_;
};

/// Output checks, applied to each record as it is produced and then
/// folded into a few accumulators, so no record outlives its check.
struct Checker {
  std::vector<std::string> failures;
  std::vector<double> all_ms, wira_ms, base_ms;
  uint64_t ff_checked = 0, ff_interleaved = 0;
  uint64_t failed = 0;    ///< sessions with an unexplained incomplete run
  uint64_t overtaken = 0; ///< sessions left out: FLV header overtaken

  /// `wira_join`: the Wira run's join instant when phases do not carry it
  /// (-1 = unknown).  A scheme run whose first frame never completed makes
  /// the paired session a failed operation, unless the known header
  /// overtaking fault explains it; that session is left out of attempted
  /// and counted in `overtaken`.
  void check(const exp::PopulationConfig& c, const popgen::Population& pop,
             size_t index, const exp::SessionRecord& rec, int64_t wira_join) {
    const wb::DrawnSession d = wb::draw_population_session(c, pop, index);
    const media::LiveStream stream(d.base.stream, d.base.corpus_seed);
    bool explained = false, unexplained = false;
    for (const auto& [scheme, res] : rec.results) {
      exp::SessionConfig cfg = d.base;
      cfg.scheme = scheme;
      auto fail = [&](const std::string& why) {
        if (!why.empty()) {
          failures.push_back("session " + std::to_string(index) + " seed " +
                             std::to_string(c.seed) + ": " + why);
        }
      };
      fail(wb::check_table1(wb::init_facts(cfg, d.cookie_age_ns, res),
                            res.init));
      if (!res.first_frame_completed) {
        const std::string why = wb::check_incomplete(cfg, stream);
        if (why.empty()) {
          explained = true;
        } else {
          std::fprintf(stderr, "wb_sim: session %zu seed %llu %s: %s\n",
                       index, static_cast<unsigned long long>(c.seed),
                       core::scheme_token(scheme), why.c_str());
          unexplained = true;
        }
        continue;
      }
      all_ms.push_back(to_ms(res.ffct));
      if (scheme == core::Scheme::kWira) wira_ms.push_back(to_ms(res.ffct));
      if (scheme == core::Scheme::kBaseline) {
        base_ms.push_back(to_ms(res.ffct));
      }
      fail(wb::check_ffct_floor(cfg.path.rtt, cfg.path.bandwidth,
                                res.ff_size, res.ffct));
      // The join instant: the handshake phase's end when phases are on,
      // else the flight recorder's copy for the Wira run.
      int64_t join = -1;
      if (!res.phases.empty()) {
        join = res.phases.front().end;
      } else if (scheme == core::Scheme::kWira) {
        join = wira_join;
      }
      if (join < 0) continue;
      const wb::FfVerdict v = wb::check_ff_size(
          stream, join, cfg.origin_latency, cfg.theta_vf, res.ff_size);
      fail(v.failure);
      ff_checked++;
      if (v.tail_interleaved) ff_interleaved++;
    }
    if (unexplained) {
      ++failed;
    } else if (explained) {
      ++overtaken;
    }
  }
};

/// Wall and CPU time spent outside the program (checks), taken back out
/// of the sweep's figures.
struct Excluded {
  int64_t wall = 0, cpu = 0;
  int64_t wall0 = 0, cpu0 = 0;
  void begin() {
    wall0 = wb::mono_ns();
    cpu0 = wb::cpu_ns(false);
  }
  void end() {
    wall += wb::mono_ns() - wall0;
    cpu += wb::cpu_ns(false) - cpu0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const bool fleet = args.workload == "sim_fleet";

  Checker chk;
  Excluded excl;
  // Wall and CPU clock after each session (population) or sweep (fleet),
  // with excluded time taken out; the reported rates are medians over
  // windows of the run, so a burst of load from elsewhere on the host
  // moves one window, not the figure.
  struct Mark {
    int64_t t, cpu;
  };
  std::vector<Mark> marks;
  std::vector<double> window_sps, window_cpu_ms;
  exp::PopulationConfig first_config;  // for the traced-wiring check
  size_t first_index = 0;
  int64_t first_result = 0;
  size_t sessions = 0, sweeps = 0;
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t cpu0 = wb::cpu_ns(true);
  const int64_t t0 = wb::mono_ns();
  int64_t t_end = t0;

  if (!fleet) {
    // Closed loop: the next session starts when the previous one returns.
    // The population is the shipped default (seed 1).  Every run starts
    // with its session 0, so set-up times compare like with like; --seed
    // then shifts the start of the swept stretch by 10 sessions per unit,
    // so runs of nearby seeds share most of their sessions.
    exp::PopulationConfig c = sweep_config(args, 1, 0);
    first_index = 1 + static_cast<size_t>(args.seed % 1000) * 10;
    c.sessions = first_index + 1'000'000;
    auto index_of = [&](size_t k) { return k == 0 ? 0 : first_index + k - 1; };
    first_config = c;
    popgen::Population population(c.seed * 31 + 7, c.num_groups);
    exp::SessionWorkspace ws;
    sweeps = 1;
    while (t_end - t0 - excl.wall < budget) {
      const exp::SessionRecord rec = exp::internal::run_one_session(
          c, population, index_of(sessions), ws);
      t_end = wb::mono_ns();
      if (first_result == 0) first_result = t_end;
      marks.push_back({t_end - excl.wall, wb::cpu_ns(true) - excl.cpu});
      excl.begin();
      chk.check(c, population, index_of(sessions), rec,
                recorded_join(ws.flight_recorder()));
      ++sessions;
      excl.end();
    }
  } else {
    // Fixed-size dispatched sweeps, each on its own population seed, until
    // the budget is spent; every sweep forks and reaps its workers.  Sweep
    // 0 uses seed 1 in every run (comparable set-up); sweep b > 0 uses
    // seed + b, so runs of nearby seeds share most of their sweeps.  A
    // sample of the first sweep is re-run in-process, outside the
    // dispatcher, and must match bit for bit.
    constexpr size_t kSweepSessions = 48;
    for (uint64_t b = 0; t_end - t0 - excl.wall < budget; ++b) {
      const exp::PopulationConfig c = sweep_config(
          args, b == 0 ? 1 : args.seed + b, kSweepSessions);
      std::vector<exp::SessionRecord> records;
      obs::MetricsRegistry registry;
      StampSink sink(records, first_result);
      exp::run_population(c, &registry, sink);
      t_end = wb::mono_ns();
      {
        const int64_t cpu = wb::cpu_ns(true) - excl.cpu;
        const int64_t prev_t = marks.empty() ? t0 : marks.back().t;
        const int64_t prev_cpu = marks.empty() ? cpu0 : marks.back().cpu;
        const double n = static_cast<double>(records.size());
        window_sps.push_back(n / (static_cast<double>(t_end - excl.wall - prev_t) * 1e-9));
        window_cpu_ms.push_back(static_cast<double>(cpu - prev_cpu) * 1e-6 / n);
        marks.push_back({t_end - excl.wall, cpu});
      }
      excl.begin();
      sessions += records.size();
      ++sweeps;
      popgen::Population population(c.seed * 31 + 7, c.num_groups);
      for (size_t i = 0; i < records.size(); ++i) {
        chk.check(c, population, i, records[i], -1);
      }
      if (b == 0) {
        first_config = c;
        exp::PopulationConfig serial = c;
        serial.processes = 1;
        exp::SessionWorkspace ws;
        for (size_t i : {size_t{0}, records.size() / 2, records.size() - 1}) {
          const exp::SessionRecord again =
              exp::internal::run_one_session(serial, population, i, ws);
          const std::string why = wb::check_same_record(
              wb::encode_record(records[i]), wb::encode_record(again));
          if (!why.empty()) {
            chk.failures.push_back("session " + std::to_string(i) + ": " +
                                   why);
          }
        }
      }
      excl.end();
    }
  }
  t_end -= excl.wall;
  if (!fleet) {
    // Ten equal windows of the sweep; each window's rate and CPU per
    // session come from the sessions that ended inside it.
    constexpr int kWindows = 10;
    const double w = static_cast<double>(t_end - t0) / kWindows;
    size_t j = 0;
    Mark prev{t0, cpu0};
    for (int k = 0; k < kWindows; ++k) {
      const double hi = static_cast<double>(t0) + w * (k + 1);
      size_t n = 0;
      Mark last = prev;
      while (j < marks.size() && static_cast<double>(marks[j].t) <= hi + 1) {
        last = marks[j++];
        ++n;
      }
      if (n == 0) continue;
      window_sps.push_back(static_cast<double>(n) / (w * 1e-9));
      window_cpu_ms.push_back(static_cast<double>(last.cpu - prev.cpu) *
                              1e-6 / static_cast<double>(n));
      prev = last;
    }
  }

  std::vector<std::string>& failures = chk.failures;
  {
    const std::string why = wb::check_wira_beats_baseline(
        wb::mean(chk.wira_ms), wb::mean(chk.base_ms));
    if (!why.empty()) failures.push_back(why);
  }
  // The traced wiring must be the program's own, and every datagram it
  // captures must survive parse -> serialize unchanged.
  {
    const exp::PopulationConfig& c = first_config;
    popgen::Population population(c.seed * 31 + 7, c.num_groups);
    for (size_t i = 0; i < 2; ++i) {
      const wb::DrawnSession d =
          wb::draw_population_session(c, population, first_index + i);
      for (core::Scheme scheme : wb::table1_schemes()) {
        exp::SessionConfig cfg = d.base;
        cfg.scheme = scheme;
        cfg.collect_phases = c.collect_metrics;
        wb::LayerTally tally;
        wb::Capture cap;
        const exp::SessionResult traced = wb::run_traced(cfg, tally, &cap);
        const exp::SessionResult program = exp::run_session(cfg);
        std::string why = wb::check_same_outcome(program, traced);
        for (const auto& dg : cap.datagrams) {
          if (!why.empty()) break;
          why = wb::check_roundtrip(dg.bytes);
        }
        if (!why.empty()) failures.push_back(why);
      }
    }
  }

  wb::Metrics m;
  const double sps = wb::percentile(window_sps, 0.5);
  m.add("sessions_per_s", sps, "sessions/s");
  // The simulator's predicted first-frame time over every scheme run of
  // the sweep.  Its p99 (four samples per paired session put ~40 beyond
  // it) is a summary figure only; the bounded tail metric would have to
  // hold on the edge too (README, "Bounds").
  m.add("ffct_p50_ms", wb::percentile(chk.all_ms, 0.50), "ms");
  m.add("cpu_ms_per_session", wb::percentile(window_cpu_ms, 0.5), "ms");
  // The sweeping process: this one for the serial sweep, the largest
  // reaped worker for the fleet.
  m.add("peak_rss_mb",
        static_cast<double>(fleet ? wb::children_peak_rss_kb()
                                  : wb::peak_rss_kb()) /
            1024.0,
        "MB");
  std::map<std::string, double> extras = {
      {"first_result_mono_ns", static_cast<double>(first_result)},
      {"sessions", static_cast<double>(sessions)},
      {"sweeps", static_cast<double>(sweeps)},
      {"wira_mean_ms", wb::mean(chk.wira_ms)},
      {"ffct_p99_ms", wb::percentile(chk.all_ms, 0.99)},
      {"wira_ffct_p50_ms", wb::percentile(chk.wira_ms, 0.50)},
      {"wira_ffct_p99_ms", wb::percentile(chk.wira_ms, 0.99)},
      {"ff_size_checked", static_cast<double>(chk.ff_checked)},
      {"ff_size_tail_interleaved", static_cast<double>(chk.ff_interleaved)},
      {"left_out_header_overtaken", static_cast<double>(chk.overtaken)},
      {"baseline_mean_ms", wb::mean(chk.base_ms)}};
  std::printf("%s\n",
              wb::result_json(failures.empty(), sessions - chk.overtaken,
                              chk.failed, m, failures, extras)
                  .c_str());
  return 0;
}
