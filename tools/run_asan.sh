#!/usr/bin/env bash
# Sanitizer gate: build the gate-labeled test set under Address+UB
# sanitizers (WIRA_SANITIZE, see the top-level CMakeLists.txt) in a
# dedicated build tree and run it.  The zero-copy datagram path hands out
# borrowed spans and pool-recycled buffers, so use-after-free and
# use-after-reset bugs are the failure class this script exists to catch;
# run it after any change to the arena, the parser, or buffer recycling.
# The gate label also covers the multiprocess population runner
# (test_exp's Harness.Multiprocess* fork real workers and exercise the
# record codec + salvage/retry paths under the sanitizers; worker children
# _Exit, so LSan only audits the parent).
#
# Usage: tools/run_asan.sh [extra ctest args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-asan"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DWIRA_SANITIZE="address;undefined"
cmake --build "${build_dir}" -j "$(nproc)"
cmake --build "${build_dir}" -j "$(nproc)" --target soak

# halt_on_error keeps UBSan failures fatal so ctest sees them; ASan is
# fatal by default.  detect_leaks stays on: the arena owns its blocks and
# the batch pool owns batches, so a leak report means ownership drifted.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="detect_leaks=1"

ctest --test-dir "${build_dir}" -L gate --output-on-failure \
  -j "$(nproc)" "$@"

# Tiny streaming soak under the sanitizers: the recycling machinery
# (loop scratch pools, segment-cache graveyard, chunk-byte pooling)
# reuses buffers across sessions, so this sweep is the densest
# use-after-reset exposure the suite has.  Session count stays small —
# sanitized sessions are ~10x slower — but every recycled path runs
# hundreds of times.
# The anomaly flags run the flight recorder's materialization path
# (snapshot, sqlog serialization, crash-fd plumbing) under the
# sanitizers too; the seeded 1 ms deadline guarantees dumps happen.
rm -rf "${build_dir}/anomaly"
"${build_dir}/bench/soak" --sessions 200 --flush-every 50 \
  --flush-out "${build_dir}/soak_flush.jsonl" \
  --anomaly-dir "${build_dir}/anomaly" --anomaly-ffct-ms 1 \
  > "${build_dir}/soak.json"
"${build_dir}/tools/wira_trace_join" --trace-dir "${build_dir}/anomaly"
echo "sanitized anomaly dumps joined"
echo "sanitized soak passed ($(
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["sessions"], "sessions")' \
    "${build_dir}/soak.json"))"

# Exporter smoke under the sanitizers: tail the flush file the soak just
# wrote, scrape it once over a real socket, shut down cleanly.  This is
# the repo's only epoll/socket code; ASan sees the whole accept-read-
# write-close cycle and LSan audits the daemon's teardown.  Port files
# left by an earlier run are removed first, or the wait below would read
# a dead port.
rm -f "${build_dir}/exporter.port" "${build_dir}/workerd1.port" \
  "${build_dir}/workerd2.port"
"${build_dir}/tools/wira_exporterd" \
  --flush-jsonl "${build_dir}/soak_flush.jsonl" --listen 0 \
  --port-file "${build_dir}/exporter.port" &
exporter_pid=$!
trap 'kill "${exporter_pid}" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
  [[ -s "${build_dir}/exporter.port" ]] && break
  sleep 0.1
done
port="$(cat "${build_dir}/exporter.port")"
for _ in $(seq 50); do
  curl -sf "http://127.0.0.1:${port}/metrics" \
    | grep -q '^wira_soak_sessions_total 200$' && break
  sleep 0.1
done
curl -sf "http://127.0.0.1:${port}/metrics" \
  | grep -q '^wira_soak_sessions_total 200$'
kill "${exporter_pid}"
wait "${exporter_pid}"
trap - EXIT
echo "sanitized exporter scrape passed"

# Loopback socket-dispatch sweep under the sanitizers: two wira_workerd
# daemons serve the fig11 sweep over --workers TCP at two chunk sizes.
# This runs the whole shard transport (connect, kConfig handshake,
# chunk assignment, record reassembly) with ASan watching both ends —
# the daemons are sanitized binaries too — and the stdout + metrics
# JSONL must be byte-identical to the serial run.
"${build_dir}/tools/wira_workerd" --listen 0 \
  --port-file "${build_dir}/workerd1.port" &
workerd1_pid=$!
"${build_dir}/tools/wira_workerd" --listen 0 \
  --port-file "${build_dir}/workerd2.port" &
workerd2_pid=$!
trap 'kill "${workerd1_pid}" "${workerd2_pid}" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
  [[ -s "${build_dir}/workerd1.port" && -s "${build_dir}/workerd2.port" ]] \
    && break
  sleep 0.1
done
wep1="$(cat "${build_dir}/workerd1.port")"
wep2="$(cat "${build_dir}/workerd2.port")"
"${build_dir}/bench/fig11_overall" 40 3 \
  --metrics-out "${build_dir}/fig11_serial_metrics.jsonl" \
  > "${build_dir}/fig11_serial.txt"
for chunk in 1 8; do
  "${build_dir}/bench/fig11_overall" 40 3 --chunk "${chunk}" \
    --workers "${wep1},${wep2}" \
    --metrics-out "${build_dir}/fig11_tcp_metrics.jsonl" \
    > "${build_dir}/fig11_tcp.txt"
  diff "${build_dir}/fig11_serial.txt" "${build_dir}/fig11_tcp.txt"
  diff "${build_dir}/fig11_serial_metrics.jsonl" \
    "${build_dir}/fig11_tcp_metrics.jsonl"
done
kill "${workerd1_pid}" "${workerd2_pid}"
wait "${workerd1_pid}" "${workerd2_pid}" || true
trap - EXIT
echo "sanitized loopback dispatch sweep passed"

# Real-socket serving mode under the sanitizers: wira_proxyd serves all
# four schemes over loopback UDP while a sanitized wira_loadgen runs a
# small concurrent population against it.  This is the epoll runtime,
# the UDP demux, and the whole QUIC stack on real sockets with ASan
# watching both processes; LSan audits the daemon's SIGTERM teardown.
# Two daemons cover both ways a session is retired with its origin
# deliveries and live tail still queued: the first sees every viewer
# leave with CONNECTION_CLOSE right after its first frame; the second
# holds each request for 30 s of origin latency, and the viewers vanish
# (SIGKILL) before any byte arrives, so every session is retired by the
# idle timeout.
# start_sanitized_proxyd PORTFILE LOG [proxyd args...] — starts a daemon
# and waits for its port file.
start_sanitized_proxyd() {
  local port_file="$1" log="$2"
  shift 2
  rm -f "${port_file}"
  "${build_dir}/tools/wira_proxyd" --port-file "${port_file}" "$@" \
    2> "${log}" &
  proxyd_pid=$!
  trap 'kill "${proxyd_pid}" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do
    [[ -s "${port_file}" ]] && break
    sleep 0.1
  done
}
# stop_sanitized_proxyd LOG — SIGTERM, then require a clean exit and an
# exit line with every admitted session retired.
stop_sanitized_proxyd() {
  kill "${proxyd_pid}"
  wait "${proxyd_pid}"
  trap - EXIT
  local line
  line="$(grep 'wira_proxyd: served' "$1")"
  echo "${line}"
  [[ "${line}" =~ served\ ([0-9]+)\ session.*retired\ ([0-9]+),\ live\ 0, ]]
  [[ "${BASH_REMATCH[1]}" -gt 0 && \
     "${BASH_REMATCH[1]}" == "${BASH_REMATCH[2]}" ]]
}

start_sanitized_proxyd "${build_dir}/proxyd.port" "${build_dir}/proxyd.log"
"${build_dir}/tools/wira_loadgen" --ports "${build_dir}/proxyd.port" \
  --sessions 10 --timeout-ms 120000 > "${build_dir}/loadgen.json"
grep -q '"handshake_failures": 0' "${build_dir}/loadgen.json"
stop_sanitized_proxyd "${build_dir}/proxyd.log"
echo "sanitized proxyd/loadgen loopback pass passed (close retirement)"

start_sanitized_proxyd "${build_dir}/proxyd_idle.port" \
  "${build_dir}/proxyd_idle.log" --origin-latency-us 30000000
"${build_dir}/tools/wira_loadgen" --ports "${build_dir}/proxyd_idle.port" \
  --sessions 5 --ramp-ms 0 --timeout-ms 120000 \
  > /dev/null 2>&1 &
loadgen_pid=$!
sleep 3
kill -KILL "${loadgen_pid}"
wait "${loadgen_pid}" || true
# The daemon's idle timeout (app::SocketEdge::kIdleTimeout) plus slack.
sleep 12
stop_sanitized_proxyd "${build_dir}/proxyd_idle.log"
echo "sanitized proxyd idle-retirement pass passed"
echo "sanitizer gate passed"
