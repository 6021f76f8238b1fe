#!/usr/bin/env bash
# Real-socket serving-mode driver (DESIGN.md §6): runs the sim's Table-I
# schemes over actual UDP sockets on loopback and checks the result
# against the simulator's prediction.  Three passes, each against a
# fresh wira_proxyd instance:
#
#   1. soak      — SESSIONS concurrent sessions per scheme (default
#                  1000, i.e. 4000 concurrent handshakes); gates: zero
#                  handshake failures, and once the daemon's idle timeout
#                  has passed, no session left live in its table.
#   2. compare   — a lightly-loaded run (COMPARE_SESSIONS per scheme,
#                  fully ramped) with --sim-compare; gate: per scheme,
#                  the real p50 FFCT falls inside the tolerance band of
#                  the sim p50 (see below).
#   3. trace     — a small traced run; gate: every client/server sqlog
#                  pair joins cleanly (wira_trace_join rc 0), proving
#                  the two processes share a timebase.
#
# Tolerance band: on an otherwise idle host the lightly-loaded real p50
# tracks the sim within a few percent (loopback RTT is below the sim
# path's 200 us), but CI neighbours can steal the core for tens of ms.
# The gate is therefore deliberately generous:
#
#     sim_p50 / 3  <=  real_p50  <=  3 * sim_p50 + 50 ms
#
# It still catches the failure classes this script exists for — a stalled
# scheme (seconds, not ms), a broken 0-RTT/cookie path (shifts p50 by a
# whole RTT tier), or a clock-domain bug (joins fail / spans go negative).
#
# Usage: tools/run_proxyd.sh [build-dir]   (env: SESSIONS, COMPARE_SESSIONS,
#                                           TRACE_SESSIONS, OUT)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
SESSIONS="${SESSIONS:-1000}"
COMPARE_SESSIONS="${COMPARE_SESSIONS:-8}"
TRACE_SESSIONS="${TRACE_SESSIONS:-3}"
OUT="${OUT:-$(mktemp -d /tmp/wira_proxyd.XXXXXX)}"
mkdir -p "${OUT}" "${OUT}/traces"

proxyd="${build_dir}/tools/wira_proxyd"
loadgen="${build_dir}/tools/wira_loadgen"
trace_join="${build_dir}/tools/wira_trace_join"
for bin in "${proxyd}" "${loadgen}" "${trace_join}"; do
  [[ -x "${bin}" ]] || { echo "missing binary: ${bin}" >&2; exit 1; }
done

proxyd_pid=""
trap '[[ -n "${proxyd_pid}" ]] && kill "${proxyd_pid}" 2>/dev/null || true' \
  EXIT

# The daemon's idle timeout (app::SocketEdge::kIdleTimeout) plus slack.
IDLE_WAIT_S=12

# start_proxyd [extra args...] — (re)starts the daemon and waits for its
# port file.  The traced pass needs its own instance: proxyd traces every
# session when --trace-dir is set, and the soak's untraced clients would
# otherwise litter the join dir with unpaired server vantages.
start_proxyd() {
  if [[ -n "${proxyd_pid}" ]]; then
    kill "${proxyd_pid}" 2>/dev/null || true
    wait "${proxyd_pid}" 2>/dev/null || true
  fi
  rm -f "${OUT}/ports"
  "${proxyd}" --port-file "${OUT}/ports" --rcvbuf $((32 * 1024 * 1024)) \
    "$@" 2>> "${OUT}/proxyd.log" &
  proxyd_pid=$!
  for _ in $(seq 50); do
    [[ -s "${OUT}/ports" ]] && return 0
    kill -0 "${proxyd_pid}" 2>/dev/null || break
    sleep 0.1
  done
  echo "wira_proxyd died at startup:" >&2
  cat "${OUT}/proxyd.log" >&2
  exit 1
}

# stop_proxyd_drained — waits out the idle timeout, stops the daemon and
# requires its exit line to report no live session: every soak session
# was retired, by its viewer's CONNECTION_CLOSE or by the idle timeout.
stop_proxyd_drained() {
  sleep "${IDLE_WAIT_S}"
  kill "${proxyd_pid}"
  wait "${proxyd_pid}" || true
  proxyd_pid=""
  local line
  line="$(grep 'wira_proxyd: served' "${OUT}/proxyd.log" | tail -n 1)"
  echo "${line}"
  if [[ "${line}" != *", live 0,"* ]]; then
    echo "FAIL: sessions still live after the idle timeout" >&2
    exit 1
  fi
}

start_proxyd
echo "== proxyd endpoints =="
cat "${OUT}/ports"

# -- pass 1: concurrency soak --------------------------------------------
echo "== soak: ${SESSIONS} sessions/scheme =="
"${loadgen}" --ports "${OUT}/ports" --sessions "${SESSIONS}" \
  --ramp-ms $((SESSIONS * 8)) --timeout-ms 180000 \
  > "${OUT}/soak.json" 2> "${OUT}/soak.log"
soak_failures="$(jq '.handshake_failures' "${OUT}/soak.json")"
cat "${OUT}/soak.log"
if [[ "${soak_failures}" != "0" ]]; then
  echo "FAIL: ${soak_failures} handshake failure(s) in soak" >&2
  exit 1
fi

echo "== soak: waiting ${IDLE_WAIT_S} s for the session table to drain =="
stop_proxyd_drained

# -- pass 2: sim-vs-real comparison --------------------------------------
echo "== compare: ${COMPARE_SESSIONS} sessions/scheme, sim-compare =="
start_proxyd
"${loadgen}" --ports "${OUT}/ports" --sessions "${COMPARE_SESSIONS}" \
  --ramp-ms 2000 --timeout-ms 60000 --seed 7 \
  --sim-compare --sim-sessions "${COMPARE_SESSIONS}" \
  > "${OUT}/compare.json" 2> "${OUT}/compare.log"

echo
echo "scheme      sim p50 (us)   real p50 (us)   real p90 (us)   band"
band_fail=0
while IFS=$'\t' read -r scheme sim real p90; do
  lo="$(awk -v s="${sim}" 'BEGIN { printf "%.1f", s / 3 }')"
  hi="$(awk -v s="${sim}" 'BEGIN { printf "%.1f", 3 * s + 50000 }')"
  verdict="ok"
  in_band="$(awk -v r="${real}" -v l="${lo}" -v h="${hi}" \
    'BEGIN { print (r >= l && r <= h) ? 1 : 0 }')"
  if [[ "${in_band}" != "1" ]]; then verdict="OUT-OF-BAND"; band_fail=1; fi
  printf '%-10s %12.1f %15.1f %15.1f   [%s, %s] %s\n' \
    "${scheme}" "${sim}" "${real}" "${p90}" "${lo}" "${hi}" "${verdict}"
done < <(jq -r '.schemes[] |
  [.scheme, .sim_ffct_p50_us, .ffct_p50_us, .ffct_p90_us] | @tsv' \
  "${OUT}/compare.json")
echo
if [[ "${band_fail}" != "0" ]]; then
  echo "FAIL: real FFCT outside the sim tolerance band" >&2
  exit 1
fi
compare_failures="$(jq '.handshake_failures' "${OUT}/compare.json")"
if [[ "${compare_failures}" != "0" ]]; then
  echo "FAIL: ${compare_failures} handshake failure(s) in compare" >&2
  exit 1
fi

# -- pass 3: cross-process trace join ------------------------------------
echo "== trace: ${TRACE_SESSIONS} sessions/scheme, joined sqlog pairs =="
start_proxyd --trace-dir "${OUT}/traces"
"${loadgen}" --ports "${OUT}/ports" --sessions "${TRACE_SESSIONS}" \
  --ramp-ms 1000 --timeout-ms 60000 --trace-dir "${OUT}/traces" \
  > "${OUT}/trace.json" 2> "${OUT}/trace.log"
"${trace_join}" --trace-dir "${OUT}/traces" -v

echo
echo "run_proxyd: all gates passed (artifacts in ${OUT})"
