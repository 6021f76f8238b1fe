#!/usr/bin/env python3
"""wirabench: one command for the simulator and the real-socket edge.

    python3 wirabench/run.py --workload sim_population --seed 1 \
        --seconds 20 --trace 0

Builds the benchmark's own CMake project (wirabench/CMakeLists.txt, which
compiles the repo's libraries from ../src) into $CARGO_TARGET_DIR or
.bench_build, runs one workload, checks its outputs and prints one JSON
object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs the
separate traced pass and prints the per-layer metrics.  --selftest runs the
check-rejection self-test instead.  See wirabench/README.md.
"""
import argparse
import json
import os
import re
import signal
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
TARGETS = ["wb_sim", "wb_edge", "wb_layers", "wb_selftest", "wira_proxyd",
           "wira_trace_join"]

SIM = ("sim_population", "sim_fleet")
EDGE = ("edge_steady",)

PER_LAYER = [
    "sim.events_per_session", "sim.loop_self_us_per_session",
    "sim.link_send_ns", "sim.link_drops_per_session",
    "quic.dgrams_per_session", "quic.parse_ns", "quic.serialize_ns",
    "quic.retx_ratio",
    "app.server_rx_self_ns", "app.client_rx_self_ns", "app.bringup_us",
    "cc.events_per_session", "cc.event_ns",
    "media.mux_ns_per_kb", "core.ffparse_ns_per_kb",
    "crypto.cookie_seal_ns", "crypto.cookie_open_ns",
    "trace.events_per_session", "obs.recorder_ns_per_event",
    "util.allocs_per_session", "util.arena_bytes_per_session",
    "exp.record_bytes", "exp.encode_ns", "exp.decode_ns",
    "exp.parent_cpu_ms_per_session", "exp.children_cpu_ms_per_session",
    "net.dgrams_per_session", "net.cpu_us_per_dgram", "net.sys_share",
    "net.wakeups_per_dgram", "net.send_ns", "net.recv_ns",
    "net.rss_kb_per_session", "net.below_origin_share",
    "app.stuck_share", "app.ff_size_interleaved_share",
    "obs.phase.handshake_p50_ms", "obs.phase.origin_fetch_p50_ms",
    "obs.phase.ff_parse_p50_ms", "obs.phase.delivery_p50_ms",
    "obs.phase.frame_recv_p50_ms",
    # The FFCT tail is reported unbounded: on the real edge it follows
    # stalls of this shared host (README, "Bounds").
    "ffct_p99_ms",
]
END_TO_END = ["setup_s", "sessions_per_s", "ffct_p50_ms",
              "cpu_ms_per_session", "peak_rss_mb"]


def log(msg, out=sys.stderr):
    print("wirabench: " + msg, file=out, flush=True)


def build():
    """Configures once and builds incrementally; output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target"] +
                   TARGETS, check=True, stdout=sys.stderr, stderr=sys.stderr)


def binary(name):
    return os.path.join(BUILD, name)


def last_json(text):
    lines = [l for l in text.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError("no JSON result line")
    return json.loads(lines[-1])


def run_checked(cmd, timeout, cpus=None):
    """Runs `cmd` (on the CPU set `cpus`, if given) and returns its JSON
    result line."""
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=timeout, preexec_fn=pin)
    if out.returncode != 0:
        raise RuntimeError("%s exited %d" % (cmd[0], out.returncode))
    return last_json(out.stdout)


# ---- /proc readers for the serving process ----

def proc_cpu(pid):
    """(user_s, sys_s) of `pid` from /proc/<pid>/stat."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    tck = os.sysconf("SC_CLK_TCK")
    return int(fields[11]) / tck, int(fields[12]) / tck


def proc_status(pid, key):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


# ---- workloads ----

def sim_workload(args):
    cmd = [binary("wb_sim"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    # The fleet's parent and its two forked workers share one CPU.  Spread
    # over two, the run's figures followed whether the host gave both CPUs
    # full speed: CPU per session read 22.5 or 30 ms, run by run.
    cpus = ({max(os.sched_getaffinity(0))} if args.workload == "sim_fleet"
            else None)
    t0 = time.monotonic_ns()
    res = run_checked(cmd, timeout=args.seconds + 120, cpus=cpus)
    metrics = dict(res["metrics"])
    metrics["setup_s"] = {
        "value": (res["extras"]["first_result_mono_ns"] - t0) / 1e9,
        "unit": "s"}
    return res, metrics


class Proxyd:
    """A wira_proxyd on loopback; ready once its port file is written."""

    def __init__(self, workdir, schemes, trace_dir=None):
        self.ports = os.path.join(workdir, "proxyd.ports")
        self.err_path = os.path.join(workdir, "proxyd.err")
        cmd = [binary("wira_proxyd"), "--schemes", schemes, "--port-file",
               self.ports]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        want = len(schemes.split(","))
        self.err = open(self.err_path, "w")
        t0 = time.monotonic_ns()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=self.err)
        deadline = time.monotonic() + 30
        while True:
            try:
                with open(self.ports) as f:
                    if len(f.read().splitlines()) >= want:
                        break
            except FileNotFoundError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("wira_proxyd did not become ready")
            time.sleep(0.0002)
        self.setup_s = (time.monotonic_ns() - t0) / 1e9
        self.base_rss_kb = proc_status(self.proc.pid, "VmRSS")

    def sample(self):
        pid = self.proc.pid
        user, sys_ = proc_cpu(pid)
        return {"user_s": user, "sys_s": sys_,
                "hwm_kb": proc_status(pid, "VmHWM"),
                "vcsw": proc_status(pid, "voluntary_ctxt_switches")}

    def stop(self):
        """SIGTERM, wait, and return (sessions served, datagrams received)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.err.close()
        with open(self.err_path) as f:
            m = re.search(r"served (\d+) session\(s\), (\d+) datagram", f.read())
        return (int(m.group(1)), int(m.group(2))) if m else (-1, -1)


def edge_workload(args, workdir, trace_dir=None, predict=0):
    """wb_edge against a fresh proxyd.  Arrival rate, watch time and the
    origin latency (proxyd's default) are wb_edge's constants."""
    proxyd = Proxyd(workdir, "wira", trace_dir)
    try:
        cmd = [binary("wb_edge"), "--ports", proxyd.ports, "--seconds",
               str(args.seconds), "--seed", str(args.seed),
               "--predict", str(predict)]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        res = run_checked(cmd, timeout=args.seconds + 120)
        usage = proxyd.sample()
    finally:
        served, dgrams = proxyd.stop()
    res["proxyd"] = dict(usage, served=served, dgrams_rx=dgrams,
                         setup_s=proxyd.setup_s,
                         base_rss_kb=proxyd.base_rss_kb)
    viewers = int(res["extras"]["viewers"])
    if served != viewers:
        res["correct"] = False
        res.setdefault("check_failures", []).append(
            "proxyd served %d sessions, %d viewers started" % (served, viewers))
    metrics = dict(res["metrics"])
    cpu_s = usage["user_s"] + usage["sys_s"]
    metrics["setup_s"] = {"value": proxyd.setup_s, "unit": "s"}
    # The load is open loop and under capacity, so viewers served per wall
    # second is the offered rate.  What the program sets is how many
    # viewers one busy proxyd core would serve per second at this mix:
    # sessions per CPU second, the reciprocal of cpu_ms_per_session.
    metrics["sessions_per_s"] = {"value": served / max(cpu_s, 1e-9),
                                 "unit": "sessions/s"}
    metrics["cpu_ms_per_session"] = {
        "value": cpu_s * 1000.0 / max(served, 1), "unit": "ms"}
    metrics["peak_rss_mb"] = {"value": usage["hwm_kb"] / 1024.0, "unit": "MB"}
    return res, metrics


def end_to_end(args):
    if args.workload in SIM:
        res, metrics = sim_workload(args)
    else:
        workdir = os.path.join(BUILD, "run-%d" % os.getpid())
        os.makedirs(workdir, exist_ok=True)
        try:
            res, metrics = edge_workload(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for k, m in metrics.items():
        if k not in END_TO_END:
            res["extras"][k] = m["value"]
    return res, {k: metrics[k] for k in END_TO_END}


def trace_join_phases(trace_dir):
    """p50 of each FFCT phase over the joined proxyd/viewer sqlog pairs."""
    out = subprocess.run([binary("wira_trace_join"), "--trace-dir", trace_dir,
                          "-v"], stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=120)
    phases = {}
    for line in out.stdout.splitlines():
        if not line.startswith("OK "):
            continue
        for key, val in re.findall(r"(\w+)=(\d+)", line):
            phases.setdefault(key, []).append(int(val) / 1000.0)
    p50 = {}
    for name in ("handshake", "origin_fetch", "ff_parse", "delivery",
                 "frame_recv"):
        vals = sorted(phases.get(name, []))
        p50[name] = vals[(len(vals) - 1) // 2] if vals else 0.0
    return p50, len(phases.get("handshake", []))


def per_layer(args):
    """Traced pass: spans and replays from wb_layers; for the edge also the
    proxyd process counters and the joined sqlog phase split."""
    res = run_checked([binary("wb_layers"), "--workload", args.workload,
                       "--seed", str(args.seed), "--seconds",
                       str(args.seconds)], timeout=args.seconds + 150)
    metrics = dict(res["metrics"])
    if args.workload in EDGE:
        workdir = os.path.join(BUILD, "run-%d" % os.getpid())
        trace_dir = os.path.join(workdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        try:
            edge, _ = edge_workload(args, workdir, trace_dir, predict=200)
            phases, joined = trace_join_phases(trace_dir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        p = edge["proxyd"]
        served = max(p["served"], 1)
        dgrams = max(p["dgrams_rx"] + edge["extras"]["dgrams_rx"], 1)
        cpu_s = p["user_s"] + p["sys_s"]
        metrics.update({
            "net.dgrams_per_session": {"value": dgrams / served,
                                       "unit": "dgrams"},
            "net.cpu_us_per_dgram": {"value": cpu_s * 1e6 / dgrams,
                                     "unit": "us"},
            "net.sys_share": {"value": p["sys_s"] / cpu_s if cpu_s else 0.0,
                              "unit": "ratio"},
            "net.wakeups_per_dgram": {"value": p["vcsw"] / dgrams,
                                      "unit": "count"},
            "net.rss_kb_per_session": {
                "value": (p["hwm_kb"] - p["base_rss_kb"]) / served,
                "unit": "KB"},
        })
        # The two timing faults left out of the edge's attempted count,
        # as shares of the viewers started.
        viewers = edge["extras"]["viewers"]
        metrics["net.below_origin_share"] = {
            "value": edge["extras"]["below_origin"] / viewers,
            "unit": "ratio"}
        metrics["app.stuck_share"] = {
            "value": edge["extras"]["stuck"] / viewers, "unit": "ratio"}
        for name, v in phases.items():
            metrics["obs.phase.%s_p50_ms" % name] = {"value": v, "unit": "ms"}
        metrics["ffct_p99_ms"] = edge["metrics"]["ffct_p99_ms"]
        res["correct"] = res["correct"] and edge["correct"] and joined > 0
        res["check_failures"] = (res.get("check_failures", []) +
                                 edge.get("check_failures", []))
        # The traced edge run's viewers are operations of this run too.
        res["attempted"] += edge["attempted"]
        res["failed"] += edge["failed"]
        res["extras"].update({
            "edge_sim_ffct_p50_ms": edge["extras"]["sim_ffct_p50_ms"],
            "edge_client_ffct_p50_ms": edge["extras"]["client_ffct_p50_ms"],
            "edge_ffct_p50_ms": edge["metrics"]["ffct_p50_ms"]["value"],
            "joined_pairs": joined})
    else:
        # The stale loop clock needs real sockets; the simulator has none.
        metrics["net.below_origin_share"] = {"value": 0.0, "unit": "ratio"}
    missing = [k for k in PER_LAYER if k not in metrics]
    if missing:
        raise RuntimeError("per-layer metrics missing: %s" % missing)
    return res, {k: metrics[k] for k in PER_LAYER}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=SIM + EDGE)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.selftest:
        sys.exit(subprocess.run([binary("wb_selftest")]).returncode)

    res, metrics = per_layer(args) if args.trace else end_to_end(args)
    # The summary goes to stdout, ahead of the result line, so the counts
    # that are not metrics (left-out edge viewers, FF_Size interleaves)
    # stay in the benchmark's own output.
    for name, m in sorted(metrics.items()):
        log("%-34s %14.6g %s" % (name, m["value"], m["unit"]), sys.stdout)
    log("checks: %s; extras: %s" % (
        "pass" if res["correct"] else "FAIL %s" % res.get("check_failures"),
        json.dumps(res.get("extras", {}), sort_keys=True)), sys.stdout)
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
