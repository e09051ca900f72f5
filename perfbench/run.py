#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the admission service.

    python3 perfbench/run.py --workload serve_single --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the project from source
in Release (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, default
.bench_build. Every run measures for about --seconds, checks that the
outputs are correct, and prints one JSON object as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a traced run: timing decorators, span-timed stage replay,
and the layer budget table). Details of each run, the host fingerprint and
the layer budget land in .bench_results/. See perfbench/README.md.
"""
import argparse
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import analysis as A  # noqa: E402

# Fleet served by the cluster workload: Fleet::heterogeneous(4) serves at its
# machines' ceilings 70 + 35 + 17.5 + 70, and admits against the strongest
# guaranteed floor, 2.
FLEET4_RATE = 192.5
FLEET4_C_LO = 2.0
BAND = (1.0, 2.0)     # single engine: declared band, served at c_hi
VIRTUAL_LOAD = 1.2    # offered virtual work / capacity in every serve phase
# Mean job workload, in virtual time units at rate 1. Both engines clamp a
# completion that lands within 1e-9 x deadline past the deadline to the
# deadline and then check that less than 1e-6 x max(1, workload) work is
# left (src/sim/engine.cpp, src/cloud/multi_engine.cpp). The residue grows
# with the virtual clock, so with mean workload 1 a session's late jobs
# could trip the check and abort the server (once in thirty 3-second
# fleet sessions at 10k SUBMIT/s). At 0.01 and --seconds 40 a peak
# session's virtual horizon stays below 2 (fleet, fastest machine 70) and
# 170 (single engine, rate 2), where the residue cannot reach the
# tolerance: 70 x 1e-9 x 2 and 2 x 1e-9 x 170 are below 1e-6.
MEAN_WORKLOAD = 0.01
MAX_IN_FLIGHT = 4096

# Each workload runs serve phases (base, peak) in one server mode and a batch
# Monte-Carlo part; SHARE splits --seconds between them. Every end-to-end
# metric is measured in both workloads. The single engine's peak is 15k
# SUBMIT/s: at 25k/s and more its sessions' virtual horizons grow past the
# point where the completion check (see MEAN_WORKLOAD) can trip. The sharded
# plane is not a workload: with its three server threads and pb_load on
# every vCPU of the 4-vCPU host it was tuned on, its latencies varied by up
# to half their median from run to run.
WORKLOADS = {
    "serve_single": dict(mode="single", base=5000, peak=15000),
    "serve_cluster": dict(mode="cluster", base=3000, peak=12000),
}
SHARE = dict(base=0.35, peak=0.4, batch=0.25)
# The engine checks behind the known abort (src/sim/engine.cpp,
# src/cloud/multi_engine.cpp): a session that ends in one of them fails the
# requests it still owed; any other abnormal exit fails the run.
KNOWN_ABORTS = ("completion event with", "completion with work left")
PHASE_STREAM = {"base": 1, "peak": 2}  # arrival-stream offset per phase
ROUNDS = 6             # (base, peak, batch) rounds per untraced run
EXTRA_BOOTS = 5        # set-up samples per run beyond the phase boots
LATENCY_BLOCK = 1000   # tail percentiles: over blocks of this many arrivals
CPU_CHUNK = 5          # server CPU per submit: median over chunks of this
                       # many of pb_load's 1000-arrival CPU samples
FAILED_LATENCY = 1e9       # reported value of a percentile that is +inf
LOADGEN_BUSY_LIMIT = 90.0  # % generator CPU: beyond it the run is invalid
HOST_IDLE_WAIT_S = 90      # a busy host is waited on this long, then refused


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# --- build and host ----------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("project sources (src/) not found next to perfbench/")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(bdir, "perfbench-build.log")
    with open(logf, "a") as out:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            r = subprocess.run(["cmake", "-S", HERE, "-B", bdir, *gen,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=out, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                raise BenchError(f"cmake configure failed (see {logf})")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        r = subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                           stdout=out, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            raise BenchError(f"build failed (see {logf})")
    cache = open(os.path.join(bdir, "CMakeCache.txt")).read()
    btype = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    if not btype or btype.group(1) != "Release":
        raise BenchError("refusing a non-Release build tree")
    san = re.search(r"^SJS_SANITIZE:\w+=(.*)$", cache, re.M)
    if san and san.group(1).strip():
        raise BenchError("refusing a sanitized build tree")
    compiler = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    return bdir, compiler.group(1) if compiler else "?"


def fingerprint(compiler):
    model = "?"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "kernel": platform.release(), "compiler": version,
            "build_type": "Release", "python": platform.python_version()}


def runnable_tasks():
    """Tasks runnable on the host right now, this one excluded: the median
    of 20 readings of /proc/stat's procs_running over a second."""
    readings = []
    for _ in range(20):
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith("procs_running"):
                    readings.append(int(line.split()[1]) - 1)
        time.sleep(0.05)
    return statistics.median(readings) if readings else 0


def check_host_idle():
    """Refuses a host that is saturated when the run starts: more runnable
    tasks than CPUs for HOST_IDLE_WAIT_S seconds on end. Just after a build
    or a test suite the 1-minute load average stays high for a minute while
    the host is already idle, so the check reads the runnable tasks and
    waits for them to drop. PERFBENCH_ALLOW_BUSY=1 skips it. Returns the
    1-minute load average for the fingerprint."""
    deadline = time.monotonic() + HOST_IDLE_WAIT_S
    limit = os.cpu_count() or 1
    while os.environ.get("PERFBENCH_ALLOW_BUSY") != "1":
        running = runnable_tasks()
        if running <= limit:
            break
        if time.monotonic() > deadline:
            raise BenchError(f"host busy: {running} runnable tasks on {limit} CPUs "
                             f"for {HOST_IDLE_WAIT_S} s")
        log(f"host busy ({running} runnable tasks on {limit} CPUs); waiting")
        time.sleep(2.0)
    return os.getloadavg()[0]


# --- processes ---------------------------------------------------------------

def cpu_sets():
    """Pins the load driver to one CPU and the measured process to the rest,
    so run-to-run placement of client and server threads stays the same."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return {"client": None, "server": None}
    return {"client": {cpus[0]}, "server": set(cpus[1:])}


CPUS = cpu_sets()


def pinned(role):
    cpus = CPUS[role]
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


class Children:
    """Every process the run starts; reaps them all on the way out."""

    def __init__(self):
        self.procs = []

    def start(self, cmd, **kw):
        p = subprocess.Popen(cmd, preexec_fn=pinned("server"), **kw)
        self.procs.append(p)
        return p

    def reap(self, p):
        """Waits for p; returns its exit code."""
        p.wait()
        self.procs.remove(p)
        return p.returncode

    def stop_all(self):
        for p in list(self.procs):
            if p.poll() is None:
                p.kill()
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        self.procs.clear()


def read_line_matching(p, prefix, timeout):
    """Reads p's stdout until a line starting with `prefix`; returns it."""
    deadline = time.monotonic() + timeout
    fd = p.stdout.fileno()
    buf = b""
    while time.monotonic() < deadline:
        r, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        if not r:
            break
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        buf += chunk
        for line in buf.split(b"\n")[:-1]:
            if line.startswith(prefix.encode()):
                return line.decode()
    raise BenchError(f"no '{prefix}' line from {p.args[0]} within {timeout}s")


# --- serve phases ------------------------------------------------------------

def accel_for(mode, rate):
    """Virtual seconds per wall second that keep the offered virtual load at
    VIRTUAL_LOAD x capacity, so the engine's work per request is the same at
    every rate."""
    capacity = FLEET4_RATE if mode == "cluster" else BAND[1]
    return rate * MEAN_WORKLOAD / (VIRTUAL_LOAD * capacity)


def server_cmd(ctx, mode, accel, journal, traced, report=None):
    """sjs_serve, or for a traced session pb_probe host, which serves the
    same fleet, rental policy and scheduler."""
    if traced:
        cmd = [ctx["bin"]("pb_probe"), "host", f"--mode={mode}", f"--report={report}",
               f"--spans={os.path.join(ctx['work'], 'spans_host.csv')}"]
    elif mode == "cluster":
        cmd = [ctx["bin"]("sjs_serve"), "--port=0", "--cluster=4", "--rental=threshold",
               "--cluster-key=deadline"]
    else:
        cmd = [ctx["bin"]("sjs_serve"), "--port=0", "--scheduler=V-Dover"]
    cmd += [f"--accel={accel!r}", f"--journal={journal}",
            f"--max-in-flight={MAX_IN_FLIGHT}"]
    if mode != "cluster":
        cmd += [f"--c-lo={BAND[0]!r}", f"--c-hi={BAND[1]!r}"]
    return cmd


def boot(ctx, cmd, log_path):
    """Starts a server; returns (process, port, seconds to LISTENING)."""
    t0 = time.monotonic()
    p = ctx["children"].start(cmd, stdout=subprocess.PIPE,
                              stderr=open(log_path, "ab"))
    line = read_line_matching(p, "LISTENING", 30)
    return p, int(line.split()[1]), time.monotonic() - t0


def peak_rss_mb(pid):
    """VmHWM of a live process, in MB (0 when /proc cannot say)."""
    try:
        for line in open(f"/proc/{pid}/status"):
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def shutdown(ctx, p):
    """SIGTERMs a server; returns (exit code, peak RSS MB before the drain)."""
    rss = peak_rss_mb(p.pid)
    p.send_signal(signal.SIGTERM)
    p.stdout.read()
    return ctx["children"].reap(p), rss


def replay_ok(ctx, mode, journal, work):
    """The journal replays through sjs_sim to byte-identical outcomes."""
    out = os.path.join(work, "replay.csv")
    if mode == "cluster":
        cmd = [ctx["bin"]("sjs_sim"), f"--cluster-bundle={journal}"]
    else:
        cmd = [ctx["bin"]("sjs_sim"), f"--bundle={journal}", "--scheduler=V-Dover"]
    r = subprocess.run(cmd + [f"--outcomes-csv={out}"], capture_output=True)
    live = os.path.join(journal, "outcomes.csv")
    if r.returncode != 0 or not os.path.isfile(live) or not os.path.isfile(out):
        return False
    return open(live, "rb").read() == open(out, "rb").read()


def known_abort(code, server_log):
    """True when a server died of SIGABRT on one of KNOWN_ABORTS."""
    return code == -signal.SIGABRT and any(m in server_log for m in KNOWN_ABORTS)


def journal_admits(journal):
    with open(os.path.join(journal, "jobs.csv")) as f:
        return sum(1 for _ in f) - 1


def serve_phase(ctx, w, phase, rate, seconds, seed, rnd=0, traced=False):
    """One server session under one pb_load stream; returns its raw figures
    (see collect) plus the session's checks."""
    mode = w["mode"]
    tag = f"{phase}{rnd}{'_traced' if traced else ''}"
    work = os.path.join(ctx["work"], tag)
    os.makedirs(work)
    journal = os.path.join(work, "journal")
    accel = accel_for(mode, rate)
    host_report = os.path.join(work, "host.json")
    p, port, setup = boot(ctx, server_cmd(ctx, mode, accel, journal, traced, host_report),
                          os.path.join(work, "server.log"))
    rec_path = os.path.join(work, "records.bin")
    c_lo = FLEET4_C_LO if mode == "cluster" else BAND[0]
    load = subprocess.run(
        [ctx["bin"]("pb_load"), f"--port={port}", f"--rate={rate}",
         f"--seconds={seconds!r}", f"--seed={seed * 7919 + 10 * rnd + PHASE_STREAM[phase]}",
         f"--mean-workload={MEAN_WORKLOAD!r}", f"--c-lo={c_lo!r}", f"--server-pid={p.pid}",
         f"--out={rec_path}"],
        capture_output=True, text=True, preexec_fn=pinned("client"))
    code, rss_mb = shutdown(ctx, p)
    if load.returncode != 0:
        raise BenchError(f"pb_load failed: {load.stderr.strip()}")
    summary = json.loads(load.stdout.strip().splitlines()[-1])
    raw = collect(A.iter_records(rec_path, summary["fields"]), summary, accel)
    os.unlink(rec_path)
    # A server that died of the known engine abort (KNOWN_ABORTS) fails
    # every request it still owed: those are counted as lost, and with no
    # outcomes.csv there is nothing to replay. Any other non-zero exit (a
    # journal failure, another check, another signal) is an incorrect
    # session.
    with open(os.path.join(work, "server.log"), errors="replace") as f:
        server_log = f.read()
    crashed = known_abort(code, server_log)
    raw.update(setups=[setup], rss_mb=rss_mb, crashes=int(crashed), sessions=1)
    if code != 0:
        tail = server_log[-400:].strip()
        raw["server_errors"] = [tail]
        log(f"{tag}: server exited {code}: {tail}")
    rows, acked = journal_admits(journal), raw["counts"]["accepted"]
    raw["checks"] = {
        f"{tag}.server_exit_ok": code == 0 or crashed,
        # An aborted server may have journalled admits whose ACCEPTED it
        # never got to send; those arrivals are among the failed.
        f"{tag}.journal_rows_match_accepted":
            acked <= rows <= acked + raw["counts"]["failed"] if crashed else rows == acked,
        f"{tag}.replay_byte_identical": crashed or replay_ok(ctx, mode, journal, work),
    }
    if traced:
        raw["host"] = json.load(open(host_report)) if not crashed else {}
        raw["journal"] = journal  # the stage replay reads it, then drops it
    else:
        discard(work)
    return raw


def discard(path):
    """Deletes a phase's session files at once: removed before writeback,
    tens of MB of journal never reach the disk, so one phase's I/O does not
    slow the next phase down."""
    shutil.rmtree(path, ignore_errors=True)


def collect(records, summary, accel):
    """One pass over a session's per-arrival records: the raw samples and
    sums that merge() pools across sessions and summarize() reduces."""
    counts = A.failure_counts(())
    ack_lat, q_lat, late = array("d"), array("d"), array("d")
    accepted, completions = [], []
    completed = admitted = 0.0
    answered = resolved = 0
    for r in records:
        A.count_outcome(counts, r)
        ack_lat.append(A.ack_latency(r))
        q = A.query_latency(r)
        if q is not None:
            q_lat.append(q)
        x = A.lateness(r)
        if x is not None:
            late.append(x)
        stamp = A.accepted_stamp(r)
        if stamp:
            accepted.append(stamp)
            resolved += r[A.F["done_kind"]] == r[A.F["done_kind"]]  # not NaN
        done = A.completion(r)
        if done:
            completions.append(done)
        c, a = A.captured_value(r)
        completed += c
        admitted += a
        answered += int(r[A.F["outcome"]]) in (A.ACCEPTED, A.REJECTED, A.SHED, A.ERROR)
    lags = array("d", A.notify_lags(accepted, completions, accel) if completions else [])
    return dict(counts=counts, ack_lat=ack_lat, q_lat=q_lat, late=late, lags=lags,
                completed_value=completed, admitted_value=admitted, answered=answered,
                resolved=resolved, server_cpu_s=summary["server_cpu_s"],
                cpu_chunks=A.cpu_per_answer(summary["cpu_samples"], CPU_CHUNK),
                busy_s=summary["gen_busy_s"], window_s=summary["window_s"])


def merge(parts):
    """Pools the raw figures of several sessions of one phase."""
    out = {}
    for part in parts:
        for k, v in part.items():
            if k == "counts":
                c = out.setdefault(k, dict.fromkeys(v, 0))
                for ck, cv in v.items():
                    c[ck] += cv
            elif k == "checks":
                out.setdefault(k, {}).update(v)
            elif k == "rss_mb":
                out[k] = max(out.get(k, 0.0), v)
            elif isinstance(v, (int, float, array, list)):
                out[k] = out[k] + v if k in out else v
            else:
                out[k] = v
    return out


def summarize(raw):
    """The reported figures of one (pooled) phase."""
    n = raw["counts"]
    busy = 100.0 * raw["busy_s"] / raw["window_s"]
    p99, blocks, samples = A.blocked_percentile(raw["ack_lat"], 0.99, LATENCY_BLOCK)
    q_lat, lags, late = raw["q_lat"], raw["lags"], raw["late"]
    return dict(
        n, ack_p50_ms=A.percentile(raw["ack_lat"], 0.50) * 1e3, ack_p99_ms=p99 * 1e3,
        ack_samples=samples,
        ack_blocks=blocks, ack_p99_pooled_ms=A.percentile(raw["ack_lat"], 0.99) * 1e3,
        query_p99_ms=(A.blocked_percentile(q_lat, 0.99, LATENCY_BLOCK)[0] * 1e3
                      if q_lat else A.INF),
        query_samples=len(q_lat),
        notify_lag_p99_ms=(A.blocked_percentile(lags, 0.99, LATENCY_BLOCK)[0] * 1e3
                           if lags else A.INF),
        notify_lag_p99_pooled_ms=A.percentile(lags, 0.99) * 1e3 if lags else A.INF,
        notify_samples=len(lags),
        server_cpu_us_per_submit=1e6 * statistics.median(raw["cpu_chunks"]),
        server_cpu_us_per_submit_pooled=1e6 * raw["server_cpu_s"] / max(1, raw["answered"]),
        completed_value=raw["completed_value"], admitted_value=raw["admitted_value"],
        resolved=raw["resolved"], late_p99_ms=A.percentile(late, 0.99) * 1e3 if late else 0.0,
        busy_pct=busy, valid=busy < LOADGEN_BUSY_LIMIT, sessions=raw["sessions"],
        crashes=raw["crashes"], server_errors=raw.get("server_errors", []),
        setups_s=raw["setups"], rss_mb=raw["rss_mb"])


def extra_boots(ctx, w, n):
    times = []
    for i in range(n):
        work = os.path.join(ctx["work"], f"boot{i}")
        os.makedirs(work)
        p, _, setup = boot(ctx, server_cmd(ctx, w["mode"], 1.0, os.path.join(work, "journal"),
                                           False), os.path.join(work, "server.log"))
        shutdown(ctx, p)
        times.append(setup)
    return times


# --- batch -------------------------------------------------------------------

def batch_run(ctx, seconds, seed, traced=False):
    """pb_probe mc; returns its report."""
    report = os.path.join(ctx["work"], f"mc_{time.monotonic_ns()}.json")
    cmd = [ctx["bin"]("pb_probe"), "mc", f"--seconds={seconds!r}", f"--seed={seed}",
           f"--report={report}"] + (["--traced"] if traced else [])
    p = ctx["children"].start(cmd)
    if ctx["children"].reap(p) != 0:
        raise BenchError(f"pb_probe mc exited {p.returncode}")
    return json.load(open(report))


def digests_match_baselines(ctx):
    """sjs_digest's cells (untimed) reproduce the committed baselines."""
    ok = True
    for extra, baseline in (([], "digest_baseline.txt"),
                            (["--cluster"], "cluster_digest_baseline.txt")):
        r = subprocess.run([ctx["bin"]("sjs_digest"), *extra], capture_output=True)
        want = open(os.path.join(ROOT, "tests", baseline), "rb").read()
        ok = ok and r.returncode == 0 and r.stdout == want
    return ok


# --- workloads ---------------------------------------------------------------

def run_untraced(ctx, w, seconds, seed):
    """ROUNDS rounds of (base session, peak session, batch chunk): each
    figure is pooled over the whole run rather than one stretch of it, so a
    slow spell of the host lands on every figure a little instead of on one
    figure entirely."""
    parts = {"base": [], "peak": []}
    batches = []
    for rnd in range(ROUNDS):
        for phase in ("base", "peak"):
            parts[phase].append(serve_phase(ctx, w, phase, w[phase],
                                            SHARE[phase] * seconds / ROUNDS, seed, rnd))
        batches.append(batch_run(ctx, SHARE["batch"] * seconds / ROUNDS, seed + 1000 * rnd))
    base, peak = (merge(parts[ph]) for ph in ("base", "peak"))
    checks = {**base["checks"], **peak["checks"]}
    base, peak = summarize(base), summarize(peak)
    checks["generator_valid"] = base["valid"] and peak["valid"]
    batch = {k: sum(b[k] for b in batches)
             for k in ("mc_sims", "mc_refused", "cluster_mc_runs", "cluster_mc_refused")}
    batch["mc_cycle_rates"] = [r for b in batches for r in b["mc_cycle_rates"]]
    batch["cluster_mc_cycle_rates"] = [r for b in batches for r in b["cluster_mc_cycle_rates"]]
    checks["digests_match_baselines"] = digests_match_baselines(ctx)
    setups = base["setups_s"] + peak["setups_s"] + extra_boots(ctx, w, EXTRA_BOOTS)
    value_pct = 100.0 * ((base["completed_value"] + peak["completed_value"])
                         / (base["admitted_value"] + peak["admitted_value"]))
    attempted = base["attempted"] + peak["attempted"]
    failed = base["failed"] + peak["failed"]
    if base["crashes"] + peak["crashes"]:
        log(f"WARNING: {base['crashes'] + peak['crashes']} server session(s) aborted; "
            "their unanswered requests count as failed")
    metrics = {
        "setup_s": statistics.median(setups),
        "ack_p50_ms.base": base["ack_p50_ms"],
        "ack_p99_ms.base": base["ack_p99_ms"],
        "ack_p50_ms.peak": peak["ack_p50_ms"],
        "ack_p99_ms.peak": peak["ack_p99_ms"],
        "query_p99_ms.peak": peak["query_p99_ms"],
        "notify_lag_p99_ms.peak": peak["notify_lag_p99_ms"],
        "server_cpu_us_per_submit.peak": peak["server_cpu_us_per_submit"],
        "answered_pct": 100.0 * (attempted - failed) / attempted,
        "value_captured_pct": value_pct,
        "mc_runs_per_s": A.fast_phase_rate(batch["mc_cycle_rates"]),
        "cluster_mc_runs_per_s": A.fast_phase_rate(batch["cluster_mc_cycle_rates"]),
        "rss_peak_mb": peak["rss_mb"],
    }
    # Monte-Carlo instances the engine refuses are screened out of the
    # batch inputs before they are timed (pb_probe mc); the count is kept.
    if batch["mc_refused"] + batch["cluster_mc_refused"]:
        log(f"note: {int(batch['mc_refused'])} Table-I and "
            f"{int(batch['cluster_mc_refused'])} fleet instances were refused by the "
            "engine and left out of the batch inputs")
    batch_runs = batch["mc_sims"] + batch["cluster_mc_runs"]
    detail = {"base": base, "peak": peak, "batch": batch, "setups_s": setups,
              "failed_pct": 100.0 * failed / attempted}
    return metrics, checks, attempted + int(batch_runs), failed, detail


def stage_replay(ctx, w, phase):
    journal = phase["journal"]
    report = os.path.join(ctx["work"], "stages.json")
    r = subprocess.run([ctx["bin"]("pb_probe"), "stages", f"--journal={journal}",
                        f"--kind={'cluster' if w['mode'] == 'cluster' else 'single'}",
                        f"--scratch={os.path.join(ctx['work'], 'stages')}",
                        f"--report={report}",
                        f"--spans={os.path.join(ctx['work'], 'spans_stages.csv')}"],
                       capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError(f"stage replay failed: {r.stderr.strip()}")
    return json.load(open(report))


def per_call(report, name, scale):
    count = report.get(f"{name}.count", 0)  # 0 when that replay was refused
    return report.get(f"{name}.total_ns", 0) / count / scale if count else 0.0


def layer_budget(w, stages, untraced_cpu_us, replies_per_submit):
    """Per-submit self time of each serving stage (us), measured one call at
    a time by the stage replay, against the untraced server CPU/submit."""
    n = stages["jobs"]

    def total_us(name, self_time=False):
        return stages.get(f"{name}.{'self_ns' if self_time else 'total_ns'}", 0) / n / 1e3

    rows = [("frame decode (SUBMIT)", total_us("serve.decode")),
            ("admission gate", total_us("serve.gate"))]
    if w["mode"] == "cluster":
        hooks = sum(total_us(f"cluster.on_{k}") for k in ("release", "complete", "expire"))
        rows += [("journal append (cluster)", total_us("cluster.journal_append")),
                 ("engine admit (cloud)", total_us("cloud.admit_live")),
                 ("engine advance self (cloud)", total_us("cloud.advance_to", True)),
                 ("dispatcher hooks", hooks)]
    else:
        hooks = sum(total_us(f"sched.on_{k}")
                    for k in ("release", "complete", "expire", "timer", "capacity_change"))
        rows += [("journal append", total_us("serve.journal_append")),
                 ("engine admit", total_us("sim.admit_live")),
                 ("engine advance self", total_us("sim.advance_to", True)),
                 ("scheduler hooks", hooks)]
    rows.append((f"encode x{replies_per_submit:.2f} replies", total_us("serve.encode")
                 * replies_per_submit))
    explained = sum(v for _, v in rows)
    rows += [("sum of stages", explained),
             ("untraced server CPU per submit (peak)", untraced_cpu_us),
             ("residual (event loop, syscalls, unexplained)", untraced_cpu_us - explained)]
    return rows


def format_budget(name, rows, fp):
    lines = [f"Layer budget: {name}  (us per submit; {fp['cpu_model']}, "
             f"nproc {fp['nproc']}, {fp['compiler']})", ""]
    width = max(len(r) for r, _ in rows)
    lines += [f"  {r.ljust(width)}  {v:10.3f}" for r, v in rows]
    return "\n".join(lines) + "\n"


def run_traced(ctx, w, seconds, seed, name):
    # Sessions as long as one untraced round's: long sessions are where the
    # engines' aborts (see WORKLOADS) turned up.
    secs = max(1.0, SHARE["peak"] * seconds / ROUNDS)
    plain_raw = serve_phase(ctx, w, "peak", w["peak"], secs, seed)
    # The layer timings need a session that ran to its drain: one the engine
    # aborted is re-run on the next arrival stream, at most twice.
    for attempt in range(3):
        traced_raw = serve_phase(ctx, w, "peak", w["peak"], secs, seed, rnd=attempt,
                                 traced=True)
        if not traced_raw["crashes"]:
            break
        discard(os.path.dirname(traced_raw["journal"]))
    checks = {**plain_raw["checks"], **traced_raw["checks"]}
    if traced_raw["crashes"]:
        raise BenchError("three traced sessions in a row were aborted by the engine")
    plain, traced = summarize(plain_raw), summarize(traced_raw)
    host = traced_raw["host"]
    stages = stage_replay(ctx, w, traced_raw)
    discard(os.path.dirname(traced_raw["journal"]))
    discard(os.path.join(ctx["work"], "stages"))
    batch_secs = max(1.0, SHARE["batch"] * seconds)
    mc_traced = batch_run(ctx, batch_secs, seed, traced=True)

    # Layers both halves measure (scheduler and dispatcher hooks) are reported
    # from the stage replay of the workload's own session; the batch side's
    # figures stay in the run summary.
    sched_src = cloud_src = stages
    sched_hooks = ("release", "complete", "expire", "timer")
    replies = 1.0 + (traced["resolved"] / max(1, traced["accepted"]))
    budget = layer_budget(w, stages, plain["server_cpu_us_per_submit"], replies)
    budget_text = format_budget(name, budget, ctx["fingerprint"])
    residual = budget[-1][1]

    metrics = {
        "serve.decode_ns": per_call(stages, "serve.decode", 1.0),
        "serve.encode_ns": per_call(stages, "serve.encode", 1.0),
        "serve.gate_ns": per_call(stages, "serve.gate", 1.0),
        "serve.journal_append_us": per_call(stages, "serve.journal_append", 1e3),
        "serve.step_us": host["serve.step_us"],
        "serve.submits_per_step": host["serve.submits_per_step"],
        "serve.residual_us_per_submit": residual,
        "conc.hop_us": stages["conc.hop_us"],
        "conc.wakeups_per_msg": stages["conc.wakeups_per_msg"],
        "conc.full_count": stages["conc.full_count"],
        "sim.admit_live_ns": stages.get("sim.admit_live_ns", 0.0),
        "sim.advance_us": stages.get("sim.advance_us", 0.0),
        "sim.events_per_advance": stages.get("sim.events_per_advance", 0.0),
        "sim.run_ms": mc_traced["sim.run_ms"],
        "sim.events_per_s": mc_traced["sim.events_per_s"],
        "sim.dead_event_peak_ratio": mc_traced["sim.dead_event_peak_ratio"],
        **{f"sched.on_{k}_ns": per_call(sched_src, f"sched.on_{k}", 1.0) for k in sched_hooks},
        "sched.hooks_per_job": sched_src.get("sched.hooks_per_job", 0.0),
        "sched.preemptions_per_job": sched_src.get("sched.preemptions_per_job", 0.0),
        "sched.queue_peak": sched_src.get("sched.queue_peak", 0.0),
        "jobs.generate_ms": mc_traced["jobs.generate_ms"],
        "capacity.sample_paths_ms": mc_traced["capacity.sample_paths_ms"],
        "cloud.advance_us": stages.get("cloud.advance_us", 0.0),
        "cloud.events_per_s": cloud_src.get("cloud.events_per_s", 0.0),
        "cloud.dispatches_per_job": cloud_src.get("cloud.dispatches_per_job", 0.0),
        **{f"cluster.on_{k}_ns": per_call(cloud_src, f"cluster.on_{k}", 1.0)
           for k in ("release", "complete", "expire")},
        "cluster.migrations_per_completed": cloud_src.get("cluster.migrations_per_completed", 0.0),
        "cluster.journal_append_us": per_call(stages, "cluster.journal_append", 1e3),
        "mc.run_overhead_us": mc_traced["mc.run_overhead_us"],
        "loadgen.late_p99_ms": plain["late_p99_ms"],
        "loadgen.busy_pct": plain["busy_pct"],
        "trace.overhead_pct": 100.0 * (traced["server_cpu_us_per_submit"]
                                       / plain["server_cpu_us_per_submit"] - 1.0),
        "trace.overhead_pct.mc": mc_traced["trace.overhead_pct.mc"],
        "failed_pct": 100.0 * plain["failed"] / plain["attempted"],
    }
    checks["decorated_outcomes_match_live"] = stages["decorated_outcomes_match"] == 1
    checks["decorated_digest_match"] = (stages["decorated_digest_match"] == 1
                                        and mc_traced["decorated_digest_match"] == 1)
    checks["generator_valid"] = plain["valid"]
    detail = {"plain": plain, "traced": traced, "host": host, "stages": stages,
              "mc_traced": mc_traced, "layer_budget": budget}
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return metrics, checks, attempted, failed, detail, budget_text


# --- main --------------------------------------------------------------------

def finite(value):
    """JSON has no infinity: a percentile that lands on a failed request
    (timed as +inf) is reported as FAILED_LATENCY."""
    return value if value == value and abs(value) != A.INF else FAILED_LATENCY


def load_declared():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    end_to_end, per_layer = load_declared()
    load_start = check_host_idle()
    bdir, compiler = build()
    fp = fingerprint(compiler)
    fp["loadavg_start"] = load_start

    name = args.workload
    w = WORKLOADS[name]
    results = os.path.join(ROOT, ".bench_results")
    run_id = f"{name}_seed{args.seed}_trace{args.trace}_{os.getpid()}"
    work = os.path.join(results, run_id)
    os.makedirs(work)
    ctx = {"bin": lambda b: os.path.join(bdir, b), "work": work,
           "children": Children(), "fingerprint": fp}
    budget_text = None
    try:
        if args.trace:
            metrics, checks, attempted, failed, detail, budget_text = run_traced(
                ctx, w, args.seconds, args.seed, name)
            declared = per_layer
        else:
            metrics, checks, attempted, failed, detail = run_untraced(
                ctx, w, args.seconds, args.seed)
            declared = end_to_end
    finally:
        ctx["children"].stop_all()
    fp["loadavg_end"] = os.getloadavg()[0]

    missing = set(declared) - set(metrics)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    correct = all(checks.values())
    if not checks.get("generator_valid", True):
        log("WARNING: the load generator, not the server, was the bottleneck")
    out = {"correct": correct, "attempted": int(attempted), "failed": int(failed),
           "metrics": ({k: {"value": finite(metrics[k]), "unit": declared[k]}
                        for k in declared} if correct else {})}
    # Keep the reports and spans; drop any session directory left behind.
    for entry in os.listdir(work):
        if os.path.isdir(os.path.join(work, entry)):
            shutil.rmtree(os.path.join(work, entry))
    summary = {"workload": name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "host": fp, "checks": checks, "result": out,
               "all_metrics": metrics, "detail": detail}
    with open(os.path.join(work, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, default=str)
    if budget_text:
        with open(os.path.join(work, "layer_budget.txt"), "w") as f:
            f.write(budget_text)
        sys.stderr.write(budget_text)
    if not correct:
        log("correctness checks failed: " + ", ".join(k for k, v in checks.items() if not v))
    log(f"host: {json.dumps(fp)}")
    print(json.dumps(out))
    return 0


def on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through main's finally


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(1)
