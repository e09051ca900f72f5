#!/usr/bin/env python3
"""Where a serving session's CPU goes: the server's own socket and poll calls.

    python3 scripts/serve_syscall_split.py --bin .bench_build --seconds 5

Builds scripts/syscall_shim.c into a temporary shared object, boots sjs_serve
the way perfbench's peak phases do (V-Dover, journal on, --max-in-flight=4096,
accel for the mode's peak rate at mean workload 0.01) with the shim in
LD_PRELOAD, drives it with perfbench's pb_load for --seconds, reads the
server's user and system CPU from /proc/<pid>/stat before SIGTERM, and
prints one JSON object: per mode, the submits pb_load sent, the server's
CPU per submit and its system-time share, and for every wrapped call that
ran, its calls per submit, its wall time per call and its CPU time per
call (both in microseconds; the shim's own clock reads add a fraction of a
microsecond to each CPU figure). --bin is a perfbench build directory
(python3 perfbench/run.py builds one into .bench_build).

Modes: single (15k SUBMIT/s, perfbench serve_single's peak), cluster
(--cluster=4, 12k SUBMIT/s, serve_cluster's peak) and sharded (--shards=2 at
the single engine's rate; not a perfbench workload). Compare figures only
within one invocation: hypervisor steal moves CPU times between runs.

    python3 scripts/serve_syscall_split.py --floor --seconds 5

--floor measures the host's floor under those calls instead, with no
sjs_serve: it builds scripts/loopback_floor.c, a bare loopback TCP
request/reply pair, and runs its server (with the shim in LD_PRELOAD) and
its client (15k requests/s, the single engine's peak rate) pinned to two
different CPUs, once with the server's ppoll given no timeout and once
with a near (200 us) timeout re-armed on every call, as a serving loop
arms its next-event timer. Per run it prints the server's send, recv
and ppoll calls per request with their wall and CPU time per call.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
MODES = {
    "single": dict(rate=15000.0, capacity=2.0, flags=["--scheduler=V-Dover",
                                                      "--c-lo=1.0", "--c-hi=2.0"]),
    "cluster": dict(rate=12000.0, capacity=192.5,
                    flags=["--cluster=4", "--rental=threshold", "--cluster-key=deadline"]),
    "sharded": dict(rate=15000.0, capacity=2.0, flags=["--scheduler=V-Dover", "--shards=2",
                                                       "--c-lo=1.0", "--c-hi=2.0"]),
}
MEAN_WORKLOAD = 0.01
FLOOR_RATE = 15000.0
FLOOR_TIMEOUT_US = 200


def build_shim(work):
    cc = os.environ.get("CC", "cc")
    out = os.path.join(work, "syscall_shim.so")
    subprocess.run([cc, "-O2", "-shared", "-fPIC", os.path.join(HERE, "syscall_shim.c"),
                    "-o", out, "-ldl"], check=True)
    return out


def build_floor(work):
    cc = os.environ.get("CC", "cc")
    out = os.path.join(work, "loopback_floor")
    subprocess.run([cc, "-O2", os.path.join(HERE, "loopback_floor.c"), "-o", out],
                   check=True)
    return out


def call_split(tallies, units, unit="submit"):
    """Per wrapped call that ran: its calls per unit, wall and CPU us per call."""
    calls = {}
    for name, t in tallies.items():
        if t["calls"] == 0:
            continue
        calls[name] = {f"per_{unit}": round(t["calls"] / units, 3),
                       "wall_us_per_call": round(t["wall_ns"] / t["calls"] / 1e3, 2),
                       "cpu_us_per_call": round(t["cpu_ns"] / t["calls"] / 1e3, 2)}
    return calls


def run_floor(floor, shim, seconds, timeout_us, work):
    """One loopback pair run: the server with the shim on this process's
    first allowed CPU, the client on its second."""
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu, client_cpu = (cpus[0], cpus[1]) if len(cpus) > 1 else (-1, -1)
    split_path = os.path.join(work, f"floor_{timeout_us}.json")
    env = dict(os.environ, LD_PRELOAD=shim, SJS_SYSCALL_SHIM_OUT=split_path)
    server = subprocess.Popen([floor, "server", str(timeout_us), str(server_cpu)],
                              stdout=subprocess.PIPE, text=True, env=env)
    line = server.stdout.readline()
    if not line.startswith("LISTENING"):
        server.kill()
        raise SystemExit("loopback_floor server did not start")
    client = subprocess.run([floor, "client", line.split()[1], repr(FLOOR_RATE),
                             repr(seconds), str(client_cpu)],
                            capture_output=True, text=True)
    server.wait()
    if client.returncode != 0 or server.returncode != 0:
        raise SystemExit(f"loopback_floor failed: {client.stderr.strip()}")
    sent = json.loads(client.stdout)
    with open(split_path) as f:
        tallies = json.load(f)
    calls = call_split(tallies, sent["requests"], "request")
    return {"ppoll_timeout_us": timeout_us or None, "rate": FLOOR_RATE, "seconds": seconds,
            "requests": sent["requests"], "late": sent["late"],
            "cpus": [server_cpu, client_cpu], "calls": calls}


def cpu_seconds(pid):
    """(user, system) CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    return int(fields[11]) / tick, int(fields[12]) / tick


def run_mode(bin_dir, shim, mode, seconds, seed, work):
    spec = MODES[mode]
    accel = spec["rate"] * MEAN_WORKLOAD / (1.2 * spec["capacity"])
    journal = os.path.join(work, f"journal_{mode}")
    split_path = os.path.join(work, f"split_{mode}.json")
    cmd = [os.path.join(bin_dir, "sjs_serve"), "--port=0", *spec["flags"],
           f"--accel={accel!r}", f"--journal={journal}", "--max-in-flight=4096"]
    env = dict(os.environ, LD_PRELOAD=shim, SJS_SYSCALL_SHIM_OUT=split_path)
    server = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, env=env)
    port = None
    for line in server.stdout:
        if line.startswith("LISTENING"):
            port = int(line.split()[1])
            break
    if port is None:
        raise SystemExit(f"sjs_serve ({mode}) did not start")
    load = subprocess.run(
        [os.path.join(bin_dir, "pb_load"), f"--port={port}", f"--rate={spec['rate']}",
         f"--seconds={seconds!r}", f"--seed={seed}", f"--mean-workload={MEAN_WORKLOAD!r}",
         f"--c-lo={2.0 if mode == 'cluster' else 1.0!r}", f"--server-pid={server.pid}",
         f"--out={os.path.join(work, 'records.bin')}"],
        capture_output=True, text=True)
    if load.returncode != 0:
        server.kill()
        raise SystemExit(f"pb_load failed: {load.stderr.strip()}")
    user, system = cpu_seconds(server.pid)
    server.send_signal(signal.SIGTERM)
    server.stdout.read()
    server.wait()
    if server.returncode != 0:
        raise SystemExit(f"sjs_serve ({mode}) exited {server.returncode}")
    submits = json.loads(load.stdout)["arrivals"]
    with open(split_path) as f:
        tallies = json.load(f)
    calls = call_split(tallies, submits)
    return {"mode": mode, "rate": spec["rate"], "seconds": seconds, "seed": seed,
            "submits": submits,
            "server_cpu_us_per_submit": round(1e6 * (user + system) / submits, 2),
            "system_cpu_pct": round(100.0 * system / max(user + system, 1e-9), 1),
            "calls": calls}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bin", help="perfbench build directory (not with --floor)")
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--seed", type=int, default=7921)
    ap.add_argument("--modes", nargs="+", default=list(MODES), choices=list(MODES))
    ap.add_argument("--floor", action="store_true",
                    help="measure a bare loopback request/reply pair instead")
    args = ap.parse_args()
    if not args.floor and not args.bin:
        ap.error("--bin is required without --floor")
    work = tempfile.mkdtemp(prefix="syscall_split_")
    try:
        shim = build_shim(work)
        if args.floor:
            floor = build_floor(work)
            runs = [run_floor(floor, shim, args.seconds, t, work)
                    for t in (0, FLOOR_TIMEOUT_US)]
            print(json.dumps({"floor": runs}))
            return 0
        rows = [run_mode(args.bin, shim, m, args.seconds, args.seed, work)
                for m in args.modes]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"modes": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
