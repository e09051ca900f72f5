#!/usr/bin/env python3
"""Peak RSS of sjs_serve sessions against their length and their job window.

    python3 scripts/window_rss_probe.py --bin .bench_build --seconds 0.5 2.67 6
    python3 scripts/window_rss_probe.py --bin .bench_build --perfbench-seed 1
    python3 scripts/window_rss_probe.py --bin .bench_build --perfbench-seed 1 \
        --rounds 6 --max-in-flight 128 4096 65536

Starts sjs_serve the way perfbench's serve_single peak phase does (V-Dover,
journal on, --max-in-flight=4096, band [1, 2], accel for 15k SUBMIT/s at
mean workload 0.01), drives it with perfbench's pb_load at --rate for each
--seconds, and reads the server's VmHWM just before SIGTERM. With
--cluster it serves perfbench's serve_cluster fleet instead. --bin is a
perfbench build directory (python3 perfbench/run.py builds one into
.bench_build). Prints one JSON object: per session length, the admitted
jobs, VmHWM in MB next to RssAnon and RssFile (read at the same moment),
and the job-window gauges sjs_serve --metrics reports at drain
(server.window_slots, .window_peak, .window_stragglers,
server.outcome_rows_held, .outcome_ring_slots, server.in_flight_peak).
At idle most of sjs_serve's VmHWM is file-backed library pages (libstdc++,
libc, libm), which move one session's VmHWM by about 0.1 MB on their own;
RssAnon is the figure a change to the server's own memory moves.

--perfbench-seed SEED replays perfbench's six serve_cluster peak sessions of
that seed instead: the fleet at 12k SUBMIT/s for 2.67 s each (40 s x the
peak share 0.4 / 6 rounds), pb_load seeded SEED*7919 + 10*round + 2. Each
session runs twice with the same load: once exactly as perfbench boots
sjs_serve, whose VmHWM is the one rss_peak_mb takes the maximum of, and
once with --metrics for the gauges. Only a --metrics server keeps a
metrics registry (its counters, and the trace bridge's stamp table), so
that footprint is its own: vm_hwm_metrics_mb minus vm_hwm_mb.

--max-in-flight N [N ...] (with --perfbench-seed) sweeps the pre-size: for
each value, and for both perfbench workloads (serve_single's peak at 15k
SUBMIT/s and serve_cluster's at 12k, 2.67 s each, the same pb_load seeds),
it boots sjs_serve idle and reads its VmHWM after --idle-seconds, then
replays --rounds peak sessions as above and prints per session VmHWM and
the window gauges, server.window_reserved included. It also boots the
sharded plane (--shards=2, no perfbench workload) idle per value.
"""
import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

# perfbench/run.py's peak phases.
PB_RATE = 12000.0
PB_RATES = {"single": 15000.0, "cluster": PB_RATE}
PB_SECONDS = 40.0 * 0.4 / 6
PB_ROUNDS = 6
PB_PEAK_STREAM = 2
PB_MAX_IN_FLIGHT = 4096


def memory_mb(pid):
    """VmHWM, RssAnon and RssFile of `pid`, in MB."""
    fields = {"VmHWM:": "vm_hwm_mb", "RssAnon:": "rss_anon_mb",
              "RssFile:": "rss_file_mb"}
    out = dict.fromkeys(fields.values(), 0.0)
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key = line.split(maxsplit=1)[0] if line.strip() else ""
            if key in fields:
                out[fields[key]] = round(int(line.split()[1]) / 1024.0, 2)
    return out


def session(bin_dir, seconds, rate, cluster, seed, metrics=True,
            max_in_flight=PB_MAX_IN_FLIGHT, idle_seconds=None, shards=0):
    """One sjs_serve session booted as perfbench boots it (with shards, the
    single engine's sharded plane). With idle_seconds it serves no load:
    VmHWM is read that long after boot."""
    work = tempfile.mkdtemp(prefix="window_probe_")
    journal = os.path.join(work, "journal")
    mean_workload = 0.01
    capacity = 192.5 if cluster else 2.0
    accel = rate * mean_workload / (1.2 * capacity)
    cmd = [os.path.join(bin_dir, "sjs_serve"), "--port=0"]
    cmd += (["--cluster=4", "--rental=threshold", "--cluster-key=deadline"]
            if cluster else ["--scheduler=V-Dover"])
    cmd += [f"--accel={accel!r}", f"--journal={journal}",
            f"--max-in-flight={max_in_flight}"]
    if not cluster:
        cmd += ["--c-lo=1.0", "--c-hi=2.0"]
    if shards:
        cmd.append(f"--shards={shards}")
    if metrics:
        cmd.append("--metrics")
    server = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    port = None
    for line in server.stdout:
        if line.startswith("LISTENING"):
            port = int(line.split()[1])
            break
    if port is None:
        raise SystemExit("sjs_serve did not start")
    if idle_seconds is not None:
        time.sleep(idle_seconds)
    else:
        load = subprocess.run(
            [os.path.join(bin_dir, "pb_load"), f"--port={port}", f"--rate={rate}",
             f"--seconds={seconds!r}", f"--seed={seed}",
             f"--mean-workload={mean_workload!r}",
             f"--c-lo={2.0 if cluster else 1.0!r}", f"--server-pid={server.pid}",
             f"--out={os.path.join(work, 'records.bin')}"],
            capture_output=True, text=True)
        if load.returncode != 0:
            raise SystemExit(f"pb_load failed: {load.stderr.strip()}")
    memory = memory_mb(server.pid)
    server.send_signal(signal.SIGTERM)
    out = server.stdout.read()
    server.wait()
    admitted = 0  # the sharded plane journals per shard, in shard<k>/
    for root, _, files in os.walk(journal):
        if "jobs.csv" in files:
            with open(os.path.join(root, "jobs.csv")) as f:
                admitted += sum(1 for _ in f) - 1
    gauges = {m.group(1): float(m.group(2))
              for m in re.finditer(
                  r"^\s+(server\.(?:window_\w+|outcome_\w+|in_flight_peak)): (\S+)$",
                  out, re.M)}
    shutil.rmtree(work, ignore_errors=True)
    return {"seconds": seconds, "admitted": admitted, **memory,
            "exit": server.returncode, **gauges}


def perfbench_sessions(bin_dir, seed, cluster=True, rounds=PB_ROUNDS,
                       max_in_flight=PB_MAX_IN_FLIGHT):
    rate = PB_RATES["cluster" if cluster else "single"]
    rows = []
    for rnd in range(rounds):
        load_seed = seed * 7919 + 10 * rnd + PB_PEAK_STREAM
        plain = session(bin_dir, PB_SECONDS, rate, cluster, load_seed, metrics=False,
                        max_in_flight=max_in_flight)
        with_metrics = session(bin_dir, PB_SECONDS, rate, cluster, load_seed,
                               max_in_flight=max_in_flight)
        row = {"round": rnd, "load_seed": load_seed, "admitted": plain["admitted"],
               "vm_hwm_mb": plain["vm_hwm_mb"],
               "rss_anon_mb": plain["rss_anon_mb"],
               "rss_file_mb": plain["rss_file_mb"],
               "vm_hwm_metrics_mb": with_metrics["vm_hwm_mb"],
               "exit": max(plain["exit"], with_metrics["exit"])}
        row.update({k: v for k, v in with_metrics.items() if k.startswith("server.")})
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    return {"mode": "cluster" if cluster else "single", "rate": rate,
            "seconds": PB_SECONDS, "seed": seed, "max_in_flight": max_in_flight,
            "rss_peak_mb": max(r["vm_hwm_mb"] for r in rows),
            "rss_anon_peak_mb": max(r["rss_anon_mb"] for r in rows),
            "sessions": rows}


def presize_sweep(bin_dir, seed, values, rounds, idle_seconds):
    """Idle and peak-session VmHWM of both workloads per --max-in-flight."""
    out = []
    for cluster in (False, True):
        for mif in values:
            rate = PB_RATES["cluster" if cluster else "single"]
            idle = session(bin_dir, 0.0, rate, cluster, 0, metrics=False,
                           max_in_flight=mif, idle_seconds=idle_seconds)
            row = perfbench_sessions(bin_dir, seed, cluster, rounds, mif)
            row["idle_vm_hwm_mb"] = idle["vm_hwm_mb"]
            row["idle_rss_anon_mb"] = idle["rss_anon_mb"]
            row["idle_rss_file_mb"] = idle["rss_file_mb"]
            print(json.dumps({k: v for k, v in row.items() if k != "sessions"}),
                  file=sys.stderr)
            out.append(row)
    # The sharded plane is no perfbench workload: idle boots only.
    for mif in values:
        idle = session(bin_dir, 0.0, PB_RATES["single"], False, 0, metrics=False,
                       max_in_flight=mif, idle_seconds=idle_seconds, shards=2)
        row = {"mode": "sharded", "shards": 2, "max_in_flight": mif,
               "idle_vm_hwm_mb": idle["vm_hwm_mb"],
               "idle_rss_anon_mb": idle["rss_anon_mb"],
               "idle_rss_file_mb": idle["rss_file_mb"]}
        print(json.dumps(row), file=sys.stderr)
        out.append(row)
    return {"seed": seed, "rounds": rounds, "idle_seconds": idle_seconds,
            "sweep": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bin", required=True, help="perfbench build directory")
    ap.add_argument("--seconds", type=float, nargs="+", default=[0.5, 2.67, 6.0])
    ap.add_argument("--rate", type=float, default=15000.0)
    ap.add_argument("--cluster", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--perfbench-seed", type=int, default=None,
                    help="replay perfbench's six serve_cluster peak sessions of this seed")
    ap.add_argument("--max-in-flight", type=int, nargs="+", default=None,
                    help="with --perfbench-seed: sweep these pre-sizes over both workloads")
    ap.add_argument("--rounds", type=int, default=2,
                    help="peak sessions per pre-size in the sweep (perfbench runs 6)")
    ap.add_argument("--idle-seconds", type=float, default=0.5,
                    help="how long the sweep's idle boot waits before reading VmHWM")
    args = ap.parse_args()
    if args.max_in_flight is not None:
        if args.perfbench_seed is None:
            ap.error("--max-in-flight needs --perfbench-seed")
        print(json.dumps(presize_sweep(args.bin, args.perfbench_seed, args.max_in_flight,
                                       args.rounds, args.idle_seconds)))
        return 0
    if args.perfbench_seed is not None:
        print(json.dumps(perfbench_sessions(args.bin, args.perfbench_seed)))
        return 0
    rows = [session(args.bin, s, args.rate, args.cluster, args.seed) for s in args.seconds]
    print(json.dumps({"rate": args.rate, "mode": "cluster" if args.cluster else "single",
                      "sessions": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
