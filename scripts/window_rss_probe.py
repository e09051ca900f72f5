#!/usr/bin/env python3
"""Peak RSS of one sjs_serve session against its length.

    python3 scripts/window_rss_probe.py --bin .bench_build --seconds 0.5 2.67 6

Starts sjs_serve the way perfbench's serve_single peak phase does (V-Dover,
journal on, --max-in-flight=4096, band [1, 2], accel for 15k SUBMIT/s at
mean workload 0.01), drives it with perfbench's pb_load at --rate for each
--seconds, and reads the server's VmHWM just before SIGTERM. With
--cluster it serves perfbench's serve_cluster fleet instead. --bin is a
perfbench build directory (python3 perfbench/run.py builds one into
.bench_build). Prints one JSON object: per session length, the admitted
jobs, VmHWM in MB, and the job-window gauges sjs_serve --metrics reports
at drain.
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


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def session(bin_dir, seconds, rate, cluster, seed):
    work = tempfile.mkdtemp(prefix="window_probe_")
    journal = os.path.join(work, "journal")
    mean_workload = 0.01
    capacity = 192.5 if cluster else 2.0
    accel = rate * mean_workload / (1.2 * capacity)
    cmd = [os.path.join(bin_dir, "sjs_serve"), "--port=0", f"--accel={accel!r}",
           f"--journal={journal}", "--max-in-flight=4096", "--metrics"]
    cmd += (["--cluster=4", "--rental=threshold", "--cluster-key=deadline"]
            if cluster else ["--scheduler=V-Dover", "--c-lo=1.0", "--c-hi=2.0"])
    server = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    port = None
    for line in server.stdout:
        if line.startswith("LISTENING"):
            port = int(line.split()[1])
            break
    if port is None:
        raise SystemExit("sjs_serve did not start")
    load = subprocess.run(
        [os.path.join(bin_dir, "pb_load"), f"--port={port}", f"--rate={rate}",
         f"--seconds={seconds!r}", f"--seed={seed}", f"--mean-workload={mean_workload!r}",
         f"--c-lo={2.0 if cluster else 1.0!r}", f"--server-pid={server.pid}",
         f"--out={os.path.join(work, 'records.bin')}"],
        capture_output=True, text=True)
    if load.returncode != 0:
        raise SystemExit(f"pb_load failed: {load.stderr.strip()}")
    hwm = vm_hwm_mb(server.pid)
    server.send_signal(signal.SIGTERM)
    out = server.stdout.read()
    server.wait()
    with open(os.path.join(journal, "jobs.csv")) as f:
        admitted = sum(1 for _ in f) - 1
    gauges = {m.group(1): float(m.group(2))
              for m in re.finditer(r"^\s+(server\.window_\w+|server\.in_flight_peak): (\S+)$",
                                   out, re.M)}
    shutil.rmtree(work, ignore_errors=True)
    return {"seconds": seconds, "admitted": admitted, "vm_hwm_mb": round(hwm, 2),
            "exit": server.returncode, **gauges}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bin", required=True, help="perfbench build directory")
    ap.add_argument("--seconds", type=float, nargs="+", default=[0.5, 2.67, 6.0])
    ap.add_argument("--rate", type=float, default=15000.0)
    ap.add_argument("--cluster", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rows = [session(args.bin, s, args.rate, args.cluster, args.seed) for s in args.seconds]
    print(json.dumps({"rate": args.rate, "mode": "cluster" if args.cluster else "single",
                      "sessions": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
