#!/usr/bin/env python3
"""Compare two Google Benchmark JSON captures row by row.

Usage:
    scripts/bench_compare.py BASE.json NEW.json

Both files must be captured with --benchmark_repetitions=N (N >= 2), e.g.

    ./build/bench/bench_micro --benchmark_repetitions=10 \
        --benchmark_format=json --benchmark_out=new.json

For every benchmark row present in both files the script prints the median
real time of each capture and the median's relative change. It flags a row
as faster or slower only when the change is larger than the two captures'
coefficients of variation added together; anything smaller is printed as
"~" (within noise). The median and CV are the capture's own "median" and
"cv" aggregate rows. Rows present in only one file are listed as such.

Exit status: 0 after printing the table, 2 on unusable input (a file that
cannot be read, or a row captured without repetitions).
"""

import json
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class InputError(Exception):
    """A capture the comparison cannot use."""


def _ns(row):
    return float(row["real_time"]) * _UNIT_NS[row.get("time_unit", "ns")]


def load_rows(path):
    """Returns {run_name: (median_ns, cv)} for one capture, in file order."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise InputError(f"{path}: {e}") from e
    if not isinstance(doc, dict) or "benchmarks" not in doc:
        raise InputError(f"{path}: not a Google Benchmark JSON capture")
    aggregates = {}
    for row in doc["benchmarks"]:
        name = row.get("run_name", row.get("name"))
        agg = aggregates.setdefault(name, {})
        if row.get("run_type") == "aggregate":
            agg[row.get("aggregate_name")] = row
    out = {}
    for name, agg in aggregates.items():
        if "median" not in agg or "cv" not in agg:
            raise InputError(
                f"{path}: {name} records no median and CV; capture with "
                "--benchmark_repetitions=N (N >= 2)")
        out[name] = (_ns(agg["median"]), float(agg["cv"]["real_time"]))
    return out


def _fmt_time(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3f} {unit}"
    return f"{ns:.1f} ns"


def compare(base, new):
    """Returns one result dict per row, base rows first, in file order."""
    results = []
    for name in list(dict.fromkeys([*base, *new])):
        if name not in new:
            results.append({"name": name, "verdict": "only in base"})
            continue
        if name not in base:
            results.append({"name": name, "verdict": "only in new"})
            continue
        (b_med, b_cv), (n_med, n_cv) = base[name], new[name]
        change = n_med / b_med - 1.0 if b_med > 0 else 0.0
        noise = b_cv + n_cv
        if abs(change) <= noise:
            verdict = "~"
        else:
            verdict = "slower" if change > 0 else "faster"
        results.append({"name": name, "base": b_med, "new": n_med,
                        "change": change, "noise": noise,
                        "verdict": verdict})
    return results


def render(results):
    width = max([len("benchmark")] + [len(r["name"]) for r in results])
    lines = [f"{'benchmark':<{width}}  {'base median':>12}  "
             f"{'new median':>12}  {'change':>8}  {'noise':>7}  verdict"]
    for r in results:
        if "change" not in r:
            lines.append(f"{r['name']:<{width}}  {'':>12}  {'':>12}  "
                         f"{'':>8}  {'':>7}  {r['verdict']}")
            continue
        lines.append(
            f"{r['name']:<{width}}  {_fmt_time(r['base']):>12}  "
            f"{_fmt_time(r['new']):>12}  {r['change'] * 100:>+7.1f}%  "
            f"{r['noise'] * 100:>6.1f}%  {r['verdict']}")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 3:
        print("usage: bench_compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    try:
        results = compare(load_rows(argv[1]), load_rows(argv[2]))
    except InputError as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    print(render(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
