"""Print and compare benchmark results.

    python3 perfbench/report.py run [--seconds 5] [--seed 1] [--trace]
        Runs every workload once and prints every end-to-end metric (or,
        with --trace, every per-layer metric) by name and unit, per
        workload, with the host fingerprint and the error rate.

    python3 perfbench/report.py compare DIR [NEW_DIR]
        Reads the run records in DIR (written by run.py --record-dir)
        and prints, per workload and metric, the median and the
        quartile spread as a share of the median.  With NEW_DIR it also
        prints the change of each median against the metric's bound in
        BENCHMARK.json.  Records whose fingerprints differ are refused.

Run from the repository root.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cmd_run(args) -> int:
    bench = load_benchmark()
    record_dir = args.record_dir or tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, "out"))
    status = 0
    records = []
    for wl in bench["workloads"]:
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", wl["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
            "--record-dir", record_dir,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        stem = f"{wl['name']}-seed{args.seed}-trace{int(args.trace)}.json"
        with open(os.path.join(record_dir, stem)) as f:
            records.append(json.load(f))
    if records:
        print("fingerprint:")
        for k, v in records[0]["fingerprint"].items():
            print(f"  {k}: {v}")
    for rec in records:
        print(
            f"\n{rec['workload']} (seed {rec['seed']}, {rec['attempted']} ops, "
            f"{rec['op_samples']} latency samples, error_rate "
            f"{rec['error_rate']:.4g}, correct {rec['correct']})"
        )
        for name, m in rec["metrics"].items():
            print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
        if not rec["correct"]:
            status = 1
    print(f"\nrecords: {record_dir}")
    return status


def load_records(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path) as f:
            records.append(json.load(f))
    return records


def summarize(records: list[dict]) -> dict:
    """``(workload, trace) -> metric -> [values]``."""
    out: dict = {}
    for rec in records:
        per = out.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def _stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def cmd_compare(args) -> int:
    sides = [load_records(d) for d in args.dirs]
    prints = {
        json.dumps(r["fingerprint"], sort_keys=True) for recs in sides for r in recs
    }
    if not any(sides):
        print("no records found", file=sys.stderr)
        return 2
    if len(prints) > 1:
        print(
            "refusing to compare: the records come from different hosts or "
            "numerics builds:\n" + "\n".join(sorted(prints)),
            file=sys.stderr,
        )
        return 2
    bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    base = summarize(sides[0])
    new = summarize(sides[1]) if len(sides) > 1 else {}
    worse_any = False
    for key in sorted(base):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        for name, values in base[key].items():
            med, spr = _stats(values)
            line = f"  {name:48s} median {med:>14.6g} spread {spr:6.3f} n={len(values)}"
            if key in new and name in new[key]:
                nmed, nspr = _stats(new[key][name])
                change = (nmed - med) / med if med else 0.0
                line += f" | new {nmed:>14.6g} spread {nspr:6.3f} change {change:+.3f}"
                if name in bounds:
                    sign = 1 if bounds[name]["better"] == "lower" else -1
                    worse = sign * change > bounds[name]["bound"]
                    worse_any |= worse
                    line += f" bound {bounds[name]['bound']}" + (" WORSE" if worse else "")
            print(line)
    return 1 if worse_any else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run every workload once and print it")
    run.add_argument("--seconds", type=float, default=5.0)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--record-dir")
    cmp_ = sub.add_parser("compare", help="summarize or compare record dirs")
    cmp_.add_argument("dirs", nargs="+", metavar="DIR")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        return cmd_run(args)
    if len(args.dirs) > 2:
        ap.error("compare takes one or two directories")
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
