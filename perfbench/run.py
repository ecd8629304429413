"""Run one benchmark workload; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload tcu-sim --seed 1 --seconds 15 --trace 0

Run from the repository root: the program under test is imported from
``src/`` next to this directory, as checked out.  ``--trace 0`` reports
the end-to-end metrics with telemetry off; ``--trace 1`` is the traced
run and reports every per-layer metric (``ladder.py``).  A record with
the host fingerprint goes to ``--record-dir`` and, for traced runs, the
span list to ``<record-dir>/traces``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# BLAS threads are pinned before numpy loads, so the load never uses
# more threads than the host has cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
COUNTS_FILE = os.path.join(HERE, "exact_counts.json")

#: set-up repetitions per run; setup_s is their median
SETUP_REPS = 9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-dir", default=os.path.join(HERE, "out"),
        help="where the run record (and trace) is written",
    )
    ap.add_argument(
        "--record-counts", action="store_true",
        help="rewrite this workload's entry in exact_counts.json",
    )
    return ap.parse_args(argv)


def set_up(wl, tracer, reps: int, probe=None):
    """Run ``reps`` cold set-ups (fresh plan cache each); keep the last.

    Returns the state and, per set-up, its time and its host-speed
    scale (``SpeedProbe.scale``; 1 without a probe).
    """
    import time

    import repro

    enabled = tracer.enabled
    tracer.enabled = False
    times = []
    before = probe.sample() if probe else None
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            state = wl.setup(repro.PlanCache())
            dt = time.perf_counter() - t0
            after = probe.sample() if probe else None
            times.append((dt, probe.scale(before, after) if probe else 1.0))
            before = after
    finally:
        tracer.enabled = enabled
    wl.prepare(state)
    return state, times


def check_counts(wl, state, record: bool) -> list[str]:
    """Compare the workload's exact counts with the committed ones."""
    counts = wl.exact_counts(state)
    with open(COUNTS_FILE) as f:
        golden = json.load(f)
    if record:
        golden[wl.name] = counts
        with open(COUNTS_FILE, "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
        return []
    if golden.get(wl.name) != counts:
        return [
            f"EXACT COUNT DRIFT on {wl.name}: expected {golden.get(wl.name)}, "
            f"measured {counts}"
        ]
    return []


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: no program to measure at {SRC}; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)

    import harness
    from harness import (
        SpeedProbe, Tracer, fingerprint, log, median, percentile, run_loop,
    )
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}")
        return 2
    traced = bool(args.trace)
    tracer = Tracer(enabled=traced, seed=args.seed)
    wl = WORKLOADS[args.workload](args.seed, tracer)
    problems: list[str] = []

    probe = SpeedProbe(wl.PROBE)
    state, setups = set_up(wl, tracer, SETUP_REPS, probe)
    problems += check_counts(wl, state, args.record_counts)
    lo = len(tracer.spans)
    loop = run_loop(
        wl, state, tracer, seconds=args.seconds, alternate=traced, probe=probe
    )
    hi = len(tracer.spans)
    attempted, failed = loop.attempted, loop.failed
    failures = list(loop.failures)
    counts = {wl.name: wl.exact_counts(state)}

    if traced:
        from ladder import Ladder, catalog

        states = {wl.name: (wl, state)}
        for name, cls in WORKLOADS.items():
            if name != wl.name:
                other = cls(args.seed, tracer)
                states[name] = (other, set_up(other, tracer, 1)[0])
                problems += check_counts(other, states[name][1], False)
                counts[name] = other.exact_counts(states[name][1])
        ladder = Ladder(tracer)
        values = {}
        try:
            ladder.climb(wl, loop, (lo, hi), states)
            values = ladder.metrics(states)
        except Exception:
            import traceback

            problems.append(traceback.format_exc())
        for sub in ladder.loops:
            attempted += sub.attempted
            failed += sub.failed
            failures += sub.failures
        units = {name: unit for name, unit, _ in catalog()}
        missing = sorted(set(units) - set(values))
        if missing:
            problems.append(f"per-layer metrics not measured: {missing}")
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
            if name in values
        }
        raw = {}
    else:
        def end_to_end(scaled: bool):
            setup = [t * k if scaled else t for t, k in setups]
            lats = loop.latencies_ms(scaled)
            return {
                "setup_s": (median(setup), "s"),
                "points_per_s": (
                    median(loop.cycle_points_per_s(scaled)), "points/s"
                ),
                "op_p50_ms": (percentile(lats, 50), "ms"),
                "op_p90_ms": (percentile(lats, 90), "ms"),
                "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
                "modeled_a100_gstencil_per_s": (
                    wl.modeled_gstencil_per_s(state), "GStencil/s"
                ),
            }

        metrics = end_to_end(True)
        raw = {name: value for name, (value, _) in end_to_end(False).items()}
        for name, (value, unit) in metrics.items():
            if value is None:
                problems.append(f"{name}: too few samples to report")
        metrics = {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        }

    for msg in (failures + problems)[:10]:
        log(msg)
    correct = failed == 0 and not problems
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "input_sha256": wl.input_hash(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "op_samples": len(loop.latencies_ms()),
        "cycles": len(loop.cycle_points),
        "setup_reps_s": [t for t, _ in setups],
        "probe_parts": list(wl.PROBE),
        "probe_nominal_s": probe.nominal_s,
        "probe_median_s": median(probe.samples),
        "probe_samples": len(probe.samples),
        "raw_metrics": raw,
        "exact_counts": counts,
        "metrics": metrics,
    }
    os.makedirs(args.record_dir, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(args.record_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if traced:
        tracer.dump(os.path.join(args.record_dir, "traces", stem + ".json"))
    log(
        f"{wl.name} seed={args.seed} trace={args.trace}: {attempted} ops, "
        f"{failed} failed, {len(loop.cycle_points)} cycles, correct={correct}"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
