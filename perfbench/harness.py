"""Measurement plumbing shared by the workloads and the ladder.

Spans, the closed-loop timing loop, percentile rules and the host and
numerics fingerprint.  Nothing here imports ``repro``: the harness
times the program, it is not part of it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

import numpy as np

#: every metric name the benchmark emits must match this
METRIC_NAME = r"[A-Za-z0-9_.-]+"

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

_NULL = nullcontext()


class Tracer:
    """In-memory span recorder for the benchmark's own calls.

    A span opened with no span open is a root and mints a trace id;
    nested spans inherit it and link to their parent.  Disabled, every
    ``span`` is one shared no-op context, so untraced runs pay nothing
    measurable.  Spans are only written out by :meth:`dump`.
    """

    def __init__(self, enabled: bool, seed: int = 0) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._seed = seed
        self._traces = 0

    def span(self, name: str, **attrs):
        return self._span(name, attrs) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str, attrs: dict):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._traces += 1
            trace = f"{self._seed:x}-{self._traces:06x}"
        else:
            trace = parent["trace"]
        rec = {
            "name": name,
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "trace": trace,
            "attrs": attrs,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its children cover."""
        own = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return own

    def durations_ms(self, name: str, **attrs) -> list[float]:
        """Durations of every span called ``name`` whose attrs match."""
        return [
            (s["end_ns"] - s["start_ns"]) / 1e6
            for s in self.spans
            if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: the first dotted component."""
    return span_name.split(".", 1)[0]


def percentile(values, q: float):
    """The ``q``-th percentile, or ``None`` with too few samples beyond it."""
    if not values:
        return None
    p = float(np.percentile(values, q))
    beyond = sum(v > p for v in values)
    return p if beyond >= MIN_BEYOND else None


def median(values):
    return statistics.median(values) if values else None


_PROBE_A = np.ones((8, 4))
_PROBE_B = np.ones((4, 8))
_PROBE_GRID = np.linspace(0.0, 1.0, 130 * 130).reshape(130, 130)


def _probe_interpreter() -> None:
    total = 0
    for i in range(4000):
        total += i


def _probe_small_numpy() -> None:
    # the shape of the interpreter backend's per-tile MMA steps
    c = np.zeros((8, 8))
    for _ in range(75):
        c = c + _PROBE_A @ _PROBE_B


def _probe_grid_numpy() -> None:
    # the shape of the vectorized and grid paths, on a cache-resident grid
    x = _PROBE_GRID
    (
        x[:-2, :-2] + x[:-2, 1:-1] + x[:-2, 2:]
        + x[1:-1, :-2] + x[1:-1, 1:-1] + x[1:-1, 2:]
        + x[2:, :-2] + x[2:, 1:-1] + x[2:, 2:]
    ) * 0.1


#: the kinds of host work a probe can be made of, each of similar cost
PROBE_PARTS = {
    "interpreter": _probe_interpreter,
    "small-numpy": _probe_small_numpy,
    "grid-numpy": _probe_grid_numpy,
}


class SpeedProbe:
    """Host speed, sampled right before and after every timed call.

    Neighbours on a shared host change CPU speed by up to 1.7×, within
    seconds and between runs minutes apart.  A fixed slice of host work
    of the kinds the workload's ops do (``parts`` of
    :data:`PROBE_PARTS`), timed next to each op on the same CPU and in
    the same thread, gives the speed the op ran at.  Scaling the op's
    time by :meth:`scale` reports it at the nominal speed, at which each
    part takes ``PART_NOMINAL_S``, so the metrics track the program, not
    the load on the host.  The probe does not touch the program.
    """

    #: one part's time at the nominal host speed (about an unloaded
    #: 2-core Xeon VM); only a unit, it is the same for every run
    PART_NOMINAL_S = 0.2e-3

    def __init__(self, parts=tuple(PROBE_PARTS)) -> None:
        self.parts = [PROBE_PARTS[p] for p in parts]
        self.nominal_s = self.PART_NOMINAL_S * len(self.parts)
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        value = time.perf_counter() - t0
        self.samples.append(value)
        return value

    def scale(self, before: float, after: float) -> float:
        """The factor to nominal speed for a call between two samples."""
        return self.nominal_s / ((before + after) / 2)


class LoopResult:
    """What one closed-loop measurement produced, op by op, per cycle.

    Times are raw; with ``scaled=True`` the accessors multiply each op
    by its :meth:`SpeedProbe.scale` (1 when run without a probe).
    """

    def __init__(self) -> None:
        self.cycle_latencies_s: list[list[float]] = []
        self.cycle_scales: list[list[float]] = []
        self.cycle_points: list[int] = []
        self.cycle_traced: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _cycles(self, scaled: bool):
        for lats, scales in zip(self.cycle_latencies_s, self.cycle_scales):
            yield [t * k for t, k in zip(lats, scales)] if scaled else lats

    def latencies_ms(self, scaled: bool = False) -> list[float]:
        return [t * 1e3 for lats in self._cycles(scaled) for t in lats]

    def cycle_op_s(self, scaled: bool = False) -> list[float]:
        return [sum(lats) for lats in self._cycles(scaled)]

    def cycle_points_per_s(self, scaled: bool = False) -> list[float]:
        return [
            pts / s if s else 0.0
            for pts, s in zip(self.cycle_points, self.cycle_op_s(scaled))
        ]


def run_loop(
    workload,
    state,
    tracer: Tracer,
    seconds: float = 0.0,
    cycles: int | None = None,
    alternate: bool = False,
    probe: SpeedProbe | None = None,
) -> LoopResult:
    """Drive the workload's op cycle, one client, closed loop.

    Runs exactly ``cycles`` whole cycles when given; otherwise whole
    cycles until ``seconds`` have passed and the p90 latency has enough
    samples beyond it.  ``alternate`` traces every other cycle, starting
    untraced, so traced and untraced cycles see the same conditions.
    ``probe`` samples host speed before the first op and after each; an
    op's speed is the mean of the samples on either side of it.
    An op's latency covers only the call into the program; its check
    runs after the clock stops.  An op that raises or fails its check
    counts as failed.
    """
    res = LoopResult()
    deadline = time.perf_counter() + seconds
    enabled = tracer.enabled
    before = probe.sample() if probe else None
    while True:
        if alternate:
            tracer.enabled = len(res.cycle_points) % 2 == 1
        points = 0
        lats = []
        scales = []
        for slot in workload.slots:
            res.attempted += 1
            problems = None
            with tracer.span("bench.op", case=slot.case.name, mode=slot.mode):
                try:
                    t0 = time.perf_counter()
                    out = workload.execute(state, slot)
                    dt = time.perf_counter() - t0
                except Exception:
                    res.failed += 1
                    res.failures.append(traceback.format_exc())
                else:
                    with tracer.span("bench.check"):
                        problems = workload.check(state, slot, out)
            after = probe.sample() if probe else None
            if problems is not None:
                lats.append(dt)
                scales.append(probe.scale(before, after) if probe else 1.0)
                points += slot.points
                if problems:
                    res.failed += 1
                    res.failures.extend(problems)
            before = after
        res.cycle_latencies_s.append(lats)
        res.cycle_scales.append(scales)
        res.cycle_points.append(points)
        res.cycle_traced.append(tracer.enabled)
        if cycles is not None:
            done = len(res.cycle_points) >= cycles
        else:
            done = time.perf_counter() >= deadline and (
                percentile(res.latencies_ms(), 90) is not None
                or res.attempted == res.failed
            )
        if done:
            tracer.enabled = enabled
            return res


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> dict:
    """Host and numerics identity; records that differ are not compared."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {}
    )
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
