"""The traced run: every per-layer metric, from the benchmark's own spans.

The traced run of workload W drives W's cycle with tracing on in every
other cycle (``bench.trace_overhead`` is traced ÷ untraced cycle time)
and then climbs the ladder: a few traced cycles of each other workload,
plus probes for what no op exercises (cold compiles, ``distribute``,
the ``process`` executor, telemetry on/off).  Every metric of
:func:`catalog` comes out of every traced run; W's own layers get the
most samples.  Layer self times are span durations minus their
children's.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import repro
from repro import telemetry
from repro.parallel.plan import distribute

from harness import Tracer, layer_of, median, run_loop
from workloads import ClusterRounds, FaithfulAbft, GridSteps, TcuSim

#: repetitions of every probe
REPS = 5
#: traced cycles of each workload other than the one being run
LADDER_CYCLES = 3
LOWERING_PASSES = ("decompose", "build_tile_ir", "schedule", "vectorize")
DISTRIBUTION_PASSES = ("partition", "halo_schedule", "compile_ranks")
#: layers whose share of W's op time is reported
SHARE_LAYERS = ("runtime", "core", "tcu", "faults", "parallel", "bench")
BLOCK_STEPS = ("bs1", "bs4")
#: executor × block_steps of the cluster ladder; the ones cluster-rounds
#: does not run are timed by :meth:`Ladder._cluster_probe`
CLUSTER_MODES = ("serial.bs1", "thread.bs1", "serial.bs4", "thread.bs4")
#: executors whose rank wait share is read from ``ClusterResult.report()``
WAIT_EXECUTORS = ("thread", "process")


def _names(cases) -> list[str]:
    return list(dict.fromkeys(c.name for c in cases))


def _kernels() -> list[str]:
    cases = TcuSim.CASES + GridSteps.CASES + ClusterRounds.CASES + FaithfulAbft.CASES
    return list(dict.fromkeys(c.kernel for c in cases))


def catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    out = []
    for k in _kernels():
        out.append((f"runtime.compile_miss_ms.{k}", "ms", "lower"))
    for p in LOWERING_PASSES:
        out.append((f"core.lowering.{p}_ms", "ms", "lower"))
    out.append(("runtime.compile_hit_us", "us", "lower"))
    for c in _names(GridSteps.CASES):
        out.append((f"runtime.apply_grid_ms.{c}", "ms", "lower"))
        out.append((f"runtime.apply_grid_over_reference.{c}", "ratio", "lower"))
    for c in _names(TcuSim.CASES):
        out.append((f"core.vectorize.sweep_ms.{c}", "ms", "lower"))
        out.append((f"core.vectorize.over_apply_grid.{c}", "ratio", "lower"))
    for c in _names(FaithfulAbft.CASES):
        out.append((f"tcu.interpreter.sweep_ms.{c}", "ms", "lower"))
        out.append((f"faults.abft_verify_ms.{c}", "ms", "lower"))
        out.append((f"faults.abft_overhead.{c}", "ratio", "lower"))
    for c in _names(TcuSim.CASES + FaithfulAbft.CASES):
        out.append((f"tcu.mma_ops_per_point.{c}", "count/point", "lower"))
        out.append((f"tcu.global_bytes_per_point.{c}", "B/point", "lower"))
        out.append((f"tcu.flops_per_byte.{c}", "flop/B", "higher"))
    for c in _names(TcuSim.CASES + GridSteps.CASES):
        out.append((f"stencil.reference_ms.{c}", "ms", "lower"))
    out.append(("stencil.reference_points_per_s", "points/s", "higher"))
    out.append(("parallel.distribute_ms", "ms", "lower"))
    for p in DISTRIBUTION_PASSES:
        out.append((f"parallel.distribute.{p}_ms", "ms", "lower"))
    for m in CLUSTER_MODES:
        out.append((f"parallel.run_ms.{m}", "ms", "lower"))
        out.append((f"parallel.overhead_vs_single.{m}", "ratio", "lower"))
    for bs in BLOCK_STEPS:
        out.append((f"parallel.halo_bytes.{bs}", "B", "lower"))
        out.append((f"parallel.rounds.{bs}", "count", "lower"))
    out.append(("parallel.process_run_ms", "ms", "lower"))
    for executor in WAIT_EXECUTORS:
        out.append((f"parallel.wait_share.{executor}", "share", "lower"))
    out.append(("telemetry.on_overhead.tcu-sim", "ratio", "lower"))
    out.append(("telemetry.on_overhead.grid-steps", "ratio", "lower"))
    out.append(("bench.trace_overhead", "ratio", "lower"))
    for layer in SHARE_LAYERS:
        out.append((f"bench.self_share.{layer}", "share", "lower"))
    return out


def _cycle_s(wl, state) -> float:
    """One pass over the cycle without checks: summed op time."""
    total = 0.0
    for slot in wl.slots:
        t0 = time.perf_counter()
        wl.execute(state, slot)
        total += time.perf_counter() - t0
    return total


class Ladder:
    """Collects spans and program-recorded times for the traced run."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.values: dict[str, float] = {}
        self.loops = []

    # -- measuring --------------------------------------------------------
    def climb(self, main, main_loop, span_range, states: dict) -> None:
        """Probe every layer.

        ``main_loop`` is W's alternating-trace loop and ``span_range``
        the indices of the spans it recorded; ``states`` maps every
        workload name to its ``(workload, state)``.
        """
        tr = self.tracer
        self._trace_overhead(main_loop)
        self._self_shares(span_range)
        for name, (wl, state) in states.items():
            if wl is not main:
                self.loops.append(run_loop(wl, state, tr, cycles=LADDER_CYCLES))
        self._compile_probe()
        tcu_wl, tcu_state = states[TcuSim.name]
        grid_wl, grid_state = states[GridSteps.name]
        for wl, state in ((tcu_wl, tcu_state), (grid_wl, grid_state)):
            for c in wl.cases:
                for _ in range(REPS):
                    with tr.span("stencil.reference", case=c.name):
                        repro.reference_apply(wl.padded[c], wl.weights[c])
        for c in tcu_wl.cases:
            st = tcu_state["plans"][c]
            for _ in range(REPS):
                with tr.span("runtime.apply_grid", case=c.name):
                    st.apply_grid(tcu_wl.inputs[c])
        self._cluster_probe(*states[ClusterRounds.name])
        for wl, state in ((tcu_wl, tcu_state), (grid_wl, grid_state)):
            self._telemetry_probe(wl, state)

    def _trace_overhead(self, loop) -> None:
        cycle_s = loop.cycle_op_s(scaled=True)
        on = [s for s, t in zip(cycle_s, loop.cycle_traced) if t]
        off = [s for s, t in zip(cycle_s, loop.cycle_traced) if not t]
        self.values["bench.trace_overhead"] = median(on) / median(off)

    def _self_shares(self, span_range: tuple[int, int]) -> None:
        lo, hi = span_range
        own = self.tracer.self_ns()
        by_layer: dict[str, int] = defaultdict(int)
        for s in self.tracer.spans[lo:hi]:
            by_layer[layer_of(s["name"])] += own[s["id"]]
        total = sum(by_layer.values())
        for layer in SHARE_LAYERS:
            self.values[f"bench.self_share.{layer}"] = by_layer[layer] / total

    def _compile_probe(self) -> None:
        tr = self.tracer
        sums = []
        for _ in range(REPS):
            per_pass: dict[str, float] = defaultdict(float)
            for k in _kernels():
                with tr.span("runtime.compile", kernel=k, cache="none"):
                    st = repro.compile(
                        repro.get_kernel(k).weights, backend="vectorized", cache=None
                    )
                for p, s in st.lowered.pass_times:
                    per_pass[p] += s
            sums.append(per_pass)
        for p in LOWERING_PASSES:
            self.values[f"core.lowering.{p}_ms"] = median([s[p] for s in sums]) * 1e3

    def _cluster_probe(self, wl: ClusterRounds, state: dict) -> None:
        tr = self.tracer
        case = wl.cases[0]
        passes = []
        for _ in range(REPS):
            with tr.span("parallel.distribute", case=case.name):
                dplan = distribute(
                    wl.weights[case], case.shape, wl.MESH, cache=repro.PlanCache()
                )
            passes.append(dict(dplan.pass_times))
            # the single-device baseline parallel.overhead_vs_single divides by
            wl.single_device(state)
        for p in DISTRIBUTION_PASSES:
            self.values[f"parallel.distribute.{p}_ms"] = (
                median([d[p] for d in passes]) * 1e3
            )
        cycle_modes = {mode for _, mode in wl.CYCLE}
        for mode in [m for m in CLUSTER_MODES if m not in cycle_modes] + [
            "process.bs1"
        ]:
            executor, bs = mode.split(".")
            for _ in range(REPS):
                with tr.span("parallel.run", case=case.name, mode=mode):
                    res = wl.run(state, executor, int(bs[2:]))
                if not np.array_equal(res.field, state["expected"]):
                    raise RuntimeError(f"{mode}: field not bit-identical")
        for executor in WAIT_EXECUTORS:
            with telemetry.capture():
                report = wl.run(state, executor, 1).report()
            # rank time outside rank work: dispatch, exchange, barriers
            busy = sum(r["wall_s"] for r in report["ranks"])
            slots = len(report["ranks"]) * report["run"]["wall_s"]
            self.values[f"parallel.wait_share.{executor}"] = 1 - busy / slots

    def _telemetry_probe(self, wl, state: dict) -> None:
        enabled = self.tracer.enabled
        self.tracer.enabled = False
        off, on = [], []
        try:
            for _ in range(REPS):
                off.append(_cycle_s(wl, state))
                with telemetry.capture():
                    on.append(_cycle_s(wl, state))
        finally:
            self.tracer.enabled = enabled
        self.values[f"telemetry.on_overhead.{wl.name}"] = median(on) / median(off)

    # -- deriving -----------------------------------------------------------
    def metrics(self, states: dict) -> dict[str, float]:
        """Every catalog metric, from the spans and the recorded values."""
        tr = self.tracer
        v = dict(self.values)

        def ms(name, **attrs):
            return median(tr.durations_ms(name, **attrs))

        for k in _kernels():
            v[f"runtime.compile_miss_ms.{k}"] = ms(
                "runtime.compile", kernel=k, cache="none"
            )
        v["runtime.compile_hit_us"] = ms("runtime.compile", cache="hit") * 1e3
        ref_points, ref_ms = 0, 0.0
        for c in dict.fromkeys(TcuSim.CASES + GridSteps.CASES):
            r = ms("stencil.reference", case=c.name)
            v[f"stencil.reference_ms.{c.name}"] = r
            ref_points += c.points
            ref_ms += r
        v["stencil.reference_points_per_s"] = ref_points / (ref_ms / 1e3)
        for c in _names(GridSteps.CASES):
            g = ms("runtime.apply_grid", case=c)
            v[f"runtime.apply_grid_ms.{c}"] = g
            v[f"runtime.apply_grid_over_reference.{c}"] = (
                g / v[f"stencil.reference_ms.{c}"]
            )
        for c in _names(TcuSim.CASES):
            s = ms("core.vectorize.sweep", case=c)
            v[f"core.vectorize.sweep_ms.{c}"] = s
            v[f"core.vectorize.over_apply_grid.{c}"] = s / ms(
                "runtime.apply_grid", case=c
            )
        for c in _names(FaithfulAbft.CASES):
            plain = ms("tcu.interpreter.sweep", case=c)
            abft = ms("faults.abft_sweep", case=c)
            v[f"tcu.interpreter.sweep_ms.{c}"] = plain
            v[f"faults.abft_verify_ms.{c}"] = abft - plain
            v[f"faults.abft_overhead.{c}"] = abft / plain
        for name in (TcuSim.name, FaithfulAbft.name):
            wl, state = states[name]
            for c in wl.cases:
                mode = "vectorized" if name == TcuSim.name else "plain"
                ev = state["first"][f"{c.name}.{mode}"]
                gbytes = ev.global_load_bytes + ev.global_store_bytes
                flops = ev.mma_ops * 512 + ev.cuda_core_flops
                v[f"tcu.mma_ops_per_point.{c.name}"] = ev.mma_ops / c.points
                v[f"tcu.global_bytes_per_point.{c.name}"] = gbytes / c.points
                v[f"tcu.flops_per_byte.{c.name}"] = flops / gbytes
        v["parallel.distribute_ms"] = ms("parallel.distribute")
        single = ms("runtime.apply_grid_steps")
        for m in CLUSTER_MODES:
            run_ms = ms("parallel.run", mode=m)
            v[f"parallel.run_ms.{m}"] = run_ms
            v[f"parallel.overhead_vs_single.{m}"] = run_ms / single
        v["parallel.process_run_ms"] = ms("parallel.run", mode="process.bs1")
        _, cstate = states[ClusterRounds.name]
        for bs, (halo, rounds) in cstate["counts"].items():
            v[f"parallel.halo_bytes.{bs}"] = halo
            v[f"parallel.rounds.{bs}"] = rounds
        return v

