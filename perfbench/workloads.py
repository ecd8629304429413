"""The four closed-loop workloads: generated inputs, set-up, one op, its check.

Every workload is one client issuing one op at a time over a fixed
cycle of slots.  Slot weights are chosen so that the p50 and p90 of op
latency fall inside one op type's band rather than on the edge between
two (README.md, "Op mixes").  Inputs come from the seed alone; the
program only ever sees the generated arrays.
"""

from __future__ import annotations

import hashlib
import math
import os
import zlib
from dataclasses import asdict, dataclass

import numpy as np

import repro
from repro.parallel import ClusterRuntime
from repro.parallel.plan import distribute

#: timesteps per op on grid-steps and cluster-rounds
STEPS = 8


@dataclass(frozen=True)
class Case:
    """One kernel at one grid shape."""

    kernel: str
    shape: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"{self.kernel}-{self.shape[0]}"

    @property
    def points(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class Slot:
    """One op of a workload's cycle: a case run one way."""

    case: Case
    mode: str
    #: interior point-updates the op completes
    points: int

    @property
    def key(self) -> str:
        return f"{self.case.name}.{self.mode}"


def make_input(seed: int, case: Case) -> np.ndarray:
    """The case's input grid, a pure function of ``(seed, case)``."""
    rng = np.random.default_rng([seed, zlib.crc32(case.name.encode())])
    return rng.standard_normal(case.shape)


class Workload:
    """Base: inputs from the seed, a cycle of slots, set-up and checks.

    Subclasses define ``name``, ``CASES``, ``CYCLE`` (indices into the
    cases, one per slot, with a mode) and the program calls.
    """

    name = ""
    CASES: tuple[Case, ...] = ()
    #: one cycle of ``(case index, mode)``
    CYCLE: tuple[tuple[int, str], ...] = ()
    #: the kinds of host work the ops do (``harness.PROBE_PARTS``): the
    #: speed probe timed next to each op is made of these
    PROBE = ("interpreter", "small-numpy", "grid-numpy")

    def __init__(self, seed: int, tracer, cases=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.cases = tuple(cases or self.CASES)
        self.weights = {c: repro.get_kernel(c.kernel).weights for c in self.cases}
        self.inputs = {c: make_input(seed, c) for c in self.cases}
        self.padded = {
            c: np.pad(self.inputs[c], self.weights[c].radius) for c in self.cases
        }
        self.slots = tuple(
            Slot(self.cases[i], mode, self.op_points(self.cases[i]))
            for i, mode in self.CYCLE
        )

    def op_points(self, case: Case) -> int:
        return case.points

    def input_hash(self) -> str:
        h = hashlib.sha256()
        for c in self.cases:
            h.update(c.name.encode())
            h.update(self.inputs[c].tobytes())
        return h.hexdigest()

    # -- program calls ----------------------------------------------------
    def setup(self, cache) -> dict:
        """Compile every plan into ``cache`` and run one warm-up op each."""
        raise NotImplementedError

    def prepare(self, state: dict) -> None:
        """Expected outputs for the checks (not part of set-up time)."""
        raise NotImplementedError

    def execute(self, state: dict, slot: Slot):
        raise NotImplementedError

    def check(self, state: dict, slot: Slot, out) -> list[str]:
        raise NotImplementedError

    def compiled(self, state: dict, slot: Slot):
        """The ``CompiledStencil`` a slot runs."""
        return state["plans"][slot.case]

    def exact_counts(self, state: dict) -> dict:
        """Counts that must repeat exactly across runs and seeds."""
        return {}

    def modeled_gstencil_per_s(self, state: dict) -> float:
        """Point-weighted modeled A100 rate: total points ÷ modeled time."""
        points = sum(s.points for s in self.slots)
        seconds = sum(
            s.points / (self.compiled(state, s).plan.predicted_gstencil_per_s * 1e9)
            for s in self.slots
        )
        return points / seconds / 1e9


class _SweepWorkload(Workload):
    """Shared by the two simulated-sweep workloads: checks and counters."""

    BACKEND = ""

    def setup(self, cache) -> dict:
        plans = {
            c: repro.compile(self.weights[c], backend=self.BACKEND, cache=cache)
            for c in self.cases
        }
        state = {"plans": plans, "first": {}}
        for slot in self.slots:
            if slot.key not in state["first"]:
                _, ev, _ = self.execute(state, slot)
                state["first"][slot.key] = ev
        return state

    def prepare(self, state: dict) -> None:
        tr = self.tracer
        state["expected"] = {}
        with tr.span("bench.prepare"):
            for c in self.cases:
                with tr.span("stencil.reference", case=c.name):
                    state["expected"][c] = repro.reference_apply(
                        self.padded[c], self.weights[c]
                    )

    def check(self, state: dict, slot: Slot, out) -> list[str]:
        grid, ev, detected = out
        problems = []
        if not np.allclose(grid, state["expected"][slot.case]):
            problems.append(f"{slot.key}: output differs from reference_apply")
        if ev != state["first"][slot.key]:
            problems.append(f"{slot.key}: EventCounters differ from first sweep")
        if detected:
            problems.append(f"{slot.key}: clean ABFT op reported {detected} detections")
        return problems

    def exact_counts(self, state: dict) -> dict:
        return {key: asdict(ev) for key, ev in sorted(state["first"].items())}


class TcuSim(_SweepWorkload):
    """``apply_simulated(backend="vectorized")`` over a fixed kernel mix."""

    name = "tcu-sim"
    BACKEND = "vectorized"
    CASES = (
        Case("Heat-1D", (65536,)),
        Case("Box-2D9P", (256, 256)),
        Case("Box-2D49P", (256, 256)),
        Case("Star-2D13P", (256, 256)),
        Case("Heat-3D", (32, 32, 32)),
    )
    # five equal slots: p50 is the middle band, p90 the slowest kernel
    CYCLE = tuple((i, "vectorized") for i in range(5))

    def execute(self, state: dict, slot: Slot):
        with self.tracer.span("core.vectorize.sweep", case=slot.case.name):
            grid, ev = state["plans"][slot.case].apply_simulated(
                self.padded[slot.case], backend="vectorized"
            )
        return grid, ev, 0


class FaithfulAbft(_SweepWorkload):
    """The interpreter stepping tiles, alternating unverified and ABFT."""

    name = "faithful-abft"
    BACKEND = "interpreter"
    # tile by tile: interpreted control flow and 8×8 NumPy calls only
    PROBE = ("interpreter", "small-numpy")
    CASES = (
        Case("Box-2D9P", (32, 32)),
        Case("Box-2D49P", (32, 32)),
        Case("Heat-3D", (16, 16, 16)),
        Case("Heat-1D", (1024,)),
    )
    # Box-2D9P and Heat-3D twice: p50 lands mid Box-2D9P-abft, p90 in
    # Heat-3D-abft, so ABFT cost moves both percentiles
    CYCLE = (
        (0, "plain"), (0, "abft"), (1, "plain"), (1, "abft"),
        (2, "plain"), (2, "abft"), (3, "plain"), (3, "abft"),
        (0, "plain"), (0, "abft"), (2, "plain"), (2, "abft"),
    )

    def execute(self, state: dict, slot: Slot):
        st = state["plans"][slot.case]
        if slot.mode == "abft":
            with self.tracer.span("faults.abft_sweep", case=slot.case.name):
                grid, ev = st.apply_simulated(
                    self.padded[slot.case], backend="interpreter", verify="abft"
                )
            return grid, ev, st.last_fault_report.total_detected
        with self.tracer.span("tcu.interpreter.sweep", case=slot.case.name):
            grid, ev = st.apply_simulated(
                self.padded[slot.case], backend="interpreter"
            )
        return grid, ev, 0


class GridSteps(Workload):
    """A cache-hit ``repro.compile`` then ``STEPS`` ``apply_grid`` steps."""

    name = "grid-steps"
    CASES = (
        Case("Box-2D9P", (64, 64)),
        Case("Box-2D49P", (512, 512)),
        Case("Heat-3D", (64, 64, 64)),
        Case("Heat-1D", (65536,)),
    )
    # The dispatch-bound 64² case fills 15 of 20 slots, back to back so
    # all but the first run warm: p50 reads it.  Heat-3D 64³ fills the
    # band around p90; the compute-bound 512² op runs once per cycle.
    CYCLE = ((3, "steps"), (2, "steps"), (1, "steps"), (2, "steps"), (3, "steps")) + (
        (0, "steps"),
    ) * 15

    def op_points(self, case: Case) -> int:
        return STEPS * case.points

    def setup(self, cache) -> dict:
        state = {
            "cache": cache,
            "plans": {c: repro.compile(self.weights[c], cache=cache) for c in self.cases},
        }
        for c in self.cases:
            self.execute(state, next(s for s in self.slots if s.case == c))
        return state

    def prepare(self, state: dict) -> None:
        tr = self.tracer
        state["expected"] = {}
        with tr.span("bench.prepare"):
            for c in self.cases:
                with tr.span("stencil.reference_iterate", case=c.name):
                    state["expected"][c] = repro.reference_iterate(
                        self.inputs[c], self.weights[c], STEPS
                    )

    def execute(self, state: dict, slot: Slot):
        tr = self.tracer
        name = slot.case.name
        with tr.span("runtime.compile", case=name, cache="hit"):
            st = repro.compile(self.weights[slot.case], cache=state["cache"])
        y = self.inputs[slot.case]
        for _ in range(STEPS):
            with tr.span("runtime.apply_grid", case=name):
                y = st.apply_grid(y)
        return y

    def check(self, state: dict, slot: Slot, out) -> list[str]:
        if np.allclose(out, state["expected"][slot.case]):
            return []
        return [f"{slot.key}: output differs from reference_iterate"]


class ClusterRounds(Workload):
    """``ClusterRuntime.run`` on a 2×2 mesh, block_steps 1 and 4.

    The ops run the ``serial`` executor.  The ``thread`` and ``process``
    executors wait on wake-ups of the host's other core, which a loaded
    shared host delays by up to 1.5× from one second to the next, so
    they are timed in the traced run only (``ladder.py``).
    """

    name = "cluster-rounds"
    CASES = (Case("Box-2D9P", (256, 256)),)
    MESH = (2, 2)
    # bs1, the default configuration and the slower, fills one slot of
    # five: p90 sits mid bs1 and p50 mid bs4, so a change that helps one
    # setting and costs the other moves one of the two percentiles
    CYCLE = ((0, "serial.bs1"),) + ((0, "serial.bs4"),) * 4

    def __init__(self, seed: int, tracer, cases=None) -> None:
        super().__init__(seed, tracer, cases)
        self.workers = min(math.prod(self.MESH), os.cpu_count() or 1)

    def op_points(self, case: Case) -> int:
        return STEPS * case.points

    def compiled(self, state: dict, slot: Slot):
        return state["dplan"].compiled

    def setup(self, cache) -> dict:
        case = self.cases[0]
        dplan = distribute(self.weights[case], case.shape, self.MESH, cache=cache)
        state = {"dplan": dplan, "runtime": ClusterRuntime(dplan), "counts": {}}
        for slot in dict.fromkeys(self.slots):
            res = self.execute(state, slot)
            state["counts"].setdefault(
                slot.mode.split(".")[1], (res.exchanged_bytes, res.rounds)
            )
        return state

    def prepare(self, state: dict) -> None:
        with self.tracer.span("bench.prepare"):
            state["expected"] = self.single_device(state)

    def single_device(self, state: dict) -> np.ndarray:
        """The same ``STEPS`` on one device: what every run must equal."""
        case = self.cases[0]
        st = state["dplan"].compiled
        with self.tracer.span("runtime.apply_grid_steps", case=case.name):
            y = self.inputs[case]
            for _ in range(STEPS):
                y = st.apply_grid(y)
        return y

    def run(self, state: dict, executor: str, block_steps: int):
        return state["runtime"].run(
            self.inputs[self.cases[0]],
            STEPS,
            block_steps=block_steps,
            executor=executor,
            max_workers=self.workers,
        )

    def execute(self, state: dict, slot: Slot):
        executor, bs = slot.mode.split(".")
        with self.tracer.span("parallel.run", case=slot.case.name, mode=slot.mode):
            return self.run(state, executor, int(bs[2:]))

    def check(self, state: dict, slot: Slot, res) -> list[str]:
        problems = []
        if not np.array_equal(res.field, state["expected"]):
            problems.append(f"{slot.key}: field not bit-identical to one device")
        if (res.exchanged_bytes, res.rounds) != state["counts"][slot.mode.split(".")[1]]:
            problems.append(f"{slot.key}: halo bytes or rounds drifted")
        return problems

    def exact_counts(self, state: dict) -> dict:
        return {
            bs: {"halo_bytes": b, "rounds": r}
            for bs, (b, r) in sorted(state["counts"].items())
        }


WORKLOADS = {w.name: w for w in (TcuSim, GridSteps, ClusterRounds, FaithfulAbft)}
