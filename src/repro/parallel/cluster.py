"""The cluster runtime: executing a :class:`DistributedPlan`.

:class:`ClusterRuntime` timesteps a global 1D/2D/3D problem across a
device mesh by driving the *runtime* — every rank executes the plan's
compiled :class:`~repro.runtime.facade.CompiledStencil`, so distributed
runs honor ``backend=``, the plan cache, fault injection/ABFT, and the
trace/event/health telemetry planes exactly like single-device sweeps.
One phase-driven loop serves every mode:

* per-step exchange (``block_steps=1``, the classic halo pipeline),
* temporal blocking (trapezoid/diamond rounds from the plan's
  :class:`~repro.parallel.plan.HaloSchedule`),
* overlapped execution (``overlap=True``): the halo transfer is issued
  asynchronously (``cp.async`` model) and each rank computes its
  halo-independent interior *while the transfer is in flight*, then
  finishes the boundary strips after arrival — bit-identical to the
  synchronous exchange by the overlap-equivalence suite,
* serial / thread / process executors; process ranks run in worker
  processes under the PR 5 recovery ladder with their spans revived
  into the parent trace.

It produces the exact global trajectory (validated against the
single-grid reference) plus a scaling-time model
(:class:`ClusterTimings`) with an NVLink-like interconnect.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from repro import telemetry
from repro.errors import ExecutionError, FaultError, ReproError
from repro.parallel.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointHalt,
    ClusterCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.parallel.decomposition import Partition
from repro.parallel.distributed import (
    advance_window,
    frame_regions,
    interior_of,
    process_advance,
    strip_window,
)
from repro.parallel.halo import HaloExchanger, halo_bytes_counter
from repro.parallel.plan import DistributedPlan, distribute
from repro.perf.costmodel import time_per_point
from repro.perf.machine import A100, MachineSpec
from repro.stencil.weights import StencilWeights
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.telemetry.context import TraceContext
from repro.telemetry.health import HEALTH
from repro.telemetry.log import emit as emit_event
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.spans import TRACER

__all__ = [
    "ClusterRuntime",
    "ClusterResult",
    "ClusterTimings",
    "NVLINK_BANDWIDTH",
    "NVLINK_LATENCY",
    "EXECUTORS",
]

#: per-direction NVLink3 bandwidth of an A100 system, B/s
NVLINK_BANDWIDTH = 600e9

#: per-message NVLink hop latency, s — the fixed cost every exchange
#: round pays once, which temporal blocking amortizes over block_steps
NVLINK_LATENCY = 1e-7

#: rank execution strategies ``ClusterRuntime.run`` understands
EXECUTORS = ("serial", "thread", "process")


@dataclass(frozen=True)
class ClusterTimings:
    """Modelled per-step timing of one cluster configuration.

    The original fields model the synchronous pipeline (``step_s =
    compute_s + comm_s``); the defaulted extensions model the
    overlapped one, where the interior sweep hides the transfer:
    ``step_s = max(comm_s, interior_s) + boundary_s``.  ``comm_s`` is
    always the *per-step equivalent* interconnect time (a temporal
    round's deep exchange amortized over its ``block_steps``).
    """

    num_devices: int
    compute_s: float  # slowest device's sweep
    comm_s: float  # largest halo transfer, per-step equivalent
    steps: int
    overlap: bool = False
    interior_s: float = 0.0  # halo-independent part of compute_s
    boundary_s: float = 0.0  # strips that must wait for arrival
    points: int = 0  # global grid points updated per step
    block_steps: int = 1

    @property
    def step_s(self) -> float:
        if self.overlap:
            return max(self.comm_s, self.interior_s) + self.boundary_s
        return self.compute_s + self.comm_s

    @property
    def total_s(self) -> float:
        return self.step_s * self.steps

    def speedup_over(self, other: "ClusterTimings") -> float:
        """How much faster this configuration is than ``other``."""
        return other.total_s / self.total_s

    @property
    def comm_fraction(self) -> float:
        return self.comm_s / self.step_s if self.step_s else 0.0

    @property
    def gstencil_per_s(self) -> float:
        """Modelled throughput in giga stencil-point updates per second."""
        return self.points / self.step_s / 1e9 if self.step_s else 0.0


@dataclass
class ClusterResult:
    """Everything one :meth:`ClusterRuntime.run` produced."""

    field: np.ndarray
    steps: int
    phases: tuple[int, ...]
    exchanged_bytes: int
    counters: EventCounters | None = None
    fault_report: object | None = None
    backend: str | None = None
    executor: str = "serial"
    overlap: bool = False
    worker_pids: tuple[int, ...] = ()
    rank_plan_keys: tuple[str, ...] = ()
    #: per-round exchange ledger: one dict per halo exchange with
    #: ``round`` / ``steps`` / ``depth`` / ``halo_bytes`` (this round's
    #: bit-exact contribution to :attr:`exchanged_bytes`) and
    #: ``comm_bytes_max`` (the largest single-rank receive, the volume
    #: the :class:`ClusterTimings` interconnect model charges)
    round_log: tuple[dict, ...] = ()
    #: growth of the process-wide ``repro_halo_bytes_total`` counter
    #: across this run — reconciles bit-exactly with
    #: :attr:`exchanged_bytes` (one accounting source)
    halo_counter_delta: int = 0
    #: the plan this run executed (the report needs its partition and
    #: timing model); ``None`` only for hand-built results
    plan: DistributedPlan | None = None
    #: trace id of the run's ``cluster.run`` span (None when telemetry
    #: was off) — :meth:`report` finds the span forest by it
    trace_id: str | None = None
    #: halo bytes inherited from the checkpoint a resumed run restarted
    #: from — the three-ledger reconciliation adds these to the fresh
    #: counter growth (:attr:`exchanged_bytes` spans the *whole* run,
    #: :attr:`halo_counter_delta` only the resumed part)
    resumed_halo_bytes: int = 0
    #: resilience ledger (checkpoints saved/restored, halo detections
    #: and retransmits, elastic re-plans) — ``None`` when the run used
    #: none of the resilience machinery
    resilience: dict | None = None

    @property
    def rounds(self) -> int:
        """Halo exchanges performed (messages per rank)."""
        return len(self.phases)

    def report(self, tracer=None):
        """Post-process this run into a cluster observatory report.

        Delegates to :func:`repro.telemetry.cluster.build_cluster_report`
        against the merged trace (the run must have executed under
        ``telemetry.capture()`` / an enabled tracer).  Raises
        :class:`~repro.telemetry.validate.TelemetryError` when no
        ``cluster.run`` span of this run is in the tracer's buffer.
        """
        from repro.telemetry.cluster import build_cluster_report

        return build_cluster_report(self, tracer=tracer)


class ClusterRuntime:
    """A mesh of simulated devices executing one distributed plan."""

    def __init__(
        self, plan: DistributedPlan, machine: MachineSpec = A100
    ) -> None:
        self.plan = plan
        self.machine = machine
        self.part: Partition = plan.part
        # one exchanger per halo depth, shared across runs so the byte
        # ledger (and the repro_halo_bytes_total counter behind it)
        # accumulates in exactly one place
        self._exchangers: dict[int, HaloExchanger] = {}
        self.last_result: ClusterResult | None = None
        self.last_fault_report = None
        #: free-form run description stored in checkpoint manifests so
        #: ``repro cluster resume`` can rebuild the plan (the CLI fills
        #: this in; library callers may leave it empty)
        self.checkpoint_meta: dict = {}

    # ------------------------------------------------------------------
    def exchanger(self, depth: int) -> HaloExchanger:
        """The shared halo exchanger for one halo depth."""
        ex = self._exchangers.get(depth)
        if ex is None:
            ex = self.plan.exchanger(depth)
            self._exchangers[depth] = ex
        return ex

    @property
    def halo(self) -> HaloExchanger:
        """The per-step (radius-deep) halo exchanger."""
        return self.exchanger(self.plan.radius)

    def scatter(self, global_field: np.ndarray) -> dict[int, np.ndarray]:
        """Distribute a global field onto the device mesh."""
        global_field = np.asarray(global_field, dtype=np.float64)
        if global_field.shape != self.part.global_shape:
            raise ValueError(
                f"field shape {global_field.shape} != partition "
                f"{self.part.global_shape}"
            )
        return {
            sub.rank: global_field[sub.slices].copy()
            for sub in self.part.subdomains
        }

    def gather(self, blocks: dict[int, np.ndarray]) -> np.ndarray:
        """Reassemble the global field."""
        out = np.empty(self.part.global_shape, dtype=np.float64)
        for sub in self.part.subdomains:
            out[sub.slices] = blocks[sub.rank]
        return out

    # ------------------------------------------------------------------
    def run(
        self,
        global_field: np.ndarray,
        steps: int,
        *,
        block_steps: int | None = None,
        tiling: str | None = None,
        overlap: bool = False,
        executor: str = "serial",
        simulate: bool = False,
        backend: str | None = None,
        verify: str | None = None,
        faults=None,
        policy=None,
        max_workers: int | None = None,
        checkpoint: CheckpointConfig | None = None,
        resume_from: ClusterCheckpoint | str | None = None,
        elastic: bool = False,
    ) -> ClusterResult:
        """Timestep the global problem; returns a :class:`ClusterResult`.

        ``block_steps`` / ``tiling`` override the plan's halo schedule
        for this run (temporal blocking); ``overlap=True`` issues each
        exchange asynchronously and computes interiors while it is in
        flight; ``executor`` picks how ranks run within a round
        (``"serial"`` / ``"thread"`` / ``"process"``).  ``simulate=True``
        runs the faithful TCU sweep per rank (merged
        :class:`~repro.tcu.counters.EventCounters` on the result) under
        ``backend=``; ``verify`` / ``faults`` / ``policy`` arm the PR 5
        fault-tolerance ladder — injected ``shard``/``rank`` faults
        target ranks and recover through the shared supervisor, and
        armed halo faults are caught by strip-checksum verification of
        every exchanged window (with bounded retransmission).

        ``checkpoint`` snapshots the run at temporal-round barriers
        (see :class:`~repro.parallel.checkpoint.CheckpointConfig`);
        ``resume_from`` continues a checkpointed run — ``global_field``
        is ignored then (the blocks come from the snapshot) and the
        completed trajectory is bit-identical to an uninterrupted run.
        ``elastic=True`` lets a rank that exhausts its recovery ladder
        be *dropped*: the surviving ranks re-partition the grid via
        :func:`~repro.parallel.plan.distribute`, replay the failed
        round from its barrier state, and finish the sweep —
        bit-identically, because the per-point update chains are
        partition-independent.  All modes produce bit-identical
        trajectories (the equivalence suite asserts it).
        """
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        plan = self.plan
        schedule = plan.schedule
        if block_steps is not None or tiling is not None:
            schedule = replace(
                schedule,
                block_steps=(
                    schedule.block_steps if block_steps is None else block_steps
                ),
                tiling=schedule.tiling if tiling is None else tiling,
            )
        phases = schedule.phases(steps)  # validates steps >= 0

        h = plan.radius
        gshape = plan.global_shape
        boundary = schedule.boundary
        runtime = plan.compiled.runtime
        subs = {sub.rank: sub for sub in self.part.subdomains}
        ranks = sorted(subs)

        fault_mode = bool(verify) or faults is not None or policy is not None
        injector = None
        report = None
        before = None
        if fault_mode:
            from repro.faults import FaultReport, RecoveryPolicy, as_injector

            injector = as_injector(faults)
            report = injector.report if injector is not None else FaultReport()
            policy = policy or RecoveryPolicy()
            before = report.snapshot()
        self.last_fault_report = report

        resolved = None
        if simulate:
            from repro.runtime.backends import resolve_backend

            resolved = resolve_backend(
                backend, plan_default=plan.backend, fault_mode=fault_mode
            )

        halo_guard = False
        if injector is not None:
            from repro.faults.spec import HALO_KINDS

            halo_guard = bool(injector.plan.by_kind(*HALO_KINDS))

        ckpt_cfg = checkpoint
        if isinstance(resume_from, str):
            resume_from = load_checkpoint(resume_from)
        resumed: ClusterCheckpoint | None = resume_from
        start_round = 0
        exchanged = 0
        resumed_bytes = 0
        round_log: list[dict] = []
        if resumed is not None:
            if resumed.plan_key != plan.key:
                raise CheckpointError(
                    "checkpoint was taken against a different distributed "
                    f"plan (checkpoint {resumed.plan_key[:12]}…, current "
                    f"{plan.key[:12]}…)"
                )
            if (
                list(resumed.phases) != [int(p) for p in phases]
                or resumed.steps != steps
            ):
                raise CheckpointError(
                    "checkpoint phase schedule does not match this run "
                    f"(checkpoint {resumed.phases} over {resumed.steps} "
                    f"steps, current {[int(p) for p in phases]} over "
                    f"{steps})"
                )
            blocks = {
                rank: np.array(block, dtype=np.float64)
                for rank, block in resumed.blocks.items()
            }
            exchanged = int(resumed.exchanged_bytes)
            resumed_bytes = exchanged
            round_log = [dict(entry) for entry in resumed.round_log]
            start_round = resumed.round_index + 1
            if injector is not None and resumed.fault_state:
                injector.load_state(resumed.fault_state)
        else:
            blocks = self.scatter(global_field)

        track_resilience = (
            ckpt_cfg is not None
            or resumed is not None
            or elastic
            or halo_guard
        )
        resilience: dict = {
            "checkpoints": {
                "saved": 0,
                "restored": 1 if resumed is not None else 0,
            },
            "halo": {"detections": 0, "retransmits": 0, "recoveries": 0},
            "replans": [],
            "reassignments": 0,
        }

        total_counters = EventCounters() if simulate else None
        ledger_before = halo_bytes_counter().value
        pids: set[int] = set()
        plan_keys: set[str] = set()
        pool: ProcessPoolExecutor | None = None
        if executor == "process":
            pool = ProcessPoolExecutor(
                max_workers=max_workers or min(len(ranks), os.cpu_count() or 1)
            )

        span_attrs = dict(
            category="parallel",
            plan=plan.key[:16],
            devices=plan.num_devices,
            steps=steps,
            rounds=len(phases),
            tiling=schedule.tiling,
            overlap=overlap,
            executor=executor,
        )
        if resumed is not None:
            span_attrs["resumed_from_round"] = resumed.round_index
        if resumed is not None and resumed.trace_id and TRACER.enabled:
            # continue the interrupted run's trace: pre-seeding the root
            # span's trace id merges the resumed rounds into one tree
            run_cm = TraceContext(resumed.trace_id, None).span(
                "cluster.run", **span_attrs
            )
        else:
            run_cm = telemetry.span("cluster.run", **span_attrs)
        with run_cm as run_span:
            ctx = TraceContext.capture()
            sweep_health = HEALTH.start_sweep(f"cluster-{plan.key[:12]}")
            saved_rounds: set[int] = set()
            last_round_done = start_round - 1

            def _save(round_idx: int):
                ck = save_checkpoint(
                    ckpt_cfg.dir,
                    plan_key=plan.key,
                    round_index=round_idx,
                    phases=[int(p) for p in phases],
                    steps=int(steps),
                    exchanged_bytes=int(exchanged),
                    round_log=[dict(entry) for entry in round_log],
                    blocks=blocks,
                    mesh=tuple(self.part.mesh),
                    global_shape=tuple(gshape),
                    trace_id=run_span.trace_id,
                    fault_state=(
                        injector.state_dict() if injector is not None else None
                    ),
                    meta=dict(self.checkpoint_meta),
                    keep=ckpt_cfg.keep,
                )
                saved_rounds.add(round_idx)
                resilience["checkpoints"]["saved"] += 1
                return ck

            def _guard_halos(windows, ex, round_i, depth) -> None:
                """Verify every exchanged window's frame strips at
                tolerance 0 against the sender-side checksums, with a
                bounded retransmission ladder; an exhausted window
                escalates to a rank failure (``failed_task`` set) so the
                elastic re-plan treats the corrupting link's receiver as
                dead."""
                from repro.faults.abft import halo_frame_checksums

                retransmits = getattr(policy, "max_halo_retransmits", 2)
                # sender-side strip checksums, before any wire fault
                sent = {
                    rank: halo_frame_checksums(windows[rank], depth)
                    for rank in ranks
                }
                injector.on_halo(windows, round_i, depth)
                for rank in ranks:
                    if halo_frame_checksums(windows[rank], depth) == sent[rank]:
                        continue
                    report.bump("halo_detections")
                    resilience["halo"]["detections"] += 1
                    emit_event(
                        "halo.corrupt_detected",
                        level="warning",
                        message=(
                            f"halo window of rank {rank} failed strip-"
                            f"checksum verification in round {round_i}"
                        ),
                        rank=rank,
                        round=round_i,
                        depth=depth,
                    )
                    recovered = False
                    for retry in range(retransmits):
                        report.bump("halo_retransmits")
                        resilience["halo"]["retransmits"] += 1
                        win = ex.retransmit(rank)
                        # sticky wire faults re-corrupt the replacement
                        injector.on_halo_window(win, round_i, rank, depth)
                        windows[rank] = win
                        if halo_frame_checksums(win, depth) == sent[rank]:
                            report.bump("halo_recoveries")
                            resilience["halo"]["recoveries"] += 1
                            emit_event(
                                "halo.recovered",
                                message=(
                                    f"rank {rank} halo verified after "
                                    "retransmission"
                                ),
                                rank=rank,
                                round=round_i,
                                attempt=retry + 1,
                            )
                            recovered = True
                            break
                    if not recovered:
                        report.bump("unrecovered")
                        emit_event(
                            "halo.unrecovered",
                            level="error",
                            message=(
                                f"halo window of rank {rank} exhausted "
                                f"{retransmits} retransmissions"
                            ),
                            rank=rank,
                            round=round_i,
                        )
                        error = FaultError(
                            f"halo window of rank {rank} stayed corrupted "
                            f"after {retransmits} retransmissions"
                        )
                        error.failed_task = rank
                        raise error

            try:
                worklist = list(range(start_round, len(phases)))
                round_marks: dict[int, int] = {}
                while worklist:
                    round_i = worklist[0]
                    k = phases[round_i]
                    # per-round byte mark survives elastic retries, so
                    # aborted attempts' traffic still lands in the round's
                    # ledger entry (one accounting source)
                    round_marks.setdefault(
                        round_i, halo_bytes_counter().value
                    )
                    depth = schedule.depth(k)
                    ex = self.exchanger(depth)
                    # halo verification needs the materialized windows
                    # before any rank computes — it is a synchronization
                    # point, so the guard forces the sync exchange path
                    effective_overlap = overlap and not halo_guard
                    handle = None
                    windows = None
                    if effective_overlap:
                        # cp.async commit: blocks are snapshotted into the
                        # staging buffer before this returns; the transfer
                        # materializes on the exchanger's background lane
                        # while ranks compute their interiors below
                        with telemetry.span(
                            "cluster.exchange",
                            category="parallel",
                            round=round_i,
                            depth=depth,
                            mode="async",
                        ) as ex_span:
                            handle = ex.exchange_async(blocks)
                            ex_span.annotate(bytes=handle.bytes_issued)
                    else:
                        with telemetry.span(
                            "cluster.exchange",
                            category="parallel",
                            round=round_i,
                            depth=depth,
                            mode="sync",
                        ) as ex_span:
                            issued = ex.exchanged_bytes
                            windows = ex.exchange(blocks)
                            ex_span.annotate(
                                bytes=ex.exchanged_bytes - issued
                            )

                    def rank_worker(i: int, rank: int):
                        if injector is not None and executor == "process":
                            # shard faults fire in the dispatcher, where
                            # the supervisor's timeout/retry can see them;
                            # the ctx-attached span keeps the fault.inject
                            # child inside the run's trace instead of an
                            # orphan root on the supervisor thread
                            with ctx.span(
                                "cluster.dispatch",
                                category="parallel",
                                rank=rank,
                                round=round_i,
                            ):
                                injector.on_shard(rank)
                                injector.on_rank(rank)
                        with HEALTH.bind(
                            sweep_health.shard(rank, rows=f"rank {rank}")
                        ):
                            if executor == "process":
                                if handle is not None:
                                    with ctx.span(
                                        "cluster.wait",
                                        category="parallel",
                                        rank=rank,
                                        round=round_i,
                                    ):
                                        win = handle.wait()[rank]
                                else:
                                    win = windows[rank]
                                return process_advance(
                                    pool,
                                    rank,
                                    win,
                                    subs[rank],
                                    plan,
                                    k,
                                    ctx,
                                    simulate=simulate,
                                    backend=resolved,
                                    round_i=round_i,
                                )
                            with ctx.span(
                                "cluster.rank",
                                category="parallel",
                                rank=rank,
                                steps=k,
                                round=round_i,
                            ) as sp:
                                if injector is not None:
                                    injector.on_shard(rank)
                                    injector.on_rank(rank)
                                local = (
                                    EventCounters() if simulate else None
                                )

                                def apply_fn(win, _acc=local):
                                    if _acc is None:
                                        return runtime.apply(win)
                                    out, ev = runtime.sweep(
                                        win,
                                        resolved,
                                        Device(injector=injector),
                                        verify=verify,
                                        policy=policy,
                                        report=report,
                                    )
                                    _acc += ev
                                    return out

                                sub = subs[rank]
                                origin = tuple(
                                    s.start - depth for s in sub.slices
                                )
                                lane = dict(
                                    category="parallel",
                                    rank=rank,
                                    round=round_i,
                                )
                                if handle is None:
                                    with telemetry.span(
                                        "cluster.compute", **lane
                                    ):
                                        out = advance_window(
                                            apply_fn,
                                            windows[rank],
                                            origin,
                                            gshape,
                                            boundary,
                                            k,
                                            h,
                                        )
                                elif local is not None:
                                    # the simulated sweep tiles the whole
                                    # window (the tile decomposition is
                                    # part of the bit/counter contract),
                                    # so overlap models the async
                                    # transfer and sweeps after arrival
                                    with telemetry.span(
                                        "cluster.wait", **lane
                                    ):
                                        win = handle.wait()[rank]
                                    with telemetry.span(
                                        "cluster.compute", **lane
                                    ):
                                        out = advance_window(
                                            apply_fn,
                                            win,
                                            origin,
                                            gshape,
                                            boundary,
                                            k,
                                            h,
                                        )
                                else:
                                    block = blocks[rank]
                                    interior, strips = frame_regions(
                                        block.shape, depth
                                    )
                                    if interior is None:
                                        # block too small to hide any
                                        # compute: wait, then full window
                                        with telemetry.span(
                                            "cluster.wait", **lane
                                        ):
                                            win = handle.wait()[rank]
                                        with telemetry.span(
                                            "cluster.compute", **lane
                                        ):
                                            out = advance_window(
                                                apply_fn,
                                                win,
                                                origin,
                                                gshape,
                                                boundary,
                                                k,
                                                h,
                                            )
                                    else:
                                        with telemetry.span(
                                            "cluster.interior", **lane
                                        ):
                                            core = interior_of(
                                                apply_fn,
                                                block,
                                                sub,
                                                gshape,
                                                boundary,
                                                k,
                                                h,
                                            )
                                        with telemetry.span(
                                            "cluster.wait", **lane
                                        ):
                                            win = handle.wait()[rank]
                                        out = np.empty(
                                            sub.shape, dtype=np.float64
                                        )
                                        out[interior] = core
                                        with telemetry.span(
                                            "cluster.stitch", **lane
                                        ):
                                            for region in strips:
                                                sw = strip_window(
                                                    win, region, depth
                                                )
                                                so = tuple(
                                                    s.start
                                                    + r.start
                                                    - depth
                                                    for s, r in zip(
                                                        sub.slices, region
                                                    )
                                                )
                                                out[region] = (
                                                    advance_window(
                                                        apply_fn,
                                                        sw,
                                                        so,
                                                        gshape,
                                                        boundary,
                                                        k,
                                                        h,
                                                    )
                                                )
                                if local is not None:
                                    sp.add_events(local)
                                return out, local, None

                    try:
                        if halo_guard and depth > 0:
                            _guard_halos(windows, ex, round_i, depth)
                        if fault_mode:
                            from repro.faults.supervisor import (
                                supervise_tasks,
                            )

                            results = supervise_tasks(
                                {r: (r,) for r in ranks},
                                rank_worker,
                                policy,
                                report,
                                max_workers=(
                                    1
                                    if executor == "serial"
                                    else max_workers
                                ),
                                health=sweep_health,
                                describe=lambda args: f"rank {args[0]}",
                            )
                        elif executor == "serial":
                            results = {r: rank_worker(r, r) for r in ranks}
                        else:
                            with ThreadPoolExecutor(
                                max_workers=max_workers
                            ) as tp:
                                futures = {
                                    r: tp.submit(rank_worker, r, r)
                                    for r in ranks
                                }
                                results = {}
                                for r, future in futures.items():
                                    try:
                                        results[r] = future.result()
                                    except ReproError:
                                        raise
                                    except Exception as exc:
                                        raise ExecutionError(
                                            f"cluster rank {r} of "
                                            f"{len(ranks)} failed: {exc}"
                                        ) from exc

                        for r in ranks:
                            out, ev, info = results[r]
                            blocks[r] = out
                            if ev is not None and total_counters is not None:
                                total_counters += ev
                            if info:
                                pids.add(info["pid"])
                                plan_keys.add(info["plan_key"])
                    except FaultError as exc:
                        dead = getattr(exc, "failed_task", None)
                        if not elastic or dead is None or len(ranks) <= 1:
                            raise
                        # elastic re-plan: ``blocks`` still hold the
                        # round-start barrier state (results only fold
                        # after every rank succeeds), so shrinking the
                        # mesh and replaying this round is lossless —
                        # and bit-identical, because the per-point
                        # update chains are partition-independent
                        global_now = self.gather(blocks)
                        old_mesh = tuple(self.part.mesh)
                        new_mesh = (len(ranks) - 1,) + (1,) * (
                            len(gshape) - 1
                        )
                        plan = distribute(
                            plan.source_weights,
                            gshape,
                            new_mesh,
                            boundary=boundary,
                            block_steps=schedule.block_steps,
                            tiling=schedule.tiling,
                            backend=plan.backend,
                        )
                        schedule = plan.schedule
                        self.plan = plan
                        self.part = plan.part
                        self._exchangers = {}
                        runtime = plan.compiled.runtime
                        subs = {
                            sub.rank: sub for sub in self.part.subdomains
                        }
                        ranks = sorted(subs)
                        blocks = self.scatter(global_now)
                        if injector is not None:
                            # survivors are renumbered: the dead rank's
                            # (possibly sticky) faults must not transfer
                            # onto whoever inherits its index
                            injector.disarm_rank(dead)
                        if report is not None:
                            report.bump("rank_reassignments")
                            if report.counts.get("unrecovered", 0) > 0:
                                # the supervisor booked the exhausted
                                # ladder as unrecovered before the
                                # replan ran; the re-partition *is*
                                # the recovery
                                report.bump("unrecovered", -1)
                        REGISTRY.counter(
                            "repro_rank_reassignments_total",
                            help=(
                                "cluster ranks replaced by an elastic "
                                "re-partition"
                            ),
                        ).inc()
                        resilience["reassignments"] += 1
                        resilience["replans"].append(
                            {
                                "round": int(round_i),
                                "dead_rank": int(dead),
                                "old_mesh": [int(m) for m in old_mesh],
                                "new_mesh": [int(m) for m in new_mesh],
                            }
                        )
                        emit_event(
                            "rank.reassigned",
                            level="warning",
                            message=(
                                f"rank {dead} exhausted its recovery "
                                f"ladder; re-partitioned {old_mesh} -> "
                                f"{new_mesh}, replaying round {round_i}"
                            ),
                            dead_rank=int(dead),
                            round=int(round_i),
                            old_mesh=list(old_mesh),
                            new_mesh=list(new_mesh),
                        )
                        continue

                    round_moved = int(
                        halo_bytes_counter().value
                        - round_marks.pop(round_i)
                    )
                    exchanged += round_moved
                    round_log.append(
                        {
                            "round": round_i,
                            "steps": k,
                            "depth": depth,
                            "halo_bytes": round_moved,
                            "comm_bytes_max": max(
                                ex.bytes_per_exchange(s.rank)
                                for s in self.part.subdomains
                            ),
                        }
                    )
                    last_round_done = round_i
                    worklist.pop(0)
                    if ckpt_cfg is not None and (
                        (round_i + 1) % ckpt_cfg.every == 0
                        or ckpt_cfg.halt_after == round_i
                    ):
                        ck = _save(round_i)
                        if ckpt_cfg.halt_after == round_i:
                            raise CheckpointHalt(ck.path, round_i)
            except KeyboardInterrupt:
                # don't leak the pool or lose the run's progress: kill
                # the workers, flush what we know, and leave the last
                # completed barrier behind as a resumable checkpoint
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                    for proc in list(
                        (getattr(pool, "_processes", None) or {}).values()
                    ):
                        try:
                            proc.terminate()
                        except Exception:  # pragma: no cover - defensive
                            pass
                    pool = None
                emit_event(
                    "run.interrupted",
                    level="warning",
                    message=(
                        "cluster run interrupted after "
                        f"{last_round_done + 1} of {len(phases)} rounds"
                    ),
                    rounds_done=last_round_done + 1,
                    rounds_total=len(phases),
                )
                if (
                    ckpt_cfg is not None
                    and last_round_done >= 0
                    and last_round_done not in saved_rounds
                ):
                    _save(last_round_done)
                raise
            finally:
                if pool is not None:
                    pool.shutdown(wait=True)
                HEALTH.publish()
                HEALTH.write_file()

            if total_counters is not None:
                run_span.add_events(total_counters)
                telemetry.absorb_events(total_counters)
            if report is not None:
                run_span.annotate(
                    faults_injected=report.total_injected,
                    faults_detected=report.total_detected,
                    faults_recovered=report.total_recovered,
                )
                telemetry.absorb_faults(report.delta(before))
            run_span.annotate(halo_bytes=exchanged)

        result = ClusterResult(
            field=self.gather(blocks),
            steps=steps,
            phases=phases,
            exchanged_bytes=exchanged,
            counters=total_counters,
            fault_report=report,
            backend=resolved,
            executor=executor,
            overlap=overlap,
            worker_pids=tuple(sorted(pids)),
            rank_plan_keys=tuple(sorted(plan_keys)),
            round_log=tuple(round_log),
            halo_counter_delta=int(
                halo_bytes_counter().value - ledger_before
            ),
            plan=plan,
            trace_id=run_span.trace_id,
            resumed_halo_bytes=resumed_bytes,
            resilience=resilience if track_resilience else None,
        )
        self.last_result = result
        return result

    # ------------------------------------------------------------------
    # scaling model
    # ------------------------------------------------------------------
    def timings(
        self,
        steps: int = 1,
        *,
        overlap: bool = False,
        block_steps: int = 1,
        weights: StencilWeights | None = None,
    ) -> ClusterTimings:
        """Modelled per-step time: slowest sweep + largest halo transfer.

        The sweep time reuses the single-GPU cost model on a
        representative measured footprint scaled to the largest block.
        ``block_steps > 1`` amortizes one deep exchange over the round
        (the per-step-equivalent ``comm_s`` drops ~``block_steps``×);
        ``overlap=True`` splits the sweep into the interior hidden
        behind the transfer and the boundary strips that wait for it.
        """
        from repro.baselines.lorastencil import LoRAStencilMethod
        from repro.stencil.kernels import BenchmarkKernel

        weights = (
            weights if weights is not None else self.plan.source_weights
        )
        if not isinstance(weights, StencilWeights):
            raise ValueError(
                "the timing model needs StencilWeights (the plan was "
                "distributed from a raw array); pass weights="
            )
        part = self.part
        biggest = max(
            part.subdomains, key=lambda s: int(np.prod(s.shape))
        )
        kernel = BenchmarkKernel(
            name="cluster-kernel",
            weights=weights,
            problem_size=biggest.shape,
            iterations=steps,
            blocking=(32, 64),
        )
        method = LoRAStencilMethod(kernel)
        measure = tuple(min(s, 64) for s in biggest.shape)
        fp = method.footprint(measure)
        per_point = time_per_point(fp, method.traits(), self.machine)
        block_points = int(np.prod(biggest.shape))
        compute = per_point * block_points
        depth = self.plan.radius * block_steps
        ex = self.exchanger(depth)
        comm_bytes = max(
            ex.bytes_per_exchange(s.rank) for s in part.subdomains
        )
        # one deep exchange per round: a fixed per-message latency plus
        # the volume over the link, amortized over the round's steps —
        # the latency term is what temporal blocking actually cuts
        # (deep corner halos make the *volume* slightly superlinear).
        # The transfer formula is shared with the cluster observatory
        # so measured reports reconcile exactly with this model.
        from repro.telemetry.cluster import modeled_transfer_s

        comm = modeled_transfer_s(comm_bytes) / block_steps
        interior_points = int(
            np.prod([max(0, n - 2 * depth) for n in biggest.shape])
        )
        return ClusterTimings(
            num_devices=part.num_devices,
            compute_s=compute,
            comm_s=comm,
            steps=steps,
            overlap=overlap,
            interior_s=per_point * interior_points,
            boundary_s=per_point * (block_points - interior_points),
            points=int(np.prod(self.plan.global_shape)),
            block_steps=block_steps,
        )
