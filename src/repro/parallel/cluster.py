"""The cluster runtime: executing a :class:`DistributedPlan`.

:class:`ClusterRuntime` timesteps a global 1D/2D/3D problem across a
device mesh; every rank executes the plan's compiled stencil, so
distributed runs honor ``backend=``, the plan cache, fault injection /
ABFT and telemetry exactly like single-device sweeps.
:meth:`ClusterRuntime.run` is the paper's §IV-B copy/compute pipeline,
a loop over temporal rounds through five named phases: **exchange**
(sync, or async ``cp.async``-style under overlap) → **verify** (halo
strip checksums) → **compute** (every rank; under overlap the interior
while the transfer is in flight, then the boundary strips) → **fold**
(blocks, counters, halo ledger) → **barrier** (checkpoints).
:class:`ClusterTimings` models the scaling on an NVLink-like link.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro import telemetry
from repro.errors import ExecutionError, FaultError, ReproError
from repro.faults import (
    HALO_KINDS,
    MMA_KINDS,
    STAGE_KINDS,
    FaultReport,
    RecoveryPolicy,
    as_injector,
    halo_frame_checksums,
)
from repro.faults.supervisor import supervise_tasks
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
    process_advance,
    strip_window,
)
from repro.parallel.halo import AsyncHaloHandle, HaloExchanger
from repro.parallel.plan import DistributedPlan, distribute
from repro.perf.costmodel import time_per_point
from repro.perf.machine import A100, MachineSpec
from repro.runtime.backends import resolve_backend
from repro.stencil.weights import StencilWeights
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.telemetry.context import TraceContext
from repro.telemetry.health import HEALTH
from repro.telemetry.log import emit as emit_event
from repro.telemetry.metrics import REGISTRY

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
    #: every halo byte the run moved: the sum of :attr:`round_log`
    exchanged_bytes: int
    counters: EventCounters | None = None
    fault_report: object | None = None
    backend: str | None = None
    executor: str = "serial"
    overlap: bool = False
    worker_pids: tuple[int, ...] = ()
    rank_plan_keys: tuple[str, ...] = ()
    #: the halo ledger, one dict per round: ``round`` / ``steps`` /
    #: ``depth`` / ``halo_bytes`` (exchanges and retransmits) /
    #: ``comm_bytes_max`` (the largest receive, what the model charges)
    round_log: tuple[dict, ...] = ()
    #: the plan executed last (re-partitioned after an elastic re-plan)
    plan: DistributedPlan | None = None
    #: trace id of the run's ``cluster.run`` span (None when telemetry
    #: was off) — :meth:`report` finds the span forest by it
    trace_id: str | None = None
    #: the part of :attr:`exchanged_bytes` inherited from a checkpoint
    resumed_halo_bytes: int = 0
    #: resilience ledger (checkpoints saved/restored, halo detections
    #: and retransmits, elastic re-plans) — ``None`` when the run used
    #: none of the resilience machinery
    resilience: dict | None = None

    @property
    def halo_counter_delta(self) -> int:
        """Bytes moved by this call (a resume excludes its checkpoint's)."""
        return self.exchanged_bytes - self.resumed_halo_bytes

    @property
    def rounds(self) -> int:
        """Halo exchanges performed (messages per rank)."""
        return len(self.phases)

    def report(self, tracer=None):
        """This run's cluster observatory report, built from the merged
        trace (run under ``telemetry.capture()``); raises
        :class:`~repro.telemetry.validate.TelemetryError` without one.
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
        # one exchanger per halo depth, shared across runs (staging
        # buffers and the async lane are reused run after run)
        self._exchangers: dict[int, HaloExchanger] = {}

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

        ``block_steps`` / ``tiling`` override the plan's halo schedule;
        ``overlap=True`` computes interiors while the exchange is in
        flight; ``executor`` runs a round's ranks.  ``simulate=True``
        runs the faithful TCU sweep (merged counters on the result).
        ``verify`` / ``faults`` / ``policy`` arm the fault-tolerance
        ladder; ``verify``, ``backend`` and MMA/stage faults act on the
        simulated sweep in this process, so they need ``simulate=True``
        and a serial or thread executor (else ``ValueError``).
        ``checkpoint`` snapshots round barriers; ``resume_from``
        continues from one, ignoring ``global_field``.  ``elastic=True``
        re-partitions the survivors when a rank exhausts its recovery
        ladder.  Every mode is bit-identical to the plain run; the
        runtime is never modified (the executed plan is ``result.plan``).
        """
        state = _Run(
            self,
            global_field,
            steps,
            block_steps=block_steps,
            tiling=tiling,
            overlap=overlap,
            executor=executor,
            simulate=simulate,
            backend=backend,
            verify=verify,
            faults=faults,
            policy=policy,
            max_workers=max_workers,
            checkpoint=checkpoint,
            resume_from=resume_from,
            elastic=elastic,
        )
        with state.session():
            round_i = state.start_round
            while round_i < len(state.phases):
                rnd = state.exchange(round_i)
                try:
                    state.verify(rnd)
                    results = state.compute(rnd)
                except FaultError as exc:
                    # the blocks still hold the round's barrier state
                    state.replan(exc, round_i)
                    continue
                state.fold(rnd, results)
                state.barrier(round_i)
                round_i += 1
        return state.result()

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


# -- one run: its state and the round phases ----------------------------
@dataclass
class _Round:
    """One round's exchange: ``windows`` (sync) or ``handle`` (async)."""

    index: int
    steps: int
    depth: int
    exchanger: HaloExchanger
    windows: dict[int, np.ndarray] | None = None
    handle: AsyncHaloHandle | None = None


class _Run:
    """The state of one :meth:`ClusterRuntime.run`, a method per phase.

    ``cluster`` is the caller's runtime, or a private one after an
    elastic re-plan.  The halo ledger is ``round_log``: exchanges and
    retransmits book into the open round; the fold closes its entry.
    """

    def __init__(
        self,
        cluster: ClusterRuntime,
        global_field,
        steps: int,
        *,
        block_steps,
        tiling,
        overlap,
        executor,
        simulate,
        backend,
        verify,
        faults,
        policy,
        max_workers,
        checkpoint,
        resume_from,
        elastic,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        self.injector = as_injector(faults)
        specs = self.injector.plan.specs if self.injector is not None else ()
        kinds = {spec.kind for spec in specs}
        tcu_faults = any(kind in MMA_KINDS + STAGE_KINDS for kind in kinds)
        if not simulate and (verify or backend is not None or tcu_faults):
            raise ValueError(
                "verify=, backend= and MMA/stage faults need simulate=True"
            )
        if executor == "process" and (verify or tcu_faults):
            raise ValueError(
                "process ranks run without ABFT and the fault injector: "
                "verify= and MMA/stage faults need executor serial/thread"
            )
        schedule = cluster.plan.schedule
        if block_steps is not None or tiling is not None:
            schedule = replace(
                schedule,
                block_steps=(
                    schedule.block_steps if block_steps is None else block_steps
                ),
                tiling=schedule.tiling if tiling is None else tiling,
            )
        self.phases = schedule.phases(steps)  # validates steps >= 0
        self.steps, self.schedule = steps, schedule
        self._adopt(cluster)
        self.overlap, self.executor, self.elastic = overlap, executor, elastic
        self.simulate, self.verify_mode = simulate, verify
        self.checkpoint, self.max_workers = checkpoint, max_workers
        self.halo_guard = any(kind in HALO_KINDS for kind in kinds)
        self.fault_mode = (
            bool(verify) or faults is not None or policy is not None
        )
        self.report = self.before = None
        if self.fault_mode:
            self.report = (
                self.injector.report if self.injector else FaultReport()
            )
            self.before = self.report.snapshot()
            policy = policy or RecoveryPolicy()
        self.policy = policy
        self.backend = None
        if simulate:
            self.backend = resolve_backend(
                backend,
                plan_default=self.plan.backend,
                fault_mode=self.fault_mode,
            )
        if isinstance(resume_from, str):
            resume_from = load_checkpoint(resume_from)
        self.resumed: ClusterCheckpoint | None = resume_from
        self.round_log: list[dict] = []
        self.start_round = 0
        if resume_from is None:
            self.blocks = cluster.scatter(global_field)
        else:
            self._restore(resume_from)
        self.pending_bytes = 0  # booked into the open round so far
        self.saved_rounds: set[int] = set()
        self.halo_tally = dict(detections=0, retransmits=0, recoveries=0)
        self.replans: list[dict] = []
        self.counters = EventCounters() if simulate else None
        self.pids: set[int] = set()
        self.plan_keys: set[str] = set()
        self.pool: ProcessPoolExecutor | None = None
        self.threads: ThreadPoolExecutor | None = None

    def _adopt(self, cluster: ClusterRuntime) -> None:
        self.cluster = cluster
        self.subs = {sub.rank: sub for sub in cluster.part.subdomains}
        self.ranks = sorted(self.subs)

    @property
    def plan(self) -> DistributedPlan:
        return self.cluster.plan

    def _restore(self, ck: ClusterCheckpoint) -> None:
        if ck.plan_key != self.plan.key:
            raise CheckpointError(
                "checkpoint was taken against a different distributed "
                f"plan (checkpoint {ck.plan_key[:12]}…, current "
                f"{self.plan.key[:12]}…)"
            )
        phases = [int(p) for p in self.phases]
        if list(ck.phases) != phases or ck.steps != self.steps:
            raise CheckpointError(
                "checkpoint phase schedule does not match this run "
                f"(checkpoint {ck.phases} over {ck.steps} steps, current "
                f"{phases} over {self.steps})"
            )
        self.blocks = {
            rank: np.array(block, dtype=np.float64)
            for rank, block in ck.blocks.items()
        }
        self.round_log = [dict(entry) for entry in ck.round_log]
        self.start_round = ck.round_index + 1
        if self.injector is not None and ck.fault_state:
            self.injector.load_state(ck.fault_state)

    @property
    def exchanged(self) -> int:
        return sum(int(entry["halo_bytes"]) for entry in self.round_log)

    @contextmanager
    def session(self):
        """The ``cluster.run`` span, pools and health around the loop."""
        attrs = dict(
            category="parallel",
            plan=self.plan.key[:16],
            devices=self.plan.num_devices,
            steps=self.steps,
            rounds=len(self.phases),
            tiling=self.schedule.tiling,
            overlap=self.overlap,
            executor=self.executor,
        )
        resumed, root = self.resumed, telemetry.span
        if resumed is not None:
            attrs["resumed_from_round"] = resumed.round_index
            if resumed.trace_id:
                # the resumed rounds join the interrupted run's trace
                root = TraceContext(resumed.trace_id, None).span
        with root("cluster.run", **attrs) as span:
            self.trace_id = span.trace_id
            self.ctx = TraceContext.capture()
            self.health = HEALTH.start_sweep(f"cluster-{self.plan.key[:12]}")
            try:
                if self.executor == "process":
                    cpus = min(len(self.ranks), os.cpu_count() or 1)
                    self.pool = ProcessPoolExecutor(self.max_workers or cpus)
                if self.executor != "serial" and not self.fault_mode:
                    self.threads = ThreadPoolExecutor(self.max_workers)
                yield
            except KeyboardInterrupt:
                self._interrupted()
                raise
            finally:
                for pool in (self.threads, self.pool):
                    if pool is not None:
                        pool.shutdown(wait=True)
                HEALTH.publish()
                HEALTH.write_file()
            if self.counters is not None:
                span.add_events(self.counters)
                telemetry.absorb_events(self.counters)
            if self.report is not None:
                span.annotate(
                    faults_injected=self.report.total_injected,
                    faults_detected=self.report.total_detected,
                    faults_recovered=self.report.total_recovered,
                )
                telemetry.absorb_faults(self.report.delta(self.before))
            span.annotate(halo_bytes=self.exchanged)

    def _interrupted(self) -> None:
        """Kill the workers; leave the last barrier as a checkpoint."""
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            for proc in list(
                (getattr(self.pool, "_processes", None) or {}).values()
            ):
                try:
                    proc.terminate()
                except Exception:  # pragma: no cover - defensive
                    pass
            self.pool = None
        done, total = len(self.round_log), len(self.phases)
        emit_event(
            "run.interrupted",
            level="warning",
            message=f"cluster run interrupted after {done} of {total} rounds",
            rounds_done=done,
            rounds_total=total,
        )
        if self.checkpoint is not None and done:
            if done - 1 not in self.saved_rounds:
                self._save(done - 1)

    def exchange(self, round_i: int) -> _Round:
        """Phase 1: issue the round's halo exchange and book its bytes.
        Armed halo faults force sync: verify needs every window first."""
        k = self.phases[round_i]
        depth = self.schedule.depth(k)
        ex = self.cluster.exchanger(depth)
        rnd = _Round(round_i, k, depth, ex)
        overlapped = self.overlap and not self.halo_guard
        with telemetry.span(
            "cluster.exchange",
            category="parallel",
            round=round_i,
            depth=depth,
            mode="async" if overlapped else "sync",
        ) as span:
            if overlapped:
                # cp.async commit: the blocks are snapshotted on return
                rnd.handle = ex.exchange_async(self.blocks)
            else:
                rnd.windows = ex.exchange(self.blocks)
            span.annotate(bytes=ex.total_bytes_per_exchange())
        self.pending_bytes += ex.total_bytes_per_exchange()
        return rnd

    def verify(self, rnd: _Round) -> None:
        """Phase 2: check every window's frame strips against the
        sender's checksums, retransmitting a bounded number of times."""
        if not self.halo_guard or rnd.depth <= 0:
            return
        report, tally = self.report, self.halo_tally
        windows, depth, round_i = rnd.windows, rnd.depth, rnd.index
        retransmits = getattr(self.policy, "max_halo_retransmits", 2)
        # sender-side strip checksums, before any wire fault
        sent = {
            rank: halo_frame_checksums(windows[rank], depth)
            for rank in self.ranks
        }
        self.injector.on_halo(windows, round_i, depth)
        for rank in self.ranks:
            if halo_frame_checksums(windows[rank], depth) == sent[rank]:
                continue
            report.bump("halo_detections")
            tally["detections"] += 1
            emit_event(
                "halo.corrupt_detected",
                level="warning",
                message=f"rank {rank} halo failed checksum in round {round_i}",
                rank=rank,
                round=round_i,
                depth=depth,
            )
            for retry in range(retransmits):
                report.bump("halo_retransmits")
                tally["retransmits"] += 1
                win = rnd.exchanger.retransmit(rank)
                self.pending_bytes += rnd.exchanger.bytes_per_exchange(rank)
                # sticky wire faults re-corrupt the replacement
                self.injector.on_halo_window(win, round_i, rank, depth)
                windows[rank] = win
                if halo_frame_checksums(win, depth) == sent[rank]:
                    report.bump("halo_recoveries")
                    tally["recoveries"] += 1
                    emit_event(
                        "halo.recovered",
                        message=f"rank {rank} halo verified on retransmit",
                        rank=rank,
                        round=round_i,
                        attempt=retry + 1,
                    )
                    break
            else:
                report.bump("unrecovered")
                error = FaultError(
                    f"halo window of rank {rank} stayed corrupted after "
                    f"{retransmits} retransmissions"
                )
                emit_event(
                    "halo.unrecovered",
                    level="error",
                    message=str(error),
                    rank=rank,
                    round=round_i,
                )
                # the elastic re-plan treats the receiver as dead
                error.failed_task = rank
                raise error

    def compute(self, rnd: _Round) -> dict[int, tuple]:
        """Phase 3: every rank's round under the run's executor."""
        if self.fault_mode:
            return supervise_tasks(
                {r: (r,) for r in self.ranks},
                lambda _, rank: self._rank(rnd, rank),
                self.policy,
                self.report,
                max_workers=1 if self.executor == "serial" else self.max_workers,
                health=self.health,
                describe=lambda args: f"rank {args[0]}",
            )
        if self.threads is None:
            return {r: self._rank(rnd, r) for r in self.ranks}
        futures = {
            r: self.threads.submit(self._rank, rnd, r) for r in self.ranks
        }
        for r, future in futures.items():
            exc = future.exception()
            if isinstance(exc, ReproError):
                raise exc
            if exc is not None:
                raise ExecutionError(
                    f"cluster rank {r} of {len(self.ranks)} failed: {exc}"
                ) from exc
        return {r: future.result() for r, future in futures.items()}

    def _rank(self, rnd: _Round, rank: int):
        """One rank's round: ``(block, counters | None, worker info)``."""
        lane = dict(category="parallel", rank=rank, round=rnd.index)
        if self.pool is not None and self.injector is not None:
            # shard faults fire where the supervisor's timeout/retry sees
            # them, under a span that keeps fault.inject in the run's trace
            with self.ctx.span("cluster.dispatch", **lane):
                self.injector.on_shard(rank)
                self.injector.on_rank(rank)
        with HEALTH.bind(self.health.shard(rank, rows=f"rank {rank}")):
            if self.pool is not None:
                return process_advance(
                    self.pool,
                    rank,
                    self._arrival(rnd, rank, self.ctx.span, lane),
                    self.subs[rank],
                    self.plan,
                    rnd.steps,
                    self.ctx,
                    simulate=self.simulate,
                    backend=self.backend,
                    round_i=rnd.index,
                )
            with self.ctx.span(
                "cluster.rank",
                category="parallel",
                rank=rank,
                steps=rnd.steps,
                round=rnd.index,
            ) as span:
                if self.injector is not None:
                    self.injector.on_shard(rank)
                    self.injector.on_rank(rank)
                local = EventCounters() if self.simulate else None
                out = self._advance(rnd, rank, local, lane)
                if local is not None:
                    span.add_events(local)
                return out, local, None

    def _advance(self, rnd: _Round, rank: int, local, lane) -> np.ndarray:
        """Overlap with an interior to hide: interior, wait, stitch the
        frame strips.  Otherwise: wait if in flight, advance the window."""
        sub, depth = self.subs[rank], rnd.depth
        advance = partial(
            advance_window,
            partial(self._apply, local),
            global_shape=self.plan.global_shape,
            boundary=self.schedule.boundary,
            steps=rnd.steps,
            h=self.plan.radius,
        )
        interior, strips = None, []
        if rnd.handle is not None and local is None:
            # the simulated sweep's tile decomposition is part of its
            # bit/counter contract, so only the functional path splits
            interior, strips = frame_regions(sub.shape, depth)
        if interior is None:
            win = self._arrival(rnd, rank, telemetry.span, lane)
            with telemetry.span("cluster.compute", **lane):
                return advance(win, [s.start - depth for s in sub.slices])
        with telemetry.span("cluster.interior", **lane):
            # the interior's dependency cone never leaves the block
            core = advance(self.blocks[rank], [s.start for s in sub.slices])
        win = self._arrival(rnd, rank, telemetry.span, lane)
        out = np.empty(sub.shape, dtype=np.float64)
        out[interior] = core
        with telemetry.span("cluster.stitch", **lane):
            for region in strips:
                origin = [
                    s.start + r.start - depth for s, r in zip(sub.slices, region)
                ]
                out[region] = advance(strip_window(win, region, depth), origin)
        return out

    @staticmethod
    def _arrival(rnd: _Round, rank: int, span, lane) -> np.ndarray:
        """The rank's window; an in-flight transfer is waited for."""
        if rnd.handle is None:
            return rnd.windows[rank]
        with span("cluster.wait", **lane):
            return rnd.handle.wait()[rank]

    def _apply(self, acc: EventCounters | None, window: np.ndarray):
        runtime = self.plan.compiled.runtime
        if acc is None:
            return runtime.apply(window)
        out, ev = runtime.sweep(
            window,
            self.backend,
            Device(injector=self.injector),
            verify=self.verify_mode,
            policy=self.policy,
            report=self.report,
        )
        acc += ev
        return out

    def fold(self, rnd: _Round, results: dict[int, tuple]) -> None:
        """Phase 4: results into blocks and counters; close the entry."""
        for r in self.ranks:
            out, ev, info = results[r]
            self.blocks[r] = out
            if ev is not None:
                self.counters += ev
            if info:
                self.pids.add(info["pid"])
                self.plan_keys.add(info["plan_key"])
        self.round_log.append(
            {
                "round": rnd.index,
                "steps": rnd.steps,
                "depth": rnd.depth,
                "halo_bytes": self.pending_bytes,
                "comm_bytes_max": max(
                    rnd.exchanger.bytes_per_exchange(r) for r in self.ranks
                ),
            }
        )
        self.pending_bytes = 0
        rnd.windows = rnd.handle = None  # free for the next exchange

    def barrier(self, round_i: int) -> None:
        """Phase 5: every block is consistent; checkpoint, maybe halt."""
        cfg = self.checkpoint
        if cfg is None:
            return
        if (round_i + 1) % cfg.every == 0 or cfg.halt_after == round_i:
            ck = self._save(round_i)
            if cfg.halt_after == round_i:
                raise CheckpointHalt(ck.path, round_i)

    def _save(self, round_i: int) -> ClusterCheckpoint:
        ck = save_checkpoint(
            self.checkpoint.dir,
            plan_key=self.plan.key,
            round_index=round_i,
            phases=[int(p) for p in self.phases],
            steps=int(self.steps),
            exchanged_bytes=self.exchanged,
            round_log=[dict(entry) for entry in self.round_log],
            blocks=self.blocks,
            mesh=tuple(self.cluster.part.mesh),
            global_shape=tuple(self.plan.global_shape),
            trace_id=self.trace_id,
            fault_state=self.injector.state_dict() if self.injector else None,
            meta=dict(self.checkpoint.meta),
            keep=self.checkpoint.keep,
        )
        self.saved_rounds.add(round_i)
        return ck

    def replan(self, exc: FaultError, round_i: int) -> None:
        """The round's ``FaultError`` handler: re-partition the survivors
        of a dead rank (elastic) to replay the round, else re-raise."""
        dead = getattr(exc, "failed_task", None)
        if not self.elastic or dead is None or len(self.ranks) <= 1:
            raise exc
        gshape = self.plan.global_shape
        old_mesh = tuple(self.cluster.part.mesh)
        new_mesh = (len(self.ranks) - 1,) + (1,) * (len(gshape) - 1)
        global_now = self.cluster.gather(self.blocks)
        plan = distribute(
            self.plan.source_weights,
            gshape,
            new_mesh,
            boundary=self.schedule.boundary,
            block_steps=self.schedule.block_steps,
            tiling=self.schedule.tiling,
            backend=self.plan.backend,
        )
        self.schedule = plan.schedule
        self._adopt(ClusterRuntime(plan, self.cluster.machine))
        self.blocks = self.cluster.scatter(global_now)
        if self.injector is not None:
            # survivors are renumbered: the dead rank's (possibly
            # sticky) faults must not pass to its index's heir
            self.injector.disarm_rank(dead)
        if self.report is not None:
            self.report.bump("rank_reassignments")
            if self.report.counts.get("unrecovered", 0) > 0:
                # the supervisor booked the exhausted ladder as
                # unrecovered; the re-partition *is* the recovery
                self.report.bump("unrecovered", -1)
        REGISTRY.counter(
            "repro_rank_reassignments_total",
            help="cluster ranks replaced by an elastic re-partition",
        ).inc()
        replan = {
            "round": int(round_i),
            "dead_rank": int(dead),
            "old_mesh": [int(m) for m in old_mesh],
            "new_mesh": [int(m) for m in new_mesh],
        }
        self.replans.append(replan)
        emit_event(
            "rank.reassigned",
            level="warning",
            message=(
                f"rank {dead} exhausted its recovery ladder; re-partitioned "
                f"{old_mesh} -> {new_mesh}, replaying round {round_i}"
            ),
            **replan,
        )

    def result(self) -> ClusterResult:
        resilience = None
        if self.checkpoint or self.resumed or self.elastic or self.halo_guard:
            resilience = {
                "checkpoints": {
                    "saved": len(self.saved_rounds),
                    "restored": int(self.resumed is not None),
                },
                "halo": self.halo_tally,
                "replans": self.replans,
                "reassignments": len(self.replans),
            }
        return ClusterResult(
            field=self.cluster.gather(self.blocks),
            steps=self.steps,
            phases=self.phases,
            exchanged_bytes=self.exchanged,
            counters=self.counters,
            fault_report=self.report,
            backend=self.backend,
            executor=self.executor,
            overlap=self.overlap,
            worker_pids=tuple(sorted(self.pids)),
            rank_plan_keys=tuple(sorted(self.plan_keys)),
            round_log=tuple(self.round_log),
            plan=self.plan,
            trace_id=self.trace_id,
            resumed_halo_bytes=(
                int(self.resumed.exchanged_bytes) if self.resumed else 0
            ),
            resilience=resilience,
        )
