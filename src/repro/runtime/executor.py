"""Plan execution: single grids, vectorized batches, sharded sweeps.

A :class:`Runtime` binds one compiled :class:`~repro.runtime.plan.StencilPlan`
to its execution strategies:

* :meth:`Runtime.apply` / :meth:`Runtime.apply_batch` — the functional
  path, one :func:`repro.core.functional.apply_planes` call per grid or
  per batch (the batch axis broadcasts), so the per-call Python
  overhead is paid once per batch instead of once per grid;
* :meth:`Runtime.apply_batch_threaded` — the same batch fanned out over
  a :mod:`concurrent.futures` thread pool (NumPy releases the GIL in
  its inner loops), for batches of grids too large to stack;
* :meth:`Runtime.apply_simulated` — the faithful TCU path, and the one
  place a simulated call resolves its backend and sets up fault
  tolerance.  ``shards > 1`` gives every shard its own
  :class:`~repro.tcu.device.Device` and merges the per-shard
  :class:`~repro.tcu.counters.EventCounters` into one footprint, the
  way per-SM counters aggregate on real hardware;
* :meth:`Runtime.sweep` — one sweep under an already resolved backend
  (:func:`repro.core.sweep.simulate`), which every simulated path, the
  cluster ranks included, runs.

Shard boundaries align to the plan's warp-tile rows, so a sharded sweep
computes exactly the same tiles as an unsharded one (identical
``mma_ops`` and fragment loads); only the DRAM halo reads duplicate at
the seams, which is the true cost of sharding.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.core.functional import apply_planes
from repro.core.sweep import simulate, validate_padded
from repro.errors import (
    ExecutionError,
    InputValidationError,
    PerfError,
    ReproError,
    ShapeError,
)
from repro.runtime.backends import resolve_backend
from repro.runtime.plan import StencilPlan
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.telemetry.context import TraceContext
from repro.telemetry.health import HEALTH

__all__ = ["Runtime"]


def _validate_finite(arr: np.ndarray, what: str = "input grid") -> None:
    """Reject NaN/Inf poison before it enters a sweep.

    Raises :class:`~repro.errors.InputValidationError` (the
    :class:`~repro.errors.ShapeError` sibling: the shape is fine, the
    contents are not) so poison is attributable to the caller instead
    of surfacing as a silently-NaN interior ten layers down.
    """
    if not np.isfinite(arr).all():
        bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
        raise InputValidationError(
            f"{what} contains {bad} non-finite value(s) (NaN/Inf); "
            "sanitize inputs before applying the stencil"
        )


def _shard_bounds(n: int, shards: int, align: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into ``shards`` contiguous chunks, each (except
    possibly the last) a multiple of ``align`` long."""
    if shards < 1:
        raise ShapeError(f"shards must be >= 1, got {shards}")
    shards = min(shards, max(1, n // align))
    per = -(-n // shards)  # ceil
    per = -(-per // align) * align  # round up to alignment
    bounds = []
    start = 0
    while start < n:
        end = min(start + per, n)
        bounds.append((start, end))
        start = end
    return bounds


class Runtime:
    """Executes one compiled plan over one, many, or sharded grids."""

    def __init__(self, plan: StencilPlan) -> None:
        self.plan = plan
        #: the :class:`repro.faults.FaultReport` of the most recent
        #: guarded/supervised execution (``None`` when fault tolerance
        #: was off)
        self.last_fault_report = None

    # ------------------------------------------------------------------
    # functional paths
    # ------------------------------------------------------------------
    def apply(self, padded: np.ndarray) -> np.ndarray:
        """Apply the plan to one padded grid; returns the interior."""
        padded = np.asarray(padded, dtype=np.float64)
        _validate_finite(padded)
        padded, _ = validate_padded(padded, self.plan.ndim, self.plan.radius)
        return apply_planes(self.plan.planes, padded, self.plan.ndim)

    def apply_batch(self, grids: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
        """Apply the plan to a batch of equally shaped padded grids.

        ``grids`` is a sequence of padded arrays (or one stacked array
        with a leading batch axis); returns the stacked interiors with
        the same leading axis.  Bit-identical to looping :meth:`apply`,
        but the term loops broadcast over the whole batch.
        """
        batch = self._stack(grids)
        validate_padded(batch[0], self.plan.ndim, self.plan.radius)
        return apply_planes(self.plan.planes, batch, self.plan.ndim)

    def apply_batch_threaded(
        self,
        grids: Sequence[np.ndarray] | np.ndarray,
        max_workers: int | None = None,
    ) -> np.ndarray:
        """Batch apply with one functional call per grid on a thread pool.

        Same contract as :meth:`apply_batch`; use this variant when the
        stacked batch would be too large to broadcast in one piece —
        NumPy releases the GIL inside the slice arithmetic, so the
        per-grid applies overlap.
        """
        batch = self._stack(grids)
        ctx = TraceContext.capture()

        def _apply_grid(i: int, grid: np.ndarray) -> np.ndarray:
            with ctx.span("runtime.batch_grid", category="runtime", grid=i):
                return self.apply(grid)

        return np.stack(
            self._gather(
                self._fan_out(_apply_grid, list(enumerate(batch)), max_workers),
                "grid {i} of {n} in threaded batch",
            )
        )

    # ------------------------------------------------------------------
    # simulated paths
    # ------------------------------------------------------------------
    def sweep(
        self,
        padded: np.ndarray,
        backend: str,
        device: Device | None = None,
        profiler=None,
        verify=None,
        policy=None,
        report=None,
    ) -> tuple[np.ndarray, EventCounters]:
        """One simulated sweep under an already resolved ``backend``.

        Rejects NaN/Inf inputs, then runs
        :func:`repro.core.sweep.simulate`; ``device`` carries a fault
        injector when one is armed.  Returns ``(interior, counters)``.
        """
        padded = np.asarray(padded, dtype=np.float64)
        _validate_finite(padded)
        return simulate(
            self.plan,
            padded,
            backend,
            device=device,
            profiler=profiler,
            verify=verify,
            policy=policy,
            report=report,
        )

    def apply_simulated(
        self,
        padded: np.ndarray,
        device: Device | None = None,
        shards: int = 1,
        max_workers: int | None = None,
        profiler=None,
        verify=None,
        faults=None,
        policy=None,
        backend: str | None = None,
    ) -> tuple[np.ndarray, EventCounters]:
        """Faithful TCU sweep; returns ``(interior, counters)``.

        ``backend`` selects the execution backend (``"interpreter"`` |
        ``"vectorized"`` | ``"oracle"``), defaulting to the plan's
        compiled-in backend, and is resolved once here (see
        :func:`~repro.runtime.backends.resolve_backend`).  The
        interpreter steps the plan's lowered tile program;
        ``"oracle"`` runs the eager tile math instead — bit-identical by
        the schedule-equivalence guarantee; ``"vectorized"`` batches
        every tile of the sweep with bit-identical numerics and
        counters, but rejects fault-tolerant execution (below) with a
        :class:`~repro.errors.BackendError`.  ``profiler`` opts the
        single-shard sweep into per-instruction attribution (see
        :mod:`repro.telemetry.perf`).

        ``shards > 1`` splits the sweep along the first interior axis
        over a thread pool, one simulated device per shard (``device``
        is then ignored).  Any worker exception is wrapped in a typed
        :class:`~repro.errors.ExecutionError` carrying the shard index
        and row range.  Under fault tolerance shards are *supervised*:
        a crashed worker or one exceeding the policy's per-shard
        timeout is resubmitted with capped exponential backoff, then
        recomputed inline as graceful degradation; only an exhausted
        policy raises a typed :class:`~repro.errors.FaultError` — never
        a partial grid.

        Fault tolerance (see :mod:`repro.faults` and
        ``docs/robustness.md``): ``verify="abft"`` checksum-verifies
        every tile and staging copy at tolerance 0, recovering
        corrupted work under ``policy`` (a
        :class:`repro.faults.RecoveryPolicy`); ``faults`` (a
        :class:`repro.faults.FaultPlan` or
        :class:`repro.faults.FaultInjector`) arms deterministic fault
        injection.  The ledger is exposed as :attr:`last_fault_report`
        and folded into the metrics registry when telemetry is on.
        """
        if profiler is not None and shards > 1:
            raise PerfError(
                "per-instruction profiling does not support sharded "
                "execution (profiler accumulators are per-thread)"
            )
        fault_mode = bool(verify) or faults is not None or policy is not None
        injector = report = before = None
        if fault_mode:
            from repro.faults import FaultReport, RecoveryPolicy, as_injector

            injector = as_injector(faults)
            report = injector.report if injector is not None else FaultReport()
            before = report.snapshot()
            if shards > 1:
                policy = policy or RecoveryPolicy()
            self.last_fault_report = report
        with telemetry.span(
            "runtime.apply_simulated",
            category="runtime",
            plan=self.plan.key[:16],
            shards=shards,
        ) as sp:
            # resolved inside the span so a backend.downgrade decision
            # joins the sweep's trace like every other decision
            backend = resolve_backend(
                backend, plan_default=self.plan.backend, fault_mode=fault_mode
            )
            if shards > 1:
                out, events = self._sharded(
                    padded, shards, max_workers, backend,
                    injector, verify, policy, report,
                )
            else:
                if injector is not None:
                    device = device if device is not None else Device()
                    device.injector = injector
                out, events = self.sweep(
                    padded,
                    backend,
                    device,
                    profiler=profiler,
                    verify=verify,
                    policy=policy,
                    report=report,
                )
            sp.add_events(events)
            telemetry.absorb_events(events)
            if report is not None:
                sp.annotate(
                    faults_injected=report.total_injected,
                    faults_detected=report.total_detected,
                    faults_recovered=report.total_recovered,
                )
                telemetry.absorb_faults(report.delta(before))
        return out, events

    def apply_simulated_batch(
        self,
        grids: Sequence[np.ndarray] | np.ndarray,
        max_workers: int | None = None,
    ) -> tuple[np.ndarray, EventCounters]:
        """Simulated sweep of every grid in the batch, grid-sharded.

        Each grid runs under the plan's backend on its own
        :class:`~repro.tcu.device.Device` in a thread pool; the per-grid
        counters merge by summation into one batch footprint.  Returns
        ``(stacked interiors, merged counters)``.
        """
        batch = self._stack(grids)
        ctx = TraceContext.capture()

        def _run_grid(i: int, grid: np.ndarray):
            with ctx.span(
                "runtime.batch_grid", category="runtime", grid=i
            ) as sp:
                out, counters = self.sweep(grid, self.plan.backend, Device())
                sp.add_events(counters)
                return out, counters

        results = self._gather(
            self._fan_out(_run_grid, list(enumerate(batch)), max_workers),
            "grid {i} of {n} in simulated batch",
        )
        merged = EventCounters()
        for _, counters in results:
            merged += counters
        return np.stack([out for out, _ in results]), merged

    def _sharded(
        self, padded, shards, max_workers, backend, injector, verify, policy, report
    ) -> tuple[np.ndarray, EventCounters]:
        """One grid's sweep, tile-sharded along the first interior axis.

        The interior splits into ``shards`` contiguous chunks aligned to
        the plan's warp-tile rows; each shard sweeps its halo-extended
        sub-grid on a private device, and the per-shard counters merge
        into one footprint.
        """
        padded = np.asarray(padded, dtype=np.float64)
        _validate_finite(padded)
        padded, interior = validate_padded(padded, self.plan.ndim, self.plan.radius)
        h = self.plan.radius
        bounds = _shard_bounds(interior[0], shards, self._shard_align())
        ctx = TraceContext.capture()
        sweep_health = HEALTH.start_sweep(f"sharded-{self.plan.key[:12]}")

        def _worker(i: int, s0: int, s1: int):
            with ctx.span(
                "runtime.shard",
                category="runtime",
                shard=i,
                rows=f"{s0}:{s1}",
            ) as sp:
                # inside the span: an injected crash/hang renders as part
                # of this shard's lane, not as an orphan root
                if injector is not None:
                    injector.on_shard(i)
                with HEALTH.bind(sweep_health.shard(i, rows=f"{s0}:{s1}")):
                    out, counters = self.sweep(
                        padded[s0 : s1 + 2 * h],
                        backend,
                        Device(injector=injector),
                        verify=verify,
                        policy=policy,
                        report=report,
                    )
                    sp.add_events(counters)
                    return out, counters

        try:
            if report is None:
                results = self._gather(
                    self._fan_out(
                        lambda i, b: _worker(i, *b), list(enumerate(bounds)), max_workers
                    ),
                    "shard {i} of {n} (rows {s0}:{s1})",
                    bounds,
                )
            else:
                from repro.faults.supervisor import supervise_tasks

                done = supervise_tasks(
                    dict(enumerate(bounds)),
                    _worker,
                    policy,
                    report,
                    max_workers=max_workers,
                    health=sweep_health,
                )
                results = [done[i] for i in range(len(bounds))]
        finally:
            HEALTH.publish()
            HEALTH.write_file()

        out = np.concatenate([out for out, _ in results], axis=0)
        merged = EventCounters()
        for _, counters in results:
            merged += counters
        return out, merged

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _fan_out(fn, items, max_workers):
        """Submit ``fn(i, item)`` for every ``(i, item)`` to a thread pool."""
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return [pool.submit(fn, i, item) for i, item in items]

    @staticmethod
    def _gather(futures, what: str, bounds=None) -> list:
        """Results in order; a non-repro worker error becomes a typed
        :class:`~repro.errors.ExecutionError` naming the failed item."""
        results = []
        for i, future in enumerate(futures):
            try:
                results.append(future.result())
            except ReproError:
                raise
            except Exception as exc:
                s0, s1 = bounds[i] if bounds else (0, 0)
                name = what.format(i=i, n=len(futures), s0=s0, s1=s1)
                raise ExecutionError(f"{name} failed: {exc}") from exc
        return results

    def _shard_align(self) -> int:
        """Interior rows per indivisible shard unit (warp-tile rows)."""
        if self.plan.ndim == 1:
            return 64
        if self.plan.ndim == 2:
            return self.plan.kernel.out_rows
        return 1  # 3D shards along z: planes are independent

    def _stack(self, grids: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
        if isinstance(grids, np.ndarray) and grids.ndim == self.plan.ndim + 1:
            batch = np.asarray(grids, dtype=np.float64)
        else:
            items = [np.asarray(g, dtype=np.float64) for g in grids]
            if not items:
                raise ShapeError("apply_batch needs at least one grid")
            shapes = {g.shape for g in items}
            if len(shapes) != 1:
                raise ShapeError(
                    f"all grids in a batch must share one shape, got {shapes}"
                )
            batch = np.stack(items)
        if batch.ndim != self.plan.ndim + 1:
            raise ShapeError(
                f"batch for a {self.plan.ndim}D plan must have "
                f"{self.plan.ndim + 1} axes, got {batch.ndim}"
            )
        if batch.shape[0] == 0:
            raise ShapeError("apply_batch needs at least one grid")
        _validate_finite(batch, "input batch")
        return batch
