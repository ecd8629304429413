"""``repro.faults`` — fault injection, ABFT verification, recovery.

The robustness layer the paper's matrix-chain formulation earns for
free: because a stencil tile *is* ``Σ_k U_k X V_k`` on tensor-core
fragments, the Huang–Abraham checksum trick for fault-tolerant matrix
multiply detects corrupted tiles at sweep time, and the simulator can
prove detection and bit-exact recovery end-to-end.  Three pieces:

* **spec/injector** (:mod:`repro.faults.spec`,
  :mod:`repro.faults.injector`): a deterministic, seed-driven
  :class:`FaultPlan` of :class:`FaultSpec` entries armed by a
  :class:`FaultInjector` hooked into :class:`~repro.tcu.device.Device`
  warps (A/B/C fragment bit flips, NaN poison), block staging
  (corrupted shared-memory loads, dropped ``cp.async`` commit groups),
  and shard workers (crashes, hangs);
* **abft** (:mod:`repro.faults.abft`): the opt-in ``verify="abft"``
  execution mode — tolerance-0 checksum verification of every tile
  against an exact reference (one whole-grid evaluation per plane
  sweep), with a bounded recompute → oracle-fallback
  → :class:`~repro.errors.FaultError` recovery ladder under a
  :class:`RecoveryPolicy`;
* **report** (:mod:`repro.faults.report`): the :class:`FaultReport`
  ledger every injection/detection/recovery lands in, absorbed into
  the metrics registry and the run-record ``faults`` section.

Typical use — the ``repro chaos run`` subcommand in one paragraph::

    import repro
    from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy

    stencil = repro.compile(weights)
    injector = FaultInjector(FaultPlan.random(seed=7, count=4))
    out, events = stencil.apply_simulated(
        padded, faults=injector, verify="abft",
        policy=RecoveryPolicy(max_tile_retries=2),
    )
    print(stencil.last_fault_report.describe())

See ``docs/robustness.md`` for the fault model and the ABFT math.
"""

from __future__ import annotations

from repro.errors import ExecutionError, FaultError, InputValidationError
from repro.faults.abft import (
    VERIFY_MODES,
    RecoveryPolicy,
    SweepGuard,
    halo_frame_checksums,
    make_guard,
    term_checksum_vectors,
    tile_checksums,
    validate_verify_mode,
)
from repro.faults.injector import (
    FaultInjector,
    InjectedFaultError,
    flip_float64_bit,
)
from repro.faults.report import FaultReport
from repro.faults.spec import (
    DEFAULT_FLIP_BIT,
    FAULT_KINDS,
    HALO_KINDS,
    MMA_KINDS,
    RANK_KINDS,
    SHARD_KINDS,
    STAGE_KINDS,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "FAULT_KINDS",
    "MMA_KINDS",
    "STAGE_KINDS",
    "SHARD_KINDS",
    "HALO_KINDS",
    "RANK_KINDS",
    "halo_frame_checksums",
    "DEFAULT_FLIP_BIT",
    "VERIFY_MODES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFaultError",
    "FaultReport",
    "RecoveryPolicy",
    "SweepGuard",
    "make_guard",
    "tile_checksums",
    "term_checksum_vectors",
    "validate_verify_mode",
    "flip_float64_bit",
    "FaultError",
    "ExecutionError",
    "InputValidationError",
]


def as_injector(faults) -> FaultInjector | None:
    """Normalize a ``faults=`` argument: plan, injector, or ``None``."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    raise InputValidationError(
        f"faults must be a FaultPlan or FaultInjector, got {type(faults).__name__}"
    )
