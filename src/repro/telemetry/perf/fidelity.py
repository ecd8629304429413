"""Model-fidelity attribution: the paper's equations vs. measured events.

LoRAStencil's claims are analytical — Eq. 12 counts RDG fragment loads,
Eq. 14 bounds the memory-transfer ratio against ConvStencil, Eq. 16
counts MM instructions, and Section III-C's BVS argument is that the
accumulator split moves *zero* data between threads.  This module turns
those one-shot analytical tables into continuously checked
observability: it derives each prediction **from the plan's actual
decomposition and tile geometry** (so rank-deficient star kernels and
custom tile shapes predict correctly, not just the full-rank box case
the closed forms assume), runs one instrumented sweep, and emits a
``repro.telemetry.fidelity-report/v1`` record of predicted vs. measured
values with per-component relative error.

On the simulator the predictions are exact — the fidelity suite pins
``rel_error == 0`` for every component — so any nonzero error is a
regression in either the model or the interpreter, surfaced by the
``repro perf fidelity`` subcommand and the record consumers.

2D plans only: the equations model the 2D RDG pipeline.  1D plans have
no residual dimension and 3D plans are compositions of 2D planes —
profile those planes' plans individually.
"""

from __future__ import annotations

import math
import time
from typing import Any

import numpy as np

from repro.errors import PerfError
from repro.telemetry.export import FIDELITY_REPORT_SCHEMA
from repro.telemetry.perf.profile import PlanProfile, profile_plan

__all__ = [
    "FIDELITY_REPORT_SCHEMA",
    "predicted_components",
    "fidelity_components",
    "fidelity_report",
]


def _require_2d(plan) -> None:
    if plan.ndim != 2:
        raise PerfError(
            f"fidelity attribution models the 2D RDG pipeline "
            f"(Eq. 12-16); got a {plan.ndim}D plan — profile a 3D "
            f"plan's 2D plane kernels individually"
        )
    if not plan.config.use_tensor_cores:
        raise PerfError(
            "fidelity attribution requires a tensor-core plan"
        )


def _tiles(plan, interior: tuple[int, int]) -> int:
    """Output warp tiles one sweep executes (edge tiles included)."""
    rows, cols = interior
    t = plan.kernel
    return math.ceil(rows / t.out_rows) * math.ceil(cols / t.out_cols)


def predicted_components(
    plan, interior: tuple[int, int]
) -> list[dict[str, Any]]:
    """Counter predictions from the plan's decomposition and geometry.

    Each entry carries the counter ``name``, the paper ``equation`` it
    instantiates, the predicted value, and the profile ``source`` the
    measurement is read from (an opcode row, or ``"total"``).
    """
    _require_2d(plan)
    tile = plan.kernel
    tiles = _tiles(plan, interior)
    n_scalar = len(tile.decomposition.scalar_terms)
    components = [
        {
            "name": "shared_load_requests",
            "equation": "Eq. 12 (RDG fragment loads)",
            "source": "load_x",
            "predicted": tiles * tile.fragment_loads_per_tile,
        },
        {
            "name": "mma_ops",
            "equation": "Eq. 16 (MM instruction count)",
            "source": "total",
            "predicted": tiles * tile.mma_per_tile,
        },
        {
            "name": "cuda_core_flops",
            "equation": "Sec. III-B (pyramid apex axpy)",
            "source": "apex",
            "predicted": 2 * tiles * tile.points_per_tile * n_scalar,
        },
        {
            "name": "global_store_bytes",
            "equation": "interior stores (8 B/point)",
            "source": "total",
            "predicted": 8 * interior[0] * interior[1],
        },
    ]
    if plan.config.use_bvs:
        components.append(
            {
                "name": "shuffle_ops",
                "equation": "Sec. III-C (BVS zero-shuffle split)",
                "source": "split",
                "predicted": 0,
            }
        )
    return components


def _measure(profile: PlanProfile, name: str, source: str) -> int:
    if source == "total":
        return getattr(profile.total_events, name)
    stats = profile.by_op.get(source)
    return getattr(stats.events, name) if stats is not None else 0


def _rel_error(predicted: int, measured: int) -> float | None:
    if predicted:
        return (measured - predicted) / predicted
    return 0.0 if measured == 0 else None


def fidelity_components(
    plan, profile: PlanProfile
) -> list[dict[str, Any]]:
    """Join predictions against one measured :class:`PlanProfile`."""
    out = []
    for comp in predicted_components(plan, profile.shape):
        measured = _measure(profile, comp["name"], comp["source"])
        out.append(
            {
                **comp,
                "measured": measured,
                "rel_error": _rel_error(comp["predicted"], measured),
            }
        )
    return out


def fidelity_report(
    plan,
    padded: np.ndarray | None = None,
    *,
    size: int = 64,
    seed: int = 0,
    name: str | None = None,
) -> dict[str, Any]:
    """Run one instrumented sweep and emit the fidelity record.

    Returns a ``repro.telemetry.fidelity-report/v1`` document (validated
    by :func:`repro.telemetry.validate.validate_fidelity_report`): the
    per-component predicted/measured/relative-error join, plus the
    closed-form model context — Eq. 14's memory-transfer ratio and the
    Eq. 13/16 instruction ratios for the plan's radius.
    """
    _require_2d(plan)
    profile = profile_plan(plan, padded, size=size, seed=seed)
    components = fidelity_components(plan, profile)
    errors = [
        abs(c["rel_error"]) for c in components if c["rel_error"] is not None
    ]

    # closed-form ratios assume the full-rank box kernel of radius h —
    # model *context*, not per-run predictions (lazy import: repro.analysis
    # is a leaf consumer of this package's own measurements elsewhere)
    from repro.analysis.compute_model import mma_ratio
    from repro.analysis.memory_model import memory_ratio, redundancy_eliminated

    h = plan.radius
    return {
        "schema": FIDELITY_REPORT_SCHEMA,
        "name": name or f"fidelity-{plan.key[:12]}",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "plan": {
            "key": plan.key,
            "schedule": plan.schedule,
            "ndim": plan.ndim,
            "radius": h,
            "rank": plan.rank,
            "method": plan.method,
        },
        "workload": {
            "shape": list(profile.shape),
            "seed": seed,
            "tiles": _tiles(plan, profile.shape),
        },
        "components": components,
        "model": {
            "memory_ratio_eq14": float(memory_ratio(h)),
            "mma_ratio_eq13_16": float(mma_ratio(h)),
            "redundancy_eliminated": float(redundancy_eliminated(h)),
        },
        "max_rel_error": max(errors) if errors else 0.0,
    }
