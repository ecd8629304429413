"""Eq. 12-14 reproduction: the RDG vs ConvStencil memory-access model,
checked against the simulator's measured fragment loads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.memory_model import (
    convstencil_fragment_loads,
    convstencil_loads_per_tile,
    memory_ratio,
    rdg_fragment_loads,
    rdg_loads_per_tile,
    redundancy_eliminated,
)
from repro.experiments.report import format_table


def _build_table() -> str:
    rows = [
        [
            "h",
            "RDG/tile",
            "Conv/tile",
            "Conv/RDG (Eq.14)",
            "redundancy eliminated",
        ]
    ]
    for h in (1, 2, 3, 4):
        rows.append(
            [
                str(h),
                str(rdg_loads_per_tile(h)),
                str(convstencil_loads_per_tile(h)),
                f"{memory_ratio(h):.2f}",
                f"{redundancy_eliminated(h) * 100:.2f}%",
            ]
        )
    return format_table(rows, "Eq. 12-14 — shared-memory load model")


def test_eq14_memory_model(benchmark, write_result):
    text = benchmark(_build_table)
    text += (
        "\n\nPaper quotes: 3.25x / 69.23% at h=3; 4.2x / 76.19% at h=4."
    )
    write_result("eq14_memory_model", text)
    assert memory_ratio(3) == pytest.approx(3.25)
    assert memory_ratio(4) == pytest.approx(4.2)
    assert redundancy_eliminated(3) == pytest.approx(0.6923, abs=1e-4)
    assert redundancy_eliminated(4) == pytest.approx(0.7619, abs=1e-4)


def test_measured_loads_match_model(benchmark):
    """The simulated sweeps issue exactly the modelled load counts."""
    from repro.baselines.convstencil import ConvStencil2D
    import repro
    from repro.stencil.weights import radially_symmetric_weights

    h, a, b = 3, 32, 32
    rng = np.random.default_rng(0)
    w = radially_symmetric_weights(h, 2, rng=rng)
    x = rng.normal(size=(a + 2 * h, b + 2 * h))

    def measure():
        _, lora = repro.compile(w).apply_simulated(x)
        _, conv = ConvStencil2D(w.as_matrix()).apply_simulated(x)
        return lora, conv

    lora, conv = benchmark.pedantic(measure, rounds=1, iterations=1)
    tiles = (a // 8) * (b // 8)
    scalar_reads = 2 * tiles  # pyramid apex, not part of Eq. 12
    assert lora.shared_load_requests - scalar_reads == rdg_fragment_loads(a, b, h)
    assert conv.shared_load_requests == convstencil_fragment_loads(a, b, h)
