"""Eq. 16 reproduction: the MMA-count model (LoRAStencil trades a 1.38x
compute increase for its memory savings at h=3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.compute_model import (
    convstencil_mma_per_tile,
    lorastencil_mma_count,
    lorastencil_mma_per_tile,
    mma_ratio,
)
from repro.experiments.report import format_table


def _build_table() -> str:
    rows = [["h", "LoRA MMA/tile", "Conv MMA/tile", "LoRA/Conv per point"]]
    for h in (1, 2, 3, 4):
        rows.append(
            [
                str(h),
                str(lorastencil_mma_per_tile(h)),
                str(convstencil_mma_per_tile(h)),
                f"{mma_ratio(h):.3f}",
            ]
        )
    return format_table(rows, "Eq. 16 — MMA instruction model")


def test_eq16_compute_model(benchmark, write_result):
    text = benchmark(_build_table)
    text += "\n\nPaper quotes: 36/26 ~ 1.38 at h=3."
    write_result("eq16_compute_model", text)
    assert lorastencil_mma_per_tile(3) == 36
    assert convstencil_mma_per_tile(3) == 26
    assert mma_ratio(3) == pytest.approx(36 / 26)


def test_measured_mma_match_model(benchmark):
    import repro
    from repro.stencil.weights import radially_symmetric_weights

    h, a, b = 3, 32, 32
    rng = np.random.default_rng(0)
    w = radially_symmetric_weights(h, 2, rng=rng)
    x = rng.normal(size=(a + 2 * h, b + 2 * h))
    eng = repro.compile(w)
    _, cnt = benchmark.pedantic(
        eng.apply_simulated, args=(x,), rounds=1, iterations=1
    )
    assert cnt.mma_ops == lorastencil_mma_count(a, b, h)
