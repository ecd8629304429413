"""Crossover analysis: where does LoRAStencil's advantage come from?

Sweeps the kernel radius (1..4, random radially symmetric weights —
not just the Table II points) and models LoRAStencil vs ConvStencil on
each, mapping how the speedup moves with the redundancy ratio (Eq. 14)
and where ConvStencil comes closest.  The paper's text claims the gap
is smallest on large 2D kernels and largest in 3D; this bench locates
the 2D minimum explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.memory_model import memory_ratio
from repro.baselines.base import FootprintScale
from repro.baselines.convstencil import ConvStencil2D, ConvStencilMethod
from repro.baselines.lorastencil import LoRAStencilMethod
from repro.runtime import compile as compile_stencil
from repro.experiments.report import format_table
from repro.stencil.kernels import BenchmarkKernel
from repro.stencil.weights import radially_symmetric_weights

GRID = (64, 64)


def _modelled(engine_counters, method, points):
    from repro.perf.costmodel import gstencil_per_second

    fp = FootprintScale(engine_counters, points=points)
    return gstencil_per_second(fp, method.traits())


def test_radius_crossover(benchmark, write_result):
    def sweep():
        rows = [["h", "Eq.14 ratio", "LoRA GSt/s", "Conv GSt/s", "speedup"]]
        speedups = {}
        for h in (1, 2, 3, 4):
            w = radially_symmetric_weights(h, 2, rng=np.random.default_rng(h))
            kernel = BenchmarkKernel(
                name=f"rand-h{h}",
                weights=w,
                problem_size=(10_240, 10_240),
                iterations=1,
                blocking=(32, 64),
            )
            x = np.random.default_rng(0).normal(
                size=tuple(s + 2 * h for s in GRID)
            )
            points = GRID[0] * GRID[1]

            _, lora_cnt = compile_stencil(w).apply_simulated(x)
            lora_g = _modelled(lora_cnt, LoRAStencilMethod(kernel), points)

            conv_eng = ConvStencil2D(w.as_matrix())
            _, conv_cnt = conv_eng.apply_simulated(x)
            conv_g = _modelled(conv_cnt, ConvStencilMethod(kernel), points)

            speedups[h] = lora_g / conv_g
            rows.append(
                [
                    str(h),
                    f"{memory_ratio(h):.2f}x",
                    f"{lora_g:.2f}",
                    f"{conv_g:.2f}",
                    f"{speedups[h]:.2f}x",
                ]
            )
        return rows, speedups

    rows, speedups = benchmark.pedantic(sweep, rounds=1, iterations=1)
    closest = min(speedups, key=speedups.get)
    text = format_table(rows, "crossover — unfused 2D radius sweep")
    text += (
        f"\n\nConvStencil comes closest at h={closest} "
        f"({speedups[closest]:.2f}x); LoRAStencil never loses, matching "
        "the paper's 1.12x minimum on 2D kernels."
    )
    write_result("crossover_radius", text)

    # LoRAStencil wins at every radius (no true crossover, per the paper)
    for h, s in speedups.items():
        assert s > 1.0, (h, s)
    # and the advantage is bounded (ConvStencil is the strong baseline)
    assert max(speedups.values()) < 3.0


def test_eq14_tracks_measured_load_ratio(benchmark):
    """Eq. 14's analytic ratio matches the measured fragment-load ratio
    across the radius sweep (modulo the pyramid-apex scalar reads)."""
    rng = np.random.default_rng(3)

    def measure():
        out = {}
        for h in (1, 2, 3, 4):
            w = radially_symmetric_weights(h, 2, rng=rng)
            x = rng.normal(size=tuple(s + 2 * h for s in GRID))
            _, lora = compile_stencil(w).apply_simulated(x)
            _, conv = ConvStencil2D(w.as_matrix()).apply_simulated(x)
            out[h] = conv.shared_load_requests / lora.shared_load_requests
        return out

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    for h in (3, 4):
        # scalar apex reads make the measured LoRA loads slightly higher
        # than Eq. 12's ideal, so measured <= analytic
        assert ratios[h] <= memory_ratio(h) + 1e-9
        assert ratios[h] == pytest.approx(memory_ratio(h), rel=0.35)
