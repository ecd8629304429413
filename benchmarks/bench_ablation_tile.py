"""Ablation: output-tile size (8x8 default vs multi-accumulator tiles).

Section III-B's analysis argues the ideal update is ``2h x 2h`` points:
larger tiles reuse the loaded window over more outputs (fewer fragment
loads per point) at the price of more accumulators and Step-2 MMAs.
This bench maps that frontier for each radius and feeds both axes
through the cost model to find the best tile per kernel.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import FootprintScale
import repro
from repro.experiments.report import format_table
from repro.perf.costmodel import gstencil_per_second
from repro.stencil.reference import reference_apply
from repro.stencil.weights import radially_symmetric_weights

TILES = ((8, 8), (8, 16), (16, 16), (24, 24))
RADII = (1, 2, 3, 4)


def _lora_traits():
    from repro.baselines.base import MethodTraits

    return MethodTraits(
        tcu_efficiency=0.86,
        cuda_efficiency=0.40,
        dram_efficiency=0.85,
        smem_efficiency=0.85,
        issue_efficiency=0.60,
    )


def test_tile_size_frontier(benchmark, write_result):
    rng = np.random.default_rng(0)

    def sweep():
        rows = [["h", "tile", "loads/pt", "MMA/pt", "modelled GStencil/s"]]
        best = {}
        for h in RADII:
            w = radially_symmetric_weights(h, 2, rng=np.random.default_rng(h))
            x = rng.normal(size=(48 + 2 * h, 48 + 2 * h))
            ref = reference_apply(x, w)
            for ts in TILES:
                eng = repro.compile(w, tile_shape=ts)
                tile = eng.plan.kernel
                out, cnt = eng.apply_simulated(x)
                assert np.abs(out - ref).max() < 1e-10
                fp = FootprintScale(cnt, points=48 * 48)
                g = gstencil_per_second(fp, _lora_traits())
                rows.append(
                    [
                        str(h),
                        f"{ts[0]}x{ts[1]}",
                        f"{tile.fragment_loads_per_tile / tile.points_per_tile:.4f}",
                        f"{tile.mma_per_tile / tile.points_per_tile:.4f}",
                        f"{g:.2f}",
                    ]
                )
                key = (h,)
                if key not in best or g > best[key][1]:
                    best[key] = (ts, g)
        return rows, best

    rows, best = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [format_table(rows, "ablation — output tile size"), ""]
    for (h,), (ts, g) in sorted(best.items()):
        lines.append(f"  best tile at h={h}: {ts[0]}x{ts[1]} ({g:.2f} GStencil/s)")
    write_result("ablation_tile", "\n".join(lines))

    # structural claims: larger tiles always reduce loads per point ...
    for h in RADII:
        w = radially_symmetric_weights(h, 2, rng=np.random.default_rng(h))
        small = repro.compile(w, tile_shape=(8, 8)).plan.kernel
        big = repro.compile(w, tile_shape=(24, 24)).plan.kernel
        assert (
            big.fragment_loads_per_tile / big.points_per_tile
            < small.fragment_loads_per_tile / small.points_per_tile
        )
        # ... at the price of more Step-2 MMAs per point
        assert (
            big.mma_per_tile / big.points_per_tile
            >= small.mma_per_tile / small.points_per_tile
        )
