"""Ablation: Pyramidal Matrix Adaptation vs plain SVD decomposition.

PMA is the design choice DESIGN.md calls out for exploiting radial
symmetry: its pyramid needs at most ``h`` matrix terms plus a scalar
apex, while a symmetry-blind SVD of the same matrix can need up to
``h+1`` full-size matrix terms — and every matrix term costs 12 MMAs
per tile (Eq. 16).  This bench quantifies the MMA savings per kernel
and verifies both routes are numerically exact.
"""

from __future__ import annotations

import numpy as np

from repro.core.functional import apply_decomposition
from repro.core.lowrank import pyramidal_decompose, svd_decompose
from repro.core.rdg import RDGTileCompute
from repro.experiments.report import format_table
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply
from repro.stencil.weights import radially_symmetric_weights

KERNELS_2D = ("Box-2D9P", "Box-2D49P", "Heat-2D", "Star-2D13P")


def _mma_for(decomp, radius):
    return RDGTileCompute(decomp, radius).mma_per_tile


def test_pma_vs_svd_mma_counts(benchmark, write_result):
    def build():
        rows = [["kernel", "PMA matrix terms", "SVD terms",
                 "PMA MMA/tile", "SVD MMA/tile", "saving"]]
        for name in KERNELS_2D:
            w = get_kernel(name).weights
            mat = w.as_matrix()
            try:
                pma = pyramidal_decompose(mat)
            except Exception:
                pma = None
            svd = svd_decompose(mat)
            if pma is None:
                rows.append([name, "- (star: zero pivot)", str(len(svd.terms)),
                             "-", str(_mma_for(svd, w.radius)), "-"])
                continue
            m_pma = _mma_for(pma, w.radius)
            m_svd = _mma_for(svd, w.radius)
            saving = 1 - m_pma / m_svd if m_svd else 0.0
            rows.append(
                [
                    name,
                    str(len(pma.matrix_terms)),
                    str(len(svd.terms)),
                    str(m_pma),
                    str(m_svd),
                    f"{saving * 100:.0f}%",
                ]
            )
        return rows

    rows = benchmark(build)
    write_result(
        "ablation_rank",
        format_table(rows, "ablation — PMA vs symmetry-blind SVD"),
    )


def test_pma_never_more_expensive(benchmark):
    """Across random radial kernels, PMA's tile never needs more MMAs
    than the SVD route and both are exact."""
    rng = np.random.default_rng(11)

    def check_all():
        worst = 0.0
        for h in (1, 2, 3, 4):
            w = radially_symmetric_weights(h, 2, rng=rng)
            mat = w.as_matrix()
            pma = pyramidal_decompose(mat)
            svd = svd_decompose(mat)
            assert _mma_for(pma, h) <= _mma_for(svd, h)
            x = rng.normal(size=(16 + 2 * h, 16 + 2 * h))
            ref = reference_apply(x, w)
            for d in (pma, svd):
                out = apply_decomposition(d, x)
                worst = max(worst, float(np.abs(out - ref).max()))
        return worst

    worst = benchmark.pedantic(check_all, rounds=1, iterations=1)
    assert worst < 1e-10
