"""Tests for the Fig. 8 "LoRAStencil-Best" rank-1 series."""

import numpy as np
import pytest

from repro.baselines.lorastencil_best import (
    LoRAStencilBestMethod,
    rank1_weights_like,
)
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply


class TestRank1Weights:
    def test_2d_is_rank_one(self):
        for name in ("Heat-2D", "Box-2D49P", "Star-2D13P"):
            w = rank1_weights_like(get_kernel(name).weights)
            assert np.linalg.matrix_rank(w.as_matrix()) == 1
            assert w.radius == get_kernel(name).weights.radius

    def test_3d_planes_rank_one_or_pointwise(self):
        w = rank1_weights_like(get_kernel("Box-3D27P").weights)
        for plane in w.planes():
            assert np.linalg.matrix_rank(plane) <= 1

    def test_3d_star_plane_split_preserved(self):
        """Heat-3D's single-point CUDA-core planes stay single-point."""
        import repro

        w = rank1_weights_like(get_kernel("Heat-3D").weights)
        plan = repro.compile(w).plan
        assert plan.cuda_core_planes == [0, 2]
        assert plan.tensor_core_planes == [1]

    def test_1d_unchanged(self):
        base = get_kernel("Heat-1D").weights
        assert np.array_equal(rank1_weights_like(base).array, base.array)

    def test_normalized(self):
        w = rank1_weights_like(get_kernel("Box-2D9P").weights)
        assert w.array.sum() == pytest.approx(1.0)


class TestBestMethod:
    def test_single_matrix_term(self):
        m = LoRAStencilBestMethod(get_kernel("Box-2D49P"))
        assert len(m.plan.decomposition.matrix_terms) == 1

    def test_functionally_exact_on_its_own_kernel(self, rng):
        m = LoRAStencilBestMethod(get_kernel("Box-2D49P"))
        x = rng.normal(size=(26, 26))
        assert np.allclose(
            m.apply(x), reference_apply(x, m.weights), atol=1e-12
        )

    def test_fewer_mmas_than_full_rank(self):
        from repro.baselines.lorastencil import LoRAStencilMethod

        k = get_kernel("Box-2D49P")
        best = LoRAStencilBestMethod(k).footprint((32, 32)).per_point()
        full = LoRAStencilMethod(k).footprint((32, 32)).per_point()
        assert best["mma_ops"] < full["mma_ops"]
        # fragment loads identical: PMA reuse means rank only buys compute
        assert best["shared_load_requests"] <= full["shared_load_requests"]

    def test_bounds_lorastencil_in_fig8(self):
        from repro.experiments.fig8 import run_fig8

        res = run_fig8(kernels=["Box-2D9P", "Heat-3D"], include_best=True)
        for k in ("Box-2D9P", "Heat-3D"):
            assert res.perf(k, "LoRAStencil-Best") >= res.perf(k, "LoRAStencil") - 1e-9
