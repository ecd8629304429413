"""Tests for the analytic-solution convergence study."""

import numpy as np
import pytest

from repro.validation import (
    convergence_study,
    estimated_order,
    heat_analytic_solution,
    heat_kernel_for,
)


class TestHeatKernel:
    def test_weights_sum_to_one(self):
        assert heat_kernel_for(0.2).array.sum() == pytest.approx(1.0)

    def test_star_shape(self):
        w = heat_kernel_for(0.25)
        assert w.array[0, 0] == 0.0
        assert w.array[1, 1] == pytest.approx(0.0)  # r = 1/4 -> centre 0

    def test_unstable_ratio_rejected(self):
        with pytest.raises(ValueError):
            heat_kernel_for(0.3)
        with pytest.raises(ValueError):
            heat_kernel_for(0.0)


class TestAnalyticSolution:
    def test_initial_condition_shape_and_symmetry(self):
        u0 = heat_analytic_solution(16, 0.0)
        assert u0.shape == (16, 16)
        assert np.allclose(u0, u0.T)
        assert u0.max() <= 1.0

    def test_decay_in_time(self):
        early = heat_analytic_solution(16, 0.001)
        late = heat_analytic_solution(16, 0.01)
        assert late.max() < early.max()

    def test_separable_mode(self):
        u = heat_analytic_solution(8, 0.0)
        assert np.linalg.matrix_rank(u) == 1


class TestConvergence:
    @pytest.fixture(scope="class")
    def study(self):
        return convergence_study(resolutions=(12, 24, 48))

    def test_errors_decrease_under_refinement(self, study):
        errs = [p.max_err for p in study]
        assert errs == sorted(errs, reverse=True)

    def test_second_order_convergence(self, study):
        """FTCS with fixed mesh ratio converges at order 2 — observed
        through the full LoRAStencil stack."""
        order = estimated_order(study)
        assert order == pytest.approx(2.0, abs=0.15)

    def test_simulated_engine_converges_too(self):
        """The warp-level TCU path solves the PDE just as well."""
        import repro

        class SimEngine:
            def __init__(self, w):
                self.eng = repro.compile(w)

            def apply(self, padded):
                return self.eng.apply_simulated(padded)[0]

        pts = convergence_study(
            resolutions=(8, 16), t_final=0.01, engine_factory=SimEngine
        )
        assert pts[1].max_err < pts[0].max_err

    def test_single_point_order_rejected(self):
        with pytest.raises(ValueError):
            estimated_order(convergence_study(resolutions=(8,), t_final=0.01))

    def test_errors_small_in_absolute_terms(self, study):
        assert study[-1].max_err < 5e-4

    @pytest.mark.parametrize("ndim,resolutions,r", [
        (1, (16, 32, 64), 0.4),
        (3, (6, 12, 24), 1 / 8),
    ])
    def test_second_order_in_every_dimension(self, ndim, resolutions, r):
        """The 1D and 3D engines solve the heat equation at order 2 too."""
        pts = convergence_study(
            resolutions=resolutions, ndim=ndim, r=r, t_final=0.01
        )
        assert estimated_order(pts) == pytest.approx(2.0, abs=0.15)

    def test_invalid_ndim_rejected(self):
        with pytest.raises(ValueError):
            convergence_study(ndim=4)

    def test_cfl_bound_scales_with_dimension(self):
        heat_kernel_for(0.25, ndim=2)
        with pytest.raises(ValueError):
            heat_kernel_for(0.25, ndim=3)
        heat_kernel_for(1 / 6, ndim=3)
