"""Tests for 2D plans (functional + simulated)."""

import numpy as np
import pytest

import repro
from repro.core.config import OptimizationConfig
from repro.core.sweep import simulate
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply
from repro.stencil.weights import box_weights, radially_symmetric_weights

KERNELS_2D = ["Heat-2D", "Box-2D9P", "Star-2D13P", "Box-2D49P"]


class TestFunctional:
    @pytest.mark.parametrize("name", KERNELS_2D)
    def test_matches_reference(self, rng, name):
        w = get_kernel(name).weights
        eng = repro.compile(w.as_matrix())
        x = rng.normal(size=(20 + 2 * w.radius, 27 + 2 * w.radius))
        assert np.allclose(eng.apply(x), reference_apply(x, w), atol=1e-12)

    def test_generic_asymmetric_kernel(self, rng):
        """SVD route covers arbitrary weights, not just symmetric ones."""
        w = box_weights(2, 2, rng=rng)
        eng = repro.compile(w.as_matrix())
        x = rng.normal(size=(16, 19))
        assert np.allclose(eng.apply(x), reference_apply(x, w), atol=1e-12)

    def test_weights_object_accepted(self, rng):
        w = get_kernel("Box-2D9P").weights
        eng = repro.compile(w)
        x = rng.normal(size=(10, 10))
        assert np.allclose(eng.apply(x), reference_apply(x, w))

    def test_1d_weights_rejected(self, rng):
        with pytest.raises(ValueError):
            repro.compile(get_kernel("Heat-1D").weights, ndim=2)

    def test_even_matrix_rejected(self):
        with pytest.raises(ValueError):
            repro.compile(np.ones((4, 4)))

    def test_too_small_input_rejected(self, rng):
        eng = repro.compile(get_kernel("Box-2D49P").weights)
        with pytest.raises(ValueError):
            eng.apply(rng.normal(size=(6, 6)))

    def test_non_2d_input_rejected(self, rng):
        eng = repro.compile(get_kernel("Box-2D9P").weights)
        with pytest.raises(ValueError):
            eng.apply(rng.normal(size=10))


class TestSimulated:
    @pytest.mark.parametrize("name", KERNELS_2D)
    def test_matches_reference(self, rng, name):
        w = get_kernel(name).weights
        eng = repro.compile(w.as_matrix())
        x = rng.normal(size=(19 + 2 * w.radius, 30 + 2 * w.radius))
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_non_tile_aligned_grid(self, rng):
        """Interior sizes that are not multiples of 8 crop correctly."""
        w = get_kernel("Box-2D9P").weights
        eng = repro.compile(w.as_matrix())
        x = rng.normal(size=(13 + 2, 11 + 2))
        out, _ = eng.apply_simulated(x)
        assert out.shape == (13, 11)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_tiny_grid(self, rng):
        w = get_kernel("Box-2D9P").weights
        eng = repro.compile(w.as_matrix())
        x = rng.normal(size=(3, 3))
        out, _ = eng.apply_simulated(x)
        assert out.shape == (1, 1)
        assert np.allclose(out, reference_apply(x, w))

    def test_explicit_block_size(self, rng):
        w = get_kernel("Box-2D49P").weights
        eng = repro.compile(w.as_matrix())
        x = rng.normal(size=(38, 38))
        out, _ = simulate(eng.plan, x, "interpreter", block=(16, 16))
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    @pytest.mark.parametrize(
        "config",
        OptimizationConfig.breakdown_levels(),
        ids=lambda c: c.label(),
    )
    def test_all_optimization_levels_equivalent(self, rng, config):
        w = get_kernel("Box-2D49P").weights
        eng = repro.compile(w.as_matrix(), config=config)
        x = rng.normal(size=(22, 22))
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)


class TestCounters:
    def test_mma_scales_with_tiles(self, rng):
        w = radially_symmetric_weights(3, 2, rng=rng)
        eng = repro.compile(w.as_matrix())
        x = rng.normal(size=(16 + 6, 16 + 6))
        _, cnt = eng.apply_simulated(x)
        assert cnt.mma_ops == 4 * eng.plan.mma_per_tile  # 4 tiles of 8x8

    def test_fragment_loads_match_eq12(self, rng):
        """Eq. 12 measured: ab/8 fragment loads for tile-aligned grids
        (plus the scalar-term reads, which Eq. 12 does not count)."""
        w = radially_symmetric_weights(3, 2, rng=rng)
        eng = repro.compile(w.as_matrix())
        a = b = 32
        x = rng.normal(size=(a + 6, b + 6))
        _, cnt = eng.apply_simulated(x)
        tiles = (a // 8) * (b // 8)
        scalar_reads = 2 * tiles if eng.plan.decomposition.scalar_terms else 0
        assert cnt.shared_load_requests == a * b // 8 + scalar_reads

    def test_async_copy_eliminates_register_bytes(self, rng):
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(18, 18))
        with_ac = repro.compile(w.as_matrix())
        without_ac = repro.compile(w, config=OptimizationConfig(use_async_copy=False))
        _, c1 = with_ac.apply_simulated(x)
        _, c2 = without_ac.apply_simulated(x)
        assert c1.register_intermediate_bytes == 0
        assert c2.register_intermediate_bytes > 0
        assert c1.async_copies > 0

    def test_bvs_toggle_controls_shuffles(self, rng):
        w = get_kernel("Box-2D49P").weights
        x = rng.normal(size=(22, 22))
        bvs = repro.compile(w.as_matrix())
        no_bvs = repro.compile(w, config=OptimizationConfig(use_bvs=False))
        _, c1 = bvs.apply_simulated(x)
        _, c2 = no_bvs.apply_simulated(x)
        assert c1.shuffle_ops == 0
        assert c2.shuffle_ops > 0
        assert c1.mma_ops == c2.mma_ops  # same arithmetic either way

    def test_counters_isolated_per_sweep(self, rng):
        w = get_kernel("Box-2D9P").weights
        eng = repro.compile(w.as_matrix())
        x = rng.normal(size=(18, 18))
        _, c1 = eng.apply_simulated(x)
        _, c2 = eng.apply_simulated(x)
        assert c1.mma_ops == c2.mma_ops

    def test_rank_and_repr(self, rng):
        eng = repro.compile(get_kernel("Box-2D49P").weights)
        assert eng.rank == 4
        assert eng.plan.method == "pma"
