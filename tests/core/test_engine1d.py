"""Tests for 1D plans: the banded tile, functional and simulated."""

import numpy as np
import pytest

import repro
from repro.core.config import OptimizationConfig
from repro.core.sweep import simulate
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply
from repro.stencil.weights import star_weights


def _sim(st, x, block):
    return simulate(st.plan, x, "interpreter", block=(block,))


class TestFunctional:
    @pytest.mark.parametrize("name", ["Heat-1D", "1D5P"])
    def test_matches_reference(self, rng, name):
        w = get_kernel(name).weights
        st = repro.compile(w)
        x = rng.normal(size=500 + 2 * w.radius)
        assert np.allclose(st.apply(x), reference_apply(x, w), atol=1e-12)

    def test_2d_weights_rejected(self):
        with pytest.raises(ValueError):
            repro.compile(get_kernel("Box-2D9P").weights, ndim=1)

    def test_even_vector_rejected(self):
        with pytest.raises(ValueError):
            repro.compile(np.ones(4))

    def test_too_small_rejected(self, rng):
        st = repro.compile(get_kernel("1D5P").weights)
        with pytest.raises(ValueError):
            st.apply(rng.normal(size=4))


class TestSimulated:
    @pytest.mark.parametrize("name", ["Heat-1D", "1D5P"])
    def test_matches_reference(self, rng, name):
        w = get_kernel(name).weights
        st = repro.compile(w)
        x = rng.normal(size=300 + 2 * w.radius)
        out, _ = _sim(st, x, 128)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_unaligned_length(self, rng):
        w = get_kernel("Heat-1D").weights
        st = repro.compile(w)
        x = rng.normal(size=101 + 2)
        out, _ = _sim(st, x, 64)
        assert out.shape == (101,)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_larger_radius(self, rng):
        w = star_weights(4, 1, rng=rng)
        st = repro.compile(w)
        x = rng.normal(size=150 + 8)
        out, _ = _sim(st, x, 64)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_cuda_core_mode(self, rng):
        w = get_kernel("1D5P").weights
        st = repro.compile(w, config=OptimizationConfig(use_tensor_cores=False))
        x = rng.normal(size=100 + 4)
        out, cnt = _sim(st, x, 64)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)
        assert cnt.mma_ops == 0
        assert cnt.cuda_core_flops > 0

    def test_non_1d_input_rejected(self, rng):
        st = repro.compile(get_kernel("Heat-1D").weights)
        with pytest.raises(ValueError):
            st.apply_simulated(rng.normal(size=(8, 8)))


class TestCounters:
    def test_mma_per_tile(self):
        st = repro.compile(get_kernel("Heat-1D").weights)
        # K = roundup(8 + 2, 4) = 12 -> 3 MMA per 64 outputs
        assert st.plan.mma_per_tile == 3

    def test_mma_counted(self, rng):
        w = get_kernel("Heat-1D").weights
        st = repro.compile(w)
        x = rng.normal(size=128 + 2)
        _, cnt = _sim(st, x, 128)
        assert cnt.mma_ops == 2 * st.plan.mma_per_tile  # two 64-point tiles

    def test_no_shuffles_in_1d(self, rng):
        """1D has no residual dimension: no MCM, no splitting, no
        shuffles (Section IV-C)."""
        w = get_kernel("1D5P").weights
        st = repro.compile(w)
        x = rng.normal(size=128 + 4)
        _, cnt = _sim(st, x, 128)
        assert cnt.shuffle_ops == 0

    def test_async_copy_used_by_default(self, rng):
        w = get_kernel("Heat-1D").weights
        st = repro.compile(w)
        x = rng.normal(size=64 + 2)
        _, cnt = _sim(st, x, 64)
        assert cnt.register_intermediate_bytes == 0
