"""Tests for the z-streaming 3D simulated sweep."""

import numpy as np
import pytest

import repro
from repro.core.sweep import simulate_streaming
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply
from repro.stencil.weights import radially_symmetric_weights


class TestStreamingCorrectness:
    @pytest.mark.parametrize("name", ["Heat-3D", "Box-3D27P"])
    def test_matches_reference(self, rng, name):
        w = get_kernel(name).weights
        eng = repro.compile(w)
        x = rng.normal(size=(4 + 2, 11 + 2, 14 + 2))
        out, _ = simulate_streaming(eng.plan, x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_matches_default_simulated(self, rng):
        w = get_kernel("Box-3D27P").weights
        eng = repro.compile(w)
        x = rng.normal(size=(5, 12, 12))
        out_s, _ = simulate_streaming(eng.plan, x)
        out_d, _ = eng.apply_simulated(x)
        assert np.allclose(out_s, out_d, atol=1e-12)

    def test_radius2_kernel(self, rng):
        w = radially_symmetric_weights(2, 3, rng=rng)
        eng = repro.compile(w)
        x = rng.normal(size=(3 + 4, 10 + 4, 13 + 4))
        out, _ = simulate_streaming(eng.plan, x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-11)

    def test_unaligned_grid(self, rng):
        w = get_kernel("Heat-3D").weights
        eng = repro.compile(w)
        x = rng.normal(size=(3 + 2, 9 + 2, 11 + 2))
        out, _ = simulate_streaming(eng.plan, x)
        assert out.shape == (3, 9, 11)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_2d_input_rejected(self, rng):
        eng = repro.compile(get_kernel("Heat-3D").weights)
        with pytest.raises(ValueError):
            simulate_streaming(eng.plan, rng.normal(size=(8, 8)))


class TestStreamingTraffic:
    def test_dram_reads_divided_by_plane_touches(self, rng):
        """The measured justification for the footprint z-streaming
        correction: streaming reads each slab once; the per-plane sweep
        re-reads it once per touching kernel plane."""
        w = get_kernel("Box-3D27P").weights
        eng = repro.compile(w)
        x = rng.normal(size=(6, 14, 14))
        _, stream = simulate_streaming(eng.plan, x)
        _, default = eng.apply_simulated(x)
        ratio = default.global_load_bytes / stream.global_load_bytes
        # 3 kernel planes touch each slab (minus edge effects)
        assert 2.0 < ratio <= 3.0

    def test_each_slab_copied_once(self, rng):
        w = get_kernel("Box-3D27P").weights
        eng = repro.compile(w)
        zs = 6
        x = rng.normal(size=(zs + 2, 10 + 2, 10 + 2))
        _, cnt = simulate_streaming(eng.plan, x)
        assert cnt.async_copies == zs + 2  # one per padded input slab

    def test_mma_count_unchanged(self, rng):
        """Streaming changes memory traffic, not arithmetic."""
        w = get_kernel("Heat-3D").weights
        eng = repro.compile(w)
        x = rng.normal(size=(4, 10, 10))
        _, stream = simulate_streaming(eng.plan, x)
        _, default = eng.apply_simulated(x)
        assert stream.mma_ops == default.mma_ops
        assert stream.shuffle_ops == default.shuffle_ops == 0
