"""Tests for the ConvStencil (stencil2row) baseline."""

import numpy as np
import pytest

from repro.baselines.convstencil import (
    ConvStencil1D,
    ConvStencil2D,
    ConvStencil3D,
    ConvStencilMethod,
)
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply
from repro.stencil.weights import box_weights


class TestConvStencil2D:
    @pytest.mark.parametrize("name", ["Box-2D9P", "Box-2D49P", "Star-2D13P", "Heat-2D"])
    def test_simulated_matches_reference(self, rng, name):
        w = get_kernel(name).weights
        eng = ConvStencil2D(w.as_matrix())
        x = rng.normal(size=(21 + 2 * w.radius, 26 + 2 * w.radius))
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_asymmetric_kernel(self, rng):
        w = box_weights(2, 2, rng=rng)
        eng = ConvStencil2D(w.as_matrix())
        x = rng.normal(size=(20, 23))
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_eq13_loads_per_tile(self):
        """Eq. 13: 2 * ceil((2h+1)^2/4) fragment loads per tile."""
        for h, expected in [(1, 6), (2, 14), (3, 26), (4, 42)]:
            w = box_weights(h, 2, values=np.ones((2 * h + 1,) * 2))
            eng = ConvStencil2D(w.as_matrix())
            assert eng.fragment_loads_per_tile == expected
            assert eng.mma_per_tile == expected

    def test_measured_loads_match_eq13(self, rng):
        """The simulator's counters reproduce the closed form."""
        w = get_kernel("Box-2D49P").weights
        eng = ConvStencil2D(w.as_matrix())
        rows, cols = 32, 32
        x = rng.normal(size=(rows + 6, cols + 6))
        _, cnt = eng.apply_simulated(x)
        tiles = (rows // 8) * (cols // eng.tile_cols)
        assert cnt.shared_load_requests == tiles * eng.fragment_loads_per_tile
        assert cnt.mma_ops == cnt.shared_load_requests  # no fragment reuse

    def test_stores_exceed_lorastencil(self, rng):
        """The stencil2row matrices cost extra stores (Fig. 10)."""
        import repro

        w = get_kernel("Box-2D49P").weights
        x = rng.normal(size=(38, 38))
        _, conv = ConvStencil2D(w.as_matrix()).apply_simulated(x)
        _, lora = repro.compile(w).apply_simulated(x)
        assert conv.shared_store_requests > lora.shared_store_requests
        assert conv.shared_load_requests > lora.shared_load_requests

    def test_unaligned_grid(self, rng):
        w = get_kernel("Box-2D9P").weights
        eng = ConvStencil2D(w.as_matrix())
        x = rng.normal(size=(9 + 2, 13 + 2))
        out, _ = eng.apply_simulated(x)
        assert out.shape == (9, 13)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_even_matrix_rejected(self):
        with pytest.raises(ValueError):
            ConvStencil2D(np.ones((4, 4)))


class TestConvStencil1D:
    @pytest.mark.parametrize("name", ["Heat-1D", "1D5P"])
    def test_simulated_matches_reference(self, rng, name):
        w = get_kernel(name).weights
        eng = ConvStencil1D(w)
        x = rng.normal(size=200 + 2 * w.radius)
        out, _ = eng.apply_simulated(x, block=96)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_unaligned_length(self, rng):
        w = get_kernel("Heat-1D").weights
        eng = ConvStencil1D(w)
        x = rng.normal(size=77 + 2)
        out, _ = eng.apply_simulated(x, block=64)
        assert out.shape == (77,)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_mma_equals_loads(self, rng):
        w = get_kernel("1D5P").weights
        eng = ConvStencil1D(w)
        x = rng.normal(size=96 + 4)
        _, cnt = eng.apply_simulated(x, block=96)
        assert cnt.mma_ops == cnt.shared_load_requests


class TestConvStencil3D:
    def test_simulated_matches_reference(self, rng):
        w = get_kernel("Box-3D27P").weights
        eng = ConvStencil3D(w.array)
        x = rng.normal(size=(3 + 2, 10 + 2, 12 + 2))
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_every_plane_pays_the_gemm(self, rng):
        """Unlike LoRAStencil, single-point planes still run stencil2row
        GEMM — part of the paper's 3D argument."""
        import repro

        w = get_kernel("Heat-3D").weights
        x = rng.normal(size=(3 + 2, 10 + 2, 10 + 2))
        _, conv = ConvStencil3D(w.array).apply_simulated(x)
        _, lora = repro.compile(w).apply_simulated(x)
        assert conv.mma_ops > lora.mma_ops

    def test_non_cube_rejected(self):
        with pytest.raises(ValueError):
            ConvStencil3D(np.ones((3, 3, 5)))


class TestConvStencilMethod:
    def test_2d_small_kernel_fused(self):
        m = ConvStencilMethod(get_kernel("Box-2D9P"))
        assert m.steps_per_sweep == 3
        assert m.engine.radius == 3

    def test_2d_large_kernel_unfused(self):
        m = ConvStencilMethod(get_kernel("Box-2D49P"))
        assert m.steps_per_sweep == 1

    def test_3d_fused(self):
        m = ConvStencilMethod(get_kernel("Heat-3D"))
        assert m.steps_per_sweep == 3
        assert isinstance(m.engine, ConvStencil3D)

    def test_apply_is_single_base_step(self, rng):
        k = get_kernel("Box-2D9P")
        m = ConvStencilMethod(k)
        x = rng.normal(size=(14, 14))
        assert np.allclose(m.apply(x), reference_apply(x, k.weights))

    def test_footprint_per_point_step(self):
        m = ConvStencilMethod(get_kernel("Box-2D9P"))
        fp = m.footprint((32, 32))
        assert fp.points == 32 * 32 * 3  # normalized per base timestep
        assert fp.counters.mma_ops > 0
