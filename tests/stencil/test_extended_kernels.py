"""Generalization tests: every method on the extended kernel zoo."""

import numpy as np
import pytest

import repro
from repro.core.sweep import simulate
from repro.baselines.convstencil import ConvStencil1D, ConvStencil2D
from repro.stencil.extended import EXTENDED_KERNELS, get_extended_kernel
from repro.stencil.reference import reference_apply
from repro.stencil.weights import is_radially_symmetric

EXT_2D = ["Star-2D9P", "Box-2D25P", "Box-2D81P"]
EXT_3D = ["Star-3D13P", "Box-3D125P"]


class TestZoo:
    def test_six_extended_kernels(self):
        assert len(EXTENDED_KERNELS) == 6

    def test_points(self):
        assert get_extended_kernel("1D7P").points == 7
        assert get_extended_kernel("Star-2D9P").points == 9
        assert get_extended_kernel("Box-2D25P").points == 25
        assert get_extended_kernel("Box-2D81P").points == 81
        assert get_extended_kernel("Star-3D13P").points == 13
        assert get_extended_kernel("Box-3D125P").points == 125

    def test_all_radially_symmetric(self):
        for k in EXTENDED_KERNELS.values():
            assert is_radially_symmetric(k.weights), k.name

    def test_rank_bounds(self):
        for name in EXT_2D:
            k = get_extended_kernel(name)
            assert k.weights.matrix_rank() <= k.weights.radius + 1

    def test_no_overlap_with_table_ii(self):
        from repro.stencil.kernels import KERNELS

        assert not set(EXTENDED_KERNELS) & set(KERNELS)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_extended_kernel("Box-9D1P")


class TestEnginesGeneralize:
    def test_1d7p(self, rng):
        w = get_extended_kernel("1D7P").weights
        plan = repro.compile(w).plan
        x = rng.normal(size=200 + 6)
        out, _ = simulate(plan, x, "interpreter", block=(128,))
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)
        conv = ConvStencil1D(w)
        out2, _ = conv.apply_simulated(x, block=128)
        assert np.allclose(out2, reference_apply(x, w), atol=1e-12)

    @pytest.mark.parametrize("name", EXT_2D)
    def test_2d_functional_and_simulated(self, rng, name):
        w = get_extended_kernel(name).weights
        eng = repro.compile(w)
        x = rng.normal(size=(20 + 2 * w.radius, 25 + 2 * w.radius))
        ref = reference_apply(x, w)
        assert np.allclose(eng.apply(x), ref, atol=1e-11)
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, ref, atol=1e-11)

    @pytest.mark.parametrize("name", EXT_2D)
    def test_2d_convstencil(self, rng, name):
        w = get_extended_kernel(name).weights
        eng = ConvStencil2D(w.as_matrix())
        x = rng.normal(size=(18 + 2 * w.radius, 22 + 2 * w.radius))
        out, cnt = eng.apply_simulated(x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-11)
        assert cnt.mma_ops == cnt.shared_load_requests

    @pytest.mark.parametrize("name", EXT_3D)
    def test_3d(self, rng, name):
        w = get_extended_kernel(name).weights
        eng = repro.compile(w)
        x = rng.normal(size=(3 + 2 * w.radius, 10 + 2 * w.radius, 12 + 2 * w.radius))
        ref = reference_apply(x, w)
        assert np.allclose(eng.apply(x), ref, atol=1e-11)
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, ref, atol=1e-11)

    def test_star_3d13p_plane_split(self):
        """Order-2 3D star: four single-point planes, one rich plane."""
        eng = repro.compile(get_extended_kernel("Star-3D13P").weights)
        assert eng.plan.cuda_core_planes == [0, 1, 3, 4]
        assert eng.plan.tensor_core_planes == [2]

    def test_box_2d81p_uses_pma_with_5_levels(self):
        from repro.core.lowrank import decompose

        w = get_extended_kernel("Box-2D81P").weights
        d = decompose(w.as_matrix())
        assert d.method == "pma"
        assert [t.size for t in d.terms] == [9, 7, 5, 3, 1]

    def test_box_2d81p_eq14_ratio(self):
        """h=4 is the radius Eq. 14 quotes 4.2x for."""
        from repro.analysis.memory_model import memory_ratio

        assert memory_ratio(4) == pytest.approx(4.2)
