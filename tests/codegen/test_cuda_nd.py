"""Tests for the 1D and 3D CUDA emitters."""

import pytest

from repro.codegen.cuda_nd import generate_cuda_kernel_1d, generate_cuda_kernel_3d
import repro
from repro.stencil.kernels import get_kernel


class TestCuda1D:
    @pytest.mark.parametrize("name", ["Heat-1D", "1D5P"])
    def test_mma_count_matches_engine(self, name):
        w = get_kernel(name).weights
        src = generate_cuda_kernel_1d(w)
        assert src.mma_calls == repro.compile(w).plan.mma_per_tile
        assert src.source.count("wmma::mma_sync") == src.mma_calls

    def test_single_gather_no_mcm(self):
        """1D has no residual dimension: no splits, no V fragments."""
        src = generate_cuda_kernel_1d(get_kernel("Heat-1D").weights)
        assert "__shfl_sync" not in src.source
        assert "V0_" not in src.source
        assert not src.uses_shuffles

    def test_async_copy_used(self):
        src = generate_cuda_kernel_1d(get_kernel("1D5P").weights)
        assert "__pipeline_memcpy_async" in src.source

    def test_weight_constants_present(self):
        w = get_kernel("Heat-1D").weights
        src = generate_cuda_kernel_1d(w)
        assert "U_K0" in src.source

    def test_braces_balanced(self):
        src = generate_cuda_kernel_1d(get_kernel("Heat-1D").weights)
        assert src.source.count("{") == src.source.count("}")

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            generate_cuda_kernel_1d(get_kernel("Heat-2D").weights)


class TestCuda3D:
    def test_heat3d_plane_dispatch(self):
        src = generate_cuda_kernel_3d(get_kernel("Heat-3D").weights)
        assert src.pointwise_planes == (0, 2)
        assert src.tensor_planes == (1,)
        assert src.plane_sources[0] is None
        assert src.plane_sources[1] is not None

    def test_box3d_all_tensor_planes(self):
        src = generate_cuda_kernel_3d(get_kernel("Box-3D27P").weights)
        assert src.tensor_planes == (0, 1, 2)
        assert src.pointwise_planes == ()

    def test_driver_contains_both_paths(self):
        src = generate_cuda_kernel_3d(get_kernel("Heat-3D").weights)
        assert "axpy_plane_kernel" in src.driver_source
        assert "lorastencil3d_plane1" in src.driver_source
        assert "CUDA cores (Alg. 2 line 5)" in src.driver_source
        assert "tensor cores (Alg. 2 line 8)" in src.driver_source

    def test_full_source_concatenates(self):
        src = generate_cuda_kernel_3d(get_kernel("Box-3D27P").weights)
        for i in src.tensor_planes:
            assert f"lorastencil3d_plane{i}(" in src.full_source

    def test_plane_mma_counts(self):
        """Each rich plane's emitted kernel matches the plan's plane."""
        w = get_kernel("Box-3D27P").weights
        src = generate_cuda_kernel_3d(w)
        planes = repro.compile(w).plan.planes
        for i in src.tensor_planes:
            assert src.plane_sources[i].mma_calls == planes[i].kernel.mma_per_tile

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            generate_cuda_kernel_3d(get_kernel("Heat-2D").weights)
