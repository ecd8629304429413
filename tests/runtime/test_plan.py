"""StencilPlan construction and content-addressed keys."""

import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import OptimizationConfig
from repro.errors import ShapeError
from repro.runtime import build_plan, canonical_weights, plan_key
from repro.stencil.kernels import get_kernel


class TestCanonicalWeights:
    def test_array_passthrough(self):
        arr, nd = canonical_weights(np.ones((3, 3)))
        assert nd == 2
        assert arr.dtype == np.float64
        assert arr.flags["C_CONTIGUOUS"]

    def test_stencil_weights(self):
        w = get_kernel("Box-2D9P").weights
        arr, nd = canonical_weights(w)
        assert nd == 2
        np.testing.assert_array_equal(arr, w.as_matrix())

    def test_ndim_mismatch(self):
        with pytest.raises(ShapeError):
            canonical_weights(np.ones((3, 3)), ndim=1)

    def test_even_side_rejected(self):
        with pytest.raises(ShapeError):
            canonical_weights(np.ones((4, 4)))

    def test_0d_rejected(self):
        with pytest.raises(ShapeError):
            canonical_weights(np.float64(1.0))


class TestPlanKey:
    def test_deterministic(self):
        w = get_kernel("Box-2D49P").weights
        assert plan_key(w) == plan_key(w)

    def test_equal_for_equal_values(self):
        w = get_kernel("Box-2D49P").weights
        assert plan_key(w) == plan_key(w.as_matrix().copy())

    def test_differs_on_weights(self):
        assert plan_key(np.full((3, 3), 0.1)) != plan_key(np.full((3, 3), 0.2))

    def test_differs_on_config(self):
        w = np.full((3, 3), 0.1)
        assert plan_key(w) != plan_key(
            w, config=OptimizationConfig(use_bvs=False)
        )

    def test_differs_on_tile_shape(self):
        w = np.full((3, 3), 0.1)
        assert plan_key(w) != plan_key(w, tile_shape=(8, 16))

    def test_differs_on_ndim_same_bytes(self):
        v = np.array([0.25, 0.5, 0.25])
        m = np.outer(v, v)  # different shape => different key material
        assert plan_key(v) != plan_key(m)

    def test_stable_across_processes(self):
        """The key must not depend on PYTHONHASHSEED or process state."""
        w = get_kernel("Heat-2D").weights
        here = plan_key(w, backend="interpreter")
        code = (
            "from repro.runtime import plan_key\n"
            "from repro.stencil.kernels import get_kernel\n"
            "print(plan_key(get_kernel('Heat-2D').weights,"
            " backend='interpreter'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "12345"},
        )
        assert out.stdout.strip() == here


class TestBuildPlan:
    def test_2d_structure(self):
        k = get_kernel("Box-2D49P")
        plan = build_plan(k.weights)
        assert plan.ndim == 2
        assert plan.radius == 3
        assert plan.method == "pma"
        assert plan.rank == 4
        assert plan.block == (32, 64)
        assert plan.mma_per_tile == plan.kernel.mma_per_tile
        assert len(plan.u_matrices) == len(plan.v_matrices)
        assert plan.bvs_order is not None

    def test_1d_structure(self):
        plan = build_plan(get_kernel("Heat-1D").weights)
        assert plan.ndim == 1
        assert plan.method == "banded"
        assert plan.rank == 0
        assert plan.u_matrices == () and plan.v_matrices == ()
        assert plan.bvs_order is None

    def test_3d_structure(self):
        plan = build_plan(get_kernel("Heat-3D").weights)
        assert plan.ndim == 3
        assert plan.method == "planes"
        assert len(plan.plane_decompositions) == 3
        assert plan.mma_per_tile > 0

    def test_bvs_off_drops_order(self):
        k = get_kernel("Box-2D9P")
        plan = build_plan(k.weights, config=OptimizationConfig(use_bvs=False))
        assert plan.bvs_order is None

    def test_predicted_cost_positive(self):
        plan = build_plan(get_kernel("Box-2D9P").weights)
        assert plan.predicted_time_per_point_s > 0
        assert plan.predicted_gstencil_per_s > 0

    def test_describe_mentions_key_facts(self):
        plan = build_plan(get_kernel("Box-2D49P").weights)
        text = plan.describe()
        assert plan.key[:16] in text
        assert "pma" in text and "1x1 apex" in text

    def test_tile_shape_only_2d(self):
        with pytest.raises(ShapeError):
            build_plan(get_kernel("Heat-1D").weights, tile_shape=(8, 8))

    def test_float32_rejected(self):
        with pytest.raises(ShapeError):
            build_plan(get_kernel("Heat-2D").weights, dtype=np.float32)

    def test_key_matches_plan_key(self):
        w = get_kernel("Star-2D13P").weights
        assert build_plan(w).key == plan_key(w)


class TestLoweredArtifactOnPlan:
    def test_plan_carries_lowered_program(self):
        plan = build_plan(get_kernel("Box-2D9P").weights)
        assert plan.lowered.schedule == "eager"
        assert plan.program is not None
        assert plan.program is plan.lowered.tile.program
        # the program indexes the very kernel the plan carries
        assert plan.program.tile is plan.kernel

    def test_schedule_knob_changes_key_and_program_order(self):
        k = get_kernel("Box-2D49P")
        eager = build_plan(k.weights)
        prefetch = build_plan(
            k.weights, config=OptimizationConfig(schedule="prefetch")
        )
        assert eager.key != prefetch.key
        assert prefetch.schedule == "prefetch"
        ops = [i.op for i in prefetch.program.instrs]
        n_loads = ops.count("load_x")
        assert all(op == "load_x" for op in ops[:n_loads])

    def test_1d_plan_program(self):
        plan = build_plan(get_kernel("Heat-1D").weights)
        ops = {i.op for i in plan.program.instrs}
        assert ops == {"load_x", "mma"}

    def test_3d_plan_program_per_plane(self):
        plan = build_plan(get_kernel("Heat-3D").weights)
        programs = plan.program
        assert isinstance(programs, tuple)
        assert len(programs) == len(plan.planes)
        # star off-centre planes are point-wise -> no program
        assert programs.count(None) == len(plan.cuda_core_planes)

    def test_cuda_core_plan_has_no_program(self):
        plan = build_plan(
            get_kernel("Box-2D9P").weights,
            config=OptimizationConfig(use_tensor_cores=False),
        )
        assert plan.program is None
        assert plan.lowered.tile is None

    def test_describe_includes_lowering_line(self):
        plan = build_plan(get_kernel("Box-2D9P").weights)
        assert "lowering" in plan.describe()
        assert "eager" in plan.describe()
