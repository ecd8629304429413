"""Tests for the LoRAStencil method adapter (fusion policy, configs)."""

import numpy as np

from repro.baselines.lorastencil import LoRAStencilMethod
from repro.core.config import OptimizationConfig
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply, reference_iterate


class TestFusionPolicy:
    def test_2d_radius1_fused_3x(self):
        m = LoRAStencilMethod(get_kernel("Box-2D9P"))
        assert m.steps_per_sweep == 3
        assert m.plan.ndim == 2
        assert m.plan.radius == 3

    def test_2d_radius3_unfused(self):
        m = LoRAStencilMethod(get_kernel("Box-2D49P"))
        assert m.steps_per_sweep == 1

    def test_1d_unfused(self):
        m = LoRAStencilMethod(get_kernel("Heat-1D"))
        assert m.steps_per_sweep == 1
        assert m.plan.ndim == 1

    def test_3d_unfused(self):
        """The paper's point: LoRAStencil does NOT need 3D fusion."""
        m = LoRAStencilMethod(get_kernel("Heat-3D"))
        assert m.steps_per_sweep == 1
        assert m.plan.ndim == 3


class TestFunctional:
    def test_apply_is_one_base_step(self, rng):
        k = get_kernel("Box-2D9P")
        m = LoRAStencilMethod(k)
        x = rng.normal(size=(14, 14))
        assert np.allclose(m.apply(x), reference_apply(x, k.weights), atol=1e-12)

    def test_apply_fused_is_three_steps(self, rng):
        k = get_kernel("Box-2D9P")
        m = LoRAStencilMethod(k)
        x = rng.normal(size=(20, 20))
        fused_padded = np.pad(x, 3, mode="wrap")
        out = m.apply_fused(fused_padded)
        ref = reference_iterate(x, k.weights, 3, boundary="periodic")
        assert np.allclose(out, ref, atol=1e-12)

    def test_simulated_sweep_correct(self, rng):
        k = get_kernel("Box-2D49P")
        m = LoRAStencilMethod(k)
        out, counters = m.simulated_sweep((16, 24))
        assert out.shape == (16, 24)
        assert counters.mma_ops > 0


class TestFootprint:
    def test_fused_footprint_normalized_per_step(self):
        m = LoRAStencilMethod(get_kernel("Box-2D9P"))
        fp = m.footprint((32, 32))
        assert fp.points == 32 * 32 * 3

    def test_config_changes_footprint(self):
        k = get_kernel("Box-2D49P")
        with_bvs = LoRAStencilMethod(k)
        without = LoRAStencilMethod(k, config=OptimizationConfig(use_bvs=False))
        f1 = with_bvs.footprint((16, 16)).per_point()
        f2 = without.footprint((16, 16)).per_point()
        assert f1["shuffle_ops"] == 0
        assert f2["shuffle_ops"] > 0

    def test_traits_depend_on_config(self):
        k = get_kernel("Box-2D49P")
        tcu = LoRAStencilMethod(k).traits()
        cuda = LoRAStencilMethod(
            k, config=OptimizationConfig(use_tensor_cores=False)
        ).traits()
        assert tcu.tcu_efficiency > 0.5
        assert cuda.cuda_efficiency < tcu.tcu_efficiency
