"""Integration tests: multi-step simulations through the public API."""

import numpy as np
import pytest

from repro import Grid, compile, get_kernel, reference_iterate


class TestTimeIntegration:
    def test_heat2d_multi_step_matches_reference(self, rng):
        k = get_kernel("Heat-2D")
        eng = compile(k.weights)
        x0 = rng.normal(size=(24, 24))
        grid = Grid(x0, k.weights.radius)
        out = grid.run(eng.apply, 20)
        ref = reference_iterate(x0, k.weights, 20)
        assert np.allclose(out, ref, atol=1e-9)

    def test_heat1d_multi_step(self, rng):
        k = get_kernel("Heat-1D")
        eng = compile(k.weights)
        x0 = rng.normal(size=200)
        grid = Grid(x0, 1, boundary="periodic")
        out = grid.run(eng.apply, 50)
        ref = reference_iterate(x0, k.weights, 50, boundary="periodic")
        assert np.allclose(out, ref, atol=1e-9)

    def test_heat3d_multi_step(self, rng):
        k = get_kernel("Heat-3D")
        eng = compile(k.weights)
        x0 = rng.normal(size=(8, 10, 12))
        grid = Grid(x0, 1)
        out = grid.run(eng.apply, 5)
        ref = reference_iterate(x0, k.weights, 5)
        assert np.allclose(out, ref, atol=1e-10)

    def test_simulated_multi_step(self, rng):
        """Chaining the warp-level path across timesteps stays exact."""
        k = get_kernel("Box-2D9P")
        eng = compile(k.weights)
        x0 = rng.normal(size=(16, 16))
        grid = Grid(x0, 1)
        out = grid.run(lambda p: eng.apply_simulated(p)[0], 5)
        ref = reference_iterate(x0, k.weights, 5)
        assert np.allclose(out, ref, atol=1e-10)


class TestPhysics:
    def test_heat_smooths_spike(self):
        """A delta spike spreads and its peak decays monotonically."""
        k = get_kernel("Heat-2D")
        eng = compile(k.weights)
        x = np.zeros((31, 31))
        x[15, 15] = 1.0
        grid = Grid(x, 1)
        peaks = []
        for _ in range(10):
            grid.step(eng.apply)
            peaks.append(grid.interior.max())
        assert all(a >= b for a, b in zip(peaks, peaks[1:]))
        assert peaks[-1] < 0.1

    def test_heat_positivity(self):
        """Explicit heat with CFL-stable alpha preserves positivity."""
        k = get_kernel("Heat-2D")
        eng = compile(k.weights)
        rng = np.random.default_rng(5)
        x = np.abs(rng.normal(size=(20, 20)))
        grid = Grid(x, 1, boundary="periodic")
        out = grid.run(eng.apply, 30)
        assert np.all(out > 0)

    def test_periodic_mass_conservation_simulated(self, rng):
        k = get_kernel("Heat-2D")
        eng = compile(k.weights)
        x = rng.normal(size=(16, 16))
        grid = Grid(x, 1, boundary="periodic")
        out = grid.run(lambda p: eng.apply_simulated(p)[0], 10)
        assert out.sum() == pytest.approx(x.sum(), abs=1e-8)


class TestCrossEngineConsistency:
    def test_all_methods_agree_over_time(self, rng):
        """Five steps of every Fig. 8 method produce the same field."""
        from repro.baselines.registry import all_methods

        k = get_kernel("Box-2D9P")
        x0 = rng.normal(size=(14, 14))
        ref = reference_iterate(x0, k.weights, 5)
        for method in all_methods(k):
            grid = Grid(x0, k.weights.radius)
            out = grid.run(method.apply, 5)
            assert np.allclose(out, ref, atol=1e-9), method.name

    def test_fused_vs_unfused_periodic(self, rng):
        from repro.core.fusion import fuse_kernel

        k = get_kernel("Box-2D9P")
        fk = fuse_kernel(k.weights, 3)
        eng_fused = compile(fk.fused)
        eng_base = compile(k.weights)
        x0 = rng.normal(size=(24, 24))
        g1 = Grid(x0, 1, boundary="periodic")
        base_out = g1.run(eng_base.apply, 6)
        g2 = Grid(x0, 3, boundary="periodic")
        fused_out = g2.run(eng_fused.apply, 2)
        assert np.allclose(base_out, fused_out, atol=1e-9)
