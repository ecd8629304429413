"""Tests for the initial-condition library."""

import numpy as np
import pytest

from repro.stencil.fields import (
    checkerboard,
    gaussian_pulse,
    hot_square,
    plane_wave,
    random_field,
)


class TestGaussian:
    def test_peak_at_center(self):
        f = gaussian_pulse((21, 21))
        assert f[10, 10] == pytest.approx(1.0)
        assert f.argmax() == 10 * 21 + 10

    def test_amplitude(self):
        assert gaussian_pulse((11,), amplitude=3.0).max() == pytest.approx(3.0)

    def test_custom_center(self):
        f = gaussian_pulse((16, 16), center=(4.0, 12.0))
        assert np.unravel_index(f.argmax(), f.shape) == (4, 12)

    def test_3d(self):
        f = gaussian_pulse((9, 9, 9))
        assert f.shape == (9, 9, 9)
        assert f[4, 4, 4] == f.max()

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_pulse((8, 8), sigma=0.0)

    def test_bad_center(self):
        with pytest.raises(ValueError):
            gaussian_pulse((8, 8), center=(1.0,))


class TestHotSquare:
    def test_values(self):
        f = hot_square((32, 32), half_width=4, value=50.0)
        assert f[16, 16] == 50.0
        assert f[0, 0] == 0.0
        assert (f == 50.0).sum() == 64

    def test_1d(self):
        f = hot_square((20,), half_width=2)
        assert (f > 0).sum() == 4

    def test_bad_width(self):
        with pytest.raises(ValueError):
            hot_square((8, 8), half_width=0)


class TestPlaneWave:
    def test_range(self):
        f = plane_wave((64, 64))
        assert f.max() <= 1.0 and f.min() >= -1.0

    def test_default_one_period(self):
        f = plane_wave((64,))
        # one full period: ends near where it started
        assert f[0] == pytest.approx(0.0, abs=1e-12)

    def test_bad_wavevector(self):
        with pytest.raises(ValueError):
            plane_wave((8, 8), wavevector=(1.0,))


class TestRandomAndCheckerboard:
    def test_random_deterministic(self):
        assert np.array_equal(random_field((8, 8), seed=3), random_field((8, 8), seed=3))
        assert not np.array_equal(
            random_field((8, 8), seed=3), random_field((8, 8), seed=4)
        )

    def test_checkerboard_alternates(self):
        f = checkerboard((4, 4))
        assert f[0, 0] == 1.0 and f[0, 1] == -1.0 and f[1, 0] == -1.0
        assert set(np.unique(f)) == {-1.0, 1.0}

    def test_checkerboard_period(self):
        f = checkerboard((8,), period=2)
        assert np.array_equal(f[:4], [1.0, 1.0, -1.0, -1.0])

    def test_checkerboard_bad_period(self):
        with pytest.raises(ValueError):
            checkerboard((8, 8), period=0)

    def test_checkerboard_killed_by_diffusion(self):
        """Physics sanity: the checkerboard is the fastest-decaying mode
        of the heat stencil."""
        import repro
        from repro.stencil.grid import Grid
        from repro.stencil.kernels import get_kernel

        eng = repro.compile(get_kernel("Heat-2D").weights)
        grid = Grid(checkerboard((16, 16)), 1, boundary="periodic")
        out = grid.run(eng.apply, 10)
        assert np.abs(out).max() < 0.01
