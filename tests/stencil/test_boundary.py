"""Tests for the boundary-condition objects."""

import numpy as np
import pytest

from repro.stencil.boundary import (
    Dirichlet,
    Neumann,
    Periodic,
    Reflect,
    parse_boundary,
)
from repro.stencil.grid import Grid


class TestConditions:
    def test_dirichlet_zero(self):
        p = Dirichlet().pad(np.ones((2, 2)), 1)
        assert p[0, 0] == 0.0 and p[1, 1] == 1.0

    def test_dirichlet_value(self):
        p = Dirichlet(5.0).pad(np.zeros(3), 2)
        assert p[0] == 5.0 and p[-1] == 5.0

    def test_periodic(self):
        p = Periodic().pad(np.arange(4.0), 1)
        assert p[0] == 3.0 and p[-1] == 0.0

    def test_neumann_zero_gradient(self):
        p = Neumann().pad(np.arange(4.0), 2)
        assert p[0] == p[1] == 0.0
        assert p[-1] == p[-2] == 3.0

    def test_reflect(self):
        p = Reflect().pad(np.arange(4.0), 1)
        assert p[0] == 1.0 and p[-1] == 2.0

    def test_3d_padding(self, rng):
        x = rng.normal(size=(3, 4, 5))
        p = Periodic().pad(x, 1)
        assert p.shape == (5, 6, 7)
        assert np.array_equal(p[0, 1:-1, 1:-1], x[-1])


class TestParse:
    def test_strings(self):
        assert isinstance(parse_boundary("constant"), Dirichlet)
        assert isinstance(parse_boundary("periodic"), Periodic)
        assert isinstance(parse_boundary("edge"), Neumann)
        assert isinstance(parse_boundary("reflect"), Reflect)

    def test_constant_with_value(self):
        bc = parse_boundary("constant", constant_value=3.0)
        assert isinstance(bc, Dirichlet) and bc.value == 3.0

    def test_object_passthrough(self):
        bc = Dirichlet(9.0)
        assert parse_boundary(bc) is bc

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_boundary("open")


class TestGridIntegration:
    def test_grid_accepts_objects(self, rng):
        x = rng.normal(size=(4, 4))
        g_obj = Grid(x, 1, boundary=Periodic())
        g_str = Grid(x, 1, boundary="periodic")
        assert np.array_equal(g_obj.padded(), g_str.padded())

    def test_grid_dirichlet_hot_wall(self):
        """A non-zero Dirichlet wall heats the plate toward the wall
        temperature — physically sensible end-to-end behaviour."""
        import repro
        from repro.stencil.kernels import get_kernel

        eng = repro.compile(get_kernel("Heat-2D").weights)
        g = Grid(np.zeros((10, 10)), 1, boundary=Dirichlet(100.0))
        out = g.run(eng.apply, 50)
        assert out.min() > 0.0
        assert out.max() <= 100.0 + 1e-9
        # cells near the wall are hotter than the centre
        assert out[0, 5] > out[5, 5]

    def test_grid_name_back_compat(self):
        g = Grid(np.zeros(4), 1, boundary=Neumann())
        assert g.boundary == "edge"
