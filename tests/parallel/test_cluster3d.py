"""Tests for 3D pencil-decomposed clusters: ``distribute`` over a
``(1, P, Q)`` mesh keeps the vertical axis whole on every device."""

import numpy as np
import pytest

from repro.parallel import ClusterRuntime, distribute
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_iterate


def _pencils(weights, shape, mesh, **kwargs) -> ClusterRuntime:
    return ClusterRuntime(distribute(weights, shape, (1, *mesh), **kwargs))


class TestCluster3D:
    @pytest.mark.parametrize("mesh", [(1, 1), (2, 2), (2, 3)])
    @pytest.mark.parametrize("boundary", ["constant", "periodic"])
    def test_trajectory_matches_reference(self, rng, mesh, boundary):
        w = get_kernel("Heat-3D").weights
        x = rng.normal(size=(6, 12, 18))
        out = _pencils(w, x.shape, mesh, boundary=boundary).run(x, 3).field
        ref = reference_iterate(x, w, 3, boundary=boundary)
        assert np.allclose(out, ref, atol=1e-10)

    def test_box_kernel(self, rng):
        w = get_kernel("Box-3D27P").weights
        x = rng.normal(size=(5, 10, 14))
        out = _pencils(w, x.shape, (2, 2)).run(x, 2).field
        ref = reference_iterate(x, w, 2)
        assert np.allclose(out, ref, atol=1e-10)

    def test_scatter_gather_round_trip(self, rng):
        w = get_kernel("Heat-3D").weights
        x = rng.normal(size=(4, 8, 12))
        cluster = _pencils(w, x.shape, (2, 3))
        assert np.array_equal(cluster.gather(cluster.scatter(x)), x)

    def test_pencils_keep_z_whole(self, rng):
        w = get_kernel("Heat-3D").weights
        cluster = _pencils(w, (6, 12, 12), (2, 2))
        blocks = cluster.scatter(rng.normal(size=(6, 12, 12)))
        for block in blocks.values():
            assert block.shape[0] == 6

    def test_halo_bytes_scale_with_depth(self):
        w = get_kernel("Heat-3D").weights
        shallow = _pencils(w, (4, 16, 16), (2, 2)).exchanger(w.radius)
        deep = _pencils(w, (16, 16, 16), (2, 2)).exchanger(w.radius)
        # the side faces of a pencil span its whole depth; the constant
        # boundary has no z neighbour to exchange with
        ratio = deep.bytes_per_exchange(0) / shallow.bytes_per_exchange(0)
        assert ratio == pytest.approx(16 / 4)

    def test_single_device_no_traffic(self):
        w = get_kernel("Heat-3D").weights
        cluster = _pencils(w, (4, 8, 8), (1, 1))
        assert cluster.exchanger(w.radius).bytes_per_exchange(0) == 0

    def test_exchanged_bytes_accumulate(self, rng):
        w = get_kernel("Heat-3D").weights
        x = rng.normal(size=(4, 8, 8))
        cluster = _pencils(w, x.shape, (2, 2))
        res = cluster.run(x, 2)
        per_round = cluster.exchanger(w.radius).total_bytes_per_exchange()
        assert res.rounds == 2
        assert res.exchanged_bytes == 2 * per_round > 0

    def test_2d_weights_rejected(self):
        with pytest.raises(ValueError):
            _pencils(get_kernel("Heat-2D").weights, (4, 8, 8), (1, 1))

    def test_bad_boundary_rejected(self):
        with pytest.raises(ValueError):
            _pencils(
                get_kernel("Heat-3D").weights, (4, 8, 8), (1, 1), boundary="edge"
            )

    def test_field_shape_checked(self, rng):
        w = get_kernel("Heat-3D").weights
        cluster = _pencils(w, (4, 8, 8), (1, 1))
        with pytest.raises(ValueError):
            cluster.scatter(rng.normal(size=(4, 8, 9)))
