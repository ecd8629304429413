"""Tests for the configuration autotuner."""

import numpy as np
import pytest

from repro.core.autotune import autotune_2d
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_iterate


class TestAutotune:
    @pytest.fixture(scope="class")
    def box9_result(self):
        return autotune_2d(get_kernel("Box-2D9P").weights)

    def test_rediscover_paper_fusion(self, box9_result):
        """The tuner independently picks the paper's 3x fusion for the
        radius-1 kernel."""
        assert box9_result.best.fusion == 3

    def test_candidates_ranked(self, box9_result):
        scores = [c.gstencil_per_s for c in box9_result.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_all_candidates_evaluated(self, box9_result):
        assert len(box9_result.candidates) == 3 * 3  # fusions x tiles

    def test_large_kernel_prefers_no_fusion(self):
        """Radius-3 kernels already fill the window: fusing again only
        adds compute."""
        res = autotune_2d(
            get_kernel("Box-2D49P").weights,
            fusion_options=(1, 2),
            tile_options=((8, 8), (16, 16)),
            measure_grid=(32, 32),
        )
        assert res.best.fusion == 1

    def test_built_engine_is_correct(self, rng, box9_result):
        """The tuned plan reproduces `fusion` reference steps."""
        w = get_kernel("Box-2D9P").weights
        engine = box9_result.compile(w)
        fusion = box9_result.best.fusion
        x = rng.normal(size=(24, 24))
        ref = reference_iterate(x, w, fusion, boundary="periodic")
        padded = np.pad(x, engine.radius, mode="wrap")
        assert np.allclose(engine.apply(padded), ref, atol=1e-10)

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            autotune_2d(get_kernel("Heat-3D").weights)

    def test_deterministic(self):
        a = autotune_2d(
            get_kernel("Heat-2D").weights,
            fusion_options=(1, 3),
            tile_options=((8, 8),),
            measure_grid=(24, 24),
        )
        b = autotune_2d(
            get_kernel("Heat-2D").weights,
            fusion_options=(1, 3),
            tile_options=((8, 8),),
            measure_grid=(24, 24),
        )
        assert a.best == b.best
