"""Tests for the closed-form Eq. 12-16 models, including the paper's
quoted constants and the model-vs-measurement agreement."""

import pytest

from repro.analysis.compute_model import (
    convstencil_mma_count,
    convstencil_mma_per_tile,
    lorastencil_mma_count,
    lorastencil_mma_per_tile,
    mma_ratio,
)
from repro.analysis.memory_model import (
    convstencil_fragment_loads,
    convstencil_loads_per_tile,
    memory_ratio,
    rdg_fragment_loads,
    rdg_loads_per_tile,
    redundancy_eliminated,
)


class TestPaperConstants:
    def test_eq14_h3(self):
        """Box-2D49P: ConvStencil moves 3.25x RDG's volume; RDG
        eliminates 69.23% of its accesses."""
        assert memory_ratio(3) == pytest.approx(3.25)
        assert redundancy_eliminated(3) == pytest.approx(0.6923, abs=1e-4)

    def test_eq14_h4(self):
        assert memory_ratio(4) == pytest.approx(4.2)
        assert redundancy_eliminated(4) == pytest.approx(0.7619, abs=1e-4)

    def test_eq16_ratio_h3(self):
        """LoRAStencil spends 36/26 ~ 1.38x ConvStencil's MMAs at h=3."""
        assert lorastencil_mma_per_tile(3) == 36
        assert convstencil_mma_per_tile(3) == 26
        assert mma_ratio(3) == pytest.approx(36 / 26)

    def test_eq12_loads_per_point(self):
        """Eq. 12: ab/8 loads per sweep.  Exact for h in {3, 4} (the
        window fills the 16x16 fragment footprint); for smaller radii the
        fixed 8x8-tile implementation reuses the padded window even more,
        so the measured rate is bounded by the paper's ab/8."""
        for h in (3, 4):
            assert rdg_loads_per_tile(h) / 64 == pytest.approx(1 / 8)
        for h in (1, 2):
            assert rdg_loads_per_tile(h) / 64 <= 1 / 8

    def test_eq13_loads_per_tile(self):
        assert convstencil_loads_per_tile(1) == 6
        assert convstencil_loads_per_tile(3) == 26
        assert convstencil_loads_per_tile(4) == 42


class TestSweepTotals:
    def test_rdg_total(self):
        assert rdg_fragment_loads(64, 64, 3) == 64 * 64 // 8

    def test_convstencil_total(self):
        # 8 tile rows x 8 bands x 26 for a 64x64 grid at h=3
        assert convstencil_fragment_loads(64, 64, 3) == 8 * 8 * 26

    def test_lorastencil_mma_total(self):
        assert lorastencil_mma_count(64, 64, 3) == 64 * 36

    def test_convstencil_mma_total(self):
        assert convstencil_mma_count(64, 64, 3) == convstencil_fragment_loads(64, 64, 3)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            convstencil_loads_per_tile(0)
        with pytest.raises(ValueError):
            lorastencil_mma_per_tile(0)


class TestModelVsMeasurement:
    """The simulator must agree with the paper's own closed forms."""

    def test_rdg_loads_measured(self, rng):
        import repro
        from repro.stencil.weights import radially_symmetric_weights

        h = 3
        w = radially_symmetric_weights(h, 2, rng=rng)
        tile = repro.compile(w).plan.kernel
        assert tile.fragment_loads_per_tile == rdg_loads_per_tile(h)

    def test_rdg_mma_measured(self, rng):
        import repro
        from repro.stencil.weights import radially_symmetric_weights

        for h in (1, 2, 3):
            w = radially_symmetric_weights(h, 2, rng=rng)
            tile = repro.compile(w).plan.kernel
            n_terms = len(tile.decomposition.matrix_terms)
            assert tile.mma_per_tile == lorastencil_mma_per_tile(h, n_terms)

    def test_convstencil_loads_measured(self, rng):
        from repro.baselines.convstencil import ConvStencil2D
        from repro.stencil.weights import radially_symmetric_weights

        for h in (1, 2, 3):
            w = radially_symmetric_weights(h, 2, rng=rng)
            eng = ConvStencil2D(w.as_matrix())
            assert eng.fragment_loads_per_tile == convstencil_loads_per_tile(h)

    def test_full_sweep_agreement(self, rng):
        """End-to-end: a simulated ConvStencil sweep over a tile-aligned
        grid issues exactly the Eq. 13 number of fragment loads."""
        from repro.baselines.convstencil import ConvStencil2D
        from repro.stencil.weights import radially_symmetric_weights

        h = 3
        w = radially_symmetric_weights(h, 2, rng=rng)
        eng = ConvStencil2D(w.as_matrix())
        a = b = 32
        x = rng.normal(size=(a + 2 * h, b + 2 * h))
        _, cnt = eng.apply_simulated(x)
        assert cnt.shared_load_requests == convstencil_fragment_loads(a, b, h)
