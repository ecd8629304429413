"""Property-based tests: every compiled plan (and ConvStencil) equals
the reference stencil on random kernels, grids and shapes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.sweep import simulate
from repro.baselines.convstencil import ConvStencil2D
from repro.stencil.reference import reference_apply
from repro.stencil.weights import (
    box_weights,
    radially_symmetric_weights,
    star_weights,
)


@st.composite
def weights_2d(draw):
    h = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["radial", "box", "star"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if kind == "radial":
        return radially_symmetric_weights(h, 2, rng=rng)
    if kind == "box":
        return box_weights(h, 2, rng=rng)
    return star_weights(h, 2, rng=rng)


@st.composite
def grid_2d(draw):
    rows = draw(st.integers(min_value=1, max_value=24))
    cols = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return rows, cols, np.random.default_rng(seed)


class TestFunctionalEquivalence:
    @given(weights_2d(), grid_2d())
    @settings(max_examples=30, deadline=None)
    def test_lorastencil2d_functional(self, w, grid):
        rows, cols, rng = grid
        x = rng.normal(size=(rows + 2 * w.radius, cols + 2 * w.radius))
        eng = repro.compile(w)
        ref = reference_apply(x, w)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(eng.apply(x) - ref).max() < 1e-10 * scale


class TestSimulatedEquivalence:
    @given(weights_2d(), grid_2d())
    @settings(max_examples=12, deadline=None)
    def test_lorastencil2d_simulated(self, w, grid):
        rows, cols, rng = grid
        x = rng.normal(size=(rows + 2 * w.radius, cols + 2 * w.radius))
        eng = repro.compile(w)
        out, _ = eng.apply_simulated(x)
        ref = reference_apply(x, w)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(out - ref).max() < 1e-10 * scale

    @given(weights_2d(), grid_2d())
    @settings(max_examples=10, deadline=None)
    def test_convstencil2d_simulated(self, w, grid):
        rows, cols, rng = grid
        x = rng.normal(size=(rows + 2 * w.radius, cols + 2 * w.radius))
        eng = ConvStencil2D(w.as_matrix())
        out, _ = eng.apply_simulated(x)
        ref = reference_apply(x, w)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(out - ref).max() < 1e-10 * scale

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_lorastencil1d_simulated(self, h, n, seed):
        rng = np.random.default_rng(seed)
        w = star_weights(h, 1, rng=rng)
        x = rng.normal(size=n + 2 * h)
        plan = repro.compile(w).plan
        out, _ = simulate(plan, x, "interpreter", block=(64,))
        ref = reference_apply(x, w)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(out - ref).max() < 1e-10 * scale


class Test3DEquivalence:
    @given(
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=4, max_value=14),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_lorastencil3d_simulated(self, h, zs, side, seed):
        from repro.stencil.weights import radially_symmetric_weights

        rng = np.random.default_rng(seed)
        w = radially_symmetric_weights(h, 3, rng=rng)
        x = rng.normal(size=(zs + 2 * h, side + 2 * h, side + 2 * h))
        eng = repro.compile(w)
        out, _ = eng.apply_simulated(x)
        ref = reference_apply(x, w)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(out - ref).max() < 1e-10 * scale


class TestCounterInvariants:
    @given(weights_2d(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_bvs_never_shuffles(self, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(16 + 2 * w.radius, 16 + 2 * w.radius))
        eng = repro.compile(w)
        _, cnt = eng.apply_simulated(x)
        assert cnt.shuffle_ops == 0

    @given(weights_2d(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_convstencil_mma_equals_loads(self, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(16 + 2 * w.radius, 16 + 2 * w.radius))
        eng = ConvStencil2D(w.as_matrix())
        _, cnt = eng.apply_simulated(x)
        assert cnt.mma_ops == cnt.shared_load_requests
