"""Mutation/sensitivity tests.

Correctness tests prove the implementation right; these prove the tests
*sharp*: deliberately wrong variants of the core tricks must produce
wrong answers, so a silent regression could not hide behind loose
oracles.
"""

import numpy as np

from repro.core.lowrank import Rank1Term, decompose
from repro.core.uvbuild import build_u_matrix, build_v_matrix
from repro.stencil.reference import reference_apply
from repro.stencil.weights import radially_symmetric_weights
from repro.tcu.fragment import Fragment
from repro.tcu.layouts import FragmentKind
from repro.tcu.counters import EventCounters
from repro.tcu.warp import Warp


class TestBVSSensitivity:
    def test_wrong_register_pairing_breaks_product(self, rng):
        """Pairing R0 with the *odd* rows of V (swapped butterfly) must
        change the result — the permutation really is load-bearing."""
        warp = Warp(EventCounters())
        c = rng.normal(size=(8, 8))
        v = rng.normal(size=(8, 8))
        acc = Fragment.from_matrix(FragmentKind.ACC, c)
        even, odd = warp.split_accumulator_bvs(acc)
        correct = even.to_matrix() @ v[0::2, :] + odd.to_matrix() @ v[1::2, :]
        swapped = even.to_matrix() @ v[1::2, :] + odd.to_matrix() @ v[0::2, :]
        assert np.allclose(correct, c @ v)
        assert not np.allclose(swapped, c @ v)

    def test_unpermuted_v_with_bvs_split_is_wrong(self, rng):
        warp = Warp(EventCounters())
        c = rng.normal(size=(8, 8))
        v = rng.normal(size=(8, 8))
        acc = Fragment.from_matrix(FragmentKind.ACC, c)
        even, odd = warp.split_accumulator_bvs(acc)
        unpermuted = even.to_matrix() @ v[0:4, :] + odd.to_matrix() @ v[4:8, :]
        assert not np.allclose(unpermuted, c @ v)


class TestBandSensitivity:
    def test_wrong_band_offset_breaks_stencil(self, rng):
        """Shifting U's band by one produces a shifted (wrong) stencil."""
        h = 2
        w = radially_symmetric_weights(h, 2, rng=rng)
        term = decompose(w.as_matrix()).matrix_terms[0]
        x = rng.normal(size=(12 + 2 * h, 12 + 2 * h))
        good_u = build_u_matrix(term.u, 8, 16, offset=term.pad)
        bad_u = build_u_matrix(term.u, 8, 16, offset=term.pad + 1)
        v = build_v_matrix(term.v, 16, 8, offset=term.pad)
        window = np.zeros((16, 16))
        window[: x.shape[0], : x.shape[1]] = x
        assert not np.allclose(good_u @ window @ v, bad_u @ window @ v)

    def test_reversed_uv_roles_break_asymmetric_terms(self, rng):
        """Using v for the vertical gather and u for the horizontal is
        wrong whenever u != v."""
        term = Rank1Term(
            u=np.array([1.0, 2.0, 1.0]), v=np.array([3.0, 1.0, 3.0]), size=3, pad=0
        )
        window = rng.normal(size=(12, 16))
        good = (
            build_u_matrix(term.u, 8, 12) @ window @ build_v_matrix(term.v, 16, 8)
        )
        swapped = (
            build_u_matrix(term.v, 8, 12) @ window @ build_v_matrix(term.u, 16, 8)
        )
        assert not np.allclose(good, swapped)


class TestDecompositionSensitivity:
    def test_dropping_a_term_breaks_reconstruction(self, rng):
        w = radially_symmetric_weights(3, 2, rng=rng).as_matrix()
        d = decompose(w)
        partial = sum(t.embedded(7) for t in d.terms[:-1])
        assert not np.allclose(partial, w)

    def test_dropping_scalar_apex_breaks_stencil(self, rng):
        """The 1x1 apex carries the centre weight residue: skipping the
        CUDA-core pass loses it."""
        import repro

        w = radially_symmetric_weights(2, 2, rng=rng)
        eng = repro.compile(w)
        assert eng.plan.decomposition.scalar_terms  # precondition
        x = rng.normal(size=(14, 14))
        full = eng.apply(x)
        without_apex = full - sum(
            t.scalar_weight * x[2:-2, 2:-2] for t in eng.plan.decomposition.scalar_terms
        )
        ref = reference_apply(x, w)
        assert np.allclose(full, ref)
        assert not np.allclose(without_apex, ref)


class TestLayoutSensitivity:
    def test_a_and_b_layouts_are_mutual_transposes(self, rng):
        """Reinterpreting a B fragment's registers under the A ownership
        map yields exactly the transpose: ``A[i][j]`` lives in thread
        ``4i+j`` and ``B[i][j]`` in thread ``4j+i``.  This is why the
        hardware can use one register file for both operand roles — and
        why mixing the maps without transposing *is* a data corruption."""
        mat = rng.normal(size=(4, 8))
        frag = Fragment.from_matrix(FragmentKind.B, mat)
        fake = Fragment(FragmentKind.A, frag.registers.copy())
        assert np.array_equal(fake.to_matrix(), mat.T)
        # so consuming the registers under the wrong map without the
        # transpose reads corrupted data (here: the 4x4 corner differs)
        assert not np.allclose(fake.to_matrix()[:4, :4], mat[:4, :4])

    def test_counters_never_negative(self, rng):
        import repro

        w = radially_symmetric_weights(1, 2, rng=rng)
        eng = repro.compile(w)
        _, cnt = eng.apply_simulated(rng.normal(size=(10, 10)))
        assert all(v >= 0 for v in cnt.as_dict().values())


class TestNaNPropagation:
    def test_nan_input_surfaces_in_output(self, rng):
        """The simulator must not silently mask bad data."""
        import repro
        from repro.core.sweep import simulate

        w = radially_symmetric_weights(1, 2, rng=rng)
        plan = repro.compile(w).plan
        x = rng.normal(size=(12, 12))
        x[6, 6] = np.nan
        # the sweep itself (the runtime rejects non-finite inputs up front)
        out, _ = simulate(plan, x, "interpreter")
        assert np.isnan(out).any()
        assert not np.isnan(out).all()
