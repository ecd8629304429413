"""Property-based tests for the TCU fragment layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.tcu.counters import EventCounters
from repro.tcu.fragment import Fragment
from repro.tcu.layouts import FP64_FRAGMENT_SHAPES, FragmentKind
from repro.tcu.warp import Warp
from tests.conftest import assert_same_bits

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def matrix(kind: FragmentKind):
    return arrays(np.float64, FP64_FRAGMENT_SHAPES[kind], elements=finite)


class TestFragmentProperties:
    @given(st.sampled_from(list(FragmentKind)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, kind, data):
        mat = data.draw(matrix(kind))
        assert np.array_equal(Fragment.from_matrix(kind, mat).to_matrix(), mat)

    @given(matrix(FragmentKind.A), matrix(FragmentKind.B), matrix(FragmentKind.ACC))
    @settings(max_examples=60, deadline=None)
    def test_mma_exactness(self, a, b, c):
        """The simulated MMA is bit-identical to the fixed-order product
        ``((((+0 + a0*b0) + a1*b1) + a2*b2) + a3*b3) + c``, evaluated here
        one Python float at a time, and matches the dense product up to
        rounding (whose order a BLAS ``@`` leaves to the host)."""
        warp = Warp(EventCounters())
        d = warp.mma_sync(
            Fragment.from_matrix(FragmentKind.A, a),
            Fragment.from_matrix(FragmentKind.B, b),
            Fragment.from_matrix(FragmentKind.ACC, c),
        ).to_matrix()
        expected = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                acc = 0.0
                for k in range(4):
                    acc = acc + float(a[i, k]) * float(b[k, j])
                expected[i, j] = acc + float(c[i, j])
        assert_same_bits(d, expected)
        np.testing.assert_allclose(d, a @ b + c, rtol=1e-12, atol=1e-2)

    @given(matrix(FragmentKind.ACC))
    @settings(max_examples=60, deadline=None)
    def test_bvs_split_exact_and_free(self, c):
        counters = EventCounters()
        warp = Warp(counters)
        acc = Fragment.from_matrix(FragmentKind.ACC, c)
        even, odd = warp.split_accumulator_bvs(acc)
        assert np.array_equal(even.to_matrix(), c[:, 0::2])
        assert np.array_equal(odd.to_matrix(), c[:, 1::2])
        assert counters.shuffle_ops == 0

    @given(matrix(FragmentKind.ACC), matrix(FragmentKind.ACC))
    @settings(max_examples=40, deadline=None)
    def test_split_strategies_agree(self, c, v):
        """Eq. 17 over random matrices: both splits give the same T@V."""
        warp = Warp(EventCounters())
        acc = Fragment.from_matrix(FragmentKind.ACC, c)
        even, odd = warp.split_accumulator_bvs(acc)
        left, right = warp.split_accumulator_naive(acc)
        bvs = even.to_matrix() @ v[0::2, :] + odd.to_matrix() @ v[1::2, :]
        naive = left.to_matrix() @ v[0:4, :] + right.to_matrix() @ v[4:8, :]
        # the two splits sum the same 8 products in different orders, so
        # they agree to rounding of the *summands*' magnitude (which can
        # dwarf the result when terms cancel)
        scale = 8.0 * max(1.0, np.abs(c).max() * np.abs(v).max())
        assert np.abs(bvs - naive).max() <= 1e-12 * scale
