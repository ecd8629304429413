"""Tests for the shared-memory bank-conflict model."""

import numpy as np

from repro.tcu.counters import EventCounters
from repro.tcu.memory import SharedMemory, bank_conflict_cycles


class TestConflictModel:
    def test_contiguous_access_is_free(self):
        assert bank_conflict_cycles(np.arange(32)) == 0

    def test_broadcast_is_free(self):
        """All lanes reading one address broadcast without replay."""
        assert bank_conflict_cycles(np.full(32, 7)) == 0

    def test_same_bank_distinct_addresses_serialize(self):
        # lanes hit bank 0 with 4 distinct addresses -> 3 replays
        addrs = np.array([0, 32, 64, 96] + list(range(1, 29)))
        assert bank_conflict_cycles(addrs) == 3

    def test_stride_32_worst_case(self):
        """Stride equal to the bank count: all 32 lanes on one bank."""
        assert bank_conflict_cycles(np.arange(32) * 32) == 31

    def test_odd_stride_conflict_free(self):
        """Odd strides permute the banks (gcd(stride, 32) == 1)."""
        for stride in (1, 3, 5, 7, 9, 31):
            assert bank_conflict_cycles(np.arange(32) * stride) == 0

    def test_empty(self):
        assert bank_conflict_cycles(np.array([])) == 0


class TestSharedMemoryIntegration:
    def test_fragment_read_width_multiple_of_32_conflicts(self):
        """A 4x8 fragment in a 32-wide buffer puts all rows on the same
        banks: 4-way conflict -> 3 replays."""
        counters = EventCounters()
        smem = SharedMemory((16, 32), counters)
        smem.read_fragment(0, 0, (4, 8))
        assert counters.shared_bank_conflicts == 3

    def test_fragment_read_padded_width_free(self):
        """A width of 8 mod 32 maps a 4x8 tile's rows onto disjoint bank
        groups (banks = 8r + c cover 0..31 exactly once) — the padding
        trick real kernels use."""
        counters = EventCounters()
        smem = SharedMemory((16, 40), counters)
        smem.read_fragment(0, 0, (4, 8))
        assert counters.shared_bank_conflicts == 0

    def test_lorastencil_layout_is_conflict_light(self, rng):
        """The plan's default block layout keeps fragment loads nearly
        replay-free, while ConvStencil's strided stencil2row views pay
        a replay per load — extra hardware texture behind Fig. 10."""
        from repro.baselines.convstencil import ConvStencil2D
        import repro
        from repro.stencil.kernels import get_kernel

        w = get_kernel("Box-2D49P").weights
        x = rng.normal(size=(38, 38))
        _, lora = repro.compile(w).apply_simulated(x)
        _, conv = ConvStencil2D(w.as_matrix()).apply_simulated(x)
        lora_rate = lora.shared_bank_conflicts / max(1, lora.shared_load_requests)
        conv_rate = conv.shared_bank_conflicts / max(1, conv.shared_load_requests)
        assert lora_rate < 0.25
        assert conv_rate > lora_rate


def _per_bank_unique(flat_addresses) -> int:
    """The per-bank definition: distinct addresses on each bank, one
    ``np.unique`` per bank, the worst bank's count minus one."""
    flat = np.asarray(flat_addresses).reshape(-1)
    if flat.size == 0:
        return 0
    worst = 0
    banks = flat % 32
    for bank in np.unique(banks):
        worst = max(worst, np.unique(flat[banks == bank]).size)
    return max(0, int(worst) - 1)


class TestPatternPrice:
    """Loads are priced once per access pattern; the price must equal
    the per-bank definition on the actual addresses of every load."""

    SHAPES = [(8, 4), (4, 8), (8, 8), (1, 32), (3, 5)]

    def test_random_address_sets_with_broadcast(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 64))
            addrs = rng.integers(0, int(rng.integers(1, 200)), size=n)
            # duplicate a few lanes: broadcasts are free
            addrs[: n // 3] = addrs[n // 3 : 2 * (n // 3)]
            assert bank_conflict_cycles(addrs) == _per_bank_unique(addrs)

    def test_read_fragment_matches_definition(self):
        for width in range(8, 81):
            for shape in self.SHAPES:
                for row, col in ((0, 0), (1, 3), (5, width - shape[1])):
                    if not 0 <= col <= width - shape[1]:
                        continue
                    counters = EventCounters()
                    smem = SharedMemory((row + shape[0] + 1, width), counters)
                    smem.read_fragment(row, col, shape)
                    addrs = (
                        (row + np.arange(shape[0]))[:, None] * width
                        + col + np.arange(shape[1])[None, :]
                    )
                    assert counters.shared_bank_conflicts == _per_bank_unique(addrs)
                    assert counters.shared_load_requests == 1

    def test_strided_and_view_reads_match_definition(self):
        smem = SharedMemory((8, 320), EventCounters())
        smem.data[...] = np.arange(smem.data.size).reshape(smem.data.shape)
        flat = smem.data.reshape(-1)
        for shape in self.SHAPES:
            for col_stride in (1, 2, 7, 8, 16, 31, 32, 33, 40):
                for row_stride in (1, 4, 8, 13, 32, 40, 64, 80):
                    for start in (0, 3, 29, 64):
                        smem.counters = EventCounters()
                        tile = smem.read_fragment_view(
                            start, shape, row_stride, col_stride
                        )
                        addrs = (
                            start
                            + np.arange(shape[0])[:, None] * row_stride
                            + np.arange(shape[1])[None, :] * col_stride
                        )
                        np.testing.assert_array_equal(tile, flat[addrs])
                        assert smem.counters.shared_bank_conflicts == (
                            _per_bank_unique(addrs)
                        )
                smem.counters = EventCounters()
                tile = smem.read_fragment_strided(5, shape, col_stride)
                addrs = (
                    5
                    + np.arange(shape[1])[None, :] * col_stride
                    + np.arange(shape[0])[:, None]
                )
                np.testing.assert_array_equal(tile, flat[addrs])
                assert smem.counters.shared_bank_conflicts == _per_bank_unique(addrs)
