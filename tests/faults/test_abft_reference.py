"""The ABFT reference: one whole-grid evaluation per guarded plane sweep.

Verification compares every tile with the plane's fixed-order chain
evaluated once over the sweep input zero-extended to whole tiles.  That
is only sound if the evaluation equals the eager ``compute_tile`` —
the tile a per-tile replay would produce — bit for bit on every tile,
edge tiles included.  The reference also books what the replay used to
book, so a clean verified sweep's counters are the plain sweep's plus
one probed replay per tile.
"""

import numpy as np
import pytest

import repro
from repro.core.config import OptimizationConfig
from repro.core.sweep import _plane_spec, _reference_tiles, run_block_sweep
from repro.faults.abft import _replay_cost
from repro.stencil.kernels import get_kernel, list_kernels
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from tests.conftest import assert_same_bits

#: ragged interiors: edge tiles overhang the grid on every side that can
RAGGED = {1: (1000,), 2: (33, 37), 3: (9, 13, 17)}


class _CompareTiles:
    """A guard stand-in that checks each eager tile against the reference."""

    def __init__(self, reference: np.ndarray) -> None:
        self.reference = reference
        self.tiles = 0

    def check_stage(self, *args) -> None:
        pass

    def check_tile(self, out_tile, compute_tile, warp, smem, origin, tr, tc,
                   mma_mark=None):
        r, c = origin[0] + tr, origin[1] + tc
        t_r, t_c = out_tile.shape
        assert_same_bits(out_tile, self.reference[r : r + t_r, c : c + t_c])
        self.tiles += 1
        return out_tile


def _plane_sweeps(plan, padded):
    """``(kernel, lowered tile, spec, (B, R, C) grids)`` per tensor-core
    plane, as ``simulate`` sweeps them."""
    interior = tuple(s - 2 * plan.radius for s in padded.shape)
    for plane, tile in zip(plan.lowered.planes, plan.lowered.tiles):
        if plane.kernel is None:
            continue
        if plan.ndim == 3:
            zs, rs, cs = interior
            grids = padded[plane.index : plane.index + zs]
            spec = _plane_spec(plane.kernel, (rs, cs), plan.block, False)
        else:
            grids = padded.reshape(1, -1, padded.shape[-1])
            shape = interior if plan.ndim == 2 else (1, interior[0])
            spec = _plane_spec(plane.kernel, shape, plan.block, False)
        yield plane.kernel, tile, spec, grids


def _n_tiles(spec) -> int:
    rows, cols = spec.interior
    return -(-rows // spec.tile[0]) * -(-cols // spec.tile[1])


@pytest.mark.parametrize("use_bvs", [True, False], ids=["bvs", "no-bvs"])
@pytest.mark.parametrize("name", list_kernels())
def test_reference_equals_eager_tile_on_every_tile(name, use_bvs, rng):
    w = get_kernel(name).weights
    plan = repro.compile(w, config=OptimizationConfig(use_bvs=use_bvs)).plan
    padded = np.pad(rng.normal(size=RAGGED[w.ndim]), plan.radius)
    checked = 0
    for kernel, tile, spec, grids in _plane_sweeps(plan, padded):
        refs = _reference_tiles(tile.vector, spec, grids)
        for grid, ref in zip(grids, refs):
            guard = _CompareTiles(ref)
            run_block_sweep(grid, spec, kernel.compute_tile, Device(), guard=guard)
            assert guard.tiles == _n_tiles(spec)
            checked += guard.tiles
    assert checked > 0


def test_reference_equals_eager_tile_with_wide_tiles(rng):
    w = get_kernel("Box-2D49P").weights
    plan = repro.compile(w, tile_shape=(16, 16)).plan
    padded = np.pad(rng.normal(size=RAGGED[2]), plan.radius)
    ((kernel, tile, spec, grids),) = _plane_sweeps(plan, padded)
    assert spec.tile == (16, 16)
    guard = _CompareTiles(_reference_tiles(tile.vector, spec, grids)[0])
    run_block_sweep(grids[0], spec, kernel.compute_tile, Device(), guard=guard)
    assert guard.tiles == _n_tiles(spec)


@pytest.mark.parametrize(
    "name, config",
    [
        ("1D5P", None),
        ("Box-2D9P", None),
        ("Star-2D13P", OptimizationConfig(use_bvs=False)),
        ("Box-2D49P", None),
        ("Heat-3D", None),
        ("Box-2D9P", OptimizationConfig(use_tensor_cores=False)),
    ],
    ids=["1D5P", "Box-2D9P", "Star-2D13P-no-bvs", "Box-2D49P", "Heat-3D",
         "Box-2D9P-cuda-cores"],
)
def test_clean_verified_counters_book_one_replay_per_tile(name, config, rng):
    w = get_kernel(name).weights
    st = repro.compile(w, config=config)
    padded = np.pad(rng.normal(size=RAGGED[w.ndim]), st.radius)
    plain, plain_events = st.apply_simulated(padded, backend="interpreter")
    out, events = st.apply_simulated(padded, backend="interpreter", verify="abft")
    assert_same_bits(out, plain)
    assert st.last_fault_report.total_detected == 0
    expected = EventCounters() + plain_events
    for kernel, _, spec, grids in _plane_sweeps(st.plan, padded):
        cost = _replay_cost(kernel, spec.smem_shape())
        assert cost.shared_load_requests > 0 and cost.mma_ops == 0
        expected += cost.scaled(_n_tiles(spec) * len(grids))
    assert events == expected
