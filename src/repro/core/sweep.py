"""The simulated sweep of a compiled plan.

:func:`simulate` is the one function that executes a plan's lowered
program on the TCU simulator.  It builds each plane's
:class:`SweepSpec`, picks the tile source — the interpreter stepping the
scheduled :class:`~repro.tcu.program.TileProgram`, or the eager oracle
tile math — dispatches to the vectorized backend
(:func:`repro.core.vectorize.run_vector_sweep`), and arms the ABFT
guard.  :func:`run_block_sweep` is the block-by-block driver under it:

* 2D planes sweep their interior/tile/block shapes directly;
* 1D planes run as a ``1 x n`` sweep whose tile is the 64 outputs of the
  8x8 accumulator as a flat ``(1, 64)`` row;
* 3D plans sweep every tensor-core plane slab by slab (all slabs in one
  batched call under the vectorized backend) and run the point-wise
  planes as CUDA-core axpys — Algorithm 2's dual-unit split.

:func:`simulate_streaming` is the z-streaming 3D sweep that keeps a
rolling window of input slabs resident in shared memory; its measured
DRAM traffic is the evidence behind the cost model's 3D correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.rdg import BandedTile1D
from repro.core.vectorize import run_vector_sweep
from repro.errors import BackendError, PerfError, ShapeError
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.tcu.program import execute_program, execute_program_1d
from repro.telemetry.health import current_beat
from repro.telemetry.spans import TRACER

__all__ = [
    "DEFAULT_BLOCKS",
    "SweepSpec",
    "run_block_sweep",
    "simulate",
    "simulate_streaming",
    "validate_padded",
]

#: Paper Table II thread-block shapes (outputs per block) by ndim.
DEFAULT_BLOCKS = {1: (1024,), 2: (32, 64), 3: (8, 64)}

#: A tile provider: ``(warp, smem, row, col) -> out_tile`` where ``(row,
#: col)`` is the tile's block-local input-window origin and the returned
#: array has the spec's tile shape.
TileProvider = Callable[..., np.ndarray]


def _round_up(x: int, to: int) -> int:
    return ((x + to - 1) // to) * to


@dataclass(frozen=True)
class SweepSpec:
    """Geometry and labels of one block sweep (a 2D view of the grid).

    ``interior``/``tile``/``block`` are ``(rows, cols)`` shapes of the
    output, one warp tile, and the *requested* thread block (rounded up
    to tile multiples by the driver, clamped to the rounded interior).
    ``smem_halo`` is the extra shared rows/cols a block stages beyond
    its output shape (the input-window overhang).  ``ndim`` and
    ``shape_label`` only annotate the telemetry span — a 1D sweep runs
    as a ``1 x n`` spec but still reports ``ndim=1``.
    """

    interior: tuple[int, int]
    tile: tuple[int, int]
    block: tuple[int, int]
    smem_halo: tuple[int, int]
    use_async_copy: bool
    ndim: int
    shape_label: str

    def blocked(self) -> tuple[int, int]:
        """The effective block shape after tile rounding and clamping."""
        rows, cols = self.interior
        t_r, t_c = self.tile
        block_r = min(
            _round_up(rows, t_r), _round_up(max(self.block[0], t_r), t_r)
        )
        block_c = min(
            _round_up(cols, t_c), _round_up(max(self.block[1], t_c), t_c)
        )
        return block_r, block_c

    def smem_shape(self) -> tuple[int, int]:
        """Shared staging tile: the effective block plus its halo."""
        block_r, block_c = self.blocked()
        return block_r + self.smem_halo[0], block_c + self.smem_halo[1]


def validate_padded(
    padded: np.ndarray, ndim: int, radius: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Check the pad convention; returns ``(float64 array, interior)``.

    Raises :class:`~repro.errors.ShapeError` when the dimensionality is
    wrong or the array is too small to contain one interior point after
    removing the ``radius`` halo.
    """
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != ndim:
        raise ShapeError(f"expected {ndim}D input, got {padded.ndim}D")
    interior = tuple(s - 2 * radius for s in padded.shape)
    if min(interior) <= 0:
        raise ShapeError(
            f"padded input {padded.shape} too small for radius {radius}"
        )
    return padded, interior


def run_block_sweep(
    padded2d: np.ndarray,
    spec: SweepSpec,
    compute_tile: TileProvider,
    device: Device | None = None,
    profiler=None,
    guard=None,
) -> tuple[np.ndarray, EventCounters]:
    """Sweep one grid block by block; returns ``(interior, counters)``.

    ``padded2d`` is the padded input viewed as 2D (1D plans reshape to
    ``(1, n)``); ``compute_tile(warp, smem, row, col)`` computes one
    warp tile from the block's shared staging tile.  The driver owns
    everything else: global arrays, block rounding, the shared fill
    (clamped at the grid edge; shared memory is zero-initialized so
    out-of-range reads contribute through zero weights only), the tile
    loop with edge trimming, and the ``tcu.sweep`` telemetry span whose
    events are the sweep's own.

    ``profiler`` (a :class:`repro.telemetry.perf.InstrProfiler`) only
    receives the sweep's geometry and event total here
    (``note_sweep``); per-instruction attribution happens inside the
    tile provider, which closes over the same profiler.

    Fault tolerance rides on two optional hooks: a fault injector
    attached to the device (``Device(injector=...)``) is offered every
    staging copy (``on_stage``; warp-level MMA injection happens inside
    the tile provider's ``mma_sync`` calls), and ``guard`` (a
    :class:`repro.faults.abft.SweepGuard`) scrubs each staged block
    against its DRAM source and ABFT-verifies each computed tile,
    recovering per its policy.  Both default to ``None`` and cost one
    ``is not None`` check each on the unguarded path.

    The vectorized backend has its own driver with the same contract,
    :func:`repro.core.vectorize.run_vector_sweep`.
    """
    beat = current_beat()
    n_tiles = (
        -(-spec.interior[0] // spec.tile[0])
        * -(-spec.interior[1] // spec.tile[1])
    )
    device = device or Device()
    injector = getattr(device, "injector", None)
    start = device.snapshot()
    warp = device.warp()
    rows, cols = spec.interior
    t_r, t_c = spec.tile
    block_r, block_c = spec.blocked()
    smem_shape = spec.smem_shape()

    gmem_in = device.global_array(padded2d, name="input")
    gmem_out = device.global_array(
        np.zeros((rows, cols), dtype=np.float64), name="output"
    )

    if beat is not None:
        beat(0, n_tiles)
    with TRACER.span(
        "tcu.sweep", category="tcu", ndim=spec.ndim, shape=spec.shape_label
    ) as span:
        for br in range(0, rows, block_r):
            for bc in range(0, cols, block_c):
                smem = device.shared(smem_shape, name="block")
                avail_r = min(smem_shape[0], padded2d.shape[0] - br)
                avail_c = min(smem_shape[1], padded2d.shape[1] - bc)
                if avail_r > 0 and avail_c > 0:
                    stage_site = (
                        injector.stage_site() if injector is not None else None
                    )

                    def _stage(
                        smem=smem,
                        br=br,
                        bc=bc,
                        ar=avail_r,
                        ac=avail_c,
                        site=stage_site,
                    ):
                        gmem_in.copy_to_shared(
                            (slice(br, br + ar), slice(bc, bc + ac)),
                            smem,
                            0,
                            0,
                            use_async=spec.use_async_copy,
                        )
                        if injector is not None:
                            injector.on_stage(smem, ar, ac, site=site)

                    _stage()
                    if guard is not None:
                        guard.check_stage(
                            smem, padded2d, br, bc, avail_r, avail_c, _stage
                        )
                r_lim = min(block_r, rows - br)
                c_lim = min(block_c, cols - bc)
                for tr in range(0, r_lim, t_r):
                    for tc in range(0, c_lim, t_c):
                        mark = (
                            injector.mma_mark()
                            if injector is not None
                            else None
                        )
                        out_tile = compute_tile(warp, smem, tr, tc)
                        if guard is not None:
                            out_tile = guard.check_tile(
                                out_tile,
                                compute_tile,
                                warp,
                                smem,
                                (br, bc),
                                tr,
                                tc,
                                mma_mark=mark,
                            )
                        vr = min(t_r, rows - (br + tr))
                        vc = min(t_c, cols - (bc + tc))
                        gmem_out.write(
                            (
                                slice(br + tr, br + tr + vr),
                                slice(bc + tc, bc + tc + vc),
                            ),
                            out_tile[:vr, :vc],
                        )
                if beat is not None:
                    # one heartbeat per block: the monitored cadence
                    beat(-(-r_lim // t_r) * -(-c_lim // t_c))
        events = device.events_since(start)
        span.add_events(events)
    if profiler is not None:
        profiler.note_sweep(spec, events)
    return gmem_out.data, events


# ---------------------------------------------------------------------------
# plan execution
# ---------------------------------------------------------------------------
def _plane_spec(
    kernel, interior: tuple[int, int], block: tuple[int, ...], use_async: bool
) -> SweepSpec:
    """The block-sweep geometry of one plane kernel over ``(rows, cols)``."""
    rows, cols = interior
    if isinstance(kernel, BandedTile1D):
        # the last tile of a block reads up to block - 64 + 8*7 + k_rows
        return SweepSpec(
            interior=(1, cols),
            tile=(1, kernel.out_cols),
            block=(1, block[-1]),
            smem_halo=(0, kernel.k_rows - 8 + kernel.out_cols - 8),
            use_async_copy=use_async,
            ndim=1,
            shape_label=str(cols),
        )
    return SweepSpec(
        interior=(rows, cols),
        tile=(kernel.out_rows, kernel.out_cols),
        block=block,
        smem_halo=(kernel.k_rows - kernel.out_rows, kernel.w_cols - kernel.out_cols),
        use_async_copy=use_async,
        ndim=2,
        shape_label=f"{rows}x{cols}",
    )


def _tile_source(kernel, tile=None, profiler=None) -> TileProvider:
    """The provider computing one warp tile of a plane.

    Interprets the scheduled program of ``tile`` (a
    :class:`~repro.core.lowering.LoweredTile`); with ``tile=None`` (the
    oracle backend, or a CUDA-core config that lowers to no program) it
    is the kernel's eager ``compute_tile``.  ``profiler`` opts the
    interpreter into per-instruction attribution, which the eager path
    has no instructions for.
    """
    if tile is None:
        if profiler is not None:
            raise PerfError(
                "per-instruction profiling requires the lowered "
                "tensor-core program (no oracle/CUDA-core path)"
            )
        return kernel.compute_tile
    program = tile.program
    if isinstance(kernel, BandedTile1D):
        # out[base + 8q + p] = acc[p, q]
        return lambda warp, smem, row, col: execute_program_1d(
            program, warp, smem, col, profiler
        ).T.reshape(1, -1)
    return lambda warp, smem, row, col: execute_program(
        program, warp, smem, row, col, profiler
    )


def _reference_tiles(vector, spec: SweepSpec, grids: np.ndarray) -> np.ndarray:
    """Every tile's exact output for a ``(B, R, C)`` stack of padded grids.

    A tile reads its staged block, which the guard scrubbed against DRAM
    and which is zero past the grid, so its output is the plane's
    fixed-order chain evaluated on the grid zero-extended to whole
    tiles: one whole-grid :meth:`VectorProgram.evaluate` per plane (a 1D
    grid is the stack ``(1, 1, n)``), byte-identical to replaying the
    eager tile.  Returns ``(B, rows, cols)`` rounded up to whole tiles.
    """
    b, r_in, c_in = grids.shape
    rows, cols = spec.interior
    rows_t, cols_t = _round_up(rows, spec.tile[0]), _round_up(cols, spec.tile[1])
    ext = np.zeros((b, r_in - rows + rows_t, c_in - cols + cols_t))
    ext[:, :r_in, :c_in] = grids
    return vector.evaluate(ext, lambda *_: None).reshape(b, rows_t, cols_t)


def simulate(
    plan,
    padded: np.ndarray,
    backend: str,
    device: Device | None = None,
    profiler=None,
    verify=None,
    policy=None,
    report=None,
    block: tuple[int, ...] | None = None,
) -> tuple[np.ndarray, EventCounters]:
    """One simulated sweep of ``plan``; returns ``(interior, counters)``.

    ``backend`` is an already resolved backend name
    (:func:`repro.runtime.backends.resolve_backend`): ``"interpreter"``
    steps the scheduled programs, ``"oracle"`` runs the eager tile math,
    ``"vectorized"`` evaluates every tile of a plane at once.  A
    CUDA-core config has no program, so every backend runs it eagerly.
    ``verify="abft"`` checksum-verifies each staging copy against DRAM
    and each tile against an exact reference — one whole-grid
    evaluation per plane, or a per-tile eager replay for a CUDA-core
    config — recovering under ``policy`` and counting into ``report``
    (see :mod:`repro.faults`).  ``block`` overrides the plan's
    thread-block shape.  The counters are the events of this sweep only.
    """
    from repro.runtime.backends import get_backend

    padded, interior = validate_padded(padded, plan.ndim, plan.radius)
    if verify and not get_backend(backend).supports_faults:
        raise BackendError(
            f"the {backend} backend does not support ABFT verification "
            "or fault recovery; use backend='interpreter'"
        )
    block = tuple(block or plan.block)
    use_async = plan.config.use_async_copy
    device = device or Device()
    planes, tiles = plan.lowered.planes, plan.lowered.tiles
    vectorized = backend == "vectorized"

    def source_and_guards(plane, tile, spec, grids):
        """The plane's tile source and one guard per padded grid of the
        ``(B, R, C)`` stack ``grids`` (``None`` each when unverified)."""
        source = _tile_source(
            plane.kernel, None if backend == "oracle" else tile, profiler
        )
        if not verify:
            return source, [None] * len(grids)
        from repro.faults.abft import make_guard

        refs = (
            [None] * len(grids)
            if tile is None
            else _reference_tiles(tile.vector, spec, grids)
        )
        return source, [
            make_guard(plane.kernel, verify, ref, policy=policy, report=report)
            for ref in refs
        ]

    if plan.ndim < 3:
        (plane,), (tile,) = planes, tiles
        rows, cols = interior if plan.ndim == 2 else (1, interior[0])
        spec = _plane_spec(plane.kernel, (rows, cols), block, use_async)
        grid = padded.reshape(-1, padded.shape[-1])
        if vectorized and tile is not None:
            out, events = run_vector_sweep(grid, spec, tile.vector, device, profiler)
        else:
            source, (guard,) = source_and_guards(plane, tile, spec, grid[None])
            out, events = run_block_sweep(grid, spec, source, device, profiler, guard)
        return out.reshape(interior), events

    zs, rs, cs = interior
    start = device.snapshot()
    warp = device.warp()
    out = np.zeros(interior, dtype=np.float64)
    with TRACER.span(
        "tcu.sweep", category="tcu", ndim=3, shape=f"{zs}x{rs}x{cs}"
    ) as span:
        for plane, tile in zip(planes, tiles):
            z0 = plane.index
            if plane.pointwise is not None:
                pi, pj, wt = plane.pointwise
                gmem = device.global_array(padded, name=f"plane{z0}")
                slab = gmem.read(
                    (slice(z0, z0 + zs), slice(pi, pi + rs), slice(pj, pj + cs))
                )
                warp.cuda_core_axpy(out, wt, slab)
            elif plane.kernel is not None:
                spec = _plane_spec(plane.kernel, (rs, cs), block, use_async)
                if vectorized and tile is not None:
                    # every z-slab of the plane in one batched sweep
                    slabs, _ = run_vector_sweep(
                        padded[z0 : z0 + zs], spec, tile.vector, device, profiler
                    )
                    warp.cuda_core_axpy(out, 1.0, slabs)
                    continue
                slabs = padded[z0 : z0 + zs]
                source, guards = source_and_guards(plane, tile, spec, slabs)
                for z, guard in enumerate(guards):
                    slab, _ = run_block_sweep(
                        slabs[z], spec, source, device, profiler, guard
                    )
                    warp.cuda_core_axpy(out[z], 1.0, slab)
        gmem_out = device.global_array(np.zeros_like(out), name="output")
        gmem_out.write((slice(None), slice(None), slice(None)), out)
        events = device.events_since(start)
        span.add_events(events)
    return out, events


def simulate_streaming(
    plan, padded: np.ndarray, device: Device | None = None
) -> tuple[np.ndarray, EventCounters]:
    """The z-streaming 3D sweep: each input slab is staged once.

    The production sweep keeps a rolling window of ``2h+1`` input slabs
    resident in shared memory: advancing one output plane copies exactly
    *one* new slab from DRAM, which every kernel plane then reuses.
    Relative to :func:`simulate` (which re-copies a slab once per kernel
    plane) this divides the DRAM read traffic by roughly the number of
    planes touching each slab — the correction the performance
    footprints apply, here measured rather than assumed.  Tiles run the
    scheduled programs (the eager path under a CUDA-core config).
    """
    padded, (zs, rs, cs) = validate_padded(padded, 3, plan.radius)
    h = plan.radius
    device = device or Device()
    start = device.snapshot()
    warp = device.warp()
    gmem_in = device.global_array(padded, name="input")
    out = np.zeros((zs, rs, cs), dtype=np.float64)

    # shared-slab geometry covering every tensor-core plane's tile
    # windows (including the last, possibly grid-overhanging, tile)
    sources = {
        plane.index: _tile_source(plane.kernel, tile)
        for plane, tile in zip(plan.lowered.planes, plan.lowered.tiles)
        if plane.kernel is not None
    }
    slab_rows, slab_cols = rs + 2 * h, cs + 2 * h
    for plane in plan.lowered.planes:
        k = plane.kernel
        if k is not None:
            slab_rows = max(slab_rows, _round_up(rs, k.out_rows) - k.out_rows + k.k_rows)
            slab_cols = max(slab_cols, _round_up(cs, k.out_cols) - k.out_cols + k.w_cols)
    slab_shape = (slab_rows, slab_cols)
    resident: dict = {}

    def slab(z_idx: int):
        """Fetch (once) the shared copy of input slab ``z_idx``."""
        if z_idx not in resident:
            smem = device.shared(slab_shape, name=f"slab{z_idx}")
            avail_r = min(slab_shape[0], padded.shape[1])
            avail_c = min(slab_shape[1], padded.shape[2])
            gmem_in.copy_to_shared(
                (z_idx, slice(0, avail_r), slice(0, avail_c)),
                smem,
                0,
                0,
                use_async=plan.config.use_async_copy,
            )
            resident[z_idx] = smem
        return resident[z_idx]

    for z in range(zs):
        # slide the window: drop the slab that fell out of range
        resident.pop(z - 1, None)
        for plane in plan.lowered.planes:
            smem = slab(z + plane.index)
            if plane.pointwise is not None:
                pi, pj, wt = plane.pointwise
                centre = smem.read_scalar_tile(pi, pj, (rs, cs))
                warp.cuda_core_axpy(out[z], wt, centre)
            elif plane.kernel is not None:
                source = sources[plane.index]
                t_r, t_c = plane.kernel.out_rows, plane.kernel.out_cols
                for tr in range(0, rs, t_r):
                    for tc in range(0, cs, t_c):
                        result = source(warp, smem, tr, tc)
                        vr, vc = min(t_r, rs - tr), min(t_c, cs - tc)
                        out[z, tr : tr + vr, tc : tc + vc] += result[:vr, :vc]
    gmem_out = device.global_array(np.zeros_like(out), name="output")
    gmem_out.write((slice(None), slice(None), slice(None)), out)
    return out, device.events_since(start)
