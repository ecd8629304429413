"""The vectorized execution backend: the MMA chain over the whole grid.

The per-thread interpreter (:func:`repro.tcu.program.execute_program`)
steps one warp tile at a time.  This module evaluates the *same*
per-element arithmetic for every tile of a sweep at once, as
whole-grid NumPy operations: the whole-grid form of the paper's
Section III chain ``sum_k U_k X V_k``.

Every MMA runs in the fixed order of :func:`repro.tcu.mma.mma_m8n8k4`
(``+0.0`` seed, k-products in order, then the accumulator), so each
output element is a fixed chain of band taps that depends only on its
position modulo the fragment shape (tiles start on multiples of 8):

* **Step 1** (``mma``, ``T = U X``): row ``i`` reads rows ``i + pad +
  t``; tap ``t`` sits in k-block ``(i + pad + t) // 4``, so rows with
  equal ``i mod 4`` share a chain.  Each k-block is summed, then added
  to the running accumulator.
* **Step 2** (``split`` + ``mma2``, ``out += T V``): column ``j`` reads
  ``T`` columns ``c = j + pad + m`` in the chunks the split hands the
  MMAs, ``(c // 8, c % 2)`` under BVS and ``c // 4`` without, so columns
  with equal ``j mod 8`` share a chain.  The output accumulator runs
  across rank-1 terms in term-major order, as the ``mma2`` chain does.
* **Apex**: ``out += w * centre``.  **1D**: Step 1 along the flat axis.

Destinations start at ``+0.0`` (the chain's seed) and every chunk sum is
added to them.  Zero weights and the structural zeros of the banded
``U``/``V`` blocks are skipped, which the seed makes exact, sign of
zero included, while no product overflows (:mod:`repro.tcu.mma`).  So
grids are byte-identical to the interpreter's on every host; no
``matmul`` is involved.  Operands are stored residue-major (rows by
``i mod 4``; ``split`` regroups ``T`` by ``c mod 8`` and transposes it)
so every operation reads contiguous blocks.  A leading batch axis
carries the z-slabs of a 3D tensor-core plane through one call.

EventCounters are *derived*: the per-tile program cost is probed by
interpreting the program once on a scratch shared tile (deltas are
value-independent and shift-invariant across tile origins) and scaled
by the tile count; staging and DRAM traffic is priced block for block
with the driver's arithmetic.  Fault injection and ABFT need the
per-tile execution this path skips, so :func:`run_vector_sweep` refuses
a device with an injector (``simulate`` rejects ``verify=`` up front).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.core.rdg import RDGTileCompute
from repro.errors import BackendError
from repro.tcu.counters import EventCounters
from repro.tcu.memory import SharedMemory
from repro.tcu.program import (
    TileProgram,
    execute_program,
    execute_program_1d,
)
from repro.tcu.warp import Warp
from repro.telemetry.health import current_beat
from repro.telemetry.spans import TRACER

__all__ = ["VectorProgram", "build_vector_program", "run_vector_sweep"]

_FP64_BYTES = 8
_STORE_LANES = 32

#: per-thread work buffer of :func:`_scratch`, and the most it keeps
_ARENA = threading.local()
_ARENA_BYTES = 16 << 20

#: per residue: the MMA chunks of the chain, each a tuple of
#: ``(input offset, weight)`` taps in k order
Chains = tuple[tuple[tuple[tuple[int, float], ...], ...], ...]


def _round_up(x: int, to: int) -> int:
    return -(-x // to) * to


def _chains(weights, pad: int, residues: int, chunk_of) -> Chains:
    """Group the nonzero band taps of one weight vector into MMA chunks.

    Output positions ``s mod residues`` read input ``s + pad + t`` for
    tap ``t``; ``chunk_of(s + pad + t)`` names the MMA chunk that holds
    the product, and chunks run in ascending key order.
    """
    taps = [(t, w) for t, w in enumerate(map(float, weights)) if w != 0.0]
    table = []
    for s in range(residues):
        chunks: dict = {}
        for t, w in taps:
            chunks.setdefault(chunk_of(s + pad + t), []).append((pad + t, w))
        table.append(tuple(tuple(chunks[k]) for k in sorted(chunks)))
    return tuple(table)


def _scratch(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Uninitialized float64 work arrays carved from this thread's arena.

    Fresh pages are first-touch faulted on every allocation, which
    costs more than the arithmetic here, so the arrays of one sweep are
    views of a per-thread buffer that later sweeps reuse.  Buffers over
    :data:`_ARENA_BYTES` are not kept.  Nothing carved from the arena
    may be returned to a caller.
    """
    sizes = [math.prod(shape) for shape in shapes]
    buf = getattr(_ARENA, "buf", None)
    if buf is None or buf.size < sum(sizes):
        buf = np.empty(sum(sizes))
        if buf.nbytes <= _ARENA_BYTES:
            _ARENA.buf = buf
    views, at = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(buf[at : at + size].reshape(shape))
        at += size
    return views


def _accumulate(
    dst: np.ndarray, src: np.ndarray, chains: Chains, blk, tmp
) -> None:
    """``dst[s] += chunk sum`` for every chunk of every residue ``s``.

    ``dst`` and ``src`` are residue-major: ``x[k % S, k // S]`` holds
    position ``k`` (``S`` residues).  Output ``S*a + s`` reads input
    ``S*a + s + off``, so every source operand is a contiguous block.
    ``blk`` and ``tmp`` are work arrays of the shape of ``dst[s]``.
    """
    n_res, n = dst.shape[0], dst.shape[1]
    for s, chunks in enumerate(chains):
        acc = dst[s]
        for chunk in chunks:
            for i, (off, w) in enumerate(chunk):
                k = s + off
                x = src[k % n_res, k // n_res : k // n_res + n]
                if i == 0:
                    np.multiply(x, w, out=blk)
                else:
                    np.multiply(x, w, out=tmp)
                    blk += tmp
            acc += blk


@dataclass
class VectorProgram:
    """A scheduled tile program compiled to whole-grid tap chains.

    Built once per plan by :func:`build_vector_program` (the lowering
    pipeline's ``vectorize`` pass).  ``step1``/``step2`` hold one
    :data:`Chains` table per rank-1 term (1D programs: ``step1`` only),
    plus lazy caches of the program's exact per-tile event cost (per
    ``smem_shape``) and of whole-sweep events (per geometry).
    """

    program: TileProgram
    kind: str  # "2d" | "1d"
    radius: int
    step1: tuple[Chains, ...] = field(repr=False)
    step2: tuple[Chains, ...] = field(default=(), repr=False)
    #: scalar apex weights, in apex-instruction order
    scalar_weights: tuple[float, ...] = ()
    _probe_cache: dict = field(default_factory=dict, repr=False)
    #: (spec, padded shape) -> one sweep's EventCounters
    _sweep_cache: dict = field(default_factory=dict, repr=False)

    # -- per-tile event cost ------------------------------------------------
    def probe(
        self, smem_shape: tuple[int, int]
    ) -> tuple[tuple[EventCounters, ...], EventCounters]:
        """Interpret the program once on a scratch shared tile.

        Returns ``(per-instruction deltas in schedule order, per-tile
        total)``.  Counter deltas are value-independent and invariant
        under the tile-origin address shift, so one probe per shared
        shape prices every tile of every block exactly.
        """
        cached = self._probe_cache.get(smem_shape)
        if cached is None:
            counters = EventCounters()
            warp = Warp(counters)
            smem = SharedMemory(smem_shape, counters, name="probe")
            deltas: list[EventCounters] = []
            recorder = SimpleNamespace(record=lambda ins, ns, d: deltas.append(d))
            if self.kind == "1d":
                execute_program_1d(self.program, warp, smem, 0, recorder)
            else:
                execute_program(self.program, warp, smem, 0, 0, recorder)
            cached = (tuple(deltas), counters.snapshot())
            self._probe_cache[smem_shape] = cached
        return cached

    # -- whole-grid evaluation ----------------------------------------------
    def evaluate(self, stack: np.ndarray, lap) -> np.ndarray:
        """The interiors of a ``(B, R, C)`` stack of padded 2D grids, or
        of one padded 1D grid stacked as ``(1, 1, n)``."""
        if self.kind == "1d":
            return self._evaluate_1d(stack[0, 0], lap)
        return self._evaluate_2d(stack, lap)

    def _evaluate_1d(self, padded: np.ndarray, lap) -> np.ndarray:
        n = padded.shape[0] - 2 * self.radius
        n4 = -(-n // 4)
        # the zero-extended grid, residue-major: x[r, a] is point 4a + r
        x, acc, blk, tmp = _scratch(
            (4, n4 + _round_up(2 * self.radius + 3, 4) // 4), (4, n4),
            (n4,), (n4,),
        )
        x.fill(0.0)
        for r in range(4):
            band = padded[r::4]
            x[r, : band.shape[0]] = band
        lap("load_x")
        acc.fill(0.0)
        _accumulate(acc, x, self.step1[0], blk, tmp)
        out = np.empty(4 * n4)
        out.reshape(n4, 4)[...] = acc.T
        lap("mma")
        return out[:n]

    def _evaluate_2d(self, padded: np.ndarray, lap) -> np.ndarray:
        h = self.radius
        b, r_in, c_in = padded.shape
        rows, cols = r_in - 2 * h, c_in - 2 * h
        n4, n8 = -(-rows // 4), -(-cols // 8)
        g = 8 * n8 + _round_up(2 * h + 7, 8)
        x, t, tt, out_t, blk1, tmp1, blk2, tmp2, centre = _scratch(
            (4, n4 + _round_up(2 * h + 3, 4) // 4, b, g),
            (b, 4 * n4, g),
            (8, g // 8, b, 4 * n4),
            (n8, 8, b, 4 * n4),
            (n4, b, g), (n4, b, g),
            (n8, b, 4 * n4), (n8, b, 4 * n4),
            (b, rows, cols),
        )
        # the zero-extended grid, rows residue-major: x[r, a] is row 4a + r
        x.fill(0.0)
        for r in range(4):
            band = padded[:, r::4].transpose(1, 0, 2)
            x[r, : band.shape[0], :, :c_in] = band
        lap("load_x")
        t_rows = t.reshape(b, n4, 4, g).transpose(2, 1, 0, 3)
        # tt[q, d, :, i] is T column 8d + q of row i: columns residue-major
        t_cols = t.reshape(b, 4 * n4, g // 8, 8).transpose(3, 2, 0, 1)
        out_t.fill(0.0)
        out_cols = out_t.transpose(1, 0, 2, 3)
        for ti, (s1, s2) in enumerate(zip(self.step1, self.step2)):
            t.fill(0.0)
            _accumulate(t_rows, x, s1, blk1, tmp1)
            lap("mma", ti)
            np.copyto(tt, t_cols)
            lap("split", ti)
            _accumulate(out_cols, tt, s2, blk2, tmp2)
            lap("mma2", ti)
        out = np.empty((b, rows, cols))
        out[...] = out_t.reshape(8 * n8, b, 4 * n4).transpose(1, 2, 0)[
            :, :rows, :cols
        ]
        for w in self.scalar_weights:
            np.multiply(padded[:, h : h + rows, h : h + cols], w, out=centre)
            out += centre
        lap("apex")
        return out


def build_vector_program(program: TileProgram) -> VectorProgram:
    """Compile a scheduled program's weights into tap-chain tables."""
    tile = program.tile
    if isinstance(tile, RDGTileCompute):
        terms = tile.decomposition.matrix_terms
        # the MMA chunks the accumulator split hands Step 2
        chunk2 = (lambda c: (c // 8, c % 2)) if tile.config.use_bvs else (lambda c: c // 4)
        return VectorProgram(
            program=program,
            kind="2d",
            radius=tile.radius,
            step1=tuple(
                _chains(t.u, t.pad, 4, lambda c: c // 4) for t in terms
            ),
            step2=tuple(_chains(t.v, t.pad, 8, chunk2) for t in terms),
            scalar_weights=tuple(
                t.scalar_weight for t in tile.decomposition.scalar_terms
            ),
        )
    # 1D tiles: one banded U over the flat axis, no pad
    return VectorProgram(
        program=program,
        kind="1d",
        radius=tile.radius,
        step1=(_chains(tile.weight_vector, 0, 4, lambda c: c // 4),),
    )


# ---------------------------------------------------------------------------
# the sweep driver
# ---------------------------------------------------------------------------
def _price_sweep(spec, shape: tuple[int, int], per_tile: EventCounters) -> EventCounters:
    """One sweep's events: the tiles' probed cost, the block staging as
    the block driver books it, and the DRAM store of the interior."""
    rows, cols = spec.interior
    counters = per_tile.scaled(-(-rows // spec.tile[0]) * -(-cols // spec.tile[1]))
    counters.global_store_bytes += rows * cols * _FP64_BYTES
    block_r, block_c = spec.blocked()
    smem_shape = spec.smem_shape()
    for br in range(0, rows, block_r):
        for bc in range(0, cols, block_c):
            avail_r = min(smem_shape[0], shape[0] - br)
            avail_c = min(smem_shape[1], shape[1] - bc)
            if avail_r <= 0 or avail_c <= 0:
                continue
            size = avail_r * avail_c
            counters.global_load_bytes += size * _FP64_BYTES
            counters.shared_store_requests += max(
                1, math.ceil(size / _STORE_LANES)
            )
            if spec.use_async_copy:
                counters.async_copies += 1
            else:
                counters.register_intermediate_bytes += size * _FP64_BYTES
    return counters


def run_vector_sweep(
    padded: np.ndarray,
    spec,
    vector: VectorProgram,
    device=None,
    profiler=None,
) -> tuple[np.ndarray, EventCounters]:
    """Sweep with the vectorized backend.

    Mirrors :func:`repro.core.sweep.run_block_sweep` (same spec, return
    convention and ``tcu.sweep`` span) but evaluates every tile at once.
    ``padded`` is one padded 2D grid (1D: a ``(1, n)`` row) or a ``(B,
    R, C)`` stack of ``B`` same-shape grids; a stack's events are ``B``
    times one sweep's.
    """
    from repro.tcu.device import Device

    device = device or Device()
    if getattr(device, "injector", None) is not None:
        raise BackendError(
            "the vectorized backend does not support fault injection; "
            "use backend='interpreter'"
        )
    stack = padded.reshape((-1,) + padded.shape[-2:])
    n_grids = stack.shape[0]
    rows, cols = spec.interior
    smem_shape = spec.smem_shape()
    n_tiles = -(-rows // spec.tile[0]) * -(-cols // spec.tile[1])
    deltas, per_tile = vector.probe(smem_shape)
    device.peak_shared_bytes = max(
        device.peak_shared_bytes,
        smem_shape[0] * smem_shape[1] * _FP64_BYTES,
    )
    key = (spec, stack.shape[1:])
    sweep = vector._sweep_cache.get(key)
    if sweep is None:
        sweep = vector._sweep_cache[key] = _price_sweep(spec, stack.shape[1:], per_tile)

    with TRACER.span(
        "tcu.sweep", category="tcu", ndim=spec.ndim, shape=spec.shape_label
    ) as span:
        # lap(op, term) ends a fused stage, which is charged the wall time
        # since the previous mark
        marks = [(None, time.perf_counter_ns())]
        lap = lambda op, term=None: marks.append(((op, term), time.perf_counter_ns()))
        out = vector.evaluate(stack, lap).reshape(padded.shape[:-2] + (rows, cols))
        events = sweep.scaled(n_grids)
        device.counters += events
        span.add_events(events)
    beat = current_beat()
    if beat is not None:
        beat(n_tiles * n_grids, n_tiles)  # one-shot: all tiles at once
    if profiler is not None:
        stage_ns: dict = {}
        for (stage, t1), (_, t0) in zip(marks[1:], marks):
            stage_ns[stage] = stage_ns.get(stage, 0) + t1 - t0
        count = n_tiles * n_grids
        for ins, delta in zip(vector.program.instrs, deltas):
            ns = stage_ns.pop((ins.op, ins.meta.get("term")), 0)
            profiler.record(ins, ns, delta.scaled(count), count=count)
        for _ in range(n_grids):
            profiler.note_sweep(spec, sweep)
    return out, events
