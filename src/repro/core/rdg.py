"""Residual Dimension Gathering: the warp-level tile computation.

One :class:`RDGTileCompute` is built per stencil kernel.  It precomputes,
for every rank-1 term of the decomposition, the register-resident weight
fragments:

* the A fragments slicing the banded ``U`` (vertical gather, Step 1);
* the B fragments slicing the banded ``V`` (horizontal gather, Step 2),
  pre-permuted for Butterfly Vector Swapping when BVS is enabled.

:meth:`RDGTileCompute.compute_tile` then executes the Matrix Chain
Multiplication ``U X V`` for an ``out_rows x out_cols`` output tile on
the TCU simulator (the default 8x8 is the paper's configuration; larger
multiples of 8 trade more accumulators for better input reuse — the
"ideal 2h x 2h update" of Section III-B's analysis):

* **Step 1** — ``T = U @ X``: for each (8-row, 8-column) block pair of
  the gather, accumulate over the k-blocks of ``U``
  (``(mo/8) * (K/4) * (W/8)`` MMAs; 8 for the paper's 7x7 example);
* **BVS** — split each ``T`` accumulator into two left operands.  With
  BVS this is a register reinterpretation (zero shuffles); without it,
  the naive column split prices its shuffles;
* **Step 2** — ``out += T' @ V'`` (``(mo/8) * (W/4) * (no/8)`` MMAs;
  4 in the example), accumulating directly into the tile's output
  accumulators, which also realizes the sum over rank-1 terms of Eq. 9
  for free.

Input fragments are loaded **once per tile** and shared by all rank-1
terms — the fragment reuse PMA is designed around.  The pyramid's scalar
apex term never touches the TCU: it is a centre-point ``axpy`` on the
CUDA cores.

``compute_tile_cuda`` is the Fig. 9 baseline: the same RDG arithmetic
executed on CUDA cores (scalar loads + FLOP counting, no fragments).

:class:`BandedTile1D` is the 1D counterpart (Section IV-C): 1D stencils
have no residual dimension, so one banded ``U`` gathers every
dependency and there is no MCM, BVS or pyramid.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.lowrank import Decomposition
from repro.core.uvbuild import build_u_matrix, build_v_matrix, butterfly_row_order
from repro.tcu.fragment import Fragment
from repro.tcu.layouts import FragmentKind
from repro.tcu.memory import SharedMemory
from repro.tcu.warp import Warp

__all__ = ["RDGTileCompute", "BandedTile1D", "OUT_TILE"]

#: Default output tile side (one 8x8 accumulator, the paper's config).
OUT_TILE = 8


def _round_up(x: int, to: int) -> int:
    return ((x + to - 1) // to) * to


class RDGTileCompute:
    """Precomputed RDG weights + the per-tile MCM executor."""

    def __init__(
        self,
        decomposition: Decomposition,
        radius: int,
        config: OptimizationConfig | None = None,
        out_rows: int = OUT_TILE,
        out_cols: int = OUT_TILE,
    ) -> None:
        if decomposition.full_side != 2 * radius + 1:
            raise ValueError(
                f"decomposition side {decomposition.full_side} does not match "
                f"radius {radius}"
            )
        if out_rows % 8 or out_cols % 8 or out_rows < 8 or out_cols < 8:
            raise ValueError(
                f"output tile must be positive multiples of 8, got "
                f"{out_rows}x{out_cols}"
            )
        self.decomposition = decomposition
        self.radius = radius
        self.config = config or OptimizationConfig()
        self.out_rows = out_rows
        self.out_cols = out_cols

        h = radius
        #: rows of the input window X (k-dimension of Step 1), 4-aligned
        self.k_rows = _round_up(out_rows + 2 * h, 4)
        #: columns of the input window X, 8-aligned
        self.w_cols = _round_up(out_cols + 2 * h, 8)

        # weight fragments indexed [term][row_block][k_block] for U and
        # [term][w_block][out_col_block] -> (lo, hi) for V
        self._u_frags: list[list[list[Fragment]]] = []
        self._v_frags: list[list[list[tuple[Fragment, Fragment]]]] = []
        self._u_mats: list[np.ndarray] = []
        self._v_mats: list[np.ndarray] = []
        self._build_weight_fragments()

    # ------------------------------------------------------------------
    # weight preparation (once per kernel)
    # ------------------------------------------------------------------
    def _build_weight_fragments(self) -> None:
        order = butterfly_row_order(self.w_cols)
        for term in self.decomposition.matrix_terms:
            u_mat = build_u_matrix(
                term.u, self.out_rows, self.k_rows, offset=term.pad
            )
            v_mat = build_v_matrix(
                term.v, self.w_cols, self.out_cols, offset=term.pad
            )
            self._u_mats.append(u_mat)
            self._v_mats.append(v_mat)

            u_frags = [
                [
                    Fragment.from_matrix(
                        FragmentKind.A,
                        u_mat[8 * rb : 8 * rb + 8, 4 * kb : 4 * kb + 4],
                    )
                    for kb in range(self.k_rows // 4)
                ]
                for rb in range(self.out_rows // 8)
            ]
            self._u_frags.append(u_frags)

            v_perm = v_mat[order, :] if self.config.use_bvs else v_mat
            v_frags = [
                [
                    (
                        Fragment.from_matrix(
                            FragmentKind.B,
                            v_perm[8 * wb : 8 * wb + 4, 8 * ob : 8 * ob + 8],
                        ),
                        Fragment.from_matrix(
                            FragmentKind.B,
                            v_perm[8 * wb + 4 : 8 * wb + 8, 8 * ob : 8 * ob + 8],
                        ),
                    )
                    for ob in range(self.out_cols // 8)
                ]
                for wb in range(self.w_cols // 8)
            ]
            self._v_frags.append(v_frags)

    # ------------------------------------------------------------------
    # instruction-count bookkeeping (Eq. 12 / Eq. 16)
    # ------------------------------------------------------------------
    @property
    def fragment_loads_per_tile(self) -> int:
        """Input fragments loaded per output tile (Eq. 12 numerator)."""
        return (self.k_rows // 4) * (self.w_cols // 8)

    @property
    def mma_per_tile(self) -> int:
        """MMA instructions per output tile (Eq. 16 numerator)."""
        n_terms = len(self.decomposition.matrix_terms)
        row_blocks = self.out_rows // 8
        step1 = row_blocks * (self.k_rows // 4) * (self.w_cols // 8)
        step2 = row_blocks * (self.w_cols // 4) * (self.out_cols // 8)
        return n_terms * (step1 + step2)

    @property
    def points_per_tile(self) -> int:
        return self.out_rows * self.out_cols

    # ------------------------------------------------------------------
    # tensor-core path
    # ------------------------------------------------------------------
    def load_input_fragments(
        self,
        warp: Warp,
        smem: SharedMemory,
        row: int,
        col: int,
    ) -> list[list[Fragment]]:
        """Load the tile's input window as B fragments (once per tile)."""
        return [
            [
                warp.load_matrix_sync(
                    FragmentKind.B, smem, row + 4 * kb, col + 8 * wb
                )
                for wb in range(self.w_cols // 8)
            ]
            for kb in range(self.k_rows // 4)
        ]

    def compute_tile(
        self,
        warp: Warp,
        smem: SharedMemory,
        row: int,
        col: int,
    ) -> np.ndarray:
        """RDG for the output tile whose input window starts at
        ``(row, col)`` in shared memory.  Returns the output tile."""
        if not self.config.use_tensor_cores:
            return self.compute_tile_cuda(warp, smem, row, col)

        x_frags = self.load_input_fragments(warp, smem, row, col)
        out_accs: list[list[Fragment | None]] = [
            [None] * (self.out_cols // 8) for _ in range(self.out_rows // 8)
        ]
        for u_frags, v_frags in zip(self._u_frags, self._v_frags):
            for rb in range(self.out_rows // 8):
                # Step 1: vertical gather T = U @ X (one accumulator per
                # 8-column block of the window).
                t_accs: list[Fragment] = []
                for wb in range(self.w_cols // 8):
                    t_acc: Fragment | None = None
                    for kb in range(self.k_rows // 4):
                        t_acc = warp.mma_sync(
                            u_frags[rb][kb], x_frags[kb][wb], t_acc
                        )
                    t_accs.append(t_acc)
                # Step 2: horizontal gather out += T @ V, splitting each
                # T accumulator into two left operands.
                for wb, t_acc in enumerate(t_accs):
                    if self.config.use_bvs:
                        first, second = warp.split_accumulator_bvs(t_acc)
                    else:
                        first, second = warp.split_accumulator_naive(t_acc)
                    for ob in range(self.out_cols // 8):
                        v_lo, v_hi = v_frags[wb][ob]
                        acc = out_accs[rb][ob]
                        acc = warp.mma_sync(first, v_lo, acc)
                        acc = warp.mma_sync(second, v_hi, acc)
                        out_accs[rb][ob] = acc

        out = np.zeros((self.out_rows, self.out_cols), dtype=np.float64)
        for rb in range(self.out_rows // 8):
            for ob in range(self.out_cols // 8):
                acc = out_accs[rb][ob]
                if acc is not None:
                    out[8 * rb : 8 * rb + 8, 8 * ob : 8 * ob + 8] = acc.to_matrix()
        self._apply_scalar_terms(warp, smem, row, col, out)
        return out

    # ------------------------------------------------------------------
    # CUDA-core fallback path (Fig. 9 level 0)
    # ------------------------------------------------------------------
    def compute_tile_cuda(
        self,
        warp: Warp,
        smem: SharedMemory,
        row: int,
        col: int,
    ) -> np.ndarray:
        """The same MCM executed with scalar loads and CUDA-core FLOPs."""
        window = smem.read_scalar_tile(row, col, (self.k_rows, self.w_cols))
        out = np.zeros((self.out_rows, self.out_cols), dtype=np.float64)
        for u_mat, v_mat in zip(self._u_mats, self._v_mats):
            t = u_mat @ window
            out += t @ v_mat
            # 2*m*n*k FLOPs per dense product, charged to the CUDA cores
            warp.counters.cuda_core_flops += 2 * u_mat.shape[0] * u_mat.shape[1] * window.shape[1]
            warp.counters.cuda_core_flops += 2 * t.shape[0] * t.shape[1] * v_mat.shape[1]
        self._apply_scalar_terms(warp, smem, row, col, out)
        return out

    # ------------------------------------------------------------------
    def _apply_scalar_terms(
        self,
        warp: Warp,
        smem: SharedMemory,
        row: int,
        col: int,
        out: np.ndarray,
    ) -> None:
        """Pyramid apex: centre-point scaling on the CUDA cores."""
        h = self.radius
        for term in self.decomposition.scalar_terms:
            centre = smem.read_scalar_tile(
                row + h, col + h, (self.out_rows, self.out_cols)
            )
            warp.cuda_core_axpy(out, term.scalar_weight, centre)


class BandedTile1D:
    """Precomputed banded ``U`` + the eager 1D tile (Section IV-C).

    One warp updates 64 consecutive outputs arranged as an 8x8
    accumulator with ``acc[p, q] = out[base + 8q + p]``.  The window
    ``X[r, q] = x[base + 8q + r]`` is read from the block's flat shared
    buffer with strided fragment loads, and ``acc = U @ X`` accumulates
    over the ``K/4`` k-blocks.  The sweep sees the tile as a ``(1, 64)``
    row of a ``1 x n`` grid.
    """

    out_rows = 1
    out_cols = 64

    def __init__(
        self, weights: np.ndarray, config: OptimizationConfig | None = None
    ) -> None:
        self.weight_vector = np.asarray(weights, dtype=np.float64)
        self.radius = (self.weight_vector.shape[0] - 1) // 2
        self.config = config or OptimizationConfig()
        #: window rows (k-dimension), 4-aligned
        self.k_rows = _round_up(8 + 2 * self.radius, 4)
        self.u_mat = build_u_matrix(self.weight_vector, 8, self.k_rows)
        self.u_frags = [
            Fragment.from_matrix(FragmentKind.A, self.u_mat[:, 4 * k : 4 * k + 4])
            for k in range(self.k_rows // 4)
        ]

    @property
    def mma_per_tile(self) -> int:
        """MMA instructions per 64 outputs."""
        return self.k_rows // 4

    def window(self, smem: SharedMemory, base: int, kb: int) -> np.ndarray:
        """The ``(4, 8)`` window rows of k-block ``kb`` (8-strided)."""
        return smem.read_fragment_strided(base + 4 * kb, (4, 8), col_stride=8)

    def compute_tile(
        self, warp: Warp, smem: SharedMemory, row: int, col: int
    ) -> np.ndarray:
        """The 64 outputs at block-local offset ``col`` as a ``(1, 64)``
        row, by the eager accumulator chain (CUDA cores when the config
        has no tensor cores)."""
        if not self.config.use_tensor_cores:
            window = np.concatenate(
                [self.window(smem, col, kb) for kb in range(self.k_rows // 4)]
            )
            warp.counters.cuda_core_flops += 2 * 8 * self.k_rows * 8
            acc = self.u_mat @ window
        else:
            frag = None
            for kb in range(self.k_rows // 4):
                x = Fragment.from_matrix(FragmentKind.B, self.window(smem, col, kb))
                frag = warp.mma_sync(self.u_frags[kb], x, frag)
            acc = frag.to_matrix()
        return acc.T.reshape(1, -1)
