"""Low-rank adaptation of stencil weight matrices.

Two decomposition routes turn a ``(2h+1) x (2h+1)`` weight matrix ``W``
into rank-1 terms ``C_k = u_k (x) v_k^T`` with ``sum_k C_k == W``:

* :func:`pyramidal_decompose` — **PMA** (Section III-C).  For matrices
  symmetric under both row and column reversal (radial symmetry implies
  this), peel the border with the pivot-scaled outer product of the first
  column and first row; the remainder's border vanishes and a
  ``(2h-1) x (2h-1)`` symmetric core remains.  Produces at most ``h+1``
  terms of strictly decreasing size (Eq. 15) — the pyramid.
* :func:`svd_decompose` — the general Eq. 8 route: ``rank(W)``
  full-size terms from the singular value decomposition.

:func:`decompose` picks PMA when it applies (exact, fewest/smallest
terms) and falls back to SVD otherwise, which is how the implementation
"generalizes to various kernels" (Section I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DecompositionError, ShapeError

__all__ = [
    "Rank1Term",
    "Decomposition",
    "PivotError",
    "pyramidal_decompose",
    "svd_decompose",
    "decompose",
]


class PivotError(DecompositionError):
    """PMA cannot proceed: zero pivot or missing flip symmetry.

    Subclasses :class:`repro.errors.DecompositionError` (itself a
    ``ValueError`` for backwards compatibility).
    """


@dataclass(frozen=True)
class Rank1Term:
    """One rank-1 summand ``C = u (x) v^T`` of the weight matrix.

    ``u``/``v`` have length ``size`` (odd).  ``pad`` is the term's border
    offset inside the full kernel: PMA's pyramid gives level ``i`` the
    size ``2h+3-2i`` and pad ``i-1``; SVD terms are full-size (pad 0).
    A ``size == 1`` term is the pyramid's scalar apex — it needs no
    matrix multiplication at all (centre-point scaling on CUDA cores).
    """

    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    size: int
    pad: int

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.shape != (self.size,) or v.shape != (self.size,):
            raise ValueError(
                f"u/v must have shape ({self.size},), got {u.shape}/{v.shape}"
            )
        if self.size % 2 != 1:
            raise ValueError(f"term size must be odd, got {self.size}")
        if self.pad < 0:
            raise ValueError(f"pad must be >= 0, got {self.pad}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def radius(self) -> int:
        return (self.size - 1) // 2

    @property
    def is_scalar(self) -> bool:
        """True for the pyramid apex: a single self-weight, no MM needed."""
        return self.size == 1

    @property
    def scalar_weight(self) -> float:
        if not self.is_scalar:
            raise ValueError("scalar_weight is only defined for 1x1 terms")
        return float(self.u[0] * self.v[0])

    def matrix(self) -> np.ndarray:
        """The dense rank-1 matrix ``u v^T`` (size x size)."""
        return np.outer(self.u, self.v)

    def embedded(self, full_side: int) -> np.ndarray:
        """The term zero-padded to the full kernel side length."""
        if self.size + 2 * self.pad > full_side:
            raise ValueError(
                f"term of size {self.size} with pad {self.pad} does not fit "
                f"in a {full_side}x{full_side} kernel"
            )
        out = np.zeros((full_side, full_side), dtype=np.float64)
        extra = (full_side - self.size - 2 * self.pad) // 2
        off = self.pad + extra
        out[off : off + self.size, off : off + self.size] = self.matrix()
        return out


@dataclass(frozen=True)
class Decomposition:
    """A complete rank-1 decomposition of one weight matrix."""

    terms: tuple[Rank1Term, ...]
    full_side: int
    method: str  # "pma" | "svd"

    @property
    def rank(self) -> int:
        return len(self.terms)

    @property
    def matrix_terms(self) -> tuple[Rank1Term, ...]:
        """Terms that require matrix multiplication (size > 1)."""
        return tuple(t for t in self.terms if not t.is_scalar)

    @property
    def scalar_terms(self) -> tuple[Rank1Term, ...]:
        """Pyramid apex terms handled point-wise on CUDA cores."""
        return tuple(t for t in self.terms if t.is_scalar)

    def reconstruct(self) -> np.ndarray:
        """``sum_k C_k`` embedded back into the full kernel."""
        out = np.zeros((self.full_side, self.full_side), dtype=np.float64)
        for term in self.terms:
            out += term.embedded(self.full_side)
        return out

    def max_error(self, w: np.ndarray) -> float:
        """Max |reconstruction - w| (0 for an exact decomposition)."""
        return float(np.max(np.abs(self.reconstruct() - np.asarray(w))))


def _is_flip_symmetric(w: np.ndarray, tol: float) -> bool:
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    return (
        np.max(np.abs(w - np.flipud(w))) <= tol * scale
        and np.max(np.abs(w - np.fliplr(w))) <= tol * scale
    )


def pyramidal_decompose(
    w: np.ndarray,
    tol: float = 1e-12,
    pivot_tol: float = 1e-12,
) -> Decomposition:
    """Pyramidal Matrix Adaptation (Fig. 5).

    Requires ``w`` to be square with odd side and symmetric under both
    row and column reversal.  Zero border rings (e.g. a small kernel
    embedded in a larger one) are skipped without emitting a term.

    Raises
    ------
    PivotError
        If a corner pivot vanishes while its ring does not, or the matrix
        lacks the required flip symmetry.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"weight matrix must be square, got shape {w.shape}")
    n = w.shape[0]
    if n % 2 != 1:
        raise ShapeError(f"weight matrix side must be odd, got {n}")
    if not _is_flip_symmetric(w, tol):
        raise PivotError(
            "pyramidal decomposition requires row- and column-flip symmetry "
            "(radially symmetric weights have it; see Section II-C)"
        )

    scale = max(1.0, float(np.max(np.abs(w))))
    terms: list[Rank1Term] = []
    cur = w.copy()
    pad = 0
    side = n
    while side > 1:
        border_mag = max(
            float(np.max(np.abs(cur[0, :]))), float(np.max(np.abs(cur[:, 0])))
        )
        if border_mag <= tol * scale:
            # empty ring: shrink without a term (embedded smaller kernel)
            cur = cur[1:-1, 1:-1]
            side -= 2
            pad += 1
            continue
        pivot = cur[0, 0]
        if abs(pivot) <= pivot_tol * scale:
            raise PivotError(
                f"zero corner pivot at pyramid level pad={pad} with a "
                "nonzero border ring; use svd_decompose instead"
            )
        u = cur[:, 0] / pivot
        v = cur[0, :].copy()
        terms.append(Rank1Term(u=u, v=v, size=side, pad=pad))
        cur = (cur - np.outer(u, v))[1:-1, 1:-1]
        side -= 2
        pad += 1
    if side == 1 and abs(cur[0, 0]) > tol * scale:
        terms.append(
            Rank1Term(
                u=np.array([cur[0, 0]]), v=np.array([1.0]), size=1, pad=pad
            )
        )

    decomp = Decomposition(tuple(terms), full_side=n, method="pma")
    err = decomp.max_error(w)
    if err > 1e-9 * scale:
        raise PivotError(
            f"pyramidal decomposition failed to reconstruct W exactly "
            f"(max error {err:.3e}); the matrix is likely not radially "
            "symmetric"
        )
    return decomp


def svd_decompose(w: np.ndarray, tol: float = 1e-12) -> Decomposition:
    """Generic low-rank route (Eq. 8): ``rank(W)`` full-size terms, in
    decreasing singular-value order, host-independent (:func:`_jacobi_svd`)."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"weight matrix must be square, got shape {w.shape}")
    n = w.shape[0]
    if n % 2 != 1:
        raise ShapeError(f"weight matrix side must be odd, got {n}")
    if n == 1:
        terms: tuple[Rank1Term, ...] = ()
        if w[0, 0] != 0.0:
            terms = (
                Rank1Term(u=np.array([w[0, 0]]), v=np.array([1.0]), size=1, pad=0),
            )
        return Decomposition(terms, full_side=1, method="svd")
    a, v = _jacobi_svd(w)
    norms = [math.sqrt(math.fsum(a[:, k] * a[:, k])) for k in range(n)]
    order = sorted(range(n), key=lambda k: -norms[k])
    cutoff = tol * max(1.0, norms[order[0]])
    term_list = [
        Rank1Term(u=a[:, k].copy(), v=v[:, k].copy(), size=n, pad=0)
        for k in order
        if norms[k] > cutoff
    ]
    return Decomposition(tuple(term_list), full_side=n, method="svd")


#: sweep cap of :func:`_jacobi_svd` (the zoo converges in under ten)
_JACOBI_SWEEPS = 30


def _jacobi_svd(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD: ``W V = A``, ``V`` orthogonal, the columns
    of ``A`` orthogonal, so ``W = sum_k A[:, k] V[:, k]^T``.

    Only float multiplies and adds, ``math.fsum`` and ``math.sqrt`` in a
    fixed order: unlike a LAPACK SVD, the bits do not depend on the BLAS.
    """
    n = w.shape[1]
    a = [list(map(float, col)) for col in w.T]  # a[k] is column k of A
    v = [[float(i == k) for i in range(n)] for k in range(n)]
    eps = float(np.finfo(np.float64).eps)
    # columns at rounding-noise level never converge against each other;
    # their correlation below this floor counts as orthogonal
    floor = eps * eps * math.fsum(x * x for col in a for x in col)
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                alpha = math.fsum(x * x for x in a[i])
                beta = math.fsum(x * x for x in a[j])
                gamma = math.fsum(x * y for x, y in zip(a[i], a[j]))
                if abs(gamma) <= max(eps * math.sqrt(alpha * beta), floor):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                for m in (a, v):
                    col_i, col_j = m[i], m[j]
                    m[i] = [c * x - s * y for x, y in zip(col_i, col_j)]
                    m[j] = [s * x + c * y for x, y in zip(col_i, col_j)]
        if not rotated:
            break
    return np.array(a).T, np.array(v).T


def decompose(w: np.ndarray, tol: float = 1e-12) -> Decomposition:
    """PMA when the symmetry/pivot structure allows it, SVD otherwise."""
    try:
        return pyramidal_decompose(w, tol=tol)
    except PivotError:
        return svd_decompose(w, tol=tol)
