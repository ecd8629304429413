"""The functional path: the stencil as NumPy filters over a batch.

:func:`apply_planes` applies a lowered stencil to padded grids with any
number of leading batch axes (a single grid has none) and returns the
interiors with the same leading axes.  Each rank-1 term ``U_k X V_k``
of a 2D plane is a separable filter — a vertical pass with ``u``, a
horizontal pass with ``v`` — mathematically identical to the simulated
MCM; 1D planes are the plain tap sum; a 3D stencil sums its planes'
2D results over the input slabs (Algorithm 2), looping z-slabs so each
2D pass stays the size of one slab.
"""

from __future__ import annotations

import numpy as np

from repro.core.lowrank import Decomposition

__all__ = ["apply_decomposition", "apply_planes"]


def apply_decomposition(
    decomposition: Decomposition, grids: np.ndarray
) -> np.ndarray:
    """Sum of separable rank-1 filters over ``(..., R, C)`` padded grids."""
    h = (decomposition.full_side - 1) // 2
    lead, (r_in, c_in) = grids.shape[:-2], grids.shape[-2:]
    rows, cols = r_in - 2 * h, c_in - 2 * h
    out = np.zeros(lead + (rows, cols), dtype=np.float64)
    for term in decomposition.matrix_terms:
        pd, s = term.pad, term.size
        tmp = np.zeros(lead + (rows, c_in), dtype=np.float64)
        for t in range(s):
            tmp += term.u[t] * grids[..., pd + t : pd + t + rows, :]
        for r in range(s):
            out += term.v[r] * tmp[..., pd + r : pd + r + cols]
    for term in decomposition.scalar_terms:
        out += term.scalar_weight * grids[..., h : h + rows, h : h + cols]
    return out


def apply_planes(planes, grids: np.ndarray, ndim: int) -> np.ndarray:
    """Interiors of padded ``ndim``-D grids under a plan's planes.

    ``planes`` is :attr:`repro.core.lowering.LoweredProgram.planes`;
    ``grids`` carries any leading batch axes before the ``ndim`` grid
    axes.
    """
    if ndim == 1:
        w = planes[0].kernel.weight_vector
        n = grids.shape[-1] - (w.shape[0] - 1)
        out = np.zeros(grids.shape[:-1] + (n,), dtype=np.float64)
        for t, wt in enumerate(w):
            out += wt * grids[..., t : t + n]
        return out
    if ndim == 2:
        return apply_decomposition(planes[0].kernel.decomposition, grids)
    h = (len(planes) - 1) // 2
    zs, rs, cs = (s - 2 * h for s in grids.shape[-3:])
    out = np.zeros(grids.shape[:-3] + (zs, rs, cs), dtype=np.float64)
    for plane in planes:
        z0 = plane.index
        if plane.pointwise is not None:
            pi, pj, wt = plane.pointwise
            out += wt * grids[..., z0 : z0 + zs, pi : pi + rs, pj : pj + cs]
        elif plane.kernel is not None:
            for z in range(zs):
                out[..., z, :, :] += apply_decomposition(
                    plane.kernel.decomposition, grids[..., z + z0, :, :]
                )
    return out
