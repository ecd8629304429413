"""Von Neumann (Fourier symbol) analysis of stencil operators.

A constant-coefficient stencil acts diagonally on Fourier modes: the
plane wave ``exp(i k.x)`` is an eigenfunction with eigenvalue

    ``g(k) = sum_o W[o] exp(i k.o)``    (the *symbol* / amplification factor)

This module computes symbols, checks von Neumann stability
(``max_k |g(k)| <= 1``), and verifies the prediction against measured
decay of plane waves run through the actual engines — tying the
linear-algebra machinery back to PDE theory.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.stencil.weights import StencilWeights

__all__ = [
    "symbol",
    "amplification_grid",
    "max_amplification",
    "is_von_neumann_stable",
    "measured_mode_decay",
]


def symbol(weights: StencilWeights, k: tuple[float, ...]) -> complex:
    """The stencil's eigenvalue ``g(k)`` for wavevector ``k`` (radians
    per grid spacing, one component per dimension)."""
    if len(k) != weights.ndim:
        raise ValueError(
            f"wavevector has {len(k)} components for a {weights.ndim}D stencil"
        )
    h = weights.radius
    g = 0.0 + 0.0j
    for idx in itertools.product(range(weights.side), repeat=weights.ndim):
        w = weights.array[idx]
        if w == 0.0:
            continue
        phase = sum(kc * (i - h) for kc, i in zip(k, idx))
        g += w * np.exp(1j * phase)
    return complex(g)


def amplification_grid(
    weights: StencilWeights, samples: int = 33
) -> np.ndarray:
    """``|g(k)|`` sampled on a uniform wavevector grid over ``[-pi, pi]^d``."""
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    ks = np.linspace(-np.pi, np.pi, samples)
    shape = (samples,) * weights.ndim
    out = np.empty(shape, dtype=np.float64)
    for idx in itertools.product(range(samples), repeat=weights.ndim):
        out[idx] = abs(symbol(weights, tuple(ks[i] for i in idx)))
    return out


def max_amplification(weights: StencilWeights, samples: int = 33) -> float:
    """``max_k |g(k)|`` on the sampled grid (the von Neumann quantity)."""
    return float(amplification_grid(weights, samples).max())


def is_von_neumann_stable(
    weights: StencilWeights, samples: int = 33, tol: float = 1e-9
) -> bool:
    """True iff no Fourier mode grows: ``max_k |g(k)| <= 1 + tol``."""
    return max_amplification(weights, samples) <= 1.0 + tol


def measured_mode_decay(
    weights: StencilWeights,
    k: tuple[float, ...],
    grid: int = 32,
    steps: int = 5,
    apply_fn=None,
) -> tuple[float, float]:
    """(predicted, measured) per-step amplification of one *resolvable*
    mode.

    ``k`` components must be integer multiples of ``2*pi/grid`` so the
    mode is periodic on the grid.  ``apply_fn`` defaults to the
    compiled LoRAStencil plan of matching dimensionality.
    """
    for kc in k:
        cycles = kc * grid / (2.0 * np.pi)
        if abs(cycles - round(cycles)) > 1e-9:
            raise ValueError(
                f"wavevector component {kc} is not resolvable on a grid of {grid}"
            )
    if apply_fn is None:
        from repro.runtime import compile as compile_stencil

        apply_fn = compile_stencil(weights).apply

    from repro.stencil.grid import Grid

    axes = [np.arange(grid) for _ in range(weights.ndim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    phase = sum(kc * g for kc, g in zip(k, mesh))
    field = np.cos(phase)

    g_grid = Grid(field, weights.radius, boundary="periodic")
    norm0 = np.linalg.norm(g_grid.interior)
    g_grid.run(apply_fn, steps)
    normN = np.linalg.norm(g_grid.interior)
    measured = float((normN / norm0) ** (1.0 / steps)) if norm0 else 0.0
    predicted = abs(symbol(weights, k))
    return predicted, measured
