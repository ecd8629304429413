"""Grid-convergence study for the 2D heat equation.

Problem: ``u_t = alpha * laplacian(u)`` on the unit square with
homogeneous Dirichlet boundaries and initial condition
``u0 = sin(pi x) sin(pi y)``; the exact solution is

    ``u(x, y, t) = exp(-2 pi^2 alpha t) sin(pi x) sin(pi y)``.

Discretization: the classic FTCS scheme — exactly the Heat-2D stencil
shape of Table II — with mesh ratio ``r = alpha dt / dx^2`` held fixed,
giving a theoretical convergence order of 2 in ``dx``.  The study runs
the scheme through any stencil engine (LoRAStencil by default) and
measures the observed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.stencil.grid import Grid
from repro.stencil.weights import StencilWeights, star_weights

__all__ = [
    "ConvergencePoint",
    "heat_kernel_for",
    "heat_analytic_solution",
    "convergence_study",
    "estimated_order",
]


@dataclass(frozen=True)
class ConvergencePoint:
    """Error of one grid resolution."""

    n: int  # interior points per axis
    dx: float
    steps: int
    max_err: float
    l2_err: float


def heat_kernel_for(r: float, ndim: int = 2) -> StencilWeights:
    """FTCS heat stencil with mesh ratio ``r``.

    Stability requires ``r <= 1/(2*ndim)`` (von Neumann bound).
    """
    if not 0 < r <= 1.0 / (2 * ndim):
        raise ValueError(
            f"FTCS in {ndim}D requires 0 < r <= {1.0 / (2 * ndim)}, got {r}"
        )
    axis = np.full((ndim, 2), r)
    return star_weights(1, ndim, axis_values=axis, center=1.0 - 2.0 * ndim * r)


def heat_analytic_solution(
    n: int, t: float, alpha: float = 1.0, ndim: int = 2
) -> np.ndarray:
    """Exact solution sampled on the ``n^ndim`` interior grid at time t.

    The fundamental mode ``prod_d sin(pi x_d)`` decays at rate
    ``ndim * pi^2 * alpha``.
    """
    dx = 1.0 / (n + 1)
    coords = dx * np.arange(1, n + 1)
    mode = np.sin(np.pi * coords)
    field = mode
    for _ in range(ndim - 1):
        field = np.multiply.outer(field, mode)
    return float(np.exp(-ndim * np.pi**2 * alpha * t)) * field


def convergence_study(
    resolutions: tuple[int, ...] = (16, 32, 64),
    t_final: float = 0.02,
    r: float = 0.2,
    alpha: float = 1.0,
    engine_factory: Callable[[StencilWeights], object] | None = None,
    ndim: int = 2,
) -> list[ConvergencePoint]:
    """Run the refinement study; returns one point per resolution.

    ``engine_factory`` builds the stepper from the FTCS weights; the
    default is the compiled LoRAStencil plan of matching dimensionality.
    Whatever it returns must expose ``apply(padded) -> interior``.
    """
    if not 1 <= ndim <= 3:
        raise ValueError(f"ndim must be 1, 2 or 3, got {ndim}")
    if engine_factory is None:
        from repro.runtime import compile as compile_stencil

        # cached compile: every resolution of the study reuses one plan
        engine_factory = lambda w: compile_stencil(w, ndim=ndim)  # noqa: E731

    weights = heat_kernel_for(r, ndim=ndim)
    points: list[ConvergencePoint] = []
    for n in resolutions:
        dx = 1.0 / (n + 1)
        dt = r * dx * dx / alpha
        steps = max(1, round(t_final / dt))
        t_actual = steps * dt

        engine = engine_factory(weights)
        grid = Grid(heat_analytic_solution(n, 0.0, alpha, ndim), radius=1)
        final = grid.run(engine.apply, steps)

        exact = heat_analytic_solution(n, t_actual, alpha, ndim)
        diff = final - exact
        points.append(
            ConvergencePoint(
                n=n,
                dx=dx,
                steps=steps,
                max_err=float(np.abs(diff).max()),
                l2_err=float(np.linalg.norm(diff.ravel()) * dx ** (ndim / 2.0)),
            )
        )
    return points


def estimated_order(points: list[ConvergencePoint]) -> float:
    """Least-squares slope of log(err) against log(dx)."""
    if len(points) < 2:
        raise ValueError("need at least two resolutions to estimate order")
    log_dx = np.log([p.dx for p in points])
    log_err = np.log([p.max_err for p in points])
    slope, _ = np.polyfit(log_dx, log_err, 1)
    return float(slope)
