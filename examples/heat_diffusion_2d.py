"""2D heat conduction with LoRAStencil — the paper's motivating workload.

Simulates an explicit finite-difference heat equation (the Heat-2D
kernel of Table II) from a hot square in a cold plate:

* integrates 300 timesteps with a compiled LoRAStencil plan, using the
  paper's 3x temporal kernel fusion (100 fused sweeps);
* verifies the fused trajectory against 300 plain reference steps;
* checks the physics: the peak never rises, heat spreads, and total
  energy only leaves through the cold boundary — each up to the
  floating-point rounding bound of one sweep (see ``sweep_growth_bound``).

Run:  python examples/heat_diffusion_2d.py
"""

import numpy as np

import repro
from repro import Grid, get_kernel, reference_iterate
from repro.core.fusion import fuse_kernel

GRID = 96
STEPS = 300
FUSE = 3


def ascii_heatmap(field: np.ndarray, width: int = 48) -> str:
    """Tiny ASCII rendering of the temperature field."""
    shades = " .:-=+*#%@"
    step = max(1, field.shape[0] // (width // 2))
    rows = []
    vmax = field.max() or 1.0
    for i in range(0, field.shape[0], step * 2):
        row = ""
        for j in range(0, field.shape[1], step):
            row += shades[min(int(field[i, j] / vmax * (len(shades) - 1)), 9)]
        rows.append(row)
    return "\n".join(rows)


def sweep_growth_bound(decomposition) -> float:
    """Largest relative rise of a non-negative field's max in one sweep.

    In exact arithmetic the fused Heat-2D kernel is a convex combination
    (non-negative weights summing to 1), so a sweep can never raise the
    peak.  In floating point two things let it rise by a few ulps:

    * the rank-1 factors reproduce the weights only up to rounding:
      their weights sum to ``s = sum_k sum(u_k) * sum(v_k)``, which is
      ``1 + 2.2e-16`` for this kernel rather than 1;
    * each output is a chain of at most ``n`` rounded multiply-adds
      (``n = sum_k 2 * size_k`` plus the apex terms), so it carries a
      relative error of at most ``gamma_n = n*u / (1 - n*u)``, with
      ``u = 2**-53``, times the absolute weight mass
      ``m = sum_k |u_k|_1 * |v_k|_1`` (Higham, *Accuracy and Stability
      of Numerical Algorithms*, 2nd ed., Sec. 3.1).

    Hence ``max(out) <= max(x) * (1 + |s - 1| + gamma_n * m)``.
    """
    terms, apex = decomposition.matrix_terms, decomposition.scalar_terms
    s = sum(t.u.sum() * t.v.sum() for t in terms) + sum(
        t.scalar_weight for t in apex
    )
    m = sum(np.abs(t.u).sum() * np.abs(t.v).sum() for t in terms) + sum(
        abs(t.scalar_weight) for t in apex
    )
    n = sum(2 * t.size for t in terms) + len(apex)
    u = np.finfo(np.float64).eps / 2
    return abs(s - 1.0) + n * u / (1 - n * u) * m


def main() -> None:
    kernel = get_kernel("Heat-2D")
    fused = fuse_kernel(kernel.weights, FUSE)
    stencil = repro.compile(fused.fused)
    print(f"Heat-2D, {GRID}x{GRID} plate, {STEPS} steps "
          f"({fused.steps_for(STEPS)} fused sweeps of {FUSE})")

    # hot square in a cold plate
    t0 = np.zeros((GRID, GRID))
    t0[GRID // 2 - 8 : GRID // 2 + 8, GRID // 2 - 8 : GRID // 2 + 8] = 100.0
    print("\ninitial state:")
    print(ascii_heatmap(t0))

    grid = Grid(t0, fused.radius)  # cold (zero) boundary
    peaks = [t0.max()]
    energy = [t0.sum()]
    for _ in range(fused.steps_for(STEPS)):
        grid.step(stencil.apply)
        peaks.append(grid.interior.max())
        energy.append(grid.interior.sum())

    print(f"\nafter {STEPS} steps:")
    print(ascii_heatmap(grid.interior))

    # exactness: the LoRAStencil sweeps must equal the reference
    # executor applied to the same fused kernel
    ref_fused = reference_iterate(t0, fused.fused, fused.steps_for(STEPS))
    err = np.abs(grid.interior - ref_fused).max()
    print(f"\nmax |err| vs fused reference trajectory: {err:.2e}")
    assert err < 1e-9

    # temporal fusion with a cold (zero) boundary is exact in the
    # interior and only approximate within the fused halo of the edge;
    # report that boundary deviation against the unfused trajectory
    ref = reference_iterate(t0, kernel.weights, STEPS)
    edge_err = np.abs(grid.interior - ref).max()
    print(f"boundary fusion deviation vs {STEPS} unfused steps: "
          f"{edge_err:.2e} (edge halo only)")
    assert edge_err < 1e-4
    interior_err = np.abs(grid.interior[6:-6, 6:-6] - ref[6:-6, 6:-6]).max()
    assert interior_err < 1e-6, interior_err

    # physics checks, each up to one sweep's rounding: the energy sum
    # adds the pairwise-summation error of np.sum over the plate
    growth = sweep_growth_bound(stencil.plan.decomposition)
    k = int(np.ceil(np.log2(GRID * GRID)))
    u = np.finfo(np.float64).eps / 2
    sum_growth = growth + 2 * k * u / (1 - k * u)
    assert all(b <= a * (1 + growth) for a, b in zip(peaks, peaks[1:])), (
        "peak must not rise"
    )
    assert all(b <= a * (1 + sum_growth) for a, b in zip(energy, energy[1:])), (
        "energy must only leave through the cold boundary"
    )
    print(f"peak temperature: {peaks[0]:.1f} -> {peaks[-1]:.2f}")
    print(f"total energy:     {energy[0]:.0f} -> {energy[-1]:.0f} "
          f"({100 * energy[-1] / energy[0]:.1f}% retained)")
    print("\nOK: fused LoRAStencil trajectory matches the reference physics.")


if __name__ == "__main__":
    main()
