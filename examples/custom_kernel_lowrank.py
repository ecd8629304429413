"""Bring your own kernel: low-rank adaptation of a custom stencil.

Shows the full PMA pipeline on a user-defined radius-4 radially
symmetric kernel (a 9x9 Gaussian-like smoother):

1. verify the Section II-C rank bound,
2. peel the pyramid and print every rank-1 term,
3. compare the modelled memory/compute cost against ConvStencil
   (Eq. 12-16), and
4. execute on the TCU simulator and check exactness.

Run:  python examples/custom_kernel_lowrank.py
"""

import numpy as np

import repro
from repro import pyramidal_decompose, reference_apply
from repro.analysis.compute_model import lorastencil_mma_per_tile
from repro.analysis.memory_model import (
    convstencil_loads_per_tile,
    memory_ratio,
    rdg_loads_per_tile,
    redundancy_eliminated,
)
from repro.stencil.patterns import Shape, StencilPattern
from repro.stencil.weights import StencilWeights, is_radially_symmetric

H = 4  # radius -> 9x9 kernel


def gaussian_kernel(radius: int, sigma: float = 2.0) -> StencilWeights:
    """Radially symmetric Gaussian smoother (weights sum to 1)."""
    ax = np.arange(-radius, radius + 1)
    yy, xx = np.meshgrid(ax, ax, indexing="ij")
    arr = np.exp(-(xx**2 + yy**2) / (2 * sigma**2))
    arr /= arr.sum()
    return StencilWeights(StencilPattern(Shape.BOX, radius, 2), arr)


def main() -> None:
    w = gaussian_kernel(H)
    print(f"custom kernel: {w.pattern.label()}, radius {H}")
    print(f"radially symmetric: {is_radially_symmetric(w)}")
    rank = w.matrix_rank()
    print(f"rank(W) = {rank}  (Section II-C bound: h+1 = {H + 1})")
    assert rank <= H + 1

    d = pyramidal_decompose(w.as_matrix())
    print(f"\nPMA pyramid ({d.rank} terms, reconstruction error "
          f"{d.max_error(w.as_matrix()):.2e}):")
    for i, t in enumerate(d.terms, 1):
        kind = "scalar apex" if t.is_scalar else f"{t.size}x{t.size} rank-1"
        print(f"  C{i}: {kind}, pad {t.pad}")

    print("\ncost vs ConvStencil (per 8-wide output tile):")
    print(f"  fragment loads: RDG {rdg_loads_per_tile(H)} vs "
          f"ConvStencil {convstencil_loads_per_tile(H)}  "
          f"-> {memory_ratio(H):.2f}x less traffic "
          f"({redundancy_eliminated(H) * 100:.1f}% redundancy eliminated)")
    print(f"  MMA instructions per 8x8 tile: "
          f"{lorastencil_mma_per_tile(H, len(d.matrix_terms))} "
          f"(Eq. 16 trades compute for memory)")

    # run it
    stencil = repro.compile(w)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40 + 2 * H, 40 + 2 * H))
    out, events = stencil.apply_simulated(x)
    ref = reference_apply(x, w)
    print(f"\nsimulated sweep: max |err| vs reference = "
          f"{np.abs(out - ref).max():.2e}")
    print(f"events: {events.mma_ops} MMAs, "
          f"{events.shared_load_requests} fragment loads, "
          f"{events.shuffle_ops} shuffles (BVS keeps this at zero)")
    assert np.abs(out - ref).max() < 1e-10
    print("OK")


if __name__ == "__main__":
    main()
