"""3D acoustic wave propagation with a plane-decomposed 3D plan.

Solves the second-order wave equation ``u_tt = c^2 laplacian(u)`` with
the classic leapfrog update

    u[t+1] = 2 u[t] - u[t-1] + (c dt/dx)^2 * L u[t]

where ``L`` is the 7-point 3D Laplacian — a Star-3D7P stencil, exactly
the shape Algorithm 2 splits between CUDA cores (single-weight planes)
and tensor cores (the middle Star-2D5P plane).

Run:  python examples/wave_propagation_3d.py
"""

import numpy as np

import repro
from repro import StencilPattern, StencilWeights, Shape
from repro.stencil.reference import reference_apply

N = 48          # grid points per axis
STEPS = 60
COURANT = 0.4   # c*dt/dx, stable for 3D when < 1/sqrt(3)


def laplacian_weights() -> StencilWeights:
    """7-point 3D Laplacian as a Star-3D7P stencil."""
    arr = np.zeros((3, 3, 3))
    arr[1, 1, 1] = -6.0
    for axis in range(3):
        idx = [1, 1, 1]
        for off in (0, 2):
            idx[axis] = off
            arr[tuple(idx)] = 1.0
            idx[axis] = 1
    return StencilWeights(StencilPattern(Shape.STAR, 1, 3), arr)


def main() -> None:
    lap = laplacian_weights()
    stencil = repro.compile(lap)
    print("3D wave equation, leapfrog + LoRAStencil 3D Laplacian")
    print(f"grid {N}^3, {STEPS} steps, Courant number {COURANT}")
    print(f"tensor-core planes: {stencil.plan.tensor_core_planes}, "
          f"CUDA-core planes: {stencil.plan.cuda_core_planes}")

    # Gaussian pressure pulse in the centre
    z, y, x = np.meshgrid(*(np.arange(N),) * 3, indexing="ij")
    r2 = (z - N / 2) ** 2 + (y - N / 2) ** 2 + (x - N / 2) ** 2
    u_prev = np.exp(-r2 / 18.0)
    u_curr = u_prev.copy()  # zero initial velocity

    c2 = COURANT**2
    front_radius = []
    for step in range(STEPS):
        lap_u = stencil.apply(np.pad(u_curr, 1))
        u_next = 2.0 * u_curr - u_prev + c2 * lap_u
        u_prev, u_curr = u_curr, u_next
        if step % 15 == 14:
            # radius of the expanding wavefront: mean distance of the
            # strongest |u| shell
            mag = np.abs(u_curr)
            mask = mag > 0.25 * mag.max()
            radius = np.sqrt(r2[mask]).mean()
            front_radius.append(radius)
            print(f"  step {step + 1:3d}: max|u|={mag.max():.4f}  "
                  f"wavefront radius ~ {radius:5.2f}")

    # the front must move outward at a steady speed
    assert all(a < b for a, b in zip(front_radius, front_radius[1:])), (
        "wavefront must expand monotonically"
    )

    # cross-check one Laplacian application against the reference
    err = np.abs(
        stencil.apply(np.pad(u_curr, 1)) - reference_apply(np.pad(u_curr, 1), lap)
    ).max()
    print(f"\nLaplacian max |err| vs reference: {err:.2e}")
    assert err < 1e-10
    print("OK: expanding spherical wave, tensor/CUDA-core plane split per Alg. 2.")


if __name__ == "__main__":
    main()
