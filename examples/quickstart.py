"""Quickstart: run a stencil through LoRAStencil's two execution paths.

Compiles the Box-2D49P plan (the paper's 7x7 working example), applies it
with the functional NumPy path and with the warp-level TCU simulation,
checks both against the reference executor, and prints the hardware
events the simulated sweep generated.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro import get_kernel, reference_apply


def main() -> None:
    kernel = get_kernel("Box-2D49P")
    print(f"Kernel: {kernel.name}  ({kernel.points} points, radius "
          f"{kernel.weights.radius})")

    stencil = repro.compile(kernel.weights)
    d = stencil.plan.decomposition
    print(f"Decomposition: method={d.method}, rank={d.rank}, "
          f"pyramid sizes={[t.size for t in d.terms]}")

    rng = np.random.default_rng(42)
    h = kernel.weights.radius
    x = rng.normal(size=(64 + 2 * h, 64 + 2 * h))  # padded input

    # 1. functional fast path (vectorized separable filters)
    out_fast = stencil.apply(x)

    # 2. faithful warp-level path on the TCU simulator
    out_sim, events = stencil.apply_simulated(x)

    ref = reference_apply(x, kernel.weights)
    print(f"functional max |err| vs reference: {np.abs(out_fast - ref).max():.2e}")
    print(f"simulated  max |err| vs reference: {np.abs(out_sim - ref).max():.2e}")

    print("\nSimulated hardware events for one 64x64 sweep:")
    for name, value in events.as_dict().items():
        if value:
            print(f"  {name:28s} {value:>10,}")
    print(f"\nMMA instructions per output point: "
          f"{events.mma_ops / out_sim.size:.3f}  (Eq. 16 predicts 36/64 = 0.5625)")
    print(f"Fragment loads per output point:   "
          f"{events.shared_load_requests / out_sim.size:.3f}")


if __name__ == "__main__":
    main()
