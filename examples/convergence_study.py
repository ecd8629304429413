"""Verification: the LoRAStencil stack solves real physics correctly.

Runs the classic grid-refinement study for the 2D heat equation against
its analytic solution, stepping with a compiled LoRAStencil plan.  The FTCS
scheme is second-order in dx at fixed mesh ratio; the study confirms
the full stack (decomposition -> banded MCM -> time integration)
reproduces that order, and contrasts it with the FP16 TCStencil-style
pipeline, whose rounding error puts a floor under the achievable
accuracy.

Run:  python examples/convergence_study.py
"""

from repro.precision import TCStencilFP16
from repro.validation import convergence_study, estimated_order


def main() -> None:
    print("heat equation u_t = laplacian(u), unit square, Dirichlet-0")
    print("FTCS via LoRAStencil (FP64):\n")
    pts = convergence_study(resolutions=(12, 24, 48, 96))
    print(f"{'n':>5} {'dx':>9} {'steps':>7} {'max err':>12} {'ratio':>7}")
    prev = None
    for p in pts:
        ratio = f"{prev / p.max_err:6.2f}" if prev else "     -"
        print(f"{p.n:>5} {p.dx:>9.5f} {p.steps:>7} {p.max_err:>12.3e} {ratio}")
        prev = p.max_err
    order = estimated_order(pts)
    print(f"\nobserved convergence order: {order:.3f}  (theory: 2.0)")
    assert abs(order - 2.0) < 0.1

    print("\nsame study through the FP16 TCStencil-style pipeline:")
    fp16_pts = convergence_study(
        resolutions=(12, 24, 48, 96),
        engine_factory=lambda w: TCStencilFP16(w),
    )
    for p64, p16 in zip(pts, fp16_pts):
        print(f"  n={p16.n:>3}: FP64 err {p64.max_err:.3e}   "
              f"FP16 err {p16.max_err:.3e}")
    print("\nFP16 error GROWS under refinement: finer grids need more")
    print("timesteps, and each FP16 sweep adds rounding error faster than")
    print("the finer grid removes discretization error.  Refinement is")
    print("counter-productive at half precision — which is why FP64")
    print("tensor-core stencils (this paper) matter.")
    assert fp16_pts[-1].max_err > fp16_pts[0].max_err
    assert pts[-1].max_err < pts[0].max_err


if __name__ == "__main__":
    main()
