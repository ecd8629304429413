"""Extension experiment: FP64 LoRAStencil vs FP16 TCStencil numerics.

The paper's Section V-A / VI argument against TCStencil is qualitative
("limited to FP16 precision").  This bench quantifies it: the
TCStencil-style FP16 pipeline carries ~1e-3 relative error from the
first sweep and keeps a persistent gap from the FP64 trajectory, while
LoRAStencil's FP64 path is exact to machine precision.
"""

from __future__ import annotations

import numpy as np

from repro.runtime import compile as compile_stencil
from repro.experiments.report import format_table
from repro.precision import TCStencilFP16, precision_sweep
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply

KERNELS = ("Heat-2D", "Box-2D9P", "Box-2D49P")


def test_fp16_error_growth(benchmark, write_result):
    def sweep_all():
        return {
            name: precision_sweep(
                get_kernel(name).weights, grid_shape=(64, 64), steps=(1, 4, 8)
            )
            for name in KERNELS
        }

    results = benchmark.pedantic(sweep_all, rounds=1, iterations=1)
    rows = [["kernel", "steps", "max |err|", "rel L2 err"]]
    for name, pts in results.items():
        for p in pts:
            rows.append(
                [name, str(p.step), f"{p.max_abs_err:.3e}", f"{p.rel_l2_err:.3e}"]
            )
    text = format_table(
        rows, "FP16 TCStencil-style pipeline vs FP64 reference trajectory"
    )
    text += (
        "\n\nLoRAStencil's FP64 path is exact to ~1e-15 on the same "
        "trajectories (see tests); TCStencil's FP16 path cannot be."
    )
    write_result("precision_fp16", text)

    for pts in results.values():
        for p in pts:
            assert 1e-7 < p.rel_l2_err < 5e-2


def test_fp16_range_overflow_on_amplifying_kernel(benchmark, write_result):
    """Box-2D49P's weights sum to ~4.4, so the field grows each sweep;
    by ~16 steps it exceeds FP16's 65504 range and the TCStencil-style
    pipeline saturates to inf/NaN while the FP64 trajectory stays
    finite — the *range* half of the paper's precision argument."""
    import warnings

    w = get_kernel("Box-2D49P").weights

    def sweep():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return precision_sweep(w, grid_shape=(64, 64), steps=(8, 16))

    pts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    finite_at_8 = np.isfinite(pts[0].max_abs_err)
    overflow_at_16 = not np.isfinite(pts[1].max_abs_err)
    write_result(
        "precision_fp16_overflow",
        "Box-2D49P (weight sum ~4.4, amplifying):\n"
        f"  step  8: max |err| = {pts[0].max_abs_err:.3e} (finite: {finite_at_8})\n"
        f"  step 16: max |err| = {pts[1].max_abs_err} "
        f"(FP16 range overflow: {overflow_at_16})\n"
        "FP64 LoRAStencil remains finite and exact on the same trajectory.",
    )
    assert finite_at_8
    assert overflow_at_16


def test_single_sweep_error_comparison(benchmark, write_result):
    """One sweep head-to-head: FP64 plan vs FP16 pipeline."""
    rng = np.random.default_rng(0)
    w = get_kernel("Box-2D49P").weights
    x = rng.normal(size=(64 + 6, 64 + 6))
    ref = reference_apply(x, w)
    lora = compile_stencil(w)
    tcs = TCStencilFP16(w)

    out16 = benchmark(tcs.apply, x)
    out64 = lora.apply(x)
    err64 = np.abs(out64 - ref).max()
    err16 = np.abs(out16 - ref).max()
    write_result(
        "precision_single_sweep",
        f"Box-2D49P single sweep max |err| vs reference:\n"
        f"  LoRAStencil (FP64): {err64:.3e}\n"
        f"  TCStencil   (FP16): {err16:.3e}\n"
        f"  gap: {err16 / max(err64, 1e-300):.1e}x",
    )
    assert err64 < 1e-12
    assert err16 > 1e-5
