"""Fig. 8 reproduction: GStencil/s + speedups, 8 kernels x 7 methods.

``test_fig8_full_table`` regenerates the whole figure (both bar heights
and the speedup axis) and the Section V-B mean-speedup sentences;
the per-method benchmarks time the underlying simulated sweeps that feed
the model.
"""

from __future__ import annotations

import pytest

from repro.baselines.registry import get_method
from repro.experiments.fig8 import run_fig8
from repro.experiments.paper import PAPER
from repro.experiments.report import format_table
from repro.stencil.kernels import get_kernel, list_kernels


def test_fig8_full_table(benchmark, write_result):
    result = benchmark.pedantic(
        run_fig8, kwargs={"include_best": True}, rounds=1, iterations=1
    )

    lines = [format_table(result.table_rows(), "Fig. 8 — modelled GStencil/s"), ""]
    lines.append("Mean LoRAStencil speedup (paper-reported in parentheses):")
    for method, paper_mean in PAPER["fig8_mean_speedup"].items():
        mean = result.mean_lora_speedup_over(method)
        mn, mx = result.minmax_lora_speedup_over(method)
        lines.append(
            f"  vs {method:12s}: mean {mean:6.2f}x  min {mn:5.2f}x  "
            f"max {mx:5.2f}x   (paper mean {paper_mean}x)"
        )
    text = "\n".join(lines)
    write_result("fig8_comparison", text)

    from repro.experiments.svg import grouped_bar_chart

    kernels = list_kernels()
    series = {
        m: [result.perf(k, m) for k in kernels]
        for m in list(PAPER["fig8_mean_speedup"])
        + ["LoRAStencil", "LoRAStencil-Best"]
    }
    svg = grouped_bar_chart(
        kernels, series, title="Fig. 8 — modelled GStencil/s",
        ylabel="GStencil/s",
    )
    write_result("fig8_comparison_chart", svg)

    # shape assertions: LoRAStencil wins every kernel; ordering holds,
    # and the rank-1 "Best" series bounds it from above (Fig. 8 caption)
    for kernel in list_kernels():
        lora = result.perf(kernel, "LoRAStencil")
        for method in PAPER["fig8_mean_speedup"]:
            assert lora >= result.perf(kernel, method), (kernel, method)
        assert result.perf(kernel, "LoRAStencil-Best") >= lora - 1e-9, kernel
    benchmark.extra_info["mean_speedup_vs_convstencil"] = round(
        result.mean_lora_speedup_over("ConvStencil"), 3
    )


@pytest.mark.parametrize("kernel", ["Box-2D9P", "Box-2D49P", "Star-2D13P"])
def test_lorastencil_simulated_sweep(benchmark, kernel):
    """Wall-clock of one warp-level LoRAStencil sweep on the simulator."""
    method = get_method("LoRAStencil", get_kernel(kernel))
    out, counters = benchmark(method.simulated_sweep, (64, 64))
    assert out.shape == (64, 64)
    benchmark.extra_info["mma_per_point"] = round(
        counters.mma_ops / out.size, 4
    )


@pytest.mark.parametrize("kernel", ["Box-2D49P"])
def test_convstencil_simulated_sweep(benchmark, kernel):
    """Wall-clock of one stencil2row ConvStencil sweep on the simulator."""
    import numpy as np

    k = get_kernel(kernel)
    method = get_method("ConvStencil", k)
    rng = np.random.default_rng(0)
    h = method.engine.radius
    x = rng.normal(size=(64 + 2 * h, 64 + 2 * h))
    out, _ = benchmark(method.engine.apply_simulated, x)
    assert out.shape == (64, 64)


def test_functional_apply_throughput(benchmark):
    """Wall-clock of the functional (NumPy) LoRAStencil path — the fast
    path a downstream user runs real workloads with."""
    import numpy as np

    k = get_kernel("Box-2D49P")
    from repro.runtime import compile as compile_stencil

    eng = compile_stencil(k.weights)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1024 + 6, 1024 + 6))
    out = benchmark(eng.apply, x)
    assert out.shape == (1024, 1024)
