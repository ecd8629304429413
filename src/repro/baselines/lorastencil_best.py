"""LoRAStencil-Best: the rank-1 upper bound of Fig. 8.

Fig. 8's caption defines LoRAStencil-Best as "the performance of
LoRAStencil when the original weight matrix is a rank-1 matrix": the
whole kernel collapses to a single ``U X V`` chain (one RDG pass, no
pyramid), the cheapest point of the method's design space.

This adapter swaps each benchmark kernel's weights for a deterministic
rank-1 separable kernel of the *same radius* (the outer product of a
symmetric vector with itself — e.g. a separable binomial smoother) and
reuses the standard plans, so every structural choice (fusion policy,
tiling, blocking) matches plain LoRAStencil and only the rank changes.

The rank collapse is directly visible in the lowered artifact: the Best
plan's tile program (``method.program``, see
:mod:`repro.core.lowering`) carries a single ``U X V`` MMA chain, so
its instruction count lower-bounds every same-radius LoRAStencil plan's.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.lorastencil import LoRAStencilMethod
from repro.stencil.kernels import BenchmarkKernel
from repro.stencil.patterns import Shape, StencilPattern
from repro.stencil.weights import StencilWeights

__all__ = ["LoRAStencilBestMethod", "rank1_weights_like"]


def _binomial_vector(radius: int) -> np.ndarray:
    """Symmetric positive vector (normalized binomial coefficients)."""
    v = np.array([1.0])
    for _ in range(2 * radius):
        v = np.convolve(v, [0.5, 0.5])
    return v


def rank1_weights_like(weights: StencilWeights) -> StencilWeights:
    """The rank-1 variant of a kernel, preserving its plane structure.

    * 1D: unchanged shape (1D kernels are single-gather anyway);
    * 2D: ``u (x) u`` with the binomial vector — exactly rank 1;
    * 3D: each multi-point plane of the original kernel is replaced by
      the rank-1 ``u (x) u`` plane; single-point planes (the CUDA-core
      planes of star kernels, Alg. 2) keep their single weight — so the
      Best variant improves the *rank*, not the kernel's plane split.
    """
    h, ndim = weights.radius, weights.ndim
    if ndim == 1:
        # 1D has no residual dimension: every 1D kernel already runs as
        # a single gather, so its Best variant is itself
        return weights
    u = _binomial_vector(h)
    if ndim == 2:
        return StencilWeights(
            StencilPattern(Shape.BOX, h, 2), np.multiply.outer(u, u)
        )

    plane_rank1 = np.multiply.outer(u, u)
    arr = np.array(weights.array, copy=True)
    for i in range(weights.side):
        if np.count_nonzero(arr[i]) > 1:
            scale = float(arr[i].sum()) or 1.0
            arr[i] = plane_rank1 * scale
    return StencilWeights(StencilPattern(Shape.BOX, h, ndim), arr)


class LoRAStencilBestMethod(LoRAStencilMethod):
    """LoRAStencil bound to the rank-1 variant of a benchmark kernel."""

    name = "LoRAStencil-Best"

    def __init__(self, kernel: BenchmarkKernel, config=None) -> None:
        best_kernel = BenchmarkKernel(
            name=kernel.name,
            weights=rank1_weights_like(kernel.weights),
            problem_size=kernel.problem_size,
            iterations=kernel.iterations,
            blocking=kernel.blocking,
        )
        super().__init__(best_kernel, config=config)
