"""Extended kernel zoo (beyond Table II).

The paper's claim "we implement these techniques and generalize them on
various kernels" is exercised here: higher-order and less common shapes
that stress every code path —

* ``1D7P`` — order-3 1D (wider k-dimension in the 1D tile);
* ``Star-2D9P`` — order-2 star (SVD route, rank 3);
* ``Box-2D25P`` — order-2 box (PMA with a 3-level pyramid);
* ``Box-2D81P`` — order-4 box: the radius the paper's Eq. 14 quotes
  4.2x for, and the largest kernel a single 16x16 window serves;
* ``Star-3D13P`` — order-2 3D star (two single-point planes per side);
* ``Box-3D125P`` — order-2 3D box (five 5x5 PMA planes).

These are registered separately from :data:`repro.stencil.kernels.KERNELS`
so the Fig. 8 reproduction stays exactly the paper's Table II line-up.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelNotFoundError
from repro.stencil.kernels import BenchmarkKernel
from repro.stencil.weights import radially_symmetric_weights, star_weights

__all__ = ["EXTENDED_KERNELS", "get_extended_kernel"]


def _1d7p():
    a, b, c = 0.02, 0.1, 0.25
    vals = np.array([a, b, c, 1.0 - 2 * (a + b + c), c, b, a])
    from repro.stencil.patterns import Shape, StencilPattern
    from repro.stencil.weights import StencilWeights

    return StencilWeights(StencilPattern(Shape.STAR, 3, 1), vals)


def _star_2d9p():
    w1, w2 = 0.12, 0.03
    axis = np.array([[w2, w1, w1, w2]] * 2)
    return star_weights(2, 2, axis_values=axis, center=1.0 - 4 * (w1 + w2))


def _box_2d25p():
    classes = {}
    for i in range(3):
        for j in range(i, 3):
            classes[(i, j)] = 0.4 / (1.0 + i * i + j * j)
    return radially_symmetric_weights(2, 2, class_values=classes)


def _box_2d81p():
    classes = {}
    for i in range(5):
        for j in range(i, 5):
            classes[(i, j)] = 0.3 / (1.0 + i * i + j * j)
    return radially_symmetric_weights(4, 2, class_values=classes)


def _star_3d13p():
    w1, w2 = 0.07, 0.015
    axis = np.array([[w2, w1, w1, w2]] * 3)
    return star_weights(2, 3, axis_values=axis, center=1.0 - 6 * (w1 + w2))


def _box_3d125p():
    classes = {}
    for i in range(3):
        for j in range(i, 3):
            for k in range(j, 3):
                classes[(i, j, k)] = 0.2 / (1.0 + i * i + j * j + k * k)
    return radially_symmetric_weights(2, 3, class_values=classes)


def _build() -> dict[str, BenchmarkKernel]:
    entries = [
        BenchmarkKernel("1D7P", _1d7p(), (10_240_000,), 10_000, (1024,)),
        BenchmarkKernel("Star-2D9P", _star_2d9p(), (10_240, 10_240), 10_240, (32, 64)),
        BenchmarkKernel("Box-2D25P", _box_2d25p(), (10_240, 10_240), 10_240, (32, 64)),
        BenchmarkKernel("Box-2D81P", _box_2d81p(), (10_240, 10_240), 10_240, (32, 64)),
        BenchmarkKernel("Star-3D13P", _star_3d13p(), (1024, 1024, 1024), 1024, (8, 64)),
        BenchmarkKernel("Box-3D125P", _box_3d125p(), (1024, 1024, 1024), 1024, (8, 64)),
    ]
    return {k.name: k for k in entries}


EXTENDED_KERNELS: dict[str, BenchmarkKernel] = _build()


def get_extended_kernel(name: str) -> BenchmarkKernel:
    """Look up an extended-zoo kernel by name (case-insensitive)."""
    for key, kernel in EXTENDED_KERNELS.items():
        if key.lower() == name.lower():
            return kernel
    raise KernelNotFoundError(
        f"unknown extended kernel {name!r}; available: {sorted(EXTENDED_KERNELS)}"
    )
