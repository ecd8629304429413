"""The FP64 m8n8k4 MMA in one fixed arithmetic order (paper Section III).

Each element of ``D = C + A @ B`` is computed as
``((((+0.0 + a0*b0) + a1*b1) + a2*b2) + a3*b3) + c`` with elementwise
NumPy operations, never a BLAS call, so the bits do not depend on the
host.  The ``+0.0`` seed means no partial sum is ever ``-0.0`` (a sum
is ``-0.0`` only when both operands are), so adding a ``+-0.0`` product
of a zero coefficient changes nothing, sign bits included, for finite
products.  Skipping such products is therefore exact, which the
whole-grid ``vectorized`` backend relies on.  ``docs/simulator.md``
states the full contract.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MMA_ORDER_VERSION", "mma_m8n8k4"]

#: Version of the order above.  Checkpoints record it and refuse to
#: resume across a change: with bits independent of the BLAS, it is the
#: numerics identity a resumed run must share with the run it continues.
MMA_ORDER_VERSION = 1


def mma_m8n8k4(
    a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None
) -> np.ndarray:
    """``D = C + A @ B`` for an 8x4 ``a``, a 4x8 ``b`` and an 8x8
    accumulator ``c`` (``None``: a fresh one), in the fixed order."""
    # products[k] = A[:, k] (x) B[k, :]
    products = a.T[:, :, None] * b[:, None, :]
    d = products[0] + 0.0
    d += products[1]
    d += products[2]
    d += products[3]
    if c is not None:
        d += c
    return d
