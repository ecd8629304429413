"""Output bits pinned across hosts.

The MMA runs in one fixed FP64 order (``repro.tcu.mma``) and SVD terms
come from a fixed-order Jacobi sweep, so no output bit depends on how
the installed BLAS orders a small product.  These SHA-256 digests of
seeded sweeps must therefore hold on every host and BLAS kernel; CI
runs this file twice, once with ``OPENBLAS_CORETYPE=Prescott``.

A digest changes only when the arithmetic does.  That must come with a
new ``MMA_ORDER_VERSION`` (checkpoints then refuse to resume across
it) and new digests here.
"""

import hashlib

import numpy as np
import pytest

import repro
from repro.tcu.mma import MMA_ORDER_VERSION

#: (kernel, interior shape) -> SHA-256 of the output grid's bytes
PINNED = {
    ("Heat-1D", (200,)): (
        "35edf95ea198e7560affb6ec58b635be3b050ba75c058cd2e7fe52db6e09346c"
    ),
    ("Box-2D9P", (40, 40)): (
        "562b84b1eeecf4b86e9ab7b7e594325b109d52f91695574e560f7901ef0d66c4"
    ),
    ("Box-2D49P", (40, 40)): (
        "cb064710b46cbfaf13a58cdcf04957654804faef0203744d991b51b7c337611f"
    ),
    ("Star-2D13P", (40, 40)): (
        "5291df1353da8210505f6e5f41a82db5d88055a5eebc991c2dc942e31ff99b3f"
    ),
    ("Heat-3D", (6, 20, 20)): (
        "71a4495eee72de0c80853d340cc94cc8ada760b209d50a3e914320bb2a7a20ee"
    ),
}


def _digest(kernel: str, shape: tuple[int, ...], backend: str) -> str:
    weights = repro.get_kernel(kernel).weights
    x = np.random.default_rng(12).standard_normal(shape)
    compiled = repro.compile(weights, cache=None)
    out, _ = compiled.apply_simulated(
        np.pad(x, weights.radius), backend=backend
    )
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


def test_digests_are_for_this_mma_order():
    assert MMA_ORDER_VERSION == 1


@pytest.mark.parametrize("backend", ["interpreter", "vectorized"])
@pytest.mark.parametrize(
    "kernel,shape", list(PINNED), ids=[k for k, _ in PINNED]
)
def test_output_digest_pinned(kernel, shape, backend):
    assert _digest(kernel, shape, backend) == PINNED[(kernel, shape)]
