"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG, fresh per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def rng2() -> np.random.Generator:
    """A second independent deterministic RNG."""
    return np.random.default_rng(0xBEEF)


def assert_same_bits(a, b) -> None:
    """Assert two float64 grids are byte-identical, sign of zero included.

    ``np.array_equal`` treats ``-0.0 == +0.0``; the bit-identity
    contracts between backends are about the bytes, so compare the
    ``uint64`` views.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    assert a.shape == b.shape, f"shape {a.shape} != {b.shape}"
    differ = a.view(np.uint64) != b.view(np.uint64)
    assert not differ.any(), f"{int(differ.sum())} elements differ in bits"
