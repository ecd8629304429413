"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config) -> None:
    """Keep the suite warning-clean under the engine deprecation shims.

    Many existing tests construct ``LoRAStencil{1,2,3}D`` directly or
    import ``repro.core.decompose``; both now emit a
    ``DeprecationWarning`` pointing at ``repro.compile``.  That guidance
    is for downstream users — in this suite direct construction is
    intentional coverage of the compatibility surface, so the specific
    warning (matched on the "repro.compile" hint in its message) is
    filtered.  Tests that assert the warnings fire use ``pytest.warns``,
    which overrides the filter locally.
    """
    config.addinivalue_line(
        "filterwarnings", r"ignore:.*repro\.compile.*:DeprecationWarning"
    )


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
