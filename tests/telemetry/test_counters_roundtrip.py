"""EventCounters algebra round-trips through the telemetry layer.

The observatory leans on three counter operations — ``snapshot``/
``diff`` (per-instruction deltas), ``__iadd__`` (profile aggregation)
and ``scaled`` (model extrapolation) — and on the MetricsRegistry
absorbing the results.  These tests pin the algebra: composing the
operations and absorbing the outcome must be indistinguishable from
absorbing the original, field for field.
"""

import numpy as np
import pytest

from repro.core.sweep import simulate
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel
from repro.tcu.counters import EventCounters
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.perf import InstrProfiler


@pytest.fixture()
def measured():
    """Real counters from a small Box-2D9P sweep (not synthetic)."""
    plan = compile_stencil(get_kernel("Box-2D9P").weights).plan
    rng = np.random.default_rng(0)
    padded = np.pad(rng.normal(size=(16, 16)), plan.radius)
    _, events = simulate(plan, padded, "interpreter")
    return events


class TestAlgebraRoundTrips:
    def test_diff_of_snapshot_recovers_delta(self, measured):
        base = measured.snapshot()
        base.mma_ops += 7
        base.global_load_bytes += 64
        delta = base.diff(measured)
        assert delta.mma_ops == 7
        assert delta.global_load_bytes == 64
        assert delta.shared_load_requests == 0

    def test_iadd_of_diffs_reassembles_total(self, measured):
        # split the total into two snapshots and re-accumulate
        half = measured.scaled(0.5)
        rest = measured.diff(half)
        total = EventCounters()
        total += half
        total += rest
        assert total.as_dict() == measured.as_dict()

    def test_scaled_roundtrip_is_exact_for_integers(self, measured):
        doubled = measured.scaled(2).scaled(0.5)
        assert doubled.as_dict() == measured.as_dict()

    def test_scaled_preserves_derived_quantities(self, measured):
        s = measured.scaled(3)
        assert s.dram_bytes == 3 * measured.dram_bytes
        assert s.tensor_core_flops == 3 * measured.tensor_core_flops


class TestRegistryAbsorption:
    def test_absorbing_reassembled_equals_absorbing_original(self, measured):
        direct, rebuilt = MetricsRegistry(), MetricsRegistry()
        direct.absorb_events(measured)
        half = measured.scaled(0.5)
        rebuilt.absorb_events(half)
        rebuilt.absorb_events(measured.diff(half))
        assert direct.snapshot() == rebuilt.snapshot()

    def test_absorbing_per_instruction_deltas_equals_sweep_total(self):
        plan = compile_stencil(get_kernel("Box-2D9P").weights).plan
        rng = np.random.default_rng(1)
        padded = np.pad(rng.normal(size=(16, 16)), plan.radius)

        profiler = InstrProfiler()
        _, events = simulate(plan, padded, "interpreter", profiler=profiler)

        from_total, from_parts = MetricsRegistry(), MetricsRegistry()
        from_total.absorb_events(events)
        for stats in profiler.by_op.values():
            from_parts.absorb_events(stats.events)
        from_parts.absorb_events(events.diff(profiler.program_events()))
        assert from_total.snapshot() == from_parts.snapshot()
