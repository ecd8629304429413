"""Halo-exchange and rank chaos: every new fault kind is injected,
detected at tolerance 0, and recovered to the fault-free bits."""

import numpy as np
import pytest

from repro.errors import FaultError
from repro.faults import (
    HALO_KINDS,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    halo_frame_checksums,
)
from repro.faults.supervisor import backoff_delay
from repro.parallel.cluster import ClusterRuntime
from repro.parallel.halo import halo_bytes_counter
from repro.parallel.plan import distribute
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_iterate

FAST_POLICY = RecoveryPolicy(
    shard_timeout_s=20.0, shard_retries=2, backoff_base_s=0.001,
    backoff_cap_s=0.01,
)


def _run_pair(rng, faults, *, steps=9, policy=FAST_POLICY, **kwargs):
    """(clean field, faulted result) for one Heat-2D 2x2 sweep."""
    w = get_kernel("Heat-2D").weights
    x = rng.normal(size=(24, 24))
    plan = distribute(w, x.shape, (2, 2), block_steps=3)
    clean = ClusterRuntime(plan).run(x, steps).field
    before = halo_bytes_counter().value
    result = ClusterRuntime(plan).run(
        x, steps, faults=faults, policy=policy, **kwargs
    )
    # retransmits and aborted elastic attempts are real traffic: the
    # exported counter grows by exactly the run's ledger
    grown = halo_bytes_counter().value - before
    assert grown == result.exchanged_bytes - result.resumed_halo_bytes
    return clean, result


class TestHaloChecksum:
    def test_matches_are_exact(self, rng):
        window = rng.normal(size=(10, 12))
        assert halo_frame_checksums(window, 2) == halo_frame_checksums(
            window.copy(), 2
        )

    def test_zero_depth_empty(self, rng):
        assert halo_frame_checksums(rng.normal(size=(6, 6)), 0) == ()

    def test_exponent_bit_flip_detected(self, rng):
        from repro.faults import DEFAULT_FLIP_BIT, flip_float64_bit

        window = rng.normal(size=(10, 12))
        before = halo_frame_checksums(window, 1)
        corrupted = window.copy()
        corrupted[0, 3] = flip_float64_bit(
            corrupted[0, 3], DEFAULT_FLIP_BIT
        )
        assert halo_frame_checksums(corrupted, 1) != before


class TestHaloChaosMatrix:
    """One chaos case per halo fault kind: inject -> detect -> recover
    bit-identically, with the report ledger balanced."""

    @pytest.mark.parametrize("kind", HALO_KINDS)
    def test_kind_detected_and_recovered(self, kind, rng):
        faults = FaultPlan(
            specs=(FaultSpec(kind=kind, site=1, shard=2),)
        )
        clean, result = _run_pair(rng, faults)
        assert np.array_equal(result.field, clean)
        report = result.fault_report
        assert report.counts["halo_detections"] == 1
        assert report.counts["halo_retransmits"] == 1
        assert report.counts["halo_recoveries"] == 1
        assert report.counts["unrecovered"] == 0
        assert report.as_dict()["detected"]["halo"] == 1

    @pytest.mark.parametrize("kind", HALO_KINDS)
    def test_kind_under_overlap(self, kind, rng):
        """Halo verification forces the synchronous exchange path; the
        overlapped run still finishes bit-identically.

        Rank 2 sits at mesh position (1, 0): its leading frame strip is
        interior data, so every corruption kind actually perturbs bits
        (rank 1's leading strip is constant-boundary zeros, which a
        ``halo_drop`` would zero into themselves — undetectable because
        nothing changed).
        """
        faults = FaultPlan(
            specs=(FaultSpec(kind=kind, site=0, shard=2),)
        )
        clean, result = _run_pair(rng, faults, overlap=True)
        assert np.array_equal(result.field, clean)
        assert result.fault_report.counts["halo_recoveries"] == 1

    def test_sticky_halo_exhausts_ladder(self, rng):
        faults = FaultPlan(
            specs=(FaultSpec(kind="halo_corrupt", site=0, shard=1,
                             sticky=True),)
        )
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(24, 24))
        plan = distribute(w, x.shape, (2, 2), block_steps=3)
        with pytest.raises(FaultError):
            ClusterRuntime(plan).run(
                x, 9, faults=faults, policy=FAST_POLICY
            )

    def test_fault_free_guarded_run_matches_reference(self, rng):
        """Arming the guard without any fault firing must not perturb
        the trajectory (checksums verify at tolerance 0)."""
        faults = FaultPlan(
            specs=(FaultSpec(kind="halo_corrupt", site=99, shard=0),)
        )
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(24, 24))
        plan = distribute(w, x.shape, (2, 2), block_steps=3)
        result = ClusterRuntime(plan).run(
            x, 9, faults=faults, policy=FAST_POLICY
        )
        assert np.allclose(
            result.field, reference_iterate(x, w, 9), atol=1e-9
        )
        assert result.fault_report.counts["halo_detections"] == 0


class TestRankChaos:
    def test_rank_crash_recovers_via_supervisor(self, rng):
        faults = FaultPlan(specs=(FaultSpec(kind="rank_crash", site=1),))
        clean, result = _run_pair(rng, faults)
        assert np.array_equal(result.field, clean)
        report = result.fault_report
        assert report.counts["shard_crashes"] >= 1
        assert report.counts["unrecovered"] == 0

    def test_rank_hang_recovers(self, rng):
        faults = FaultPlan(
            specs=(FaultSpec(kind="rank_hang", site=2, hang_s=0.01),)
        )
        clean, result = _run_pair(rng, faults)
        assert np.array_equal(result.field, clean)

    def test_sticky_crash_without_elastic_raises(self, rng):
        faults = FaultPlan(
            specs=(FaultSpec(kind="rank_crash", site=1, sticky=True),)
        )
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(24, 24))
        plan = distribute(w, x.shape, (2, 2), block_steps=3)
        with pytest.raises(FaultError):
            ClusterRuntime(plan).run(
                x, 9, faults=faults, policy=FAST_POLICY
            )

    def test_sticky_crash_elastic_replans_bit_identically(self, rng):
        faults = FaultPlan(
            specs=(FaultSpec(kind="rank_crash", site=1, sticky=True),)
        )
        clean, result = _run_pair(rng, faults, elastic=True)
        assert np.array_equal(result.field, clean)
        report = result.fault_report
        assert report.counts["rank_reassignments"] == 1
        assert report.counts["unrecovered"] == 0
        assert result.resilience is not None
        assert result.resilience["reassignments"] == 1
        replan = result.resilience["replans"][0]
        assert replan["dead_rank"] == 1
        assert replan["old_mesh"] == [2, 2]
        assert sum(
            e["halo_bytes"] for e in result.round_log
        ) == result.exchanged_bytes

    def test_random_plan_with_rank_kinds_deterministic(self):
        a = FaultPlan.random(seed=11, count=6, ranks=4, max_round=3)
        b = FaultPlan.random(seed=11, count=6, ranks=4, max_round=3)
        assert a.specs == b.specs

    def test_random_plan_without_ranks_excludes_new_kinds(self):
        plan = FaultPlan.random(seed=3, count=12)
        assert all(
            s.kind not in HALO_KINDS + ("rank_crash", "rank_hang")
            for s in plan.specs
        )


class TestDeterministicBackoff:
    def test_same_inputs_same_delay(self):
        p = RecoveryPolicy(backoff_base_s=0.1, backoff_jitter=0.5)
        assert backoff_delay(p, 1, 3) == backoff_delay(p, 1, 3)

    def test_tasks_decorrelated(self):
        p = RecoveryPolicy(backoff_base_s=0.1, backoff_jitter=0.5)
        delays = {backoff_delay(p, 1, task) for task in range(8)}
        assert len(delays) == 8

    def test_seed_changes_schedule(self):
        a = RecoveryPolicy(backoff_base_s=0.1, backoff_jitter=0.5,
                           backoff_seed=0)
        b = RecoveryPolicy(backoff_base_s=0.1, backoff_jitter=0.5,
                           backoff_seed=1)
        assert backoff_delay(a, 1, 0) != backoff_delay(b, 1, 0)

    def test_zero_jitter_is_pure_exponential(self):
        p = RecoveryPolicy(backoff_base_s=0.1, backoff_jitter=0.0)
        assert backoff_delay(p, 1, 0) == backoff_delay(p, 1, 7)

    def test_bounded_by_jitter_factor(self):
        p = RecoveryPolicy(backoff_base_s=0.1, backoff_jitter=0.5)
        base = RecoveryPolicy(backoff_base_s=0.1, backoff_jitter=0.0)
        for task in range(16):
            d = backoff_delay(p, 2, task)
            d0 = backoff_delay(base, 2, task)
            assert d0 <= d <= d0 * 1.5
