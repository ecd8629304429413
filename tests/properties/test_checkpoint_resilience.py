"""Property suite: checkpoint/resume is bit-identical and the halo
ledger reconciles for any mesh x tiling x kill-round combination."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.checkpoint import (
    CheckpointConfig,
    CheckpointHalt,
    list_checkpoints,
    load_checkpoint,
)
from repro.parallel.cluster import ClusterRuntime
from repro.parallel.halo import halo_bytes_counter
from repro.parallel.plan import distribute
from repro.stencil.kernels import get_kernel

import pytest


@st.composite
def resume_cases(draw):
    mesh = draw(st.sampled_from([(2, 1), (1, 2), (2, 2), (3, 1)]))
    tiling = draw(st.sampled_from(["trapezoid", "diamond"]))
    block_steps = draw(st.integers(min_value=1, max_value=3))
    steps = draw(st.integers(min_value=block_steps + 1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rounds = -(-steps // block_steps)
    kill_round = draw(st.integers(min_value=0, max_value=rounds - 1))
    return mesh, tiling, block_steps, steps, seed, kill_round


class TestCheckpointResumeProperties:
    @given(case=resume_cases())
    @settings(max_examples=20, deadline=None)
    def test_resume_bit_identical_and_ledger_balanced(self, case, tmp_path_factory):
        mesh, tiling, block_steps, steps, seed, kill_round = case
        w = get_kernel("Heat-2D").weights
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(18, 18))
        plan = distribute(
            w, x.shape, mesh, block_steps=block_steps, tiling=tiling
        )
        baseline = ClusterRuntime(plan).run(x, steps)

        ckdir = str(
            tmp_path_factory.mktemp("ck")
        )
        try:
            ClusterRuntime(plan).run(
                x, steps,
                checkpoint=CheckpointConfig(
                    dir=ckdir, halt_after=kill_round
                ),
            )
            # kill_round was the final round: nothing left to resume,
            # but the snapshot must still replay to the same bits
        except CheckpointHalt:
            pass
        assert kill_round in list_checkpoints(ckdir)

        ckpt = load_checkpoint(ckdir, kill_round)
        before = halo_bytes_counter().value
        resumed = ClusterRuntime(plan).run(x, steps, resume_from=ckpt)
        grown = halo_bytes_counter().value - before
        assert np.array_equal(resumed.field, baseline.field)
        assert resumed.exchanged_bytes == baseline.exchanged_bytes
        # three-ledger reconciliation: per-round log vs total vs resumed
        assert sum(
            e["halo_bytes"] for e in resumed.round_log
        ) == resumed.exchanged_bytes
        assert resumed.resumed_halo_bytes <= resumed.exchanged_bytes
        assert grown == resumed.exchanged_bytes - resumed.resumed_halo_bytes

    @given(
        executor=st.sampled_from(["serial", "thread"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_executors_resume_identically(
        self, executor, seed, tmp_path_factory
    ):
        w = get_kernel("Heat-2D").weights
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(16, 16))
        plan = distribute(w, x.shape, (2, 2), block_steps=2)
        baseline = ClusterRuntime(plan).run(x, 6, executor=executor).field

        ckdir = str(tmp_path_factory.mktemp("ck"))
        with pytest.raises(CheckpointHalt):
            ClusterRuntime(plan).run(
                x, 6, executor=executor,
                checkpoint=CheckpointConfig(dir=ckdir, halt_after=0),
            )
        resumed = ClusterRuntime(plan).run(
            x, 6, executor=executor, resume_from=ckdir
        )
        assert np.array_equal(resumed.field, baseline)
