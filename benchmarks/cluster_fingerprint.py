"""Timing-free fingerprint of ``ClusterRuntime.run`` over a config matrix.

One line per configuration: the field hash, phases, round log, halo
bytes, resilience and fault ledgers, counters, the observatory's
``halo`` section and the span-name multiset of the run.  Printing it
on two checkouts and diffing the outputs checks that a change to the
cluster runtime kept every output bit, ledger and lane::

    PYTHONPATH=src python benchmarks/cluster_fingerprint.py > after.txt

The matrix: 1D/2D/3D x serial/thread/process x overlap x block_steps
1 and 3 (a ragged round), simulated sweeps on two backends, halo
corruption with retransmission, shard and rank crashes, elastic
re-plans, and a checkpoint halt followed by a resume.
"""

import collections
import hashlib
import json
import shutil
import tempfile

import numpy as np

from repro import telemetry
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy
from repro.parallel.checkpoint import CheckpointConfig, CheckpointHalt
from repro.parallel.cluster import ClusterRuntime
from repro.parallel.plan import distribute
from repro.stencil.kernels import get_kernel

POLICY = RecoveryPolicy(
    shard_timeout_s=20.0, shard_retries=2, backoff_base_s=0.001,
    backoff_cap_s=0.01,
)
SETUPS = {
    1: ("Heat-1D", (64,), (2,)),
    2: ("Heat-2D", (16, 16), (2, 2)),
    3: ("Heat-3D", (12, 12, 12), (2, 1, 1)),
}


def _setup(ndim, block_steps):
    name, shape, mesh = SETUPS[ndim]
    w = get_kernel(name).weights
    x = np.random.default_rng(ndim).normal(size=shape)
    return distribute(w, shape, mesh, block_steps=block_steps), x


def _fingerprint(label, result, tracer):
    doc = {
        "field": hashlib.sha256(result.field.tobytes()).hexdigest()[:16],
        "phases": list(result.phases),
        "round_log": list(result.round_log),
        "exchanged_bytes": result.exchanged_bytes,
        "resumed_halo_bytes": result.resumed_halo_bytes,
        "resilience": result.resilience,
        "faults": (
            result.fault_report.as_dict()
            if result.fault_report is not None else None
        ),
        "counters": (
            result.counters.as_dict() if result.counters is not None else None
        ),
    }
    report = result.report(tracer=tracer)
    doc["halo"] = report["halo"]
    run = next(
        s for root in tracer.roots() for s in root.walk()
        if s.name == "cluster.run" and s.trace_id == result.trace_id
    )
    doc["spans"] = sorted(
        collections.Counter(s.name for s in run.walk()).items()
    )
    print(label, json.dumps(doc, sort_keys=True, default=str))


def _run(label, ndim, steps, block_steps=1, **kwargs):
    plan, x = _setup(ndim, block_steps)
    with telemetry.capture() as tracer:
        result = ClusterRuntime(plan).run(x, steps, **kwargs)
    _fingerprint(label, result, tracer)


def main():
    for ndim in (1, 2, 3):
        for executor in ("serial", "thread", "process"):
            for overlap in (False, True):
                for bs in (1, 3):
                    _run(
                        f"{ndim}d/{executor}/overlap={overlap}/bs={bs}",
                        ndim, 4, bs, executor=executor, overlap=overlap,
                    )
    for backend in ("interpreter", "vectorized"):
        for overlap in (False, True):
            _run(
                f"simulate/{backend}/overlap={overlap}", 2, 4, 3,
                simulate=True, backend=backend, overlap=overlap,
            )
    _run("simulate/process", 2, 2, 1, simulate=True, executor="process")
    for executor in ("serial", "thread", "process"):
        _run(
            f"halo_corrupt/{executor}", 2, 6, 3, executor=executor,
            faults=FaultPlan(specs=(FaultSpec(kind="halo_corrupt", site=1),)),
            policy=POLICY,
        )
        _run(
            f"shard_crash/{executor}", 2, 4, 1, executor=executor,
            faults=FaultPlan(specs=(FaultSpec(kind="shard_crash", site=1),)),
            policy=POLICY,
        )
        _run(
            f"rank_crash+elastic/{executor}", 2, 6, 3, executor=executor,
            faults=FaultPlan(
                specs=(FaultSpec(kind="rank_crash", site=1, sticky=True),)
            ),
            policy=POLICY, elastic=True,
        )
    _run(
        "halo_corrupt_sticky+elastic", 2, 6, 3,
        faults=FaultPlan(
            specs=(FaultSpec(kind="halo_corrupt", site=1, shard=2,
                             sticky=True),)
        ),
        policy=POLICY, elastic=True,
    )
    for executor in ("serial", "process"):
        tmp = tempfile.mkdtemp()
        try:
            plan, x = _setup(2, 3)
            faults = FaultPlan(specs=(FaultSpec(kind="halo_corrupt", site=0),))
            with telemetry.capture():
                try:
                    ClusterRuntime(plan).run(
                        x, 9, executor=executor, faults=faults,
                        policy=POLICY,
                        checkpoint=CheckpointConfig(dir=tmp, halt_after=1),
                    )
                except CheckpointHalt:
                    pass
            with telemetry.capture() as tracer:
                result = ClusterRuntime(plan).run(
                    x, 9, executor=executor, faults=faults, policy=POLICY,
                    resume_from=tmp,
                )
            _fingerprint(f"halt+resume/{executor}", result, tracer)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
