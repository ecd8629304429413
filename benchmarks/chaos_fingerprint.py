"""Timing-free fingerprint of the ABFT fault campaigns of ``repro chaos run``.

One line per campaign: the fault report, the multiset of logged event
kinds with their fields, the injected sweep's counters and the SHA-256
of its output (or the ``FaultError`` it raised).  Printing it on two
checkouts and diffing the outputs checks that a change to the
verification or recovery path kept every fault decision, counter and
output bit::

    PYTHONPATH=src python benchmarks/chaos_fingerprint.py > after.txt

The campaigns are the CI chaos runs (same kernel, size, seed and fault
count as ``repro chaos run``), ragged grids whose edge tiles overhang
the interior, a sharded run, a negative control without verification
and a sticky campaign that exhausts the recovery ladder.
"""

import collections
import hashlib
import json

import numpy as np

from repro import telemetry
from repro.cli import _sweep_shape
from repro.errors import FaultError
from repro.faults import FaultPlan
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel

#: (kernel, size, seed, faults, options) as ``repro chaos run`` takes them
CAMPAIGNS = (
    ("Box-2D9P", 48, 1, 4, {}),
    ("1D5P", 48, 2, 4, {}),
    ("Heat-3D", 24, 3, 3, {}),
    ("Box-2D9P", 48, 4, 4, {"shards": 3}),
    ("Box-2D9P", 48, 7, 3, {}),
    ("Box-2D9P", 48, 1, 4, {"verify": False}),
    ("Box-2D49P", 45, 5, 4, {}),
    ("1D5P", 1000, 6, 4, {}),
    ("Heat-3D", 13, 8, 4, {}),
    ("Star-2D13P", 37, 9, 4, {"sticky": True}),
)


def _campaign(name, size, seed, count, shards=1, verify=True, sticky=False):
    k = get_kernel(name)
    compiled = compile_stencil(k.weights)
    shape = _sweep_shape(k.weights.ndim, size)
    x = np.pad(np.random.default_rng(seed).normal(size=shape), k.weights.radius)
    plan = FaultPlan.random(
        seed=seed,
        count=count,
        max_mma_site=max(4, compiled.plan.mma_per_tile) * 4,
        shards=shards,
        sticky=sticky,
    )
    doc = {"output": None, "counters": None, "fault_error": None}
    with telemetry.capture():
        try:
            out, events = compiled.apply_simulated(
                x, shards=shards, verify="abft" if verify else None, faults=plan
            )
            doc["output"] = hashlib.sha256(out.tobytes()).hexdigest()
            doc["counters"] = events.as_dict()
        except FaultError as exc:
            doc["fault_error"] = str(exc)
        doc["events"] = sorted(
            collections.Counter(
                json.dumps([e.kind, e.fields], sort_keys=True, default=str)
                for e in telemetry.EVENT_LOG.events()
            ).items()
        )
    doc["faults"] = compiled.last_fault_report.as_dict()
    return doc


def main():
    for name, size, seed, count, options in CAMPAIGNS:
        label = f"{name}/size={size}/seed={seed}/faults={count}"
        label += "".join(f"/{k}={v}" for k, v in sorted(options.items()))
        doc = _campaign(name, size, seed, count, **options)
        print(label, json.dumps(doc, sort_keys=True, default=str))


if __name__ == "__main__":
    main()
