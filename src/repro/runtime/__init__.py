"""``repro.runtime`` — compile-once stencil plans and their executors.

The runtime separates the two phases of executing a stencil:

* **compile** (:func:`repro.runtime.compile`): derive everything grid-
  independent — PMA/SVD decomposition, banded ``U``/``V`` gather
  matrices, BVS row permutation, block schedule, predicted cost — into
  an immutable :class:`StencilPlan`, memoized by content hash in a
  :class:`PlanCache`;
* **execute** (:class:`Runtime` / :class:`CompiledStencil`): run that
  plan over one grid, a vectorized batch of grids, or shards of a grid
  with per-shard event-counter merging.

This is the layer production scaling work (multi-tenant serving, async
batching, multi-backend lowering) plugs into; see ``docs/runtime.md``.
"""

from repro.runtime.cache import CacheStats, PlanCache
from repro.runtime.executor import Runtime
from repro.runtime.facade import (
    DEFAULT_PLAN_CACHE,
    CompiledStencil,
    compile,
)
from repro.runtime.plan import StencilPlan, build_plan, canonical_weights, plan_key

__all__ = [
    "CacheStats",
    "PlanCache",
    "Runtime",
    "CompiledStencil",
    "DEFAULT_PLAN_CACHE",
    "compile",
    "StencilPlan",
    "build_plan",
    "canonical_weights",
    "plan_key",
]
