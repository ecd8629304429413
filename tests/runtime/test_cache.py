"""PlanCache behaviour: hits, misses, eviction, and no re-compilation."""

import threading
from unittest import mock

import numpy as np
import pytest

from repro import core
from repro.runtime import PlanCache, build_plan
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel


def _plan_for(value: float):
    return build_plan(np.full((3, 3), value))


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(maxsize=4)
        plan = _plan_for(0.1)
        assert cache.get(plan.key) is None
        cache.put(plan)
        assert cache.get(plan.key) is plan
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_contains_and_len(self):
        cache = PlanCache(maxsize=4)
        plan = _plan_for(0.1)
        cache.put(plan)
        assert plan.key in cache
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2)
        a, b, c = _plan_for(0.1), _plan_for(0.2), _plan_for(0.3)
        cache.put(a)
        cache.put(b)
        cache.get(a.key)  # refresh a: b becomes LRU
        cache.put(c)
        assert a.key in cache and c.key in cache
        assert b.key not in cache
        assert cache.stats().evictions == 1

    def test_get_or_build_builds_once(self):
        cache = PlanCache(maxsize=4)
        plan = _plan_for(0.1)
        calls = []

        def builder():
            calls.append(1)
            return plan

        assert cache.get_or_build(plan.key, builder) is plan
        assert cache.get_or_build(plan.key, builder) is plan
        assert len(calls) == 1

    def test_get_or_build_rejects_wrong_key(self):
        cache = PlanCache(maxsize=4)
        with pytest.raises(ValueError):
            cache.get_or_build("not-the-key", lambda: _plan_for(0.1))

    def test_clear_resets(self):
        cache = PlanCache(maxsize=4)
        cache.put(_plan_for(0.1))
        cache.get("missing")
        cache.clear()
        stats = cache.stats()
        assert len(cache) == 0
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_hit_rate_zero_lookups(self):
        """A never-used cache reports 0.0, not ZeroDivisionError."""
        stats = PlanCache(maxsize=4).stats()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0
        assert "hit rate 0%" in stats.summary()

    def test_concurrent_get_or_build_loses_no_stats(self):
        """Threads hammering one key: every lookup lands in hits+misses,
        and the cache converges on a single plan for the key."""
        cache = PlanCache(maxsize=4)
        plan = _plan_for(0.1)
        per_thread, n_threads = 25, 8
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                got = cache.get_or_build(plan.key, lambda: _plan_for(0.1))
                assert got.key == plan.key

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        assert stats.lookups == per_thread * n_threads
        # racing threads may each build the missing key (benign, by
        # design), but misses can never outnumber the racers
        assert 1 <= stats.misses <= n_threads
        assert stats.hits == stats.lookups - stats.misses
        assert len(cache) == 1


class TestCompileCaching:
    def test_second_compile_skips_decomposition(self):
        """A cache hit must not re-run the low-rank decomposition."""
        w = get_kernel("Box-2D49P").weights
        cache = PlanCache(maxsize=8)
        real = core.lowrank.decompose
        with mock.patch.object(
            core.lowrank, "decompose", side_effect=real
        ) as spy:
            # the lowering pipeline resolves `decompose` at import time,
            # so patch its module-level reference too
            with mock.patch.object(
                core.lowering, "decompose", side_effect=real
            ) as engine_spy:
                first = compile_stencil(w, cache=cache)
                calls_after_first = spy.call_count + engine_spy.call_count
                assert calls_after_first >= 1
                second = compile_stencil(w, cache=cache)
                assert (
                    spy.call_count + engine_spy.call_count == calls_after_first
                )
        assert second.plan is first.plan

    def test_distinct_inputs_miss(self):
        cache = PlanCache(maxsize=8)
        a = compile_stencil(get_kernel("Heat-2D").weights, cache=cache)
        b = compile_stencil(get_kernel("Box-2D9P").weights, cache=cache)
        assert a.plan is not b.plan
        assert cache.stats().misses == 2

    def test_cache_none_compiles_fresh(self):
        w = get_kernel("Heat-2D").weights
        a = compile_stencil(w, cache=None)
        b = compile_stencil(w, cache=None)
        assert a.plan is not b.plan
        assert a.plan.key == b.plan.key
