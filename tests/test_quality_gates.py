"""Repository-wide quality gates.

Meta-tests that keep the library production-shaped: every public item
documented, every module importable, functional paths actually
vectorized (no accidental per-point Python loops), and the public API
surface stable.
"""

import importlib
import inspect
import pkgutil
import time

import numpy as np

import repro


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


class TestDocumentation:
    def test_every_module_has_docstring(self):
        undocumented = [m.__name__ for m in ALL_MODULES if not m.__doc__]
        assert not undocumented, undocumented

    def test_every_public_callable_documented(self):
        missing = []
        for module in ALL_MODULES:
            names = getattr(module, "__all__", None)
            if names is None:
                continue
            for name in names:
                obj = getattr(module, name)
                if callable(obj) and not inspect.isclass(obj):
                    if not inspect.getdoc(obj):
                        missing.append(f"{module.__name__}.{name}")
                elif inspect.isclass(obj) and not inspect.getdoc(obj):
                    missing.append(f"{module.__name__}.{name}")
        assert not missing, missing

    def test_public_methods_documented(self):
        """Public methods of public classes carry docstrings."""
        missing = []
        for module in ALL_MODULES:
            for name in getattr(module, "__all__", []) or []:
                obj = getattr(module, name)
                if not inspect.isclass(obj):
                    continue
                for mname, meth in inspect.getmembers(obj, inspect.isfunction):
                    if mname.startswith("_"):
                        continue
                    if meth.__module__ != module.__name__:
                        continue
                    if not inspect.getdoc(meth):
                        missing.append(f"{module.__name__}.{name}.{mname}")
        assert not missing, missing


class TestAPISurface:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_runtime_facade_exported(self):
        """The compile-once runtime is part of the public surface."""
        for name in ("compile", "StencilPlan", "PlanCache", "CompiledStencil"):
            assert name in repro.__all__, name
        assert callable(repro.compile)
        from repro.runtime import compile as runtime_compile

        assert repro.compile is runtime_compile

    def test_errors_exported(self):
        for name in (
            "ReproError",
            "KernelNotFoundError",
            "DecompositionError",
            "ShapeError",
        ):
            assert name in repro.__all__, name

    def test_module_count(self):
        """The library keeps its many-small-modules shape."""
        assert len(ALL_MODULES) >= 40

    def test_no_print_side_effects_on_import(self, capsys):
        importlib.reload(importlib.import_module("repro.perf.machine"))
        assert capsys.readouterr().out == ""


class TestVectorization:
    """Guards against per-point Python loops sneaking into hot paths."""

    def test_functional_2d_apply_is_fast(self):
        import repro
        from repro.stencil.kernels import get_kernel

        eng = repro.compile(get_kernel("Box-2D49P").weights)
        x = np.random.default_rng(0).normal(size=(1030, 1030))
        eng.apply(x)  # warm
        start = time.perf_counter()
        eng.apply(x)
        elapsed = time.perf_counter() - start
        # a vectorized sweep of 1M points with ~28 slice-adds takes
        # ~50-100 ms; a per-point loop would take tens of seconds
        assert elapsed < 2.0, f"functional apply too slow: {elapsed:.2f}s"

    def test_reference_apply_is_fast(self):
        from repro.stencil.kernels import get_kernel
        from repro.stencil.reference import reference_apply

        w = get_kernel("Box-2D49P").weights
        x = np.random.default_rng(0).normal(size=(518, 518))
        reference_apply(x, w)
        start = time.perf_counter()
        reference_apply(x, w)
        assert time.perf_counter() - start < 2.0

    def test_fp16_matmul_is_tiled_not_scalar(self):
        from repro.tcu.fp16 import fp16_matmul

        a = np.random.default_rng(0).normal(size=(256, 256))
        start = time.perf_counter()
        fp16_matmul(a, a)
        assert time.perf_counter() - start < 2.0
