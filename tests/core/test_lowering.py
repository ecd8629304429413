"""Unit tests for the pass-based lowering pipeline and the shared
block-sweep driver."""

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.core.config import OptimizationConfig
from repro.core.lowering import (
    DEFAULT_PASSES,
    LoweringContext,
    PassPipeline,
    available_schedules,
    get_schedule,
    lower,
    register_schedule,
)
from repro.core.sweep import SweepSpec, validate_padded
from repro.errors import LoweringError, ShapeError
from repro.tcu.program import TileProgram, build_tile_program

W2 = repro.box_weights(1, 2)
W1 = repro.box_weights(2, 1)
W3 = repro.star_weights(1, 3)


class TestScheduleRegistry:
    def test_builtins_registered(self):
        assert "eager" in available_schedules()
        assert "prefetch" in available_schedules()

    def test_unknown_schedule_raises_lowering_error(self):
        with pytest.raises(LoweringError, match="unknown schedule"):
            get_schedule("definitely-not-registered")

    def test_unknown_schedule_fails_fast_at_compile(self):
        config = OptimizationConfig(schedule="nope")
        with pytest.raises(LoweringError, match="available"):
            repro.compile(W2, config=config, cache=None)

    def test_dependence_breaking_schedule_rejected(self):
        register_schedule(
            "reversed-for-test",
            lambda p: TileProgram(tile=p.tile, instrs=list(p.instrs[::-1])),
        )
        config = OptimizationConfig(schedule="reversed-for-test")
        with pytest.raises(LoweringError, match="broke a dependence"):
            repro.compile(W2, config=config, cache=None)


class TestPipeline:
    def test_default_pass_names(self):
        assert [name for name, _ in DEFAULT_PASSES] == [
            "decompose",
            "build_tile_ir",
            "schedule",
            "vectorize",
        ]

    def test_lower_records_pass_times(self):
        lowered = lower(W2.as_matrix(), 2)
        assert [n for n, _ in lowered.pass_times] == [
            "decompose",
            "build_tile_ir",
            "schedule",
            "vectorize",
        ]
        assert all(t >= 0.0 for _, t in lowered.pass_times)

    def test_lower_binds_engine(self):
        lowered = lower(W2.as_matrix(), 2)
        (plane,) = lowered.planes
        assert lowered.tile.program.tile is plane.kernel
        assert plane.kernel.decomposition.rank > 0

    def test_lower_3d_binds_plane_engines(self):
        lowered = lower(W3.array, 3)
        assert len(lowered.tiles) == len(lowered.planes)
        for plane, tile in zip(lowered.planes, lowered.tiles):
            if plane.kernel is not None:
                assert tile is not None
                assert tile.program.tile is plane.kernel
            else:
                assert tile is None

    def test_cuda_core_config_lowers_to_no_program(self):
        config = OptimizationConfig(use_tensor_cores=False)
        lowered = lower(W2.as_matrix(), 2, config=config)
        assert lowered.tile is None
        assert lowered.n_instrs == 0
        assert lowered.load_use_distance == 0.0

    def test_custom_pipeline_and_spans(self):
        seen = []
        passes = DEFAULT_PASSES + (
            ("audit", lambda ctx: seen.append(ctx.tiles)),
        )
        telemetry.reset()
        telemetry.enable()
        try:
            with telemetry.TRACER.span("root", category="test") as root:
                lower(W2.as_matrix(), 2, pipeline=PassPipeline(passes))
        finally:
            telemetry.disable()
        assert seen and seen[0][0] is not None
        names = [c.name for c in root.children]
        assert names == [
            "lowering.decompose",
            "lowering.build_tile_ir",
            "lowering.schedule",
            "lowering.vectorize",
            "lowering.audit",
        ]

    def test_build_tile_ir_requires_engine(self):
        ctx = LoweringContext(
            weights=W2.as_matrix(), ndim=2, config=OptimizationConfig()
        )
        with pytest.raises(LoweringError, match="requires the decompose pass"):
            PassPipeline(DEFAULT_PASSES[1:]).run(ctx)


class TestLoweredArtifacts:
    def test_op_counts_and_render(self):
        lowered = lower(W2.as_matrix(), 2)
        counts = lowered.tile.op_counts()
        assert counts["mma"] > 0 and counts["load_x"] > 0
        text = lowered.tile.render(limit=3)
        assert "more" in text and len(text.splitlines()) == 4
        full = lowered.render_ir()
        assert full.count("\n") >= lowered.n_instrs

    def test_describe_mentions_schedule(self):
        config = OptimizationConfig(schedule="prefetch")
        lowered = lower(W2.as_matrix(), 2, config=config)
        assert "prefetch" in lowered.describe()
        assert lowered.schedule == "prefetch"

    def test_1d_program_ops(self):
        lowered = lower(W1.as_vector(), 1)
        counts = lowered.tile.op_counts()
        # radius 2: k_rows = round_up(12, 4) = 12 -> 3 k-blocks
        assert counts == {"load_x": 3, "mma": 3}

    def test_direct_build_matches_pipeline(self):
        lowered = lower(W2.as_matrix(), 2)
        direct = build_tile_program(lowered.planes[0].kernel)
        assert [i.op for i in direct.instrs] == [
            i.op for i in lowered.tile.program.instrs
        ]


class TestSweepSpec:
    def _spec(self, interior, block, tile=(8, 8), halo=(4, 8)):
        return SweepSpec(
            interior=interior,
            tile=tile,
            block=block,
            smem_halo=halo,
            use_async_copy=True,
            ndim=2,
            shape_label="x",
        )

    def test_block_rounds_up_to_tile(self):
        assert self._spec((64, 64), (30, 60)).blocked() == (32, 64)

    def test_block_clamps_to_interior(self):
        assert self._spec((16, 24), (32, 64)).blocked() == (16, 24)

    def test_block_at_least_one_tile(self):
        assert self._spec((64, 64), (1, 1)).blocked() == (8, 8)

    def test_1d_rounding_matches_legacy_formula(self):
        # legacy 1D: max(64, round_up(min(block, n), 64))
        for n in (64, 130, 1024, 4096):
            for block in (1, 64, 100, 1024, 9999):
                spec = SweepSpec(
                    interior=(1, n),
                    tile=(1, 64),
                    block=(1, block),
                    smem_halo=(0, 60),
                    use_async_copy=False,
                    ndim=1,
                    shape_label=str(n),
                )
                legacy = max(64, -(-min(block, n) // 64) * 64)
                assert spec.blocked() == (1, legacy)

    def test_smem_shape_adds_halo(self):
        assert self._spec((64, 64), (32, 64)).smem_shape() == (36, 72)

    def test_validate_padded(self):
        arr, interior = validate_padded(np.zeros((10, 12)), 2, 2)
        assert arr.dtype == np.float64
        assert interior == (6, 8)
        with pytest.raises(ShapeError, match="expected 3D"):
            validate_padded(np.zeros((10, 12)), 3, 1)
        with pytest.raises(ShapeError, match="too small"):
            validate_padded(np.zeros((4, 4)), 2, 2)


class TestPlanCarriesProgram:
    def test_plan_program_and_schedule(self):
        compiled = repro.compile(W2, cache=None)
        assert isinstance(compiled.plan.program, TileProgram)
        assert compiled.plan.schedule == "eager"
        assert "lowering" in compiled.describe()

    def test_3d_plan_program_tuple(self):
        compiled = repro.compile(W3, cache=None)
        programs = compiled.plan.program
        assert isinstance(programs, tuple)
        assert len(programs) == len(compiled.plan.planes)
        assert any(p is not None for p in programs)
        assert any(p is None for p in programs)  # star points -> CUDA cores

    def test_plan_key_covers_schedule(self):
        k_eager = repro.runtime.plan.plan_key(W2.as_matrix(), 2)
        k_prefetch = repro.runtime.plan.plan_key(
            W2.as_matrix(), 2, OptimizationConfig(schedule="prefetch")
        )
        assert k_eager != k_prefetch
