"""Occupancy comparison (the Section V-D argument).

ConvStencil's stencil2row matrices occupy more shared memory per thread
block than LoRAStencil's direct input tile, capping resident blocks per
SM and the latency hiding they provide.  This model measures both
methods' actual per-block shared footprints on the simulator
(``Device.peak_shared_bytes``) and converts them to occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.convstencil import ConvStencil2D
from repro.runtime import compile as compile_stencil
from repro.perf.machine import A100, MachineSpec
from repro.perf.occupancy import blocks_per_sm, occupancy_factor
from repro.stencil.weights import StencilWeights
from repro.tcu.device import Device

__all__ = ["OccupancyComparison", "compare_occupancy"]


@dataclass(frozen=True)
class OccupancyComparison:
    """Shared footprint and occupancy of both methods on one kernel."""

    lora_shared_bytes: int
    conv_shared_bytes: int
    lora_blocks_per_sm: int
    conv_blocks_per_sm: int
    lora_occupancy: float
    conv_occupancy: float

    @property
    def shared_ratio(self) -> float:
        """ConvStencil bytes over LoRAStencil bytes (>1 = Conv heavier)."""
        return self.conv_shared_bytes / max(1, self.lora_shared_bytes)


def compare_occupancy(
    weights: StencilWeights,
    grid: tuple[int, int] = (64, 64),
    machine: MachineSpec = A100,
    seed: int = 0,
) -> OccupancyComparison:
    """Measure per-block shared usage of both methods and model occupancy.

    ConvStencil allocates its *two* stencil2row matrices per band; the
    peak tracked by the device is the footprint of one of them, so its
    per-block total is twice the peak allocation.
    """
    if weights.ndim != 2:
        raise ValueError(f"occupancy comparison needs a 2D kernel, got "
                         f"{weights.ndim}D")
    rng = np.random.default_rng(seed)
    h = weights.radius
    x = rng.normal(size=tuple(s + 2 * h for s in grid))

    d_lora = Device()
    compile_stencil(weights).apply_simulated(x, device=d_lora)
    # LoRAStencil covers a 32x64-output block per shared allocation
    block_points = 32 * 64
    lora_bytes = d_lora.peak_shared_bytes

    d_conv = Device()
    ConvStencil2D(weights.as_matrix()).apply_simulated(x, device=d_conv)
    # ConvStencil allocates two stencil2row matrices per (32 x 2h+2)-output
    # band; normalize to the same 2048-output coverage as LoRAStencil so
    # occupancy compares like for like
    band_points = 32 * min(2 * h + 2, 8)
    conv_bytes = round(
        2 * d_conv.peak_shared_bytes * block_points / band_points
    )

    return OccupancyComparison(
        lora_shared_bytes=lora_bytes,
        conv_shared_bytes=conv_bytes,
        lora_blocks_per_sm=blocks_per_sm(lora_bytes, machine),
        conv_blocks_per_sm=blocks_per_sm(conv_bytes, machine),
        lora_occupancy=occupancy_factor(lora_bytes, machine),
        conv_occupancy=occupancy_factor(conv_bytes, machine),
    )
