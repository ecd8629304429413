"""Fig. 9: optimization breakdown of LoRAStencil on Box-2D9P.

Four cumulative configurations (RDG on CUDA cores, + TensorCore, + BVS,
+ AsyncCopy) across growing input sizes.  Per-point footprints are
measured once on the simulator per configuration; the size axis enters
through *wave quantization*: a grid of ``N`` points launches
``N / block`` thread blocks, and when those don't fill the GPU's
resident-block capacity evenly the tail wave runs underutilized — which
is why the paper's bars stabilize only at large inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.baselines.lorastencil import LoRAStencilMethod
from repro.core.config import OptimizationConfig
from repro.experiments.footprints import cached_footprint
from repro.perf.costmodel import time_per_point
from repro.perf.machine import A100, MachineSpec
from repro.perf.occupancy import blocks_per_sm
from repro.stencil.kernels import get_kernel

__all__ = ["Fig9Row", "Fig9Result", "run_fig9", "DEFAULT_SIZES"]

#: square-grid side lengths swept on the x axis
DEFAULT_SIZES = (256, 512, 1024, 2048, 4096, 10240)

#: outputs per thread block (Table II 2D blocking)
_BLOCK_POINTS = 32 * 64


@dataclass(frozen=True)
class Fig9Row:
    config: str
    size: int
    gstencil_per_s: float


@dataclass
class Fig9Result:
    rows: list[Fig9Row] = field(default_factory=list)

    def perf(self, config: str, size: int) -> float:
        """Modelled GStencil/s for one configuration at one size."""
        for r in self.rows:
            if r.config == config and r.size == size:
                return r.gstencil_per_s
        raise KeyError(f"no row for ({config}, {size})")

    def gain(self, after: str, before: str, size: int) -> float:
        """Speedup contributed by one optimization at one size."""
        return self.perf(after, size) / self.perf(before, size)

    def configs(self) -> list[str]:
        """Configuration labels in ladder order."""
        return list(dict.fromkeys(r.config for r in self.rows))

    def sizes(self) -> list[int]:
        """Swept grid side lengths, ascending."""
        return sorted({r.size for r in self.rows})


def _utilization(points: int, shared_bytes_per_block: int, machine: MachineSpec) -> float:
    """Fraction of the GPU kept busy by ``points / block`` thread blocks."""
    blocks = max(1, math.ceil(points / _BLOCK_POINTS))
    per_wave = max(1, machine.num_sms * max(1, blocks_per_sm(shared_bytes_per_block, machine)))
    waves = math.ceil(blocks / per_wave)
    return blocks / (waves * per_wave)


def run_fig9(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    kernel_name: str = "Box-2D9P",
    machine: MachineSpec = A100,
    measure_grid: tuple[int, int] = (128, 128),
) -> Fig9Result:
    """Model the four-configuration breakdown across input sizes."""
    kernel = get_kernel(kernel_name)
    result = Fig9Result()
    for config in OptimizationConfig.breakdown_levels():
        method = LoRAStencilMethod(kernel, config=config)
        fp = cached_footprint(method, measure_grid)
        base_t = time_per_point(fp, method.traits(), machine)
        # per-block shared footprint of the fused kernel's block tile
        h = method.plan.radius
        k_pad = ((8 + 2 * h + 3) // 4) * 4
        w_pad = ((8 + 2 * h + 7) // 8) * 8
        smem_bytes = (32 + k_pad - 8) * (64 + w_pad - 8) * 8
        for size in sizes:
            points = size * size
            util = _utilization(points, smem_bytes, machine)
            t = base_t / util
            result.rows.append(
                Fig9Row(
                    config=config.label(),
                    size=size,
                    gstencil_per_s=1.0 / t / 1e9,
                )
            )
    return result
