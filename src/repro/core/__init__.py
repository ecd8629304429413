"""LoRAStencil core: the paper's primary contribution.

Pipeline (Fig. 3):

1. :mod:`repro.core.lowrank` — decompose the stencil weight matrix into
   rank-1 terms: Pyramidal Matrix Adaptation (Section III-C) for radially
   symmetric matrices, SVD (Section II-D) for the general case.
2. :mod:`repro.core.uvbuild` — expand each rank-1 pair ``(u, v)`` into
   the banded weight matrices ``U`` and ``V`` (Eq. 5/6) plus their
   fragment/butterfly layouts.
3. :mod:`repro.core.rdg` — Residual Dimension Gathering: the warp-level
   Matrix Chain Multiplication ``U X V`` on the TCU simulator
   (Section III-B), with Butterfly Vector Swapping (Section III-D)
   applied between the two gathers; plus the 1D banded tile.
4. :mod:`repro.core.lowering` — the pass pipeline producing a plan's
   :class:`~repro.core.lowering.LoweredProgram`: kernel planes (the 3D
   plane split of Algorithm 2) and their scheduled tile programs.
5. :mod:`repro.core.sweep` — the simulated sweep of a plan (interpreter,
   vectorized or oracle tiles; ABFT guard; z-streaming 3D), and
   :mod:`repro.core.functional` — the NumPy functional path.
6. :mod:`repro.core.fusion` — temporal kernel fusion (Section IV-A).

Execute stencils through ``repro.compile(...)``, which builds and caches
the plan these modules lower.
"""

from repro.core.lowrank import Decomposition, PivotError, Rank1Term
from repro.core.uvbuild import build_u_matrix, build_v_matrix, butterfly_row_order
from repro.core.config import OptimizationConfig
from repro.core.fusion import FusedKernel, fuse_kernel, fragment_waste, fusion_saving

__all__ = [
    "Rank1Term",
    "Decomposition",
    "PivotError",
    "build_u_matrix",
    "build_v_matrix",
    "butterfly_row_order",
    "OptimizationConfig",
    "FusedKernel",
    "fuse_kernel",
    "fragment_waste",
    "fusion_saving",
]
