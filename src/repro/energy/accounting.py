"""System-level energy accounting (Figures 20-22).

Memory-hierarchy energy is the per-access cost of every cache and DRAM
access a frame performs; total GPU energy adds the compute side (shader
instructions, geometry processing, fixed-function raster work), which is
identical between baseline and TCOR and therefore dilutes the relative
saving — exactly the paper's ~14% memory-hierarchy vs ~5.5% total-GPU
split.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.model import EnergyModel
from repro.tcor.system import SystemResult
from repro.workloads.suite import Workload, WorkloadProfile


@dataclass(frozen=True)
class EnergyReport:
    """Energy of one simulated frame, in nanojoules."""

    label: str
    alias: str
    memory_hierarchy_nj: float
    compute_nj: float
    breakdown: dict

    @property
    def total_gpu_nj(self) -> float:
        return self.memory_hierarchy_nj + self.compute_nj

    @property
    def memory_share(self) -> float:
        return self.memory_hierarchy_nj / self.total_gpu_nj


def memory_hierarchy_energy(result: SystemResult,
                            model: EnergyModel | None = None) -> float:
    """Total nJ spent in caches + DRAM for one simulated configuration."""
    model = model or EnergyModel.default()
    return sum(
        model.access_energy_nj(structure, accesses)
        for structure, accesses in result.structure_accesses.items()
    )


def compute_energy(workload: Workload | WorkloadProfile,
                   model: EnergyModel | None = None,
                   result: SystemResult | None = None) -> float:
    """Non-memory GPU energy (same for every cache organization).

    ``workload`` is the built workload or its :class:`WorkloadProfile`.

    Pixel-side work (shader instructions, fixed-function raster) is
    charged per *rendered* frame; geometry work is charged for every
    frame, because vertices are shaded and binned during the build
    phase — before Rendering Elimination can discard a tile.  When
    ``result`` carries RE accounting, the discarded tiles' share of
    the pixel work is removed: a skipped tile pays only its signature
    compare (charged on the memory side as ``signature_unit``
    accesses) and zero raster energy.
    """
    model = model or EnergyModel.default()
    spec = workload.spec
    screen = workload.screen
    frames = max(1, workload.num_frames)
    rendered_frames = float(frames)
    if result is not None and result.tiles_total:
        rendered_frames = (frames
                           * (result.tiles_total - result.tiles_skipped)
                           / result.tiles_total)
    pixels = screen.width * screen.height * workload.scale
    shader_nj = (pixels * rendered_frames * spec.shader_insts_per_pixel
                 * model.shader_instruction_nj)
    geometry_nj = (workload.num_primitives * frames
                   * model.geometry_per_primitive_nj)
    fixed_nj = (pixels * rendered_frames
                * model.fixed_function_per_pixel_nj)
    return shader_nj + geometry_nj + fixed_nj


def gpu_energy(result: SystemResult, workload: Workload | WorkloadProfile,
               model: EnergyModel | None = None) -> EnergyReport:
    """Full GPU energy report for one simulated configuration."""
    model = model or EnergyModel.default()
    breakdown = {
        structure: model.access_energy_nj(structure, accesses)
        for structure, accesses in result.structure_accesses.items()
    }
    return EnergyReport(
        label=result.label,
        alias=result.alias,
        memory_hierarchy_nj=sum(breakdown.values()),
        compute_nj=compute_energy(workload, model, result=result),
        breakdown=breakdown,
    )
