"""Timing models: the Tile Fetcher throughput experiment (Figures 23/24)."""

from repro.timing.tiling_timing import (
    ThroughputResult,
    TimingUnsupportedError,
    tile_fetcher_throughput,
)
from repro.timing.fps import FrameTimeEstimate, estimate_frame_time, fps_gain
from repro.timing.parallel_renderers import (
    ParallelRenderingEstimate,
    estimate as estimate_parallel_renderers,
    sustainable_renderers,
)

__all__ = [
    "FrameTimeEstimate",
    "ParallelRenderingEstimate",
    "ThroughputResult",
    "TimingUnsupportedError",
    "estimate_frame_time",
    "estimate_parallel_renderers",
    "fps_gain",
    "sustainable_renderers",
    "tile_fetcher_throughput",
]
