"""Performance tooling: profiling harness and reference hot paths.

``python -m repro.perf`` prints the wall-clock seconds of each stage of
a cold run per benchmark (calibration, generation plus binning,
compile, replay per config, miss curves), the evidence base for
hot-path work.  :mod:`repro.perf.reference` preserves
the straightforward pre-tuning implementations of the tuned helpers so
the equivalence suite can assert bit-identical counters forever, not
just at the commit that introduced the tuning.
"""

from repro.perf.profile import (
    PhaseTimer,
    format_breakdown,
    profile_suite,
)

__all__ = ["PhaseTimer", "format_breakdown", "profile_suite"]
