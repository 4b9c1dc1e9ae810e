#!/usr/bin/env python3
"""Quickstart: baseline vs TCOR on one benchmark.

Builds a reduced-scale Candy Crush Saga workload, replays its frame
through both memory organizations and prints the paper's headline
metrics: Parameter Buffer traffic to the L2 and to main memory, total
main-memory traffic, memory-hierarchy energy, and Tiling Engine
throughput.

Run:
    python examples/quickstart.py [scale]
"""

import sys

from repro.api import (
    SimulationConfig,
    WorkloadSource,
    run_fetch_timing,
    simulate,
)
from repro.energy import gpu_energy
from repro.workloads import BENCHMARKS, build_workload


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    spec = BENCHMARKS["CCS"]
    print(f"Building {spec.name} at scale {scale} ...")
    workload = build_workload(spec, scale=scale)
    print(f"  {workload.num_primitives} primitives, "
          f"measured reuse {workload.measured_reuse():.2f} "
          f"(published: {spec.avg_reuse})")

    source = WorkloadSource.of(workload)
    base_run = simulate(source, SimulationConfig(kind="baseline"))
    tcor_run = simulate(source, SimulationConfig(kind="tcor"))
    assert base_run.ok and tcor_run.ok, "conservation invariants violated"
    baseline, tcor = base_run.result, tcor_run.result

    def decrease(before: float, after: float) -> str:
        return f"{100 * (1 - after / max(1, before)):5.1f}% lower"

    print("\n--- Traffic (one frame) -----------------------------------")
    print(f"PB accesses to L2   : baseline {baseline.pb_l2_accesses:7d}  "
          f"TCOR {tcor.pb_l2_accesses:7d}  "
          f"({decrease(baseline.pb_l2_accesses, tcor.pb_l2_accesses)})")
    print(f"PB accesses to DRAM : baseline {baseline.pb_mm_accesses:7d}  "
          f"TCOR {tcor.pb_mm_accesses:7d}  "
          f"({decrease(baseline.pb_mm_accesses, tcor.pb_mm_accesses)})")
    print(f"Total DRAM accesses : baseline {baseline.mm_accesses:7d}  "
          f"TCOR {tcor.mm_accesses:7d}  "
          f"({decrease(baseline.mm_accesses, tcor.mm_accesses)})")
    print(f"Attribute Cache read hit ratio (TCOR): "
          f"{tcor.attr_read_hit_ratio:.3f}")

    print("\n--- Energy -------------------------------------------------")
    base_energy = gpu_energy(baseline, workload)
    tcor_energy = gpu_energy(tcor, workload)
    print(f"Memory hierarchy    : baseline {base_energy.memory_hierarchy_nj / 1e6:7.3f} mJ  "
          f"TCOR {tcor_energy.memory_hierarchy_nj / 1e6:7.3f} mJ  "
          f"({decrease(base_energy.memory_hierarchy_nj, tcor_energy.memory_hierarchy_nj)})")
    print(f"Total GPU           : baseline {base_energy.total_gpu_nj / 1e6:7.3f} mJ  "
          f"TCOR {tcor_energy.total_gpu_nj / 1e6:7.3f} mJ  "
          f"({decrease(base_energy.total_gpu_nj, tcor_energy.total_gpu_nj)})")

    print("\n--- Tiling Engine throughput --------------------------------")
    base_ppc = run_fetch_timing(source, SimulationConfig(kind="baseline"))
    tcor_ppc = run_fetch_timing(source, SimulationConfig(kind="tcor"))
    speedup = (tcor_ppc.primitives_per_cycle
               / max(1e-9, base_ppc.primitives_per_cycle))
    print(f"Primitives/cycle    : baseline {base_ppc.primitives_per_cycle:.3f}  "
          f"TCOR {tcor_ppc.primitives_per_cycle:.3f}  ({speedup:.1f}x)")


if __name__ == "__main__":
    main()
