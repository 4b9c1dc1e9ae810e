"""Row-buffer-aware DRAM model."""

import pytest

from repro.dram import DRAMConfig, DRAMModel
from repro.obs import Tracer, activation
from repro.obs.events import DramAccess
from repro.obs.registry import MetricsRegistry
from repro.timing import tile_fetcher_throughput


class TestConfig:
    def test_defaults_in_table1_band(self):
        config = DRAMConfig()
        assert 50 <= config.row_hit_cycles
        assert config.row_conflict_cycles <= 100

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAMConfig(num_banks=0)
        with pytest.raises(ValueError):
            DRAMConfig(row_bytes=100)
        with pytest.raises(ValueError):
            DRAMConfig(row_hit_cycles=90, row_empty_cycles=60)


class TestRowBuffer:
    def test_streaming_hits_the_open_row(self):
        dram = DRAMModel()
        first = dram.access(0)
        assert first == dram.config.row_empty_cycles
        for block in range(1, dram.config.blocks_per_row):
            assert dram.access(block * 64) == dram.config.row_hit_cycles
        assert dram.stats.row_hits == dram.config.blocks_per_row - 1

    def test_same_bank_different_row_conflicts(self):
        dram = DRAMModel()
        config = dram.config
        stride = config.row_bytes * config.num_banks  # same bank, next row
        dram.access(0)
        assert dram.access(stride) == config.row_conflict_cycles
        assert dram.stats.row_conflicts == 1

    def test_different_banks_do_not_conflict(self):
        dram = DRAMModel()
        config = dram.config
        dram.access(0)
        assert dram.access(config.row_bytes) == config.row_empty_cycles

    def test_energy_accumulates(self):
        dram = DRAMModel()
        dram.access(0)
        dram.access(64, is_write=True)
        config = dram.config
        expected = (config.activate_nj + config.read_nj + config.write_nj)
        assert dram.stats.energy_nj == pytest.approx(expected)

    def test_average_latency_in_band(self):
        import random
        rng = random.Random(4)
        dram = DRAMModel()
        for _ in range(2000):
            dram.access(rng.randrange(1 << 24) * 64)
        config = dram.config
        assert config.row_hit_cycles <= dram.stats.average_latency \
            <= config.row_conflict_cycles

    def test_reset(self):
        dram = DRAMModel()
        dram.access(0)
        dram.reset()
        assert dram.stats.accesses == 0
        assert dram.access(0) == dram.config.row_empty_cycles


class TestTracing:
    def test_each_access_emits_one_event_and_registers_stats(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        dram = DRAMModel()
        stride = dram.config.row_bytes * dram.config.num_banks
        dram.access(0)  # untraced: no event
        with activation(tracer):
            dram.access(64, is_write=True)
            dram.access(stride)
            dram.access(dram.config.row_bytes)
        events = [event for event in tracer.ring
                  if isinstance(event, DramAccess)]
        assert [(e.bank, e.row, e.outcome, e.is_write) for e in events] == [
            (0, 0, "hit", True),
            (0, 1, "conflict", False),
            (1, 0, "empty", False),
        ]
        assert tracer.events_emitted == 3
        assert registry.prefixes() == ["live.dram_model"]
        assert registry.snapshot()["live.dram_model.row_conflicts"] == 1


class TestTimingIntegration:
    def test_dram_backed_throughput_runs(self, tiny_workload):
        flat = tile_fetcher_throughput(tiny_workload, "baseline")
        dram = DRAMModel()
        banked = tile_fetcher_throughput(tiny_workload, "baseline",
                                         dram=dram)
        assert banked.primitives_delivered == flat.primitives_delivered
        assert dram.stats.accesses > 0
        # Latency band keeps the results in the same ballpark.
        assert banked.primitives_per_cycle == pytest.approx(
            flat.primitives_per_cycle, rel=0.5)
