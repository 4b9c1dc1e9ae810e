"""``python -m repro.perf`` times the stages of a cold run."""

from __future__ import annotations

from repro.geometry import generator
from repro.perf.profile import STAGES, format_breakdown, main, profile_suite
from repro.tiling.engine import TilingEngine


def test_stages_time_the_cold_program(monkeypatch):
    """Every benchmark's calibration runs cold, past the process's
    calibration memo, and no stage runs the Tiling Engine."""
    calibrations = []
    calibrate = generator.calibrate_extent_for_reuse

    def counted(*args, **kwargs):
        calibrations.append(args)
        return calibrate(*args, **kwargs)

    def refuse(self):
        raise AssertionError("the profiler ran the Tiling Engine")

    monkeypatch.setattr(generator, "calibrate_extent_for_reuse", counted)
    monkeypatch.setattr(TilingEngine, "trace", refuse)
    rows = profile_suite(("GTr", "GTr"), scale=0.05)
    assert len(calibrations) == 2
    assert all(row["lower"] >= 0 and row["background"] > 0 for row in rows)


def test_every_stage_is_timed_and_reported(capsys):
    rows = profile_suite(("GTr",), scale=0.05)
    (row,) = rows
    assert set(STAGES) <= set(row)
    assert all(row[stage] >= 0 for stage in STAGES)
    configs = [name for name in row if name.startswith("replay:")]
    assert len(configs) == 6
    assert row["replay"] == sum(row[name] for name in configs)
    table = format_breakdown(rows)
    for stage in STAGES:
        assert stage in table
    assert "tcor_no_l2@128KiB" in table

    assert main(["--benchmarks", "GTr", "--scale", "0.05",
                 "--cprofile"]) == 0
    out = capsys.readouterr().out
    assert "cold-run stage breakdown" in out
    assert "cumulative" in out
