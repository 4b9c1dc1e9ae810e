"""``python -m repro.perf`` times the stages of a cold run."""

from __future__ import annotations

from repro.perf.profile import STAGES, format_breakdown, main, profile_suite


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
