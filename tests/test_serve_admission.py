"""The admission contract both serving front ends share.

Every test runs once against a :class:`Scheduler` and once against a
:class:`Router`, each over a :class:`ScriptedBackend`: rejections are
typed (429 when full, 503 while draining), live keys coalesce, finished
keys are memo hits until the memo evicts them, and a failed key may be
submitted again.
"""

from __future__ import annotations

import pytest

from repro.api import SimulationConfig
from repro.config import KIB
from repro.serve.schema import DONE, FAILED, JobRequest, ServeError
from tests.serve_fakes import (
    ScriptedBackend,
    finished,
    make_router,
    make_scheduler,
    run_started,
)


def request(size=None, **kwargs) -> JobRequest:
    return JobRequest(alias="GTr", scale=0.05,
                      config=SimulationConfig(tile_cache_bytes=size),
                      **kwargs)


@pytest.fixture(params=["scheduler", "router"])
def front(request, monkeypatch):
    """``(backend, build)``: ``build(**kwargs)`` makes the front end."""
    backend = ScriptedBackend()
    make = make_scheduler if request.param == "scheduler" else make_router
    yield backend, lambda **kwargs: make(backend, monkeypatch, **kwargs)
    backend.release.set()


def test_full_queue_rejects_with_429(front):
    backend, build = front
    backend.release.clear()

    async def body(table):
        jobs = [table.submit(request(32 * KIB))[0],
                table.submit(request(64 * KIB))[0]]
        with pytest.raises(ServeError) as info:
            table.submit(request(128 * KIB))
        assert (info.value.code, info.value.http_status) == \
            ("queue_full", 429)
        assert table.metrics.value("rejected.queue_full") == 1
        # Coalescing onto live work is still allowed at capacity.
        again, reused = table.submit(request(32 * KIB))
        assert reused and again is jobs[0]
        backend.release.set()
        for job in jobs:
            assert (await finished(job)).state == DONE
        assert backend.computed == 2

    run_started(build(queue_limit=2), body)


def test_draining_rejects_with_503(front):
    _, build = front

    async def body(table):
        await table.drain(timeout_s=1)
        with pytest.raises(ServeError) as info:
            table.submit(request())
        assert (info.value.code, info.value.http_status) == \
            ("draining", 503)
        assert table.metrics.value("rejected.draining") == 1

    run_started(build(), body)


def test_identical_submissions_coalesce_then_hit_the_memo(front):
    backend, build = front
    backend.release.clear()

    async def body(table):
        first, reused_a = table.submit(request())
        # Same simulation, different scheduling hint: one job.
        dup, reused_b = table.submit(request(priority="interactive"))
        assert not reused_a and reused_b and dup is first
        assert first.coalesced == 1
        assert table.metrics.value("coalesced") == 1
        backend.release.set()
        assert (await finished(first)).state == DONE
        again, reused = table.submit(request())
        assert reused and again is first
        assert table.metrics.value("memo_hits") == 1
        assert table.metrics.value("accepted") == 1
        assert backend.computed == 1

    run_started(build(), body)


def test_memo_evicts_at_its_limit(front):
    backend, build = front

    async def body(table):
        evicted = await finished(table.submit(request(32 * KIB))[0])
        await finished(table.submit(request(64 * KIB))[0])
        with pytest.raises(ServeError) as info:
            table.status(evicted.key)
        assert info.value.code == "not_found"
        fresh, reused = table.submit(request(32 * KIB))
        assert not reused and fresh is not evicted
        assert (await finished(fresh)).state == DONE
        assert table.metrics.value("memo_hits") == 0
        assert backend.computed == 3

    run_started(build(memo_limit=1), body)


def test_a_failed_key_can_be_resubmitted(front):
    backend, build = front
    backend.failures = 1

    async def body(table):
        first = await finished(table.submit(request())[0])
        # A deterministic failure is not retried: a retry would
        # reproduce it.
        assert first.state == FAILED and first.attempts == 1
        assert "scripted failure" in first.error
        second, reused = table.submit(request())
        assert not reused and second is not first
        assert (await finished(second)).state == DONE
        assert table.metrics.value("failed") == 1
        assert table.metrics.value("completed") == 1

    run_started(build(), body)
