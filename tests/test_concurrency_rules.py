"""The six SIM2xx concurrency rules, on fixture projects.

Same harness as ``test_semantic_rules.py``: each fixture is a
``{path: source}`` dict fed to :func:`semantic_pass` with caching off,
so extraction, rule scoping, suppressions and message text are all
exercised end to end.  Every rule gets a triggering fixture (the
acceptance criterion) and the negatives that define its edges.
"""

from __future__ import annotations

from textwrap import dedent

from repro.lint.semantic.engine import semantic_pass


def run(sources: dict[str, str], select: set[str] | None = None):
    dedented = {path: dedent(source) for path, source in sources.items()}
    return semantic_pass(dedented, select=select)


def rules_of(result) -> list[str]:
    return [violation.rule for violation in result.violations]


class TestBlockingCall:
    def test_direct_blocking_call_in_a_coroutine(self):
        result = run({"src/app/srv.py": """
            import time

            async def handler(payload):
                time.sleep(0.1)
                return payload
        """}, select={"SIM201"})
        assert rules_of(result) == ["SIM201"]
        assert "time.sleep" in result.violations[0].message
        assert "handler" in result.violations[0].message

    def test_blocking_call_behind_an_import_alias(self):
        result = run({"src/app/srv.py": """
            import time as clock

            async def handler():
                clock.sleep(0.1)
        """}, select={"SIM201"})
        assert rules_of(result) == ["SIM201"]

    def test_transitive_reach_through_a_sync_helper(self):
        result = run({"src/app/srv.py": """
            def load(path):
                return path.read_text()

            async def handler(path):
                return load(path)
        """}, select={"SIM201"})
        assert rules_of(result) == ["SIM201"]
        message = result.violations[0].message
        assert "load" in message and "read_text" in message
        # Anchored at the root call site inside the coroutine.
        assert result.violations[0].line == 6

    def test_future_result_on_an_executor_future(self):
        result = run({"src/app/srv.py": """
            async def handler(pool, fn):
                future = pool.submit(fn)
                return future.result()
        """}, select={"SIM201"})
        assert rules_of(result) == ["SIM201"]
        assert "future.result" in result.violations[0].message

    def test_store_probe_on_the_loop(self):
        result = run({"src/app/srv.py": """
            async def handler(loop, disk, request):
                hit = disk.get_result(request.identity, request.config)
                await loop.run_in_executor(
                    None, disk.put_result, request.identity,
                    request.config, hit)
        """}, select={"SIM201"})
        assert rules_of(result) == ["SIM201"]
        message = result.violations[0].message
        assert "disk.get_result" in message and "handler" in message

    def test_awaited_and_dispatched_calls_are_clean(self):
        result = run({"src/app/srv.py": """
            import asyncio
            import time

            async def handler(loop):
                await asyncio.sleep(0.1)
                await loop.run_in_executor(None, time.sleep, 0.1)
                await asyncio.to_thread(time.sleep, 0.1)
        """}, select={"SIM201"})
        assert rules_of(result) == []

    def test_sync_functions_and_generators_are_not_roots(self):
        result = run({"src/app/srv.py": """
            import time

            def plain():
                time.sleep(0.1)

            async def pages(fetch):
                while True:
                    yield fetch()

            async def handler(fetch):
                return [page async for page in pages(fetch)]
        """}, select={"SIM201"})
        assert rules_of(result) == []


class TestAtomicity:
    REGISTRY = """
        class Registry:
            def __init__(self):
                self.jobs = {}

            async def admit(self, key, probe):
                pending = self.jobs.get(key)
                fresh = await probe(key)
                self.jobs[key] = pending or fresh
                return self.jobs[key]
    """

    def test_read_await_write_on_a_dict_attribute(self):
        result = run({"src/app/reg.py": self.REGISTRY},
                     select={"SIM202"})
        assert rules_of(result) == ["SIM202"]
        message = result.violations[0].message
        assert "self.jobs" in message and "dict" in message
        assert "suspension point" in message
        # Anchored at the write that commits the stale decision.
        assert result.violations[0].line == 9

    def test_counter_attribute_split_across_await(self):
        result = run({"src/app/reg.py": """
            class Gauge:
                def __init__(self):
                    self.active = 0

                async def track(self, work):
                    before = self.active
                    await work()
                    self.active = before + 1
        """}, select={"SIM202"})
        assert rules_of(result) == ["SIM202"]

    def test_asyncio_lock_span_exonerates_the_gap(self):
        result = run({"src/app/reg.py": """
            import asyncio

            class Registry:
                def __init__(self):
                    self.jobs = {}
                    self._lock = asyncio.Lock()

                async def admit(self, key, probe):
                    async with self._lock:
                        pending = self.jobs.get(key)
                        fresh = await probe(key)
                        self.jobs[key] = pending or fresh
        """}, select={"SIM202"})
        assert rules_of(result) == []

    def test_event_flags_and_untyped_attrs_stay_silent(self):
        # Waking on an Event and clearing it afterwards is the
        # protocol, not a race; untyped attributes are unknowable.
        result = run({"src/app/reg.py": """
            import asyncio

            class Loop:
                def __init__(self, thing):
                    self._wake = asyncio.Event()
                    self.handle = thing

                async def spin(self, step):
                    await self._wake.wait()
                    self._wake.clear()
                    handle = self.handle
                    await step(handle)
                    self.handle = handle
        """}, select={"SIM202"})
        assert rules_of(result) == []

    def test_single_statement_rmw_is_atomic_on_the_loop(self):
        result = run({"src/app/reg.py": """
            class Gauge:
                def __init__(self):
                    self.active = 0

                async def track(self, work):
                    self.active += 1
                    await work()
                    self.active -= 1
        """}, select={"SIM202"})
        assert rules_of(result) == []

    def test_suppression_comment_silences_the_write_line(self, tmp_path):
        # Suppressions are the engine layer's job, so this one goes
        # through lint_paths like real runs do.
        from repro.lint import lint_paths
        module = tmp_path / "src" / "reg.py"
        module.parent.mkdir(parents=True)
        module.write_text(dedent(self.REGISTRY).replace(
            "self.jobs[key] = pending or fresh",
            "self.jobs[key] = pending or fresh"
            "  # lint: disable=SIM202"))
        result = lint_paths([str(tmp_path / "src")], root=tmp_path,
                            use_cache=False, semantic=True)
        assert [v for v in result.violations if v.rule == "SIM202"] == []


class TestTaskLifecycle:
    def test_dropped_create_task_is_fire_and_forget(self):
        result = run({"src/app/bg.py": """
            import asyncio

            async def kick(coro):
                asyncio.create_task(coro)
        """}, select={"SIM203"})
        assert rules_of(result) == ["SIM203"]
        assert "weak" in result.violations[0].message

    def test_task_bound_to_a_dead_local_is_flagged(self):
        result = run({"src/app/bg.py": """
            import asyncio

            async def kick(coro):
                task = asyncio.create_task(coro)
                return None
        """}, select={"SIM203"})
        assert rules_of(result) == ["SIM203"]
        assert "`task`" in result.violations[0].message

    def test_awaited_stored_and_gathered_tasks_are_kept(self):
        result = run({"src/app/bg.py": """
            import asyncio

            class Runner:
                async def all_sinks(self, coro, other):
                    task = asyncio.create_task(coro)
                    await task
                    self._watchdog = asyncio.ensure_future(other)
                    return await asyncio.gather(
                        asyncio.create_task(other))
        """}, select={"SIM203"})
        assert rules_of(result) == []

    def test_discarded_coroutine_call_never_runs(self):
        result = run({"src/app/bg.py": """
            async def cleanup(handle):
                handle.close()

            async def shutdown(handle):
                cleanup(handle)
        """}, select={"SIM204"})
        assert rules_of(result) == ["SIM204"]
        message = result.violations[0].message
        assert "cleanup" in message and "never executes" in message

    def test_awaited_and_scheduled_coroutines_are_clean(self):
        result = run({"src/app/bg.py": """
            import asyncio

            async def cleanup(handle):
                handle.close()

            async def shutdown(handle):
                await cleanup(handle)
                return asyncio.create_task(cleanup(handle))
        """}, select={"SIM204"})
        assert rules_of(result) == []


class TestLockDiscipline:
    def test_thread_lock_with_block_inside_a_coroutine(self):
        result = run({"src/app/box.py": """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                async def put(self, item):
                    with self._lock:
                        self.items.append(item)
        """}, select={"SIM205"})
        assert rules_of(result) == ["SIM205"]
        message = result.violations[0].message
        assert "threading.Lock" in message
        assert "event loop" in message

    def test_thread_lock_acquire_call_inside_a_coroutine(self):
        result = run({"src/app/box.py": """
            import threading

            class Box:
                def __init__(self):
                    self._guard = threading.RLock()

                async def poke(self):
                    self._guard.acquire()
        """}, select={"SIM205"})
        assert rules_of(result) == ["SIM205"]
        assert "threading.RLock" in result.violations[0].message

    def test_asyncio_lock_held_across_an_executor_hop(self):
        result = run({"src/app/box.py": """
            import asyncio

            class Box:
                def __init__(self):
                    self._lock = asyncio.Lock()

                async def flush(self, loop, write):
                    async with self._lock:
                        await loop.run_in_executor(None, write)
        """}, select={"SIM205"})
        assert rules_of(result) == ["SIM205"]
        message = result.violations[0].message
        assert "run_in_executor" in message and "self._lock" in message

    def test_asyncio_lock_used_on_loop_only_is_the_good_pattern(self):
        result = run({"src/app/box.py": """
            import asyncio

            class Box:
                def __init__(self):
                    self._lock = asyncio.Lock()
                    self.items = []

                async def put(self, item, loop, write):
                    async with self._lock:
                        self.items.append(item)
                    await loop.run_in_executor(None, write)
        """}, select={"SIM205"})
        assert rules_of(result) == []

    def test_thread_lock_in_a_sync_method_is_fine(self):
        result = run({"src/app/box.py": """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def put(self, item):
                    with self._lock:
                        self.items.append(item)
        """}, select={"SIM205"})
        assert rules_of(result) == []


class TestObsBoundary:
    def test_thread_dispatch_writing_hook_state(self):
        result = run({"src/app/hooks.py": """
            ACTIVE = None

            def install(tracer):
                global ACTIVE
                ACTIVE = tracer

            async def go(loop, tracer):
                await loop.run_in_executor(None, install, tracer)
        """}, select={"SIM206"})
        assert rules_of(result) == ["SIM206"]
        message = result.violations[0].message
        assert "ACTIVE" in message and "install" in message

    def test_write_reached_through_the_call_graph(self):
        result = run({"src/app/hooks.py": """
            ACTIVE = None

            def _swap(tracer):
                global ACTIVE
                ACTIVE = tracer

            def worker(tracer):
                _swap(tracer)

            async def go(loop, tracer):
                await loop.run_in_executor(None, worker, tracer)
        """}, select={"SIM206"})
        assert rules_of(result) == ["SIM206"]
        assert "call graph" in result.violations[0].message

    def test_process_pool_dispatch_is_exempt(self):
        # A child process mutates its own copy of the module — that
        # hygiene belongs to SIM101, not the loop-boundary rule.
        result = run({"src/app/hooks.py": """
            from concurrent.futures import ProcessPoolExecutor

            ACTIVE = None

            def install(tracer):
                global ACTIVE
                ACTIVE = tracer

            async def go(loop, tracer):
                pool = ProcessPoolExecutor()
                await loop.run_in_executor(pool, install, tracer)
        """}, select={"SIM206"})
        assert rules_of(result) == []

    def test_pure_worker_dispatch_is_clean(self):
        result = run({"src/app/hooks.py": """
            def crunch(n):
                return n * 2

            async def go(loop):
                return await loop.run_in_executor(None, crunch, 21)
        """}, select={"SIM206"})
        assert rules_of(result) == []


class TestFamilyInteraction:
    def test_one_fixture_can_trip_several_families(self):
        # One module, two families: the blocking sleep (SIM201) and the
        # dropped task (SIM203) are found in a single pass.
        result = run({"src/app/mixed.py": """
            import asyncio
            import time

            async def handler(coro):
                time.sleep(0.1)
                asyncio.create_task(coro)
        """})
        assert set(rules_of(result)) == {"SIM201", "SIM203"}

    def test_select_scopes_to_one_concurrency_rule(self):
        result = run({"src/app/mixed.py": """
            import asyncio
            import time

            async def handler(coro):
                time.sleep(0.1)
                asyncio.create_task(coro)
        """}, select={"SIM203"})
        assert rules_of(result) == ["SIM203"]
