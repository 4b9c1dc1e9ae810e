"""In-process server harness: a real server on a background thread.

Spins up a full :class:`~repro.serve.server.SimulationServer` — real
event loop, real TCP port, real scheduler — inside the current
process, so tests and notebooks exercise the exact production code
path without managing a subprocess.  The event loop runs on a daemon
thread; the constructor blocks until the port is bound, and
:meth:`close` drains gracefully and joins the thread.

Usage::

    with InProcessServer(jobs=2) as server:
        with server.client() as client:
            result = client.run(JobRequest(alias="GTr", scale=0.05))
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import threading

from repro.serve.client import ServeClient
from repro.serve.scheduler import Scheduler
from repro.serve.server import SimulationServer

# How much longer than its own drain timeout :meth:`InProcessServer.drain`
# waits for the server loop to report the drain done.
DRAIN_GRACE_S = 30.0
# How long a stalled drain's report waits for the loop to list its tasks.
REPORT_TIMEOUT_S = 5.0


def _suspension(task: asyncio.Task) -> str:
    """``name: outer (file:line) -> ... -> inner (file:line)``: the
    chain of coroutines a pending task is suspended in, innermost last,
    and what the innermost one awaits."""
    chain = []
    awaited = task.get_coro()
    while getattr(awaited, "cr_frame", None) is not None:
        frame = awaited.cr_frame
        chain.append(f"{awaited.__qualname__} "
                     f"({os.path.basename(frame.f_code.co_filename)}:"
                     f"{frame.f_lineno})")
        awaited = awaited.cr_await
    tail = "" if awaited is None else f" awaiting {type(awaited).__name__}"
    return f"{task.get_name()}: {' -> '.join(chain)}{tail}"


class InProcessServer:
    """A live server on a daemon thread, for tests and notebooks."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 start_timeout_s: float = 30.0, scheduler=None,
                 **scheduler_kwargs) -> None:
        # ``scheduler`` hosts any object speaking the scheduler surface
        # — notably a cluster Router — behind the same front door; by
        # default a fresh single-node Scheduler is built.
        self.scheduler = scheduler if scheduler is not None \
            else Scheduler(**scheduler_kwargs)
        self.server = SimulationServer(self.scheduler, host=host,
                                       port=port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="tcor-serve-inprocess", daemon=True)
        self._thread.start()
        if not self._started.wait(start_timeout_s):
            raise RuntimeError("in-process server failed to start "
                               f"within {start_timeout_s:g}s")
        if self._startup_error is not None:
            raise RuntimeError("in-process server failed to start") \
                from self._startup_error

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            await self.server.serve_forever()
        except asyncio.CancelledError:
            pass  # closing the listener cancels serve_forever
        # Teardown belongs to the drain() coroutine submitted from the
        # caller's thread; returning now would tear the loop down while
        # that coroutine is still completing in-flight jobs.  Wait for
        # its explicit all-clear instead.
        await self._shutdown.wait()

    def submit(self, coroutine):
        """Run one coroutine on the server loop; returns a
        ``concurrent.futures.Future``."""
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop)

    def _pending_tasks(self) -> list:
        """One line per task pending on the server loop, naming the
        coroutines it is suspended in (see :func:`_suspension`).  The
        list is collected on the loop itself; a loop that does not
        answer within ``REPORT_TIMEOUT_S`` is reported as blocked."""
        async def collect() -> list:
            current = asyncio.current_task()
            return sorted(_suspension(task) for task in asyncio.all_tasks()
                          if task is not current and not task.done())

        future = self.submit(collect())
        try:
            return future.result(timeout=REPORT_TIMEOUT_S)
        except concurrent.futures.TimeoutError:
            future.cancel()
            return [f"(none listed: the server loop did not answer "
                    f"within {REPORT_TIMEOUT_S:g}s, so it is blocked)"]

    def client(self, timeout_s: float | None = 120.0) -> ServeClient:
        return ServeClient(self.host, self.port, timeout_s=timeout_s)

    def drain(self, timeout_s: float | None = 30.0) -> None:
        """Graceful stop: finish live jobs, then tear down the loop."""
        if not self._thread.is_alive() or self._loop is None:
            return
        future = self.submit(self.server.drain(timeout_s))
        waited = (timeout_s or 0) + DRAIN_GRACE_S
        try:
            future.result(timeout=waited)
        except concurrent.futures.TimeoutError as error:
            raise TimeoutError(
                f"the server's drain did not finish within {waited:g}s; "
                "tasks pending on the server loop:\n  "
                + "\n  ".join(self._pending_tasks())) from error
        # The drain future resolved on the caller's side, so it is now
        # safe to let the loop's main task return and close the loop.
        shutdown = self._shutdown
        assert shutdown is not None
        self._loop.call_soon_threadsafe(shutdown.set)
        self._thread.join(timeout=30.0)

    def close(self) -> None:
        self.drain(timeout_s=10.0)

    def __enter__(self) -> "InProcessServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
