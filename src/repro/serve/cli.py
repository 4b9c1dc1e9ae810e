"""``tcor-serve`` — run the simulation service from the command line.

Two modes share one front door:

- **worker** (default) — a :class:`~repro.serve.scheduler.Scheduler`
  over a process pool (optionally backed by the PR 2 disk cache)
  behind a :class:`~repro.serve.server.SimulationServer`;
- **router** (``--router backends.json``, or the ``tcor-serve-router``
  entry point) — the cluster front end: a
  :class:`~repro.serve.cluster.Router` consistent-hashing request
  keys across the listed backend workers, with the in-memory result
  tier in front of the shared disk store.

Both get signal-driven graceful shutdown (SIGTERM/SIGINT start a
drain: in-flight and queued jobs finish, new submissions get 503, then
the process exits 0) and optional structured tracing via ``repro.obs``.

``--port-file`` writes the bound port (useful with ``--port 0``) so
wrappers and tests can discover the ephemeral port race-free.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

import contextlib

from repro.obs import JsonlSink, Tracer, activation
from repro.parallel.store import DiskCache
from repro.serve.scheduler import (
    DEFAULT_BATCH_MAX,
    DEFAULT_BATCH_WINDOW_S,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_TIMEOUT_S,
    Scheduler,
)
from repro.serve.server import SimulationServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcor-serve",
        description="Async simulation service over the TCOR simulator")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8763,
                        help="TCP port (0 picks an ephemeral port)")
    parser.add_argument("--port-file", type=Path, default=None,
                        help="write the bound port to this file once "
                             "listening")
    parser.add_argument("--name", default=None,
                        help="this process's name, stamped into every "
                             "result as served_by (cluster provenance)")
    parser.add_argument("--router", type=Path, default=None,
                        metavar="BACKENDS_JSON",
                        help="run as the cluster router over the "
                             "backends listed in this JSON file "
                             "instead of running a worker pool")
    parser.add_argument("--memory-tier-bytes", type=int, default=None,
                        metavar="N",
                        help="router-mode in-memory result tier budget "
                             "(default 64 MiB; 0 disables the tier)")
    parser.add_argument("--probe-interval", type=float, default=None,
                        metavar="S",
                        help="router-mode healthz probe period "
                             "(default 1.0)")
    parser.add_argument("--fail-threshold", type=int, default=None,
                        metavar="N",
                        help="router-mode consecutive failures before "
                             "a backend is taken off the ring "
                             "(default 2)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes in the simulation pool")
    parser.add_argument("--queue-limit", type=int,
                        default=DEFAULT_QUEUE_LIMIT,
                        help="admission limit on live jobs (429 beyond)")
    parser.add_argument("--batch-window", type=float,
                        default=DEFAULT_BATCH_WINDOW_S, metavar="S",
                        help="micro-batching window in seconds; with "
                             "the disk cache, waited only while every "
                             "worker is busy")
    parser.add_argument("--batch-max", type=int, default=DEFAULT_BATCH_MAX,
                        help="max jobs per micro-batch")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                        metavar="S", help="default per-job timeout")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="disk-cache directory for the warm lane and "
                             "the workers' compiled traces (shared with "
                             "tcor-experiments)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="run without the disk cache (no warm lane, "
                             "no stored traces)")
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH",
                        help="write scheduling decisions as a JSONL "
                             "event trace")
    parser.add_argument("--drain-timeout", type=float, default=60.0,
                        metavar="S",
                        help="max seconds to wait for live jobs on "
                             "SIGTERM/SIGINT")
    return parser


def _open_disk(cache_dir: Path | None) -> DiskCache:
    """Construct the disk cache (hashes simulator sources: blocking)."""
    return DiskCache(cache_dir) if cache_dir is not None else DiskCache()


def _build_router(args: argparse.Namespace, disk):
    from repro.serve.cluster import (
        DEFAULT_MEMORY_TIER_BYTES,
        MemoryTier,
        Router,
        parse_backends,
    )

    spec = json.loads(args.router.read_text())
    budget = (args.memory_tier_bytes
              if args.memory_tier_bytes is not None
              else DEFAULT_MEMORY_TIER_BYTES)
    memory = MemoryTier(budget) if budget > 0 else None
    overrides = {}
    if args.probe_interval is not None:
        overrides["probe_interval_s"] = args.probe_interval
    if args.fail_threshold is not None:
        overrides["fail_threshold"] = args.fail_threshold
    return Router(parse_backends(spec), memory=memory, disk=disk,
                  queue_limit=args.queue_limit,
                  forward_timeout_s=args.timeout, **overrides)


async def _amain(args: argparse.Namespace) -> int:
    loop = asyncio.get_running_loop()
    disk = None
    if not args.no_disk_cache:
        # DiskCache() hashes every simulator source file for its code
        # signature — file I/O that belongs on a worker thread, not on
        # the event loop (SIM201).
        disk = await loop.run_in_executor(None, _open_disk,
                                          args.cache_dir)
    if args.router is not None:
        # _build_router reads the backends file — file I/O that
        # belongs on a worker thread too (SIM201).
        scheduler = await loop.run_in_executor(None, _build_router,
                                               args, disk)
        role = (f"router over {len(scheduler.ring)} backend(s), "
                f"memory_tier="
                f"{'on' if scheduler.memory is not None else 'off'}")
    else:
        scheduler = Scheduler(jobs=args.jobs,
                              queue_limit=args.queue_limit,
                              batch_window_s=args.batch_window,
                              batch_max=args.batch_max, disk=disk,
                              default_timeout_s=args.timeout,
                              name=args.name)
        role = f"pool={args.jobs}"
    server = SimulationServer(scheduler, host=args.host, port=args.port)
    await server.start()
    if args.port_file is not None:
        await loop.run_in_executor(None, args.port_file.write_text,
                                   f"{server.port}\n")
    print(f"tcor-serve listening on {server.host}:{server.port} "
          f"({role}, queue_limit={args.queue_limit}, "
          f"disk={'on' if disk is not None else 'off'})")
    sys.stdout.flush()

    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    serve_task = asyncio.create_task(server.serve_forever())
    await stop.wait()
    print("tcor-serve: draining (finishing live jobs, rejecting new "
          "submissions)")
    sys.stdout.flush()
    live = await server.drain(args.drain_timeout)
    serve_task.cancel()
    await asyncio.gather(serve_task, return_exceptions=True)
    print(f"tcor-serve: drained {live} live job(s); bye")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    tracer = None
    if args.trace is not None:
        tracer = Tracer(sinks=[JsonlSink(str(args.trace))])
    scope = activation(tracer) if tracer is not None \
        else contextlib.nullcontext()
    try:
        with scope:
            return asyncio.run(_amain(args))
    finally:
        if tracer is not None:
            tracer.close()


def router_main(argv: list[str] | None = None) -> int:
    """``tcor-serve-router`` — router mode with the backends file as a
    positional argument (``tcor-serve-router backends.json``)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-"):
        argv = ["--router", argv[0], *argv[1:]]
    return main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
