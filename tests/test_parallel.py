"""The parallel experiment engine: fan-out, disk cache, invalidation.

Covers the PR's contract points: a pool run produces byte-identical
tables to a serial run, prefetch really populates the memo the figure
modules read, a second invocation is served from disk without
simulating, and any change to the simulator sources (or its recorded
signature) invalidates the store.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import SimulationConfig
from repro.config import KIB
from repro.experiments import common
from repro.experiments.common import (ExperimentResult, SimulationCache,
                                      format_table)
from repro.experiments.driver import resolve_names, run_experiments
from repro.parallel import (
    DiskCache,
    ParallelSimulationCache,
    SimJob,
    enumerate_jobs,
    result_to_dict,
    simulation_code_signature,
)
from repro.tcor.system import SystemResult
from repro.workloads.suite import BENCHMARKS, WorkloadIdentity, build_workload

ALIASES = ("GTr", "CCS")
SCALE = 0.05
GTR = WorkloadIdentity(BENCHMARKS["GTr"], SCALE)


def baseline(size):
    return SimulationConfig(kind="baseline", tile_cache_bytes=size)


class TestEnumerateJobs:
    def test_fig14_matrix(self):
        jobs = enumerate_jobs(["fig14"], ALIASES)
        assert len(jobs) == 8  # 2 aliases x 2 kinds x 2 sizes
        kinds = {job.kind for job in jobs}
        assert kinds == {"baseline", "tcor"}
        assert {job.alias for job in jobs} == set(ALIASES)

    def test_fig20_adds_no_l2_variant(self):
        kinds = {job.kind for job in enumerate_jobs(["fig20"], ("GTr",))}
        assert kinds == {"baseline", "tcor", "tcor_no_l2"}

    def test_workload_only_experiments_need_no_jobs(self):
        assert enumerate_jobs(["tables", "fig01", "fig11"], ALIASES) == []

    def test_deterministic_order(self):
        assert enumerate_jobs(["fig14"], ALIASES) == \
            enumerate_jobs(["fig14"], ALIASES)


class TestResolveNames:
    def test_aliases_resolve_and_dedup(self):
        assert resolve_names(["fig15", "fig14", "table1"]) == \
            ["fig14", "tables"]

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="fig99"):
            resolve_names(["fig99"])


class TestParallelSerialEquivalence:
    def test_pool_run_matches_serial_tables(self):
        serial = run_experiments(["fig14"], scale=SCALE, aliases=ALIASES,
                                 jobs=1)
        pooled = run_experiments(["fig14"], scale=SCALE, aliases=ALIASES,
                                 jobs=4)
        serial_text = [format_table(result) for result in serial]
        pooled_text = [format_table(result) for result in pooled]
        assert serial_text == pooled_text

    def test_prefetch_populates_the_memo(self, monkeypatch):
        cache = ParallelSimulationCache(scale=SCALE, aliases=ALIASES, jobs=4)
        simulated = cache.prefetch(["fig14"])
        assert simulated == 8
        assert len(cache._systems) == 8
        # The figure module's lookups must now be pure memo reads.
        def bomb(*args, **kwargs):
            raise AssertionError("prefetched result was re-simulated")
        monkeypatch.setattr(common, "run_simulation", bomb)
        cache.baseline("GTr", 64 * KIB)
        cache.tcor("CCS", 128 * KIB)

    def test_prefetch_skips_already_memoized(self):
        cache = ParallelSimulationCache(scale=SCALE, aliases=("GTr",), jobs=2)
        assert cache.prefetch(["fig14"]) == 4
        assert cache.prefetch(["fig14"]) == 0

    def test_figures_parent_builds_no_workload(self, tmp_path, monkeypatch):
        """tcorbench's figures-cold regeneration (its experiments, two
        benchmarks, scale 0.2, two workers, a store): once prefetch has
        returned, the parent reads the workers' traces from the store
        and builds nothing, and every table and simulation equals the
        committed expectation."""
        from repro.experiments import driver
        from repro.obs.diff import diff_metrics
        from repro.obs.registry import MetricsRegistry
        from repro.workloads import suite

        names = ["tables", "headline", "fig10", "fig11", "fig14", "fig16",
                 "fig18", "fig20", "fig22"]
        aliases = ("SoD", "GTr")
        prefetch = ParallelSimulationCache.prefetch

        def no_build(*args, **kwargs):
            raise AssertionError("the experiment parent built a workload")

        def prefetch_then_forbid_builds(self, names=None):
            simulated = prefetch(self, names)
            monkeypatch.setattr(suite, "build_workload", no_build)
            return simulated

        monkeypatch.setattr(ParallelSimulationCache, "prefetch",
                            prefetch_then_forbid_builds)
        registry = MetricsRegistry()
        driver.run_experiments(names, scale=0.2, aliases=aliases, jobs=2,
                               disk=DiskCache(tmp_path), registry=registry)
        assert suite.build_workload is no_build

        root = Path(__file__).resolve().parent.parent
        expected = json.loads(
            (root / "tcorbench" / "expected.json").read_text()
        )["figures_tables"]
        golden = json.loads(
            (root / "BASELINE_METRICS.json").read_text())["metrics"]
        expected.update({name: value for name, value in golden.items()
                         if name.startswith("sim.")
                         and name.split(".")[2] in aliases})
        current = registry.snapshot()
        report = diff_metrics(expected, current)
        assert report.clean, report.describe()
        assert not [name for name in report.added
                    if name.startswith(("table.", "sim."))]


def compile_trace(identity):
    from repro.replay import compile_workload

    return compile_workload(identity.build())


def make_result(alias="GTr", label="baseline"):
    return SystemResult(label=label, alias=alias, pb_l2_reads=11,
                        pb_l2_writes=7, mm_reads=3, mm_writes=2,
                        structure_accesses={"l2": 42, "dram": 5})


class TestDiskCache:
    def test_round_trip_is_bit_identical(self, tmp_path):
        disk = DiskCache(tmp_path, signature="sig")
        result = make_result()
        disk.put_result(GTR, baseline(64 * KIB), result)
        loaded = disk.get_result(GTR, baseline(64 * KIB))
        assert loaded == result

    def test_signature_change_invalidates(self, tmp_path):
        DiskCache(tmp_path, signature="old").put_result(
            GTR, baseline(64 * KIB), make_result())
        assert DiskCache(tmp_path, signature="new").get_result(
            GTR, baseline(64 * KIB)) is None
        assert DiskCache(tmp_path, signature="old").get_result(
            GTR, baseline(64 * KIB)) is not None

    def test_distinct_configs_do_not_alias(self, tmp_path):
        disk = DiskCache(tmp_path, signature="sig")
        disk.put_result(GTR, baseline(64 * KIB), make_result())
        assert disk.get_result(GTR, baseline(128 * KIB)) is None
        assert disk.get_result(WorkloadIdentity(BENCHMARKS["GTr"], 0.1),
                               baseline(64 * KIB)) is None
        assert disk.get_result(GTR, SimulationConfig(
            kind="tcor", tile_cache_bytes=64 * KIB)) is None

    def test_corrupt_record_degrades_to_miss(self, tmp_path):
        disk = DiskCache(tmp_path, signature="sig")
        disk.put_result(GTR, baseline(64 * KIB), make_result())
        for record in tmp_path.glob("*.json"):
            record.write_text("{ not json")
        assert disk.get_result(GTR, baseline(64 * KIB)) is None

    def test_clear_removes_records(self, tmp_path):
        disk = DiskCache(tmp_path, signature="sig")
        disk.put_result(GTR, baseline(64 * KIB), make_result())
        assert disk.clear() == 1
        assert list(tmp_path.glob("*.json")) == []


def _rewrite_record_data(directory, data):
    """Replace the ``data`` of the one record in ``directory``, keeping
    its current version and key."""
    (path,) = directory.glob("*.json")
    record = json.loads(path.read_text())
    record["data"] = data
    path.write_text(json.dumps(record))


_VALID = result_to_dict(make_result())


class TestMalformedRecords:
    """A record under the right key with the current version but the
    wrong shape is a miss, never an exception or a defaulted hit."""

    @pytest.mark.parametrize("data", [
        {},
        [],
        {"label": "baseline", "alias": "GTr"},
        {**_VALID, "pb_l2_reads": "x"},
        {**_VALID, "pb_l2_reads": True},
        {**_VALID, "unknown_counter": 1},
    ], ids=["empty-dict", "list", "label-and-alias-only", "string-counter",
            "bool-counter", "extra-field"])
    def test_malformed_result_is_a_miss(self, tmp_path, data):
        disk = DiskCache(tmp_path, signature="sig")
        disk.put_result(GTR, baseline(64 * KIB), make_result())
        assert disk.get_result(GTR, baseline(64 * KIB)) == make_result()
        _rewrite_record_data(tmp_path, data)
        assert disk.get_result(GTR, baseline(64 * KIB)) is None
        assert (disk.hits, disk.misses) == (1, 1)

    @pytest.mark.parametrize("data", [{}, [{}]],
                             ids=["dict", "empty-entry"])
    def test_malformed_tables_are_a_miss(self, tmp_path, data):
        disk = DiskCache(tmp_path, signature="sig", table_signature="t")
        tables = [ExperimentResult(exp_id="fig14", title="t",
                                   headers=["a"], rows=[[1]])]
        disk.put_tables("fig14", SCALE, ALIASES, tables)
        assert disk.get_tables("fig14", SCALE, ALIASES) == tables
        _rewrite_record_data(tmp_path, data)
        assert disk.get_tables("fig14", SCALE, ALIASES) is None
        assert (disk.hits, disk.misses) == (1, 1)


class TestStoreDirectory:
    def test_repro_cache_dir_places_the_store(self, tmp_path, monkeypatch):
        chosen = tmp_path / "chosen-store"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(chosen))
        monkeypatch.chdir(tmp_path)
        disk = DiskCache(signature="sig")
        assert disk.directory == chosen
        disk.put_result(GTR, baseline(64 * KIB), make_result())
        records = list(chosen.glob("*.json"))
        assert len(records) == 1
        assert json.loads(records[0].read_text())["meta"]["alias"] == "GTr"
        assert not (tmp_path / ".repro-cache").exists()


class TestConcurrentDiskWriters:
    """Atomicity of the store under concurrent writers (the serving
    layer's write-through path runs in executor threads, and several
    server/experiment processes may share one cache directory)."""

    def test_racing_writers_never_corrupt_a_record(self, tmp_path):
        import threading

        disk = DiskCache(tmp_path, signature="sig")
        results = [make_result(label=f"writer-{i}") for i in range(8)]
        barrier = threading.Barrier(len(results))
        errors = []

        def write(result):
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    disk.put_result(GTR, baseline(64 * KIB), result)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(result,))
                   for result in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        # Whoever won, the record is a complete, loadable result.
        loaded = disk.get_result(GTR, baseline(64 * KIB))
        assert loaded in results

    def test_no_temp_files_left_behind(self, tmp_path):
        import threading

        disk = DiskCache(tmp_path, signature="sig")
        threads = [
            threading.Thread(
                target=lambda size=size: disk.put_result(
                    GTR, baseline(size), make_result()))
            for size in (32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []
        assert len(list(tmp_path.glob("*.json"))) == 4

    def test_temp_names_are_writer_unique(self, tmp_path):
        """Two writers in one process (distinct threads) and repeated
        writes from one thread must never collide on the temp name."""
        from repro.parallel import store as store_module

        a = store_module.DiskCache(tmp_path, signature="sig")
        seen = set()
        original_replace = store_module.os.replace

        def spy(src, dst):
            assert src not in seen, "temp file name reused"
            seen.add(src)
            return original_replace(src, dst)

        store_module.os.replace = spy
        try:
            for _ in range(3):
                a.put_result(GTR, baseline(64 * KIB), make_result())
        finally:
            store_module.os.replace = original_replace
        assert len(seen) == 3


class TestTraceStoreVersioning:
    """Persisted compiled traces carry ``TRACE_IR_VERSION``; a record
    written by an older IR (e.g. the single-frame v1 layout without
    per-tile signature arrays) must degrade to a clean cache miss —
    re-compiled, never mis-replayed."""

    def _compile(self, anim=None, scale=0.05):
        from repro.replay import compile_workload

        if anim is None:
            workload = build_workload(BENCHMARKS["GTr"], scale=scale)
        else:
            from repro.anim import build_animated_workload

            workload = build_animated_workload(BENCHMARKS["GTr"], anim,
                                               scale=scale)
        return workload, compile_workload(workload)

    def test_trace_round_trip(self, tmp_path):
        disk = DiskCache(tmp_path, trace_signature="tsig")
        _, trace = self._compile()
        disk.put_trace(GTR, trace)
        loaded = disk.get_trace(GTR)
        assert loaded is not None
        assert loaded.num_accesses == trace.num_accesses
        assert loaded.header.as_dict() == trace.header.as_dict()

    def test_stale_ir_version_is_a_clean_miss(self, tmp_path,
                                              monkeypatch):
        from repro.replay import ir

        disk = DiskCache(tmp_path, trace_signature="tsig")
        _, trace = self._compile()
        # Persist the archive stamped as the pre-animation v1 layout,
        # as an older build of the repo would have written it.
        with monkeypatch.context() as patch:
            patch.setattr(ir, "TRACE_IR_VERSION", 1)
            disk.put_trace(GTR, trace)
        assert len(list(tmp_path.glob("trace-*.ir"))) == 1
        # Today's reader must refuse it (miss), not replay garbage.
        assert disk.get_trace(GTR) is None
        assert disk.misses == 1

    def test_truncated_archive_is_a_clean_miss(self, tmp_path):
        """A half-written archive (a crash mid-write, a full disk) must
        read as a miss, so the caller recompiles and overwrites it."""
        disk = DiskCache(tmp_path, trace_signature="tsig")
        snp = WorkloadIdentity(BENCHMARKS["Snp"], SCALE)
        disk.put_trace(snp, compile_trace(snp))
        (archive,) = tmp_path.glob("trace-*.ir")
        data = archive.read_bytes()
        archive.write_bytes(data[:len(data) // 2])
        assert disk.get_trace(snp) is None
        assert disk.misses == 1
        disk.put_trace(snp, compile_trace(snp))
        assert disk.get_trace(snp) is not None

    def test_animated_traces_do_not_alias_static_ones(self, tmp_path):
        from repro.anim import AnimationSpec

        disk = DiskCache(tmp_path, trace_signature="tsig")
        anim = AnimationSpec(frames=3, path="orbit", seed=5)
        _, animated = self._compile(anim=anim)
        disk.put_trace(WorkloadIdentity(BENCHMARKS["GTr"], 0.05, anim),
                       animated)
        # Static lookups miss; the animated key hits with all frames.
        assert disk.get_trace(GTR) is None
        assert disk.get_trace(WorkloadIdentity(
            BENCHMARKS["GTr"], 0.05, anim.prefix(2))) is None
        loaded = disk.get_trace(
            WorkloadIdentity(BENCHMARKS["GTr"], 0.05, anim))
        assert loaded is not None
        assert len(loaded.frames) == 3
        for frame, frame_loaded in zip(animated.frames, loaded.frames):
            assert list(frame.tile_sig) == list(frame_loaded.tile_sig)


def _section_bounds(data: bytes) -> list[int]:
    """Every section boundary of a stored trace file: the 12-byte
    prefix (magic, header length), the JSON header, each array section
    and the 4-byte CRC-32 trailer."""
    import struct

    (head_len,) = struct.unpack_from("<I", data, 8)
    bounds = [8, 12, 12 + head_len]
    header = json.loads(data[12:12 + head_len])
    for _, dtype, count in header["sections"]:
        bounds.append(bounds[-1] + int(dtype[1:]) * count)
    assert bounds[-1] + 4 == len(data)
    return bounds


def _restamp(data: bytes, **changes) -> bytes:
    """``data`` with its JSON header updated by ``changes`` and its
    CRC-32 recomputed, so only the header's content is wrong."""
    import struct
    import zlib

    (head_len,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12:12 + head_len])
    header.update(changes)
    head = json.dumps(header, sort_keys=True).encode()
    body = (data[:8] + struct.pack("<I", len(head)) + head
            + data[12 + head_len:-4])
    return body + struct.pack("<I", zlib.crc32(body))


class TestTraceStoreFaults:
    """A stored trace that is truncated, bit-flipped, stamped with
    another IR version or left behind by an older layout reads as a
    clean miss, and the next compile overwrites it."""

    @pytest.fixture(scope="class")
    def good(self):
        """GTr's compiled trace and its stored bytes."""
        import io

        from repro.replay import save_trace

        trace = compile_trace(GTR)
        buffer = io.BytesIO()
        save_trace(buffer, trace)
        return trace, buffer.getvalue()

    def _assert_clean_miss(self, tmp_path, damaged: bytes, good) -> None:
        from repro.api import WorkloadSource

        trace, data = good
        disk = DiskCache(tmp_path, trace_signature="tsig")
        disk.put_trace(GTR, trace)
        (path,) = tmp_path.glob("trace-*.ir")
        assert path.read_bytes() == data
        path.write_bytes(damaged)
        assert disk.get_trace(GTR) is None
        assert (disk.hits, disk.misses) == (0, 1)
        # The next source recompiles (another miss) and overwrites it.
        recompiled = WorkloadSource(GTR, store=disk).trace()
        assert recompiled.num_accesses == trace.num_accesses
        assert disk.misses == 2
        assert path.read_bytes() == data
        assert disk.get_trace(GTR) is not None

    def test_truncated_at_every_section_boundary(self, tmp_path, good):
        data = good[1]
        bounds = _section_bounds(data)
        assert len(bounds) == 3 + 8 + 21  # background + one frame
        for index, cut in enumerate([0] + bounds):
            self._assert_clean_miss(tmp_path / str(index), data[:cut], good)

    def test_truncated_mid_payload(self, tmp_path, good):
        data = good[1]
        bounds = _section_bounds(data)
        middle = (bounds[2] + bounds[-1]) // 2
        assert middle not in bounds
        self._assert_clean_miss(tmp_path, data[:middle], good)

    @pytest.mark.parametrize("where", ["header", "payload", "checksum"])
    def test_one_flipped_bit(self, tmp_path, good, where):
        data = bytearray(good[1])
        bounds = _section_bounds(bytes(data))
        offset = {"header": (bounds[1] + bounds[2]) // 2,
                  "payload": (bounds[2] + bounds[-1]) // 2,
                  "checksum": len(data) - 2}[where]
        data[offset] ^= 0x10
        self._assert_clean_miss(tmp_path, bytes(data), good)

    def test_stale_version_with_a_valid_checksum(self, tmp_path, good):
        self._assert_clean_miss(tmp_path, _restamp(good[1], version=2),
                                good)

    def test_old_npz_archive_is_a_miss_and_is_counted(self, tmp_path,
                                                      good):
        from repro.api import WorkloadSource

        trace, data = good
        disk = DiskCache(tmp_path, trace_signature="tsig",
                         trace_cache_bytes=len(data))
        path = disk._trace_path(GTR)
        old = path.with_suffix(".npz")
        tmp_path.mkdir(exist_ok=True)
        old.write_bytes(b"PK\x03\x04" + bytes(len(data)))
        assert disk.get_trace(GTR) is None
        assert (disk.hits, disk.misses) == (0, 1)
        WorkloadSource(GTR, store=disk).trace()
        assert path.read_bytes() == data
        # The write pushed the store over its cap: the old archive
        # counts toward it and is evicted, the new file is spared.
        assert not old.exists()
        old.write_bytes(b"PK\x03\x04")
        assert disk.clear() == 2
        assert list(tmp_path.iterdir()) == []


class TestPrefetchInterrupt:
    def test_interrupt_shuts_the_pool_down_without_waiting(
            self, monkeypatch, tmp_path):
        """Ctrl-C during a fan-out must cancel queued batches and
        re-raise immediately instead of waiting for stragglers
        (regression test for the executor-shutdown satellite)."""
        from concurrent.futures import Future

        from repro.parallel import engine as engine_module

        class InterruptingPool:
            instances = []

            def __init__(self, max_workers=None):
                self.max_workers = max_workers
                self.shutdown_calls = []
                InterruptingPool.instances.append(self)

            def submit(self, fn, *args, **kwargs):
                future = Future()
                future.set_exception(KeyboardInterrupt())
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                self.shutdown_calls.append(
                    {"wait": wait, "cancel_futures": cancel_futures})

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor",
                            InterruptingPool)
        cache = ParallelSimulationCache(scale=SCALE, aliases=ALIASES,
                                        jobs=4)
        with pytest.raises(KeyboardInterrupt):
            cache.prefetch(["fig14"])
        (pool,) = InterruptingPool.instances
        assert pool.shutdown_calls == \
            [{"wait": False, "cancel_futures": True}]


class TestCodeSignature:
    def test_stable_for_unchanged_tree(self, tmp_path):
        (tmp_path / "tcor").mkdir()
        (tmp_path / "tcor" / "system.py").write_text("COUNTER = 1\n")
        assert simulation_code_signature(tmp_path) == \
            simulation_code_signature(tmp_path)

    def test_touching_a_simulator_source_invalidates(self, tmp_path):
        source = tmp_path / "tcor" / "system.py"
        source.parent.mkdir()
        source.write_text("COUNTER = 1\n")
        before = simulation_code_signature(tmp_path)
        source.write_text("COUNTER = 2\n")
        assert simulation_code_signature(tmp_path) != before

    def test_non_simulator_files_do_not_matter(self, tmp_path):
        (tmp_path / "tcor").mkdir()
        (tmp_path / "tcor" / "system.py").write_text("COUNTER = 1\n")
        before = simulation_code_signature(tmp_path)
        (tmp_path / "experiments").mkdir()
        (tmp_path / "experiments" / "fig99.py").write_text("ROWS = []\n")
        assert simulation_code_signature(tmp_path) == before

    def test_real_package_signature_is_stable(self):
        assert simulation_code_signature() == simulation_code_signature()


class TestDiskBackedSimulationCache:
    def test_second_run_is_served_from_disk(self, tmp_path, monkeypatch):
        disk = DiskCache(tmp_path, signature="sig")
        warm = SimulationCache(scale=SCALE, aliases=("GTr",), disk=disk)
        first = warm.baseline("GTr", 64 * KIB)
        # One SystemResult record + one compiled-trace archive.
        assert disk.stores == 2

        def bomb(*args, **kwargs):
            raise AssertionError("disk-cached result was re-simulated")
        monkeypatch.setattr(common, "run_simulation", bomb)
        cold = SimulationCache(scale=SCALE, aliases=("GTr",),
                               disk=DiskCache(tmp_path, signature="sig"))
        assert cold.baseline("GTr", 64 * KIB) == first

    def test_changed_signature_re_simulates(self, tmp_path):
        spec_disk = DiskCache(tmp_path, signature="sig-a")
        warm = SimulationCache(scale=SCALE, aliases=("GTr",), disk=spec_disk)
        warm.baseline("GTr", 64 * KIB)
        edited = DiskCache(tmp_path, signature="sig-b")
        rerun = SimulationCache(scale=SCALE, aliases=("GTr",), disk=edited)
        rerun.baseline("GTr", 64 * KIB)
        assert edited.misses == 1 and edited.stores == 1

    def test_prefetch_writes_through_and_reloads(self, tmp_path):
        disk = DiskCache(tmp_path, signature="sig")
        cache = ParallelSimulationCache(scale=SCALE, aliases=ALIASES,
                                        jobs=4, disk=disk)
        assert cache.prefetch(["fig14"]) == 8
        assert disk.stores == 8
        reloaded = ParallelSimulationCache(
            scale=SCALE, aliases=ALIASES, jobs=4,
            disk=DiskCache(tmp_path, signature="sig"))
        assert reloaded.prefetch(["fig14"]) == 0
        assert len(reloaded._systems) == 8


class TestTableCache:
    def test_second_run_skips_experiment_modules(self, tmp_path, monkeypatch):
        disk = DiskCache(tmp_path, signature="sig",
                         table_signature="tables-sig")
        first = run_experiments(["fig14"], scale=SCALE, aliases=ALIASES,
                                disk=disk)

        from repro.experiments import fig14_15_l2_accesses

        def bomb(*args, **kwargs):
            raise AssertionError("table-cached experiment module re-ran")
        monkeypatch.setattr(fig14_15_l2_accesses, "run", bomb)
        second = run_experiments(
            ["fig14"], scale=SCALE, aliases=ALIASES,
            disk=DiskCache(tmp_path, signature="sig",
                           table_signature="tables-sig"))
        assert [format_table(result) for result in second] == \
            [format_table(result) for result in first]

    def test_table_signature_change_invalidates_tables_only(self, tmp_path):
        warm = DiskCache(tmp_path, signature="sig", table_signature="old")
        run_experiments(["fig14"], scale=SCALE, aliases=ALIASES, disk=warm)
        edited = DiskCache(tmp_path, signature="sig", table_signature="new")
        assert edited.get_tables("fig14", SCALE, ALIASES) is None
        # SystemResult records key on the simulator signature alone, so
        # a sweep/formatting edit leaves them warm.
        assert edited.get_result(GTR, baseline(64 * KIB)) is not None


class TestJobBatchWorker:
    def test_batch_matches_lazy_cache_results(self):
        from repro.parallel import simulate_job_batch

        jobs = (SimJob("baseline", "GTr", 64 * KIB),
                SimJob("tcor", "GTr", 64 * KIB),
                SimJob("tcor_no_l2", "GTr", 64 * KIB))
        batch = dict(simulate_job_batch("GTr", SCALE, jobs))
        lazy = SimulationCache(scale=SCALE, aliases=("GTr",))
        assert batch[jobs[0]] == lazy.baseline("GTr", 64 * KIB)
        assert batch[jobs[1]] == lazy.tcor("GTr", 64 * KIB)
        assert batch[jobs[2]] == lazy.tcor("GTr", 64 * KIB,
                                           l2_enhancements=False)

    def test_worker_sheds_a_fork_inherited_tracer(self):
        """With the fork start method a worker inherits whatever tracer
        the parent had installed in ``obs.trace.ACTIVE`` — whose sinks
        hold the parent's duplicated file handles.  The worker must run
        its batch with tracing off and restore the module state on the
        way out (regression test for the SIM101 fork-safety finding)."""
        from repro.obs import trace as obs_trace
        from repro.parallel import simulate_job_batch

        inherited = obs_trace.Tracer()
        jobs = (SimJob("baseline", "GTr", 64 * KIB),)
        with obs_trace.activation(inherited):
            simulate_job_batch("GTr", SCALE, jobs)
            # The simulation emitted nothing into the inherited tracer
            # and left it installed for the (simulated) parent.
            assert inherited.events_emitted == 0
            assert obs_trace.ACTIVE is inherited
        assert obs_trace.ACTIVE is None
