"""The serve wire schema: keys, round trips, validation, disk mapping."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.anim import AnimationSpec
from repro.api import SimulationConfig
from repro.config import DEFAULT_GPU, DEFAULT_TCOR, KIB, TCORConfig
from repro.parallel import DiskCache
from repro.serve import schema
from repro.serve.schema import JobRequest, ServeError
from repro.tcor.system import SystemResult
from repro.workloads.suite import BENCHMARKS, WorkloadIdentity

SCALE = 0.05


class TestRequestKey:
    def test_deterministic(self):
        a = JobRequest(alias="GTr", scale=SCALE)
        b = JobRequest(alias="GTr", scale=SCALE)
        assert schema.request_key(a) == schema.request_key(b)

    def test_scheduling_hints_do_not_split_identical_work(self):
        base = JobRequest(alias="GTr", scale=SCALE)
        hinted = JobRequest(alias="GTr", scale=SCALE,
                            priority="interactive", timeout_s=5.0)
        assert schema.request_key(base) == schema.request_key(hinted)

    def test_simulation_fields_do_split(self):
        base = schema.request_key(JobRequest(alias="GTr", scale=SCALE))
        assert schema.request_key(
            JobRequest(alias="CCS", scale=SCALE)) != base
        assert schema.request_key(
            JobRequest(alias="GTr", scale=0.1)) != base
        assert schema.request_key(JobRequest(
            alias="GTr", scale=SCALE,
            config=SimulationConfig(kind="baseline"))) != base

    def test_signature_partitions_the_keyspace(self):
        request = JobRequest(alias="GTr", scale=SCALE)
        assert schema.request_key(request, "sig-a") != \
            schema.request_key(request, "sig-b")

    def test_matches_disk_cache_derivation_style(self):
        """Same canonical form as the store: sha256 hex over sorted
        compact JSON (the literal string must re-derive the key)."""
        request = JobRequest(alias="GTr", scale=SCALE)
        key = schema.request_key(request, "sig")
        assert len(key) == 64 and int(key, 16) >= 0


class TestPayloadRoundTrips:
    def test_request_round_trip(self):
        request = JobRequest(
            alias="CCS", scale=0.25,
            config=SimulationConfig(kind="tcor",
                                    tile_cache_bytes=64 * KIB,
                                    l2_enhancements=False),
            priority="interactive", timeout_s=12.5)
        assert schema.request_from_payload(
            schema.request_to_payload(request)) == request

    def test_request_survives_json(self):
        request = JobRequest(alias="GTr", scale=SCALE,
                             config=SimulationConfig(tcor=DEFAULT_TCOR))
        wire = json.loads(json.dumps(schema.request_to_payload(request)))
        assert schema.request_from_payload(wire) == request

    def test_config_with_custom_gpu_round_trips(self):
        gpu = DEFAULT_GPU.with_tile_cache_size(32 * KIB)
        config = SimulationConfig(kind="baseline", gpu=gpu)
        wire = json.loads(json.dumps(schema.config_to_payload(config)))
        assert schema.config_from_payload(wire) == config

    def test_unknown_payload_keys_are_dropped(self):
        payload = schema.request_to_payload(
            JobRequest(alias="GTr", scale=SCALE))
        payload["config"]["from_the_future"] = True
        assert schema.request_from_payload(payload) == \
            JobRequest(alias="GTr", scale=SCALE)

    def test_status_round_trip(self):
        status = schema.JobStatus(job_id="abc", state=schema.RUNNING,
                                  priority="interactive", lane="pool",
                                  attempts=2, coalesced=3,
                                  queued_for_s=0.5, running_for_s=1.5)
        assert schema.status_from_payload(
            schema.status_to_payload(status)) == status

    def test_job_result_round_trip(self):
        result = SystemResult(label="tcor", alias="GTr", pb_l2_reads=1,
                              mm_reads=2, structure_accesses={"l2": 3})
        job = schema.JobResult(job_id="abc", state=schema.DONE,
                               lane="disk", attempts=1, elapsed_s=0.25,
                               result=result, metrics={"m": 1.0},
                               invariant_failures=())
        wire = json.loads(json.dumps(schema.job_result_to_payload(job)))
        rehydrated = schema.job_result_from_payload(wire)
        assert rehydrated == job
        assert rehydrated.ok

    def test_failed_result_is_not_ok(self):
        job = schema.job_result_from_payload(
            {"id": "abc", "state": schema.FAILED, "error": "boom"})
        assert not job.ok and job.error == "boom"


class TestValidation:
    def test_unknown_alias_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            JobRequest(alias="NotABenchmark")
        assert excinfo.value.code == "bad_request"
        assert excinfo.value.http_status == 400

    @pytest.mark.parametrize("field,value", [
        ("scale", 0.0), ("scale", -1.0),
        ("priority", "urgent"), ("timeout_s", 0.0),
    ])
    def test_bad_fields_rejected(self, field, value):
        kwargs = {"alias": "GTr", field: value}
        with pytest.raises(ServeError):
            JobRequest(**kwargs)

    def test_malformed_wire_request_rejected(self):
        with pytest.raises(ServeError):
            schema.request_from_payload({"alias": "GTr", "scale": "many"})
        with pytest.raises(ServeError):
            schema.request_from_payload("not an object")

    def test_error_payload_round_trip(self):
        error = ServeError.queue_full(8)
        wire = ServeError.from_payload(error.to_payload())
        assert (wire.code, wire.http_status) == ("queue_full", 429)

    def test_error_vocabulary_statuses(self):
        assert ServeError.not_found("x").http_status == 404
        assert ServeError.draining().http_status == 503
        assert ServeError.wait_timeout("x", 1.0).http_status == 504


class TestDiskMapping:
    """Every request maps onto the store under its one key."""

    def test_standard_knobs_are_mappable(self, tmp_path):
        disk = DiskCache(tmp_path, signature="sig")
        request = JobRequest(alias="GTr", scale=SCALE)
        result = SystemResult(label="tcor", alias="GTr", mm_reads=9)
        assert schema.probe_disk_batch(disk, [request]) == [None]
        schema.store_disk_batch(disk, [(request, result)])
        assert schema.probe_disk_batch(disk, [request]) == [result]

    def test_non_standard_requests_round_trip_through_the_store(
            self, tmp_path):
        """Animated, Rendering Elimination, custom-GPU and
        no-background requests are stored like any other, each under
        its own record."""
        disk = DiskCache(tmp_path, signature="sig")
        requests = [
            JobRequest(alias="GTr", scale=SCALE,
                       anim=AnimationSpec(frames=2, path="orbit", seed=3)),
            JobRequest(alias="GTr", scale=SCALE,
                       config=SimulationConfig(rendering_elimination=True)),
            JobRequest(alias="GTr", scale=SCALE,
                       config=SimulationConfig(gpu=dataclasses.replace(
                           DEFAULT_GPU, l2_cache=dataclasses.replace(
                               DEFAULT_GPU.l2_cache, line_bytes=32)))),
            JobRequest(alias="GTr", scale=SCALE,
                       config=SimulationConfig(include_background=False)),
        ]
        results = [SystemResult(label="tcor", alias="GTr", mm_reads=index)
                   for index in range(len(requests))]
        plain = JobRequest(alias="GTr", scale=SCALE)
        schema.store_disk_batch(disk, list(zip(requests, results)))
        assert schema.probe_disk_batch(disk, requests) == results
        assert schema.probe_disk_batch(disk, [plain]) == [None]
        assert disk.stores == len(requests)

    def test_tcor_resolution_mirrors_the_simulator(self):
        """Explicit config wins, then the total-budget split, then the
        paper default — :func:`repro.tcor.system.simulate_tcor`'s
        order."""
        explicit = TCORConfig.for_total_size(32 * KIB)
        assert SimulationConfig(tcor=explicit).resolved().tcor is explicit
        assert SimulationConfig(
            tile_cache_bytes=64 * KIB).resolved().tcor == \
            TCORConfig.for_total_size(64 * KIB)
        assert SimulationConfig().resolved().tcor == DEFAULT_TCOR

    def test_baseline_budget_resolution(self):
        def budget(config):
            return config.resolved().gpu.tile_cache.size_bytes

        assert budget(SimulationConfig(
            kind="baseline", tile_cache_bytes=64 * KIB)) == 64 * KIB
        assert budget(SimulationConfig(kind="baseline")) == \
            DEFAULT_GPU.tile_cache.size_bytes

    def test_probe_and_store_share_records_with_the_experiment_store(
            self, tmp_path):
        """A record written through the serve mapping is the record
        ``tcor-experiments`` reads, and vice versa."""
        disk = DiskCache(tmp_path, signature="sig")
        identity = WorkloadIdentity(BENCHMARKS["GTr"], SCALE)
        result = SystemResult(label="tcor", alias="GTr", mm_reads=9)

        request = JobRequest(alias="GTr", scale=SCALE,
                             config=SimulationConfig(
                                 tile_cache_bytes=64 * KIB))
        schema.store_disk_batch(disk, [(request, result)])
        assert disk.get_result(identity, SimulationConfig(
            kind="tcor", tcor=TCORConfig.for_total_size(64 * KIB))) == result

        baseline = dataclasses.replace(result, label="baseline")
        disk.put_result(identity, SimulationConfig(
            kind="baseline", tile_cache_bytes=64 * KIB), baseline)
        probe = JobRequest(alias="GTr", scale=SCALE,
                           config=SimulationConfig(
                               kind="baseline",
                               tile_cache_bytes=64 * KIB))
        assert schema.probe_disk_batch(disk, [probe]) == [baseline]
