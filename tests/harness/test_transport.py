"""Fleet transport (repro.harness.transport): wire protocol integrity,
network chaos classes, the degradation ladder (fleet -> survivors ->
local pool), and byte-identical merges across loopback HTTP workers."""

import json
import socket

import pytest

from repro.harness import cache
from repro.harness import supervisor
from repro.harness import transport
from repro.harness.parallel import VariantJob, run_variants
from repro.harness.runner import clear_trace_cache
from repro.harness.worker import start_worker_thread
from repro.obs import metrics as obs_metrics
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig

SMALL = dict(init_ops=40, sim_ops=4)

TRANSPORT_ENV = (transport.ENV_TRANSPORT, transport.ENV_WORKERS)


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    for var in (
        supervisor.ENV_CHAOS,
        supervisor.ENV_CHAOS_SEED,
        supervisor.ENV_JOB_TIMEOUT,
        supervisor.ENV_MAX_ATTEMPTS,
        supervisor.ENV_MAX_POOL_REBUILDS,
    ) + TRANSPORT_ENV:
        monkeypatch.delenv(var, raising=False)
    # fleet tests should fail fast, not wait out production timeouts
    monkeypatch.setenv(supervisor.ENV_JOB_TIMEOUT, "10")
    clear_trace_cache()
    cache.reset_runtime_disable()
    obs_metrics.reset_metrics()
    supervisor.reset()
    transport.reset()
    yield
    clear_trace_cache()
    supervisor.reset()
    transport.reset()
    obs_metrics.reset_metrics()


def _jobs():
    series = [
        (PersistMode.BASE, MachineConfig()),
        (PersistMode.LOG_P_SF, MachineConfig()),
        (PersistMode.LOG_P_SF, MachineConfig().with_sp(256)),
    ]
    return [
        VariantJob(ab, mode, config, **SMALL)
        for mode, config in series
        for ab in ("LL", "HM")
    ]


def _serial_baseline(jobs, monkeypatch):
    """Chaos-free, transport-free serial results (the ground truth)."""
    monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
    clear_trace_cache()
    results = run_variants(jobs, jobs=1)
    monkeypatch.delenv(cache.ENV_NO_CACHE)
    clear_trace_cache()
    return results


@pytest.fixture
def fleet(tmp_path):
    """Two in-thread loopback workers with private stores, registered as
    the http transport; yields the servers, shuts them down after."""
    servers = []
    for index in range(2):
        server, _thread = start_worker_thread(
            cache_root=str(tmp_path / f"worker{index}")
        )
        servers.append(server)
    transport.set_transport("http")
    transport.set_workers(
        [f"127.0.0.1:{server.server_address[1]}" for server in servers]
    )
    yield servers
    for server in servers:
        server.shutdown()
        server.server_close()


def _free_closed_port() -> int:
    """A port with nothing listening on it (conn-refused guaranteed)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_job_round_trip(self):
        config = MachineConfig().with_sp(256)
        key = VariantJob("BT", PersistMode.LOG_P_SF, config, **SMALL).trace_key
        blob = transport.encode_job("sim", key, config, "abc123", 2)
        kind, key2, config2, digest, attempt = transport.decode_job(blob)
        assert kind == "sim"
        assert key2 == key
        assert config2 == config
        assert (digest, attempt) == ("abc123", 2)

    def test_trace_job_carries_no_config(self):
        key = VariantJob("BT", PersistMode.BASE, MachineConfig()).trace_key
        blob = transport.encode_job("trace", key, None, "d1", 0)
        kind, _key, config, _digest, _attempt = transport.decode_job(blob)
        assert kind == "trace" and config is None

    def test_decode_rejects_garbage(self):
        for blob in (
            b"\xff\xfe",
            b"[1,2]",
            b'{"schema": 99, "kind": "sim"}',
            b'{"schema": 1, "kind": "explode"}',
            b'{"schema": 1, "kind": "sim", "key": {"abbrev": "BT"}}',
        ):
            with pytest.raises(transport.TransportProtocolError):
                transport.decode_job(blob)

    def test_sim_without_config_rejected(self):
        key = VariantJob("BT", PersistMode.BASE, MachineConfig()).trace_key
        payload = json.loads(transport.encode_job("sim", key, MachineConfig(), "d", 0))
        payload["config"] = None
        with pytest.raises(transport.TransportProtocolError, match="config"):
            transport.decode_job(json.dumps(payload).encode())

    def test_envelope_round_trip(self):
        record = {"ok": True, "digest": "x", "result": {"cycles": 12}}
        assert transport.unseal_record(transport.seal_record(record)) == record

    def test_envelope_rejects_flipped_bytes(self):
        import random

        sealed = transport.seal_record({"ok": True, "value": 123456})
        rng = random.Random(0)
        rejected = 0
        for _ in range(16):
            damaged = supervisor.damage_bytes(sealed, rng)
            try:
                transport.unseal_record(damaged)
            except transport.TransportProtocolError:
                rejected += 1
        assert rejected == 16  # corrupt bytes can never become results

    def test_parse_hostport(self):
        assert transport.parse_hostport("10.0.0.1:8750") == ("10.0.0.1", 8750)
        assert transport.parse_hostport(":9000") == ("127.0.0.1", 9000)
        for bad in ("nohost", "host:notaport", "host:99999"):
            with pytest.raises(transport.TransportConfigError):
                transport.parse_hostport(bad)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
class TestConfiguration:
    def test_default_transport_is_local(self):
        assert transport.configured_transport() == "local"
        assert transport.worker_addresses() == []

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv(transport.ENV_TRANSPORT, "http")
        monkeypatch.setenv(transport.ENV_WORKERS, "a:1, b:2 ,")
        assert transport.configured_transport() == "http"
        assert transport.worker_addresses() == ["a:1", "b:2"]

    def test_cli_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(transport.ENV_TRANSPORT, "http")
        transport.set_transport("local")
        assert transport.configured_transport() == "local"

    def test_unknown_transport_rejected(self, monkeypatch):
        with pytest.raises(transport.TransportConfigError):
            transport.set_transport("carrier-pigeon")
        monkeypatch.setenv(transport.ENV_TRANSPORT, "smoke-signals")
        with pytest.raises(transport.TransportConfigError):
            transport.configured_transport()

    def test_http_without_workers_is_an_error(self):
        assert transport.fleet_addresses() == []  # local: no fleet
        transport.set_transport("http")
        with pytest.raises(transport.TransportConfigError, match="worker"):
            transport.fleet_addresses()

    def test_endpoint_policy_derives_from_supervisor_config(self, monkeypatch):
        monkeypatch.setenv(supervisor.ENV_JOB_TIMEOUT, "1.5")
        monkeypatch.setenv(supervisor.ENV_MAX_ATTEMPTS, "2")
        monkeypatch.setenv(supervisor.ENV_MAX_POOL_REBUILDS, "1")
        config = supervisor.current_config()
        report = supervisor.CampaignReport(campaign="c", jobs=0)
        fleet = transport.HttpTransport(
            ["127.0.0.1:1", "127.0.0.1:2"], config, None, report
        )
        first, second = fleet.endpoints

        # the request deadline is job_timeout
        deadlines = []

        def fake_http(endpoint, method, path, body, timeout):
            deadlines.append(timeout)
            raise transport._NetError("conn", "refused")

        monkeypatch.setattr(fleet, "_http", fake_http)
        job = _jobs()[0]
        task = supervisor._Task(
            "sim", job.trace_key, job.config, 0, "LL/base", "d0"
        )
        with pytest.raises(transport._NetError):
            fleet._request_job(first, task, 0)
        assert deadlines == [1.5]

        # max_attempts consecutive failures quarantine an endpoint for
        # the backoff a task would get
        fleet._charge_endpoint(first, "timeout")
        assert first.quarantined_until == 0.0
        fleet._charge_endpoint(first, "timeout")
        event = report.events[-1]
        assert event["event"] == "worker_quarantine"
        assert event["seconds"] == round(
            supervisor.backoff(config, first.label, 1), 3
        )
        assert first.quarantined_until > 0.0 and not first.dead
        # ...and max_pool_rebuilds quarantines later it is dropped
        fleet._charge_endpoint(first, "garble")
        fleet._charge_endpoint(first, "garble")
        assert first.dead

        # max_attempts missed probes mark an idle endpoint dead
        from concurrent.futures import Future

        for _ in range(config.max_attempts):
            probe = Future()
            probe.set_result(False)
            fleet._probes[probe] = second
            fleet.reap({}, None)
        assert second.dead and fleet.dead
        fleet.close(0)


# ----------------------------------------------------------------------
# network chaos spec
# ----------------------------------------------------------------------
class TestNetworkChaosSpec:
    def test_parse_network_classes(self):
        spec = supervisor.ChaosSpec.parse(
            "drop:0.1,delay:0.2,garble:0.3,partition:0.4"
        )
        assert (spec.drop, spec.delay, spec.garble, spec.partition) == (
            0.1, 0.2, 0.3, 0.4,
        )
        assert spec.network_active() and not spec.process_active()
        assert spec.active()
        assert spec.render() == "drop:0.1,delay:0.2,garble:0.3,partition:0.4"

    def test_mixed_classes_split_correctly(self):
        spec = supervisor.ChaosSpec.parse("kill:0.5,drop:0.5")
        assert spec.process_active() and spec.network_active()

    def test_network_chaos_does_not_reach_pool_workers(self):
        spec = supervisor.ChaosSpec.parse("drop:1.0")
        report = supervisor.CampaignReport(campaign="c", jobs=0)
        pool = supervisor.PoolTransport(
            1, ".", supervisor.current_config(), spec, report
        )
        assert pool.chaos is None  # net faults belong to the http transport


# ----------------------------------------------------------------------
# the fleet end to end (loopback workers)
# ----------------------------------------------------------------------
class TestFleetExecution:
    def test_fleet_matches_serial(self, fleet, monkeypatch):
        jobs = _jobs()
        baseline = _serial_baseline(jobs, monkeypatch)
        results = run_variants(jobs, jobs=2)
        assert results == baseline
        counters = obs_metrics.transport_counters()
        assert counters.remote_jobs == len(jobs)
        assert counters.degraded_local == 0
        report = supervisor.campaign_reports()[-1]
        assert report.transport == "http"
        assert report.remote == len(jobs)

    def test_remote_results_are_journaled_and_resumable(self, fleet, monkeypatch):
        jobs = _jobs()
        run_variants(jobs, jobs=2)
        # a fresh process-alike resume: memo cleared, same cache root
        clear_trace_cache()
        obs_metrics.reset_metrics()
        supervisor.reset()
        supervisor.set_resume(True)
        # the fleet is gone — resume must not need it
        transport.reset()
        results = run_variants(jobs, jobs=2)
        counters = obs_metrics.supervisor_counters()
        assert counters.resumed == len(jobs)
        baseline = _serial_baseline(jobs, monkeypatch)
        assert results == baseline

    def test_chaos_fleet_matches_serial(self, fleet, monkeypatch):
        jobs = _jobs()
        baseline = _serial_baseline(jobs, monkeypatch)
        monkeypatch.setenv(
            supervisor.ENV_CHAOS, "drop:0.2,delay:0.15,garble:0.2,partition:0.15"
        )
        monkeypatch.setenv(supervisor.ENV_CHAOS_SEED, "2")
        results = run_variants(jobs, jobs=2)
        assert results == baseline
        counters = obs_metrics.transport_counters()
        assert counters.requests > len(jobs)  # chaos forced extra attempts
        line = obs_metrics.render_metrics_line()
        assert "transport [" in line

    def test_garble_storm_degrades_to_local_pool(self, fleet, monkeypatch):
        jobs = _jobs()
        baseline = _serial_baseline(jobs, monkeypatch)
        monkeypatch.setenv(supervisor.ENV_CHAOS, "garble:1.0")
        results = run_variants(jobs, jobs=2)
        assert results == baseline  # the ladder never costs correctness
        counters = obs_metrics.transport_counters()
        assert counters.crc_rejected > 0
        assert counters.fleet_exhausted > 0 or counters.dead_workers > 0
        assert counters.degraded_local >= 1
        assert counters.remote_jobs == 0  # no garbled byte became a result
        report = supervisor.campaign_reports()[-1]
        assert report.degraded_local is True

    def test_full_partition_degrades_to_local_pool(self, fleet, monkeypatch):
        jobs = _jobs()
        baseline = _serial_baseline(jobs, monkeypatch)
        monkeypatch.setenv(supervisor.ENV_CHAOS, "partition:1.0")
        monkeypatch.setenv(supervisor.ENV_MAX_ATTEMPTS, "1")
        monkeypatch.setenv(supervisor.ENV_MAX_POOL_REBUILDS, "0")
        results = run_variants(jobs, jobs=2)
        assert results == baseline
        counters = obs_metrics.transport_counters()
        assert counters.dead_workers == 2
        assert counters.degraded_local >= 1

    def test_worker_death_reassigns_to_survivor(self, tmp_path, monkeypatch):
        # worker A serves exactly 2 jobs then exits; its later refusals
        # must reassign work to B without burning task attempts
        server_a, _ = start_worker_thread(
            cache_root=str(tmp_path / "wa"), max_jobs=2
        )
        server_b, _ = start_worker_thread(cache_root=str(tmp_path / "wb"))
        transport.set_transport("http")
        transport.set_workers(
            [
                f"127.0.0.1:{server_a.server_address[1]}",
                f"127.0.0.1:{server_b.server_address[1]}",
            ]
        )
        monkeypatch.setenv(supervisor.ENV_MAX_ATTEMPTS, "1")
        monkeypatch.setenv(supervisor.ENV_MAX_POOL_REBUILDS, "0")
        jobs = _jobs()
        baseline = _serial_baseline(jobs, monkeypatch)
        try:
            results = run_variants(jobs, jobs=2)
        finally:
            server_b.shutdown()
            server_b.server_close()
        assert results == baseline
        counters = obs_metrics.transport_counters()
        assert counters.dead_workers >= 1
        assert counters.reassignments >= 1
        assert counters.remote_jobs >= len(jobs) - 2  # B picked up the rest

    def test_all_workers_unreachable_falls_back_locally(self, monkeypatch):
        transport.set_transport("http")
        transport.set_workers([f"127.0.0.1:{_free_closed_port()}"])
        monkeypatch.setenv(supervisor.ENV_MAX_ATTEMPTS, "1")
        monkeypatch.setenv(supervisor.ENV_MAX_POOL_REBUILDS, "0")
        jobs = _jobs()
        baseline = _serial_baseline(jobs, monkeypatch)
        results = run_variants(jobs, jobs=2)
        assert results == baseline
        counters = obs_metrics.transport_counters()
        assert counters.dead_workers == 1
        assert counters.remote_jobs == 0
        assert counters.degraded_local >= 1

    def test_heartbeats_probe_idle_workers(self, fleet, monkeypatch):
        monkeypatch.setattr(transport, "PROBE_INTERVAL", 0.01)
        jobs = _jobs()
        run_variants(jobs, jobs=2)
        assert obs_metrics.transport_counters().heartbeats > 0

    def test_transport_counters_flow_to_telemetry(self, fleet):
        from repro.obs import telemetry

        telemetry.set_enabled(True)
        try:
            run_variants(_jobs(), jobs=2)
            counters = telemetry.snapshot()["counters"]
            assert counters.get("transport.requests", 0) >= len(_jobs())
            assert counters.get("transport.remote_jobs", 0) >= 1
        finally:
            telemetry.set_enabled(False)
            telemetry.reset()

    def test_local_transport_never_touches_the_network(self, monkeypatch):
        jobs = _jobs()
        run_variants(jobs, jobs=2)
        assert not obs_metrics.transport_counters().any_activity()


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestTransportCli:
    def test_http_without_workers_exits_2(self, capsys):
        from repro.cli import main

        assert main(["run", "LL", "--transport", "http"]) == 2
        assert "worker endpoints" in capsys.readouterr().err

    def test_bad_worker_address_exits_2(self, capsys):
        from repro.cli import main

        code = main(
            ["run", "LL", "--transport", "http", "--workers", "nonsense"]
        )
        assert code == 2

    def test_local_transport_flag_accepted(self, capsys):
        from repro.cli import main

        assert main(["run", "LL", "--transport", "local", "--jobs", "1"]) == 0
        assert "variant" in capsys.readouterr().out
