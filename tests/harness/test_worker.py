"""Fleet worker endpoint (repro.harness.worker): job execution over the
sealed wire protocol, error envelopes, lifecycle (shutdown/max-jobs),
and graceful local-cache degradation surfaced to the coordinator."""

import json
import os
import re
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.harness import cache
from repro.harness import supervisor
from repro.harness import transport
from repro.harness.parallel import VariantJob, run_variants
from repro.harness.runner import clear_trace_cache, run_variant
from repro.stats.run import RunStats
from repro.harness.worker import start_worker_thread
from repro.obs import metrics as obs_metrics
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig

SMALL = dict(init_ops=40, sim_ops=4)
SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    monkeypatch.delenv(supervisor.ENV_CHAOS, raising=False)
    monkeypatch.delenv(transport.ENV_TRANSPORT, raising=False)
    monkeypatch.delenv(transport.ENV_WORKERS, raising=False)
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


@pytest.fixture
def worker(tmp_path):
    server, _thread = start_worker_thread(cache_root=str(tmp_path / "wcache"))
    yield server
    server.shutdown()
    server.server_close()


def _url(server, path: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path: str):
    with urllib.request.urlopen(_url(server, path), timeout=10) as response:
        return response.status, json.loads(response.read().decode())


def _post(server, path: str, body: bytes):
    request = urllib.request.Request(_url(server, path), data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _raw_post(server, path: str, length: str):
    """POST with a hand-written ``Content-Length`` and no body, keeping
    the connection open; returns ``(status, body)`` of the reply."""
    import socket

    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n".encode()
        )
        reply = b""
        while True:
            chunk = sock.recv(65536)  # socket.timeout fails the test
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def _job():
    return VariantJob("LL", PersistMode.LOG_P_SF, MachineConfig(), **SMALL)


class TestEndpoints:
    def test_healthz(self, worker):
        status, payload = _get(worker, "/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert payload["kind"] == "worker"
        assert payload["jobs_done"] == 0
        assert payload["cache_degraded"] is None

    def test_unknown_paths_404(self, worker):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(worker, "/nope")
        assert err.value.code == 404
        status, _body = _post(worker, "/nope", b"{}")
        assert status == 404

    def test_sim_job_matches_local_execution(self, worker):
        job = _job()
        digest = cache.stats_digest(job.trace_key, job.config)
        blob = transport.encode_job("sim", job.trace_key, job.config, digest, 1)
        status, body = _post(worker, "/job", blob)
        assert status == 200
        record = transport.unseal_record(body)  # CRC must verify
        assert record["ok"] is True
        assert record["kind"] == "sim"
        assert record["digest"] == digest
        assert record["jobs_done"] == 1
        remote = RunStats.from_dict(record["result"])
        local = run_variant(job.abbrev, job.mode, job.config, **SMALL)
        assert remote == local

    def test_trace_job_returns_op_count(self, worker):
        job = _job()
        blob = transport.encode_job("trace", job.trace_key, None, "t0", 1)
        status, body = _post(worker, "/job", blob)
        assert status == 200
        record = transport.unseal_record(body)
        assert record["ok"] is True and record["kind"] == "trace"
        assert isinstance(record["result"], int) and record["result"] > 0

    def test_repeat_job_is_a_cache_hit(self, worker):
        job = _job()
        blob = transport.encode_job("sim", job.trace_key, job.config, "d", 1)
        _status, first = _post(worker, "/job", blob)
        _status, second = _post(worker, "/job", blob)
        assert (
            transport.unseal_record(first)["result"]
            == transport.unseal_record(second)["result"]
        )

    def test_malformed_job_gets_sealed_400(self, worker):
        status, body = _post(worker, "/job", b"this is not a job")
        assert status == 400
        record = transport.unseal_record(body)  # errors are sealed too
        assert record["ok"] is False and "error" in record

    def test_negative_content_length_gets_sealed_400(self, worker):
        # rfile.read(-1) would wait for the client to hang up: the
        # request must be answered, not left hanging
        status, body = _raw_post(worker, "/job", "-1")
        assert status == 400
        record = transport.unseal_record(body)
        assert record["ok"] is False and "Content-Length" in record["error"]

    def test_failing_job_gets_sealed_500(self, worker):
        # an unknown benchmark passes protocol checks but fails execution
        job = _job()
        payload = json.loads(
            transport.encode_job("sim", job.trace_key, job.config, "d", 1)
        )
        payload["key"]["abbrev"] = "ZZ"
        status, body = _post(worker, "/job", json.dumps(payload).encode())
        assert status == 400 or status == 500
        record = transport.unseal_record(body)
        assert record["ok"] is False

    def test_shutdown_endpoint_stops_the_server(self, tmp_path):
        server, thread = start_worker_thread(
            cache_root=str(tmp_path / "wcache2")
        )
        status, _body = _post(server, "/shutdown", b"")
        assert status == 200
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_max_jobs_retires_the_worker(self, tmp_path):
        server, thread = start_worker_thread(
            cache_root=str(tmp_path / "wcache3"), max_jobs=1
        )
        job = _job()
        blob = transport.encode_job("sim", job.trace_key, job.config, "d", 1)
        status, _body = _post(server, "/job", blob)
        assert status == 200
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_job_past_max_jobs_is_dropped_before_the_listener_closes(
        self, tmp_path, monkeypatch
    ):
        """A retiring worker stops listening a moment after its last
        job; a job that arrives in that moment must not be served."""
        from repro.harness.worker import WorkerServer

        monkeypatch.setattr(WorkerServer, "stop_soon", lambda self: None)
        server, _thread = start_worker_thread(
            cache_root=str(tmp_path / "wcache4"), max_jobs=1
        )
        job = _job()
        blob = transport.encode_job("sim", job.trace_key, job.config, "d", 1)
        try:
            assert _post(server, "/job", blob)[0] == 200
            with pytest.raises((urllib.error.URLError, ConnectionError)):
                _post(server, "/job", blob)
            assert server.state.jobs_done == 1
        finally:
            server.shutdown()
            server.server_close()


class TestCacheDegradedWorker:
    """Satellite: a worker whose local cache writes start failing keeps
    producing correct results and reports the degradation upstream."""

    def _spawn_degraded_worker(self, tmp_path):
        # REPRO_CACHE_DIR pointing at a *file* makes every store fail —
        # a subprocess keeps the runtime-disable flip out of our process
        poison = tmp_path / "not-a-directory"
        poison.write_text("occupied\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env[cache.ENV_CACHE_DIR] = str(poison)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        banner = process.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", banner)
        assert match, f"no listen banner: {banner!r}"
        return process, match.group(1), int(match.group(2))

    def test_degraded_worker_still_correct_and_reports_it(
        self, tmp_path, monkeypatch
    ):
        process, host, port = self._spawn_degraded_worker(tmp_path)
        try:
            transport.set_transport("http")
            transport.set_workers([f"{host}:{port}"])
            jobs = [
                VariantJob(ab, PersistMode.LOG_P_SF, MachineConfig(), **SMALL)
                for ab in ("LL", "HM")
            ]
            # ground truth, computed with the transport off
            transport.set_transport("local")
            monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
            baseline = run_variants(jobs, jobs=1)
            monkeypatch.delenv(cache.ENV_NO_CACHE)
            clear_trace_cache()
            obs_metrics.reset_metrics()
            supervisor.reset()
            transport.set_transport("http")
            results = run_variants(jobs, jobs=2)
            assert results == baseline  # degraded cache never costs truth
            counters = obs_metrics.transport_counters()
            assert counters.remote_jobs == len(jobs)
            assert counters.worker_cache_degraded >= 1
        finally:
            process.terminate()
            process.wait(timeout=10)
