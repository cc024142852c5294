"""Simulation-as-a-service (repro.harness.service): sweep request
validation, NDJSON result streaming, and the metrics/liveness probes."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.harness import cache
from repro.harness import supervisor
from repro.harness import transport
from repro.harness.runner import clear_trace_cache, run_variant
from repro.harness.service import (
    SweepRequestError,
    make_service,
    parse_sweep,
)
from repro.obs import metrics as obs_metrics
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig


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
def service():
    server = make_service(jobs=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _url(server, path: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path: str):
    with urllib.request.urlopen(_url(server, path), timeout=10) as response:
        return response.status, json.loads(response.read().decode())


def _sweep(server, payload: dict):
    request = urllib.request.Request(
        _url(server, "/sweep"),
        data=json.dumps(payload).encode(),
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            lines = [
                json.loads(line)
                for line in response.read().decode().splitlines()
                if line.strip()
            ]
            return response.status, lines
    except urllib.error.HTTPError as exc:
        return exc.code, [json.loads(exc.read().decode())]


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


class TestParseSweep:
    def test_defaults(self):
        benchmarks, modes, seed, init_ops, sim_ops = parse_sweep({})
        assert len(benchmarks) >= 2  # the full workload registry
        assert [label for label, _m, _c in modes] == [
            "base", "log", "log+p", "log+p+sf", "sp256",
        ]
        assert seed == 7 and init_ops is None and sim_ops is None

    def test_sp_mode_resolution(self):
        _benchmarks, modes, *_rest = parse_sweep({"modes": ["sp64"]})
        label, mode, config = modes[0]
        assert label == "sp64"
        assert mode is PersistMode.LOG_P_SF
        assert config.sp_enabled and config.ssb_entries == 64

    def test_rejections(self):
        for payload, message in (
            ({"benchmarks": ["NOPE"]}, "unknown benchmark"),
            ({"benchmarks": "LL"}, "non-empty list"),
            ({"benchmarks": []}, "non-empty list"),
            ({"modes": []}, "non-empty list"),
            ({"modes": ["warp9"]}, "unknown mode"),
            ({"modes": ["sp0"]}, "unknown mode"),
            ({"sim_ops": -5}, "positive"),
            ({"seed": "lucky"}, "integer"),
            ({"surprise": 1}, "unknown sweep fields"),
        ):
            with pytest.raises(SweepRequestError, match=message):
                parse_sweep(payload)


class TestServiceEndpoints:
    def test_healthz_and_metrics(self, service):
        status, payload = _get(service, "/healthz")
        assert status == 200 and payload["kind"] == "serve"
        status, snapshot = _get(service, "/metrics")
        assert status == 200
        assert snapshot["schema"] == 5
        assert "transport" in snapshot

    def test_sweep_streams_correct_cells(self, service):
        status, lines = _sweep(
            service,
            {
                "benchmarks": ["LL", "HM"],
                "modes": ["base", "sp256"],
                "init_ops": 40,
                "sim_ops": 4,
            },
        )
        assert status == 200
        summary = lines[-1]
        assert summary["done"] is True and summary["cells"] == 4
        cells = {
            (line["benchmark"], line["mode"]): line for line in lines[:-1]
        }
        assert set(cells) == {
            ("LL", "base"), ("LL", "sp256"), ("HM", "base"), ("HM", "sp256"),
        }
        for (abbrev, label), cell in cells.items():
            mode = PersistMode.BASE if label == "base" else PersistMode.LOG_P_SF
            config = (
                MachineConfig() if label == "base"
                else MachineConfig().with_sp(256)
            )
            expected = run_variant(abbrev, mode, config, init_ops=40, sim_ops=4)
            assert cell["cycles"] == expected.cycles
            assert cell["instructions"] == expected.instructions

    def test_bad_sweep_is_a_400(self, service):
        status, lines = _sweep(service, {"benchmarks": ["NOPE"]})
        assert status == 400
        assert lines[0]["ok"] is False

    def test_unparseable_body_is_a_400(self, service):
        request = urllib.request.Request(
            _url(service, "/sweep"), data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_negative_content_length_is_a_400(self, service):
        # rfile.read(-1) would wait for the client to hang up: the
        # request must be answered, not left hanging
        status, body = _raw_post(service, "/sweep", "-1")
        assert status == 400
        assert "Content-Length" in json.loads(body)["error"]

    def test_unknown_paths_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(service, "/sweeps")
        assert err.value.code == 404


class TestConcurrentSweeps:
    def test_concurrent_sweeps_match_the_serial_oracle(self, monkeypatch):
        """Eight overlapping sweeps at once through one service at
        jobs=2: every streamed cell equals a serial run_variants."""
        from repro.harness.parallel import VariantJob, run_variants
        from repro.harness.service import _resolve_mode

        small = dict(init_ops=40, sim_ops=4)
        pairs = [("LL", "HM"), ("HM", "BT"), ("BT", "LL"), ("LL",)]
        mode_sets = [("base", "sp256"), ("log+p", "base"), ("sp256", "log+p")]
        requests = [
            {"benchmarks": list(pairs[i % 4]),
             "modes": list(mode_sets[i % 3]), **small}
            for i in range(8)
        ]
        cells = sorted({
            (ab, label)
            for request in requests
            for ab in request["benchmarks"]
            for label in request["modes"]
        })
        monkeypatch.setenv(cache.ENV_NO_CACHE, "1")
        baseline_stats = run_variants(
            [
                VariantJob(ab, mode, config, **small)
                for ab, label in cells
                for _label, mode, config in [_resolve_mode(label)]
            ],
            jobs=1,
        )
        baseline = {
            cell: (stats.cycles, stats.instructions)
            for cell, stats in zip(cells, baseline_stats)
        }
        monkeypatch.delenv(cache.ENV_NO_CACHE)
        clear_trace_cache()

        server = make_service(jobs=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        replies = [None] * len(requests)

        def fire(index):
            replies[index] = _sweep(server, requests[index])

        try:
            clients = [
                threading.Thread(target=fire, args=(i,))
                for i in range(len(requests))
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=300)
        finally:
            server.shutdown()
            server.server_close()
        for request, reply in zip(requests, replies):
            assert reply is not None, request
            status, lines = reply
            assert status == 200
            assert lines[-1]["done"] is True, lines[-1]
            expected = len(request["benchmarks"]) * len(request["modes"])
            assert lines[-1]["cells"] == expected
            for line in lines[:-1]:
                cell = (line["benchmark"], line["mode"])
                assert (line["cycles"], line["instructions"]) == baseline[cell]
