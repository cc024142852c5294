"""The fleet worker: ``python -m repro worker --listen HOST:PORT``.

A small stdlib HTTP server that executes campaign cells for a remote
coordinator (:mod:`repro.harness.transport`).  The protocol is one
line-delimited JSON job request per ``POST /job``; every response — 200
or error — is a CRC-32 envelope (:func:`transport.seal_record`), so a
coordinator can always distinguish a damaged payload from a bad job.

The worker owns its cache store: results are persisted locally under
its own ``REPRO_CACHE_DIR`` (or a private scratch directory), so a
repeated job — e.g. after a chaos ``drop`` lost the response — is a
cache hit, not a re-simulation.  No shared filesystem is assumed; the
coordinator re-persists returned stats into the campaign root, keeping
its journal the single source of truth.

Endpoints:

* ``POST /job`` — execute one trace/sim cell, reply with the sealed
  result record (includes ``cache_degraded`` so the coordinator can
  surface a worker whose local cache writes started failing);
* ``GET /healthz`` — liveness probe for the coordinator's heartbeats;
* ``POST /shutdown`` — graceful stop (used by tests and deployments).

The HTTP plumbing (:class:`QuietHTTPServer`, :class:`QuietHandler`) is
shared with the sweep service (:mod:`repro.harness.service`).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.harness import cache as disk_cache
from repro.harness import supervisor
from repro.harness import transport


class _WorkerState:
    """Mutable per-server bookkeeping, shared across handler threads."""

    def __init__(
        self, cache_root: Optional[str] = None, max_jobs: Optional[int] = None
    ) -> None:
        self.max_jobs = max_jobs
        self.jobs_done = 0
        self.started = time.time()
        self.lock = threading.Lock()
        self._scratch: Optional[tempfile.TemporaryDirectory] = None
        if cache_root is not None:
            self.cache_root = cache_root
        else:
            root = disk_cache.cache_root()
            if root is None:
                self._scratch = tempfile.TemporaryDirectory(
                    prefix="repro-worker-"
                )
                root = self._scratch.name
            self.cache_root = str(root)

    def cleanup(self) -> None:
        if self._scratch is not None:
            self._scratch.cleanup()
            self._scratch = None


class QuietHTTPServer(ThreadingHTTPServer):
    """Daemon handler threads on a reusable address."""

    daemon_threads = True
    allow_reuse_address = True


class QuietHandler(BaseHTTPRequestHandler):
    """Request plumbing: JSON replies, a guarded body reader, no logging."""

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the servers are driven by tests and CI; stay quiet

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except OSError:
            pass  # peer went away (or chaos dropped it); nothing to do

    def _reply_json(self, status: int, payload: Dict) -> None:
        self._reply(
            status,
            (json.dumps(payload, sort_keys=True) + "\n").encode(),
            "application/json",
        )

    def _reply_error(self, status: int, message: str) -> None:
        self._reply_json(status, {"ok": False, "error": message})

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after answering 400 — a bad or
        negative ``Content-Length`` must not reach ``rfile.read``, where
        ``read(-1)`` would block until the client hangs up."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
            return self.rfile.read(length)
        except (ValueError, OSError) as exc:
            self._reply_error(400, f"bad body: {exc}")
            return None


def serve_until_interrupted(server: QuietHTTPServer, banner: str) -> None:
    """Print ``"<banner> HOST:PORT"`` and serve until Ctrl-C."""
    bound_host, bound_port = server.server_address[:2]
    print(f"{banner} {bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


class WorkerServer(QuietHTTPServer):
    def __init__(self, address: Tuple[str, int], state: _WorkerState) -> None:
        super().__init__(address, _WorkerHandler)
        self.state = state

    def stop_soon(self) -> None:
        """Stop serving from a handler thread without deadlocking."""

        def _stop() -> None:
            self.shutdown()
            self.server_close()

        threading.Thread(target=_stop, daemon=True).start()


class _WorkerHandler(QuietHandler):
    server_version = "repro-worker/1"

    def _reply_sealed(self, status: int, record: dict) -> None:
        self._reply(
            status, transport.seal_record(record), "application/x-ndjson"
        )

    def _reply_error(self, status: int, message: str) -> None:
        self._reply_sealed(status, {"ok": False, "error": message})

    # -- endpoints -----------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path != "/healthz":
            self._reply_json(404, {"ok": False, "error": "not found"})
            return
        state = self.server.state
        self._reply_json(
            200,
            {
                "ok": True,
                "kind": "worker",
                "pid": os.getpid(),
                "jobs_done": state.jobs_done,
                "uptime_s": round(time.time() - state.started, 3),
                "cache_degraded": disk_cache.runtime_disabled(),
            },
        )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/shutdown":
            self._reply_json(200, {"ok": True, "stopping": True})
            self.server.stop_soon()
            return
        if self.path != "/job":
            self._reply_json(404, {"ok": False, "error": "not found"})
            return
        state = self.server.state
        with state.lock:
            spent = state.max_jobs is not None and state.jobs_done >= state.max_jobs
        if spent:
            # the listener closes a moment after the last allowed job;
            # a job arriving in between is dropped as a stopped worker
            # would drop it, never served
            self.close_connection = True
            return
        blob = self._read_body()
        if blob is None:
            return
        try:
            kind, key, config, digest, _attempt = transport.decode_job(blob)
        except transport.TransportProtocolError as exc:
            self._reply_error(400, str(exc))
            return
        started = time.perf_counter()
        try:
            result, _stored = supervisor._do_work(
                kind, key, config, state.cache_root
            )
        except Exception as exc:  # a worker must never die on one job
            self._reply_sealed(
                500,
                {
                    "ok": False,
                    "kind": kind,
                    "digest": digest,
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            return
        wall = time.perf_counter() - started
        with state.lock:
            state.jobs_done += 1
            jobs_done = state.jobs_done
        self._reply_sealed(
            200,
            {
                "ok": True,
                "kind": kind,
                "digest": digest,
                "result": (
                    disk_cache.stats_record(result)
                    if kind == "sim"
                    else int(result)
                ),
                "wall_s": round(wall, 6),
                "pid": os.getpid(),
                "jobs_done": jobs_done,
                "cache_degraded": disk_cache.runtime_disabled(),
            },
        )
        if state.max_jobs is not None and jobs_done >= state.max_jobs:
            self.server.stop_soon()


def make_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_root: Optional[str] = None,
    max_jobs: Optional[int] = None,
) -> WorkerServer:
    """Build (but don't start) a worker server; ``port=0`` binds any
    free port — read it back from ``server.server_address``."""
    return WorkerServer((host, port), _WorkerState(cache_root, max_jobs))


def start_worker_thread(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_root: Optional[str] = None,
    max_jobs: Optional[int] = None,
) -> Tuple[WorkerServer, threading.Thread]:
    """In-process worker for tests: serve on a daemon thread."""
    server = make_worker(host, port, cache_root, max_jobs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def serve_worker(listen: str, max_jobs: Optional[int] = None) -> int:
    """Blocking entry point behind ``python -m repro worker``."""
    host, port = transport.parse_hostport(listen)
    server = make_worker(host, port, max_jobs=max_jobs)
    try:
        serve_until_interrupted(server, "worker listening on")
    finally:
        server.state.cleanup()
    return 0
