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
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

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


class WorkerServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], state: _WorkerState) -> None:
        super().__init__(address, _WorkerHandler)
        self.state = state

    def stop_soon(self) -> None:
        """Stop serving from a handler thread without deadlocking."""

        def _stop() -> None:
            self.shutdown()
            self.server_close()

        threading.Thread(target=_stop, daemon=True).start()


class _WorkerHandler(BaseHTTPRequestHandler):
    server_version = "repro-worker/1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the worker is driven by tests and CI; stay quiet

    # -- plumbing ------------------------------------------------------
    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except OSError:
            pass  # peer went away (or chaos dropped it); nothing to do

    def _reply_sealed(self, status: int, record: dict) -> None:
        self._reply(
            status, transport.seal_record(record), "application/x-ndjson"
        )

    def _reply_json(self, status: int, payload: dict) -> None:
        self._reply(
            status,
            (json.dumps(payload, sort_keys=True) + "\n").encode(),
            "application/json",
        )

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
        try:
            length = int(self.headers.get("Content-Length", "0"))
            blob = self.rfile.read(length)
        except (ValueError, OSError):
            self._reply_sealed(400, {"ok": False, "error": "unreadable body"})
            return
        try:
            kind, key, config, digest, _attempt = transport.decode_job(blob)
        except transport.TransportProtocolError as exc:
            self._reply_sealed(400, {"ok": False, "error": str(exc)})
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
    bound_host, bound_port = server.server_address[:2]
    print(f"worker listening on {bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        try:
            server.server_close()
        except OSError:
            pass
        server.state.cleanup()
    return 0
