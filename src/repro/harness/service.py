"""Simulation-as-a-service: ``python -m repro serve --listen HOST:PORT``.

A long-running stdlib HTTP endpoint that accepts sweep requests and
streams per-cell results as they complete.  Each ``POST /sweep`` body is
a JSON object::

    {"benchmarks": ["BT", "HM"],        # default: all seven
     "modes": ["base", "log+p", "sp256"],  # default: the figure-8 set
     "seed": 7,                          # optional
     "init_ops": 200, "sim_ops": 100}    # optional overrides

and the response is ``application/x-ndjson``: one line per completed
cell (benchmark × mode) followed by a ``{"done": true, ...}`` summary
line.  Cells execute through the normal campaign path —
:func:`repro.harness.parallel.run_variants` under the supervisor — so
they hit the content-addressed cache, are journaled, and can fan out to
a worker fleet when the http transport is configured (``--transport
http --workers ...`` / ``REPRO_TRANSPORT``/``REPRO_WORKERS``).

``GET /healthz`` answers liveness; ``GET /metrics`` returns the full
:func:`repro.obs.metrics.metrics_snapshot` JSON (cache counters,
supervisor recoveries, transport fleet health).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Optional, Tuple

from repro.harness.parallel import VariantJob, run_variants
from repro.harness import transport
from repro.harness.worker import (
    QuietHandler,
    QuietHTTPServer,
    serve_until_interrupted,
)
from repro.obs import metrics as obs_metrics
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.workloads.registry import WORKLOADS

#: The figure-8 variant set, served when a sweep names no modes.
DEFAULT_MODES = ("base", "log", "log+p", "log+p+sf", "sp256")


class SweepRequestError(ValueError):
    """The sweep request body failed validation (answered with a 400)."""


def _resolve_mode(label: str) -> Tuple[str, PersistMode, MachineConfig]:
    """Map a wire mode label to ``(label, PersistMode, MachineConfig)``.

    Accepts the four persist-mode values plus ``sp<N>`` (speculative
    persistence with an N-entry SSB on top of ``log+p+sf``).
    """
    label = label.strip().lower()
    try:
        return label, PersistMode(label), MachineConfig()
    except ValueError:
        pass
    if label.startswith("sp"):
        try:
            entries = int(label[2:])
        except ValueError:
            entries = -1
        if entries > 0:
            return label, PersistMode.LOG_P_SF, MachineConfig().with_sp(entries)
    raise SweepRequestError(
        f"unknown mode {label!r} (expected "
        f"{'/'.join(m.value for m in PersistMode)} or spN)"
    )


def parse_sweep(payload: Dict[str, object]):
    """Validate a sweep request; returns ``(benchmarks, mode_triples,
    seed, init_ops, sim_ops)``."""
    if not isinstance(payload, dict):
        raise SweepRequestError("sweep request must be a JSON object")
    unknown = set(payload) - {
        "benchmarks", "modes", "seed", "init_ops", "sim_ops"
    }
    if unknown:
        raise SweepRequestError(f"unknown sweep fields: {sorted(unknown)}")
    # an absent field takes its default; an explicit [] is an error
    benchmarks = payload.get("benchmarks", list(WORKLOADS))
    if not isinstance(benchmarks, list) or not benchmarks:
        raise SweepRequestError("'benchmarks' must be a non-empty list")
    for abbrev in benchmarks:
        if abbrev not in WORKLOADS:
            raise SweepRequestError(
                f"unknown benchmark {abbrev!r} "
                f"(expected one of {list(WORKLOADS)})"
            )
    mode_labels = payload.get("modes", list(DEFAULT_MODES))
    if not isinstance(mode_labels, list) or not mode_labels:
        raise SweepRequestError("'modes' must be a non-empty list")
    modes = [_resolve_mode(str(label)) for label in mode_labels]

    def _int_field(name: str, default) -> Optional[int]:
        value = payload.get(name, default)
        if value is None:
            return None
        try:
            value = int(value)
        except (TypeError, ValueError):
            raise SweepRequestError(f"'{name}' must be an integer") from None
        if name != "seed" and value <= 0:
            raise SweepRequestError(f"'{name}' must be positive")
        return value

    seed = _int_field("seed", 7)
    init_ops = _int_field("init_ops", None)
    sim_ops = _int_field("sim_ops", None)
    return benchmarks, modes, seed, init_ops, sim_ops


class ServiceServer(QuietHTTPServer):
    def __init__(self, address: Tuple[str, int], jobs: Optional[int]) -> None:
        super().__init__(address, _ServiceHandler)
        self.jobs = jobs
        self.sweeps = 0
        self.lock = threading.Lock()


class _ServiceHandler(QuietHandler):
    server_version = "repro-serve/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/healthz":
            self._reply_json(
                200,
                {
                    "ok": True,
                    "kind": "serve",
                    "pid": os.getpid(),
                    "sweeps": self.server.sweeps,
                },
            )
            return
        if self.path == "/metrics":
            self._reply_json(200, obs_metrics.metrics_snapshot())
            return
        self._reply_error(404, "not found")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path != "/sweep":
            self._reply_error(404, "not found")
            return
        blob = self._read_body()
        if blob is None:
            return
        try:
            payload = json.loads(blob.decode("utf-8"))
        except ValueError as exc:
            self._reply_error(400, f"bad body: {exc}")
            return
        try:
            benchmarks, modes, seed, init_ops, sim_ops = parse_sweep(payload)
        except SweepRequestError as exc:
            self._reply_error(400, str(exc))
            return
        with self.server.lock:
            self.server.sweeps += 1
        self._stream_sweep(benchmarks, modes, seed, init_ops, sim_ops)

    def _stream_sweep(self, benchmarks, modes, seed, init_ops, sim_ops) -> None:
        """Run the sweep one benchmark at a time, streaming each
        benchmark's cells as soon as its campaign merges."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        started = time.perf_counter()
        cells = 0
        try:
            for abbrev in benchmarks:
                jobs = [
                    VariantJob(
                        abbrev=abbrev, mode=mode, config=config, seed=seed,
                        init_ops=init_ops, sim_ops=sim_ops,
                    )
                    for _label, mode, config in modes
                ]
                results = run_variants(jobs, jobs=self.server.jobs)
                for (label, _mode, _config), stats in zip(modes, results):
                    cells += 1
                    self._write_line(
                        {
                            "benchmark": abbrev,
                            "mode": label,
                            "cycles": stats.cycles,
                            "instructions": stats.instructions,
                            "ipc": round(stats.ipc, 6),
                        }
                    )
            self._write_line(
                {
                    "done": True,
                    "cells": cells,
                    "wall_s": round(time.perf_counter() - started, 3),
                }
            )
        except OSError:
            pass  # client hung up mid-stream; the cache keeps the work
        except Exception as exc:  # the service must survive a bad sweep
            try:
                self._write_line(
                    {"done": False, "error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:
                pass

    def _write_line(self, payload: dict) -> None:
        self.wfile.write(
            (json.dumps(payload, sort_keys=True) + "\n").encode()
        )
        self.wfile.flush()


def make_service(
    host: str = "127.0.0.1", port: int = 0, jobs: Optional[int] = None
) -> ServiceServer:
    """Build (but don't start) the service; ``port=0`` binds any free
    port — read it back from ``server.server_address``."""
    return ServiceServer((host, port), jobs)


def serve_service(listen: str, jobs: Optional[int] = None) -> int:
    """Blocking entry point behind ``python -m repro serve``."""
    host, port = transport.parse_hostport(listen)
    serve_until_interrupted(make_service(host, port, jobs), "serving sweeps on")
    return 0
