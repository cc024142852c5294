"""Worker transports: where campaign cells execute.

The supervisor (:mod:`repro.harness.supervisor`) drives a list of tasks
— trace generations and simulations — to completion.  *Where* each task
runs is this module's job:

* the ``local`` transport is the existing in-process
  :class:`~concurrent.futures.ProcessPoolExecutor` pool (the supervisor
  uses it directly; this module only names it);
* the ``http`` transport fans cells out to remote workers
  (``python -m repro worker --listen HOST:PORT``) over a minimal
  line-delimited JSON job protocol, with the coordinator's campaign
  journal staying the single source of truth.

Remote execution is treated as hostile by construction:

* every request has a wall-clock deadline (``REPRO_NET_TIMEOUT``) and
  failed attempts retry with the supervisor's seeded exponential
  backoff + jitter, so a rerun of a flaky campaign schedules
  identically;
* workers are heartbeated (``GET /healthz``); a peer that stops
  answering is marked dead and its jobs are reassigned to survivors;
* a worker that keeps failing is quarantined for a bounded window
  (``REPRO_WORKER_QUARANTINE`` seconds), then re-probed; repeat
  offenders are dropped from the fleet for the campaign;
* every response is a CRC-32 envelope (the PR-5 stats container
  format); a garbled payload is rejected and the attempt retried —
  corrupt bytes can never become results;
* the degradation ladder is total: fleet -> surviving workers -> local
  process pool -> in-process serial.  A dead fleet costs time, never
  correctness, and every rung transition is counted in
  :mod:`repro.obs.telemetry` / the metrics line.

``REPRO_CHAOS`` gains four network fault classes — ``drop:p`` (response
lost after the worker did the work), ``delay:p`` (latency pushed past
the deadline), ``garble:p`` (response bytes flipped), ``partition:p``
(peer unreachable) — injected client-side, deterministic per
``(seed, job digest, attempt)``, so chaos campaigns replay identically.

See ``docs/RESILIENCE.md`` §8 for the protocol sketch and policies.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import socket
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.harness import cache as disk_cache
from repro.harness.runner import TraceKey
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry
from repro.stats.run import RunStats
from repro.txn.modes import PersistMode
from repro.uarch.config import CacheConfig, MachineConfig

ENV_TRANSPORT = "REPRO_TRANSPORT"
ENV_WORKERS = "REPRO_WORKERS"
ENV_NET_TIMEOUT = "REPRO_NET_TIMEOUT"
ENV_WORKER_MAX_FAILURES = "REPRO_WORKER_MAX_FAILURES"
ENV_WORKER_QUARANTINE = "REPRO_WORKER_QUARANTINE"
ENV_WORKER_MAX_QUARANTINES = "REPRO_WORKER_MAX_QUARANTINES"
ENV_HEARTBEAT_INTERVAL = "REPRO_HEARTBEAT_INTERVAL"
ENV_HEARTBEAT_MISSES = "REPRO_HEARTBEAT_MISSES"

#: Version of the wire protocol (requests and response records).
PROTOCOL_VERSION = 1

TRANSPORTS = ("local", "http")


class TransportConfigError(ValueError):
    """The transport selection is unusable (e.g. ``http`` with no workers)."""


class TransportProtocolError(ValueError):
    """A peer's payload failed to parse or verify (CRC, shape, schema)."""


# ----------------------------------------------------------------------
# transport selection (mirrors supervisor.set_resume's CLI plumbing)
# ----------------------------------------------------------------------
_TRANSPORT_OVERRIDE: Optional[str] = None
_WORKERS_OVERRIDE: Optional[List[str]] = None


def set_transport(name: Optional[str]) -> None:
    """CLI override for the campaign transport (``--transport``)."""
    global _TRANSPORT_OVERRIDE
    if name is not None and name not in TRANSPORTS:
        raise TransportConfigError(
            f"unknown transport {name!r} (expected one of {TRANSPORTS})"
        )
    _TRANSPORT_OVERRIDE = name


def set_workers(addresses: Optional[Sequence[str]]) -> None:
    """CLI override for the http worker endpoints (``--workers``)."""
    global _WORKERS_OVERRIDE
    if addresses is None:
        _WORKERS_OVERRIDE = None
        return
    _WORKERS_OVERRIDE = [addr for addr in addresses if addr.strip()]


def reset() -> None:
    """Restore default transport state (tests)."""
    global _TRANSPORT_OVERRIDE, _WORKERS_OVERRIDE
    _TRANSPORT_OVERRIDE = None
    _WORKERS_OVERRIDE = None


def configured_transport(environ=os.environ) -> str:
    """The active transport name: CLI override, then env, then ``local``."""
    if _TRANSPORT_OVERRIDE is not None:
        return _TRANSPORT_OVERRIDE
    name = environ.get(ENV_TRANSPORT, "").strip() or "local"
    if name not in TRANSPORTS:
        raise TransportConfigError(
            f"unknown {ENV_TRANSPORT}={name!r} (expected one of {TRANSPORTS})"
        )
    return name


def worker_addresses(environ=os.environ) -> List[str]:
    """The configured http worker endpoints (possibly empty)."""
    if _WORKERS_OVERRIDE is not None:
        return list(_WORKERS_OVERRIDE)
    raw = environ.get(ENV_WORKERS, "")
    return [part.strip() for part in raw.split(",") if part.strip()]


def parse_hostport(address: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse ``"host:port"`` (bare ``":port"`` binds the default host)."""
    host, sep, port_text = address.rpartition(":")
    if not sep:
        raise TransportConfigError(f"worker address {address!r} needs host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise TransportConfigError(
            f"bad port in worker address {address!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise TransportConfigError(f"port out of range in {address!r}")
    return (host or default_host), port


# ----------------------------------------------------------------------
# wire protocol: job requests and CRC-enveloped response records
# ----------------------------------------------------------------------
def encode_key(key: TraceKey) -> Dict[str, object]:
    return {
        "abbrev": key.abbrev,
        "mode": key.mode.value,
        "seed": key.seed,
        "init_ops": key.init_ops,
        "sim_ops": key.sim_ops,
        "cores": key.cores,
        "contention": key.contention,
    }


def decode_key(payload: Dict[str, object]) -> TraceKey:
    try:
        return TraceKey(
            abbrev=str(payload["abbrev"]),
            mode=PersistMode(payload["mode"]),
            seed=int(payload["seed"]),
            init_ops=payload.get("init_ops"),
            sim_ops=payload.get("sim_ops"),
            cores=int(payload.get("cores", 1)),
            contention=float(payload.get("contention", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TransportProtocolError(f"bad trace key: {exc}") from None


def encode_config(config: MachineConfig) -> Dict[str, object]:
    return dataclasses.asdict(config)


def decode_config(payload: Dict[str, object]) -> MachineConfig:
    try:
        fields = dict(payload)
        for level in ("l1", "l2", "l3"):
            fields[level] = CacheConfig(**fields[level])
        return MachineConfig(**fields)
    except (KeyError, TypeError, ValueError) as exc:
        raise TransportProtocolError(f"bad machine config: {exc}") from None


def encode_job(
    kind: str,
    key: TraceKey,
    config: Optional[MachineConfig],
    digest: str,
    attempt: int,
) -> bytes:
    """One job request as a ``\\n``-terminated JSON line."""
    payload = {
        "schema": PROTOCOL_VERSION,
        "kind": kind,
        "key": encode_key(key),
        "config": None if config is None else encode_config(config),
        "digest": digest,
        "attempt": attempt,
    }
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def decode_job(blob: bytes):
    """Parse a job request; returns ``(kind, key, config, digest, attempt)``."""
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise TransportProtocolError(f"unparseable job request: {exc}") from None
    if not isinstance(payload, dict):
        raise TransportProtocolError("job request is not an object")
    if payload.get("schema") != PROTOCOL_VERSION:
        raise TransportProtocolError(
            f"protocol schema mismatch: {payload.get('schema')!r}"
        )
    kind = payload.get("kind")
    if kind not in ("trace", "sim"):
        raise TransportProtocolError(f"unknown job kind {kind!r}")
    key = decode_key(payload.get("key") or {})
    config = None
    if payload.get("config") is not None:
        config = decode_config(payload["config"])
    if kind == "sim" and config is None:
        raise TransportProtocolError("sim job without a machine config")
    digest = payload.get("digest")
    if not isinstance(digest, str) or not digest:
        raise TransportProtocolError("job request without a digest")
    return kind, key, config, digest, int(payload.get("attempt", 0))


def seal_record(record: Dict[str, object]) -> bytes:
    """Wrap *record* in the PR-5 CRC-32 integrity envelope (one JSON line)."""
    envelope = {
        "schema": PROTOCOL_VERSION,
        "crc": disk_cache.record_crc(record),
        "record": record,
    }
    return (
        json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def unseal_record(blob: bytes) -> Dict[str, object]:
    """Verify and unwrap a sealed response; raises on any damage."""
    try:
        envelope = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise TransportProtocolError(f"unparseable response: {exc}") from None
    if not isinstance(envelope, dict):
        raise TransportProtocolError("response is not an envelope object")
    record = envelope.get("record")
    if (
        not isinstance(record, dict)
        or "crc" not in envelope
        or disk_cache.record_crc(record) != envelope["crc"]
    ):
        raise TransportProtocolError("response record checksum mismatch")
    return record


# ----------------------------------------------------------------------
# fleet policy knobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetConfig:
    """Timeout/heartbeat/quarantine policy of the http transport."""

    #: wall-clock deadline of one job request (``REPRO_NET_TIMEOUT``).
    request_timeout: float = 60.0
    #: consecutive failures before a worker is quarantined.
    worker_max_failures: int = 3
    #: bounded quarantine window, in seconds; the worker re-enters
    #: rotation afterwards (probation).
    worker_quarantine_s: float = 2.0
    #: quarantines tolerated before the worker is dropped for good.
    worker_max_quarantines: int = 3
    #: seconds between liveness probes of idle workers.
    heartbeat_interval: float = 1.0
    #: consecutive missed heartbeats before a worker is declared dead.
    heartbeat_max_misses: int = 3

    @classmethod
    def from_env(cls, environ=os.environ) -> "FleetConfig":
        # imported here: single-process runs import this module but never
        # need the supervisor
        from repro.harness.supervisor import env_float, env_int

        return cls(
            request_timeout=env_float(
                environ, ENV_NET_TIMEOUT, cls.request_timeout, 0.05
            ),
            worker_max_failures=env_int(
                environ, ENV_WORKER_MAX_FAILURES, cls.worker_max_failures, 1
            ),
            worker_quarantine_s=env_float(
                environ, ENV_WORKER_QUARANTINE, cls.worker_quarantine_s, 0.0
            ),
            worker_max_quarantines=env_int(
                environ, ENV_WORKER_MAX_QUARANTINES, cls.worker_max_quarantines, 0
            ),
            heartbeat_interval=env_float(
                environ, ENV_HEARTBEAT_INTERVAL, cls.heartbeat_interval, 0.01
            ),
            heartbeat_max_misses=env_int(
                environ, ENV_HEARTBEAT_MISSES, cls.heartbeat_max_misses, 1
            ),
        )


class _Failure(Exception):
    """One failed remote attempt, classified for blame assignment.

    ``kind`` is ``timeout`` (deadline exceeded or response lost),
    ``garble`` (payload failed the CRC/shape checks), ``http`` (non-200
    status), ``conn`` (peer unreachable — connection refused/reset), or
    ``partition`` (chaos-injected unreachability).  ``conn``/``partition``
    blame the *endpoint* and requeue the task uncharged; the rest charge
    the task an attempt.
    """

    def __init__(self, kind: str, detail: str = "") -> None:
        super().__init__(detail or kind)
        self.kind = kind
        self.detail = detail


class _Endpoint:
    """Health state of one remote worker for one campaign."""

    __slots__ = (
        "host", "port", "label", "busy", "dead", "failures", "quarantines",
        "quarantined_until", "heartbeat_misses", "jobs_done",
        "cache_degraded_seen",
    )

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.label = f"{host}:{port}"
        self.busy = False
        self.dead = False
        self.failures = 0
        self.quarantines = 0
        self.quarantined_until = 0.0
        self.heartbeat_misses = 0
        self.jobs_done = 0
        self.cache_degraded_seen = False

    def alive(self, now: float) -> bool:
        return not self.dead and now >= self.quarantined_until

    def usable(self, now: float) -> bool:
        return self.alive(now) and not self.busy


def _garble_bytes(blob: bytes, rng: random.Random) -> bytes:
    """Deterministically damage *blob* (chaos ``garble``): truncate it or
    flip a few bytes — the CRC envelope must reject either."""
    if len(blob) < 2:
        return b"\x00"
    damaged = bytearray(blob)
    if rng.random() < 0.5:
        return bytes(damaged[: rng.randrange(1, len(damaged))])
    for _ in range(3):
        index = rng.randrange(len(damaged))
        damaged[index] ^= 1 + rng.randrange(255)
    return bytes(damaged)


def _bump(name: str, amount: int = 1) -> None:
    """Increment one transport counter, mirrored into telemetry."""
    counters = obs_metrics.transport_counters()
    setattr(counters, name, getattr(counters, name) + amount)
    telemetry.counter_inc(f"transport.{name}", amount)


# ----------------------------------------------------------------------
# the http fleet runner
# ----------------------------------------------------------------------
class FleetRunner:
    """Drive supervisor tasks across remote http workers.

    Completes what the fleet can; tasks it cannot finish (every worker
    dead, or a task exhausting its network attempts) are left not-done
    for the caller's local pool — the next rung of the degradation
    ladder.  Results are decoded from CRC envelopes and handed to the
    same ``on_done`` callbacks the local pool uses, so merge order and
    journaling are identical across transports.
    """

    def __init__(
        self,
        endpoints: Sequence[str],
        sup_config,
        chaos,
        report,
        fleet_config: Optional[FleetConfig] = None,
    ) -> None:
        self.endpoints = [
            _Endpoint(*parse_hostport(address)) for address in endpoints
        ]
        if not self.endpoints:
            raise TransportConfigError(
                "http transport needs at least one worker "
                "(--workers or REPRO_WORKERS)"
            )
        self.sup = sup_config
        self.chaos = chaos if chaos is not None and chaos.network_active() else None
        self.report = report
        self.cfg = fleet_config or FleetConfig.from_env()
        self.counters = obs_metrics.transport_counters()

    # -- one request ---------------------------------------------------
    def _http(
        self, endpoint: _Endpoint, method: str, path: str,
        body: Optional[bytes], timeout: float,
    ) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            endpoint.host, endpoint.port, timeout=timeout
        )
        try:
            headers = {"Content-Type": "application/x-ndjson"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _request_job(self, endpoint: _Endpoint, task, attempt: int):
        """Execute one job remotely; returns ``(record, wall_seconds)``.

        Chaos draws are deterministic in ``(seed, job digest, attempt)``:
        ``partition`` fails before any bytes move, ``drop`` loses the
        response *after* the worker did (and cached) the work, ``delay``
        models latency beyond the deadline, ``garble`` flips response
        bytes so the CRC envelope must catch them.
        """
        rng = None
        if self.chaos is not None:
            rng = random.Random(
                f"{self.chaos.seed}|net:{task.kind}:{task.digest}|{attempt}"
            )
            chaos_partition = rng.random() < self.chaos.partition
            chaos_drop = rng.random() < self.chaos.drop
            chaos_delay = rng.random() < self.chaos.delay
            chaos_garble = rng.random() < self.chaos.garble
            if chaos_partition:
                raise _Failure("partition", "chaos: peer unreachable")
            if chaos_delay:
                # model latency past the deadline without paying it in
                # real time: a short bounded sleep, then the timeout path
                time.sleep(min(0.25, self.cfg.request_timeout))
                raise _Failure("timeout", "chaos: response past deadline")
        else:
            chaos_drop = chaos_garble = False
        started = time.perf_counter()
        payload = encode_job(task.kind, task.key, task.config, task.digest, attempt)
        try:
            status, blob = self._http(
                endpoint, "POST", "/job", payload, self.cfg.request_timeout
            )
        except socket.timeout as exc:
            raise _Failure("timeout", repr(exc)) from None
        except (http.client.HTTPException, OSError) as exc:
            raise _Failure("conn", repr(exc)) from None
        wall = time.perf_counter() - started
        if chaos_drop:
            raise _Failure("timeout", "chaos: response dropped")
        if chaos_garble:
            blob = _garble_bytes(blob, rng)
        if status != 200:
            raise _Failure("http", f"status {status}")
        try:
            record = unseal_record(blob)
        except TransportProtocolError as exc:
            raise _Failure("garble", str(exc)) from None
        if (
            record.get("ok") is not True
            or record.get("digest") != task.digest
            or record.get("kind") != task.kind
        ):
            raise _Failure(
                "garble", f"response does not match job: {record.get('error')}"
            )
        return record, wall

    def _ping(self, endpoint: _Endpoint) -> bool:
        try:
            status, blob = self._http(
                endpoint, "GET", "/healthz", None,
                min(self.cfg.request_timeout, 2.0),
            )
            return status == 200 and json.loads(blob.decode()).get("ok") is True
        except (http.client.HTTPException, OSError, ValueError):
            return False

    # -- endpoint blame ------------------------------------------------
    def _mark_dead(self, endpoint: _Endpoint, reason: str) -> None:
        if endpoint.dead:
            return
        endpoint.dead = True
        _bump("dead_workers")
        self.report.event("worker_dead", endpoint.label, reason=reason)

    def _charge_endpoint(self, endpoint: _Endpoint, kind: str) -> None:
        endpoint.failures += 1
        if endpoint.failures < self.cfg.worker_max_failures:
            return
        endpoint.failures = 0
        endpoint.quarantines += 1
        if endpoint.quarantines > self.cfg.worker_max_quarantines:
            self._mark_dead(endpoint, f"repeat offender ({kind})")
            return
        endpoint.quarantined_until = (
            time.monotonic() + self.cfg.worker_quarantine_s
        )
        _bump("worker_quarantines")
        self.report.event(
            "worker_quarantine", endpoint.label,
            seconds=self.cfg.worker_quarantine_s, cause=kind,
        )

    # -- result decode -------------------------------------------------
    @staticmethod
    def _decode_result(task, record):
        if task.kind == "sim":
            result = record.get("result")
            if not isinstance(result, dict):
                raise TransportProtocolError("sim response without a record")
            try:
                return RunStats.from_dict(result)
            except (TypeError, ValueError) as exc:
                raise TransportProtocolError(f"bad stats record: {exc}") from None
        return int(record.get("result") or 0)

    # -- the loop ------------------------------------------------------
    def run(self, tasks: List, on_done: Callable) -> None:
        """Push *tasks* through the fleet; leaves the unfinishable ones
        not-done for the local fallback."""
        work = [t for t in tasks if not t.done and not t.quarantined]
        if not work:
            return
        self.report.transport = "http"
        now = time.monotonic()
        attempts: Dict[int, int] = {}
        ready_at: Dict[int, float] = {}
        last_endpoint: Dict[int, _Endpoint] = {}
        exhausted: Set[int] = set()
        flying: Set[int] = set()
        in_flight: Dict = {}
        next_heartbeat = {e: now + self.cfg.heartbeat_interval for e in self.endpoints}
        pool = ThreadPoolExecutor(max_workers=len(self.endpoints) + 1)
        try:
            while True:
                now = time.monotonic()
                pending = [
                    t for t in work
                    if not t.done and id(t) not in exhausted and id(t) not in flying
                ]
                if not in_flight:
                    if not pending:
                        break
                    if all(e.dead for e in self.endpoints):
                        break
                # submissions
                for task in pending:
                    if ready_at.get(id(task), 0.0) > now:
                        continue
                    endpoint = next(
                        (e for e in self.endpoints if e.usable(now)), None
                    )
                    if endpoint is None:
                        break
                    previous = last_endpoint.get(id(task))
                    if (
                        previous is not None
                        and previous is not endpoint
                        and not previous.alive(now)
                    ):
                        _bump("reassignments")
                        self.report.reassigned += 1
                        self.report.event(
                            "reassign", task.label,
                            source=previous.label, target=endpoint.label,
                        )
                    endpoint.busy = True
                    last_endpoint[id(task)] = endpoint
                    attempt = attempts.get(id(task), 0)
                    future = pool.submit(self._request_job, endpoint, task, attempt)
                    in_flight[future] = ("job", task, endpoint)
                    flying.add(id(task))
                    _bump("requests")
                # heartbeats for idle peers
                for endpoint in self.endpoints:
                    if endpoint.dead or endpoint.busy:
                        continue
                    if now >= next_heartbeat.get(endpoint, 0.0):
                        next_heartbeat[endpoint] = now + self.cfg.heartbeat_interval
                        future = pool.submit(self._ping, endpoint)
                        in_flight[future] = ("hb", None, endpoint)
                        _bump("heartbeats")
                if not in_flight:
                    # everything is backing off or quarantined
                    wake = [
                        ready_at[id(t)] for t in pending if id(t) in ready_at
                    ] + [
                        e.quarantined_until
                        for e in self.endpoints
                        if not e.dead and e.quarantined_until > now
                    ]
                    delay = min(wake) - now if wake else 0.05
                    time.sleep(min(0.25, max(0.0, delay)))
                    continue
                done, _pending_futures = wait(
                    set(in_flight), timeout=0.1, return_when=FIRST_COMPLETED
                )
                for future in done:
                    kind, task, endpoint = in_flight.pop(future)
                    if kind == "hb":
                        self._handle_heartbeat(future, endpoint)
                        continue
                    flying.discard(id(task))
                    endpoint.busy = False
                    try:
                        record, wall = future.result()
                        result = self._decode_result(task, record)
                    except _Failure as failure:
                        self._handle_failure(
                            task, endpoint, failure, attempts, ready_at, exhausted
                        )
                        continue
                    except TransportProtocolError as exc:
                        self._handle_failure(
                            task, endpoint, _Failure("garble", str(exc)),
                            attempts, ready_at, exhausted,
                        )
                        continue
                    self._handle_success(
                        task, endpoint, record, result, wall, on_done
                    )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            remaining = [t for t in work if not t.done]
            if remaining:
                _bump("degraded_local")
                self.report.degraded_local = True
                self.report.event(
                    "fleet_degrade", "*", remaining=len(remaining),
                    dead=sum(e.dead for e in self.endpoints),
                )

    def _handle_heartbeat(self, future, endpoint: _Endpoint) -> None:
        try:
            ok = bool(future.result())
        except Exception:
            ok = False
        if ok:
            endpoint.heartbeat_misses = 0
            return
        endpoint.heartbeat_misses += 1
        _bump("heartbeat_misses")
        if endpoint.heartbeat_misses >= self.cfg.heartbeat_max_misses:
            self._mark_dead(
                endpoint,
                f"{endpoint.heartbeat_misses} missed heartbeats",
            )

    def _handle_success(
        self, task, endpoint: _Endpoint, record, result, wall, on_done
    ) -> None:
        endpoint.failures = 0
        endpoint.heartbeat_misses = 0
        endpoint.jobs_done += 1
        degraded = record.get("cache_degraded")
        if degraded and not endpoint.cache_degraded_seen:
            endpoint.cache_degraded_seen = True
            _bump("worker_cache_degraded")
            self.report.event(
                "worker_cache_degraded", endpoint.label, reason=str(degraded)
            )
        _bump("remote_jobs")
        self.report.remote += 1
        task.done = True
        on_done(task, result, wall, f"http:{endpoint.label}")

    def _handle_failure(
        self, task, endpoint: _Endpoint, failure: _Failure,
        attempts: Dict[int, int], ready_at: Dict[int, float],
        exhausted: Set[int],
    ) -> None:
        now = time.monotonic()
        if failure.kind == "timeout":
            _bump("timeouts")
        elif failure.kind in ("garble",):
            _bump("crc_rejected")
        self._charge_endpoint(endpoint, failure.kind)
        if failure.kind in ("conn", "partition"):
            # the endpoint is to blame; the task requeues uncharged
            ready_at[id(task)] = now
            self.report.event(
                "net_error", task.label, worker=endpoint.label,
                detail=failure.detail,
            )
            return
        count = attempts.get(id(task), 0) + 1
        attempts[id(task)] = count
        _bump("retries")
        self.report.net_retries += 1
        self.report.event(
            f"net_{failure.kind}", task.label, attempt=count,
            worker=endpoint.label, detail=failure.detail,
        )
        if count >= self.sup.max_attempts:
            exhausted.add(id(task))
            _bump("fleet_exhausted")
            self.report.event("fleet_exhausted", task.label, attempts=count)
            return
        delay = min(
            self.sup.backoff_cap,
            self.sup.backoff_base * (2 ** (count - 1)),
        )
        rng = random.Random(f"{self.sup.seed}|net:{task.digest}|{count}")
        ready_at[id(task)] = now + delay * (
            1.0 + self.sup.jitter * rng.random()
        )


def maybe_fleet(sup_config, chaos, report) -> Optional[FleetRunner]:
    """A :class:`FleetRunner` when the http transport is configured, else
    ``None`` (the supervisor then stays on the local pool)."""
    if configured_transport() != "http":
        return None
    addresses = worker_addresses()
    if not addresses:
        raise TransportConfigError(
            "http transport needs worker endpoints "
            "(--workers HOST:PORT[,HOST:PORT...] or REPRO_WORKERS)"
        )
    return FleetRunner(addresses, sup_config, chaos, report)
