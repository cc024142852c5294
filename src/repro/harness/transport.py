"""Worker transports: where campaign cells execute.

The supervisor's one retry loop (:func:`repro.harness.supervisor._drive`)
owns attempts, backoff and give-up; a transport only decides *where* a
task runs.  ``local`` is the supervisor's process pool; ``http``
(:class:`HttpTransport`) fans cells out to remote workers (``python -m
repro worker --listen HOST:PORT``) over a line-delimited JSON job
protocol, with the coordinator's journal the single source of truth.

Remote execution is treated as hostile: every response is a CRC-32
envelope, so corrupt bytes never become results; endpoints are
heartbeated (``GET /healthz``), quarantined when they keep failing,
dropped when they keep offending, and their jobs reassigned to
survivors.  ``REPRO_CHAOS`` has four network classes — ``drop``,
``delay``, ``garble``, ``partition`` — injected client-side and
deterministic per ``(seed, job digest, attempt)``.

Single-process runs never import this module, and a fleet loads the
network stack only for its first request.  See ``docs/RESILIENCE.md``
§8 for the protocol and policies.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness import cache as disk_cache
from repro.harness import supervisor
from repro.harness.runner import TraceKey
from repro.harness.supervisor import AttemptFailure
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry
from repro.stats.run import RunStats
from repro.txn.modes import PersistMode
from repro.uarch.config import CacheConfig, MachineConfig

ENV_TRANSPORT = "REPRO_TRANSPORT"
ENV_WORKERS = "REPRO_WORKERS"

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
# the http fleet transport
# ----------------------------------------------------------------------
#: Seconds between liveness probes of an idle endpoint.
PROBE_INTERVAL = 1.0


class _NetError(Exception):
    """One failed request: ``kind`` is ``timeout``, ``garble`` (failed
    the CRC/shape checks), ``http`` (non-200), ``conn`` (connection
    refused/reset) or ``partition`` (chaos)."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(detail)
        self.kind = kind


@dataclasses.dataclass(eq=False)
class _Endpoint:
    """Health state of one remote worker for one campaign."""

    host: str
    port: int
    busy: bool = False
    dead: bool = False
    failures: int = 0
    quarantines: int = 0
    quarantined_until: float = 0.0
    heartbeat_misses: int = 0
    cache_degraded_seen: bool = False

    @property
    def label(self) -> str:
        return f"{self.host}:{self.port}"

    def alive(self, now: float) -> bool:
        return not self.dead and now >= self.quarantined_until

    def usable(self, now: float) -> bool:
        return self.alive(now) and not self.busy


def _bump(name: str, amount: int = 1) -> None:
    """Increment one transport counter, mirrored into telemetry."""
    counters = obs_metrics.transport_counters()
    setattr(counters, name, getattr(counters, name) + amount)
    telemetry.counter_inc(f"transport.{name}", amount)


class HttpTransport:
    """The fleet rung: one job per remote worker at a time.

    Its policy derives from ``SupervisorConfig``: a request's deadline
    is ``job_timeout``; an endpoint failing ``max_attempts`` times in a
    row is quarantined for the backoff a task would get, and dropped
    after ``max_pool_rebuilds`` quarantines; idle endpoints are probed
    every :data:`PROBE_INTERVAL` seconds, and ``max_attempts``
    missed probes mark one dead.  A refused connection blames only the
    endpoint; every other failure also charges the task.
    """

    tick = 0.1

    def __init__(self, endpoints: Sequence[str], config, chaos, report) -> None:
        self.endpoints = [
            _Endpoint(*parse_hostport(address)) for address in endpoints
        ]
        self.config = config
        self.chaos = chaos if chaos is not None and chaos.network_active() else None
        self.report = report
        report.transport = "http"
        self.dead = False
        # a job and a probe per endpoint at most
        self._threads = ThreadPoolExecutor(max_workers=2 * len(self.endpoints))
        self._last: Dict = {}  # task -> endpoint of its latest request
        self._probes: Dict = {}  # future -> probed endpoint
        now = time.monotonic()
        self._next_probe = {e: now + PROBE_INTERVAL for e in self.endpoints}

    # -- one request ---------------------------------------------------
    def _http(
        self, endpoint: _Endpoint, method: str, path: str,
        body: Optional[bytes], timeout: float,
    ) -> Tuple[int, bytes]:
        import http.client  # only fleet campaigns load the network stack

        connection = http.client.HTTPConnection(
            endpoint.host, endpoint.port, timeout=timeout
        )
        try:
            headers = {"Content-Type": "application/x-ndjson"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        except TimeoutError as exc:
            raise _NetError("timeout", repr(exc)) from None
        except (http.client.HTTPException, OSError) as exc:
            raise _NetError("conn", repr(exc)) from None
        finally:
            connection.close()

    def _request_job(self, endpoint: _Endpoint, task, attempt: int):
        """Execute one job remotely; returns ``(result, record, wall_s)``.

        Chaos draws are deterministic in ``(seed, job digest, attempt)``:
        ``partition`` fails before any bytes move, ``drop`` loses the
        response after the worker did (and cached) the work, ``delay``
        models latency past the deadline, ``garble`` flips response bytes.
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
                raise _NetError("partition", "chaos: peer unreachable")
            if chaos_delay:
                # model latency past the deadline without paying it in
                # real time: a short bounded sleep, then the timeout path
                time.sleep(min(0.25, self.config.job_timeout))
                raise _NetError("timeout", "chaos: response past deadline")
        else:
            chaos_drop = chaos_garble = False
        started = time.perf_counter()
        payload = encode_job(task.kind, task.key, task.config, task.digest, attempt)
        status, blob = self._http(
            endpoint, "POST", "/job", payload, self.config.job_timeout
        )
        wall = time.perf_counter() - started
        if chaos_drop:
            raise _NetError("timeout", "chaos: response dropped")
        if chaos_garble:
            blob = (
                supervisor.damage_bytes(blob, rng) if len(blob) >= 2 else b"\x00"
            )
        if status != 200:
            raise _NetError("http", f"status {status}")
        try:
            record = unseal_record(blob)
        except TransportProtocolError as exc:
            raise _NetError("garble", str(exc)) from None
        if (
            record.get("ok") is not True
            or record.get("digest") != task.digest
            or record.get("kind") != task.kind
        ):
            raise _NetError(
                "garble", f"response does not match job: {record.get('error')}"
            )
        try:
            if task.kind == "sim":
                return RunStats.from_dict(record["result"]), record, wall
            return int(record["result"] or 0), record, wall
        except (KeyError, AttributeError, TypeError, ValueError) as exc:
            raise _NetError("garble", f"bad result record: {exc!r}") from None

    def _ping(self, endpoint: _Endpoint) -> bool:
        try:
            status, blob = self._http(
                endpoint, "GET", "/healthz", None,
                min(self.config.job_timeout, 2.0),
            )
            return status == 200 and json.loads(blob.decode()).get("ok") is True
        except (_NetError, ValueError, AttributeError):
            return False

    # -- endpoint blame ------------------------------------------------
    def _mark_dead(self, endpoint: _Endpoint, reason: str) -> None:
        if endpoint.dead:
            return
        endpoint.dead = True
        self.dead = all(e.dead for e in self.endpoints)
        _bump("dead_workers")
        self.report.event("worker_dead", endpoint.label, reason=reason)

    def _charge_endpoint(self, endpoint: _Endpoint, kind: str) -> None:
        endpoint.failures += 1
        if endpoint.failures < self.config.max_attempts:
            return
        endpoint.failures = 0
        endpoint.quarantines += 1
        if endpoint.quarantines > self.config.max_pool_rebuilds:
            self._mark_dead(endpoint, f"repeat offender ({kind})")
            return
        seconds = supervisor.backoff(
            self.config, endpoint.label, endpoint.quarantines
        )
        endpoint.quarantined_until = time.monotonic() + seconds
        _bump("worker_quarantines")
        self.report.event(
            "worker_quarantine", endpoint.label,
            seconds=round(seconds, 3), cause=kind,
        )

    # -- the transport protocol of supervisor._drive ---------------------
    def slots(self, active: int) -> int:
        now = time.monotonic()
        return sum(e.usable(now) for e in self.endpoints)

    def submit(self, task):
        now = time.monotonic()
        endpoint = next((e for e in self.endpoints if e.usable(now)), None)
        if endpoint is None:
            return None
        previous = self._last.get(task)
        if previous not in (None, endpoint) and not previous.alive(now):
            _bump("reassignments")
            self.report.reassigned += 1
            self.report.event(
                "reassign", task.label,
                source=previous.label, target=endpoint.label,
            )
        endpoint.busy = True
        self._last[task] = endpoint
        _bump("requests")
        return self._threads.submit(self._request_job, endpoint, task, task.attempts)

    def collect(self, task, future):
        endpoint = self._last[task]
        endpoint.busy = False
        try:
            result, record, wall = future.result()
        except _NetError as exc:
            kind, detail = exc.kind, str(exc)
        else:
            endpoint.failures = 0
            endpoint.heartbeat_misses = 0
            degraded = record.get("cache_degraded")
            if degraded and not endpoint.cache_degraded_seen:
                endpoint.cache_degraded_seen = True
                _bump("worker_cache_degraded")
                self.report.event(
                    "worker_cache_degraded", endpoint.label, reason=str(degraded)
                )
            _bump("remote_jobs")
            self.report.remote += 1
            return result, wall, f"http:{endpoint.label}"
        if kind == "timeout":
            _bump("timeouts")
        elif kind == "garble":
            _bump("crc_rejected")
        self._charge_endpoint(endpoint, kind)
        if kind == "conn":
            # the endpoint is to blame; the task requeues uncharged
            raise AttemptFailure(
                "net_error", charge=False, worker=endpoint.label, detail=detail
            )
        # a chaos partition is charged too: its draw is keyed by the
        # attempt, so an uncharged retry would be partitioned forever
        raise AttemptFailure(f"net_{kind}", worker=endpoint.label, detail=detail)

    def reap(self, in_flight: Dict, settle) -> None:
        """Account finished liveness probes; probe idle endpoints due one."""
        for future in [f for f in self._probes if f.done()]:
            endpoint = self._probes.pop(future)
            if future.result():  # _ping answers False, never raises
                endpoint.heartbeat_misses = 0
                continue
            endpoint.heartbeat_misses += 1
            _bump("heartbeat_misses")
            if endpoint.heartbeat_misses >= self.config.max_attempts:
                self._mark_dead(
                    endpoint, f"{endpoint.heartbeat_misses} missed heartbeats"
                )
        now = time.monotonic()
        for endpoint in self.endpoints:
            if endpoint.dead or endpoint.busy or now < self._next_probe[endpoint]:
                continue
            self._next_probe[endpoint] = now + PROBE_INTERVAL
            self._probes[self._threads.submit(self._ping, endpoint)] = endpoint
            _bump("heartbeats")

    def charged(self, task, gave_up: bool) -> None:
        _bump("retries")
        self.report.net_retries += 1
        if gave_up:
            _bump("fleet_exhausted")
            self.report.event("fleet_exhausted", task.label, attempts=task.attempts)

    def close(self, left: int) -> None:
        self._threads.shutdown(wait=False, cancel_futures=True)
        if left:
            _bump("degraded_local")
            self.report.degraded_local = True
            self.report.event(
                "fleet_degrade", "*", remaining=left,
                dead=sum(e.dead for e in self.endpoints),
            )


def fleet_addresses() -> List[str]:
    """The configured http workers, validated; ``[]`` when local."""
    if configured_transport() != "http":
        return []
    addresses = worker_addresses()
    if not addresses:
        raise TransportConfigError(
            "http transport needs worker endpoints "
            "(--workers HOST:PORT[,HOST:PORT...] or REPRO_WORKERS)"
        )
    for address in addresses:
        parse_hostport(address)
    return addresses
