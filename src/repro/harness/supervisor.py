"""Fault-tolerant campaign supervisor: the one campaign driver.

A figure, report, bench, or validate campaign fans (benchmark, mode,
config, seed) cells out to workers that die, hang, and corrupt what
they write.  This module keeps such campaigns alive with the
retry/abort discipline of persistent-memory transaction runtimes — one
recovery path, whatever caused the failure:

* **one retry loop** (:func:`_drive`) over pluggable transports — the
  local :class:`PoolTransport` and the http fleet
  (:class:`repro.harness.transport.HttpTransport`) — charges every
  failure an attempt with seeded exponential backoff, and after
  ``max_attempts`` hands the job down the ladder fleet -> pool ->
  chaos-free in-process serial;
* **watchdog and pool-death recovery** — an overdue job kills the pool,
  a ``BrokenProcessPool`` charges the jobs it killed; the pool is
  rebuilt up to ``max_pool_rebuilds`` times, then the campaign goes
  serial;
* **resumable journal** — completed jobs are appended to
  ``<cache>/journal/<campaign-id>.jsonl``, so ``--resume`` re-simulates
  only the journal-missing cells;
* **chaos mode** — ``REPRO_CHAOS`` injects process and network faults,
  deterministic per ``(seed, job digest, attempt)``, so tests and CI can
  prove every recovery path fires.

None of this changes *what* is computed: results merge by job position,
simulation is a pure function of ``(trace, config)``, and chaos only
perturbs scheduling and integrity-checked cache files — so a campaign
that survives any injected failure is byte-identical to a clean serial
run.  See ``docs/RESILIENCE.md`` for the failure taxonomy and policies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import signal
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.harness import cache as disk_cache
from repro.harness import runner
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry
from repro.stats.run import RunStats
from repro.uarch.pipeline import simulate

ENV_CHAOS = "REPRO_CHAOS"
ENV_CHAOS_SEED = "REPRO_CHAOS_SEED"
ENV_JOB_TIMEOUT = "REPRO_JOB_TIMEOUT"
ENV_MAX_ATTEMPTS = "REPRO_MAX_ATTEMPTS"
ENV_MAX_POOL_REBUILDS = "REPRO_MAX_POOL_REBUILDS"

#: How long a chaos-injected hang sleeps — far beyond any sane job
#: timeout, so a hang always manifests as a watchdog timeout.
_HANG_SECONDS = 3600.0

#: Cap on recorded per-campaign events so a pathological campaign cannot
#: grow the failure report without bound.
_MAX_EVENTS = 1000


# ----------------------------------------------------------------------
# chaos specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosSpec:
    """Per-event-type injection probabilities, seeded for reproducibility.

    Process faults — ``kill`` SIGKILLs the worker before it starts
    (exercises ``BrokenProcessPool`` recovery), ``hang`` sleeps long
    enough to trip the watchdog (exercises timeouts), ``corrupt``
    garbles the cache entry the worker just wrote (exercises
    integrity-check recovery).

    Network faults (http transport, injected coordinator-side by
    :mod:`repro.harness.transport`) — ``drop`` loses a response after
    the worker did the work, ``delay`` pushes latency past the request
    deadline, ``garble`` flips response bytes (the CRC envelope must
    reject them), ``partition`` makes the peer unreachable for the
    attempt.

    Draws are deterministic in ``(seed, job digest, attempt)``, so a
    chaotic campaign replays identically.
    """

    _PROCESS_EVENTS = ("kill", "hang", "corrupt")
    _NETWORK_EVENTS = ("drop", "delay", "garble", "partition")

    kill: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    drop: float = 0.0
    delay: float = 0.0
    garble: float = 0.0
    partition: float = 0.0
    seed: int = 0

    def process_active(self) -> bool:
        return any(getattr(self, name) > 0 for name in self._PROCESS_EVENTS)

    def network_active(self) -> bool:
        return any(getattr(self, name) > 0 for name in self._NETWORK_EVENTS)

    def active(self) -> bool:
        return self.process_active() or self.network_active()

    def render(self) -> str:
        return ",".join(
            f"{name}:{getattr(self, name):g}"
            for name in self._PROCESS_EVENTS + self._NETWORK_EVENTS
            if getattr(self, name) > 0
        )

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "ChaosSpec":
        """Parse ``"kill:0.1,drop:0.05,garble:0.2"`` (any subset)."""
        rates = {
            name: 0.0 for name in cls._PROCESS_EVENTS + cls._NETWORK_EVENTS
        }
        for clause in filter(None, (c.strip() for c in text.split(","))):
            name, _, value = clause.partition(":")
            name = name.strip()
            if name not in rates:
                raise ValueError(
                    f"unknown chaos event {name!r} in {text!r} "
                    f"(expected kill/hang/corrupt/drop/delay/garble/partition)"
                )
            try:
                rate = float(value)
            except ValueError:
                raise ValueError(f"bad chaos rate in {clause!r}") from None
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"chaos rate out of [0, 1] in {clause!r}")
            rates[name] = rate
        return cls(seed=seed, **rates)

    @classmethod
    def from_env(cls, environ=os.environ) -> "ChaosSpec":
        """The active chaos spec (inert when ``REPRO_CHAOS`` is unset)."""
        text = environ.get(ENV_CHAOS, "")
        if not text:
            return cls()
        try:
            seed = int(environ.get(ENV_CHAOS_SEED, "0"))
        except ValueError:
            seed = 0
        return cls.parse(text, seed=seed)


def damage_bytes(blob: bytes, rng: random.Random) -> bytes:
    """Truncate *blob* (at least 2 bytes) or flip a few of its bytes —
    chaos ``corrupt`` on disk and ``garble`` on the wire; the CRC
    integrity checks must reject either."""
    damaged = bytearray(blob)
    if rng.random() < 0.5:
        return bytes(damaged[: rng.randrange(1, len(damaged))])
    for _ in range(3):
        index = rng.randrange(len(damaged))
        damaged[index] ^= 1 + rng.randrange(255)
    return bytes(damaged)


def _corrupt_file(path: Path, rng: random.Random) -> None:
    """Garble *path* in place, deliberately non-atomically — a torn
    write or bit rot the integrity layer (RPTR2 CRC footer, stats CRC
    envelope) must detect on the next load."""
    try:
        blob = path.read_bytes()
        if len(blob) >= 2:
            path.write_bytes(damage_bytes(blob, rng))
    except OSError:
        pass


# ----------------------------------------------------------------------
# supervisor configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorConfig:
    """The campaign's one retry/timeout/quarantine policy, for every
    transport (env-overridable, see below)."""

    #: wall-clock seconds a single pool job may run before the watchdog
    #: kills the pool and requeues it (``REPRO_JOB_TIMEOUT``).
    job_timeout: float = 300.0
    #: failures (of any kind) before a job is quarantined
    #: (``REPRO_MAX_ATTEMPTS``).
    max_attempts: int = 3
    #: pool deaths tolerated before degrading to serial execution
    #: (``REPRO_MAX_POOL_REBUILDS``).
    max_pool_rebuilds: int = 3
    #: exponential-backoff base and cap, in seconds.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: jitter fraction applied on top of the backoff (seeded — reruns of
    #: the same campaign back off identically).
    jitter: float = 0.5
    seed: int = 0

    @classmethod
    def from_env(cls, environ=os.environ) -> "SupervisorConfig":
        def read(name, parse, default, low):
            # clamped to *low*; *default* when unset or unparsable
            try:
                return max(low, parse(environ[name]))
            except (KeyError, ValueError):
                return default

        return cls(
            job_timeout=read(ENV_JOB_TIMEOUT, float, cls.job_timeout, 0.1),
            max_attempts=read(ENV_MAX_ATTEMPTS, int, cls.max_attempts, 1),
            max_pool_rebuilds=read(
                ENV_MAX_POOL_REBUILDS, int, cls.max_pool_rebuilds, 0
            ),
        )


# ----------------------------------------------------------------------
# module state (mirrors parallel.set_default_jobs's CLI plumbing)
# ----------------------------------------------------------------------
_RESUME = False
_JOB_TIMEOUT_OVERRIDE: Optional[float] = None
_CAMPAIGNS: List["CampaignReport"] = []


def set_resume(flag: bool) -> None:
    """Honour existing campaign journals instead of restarting them."""
    global _RESUME
    _RESUME = bool(flag)


def resume_requested() -> bool:
    return _RESUME


def set_job_timeout(seconds: Optional[float]) -> None:
    """CLI override for the per-job watchdog deadline."""
    global _JOB_TIMEOUT_OVERRIDE
    _JOB_TIMEOUT_OVERRIDE = seconds if seconds is None else max(0.1, seconds)


def current_config() -> SupervisorConfig:
    config = SupervisorConfig.from_env()
    if _JOB_TIMEOUT_OVERRIDE is not None:
        config = dataclasses.replace(config, job_timeout=_JOB_TIMEOUT_OVERRIDE)
    return config


def reset() -> None:
    """Restore default supervisor state (tests)."""
    global _RESUME, _JOB_TIMEOUT_OVERRIDE
    _RESUME = False
    _JOB_TIMEOUT_OVERRIDE = None
    _CAMPAIGNS.clear()


def campaign_reports() -> List["CampaignReport"]:
    """Every supervised campaign this process ran, in order."""
    return list(_CAMPAIGNS)


# ----------------------------------------------------------------------
# campaign identity and journal
# ----------------------------------------------------------------------
def job_digest(job) -> str:
    """Stable identity of one (trace, config) cell — the stats digest."""
    return disk_cache.stats_digest(job.trace_key, job.config)


def campaign_id(jobs_list: Sequence) -> str:
    """Content identity of a campaign: order-independent over its cells."""
    blob = "|".join(sorted(job_digest(job) for job in jobs_list))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class CampaignJournal:
    """Append-only completion log for one campaign.

    One JSON object per line; each append is a single buffered write of
    one ``\\n``-terminated line followed by a flush, so a crash can tear
    at most the final line — which :meth:`load_done` skips.  Journals
    live beside the cache entries they refer to, so ``--resume`` can
    trust that a journaled job's result is (re-)loadable, and fall back
    to re-simulation when the entry has vanished or got corrupted.
    """

    def __init__(self, directory: Optional[Path], campaign: str) -> None:
        self.path = (
            directory / f"{campaign}.jsonl" if directory is not None else None
        )
        self.campaign = campaign
        self._handle = None
        self.appended = 0

    def _scan(self, source_filter) -> Set[str]:
        if self.path is None or not self.path.exists():
            return set()
        matched: Set[str] = set()
        try:
            with open(self.path, "r") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn final line
                    digest = record.get("job")
                    if isinstance(digest, str) and source_filter(
                        record.get("source")
                    ):
                        matched.add(digest)
        except OSError:
            return set()
        return matched

    def load_done(self) -> Set[str]:
        """Digests of jobs a previous (interrupted) run completed.

        Quarantine records are *not* completions — a quarantined job has
        no result and must not be treated as satisfied on resume.
        """
        return self._scan(lambda source: source != "quarantined")

    def load_quarantined(self) -> Set[str]:
        """Digests the interrupted run quarantined (exhausted retries).

        ``--resume`` routes these straight to the chaos-free serial
        fallback instead of burning the full retry ladder on a job the
        previous run already proved poisonous.
        """
        return self._scan(lambda source: source == "quarantined")

    def restart(self) -> None:
        """Truncate the journal (a fresh, non-resumed campaign)."""
        if self.path is None:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")
        except OSError:
            self.path = None  # journaling off for this campaign

    def append_quarantine(self, digest: str, label: str) -> None:
        """Record a quarantine decision so ``--resume`` inherits it.

        Written with the reserved source ``"quarantined"`` —
        :meth:`load_done` skips it; a later completion of the same job
        (the serial fallback succeeded) appends a normal record that
        wins on resume.
        """
        self.append(digest, label, "quarantined")

    def append(self, digest: str, label: str, source: str) -> None:
        if self.path is None:
            return
        line = json.dumps(
            {"job": digest, "label": label, "source": source},
            sort_keys=True,
            separators=(",", ":"),
        )
        try:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a")
            self._handle.write(line + "\n")
            self._handle.flush()
            self.appended += 1
        except OSError:
            self.close()
            self.path = None

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


# ----------------------------------------------------------------------
# campaign report (--failures-out)
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """What one supervised campaign did to stay alive."""

    campaign: str
    jobs: int
    chaos: str = ""
    transport: str = "local"
    prescan: int = 0
    resumed: int = 0
    resumed_quarantined: int = 0
    journal_stale: int = 0
    scheduled: int = 0
    completed: int = 0
    remote: int = 0
    retries: int = 0
    net_retries: int = 0
    reassigned: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    chaos_corrupts: int = 0
    degraded_serial: bool = False
    degraded_local: bool = False
    quarantined: List[str] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)

    def event(self, kind: str, label: str, **detail: object) -> None:
        if len(self.events) < _MAX_EVENTS:
            self.events.append({"event": kind, "job": label, **detail})

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def failure_report() -> Dict[str, object]:
    """Aggregate failure/recovery report of every campaign this session."""
    totals = obs_metrics.supervisor_counters()
    transport_totals = obs_metrics.transport_counters()
    return {
        "schema": 2,
        "totals": totals.as_dict(),
        "transport": transport_totals.as_dict(),
        "recovered": totals.any_recovery() or transport_totals.any_activity(),
        "campaigns": [report.as_dict() for report in _CAMPAIGNS],
    }


def write_failure_report(path) -> Path:
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(failure_report(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# the worker (top-level so it pickles)
# ----------------------------------------------------------------------
def _do_work(kind: str, key, config, root: str):
    """Execute one unit of campaign work; returns ``(result, stored_path)``.

    ``kind == "trace"``: ensure the trace for *key* exists in the shared
    store; result is the generated length (0 when it already existed).
    ``kind == "sim"``: simulate *key* on *config*, persisting the stats.
    Runs identically in pool workers and in the serial fallback.
    """
    if kind == "trace":
        path = disk_cache.trace_path(key, root=root)
        if path is not None and path.exists():
            return 0, None
        trace = runner.generate_trace(key)
        stored = disk_cache.store_trace(key, trace, root=root)
        return len(trace), stored
    trace = disk_cache.load_cached_trace(key, root=root)
    if trace is None:
        # the trace phase should have produced it (or chaos ate it);
        # regenerate defensively
        trace = runner.generate_trace(key)
        disk_cache.store_trace(key, trace, root=root)
    stats = simulate(trace, config)
    stored = disk_cache.store_stats(key, config, stats, root=root)
    return stats, stored


def _supervised_worker(payload: Tuple) -> Tuple[object, float, int, bool]:
    """Pool entry point: chaos hooks around :func:`_do_work`.

    Returns ``(result, wall_seconds, worker_pid, chaos_corrupted)``.
    Chaos draws are deterministic in (seed, job digest, attempt): kill
    and hang fire *before* the work (they must not affect results),
    corruption fires *after* the result has been computed and returned
    bytes are already safe — it damages only the on-disk cache entry,
    which the integrity layer detects and drops on the next load.
    """
    kind, key, config, root, digest, attempt, spec = payload
    rng = None
    if spec is not None and spec.process_active():
        rng = random.Random(f"{spec.seed}|{kind}:{digest}|{attempt}")
        if rng.random() < spec.kill:
            os.kill(os.getpid(), signal.SIGKILL)
        if rng.random() < spec.hang:
            time.sleep(_HANG_SECONDS)
    started = time.perf_counter()
    result, stored = _do_work(kind, key, config, root)
    wall = time.perf_counter() - started
    corrupted = False
    if rng is not None and stored is not None and rng.random() < spec.corrupt:
        _corrupt_file(Path(stored), rng)
        corrupted = True
    return result, wall, os.getpid(), corrupted


# ----------------------------------------------------------------------
# the campaign driver: one retry loop over transports
# ----------------------------------------------------------------------
@dataclass(eq=False)
class _Task:
    """One schedulable unit (a trace generation or a simulation)."""

    kind: str
    key: object
    config: object
    index: Optional[int]
    label: str
    digest: str
    attempts: int = 0
    ready_at: float = 0.0
    quarantined: bool = False
    done: bool = False


class AttemptFailure(Exception):
    """One failed attempt: ``event`` (``None`` records none) and
    ``fields`` go to the campaign report; ``charge=False`` requeues the
    task without spending an attempt (a bystander of a pool kill, or a
    refused connection blamed on the endpoint)."""

    def __init__(self, event: Optional[str], charge: bool = True, **fields) -> None:
        super().__init__(event or "requeue")
        self.event = event
        self.charge = charge
        self.fields = fields


def backoff(config: SupervisorConfig, key: str, attempt: int) -> float:
    """Seconds to wait after failure *attempt*: capped exponential with
    jitter seeded by ``(config.seed, key, attempt)``, so a rerun of the
    same campaign backs off identically."""
    rng = random.Random(f"{config.seed}|{key}|{attempt}")
    delay = min(config.backoff_cap, config.backoff_base * 2 ** (attempt - 1))
    return delay * (1.0 + config.jitter * rng.random())


def _drive(tasks: List[_Task], transport, on_done: Callable) -> None:
    """The campaign's one retry loop: run *tasks* on one rung.

    Submits ready tasks up to the transport's free slots, waits for the
    first completion and charges every failure alike: an attempt and a
    seeded :func:`backoff`, and after ``max_attempts`` the rung gives
    the task up.  What the rung gives up on or strands (it died) stays
    not-done for the next rung, where attempts restart at 0.

    A transport has ``config``, ``report``, ``tick`` (wait timeout),
    ``dead`` and ``slots(active)``, ``submit(task)`` (future or None),
    ``collect(task, future)`` (``(result, wall, worker)`` or raises
    :class:`AttemptFailure`), ``reap(in_flight, settle)`` (its own
    recovery), ``charged(task, gave_up)`` and ``close(left)``.
    """
    config, report = transport.config, transport.report
    work = [t for t in tasks if not t.done and not t.quarantined]
    for task in work:
        task.attempts = 0
        task.ready_at = 0.0
    given_up: Set[_Task] = set()
    in_flight: Dict = {}

    def settle(task: _Task, future=None, failure=None) -> None:
        if failure is None:
            try:
                result, wall, worker = transport.collect(task, future)
            except AttemptFailure as exc:
                failure = exc
            else:
                task.done = True
                on_done(task, result, wall, worker)
                return
        if not failure.charge:
            if failure.event:
                report.event(failure.event, task.label, **failure.fields)
            return
        task.attempts += 1
        report.event(
            failure.event, task.label, attempt=task.attempts, **failure.fields
        )
        gave_up = task.attempts >= config.max_attempts
        if gave_up:
            given_up.add(task)
        else:
            task.ready_at = time.monotonic() + backoff(
                config, task.digest, task.attempts
            )
        transport.charged(task, gave_up)

    try:
        while True:
            transport.reap(in_flight, settle)
            if transport.dead:
                return
            flying = set(in_flight.values())
            waiting = [
                t for t in work
                if not t.done and t not in given_up and t not in flying
            ]
            if not waiting and not in_flight:
                return
            now = time.monotonic()
            ready = [t for t in waiting if t.ready_at <= now]
            for task in ready[: transport.slots(len(waiting) + len(in_flight))]:
                future = transport.submit(task)
                if future is None:
                    break
                in_flight[future] = task
            if transport.dead:
                return
            if not in_flight:
                # everything is backing off or waiting for a free slot
                wakes = [t.ready_at for t in waiting if t.ready_at > now]
                time.sleep(
                    min(0.25, max(0.0, min(wakes) - now)) if wakes else 0.05
                )
                continue
            done = wait(in_flight, transport.tick, FIRST_COMPLETED).done
            for future in done:
                settle(in_flight.pop(future), future)
    finally:
        transport.close(sum(not t.done for t in work))


def _ladder(tasks: List[_Task], rungs: Sequence, root: str, on_done) -> None:
    """Drive *tasks* down the ladder; the last rung is chaos-free
    in-process execution, where a poison job gets one last chance and a
    real bug surfaces with its original traceback."""
    for rung in rungs:
        _drive(tasks, rung, on_done)
    for task in tasks:
        if not task.done:
            started = time.perf_counter()
            result, _stored = _do_work(task.kind, task.key, task.config, root)
            task.done = True
            on_done(task, result, time.perf_counter() - started, "main")


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool: SIGKILL live workers, then cancel queued work.

    Never blocks waiting for a worker that may be hung.  The
    kill MUST come first: ``shutdown()`` drops the executor's process
    table (``_processes = None``), and a merely-shut-down executor
    still waits for hung workers at interpreter exit.  Killing the
    workers makes the executor observe a broken pool, which is the one
    state it knows how to wind down from without joining anything.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class PoolTransport:
    """The local rung: a self-healing process pool.

    Process chaos fires in its workers.  A job overrunning
    ``job_timeout`` kills the pool; a ``BrokenProcessPool`` charges
    every in-flight job.  The pool is rebuilt up to
    ``max_pool_rebuilds`` times, then the rung dies (serial degrade).
    A task it gives up on is quarantined, journaled by *on_quarantine*.
    """

    def __init__(
        self,
        n_workers: int,
        root: str,
        config: SupervisorConfig,
        chaos: ChaosSpec,
        report: CampaignReport,
        on_quarantine: Optional[Callable[[_Task], None]] = None,
    ) -> None:
        self.n_workers = n_workers
        self.root = root
        self.config = config
        self.chaos = chaos if chaos.process_active() else None
        self.report = report
        self.on_quarantine = on_quarantine
        self.counters = obs_metrics.supervisor_counters()
        self.tick = max(0.02, min(0.25, config.job_timeout / 10.0))
        self.pool: Optional[ProcessPoolExecutor] = None
        self.rebuilds_left = config.max_pool_rebuilds
        self.dead = False
        self.broken = False
        self._started: Dict[_Task, float] = {}

    def slots(self, active: int) -> int:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(
                max_workers=min(self.n_workers, max(1, active))
            )
        # at most n_workers in flight, so every submitted job is running
        # and a pool death charges exactly the jobs it killed
        return self.n_workers - len(self._started)

    def submit(self, task: _Task):
        payload = (
            task.kind, task.key, task.config, self.root,
            task.digest, task.attempts, self.chaos,
        )
        try:
            future = self.pool.submit(_supervised_worker, payload)
        except (BrokenProcessPool, RuntimeError) as exc:
            self._pool_died(f"submit failed: {exc!r}")
            return None
        self._started[task] = time.monotonic()
        return future

    def collect(self, task: _Task, future):
        self._started.pop(task, None)
        try:
            result, wall, pid, corrupted = future.result()
        except CancelledError:
            raise AttemptFailure(None, charge=False) from None
        except BrokenProcessPool as exc:
            self.broken = True
            raise AttemptFailure("worker_death", detail=repr(exc)) from None
        except Exception as exc:
            raise AttemptFailure("worker_error", detail=repr(exc)) from None
        if corrupted:
            self.counters.chaos_corrupts += 1
            self.report.chaos_corrupts += 1
            self.report.event("chaos_corrupt", task.label)
        return result, wall, f"pid:{pid}"

    def reap(self, in_flight: Dict, settle: Callable) -> None:
        """Settle every in-flight job once the pool is broken or a job is
        overdue, then rebuild the pool (or let the rung die)."""
        now = time.monotonic()
        overdue = {
            task for task, started in self._started.items()
            if now - started > self.config.job_timeout
        }
        broken = self.broken
        if not broken and not overdue:
            return
        for future, task in list(in_flight.items()):
            del in_flight[future]
            if broken:
                # every in-flight job died with the pool
                settle(task, failure=AttemptFailure(
                    "worker_death", detail="pool died"
                ))
            elif future.done() and not future.cancelled():
                settle(task, future)  # finished before the kill
            elif task in overdue:
                self.counters.timeouts += 1
                self.report.timeouts += 1
                settle(task, failure=AttemptFailure(
                    "timeout", detail=f"exceeded {self.config.job_timeout:g}s"
                ))
            else:
                # innocent bystander of the kill: requeue uncharged
                settle(task, failure=AttemptFailure(None, charge=False))
        self._started.clear()
        self._pool_died("BrokenProcessPool" if broken else "watchdog timeout")

    def _pool_died(self, reason: str) -> None:
        if self.pool is not None:
            _terminate_pool(self.pool)
            self.pool = None
        self.broken = False
        if self.rebuilds_left <= 0:
            self.dead = True
            self.counters.serial_degradations += 1
            self.report.degraded_serial = True
            self.report.event("serial_degrade", "*", reason=reason)
            return
        self.rebuilds_left -= 1
        self.counters.pool_rebuilds += 1
        self.report.pool_rebuilds += 1
        self.report.event("pool_rebuild", "*", reason=reason)

    def charged(self, task: _Task, gave_up: bool) -> None:
        if not gave_up:
            self.counters.retries += 1
            self.report.retries += 1
            return
        task.quarantined = True
        self.counters.quarantined += 1
        self.report.quarantined.append(task.label)
        self.report.event("quarantine", task.label, attempts=task.attempts)
        if self.on_quarantine is not None:
            self.on_quarantine(task)

    def close(self, left: int) -> None:
        if self.pool is not None:
            # _terminate_pool, not shutdown(): a worker may be mid-hang
            # and shutdown alone would leak it past process exit
            _terminate_pool(self.pool)
            self.pool = None


# ----------------------------------------------------------------------
# the supervised scheduler
# ----------------------------------------------------------------------
def run_supervised(
    jobs_list: Sequence, n_workers: int
) -> List[RunStats]:
    """Fault-tolerant equivalent of
    :func:`repro.harness.parallel.run_variants` for ``n_workers > 1``.

    Identical result semantics (deterministic job-position merge, both
    cache layers honoured, every trace generated once fleet-wide) plus
    the supervision described in the module docstring.
    """
    import tempfile

    jobs_list = list(jobs_list)
    config = current_config()
    chaos = ChaosSpec.from_env()
    counters = obs_metrics.supervisor_counters()
    counters.campaigns += 1
    counters.jobs += len(jobs_list)

    results: List[Optional[RunStats]] = [None] * len(jobs_list)
    report = CampaignReport(
        campaign=campaign_id(jobs_list),
        jobs=len(jobs_list),
        chaos=chaos.render(),
    )
    _CAMPAIGNS.append(report)

    root = disk_cache.cache_root()
    scratch: Optional[tempfile.TemporaryDirectory] = None
    if root is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-scratch-")
        root = Path(scratch.name)
    journal = CampaignJournal(
        disk_cache.journal_dir(root=root), report.campaign
    )
    # the journal is consulted *before* the prescan so a ``--resume``
    # disk hit is attributed to the journal (``resumed``), not to an
    # ordinary warm cache (``prescan``) — the counters are how a resume
    # proves it re-simulated only the journal-missing cells
    if resume_requested():
        done_digests = journal.load_done()
        # quarantined in the interrupted run and never completed since:
        # don't burn the retry ladder on a known-poison job again
        inherited_quarantine = journal.load_quarantined() - done_digests
    else:
        journal.restart()
        done_digests = set()
        inherited_quarantine = set()

    try:
        root_str = str(root)

        # ---- prescan: memo, then disk (journal-attributed) -----------
        missing: List[Tuple[int, object, object]] = []
        for index, job in enumerate(jobs_list):
            key = job.trace_key
            label = f"{key.abbrev}/{key.mode.value}"
            digest = disk_cache.stats_digest(key, job.config)
            journaled = digest in done_digests
            cached = runner._STATS_CACHE.get((key, job.config))
            if cached is not None:
                report.prescan += 1
            else:
                started = time.perf_counter()
                cached = runner.peek_cached_stats(key, job.config)
                if cached is None and journaled:
                    # a journaled cell invisible to the default-root peek
                    # (scratch store): try the campaign root directly
                    cached = runner.peek_cached_stats(
                        key, job.config, root=root_str
                    )
                wall = time.perf_counter() - started
                if cached is None:
                    missing.append((index, job, key))
                    if journaled:
                        # journaled, but the cached result vanished (or
                        # got corrupted): it must be re-simulated
                        counters.journal_stale += 1
                        report.journal_stale += 1
                        report.event("journal_stale", label)
                    continue
                if journaled:
                    counters.resumed += 1
                    report.resumed += 1
                    obs_metrics.record_variant("sim", label, "resumed", wall)
                else:
                    report.prescan += 1
                    obs_metrics.record_variant("sim", label, "disk", wall)
            results[index] = cached
            if not journaled:
                # journal every already-satisfied cell so an interruption
                # right now still leaves a complete record
                journal.append(digest, label, "cached")
                done_digests.add(digest)

        if not missing:
            report.completed = report.prescan + report.resumed
            return results  # type: ignore[return-value]

        report.scheduled = len(missing)

        # imported lazily: transport imports this module at load time
        from repro.harness import transport as transport_mod

        addresses = transport_mod.fleet_addresses()
        fleet = (
            transport_mod.HttpTransport(addresses, config, chaos, report)
            if addresses else None
        )

        def journal_quarantine(task: _Task) -> None:
            journal.append_quarantine(task.digest, task.label)

        def inherit_quarantine(task: _Task) -> None:
            if task.digest in inherited_quarantine:
                task.quarantined = True
                counters.resumed_quarantined += 1
                report.resumed_quarantined += 1
                report.event("resume_quarantine", task.label)

        # ---- phase 1: unique traces ----------------------------------
        trace_tasks: List[_Task] = []
        for key in dict.fromkeys(key for _, _, key in missing):
            memo = runner._TRACE_CACHE.get(key)
            path = disk_cache.trace_path(key, root=root_str)
            if memo is not None:
                if path is not None and not path.exists():
                    disk_cache.store_trace(key, memo, root=root_str)
                continue
            if path is None or not path.exists():
                task = _Task(
                    "trace", key, None, None,
                    f"{key.abbrev}/{key.mode.value}",
                    disk_cache.trace_digest(key),
                )
                inherit_quarantine(task)
                trace_tasks.append(task)

        def trace_done(task: _Task, result, wall: float, worker: str) -> None:
            if result:
                obs_metrics.record_variant(
                    "trace", task.label, "generated", wall, worker=worker
                )

        def pool() -> PoolTransport:
            return PoolTransport(
                n_workers, root_str, config, chaos, report,
                on_quarantine=journal_quarantine,
            )

        # with an http fleet the trace phase is skipped: workers own
        # their stores and (re)generate traces inside sim jobs
        pool_ok = True
        if trace_tasks and fleet is None:
            trace_pool = pool()
            _ladder(trace_tasks, [trace_pool], root_str, trace_done)
            pool_ok = not trace_pool.dead  # don't re-learn the lesson

        # ---- phase 2: simulations ------------------------------------
        sim_tasks: List[_Task] = []
        for index, job, key in missing:
            task = _Task(
                "sim", key, job.config, index,
                f"{key.abbrev}/{key.mode.value}",
                disk_cache.stats_digest(key, job.config),
            )
            inherit_quarantine(task)
            sim_tasks.append(task)

        def sim_done(task: _Task, result, wall: float, worker: str) -> None:
            results[task.index] = result
            runner.seed_stats_cache(task.key, task.config, result)
            if worker.startswith("http:"):
                source = "remote"
                # remote workers own their stores; persist the result in
                # the campaign root too, so the journal's promise (a
                # journaled cell is loadable here) holds for --resume
                disk_cache.store_stats(
                    task.key, task.config, result, root=root_str
                )
            else:
                source = "simulated"
            obs_metrics.record_variant(
                "sim", task.label, source, wall, worker=worker
            )
            journal.append(task.digest, task.label, source)
            report.completed += 1

        # the ladder: fleet -> local pool -> serial
        rungs = [fleet] if fleet is not None else []
        if pool_ok:
            rungs.append(pool())
        _ladder(sim_tasks, rungs, root_str, sim_done)

        report.completed += report.prescan + report.resumed
        return results  # type: ignore[return-value]
    finally:
        journal.close()
        if scratch is not None:
            scratch.cleanup()
        if telemetry.enabled():
            for name, value in counters.as_dict().items():
                telemetry.gauge_set(f"supervisor.{name}", value)
