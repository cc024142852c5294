"""Trace generation and variant simulation, with two cache layers.

Every lookup goes through an in-process memo first and then the
persistent on-disk store (:mod:`repro.harness.cache`), so repeated runs
of figures, sweeps, and the test suites regenerate nothing that is
already known.  The parallel scheduler (:mod:`repro.harness.parallel`)
shares the same disk store across worker processes.

Traces flow through here in their **columnar form**
(:class:`~repro.isa.columns.TraceColumns`): disk hits deserialise the
RPTR2 column sections straight into a column-backed
:class:`~repro.isa.trace.Trace` without materialising a single
``Instr``, the timing model consumes the packed columns and the memoized
segment list directly, and freshly generated traces are columnarised
once and reuse that form for both serialisation and simulation.

Trace generation populates each benchmark once per ``(seed, init_ops,
heap size)``, under ``LOG``, and forks every persistence mode's timed
run from that warm snapshot (the paper's untimed #InitOps, run once per
benchmark instead of once per bar); see :func:`generate_trace`.
"""

from __future__ import annotations

import copy
import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.harness import cache as disk_cache
from repro.obs import metrics as obs_metrics
from repro.isa.trace import Trace
from repro.stats.run import RunStats
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import simulate
from repro.workloads.base import PersistentWorkload, Workbench
from repro.workloads.registry import PAPER_SPECS, WORKLOADS, BenchmarkSpec


@dataclass(frozen=True)
class TraceKey:
    """Cache key for a generated trace.

    ``cores``/``contention`` identify multi-core cells
    (:func:`run_system`); the defaults keep every single-core key — and
    its digest inputs — distinct from any multi-core cell, so a 2-core
    run can never alias the single-core cache or journal entry.
    """

    abbrev: str
    mode: PersistMode
    seed: int
    init_ops: Optional[int] = None
    sim_ops: Optional[int] = None
    cores: int = 1
    contention: float = 0.0


@dataclass
class _Populated:
    """A benchmark built and populated under ``LOG``, and never run on.

    Its heap is truncated to the allocator's high-water mark: nothing is
    stored above it, so the rest is zero and each fork gets it back from
    a fresh heap.
    """

    bench: Workbench
    workload: PersistentWorkload


_TRACE_CACHE: Dict[TraceKey, Trace] = {}
_STATS_CACHE: Dict[Tuple[TraceKey, MachineConfig], RunStats] = {}
#: Warm snapshots by ``(abbrev, seed, init_ops, heap_size)``, oldest first.
_POPULATED: Dict[Tuple[str, int, int, Optional[int]], _Populated] = {}
#: Heap-image bytes :data:`_POPULATED` may hold in all: one default heap.
#: A larger snapshot (paper scale) is used once and dropped, so every
#: mode re-populates rather than the memo growing the resident set.
_POPULATED_BUDGET = 1 << 26
#: The most recent multi-core cell's per-core traces.  Figure 15 runs
#: each cell on two machines back to back; keeping every cell's traces
#: would hold megabytes that nothing reads again.
_SYSTEM_TRACES: Dict[TraceKey, List[Trace]] = {}
#: Guards the two memos above, which evict as they insert: threaded
#: workers and ``serve`` generate traces from concurrent threads.
_MEMO_LOCK = threading.Lock()


def clear_trace_cache() -> None:
    """Drop the in-process traces, warm snapshots and simulation results
    (tests use this).

    The persistent on-disk cache is left alone; see
    :func:`repro.harness.cache.clear_cache` for that.
    """
    _TRACE_CACHE.clear()
    _STATS_CACHE.clear()
    with _MEMO_LOCK:
        _POPULATED.clear()
        _SYSTEM_TRACES.clear()


def generate_trace(key: TraceKey) -> Trace:
    """Run the functional workload for *key* and return its trace.

    The timed run forks from the benchmark's warm snapshot
    (:func:`_populated`), so the four modes of a benchmark populate it
    once; the trace is the same as that of a fresh :class:`Workbench`
    built and populated under ``key.mode``.
    """
    if key.cores != 1:
        raise ValueError("multi-core cells have one trace per core; use run_system")
    spec = PAPER_SPECS[key.abbrev]
    init_ops = spec.scaled_init_ops if key.init_ops is None else key.init_ops
    sim_ops = spec.scaled_sim_ops if key.sim_ops is None else key.sim_ops
    heap_size = None
    if (init_ops, sim_ops) == (spec.paper_init_ops, spec.paper_sim_ops):
        # the paper tier outgrows the default heap (nodes are never
        # eagerly reclaimed); the size is fixed per workload in the
        # registry, so the trace stays a pure function of the key
        heap_size = spec.paper_heap_bytes
    snapshot = _populated(spec, key.seed, init_ops, heap_size)
    bench, workload = _fork(snapshot, key.mode)
    workload.run(sim_ops)
    return bench.trace


def _populated(
    spec: BenchmarkSpec, seed: int, init_ops: int, heap_size: Optional[int]
) -> _Populated:
    """The warm snapshot of *spec* (memoized; ``sim_ops`` plays no part).

    It is populated under ``LOG``: populate stores the same heap in every
    mode except for the undo-log region, which ``BASE`` leaves zero and a
    fork can zero again, while the stale log entries the logged modes
    leave behind cannot be rebuilt from a ``BASE`` heap.
    """
    memo_key = (spec.abbrev, seed, init_ops, heap_size)
    snapshot = _POPULATED.get(memo_key)
    if snapshot is not None:
        return snapshot
    kwargs = {} if heap_size is None else {"heap_size": heap_size}
    bench = Workbench(mode=PersistMode.LOG, record=True, seed=seed, **kwargs)
    with bench.untimed():
        # populate's finish_init drops constructor-time stores anyway
        workload = spec.build(bench)
    workload.populate(init_ops)
    bench.heap.truncate(bench.alloc.high_water_mark)
    snapshot = _Populated(bench, workload)
    size = bench.heap.image_bytes
    if size <= _POPULATED_BUDGET:
        with _MEMO_LOCK:
            while size + sum(
                kept.bench.heap.image_bytes for kept in _POPULATED.values()
            ) > _POPULATED_BUDGET:
                del _POPULATED[next(iter(_POPULATED))]
            _POPULATED[memo_key] = snapshot
    return snapshot


def _fork(
    snapshot: _Populated, mode: PersistMode
) -> Tuple[Workbench, PersistentWorkload]:
    """A private copy of *snapshot*'s benchmark, switched to *mode*."""
    heap = snapshot.bench.heap.clone()
    bench, workload = copy.deepcopy(
        (snapshot.bench, snapshot.workload), {id(snapshot.bench.heap): heap}
    )
    heap.attach(bench.recorder)
    bench.mode = bench.persist.mode = mode
    if not mode.logging:
        # what a BASE populate leaves: a log no transaction has touched
        bench.tx.log.erase()
        bench.tx.stats.entries_logged = bench.tx.stats.bytes_logged = 0
    return bench, workload


def trace_for_key(key: TraceKey) -> Trace:
    """The trace for *key*: in-process memo, then disk, then generation.

    Disk hits and fresh generations are recorded in
    :mod:`repro.obs.metrics` (memo hits are not — they are dict lookups)."""
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        return cached
    label = f"{key.abbrev}/{key.mode.value}"
    started = time.perf_counter()
    trace = disk_cache.load_cached_trace(key)
    if trace is None:
        trace = generate_trace(key)
        disk_cache.store_trace(key, trace)
        obs_metrics.record_variant(
            "trace", label, "generated", time.perf_counter() - started
        )
    else:
        obs_metrics.record_variant(
            "trace", label, "disk", time.perf_counter() - started
        )
    _TRACE_CACHE[key] = trace
    return trace


def build_trace(
    abbrev: str,
    mode: PersistMode,
    seed: int = 7,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
) -> Trace:
    """Generate (or fetch from cache) the trace for one benchmark variant.

    ``init_ops``/``sim_ops`` default to the registry's scaled counts.
    """
    return trace_for_key(TraceKey(abbrev, mode, seed, init_ops, sim_ops))


def peek_cached_stats(
    key: TraceKey, config: MachineConfig, root: Optional[str] = None
) -> Optional[RunStats]:
    """The cached :class:`RunStats` for *(key, config)*, without simulating.

    Checks the in-process memo, then the disk store (promoting hits into
    the memo).  With *root*, a store other than the default cache root —
    the supervisor's campaign or scratch store — is consulted instead of
    the default one.  Returns ``None`` on a miss.
    """
    cached = _STATS_CACHE.get((key, config))
    if cached is not None:
        return cached
    stats = disk_cache.load_cached_stats(key, config, root=root)
    if stats is not None:
        _STATS_CACHE[(key, config)] = stats
    return stats


def seed_stats_cache(key: TraceKey, config: MachineConfig, stats: RunStats) -> None:
    """Install an externally computed result (parallel workers) in the memo."""
    _STATS_CACHE[(key, config)] = stats


def run_variant(
    abbrev: str,
    mode: PersistMode,
    config: Optional[MachineConfig] = None,
    seed: int = 7,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
) -> RunStats:
    """Simulate one benchmark variant on *config* (cached at both layers)."""
    config = config or MachineConfig()
    key = TraceKey(abbrev, mode, seed, init_ops, sim_ops)
    cached = _STATS_CACHE.get((key, config))
    if cached is not None:
        return cached
    label = f"{key.abbrev}/{key.mode.value}"
    started = time.perf_counter()
    stats = disk_cache.load_cached_stats(key, config)
    if stats is not None:
        _STATS_CACHE[(key, config)] = stats
        obs_metrics.record_variant(
            "sim", label, "disk", time.perf_counter() - started
        )
        return stats
    trace = trace_for_key(key)
    started = time.perf_counter()
    stats = simulate(trace, config)
    _STATS_CACHE[(key, config)] = stats
    disk_cache.store_stats(key, config, stats)
    obs_metrics.record_variant(
        "sim", label, "simulated", time.perf_counter() - started
    )
    return stats


def system_result(
    abbrev: str,
    mode: PersistMode,
    config: Optional[MachineConfig] = None,
    seed: int = 7,
    cores: int = 2,
    contention: float = 0.0,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
):
    """Co-simulate a concurrent run on *config* (uncached).

    Returns the full :class:`~repro.uarch.system.SystemResult` with
    per-core stats and conflict counters; :func:`run_system` is the
    cached aggregate view.  The run's traces are generated once for
    consecutive calls on the same cell (other *config*), and kept for
    the most recent cell only.
    """
    from repro.uarch.system import simulate_system
    from repro.workloads.concurrent import generate_concurrent

    config = config or MachineConfig()
    key = TraceKey(abbrev, mode, seed, init_ops, sim_ops, cores, contention)
    traces = _SYSTEM_TRACES.get(key)
    if traces is None:
        traces = generate_concurrent(
            abbrev, mode, n_cores=cores, contention=contention, seed=seed,
            init_ops=init_ops, sim_ops=sim_ops,
        ).traces
        with _MEMO_LOCK:
            _SYSTEM_TRACES.clear()
            _SYSTEM_TRACES[key] = traces
    return simulate_system(traces, config)


def run_system(
    abbrev: str,
    mode: PersistMode,
    config: Optional[MachineConfig] = None,
    seed: int = 7,
    cores: int = 2,
    contention: float = 0.0,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
) -> RunStats:
    """Aggregate stats of one multi-core cell (cached at both layers).

    The returned :class:`RunStats` sums the per-core counters, takes the
    system makespan as ``cycles``, and carries the conflict counters and
    per-core cycle breakdown in ``extra`` — everything round-trips
    through the persistent stats cache.  ``cores`` must be >= 2: a
    one-core system is just :func:`run_variant`, and keeping the tiers
    apart keeps their cache keys apart.
    """
    if cores < 2:
        raise ValueError("run_system needs >= 2 cores; use run_variant")
    config = config or MachineConfig()
    key = TraceKey(abbrev, mode, seed, init_ops, sim_ops, cores, contention)
    cached = _STATS_CACHE.get((key, config))
    if cached is not None:
        return cached
    label = f"{abbrev}/{mode.value}@{cores}c/p{contention:g}"
    started = time.perf_counter()
    stats = disk_cache.load_cached_stats(key, config)
    if stats is not None:
        _STATS_CACHE[(key, config)] = stats
        obs_metrics.record_variant(
            "sim", label, "disk", time.perf_counter() - started
        )
        obs_metrics.record_system_run(cores, contention, stats.extra)
        return stats
    stats = system_result(
        abbrev, mode, config, seed,
        cores=cores, contention=contention,
        init_ops=init_ops, sim_ops=sim_ops,
    ).aggregate()
    _STATS_CACHE[(key, config)] = stats
    disk_cache.store_stats(key, config, stats)
    obs_metrics.record_variant(
        "sim", label, "simulated", time.perf_counter() - started
    )
    obs_metrics.record_system_run(cores, contention, stats.extra)
    return stats


def variant_stats(
    abbrev: str,
    sp: bool = False,
    ssb_entries: int = 256,
    seed: int = 7,
) -> Dict[PersistMode, RunStats]:
    """All four Figure-8 variants for one benchmark.

    With ``sp=True`` the LOG_P_SF trace additionally runs on the
    speculative-persistence machine and is stored under the key
    ``"SP"`` in the returned mapping (alongside the enum keys).
    Variants are scheduled through the parallel executor when a
    multi-job default is configured.
    """
    from repro.harness.parallel import prefetch_variants

    base_cfg = MachineConfig()
    pairs = [(abbrev, mode, base_cfg) for mode in PersistMode]
    sp_cfg = base_cfg.with_sp(ssb_entries)
    if sp:
        pairs.append((abbrev, PersistMode.LOG_P_SF, sp_cfg))
    prefetch_variants(pairs, seed=seed)

    results: Dict = {}
    for mode in PersistMode:
        results[mode] = run_variant(abbrev, mode, base_cfg, seed)
    if sp:
        results["SP"] = run_variant(abbrev, PersistMode.LOG_P_SF, sp_cfg, seed)
    return results


def geomean_overhead(ratios: Iterable[float]) -> float:
    """The paper's summary statistic: geometric mean of slowdown ratios,
    minus one."""
    values = list(ratios)
    if not values:
        raise ValueError("no ratios")
    return math.exp(sum(math.log(v) for v in values) / len(values)) - 1.0


def all_benchmarks() -> List[str]:
    return list(WORKLOADS)
