"""Populate once, fork per mode: every fork equals a fresh run.

``runner.generate_trace`` populates each benchmark once under ``LOG``
and forks every persistence mode's timed run from that warm snapshot.
The oracle here is the pre-snapshot recipe: a fresh :class:`Workbench`
built, populated and run under the key's own mode, construction
recorded.  Trace bytes, heap bytes, RNG state, allocator state, the
workload's model and the transaction counters must all match, whatever
order the modes are generated in.
"""

import dataclasses
import io

import pytest

from repro.harness import runner
from repro.harness.runner import TraceKey, clear_trace_cache, generate_trace
from repro.isa.serialize import dump_trace
from repro.mem.heap import CACHE_BLOCK
from repro.txn.modes import PersistMode
from repro.workloads.base import PersistentWorkload, Workbench
from repro.workloads.registry import PAPER_SPECS, WORKLOADS

INIT_OPS = 40
SIM_OPS = 6
SEEDS = (1, 7, 2017)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_trace_cache()
    yield
    clear_trace_cache()


def _trace_bytes(trace) -> bytes:
    buf = io.BytesIO()
    dump_trace(trace, buf)
    return buf.getvalue()


def _fresh(abbrev, mode, seed, init_ops=INIT_OPS, sim_ops=SIM_OPS, **kwargs):
    bench = Workbench(mode=mode, record=True, seed=seed, **kwargs)
    workload = PAPER_SPECS[abbrev].build(bench)
    workload.populate(init_ops)
    workload.run(sim_ops)
    return bench, workload


def _forked(abbrev, mode, seed, init_ops=INIT_OPS, sim_ops=SIM_OPS, heap_size=None):
    snapshot = runner._populated(PAPER_SPECS[abbrev], seed, init_ops, heap_size)
    bench, workload = runner._fork(snapshot, mode)
    workload.run(sim_ops)
    return bench, workload


def _state(bench, workload, full_heap=False):
    """Everything a run leaves behind that the next op could read."""
    heap = bench.heap
    top = bench.alloc.high_water_mark
    return {
        "trace": _trace_bytes(bench.trace),
        # nothing is stored above the high-water mark (checked in full
        # where asked); address 0 is NULL and never written
        "heap": heap.snapshot() if full_heap else heap.raw_read(
            CACHE_BLOCK, top - CACHE_BLOCK
        ),
        "heap_size": heap.size,
        "rng": bench.rng.getstate(),
        "alloc": bench.alloc.checkpoint(),
        "model": workload.model,
        "tx": bench.tx.stats,
        "log_cursor": bench.tx.log._cursor,
        "persist": (
            bench.persist.mode, bench.persist.n_clwb, bench.persist.n_pcommit,
            bench.persist.n_sfence, bench.persist.n_clflushopt,
        ),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("abbrev", WORKLOADS)
def test_fork_equals_a_fresh_run(abbrev, seed):
    for mode in PersistMode:
        fresh = _state(*_fresh(abbrev, mode, seed))
        forked = _state(*_forked(abbrev, mode, seed))
        assert forked == fresh, (abbrev, mode, seed)
        trace = generate_trace(TraceKey(abbrev, mode, seed, INIT_OPS, SIM_OPS))
        assert _trace_bytes(trace) == fresh["trace"]


@pytest.mark.parametrize("abbrev", WORKLOADS)
def test_fork_heap_is_zero_above_the_high_water_mark(abbrev):
    for mode in (PersistMode.BASE, PersistMode.LOG_P_SF):
        fresh = _state(*_fresh(abbrev, mode, 7), full_heap=True)
        assert _state(*_forked(abbrev, mode, 7), full_heap=True) == fresh


@pytest.mark.parametrize("abbrev", ("HM", "AT", "SS"))
def test_generation_order_does_not_matter(abbrev):
    def traces(order):
        clear_trace_cache()
        return {
            mode: _trace_bytes(
                generate_trace(TraceKey(abbrev, mode, 2017, INIT_OPS, SIM_OPS))
            )
            for mode in order
        }

    base_first = traces(list(PersistMode))
    fenced_first = traces(list(reversed(PersistMode)))
    assert base_first == fenced_first


def test_forks_leave_the_snapshot_untouched():
    spec = PAPER_SPECS["BT"]
    snapshot = runner._populated(spec, 7, INIT_OPS, None)
    image = snapshot.bench.heap.snapshot()
    rng = snapshot.bench.rng.getstate()
    model = dict(snapshot.workload.model)
    for mode in PersistMode:
        _forked("BT", mode, 7)
    assert runner._populated(spec, 7, INIT_OPS, None) is snapshot
    assert snapshot.bench.heap.snapshot() == image
    assert snapshot.bench.rng.getstate() == rng
    assert snapshot.workload.model == model


def test_paper_heap_key_forks_on_the_paper_heap(monkeypatch):
    """A key at the paper's op counts runs on ``paper_heap_bytes``; the
    snapshot is keyed by heap size, so it never serves the default heap."""
    spec = dataclasses.replace(
        PAPER_SPECS["BT"], paper_init_ops=INIT_OPS, paper_sim_ops=SIM_OPS
    )
    monkeypatch.setitem(PAPER_SPECS, "BT", spec)
    heap_size = spec.paper_heap_bytes
    assert heap_size != Workbench().heap.size
    for mode in PersistMode:
        trace = generate_trace(TraceKey("BT", mode, 7, INIT_OPS, SIM_OPS))
        fresh = _state(*_fresh("BT", mode, 7, heap_size=heap_size))
        assert _trace_bytes(trace) == fresh["trace"]
        forked = _state(*_forked("BT", mode, 7, heap_size=heap_size))
        assert forked == fresh
    assert list(runner._POPULATED) == [("BT", 7, INIT_OPS, heap_size)]


def test_each_benchmark_populates_once_for_all_modes(monkeypatch):
    calls = []
    populate = PersistentWorkload.populate

    def counting(self, n_ops):
        calls.append((self.abbrev, self.bench.mode))
        return populate(self, n_ops)

    monkeypatch.setattr(PersistentWorkload, "populate", counting)
    for abbrev in ("LL", "HM"):
        for mode in PersistMode:
            generate_trace(TraceKey(abbrev, mode, 7, INIT_OPS, SIM_OPS))
        # a different sim_ops shares the snapshot
        generate_trace(TraceKey(abbrev, PersistMode.LOG_P, 7, INIT_OPS, SIM_OPS + 1))
    assert calls == [("LL", PersistMode.LOG), ("HM", PersistMode.LOG)]


def test_clear_trace_cache_drops_the_snapshots():
    generate_trace(TraceKey("LL", PersistMode.BASE, 7, INIT_OPS, SIM_OPS))
    assert runner._POPULATED
    clear_trace_cache()
    assert not runner._POPULATED


def _retained_bytes() -> int:
    return sum(kept.bench.heap.image_bytes for kept in runner._POPULATED.values())


def test_retained_snapshots_stay_within_one_heap():
    for abbrev in WORKLOADS:
        generate_trace(TraceKey(abbrev, PersistMode.LOG, 7, INIT_OPS, SIM_OPS))
        assert _retained_bytes() <= runner._POPULATED_BUDGET
    assert len(runner._POPULATED) == len(WORKLOADS)
    assert runner._POPULATED_BUDGET == Workbench().heap.size


def test_oldest_snapshots_are_evicted_to_fit(monkeypatch):
    sizes = {}
    for abbrev in ("LL", "GH", "BT"):
        snapshot = runner._populated(PAPER_SPECS[abbrev], 7, INIT_OPS, None)
        sizes[abbrev] = snapshot.bench.heap.image_bytes
    clear_trace_cache()
    monkeypatch.setattr(runner, "_POPULATED_BUDGET", sizes["GH"] + sizes["BT"])
    for abbrev in ("LL", "GH", "BT"):
        generate_trace(TraceKey(abbrev, PersistMode.LOG_P, 7, INIT_OPS, SIM_OPS))
        assert _retained_bytes() <= runner._POPULATED_BUDGET
    assert [key[0] for key in runner._POPULATED] == ["GH", "BT"]


def test_oversized_snapshot_is_not_retained_and_forks_still_match(monkeypatch):
    """Past the budget (paper scale), each mode re-populates instead."""
    monkeypatch.setattr(runner, "_POPULATED_BUDGET", CACHE_BLOCK)
    for mode in PersistMode:
        trace = generate_trace(TraceKey("HM", mode, 1, INIT_OPS, SIM_OPS))
        assert not runner._POPULATED
        assert _trace_bytes(trace) == _state(*_fresh("HM", mode, 1))["trace"]
