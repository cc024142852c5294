"""Segment-walker fast path vs the reference model at its seams.

The walker switches regimes at fetch-queue/ROB occupancy boundaries,
between its warm-up/saturated/closed-form compute loops, between the
fast, speculative and slow phases, and at the speculative phase's commit
horizon.  These tests aim synthetic traces squarely at those seams and
require cycle-for-cycle agreement with the exact per-op loop and the
reference model (repro.uarch.pipeline_ref).
"""

import pytest

from repro.core.blt import BlockLookupTable
from repro.core.bloom import BloomFilter
from repro.core.ssb import SpeculativeStoreBuffer
from repro.isa.instr import Instr
from repro.isa.ops import Op
from repro.isa.trace import Trace
from repro.uarch.caches import CacheHierarchy, CacheLevel
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import PipelineModel, _deoptimized, simulate
from repro.uarch.pipeline_ref import ReferencePipelineModel, simulate_reference


def alu(n):
    return [Instr(Op.ALU) for _ in range(n)]


def chase_loads(n, base=0x10000, stride=4096):
    """Pointer-chase loads on distinct blocks (cold misses, long latency)."""
    return [Instr(Op.LOAD, base + i * stride) for i in range(n)]


def barrier():
    return [Instr(Op.SFENCE), Instr(Op.PCOMMIT), Instr(Op.SFENCE)]


def assert_equivalent(trace, config=None):
    config = config or MachineConfig()
    fast = simulate(trace, config).as_dict()
    ref = simulate_reference(trace, config).as_dict()
    assert fast == ref


class TestOccupancyBoundaries:
    """Compute runs sized exactly at the fetchq/ROB capacity seams."""

    @pytest.mark.parametrize("run", [1, 3, 4, 5, 46, 47, 48, 49, 50])
    def test_fetchq_exactly_full(self, run):
        # a cold chase miss blocks retirement; `run` compute ops then pile
        # into the front end around the fetchq-full (48) boundary
        instrs = []
        for i in range(4):
            instrs += [Instr(Op.LOAD, 0x40000 + i * 8192)] + alu(run)
        instrs += [Instr(Op.STORE, 0x9000)]
        assert_equivalent(Trace(instrs))

    @pytest.mark.parametrize("run", [126, 127, 128, 129, 130])
    def test_rob_exactly_full(self, run):
        instrs = []
        for i in range(3):
            instrs += [Instr(Op.LOAD, 0x80000 + i * 8192)] + alu(run)
        instrs += [Instr(Op.CLWB, 0x80000), Instr(Op.STORE, 0x9040)]
        assert_equivalent(Trace(instrs))

    @pytest.mark.parametrize("run", [136, 137, 138, 139, 200, 600])
    def test_steady_state_threshold(self, run):
        # runs straddling the closed-form advance's minimum length, after
        # a saturating preamble so the jump precondition can arm
        instrs = chase_loads(2) + alu(300)
        instrs += [Instr(Op.STORE, 0x9000)] + alu(run)
        instrs += [Instr(Op.LOAD, 0xA0000)] + alu(run)
        assert_equivalent(Trace(instrs))

    def test_long_pure_compute_uses_closed_form(self):
        # the jump must engage (streak >= max(fetchq, rob)) and still be
        # cycle-exact against the per-op reference
        instrs = alu(4000) + [Instr(Op.STORE, 0x9000)] + barrier() + alu(500)
        assert_equivalent(Trace(instrs))

    def test_event_dense_no_compute(self):
        # zero-length runs between events: the walker's per-entry overhead
        # paths with no compute prefix at all
        instrs = []
        for i in range(40):
            instrs += [
                Instr(Op.STORE, 0x5000 + (i % 6) * 64, meta="log"),
                Instr(Op.CLWB, 0x5000 + (i % 6) * 64, meta="log"),
                Instr(Op.LOAD, 0x70000 + i * 128),
            ]
        instrs += barrier()
        assert_equivalent(Trace(instrs))


class TestSpeculationSeams:
    """Fast-phase handoff to exact stepping around speculative epochs."""

    def test_compute_run_spans_speculation_exit(self):
        # the barrier enters speculation; the following long compute run
        # starts under speculation and finishes after the epoch commits —
        # the walker must not re-enter the fast phase mid-entry with a
        # stale prefix
        config = MachineConfig().with_sp(256)
        instrs = (
            [Instr(Op.STORE, 0x2000, meta="log"), Instr(Op.CLWB, 0x2000)]
            + barrier()
            + alu(3000)
            + [Instr(Op.STORE, 0x3000)]
            + alu(50)
        )
        assert_equivalent(Trace(instrs), config)

    def test_back_to_back_barriers_under_speculation(self):
        config = MachineConfig().with_sp(256)
        instrs = []
        for i in range(6):
            instrs += [
                Instr(Op.STORE, 0x2000 + i * 64, meta="log"),
                Instr(Op.CLWB, 0x2000 + i * 64),
            ]
            instrs += barrier()
            instrs += alu(20)
        instrs += alu(2500)
        assert_equivalent(Trace(instrs), config)

    def test_probe_splits_compute_run_mid_speculation(self):
        # a coherence probe lands inside a compute run while the machine
        # is speculating on a store the probe conflicts with: rollback and
        # re-execution must match the reference exactly
        config = MachineConfig().with_sp(256)
        instrs = (
            [Instr(Op.STORE, 0x3000, meta="log"), Instr(Op.CLWB, 0x3000)]
            + barrier()
            + alu(30)
            + [Instr(Op.STORE, 0x3000)]
            + alu(200)
            + barrier()
            + alu(10)
        )
        trace = Trace(instrs)
        probe_index = 100  # inside the 200-op compute run
        fast = PipelineModel(config)
        fast.schedule_probe(probe_index, 0x3000)
        ref = ReferencePipelineModel(config)
        ref.schedule_probe(probe_index, 0x3000)
        fast_stats = fast.run(trace).as_dict()
        ref_stats = ref.run(trace).as_dict()
        assert fast_stats["rollbacks"] == 1
        assert fast_stats == ref_stats

    def test_resumed_run_mid_speculation(self):
        # run(finish=False) leaves an epoch open; a follow-up run() must
        # step exactly until the epoch drains instead of entering the
        # non-speculative fast phase with speculative state live
        config = MachineConfig().with_sp(256)
        part1 = (
            [Instr(Op.STORE, 0x2000, meta="log"), Instr(Op.CLWB, 0x2000)]
            + barrier()
            + alu(10)
        )
        part2 = alu(400) + [Instr(Op.STORE, 0x4000)] + alu(40)
        fast = PipelineModel(config)
        fast.run(Trace(part1), finish=False)
        fast_stats = fast.run(Trace(part2)).as_dict()
        ref_stats = simulate_reference(Trace(part1 + part2), config).as_dict()
        assert fast_stats == ref_stats


class TestDeoptimisationGuard:
    """Patched or subclassed models must abandon the inlined walker."""

    def test_pristine_model_uses_fast_path(self):
        assert not _deoptimized(PipelineModel(MachineConfig()))

    def test_subclass_is_deoptimized(self):
        class Tweaked(PipelineModel):
            pass

        assert _deoptimized(Tweaked(MachineConfig()))

    def test_instance_override_is_deoptimized(self):
        model = PipelineModel(MachineConfig())
        model._compute_batch = lambda count: None
        assert _deoptimized(model)

    def test_class_patch_is_deoptimized_and_restored(self):
        original = PipelineModel._compute_batch
        try:
            PipelineModel._compute_batch = original
            assert not _deoptimized(PipelineModel(MachineConfig()))
            PipelineModel._compute_batch = lambda self, count: original(
                self, count
            )
            assert _deoptimized(PipelineModel(MachineConfig()))
        finally:
            PipelineModel._compute_batch = original
        assert not _deoptimized(PipelineModel(MachineConfig()))

    def test_deoptimized_subclass_still_exact(self):
        class Tweaked(PipelineModel):
            pass

        trace = Trace(
            chase_loads(3) + alu(100) + [Instr(Op.STORE, 0x9000)] + barrier()
        )
        config = MachineConfig()
        tweaked = Tweaked(config).run(trace).as_dict()
        assert tweaked == simulate_reference(trace, config).as_dict()


class _Exact(PipelineModel):
    """A subclass, so always the exact per-op loop (see ``_deoptimized``)."""


class _HorizonSpy(_Exact):
    """The exact loop, noting every op it polls exactly at the horizon
    (``_last_retire == oldest.barrier_done``): the one point where ``>=``
    and an off-by-one ``>`` disagree."""

    def __init__(self, config):
        super().__init__(config)
        self.at_horizon = set()

    def _step(self, op, addr, meta):
        if (
            self.epochs.speculating
            and self._last_retire == self.epochs.oldest.barrier_done
        ):
            self.at_horizon.add(Op(op))
        super()._step(op, addr, meta)


def machine_state(model):
    """Everything a mid-speculation probe could observe."""
    return {
        "stats": model.stats.as_dict(),
        "ssb": [(e.op, e.block, e.epoch_id) for e in model.ssb.entries()],
        "ssb_counters": (model.ssb.appends, model.ssb.lookups,
                         model.ssb.forwards, model.ssb.max_occupancy),
        "bloom": (bytes(model.bloom._bits), model.bloom.inserts,
                  model.bloom.queries, model.bloom.hits,
                  model.bloom.false_positives),
        "blt": (sorted(model.blt._blocks), model.blt.records),
        "epochs": [vars(e) for e in model.epochs.active],
        "windows": [list(d) for d in (
            model._fetch_group, model._dispatch_group, model._retire_group,
            model._fetchq, model._rob, model._lsq,
        )],
        "scalars": (model._last_retire, model._last_fetch, model._sb_free,
                    model._flush_free, model._stores_visible,
                    model._flushes_done, model._pcommits_done,
                    list(model._inflight_pcommits), model._chain_ready,
                    model._chain_issue, model._chain_block),
    }


def assert_horizon_identity(trace, config):
    """Walker == exact loop == reference on RunStats, and walker == exact
    loop on the open machine state; returns ``(ops polled exactly at the
    horizon, stats)``."""
    fast = simulate(trace, config).as_dict()
    assert fast == _Exact(config).run(trace).as_dict()
    assert fast == simulate_reference(trace, config).as_dict()
    open_fast = PipelineModel(config)
    open_fast.run(trace, finish=False)
    open_exact = _Exact(config)
    open_exact.run(trace, finish=False)
    assert machine_state(open_fast) == machine_state(open_exact)
    spy = _HorizonSpy(config)
    spy.run(trace)
    return spy.at_horizon, fast


def enter_speculation(block=0x2000):
    """Warm :func:`dense_events`' blocks into the L1, then a logged store,
    its clwb, and a barrier that speculates on the in-flight pcommit
    (~600 compute ops to its horizon at the default latencies)."""
    return (
        dense_events(4)
        + [Instr(Op.STORE, block, meta="log"), Instr(Op.CLWB, block)]
        + barrier()
    )


def dense_events(n, base=0x40000):
    """Back-to-back L1-resident loads, stores and clwbs, so the horizon
    lands on an event rather than inside a compute run."""
    instrs = []
    for i in range(n):
        block = base + (i % 4) * 64
        instrs += [
            Instr(Op.LOAD, block, meta="log"),
            Instr(Op.STORE, block + 0x1000),
            Instr(Op.CLWB, block + 0x1000),
            Instr(Op.LOAD, block + 0x1000),
        ]
    return instrs


class TestSpeculativeHorizon:
    """The speculative phase handles ops in-line only below the oldest
    epoch's commit horizon; each case sweeps the approach so that ops land
    exactly on it, and checks the sweep really did (via the spy)."""

    def test_compute_run_crosses_horizon(self):
        # the barrier right after the run waits on the drain that the
        # horizon poll schedules, so polling one op late shows in cycles
        seen = set()
        for children in (0, 1, 2):
            for run in range(560, 680, 6):
                instrs = enter_speculation()
                for c in range(children):
                    instrs += [Instr(Op.STORE, 0x5000 + c * 64)] + barrier()
                instrs += [Instr(Op.STORE, 0x3000), Instr(Op.CLWB, 0x3000)]
                instrs += alu(run) + barrier() + dense_events(2) + alu(10)
                at, _ = assert_horizon_identity(Trace(instrs), MachineConfig().with_sp(256))
                seen |= at
        assert Op.ALU in seen

    def test_event_exactly_at_horizon(self):
        seen = set()
        for run in range(590, 630):
            instrs = enter_speculation() + alu(run) + dense_events(12)
            instrs += alu(30) + barrier() + dense_events(2)
            at, _ = assert_horizon_identity(Trace(instrs), MachineConfig().with_sp(256))
            seen |= at
        assert {Op.LOAD, Op.STORE, Op.CLWB} <= seen

    def test_inline_store_meets_full_ssb(self):
        seen = set()
        stalled = False
        for run in range(0, 640, 40):
            instrs = enter_speculation() + alu(run)
            for i in range(40):
                instrs += [Instr(Op.STORE, 0x60000 + i * 64),
                           Instr(Op.CLWB, 0x60000 + i * 64)] + alu(3)
            instrs += barrier() + dense_events(20) + barrier() + alu(20)
            at, stats = assert_horizon_identity(Trace(instrs), MachineConfig().with_sp(32))
            seen |= at
            stalled |= stats["ssb_full_stall_cycles"] > 0
        assert stalled
        assert seen

    @pytest.mark.parametrize(
        "op, block",
        [(Op.XCHG, 0x7000), (Op.LOCK_RMW, 0x7000), (Op.CLFLUSH, 0x40000),
         (Op.PCOMMIT, 0)],
        ids=["xchg", "lock-rmw", "clflush", "pcommit"],
    )
    def test_delegated_op_inside_epoch(self, op, block):
        seen = set()
        for run in range(560, 640, 5):
            instrs = enter_speculation() + alu(run) + dense_events(3)
            instrs += [Instr(op, block)] + dense_events(6) + barrier() + alu(20)
            at, _ = assert_horizon_identity(Trace(instrs), MachineConfig().with_sp(256))
            seen |= at
        assert seen

    @pytest.mark.parametrize(
        "overrides",
        [dict(bloom_enabled=False), dict(coalesce_barrier_checkpoints=False),
         dict(checkpoint_entries=1)],
        ids=["no-bloom", "no-coalesce", "ckpt1"],
    )
    def test_ablations(self, overrides):
        config = MachineConfig().with_sp(256, **overrides)
        seen = set()
        for run in range(590, 630, 2):
            instrs = enter_speculation() + alu(run) + dense_events(12)
            instrs += [Instr(Op.STORE, 0x9000)] + barrier() + dense_events(12)
            instrs += barrier() + alu(run // 2) + dense_events(12) + alu(40)
            at, _ = assert_horizon_identity(Trace(instrs), config)
            seen |= at
        assert seen

    def test_forwarding_and_false_positives(self):
        seen = set()
        forwards = false_positives = 0
        for run in range(560, 640, 9):
            blocks = [0x80000 + i * 64 for i in range(6)]
            instrs = enter_speculation()
            instrs += [Instr(Op.STORE, b) for b in blocks] + barrier()
            # still buffered by the parent epoch: forwarded from the SSB
            instrs += [Instr(Op.LOAD, b, meta="log") for b in blocks]
            # after the parent commits: bloom bits linger, the SSB is empty
            instrs += alu(run) + [Instr(Op.LOAD, b) for b in blocks]
            instrs += dense_events(3) + barrier() + alu(10)
            at, stats = assert_horizon_identity(Trace(instrs), MachineConfig().with_sp(256))
            seen |= at
            forwards += stats["ssb_forwards"]
            false_positives += stats["bloom_false_positives"]
        assert forwards > 0 and false_positives > 0
        assert seen


#: PipelineModel methods and hardware-structure attributes whose behaviour
#: the speculative phase bakes in (the cache paths are shared with the
#: fast phase)
_SPECULATIVE_INLINED = [
    (PipelineModel, "_buffered_store"),
    (PipelineModel, "_buffered_flush"),
    (PipelineModel, "_wait_for_ssb_space"),
    (BloomFilter, "_positions"),
    (BloomFilter, "insert"),
    (BloomFilter, "maybe_contains"),
    (BloomFilter, "record_false_positive"),
    (BlockLookupTable, "record"),
    (SpeculativeStoreBuffer, "free_slots"),
    (CacheHierarchy, "access"),
    (CacheLevel, "lookup"),
]


class TestSpeculativeDeoptimisation:
    """Patching anything the speculative phase inlines must route the run
    to ``_run_exact`` so the patch (e.g. a fault injection) takes effect."""

    @pytest.mark.parametrize(
        "owner, name", _SPECULATIVE_INLINED, ids=[f"{o.__name__}.{n}" for o, n in _SPECULATIVE_INLINED]
    )
    def test_patch_routes_to_exact_loop(self, monkeypatch, owner, name):
        original = owner.__dict__[name]
        if isinstance(original, property):
            patched = property(lambda self: original.fget(self))
        else:
            def patched(self, *args, **kwargs):
                return original(self, *args, **kwargs)
        calls = []
        run_exact = PipelineModel._run_exact
        monkeypatch.setattr(
            PipelineModel, "_run_exact",
            lambda self, columns: calls.append("exact") or run_exact(self, columns),
        )
        config = MachineConfig().with_sp(256)
        trace = Trace(enter_speculation() + dense_events(5) + barrier() + alu(10))
        assert not _deoptimized(PipelineModel(config))
        PipelineModel(config).run(trace)
        assert calls == []
        monkeypatch.setattr(owner, name, patched)
        assert _deoptimized(PipelineModel(config))
        stats = PipelineModel(config).run(trace).as_dict()
        assert calls == ["exact"]
        assert stats == simulate_reference(trace, config).as_dict()
