"""NumPy batch kernel vs the Python segment walker.

The kernel's contract (repro.uarch.kernel) is cycle-for-cycle identity
with the walker: same RunStats, same cache/memory-controller counters,
on every trace.  These tests pin that contract three ways — targeted
traces aimed at the kernel's own seams (batch threshold, same-block run
elision, scalar-chunk bailout, the classification pass's sub-batch
path), property-based random traces from the
full micro-op grammar, and the benchmark conformance matrix — plus the
backend-selection plumbing (resolution precedence, graceful degradation
without numpy, deoptimisation guard).
"""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.runner import build_trace, clear_trace_cache
from repro.isa.instr import Instr
from repro.isa.ops import Op
from repro.isa.trace import Trace
from repro.txn.modes import PersistMode
from repro.uarch import kernel
from repro.uarch.config import MachineConfig, PipelineConfig
from repro.uarch.pipeline import PipelineModel, _deoptimized
from repro.workloads.registry import WORKLOADS

requires_numpy = pytest.mark.skipif(
    not kernel.numpy_available(),
    reason=f"numpy backend unavailable: {kernel.unavailable_reason()}",
)

SMALL = dict(init_ops=300, sim_ops=12)


def run_backend(trace, config, backend, min_batch=1):
    """Run *trace* on an explicit backend; min_batch=1 forces the kernel
    onto spans the auto threshold would leave to the walker."""
    model = PipelineModel(
        config,
        pipeline=PipelineConfig(kernel=backend, kernel_min_batch=min_batch),
    )
    stats = model.run(trace)
    return model, stats


def assert_backends_agree(trace, config=None, min_batch=1):
    config = config or MachineConfig()
    py_model, py_stats = run_backend(trace, config, "python", min_batch)
    np_model, np_stats = run_backend(trace, config, "numpy", min_batch)
    assert np_model.kernel_backend == "numpy"
    assert np_stats.as_dict() == py_stats.as_dict()
    return py_model, np_model


def alu(n):
    return [Instr(Op.ALU) for _ in range(n)]


def barrier():
    return [Instr(Op.SFENCE), Instr(Op.PCOMMIT), Instr(Op.SFENCE)]


# ----------------------------------------------------------------------
# backend resolution
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_explicit_python(self):
        assert kernel.resolve_backend("python") == "python"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernel.resolve_backend("fortran")

    def test_request_is_normalised(self):
        # case/whitespace-insensitive, like the CLI's env plumbing
        assert kernel.resolve_backend(" Python ") == "python"

    def test_auto_defers_to_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert kernel.resolve_backend(None) == "python"
        assert kernel.resolve_backend("auto") == "python"

    def test_auto_picks_numpy_when_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        expected = "numpy" if kernel.numpy_available() else "python"
        assert kernel.resolve_backend("auto") == expected

    @requires_numpy
    def test_explicit_request_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert kernel.resolve_backend("numpy") == "numpy"

    def test_bad_environment_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "cuda")
        with pytest.raises(ValueError):
            kernel.resolve_backend("auto")


# ----------------------------------------------------------------------
# graceful degradation without numpy
# ----------------------------------------------------------------------
class TestGracefulDegradation:
    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(kernel, "np", None)
        monkeypatch.setattr(kernel, "_unavailable_reason", "numpy is not installed")
        monkeypatch.setattr(kernel, "_warned_fallback", False)

    def test_warns_once_then_silent(self, no_numpy):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert kernel.resolve_backend("numpy") == "python"
        # the second request (any spelling) must not warn again
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel.resolve_backend("numpy") == "python"
            assert kernel.resolve_backend("auto") == "python"

    def test_model_degrades_to_walker(self, no_numpy):
        trace = Trace(
            [Instr(Op.LOAD, 0x1000), Instr(Op.STORE, 0x1040)]
            + alu(20)
            + barrier()
        )
        with pytest.warns(RuntimeWarning):
            model = PipelineModel(
                MachineConfig(),
                pipeline=PipelineConfig(kernel="numpy", kernel_min_batch=1),
            )
        assert model.kernel_backend == "python"
        degraded = model.run(trace).as_dict()
        _, reference = run_backend(trace, MachineConfig(), "python")
        assert degraded == reference.as_dict()


# ----------------------------------------------------------------------
# deoptimisation guard under the numpy backend
# ----------------------------------------------------------------------
@requires_numpy
class TestDeoptGuard:
    TRACE = Trace(
        [Instr(Op.LOAD, 0x8000 + i * 4096) for i in range(6)]
        + alu(200)
        + [Instr(Op.STORE, 0x9000)]
        + barrier()
    )

    def test_pristine_model_keeps_kernel(self):
        model = PipelineModel(
            MachineConfig(), pipeline=PipelineConfig(kernel="numpy")
        )
        assert model.kernel_backend == "numpy"
        assert model._kernel_advance is kernel.advance
        assert not _deoptimized(model)

    def test_subclass_routes_to_exact_loop(self):
        class Probed(PipelineModel):
            def _extra_probe(self):
                return None

        model = Probed(
            MachineConfig(),
            pipeline=PipelineConfig(kernel="numpy", kernel_min_batch=1),
        )
        assert _deoptimized(model)
        # the exact loop must never reach the kernel
        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("kernel called on a deoptimised model")

        model._kernel_advance = boom
        tweaked = model.run(self.TRACE).as_dict()
        _, reference = run_backend(self.TRACE, MachineConfig(), "python")
        assert tweaked == reference.as_dict()

    def test_instance_override_routes_to_exact_loop(self):
        model = PipelineModel(
            MachineConfig(),
            pipeline=PipelineConfig(kernel="numpy", kernel_min_batch=1),
        )
        model._compute_batch = lambda count: None
        assert _deoptimized(model)


# ----------------------------------------------------------------------
# kernel seams: batch threshold, run elision, scalar bailout
# ----------------------------------------------------------------------
@requires_numpy
class TestKernelSeams:
    @pytest.mark.parametrize("span", [1023, 1024, 1025, 1224])
    def test_min_batch_threshold(self, span):
        # event-free spans straddling KERNEL_MIN_BATCH: below it the
        # walker keeps the span, at/above it the kernel takes over —
        # either way the cycle count must not move
        instrs = []
        for i in range(3):
            instrs += [Instr(Op.LOAD, 0x10000 + i * 8192)]
            instrs += alu(span - 1)
        instrs += [Instr(Op.STORE, 0x9000)] + barrier()
        trace = Trace(instrs)
        config = MachineConfig()
        _, py_stats = run_backend(
            trace, config, "python", min_batch=kernel.KERNEL_MIN_BATCH
        )
        _, np_stats = run_backend(
            trace, config, "numpy", min_batch=kernel.KERNEL_MIN_BATCH
        )
        assert np_stats.as_dict() == py_stats.as_dict()

    def test_same_block_run_dirty_carry(self):
        # a run of loads with one store buried in the tail: the elided
        # tail's dirty bit must carry to the run head, so the later
        # conflict-evictions write the block back on both backends
        blk = 0x40000
        set_stride = 64 * 64  # L1: 64 sets of 64-byte blocks
        instrs = [Instr(Op.LOAD, blk + (i % 6) * 8) for i in range(8)]
        instrs += [Instr(Op.STORE, blk + 16)]
        instrs += [Instr(Op.LOAD, blk + 24)]
        # nine more tags in the same set evict the run's block from L1
        instrs += [
            Instr(Op.LOAD, blk + i * set_stride) for i in range(1, 10)
        ]
        instrs += barrier()
        py_model, np_model = assert_backends_agree(Trace(instrs))
        assert np_model.caches.l1.writebacks >= 1
        assert np_model.caches.l1.writebacks == py_model.caches.l1.writebacks

    def test_store_only_runs_and_flushes(self):
        # same-block store runs interleaved with clwb/clflushopt on the
        # run's own block (flushes break elision runs)
        blk = 0x50000
        instrs = []
        for i in range(10):
            instrs += [Instr(Op.STORE, blk + j * 8) for j in range(5)]
            instrs += [Instr(Op.CLWB if i % 2 else Op.CLFLUSHOPT, blk)]
        instrs += barrier()
        assert_backends_agree(Trace(instrs))

    def test_scalar_bailout_is_exact(self, monkeypatch):
        # the skiplist's ROB-serialised pointer chasing keeps the
        # fixpoint's wave front crawling, which trips the deep-feedback
        # bailout even at tiny scale; the scalar sweep's answer must
        # match the walker's
        calls = []
        real = kernel._scalar_chunk

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel, "_scalar_chunk", spy)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        clear_trace_cache()
        trace = build_trace("SS", PersistMode.BASE, **SMALL)
        clear_trace_cache()
        assert_backends_agree(trace)
        assert calls, "scalar bailout never triggered"


# ----------------------------------------------------------------------
# classification: the scalar pass's sub-batch path on directed traces
# ----------------------------------------------------------------------
#: L1 geometry of the default machine, used to aim traces at one set.
_CFG = MachineConfig()
_BLOCK = _CFG.l1.block_size
_L1_WAYS = _CFG.l1.ways
_SET_STRIDE = _CFG.l1.n_sets * _BLOCK


def _cache_state(model):
    """Everything classification leaves behind in the hierarchy: stamps,
    counters, and every set's LRU order and dirty bits."""
    out = []
    for level in model.caches.levels:
        out.append((level.name, level.stamp, level.hits, level.misses,
                    level.writebacks,
                    [list(ways.items()) for ways in level._sets]))
    out.append(("acc", model.caches.accesses, model.caches.nvmm_reads))
    return out


def loads(addrs):
    return [Instr(Op.LOAD, a) for a in addrs]


def stores(addrs):
    return [Instr(Op.STORE, a) for a in addrs]


@requires_numpy
class TestClassifySeams:
    @pytest.fixture(autouse=True)
    def sub_batches(self, monkeypatch):
        # no exact-path cutoff and short sub-batches: every batch takes
        # the set-partitioned sub-batch path, and each directed trace
        # spans several residency re-snapshots
        monkeypatch.setattr(kernel, "_CLASSIFY_EXACT_MAX", 0)
        monkeypatch.setattr(kernel, "_CLASSIFY_SUB", 64)
        snapshots = []
        real = kernel._l1_snapshot

        def spy(*args):
            snapshots.append(1)
            return real(*args)

        monkeypatch.setattr(kernel, "_l1_snapshot", spy)
        yield
        assert len(snapshots) > 1, "sub-batch path never ran"

    def assert_agree(self, trace, config=None):
        py_model, np_model = assert_backends_agree(trace, config)
        assert _cache_state(np_model) == _cache_state(py_model)
        return py_model, np_model

    def test_same_set_thrash_beyond_associativity(self):
        # W+4 distinct blocks all landing in L1 set 0, chased for laps:
        # every lap evicts, and the victim choice must match LRU exactly
        blocks = [i * _SET_STRIDE for i in range(_L1_WAYS + 4)]
        body = []
        for lap in range(24):
            body += loads(blocks) if lap % 3 else stores(blocks)
        self.assert_agree(Trace(body))

    def test_dirty_victim_cascade_l1_l2_l3(self):
        # dirty a footprint far past every level's per-set capacity —
        # stride of the *L3* set count makes every block collide in one
        # set of all three levels — so dirty victims cascade
        # L1→L2→L3→WPQ, and the deferred writeback records must land at
        # the same times the walker emits them
        deep_stride = _CFG.l3.n_sets * _BLOCK
        blocks = [i * deep_stride for i in range(_CFG.l3.ways + 8)]
        body = stores(blocks)
        for lap in range(6):
            body += stores([b + (lap % 2) * 8 for b in blocks])
            body += loads(list(reversed(blocks)))
        py_model, _ = self.assert_agree(Trace(body))
        assert py_model.caches.l3.writebacks > 0  # the cascade actually ran

    def test_flush_segmented_batch(self):
        # clwb cleans and clflushopt evicts out of LRU order in the
        # middle of a batch of same-set traffic
        blocks = [i * _SET_STRIDE for i in range(_L1_WAYS + 2)]
        body = []
        for lap in range(10):
            body += stores(blocks)
            body.append(Instr(Op.CLWB if lap % 2 else Op.CLFLUSHOPT,
                              blocks[lap % len(blocks)]))
            body += loads(blocks)
        self.assert_agree(Trace(body))

    def test_speculative_machine(self):
        # each lap's same-set traffic outlasts one sub-batch before its
        # barrier opens (or extends) a speculative epoch
        blocks = [i * _SET_STRIDE for i in range(_L1_WAYS + 3)]
        body = []
        for lap in range(8):
            body += (stores(blocks) + loads(blocks)) * 3
            body += barrier()
        self.assert_agree(Trace(body), MachineConfig().with_sp(256))


# ----------------------------------------------------------------------
# property tests: random traces from the micro-op grammar
# ----------------------------------------------------------------------
_addr = st.integers(0, 95).map(lambda i: 0x10000 + i * 64 + (i % 8) * 8)

_token = st.one_of(
    st.tuples(st.just("alu"), st.integers(1, 60), st.just(0)),
    st.tuples(st.just("mem"), _addr, st.integers(0, 1)),
    st.tuples(st.just("run"), _addr, st.integers(2, 12)),
    st.tuples(st.just("flush"), _addr, st.integers(0, 2)),
    st.tuples(st.just("atomic"), _addr, st.integers(0, 1)),
    st.tuples(st.just("fence"), st.just(0), st.integers(0, 2)),
    st.tuples(st.just("barrier"), st.just(0), st.just(0)),
)

_FLUSHES = (Op.CLWB, Op.CLFLUSHOPT, Op.CLFLUSH)
_FENCES = (Op.SFENCE, Op.MFENCE, Op.PCOMMIT)


def _expand(token):
    kind, arg, sub = token
    if kind == "alu":
        return alu(arg)
    if kind == "mem":
        return [Instr(Op.STORE if sub else Op.LOAD, arg)]
    if kind == "run":
        # a same-block run: elision fodder, with stores sprinkled in
        return [
            Instr(Op.STORE if j % 3 == 2 else Op.LOAD, (arg & ~63) + (j % 8) * 8)
            for j in range(sub)
        ]
    if kind == "flush":
        return [Instr(_FLUSHES[sub], arg)]
    if kind == "atomic":
        return [Instr(Op.XCHG if sub else Op.LOCK_RMW, arg)]
    if kind == "fence":
        return [Instr(_FENCES[sub])]
    return barrier()


@st.composite
def grammar_traces(draw):
    tokens = draw(st.lists(_token, min_size=1, max_size=80))
    return Trace([instr for token in tokens for instr in _expand(token)])


@requires_numpy
class TestPropertyEquivalence:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace=grammar_traces())
    def test_base_machine(self, trace):
        assert_backends_agree(trace)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace=grammar_traces())
    def test_speculative_machine(self, trace):
        assert_backends_agree(trace, MachineConfig().with_sp(256))


# ----------------------------------------------------------------------
# conformance matrix: every benchmark, base + fenced + speculative
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("abbrev", WORKLOADS)
class TestConformanceMatrix:
    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        clear_trace_cache()
        yield
        clear_trace_cache()

    def test_baseline(self, abbrev):
        trace = build_trace(abbrev, PersistMode.BASE, **SMALL)
        assert_backends_agree(trace)

    def test_fenced(self, abbrev):
        trace = build_trace(abbrev, PersistMode.LOG_P_SF, **SMALL)
        assert_backends_agree(trace)

    def test_speculative(self, abbrev):
        trace = build_trace(abbrev, PersistMode.LOG_P_SF, **SMALL)
        assert_backends_agree(trace, MachineConfig().with_sp(256))
