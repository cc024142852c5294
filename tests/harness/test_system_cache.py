"""Regression: multi-core cells must never alias single-core cache
entries.

Before the key carried ``cores``/``contention``, a 2-core aggregate
stored under ``(abbrev, mode, seed, ops)`` would silently overwrite —
and later be served as — the single-core result for the same variant.
These tests pin the fixed keying at every layer: digest, disk path,
``peek_cached_stats``, and the run_* entry points.
"""

from collections import namedtuple

import pytest

from repro.harness import cache, runner
from repro.harness.figures import fig15_concurrent_speedup
from repro.harness.runner import (
    TraceKey,
    clear_trace_cache,
    peek_cached_stats,
    run_system,
    run_variant,
)
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.system import simulate_system
from repro.workloads import concurrent

SMALL = dict(init_ops=24, sim_ops=8)
MODE = PersistMode.LOG_P_SF


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    cache.reset_runtime_disable()
    clear_trace_cache()
    yield
    clear_trace_cache()
    cache.reset_runtime_disable()


class TestKeying:
    def test_core_count_changes_digest(self):
        single = TraceKey("HM", MODE, 7)
        multi = TraceKey("HM", MODE, 7, cores=2)
        assert cache.trace_digest(single) != cache.trace_digest(multi)
        config = MachineConfig()
        assert cache.stats_digest(single, config) != cache.stats_digest(multi, config)

    def test_contention_changes_digest(self):
        a = TraceKey("HM", MODE, 7, cores=2, contention=0.0)
        b = TraceKey("HM", MODE, 7, cores=2, contention=0.9)
        assert cache.trace_digest(a) != cache.trace_digest(b)

    def test_default_fields_keep_legacy_digests(self):
        """Keys that predate the ``cores``/``contention`` fields (the
        supervisor's journals hold bare tuples) digest identically to
        new single-core keys, so old cache entries stay valid."""
        Legacy = namedtuple("Legacy", "abbrev mode seed init_ops sim_ops")
        legacy = Legacy("HM", MODE, 7, None, None)
        modern = TraceKey("HM", MODE, 7)
        assert cache.trace_digest(legacy) == cache.trace_digest(modern)


class TestNoAliasing:
    def test_system_and_variant_results_coexist(self):
        config = MachineConfig().with_sp(256)
        single = run_variant("HM", MODE, config, **SMALL)
        multi = run_system("HM", MODE, config, cores=2, contention=0.5, **SMALL)
        assert multi.extra["cores"] == 2
        # both survive in the cache under their own keys
        clear_trace_cache()
        single_key = TraceKey("HM", MODE, 7, SMALL["init_ops"], SMALL["sim_ops"])
        multi_key = TraceKey(
            "HM", MODE, 7, SMALL["init_ops"], SMALL["sim_ops"], 2, 0.5
        )
        peeked_single = peek_cached_stats(single_key, config)
        peeked_multi = peek_cached_stats(multi_key, config)
        assert peeked_single is not None and peeked_multi is not None
        assert peeked_single.as_dict() == single.as_dict()
        assert peeked_multi.as_dict() == multi.as_dict()
        assert "cores" not in peeked_single.extra

    def test_contention_cells_are_distinct_entries(self):
        config = MachineConfig().with_sp(256)
        calm = run_system("HM", MODE, config, cores=2, contention=0.0, **SMALL)
        hot = run_system("HM", MODE, config, cores=2, contention=1.0, **SMALL)
        assert hot.extra["conflict_aborts"] > calm.extra["conflict_aborts"]
        clear_trace_cache()
        for contention, fresh in ((0.0, calm), (1.0, hot)):
            key = TraceKey(
                "HM", MODE, 7, SMALL["init_ops"], SMALL["sim_ops"], 2, contention
            )
            peeked = peek_cached_stats(key, config)
            assert peeked is not None
            assert peeked.as_dict() == fresh.as_dict()

    def test_run_system_rejects_single_core(self):
        with pytest.raises(ValueError):
            run_system("HM", MODE, cores=1)


@pytest.fixture
def generations(monkeypatch):
    """Keys of every ``generate_concurrent`` call."""
    calls = []
    generate = concurrent.generate_concurrent

    def counting(abbrev, mode, n_cores, contention, **kwargs):
        calls.append((abbrev, n_cores, contention))
        return generate(abbrev, mode, n_cores=n_cores, contention=contention, **kwargs)

    monkeypatch.setattr(concurrent, "generate_concurrent", counting)
    return calls


class TestConcurrentTraceReuse:
    """The two machines of a Figure 15 cell share one generated run."""

    def test_second_config_reuses_the_traces(self, generations):
        base, sp = MachineConfig(), MachineConfig().with_sp(256)
        for config in (base, sp):
            run_system("HM", MODE, config, cores=2, contention=0.5, **SMALL)
        assert generations == [("HM", 2, 0.5)]

    def test_only_the_latest_cell_is_kept(self, generations):
        base, sp = MachineConfig(), MachineConfig().with_sp(256)
        run_system("HM", MODE, base, cores=2, contention=0.0, **SMALL)
        run_system("HM", MODE, base, cores=2, contention=0.5, **SMALL)
        assert len(runner._SYSTEM_TRACES) == 1
        run_system("HM", MODE, sp, cores=2, contention=0.0, **SMALL)
        assert generations == [("HM", 2, 0.0), ("HM", 2, 0.5), ("HM", 2, 0.0)]
        clear_trace_cache()
        assert not runner._SYSTEM_TRACES

    def test_shared_traces_simulate_like_fresh_ones(self):
        configs = (MachineConfig(), MachineConfig().with_sp(256))
        shared = [
            run_system("HM", MODE, config, cores=2, contention=0.9, **SMALL)
            for config in configs
        ]
        for config, stats in zip(configs, shared):
            run = concurrent.generate_concurrent(
                "HM", MODE, n_cores=2, contention=0.9, seed=7, **SMALL
            )
            fresh = simulate_system(run.traces, config).aggregate()
            assert cache.stats_record(stats) == cache.stats_record(fresh)

    def test_figure_15_generates_each_cell_once(self, generations):
        fig15_concurrent_speedup(["HM"], 7, (2,), (0.0, 0.5))
        assert generations == [("HM", 2, 0.0), ("HM", 2, 0.5)]
