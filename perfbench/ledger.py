"""Layer spans recorded from outside the ``repro`` package, and the
wall-clock ledger built from them.

:func:`install` wraps the public entry point of every layer, patching
each name where its caller looks it up (``simulate`` is bound by
``from ... import`` in ``runner``, ``parallel`` and ``supervisor``).  It
never touches a ``PipelineModel`` method in
``pipeline._INLINED_METHODS`` nor ``CacheHierarchy.access``/``.flush`` or
``CacheLevel.lookup``: patching any of those makes
``pipeline._deoptimized()`` send every cell down the exact per-op loop,
and the traced run would then time a different program.

A span is ``[name, start_ns, end_ns, parent, cell, kernel_ns, instrs]``.
Spans stay in memory; the caller writes them out when the pass ends.  A
span's self time is its duration minus its children's durations (spans
nest strictly: one thread, call-stack order) minus the kernel phases
measured inside it, which become buckets of their own.  The self times
of all spans therefore sum, in integer nanoseconds, exactly to the root
span, which is the timed pass.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Ledger buckets of the layers, in print order.  Self time of spans
#: that belong to no layer (the pass itself, the per-cell harness calls
#: and the scheduler's serial loop) is ``residual``.
BUCKETS = (
    "tracegen.generate",
    "tracegen.workbench",
    "tracegen.build",
    "tracegen.populate",
    "tracegen.timed",
    "tracegen.concurrent",
    "isa.columns",
    "isa.segments",
    "cache.trace_store",
    "cache.trace_load",
    "cache.stats_store",
    "cache.stats_load",
    "sim.spec",
    "sim.nonspec",
    "kernel.classify",
    "kernel.solve",
    "system.run",
    "residual",
)

_NAME, _START, _END, _PARENT, _CELL, _KERNEL, _INSTRS = range(7)


class Recorder:
    """Collects spans for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._phase_seconds: Optional[Callable[[], Dict[str, float]]] = None

    def open(self, name: str, cell: Optional[str] = None) -> list:
        parent = self._stack[-1] if self._stack else -1
        if cell is None and parent >= 0:
            cell = self.spans[parent][_CELL]
        span = [name, 0, 0, parent, cell, None, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = time.perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[_END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(
        self,
        func: Callable,
        name: Callable[..., str],
        cell: Optional[Callable[..., str]] = None,
        instrs: Optional[Callable[[object], int]] = None,
        kernel: bool = False,
    ) -> Callable:
        """*func* recording one span per call.

        *name* and *cell* map the call's arguments to the span name and
        cell id; *instrs* maps the result to an instruction count;
        *kernel* subtracts the kernel phase time measured during the call.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.open(
                name(*args, **kwargs), cell(*args, **kwargs) if cell else None
            )
            before = self._phase_seconds() if kernel else None
            try:
                result = func(*args, **kwargs)
            finally:
                if before is not None:
                    after = self._phase_seconds()
                    span[_KERNEL] = {
                        phase: round((after[phase] - before[phase]) * 1e9)
                        for phase in ("classify", "solve")
                    }
                self.close(span)
            if instrs is not None:
                span[_INSTRS] = instrs(result)
            return result

        return traced


def _const(value: str) -> Callable[..., str]:
    return lambda *args, **kwargs: value


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _config_tag(config) -> str:
    """The fields of *config* that differ from ``MachineConfig()``."""
    from dataclasses import fields

    from repro.uarch.config import MachineConfig

    default = MachineConfig()
    tags = [
        f"{f.name}={getattr(config, f.name)!r}"
        for f in fields(config)
        if getattr(config, f.name) != getattr(default, f.name)
    ]
    return ",".join(tags) or "default"


def _variant_cell(abbrev, mode, config=None, *args, **kwargs) -> str:
    from repro.uarch.config import MachineConfig

    return f"{abbrev}/{mode.value}/{_config_tag(config or MachineConfig())}"


def _system_cell(abbrev, mode, config=None, seed=7, cores=2, contention=0.0,
                 *args, **kwargs) -> str:
    from repro.uarch.config import MachineConfig

    tag = _config_tag(config or MachineConfig())
    return f"{abbrev}x{cores}/p{contention:g}/{mode.value}/{tag}"


def _sim_name(*args, **kwargs) -> str:
    from repro.uarch.config import MachineConfig

    config = _arg(args, kwargs, 1, "config") or MachineConfig()
    return "sim.spec" if config.sp_enabled else "sim.nonspec"


def _system_instrs(result) -> int:
    return sum(stats.instructions for stats in result.per_core)


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every layer entry point to record into *recorder*; returns
    the function that restores the originals."""
    from repro.uarch import kernel

    recorder._phase_seconds = kernel.phase_seconds
    wrap = recorder.wrap
    saved: List[Tuple[object, str, object]] = []

    def patch(owners, attr: str, wrapper_for: Callable[[Callable], Callable]) -> None:
        original = getattr(owners[0], attr)
        wrapped = wrapper_for(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the shared entry point")
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    try:
        _patch_layers(patch, wrap)
    except BaseException:
        restore()
        raise
    return restore


def _patch_layers(patch, wrap) -> None:
    from repro.harness import cache, figures, parallel, runner, supervisor, sweeps
    from repro.isa.trace import Trace
    from repro.uarch import pipeline
    from repro.uarch.system import SystemModel
    from repro.workloads import concurrent
    from repro.workloads.base import PersistentWorkload, Workbench
    from repro.workloads.registry import BenchmarkSpec

    # trace generation
    patch([runner], "generate_trace",
          lambda f: wrap(f, _const("tracegen.generate"), instrs=len))
    patch([Workbench], "__init__", lambda f: wrap(f, _const("tracegen.workbench")))
    patch([BenchmarkSpec], "build", lambda f: wrap(f, _const("tracegen.build")))
    patch([PersistentWorkload], "populate", lambda f: wrap(f, _const("tracegen.populate")))
    patch([PersistentWorkload], "run", lambda f: wrap(f, _const("tracegen.timed")))
    patch([concurrent], "generate_concurrent",
          lambda f: wrap(f, _const("tracegen.concurrent"),
                         instrs=lambda run: sum(len(t) for t in run.traces)))
    # columnar trace form
    patch([Trace], "columns", lambda f: wrap(f, _const("isa.columns")))
    patch([Trace], "segments", lambda f: wrap(f, _const("isa.segments")))
    # serialization and cache I/O
    for attr, name in (
        ("store_trace", "cache.trace_store"),
        ("load_cached_trace", "cache.trace_load"),
        ("store_stats", "cache.stats_store"),
        ("load_cached_stats", "cache.stats_load"),
    ):
        patch([cache], attr, lambda f, name=name: wrap(f, _const(name)))
    # single-core timing, split by config.sp_enabled
    patch([pipeline, runner, parallel, supervisor], "simulate",
          lambda f: wrap(f, _sim_name, instrs=lambda stats: stats.instructions,
                         kernel=True))
    # multi-core driver
    patch([SystemModel], "run",
          lambda f: wrap(f, _const("system.run"), instrs=_system_instrs, kernel=True))
    # harness and scheduler: no layer of their own, they carry the cell id
    patch([runner, figures, sweeps], "run_variant",
          lambda f: wrap(f, _const("harness.cell"), cell=_variant_cell))
    patch([runner, figures], "run_system",
          lambda f: wrap(f, _const("harness.cell"), cell=_system_cell))
    patch([parallel, figures, sweeps], "prefetch_variants",
          lambda f: wrap(f, _const("harness.schedule")))


def self_times(spans: List[list]) -> List[int]:
    """Each span's self nanoseconds: its duration minus its children's
    durations and the kernel phases measured inside it."""
    if not spans or spans[0][_PARENT] != -1:
        raise ValueError("span 0 must be the root")
    own = [span[_END] - span[_START] - sum((span[_KERNEL] or {}).values())
           for span in spans]
    for span in spans[1:]:
        if span[_PARENT] < 0:
            raise ValueError(f"span {span[_NAME]!r} lies outside the root")
        own[span[_PARENT]] -= span[_END] - span[_START]
    return own


def ledger(spans: List[list]) -> Dict[str, int]:
    """Self nanoseconds per bucket of spans under root span 0.

    ``sum(result.values())`` equals the root span's duration exactly."""
    buckets = dict.fromkeys(BUCKETS, 0)
    for span, own in zip(spans, self_times(spans)):
        for phase, ns in (span[_KERNEL] or {}).items():
            buckets[f"kernel.{phase}"] += ns
        name = span[_NAME]
        buckets[name if name in buckets else "residual"] += own
    return buckets


def inclusive(spans: List[list], name: str) -> Tuple[int, int, int]:
    """``(calls, inclusive ns, instructions)`` of the spans called *name*."""
    calls = total = instrs = 0
    for span in spans:
        if span[_NAME] == name:
            calls += 1
            total += span[_END] - span[_START]
            instrs += span[_INSTRS]
    return calls, total, instrs
