"""The benchmark's workloads: what a pass runs, its set-up, and the cells
whose results the correctness gate checks.

Each workload is one figure-level call into ``repro.harness`` made by a
single client, one campaign at a time (a closed loop).  ``full`` is the
measured size; ``tiny`` is the smoke-test size of the benchmark's own
tests.  Cell lists mirror the cross products the figure functions
build, so that reading a cell after the pass is an in-process memo hit.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Callable, Dict, List, Tuple

#: Paper numbers the fig8-cold headline is printed beside (abstract).
PAPER_FENCE_OVERHEAD = 0.203
PAPER_SP_OVERHEAD = 0.036

CAVEAT = (
    "simulated, scaled model, unvalidated against hardware: the difference "
    "from the paper is for information only; modelled caches start empty "
    "at the timed region"
)

ALL_BENCHMARKS = ("GH", "HM", "LL", "SS", "AT", "BT", "RT")

SIZES: Dict[str, Dict[str, dict]] = {
    "fig8-cold": {
        "full": {"benchmarks": ALL_BENCHMARKS},
        "tiny": {"benchmarks": ("GH",)},
    },
    "design-sweep": {
        "full": {"benchmarks": ALL_BENCHMARKS, "write_ns": (150, 300, 600, 1200)},
        "tiny": {"benchmarks": ("GH",), "write_ns": (150, 600)},
    },
    "fig15-contended": {
        "full": {"benchmarks": ("HM", "BT"), "cores": (2, 4),
                 "contentions": (0.0, 0.5, 0.9)},
        "tiny": {"benchmarks": ("HM",), "cores": (2,), "contentions": (0.5,)},
    },
}

WORKLOADS = tuple(SIZES)


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def jobs_for(workload: str) -> int:
    """Worker count of a timed pass: only the sweep goes through the pool."""
    return nproc() if workload == "design-sweep" else 1


def has_setup(workload: str) -> bool:
    """Whether the workload's set-up does work beyond imports."""
    return workload == "design-sweep"


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def stats_digest(stats) -> str:
    """Canonical digest of one cell's ``RunStats`` (every counter)."""
    from repro.harness.cache import stats_record

    return _digest(stats_record(stats))


def figure_digest(result) -> str:
    """Canonical digest of a figure's output mapping (floats by repr)."""
    return _digest(result)


# ----------------------------------------------------------------------
# set-up, pass and cells per workload
# ----------------------------------------------------------------------
def _sweep_config(write_ns: int):
    from repro.uarch.config import MachineConfig

    # the formula of repro.harness.sweeps.nvmm_latency_sweep
    return replace(MachineConfig(), nvmm_write_cycles=int(315 * (write_ns / 150.0)))


def setup(workload: str, size: str, seed: int, part: int = 0, parts: int = 1) -> None:
    """Untimed set-up: design-sweep generates its 14 traces into the
    pass's fresh cache, as ``fig8-cold`` would have written them.  Set-up
    process *part* of *parts* takes every *parts*-th trace."""
    if not has_setup(workload):
        return
    from repro.harness import cache, runner
    from repro.txn.modes import PersistMode

    keys = [
        runner.TraceKey(abbrev, mode, seed)
        for abbrev in SIZES[workload][size]["benchmarks"]
        for mode in (PersistMode.LOG_P, PersistMode.LOG_P_SF)
    ]
    for key in keys[part::parts]:
        cache.store_trace(key, runner.generate_trace(key))


def run(workload: str, size: str, seed: int):
    """The timed pass: one figure-level call; returns its output."""
    from repro.harness import figures, sweeps

    params = SIZES[workload][size]
    if workload == "fig8-cold":
        return figures.fig8_overheads(params["benchmarks"], seed=seed)
    if workload == "design-sweep":
        return sweeps.nvmm_latency_sweep(
            params["benchmarks"], params["write_ns"], seed=seed
        )
    return figures.fig15_concurrent_speedup(
        params["benchmarks"], seed, params["cores"], params["contentions"]
    )


def cells(workload: str, size: str, seed: int) -> List[Tuple[str, Callable]]:
    """``(cell id, thunk returning its RunStats)`` for every cell."""
    from repro.harness import runner
    from repro.txn.modes import PersistMode
    from repro.uarch.config import MachineConfig

    params = SIZES[workload][size]
    base = MachineConfig()
    sp = base.with_sp(256)
    out: List[Tuple[str, Callable]] = []

    def variant(cell: str, abbrev, mode, config) -> None:
        out.append((cell, lambda: runner.run_variant(abbrev, mode, config, seed)))

    if workload == "fig8-cold":
        series = (
            ("BASE", PersistMode.BASE, base),
            ("Log", PersistMode.LOG, base),
            ("Log+P", PersistMode.LOG_P, base),
            ("Log+P+Sf", PersistMode.LOG_P_SF, base),
            ("SP256", PersistMode.LOG_P_SF, sp),
        )
        for abbrev in params["benchmarks"]:
            for label, mode, config in series:
                variant(f"{abbrev}/{label}", abbrev, mode, config)
    elif workload == "design-sweep":
        for write_ns in params["write_ns"]:
            config = _sweep_config(write_ns)
            for abbrev in params["benchmarks"]:
                variant(f"w{write_ns}/{abbrev}/Log+P", abbrev, PersistMode.LOG_P, config)
                variant(f"w{write_ns}/{abbrev}/Log+P+Sf", abbrev,
                        PersistMode.LOG_P_SF, config)
                variant(f"w{write_ns}/{abbrev}/SP256", abbrev,
                        PersistMode.LOG_P_SF, config.with_sp(256))
    else:
        for abbrev in params["benchmarks"]:
            for cores in params["cores"]:
                for contention in params["contentions"]:
                    for label, config in (("Log+P+Sf", base), ("SP256", sp)):
                        out.append((
                            f"{abbrev}x{cores}/p{contention:g}/{label}",
                            lambda a=abbrev, c=config, n=cores, p=contention:
                                runner.run_system(a, PersistMode.LOG_P_SF, c, seed,
                                                  cores=n, contention=p),
                        ))
    return out


def summary(workload: str, result, cell_stats: Dict[str, object]) -> List[str]:
    """Simulated results to print beside the metrics (not metrics: any
    change to them is a correctness failure)."""
    if workload == "fig8-cold":
        from repro.harness.runner import geomean_overhead

        geo = "  ".join(f"{series} {row['GEO']:+.1%}" for series, row in result.items())
        benchmarks = sorted({cell.split("/")[0] for cell in cell_stats})

        def over_logp(label: str) -> float:
            return geomean_overhead(
                cell_stats[f"{ab}/{label}"].cycles / cell_stats[f"{ab}/Log+P"].cycles
                for ab in benchmarks
            )

        return [
            f"figure 8 GEO overhead over BASE: {geo}",
            f"headline over Log+P: fences {over_logp('Log+P+Sf'):+.1%} "
            f"(paper {PAPER_FENCE_OVERHEAD:.1%}), SP256 {over_logp('SP256'):+.1%} "
            f"(paper {PAPER_SP_OVERHEAD:.1%})",
            f"  ({CAVEAT})",
        ]
    if workload == "design-sweep":
        return [
            f"NVMM write {ns} ns: fence {row['fence']:+.1%}, SP {row['sp']:+.1%}, "
            f"recovered {row['recovered']:.0%}"
            for ns, row in result.items()
        ] + [f"  ({CAVEAT})"]
    return [
        f"figure 15 speedup {row_name}: "
        + "  ".join(f"{col} {value:.3f}" for col, value in row.items())
        for row_name, row in result.items()
    ] + [f"  ({CAVEAT})"]
