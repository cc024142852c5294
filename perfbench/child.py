"""One process of the benchmark: a set-up or a timed pass.

``run.py`` starts this script with a cleaned environment and a fresh
``REPRO_CACHE_DIR``; it writes one JSON object to ``--out``.  Running each
pass in its own process makes the cold imports and the peak resident set
belong to that pass.

Phases:

* ``setup`` — the workload's untimed set-up (design-sweep: generate its
  traces into the cache directory);
* ``pass`` — one timed figure-level call between two timings of the
  reference unit (``calibrate.py``), then the correctness digests of
  every cell, read back untimed.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import platform
import resource
import sys
import time
import traceback


def _reap_children(deadline_s: float = 10.0) -> None:
    """Wait until the pass's pool workers have been reaped, so that
    ``RUSAGE_CHILDREN`` covers them."""
    stop = time.monotonic() + deadline_s
    while multiprocessing.active_children() and time.monotonic() < stop:
        time.sleep(0.01)


def _peak_rss_mb(pool_workers: int) -> float:
    """Peak resident set of this process plus, when a pool ran, each of
    its workers at the largest worker's peak (an upper bound on the
    pass's summed resident set)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * worker) / 1024.0


def _counters(jobs: int, wall_s: float) -> dict:
    """Scheduler and multi-core counters of the pass, from the public
    metrics snapshot."""
    from repro.obs.metrics import metrics_snapshot

    snapshot = metrics_snapshot()
    pool = [v for v in snapshot["variants"] if v["worker"] != "main"]
    busy = sum(v["wall_s"] for v in pool)
    supervisor = snapshot["supervisor"]
    return {
        "sched": {
            "workers": len({v["worker"] for v in pool}),
            "busy_s": busy,
            "efficiency": busy / (jobs * wall_s) if pool else 0.0,
            "retries": supervisor["retries"],
            "timeouts": supervisor["timeouts"],
            "pool_rebuilds": supervisor["pool_rebuilds"],
            "serial_degradations": supervisor["serial_degradations"],
        },
        "system": snapshot["system"],
        "cache": snapshot["cache_session"],
    }


def _stamp() -> dict:
    from repro.uarch.classify import resolve_mode
    from repro.uarch.kernel import resolve_backend

    try:
        import numpy
    except ImportError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else "absent",
        "kernel_backend": resolve_backend(None),
        "classify_mode": resolve_mode(None),
    }


def _traced(spans) -> dict:
    import ledger

    return {
        "wall_ns": spans[0][2] - spans[0][1],
        "ledger_ns": ledger.ledger(spans),
        "negative_self": [
            span[0] for span, own in zip(spans, ledger.self_times(spans)) if own < 0
        ],
        "inclusive": {
            name: ledger.inclusive(spans, name)
            for name in ("tracegen.generate", "tracegen.concurrent",
                         "sim.spec", "sim.nonspec", "system.run")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "pass"), required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="write the traced pass's spans here")
    parser.add_argument("--part", default="0/1",
                        help="set-up only: this process's share, as i/n")
    args = parser.parse_args(argv)

    import calibrate
    if args.phase == "pass":
        # the host's speed before the pass, timed before the imports so
        # that they reuse the unit's memory and the pass's peak excludes it
        calibrating = time.monotonic()
        unit_before = calibrate.unit_seconds(args.jobs)
        calibrated_s = time.monotonic() - calibrating
        # the unit's garbage would otherwise move the collector's full
        # collections into the pass
        gc.collect()
    import ledger
    import workloads
    # everything a pass imports, the harness's lazy imports included, so
    # that imports count in set-up and not in the timed pass
    from repro.harness import figures, parallel, sweeps  # noqa: F401
    from repro.uarch import system  # noqa: F401
    from repro.workloads import concurrent  # noqa: F401

    recorder = ledger.Recorder() if args.trace else None
    out: dict = {"stamp": _stamp()}

    if args.phase == "setup":
        restore = ledger.install(recorder) if recorder else None
        root = recorder.open("setup") if recorder else None
        try:
            part, parts = (int(x) for x in args.part.split("/"))
            workloads.setup(args.workload, args.size, args.seed, part, parts)
        finally:
            if recorder:
                recorder.close(root)
                restore()
        out["setup_s"] = time.monotonic() - args.launched
        if recorder:
            out["trace"] = _traced(recorder.spans)
        _write(args.out, out)
        return 0

    parallel.set_default_jobs(args.jobs)
    out["setup_s"] = time.monotonic() - args.launched - calibrated_s
    restore = ledger.install(recorder) if recorder else None

    error = None
    result = None
    root = recorder.open("pass") if recorder else None
    started = time.perf_counter_ns()
    try:
        result = workloads.run(args.workload, args.size, args.seed)
    except Exception:
        error = traceback.format_exc()
    finally:
        wall_ns = time.perf_counter_ns() - started
        if recorder:
            recorder.close(root)
            restore()
    wall_s = wall_ns / 1e9
    _reap_children()
    out.update(_counters(args.jobs, wall_s))
    pool_workers = args.jobs if out["sched"]["workers"] else 0
    out.update(wall_s=wall_s, peak_rss_mb=_peak_rss_mb(pool_workers), error=error)
    # the host's speed at both ends of the pass (geometric mean)
    out["unit_s"] = (unit_before * calibrate.unit_seconds(args.jobs)) ** 0.5

    cell_digests, cell_stats = {}, {}
    for cell, thunk in workloads.cells(args.workload, args.size, args.seed):
        if error is not None:
            cell_digests[cell] = "pass failed"
            continue
        try:
            stats = thunk()
        except Exception as exc:
            cell_digests[cell] = f"raised {exc!r}"
            continue
        cell_stats[cell] = stats
        cell_digests[cell] = workloads.stats_digest(stats)
    out["cells"] = cell_digests
    out["figure"] = None if result is None else workloads.figure_digest(result)
    if error is None:
        try:
            out["summary"] = workloads.summary(args.workload, result, cell_stats)
        except Exception:
            out["summary"] = ["summary failed: " + traceback.format_exc()]
    if recorder:
        out["trace"] = _traced(recorder.spans)
        if args.spans:
            with open(args.spans, "w") as handle:
                json.dump(recorder.spans, handle)
    _write(args.out, out)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main())
