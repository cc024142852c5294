"""End-to-end benchmark of the figure pipeline, with a per-layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig8-cold --seed 7 --seconds 20 --trace 0

One client issues one campaign at a time (a closed loop).  Each pass runs
in its own process (``child.py``) against the ``repro`` package in
``src/``, with every ``REPRO_*`` knob cleared and a fresh temporary
``REPRO_CACHE_DIR`` under ``.perfbench/``.  Passes repeat until
``--seconds`` have elapsed, two at least; the figures reported are
medians over passes.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  Their times are in reference seconds: host seconds
scaled by the host's speed at the pass (``calibrate.py``), so that a
host that drifts between runs does not move them.  ``--trace 1`` runs
the workload untraced and then traced, records a span at each layer
boundary, prints the wall-clock ledger (whose buckets sum exactly to the
traced wall time, in host seconds) and reports the per-layer metrics.  Every pass's cells are checked against the
digests pinned in ``pins.json``; any mismatch or exception, or a traced
ledger that leaves more than ``RESIDUAL_MAX_SHARE`` of the wall time
unattributed, makes the result incorrect and the exit code 1.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

#: Every run must end within this many seconds of its start.
RUN_BUDGET_S = 170.0
#: Digests the correctness gate compares against (re-pinned by pin.py).
PINS = HERE / "pins.json"
#: Largest share of a traced wall time the ledger may leave to
#: ``residual``.  Full-size passes leave under 1% there and tiny ones
#: 3%; an entry point that stops being caught moves its whole layer into
#: ``residual`` and fails the run instead of passing for a speed-up.
RESIDUAL_MAX_SHARE = 0.05
#: Passes per run at least, even when one pass outlasts ``--seconds``: the
#: host's speed drifts on a scale of tens of seconds, and a median of two
#: passes halves the spread of a run made of one long pass.
MIN_PASSES = 2


class BenchError(Exception):
    """A child process failed or the run cannot proceed."""


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_rev(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def workload_seed(pins: dict, seed: int) -> int:
    """The workload seed for benchmark seed *seed*: itself when digests
    are pinned for it, else one of the pinned rotation seeds."""
    if str(seed) in pins["seeds"]:
        return seed
    rotation = pins["rotation"]
    return rotation[seed % len(rotation)]


class Session:
    """The child processes of one benchmark run, within its time budget."""

    def __init__(self, root: Path, workload: str, size: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.size = size
        self.seed = seed
        self.started = time.monotonic()
        work = root / ".perfbench"
        work.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
        self.spans_path = work / f"spans-{workload}.json"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(root / "src")
        # one string-hash layout for every pass: less process-to-process noise
        self.env["PYTHONHASHSEED"] = "0"

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def start(self, phase: str, cache_dir: Path, jobs: int = 1, trace: int = 0,
              spans: Optional[Path] = None, part: str = "0/1",
              launched: Optional[float] = None) -> tuple:
        """Start one child process; :meth:`finish` waits for its result."""
        out = cache_dir / f"{phase}-{part.replace('/', 'of')}.json"
        launched = time.monotonic() if launched is None else launched
        argv = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--size", self.size,
            "--seed", str(self.seed), "--phase", phase, "--jobs", str(jobs),
            "--trace", str(trace), "--launched", repr(launched), "--out", str(out),
            "--part", part,
        ]
        if spans is not None:
            argv += ["--spans", str(spans)]
        env = dict(self.env, REPRO_CACHE_DIR=str(cache_dir))
        proc = subprocess.Popen(
            argv, cwd=self.root, env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        return phase, proc, out

    def finish(self, handle: tuple) -> dict:
        phase, proc, out = handle
        try:
            _, stderr = proc.communicate(
                timeout=max(1.0, RUN_BUDGET_S - self.elapsed())
            )
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            raise BenchError(f"{phase} of {self.workload} overran the run budget")
        finally:
            _kill_group(proc.pid)
        if proc.returncode != 0 or not out.exists():
            raise BenchError(
                f"{phase} of {self.workload} exited {proc.returncode}:\n"
                + stderr[-4000:]
            )
        with open(out) as handle:
            return json.load(handle)

    def spawn(self, phase: str, cache_dir: Path, **options) -> dict:
        return self.finish(self.start(phase, cache_dir, **options))

    def one_pass(self, jobs: int, trace: int = 0) -> Tuple[float, dict, List[dict]]:
        """Set up and run one pass in a fresh cache directory; returns
        ``(set-up seconds, pass result, traced set-up results)``.

        A workload's set-up runs in ``nproc`` processes at once, each
        generating its share of the traces."""
        cache_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.tmp))
        try:
            setup_s, setups = 0.0, []
            if workloads.has_setup(self.workload):
                parts = workloads.nproc()
                launched = time.monotonic()
                handles = [
                    self.start("setup", cache_dir, trace=trace,
                               part=f"{part}/{parts}", launched=launched)
                    for part in range(parts)
                ]
                try:
                    setups = [self.finish(handle) for handle in handles]
                finally:
                    for _, proc, _ in handles:
                        _kill_group(proc.pid)
                        proc.wait()
                setup_s += max(setup["setup_s"] for setup in setups)
            result = self.spawn(
                "pass", cache_dir, jobs=jobs, trace=trace,
                spans=self.spans_path if trace else None,
            )
            setup_s += result["setup_s"]
            return setup_s, result, setups if trace else []
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


def _kill_group(pgid: int) -> None:
    """Stop whatever the child left behind (pool workers included)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Gate:
    """Compares every pass's cells and figure output to the pins."""

    def __init__(self, pinned: Optional[dict]) -> None:
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, result: dict) -> None:
        cells = result.get("cells", {})
        expected = (self.pinned or {}).get("cells", {})
        names = sorted(set(cells) | set(expected))
        self.attempted += len(names) + 1
        if self.pinned is None:
            self.failed += len(names) + 1
            self.messages.append("no digests pinned for this seed and size")
            return
        for name in names:
            if cells.get(name) != expected.get(name):
                self.failed += 1
                self.messages.append(
                    f"cell {name}: got {cells.get(name)}, pinned {expected.get(name)}"
                )
        if result.get("figure") != self.pinned.get("figure"):
            self.failed += 1
            self.messages.append(
                f"figure output: got {result.get('figure')}, "
                f"pinned {self.pinned.get('figure')}"
            )
        if result.get("error"):
            self.messages.append(result["error"])

    def fail_all(self, cells: int, message: str) -> None:
        self.attempted += cells + 1
        self.failed += cells + 1
        self.messages.append(message)


def reference_s(host_s: float, result: dict) -> float:
    """*host_s* host seconds around pass *result*, in reference seconds."""
    return host_s * calibrate.REFERENCE_UNIT_S / result["unit_s"]


def timed_run(session: Session, gate: Gate, seconds: int) -> Dict[str, dict]:
    jobs = workloads.jobs_for(session.workload)
    walls: List[float] = []
    setups: List[float] = []
    rss: List[float] = []
    host_walls: List[float] = []
    units: List[float] = []
    while True:
        begun = session.elapsed()
        setup_s, result, _ = session.one_pass(jobs)
        gate.check(result)
        walls.append(reference_s(result["wall_s"], result))
        setups.append(reference_s(setup_s, result))
        rss.append(result["peak_rss_mb"])
        host_walls.append(result["wall_s"])
        units.append(result["unit_s"])
        if len(walls) == 1:
            _print_first(session, result)
        last = session.elapsed() - begun
        if session.elapsed() + last > RUN_BUDGET_S - 20:
            break
        if len(walls) >= MIN_PASSES and session.elapsed() >= seconds:
            break
    print(f"passes: {len(walls)} at {jobs} job(s); host wall seconds "
          + " ".join(f"{w:.3f}" for w in host_walls))
    print(f"reference unit: {calibrate.REFERENCE_UNIT_S * 1e3:.2f} ms; at the passes "
          + " ".join(f"{u * 1e3:.2f}" for u in units) + " ms")
    print("wall_s samples: " + " ".join(f"{w:.3f}" for w in walls))
    print("setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def traced_run(session: Session, gate: Gate) -> Dict[str, dict]:
    jobs = workloads.jobs_for(session.workload)
    _, untraced, _ = session.one_pass(jobs)
    gate.check(untraced)
    _print_first(session, untraced)
    baseline = untraced
    if jobs != 1:
        _, baseline, _ = session.one_pass(1)
        gate.check(baseline)
    _, traced, setups = session.one_pass(1, trace=1)
    gate.check(traced)
    overhead = reference_s(traced["wall_s"], traced) / reference_s(
        baseline["wall_s"], baseline) - 1.0
    _print_ledger(traced["trace"], baseline["wall_s"], overhead)
    for what, trace in [("pass", traced["trace"])] + [
        ("set-up", setup["trace"]) for setup in setups
    ]:
        for problem in ledger_problems(trace):
            gate.fail_all(0, f"traced {what}: {problem}")
    return _per_layer(untraced, overhead, traced, setups)


def ledger_problems(trace: dict) -> List[str]:
    """What is wrong with the ledger of one traced process, if anything."""
    ledger_ns, wall_ns = trace["ledger_ns"], trace["wall_ns"]
    problems = []
    if sum(ledger_ns.values()) != wall_ns:
        problems.append("ledger does not sum to the wall time")
    if trace["negative_self"]:
        problems.append(f"negative self time in {trace['negative_self']}")
    if ledger_ns["residual"] > RESIDUAL_MAX_SHARE * wall_ns:
        problems.append(
            f"residual is {ledger_ns['residual'] / wall_ns:.1%} of the wall time "
            f"(at most {RESIDUAL_MAX_SHARE:.0%}): a layer entry point is not traced"
        )
    return problems


def _seconds(ns: int) -> float:
    return ns / 1e9


def _rate(count: int, ns: int) -> float:
    return count / _seconds(ns) if ns else 0.0


def _per_layer(untraced: dict, overhead: float, traced: dict,
               setups: List[dict]) -> Dict[str, dict]:
    trace = traced["trace"]
    ledger_ns = trace["ledger_ns"]
    inc = trace["inclusive"]
    # design-sweep generates its traces in the set-up processes, not in the pass
    gen_traces = [setup["trace"] for setup in setups] or [trace]
    gen_ns = {name: sum(t["ledger_ns"][name] for t in gen_traces) for name in ledger_ns}
    tracegen_ns = sum(ns for name, ns in gen_ns.items() if name.startswith("tracegen."))
    generated = [
        t["inclusive"][name] for t in gen_traces
        for name in ("tracegen.generate", "tracegen.concurrent")
    ]
    cache = traced["cache"]
    system = traced["system"]
    sched = untraced["sched"]
    sim_calls = inc["sim.spec"][0] + inc["sim.nonspec"][0]
    values = {
        "tracegen.s": _seconds(tracegen_ns),
        "tracegen.workbench_s": _seconds(gen_ns["tracegen.workbench"]),
        "tracegen.build_s": _seconds(gen_ns["tracegen.build"]),
        "tracegen.populate_s": _seconds(gen_ns["tracegen.populate"]),
        "tracegen.timed_s": _seconds(gen_ns["tracegen.timed"]),
        "tracegen.concurrent_s": _seconds(gen_ns["tracegen.concurrent"]),
        "tracegen.traces": sum(calls for calls, _, _ in generated),
        "tracegen.instr_per_s": _rate(sum(n for _, _, n in generated), tracegen_ns),
        "isa.columns_s": _seconds(ledger_ns["isa.columns"]),
        "isa.segments_s": _seconds(ledger_ns["isa.segments"]),
        "cache.trace_store_s": _seconds(ledger_ns["cache.trace_store"]),
        "cache.trace_load_s": _seconds(ledger_ns["cache.trace_load"]),
        "cache.stats_store_s": _seconds(ledger_ns["cache.stats_store"]),
        "cache.stats_load_s": _seconds(ledger_ns["cache.stats_load"]),
        "cache.trace_hits": cache["trace_hits"],
        "cache.trace_misses": cache["trace_misses"],
        "cache.stats_hits": cache["stats_hits"],
        "cache.stats_misses": cache["stats_misses"],
        "cache.corrupt_dropped": cache["corrupt_dropped"],
        "sim.spec_s": _seconds(ledger_ns["sim.spec"]),
        "sim.spec_ips": _rate(inc["sim.spec"][2], inc["sim.spec"][1]),
        "sim.nonspec_s": _seconds(ledger_ns["sim.nonspec"]),
        "sim.nonspec_ips": _rate(inc["sim.nonspec"][2], inc["sim.nonspec"][1]),
        "sim.cells": sim_calls,
        "kernel.classify_s": _seconds(ledger_ns["kernel.classify"]),
        "kernel.solve_s": _seconds(ledger_ns["kernel.solve"]),
        "system.run_s": _seconds(ledger_ns["system.run"]),
        "system.ips": _rate(inc["system.run"][2], inc["system.run"][1]),
        "system.conflict_aborts": system["conflict_aborts"],
        "system.replay_share": (
            system["replayed_instructions"] / inc["system.run"][2]
            if inc["system.run"][2] else 0.0
        ),
        "sched.busy_s": sched["busy_s"],
        "sched.efficiency": sched["efficiency"],
        "sched.retries": sched["retries"],
        "sched.timeouts": sched["timeouts"],
        "sched.pool_rebuilds": sched["pool_rebuilds"],
        "sched.serial_degradations": sched["serial_degradations"],
        "ledger.residual_s": _seconds(ledger_ns["residual"]),
        "trace_overhead": overhead,
    }
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in spec["per_layer"]}


def _print_first(session: Session, result: dict) -> None:
    stamp = result["stamp"]
    print(f"workload {session.workload} ({session.size}), workload seed "
          f"{session.seed}; git {_git_rev(session.root)}; python {stamp['python']}, "
          f"numpy {stamp['numpy']}, nproc {workloads.nproc()}, kernel "
          f"{stamp['kernel_backend']}, classify {stamp['classify_mode']}")
    for line in result.get("summary", []):
        print(line)


def _print_ledger(trace: dict, untraced_wall: float, overhead: float) -> None:
    wall_ns = trace["wall_ns"]
    print(f"ledger of the traced pass ({_seconds(wall_ns):.3f} host s; untraced "
          f"{untraced_wall:.3f} host s, overhead at equal host speed {overhead:+.1%}):")
    for name, ns in trace["ledger_ns"].items():
        if ns:
            print(f"  {name:<20} {_seconds(ns):9.3f} s  {ns / wall_ns:6.1%}")
    total = sum(trace["ledger_ns"].values())
    print(f"  {'sum':<20} {_seconds(total):9.3f} s  (wall {_seconds(wall_ns):.3f} s, "
          f"{'exact' if total == wall_ns else 'MISMATCH'})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repro package under {root / 'src'}; run from a checkout's root")
    try:
        with open(PINS) as handle:
            pins = json.load(handle)[args.size]
    except (OSError, ValueError, KeyError) as exc:
        _fail(f"cannot read pinned digests from {PINS}: {exc!r}")

    seed = workload_seed(pins, args.seed)
    pinned = pins["seeds"].get(str(seed), {}).get(args.workload)
    gate = Gate(pinned)
    session = Session(root, args.workload, args.size, seed)
    try:
        if args.trace:
            metrics = traced_run(session, gate)
        else:
            metrics = timed_run(session, gate, args.seconds)
    except BenchError as exc:
        cells = len((pinned or {}).get("cells", {}))
        gate.fail_all(cells, str(exc))
        metrics = {}
    finally:
        session.close()

    correct = gate.failed == 0 and bool(metrics)
    for message in gate.messages[:20]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"error_rate: {gate.failed}/{gate.attempted} = "
          f"{gate.failed / max(gate.attempted, 1):.4f}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
