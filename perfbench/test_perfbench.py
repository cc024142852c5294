"""The benchmark's own tests (tiny sizes; about a minute).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, bench: Path = HERE) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _copy_bench(dest: Path) -> Path:
    """A copy of the benchmark's directory, for runs against altered files."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "perfbench"


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--size", "tiny", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_ledger_accounts_for_the_wall_time(workload):
    session = run.Session(ROOT, workload, "tiny", 7)
    try:
        _, result, setups = session.one_pass(1, trace=1)
    finally:
        session.close()
    trace = result["trace"]
    assert abs(trace["wall_ns"] / 1e9 - result["wall_s"]) < 0.05 * result["wall_s"]
    assert len(setups) == (workloads.nproc() if workloads.has_setup(workload) else 0)
    # sums exactly, no negative self time, and the layers, not the residual,
    # hold the time
    for traced in [trace] + [setup["trace"] for setup in setups]:
        assert run.ledger_problems(traced) == []


def test_an_untraced_entry_point_fails_the_ledger():
    trace = {
        "wall_ns": 100,
        "ledger_ns": dict.fromkeys(ledger.BUCKETS, 0) | {"sim.spec": 40, "residual": 60},
        "negative_self": [],
    }
    assert run.ledger_problems(trace)
    trace["ledger_ns"] |= {"sim.spec": 99, "residual": 1}
    assert run.ledger_problems(trace) == []


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "fig15-contended", "--size", "tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["system.run_s"]["value"] > 0


def test_times_are_scaled_to_the_reference_speed():
    # the unit is fixed: changing it would rescale every reported time
    assert calibrate.unit() == 530627
    assert calibrate.unit_seconds(2) > 0
    # a host at half the reference speed takes twice the host seconds
    assert run.reference_s(3.0, {"unit_s": 2 * calibrate.REFERENCE_UNIT_S}) == pytest.approx(1.5)


def test_ledger_self_times_subtract_children_and_kernel():
    spans = [
        ["pass", 0, 100, -1, None, None, 0],
        ["sim.spec", 10, 60, 0, "c", {"classify": 5, "solve": 7}, 0],
        ["isa.segments", 12, 20, 1, "c", None, 0],
        ["harness.cell", 70, 90, 0, "d", None, 0],
        ["cache.stats_store", 75, 80, 3, "d", None, 0],
    ]
    buckets = ledger.ledger(spans)
    assert buckets["sim.spec"] == 50 - 8 - 12
    assert buckets["kernel.classify"] == 5 and buckets["kernel.solve"] == 7
    assert buckets["isa.segments"] == 8
    assert buckets["cache.stats_store"] == 5
    assert buckets["residual"] == (100 - 50 - 20) + (20 - 5)
    assert sum(buckets.values()) == 100


def test_wrong_pinned_digest_fails_the_run(tmp_path):
    bench = _copy_bench(tmp_path)
    pins = json.loads((bench / "pins.json").read_text())
    cells = pins["tiny"]["seeds"]["7"]["fig15-contended"]["cells"]
    cell = sorted(cells)[0]
    cells[cell] = "0" * 16
    (bench / "pins.json").write_text(json.dumps(pins))
    proc = _bench("--workload", "fig15-contended", "--size", "tiny", "--seed", "7",
                  "--seconds", "1", bench=bench)
    assert proc.returncode != 0
    result = _result(proc)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert cell in proc.stderr


def test_unpinned_seeds_map_onto_the_rotation():
    pins = json.loads((HERE / "pins.json").read_text())["full"]
    assert pins["held_out"] not in pins["rotation"]
    assert str(pins["held_out"]) in pins["seeds"]
    for seed in range(40):
        mapped = run.workload_seed(pins, seed)
        assert str(mapped) in pins["seeds"]
        assert mapped == seed or mapped in pins["rotation"]
    assert run.workload_seed(pins, 7) == 7


def test_tracing_keeps_the_fast_path():
    from repro.uarch import pipeline
    from repro.uarch.config import MachineConfig

    recorder = ledger.Recorder()
    restore = ledger.install(recorder)
    try:
        assert not pipeline._deoptimized(pipeline.PipelineModel(MachineConfig()))
        assert not pipeline._deoptimized(
            pipeline.PipelineModel(MachineConfig().with_sp(256))
        )
    finally:
        restore()
    assert pipeline.simulate.__name__ == "simulate"
    assert not hasattr(pipeline.simulate, "__wrapped__")


def test_fails_without_a_checkout(tmp_path):
    _copy_bench(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
