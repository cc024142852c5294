"""Parallel variant scheduler: fan (benchmark, mode, config, seed) jobs
across cores.

The paper's methodology — one recorded trace replayed on many machine
configurations — is embarrassingly parallel across variants, so the
scheduler runs them in a :class:`~concurrent.futures.ProcessPoolExecutor`
and merges results deterministically (results are ordered by job
position, never by completion order, so ``--jobs N`` output is
byte-identical to serial output).

With more than one worker, :func:`run_variants` hands the campaign to the
fault-tolerant supervisor (:mod:`repro.harness.supervisor` — two-phase
trace/sim fan-out with watchdog timeouts, retry with backoff,
pool-death recovery and resumable journals).  The supervisor changes
only *scheduling*, never *what* is computed, so ``jobs <= 1`` — the
in-process serial path — is the oracle every pool or fleet campaign
must match byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.harness import runner
from repro.harness.runner import TraceKey
from repro.stats.run import RunStats
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
# not called here; perfbench/ledger.py patches ``simulate`` on this module
from repro.uarch.pipeline import simulate  # noqa: F401


@dataclass(frozen=True)
class VariantJob:
    """One (benchmark, mode, config, seed) simulation request."""

    abbrev: str
    mode: PersistMode
    config: MachineConfig
    seed: int = 7
    init_ops: Optional[int] = None
    sim_ops: Optional[int] = None

    @property
    def trace_key(self) -> TraceKey:
        return TraceKey(self.abbrev, self.mode, self.seed, self.init_ops, self.sim_ops)


_default_jobs: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (the CLI's ``--jobs``)."""
    global _default_jobs
    _default_jobs = jobs


def default_jobs() -> int:
    """The effective default worker count (``--jobs`` or ``os.cpu_count()``)."""
    if _default_jobs is not None:
        return max(1, _default_jobs)
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------
def run_variants(
    jobs_list: Sequence[VariantJob], jobs: Optional[int] = None
) -> List[RunStats]:
    """Run every job and return results in job order (deterministic merge).

    With ``jobs <= 1`` (or a single job) everything runs serially in
    process through :func:`repro.harness.runner.run_variant`; results are
    identical either way because simulation is a pure function of
    ``(trace, config)``.
    """
    jobs_list = list(jobs_list)
    n_workers = default_jobs() if jobs is None else max(1, jobs)
    if n_workers <= 1 or len(jobs_list) <= 1:
        return [
            runner.run_variant(
                job.abbrev, job.mode, job.config, job.seed, job.init_ops, job.sim_ops
            )
            for job in jobs_list
        ]

    from repro.harness import supervisor

    return supervisor.run_supervised(jobs_list, n_workers)


def prefetch_variants(
    pairs: Iterable[Tuple[str, PersistMode, MachineConfig]],
    seed: int = 7,
    jobs: Optional[int] = None,
) -> List[RunStats]:
    """Warm the caches for *(abbrev, mode, config)* pairs in parallel.

    Figure and sweep functions call this with their full variant
    cross-product before their (serial, order-sensitive) result assembly
    loops; the assembly then hits the in-process memo only.
    """
    # de-duplicate while preserving order (BASE repeats across series)
    unique = dict.fromkeys(
        VariantJob(ab, mode, config, seed) for ab, mode, config in pairs
    )
    return run_variants(list(unique), jobs=jobs)
