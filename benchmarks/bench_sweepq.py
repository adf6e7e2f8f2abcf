"""E15: MVA sweep dispatch -- the executor vs the scalar reference vs
the sharded sweep queue.

MVA cells have one production path: :meth:`SweepExecutor.run` solves
them in-process with one vectorized :func:`repro.core.batch.solve_batch`
fixed point, whatever ``jobs`` is -- they are never forked.  This bench
records the wall-clock of the same MVA stress grid three ways:

* **reference** -- :func:`repro.service.executor.run_reference`
  (``evaluate_with_retry`` per task), the per-cell scalar loop
  production ran at ``jobs=1`` before the batch engine took over;
* **executor**  -- ``SweepExecutor(jobs=4).run(tasks)``, production;
* **queue**     -- ``SweepQueue.run_tasks`` with workers capped at the
  core count, the chunked worker path MVA cells used to take at
  ``jobs>1`` (reported, not floored).

Asserted: executor >= 2x over the reference, and rows byte-identical
across all three paths.  Numbers land in ``output/sweepq.txt``
(human-readable) and ``benchmarks/BENCH_sweepq.json`` (committed
machine-readable trajectory; CI regenerates and uploads it as an
artifact without overwriting the committed baseline).

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the grid and skips the
speedup floor -- tiny grids cannot amortize the batch engine's fixed
costs.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import once  # noqa: E402

from repro.analysis.stress import stress_tasks
from repro.service.executor import (SweepExecutor, collect_sweep_result,
                                    run_reference)
from repro.sweepq import SweepQueue, auto_chunk_size
from repro.sweepq.chunks import MVA_CHUNK_CAP

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: 16 protocol combinations x 4 parameter corners x these sizes.
STRESS_SIZES = (4, 16, 64) if QUICK else tuple(range(4, 260, 8))

#: Executor-over-reference floor asserted on the full stress grid.  The
#: gain is the batch engine (one vectorized fixed point for the whole
#: grid), not parallelism, so it holds on any core count.
SPEEDUP_FLOOR = 2.0

_REPS = 1 if QUICK else 3


def _best(fn, reps=_REPS):
    """Best-of-N wall clock: the standard guard against scheduler
    noise for sub-second measurements."""
    times = []
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return min(times), result


def _run_queue(tasks, workers):
    """One ephemeral queue run of ``tasks`` as a ``SweepResult``."""
    queue = SweepQueue(chunk_size=auto_chunk_size(len(tasks), workers,
                                                  cap=MVA_CHUNK_CAP))
    try:
        outcome = queue.run_tasks(tasks, workers=workers)
    finally:
        queue.close()
    return collect_sweep_result(
        tasks, dict(enumerate(outcome.values)), outcome.cached,
        wall_seconds=outcome.wall_seconds, jobs=workers, mode=outcome.mode)


def test_executor_vs_reference_vs_queue(benchmark, emit):
    tasks = stress_tasks(sizes=STRESS_SIZES)
    cores = os.cpu_count() or 1
    workers = max(1, min(4, cores))
    _run_queue(tasks[:8], workers)  # warm imports / first-fork cost

    def run_all():
        reference_s, reference = _best(lambda: run_reference(tasks))
        executor_s, executor = _best(
            lambda: SweepExecutor(jobs=4).run(tasks))
        queue_s, queue = _best(lambda: _run_queue(tasks, workers))
        return reference_s, reference, executor_s, executor, queue_s, queue

    reference_s, reference, executor_s, executor, queue_s, queue = once(
        benchmark, run_all)

    reference_rows = [cell.as_row() for cell in reference.cells]
    executor_identical = \
        [c.as_row() for c in executor.cells] == reference_rows
    queue_identical = [c.as_row() for c in queue.cells] == reference_rows
    queue_mode = queue.summary.mode
    speedup = reference_s / executor_s

    emit("sweepq.txt",
         f"E15 MVA dispatch on the stress grid "
         f"({len(tasks)} MVA cells, {cores} cores):\n"
         f"  scalar reference         : {reference_s:7.3f} s\n"
         f"  executor (jobs=4)        : {executor_s:7.3f} s "
         f"({speedup:.2f}x, mode={executor.summary.mode})\n"
         f"  sweep queue ({workers} workers) : {queue_s:7.3f} s "
         f"({reference_s / queue_s:.2f}x, mode={queue_mode})\n")

    record = {
        "schema": 2,
        "cells": len(tasks),
        "quick": QUICK,
        "cores": cores,
        "reference_s": reference_s,
        "executor_s": executor_s,
        "executor_speedup": speedup,
        "executor_mode": executor.summary.mode,
        "queue_s": queue_s,
        "queue_workers": workers,
        "queue_speedup": reference_s / queue_s,
        "queue_mode": queue_mode,
        "rows_identical": executor_identical and queue_identical,
        "speedup_floor": None if QUICK else SPEEDUP_FLOOR,
    }
    out = Path(__file__).resolve().parent / "BENCH_sweepq.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    assert executor_identical, "executor rows must equal the reference"
    assert queue_identical, "queue rows must equal the reference"
    if not QUICK:
        assert speedup >= SPEEDUP_FLOOR, (
            f"executor {speedup:.2f}x over the scalar reference, "
            f"floor is {SPEEDUP_FLOOR}x")
