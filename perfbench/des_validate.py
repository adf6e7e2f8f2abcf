"""des-validate: MVA-vs-DES sweeps through the sharded sweep queue.

What ``repro sweep --protocols write-once 1,2,3,4 --sharing 5 -n 4 16
--simulate --sim-engine vector --sim-reps 16 --requests 5000`` does, in
process: ``GridSpec`` -> ``tasks_for_spec`` -> ``SweepQueue.submit``/
``run`` with one worker -- the verify full tier's MVA-vs-DES cell
settings.  Each sweep call covers the base protocol and ``1,2,3,4`` at
N in {4, 16} with fresh seeded replication seeds; calls repeat until
the run time is used up.  The protocol set is fixed because the DES
cost per simulated request differs up to 2.2x between modification
combinations, so a seeded mix of them would move the throughput from
seed to seed more than any code change worth catching.
"""

from __future__ import annotations

import random
import time
from typing import Any

import checks
from common import fresh_dir, peak_rss_mb

SIZES = (4, 16)
REPS = 16
REQUESTS = 5000
#: The accuracy guard is read from this many calls (every run makes them).
GUARD_CALLS = 1


def setup() -> dict[str, Any]:
    import repro.analysis.grid as grid
    import repro.service as service
    from repro.protocols.modifications import all_combinations
    from repro.sweepq import SweepQueue
    from repro.workload.parameters import SharingLevel

    work = fresh_dir("des-validate")
    return {"protocols": all_combinations(), "grid": grid,
            "service": service, "sharing": SharingLevel.FIVE_PERCENT,
            "queue": SweepQueue(state_dir=str(work / "state"),
                                cache=service.ResultCache())}


def run(state: dict[str, Any], seed: int, seconds: float) -> dict[str, Any]:
    """The timed sweeps; returns the end-to-end figures and rows."""
    # Program functions are looked up at call time, so the layer
    # wrappers installed after set-up see every call.
    grid, service = state["grid"], state["service"]
    queue = state["queue"]
    protocols = [p for p in state["protocols"] if len(p.mod_numbers) in (0, 4)]
    rng = random.Random(f"des-validate:{seed}")
    rows_per_call: list[list[dict[str, Any]]] = []
    calls_ms: list[float] = []
    wall = 0.0
    call = 0
    # Stop before a call that would end past the run time.
    while call == 0 or wall * (call + 1) / call <= seconds:
        spec = grid.GridSpec(
            protocols=protocols, sizes=SIZES,
            sharing_levels=[state["sharing"]], include_simulation=True,
            sim_requests=REQUESTS, sim_seed=rng.randrange(1, 10**9),
            sim_engine="vector", sim_reps=REPS)
        started = time.perf_counter()
        tasks = service.tasks_for_spec(spec)
        outcome = queue.run(queue.submit(tasks), workers=1)
        elapsed = time.perf_counter() - started
        wall += elapsed
        calls_ms.append(1000.0 * elapsed)
        rows_per_call.append([_row(task, value)
                              for task, value in zip(tasks, outcome.values)])
        call += 1
    queue.close()
    sim_rows = sum(row["method"] == "sim"
                   for rows in rows_per_call for row in rows)
    return {
        "e2e": {"peak_rss_mb": peak_rss_mb(),
                "ops_per_s": sim_rows * REPS * REQUESTS / wall,
                "calls_ms": calls_ms},
        "outputs": rows_per_call,
        "notes": {"sweeps": f"{call} sweep calls, {sim_rows} DES cells x "
                            f"{REPS} reps x {REQUESTS} requests in "
                            f"{wall:.2f} s"},
    }


def check(state: dict[str, Any], outcome: dict[str, Any],
          seed: int) -> dict[str, Any]:
    """DES rows within the verify band of their MVA rows; MVA rows
    equal to the scalar solve.  Returns the operation counts and the
    accuracy guard over the calls every run makes."""
    band = checks.des_band()
    mods = {p.label: frozenset(p.mod_numbers) for p in state["protocols"]}
    attempted = failed = 0
    fixed_errors: list[float] = []
    for index, rows in enumerate(outcome.pop("outputs")):
        attempted += len(rows)
        errors = checks.des_rel_errors(rows)
        failed += sum(1 for e in errors if e is None or e > band)
        if index < GUARD_CALLS:
            fixed_errors += [e for e in errors if e is not None]
        for row in rows:
            if row["method"] == "mva" and (
                    row.get("error") is not None or not checks.matches(
                    row, checks.reference_row(mods[row["protocol"]],
                                              row["sharing"],
                                              row["n_processors"]))):
                failed += 1
    return {"attempted": attempted, "failed": failed,
            "layers": {"des.max_speedup_rel_err":
                       max(fixed_errors, default=0.0)}}


def _row(task: Any, value: dict[str, Any]) -> dict[str, Any]:
    if value.get("error") is not None:
        return {"protocol": task.protocol.label,
                "sharing": task.sharing_label, "n_processors": task.n,
                "method": task.method, "error": value["error"]}
    return value["cell"]
