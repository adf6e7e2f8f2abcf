"""design-sweep: the ``repro grid --cache FILE`` path, in process.

One design study is three grid calls over the 16 modification
combinations x 3 sharing levels, on one new cache file, with ``jobs=1``
and the default MVA engine -- what ``repro grid --all-combinations -n
... --cache FILE -o out.csv`` does per invocation:

1. a cold pass over a seeded set of sizes that always holds the golden
   sizes N in {1, 10, 20, 100};
2. the same grid widened by as many new seeded sizes (half cached);
3. a rerun of step 2 from a new ``ResultCache`` on the same file (all
   hits).

Studies repeat, each on its own seeded sizes, until the run time is
used up; the throughput is the median of the studies' rates.
"""

from __future__ import annotations

import random
import time
from typing import Any

import checks
from common import fresh_dir, median, peak_rss_mb

#: Sizes every cold pass holds (the golden corpus's sizes).
GOLDEN_SIZES = (1, 10, 20, 100)
#: Seeded sizes added to the golden ones in the cold pass.
EXTRA_COLD = 1
#: Largest seeded system size.
MAX_N = 128
#: Non-golden cells per study checked against the scalar solve.
REFERENCE_SAMPLE = 16


def study_sizes(seed: int, study: int) -> tuple[list[int], list[int]]:
    """(cold sizes, widened sizes) of one study."""
    rng = random.Random(f"design-sweep:{seed}:{study}")
    pool = [n for n in range(2, MAX_N + 1) if n not in GOLDEN_SIZES]
    picks = rng.sample(pool, 2 * (len(GOLDEN_SIZES) + EXTRA_COLD)
                       - len(GOLDEN_SIZES))
    cold = sorted(GOLDEN_SIZES + tuple(picks[:EXTRA_COLD]))
    return cold, sorted(cold + picks[EXTRA_COLD:])


def setup() -> dict[str, Any]:
    import repro.analysis.grid as grid
    import repro.service as service
    from repro.protocols.modifications import all_combinations

    return {"protocols": all_combinations(), "grid": grid,
            "service": service}


def run(state: dict[str, Any], seed: int, seconds: float) -> dict[str, Any]:
    """The timed studies; returns the end-to-end figures and outputs."""
    # Program functions are looked up at call time, so the layer
    # wrappers installed after set-up see every call.
    grid, service = state["grid"], state["service"]
    protocols = state["protocols"]
    work = fresh_dir("design-sweep")
    outputs: list[tuple[int, list[dict[str, Any]], str]] = []
    calls_ms: list[float] = []
    rates: list[float] = []
    wall = 0.0
    study = 0
    # Stop before a study that would end past the run time.
    while study == 0 or wall * (study + 1) / study <= seconds:
        cold, wide = study_sizes(seed, study)
        path = work / f"study{study}.json"
        started = time.perf_counter()
        returned = 0
        for step, sizes in enumerate((cold, wide, wide), start=1):
            call_started = time.perf_counter()
            if step != 2:
                cache = service.ResultCache(path=path)
            result = service.SweepExecutor(jobs=1, cache=cache).run_spec(
                grid.GridSpec(protocols=protocols, sizes=sizes))
            text = grid.to_csv(result.cells)
            (work / f"study{study}-step{step}.csv").write_text(text)
            calls_ms.append(1000.0 * (time.perf_counter() - call_started))
            outputs.append((study, [cell.as_row() for cell in result.cells],
                            text))
            returned += len(result.cells)
        elapsed = time.perf_counter() - started
        wall += elapsed
        rates.append(returned / elapsed)
        study += 1
    cells = sum(len(rows) for _s, rows, _t in outputs)
    return {
        "e2e": {"peak_rss_mb": peak_rss_mb(), "ops_per_s": median(rates),
                "calls_ms": calls_ms},
        "outputs": outputs,
        "notes": {"grid": f"{study} studies, {cells} cells returned by "
                          f"{len(calls_ms)} grid calls in {wall:.2f} s "
                          f"(16 combos x 3 sharing x {len(cold)}/{len(wide)} "
                          "sizes per study)"},
    }


def check(state: dict[str, Any], outcome: dict[str, Any],
          seed: int) -> dict[str, Any]:
    """Rows against the golden corpus (where it has the cell) and, for
    a seeded sample of the rest, the scalar solve; CSV text against the
    rows.  Returns the operation counts."""
    mods = {p.label: frozenset(p.mod_numbers) for p in state["protocols"]}
    samples: dict[int, set[tuple[str, str, int]]] = {}
    attempted = failed = 0
    for study_index, rows, text in outcome.pop("outputs"):
        if study_index not in samples:
            keys = sorted({(r["protocol"], r["sharing"], r["n_processors"])
                           for r in rows
                           if r["n_processors"] not in GOLDEN_SIZES})
            rng = random.Random(f"design-sweep-check:{seed}:{study_index}")
            samples[study_index] = set(rng.sample(
                keys, min(REFERENCE_SAMPLE, len(keys))))
        sample = samples[study_index]
        attempted += len(rows)
        failed += sum(not checks.cell_ok(
            row, mods[row["protocol"]],
            (row["protocol"], row["sharing"], row["n_processors"]) in sample)
            for row in rows)
        failed += checks.csv_mismatches(text, rows)
    return {"attempted": attempted, "failed": failed}
