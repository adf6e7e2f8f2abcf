"""E17: the lockstep vector DES engine vs the scalar simulator.

The scalar discrete-event simulator (``repro.sim.system``) earns its
keep as the semantic reference -- one heap, one event at a time, easy
to audit against the protocol tables -- but every statistical question
(confidence bands, MVA-vs-DES verification, seed sensitivity) wants
*many independent replications*, and the scalar engine pays its full
per-event Python cost for each one.  ``repro.sim.vector`` advances all
replications in lockstep over NumPy structured state, so the per-tick
interpreter overhead amortizes across the replication axis.

Two claims are checked here:

1. **Throughput** -- on the 16-combination validation corpus (every
   modification combination, N=8, 5% sharing) the vector engine
   delivers >= 10x replication throughput versus scalar runs at the
   flagship replication width.  Throughput is replications completed
   per wall-clock second at identical per-replication sample sizes.
2. **Scaling** -- throughput grows with the replication width (the
   whole point of the lockstep layout); the reps axis is swept on the
   base Write-Once combination and reported alongside.

3. **Cross-cell launches** -- the verify full tier's MVA-vs-DES leg
   (all 16 combinations at N in {4, 16}, 16 replications x 5000
   measured requests each) runs >= 3x faster as one merged 512-lane
   launch (:func:`repro.sim.vector.simulate_cells`) than as 32
   per-cell launches, with bit-identical per-replication rows.  A tick
   costs a fixed interpreter overhead whatever its width, so merging
   cells divides the tick count by the number of cells.

The engines are *statistically* equivalent, not bit-equal (different
uniform streams per seed; ``repro verify --tier full`` owns that
oracle), so this bench records the aggregate speedup gap per combo as
context but only asserts throughput.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI smoke job) shrinks the
corpus and replication widths and relaxes the floor -- narrow widths
cannot amortize the per-tick dispatch cost, and CI runners are noisy.

Numbers land in ``output/sim.txt`` (human-readable), ``output/sim.json``
(machine-readable CI artifact) and ``benchmarks/BENCH_sim.json`` (the
committed baseline; see docs/performance.md for the schema).
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import once  # noqa: E402

from repro.protocols.modifications import all_combinations
from repro.sim.config import SimulationConfig
from repro.sim.system import SnoopingBusSimulator
from repro.sim.vector import simulate_cells, simulate_many
from repro.workload.parameters import SharingLevel, appendix_a_workload

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: The validation corpus: every modification combination at a moderate
#: size and sharing level (the same shape the verify tiers sweep).
N_PROCESSORS = 8
WARMUP = 1_000
MEASURED = 5_000
SEED = 1234

#: Replication widths for the scaling sweep (base combination only).
REPS_SWEEP = (8, 32) if QUICK else (32, 64, 128, 256, 512)

#: Width used for the 16-combination corpus measurement and the
#: acceptance floor applied to its aggregate throughput ratio.
REPS_FLAGSHIP = 32 if QUICK else 512
SPEEDUP_FLOOR = 1.0 if QUICK else 10.0

_CORPUS = all_combinations()
if QUICK:
    _CORPUS = _CORPUS[:4]

#: The cross-cell case: the verify full tier's DES leg (quick mode runs
#: a small version of it and asserts no floor).
CROSS_SIZES = (4, 16)
CROSS_REPS = 4 if QUICK else 16
CROSS_MEASURED = 1_000 if QUICK else 5_000
CROSS_FLOOR = None if QUICK else 3.0
_CROSS_CORPUS = _CORPUS if QUICK else all_combinations()


def _config(spec, seed=SEED):
    return SimulationConfig(
        n_processors=N_PROCESSORS,
        workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
        protocol=spec, seed=seed,
        warmup_requests=WARMUP, measured_requests=MEASURED)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _merge_json(path: Path, record: dict) -> None:
    existing = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
    existing.update(record)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


def _write_json(output_dir: Path, record: dict) -> None:
    _merge_json(output_dir / "sim.json", record)
    _merge_json(Path(__file__).resolve().parent / "BENCH_sim.json",
                dict(record, schema=1, quick=QUICK,
                     cores=os.cpu_count() or 1))


def test_reps_scaling(benchmark, emit, output_dir):
    """Throughput must grow with the replication width (base combo)."""
    spec = _CORPUS[0]

    def run_sweep():
        _, scalar_s = _timed(lambda: SnoopingBusSimulator(_config(spec)).run())
        rows = []
        for reps in REPS_SWEEP:
            _, vector_s = _timed(lambda: simulate_many(_config(spec),
                                                       reps=reps))
            rows.append((reps, vector_s))
        return scalar_s, rows

    scalar_s, rows = once(benchmark, run_sweep)
    lines = [f"E17 replication scaling ({spec.label} N={N_PROCESSORS}, "
             f"{MEASURED} measured requests/replication"
             f"{', quick mode' if QUICK else ''}):",
             f"  scalar   : {scalar_s * 1e3:8.1f} ms/replication"]
    record = {"protocol": spec.label, "n_processors": N_PROCESSORS,
              "warmup_requests": WARMUP, "measured_requests": MEASURED,
              "scalar_s_per_rep": scalar_s, "quick": QUICK, "widths": {}}
    ratios = {}
    for reps, vector_s in rows:
        per_rep = vector_s / reps
        ratios[reps] = scalar_s / per_rep
        lines.append(f"  reps={reps:4d}: {vector_s * 1e3:8.1f} ms total, "
                     f"{per_rep * 1e3:7.2f} ms/replication "
                     f"({ratios[reps]:5.2f}x scalar)")
        record["widths"][str(reps)] = {
            "total_s": vector_s, "s_per_rep": per_rep,
            "throughput_x": ratios[reps]}
    emit("sim.txt", "\n".join(lines) + "\n")
    _write_json(output_dir, {"scaling": record})
    widths = sorted(ratios)
    assert ratios[widths[-1]] >= ratios[widths[0]], (
        "vector throughput must not shrink as the replication width "
        f"grows (got {ratios})")


def test_corpus_throughput(benchmark, emit, output_dir):
    """>= 10x replication throughput on the validation corpus."""

    def run_corpus():
        combos = []
        for spec in _CORPUS:
            scalar_result, scalar_s = _timed(
                lambda s=spec: SnoopingBusSimulator(_config(s)).run())
            vector_result, vector_s = _timed(
                lambda s=spec: simulate_many(_config(s),
                                             reps=REPS_FLAGSHIP))
            agg = vector_result.aggregate()
            gap = (abs(agg.speedup - scalar_result.speedup)
                   / scalar_result.speedup)
            combos.append((spec.label, scalar_s, vector_s, gap))
        return combos

    combos = once(benchmark, run_corpus)
    scalar_total = sum(s for _, s, _, _ in combos)
    vector_total = sum(v for _, _, v, _ in combos)
    # Replications per second on each side, identical per-replication
    # sample: the corpus-aggregate throughput ratio.
    ratio = (len(combos) * REPS_FLAGSHIP / vector_total) \
        / (len(combos) / scalar_total)
    lines = [f"E17 validation corpus ({len(combos)} combinations, "
             f"N={N_PROCESSORS}, reps={REPS_FLAGSHIP}"
             f"{', quick mode' if QUICK else ''}):"]
    record = {"n_processors": N_PROCESSORS, "reps": REPS_FLAGSHIP,
              "warmup_requests": WARMUP, "measured_requests": MEASURED,
              "speedup_floor": SPEEDUP_FLOOR, "quick": QUICK,
              "combos": {}}
    worst_gap = 0.0
    for label, scalar_s, vector_s, gap in combos:
        per_rep = vector_s / REPS_FLAGSHIP
        lines.append(f"  {label:14s}: scalar {scalar_s * 1e3:7.1f} ms/rep, "
                     f"vector {per_rep * 1e3:6.2f} ms/rep "
                     f"({scalar_s / per_rep:5.2f}x), "
                     f"aggregate-speedup gap {gap:.2%}")
        record["combos"][label] = {
            "scalar_s_per_rep": scalar_s, "vector_s_total": vector_s,
            "vector_s_per_rep": per_rep,
            "throughput_x": scalar_s / per_rep,
            "aggregate_speedup_gap": gap}
        worst_gap = max(worst_gap, gap)
    lines.append(f"  corpus throughput ratio: {ratio:.2f}x "
                 f"(floor {SPEEDUP_FLOOR}x); "
                 f"worst aggregate-speedup gap {worst_gap:.2%}")
    record["throughput_x"] = ratio
    record["worst_aggregate_speedup_gap"] = worst_gap
    emit("sim.txt", "\n".join(lines) + "\n")
    _write_json(output_dir, {"corpus": record})
    assert ratio >= SPEEDUP_FLOOR, (
        f"vector engine {ratio:.2f}x over scalar on the validation "
        f"corpus, below the {SPEEDUP_FLOOR}x floor")


def _cross_cells():
    workload = appendix_a_workload(SharingLevel.FIVE_PERCENT)
    cells = []
    for spec in _CROSS_CORPUS:
        for n in CROSS_SIZES:
            config = SimulationConfig(
                n_processors=n, workload=workload, protocol=spec,
                seed=SEED + n, measured_requests=CROSS_MEASURED)
            cells.append((config, [SEED + n + r for r in range(CROSS_REPS)]))
    return cells


def _rows(result):
    """Every per-replication field of one cell's result, as lists."""
    return {name: getattr(result, name).tolist()
            for name in ("requests_measured", "elapsed_cycles",
                         "mean_cycle_time", "speedup",
                         "speedup_ci_halfwidth", "processing_power",
                         "u_bus", "u_mem", "w_bus", "w_bus_stddev",
                         "q_bus_seen", "mean_interference_wait",
                         "bus_transactions", "response_means",
                         "response_counts")}


def test_cross_cell_launch(benchmark, emit, output_dir):
    """>= 3x on the verify DES leg from merging its cells' launches."""
    cells = _cross_cells()

    def run_both():
        per_cell, per_cell_s = _timed(lambda: [
            simulate_many(config, len(seeds), seeds)
            for config, seeds in cells])
        merged, merged_s = _timed(lambda: simulate_cells(cells))
        return per_cell, per_cell_s, merged, merged_s

    per_cell, per_cell_s, merged, merged_s = once(benchmark, run_both)
    assert [_rows(r) for r in merged] == [_rows(r) for r in per_cell], (
        "a merged launch must reproduce every per-cell row bit for bit")
    ratio = per_cell_s / merged_s
    lanes = len(cells) * CROSS_REPS
    requests = lanes * (cells[0][0].warmup_requests + CROSS_MEASURED)
    floor = "no floor" if CROSS_FLOOR is None else f"floor {CROSS_FLOOR}x"
    lines = [f"E17 cross-cell launch ({len(cells)} cells x {CROSS_REPS} "
             f"reps x {CROSS_MEASURED} measured requests"
             f"{', quick mode' if QUICK else ''}):",
             f"  {len(cells)} per-cell launches: {per_cell_s:7.2f} s "
             f"({1e6 * per_cell_s / requests:5.2f} us/request)",
             f"  one {lanes}-lane launch : {merged_s:7.2f} s "
             f"({1e6 * merged_s / requests:5.2f} us/request)",
             f"  speedup {ratio:.2f}x ({floor}); rows identical"]
    record = {"cells": len(cells), "reps": CROSS_REPS,
              "sizes": list(CROSS_SIZES),
              "warmup_requests": cells[0][0].warmup_requests,
              "measured_requests": CROSS_MEASURED, "lanes": lanes,
              "per_cell_s": per_cell_s, "merged_s": merged_s,
              "speedup_x": ratio, "speedup_floor": CROSS_FLOOR,
              "rows_identical": True, "quick": QUICK}
    emit("sim.txt", "\n".join(lines) + "\n")
    _write_json(output_dir, {"cross_cell": record})
    if CROSS_FLOOR is not None:
        assert ratio >= CROSS_FLOOR, (
            f"merged launch {ratio:.2f}x over per-cell launches, below "
            f"the {CROSS_FLOOR}x floor")
