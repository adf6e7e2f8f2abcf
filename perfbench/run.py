"""The repository benchmark: one named workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``solve-mix``    -- HTTP ``POST /v1/solve`` against ``repro serve --async``;
* ``design-sweep`` -- the ``repro grid --cache FILE`` path, in process;
* ``des-validate`` -- MVA-vs-DES sweeps through the sweep queue.

Each workload runs in a fresh process; its inputs come from ``--seed``
only.  Every output is checked (see ``checks.py``); a miss counts as a
failed operation.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(a separate run, with the layer wrappers of ``tracing.py`` installed).
Lines before it print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SETUP_SAMPLES,
    BenchError,
    median,
    percentile,
    require_program,
    run_child,
    use_program,
)

WORKLOADS = ("solve-mix", "design-sweep", "des-validate")

#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0

#: What each generic end-to-end metric means on each workload.
MEANING = {
    "solve-mix": {
        "setup_s": "process start to first /v1/healthz 200, median of 3",
        "peak_rss_mb": "server VmHWM",
        "ops_per_s": "solve_rps: closed-loop completed requests/s over 2 "
                     "keep-alive connections, median of 3 segments",
        "call_p50_ms": "solve_p50_ms: open-loop median latency from due "
                       "time, at half the measured capacity",
        "call_p99_ms": "solve_p99_ms: open-loop p99 latency from due time",
    },
    "design-sweep": {
        "setup_s": "process start to ready (imports + objects), median of 3",
        "peak_rss_mb": "workload process VmHWM",
        "ops_per_s": "sweep_cells_per_s: cells returned by a study's three "
                     "steps / their wall time, median over studies",
        "call_p50_ms": "median wall time of one grid call (a study step)",
        "call_p99_ms": "p99 (nearest rank) wall time of one grid call",
    },
    "des-validate": {
        "setup_s": "process start to ready (imports + objects), median of 3",
        "peak_rss_mb": "workload process VmHWM",
        "ops_per_s": "des_req_per_s: measured simulated requests "
                     "(DES cells x 16 reps x 5000) / sweep wall time",
        "call_p50_ms": "median wall time of one sweep call",
        "call_p99_ms": "p99 (nearest rank) wall time of one sweep call",
    },
}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """The raw outcome of one workload run."""
    if workload == "solve-mix":
        use_program()
        import solve_mix

        return solve_mix.run(seed, seconds, trace)
    started = time.perf_counter()
    child = [workload, str(seed), repr(seconds), "1" if trace else "0"]
    setups = [run_child(child + ["--setup-only"], 60.0)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, outcome = run_child(
        child, RUN_LIMIT_S - (time.perf_counter() - started))
    if outcome is None:
        raise BenchError(f"{workload} returned no result")
    setups.append(setup_s)
    e2e = outcome["e2e"]
    calls = e2e.pop("calls_ms")
    e2e["setup_s"] = median(setups)
    e2e["call_p50_ms"] = percentile(calls, 0.50)
    outcome["report"] = {"call_p99_ms": percentile(calls, 0.99)}
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        wanted = spec["per_layer"]
        values = dict(outcome.get("layers", {}))
        # The traced run's own end-to-end figures: their difference to
        # an untraced run of the same seed is the tracing overhead.
        for name, value in {**outcome["e2e"], **outcome["report"]}.items():
            values[f"traced.{name}"] = value
        missing = []
    else:
        wanted = spec["end_to_end"]
        values = outcome["e2e"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    # A per-layer metric a workload never reaches reads 0 (the layer
    # is bypassed).
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for note in outcome.get("notes", {}).values():
        print(f"  # {note}")
    meaning = MEANING[args.workload]
    for name, metric in metrics.items():
        line = f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}"
        if name in meaning and not args.trace:
            line += f"  ({meaning[name]})"
        print(line)
    if not args.trace:
        for name, value in outcome["report"].items():
            print(f"  {name:<36} {value:>14.6g} ms  ({meaning[name]}; "
                  "printed, not gated: too noisy on a shared host)")
    print(f"  attempted {outcome['attempted']}, failed {outcome['failed']}")
    print(json.dumps({"correct": outcome["failed"] == 0,
                      "attempted": int(outcome["attempted"]),
                      "failed": int(outcome["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
