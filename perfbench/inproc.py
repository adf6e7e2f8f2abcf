"""Child process of the in-process workloads (design-sweep, des-validate).

Usage: ``python perfbench/inproc.py WORKLOAD SEED SECONDS TRACE [--setup-only]``

Prints ``ready`` once imports and objects are built -- the parent times
set-up up to that line -- then runs the workload (unless
``--setup-only``) and prints one ``PERFBENCH-RESULT {json}`` line.
With ``TRACE`` = 1 the layer wrappers are installed after set-up and
the per-layer metrics join the result; the spans are written to
``.perfbench/<workload>/spans.jsonl``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import RESULT_PREFIX, WORK, use_program  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[:4]
    use_program()
    if workload == "design-sweep":
        import design_sweep as module
    else:
        import des_validate as module
    state = module.setup()
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = module.run(state, int(seed), float(seconds))
    layers = {}
    if tracer is not None:
        # Reduced before the checks, whose reference solves would
        # otherwise show up in the model layer.
        layers = tracing.layer_metrics(tracer.spans, tracer.counts,
                                       tracer.samples)
        tracer.dump(str(WORK / workload / "spans.jsonl"))
    counts = module.check(state, result, int(seed))
    result["layers"] = {**layers, **counts.pop("layers", {})}
    result.update(counts)
    print(RESULT_PREFIX + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
