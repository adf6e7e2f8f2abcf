"""Run ``repro serve --async --port 0`` with the layer wrappers installed.

Usage: ``python perfbench/serve_traced.py OUT.json``.  The server runs
until interrupted (SIGINT); it then writes the per-layer metrics to
``OUT.json`` and every span, one per line, to ``OUT.spans.jsonl``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from common import use_program  # noqa: E402


def main(out: str) -> int:
    use_program()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", "--async", "--port", "0"])
    finally:
        tracer.dump(str(Path(out).with_suffix(".spans.jsonl")))
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts,
                                        tracer.samples)
        Path(out).write_text(json.dumps(metrics))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
