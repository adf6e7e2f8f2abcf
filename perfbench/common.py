"""Shared helpers: checkout paths, statistics, child processes.

The benchmark runs from the root of a checkout and reads and writes
only inside it: program sources come from ``src/``, scratch files go to
``.perfbench/`` (ignored by git and removed per workload run).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 3

#: Prefix of the one stdout line a child uses to hand back its result.
RESULT_PREFIX = "PERFBENCH-RESULT "


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed child)."""


def require_program() -> None:
    """Fail unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")


def use_program() -> None:
    """Import the program from this checkout's ``src/``."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for program processes: this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def fresh_dir(name: str) -> Path:
    """An empty scratch directory under ``.perfbench/``."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def _cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def pin_to_program_cpu() -> None:
    """Run on the last usable CPU only (``preexec_fn`` of program
    processes).

    The program gets a CPU of its own and the load generator the rest:
    on a 2-vCPU machine shared with other tenants, letting the
    scheduler move the server's threads across CPUs made the
    run-to-run spread of solve-mix three to four times wider.
    """
    cpus = _cpus()
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[-1]})


def pin_to_load_cpus() -> None:
    """Keep the calling (load-generating) process off the program's CPU."""
    cpus = _cpus()
    if len(cpus) > 1:
        os.sched_setaffinity(0, set(cpus[:-1]))


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def stop(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate ``proc`` and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_child(args: list[str], deadline_s: float
              ) -> tuple[float, dict[str, Any] | None]:
    """Run a benchmark child; return (set-up seconds, its result).

    Set-up runs from process start until the child prints ``ready``.
    The child's result is the JSON on its ``RESULT_PREFIX`` line
    (``None`` for a set-up-only child).
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "inproc.py"), *args],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        preexec_fn=pin_to_program_cpu)
    setup_s = None
    result = None
    watchdog = threading.Timer(deadline_s, proc.kill)
    watchdog.start()
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.strip() == "ready" and setup_s is None:
                setup_s = time.perf_counter() - started
            elif line.startswith(RESULT_PREFIX):
                result = json.loads(line[len(RESULT_PREFIX):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        stop(proc)
    if code != 0 or setup_s is None:
        raise BenchError(f"child {args} exited with code {code}")
    return setup_s, result
