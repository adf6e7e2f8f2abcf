"""Sweep executor: cache-aware, deterministic, fault-tolerant.

Turns a :class:`repro.analysis.grid.GridSpec` into an explicit list of
independent :class:`CellTask` work items, answers as many as possible
from the result cache, and solves the rest.  Guarantees:

* **One MVA production path** -- every fresh MVA cell is solved
  in-process by :func:`solve_mva_cells` (one vectorized
  :mod:`repro.core.batch` fixed point for the whole sweep), whatever
  ``jobs`` is.  :func:`evaluate_task` stays as the readable per-cell
  scalar reference that verify's parity oracle, the golden corpus and
  the tests hold production to, bit for bit.
* **Deterministic ordering** -- results come back in task order (the
  seed's protocol -> sharing -> size -> (mva, sim) order), however the
  work was dispatched, so CSV/JSON exports are byte-stable.
* **Per-cell failure isolation** -- a cell that cannot be solved
  becomes an error row (:class:`FailedCell` + ``GridCell.error``)
  instead of killing the sweep; every other cell completes exactly as
  it would in a clean run.  ``strict=True`` restores the historical
  raise-on-first-error behaviour.
* **Self-healing MVA cells** -- a non-converged fixed point is retried
  down the escalating damping ladder (warm-started); recoveries are
  counted in the summary and metrics.
* **One simulation production path** -- every fresh simulation cell is
  solved by :func:`iter_sim_cells`: vector-engine cells that share an
  architecture and sample size run as merged lockstep launches of at
  most :data:`repro.sim.vector.MAX_LAUNCH_LANES` lanes (each cell
  bit-identical to a solo run), scalar-engine cells one by one.
* **Per-cell retry** -- simulation cells that raise are retried with a
  deterministically perturbed seed; the *effective* seed that produced
  the result is recorded in the cached value so a cache hit stays
  traceable.  A launch that raises hands each of its cells to that
  per-cell retrying path.
* **Incremental cache flush** -- the disk store is rewritten after
  every fresh cell is stored.  Cells are stored one by one as soon as
  their batch solve (MVA) or their launch (simulation) returns, so an
  interrupt keeps every cell of the launches already finished and
  loses only the solve in flight; a ``strict`` sweep stops after the
  launch holding its first failed cell.
* **Simulation fan-out** -- with ``jobs>1`` the simulation cells go
  through the sharded sweep queue (:mod:`repro.sweepq`), which drains
  in-process when the platform cannot fork; if the queue dies
  wholesale the cells finish serially with identical results.

Every solve path returns plain dicts (the ``GridCell`` row plus solve
metadata), which is also exactly what the cache persists, so a cache
hit and a fresh solve are indistinguishable to callers.  A solve never
raises: an unsolvable cell comes back as ``{"error": {...}}`` and is
resolved to an error row (or, under ``strict``, a
:class:`CellFailedError`) on the consumer side.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any

from repro.analysis.grid import GridCell, GridSpec
from repro.core.model import CacheMVAModel
from repro.core.solver import FixedPointSolver, SolverError
from repro.protocols.modifications import ProtocolSpec
from repro.service.cache import ResultCache
from repro.service.keys import task_key
from repro.service.metrics import (
    DEFAULT_ITERATION_BUCKETS,
    MetricsRegistry,
)
from repro.sim.config import SimulationConfig
from repro.sim.system import SIM_ENGINES, SimulationResult, simulate
from repro.sim.vector import VectorSnoopingBusSimulator, plan_launches
from repro.workload.parameters import (
    ArchitectureParams,
    SharingLevel,
    WorkloadParameters,
    appendix_a_workload,
)

#: Seed perturbation between simulation retry attempts (prime so bumped
#: seeds never collide with the grid's own ``sim_seed + n`` spacing).
_RETRY_SEED_STRIDE = 100_003

#: Default extra attempts for a failing simulation cell.
_SIM_RETRIES = 2

#: The solver every :class:`CellTask` uses unless given its own.
DEFAULT_SOLVER = FixedPointSolver()


@dataclass(frozen=True)
class CellTask:
    """One independent model evaluation (everything a worker needs)."""

    protocol: ProtocolSpec
    sharing_label: str
    workload: WorkloadParameters
    n: int
    arch: ArchitectureParams = field(default_factory=ArchitectureParams)
    method: str = "mva"  # "mva" | "sim"
    sim_requests: int = 40_000
    sim_seed: int = 1234
    #: Defaults to the one shared :data:`DEFAULT_SOLVER` (frozen, so
    #: sharing is safe), which keeps the batch engine's solver grouping
    #: an identity lookup.
    solver: FixedPointSolver = DEFAULT_SOLVER
    #: DES backend for ``method="sim"`` cells: ``"scalar"`` (the
    #: single-seed reference engine) or ``"vector"`` (the lockstep
    #: multi-replication engine; ``sim_requests`` is then *per
    #: replication* and the cell's CI is the across-replication band).
    sim_engine: str = "scalar"
    #: Replication count for ``sim_engine="vector"`` (seeds are
    #: ``sim_seed + r``); must be 1 on the scalar engine.
    sim_reps: int = 1

    def __post_init__(self) -> None:
        if self.method not in ("mva", "sim"):
            raise ValueError(f"method must be 'mva' or 'sim', got {self.method!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n!r}")
        if self.sim_engine not in SIM_ENGINES:
            raise ValueError(f"sim_engine must be one of {SIM_ENGINES}, "
                             f"got {self.sim_engine!r}")
        if self.sim_reps < 1:
            raise ValueError(f"sim_reps must be >= 1, got {self.sim_reps!r}")
        if self.sim_engine == "scalar" and self.sim_reps != 1:
            raise ValueError("sim_reps > 1 requires sim_engine='vector'")

    def sim_config(self) -> SimulationConfig:
        """The simulation configuration a ``method="sim"`` cell runs."""
        return SimulationConfig(
            n_processors=self.n, workload=self.workload,
            protocol=self.protocol, arch=self.arch,
            seed=self.sim_seed, measured_requests=self.sim_requests)

    def vector_cell(self) -> tuple[SimulationConfig, list[int]]:
        """The ``(config, seeds)`` cell a vector-engine task adds to a
        lockstep launch (seeds ``sim_seed + r``, as in ``simulate``)."""
        return (self.sim_config(),
                [self.sim_seed + r for r in range(self.sim_reps)])

    @property
    def key(self) -> str:
        """Content-addressed cache key of this evaluation (memoized:
        the executor, cache and sweep queue all ask repeatedly)."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = task_key(self)
            object.__setattr__(self, "_key", cached)
        return cached


@dataclass(frozen=True)
class FailedCell:
    """The structured record of one cell that could not be solved."""

    index: int
    protocol: str
    sharing: str
    n_processors: int
    method: str
    error_type: str
    message: str
    attempts: int = 1
    #: Damping factors the MVA recovery ladder attempted before giving
    #: up (empty for simulation cells).
    ladder: tuple[float, ...] = ()

    def describe(self) -> str:
        """One line for stderr summaries and logs."""
        ladder = (f" after damping ladder {list(self.ladder)}"
                  if self.ladder else "")
        attempts = (f" ({self.attempts} attempts)"
                    if self.attempts > 1 else "")
        return (f"{self.protocol} {self.sharing} N={self.n_processors} "
                f"[{self.method}]: {self.error_type}: "
                f"{self.message}{ladder}{attempts}")

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "protocol": self.protocol,
            "sharing": self.sharing,
            "n_processors": self.n_processors,
            "method": self.method,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "ladder": list(self.ladder),
        }


class CellFailedError(RuntimeError):
    """Raised by a ``strict`` sweep on the first unsolvable cell."""

    def __init__(self, failure: FailedCell):
        super().__init__(failure.describe())
        self.failure = failure


def tasks_for_spec(spec: GridSpec,
                   workload_for: Callable[[SharingLevel], WorkloadParameters]
                   = appendix_a_workload) -> list[CellTask]:
    """Expand a grid spec into tasks in the canonical sweep order."""
    tasks: list[CellTask] = []
    for protocol in spec.protocols:
        for level in spec.sharing_levels:
            workload = workload_for(level)
            for n in spec.sizes:
                tasks.append(CellTask(
                    protocol=protocol, sharing_label=level.label,
                    workload=workload, n=n, arch=spec.arch))
                if spec.include_simulation:
                    tasks.append(CellTask(
                        protocol=protocol, sharing_label=level.label,
                        workload=workload, n=n, arch=spec.arch,
                        method="sim", sim_requests=spec.sim_requests,
                        sim_seed=spec.sim_seed + n,
                        sim_engine=spec.sim_engine,
                        sim_reps=spec.sim_reps))
    return tasks


def evaluate_task(task: CellTask) -> dict[str, Any]:
    """Solve one cell; the per-cell scalar reference.

    Production solves MVA cells through :func:`solve_mva_cells` and
    simulation cells through :func:`solve_sim_cells`; this readable
    one-cell-at-a-time path is what verify's parity oracle
    (:func:`run_reference`), the golden corpus and the tests hold them
    to, and what scalar-engine simulation cells (and the cells of a
    launch that raised) run.

    Returns the cache value: the ``GridCell`` row under ``"cell"`` plus
    solve metadata -- ``elapsed_s``; ``iterations``, ``damping``,
    ``recovered`` and ``warnings`` for MVA cells (the recovery-ladder
    diagnostics); ``effective_seed`` for simulation cells (the seed
    that actually produced the sample, which a retry may have bumped).
    """
    started = time.perf_counter()
    if task.method == "mva":
        model = CacheMVAModel(task.workload, task.protocol, arch=task.arch,
                              solver=task.solver)
        report = model.solve(task.n, recovery=True)
        cell = GridCell(
            protocol=task.protocol.label,
            sharing=task.sharing_label,
            n_processors=task.n,
            speedup=report.speedup,
            u_bus=report.u_bus,
            w_bus=report.w_bus,
            cycle_time=report.cycle_time,
            processing_power=report.processing_power,
        )
        return {
            "cell": cell.as_row(),
            "iterations": report.iterations,
            "damping": report.damping,
            "recovered": report.recovered,
            "warnings": [w.as_dict() for w in report.warnings],
            "elapsed_s": time.perf_counter() - started,
        }
    if task.sim_engine == "scalar":
        result = simulate(task.sim_config())
    else:
        result = simulate(task.sim_config(), engine=task.sim_engine,
                          reps=task.sim_reps)
    return _sim_value(task, result, time.perf_counter() - started)


def _sim_value(task: CellTask, result: SimulationResult,
               elapsed_s: float) -> dict[str, Any]:
    """The cache value of one simulated cell (before ``attempts``)."""
    cell = GridCell(
        protocol=task.protocol.label,
        sharing=task.sharing_label,
        n_processors=task.n,
        speedup=result.speedup,
        u_bus=result.u_bus,
        w_bus=result.w_bus,
        cycle_time=result.mean_cycle_time,
        processing_power=result.processing_power,
        method="sim",
        sim_ci=result.speedup_ci_halfwidth,
    )
    value: dict[str, Any] = {
        "cell": cell.as_row(),
        "iterations": None,
        "effective_seed": task.sim_seed,
        "elapsed_s": elapsed_s,
    }
    if task.sim_engine != "scalar":
        value["sim_engine"] = task.sim_engine
        value["sim_reps"] = task.sim_reps
    return value


def evaluate_mva_batch(tasks: Sequence[CellTask]) -> list[dict[str, Any]]:
    """Solve many MVA cells with one vectorized fixed point per batch.

    The batched mirror of calling :func:`evaluate_task` on each cell
    (and the engine behind :func:`solve_mva_cells`):
    returns the same cache-value dicts, in task order, with the same
    per-cell failure isolation (an unsolvable cell becomes an
    ``{"error": {...}}`` payload carrying the scalar solver's message
    and ladder diagnostics).  Cells are grouped by solver settings --
    one :func:`repro.core.batch.solve_batch` call per distinct solver --
    so heterogeneous task lists stay correct.  ``elapsed_s`` is the
    batch wall-clock amortized over its cells (the quantity the latency
    histogram means under this engine).

    Derivation is grid-wise, not cell-wise: each (workload, protocol,
    arch) combination derives its model inputs once, the Appendix-B
    interference quantities are computed for all of its sizes in one
    pass (:meth:`repro.workload.derived.DerivedInputs
    .cache_interference_many`), and the coefficient vectors feed
    :meth:`repro.core.batch.BatchEquationSystem.from_arrays` directly
    -- no per-cell ``EquationSystem`` objects on this path.
    """
    started = time.perf_counter()
    import numpy as np

    from repro.core.batch import BatchEquationSystem, solve_batch

    count = len(tasks)
    values: list[dict[str, Any] | None] = [None] * count
    # Identity memos in front of the value-keyed groupings: task lists
    # usually share their workload, protocol, arch and solver instances,
    # and hashing dataclasses per cell costs more than the whole
    # grouping pass.
    model_groups: dict[tuple[Any, ...], list[int]] = {}
    model_memo: dict[tuple[int, int, int], list[int]] = {}
    for index, task in enumerate(tasks):
        if task.method != "mva":
            raise ValueError("evaluate_mva_batch only accepts MVA cells, "
                             f"got {task.method!r}")
        identity = (id(task.workload), id(task.protocol), id(task.arch))
        group = model_memo.get(identity)
        if group is None:
            group = model_groups.setdefault(
                (task.workload, task.protocol, task.arch), [])
            model_memo[identity] = group
        group.append(index)

    arrays = {name: np.empty(count)
              for name in BatchEquationSystem._FIELDS}
    labels: list[str] = [""] * count
    solver_groups: dict[FixedPointSolver, list[int]] = {}
    solver_memo: dict[int, list[int]] = {}
    every = list(range(count))

    def selector(indices: list[int]) -> Any:
        # A group holding every task in order (one request's curve) is
        # a plain slice: no index-array conversion per column.
        return slice(None) if indices == every else np.asarray(indices)

    for (workload, protocol, arch), indices in model_groups.items():
        try:
            model = CacheMVAModel(workload, protocol, arch=arch)
            inputs = model.inputs
            sizes = [tasks[i].n for i in indices]
            cells_ci = inputs.cache_interference_many(sizes)
        except Exception as exc:  # noqa: BLE001 - isolate bad cells
            elapsed = time.perf_counter() - started
            for index in indices:
                values[index] = _error_payload(tasks[index], exc, 1, elapsed)
            continue
        label = protocol.label
        base = {
            "tau": inputs.workload.tau,
            "t_supply": inputs.arch.t_supply,
            "p_local": inputs.p_local,
            "p_bc": inputs.p_bc,
            "p_rr": inputs.p_rr,
            "t_bc": inputs.t_bc,
            "t_read": inputs.t_read,
            "d_mem": inputs.arch.memory_latency,
            "memory_modules": inputs.arch.memory_modules,
            "memory_ops": inputs.memory_ops_per_request(),
        }
        select = selector(indices)
        for name, value in base.items():
            arrays[name][select] = value
        arrays["n"][select] = sizes
        arrays["p_interference"][select] = [ci.p for ci in cells_ci]
        arrays["p_prime"][select] = [ci.p_prime for ci in cells_ci]
        arrays["t_interference"][select] = \
            [ci.t_interference for ci in cells_ci]
        for index in indices:
            labels[index] = label
            solver = tasks[index].solver
            group = solver_memo.get(id(solver))
            if group is None:
                group = solver_groups.setdefault(solver, [])
                solver_memo[id(solver)] = group
            group.append(index)

    for solver, indices in solver_groups.items():
        select = selector(indices)
        batch_system = BatchEquationSystem.from_arrays(
            {name: column[select] for name, column in arrays.items()})
        batch = solve_batch(batch_system, solver=solver, traces=False)
        # The row dicts are built straight from the result's columns
        # (field-for-field what ``GridCell.as_row()`` emits, with the
        # measures computed exactly like ``PerformanceReport``: the
        # committed ``r_total`` row is ``response.total`` bit for bit);
        # the consumer side reads them like a cache hit.  Only a cell
        # that did not converge builds its diagnostics, for the
        # ``SolverError`` payload.
        n = batch_system.n
        tau = batch_system.tau
        cycle_time = batch.column("r_total")
        with np.errstate(all="ignore"):
            speedups = (n * (tau + batch_system.t_supply)
                        / cycle_time).tolist()
            powers = (n * tau / cycle_time).tolist()
        # Each cell's damping is the ladder's own float (one shared
        # object per rung, as in the scalar diagnostics).
        dampings = [batch.ladder[rung] for rung in batch.rung.tolist()]
        columns = zip(indices, speedups, powers,
                      np.minimum(batch.column("u_bus"), 1.0).tolist(),
                      batch.column("w_bus").tolist(), cycle_time.tolist(),
                      batch.iterations.tolist(), dampings,
                      batch.recovered.tolist(), batch.converged.tolist(),
                      batch.warned.tolist())
        for position, (index, speedup, power, u_bus, w_bus, cycle,
                       iterations, damping, recovered, converged,
                       warned) in enumerate(columns):
            task = tasks[index]
            if not converged:
                diagnostics = batch.diagnostic(position)
                exc = SolverError(
                    "fixed point not reached after damping ladder "
                    f"{list(diagnostics.ladder)} ({diagnostics.iterations} "
                    "total sweeps, residual "
                    f"{diagnostics.final_residual:.3e})",
                    diagnostics=diagnostics)
                values[index] = _error_payload(task, exc, 1, 0.0)
                continue
            values[index] = {
                "cell": {
                    "protocol": labels[index],
                    "sharing": task.sharing_label,
                    "n_processors": task.n,
                    "speedup": speedup,
                    "u_bus": u_bus,
                    "w_bus": w_bus,
                    "cycle_time": cycle,
                    "processing_power": power,
                    "method": "mva",
                    "sim_ci": None,
                    "error": None,
                },
                "iterations": iterations,
                "damping": damping,
                "recovered": recovered,
                "warnings": ([w.as_dict() for w in batch.warnings(position)]
                             if warned else []),
                "elapsed_s": 0.0,
            }

    elapsed = time.perf_counter() - started
    share = elapsed / len(tasks) if tasks else 0.0
    for value in values:
        assert value is not None
        if "error" not in value:
            value["elapsed_s"] = share
        value["attempts"] = 1
    return values  # type: ignore[return-value]


def _error_payload(task: CellTask, exc: Exception, attempts: int,
                   elapsed_s: float) -> dict[str, Any]:
    """The structured error value a worker returns for a dead cell."""
    info: dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "method": task.method,
    }
    diagnostics = getattr(exc, "diagnostics", None)
    if diagnostics is not None:  # SolverError carries the ladder record
        info["ladder"] = list(diagnostics.ladder)
        info["iterations"] = diagnostics.iterations
        info["warnings"] = [w.as_dict() for w in diagnostics.warnings]
    return {"error": info, "attempts": attempts, "elapsed_s": elapsed_s}


def evaluate_with_retry(task: CellTask, retries: int) -> dict[str, Any]:
    """Worker entry point: never raises; failures become error payloads.

    Failing *simulation* cells are retried with a deterministically
    perturbed seed so a numerically pathological draw is not replayed
    verbatim; the value records the ``effective_seed`` that produced
    the returned sample.  MVA cells get exactly one attempt here --
    their retry story is the solver's damping ladder inside
    :func:`evaluate_task`, because they are pure functions of the task.

    A cell that exhausts its attempts returns ``{"error": {...}}``
    (type, message, attempts, and the solver's ladder diagnostics when
    available) instead of raising, so one dead cell cannot take down a
    sweep.
    """
    started = time.perf_counter()
    attempts = retries + 1 if task.method == "sim" else 1
    last_error: Exception | None = None
    for attempt in range(attempts):
        attempt_task = task
        if attempt > 0:
            attempt_task = CellTask(
                protocol=task.protocol, sharing_label=task.sharing_label,
                workload=task.workload, n=task.n, arch=task.arch,
                method=task.method, sim_requests=task.sim_requests,
                sim_seed=task.sim_seed + attempt * _RETRY_SEED_STRIDE,
                solver=task.solver, sim_engine=task.sim_engine,
                sim_reps=task.sim_reps)
        try:
            value = evaluate_task(attempt_task)
        except Exception as exc:  # noqa: BLE001 - isolate failing cells
            last_error = exc
            continue
        value["attempts"] = attempt + 1
        if attempt > 0:
            value["retried_after"] = repr(last_error)
        return value
    assert last_error is not None
    return _error_payload(task, last_error, attempts,
                          time.perf_counter() - started)


def solve_mva_cells(tasks: Sequence[CellTask]) -> list[dict[str, Any]]:
    """The production MVA path, shared by the executor, the request
    coalescer and the sweep-queue workers.

    One :func:`evaluate_mva_batch` call; only if the batch engine dies
    wholesale (not a per-cell failure -- those come back as error
    payloads) are the cells re-run through the per-cell reference, so
    a batch can never lose a cell the reference would have solved.
    """
    try:
        return evaluate_mva_batch(tasks)
    except Exception:  # noqa: BLE001 - engine fallback, not cell errors
        return [evaluate_with_retry(task, 0) for task in tasks]


def _launched(task: CellTask) -> bool:
    return task.method == "sim" and task.sim_engine == "vector"


def sim_launches(tasks: Sequence[CellTask]) -> list[list[int]]:
    """How simulation ``tasks`` are run, as lists of task indices.

    One list per merged lockstep launch of vector-engine cells (as
    :func:`repro.sim.vector.plan_launches` packs them) and one
    single-index list per scalar-engine cell, ordered by each list's
    first task.
    """
    vector = [i for i, task in enumerate(tasks) if _launched(task)]
    launches = [[vector[j] for j in launch] for launch in plan_launches(
        [tasks[i].vector_cell() for i in vector])]
    launches += [[i] for i, task in enumerate(tasks) if not _launched(task)]
    return sorted(launches)


def simulate_launch(tasks: Sequence[CellTask]) -> list[SimulationResult]:
    """Simulate one :func:`sim_launches` entry, one result per task.

    Vector-engine tasks run as one merged lockstep launch, each cell's
    replications folded by
    :meth:`~repro.sim.vector.VectorSimulationResult.aggregate` -- what
    a per-cell ``simulate(config, engine="vector", reps=...)`` returns,
    bit for bit.  A scalar-engine task runs on its own.
    """
    if _launched(tasks[0]):
        launch = VectorSnoopingBusSimulator.from_cells(
            [task.vector_cell() for task in tasks])
        return [result.aggregate() for result in launch.run()]
    return [simulate(task.sim_config()) for task in tasks]


def iter_sim_cells(tasks: Sequence[CellTask],
                   retries: int = _SIM_RETRIES,
                   ) -> Iterator[list[tuple[int, dict[str, Any]]]]:
    """Solve simulation ``tasks`` one :func:`sim_launches` entry at a
    time, yielding ``(task index, value)`` pairs after each.

    A vector launch runs through :func:`simulate_launch`.  Scalar-engine
    cells, and every cell of a launch that raises, go through
    :func:`evaluate_with_retry` one by one, so retry seeds,
    ``attempts`` and ``retried_after`` are exactly the per-cell path's.
    The values equal ``evaluate_with_retry(task, retries)`` except
    ``elapsed_s``, which for a launched cell is the launch wall time
    amortized over its cells.
    """
    for indices in sim_launches(tasks):
        yield list(zip(indices, _solve_launch(
            [tasks[i] for i in indices], retries)))


def _solve_launch(launch: list[CellTask],
                  retries: int) -> list[dict[str, Any]]:
    if _launched(launch[0]):
        started = time.perf_counter()
        try:
            results = simulate_launch(launch)
        except Exception:  # noqa: BLE001 - these cells fall back below
            pass
        else:
            share = (time.perf_counter() - started) / len(launch)
            return [dict(_sim_value(task, result, share), attempts=1)
                    for task, result in zip(launch, results)]
    return [evaluate_with_retry(task, retries) for task in launch]


def solve_sim_cells(tasks: Sequence[CellTask],
                    retries: int = _SIM_RETRIES) -> list[dict[str, Any]]:
    """The production simulation path, shared by the executor, the
    request coalescer and the sweep-queue workers: every value of
    :func:`iter_sim_cells`, in task order."""
    values = dict(pair for solved in iter_sim_cells(tasks, retries)
                  for pair in solved)
    return [values[index] for index in range(len(tasks))]


@dataclass
class ExecutorSummary:
    """What one sweep cost and where the answers came from."""

    total: int
    solved: int
    cache_hits: int
    retries: int
    wall_seconds: float
    jobs: int
    #: How the fresh cells were solved: "batch" for MVA cells, then
    #: "serial", "chunked" or "chunked-inprocess" for simulation cells,
    #: joined with "+" when a sweep has both ("serial" when nothing
    #: needed solving; the service reports "coalesced" and verify's
    #: oracle "reference").
    mode: str
    failed: int = 0
    recovered: int = 0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def line(self) -> str:
        """One-line human-readable summary (CLI stderr, bench output)."""
        extras = ""
        if self.recovered:
            extras += f", {self.recovered} recovered"
        if self.failed:
            extras += f", {self.failed} failed"
        return (f"{self.total} cells: {self.solved} solved, "
                f"{self.cache_hits} cached ({self.cache_hit_rate:.0%} hit "
                f"rate), {self.retries} retried{extras}; "
                f"{self.wall_seconds:.3f}s wall, jobs={self.jobs} "
                f"({self.mode})")


#: ``GridCell.as_row()``'s keys, in its order.
_ROW_FIELDS = tuple(f.name for f in fields(GridCell))


@dataclass(frozen=True)
class SweepResult:
    """Cells in task order plus per-cell provenance and the summary.

    Holds the per-cell worker values (the cache values) as returned;
    ``cells`` and ``meta`` are derived from them on first access, and
    :meth:`rows` renders the row dicts straight from them, so a caller
    that only needs rows (the ``/v1/solve`` response) never builds a
    :class:`GridCell`.
    """

    tasks: Sequence[CellTask]
    #: Per-cell worker values in task order (the ``GridCell`` row under
    #: ``"cell"``, or an ``"error"`` payload, plus solve metadata).
    values: list[dict[str, Any]]
    cached: list[bool]
    summary: ExecutorSummary
    #: Structured records of the cells that could not be solved (empty
    #: for a clean sweep); each also appears in ``cells`` as an error
    #: row at its task-order position.
    failures: list[FailedCell] = field(default_factory=list)

    def rows(self) -> list[dict[str, Any]]:
        """Each cell's ``GridCell.as_row()`` dict, in task order (fresh
        dicts: callers may extend them)."""
        failed = {failure.index: failure for failure in self.failures}
        rows = []
        for index, value in enumerate(self.values):
            failure = failed.get(index)
            if failure is None:
                cell = value["cell"]
                rows.append({name: cell[name] for name in _ROW_FIELDS})
                continue
            task = self.tasks[index]
            rows.append(GridCell.failed(
                protocol=task.protocol.label,
                sharing=task.sharing_label,
                n_processors=task.n,
                method=task.method,
                error=f"{failure.error_type}: {failure.message}").as_row())
        return rows

    @cached_property
    def cells(self) -> list[GridCell]:
        """The rows as :class:`GridCell` objects (built on first access;
        failed cells are error rows)."""
        return [GridCell(**row) for row in self.rows()]

    @cached_property
    def meta(self) -> list[dict[str, Any]]:
        """Per-cell solve metadata in task order (everything the worker
        returned except the row itself: attempts, effective_seed,
        iterations, damping ladder diagnostics, ...)."""
        return [{k: v for k, v in value.items() if k != "cell"}
                for value in self.values]


def failed_cell(index: int, task: CellTask,
                value: dict[str, Any]) -> FailedCell:
    """The structured failure record for one error-payload value."""
    error = value["error"]
    return FailedCell(
        index=index,
        protocol=task.protocol.label,
        sharing=task.sharing_label,
        n_processors=task.n,
        method=task.method,
        error_type=str(error.get("type", "Exception")),
        message=str(error.get("message", "")),
        attempts=int(value.get("attempts", 1)),
        ladder=tuple(error.get("ladder", ())))


def collect_sweep_result(tasks: Sequence[CellTask],
                         values: dict[int, dict[str, Any]],
                         cached_flags: Sequence[bool], *,
                         wall_seconds: float, jobs: int,
                         mode: str) -> SweepResult:
    """Assemble a :class:`SweepResult` from per-cell worker values.

    The shared consumer-side tail of every solve path (batch, serial,
    chunked queue, the request coalescer and the reference): error
    payloads become error rows plus :class:`FailedCell` records,
    everything else a :class:`GridCell`, in task order.
    """
    ordered = [values[index] for index in range(len(tasks))]
    failures = [failed_cell(index, task, value)
                for index, (task, value) in enumerate(zip(tasks, ordered))
                if value.get("error") is not None]
    fresh = [value for value, cached in zip(ordered, cached_flags)
             if not cached]
    retries = sum(max(value.get("attempts", 1) - 1, 0) for value in fresh)
    recovered = sum(1 for value in fresh if value.get("recovered"))
    summary = ExecutorSummary(
        total=len(tasks), solved=len(fresh),
        cache_hits=sum(cached_flags), retries=retries,
        wall_seconds=wall_seconds, jobs=jobs, mode=mode,
        failed=len(failures), recovered=recovered)
    return SweepResult(tasks=tasks, values=ordered,
                       cached=list(cached_flags), summary=summary,
                       failures=failures)


def run_reference(tasks: Sequence[CellTask]) -> SweepResult:
    """Solve ``tasks`` one by one through the scalar reference.

    :func:`evaluate_with_retry` per cell (with the executor's default
    retry count), uncached, failures isolated
    into error rows: the oracle that verify's zero-tolerance
    ``engine-parity`` check and the tests compare production
    (:meth:`SweepExecutor.run`) against.
    """
    started = time.perf_counter()
    values = {index: evaluate_with_retry(task, _SIM_RETRIES)
              for index, task in enumerate(tasks)}
    return collect_sweep_result(
        tasks, values, [False] * len(tasks),
        wall_seconds=time.perf_counter() - started, jobs=1,
        mode="reference")


def record_failure_metric(metrics: MetricsRegistry | None,
                          task: CellTask) -> None:
    """Count one dead cell (shared by the executor and the coalescer)."""
    if metrics is None:
        return
    metrics.counter(
        "repro_cells_failed_total",
        "Cells that exhausted every retry/recovery path.",
    ).labels(method=task.method).inc()


def record_solve_metrics(metrics: MetricsRegistry | None, task: CellTask,
                         value: dict[str, Any]) -> None:
    """Record one fresh solve (a one-cell
    :func:`record_solve_metrics_batch`)."""
    _record_solved(metrics, [(task, value)])


def record_solve_metrics_batch(
        metrics: MetricsRegistry | None,
        solved: Sequence[tuple[CellTask, dict[str, Any]]]) -> None:
    """Record a batch of fresh solves in one pass.

    The one recorder behind the executor and the coalescer -- a
    coalesced cell is indistinguishable from an executor cell on a
    dashboard -- with the registry/label lookups paid once per batch
    instead of once per cell, which matters on the coalescer's flusher
    thread where a batch is hundreds of cells.
    """
    _record_solved(metrics, solved)


def _record_solved(metrics: MetricsRegistry | None,
                   solved: Sequence[tuple[CellTask, dict[str, Any]]]) -> None:
    # The body of both public recorders.  They call it directly rather
    # than one calling the other, so a call through either public name
    # is one call (one profiler/tracer span), never two nested ones.
    if metrics is None or not solved:
        return
    solved_family = metrics.counter(
        "repro_cells_solved_total",
        "Cells solved fresh (not served from cache).")
    latency_family = metrics.histogram(
        "repro_solve_latency_seconds",
        "Per-cell solve wall time.")
    by_method: dict[str, int] = {}
    retries = 0
    recovered = 0
    iteration_values: list[float] = []
    latency_children: dict[str, Any] = {}
    for task, value in solved:
        method = task.method
        by_method[method] = by_method.get(method, 0) + 1
        child = latency_children.get(method)
        if child is None:
            child = latency_children[method] = (
                latency_family.labels(method=method))
        child.observe(value.get("elapsed_s", 0.0))
        retries += max(value.get("attempts", 1) - 1, 0)
        if value.get("recovered"):
            recovered += 1
        iterations = value.get("iterations")
        if iterations is not None:
            iteration_values.append(iterations)
    for method, count in by_method.items():
        solved_family.labels(method=method).inc(count)
    if retries:
        metrics.counter(
            "repro_sim_retries_total",
            "Simulation cells that needed retry attempts.").inc(retries)
    if recovered:
        metrics.counter(
            "repro_cells_recovered_total",
            "MVA cells rescued by the damping ladder.").inc(recovered)
    if iteration_values:
        iteration_hist = metrics.histogram(
            "repro_solver_iterations",
            "Fixed-point sweeps to convergence (MVA cells).",
            buckets=DEFAULT_ITERATION_BUCKETS).labels()
        for iterations in iteration_values:
            iteration_hist.observe(iterations)


class SweepExecutor:
    """Runs cell tasks through the cache, the batch MVA engine and (for
    simulation cells) the sweep queue.

    Parameters
    ----------
    jobs:
        Worker processes for *simulation* cells: ``jobs>1`` fans them
        out through the :class:`repro.sweepq.SweepQueue` (capped at the
        machine's core count), ``1`` (default) runs them serially
        in-process.  MVA cells are never forked: one in-process
        vectorized call beats chunked workers on every grid measured.
    cache:
        Optional :class:`ResultCache`; flushed after every fresh cell
        is stored (cells are stored once their batch solve or launch has
        returned) and once more at the end of the sweep.
    metrics:
        Optional :class:`MetricsRegistry` fed with cache hit/miss
        counters, per-cell solve latency, MVA
        iterations-to-convergence histograms and failure/recovery
        counters.
    sim_retries:
        Extra attempts for failing simulation cells (per cell).
    strict:
        If True, the first unsolvable cell raises
        :class:`CellFailedError` (the historical behaviour).  The
        default isolates failures into per-cell error rows.
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None,
                 metrics: MetricsRegistry | None = None,
                 sim_retries: int = _SIM_RETRIES, strict: bool = False):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        if sim_retries < 0:
            raise ValueError(f"sim_retries must be >= 0, got {sim_retries!r}")
        self.jobs = jobs
        self.cache = cache
        self.metrics = metrics
        self.sim_retries = sim_retries
        self.strict = strict

    # -- public API ------------------------------------------------------

    def run_spec(self, spec: GridSpec,
                 workload_for: Callable[[SharingLevel], WorkloadParameters]
                 = appendix_a_workload) -> SweepResult:
        """Expand ``spec`` and run every cell."""
        return self.run(tasks_for_spec(spec, workload_for))

    def run(self, tasks: Sequence[CellTask]) -> SweepResult:
        """Evaluate ``tasks``; results come back in task order."""
        started = time.perf_counter()
        values: dict[int, dict[str, Any]] = {}
        cached_flags = [False] * len(tasks)
        pending: list[tuple[int, CellTask]] = []
        for index, task in enumerate(tasks):
            hit = self.cache.get(task.key) if self.cache is not None else None
            if hit is not None:
                values[index] = hit
                cached_flags[index] = True
            else:
                pending.append((index, task))
        self._count("repro_cache_hits_total",
                    "Sweep cells answered from the result cache.",
                    sum(cached_flags))
        self._count("repro_cache_misses_total",
                    "Sweep cells that required a fresh solve.", len(pending))

        mva = [(i, t) for i, t in pending if t.method == "mva"]
        sims = [(i, t) for i, t in pending if t.method != "mva"]
        modes: list[str] = []
        try:
            if mva:
                results = solve_mva_cells([task for _, task in mva])
                for (index, task), value in zip(mva, results):
                    values[index] = self._absorb(task, index, value)
                modes.append("batch")
            if sims:
                modes.append(self._run_sims(sims, values))
        finally:
            # Belt and braces: per-solve flushes already persisted every
            # completed cell, but make sure nothing dirty is left behind
            # even when a strict sweep raises mid-flight.
            if self.cache is not None:
                self.cache.flush()

        return collect_sweep_result(
            tasks, values, cached_flags,
            wall_seconds=time.perf_counter() - started,
            jobs=self.jobs, mode="+".join(modes) or "serial")

    # -- internals -------------------------------------------------------

    def _run_sims(self, pending: list[tuple[int, CellTask]],
                  values: dict[int, dict[str, Any]]) -> str:
        """Solve the simulation cells: through the sweep queue when
        ``jobs>1`` allows it, serially otherwise -- or when the queue
        dies wholesale, so the fallback chain is chunked -> serial."""
        if self.jobs > 1 and len(pending) > 1:
            mode = self._run_chunked(pending, values)
            if mode is not None:
                return mode
        # Each launch's cells are stored (and flushed) as soon as it
        # returns, so an interrupt loses at most the launch in flight.
        for solved in iter_sim_cells([task for _, task in pending],
                                     self.sim_retries):
            for position, value in solved:
                index, task = pending[position]
                values[index] = self._absorb(task, index, value)
        return "serial"

    def _run_chunked(self, pending: list[tuple[int, CellTask]],
                     values: dict[int, dict[str, Any]]) -> str | None:
        """Fan out over an ephemeral sharded sweep queue.

        The queue writes fresh solves through the executor's cache
        itself, so ``_absorb`` here only records metrics and the
        strict-mode check.  Returns the queue's mode, or ``None`` if the
        queue died wholesale (no cell has been absorbed then).

        Worker processes are capped at the machine's core count:
        surplus workers on a saturated machine only add fork, journal
        and supervision overhead."""
        tasks = [task for _, task in pending]
        workers = max(1, min(self.jobs, os.cpu_count() or 1))
        queue = None
        try:
            from repro.sweepq import SweepQueue, auto_chunk_size

            queue = SweepQueue(
                cache=self.cache, metrics=self.metrics,
                chunk_size=auto_chunk_size(len(tasks), workers),
                sim_retries=self.sim_retries)
            outcome = queue.run_tasks(tasks, workers=workers,
                                      precheck_cache=False)
        except Exception:  # noqa: BLE001 - queue fallback, not cell errors
            return None
        finally:
            if queue is not None:
                queue.close()
        for (index, task), value in zip(pending, outcome.values):
            values[index] = self._absorb(task, index, value, store=False)
        return outcome.mode

    def _absorb(self, task: CellTask, index: int,
                value: dict[str, Any],
                store: bool = True) -> dict[str, Any]:
        """Record one fresh result: metrics, cache (with an incremental
        flush), and the strict-mode failure check.  ``store=False``
        skips the cache write (the chunked queue already persisted the
        value itself)."""
        if value.get("error") is not None:
            record_failure_metric(self.metrics, task)
            if self.strict:
                raise CellFailedError(failed_cell(index, task, value))
            return value
        if store and self.cache is not None:
            self.cache.put(task.key, value)
            self.cache.flush()
        record_solve_metrics(self.metrics, task, value)
        return value

    def _count(self, name: str, help_text: str, amount: int) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name, help_text).inc(amount)
