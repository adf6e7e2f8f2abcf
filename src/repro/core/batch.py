"""Batched, vectorized fixed-point iteration over many model cells.

The paper's efficiency claim is that one MVA fixed point costs "seconds
of computing, independent of N".  A design-space sweep multiplies that
cost by (protocols x sharing x sizes); this module removes the
multiplier by stacking the per-cell iterated quantities (``w_bus``,
``w_mem``, ``q_bus``, ``n_interference``) into ``(cells,)`` NumPy arrays
and performing **one** vectorized sweep for the entire grid per
iteration.

Semantics mirror the scalar engine cell for cell:

* the per-sweep arithmetic is the same equation system
  (:class:`repro.core.equations.EquationSystem.step`), read from the
  shared :class:`repro.core.equations.StepCoefficients` extraction so
  the two engines cannot drift apart;
* **per-cell convergence masking** -- a converged cell freezes (its
  state is snapshotted the sweep it converges) while the remaining
  cells keep iterating;
* **per-cell damping and recovery** -- cells that do not converge
  within ``max_iterations`` sweeps advance down the same escalating
  damping ladder as
  :meth:`repro.core.solver.FixedPointSolver.solve_with_recovery`,
  warm-started from their last iterate, while already-converged cells
  keep their first-rung result;
* per-cell outcomes come back as **columns** in a
  :class:`BatchSolveResult` (iterations, convergence, ladder rung,
  final residual, the frozen state matrix).  Its per-cell
  :class:`repro.core.solver.SolverDiagnostics` (iterations, ladder,
  damping, recovery and saturation-knee warnings, final-rung traces)
  and :class:`repro.core.equations.ModelState` objects are built
  *lazily*, on first access, and equal what a scalar solve records, so
  downstream consumers -- ``GridCell`` rows, metrics, failure records
  -- are drop-in identical.  Callers that only need a few columns (the
  executor's cache values) never pay for the per-cell objects.

Because the iteration is lockstep, rung boundaries are global: every
live cell has performed the same number of sweeps in its current rung,
exactly as if each cell had been solved alone.

Hot-path notes: every quantity that does not change between sweeps
(the ``p' ~ 1`` branch mask of equation 13, the queue-length ``N - 1``
factor, the constant products of equations 9-12) is precomputed at
batch construction, and a sweep-invariant branch that no cell takes
costs no NumPy call.  A sweep writes its whole proposal into one
preallocated ``(len(STATE_ROWS), cells)`` matrix (double-buffered
against the committed state), the two ``p_busy`` evaluations (bus and
memory) run as one call on its stacked utilization rows, and the lanes
that converge in a sweep are snapshotted with one stacked write.
Converged lanes are *not* masked out of the sweep -- their state was
already snapshotted the sweep they froze, so whatever they compute
afterwards is simply never read.

The saturation-knee check needs each cell's contraction rate
(:func:`repro.core.solver.estimate_contraction_rate`).  It is computed
for a whole rung at once with NumPy as a screen; the exact scalar
function runs only for cells that carry a warning or whose screened
rate lies within ``1e-9`` of the knee, so every knee decision and every
reported rate is the scalar function's value.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro.core.equations import EquationSystem, ModelState, StepCoefficients
from repro.core.metrics import ResponseBreakdown
from repro.core.solver import (
    DEFAULT_DAMPING_LADDER,
    SATURATION_KNEE_RATE,
    FixedPointSolver,
    SolverDiagnostics,
    SolverWarning,
    estimate_contraction_rate,
)

__all__ = [
    "STATE_ROWS",
    "BatchEquationSystem",
    "BatchSolveResult",
    "solve_batch",
]

#: Tiny positive stand-in used under a ``where`` mask so masked lanes
#: never divide by zero (their results are discarded by the mask).
_SAFE = 1.0

#: Rows of the state matrix a sweep fills: the iterated quantities
#: (rows 0-3; the first three are the damped ones), the pass-through
#: proposal fields of :class:`ModelState`, and ``r_total`` -- the
#: proposed cycle time of equation 1, equal bit for bit to the
#: committed state's ``response.total`` and the convergence-trace entry.
STATE_ROWS = ("w_bus", "w_mem", "q_bus", "n_interference", "u_bus",
              "u_mem", "r_local", "r_broadcast", "r_remote_read", "r_total")
_W_BUS, _W_MEM, _Q_BUS, _N_INTERFERENCE, _U_BUS, _U_MEM, _R_LOCAL, \
    _R_BROADCAST, _R_REMOTE, _R_TOTAL = range(len(STATE_ROWS))
#: Rows compared between sweeps for convergence.
_ITERATED = 4

#: Screened contraction rates closer than this to the knee are
#: recomputed with the exact scalar estimator before deciding.
_KNEE_MARGIN = 1e-9


def _near_one(p_prime: np.ndarray) -> np.ndarray:
    """``np.isclose(p_prime, 1.0, rtol=1e-9, atol=1e-12)``, elementwise
    identical (NaN and infinities are never close) at a fraction of
    its call overhead."""
    return np.abs(p_prime - 1.0) <= 1e-12 + 1e-9 * 1.0


def _p_busy_vec(utilization: np.ndarray, n: np.ndarray,
                multi: np.ndarray | None = None,
                n_f: np.ndarray | None = None) -> np.ndarray:
    """Vectorized equation (8); elementwise identical to ``_p_busy``.

    ``multi``/``n_f`` accept the precomputed ``n > 1`` mask and its
    safe denominator (both sweep invariants) so the solver loop does
    not rebuild them every iteration.
    """
    if multi is None:
        multi = n > 1
    if n_f is None:
        n_f = np.where(multi, n, 2.0)  # masked lanes: any n > 1 works
    u = np.minimum(utilization, n_f)
    own = u / n_f
    denominator = 1.0 - own
    # Lanes at or past saturation (denominator <= 0, or NaN) keep the
    # cap; the others are clamped into [0, cap].  The clamp is
    # ``np.clip``'s (it differs from maximum-then-minimum only on a
    # -0.0 input, and ``u - own`` is never -0.0) at a fraction of its
    # call overhead.
    value = np.full(u.shape, 1.0 - 1e-12)
    np.divide(u - own, denominator, out=value, where=denominator > 0.0)
    np.maximum(value, 0.0, out=value)
    np.minimum(value, 1.0 - 1e-12, out=value)
    return np.where(multi, value, 0.0)


def _n_interference_vec(p: np.ndarray, p_prime: np.ndarray,
                        q_bus: np.ndarray) -> np.ndarray:
    """Vectorized equation (13); elementwise identical to
    :meth:`repro.workload.derived.CacheInterference.n_interference`."""
    zero = (q_bus <= 0.0) | (p <= 0.0)
    near_one = _near_one(p_prime)
    safe_pp = np.where(near_one, 0.5, p_prime)
    general = p * (1.0 - safe_pp ** q_bus) / (1.0 - safe_pp)
    value = np.where(near_one, p * q_bus, general)
    return np.where(zero, 0.0, value)


class BatchEquationSystem:
    """Equations (1)-(13) stacked over many (inputs, N) cells.

    Construct from bound scalar systems (each carries its shared
    :class:`StepCoefficients`); :meth:`step` then advances every cell at
    once.  Coefficient arrays are plain ``(cells,)`` float64 vectors, so
    slicing with an index array (``system.select(keep)``) compacts the
    batch when cells freeze.
    """

    _FIELDS = ("n", "tau", "t_supply", "p_local", "p_bc", "p_rr", "t_bc",
               "t_read", "d_mem", "memory_modules", "memory_ops",
               "p_interference", "p_prime", "t_interference")

    def __init__(self, systems: Sequence[EquationSystem] | None = None,
                 *, coefficients: Sequence[StepCoefficients] | None = None):
        if coefficients is None:
            if systems is None:
                raise ValueError("systems or coefficients required")
            coefficients = [system.coefficients for system in systems]
        if not coefficients:
            raise ValueError("at least one cell required")
        for name in self._FIELDS:
            values = [getattr(c, name) for c in coefficients]
            setattr(self, name, np.asarray(values, dtype=np.float64))
        self.n_cells = len(coefficients)
        self._precompute()

    def _precompute(self) -> None:
        """Sweep invariants, rebuilt after construction or compaction.

        Every product here mirrors the exact operand grouping of the
        scalar :meth:`repro.core.equations.EquationSystem.step` so
        precomputation cannot change a single bit of the iteration.
        """
        self._bus_probability = self.p_bc + self.p_rr
        self._has_bus = self._bus_probability > 0.0
        safe_bus = np.where(self._has_bus, self._bus_probability, _SAFE)
        self._frac_bc = np.where(self._has_bus, self.p_bc / safe_bus, 0.0)
        # (6): the (N - 1) queue factor.
        self._n_minus_1 = self.n - 1.0
        # (9): the read-cycle share of the mean bus service time.
        self._t_bus_read = (1.0 - self._frac_bc) * self.t_read
        # (7): the constant remote-read part of the bus demand.
        self._rr_read = self.p_rr * self.t_read
        # (12): ((n / m) * ops) * d_mem, left-associated like scalar.
        self._mem_factor = self.n / self.memory_modules * self.memory_ops
        self._u_mem_num = self._mem_factor * self.d_mem
        # (8): the N > 1 branch of p_busy.
        self._multi = self.n > 1
        self._n_f = np.where(self._multi, self.n, 2.0)
        # (13): the p' ~ 1 branch selection (p' never changes).  The
        # flags let a sweep skip a branch no cell of the batch takes.
        self._p_zero = self.p_interference <= 0.0
        self._any_p_zero = bool(self._p_zero.any())
        self._pp_near_one = _near_one(self.p_prime)
        self._any_near_one = bool(self._pp_near_one.any())
        self._pp_safe = np.where(self._pp_near_one, 0.5, self.p_prime)
        self._pp_one_minus = 1.0 - self._pp_safe

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "BatchEquationSystem":
        """Build a batch straight from ``(cells,)`` coefficient arrays.

        ``arrays`` must carry every name in ``_FIELDS``.  This is the
        zero-copy construction path for callers (the sweep executor)
        that derive coefficients grid-wise instead of building one
        :class:`EquationSystem` per cell.
        """
        missing = [name for name in cls._FIELDS if name not in arrays]
        if missing:
            raise ValueError(f"missing coefficient arrays: {missing}")
        instance = cls.__new__(cls)
        for name in cls._FIELDS:
            instance.__dict__[name] = np.asarray(arrays[name],
                                                 dtype=np.float64)
        instance.n_cells = int(instance.n.shape[0])
        if instance.n_cells == 0:
            raise ValueError("at least one cell required")
        instance._precompute()
        return instance

    def select(self, keep: np.ndarray) -> "BatchEquationSystem":
        """The sub-batch holding only the cells indexed by ``keep``."""
        return self.from_arrays(
            {name: getattr(self, name)[keep] for name in self._FIELDS})

    def step(self, w_bus: np.ndarray, w_mem: np.ndarray, q_bus: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """One vectorized sweep: previous waiting times -> proposed state.

        Fills and returns a ``(len(STATE_ROWS), cells)`` matrix, one row
        per :data:`STATE_ROWS` name: the batch analogue of the scalar
        :class:`repro.core.equations.ModelState`, plus ``r_total`` (the
        proposed cycle time, equation 1).  ``out`` (optional) receives
        the rows and must not share memory with the inputs.
        """
        if out is None:
            out = np.empty((len(STATE_ROWS), self.n_cells))
        n = self.n
        # --- response times (equations 1-4) ---------------------------
        # (13) with the constant p' branch masks precomputed.
        n_interference = out[_N_INTERFERENCE]
        np.divide(self.p_interference * (1.0 - self._pp_safe ** q_bus),
                  self._pp_one_minus, out=n_interference)
        if self._any_near_one:
            np.copyto(n_interference, self.p_interference * q_bus,
                      where=self._pp_near_one)
        zero = q_bus <= 0.0
        if self._any_p_zero:
            zero |= self._p_zero
        np.copyto(n_interference, 0.0, where=zero)
        r_local = np.multiply(self.p_local * n_interference,
                              self.t_interference, out=out[_R_LOCAL])
        r_broadcast = np.multiply(self.p_bc, w_bus + w_mem + self.t_bc,
                                  out=out[_R_BROADCAST])
        r_remote = np.multiply(self.p_rr, w_bus + self.t_read,
                               out=out[_R_REMOTE])
        r_total = np.add(self.tau, r_local, out=out[_R_TOTAL])
        r_total += r_broadcast
        r_total += r_remote
        r_total += self.t_supply

        # --- bus queueing (equations 5-10) -----------------------------
        q_new = np.multiply(self._n_minus_1, r_broadcast + r_remote,
                            out=out[_Q_BUS])
        q_new /= r_total
        bus_service_bc = w_mem + self.t_bc
        pbc_service = self.p_bc * bus_service_bc
        bus_demand = pbc_service + self._rr_read

        # (8) once for both servers: utilizations stacked as (2, cells).
        u_stack = out[_U_BUS:_U_MEM + 1]
        np.multiply(n, bus_demand, out=u_stack[0])
        u_stack[1] = self._u_mem_num
        u_stack /= r_total
        p_busy = _p_busy_vec(u_stack, n, multi=self._multi, n_f=self._n_f)

        busy = bus_demand > 0.0
        safe_demand = np.where(busy, bus_demand, _SAFE)
        t_bus = self._frac_bc * bus_service_bc + self._t_bus_read
        weight_bc = pbc_service / safe_demand
        t_res = (weight_bc * bus_service_bc / 2.0
                 + (1.0 - weight_bc) * self.t_read / 2.0)
        waiting_others = np.maximum(q_new - p_busy[0], 0.0)
        w_bus_new = np.multiply(waiting_others, t_bus, out=out[_W_BUS])
        w_bus_new += p_busy[0] * t_res
        np.copyto(w_bus_new, 0.0, where=~busy)

        # --- memory interference (equations 11-12) ---------------------
        w_mem_new = np.multiply(p_busy[1], self.d_mem, out=out[_W_MEM])
        w_mem_new /= 2.0
        return out


def _contraction_rates(residuals: np.ndarray,
                       sweeps: np.ndarray, tail: int = 5) -> np.ndarray:
    """:func:`estimate_contraction_rate` for every column at once.

    Column ``j`` of ``residuals`` is one cell's residual trace; only its
    first ``sweeps[j]`` rows count.  Same window (the last ``tail``
    ratios of consecutive residuals above ``1e-14``) and formula, but
    NumPy's ``log``/``exp`` need not match :mod:`math` to the last bit,
    so the result is a screen, not a reported value.
    """
    before, after = residuals[:-1], residuals[1:]
    pair = np.arange(1, residuals.shape[0])[:, None]
    window = (before > 1e-14) & (after > 1e-14) & (pair < sweeps)
    # Keep each column's last ``tail`` valid pairs.
    window &= np.cumsum(window[::-1], axis=0)[::-1] <= tail
    count = np.count_nonzero(window, axis=0)
    # Pairs outside the window contribute log(1) = 0.
    logs = np.divide(after, before, out=np.ones_like(after), where=window)
    np.log(logs, out=logs)
    mean = logs.sum(axis=0) / np.maximum(count, 1)
    return np.where(count > 0, np.exp(mean), 0.0)


class BatchSolveResult:
    """Per-cell outcomes of one batched solve, in input order.

    Stored as columns, one entry per cell: ``iterations`` (total sweeps
    over every rung walked), ``converged``, ``rung`` (index into
    ``ladder`` of the damping factor that produced the result),
    ``final_residual``, ``warned`` (the cell carries at least one
    :class:`SolverWarning`) and ``state``, the committed state matrix
    with one row per :data:`STATE_ROWS` name (:meth:`column` reads one).

    ``states`` and ``diagnostics`` -- the per-cell
    :class:`ModelState` / :class:`SolverDiagnostics` objects a scalar
    solve returns -- are built on first access and cached;
    :meth:`diagnostic` and :meth:`warnings` build one cell's.  Solving
    with ``traces=True`` keeps each rung's residual and cycle-time
    matrices so the diagnostics can carry the final-rung traces.
    """

    def __init__(self, batch: BatchEquationSystem,
                 solver: FixedPointSolver, ladder: Sequence[float],
                 recovery: bool, traces: bool):
        total = batch.n_cells
        self.ladder = tuple(ladder)
        self._max_iterations = solver.max_iterations
        self._recovery = recovery
        self.iterations = np.zeros(total, dtype=np.int64)
        self.converged = np.zeros(total, dtype=bool)
        self.rung = np.zeros(total, dtype=np.int64)
        self.final_residual = np.zeros(total)
        self.warned = np.zeros(total, dtype=bool)
        self.state = np.zeros((len(STATE_ROWS), total))
        self._tau = batch.tau
        self._t_supply = batch.t_supply
        # The exact scalar contraction rate of every warned cell (the
        # other entries stay 0).
        self._rate = np.zeros(total)
        # With traces: rung -> (residual matrix, cycle-time matrix), and
        # each cell's column in its rung's matrices.
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray]] | None = (
            {} if traces else None)
        self._column = np.zeros(total, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.iterations.shape[0])

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    @property
    def recovered(self) -> np.ndarray:
        """Cells that converged only past the first ladder rung."""
        if not self._recovery:
            return np.zeros_like(self.converged)
        return self.converged & (self.rung > 0)

    def column(self, name: str) -> np.ndarray:
        """One committed state field (a :data:`STATE_ROWS` name)."""
        return self.state[STATE_ROWS.index(name)]

    def finalize(self, cells: np.ndarray, columns: np.ndarray,
                 sweeps: np.ndarray, final_residual: np.ndarray,
                 converged: bool, rung: int, frozen: np.ndarray,
                 residual_matrix: np.ndarray,
                 cycle_matrix: np.ndarray | None) -> None:
        """Record the cells frozen in one rung.

        ``cells`` are their input positions, ``columns`` their positions
        in the rung's live sub-batch (the columns of ``frozen`` and of
        the rung's per-sweep ``residual_matrix``), ``sweeps`` the sweeps
        each spent in this rung.
        """
        self.iterations[cells] = rung * self._max_iterations + sweeps
        self.converged[cells] = converged
        self.rung[cells] = rung
        self.final_residual[cells] = final_residual
        self.state[:, cells] = frozen[:, columns]
        if self._blocks is not None:
            assert cycle_matrix is not None
            self._blocks[rung] = (residual_matrix, cycle_matrix)
            self._column[cells] = columns
        if not self._recovery:
            return  # a plain solve records no warnings
        if converged and rung == 0:
            # Only a knee warning is possible: screen every cell at
            # once, and let the exact estimator decide the cells at or
            # near the knee (it also supplies the reported rate).
            rates = _contraction_rates(residual_matrix[:, columns], sweeps)
            exact = np.flatnonzero(
                ~(np.abs(rates - SATURATION_KNEE_RATE) > _KNEE_MARGIN)
                | (rates >= SATURATION_KNEE_RATE)).tolist()
        else:
            exact = range(cells.size)  # every such cell warns
        cell_list, column_list = cells.tolist(), columns.tolist()
        sweep_list = sweeps.tolist()
        for position in exact:
            rate = estimate_contraction_rate(
                residual_matrix[:sweep_list[position],
                                column_list[position]].tolist())
            cell = cell_list[position]
            self._rate[cell] = rate
            self.warned[cell] = (rate >= SATURATION_KNEE_RATE
                                 or not converged or rung > 0)

    @cached_property
    def states(self) -> list[ModelState]:
        """Per-cell committed states (built on first access)."""
        rows = self.state.tolist()
        return [
            ModelState(w_bus=w_bus, w_mem=w_mem, q_bus=q_bus,
                       n_interference=n_interference, u_bus=u_bus,
                       u_mem=u_mem,
                       response=ResponseBreakdown(
                           tau=tau, r_local=r_local,
                           r_broadcast=r_broadcast,
                           r_remote_read=r_remote_read, t_supply=t_supply))
            for (w_bus, w_mem, q_bus, n_interference, u_bus, u_mem,
                 r_local, r_broadcast, r_remote_read, tau, t_supply)
            in zip(*rows[:_R_TOTAL], self._tau.tolist(),
                   self._t_supply.tolist())]

    @cached_property
    def diagnostics(self) -> list[SolverDiagnostics]:
        """Per-cell diagnostics (built on first access)."""
        return [self._diagnostic(cell, iterations, converged, rung, residual)
                for cell, (iterations, converged, rung, residual)
                in enumerate(zip(self.iterations.tolist(),
                                 self.converged.tolist(), self.rung.tolist(),
                                 self.final_residual.tolist()))]

    def diagnostic(self, cell: int) -> SolverDiagnostics:
        """One cell's diagnostics, without building the others'."""
        return self._diagnostic(
            cell, self.iterations[cell].item(), self.converged[cell].item(),
            self.rung[cell].item(), self.final_residual[cell].item())

    def warnings(self, cell: int) -> tuple[SolverWarning, ...]:
        """One cell's structured warnings (empty unless ``warned``)."""
        if not self.warned[cell]:
            return ()
        return self._warnings(
            cell, self.iterations[cell].item(), self.converged[cell].item(),
            self.rung[cell].item(), self.final_residual[cell].item())

    def _diagnostic(self, cell: int, iterations: int, converged: bool,
                    rung: int, final_residual: float) -> SolverDiagnostics:
        trace: tuple[float, ...] = ()
        residual_trace: tuple[float, ...] = ()
        if self._blocks is not None:
            residual_matrix, cycle_matrix = self._blocks[rung]
            column = self._column[cell].item()
            sweeps = iterations - rung * self._max_iterations
            trace = tuple(cycle_matrix[:sweeps, column].tolist())
            residual_trace = tuple(residual_matrix[:sweeps, column].tolist())
        return SolverDiagnostics(
            iterations=iterations,
            converged=converged,
            final_residual=final_residual,
            trace=trace,
            residual_trace=residual_trace,
            damping=self.ladder[rung],
            ladder=self.ladder[:rung + 1],
            recovered=self._recovery and converged and rung > 0,
            warnings=(self._warnings(cell, iterations, converged, rung,
                                     final_residual)
                      if self.warned[cell] else ()))

    def _warnings(self, cell: int, iterations: int, converged: bool,
                  rung: int, final_residual: float
                  ) -> tuple[SolverWarning, ...]:
        """The warnings the scalar ``solve_with_recovery`` attaches."""
        attempted = list(self.ladder[:rung + 1])
        rate = self._rate[cell].item()
        knee = rate >= SATURATION_KNEE_RATE
        warnings: list[SolverWarning] = []
        if not converged:
            warnings.append(SolverWarning(
                code="saturation-knee" if knee else "not-converged",
                message=("no fixed point after damping ladder "
                         f"{attempted} ({iterations} total sweeps, final "
                         f"residual {final_residual:.3e})"),
                contraction_rate=rate))
            return tuple(warnings)
        if rung > 0:
            warnings.append(SolverWarning(
                code="damping-recovery",
                message=("converged only after damping ladder "
                         f"{attempted} ({iterations} total sweeps, "
                         "warm-started)"),
                contraction_rate=rate))
        if knee:
            warnings.append(SolverWarning(
                code="saturation-knee",
                message=(f"contraction rate {rate:.4f} ~ 1: the system "
                         "sits on the saturation knee; results are "
                         "converged but the iteration is near its "
                         "stability limit"),
                contraction_rate=rate))
        return tuple(warnings)


def solve_batch(
    systems: Sequence[EquationSystem] | BatchEquationSystem,
    solver: FixedPointSolver | None = None,
    recovery: bool = True,
    ladder: tuple[float, ...] = DEFAULT_DAMPING_LADDER,
    traces: bool = True,
) -> BatchSolveResult:
    """Iterate every cell to its fixed point in lockstep.

    The vectorized mirror of running
    :meth:`FixedPointSolver.solve_with_recovery` (or plain ``solve``
    when ``recovery=False``) on each system independently: converged
    cells freeze while the rest keep sweeping, and cells that exhaust a
    rung's ``max_iterations`` advance to the next (smaller) damping
    factor warm-started.  Never raises for a non-converged cell --
    its diagnostics come back with ``converged=False`` and the same
    structured warnings the scalar solver attaches, so callers keep
    their per-cell failure isolation.

    ``traces=False`` skips keeping the per-sweep matrices behind the
    diagnostics' ``trace`` / ``residual_trace`` tuples (they come back
    empty).  Iteration counts, residuals, contraction rates and
    warnings are unaffected -- the executor path uses this because
    grid rows and cache values never carry traces.
    """
    solver = solver if solver is not None else FixedPointSolver()
    batch = (systems if isinstance(systems, BatchEquationSystem)
             else BatchEquationSystem(systems))
    tolerance = solver.tolerance

    factors = [solver.damping]
    if recovery:
        factors += [rung for rung in ladder if rung < factors[-1] - 1e-12]
    result = BatchSolveResult(batch, solver, factors, recovery, traces)

    # The committed state of the *live* sub-batch, one row per
    # STATE_ROWS name; a sweep reads rows 0-2 and compares rows 0-3.
    current = np.zeros((len(STATE_ROWS), batch.n_cells))
    live = np.arange(batch.n_cells)
    sub = batch
    for rung_index, factor in enumerate(factors):
        width = live.size
        active = np.ones(width, dtype=bool)
        remaining = width
        frozen = np.zeros_like(current)
        cycle_rows: list[np.ndarray] = []
        residual_rows: list[np.ndarray] = []
        # Double buffer: ``current`` is the committed state, ``spare``
        # receives the next proposal.
        spare = np.empty_like(current)
        with np.errstate(all="ignore"):
            for _ in range(solver.max_iterations):
                new = sub.step(current[_W_BUS], current[_W_MEM],
                               current[_Q_BUS], out=spare)
                if factor < 1.0:
                    # Damped blend of the waiting-time quantities (the
                    # scalar engine returns the raw proposal at factor
                    # 1, so the blend is only applied below 1 -- ``old
                    # + f*(new-old)`` is not bit-identical to ``new``).
                    head = new[:3]
                    head -= current[:3]
                    head *= factor
                    head += current[:3]
                residual = np.abs(new[:_ITERATED]
                                  - current[:_ITERATED]).max(axis=0)
                if traces:
                    cycle_rows.append(new[_R_TOTAL].copy())
                residual_rows.append(residual)
                newly = residual < tolerance
                newly &= active
                count = np.count_nonzero(newly)
                if count:
                    frozen[:, newly] = new[:, newly]
                    active &= ~newly
                    remaining -= count
                # Frozen lanes keep computing, but their state was
                # captured the sweep they converged, so nothing they
                # produce from here on is ever read.
                current, spare = new, current
                if not remaining:
                    break
            residual_matrix = np.vstack(residual_rows)
            cycle_matrix = np.vstack(cycle_rows) if traces else None
            if remaining < width:
                columns = np.flatnonzero(~active)
                # A lane freezes the first sweep its residual drops
                # below the tolerance.
                sweeps = (residual_matrix[:, columns]
                          < tolerance).argmax(axis=0) + 1
                result.finalize(live[columns], columns, sweeps,
                                residual_matrix[sweeps - 1, columns],
                                True, rung_index, frozen,
                                residual_matrix, cycle_matrix)
            if remaining and rung_index == len(factors) - 1:
                columns = np.flatnonzero(active)
                result.finalize(live[columns], columns,
                                np.full(columns.size, solver.max_iterations),
                                residual_matrix[-1, columns], False,
                                rung_index, current, residual_matrix,
                                cycle_matrix)
                break
        if not remaining:
            break
        # Compact to the still-unconverged cells for the next rung.
        keep = np.flatnonzero(active)
        live = live[keep]
        sub = sub.select(keep)
        current = current[:, keep]
    return result
