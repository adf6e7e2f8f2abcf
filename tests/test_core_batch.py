"""The batched vectorized MVA engine vs the scalar fixed-point solver.

The batch engine's contract is *drop-in equality*: for every cell of a
grid it must reproduce what :class:`FixedPointSolver` computes for that
cell alone -- states within solver tolerance, and diagnostics
(iterations, ladder, recovery, warning codes) structurally identical.
These tests enforce that cell-for-cell on the Table 4.1 grid and the
stress grid, property-test it over random workloads, and pin the
engine-independence of the executor's cache keys.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.batch import (
    BatchEquationSystem,
    _n_interference_vec,
    _p_busy_vec,
    solve_batch,
)
from repro.core.equations import _p_busy
from repro.core.model import TABLE_41_SIZES, CacheMVAModel
from repro.core.solver import (
    SATURATION_KNEE_RATE,
    FixedPointSolver,
    estimate_contraction_rate,
)
from repro.protocols.modifications import ProtocolSpec, all_combinations
from repro.workload.parameters import SharingLevel, appendix_a_workload

from tests.strategies import PROTOCOLS, SIZE_LISTS, workloads

#: Compare iterated quantities to the solver's own convergence
#: tolerance: two runs that each stopped within ``tolerance`` of the
#: true fixed point can differ by at most a few tolerances.
TOL = 10 * FixedPointSolver().tolerance


def _table_41_systems():
    """(system, model, n) for every Table 4.1 grid cell."""
    out = []
    for protocol in (ProtocolSpec(), ProtocolSpec.of(1),
                     ProtocolSpec.of(1, 4)):
        for level in SharingLevel:
            model = CacheMVAModel(appendix_a_workload(level), protocol)
            for n in TABLE_41_SIZES:
                out.append((model.system(n), model, n))
    return out


class TestBatchMatchesScalar:
    def test_table_41_grid_cell_for_cell(self):
        cells = _table_41_systems()
        result = solve_batch([system for system, _, _ in cells])
        assert result.all_converged
        for (system, model, n), state, diag in zip(
                cells, result.states, result.diagnostics):
            expected_state, expected_diag = \
                model.solver.solve_with_recovery(model.system(n))
            assert state.distance(expected_state) < TOL
            assert state.response.total == pytest.approx(
                expected_state.response.total, abs=TOL)
            assert state.u_bus == pytest.approx(expected_state.u_bus,
                                                abs=TOL)
            assert state.u_mem == pytest.approx(expected_state.u_mem,
                                                abs=TOL)
            assert diag.iterations == expected_diag.iterations
            assert diag.converged == expected_diag.converged
            assert diag.damping == expected_diag.damping
            assert diag.ladder == expected_diag.ladder
            assert diag.recovered == expected_diag.recovered
            assert [w.code for w in diag.warnings] == \
                [w.code for w in expected_diag.warnings]

    def test_stress_grid_with_failures_and_recoveries(self):
        """Extreme corners: converged, recovered and failed cells all
        mirror their scalar outcome (per-cell masking cannot leak)."""
        from repro.analysis.stress import stress_corners

        solver = FixedPointSolver(raise_on_divergence=False)
        cells = []
        for protocol in all_combinations():
            for corner in stress_corners():
                model = CacheMVAModel(corner.workload, protocol,
                                      solver=solver)
                for n in (4, 16, 128):
                    cells.append((model, n))
        result = solve_batch([m.system(n) for m, n in cells],
                             solver=solver)
        outcomes = {"converged": 0, "recovered": 0, "failed": 0}
        for (model, n), state, diag in zip(cells, result.states,
                                           result.diagnostics):
            expected_state, expected_diag = solver.solve_with_recovery(
                model.system(n))
            assert diag.converged == expected_diag.converged
            assert diag.iterations == expected_diag.iterations
            assert diag.ladder == expected_diag.ladder
            assert diag.recovered == expected_diag.recovered
            assert [w.code for w in diag.warnings] == \
                [w.code for w in expected_diag.warnings]
            if diag.converged:
                assert state.distance(expected_state) < TOL
                outcomes["recovered" if diag.recovered
                         else "converged"] += 1
            else:
                outcomes["failed"] += 1
        # The stress grid must actually exercise every path.
        assert outcomes["converged"] > 0

    def test_trace_lengths_match_final_rung(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.FIVE_PERCENT))
        result = solve_batch([model.system(10)])
        diag = result.diagnostics[0]
        assert len(diag.trace) == diag.iterations
        assert len(diag.residual_trace) == len(diag.trace)
        assert diag.final_residual < FixedPointSolver().tolerance

    def test_no_recovery_mirrors_plain_solve(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.TWENTY_PERCENT))
        solver = FixedPointSolver(raise_on_divergence=False)
        result = solve_batch([model.system(20)], solver=solver,
                             recovery=False)
        state, diag = result.states[0], result.diagnostics[0]
        expected_state, expected_diag = solver.solve(model.system(20))
        assert state.distance(expected_state) < TOL
        assert diag.iterations == expected_diag.iterations
        assert diag.ladder == (1.0,)
        assert diag.warnings == ()

    def test_mixed_sizes_converge_at_different_sweeps(self):
        """Freezing: small N converges in fewer sweeps than large N,
        and neither perturbs the other."""
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.TWENTY_PERCENT))
        result = solve_batch([model.system(1), model.system(100)])
        iters = [d.iterations for d in result.diagnostics]
        assert iters[0] < iters[1]
        for n, state in zip((1, 100), result.states):
            expected, _ = model.solver.solve_with_recovery(model.system(n))
            assert state.distance(expected) < TOL


class TestVectorizedPieces:
    def test_p_busy_vec_matches_scalar(self):
        ns = [1, 2, 4, 16, 100]
        us = [0.0, 0.3, 0.99, 1.0, 1.7, 250.0]
        cases = [(u, n) for n in ns for u in us]
        got = _p_busy_vec(np.array([u for u, _ in cases]),
                          np.array([float(n) for _, n in cases]))
        for value, (u, n) in zip(got, cases):
            assert value == _p_busy(u, n), (u, n)

    def test_n_interference_vec_matches_scalar(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.TWENTY_PERCENT))
        ci = model.system(16).interference
        q_values = np.array([0.0, 0.5, 1.0, 3.7, 15.0])
        got = _n_interference_vec(
            np.full_like(q_values, ci.p),
            np.full_like(q_values, ci.p_prime), q_values)
        for value, q in zip(got, q_values):
            assert value == pytest.approx(ci.n_interference(float(q)),
                                          rel=1e-12, abs=1e-15)

    def test_select_compacts_coefficients(self):
        model = CacheMVAModel(
            appendix_a_workload(SharingLevel.FIVE_PERCENT))
        batch = BatchEquationSystem(
            [model.system(n) for n in (2, 4, 8)])
        sub = batch.select(np.array([0, 2]))
        assert sub.n_cells == 2
        assert sub.n.tolist() == [2.0, 8.0]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchEquationSystem([])
        with pytest.raises(ValueError):
            BatchEquationSystem(None)


class TestBatchProperty:
    @given(workload=workloads(), protocol=PROTOCOLS, sizes=SIZE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_converged_cells_match_scalar_solver(self, workload, protocol,
                                                 sizes):
        """For any valid workload, protocol and size mix, every batch
        cell that converges matches the scalar solver's fixed point
        within the solver tolerance."""
        solver = FixedPointSolver(raise_on_divergence=False)
        model = CacheMVAModel(workload, protocol, solver=solver)
        result = solve_batch([model.system(n) for n in sizes],
                             solver=solver)
        for n, state, diag in zip(sizes, result.states,
                                  result.diagnostics):
            expected_state, expected_diag = solver.solve_with_recovery(
                model.system(n))
            assert diag.converged == expected_diag.converged
            if not diag.converged:
                continue
            assert state.distance(expected_state) < TOL
            assert math.isclose(state.response.total,
                                expected_state.response.total,
                                rel_tol=1e-6, abs_tol=TOL)
            assert diag.iterations == expected_diag.iterations
            assert diag.recovered == expected_diag.recovered


def _stress_systems(solver):
    from repro.analysis.stress import stress_tasks

    return [CacheMVAModel(t.workload, t.protocol, arch=t.arch,
                          solver=solver).system(t.n)
            for t in stress_tasks(sizes=(1, 4, 16, 128), solver=solver)]


class TestColumnarResult:
    """The result is kept as columns; the per-cell objects are built on
    first access and equal the scalar solver's eagerly built records."""

    @pytest.mark.parametrize("max_iterations", [6, 12, 30])
    def test_lazy_objects_equal_the_scalar_records(self, max_iterations):
        solver = FixedPointSolver(max_iterations=max_iterations,
                                  raise_on_divergence=False)
        systems = _stress_systems(solver)
        result = solve_batch(systems, solver=solver, traces=True)
        warned = 0
        for system, state, diag in zip(systems, result.states,
                                       result.diagnostics):
            expected_state, expected_diag = solver.solve_with_recovery(
                system)
            assert state == expected_state
            # Everything but the cycle-time trace is bit-equal (messages
            # and contraction rates included); the trace's sums may
            # round differently in the last place.
            assert dataclasses.replace(diag, trace=()) == \
                dataclasses.replace(expected_diag, trace=())
            assert diag.trace == pytest.approx(expected_diag.trace,
                                               rel=1e-14)
            warned += bool(diag.warnings)
        assert warned > 0
        assert result.warned.sum() == warned

    def test_build_order_and_traces_do_not_change_the_objects(self):
        solver = FixedPointSolver(max_iterations=12,
                                  raise_on_divergence=False)
        systems = _stress_systems(solver)
        traced = solve_batch(systems, solver=solver, traces=True)
        eager = traced.diagnostics  # built first, all at once
        lean = solve_batch(systems, solver=solver, traces=False)
        # One cell at a time, before the bulk build.
        singles = [lean.diagnostic(i) for i in range(len(lean))]
        assert [lean.warnings(i) for i in range(len(lean))] == \
            [d.warnings for d in singles]
        assert singles == lean.diagnostics
        assert lean.diagnostics == [
            dataclasses.replace(d, trace=(), residual_trace=())
            for d in eager]
        assert lean.states == traced.states
        assert [d.iterations for d in eager] == lean.iterations.tolist()
        assert [d.converged for d in eager] == lean.converged.tolist()
        assert [d.damping for d in eager] == \
            [lean.ladder[rung] for rung in lean.rung.tolist()]
        assert [d.recovered for d in eager] == lean.recovered.tolist()
        assert [s.cycle_time for s in lean.states] == \
            lean.column("r_total").tolist()

    def test_columns_without_recovery(self):
        solver = FixedPointSolver(max_iterations=6,
                                  raise_on_divergence=False)
        result = solve_batch(_stress_systems(solver), solver=solver,
                             recovery=False)
        assert not result.warned.any()
        assert not result.recovered.any()
        assert result.ladder == (1.0,) and not result.rung.any()
        assert all(d.warnings == () and d.ladder == (1.0,)
                   for d in result.diagnostics)


class TestContractionScreen:
    """The vectorized rate only screens: every knee decision and every
    reported rate is :func:`estimate_contraction_rate`'s."""

    @staticmethod
    def _traces():
        rng = np.random.default_rng(7)
        traces = [[1.0], [1.0, 0.5], [0.0, 0.0, 0.0],
                  [1.0, 1e-15, 0.5, 0.25], [1e-20] * 6]
        for ratio in (0.5, 0.9, 0.98 - 1e-12, 0.98, 0.98 + 1e-12, 0.999,
                      1.2):
            traces.append([ratio ** k for k in range(12)])
        for _ in range(20):
            traces.append(np.exp(np.cumsum(
                rng.normal(-0.05, 0.05, rng.integers(2, 30)))).tolist())
        return traces

    def test_vectorized_rates_track_the_scalar_estimate(self):
        from repro.core.batch import _contraction_rates

        traces = self._traces()
        width = max(len(t) for t in traces)
        matrix = np.full((width, len(traces)), np.nan)
        for column, trace in enumerate(traces):
            matrix[:len(trace), column] = trace
        rates = _contraction_rates(
            matrix, np.array([len(t) for t in traces]))
        for rate, trace in zip(rates.tolist(), traces):
            assert rate == pytest.approx(estimate_contraction_rate(trace),
                                         rel=1e-12, abs=0.0)

    def test_knee_decisions_and_rates_are_exact(self):
        from repro.core.batch import STATE_ROWS, BatchSolveResult

        model = CacheMVAModel(appendix_a_workload(SharingLevel.FIVE_PERCENT))
        batch = BatchEquationSystem([model.system(4)])
        solver = FixedPointSolver()
        for trace in self._traces():
            result = BatchSolveResult(batch, solver, [1.0, 0.5],
                                      recovery=True, traces=False)
            matrix = np.array(trace)[:, None]
            result.finalize(np.array([0]), np.array([0]),
                            np.array([len(trace)]), np.array([trace[-1]]),
                            True, 0, np.zeros((len(STATE_ROWS), 1)),
                            matrix, None)
            exact = estimate_contraction_rate(trace)
            assert bool(result.warned[0]) == (exact >= SATURATION_KNEE_RATE)
            for warning in result.warnings(0):
                assert warning.code == "saturation-knee"
                assert warning.contraction_rate == exact
                assert warning.message.startswith(
                    f"contraction rate {exact:.4f} ~ 1: ")

    def test_reported_rates_are_the_scalar_bits(self):
        """NumPy's log/exp differ from math's in the last place on a few
        percent of traces; the rates a warning reports never do."""
        from repro.core.batch import STATE_ROWS, BatchSolveResult

        rng = np.random.default_rng(11)
        lengths = rng.integers(6, 40, 400)
        matrix = np.full((lengths.max(), lengths.size), np.nan)
        for column, length in enumerate(lengths.tolist()):
            matrix[:length, column] = np.exp(np.cumsum(
                rng.normal(np.log(SATURATION_KNEE_RATE), 0.02, length)))
        model = CacheMVAModel(appendix_a_workload(SharingLevel.FIVE_PERCENT))
        result = BatchSolveResult(
            BatchEquationSystem([model.system(4)] * lengths.size),
            FixedPointSolver(), [1.0], recovery=True, traces=False)
        cells = np.arange(lengths.size)
        result.finalize(cells, cells, lengths, matrix[0], True, 0,
                        np.zeros((len(STATE_ROWS), lengths.size)),
                        matrix, None)
        knees = 0
        for column, length in enumerate(lengths.tolist()):
            exact = estimate_contraction_rate(
                matrix[:length, column].tolist())
            assert bool(result.warned[column]) == \
                (exact >= SATURATION_KNEE_RATE)
            for warning in result.warnings(column):
                assert warning.contraction_rate == exact
                knees += 1
        assert 0 < knees < lengths.size


class TestEngineParityInExecutor:
    """The production executor (batch engine) against the per-cell
    scalar reference: identical ``GridCell.as_row()`` payloads, solve
    metadata and cache values."""

    def test_identical_cache_keys_and_rows(self):
        from repro.service.cache import ResultCache
        from repro.service.executor import (
            SweepExecutor,
            run_reference,
            tasks_for_spec,
        )
        from repro.analysis.grid import GridSpec

        spec = GridSpec(
            protocols=[ProtocolSpec(), ProtocolSpec.of(1, 4)],
            sizes=[2, 8, 32],
        )
        tasks = tasks_for_spec(spec)
        cache = ResultCache()
        batch = SweepExecutor(cache=cache).run(tasks)
        scalar = run_reference(tasks)
        assert len(cache) == len(tasks)
        for a, b in zip(scalar.cells, batch.cells):
            assert a.as_row() == b.as_row()
        # Solve metadata matches too, modulo wall-clock -- and so does
        # what the cache stored under each content-addressed key.
        def timeless(value):
            return {k: v for k, v in value.items()
                    if k not in ("elapsed_s", "cell")}
        for task, a, b in zip(tasks, scalar.meta, batch.meta):
            assert timeless(a) == timeless(b)
            assert timeless(cache.get(task.key)) == timeless(a)

    def test_batch_engine_serves_scalar_cache_entries(self):
        """A cache written from reference values (every pre-batch store)
        is a 100% hit for production, with identical rows."""
        from repro.service.cache import ResultCache
        from repro.service.executor import (
            SweepExecutor,
            evaluate_with_retry,
            run_reference,
            tasks_for_spec,
        )
        from repro.analysis.grid import GridSpec

        spec = GridSpec(protocols=[ProtocolSpec.of(1)], sizes=[4, 8])
        tasks = tasks_for_spec(spec)
        cache = ResultCache()
        for task in tasks:
            cache.put(task.key, evaluate_with_retry(task, 0))
        result = SweepExecutor(cache=cache).run(tasks)
        assert result.summary.cache_hits == len(tasks)
        for a, b in zip(run_reference(tasks).cells, result.cells):
            assert a.as_row() == b.as_row()

    def test_rejects_unknown_engine(self):
        """The engine switch is gone: batch is the only production path."""
        from repro.service.executor import SweepExecutor

        with pytest.raises(TypeError, match="engine"):
            SweepExecutor(engine="scalar")
