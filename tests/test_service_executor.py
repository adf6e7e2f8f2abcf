"""Tests for the parallel sweep executor."""

import pytest

import repro.service.executor as executor_module
from repro.analysis.grid import GridSpec, run_grid
from repro.core.solver import FixedPointSolver
from repro.protocols.modifications import ProtocolSpec
from repro.service.cache import ResultCache
from repro.service.executor import (
    CellTask,
    SweepExecutor,
    evaluate_with_retry,
    run_reference,
    tasks_for_spec,
)
from repro.service.metrics import MetricsRegistry
from repro.workload.parameters import SharingLevel, appendix_a_workload


@pytest.fixture()
def spec():
    return GridSpec(
        protocols=[ProtocolSpec(), ProtocolSpec.of(1)],
        sizes=[2, 8],
        sharing_levels=[SharingLevel.FIVE_PERCENT],
    )


class TestTaskExpansion:
    def test_canonical_order(self, spec):
        tasks = tasks_for_spec(spec)
        assert [(t.protocol.label, t.n) for t in tasks] == [
            ("Write-Once", 2), ("Write-Once", 8), ("WO+1", 2), ("WO+1", 8)]
        assert all(t.method == "mva" for t in tasks)

    def test_sim_tasks_follow_their_mva_cell(self):
        spec = GridSpec(protocols=[ProtocolSpec()], sizes=[2, 4],
                        sharing_levels=[SharingLevel.FIVE_PERCENT],
                        include_simulation=True, sim_seed=50)
        tasks = tasks_for_spec(spec)
        assert [(t.method, t.n) for t in tasks] == [
            ("mva", 2), ("sim", 2), ("mva", 4), ("sim", 4)]
        # the seed's per-cell seeding (sim_seed + n) is preserved
        assert [t.sim_seed for t in tasks if t.method == "sim"] == [52, 54]

    def test_task_validation(self):
        workload = appendix_a_workload(SharingLevel.FIVE_PERCENT)
        with pytest.raises(ValueError):
            CellTask(protocol=ProtocolSpec(), sharing_label="5%",
                     workload=workload, n=0)
        with pytest.raises(ValueError):
            CellTask(protocol=ProtocolSpec(), sharing_label="5%",
                     workload=workload, n=2, method="petri")


def _reference_rows(spec):
    return [c.as_row() for c in run_reference(tasks_for_spec(spec)).cells]


class TestDeterminism:
    def test_serial_matches_run_grid(self, spec):
        rows = [c.as_row() for c in run_grid(spec)]
        result = SweepExecutor(jobs=1).run_spec(spec)
        assert [c.as_row() for c in result.cells] == rows
        assert rows == _reference_rows(spec)
        assert result.summary.mode == "batch"

    def test_parallel_matches_serial(self, spec):
        result = SweepExecutor(jobs=2).run_spec(spec)
        assert [c.as_row() for c in result.cells] == _reference_rows(spec)
        assert result.summary.mode == "batch"

    def test_jobs_never_fork_mva_cells(self, spec, monkeypatch):
        """jobs>1 on an all-MVA grid is one in-process batch call: the
        sweep queue (and with it every worker process) is never built."""
        import repro.sweepq as sweepq_module

        def no_queue(*args, **kwargs):
            raise AssertionError("MVA cells must not reach the queue")
        monkeypatch.setattr(sweepq_module, "SweepQueue", no_queue)
        result = SweepExecutor(jobs=4).run_spec(spec)
        assert result.summary.mode == "batch"
        assert result.summary.failed == 0
        assert [c.as_row() for c in result.cells] == _reference_rows(spec)

    def test_run_grid_accepts_an_executor(self, spec):
        cache = ResultCache()
        cells = run_grid(spec, executor=SweepExecutor(cache=cache))
        assert [c.as_row() for c in run_grid(spec)] == \
            [c.as_row() for c in cells]
        assert len(cache) == 4


class TestCaching:
    def test_second_sweep_is_all_hits(self, spec):
        executor = SweepExecutor(cache=ResultCache())
        first = executor.run_spec(spec)
        second = executor.run_spec(spec)
        assert first.summary.solved == 4
        assert second.summary.solved == 0
        assert second.summary.cache_hits == 4
        assert second.summary.cache_hit_rate == 1.0
        assert all(second.cached)
        assert [c.as_row() for c in first.cells] == \
            [c.as_row() for c in second.cells]

    def test_cache_survives_process_boundaries(self, spec, tmp_path):
        """A parallel sweep fills a disk cache a later serial run reads."""
        path = tmp_path / "cells.json"
        SweepExecutor(jobs=2, cache=ResultCache(path=path)).run_spec(spec)
        rerun = SweepExecutor(cache=ResultCache(path=path)).run_spec(spec)
        assert rerun.summary.solved == 0
        assert rerun.summary.cache_hit_rate == 1.0

    def test_metrics_fed(self, spec):
        registry = MetricsRegistry()
        executor = SweepExecutor(cache=ResultCache(), metrics=registry)
        executor.run_spec(spec)
        executor.run_spec(spec)
        snapshot = registry.snapshot()
        assert snapshot["repro_cache_misses_total"] == 4
        assert snapshot["repro_cache_hits_total"] == 4
        assert snapshot["repro_cells_solved_total"] == 4
        assert snapshot["repro_solve_latency_seconds_count"] == 4
        # every MVA cell feeds the iterations histogram
        assert snapshot["repro_solver_iterations_count"] == 4


class TestMetricsRecorder:
    def test_one_cell_calls_render_like_one_batch(self):
        """record_solve_metrics is a one-cell record_solve_metrics_batch:
        per-cell and batched recording expose byte-identical text."""
        from repro.service.executor import (
            record_solve_metrics,
            record_solve_metrics_batch,
        )
        mva = _mva_task(4)
        sim = CellTask(protocol=ProtocolSpec(), sharing_label="5%",
                       workload=mva.workload, n=2, method="sim")
        solved = [
            (mva, {"elapsed_s": 0.002, "iterations": 12, "attempts": 1}),
            (mva, {"elapsed_s": 0.5, "iterations": 40, "recovered": True}),
            (sim, {"elapsed_s": 1.5, "iterations": None, "attempts": 3}),
        ]
        one_by_one, batched = MetricsRegistry(), MetricsRegistry()
        for task, value in solved:
            record_solve_metrics(one_by_one, task, value)
        record_solve_metrics_batch(batched, solved)
        assert one_by_one.render() == batched.render()
        assert 'repro_cells_solved_total{method="mva"} 2' in batched.render()

    def test_each_recorder_call_is_one_call(self, monkeypatch):
        """Neither public recorder calls the other through the module,
        so a profiler wrapping both names sees one call per record (a
        sweep of 4 fresh cells records 4 times, not 8)."""
        calls = []
        for name in ("record_solve_metrics", "record_solve_metrics_batch"):
            original = getattr(executor_module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(executor_module, name, counted)
        SweepExecutor(metrics=MetricsRegistry()).run(
            [_mva_task(n) for n in (1, 2, 4, 8)])
        assert calls == ["record_solve_metrics"] * 4


class TestRetry:
    def _flaky_simulate(self, failures):
        calls = {"n": 0}
        real_simulate = executor_module.simulate

        def fake(config):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise RuntimeError(f"transient failure {calls['n']}")
            return real_simulate(config)
        return fake, calls

    def _sim_task(self):
        return CellTask(
            protocol=ProtocolSpec(), sharing_label="5%",
            workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
            n=2, method="sim", sim_requests=2_000, sim_seed=7)

    def test_sim_cell_retries_then_succeeds(self, monkeypatch):
        fake, calls = self._flaky_simulate(failures=2)
        monkeypatch.setattr(executor_module, "simulate", fake)
        value = evaluate_with_retry(self._sim_task(), retries=2)
        assert calls["n"] == 3
        assert value["attempts"] == 3
        assert "transient failure" in value["retried_after"]

    def test_sim_cell_exhausts_retries_into_error_payload(self, monkeypatch):
        fake, _ = self._flaky_simulate(failures=10)
        monkeypatch.setattr(executor_module, "simulate", fake)
        value = evaluate_with_retry(self._sim_task(), retries=2)
        assert value["error"]["type"] == "RuntimeError"
        assert "transient failure 3" in value["error"]["message"]
        assert value["attempts"] == 3

    def test_mva_cells_never_retry(self, monkeypatch):
        def boom(task):
            raise RuntimeError("modelling error")
        monkeypatch.setattr(executor_module, "evaluate_task", boom)
        task = CellTask(protocol=ProtocolSpec(), sharing_label="5%",
                        workload=appendix_a_workload(
                            SharingLevel.FIVE_PERCENT), n=2)
        value = evaluate_with_retry(task, retries=5)
        assert value["attempts"] == 1  # the seed bump is sim-only
        assert "modelling error" in value["error"]["message"]

    def test_retried_cell_records_effective_seed(self, monkeypatch):
        """A retried simulation cell is traceable to the seed that
        actually produced it, not the originally requested one."""
        fake, _ = self._flaky_simulate(failures=1)
        monkeypatch.setattr(executor_module, "simulate", fake)
        task = self._sim_task()
        value = evaluate_with_retry(task, retries=2)
        stride = executor_module._RETRY_SEED_STRIDE
        assert value["effective_seed"] == task.sim_seed + stride
        assert value["attempts"] == 2
        # a clean cell reports the seed it was asked for
        clean = evaluate_with_retry(task, retries=0)
        assert clean["effective_seed"] == task.sim_seed

    def test_effective_seed_reaches_cache_and_meta(self, monkeypatch):
        fake, _ = self._flaky_simulate(failures=1)
        monkeypatch.setattr(executor_module, "simulate", fake)
        cache = ResultCache()
        task = self._sim_task()
        result = SweepExecutor(jobs=1, cache=cache).run([task])
        stride = executor_module._RETRY_SEED_STRIDE
        expected = task.sim_seed + stride
        assert result.meta[0]["effective_seed"] == expected
        assert cache.get(task.key)["effective_seed"] == expected

    def test_executor_counts_retries(self, monkeypatch):
        fake, _ = self._flaky_simulate(failures=1)
        monkeypatch.setattr(executor_module, "simulate", fake)
        result = SweepExecutor(jobs=1).run([self._sim_task()])
        assert result.summary.retries == 1


def _mva_task(n, solver=None):
    return CellTask(
        protocol=ProtocolSpec(), sharing_label="5%",
        workload=appendix_a_workload(SharingLevel.FIVE_PERCENT), n=n,
        **({"solver": solver} if solver is not None else {}))


#: A solver no damping rung can save: the tolerance is unreachable.
_POISONED = FixedPointSolver(tolerance=1e-30, max_iterations=3)

#: A solver that fails plain substitution (cap too low for ~15 sweeps
#: to 1e-3) but converges on the warm-started 0.5 rung of the ladder.
_RECOVERABLE = FixedPointSolver(tolerance=1e-3, max_iterations=10)


class TestFailureIsolation:
    """One dead cell must not take down (or perturb) the sweep."""

    def _tasks_with_one_poisoned(self):
        tasks = [_mva_task(n) for n in (2, 4, 8)]
        tasks.insert(2, _mva_task(6, solver=_POISONED))
        return tasks

    def test_sweep_completes_with_one_error_row(self):
        tasks = self._tasks_with_one_poisoned()
        result = SweepExecutor(jobs=1).run(tasks)
        assert result.summary.failed == 1
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 2
        assert failure.error_type == "SolverError"
        assert failure.ladder == (1.0, 0.5, 0.25, 0.1)
        error_cell = result.cells[2]
        assert error_cell.error is not None
        assert error_cell.speedup is None
        assert error_cell.n_processors == 6

    def test_surviving_cells_match_a_clean_run(self):
        clean = SweepExecutor(jobs=1).run([_mva_task(n) for n in (2, 4, 8)])
        mixed = SweepExecutor(jobs=1).run(self._tasks_with_one_poisoned())
        survivors = [c for c in mixed.cells if c.error is None]
        assert [c.as_row() for c in survivors] == \
            [c.as_row() for c in clean.cells]

    def test_completed_cells_are_cached_but_failures_are_not(self):
        cache = ResultCache()
        tasks = self._tasks_with_one_poisoned()
        SweepExecutor(jobs=1, cache=cache).run(tasks)
        assert len(cache) == 3
        assert cache.get(tasks[2].key) is None
        # a rerun re-attempts only the failed cell
        rerun = SweepExecutor(jobs=1, cache=cache).run(tasks)
        assert rerun.summary.cache_hits == 3
        assert rerun.summary.solved == 1
        assert rerun.summary.failed == 1

    def test_cache_is_flushed_incrementally(self, tmp_path, monkeypatch):
        """An interrupted sweep keeps every cell completed before the
        interruption in the on-disk store."""
        path = tmp_path / "cells.json"
        cache = ResultCache(path=path)
        tasks = [_mva_task(n) for n in (2, 4, 8)]
        calls = {"n": 0}
        real = ResultCache.put

        def dies_on_third(self, key, value):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return real(self, key, value)
        monkeypatch.setattr(ResultCache, "put", dies_on_third)
        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(jobs=1, cache=cache).run(tasks)
        reloaded = ResultCache(path=path)
        assert len(reloaded) == 2  # the two cells solved before the cut

    def test_parallel_sweep_isolates_failures_too(self):
        tasks = self._tasks_with_one_poisoned()
        serial = SweepExecutor(jobs=1).run(tasks)
        parallel = SweepExecutor(jobs=2).run(tasks)
        assert parallel.summary.failed == 1
        assert [c.as_row() for c in parallel.cells] == \
            [c.as_row() for c in serial.cells]

    def test_failure_metrics(self):
        registry = MetricsRegistry()
        SweepExecutor(jobs=1, metrics=registry).run(
            self._tasks_with_one_poisoned())
        snapshot = registry.snapshot()
        assert snapshot["repro_cells_failed_total"] == 1
        assert snapshot["repro_cells_solved_total"] == 3

    def test_strict_mode_raises_on_first_failure(self):
        from repro.service.executor import CellFailedError
        with pytest.raises(CellFailedError, match="SolverError"):
            SweepExecutor(jobs=1, strict=True).run(
                self._tasks_with_one_poisoned())

    def test_summary_line_mentions_failures(self):
        result = SweepExecutor(jobs=1).run(self._tasks_with_one_poisoned())
        assert "1 failed" in result.summary.line()


class TestDampingRecovery:
    """A cell that diverges at damping 1.0 is rescued by the ladder."""

    def test_recoverable_cell_converges_via_ladder(self):
        result = SweepExecutor(jobs=1).run(
            [_mva_task(10, solver=_RECOVERABLE)])
        assert result.summary.failed == 0
        assert result.summary.recovered == 1
        meta = result.meta[0]
        assert meta["recovered"] is True
        assert meta["damping"] < 1.0
        assert any(w["code"] == "damping-recovery"
                   for w in meta["warnings"])
        # the rescued value agrees with an unconstrained solve
        reference = SweepExecutor(jobs=1).run([_mva_task(10)])
        assert result.cells[0].speedup == pytest.approx(
            reference.cells[0].speedup, rel=1e-2)

    def test_recovery_metrics(self):
        registry = MetricsRegistry()
        SweepExecutor(jobs=1, metrics=registry).run(
            [_mva_task(10, solver=_RECOVERABLE)])
        assert registry.snapshot()["repro_cells_recovered_total"] == 1

    def test_summary_counts_recoveries(self):
        result = SweepExecutor(jobs=1).run(
            [_mva_task(10, solver=_RECOVERABLE), _mva_task(4)])
        assert result.summary.recovered == 1
        assert "1 recovered" in result.summary.line()


def _sim_tasks():
    return [CellTask(protocol=ProtocolSpec(), sharing_label="5%",
                     workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
                     n=n, method="sim", sim_requests=1_000, sim_seed=n)
            for n in (2, 4)]


class TestSerialFallback:
    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        """A platform that cannot spawn worker processes still gets
        every simulation cell: the queue drains in the parent."""
        import repro.sweepq.queue as queue_module

        class NoProcesses:
            def Process(self, *args, **kwargs):
                raise OSError("no processes for you")
        monkeypatch.setattr(queue_module, "get_context", NoProcesses)
        tasks = _sim_tasks()
        result = SweepExecutor(jobs=4).run(tasks)
        assert result.summary.mode == "chunked-inprocess"
        assert [c.as_row() for c in result.cells] == \
            [c.as_row() for c in run_reference(tasks).cells]

    def test_broken_queue_degrades_to_serial(self, monkeypatch):
        """The chunked path must never take the executor down with it:
        a queue that blows up falls back to serial evaluation."""
        import repro.sweepq as sweepq_module

        def broken_queue(*args, **kwargs):
            raise RuntimeError("journal on fire")
        monkeypatch.setattr(sweepq_module, "SweepQueue", broken_queue)
        tasks = _sim_tasks()
        result = SweepExecutor(jobs=2).run(tasks)
        assert result.summary.mode == "serial"
        assert [c.as_row() for c in result.cells] == \
            [c.as_row() for c in run_reference(tasks).cells]
        mixed = SweepExecutor(jobs=2).run([_mva_task(4)] + tasks)
        assert mixed.summary.mode == "batch+serial"

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)
        with pytest.raises(ValueError):
            SweepExecutor(sim_retries=-1)


def _vector_tasks():
    """Vector-engine sim cells across two launch groups, plus one
    scalar-engine cell."""
    workload = appendix_a_workload(SharingLevel.FIVE_PERCENT)
    tasks = [CellTask(protocol=spec, sharing_label="5%", workload=workload,
                      n=n, method="sim", sim_requests=requests,
                      sim_seed=40 + n, sim_engine="vector", sim_reps=reps)
             for spec, requests in ((ProtocolSpec(), 400),
                                    (ProtocolSpec.of(1, 2, 3, 4), 400),
                                    (ProtocolSpec.of(2), 500))
             for n, reps in ((1, 2), (4, 3))]
    tasks.insert(2, _sim_tasks()[0])
    return tasks


def _without_elapsed(values):
    return [{k: v for k, v in value.items() if k != "elapsed_s"}
            for value in values]


def _count_launches(monkeypatch):
    from repro.sim.vector import VectorSnoopingBusSimulator

    launches = []
    original = VectorSnoopingBusSimulator.run

    def counted(self):
        launches.append(self.reps)
        return original(self)

    monkeypatch.setattr(VectorSnoopingBusSimulator, "run", counted)
    return launches


class TestSolveSimCells:
    def test_matches_the_per_cell_path(self, monkeypatch):
        tasks = _vector_tasks()
        reference = [evaluate_with_retry(task, 2) for task in tasks]
        launches = _count_launches(monkeypatch)
        values = executor_module.solve_sim_cells(tasks)
        assert _without_elapsed(values) == _without_elapsed(reference)
        # Two launch groups (400 and 500 measured requests); the
        # scalar-engine cell never enters either.
        assert sorted(launches) == [2 + 3, 2 * (2 + 3)]

    def test_launch_failure_falls_back_per_cell(self, monkeypatch):
        tasks = _vector_tasks()
        reference = [evaluate_with_retry(task, 2) for task in tasks]

        def broken(launch):
            raise RuntimeError("launch on fire")

        monkeypatch.setattr(executor_module, "simulate_launch", broken)
        values = executor_module.solve_sim_cells(tasks)
        assert _without_elapsed(values) == _without_elapsed(reference)
        for value, expected in zip(values, reference):
            assert value["effective_seed"] == expected["effective_seed"]
            assert value["attempts"] == expected["attempts"] == 1

    def test_fallback_keeps_per_cell_retry_seeds(self, monkeypatch):
        """A raising launch hands its cells to the retrying per-cell
        path, so a cell that fails there too is retried with the same
        bumped seed the per-cell path uses."""
        task = _vector_tasks()[0]
        real_simulate = executor_module.simulate
        calls = {"n": 0}

        def flaky(config, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient failure")
            return real_simulate(config, **kwargs)

        def broken(launch):
            raise RuntimeError("launch on fire")

        monkeypatch.setattr(executor_module, "simulate_launch", broken)
        monkeypatch.setattr(executor_module, "simulate", flaky)
        (value,) = executor_module.solve_sim_cells([task])
        stride = executor_module._RETRY_SEED_STRIDE
        assert value["attempts"] == 2
        assert value["effective_seed"] == task.sim_seed + stride
        assert "transient failure" in value["retried_after"]

    def test_scalar_cells_never_enter_a_launch(self, monkeypatch):
        tasks = _sim_tasks()
        launches = _count_launches(monkeypatch)
        values = executor_module.solve_sim_cells(tasks)
        assert launches == []
        assert _without_elapsed(values) == _without_elapsed(
            [evaluate_with_retry(task, 2) for task in tasks])

    def test_elapsed_is_the_amortized_launch_time(self):
        values = executor_module.solve_sim_cells(_vector_tasks()[:2])
        assert values[0]["elapsed_s"] == values[1]["elapsed_s"] > 0.0


class TestOneLaunchPerGroup:
    def _spec(self):
        return GridSpec(protocols=[ProtocolSpec(), ProtocolSpec.of(1, 2, 3, 4)],
                        sizes=[2, 4],
                        sharing_levels=[SharingLevel.FIVE_PERCENT],
                        include_simulation=True, sim_requests=400,
                        sim_engine="vector", sim_reps=2)

    def test_executor_grid_is_one_launch(self, monkeypatch):
        launches = _count_launches(monkeypatch)
        result = SweepExecutor(jobs=1).run_spec(self._spec())
        assert result.summary.mode == "batch+serial"
        assert launches == [4 * 2]
        assert [c.as_row() for c in result.cells] == \
            [c.as_row() for c in run_reference(
                tasks_for_spec(self._spec())).cells]

    def test_sweep_queue_grid_is_one_launch(self, monkeypatch):
        from repro.sweepq import SweepQueue

        launches = _count_launches(monkeypatch)
        tasks = tasks_for_spec(self._spec())
        queue = SweepQueue()
        try:
            outcome = queue.run_tasks(tasks, workers=1)
        finally:
            queue.close()
        assert launches == [4 * 2]
        assert [v["cell"] for v in outcome.values] == \
            [c.as_row() for c in run_reference(tasks).cells]

    def test_wide_grid_is_split_at_the_lane_cap(self, monkeypatch):
        """Launches never exceed ``MAX_LAUNCH_LANES``, and splitting a
        group changes no value."""
        import repro.sim.vector as vector_module

        monkeypatch.setattr(vector_module, "MAX_LAUNCH_LANES", 5)
        launches = _count_launches(monkeypatch)
        tasks = tasks_for_spec(self._spec())
        result = SweepExecutor(jobs=1).run(tasks)
        assert launches == [4, 4]
        assert [c.as_row() for c in result.cells] == \
            [c.as_row() for c in run_reference(tasks).cells]


class TestSimCellsPersistPerLaunch:
    def _spec(self):
        return GridSpec(protocols=[ProtocolSpec()], sizes=[2, 3, 4],
                        sharing_levels=[SharingLevel.FIVE_PERCENT],
                        include_simulation=True, sim_requests=300,
                        sim_engine="vector", sim_reps=2)

    def test_interrupt_keeps_finished_launches(self, tmp_path,
                                               monkeypatch):
        """A sweep interrupted during its second launch keeps the first
        launch's cells in the on-disk store."""
        import repro.sim.vector as vector_module
        from repro.sim.vector import VectorSnoopingBusSimulator

        monkeypatch.setattr(vector_module, "MAX_LAUNCH_LANES", 4)
        original = VectorSnoopingBusSimulator.run
        lanes = []

        def dies_on_second(self):
            lanes.append(self.reps)
            if len(lanes) == 2:
                raise KeyboardInterrupt
            return original(self)

        monkeypatch.setattr(VectorSnoopingBusSimulator, "run",
                            dies_on_second)
        path = tmp_path / "cells.json"
        tasks = tasks_for_spec(self._spec())
        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(jobs=1, cache=ResultCache(path=path)).run(tasks)
        assert lanes == [4, 2]
        reloaded = ResultCache(path=path)
        # 3 MVA cells plus the first launch's two sim cells.
        assert len(reloaded) == 5
        sims = [task for task in tasks if task.method == "sim"]
        reference = run_reference(sims[:2])
        for task, cell in zip(sims[:2], reference.cells):
            assert reloaded.get(task.key)["cell"] == cell.as_row()
        assert reloaded.get(sims[2].key) is None

    def test_strict_sweep_stops_after_the_failing_launch(self,
                                                         monkeypatch):
        import repro.sim.vector as vector_module
        from repro.service.executor import CellFailedError

        monkeypatch.setattr(vector_module, "MAX_LAUNCH_LANES", 2)
        launched = []

        def broken_launch(launch):
            launched.append(len(launch))
            raise RuntimeError("launch on fire")

        def broken_cell(task):
            raise RuntimeError("cell on fire")

        monkeypatch.setattr(executor_module, "simulate_launch",
                            broken_launch)
        monkeypatch.setattr(executor_module, "evaluate_task", broken_cell)
        tasks = [t for t in tasks_for_spec(self._spec())
                 if t.method == "sim"]
        with pytest.raises(CellFailedError, match="cell on fire"):
            SweepExecutor(jobs=1, strict=True).run(tasks)
        assert launched == [1]


def _timeless(value):
    return {k: v for k, v in value.items() if k != "elapsed_s"}


class TestBatchValueParity:
    """The batch engine's cache values against the per-cell reference,
    everything but ``elapsed_s``: rows, iterations, damping, recovery,
    warning messages and contraction rates, and the error payloads of
    cells that never converge (ladder, iterations, warnings)."""

    @pytest.mark.parametrize("max_iterations", [6, 12, 30])
    def test_stress_grid_values_match_the_reference(self, max_iterations):
        from repro.analysis.stress import stress_tasks
        from repro.service.executor import evaluate_mva_batch

        tasks = stress_tasks(
            solver=FixedPointSolver(max_iterations=max_iterations))
        batch = evaluate_mva_batch(tasks)
        reference = [evaluate_with_retry(task, 0) for task in tasks]
        for task, got, expected in zip(tasks, batch, reference):
            assert _timeless(got) == _timeless(expected), task
        # The caps are small enough to exercise the ladder's warnings
        # (and, below 30 sweeps, cells that never converge).
        recovered = sum(1 for value in batch if value.get("recovered"))
        failed = sum(1 for value in batch if "error" in value)
        assert recovered > 0
        assert (failed > 0) == (max_iterations < 30)


class TestSharedDefaultSolver:
    def test_tasks_share_one_frozen_solver(self):
        from repro.service.executor import DEFAULT_SOLVER

        first, second = _mva_task(2), _mva_task(4)
        assert first.solver is second.solver is DEFAULT_SOLVER
        assert DEFAULT_SOLVER == FixedPointSolver()
        with pytest.raises(AttributeError):
            DEFAULT_SOLVER.max_iterations = 3  # frozen: sharing is safe

    def test_solve_request_keys_are_pinned(self):
        """Cache keys hash the solver by value, so sharing one instance
        leaves every persisted key valid."""
        from repro.service.app import ModelService

        _, tasks = ModelService().solve_prepare(
            {"protocol": "1,4", "sharing": "20", "n": [1, 8, 32],
             "workload": {"tau": 2.5}}, strict=True)
        assert [task.key for task in tasks] == [
            "396f326ec4f62a60d1075f832742c3bfd87d9839d11849aacb3b42b40a0f3e97",
            "c3573a7acf4fb71b97c51099bfd1d2ee88b78e6ec2472f84458b39efa4d55113",
            "3b1dd3f23a6f686e14404bb7c493e322c926814fd47a870f680904785a5d98a8",
        ]
        # The general (unprimed) path derives the same keys.
        from repro.service.keys import task_key
        assert [task_key(task) for task in tasks] == \
            [task.key for task in tasks]


def _long_way_rows(tasks, values, cached_flags):
    """``/v1/solve`` rows rendered the long way: each value through a
    ``GridCell`` and back with ``as_row()``."""
    from repro.analysis.grid import GridCell
    from repro.service.executor import failed_cell

    rows = []
    for index, (task, value, was_cached) in enumerate(
            zip(tasks, values, cached_flags)):
        if value.get("error") is not None:
            failure = failed_cell(index, task, value)
            cell = GridCell.failed(
                protocol=task.protocol.label, sharing=task.sharing_label,
                n_processors=task.n, method=task.method,
                error=f"{failure.error_type}: {failure.message}")
        else:
            cell = GridCell(**value["cell"])
        row = dict(cell.as_row(), cached=was_cached,
                   status="error" if cell.error else "ok")
        if value.get("attempts", 1) > 1:
            row["attempts"] = value["attempts"]
        if value.get("effective_seed") is not None:
            row["effective_seed"] = value["effective_seed"]
        if value.get("recovered"):
            row["recovered"] = True
            row["damping"] = value.get("damping")
        rows.append(row)
    return rows


class TestSolveResponseRows:
    """``/v1/solve`` rows come straight from the cache values; their
    bytes equal the ``GridCell`` round trip's."""

    def _encode(self, payload):
        import json
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    def test_ok_error_and_recovered_rows(self):
        from repro.service.app import ModelService
        from repro.service.executor import collect_sweep_result

        service = ModelService()
        request, tasks = service.solve_prepare(
            {"protocol": "write-once", "n": [2, 4, 6, 8]}, strict=True)
        values = [evaluate_with_retry(task, 0) for task in tasks]
        # A rescued cell (real ladder value, retried once) and a dead
        # one (real SolverError payload) in the same response.
        rescued = evaluate_with_retry(_mva_task(10, solver=_RECOVERABLE), 0)
        assert rescued["recovered"]
        values[1] = dict(rescued, attempts=2)
        values[2] = evaluate_with_retry(_mva_task(6, solver=_POISONED), 0)
        assert "error" in values[2]
        cached_flags = [False, False, False, True]
        result = collect_sweep_result(
            tasks, dict(enumerate(values)), cached_flags,
            wall_seconds=0.0, jobs=1, mode="coalesced")
        response = service.solve_response(request, result)
        assert [row["status"] for row in response["results"]] == \
            ["ok", "ok", "error", "ok"]
        assert self._encode(response["results"]) == self._encode(
            _long_way_rows(tasks, values, cached_flags))
        # The lazily built cells and meta match the values too.
        assert [cell.as_row() for cell in result.cells] == \
            _long_way_cells(tasks, values)
        assert result.meta[1]["attempts"] == 2
        assert "cell" not in result.meta[0]

    def test_http_body_rows_fresh_then_cached(self):
        import json

        from repro.service.app import ModelService
        from repro.service.router import handle

        service = ModelService()
        body = json.dumps({"protocol": "1", "n": [1, 3, 9]}).encode()
        _, tasks = service.solve_prepare(json.loads(body), strict=True)
        values = [evaluate_with_retry(task, 0) for task in tasks]
        for cached in (False, True):
            response = handle(service, "POST", "/v1/solve", body)
            assert response.status == 200
            results = json.loads(response.body)["results"]
            expected = self._encode(
                _long_way_rows(tasks, values, [cached] * len(tasks)))
            assert self._encode(results) == expected
            assert expected in response.body


def _long_way_cells(tasks, values):
    """The ``GridCell.as_row()`` part of :func:`_long_way_rows`."""
    import dataclasses

    from repro.analysis.grid import GridCell

    names = [f.name for f in dataclasses.fields(GridCell)]
    return [{name: row[name] for name in names}
            for row in _long_way_rows(tasks, values, [False] * len(tasks))]
