"""The lockstep vector DES engine: edge cases and integration seams.

The statistical-equivalence oracle proper lives in
``repro.verify.differential`` (and runs in ``repro verify --tier
full``); these tests pin the cheap structural promises -- reps=1
parity with the scalar entry point, exact seed-permutation behaviour,
saturated corners, counter dtypes, and the cache-key/CLI seams the
engine plugs into.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocols.modifications import ProtocolSpec
from repro.service.executor import CellTask, evaluate_task
from repro.service.keys import task_key
from repro.sim.config import BusDiscipline, SimulationConfig
from repro.sim.system import SimulationResult, simulate
from repro.sim.vector import (
    VectorSnoopingBusSimulator,
    simulate_cells,
    simulate_many,
)
from repro.verify.invariants import audit_sim_result


def _config(workload, n=4, mods=(), seed=77, warmup=500, measured=2_000,
            **kwargs):
    return SimulationConfig(
        n_processors=n, workload=workload, protocol=ProtocolSpec.of(*mods),
        seed=seed, warmup_requests=warmup, measured_requests=measured,
        **kwargs)


class TestSingleReplication:
    def test_reps_one_matches_scalar_result_shape(self, workload_5pct):
        result = simulate(_config(workload_5pct), engine="vector", reps=1)
        assert isinstance(result, SimulationResult)
        assert result.requests_measured >= 2_000
        assert 0.0 < result.speedup <= 4.0
        assert 0.0 < result.u_bus <= 1.0
        assert result.mean_cycle_time > 0.0
        assert set(result.response_by_kind) <= {"local", "broadcast",
                                                "remote-read"}

    def test_reps_one_aggregate_is_the_single_row(self, workload_5pct):
        vector = simulate_many(_config(workload_5pct), reps=1)
        agg = vector.aggregate()
        row = vector.replication(0)
        assert agg.speedup == row.speedup
        assert agg.u_bus == row.u_bus
        assert agg.requests_measured == row.requests_measured
        assert vector.speedup_band_halfwidth == 0.0

    def test_deterministic_given_seeds(self, workload_5pct):
        a = simulate_many(_config(workload_5pct), reps=3)
        b = simulate_many(_config(workload_5pct), reps=3)
        assert np.array_equal(a.speedup, b.speedup)
        assert np.array_equal(a.u_bus, b.u_bus)
        assert np.array_equal(a.requests_measured, b.requests_measured)


class TestSeedSemantics:
    def test_permuting_seeds_permutes_rows(self, workload_5pct):
        """Replication r depends on seeds[r] alone: the lockstep layout
        must not leak state across lanes."""
        seeds = (101, 202, 303)
        perm = (303, 101, 202)
        a = simulate_many(_config(workload_5pct), reps=3, seeds=seeds)
        b = simulate_many(_config(workload_5pct), reps=3, seeds=perm)
        order = [seeds.index(s) for s in perm]
        assert np.array_equal(b.speedup, a.speedup[order])
        assert np.array_equal(b.u_bus, a.u_bus[order])
        assert np.array_equal(b.w_bus, a.w_bus[order])
        assert np.array_equal(b.mean_cycle_time, a.mean_cycle_time[order])

    def test_distinct_seeds_give_distinct_rows(self, workload_5pct):
        vector = simulate_many(_config(workload_5pct), reps=4)
        assert len(set(vector.speedup.tolist())) == 4

    def test_seed_count_must_match_reps(self, workload_5pct):
        with pytest.raises(ValueError, match="exactly 3 seeds"):
            simulate_many(_config(workload_5pct), reps=3, seeds=(1, 2))

    def test_reps_must_be_positive(self, workload_5pct):
        with pytest.raises(ValueError, match="reps"):
            simulate_many(_config(workload_5pct), reps=0)

    def test_rejects_non_fcfs_bus(self, workload_5pct):
        config = _config(workload_5pct,
                         bus_discipline=BusDiscipline.RANDOM)
        with pytest.raises(ValueError, match="FCFS"):
            VectorSnoopingBusSimulator(config, reps=2)


#: Every per-replication field of a VectorSimulationResult.
_FIELDS = ("requests_measured", "elapsed_cycles", "mean_cycle_time",
           "speedup", "speedup_ci_halfwidth", "processing_power", "u_bus",
           "u_mem", "w_bus", "w_bus_stddev", "q_bus_seen",
           "mean_interference_wait", "bus_transactions", "response_means",
           "response_counts")


def _assert_identical(merged, solo):
    assert merged.n_processors == solo.n_processors
    assert merged.protocol_label == solo.protocol_label
    assert merged.sharing_label == solo.sharing_label
    assert merged.seeds == solo.seeds
    for name in _FIELDS:
        a, b = getattr(merged, name), getattr(solo, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), (
            f"{solo.protocol_label} N={solo.n_processors}: {name} differs "
            "between the merged launch and a solo run")


class TestMergedLaunch:
    """Cells sharing one launch are bit-identical to solo launches."""

    def _cells(self, workload, warmup=200):
        # Write-Once and 1,2,3,4 at N in {1, 4, 16}, 3 or 16
        # replications, and seed 500 in every cell.
        cells = []
        for mods in ((), (1, 2, 3, 4)):
            for n in (1, 4, 16):
                reps = 16 if n == 4 else 3
                config = _config(workload, n=n, mods=mods, warmup=warmup,
                                 measured=800)
                cells.append((config, [500 + r for r in range(reps)]))
        return cells

    @pytest.mark.parametrize("warmup", [200, 0])
    def test_merged_cells_match_solo_runs(self, workload_5pct, warmup):
        """Without warm-up the initial bursts stay in busy_cycles, so
        the second case also pins their per-lane (unpadded) sum."""
        cells = self._cells(workload_5pct, warmup)
        merged = simulate_cells(cells)
        assert len(merged) == len(cells)
        for (config, seeds), result in zip(cells, merged):
            _assert_identical(result,
                              simulate_many(config, len(seeds), seeds))

    def test_permuting_cells_permutes_results(self, workload_5pct):
        cells = self._cells(workload_5pct)
        order = [4, 0, 5, 2, 1, 3]
        forward = simulate_cells(cells)
        permuted = simulate_cells([cells[i] for i in order])
        for position, index in enumerate(order):
            _assert_identical(permuted[position], forward[index])

    def test_one_launch_per_shared_setting(self, workload_5pct,
                                           monkeypatch):
        launches = []
        original = VectorSnoopingBusSimulator.run

        def counted(self):
            launches.append(self.reps)
            return original(self)

        monkeypatch.setattr(VectorSnoopingBusSimulator, "run", counted)
        short = _config(workload_5pct, n=2, warmup=100, measured=300)
        longer = _config(workload_5pct, n=3, warmup=100, measured=400)
        results = simulate_cells([(short, [1, 2]), (longer, [3]),
                                  (short, [4, 5, 6])])
        # The two cells with 300 measured requests share one 5-lane
        # launch; the 400-request cell needs its own.
        assert sorted(launches) == [1, 5]
        assert [r.seeds for r in results] == [(1, 2), (3,), (4, 5, 6)]

    def test_launch_reports_its_lanes_and_shared_counts(self,
                                                        workload_5pct):
        cells = self._cells(workload_5pct)
        launch = VectorSnoopingBusSimulator.from_cells(cells)
        assert launch.reps == sum(len(seeds) for _, seeds in cells)
        assert launch.config.warmup_requests == 200
        assert launch.config.measured_requests == 800

    def test_launches_are_capped_in_lanes(self, workload_5pct):
        """Cells are packed in order up to ``MAX_LAUNCH_LANES`` lanes
        per launch; a cell wider than the cap runs alone, never split."""
        from repro.sim.vector import MAX_LAUNCH_LANES, plan_launches

        short = _config(workload_5pct, measured=300)
        longer = _config(workload_5pct, measured=400)
        half = MAX_LAUNCH_LANES // 2
        cells = [(short, range(half)), (longer, range(3)),
                 (short, range(half)), (short, range(1)),
                 (short, range(2 * MAX_LAUNCH_LANES)), (short, range(1))]
        assert plan_launches(cells) == [[0, 2], [1], [3], [4], [5]]

    def test_split_launches_match_solo_runs(self, workload_5pct,
                                            monkeypatch):
        import repro.sim.vector as vector_module

        monkeypatch.setattr(vector_module, "MAX_LAUNCH_LANES", 16)
        cells = self._cells(workload_5pct)
        assert vector_module.plan_launches(cells) == [[0], [1], [2, 3], [4], [5]]
        for (config, seeds), result in zip(cells, simulate_cells(cells)):
            _assert_identical(result,
                              simulate_many(config, len(seeds), seeds))

    def test_cells_must_share_launch_settings(self, workload_5pct):
        with pytest.raises(ValueError, match="share"):
            VectorSnoopingBusSimulator.from_cells([
                (_config(workload_5pct, measured=300), [1]),
                (_config(workload_5pct, measured=400), [2])])

    def test_refill_boundary_is_a_function_of_the_lanes_own_n(self):
        """A lane's uniform buffer refills at its own chunk boundary
        (``max(4096, 8 * max(5, N))``), not the widest lane's, so a
        small-N lane draws the same stream next to an N=600 lane."""
        from repro.sim.vector import _UniformLanes

        solo = _UniformLanes([7], [5])
        merged = _UniformLanes([7, 8], [5, 600])
        lane = np.array([0])
        for _ in range(1_000):
            assert np.array_equal(merged.take(lane, 5), solo.take(lane, 5))

    def test_single_processor_cell_runs_solo(self, workload_5pct):
        vector = simulate_many(_config(workload_5pct, n=1, warmup=100,
                                       measured=500), reps=2)
        assert np.all(vector.requests_measured >= 500)
        assert np.all(vector.speedup > 0.0)


class TestSaturatedCorners:
    def test_saturated_bus_n100(self, workload_20pct):
        """Deep saturation (N=100, 20% sharing): the bus is pinned, the
        queue is long, and every sim-stats law still holds per row."""
        config = _config(workload_20pct, n=100, warmup=200, measured=800)
        vector = simulate_many(config, reps=2)
        assert np.all(vector.u_bus > 0.9)
        assert np.all(vector.w_bus > 10.0)
        for rep in range(2):
            audit = audit_sim_result(
                vector.replication(rep), tau=workload_20pct.tau,
                t_supply=config.arch.t_supply, subject=f"rep={rep}")
            assert not audit.violations, audit.violations

    def test_aggregate_preserves_speedup_identity(self, workload_5pct):
        """The folded result must satisfy the same speedup identity the
        per-replication rows do (a mean of speedups would not)."""
        config = _config(workload_5pct, n=8)
        agg = simulate_many(config, reps=5).aggregate()
        audit = audit_sim_result(agg, tau=workload_5pct.tau,
                                 t_supply=config.arch.t_supply,
                                 subject="aggregate")
        assert not audit.violations, audit.violations


class TestLongRunCounters:
    def test_counter_dtypes_are_exact_integers(self, workload_5pct):
        vector = simulate_many(_config(workload_5pct, n=2, warmup=1_000,
                                       measured=20_000), reps=2)
        assert vector.requests_measured.dtype == np.int64
        assert vector.bus_transactions.dtype == np.int64
        # Exact counting: every replication measured at least the
        # target and stopped within one completion batch of it.
        assert np.all(vector.requests_measured >= 20_000)
        assert np.all(vector.requests_measured <= 20_000 + 2)

    def test_statistical_agreement_with_scalar_smoke(self, workload_5pct):
        """A coarse one-cell sanity band (the calibrated oracle runs in
        ``repro verify --tier full``)."""
        config = _config(workload_5pct, warmup=1_000, measured=4_000)
        scalar = simulate(config)
        vector = simulate_many(config, reps=6)
        assert float(vector.speedup.mean()) == pytest.approx(
            scalar.speedup, rel=0.10)
        assert float(vector.u_bus.mean()) == pytest.approx(
            scalar.u_bus, abs=0.08)


class TestIntegrationSeams:
    def _task(self, workload, **kwargs):
        return CellTask(protocol=ProtocolSpec.of(), sharing_label="5%",
                        workload=workload, n=2, method="sim",
                        sim_requests=1_000, sim_seed=9, **kwargs)

    def test_default_engine_cache_key_unchanged(self, workload_5pct):
        """Scalar single-run tasks must keep their historical cache
        keys: a cache populated before the vector engine existed stays
        valid."""
        legacy = self._task(workload_5pct)
        assert legacy.sim_engine == "scalar" and legacy.sim_reps == 1
        key = task_key(legacy)
        assert '"engine"' not in key and '"reps"' not in key

    def test_vector_tasks_get_distinct_keys(self, workload_5pct):
        scalar_key = task_key(self._task(workload_5pct))
        vector_key = task_key(self._task(workload_5pct,
                                         sim_engine="vector", sim_reps=4))
        assert scalar_key != vector_key
        assert task_key(self._task(workload_5pct, sim_engine="vector",
                                   sim_reps=8)) != vector_key

    def test_executor_records_vector_provenance(self, workload_5pct):
        value = evaluate_task(self._task(workload_5pct,
                                         sim_engine="vector", sim_reps=3))
        assert value["sim_engine"] == "vector"
        assert value["sim_reps"] == 3
        assert value["cell"]["method"] == "sim"
        assert value["cell"]["speedup"] > 0.0
        scalar_value = evaluate_task(self._task(workload_5pct))
        assert "sim_engine" not in scalar_value

    def test_vector_reps_require_vector_engine(self, workload_5pct):
        with pytest.raises(ValueError, match="sim_engine='vector'"):
            self._task(workload_5pct, sim_reps=4)

    def test_cli_simulate_vector(self, workload_5pct, capsys):
        from repro.cli import main
        rc = main(["simulate", "--protocol", "write-once", "-n", "2",
                   "--requests", "800", "--engine", "vector",
                   "--reps", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        # Three replications x 800 requests folded into one aggregate.
        assert "speedup=" in out and "[2400 requests]" in out

    def test_cli_simulate_rejects_scalar_reps(self, capsys):
        from repro.cli import main
        rc = main(["simulate", "-n", "2", "--reps", "2"])
        assert rc == 2
        assert "--engine vector" in capsys.readouterr().err
