"""The differential oracle: cross-engine parity, and proof it can fail.

The acceptance bar for an oracle is not "it passes on main" but "it
fires when an engine is deliberately perturbed".  Each perturbation
here monkeypatches one equation in one engine and asserts the exact
law that must catch it does, with structured output -- then the
unperturbed runs pin the parity claims themselves (scalar-vs-batch at
zero tolerance, MVA-vs-DES inside the EXPERIMENTS.md bands).
"""

from __future__ import annotations

import pytest

from repro.protocols.modifications import ProtocolSpec, all_combinations
from repro.service.executor import CellTask
from repro.sim.system import simulate
from repro.sim.vector import simulate_cells
from repro.verify import (
    TOLERANCES,
    diff_mva_des,
    diff_scalar_batch,
    simulate_des,
)
from repro.verify.differential import diff_scalar_vector
from repro.verify.violations import Severity
from repro.workload.parameters import SharingLevel, appendix_a_workload


def _tasks(sizes=(1, 4, 16)):
    workload = appendix_a_workload(SharingLevel.FIVE_PERCENT)
    return [CellTask(protocol=spec, sharing_label="5%",
                     workload=workload, n=n)
            for spec in (ProtocolSpec(), ProtocolSpec.of(2, 3))
            for n in sizes]


def _errors(audit):
    return [v for v in audit.violations if v.severity is Severity.ERROR]


class TestScalarVsBatch:
    def test_zero_tolerance_parity_holds(self):
        audit = diff_scalar_batch(_tasks())
        assert audit.checks > len(_tasks())  # several fields per cell
        assert not audit.violations, audit.violations

    def test_all_sixteen_combinations_hold(self):
        workload = appendix_a_workload(SharingLevel.TWENTY_PERCENT)
        tasks = [CellTask(protocol=spec, sharing_label="20%",
                          workload=workload, n=10)
                 for spec in all_combinations()]
        audit = diff_scalar_batch(tasks)
        assert not audit.violations, audit.violations

    def test_perturbed_batch_engine_is_caught(self, monkeypatch):
        """Skew the batch engine's eq-(8) bus-wait probability by one
        part in 1e6; the zero-tolerance oracle must flag every cell
        where the solve actually exercises the bus."""
        from repro.core import batch as batch_mod

        original = batch_mod._p_busy_vec

        def skewed(u, n, multi=None, n_f=None):
            return original(u, n, multi=multi, n_f=n_f) * (1.0 + 1e-6)

        monkeypatch.setattr(batch_mod, "_p_busy_vec", skewed)
        audit = diff_scalar_batch(_tasks(sizes=(4, 16)))
        parity = [v for v in _errors(audit) if v.law == "engine-parity"]
        assert parity, "a perturbed engine must not pass the oracle"
        # The violation is attributable: it names the field and both
        # engines' values.
        assert all(v.context.get("field") for v in parity)
        assert all("scalar" in v.context and "batch" in v.context
                   for v in parity)


class TestMvaVsDes:
    def _task(self, spec=ProtocolSpec.of(1), n=6, requests=4_000):
        return CellTask(
            protocol=spec, sharing_label="5%",
            workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
            n=n, method="sim", sim_requests=requests, sim_seed=42)

    def _diff(self, task, **bands):
        (result,) = simulate_des([task])
        return diff_mva_des(task, result, **bands)

    def test_agreement_within_band(self):
        audit = self._diff(self._task())
        assert not _errors(audit), audit.violations

    def test_simulate_des_matches_per_cell_runs(self):
        """The merged vector launch and the scalar path hand the oracle
        exactly what a per-cell ``simulate`` call would."""
        workload = appendix_a_workload(SharingLevel.FIVE_PERCENT)
        tasks = [CellTask(protocol=spec, sharing_label="5%",
                          workload=workload, n=n, method="sim",
                          sim_requests=600, sim_seed=5 + n,
                          sim_engine="vector", sim_reps=3)
                 for spec in (ProtocolSpec(), ProtocolSpec.of(1, 2, 3, 4))
                 for n in (2, 5)]
        tasks.append(self._task(requests=600))
        expected = [simulate(task.sim_config(), engine=task.sim_engine,
                             reps=task.sim_reps) for task in tasks]
        assert simulate_des(tasks) == expected

    def test_sim_stats_audited_in_same_pass(self):
        """diff_mva_des folds the sim-stats laws in, so the check count
        reflects both the parity laws and the DES-internal ones."""
        audit = self._diff(self._task())
        assert audit.checks > 10

    def test_perturbed_mva_equation_is_caught(self, monkeypatch):
        """Inflate the eq-(5) bus waiting time by 50 % inside the
        sweep; the solved speedup leaves the EXPERIMENTS.md agreement
        band (~28 % relative error at N=10) and the differential must
        report it against the DES arbiter."""
        import dataclasses

        from repro.core import equations as eq_mod

        original = eq_mod.EquationSystem.step

        def inflated(self, state):
            new = original(self, state)
            return dataclasses.replace(new, w_bus=new.w_bus * 1.5)

        monkeypatch.setattr(eq_mod.EquationSystem, "step", inflated)
        audit = self._diff(self._task(n=10))
        speedup = [v for v in _errors(audit)
                   if v.law == "mva-des-speedup"]
        assert speedup, "a perturbed MVA must not pass the DES oracle"
        (violation,) = speedup
        assert violation.context["rel_error"] > \
            TOLERANCES["mva-vs-des-speedup"]
        assert violation.context["seed"] == 42

    def test_band_override(self):
        """An impossible band makes even an honest cell fail -- the
        band plumbing is live, not decorative."""
        audit = self._diff(self._task(), speedup_band=1e-9)
        assert any(v.law == "mva-des-speedup" for v in _errors(audit))


class TestScalarVsVector:
    def _cell(self, requests, reps):
        task = CellTask(
            protocol=ProtocolSpec.of(1, 2, 3, 4), sharing_label="5%",
            workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
            n=4, method="sim", sim_requests=requests, sim_seed=7,
            sim_engine="vector", sim_reps=reps)
        (vector,) = simulate_cells([task.vector_cell()])
        return task, vector

    def test_equivalence_holds(self):
        audit = diff_scalar_vector(*self._cell(requests=4_000, reps=6))
        assert audit.checks > 4
        assert not _errors(audit), audit.violations

    def test_needs_two_replications(self):
        with pytest.raises(ValueError, match="reps must be >= 2"):
            diff_scalar_vector(*self._cell(requests=200, reps=1))


class TestDeclaredTolerances:
    def test_scalar_batch_tolerance_is_exactly_zero(self):
        assert TOLERANCES["scalar-vs-batch"] == 0.0

    def test_mva_des_band_matches_experiments(self):
        """EXPERIMENTS.md: worst measured speedup error 5.4 %, band
        6.5 %.  Changing the band is a documented decision, not a
        drive-by edit."""
        assert TOLERANCES["mva-vs-des-speedup"] == pytest.approx(0.065)
