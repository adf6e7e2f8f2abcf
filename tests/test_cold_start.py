"""Cold start: SciPy stays off every MVA import path.

``scipy.stats`` costs about a second and tens of MB to import, and the
only thing the package takes from it is the Student-t critical value of
a DES confidence interval.  :func:`repro.sim.stats.t_quantile` imports
it on first use; these tests pin that the CLI, the service, the sweep
queue and verify import -- and an MVA grid runs -- with SciPy
unimportable, and that the deferred quantile is the same SciPy number.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from repro.sim.stats import t_quantile

SRC = Path(__file__).resolve().parents[1] / "src"

#: Installs a finder that refuses every ``scipy`` import, then runs the
#: snippet given in argv[1].
_BLOCK_SCIPY = textwrap.dedent("""
    import sys

    class _NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"scipy import blocked: {name}")

    sys.meta_path.insert(0, _NoScipy())
""")


def _run(code: str, block_scipy: bool) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    prelude = _BLOCK_SCIPY if block_scipy else ""
    return subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120)


def test_mva_paths_import_and_run_without_scipy():
    result = _run("""
        import sys

        import repro
        import repro.analysis.grid
        import repro.cli
        import repro.service
        import repro.service.aio
        import repro.sweepq
        import repro.verify
        from repro.analysis.grid import GridSpec
        from repro.protocols.family import protocol_by_name
        from repro.service.executor import SweepExecutor

        spec = GridSpec(protocols=[protocol_by_name("write-once"),
                                   protocol_by_name("berkeley")],
                        sizes=[1, 4, 16])
        result = SweepExecutor().run_spec(spec)
        assert len(result.cells) == 2 * 3 * len(spec.sharing_levels)
        assert all(cell.error is None for cell in result.cells)
        assert not any(name.split(".")[0] == "scipy"
                       for name in sys.modules)
        print("ok")
    """, block_scipy=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_scipy_loads_at_the_first_confidence_interval():
    result = _run("""
        import sys

        import repro.sim.vector
        from repro.sim.stats import BatchMeans

        assert "scipy.stats" not in sys.modules
        means = BatchMeans(n_batches=4)
        for value in range(40):
            means.add(float(value % 7))
        half, _ = means.confidence_interval()
        assert half > 0.0
        assert "scipy.stats" in sys.modules
        print("ok")
    """, block_scipy=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


@pytest.mark.parametrize("q", [0.95, 0.975])
@pytest.mark.parametrize("df", [1, 2, 9, 15, 511])
def test_t_quantile_is_the_scipy_value(q, df):
    assert t_quantile(q, df) == float(scipy_stats.t.ppf(q, df=df))


def test_t_quantile_is_memoized():
    t_quantile(0.975, 9)
    hits = t_quantile.cache_info().hits
    for _ in range(3):
        t_quantile(0.975, 9)
    assert t_quantile.cache_info().hits == hits + 3
