"""The output checks catch corrupted results.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from common import use_program  # noqa: E402

use_program()


def solve_answer(request: dict) -> bytes:
    from repro.service import ModelService

    return json.dumps(ModelService().solve(request, strict=True)).encode()


def test_solve_response_matches_reference_exactly():
    request = {"protocol": "1,4", "sharing": "20", "n": [3, 4, 5],
               "workload": {"tau": 3.25}}
    assert checks.solve_response_exact(solve_answer(request), request)


def test_corrupted_solve_value_fails_the_check():
    request = {"protocol": "write-once", "sharing": "5", "n": [9, 10]}
    answer = json.loads(solve_answer(request))
    answer["results"][1]["speedup"] *= 1 + 1e-12
    assert not checks.solve_response_exact(json.dumps(answer).encode(),
                                           request)


def test_failed_solve_cell_fails_the_shape_check():
    request = {"protocol": "write-once", "sharing": "5", "n": [2]}
    answer = json.loads(solve_answer(request))
    answer["results"][0]["status"] = "error"
    assert not checks.solve_response_ok(json.dumps(answer).encode(), request)


def grid_rows() -> tuple[list[dict], str]:
    from repro.analysis.grid import GridSpec, to_csv
    from repro.protocols.modifications import ProtocolSpec
    from repro.service import SweepExecutor

    spec = GridSpec(protocols=[ProtocolSpec(), ProtocolSpec.of(2, 3)],
                    sizes=[1, 7])
    cells = SweepExecutor(jobs=1).run_spec(spec).cells
    return [cell.as_row() for cell in cells], to_csv(cells)


def test_grid_rows_and_csv_pass():
    rows, text = grid_rows()
    assert checks.csv_mismatches(text, rows) == 0
    for row in rows:
        mods = frozenset() if row["protocol"] == "Write-Once" \
            else frozenset({2, 3})
        assert checks.cell_ok(row, mods, reference=True)


def test_corrupted_csv_row_fails_the_check():
    rows, text = grid_rows()
    lines = text.splitlines()
    fields = lines[2].split(",")
    fields[4] = str(float(fields[4]) * 1.01)  # the speedup column
    lines[2] = ",".join(fields)
    assert checks.csv_mismatches("\n".join(lines) + "\n", rows) == 1
    assert checks.csv_mismatches("\n".join(lines[:-1]) + "\n", rows) == 2


def test_corrupted_grid_value_fails_golden_and_reference_checks():
    rows, _text = grid_rows()
    for row in rows:  # N=1 is in the golden corpus, N=7 is not
        bad = dict(row, w_bus=row["w_bus"] * (1 + 1e-6) + 1e-9)
        mods = frozenset() if row["protocol"] == "Write-Once" \
            else frozenset({2, 3})
        assert not checks.cell_ok(bad, mods, reference=True)


def test_des_rows_outside_the_band_are_flagged():
    def row(method: str, speedup: float) -> dict:
        return {"protocol": "WO+1", "sharing": "5%", "n_processors": 4,
                "method": method, "speedup": speedup}

    band = checks.des_band()
    near = checks.des_rel_errors([row("mva", 3.0), row("sim", 3.05)])
    far = checks.des_rel_errors([row("mva", 3.0), row("sim", 3.0 * (1 + 2 * band))])
    assert near[0] <= band < far[0]
    assert checks.des_rel_errors([row("sim", 3.0)]) == [None]
