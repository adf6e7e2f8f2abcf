"""Output checks: every miss counts as one failed operation.

The references are in-process solves of the same cells through the
program's scalar model (:class:`repro.core.model.CacheMVAModel`), the
committed golden corpus, and the MVA-vs-DES tolerance the verify
harness applies.  They run after the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from typing import Any

#: The numeric row fields compared against a reference.
MEASURES = ("speedup", "u_bus", "w_bus", "cycle_time", "processing_power")

#: Relative tolerance of a CSV value (printed with 6 significant digits).
CSV_RTOL = 1e-5


def protocol_for(text: str) -> Any:
    """The protocol a request's ``protocol`` field names."""
    from repro.protocols.family import PROTOCOLS
    from repro.protocols.modifications import parse_mods

    return PROTOCOLS.get(text) or parse_mods(text)


def sharing_level(label: str) -> Any:
    from repro.workload.parameters import SharingLevel

    return {level.label: level for level in SharingLevel}[label]


@lru_cache(maxsize=None)
def _model(mods: frozenset[int], sharing: str, tau: float | None) -> Any:
    from repro.core.model import CacheMVAModel
    from repro.protocols.modifications import ProtocolSpec
    from repro.workload.parameters import appendix_a_workload

    workload = appendix_a_workload(sharing_level(sharing))
    if tau is not None:
        workload = workload.replace(tau=tau)
    return CacheMVAModel(workload, ProtocolSpec.of(*sorted(mods)))


def reference_row(mods: frozenset[int], sharing: str, n: int,
                  tau: float | None = None) -> dict[str, float]:
    """The scalar model's measures for one cell."""
    report = _model(frozenset(mods), sharing, tau).solve(n, recovery=True)
    return {name: getattr(report, name) for name in MEASURES}


def matches(row: dict[str, Any], reference: dict[str, float],
            rtol: float = 0.0) -> bool:
    """Every measure equal (``rtol=0``) or within ``rtol``."""
    for name in MEASURES:
        value = row.get(name)
        if not isinstance(value, (int, float)):
            return False
        if rtol == 0.0:
            if value != reference[name]:
                return False
        elif not math.isclose(value, reference[name], rel_tol=rtol,
                              abs_tol=1e-300):
            return False
    return True


# -- solve-mix ----------------------------------------------------------


def solve_response_ok(body: bytes, request: dict[str, Any]) -> bool:
    """Shape check of one ``/v1/solve`` answer: every cell solved."""
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    rows = payload.get("results") if isinstance(payload, dict) else None
    if not isinstance(rows, list) or payload.get("failures"):
        return False
    if [row.get("n_processors") for row in rows] != request["n"]:
        return False
    return all(row.get("status") == "ok" for row in rows)


def solve_response_exact(body: bytes, request: dict[str, Any]) -> bool:
    """Every cell of a response equals the in-process scalar solve."""
    if not solve_response_ok(body, request):
        return False
    mods = frozenset(protocol_for(request["protocol"]).mod_numbers)
    sharing = request["sharing"] + "%"
    tau = request.get("workload", {}).get("tau")
    rows = json.loads(body)["results"]
    return all(matches(row, reference_row(mods, sharing, row["n_processors"],
                                          tau))
               for row in rows)


# -- design-sweep -------------------------------------------------------


@lru_cache(maxsize=None)
def golden_index() -> dict[tuple[str, str, int], dict[str, Any]]:
    """The committed golden corpus, keyed (protocol, sharing, N)."""
    from repro.verify.golden import DEFAULT_CORPUS_PATH

    corpus = json.loads(DEFAULT_CORPUS_PATH.read_text())
    return {(cell["protocol"], cell["sharing"], cell["n"]): cell
            for cell in corpus["cells"]}


def golden_rtol() -> float:
    from repro.verify.golden import FLOAT_RTOL

    return FLOAT_RTOL


def cell_ok(row: dict[str, Any], mods: frozenset[int],
            reference: bool) -> bool:
    """One grid row against the golden corpus (where it has the cell)
    or, when ``reference`` is set, against the scalar solve."""
    if row.get("error") is not None:
        return False
    golden = golden_index().get(
        (row["protocol"], row["sharing"], row["n_processors"]))
    if golden is not None:
        return matches(row, golden, rtol=golden_rtol())
    if reference:
        return matches(row, reference_row(mods, row["sharing"],
                                          row["n_processors"]))
    return True


def csv_mismatches(text: str, rows: list[dict[str, Any]]) -> int:
    """CSV lines that do not render their grid row (plus missing or
    surplus lines)."""
    records = list(csv.DictReader(io.StringIO(text)))
    bad = abs(len(records) - len(rows))
    for record, row in zip(records, rows):
        ok = (record.get("protocol") == row["protocol"]
              and record.get("sharing") == row["sharing"]
              and record.get("n_processors") == str(row["n_processors"])
              and record.get("method") == row["method"])
        for name in MEASURES:
            if not ok:
                break
            try:
                value = float(record.get(name) or "nan")
            except ValueError:
                value = math.nan
            ok = math.isclose(value, row[name], rel_tol=CSV_RTOL)
        bad += not ok
    return bad


# -- des-validate -------------------------------------------------------


def des_band() -> float:
    from repro.verify.differential import TOLERANCES

    return TOLERANCES["mva-vs-des-speedup"]


def des_rel_errors(rows: list[dict[str, Any]]) -> list[float | None]:
    """|MVA - DES| / DES speedup for each DES row (``None`` when the
    row or its MVA partner is an error row or missing)."""
    mva = {(row["protocol"], row["sharing"], row["n_processors"]): row
           for row in rows if row["method"] == "mva"}
    errors: list[float | None] = []
    for row in rows:
        if row["method"] != "sim":
            continue
        partner = mva.get((row["protocol"], row["sharing"],
                           row["n_processors"]))
        if (row.get("error") is not None or partner is None
                or partner.get("error") is not None):
            errors.append(None)
            continue
        errors.append(abs(partner["speedup"] - row["speedup"])
                      / row["speedup"])
    return errors
