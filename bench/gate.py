"""Correctness gate: every task output is checked against the independent
``oracle`` path and against entropies recomputed here from raw definitions.

Runs outside the timed region.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from mdiscord.measure import tree_from_params

from workloads import DiscordTask, oracle_mod, tree_integrand

TOL = 1e-9
MEASURED_MAX = 1e-6
_CLAMP = 1e-12

LEDGER_3 = ("S_A_BC", "S_B_AC", "S_C_AB", "I_AB_C", "I_AC_B", "I_BC_A", "I_ABC")
DELTAS_3 = {
    "after_first": ("d_A_BC", "Delta_AB_C", "Delta_AC_B", "Delta_ABC", "dS_PiA"),
    "after_second": ("Delta_BC_PiA", "Delta_BPiAC", "dS_B_PiA"),
}
LEDGER_2 = ("S_A_B", "S_B_A", "I_AB")
DELTAS_2 = {"after_first": ("d_A_B", "dS_PiA", "dS_PiA_B")}
STAGE_SUFFIX = {"pre": "pre", "after_first": "m1", "after_second": "m2"}
DECOMPOSITION = ("Delta_AB_C", "Delta_AC_B", "Delta_BC_PiA", "Delta_ABC")
# Column order of the byte-stable CSV: ledger keys, then deltas in this order.
CSV_DELTAS_3 = ("d_A_BC", "Delta_AB_C", "Delta_AC_B", "Delta_BC_PiA", "Delta_ABC",
                "Delta_BPiAC", "dS_PiA", "dS_B_PiA")
CSV_DELTAS_2 = ("d_A_B", "dS_PiA", "dS_PiA_B")


# ---- raw definitions on plain qubit matrices --------------------------------

def _entropy(matrix) -> float:
    vals = np.linalg.eigvalsh(matrix)
    vals = vals[vals > _CLAMP]
    return float(-np.sum(vals * np.log2(vals)))


def _reduce(matrix, n: int, keep) -> np.ndarray:
    """Partial trace of an n-qubit matrix down to the qubits in ``keep``."""
    keep = sorted(keep)
    if not keep:
        return np.array([[np.trace(matrix)]])
    t = matrix.reshape((2,) * (2 * n))
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows = list(letters[:n])
    cols = [letters[n + i] if i in keep else letters[i] for i in range(n)]
    out = [rows[i] for i in keep] + [cols[i] for i in keep]
    reduced = np.einsum(f"{''.join(rows)}{''.join(cols)}->{''.join(out)}", t)
    side = 2 ** len(keep)
    return reduced.reshape(side, side)


def _basis(theta: float, phi: float):
    phase = np.exp(1j * phi)
    v0 = np.array([np.cos(theta), phase * np.sin(theta)])
    v1 = np.array([np.sin(theta), -phase * np.cos(theta)])
    return [np.outer(v, v.conj()) for v in (v0, v1)]


def _embed(projector, position: int, n: int):
    return reduce(np.kron, [projector if q == position else np.eye(2) for q in range(n)])


def measured_states(matrix, n: int, angles) -> list[np.ndarray]:
    """rho, rho1 (first qubit measured) and, for n = 3, rho2 (first two
    measured, child basis chosen by the first outcome), from flat angles in
    breadth-first node order."""
    angles = np.asarray(angles, dtype=float)
    root = _basis(angles[0], angles[1])
    branches = [_embed(p, 0, n) @ matrix @ _embed(p, 0, n) for p in root]
    out = [matrix, sum(branches)]
    if n == 3:
        rho2 = 0
        for j, branch in enumerate(branches):
            node = 1 + j
            for p in _basis(angles[2 * node], angles[2 * node + 1]):
                rho2 = rho2 + _embed(p, 1, n) @ branch @ _embed(p, 1, n)
        out.append(rho2)
    return out


class _Entropies:
    def __init__(self, matrix, n: int):
        self.matrix, self.n, self._cache = matrix, n, {}

    def s(self, *keep) -> float:
        if keep not in self._cache:
            self._cache[keep] = _entropy(_reduce(self.matrix, self.n, keep))
        return self._cache[keep]


def raw_ledger(matrix, n: int, angles) -> dict[str, dict[str, float]]:
    """Every ledger entry and delta of the flux report, per stage, from the
    raw definitions."""
    stages = [_Entropies(m, n) for m in measured_states(matrix, n, angles)]
    if n == 2:
        def ledger(e):
            return {"S_A_B": e.s(0, 1) - e.s(1), "S_B_A": e.s(0, 1) - e.s(0),
                    "I_AB": e.s(0) + e.s(1) - e.s(0, 1)}
        pre, m1 = ledger(stages[0]), ledger(stages[1])
        rho, rho1 = stages
        d_a_b = (rho1.s(0, 1) - rho1.s(0)) - (rho.s(0, 1) - rho.s(0))
        return {"pre": pre, "after_first": {
            **m1, "d_A_B": d_a_b, "dS_PiA": rho1.s(0) - rho.s(0),
            "dS_PiA_B": m1["S_A_B"] - pre["S_A_B"]}}

    def ledger(e):
        i_ac_b = e.s(0, 1) + e.s(1, 2) - e.s(0, 1, 2) - e.s(1)
        return {
            "S_A_BC": e.s(0, 1, 2) - e.s(1, 2),
            "S_B_AC": e.s(0, 1, 2) - e.s(0, 2),
            "S_C_AB": e.s(0, 1, 2) - e.s(0, 1),
            "I_AB_C": e.s(0, 2) + e.s(1, 2) - e.s(0, 1, 2) - e.s(2),
            "I_AC_B": i_ac_b,
            "I_BC_A": e.s(0, 1) + e.s(0, 2) - e.s(0, 1, 2) - e.s(0),
            "I_ABC": e.s(0) + e.s(2) - e.s(0, 2) - i_ac_b,
        }

    rho, rho1, rho2 = stages
    pre, m1, m2 = ledger(rho), ledger(rho1), ledger(rho2)
    return {
        "pre": pre,
        "after_first": {
            **m1,
            "d_A_BC": (rho1.s(0, 1, 2) - rho1.s(0)) - (rho.s(0, 1, 2) - rho.s(0)),
            "Delta_AB_C": pre["I_AB_C"] - m1["I_AB_C"],
            "Delta_AC_B": pre["I_AC_B"] - m1["I_AC_B"],
            "Delta_ABC": pre["I_ABC"] - m1["I_ABC"],
            "dS_PiA": rho1.s(0) - rho.s(0),
        },
        "after_second": {
            **m2,
            "Delta_BC_PiA": m1["I_BC_A"] - m2["I_BC_A"],
            "Delta_BPiAC": m1["I_ABC"] - m2["I_ABC"],
            "dS_B_PiA": (rho2.s(0, 1) - rho2.s(0)) - (rho1.s(0, 1) - rho1.s(0)),
        },
    }


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= TOL


# ---- per-workload checks ----------------------------------------------------

def check_discord(task: DiscordTask, result) -> list[str]:
    problems = []
    value = result.value
    if not math.isfinite(value):
        return [f"value {value} is not finite"]
    params = result.optimal_params
    tree = tree_from_params(task.state.dims, (0, 1), params)
    reference = oracle_mod.reference_objective(task.state, tree, 3)
    if not _close(value, reference):
        problems.append(f"value {value!r} != oracle objective {reference!r} at its params")
    points = task.config.grid_points_per_angle
    grid_min = oracle_mod.dense_grid_min(task.state, 3, points)
    if value > grid_min + TOL:
        problems.append(f"value {value!r} above the {points}-point grid minimum {grid_min!r}")
    if value < -TOL:
        problems.append(f"value {value!r} is negative")
    if task.kind == "measured" and value >= MEASURED_MAX:
        problems.append(f"measured state gives {value!r}, not below {MEASURED_MAX}")
    decomposition = result.decomposition or {}
    if set(decomposition) != set(DECOMPOSITION):
        return problems + [f"decomposition keys {sorted(decomposition)}"]
    if not _close(sum(decomposition.values()), value):
        problems.append(f"decomposition sums to {sum(decomposition.values())!r}, value {value!r}")
    raw = raw_ledger(np.asarray(task.state.matrix), 3, params.to_flat())
    expected = {**raw["after_first"], **raw["after_second"]}
    for key in DECOMPOSITION:
        if not _close(decomposition[key], expected[key]):
            problems.append(f"{key} {decomposition[key]!r} != raw {expected[key]!r}")
    return problems


def check_flux(pair, reports, csv) -> list[str]:
    n = pair.state.n_subsystems
    ledger_keys, delta_keys, csv_deltas = (
        (LEDGER_3, DELTAS_3, CSV_DELTAS_3) if n == 3 else (LEDGER_2, DELTAS_2, CSV_DELTAS_2))
    stages = ("pre", "after_first", "after_second")[:n]
    raw = raw_ledger(np.asarray(pair.state.matrix), n, pair.angles)
    problems = []
    if [r.stage for r in reports] != list(stages):
        return [f"stages {[r.stage for r in reports]}"]
    for report in reports:
        if set(report.ledger) != set(ledger_keys):
            problems.append(f"{report.stage} ledger keys {sorted(report.ledger)}")
        if set(report.deltas) != set(delta_keys.get(report.stage, ())):
            problems.append(f"{report.stage} delta keys {sorted(report.deltas)}")
    if problems:
        return problems
    for report in reports:
        expected = raw[report.stage]
        for key, value in {**report.ledger, **report.deltas}.items():
            if not _close(value, expected[key]):
                problems.append(f"{report.stage} {key} {value!r} != raw {expected[key]!r}")
    header, row = csv
    expected_header = [f"{key}_{STAGE_SUFFIX[stage]}"
                       for key in ledger_keys + csv_deltas
                       for stage in stages]
    if list(header) != expected_header or len(row) != len(header):
        return problems + ["CSV header differs from the ledger layout"]
    by_column = {f"{key}_{STAGE_SUFFIX[stage]}": value
                 for stage in stages for key, value in raw[stage].items()}
    for column, text in zip(header, row):
        expected = by_column.get(column, 0.0)
        if not _close(float(text), expected):
            problems.append(f"CSV {column} {text} != raw {expected!r}")
    # The oracle's own route to the discord integrand of this tree.
    if n == 3:
        integrand = tree_integrand(reports)
        reference = oracle_mod.reference_objective(pair.state, pair.tree, 3)
        if not _close(integrand, reference):
            problems.append(f"four deltas sum to {integrand!r}, oracle {reference!r}")
    d_key = "d_A_BC" if n == 3 else "d_A_B"
    d_value = reports[1].deltas[d_key]
    reference = oracle_mod.reference_objective(pair.state, pair.tree, 2)
    if not _close(d_value, reference):
        problems.append(f"{d_key} {d_value!r} != oracle {reference!r}")
    return problems


def check_ledger(task, output) -> list[str]:
    problems = []
    if len(output.reports) != len(task.pairs):
        return [f"{len(output.reports)} reports for {len(task.pairs)} requests"]
    for pair, reports, csv in zip(task.pairs, output.reports, output.csv):
        problems += check_flux(pair, reports, csv)
    if not output.verify:
        problems.append("verification suite returned no reports")
    for report in output.verify:
        if not report.passed:
            problems.append(f"verify {report.name} failed: {report.max_violation!r}")
    return problems


def check(task, output) -> list[str]:
    if isinstance(task, DiscordTask):
        return check_discord(task, output)
    return check_ledger(task, output)
