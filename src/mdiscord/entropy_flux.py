"""Conditional entropies, mutual informations, and measurement-induced
entropy changes.

Naming follows the canonical ledger keys used in CSV output: subsystems of a
tripartite state are A, B, C at positions 0, 1, 2, the tree measures A then
B, and quantities evaluated on the once- and twice-measured states carry the
stage suffixes m1 and m2.

Every "delta" is computed two independent ways, as a difference of mutual
informations across a measurement and as a combination of unminimized
discords; :func:`flux_report` cross-checks the two routes on every call.  It
measures each stage once: both routes read the same once- and twice-measured
states and depth-1 branches.  The tripartite decomposition that
:func:`~mdiscord.discord.discord` reports, and that the ``delta_*`` functions
read, likewise measures each stage once and takes its four terms from the
same ledger differences as :func:`flux_report`.

Each formula is written once, over the entropy table of the state it
describes (:func:`_entropy_table`), which values each subsystem entropy of
that state once.  The public primitives, the ledgers of every stage and
both routes of every cross-check read one table per state, so a value
reported two ways is the same floating-point expression on the same
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .measure import PROB_EPS, MeasurementTree, apply_tree
from .qstate import (
    QState,
    StructuralError,
    SubsetSpec,
    as_subset,
    entropy,
    subsystem_entropy,
)

IDENTITY_TOL = 1e-9

STAGES = ("pre", "after_first", "after_second")
STAGE_SUFFIX = {"pre": "pre", "after_first": "m1", "after_second": "m2"}

LEDGER_KEYS_TRIPARTITE = (
    "S_A_BC", "S_B_AC", "S_C_AB", "I_AB_C", "I_AC_B", "I_BC_A", "I_ABC",
)
DELTA_KEYS_TRIPARTITE = (
    "d_A_BC", "Delta_AB_C", "Delta_AC_B", "Delta_BC_PiA", "Delta_ABC",
    "Delta_BPiAC", "dS_PiA", "dS_B_PiA",
)
LEDGER_KEYS_BIPARTITE = ("S_A_B", "S_B_A", "I_AB")
DELTA_KEYS_BIPARTITE = ("d_A_B", "dS_PiA", "dS_PiA_B")


class FluxConsistencyError(RuntimeError):
    """The two defining routes for a delta disagreed beyond IDENTITY_TOL."""


@dataclass(frozen=True)
class FluxReport:
    """Ledger of entropies at one stage plus the deltas incurred reaching it."""

    stage: str
    ledger: dict[str, float]
    deltas: dict[str, float]


def cond_entropy(
    state: QState,
    target: SubsetSpec | Iterable[int],
    given: SubsetSpec | Iterable[int],
) -> float:
    """S_{target|given} = S_{target u given} - S_{given}; can be negative."""
    target, given = _disjoint(state, "target and given subsets overlap", target, given)
    return _cond(_entropy_table(state), target, given)


def cond_entropy_measured(
    state: QState,
    tree: MeasurementTree,
    depth: int,
    target: SubsetSpec | Iterable[int] | None = None,
) -> float:
    """Probability-weighted entropy of the depth-length branch states.

    With ``target=None`` each branch contributes its full entropy, which is
    the conditional entropy of everything left unmeasured (measured factors
    in a branch are pure).  A ``target`` subset restricts each branch to the
    named subsystems before taking its entropy.  Branches below PROB_EPS
    contribute exactly zero.
    """
    if target is not None:
        target = as_subset(target, state.n_subsystems)
    _, branches = apply_tree(state, tree, depth)
    return _branch_average(branches, target)


def _branch_average(branches, target) -> float:
    """Probability-weighted entropy of the branch states (restricted to
    ``target`` unless it is None); branches below PROB_EPS contribute zero."""
    total = 0.0
    for branch in branches:
        if branch.probability < PROB_EPS or branch.post_state is None:
            continue
        if target is None:
            total += branch.probability * entropy(branch.post_state)
        else:
            total += branch.probability * subsystem_entropy(branch.post_state, target)
    return total


def _d_branches(s, branches, measured, rest) -> float:
    """d_unminimized of the ``measured`` block against ``rest``, from the
    entropy table ``s`` of the state measured and the branches the tree
    already produced at that block's depth."""
    return _branch_average(branches, rest) - _cond(s, rest, measured)


def mutual_info(
    state: QState,
    a: SubsetSpec | Iterable[int],
    b: SubsetSpec | Iterable[int],
) -> float:
    """I_{a:b} = S_a + S_b - S_{ab}."""
    a, b = _disjoint(state, "mutual information subsets overlap", a, b)
    return _mutual(_entropy_table(state), a, b)


def cond_mutual_info(
    state: QState,
    a: SubsetSpec | Iterable[int],
    b: SubsetSpec | Iterable[int],
    given: SubsetSpec | Iterable[int],
) -> float:
    """I_{a:b|given} = S_{a|given} - S_{a|b u given}; non-negative by strong
    subadditivity."""
    a, b, given = _disjoint(
        state, "conditional mutual information subsets overlap", a, b, given
    )
    return _cmi(_entropy_table(state), a, b, given)


def tripartite_mutual_info(state: QState) -> float:
    """I_{A:B:C} = I_{A:C} - I_{A:C|B} for a three-subsystem state; its sign
    is unconstrained."""
    _require_tripartite(state)
    return _cmi_family(_entropy_table(state))["I_ABC"]


def _disjoint(state: QState, message: str, *specs) -> list[tuple[int, ...]]:
    """The positions each of ``specs`` names on ``state``; raises
    StructuralError with ``message`` if two of them share a position."""
    subsets = [as_subset(spec, state.n_subsystems).indices for spec in specs]
    positions = [i for subset in subsets for i in subset]
    if len(set(positions)) < len(positions):
        raise StructuralError(message)
    return subsets


def _require_tripartite(state: QState):
    if state.n_subsystems != 3:
        raise StructuralError(
            f"operation needs exactly 3 subsystems, state has {state.n_subsystems}"
        )


def _require_two_level_tree(tree: MeasurementTree):
    if tree.measured[:2] != (0, 1):
        raise StructuralError(
            "tripartite flux quantities need a tree measuring subsystems 0 then 1"
        )


def _entropy_table(state: QState):
    """``s(*positions)``: the entropy of ``state`` reduced to those
    positions (ascending), valued once per subset however often it is
    read."""
    values = {}

    def s(*positions):
        if positions not in values:
            values[positions] = subsystem_entropy(state, positions)
        return values[positions]

    return s


def _cond(s, target, given) -> float:
    """S_{target|given} = S_{target u given} - S_{given} from the entropy
    table ``s`` of a state; ``target`` and ``given`` are disjoint ascending
    position tuples."""
    return s(*sorted(target + given)) - s(*given)


def _mutual(s, a, b) -> float:
    """I_{a:b} = S_a + S_b - S_{ab} from the entropy table ``s``."""
    return s(*a) + s(*b) - s(*sorted(a + b))


def _cmi(s, a, b, given) -> float:
    """I_{a:b|given} = S_{a|given} - S_{a|b u given} from the entropy table
    ``s``."""
    return _cond(s, a, given) - _cond(s, a, tuple(sorted(b + given)))


def _cmi_family(s) -> dict[str, float]:
    """The conditional and tripartite mutual informations of a tripartite
    state from its entropy table ``s``."""
    i_ac_b = _cmi(s, (0,), (2,), (1,))
    return {
        "I_AB_C": _cmi(s, (0,), (1,), (2,)),
        "I_AC_B": i_ac_b,
        "I_BC_A": _cmi(s, (1,), (2,), (0,)),
        "I_ABC": _mutual(s, (0,), (2,)) - i_ac_b,
    }


def _tripartite_ledger(s) -> dict[str, float]:
    """The ledger of one stage of a tripartite state from its entropy table
    ``s``, keyed as LEDGER_KEYS_TRIPARTITE."""
    return {
        "S_A_BC": _cond(s, (0,), (1, 2)),
        "S_B_AC": _cond(s, (1,), (0, 2)),
        "S_C_AB": _cond(s, (2,), (0, 1)),
        **_cmi_family(s),
    }


def _terms(pre, m1, m2) -> dict[str, float]:
    """The four terms of the tripartite discord from the ledgers of the pre,
    once- and twice-measured states, keyed in sweep-column order: the drops
    of I_{A:B|C} and I_{A:C|B} and the change of I_{A:B:C} under the first
    measurement, and the drop of I_{B:C|A} under the second."""
    return {
        "Delta_AB_C": pre["I_AB_C"] - m1["I_AB_C"],
        "Delta_AC_B": pre["I_AC_B"] - m1["I_AC_B"],
        "Delta_BC_PiA": m1["I_BC_A"] - m2["I_BC_A"],
        "Delta_ABC": pre["I_ABC"] - m1["I_ABC"],
    }


def _decomposition(state: QState, tree: MeasurementTree) -> dict[str, float]:
    """The four terms of :func:`_terms` for a tripartite state and a tree
    measuring subsystems 0 then 1, measuring each stage once and valuing
    each of its subsystem entropies once; the twice-measured state is
    valued only for the I_{B:C|A} they read."""
    _require_tripartite(state)
    _require_two_level_tree(tree)
    rho1, _ = apply_tree(state, tree, 1)
    rho2, _ = apply_tree(state, tree, 2)
    m2 = {"I_BC_A": _cmi(_entropy_table(rho2), (1,), (2,), (0,))}
    pre = _cmi_family(_entropy_table(state))
    return _terms(pre, _cmi_family(_entropy_table(rho1)), m2)


def d_unminimized(
    state: QState,
    tree: MeasurementTree,
    measured_block: SubsetSpec | Iterable[int],
    rest: SubsetSpec | Iterable[int],
) -> float:
    """Unminimized discord d = S_{rest|measured-with-measurement} -
    S_{rest|measured}; non-negative for every tree."""
    measured_block, rest = _disjoint(
        state, "measured_block and rest overlap", measured_block, rest
    )
    if measured_block != tree.measured[: len(measured_block)]:
        raise StructuralError(
            "measured_block must be the leading measured subsystems of the tree"
        )
    _, branches = apply_tree(state, tree, len(measured_block))
    return _d_branches(_entropy_table(state), branches, measured_block, rest)


def delta_cond_discord(state: QState, tree: MeasurementTree) -> tuple[float, float]:
    """Conditional discords (Delta_{A;B|C}, Delta_{A;C|B}): the drop each
    conditional mutual information suffers under the first measurement."""
    terms = _decomposition(state, tree)
    return terms["Delta_AB_C"], terms["Delta_AC_B"]


def delta_post_discord(state: QState, tree: MeasurementTree) -> float:
    """Delta_{B;C|PiA}: the B:C conditional discord remaining after the first
    measurement, i.e. the drop of I_{B:C|A} under the second one."""
    return _decomposition(state, tree)["Delta_BC_PiA"]


def delta_monogamy(state: QState, tree: MeasurementTree) -> float:
    """Delta_{A:B:C}: change of the tripartite mutual information under the
    first measurement; negative for monogamous correlations, positive for
    polygamous ones."""
    return _decomposition(state, tree)["Delta_ABC"]


def _check(label: str, first: float, second: float):
    if abs(first - second) > IDENTITY_TOL:
        raise FluxConsistencyError(
            f"{label}: routes disagree by {abs(first - second):.3e}"
        )


def _tripartite_reports(state, tree) -> tuple[FluxReport, ...]:
    rho1, branches = apply_tree(state, tree, 1)
    rho2, _ = apply_tree(state, tree, 2)
    s0, s1, s2 = (_entropy_table(rho) for rho in (state, rho1, rho2))
    pre, m1, m2 = (_tripartite_ledger(s) for s in (s0, s1, s2))

    def change(target, given):
        """The change of S_{target|given} under the second measurement."""
        return _cond(s2, target, given) - _cond(s1, target, given)

    d_a_b, d_a_c, d_a_bc = (
        _d_branches(s0, branches, (0,), rest) for rest in ((1,), (2,), (1, 2))
    )
    # The mutual information route: the terms of the decomposition discord()
    # reports, read off the same ledgers.
    delta_ab_c, delta_ac_b, delta_bc_pia, delta_abc = _terms(pre, m1, m2).values()
    delta_bpiac = m1["I_ABC"] - m2["I_ABC"]

    # Each delta from its discord decomposition; must match the mutual
    # information route used above.
    _check("Delta_AB_C", delta_ab_c, d_a_bc - d_a_c)
    _check("Delta_AC_B", delta_ac_b, d_a_bc - d_a_b)
    _check("Delta_ABC", delta_abc, d_a_b + d_a_c - d_a_bc)
    d_b_piac, d_b_pia = change((0, 2), (1,)), change((0,), (1,))
    _check("Delta_BC_PiA", delta_bc_pia, d_b_piac - d_b_pia)
    _check("Delta_BPiAC", delta_bpiac, d_b_pia + change((2,), (1,)) - d_b_piac)
    _check("d_A_BC decomposition", d_a_bc, delta_ab_c + delta_ac_b + delta_abc)
    _check("Delta_BC_PiA conditional entropy form", delta_bc_pia, change((2,), (0, 1)))

    m1_deltas = {
        "d_A_BC": d_a_bc,
        "Delta_AB_C": delta_ab_c,
        "Delta_AC_B": delta_ac_b,
        "Delta_ABC": delta_abc,
        "dS_PiA": s1(0) - s0(0),
    }
    m2_deltas = {
        "Delta_BC_PiA": delta_bc_pia,
        "Delta_BPiAC": delta_bpiac,
        "dS_B_PiA": change((1,), (0,)),
    }
    return (
        FluxReport("pre", pre, {}),
        FluxReport("after_first", m1, m1_deltas),
        FluxReport("after_second", m2, m2_deltas),
    )


def _bipartite_reports(state, tree) -> tuple[FluxReport, ...]:
    rho1, branches = apply_tree(state, tree, 1)
    s0, s1 = _entropy_table(state), _entropy_table(rho1)
    pre, m1 = (
        {"S_A_B": _cond(s, (0,), (1,)), "S_B_A": _cond(s, (1,), (0,)),
         "I_AB": _mutual(s, (0,), (1,))}
        for s in (s0, s1)
    )
    d_a_b = _d_branches(s0, branches, (0,), (1,))
    ds_pia = s1(0) - s0(0)
    ds_pia_b = m1["S_A_B"] - pre["S_A_B"]
    _check("dS_PiA_B", ds_pia_b, d_a_b + ds_pia)
    _check("d_A_B mutual information form", d_a_b, pre["I_AB"] - m1["I_AB"])
    return (
        FluxReport("pre", pre, {}),
        FluxReport("after_first", m1, {"d_A_B": d_a_b, "dS_PiA": ds_pia,
                                       "dS_PiA_B": ds_pia_b}),
    )


def flux_report(state: QState, tree: MeasurementTree) -> tuple[FluxReport, ...]:
    """Full entropy-flux ledger across the measurement stages.

    Tripartite states (tree measuring subsystems 0 then 1) get three stages:
    pre, after_first, after_second.  Bipartite states get pre and
    after_first.  Raises FluxConsistencyError if any delta's two defining
    routes disagree beyond 1e-9.
    """
    if state.n_subsystems == 3:
        _require_two_level_tree(tree)
        return _tripartite_reports(state, tree)
    if state.n_subsystems == 2:
        if tree.measured[0] != 0:
            raise StructuralError("bipartite flux needs a tree measuring subsystem 0")
        return _bipartite_reports(state, tree)
    raise StructuralError("flux reports cover bipartite and tripartite states only")


def _format_value(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.12g}"


def flux_csv(reports: tuple[FluxReport, ...]) -> tuple[list[str], list[str]]:
    """Flatten reports into one CSV header/row pair with stage-suffixed
    canonical columns.  Delta columns at stages whose transition has not
    happened hold 0."""
    tripartite = "S_A_BC" in reports[0].ledger
    ledger_keys = LEDGER_KEYS_TRIPARTITE if tripartite else LEDGER_KEYS_BIPARTITE
    delta_keys = DELTA_KEYS_TRIPARTITE if tripartite else DELTA_KEYS_BIPARTITE
    by_stage = {report.stage: report for report in reports}
    header, row = [], []
    for name in ledger_keys + delta_keys:
        for stage in STAGES if tripartite else STAGES[:2]:
            header.append(f"{name}_{STAGE_SUFFIX[stage]}")
            report = by_stage.get(stage)
            if report is None:
                row.append(_format_value(0.0))
            elif name in report.ledger:
                row.append(_format_value(report.ledger[name]))
            else:
                row.append(_format_value(report.deltas.get(name, 0.0)))
    return header, row
