"""Independent verification path: raw-definition objective evaluation, dense
grid minimization, invariance residuals, and the algebraic identity suite.

Everything here recomputes entropic quantities from first principles on
plain arrays (textbook projector sandwiches, reshape-and-trace partial
traces, eigenvalue sums) and never touches :mod:`mdiscord.entropy_flux`.
It computes nothing with the batched evaluator in :mod:`mdiscord.discord`:
only ``_cross_implementation_check`` imports it, to compare the two paths,
and that agreement is itself one of the checks.  The identity checks read
the subsystem entropies of each matrix from one table of that matrix
(:func:`_table`), which values each subset once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import MeasParams, MeasurementTree, apply_tree, tree_from_params
from .qstate import QState, kron_product, random_state

_CLAMP = 1e-12
_ZERO_PROB = 1e-12
IDENTITY_TOL = 1e-9
_QUBITS = (2, 2, 2)  # the random samples of the verification checks


def _reduce_matrix(matrix: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by reshaping and tracing out one subsystem at a time;
    the leading axes of a stack of matrices are kept."""
    dims = list(dims)
    lead = matrix.shape[:-2]
    out = matrix
    for pos in sorted(set(range(len(dims))) - set(keep), reverse=True):
        shape = lead + tuple(dims + dims)
        out = out.reshape(shape)
        out = np.trace(out, axis1=len(lead) + pos, axis2=len(lead) + pos + len(dims))
        del dims[pos]
        side = int(np.prod(dims))
        out = out.reshape(lead + (side, side))
    return out


def _spectrum_bits(vals: np.ndarray) -> float:
    """Entropy in bits of a density matrix's eigenvalues."""
    total = 0.0
    for v in vals:
        if v > _CLAMP:
            total -= v * np.log2(v)
    return total


def _entropy_bits(matrix: np.ndarray) -> float:
    return _spectrum_bits(np.linalg.eigvalsh(matrix))


def _weighted_entropy(unnormalized: np.ndarray) -> float:
    """p * S(sigma / p) for an unnormalized branch sigma with trace p."""
    p = float(unnormalized.trace().real)
    if p < _ZERO_PROB:
        return 0.0
    return p * _entropy_bits(unnormalized / p)


def _weighted_entropies(branches: np.ndarray) -> np.ndarray:
    """:func:`_weighted_entropy` of every branch in a stack, as one array,
    with one ``eigvalsh`` call for all their spectra."""
    probs = np.trace(branches, axis1=1, axis2=2).real
    live = ~(probs < _ZERO_PROB)
    spectra = np.linalg.eigvalsh(branches[live] / probs[live, None, None])
    kept = spectra > _CLAMP
    bits = -np.sum(np.where(kept, spectra * np.log2(np.where(kept, spectra, 1.0)), 0.0),
                   axis=-1)
    out = np.zeros(len(probs))
    out[live] = probs[live] * bits
    return out


def _basis_vectors(theta: float, phi: float):
    phase = np.exp(1j * phi)
    return (
        np.array([np.cos(theta), phase * np.sin(theta)]),
        np.array([np.sin(theta), -phase * np.cos(theta)]),
    )


def _embed(dims, position: int, projector: np.ndarray) -> np.ndarray:
    """``projector`` at ``position`` and identities elsewhere, as one
    Kronecker product; a measured branch is ``proj @ rho @ proj``."""
    factors = [projector if pos == position else np.eye(d)
               for pos, d in enumerate(dims)]
    return kron_product(factors)


def _branch_walk(matrix: np.ndarray, dims, tree: MeasurementTree, depth: int):
    """Unnormalized branches of the first ``depth`` tree levels: entry k-1
    lists the depth-k branches in outcome-path order."""
    levels = []
    branches = [((), matrix)]
    for position in tree.measured[:depth]:
        measured = []
        for path, sigma in branches:
            for outcome, projector in enumerate(tree.basis_at(path).projectors):
                proj = _embed(dims, position, projector)
                measured.append((path + (outcome,), proj @ sigma @ proj))
        branches = measured
        levels.append([sigma for _, sigma in branches])
    return levels


def _table(matrix: np.ndarray):
    """``s(keep)``: the entropy of a three-qubit matrix reduced to the
    positions ``keep``, each subset valued once."""
    values = {}

    def s(keep) -> float:
        keep = tuple(sorted(keep))
        if keep not in values:
            values[keep] = _entropy_bits(_reduce_matrix(matrix, _QUBITS, keep))
        return values[keep]

    return s


def _cmi(s, a, b, given) -> float:
    """I(a;b|given) from the entropy table ``s`` of one matrix."""
    return s(a + given) + s(b + given) - s(a + b + given) - s(given)


def _tri(s) -> float:
    """I(A;B;C) from the entropy table ``s`` of one matrix."""
    return s((0,)) + s((2,)) - s((0, 2)) - _cmi(s, (0,), (2,), (1,))


def reference_objective(state: QState, tree: MeasurementTree, level: int | None = None) -> float:
    """Discord integrand computed branch by branch from the definitions.

    Separate code path from :func:`mdiscord.discord.objective_npartite`;
    the two must agree to 1e-10 on any (state, tree) pair.
    """
    n = state.n_subsystems
    level = n if level is None else int(level)
    dims = state.dims
    value = -(_entropy_bits(state.matrix) - _entropy_bits(_reduce_matrix(state.matrix, dims, [0])))
    levels = _branch_walk(np.asarray(state.matrix), dims, tree, level - 1)
    for depth, branches in enumerate(levels, start=1):
        for sigma in branches:
            if depth < level - 1:
                value += _weighted_entropy(
                    _reduce_matrix(sigma, dims, [depth])
                )
            else:
                value += _weighted_entropy(sigma)
    return value


def dense_grid_min(state: QState, level: int | None = None, points_per_angle: int = 12) -> float:
    """Exact minimum of the discord integrand over all trees whose node
    angles lie on the product grid.

    The child bases of different outcome branches enter the objective through
    disjoint, non-negatively weighted terms, so the product-grid minimum
    factorizes into a per-branch recursion; the value equals full grid
    enumeration at a tiny fraction of the cost.  Each grid cell's embedded
    projector pair is built once per measured position, not per branch; the
    branches of one node are measured, reduced and diagonalized as one
    stack, a leaf's branch reduced to the unmeasured tail (its measured
    qubits are pure), and the node's best cell is one ``min`` over them.
    """
    n = state.n_subsystems
    level = n if level is None else int(level)
    dims = state.dims
    thetas = np.linspace(0.0, np.pi / 2, points_per_angle)
    phis = np.linspace(0.0, 2 * np.pi, points_per_angle, endpoint=False)
    base = -(_entropy_bits(state.matrix) - _entropy_bits(_reduce_matrix(state.matrix, dims, [0])))
    # cell_projectors[position]: the embedded projector pair of every
    # (theta, phi) cell, stacked pair after pair
    cell_projectors = [
        np.array([
            _embed(dims, position, np.outer(vector, vector.conj()))
            for theta in thetas for phi in phis
            for vector in _basis_vectors(theta, phi)
        ])
        for position in range(level - 1)
    ]

    def tail_min(sigma: np.ndarray, depth: int) -> float:
        """Minimum over this node's grid of the terms its subtree controls;
        sigma is the unnormalized branch about to be measured at ``depth``."""
        if float(sigma.trace().real) < _ZERO_PROB:
            return 0.0
        projectors = cell_projectors[depth - 1]
        branches = projectors @ sigma @ projectors
        if depth == level - 1:
            terms = _weighted_entropies(_reduce_matrix(branches, dims, range(depth, n)))
        else:
            terms = _weighted_entropies(_reduce_matrix(branches, dims, [depth]))
            terms += [tail_min(branch, depth + 1) for branch in branches]
        return float(np.min(terms[0::2] + terms[1::2]))

    return base + tail_min(np.asarray(state.matrix), 1)


def invariance_residual(state: QState, tree: MeasurementTree) -> float:
    """Max-entry norm of rho minus its full-depth tree measurement."""
    post, _ = apply_tree(state, tree, tree.depth)
    return float(np.max(np.abs(post.matrix - state.matrix)))


@dataclass(frozen=True)
class VerifyReport:
    name: str
    samples: int
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation < self.tolerance


def _random_tree(rng, depth: int) -> tuple[MeasurementTree, MeasParams]:
    count = 2 ** depth - 1
    flat = np.stack(
        [rng.uniform(0.0, np.pi / 2, count), rng.uniform(0.0, 2 * np.pi, count)], 1
    ).ravel()
    params = MeasParams.from_flat(flat)
    return tree_from_params((2,) * (depth + 1), tuple(range(depth)), params), params


def _sample_identities(rng, sample_index: int) -> dict[str, float]:
    """Max identity violations for one random 3-qubit state and tree, with
    every side computed from raw definitions."""
    rank = 1 + sample_index % 8
    state = random_state(_QUBITS, rank, int(rng.integers(0, 2 ** 31)))
    tree, _ = _random_tree(rng, 2)
    rho = np.asarray(state.matrix)
    branches1, branches2 = _branch_walk(rho, _QUBITS, tree, 2)
    rho1, rho2 = sum(branches1), sum(branches2)
    s0, s1, s2 = _table(rho), _table(rho1), _table(rho2)

    # average branch entropies
    s_rest_m1 = sum(_weighted_entropy(b) for b in branches1)
    s_b_m1 = sum(_weighted_entropy(_reduce_matrix(b, _QUBITS, [1]))
                 for b in branches1)
    s_c_m2 = sum(_weighted_entropy(b) for b in branches2)
    (rho2_branches1,) = _branch_walk(rho2, _QUBITS, tree, 1)
    s_b_m1_of_rho2 = sum(_weighted_entropy(_reduce_matrix(b, _QUBITS, [1]))
                         for b in rho2_branches1)

    violations = {}
    # Measured conditional entropy equals the conditional entropy of the
    # measured state.
    violations["measured_state_conditional_entropy"] = abs(
        s_rest_m1 - (s1((0, 1, 2)) - s1((0,)))
    )
    # Entropy decomposition of the twice-measured state.
    violations["second_measurement_entropy_decomposition"] = abs(
        s2((0, 1, 2)) - s2((0,)) - s_b_m1_of_rho2 - s_c_m2
    )
    # The unminimized A;BC discord splits into the two conditional discords
    # plus the monogamy term.
    d_a_bc = s_rest_m1 - (s0((0, 1, 2)) - s0((0,)))
    delta_ab_c = _cmi(s0, (0,), (1,), (2,)) - _cmi(s1, (0,), (1,), (2,))
    delta_ac_b = _cmi(s0, (0,), (2,), (1,)) - _cmi(s1, (0,), (2,), (1,))
    delta_abc = _tri(s0) - _tri(s1)
    violations["conditional_discord_decomposition"] = abs(
        d_a_bc - (delta_ab_c + delta_ac_b + delta_abc)
    )
    # The discord integrand equals the sum of all four delta terms.
    objective = -(s0((0, 1, 2)) - s0((0,))) + s_b_m1 + s_c_m2
    delta_bc_pia = _cmi(s1, (1,), (2,), (0,)) - _cmi(s2, (1,), (2,), (0,))
    violations["discord_delta_decomposition"] = abs(
        objective - (delta_ab_c + delta_ac_b + delta_bc_pia + delta_abc)
    )
    # The post-measurement conditional discord as a conditional entropy
    # change of subsystem C.
    violations["post_discord_conditional_entropy_form"] = abs(
        delta_bc_pia - ((s2((0, 1, 2)) - s2((0, 1))) - (s1((0, 1, 2)) - s1((0, 1))))
    )
    # Bookkeeping identities worth pinning while we are here.
    violations["probability_normalization"] = abs(
        sum(float(b.trace().real) for b in branches2) - 1.0
    )
    return violations


_IDENTITY_CHECKS = (
    "conditional_discord_decomposition",
    "discord_delta_decomposition",
    "measured_state_conditional_entropy",
    "post_discord_conditional_entropy_form",
    "probability_normalization",
    "second_measurement_entropy_decomposition",
)


def identity_suite(seed: int = 0, samples: int = 100) -> tuple[VerifyReport, ...]:
    """Run every entropy identity on ``samples`` random 3-qubit states with
    random trees; reports the worst violation per identity."""
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in _IDENTITY_CHECKS}
    for index in range(samples):
        for name, violation in _sample_identities(rng, index).items():
            worst[name] = max(worst[name], violation)
    return tuple(
        VerifyReport(name=name, samples=samples, max_violation=worst[name],
                     tolerance=IDENTITY_TOL)
        for name in _IDENTITY_CHECKS
    )


def _nonnegativity_checks(rng, samples: int) -> list[VerifyReport]:
    worst_objective = 0.0
    worst_delta = 0.0
    worst_product_monogamy = 0.0
    for index in range(samples):
        state = random_state(_QUBITS, 1 + index % 8, int(rng.integers(0, 2 ** 31)))
        tree, _ = _random_tree(rng, 2)
        rho = np.asarray(state.matrix)
        branches1, branches2 = _branch_walk(rho, _QUBITS, tree, 2)
        s0, s1, s2 = _table(rho), _table(sum(branches1)), _table(sum(branches2))

        worst_objective = max(worst_objective, -reference_objective(state, tree))
        deltas = (
            _cmi(s0, (0,), (1,), (2,)) - _cmi(s1, (0,), (1,), (2,)),
            _cmi(s0, (0,), (2,), (1,)) - _cmi(s1, (0,), (2,), (1,)),
            _cmi(s1, (1,), (2,), (0,)) - _cmi(s2, (1,), (2,), (0,)),
        )
        worst_delta = max(worst_delta, -min(deltas))

        # product of a correlated pair with a third system: the tripartite
        # mutual information change vanishes for every tree
        pair = random_state((2, 2), 1 + index % 4, int(rng.integers(0, 2 ** 31)))
        third = random_state((2,), 1 + index % 2, int(rng.integers(0, 2 ** 31)))
        product = kron_product([pair.matrix, third.matrix])
        (product_branches,) = _branch_walk(product, _QUBITS, tree, 1)
        worst_product_monogamy = max(
            worst_product_monogamy,
            abs(_tri(_table(product)) - _tri(_table(sum(product_branches)))),
        )

    return [
        VerifyReport("objective_non_negativity", samples, worst_objective,
                     IDENTITY_TOL),
        VerifyReport("conditional_discord_non_negativity", samples, worst_delta,
                     IDENTITY_TOL),
        VerifyReport("product_pair_monogamy_zero", samples,
                     worst_product_monogamy, IDENTITY_TOL),
    ]


def _invariance_check(rng, samples: int) -> VerifyReport:
    from .measure import optimal_tree_for_measured_state

    worst = 0.0
    for index in range(samples):
        state = random_state(_QUBITS, 1 + index % 8, int(rng.integers(0, 2 ** 31)))
        depth = 1 + index % 2
        tree, _ = _random_tree(rng, 2)
        measured_state, _ = apply_tree(state, tree, depth)
        rebuilt = optimal_tree_for_measured_state(measured_state, tuple(range(depth)))
        post, _ = apply_tree(measured_state, rebuilt, depth)
        worst = max(worst, float(np.max(np.abs(post.matrix - measured_state.matrix))))
    return VerifyReport("eigenbasis_tree_invariance", samples, worst, 1e-10)


def _cross_implementation_check(rng, samples: int) -> VerifyReport:
    from .discord import _MeasuredEntropyObjective

    worst = 0.0
    for index in range(samples):
        state = random_state(_QUBITS, 1 + index % 8, int(rng.integers(0, 2 ** 31)))
        tree, params = _random_tree(rng, 2)
        fast = _MeasuredEntropyObjective(state, 3)(params.to_flat())
        worst = max(worst, abs(fast - reference_objective(state, tree)))
    return VerifyReport("cross_implementation_objective", samples, worst, 1e-10)


def verification_suite(seed: int = 0, samples: int = 100) -> tuple[VerifyReport, ...]:
    """Identity suite plus invariance, non-negativity, and
    cross-implementation checks; report order is fixed by check name."""
    rng = np.random.default_rng(seed)
    reports = list(identity_suite(seed, samples))
    reports.extend(_nonnegativity_checks(rng, samples))
    reports.append(_invariance_check(rng, samples))
    reports.append(_cross_implementation_check(rng, samples))
    return tuple(sorted(reports, key=lambda report: report.name))
