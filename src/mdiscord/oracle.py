"""Independent verification path: raw-definition objective evaluation, dense
grid minimization, invariance residuals, and the algebraic identity suite.

Everything here recomputes entropic quantities from first principles on
plain arrays (textbook projector sandwiches, reshape-and-trace partial
traces, eigenvalue sums) and never touches :mod:`mdiscord.entropy_flux`.
It computes nothing with the batched evaluator in :mod:`mdiscord.discord`:
only ``_cross_implementation_check`` imports it, to compare the two paths,
and that agreement is itself one of the checks.

Each check draws its random samples in a fixed order and values them in
stacks of ``_VERIFY_BLOCK`` samples, so that memory does not grow with the
samples: each level of the samples' trees is measured with one projector
stack over every outcome path, outcome and sample of the stack
(:func:`_branch_walk`), and each subset's entropies come from one
``eigvalsh`` call over the stack (:func:`_table` values each subset once).
Spectra are summed eigenvalue by eigenvalue, so a stack gives the bits of
its matrices valued one at a time, and a check's worst violation does not
depend on the block size.  The invariance check alone values its samples
one at a time, through the package's own tree routines.  Every check runs
through :func:`_reports`, which names a check after the key of its
violations, so each name is written once, and which refuses a sample count
that is not a positive integer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measure import (MeasParams, MeasurementTree, apply_tree,
                      optimal_tree_for_measured_state, tree_from_params)
from .qstate import QState, _integer, kron_product, random_state

_CLAMP = 1e-12
_ZERO_PROB = 1e-12
IDENTITY_TOL = 1e-9
_QUBITS = (2, 2, 2)  # the random samples of the verification checks
_VERIFY_BLOCK = 256  # samples a check values as one stack


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
        side = math.prod(dims)
        out = out.reshape(lead + (side, side))
    return out


def _entropies(matrices: np.ndarray) -> np.ndarray:
    """Entropy in bits of every density matrix in a stack, leading axes
    kept, from one ``eigvalsh`` call.  Each spectrum is summed eigenvalue by
    eigenvalue in ascending order, so a stack of one gives the bits of a
    single matrix's loop; a pairwise ``np.sum`` would not."""
    spectra = np.linalg.eigvalsh(matrices)
    kept = spectra > _CLAMP
    terms = np.where(kept, spectra * np.log2(np.where(kept, spectra, 1.0)), 0.0)
    total = np.zeros(spectra.shape[:-1])
    for k in range(spectra.shape[-1]):
        total = total - terms[..., k]
    return total


def _weighted_entropies(branches: np.ndarray) -> np.ndarray:
    """p * S(sigma / p) of every unnormalized branch sigma, of trace p, in a
    stack; a branch with p below ``_ZERO_PROB`` gives 0 and is not valued."""
    probs = np.trace(branches, axis1=-2, axis2=-1).real
    live = ~(probs < _ZERO_PROB)
    out = np.zeros(probs.shape)
    out[live] = probs[live] * _entropies(branches[live] / probs[live, None, None])
    return out


def _basis_vectors(theta: float, phi: float):
    phase = np.exp(1j * phi)
    return (
        np.array([np.cos(theta), phase * np.sin(theta)]),
        np.array([np.sin(theta), -phase * np.cos(theta)]),
    )


def _embed(dims, position: int, projector: np.ndarray) -> np.ndarray:
    """``projector`` at ``position`` and identities elsewhere, as one
    Kronecker product (a stack of projectors gives a stack); a measured
    branch is ``proj @ rho @ proj``."""
    factors = [projector if pos == position else np.eye(d)
               for pos, d in enumerate(dims)]
    return kron_product(factors)


def _branch_walk(matrices: np.ndarray, dims, trees, depth: int):
    """Unnormalized branches of the first ``depth`` levels of each sample's
    tree, for a stack holding one matrix per tree: entry k-1 stacks the
    depth-k branches in outcome-path order, ``(2**k, samples, side, side)``.

    A level measures every branch of the level before with one ``_embed``
    of its projector stack, ``(2**k, samples, 2, 2)`` with the path slowest
    and the outcome fastest, against each parent branch repeated once per
    outcome."""
    levels = [matrices[None]]
    for k, position in enumerate(trees[0].measured[:depth]):
        # pairs[path, sample, outcome]: the projectors of each path's node
        pairs = np.array([[tree.basis_at(path).projectors for tree in trees]
                          for path in itertools.product((0, 1), repeat=k)])
        proj = _embed(dims, position, pairs.swapaxes(1, 2).reshape(-1, len(trees), 2, 2))
        levels.append(proj @ np.repeat(levels[-1], 2, axis=0) @ proj)
    return levels[1:]


def _table(matrices: np.ndarray):
    """``s(keep)``: the entropies of a stack of three-qubit matrices reduced
    to the positions ``keep``, each subset valued once for the whole stack."""
    values = {}

    def s(keep) -> np.ndarray:
        keep = tuple(sorted(keep))
        if keep not in values:
            values[keep] = _entropies(_reduce_matrix(matrices, _QUBITS, keep))
        return values[keep]

    return s


def _cmi(s, a, b, given):
    """I(a;b|given) from the entropy table ``s`` of a stack."""
    return s(a + given) + s(b + given) - s(a + b + given) - s(given)


def _tri(s):
    """I(A;B;C) from the entropy table ``s`` of a stack."""
    return s((0,)) + s((2,)) - s((0, 2)) - _cmi(s, (0,), (2,), (1,))


def _base_terms(matrices: np.ndarray, dims) -> np.ndarray:
    """-(S(rho) - S(rho_A)) of every matrix in a stack."""
    return -(_entropies(matrices) - _entropies(_reduce_matrix(matrices, dims, [0])))


def _level(dims, level) -> int:
    """``level`` (the subsystem count n if None) as an int in [2, n], or a
    ValueError, as for a subsystem among the first ``level - 1`` that is not
    a qubit."""
    n = len(dims)
    level = n if level is None else _integer("level", level)
    if not 2 <= level <= n:
        raise ValueError(f"level must lie in [2, {n}], got {level}")
    for pos in range(level - 1):
        if dims[pos] != 2:
            raise ValueError(f"measured subsystem {pos} is not a qubit")
    return level


def reference_objective(state, tree, level: int | None = None):
    """Discord integrand computed branch by branch from the definitions.

    ``state`` and ``tree`` are one QState and its tree, which gives a float,
    or equally long sequences of states of one ``dims`` and their trees,
    valued as one stack, which gives an array.  ``level`` (the state's
    subsystem count if None) is an integer in [2, n], the subsystems 0, ...,
    level - 2 must be qubits, and every tree must measure them first, in
    that order.  The
    independent path to the integrand that the production evaluator,
    :class:`mdiscord.discord._MeasuredEntropyObjective`, values on Pauli
    blocks; the two must agree to 1e-10 on any (state, tree) pair.
    """
    single = isinstance(state, QState)
    states, trees = ([state], [tree]) if single else (state, tree)
    level = _level(states[0].dims, level)
    for item in trees:
        if item.measured[:level - 1] != tuple(range(level - 1)):
            raise ValueError(f"a level-{level} tree must measure {tuple(range(level - 1))} "
                             f"first, got {item.measured}")
    dims = states[0].dims
    matrices = np.array([item.matrix for item in states])
    values = _base_terms(matrices, dims)
    levels = _branch_walk(matrices, dims, trees, level - 1)
    for depth, branches in enumerate(levels, start=1):
        if depth < level - 1:
            branches = _reduce_matrix(branches, dims, [depth])
        for terms in _weighted_entropies(branches):
            values = values + terms
    return float(values[0]) if single else values


def dense_grid_min(state: QState, level: int | None = None, points_per_angle: int = 12) -> float:
    """Exact minimum of the discord integrand over all trees whose node
    angles lie on the product grid of ``points_per_angle`` (an integer of
    at least 2) values per angle, at ``level`` (the state's subsystem count
    if None, else an integer in [2, n]); the subsystems 0, ..., level - 2
    must be qubits.

    The child bases of different outcome branches enter the objective through
    disjoint, non-negatively weighted terms, so the product-grid minimum
    factorizes into a per-branch recursion (:func:`_tail_min`); the value
    equals full grid enumeration at a tiny fraction of the cost.  Each grid
    cell's embedded projector pair is built once per measured position, not
    per branch.
    """
    points_per_angle = _integer("points_per_angle", points_per_angle)
    if points_per_angle < 2:
        raise ValueError("points_per_angle must be >= 2")
    level = _level(state.dims, level)
    dims = state.dims
    thetas = np.linspace(0.0, np.pi / 2, points_per_angle)
    phis = np.linspace(0.0, 2 * np.pi, points_per_angle, endpoint=False)
    base = _base_terms(np.asarray(state.matrix), dims)
    # cell_projectors[position]: the embedded projector pair of every
    # (theta, phi) cell, stacked pair after pair
    vectors = np.array([vector for theta in thetas for phi in phis
                        for vector in _basis_vectors(theta, phi)])
    pairs = vectors[:, :, None] * vectors.conj()[:, None, :]
    cell_projectors = [_embed(dims, position, pairs) for position in range(level - 1)]
    return float(base + _tail_min(np.asarray(state.matrix), 1, cell_projectors, dims))


def _tail_min(sigma: np.ndarray, depth: int, cell_projectors, dims) -> float:
    """Minimum over one node's grid of the terms its subtree controls, for
    the unnormalized branch sigma about to be measured at ``depth``.

    The node's branches over every grid cell are measured, reduced and
    diagonalized as one stack, a leaf's branch reduced to the unmeasured
    tail (its measured qubits are pure), and the node's best cell is one
    ``min`` over them."""
    if float(sigma.trace().real) < _ZERO_PROB:
        return 0.0
    projectors = cell_projectors[depth - 1]
    branches = projectors @ sigma @ projectors
    if depth == len(cell_projectors):
        terms = _weighted_entropies(_reduce_matrix(branches, dims, range(depth, len(dims))))
    else:
        terms = _weighted_entropies(_reduce_matrix(branches, dims, [depth]))
        terms += [_tail_min(branch, depth + 1, cell_projectors, dims) for branch in branches]
    return float(np.min(terms[0::2] + terms[1::2]))


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


def _draw(rng, index: int) -> tuple[QState, MeasurementTree, MeasParams]:
    """Sample ``index`` of a check: a random 3-qubit state of rank
    ``1 + index % 8``, then a random depth-2 tree, drawn in that order."""
    state = random_state(_QUBITS, 1 + index % 8, int(rng.integers(0, 2 ** 31)))
    return (state, *_random_tree(rng, 2))


def _worst(violation) -> float:
    """The largest of a check's violations, and 0 at least; NaN, which
    fails the check, if any violation is NaN."""
    worst = float(np.max(violation))
    return 0.0 if worst <= 0.0 else worst


def _reports(rng, samples: int, violations, tolerance: float) -> list[VerifyReport]:
    """One report per check that ``violations`` names, in name order, with
    its worst violation over ``samples`` samples against ``tolerance``.
    ``violations(rng, indices)`` draws the samples of ``indices`` and values
    them as one stack, returning each check's violations by name; it runs on
    blocks of ``_VERIFY_BLOCK`` indices in order, so the draws follow the
    rng's order and only a block's worth of samples is held at once."""
    samples = _integer("samples", samples)
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples}")
    worst = {}
    for first in range(0, samples, _VERIFY_BLOCK):
        block = violations(rng, range(first, min(first + _VERIFY_BLOCK, samples)))
        for name, values in block.items():
            # np.maximum keeps a NaN
            worst[name] = np.maximum(worst.get(name, -np.inf), np.max(values))
    return [VerifyReport(name, samples, _worst(worst[name]), tolerance)
            for name in sorted(worst)]


def _identity_violations(rng, indices) -> dict[str, np.ndarray]:
    """Every identity's violation on each random 3-qubit state with its
    tree (samples ``indices``), valued as one stack, with every side
    computed from raw definitions."""
    states, trees, _ = zip(*(_draw(rng, index) for index in indices))
    rho = np.array([state.matrix for state in states])
    branches1, branches2 = _branch_walk(rho, _QUBITS, trees, 2)
    rho1, rho2 = sum(branches1), sum(branches2)
    s0, s1, s2 = _table(rho), _table(rho1), _table(rho2)

    # average branch entropies
    s_rest_m1 = sum(_weighted_entropies(branches1))
    s_b_m1 = sum(_weighted_entropies(_reduce_matrix(branches1, _QUBITS, [1])))
    s_c_m2 = sum(_weighted_entropies(branches2))
    (rho2_branches1,) = _branch_walk(rho2, _QUBITS, trees, 1)
    s_b_m1_of_rho2 = sum(_weighted_entropies(_reduce_matrix(rho2_branches1, _QUBITS, [1])))

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
        sum(np.trace(branches2, axis1=-2, axis2=-1).real) - 1.0
    )
    return violations


def identity_suite(seed: int = 0, samples: int = 100) -> tuple[VerifyReport, ...]:
    """Run every entropy identity on ``samples`` random 3-qubit states with
    random trees; reports the worst violation per identity."""
    return tuple(_reports(np.random.default_rng(seed), samples, _identity_violations,
                          IDENTITY_TOL))


def _nonnegativity_violations(rng, indices) -> dict[str, np.ndarray]:
    draws = []
    for index in indices:
        state, tree, _ = _draw(rng, index)
        # product of a correlated pair with a third system: the tripartite
        # mutual information change vanishes for every tree
        pair = random_state((2, 2), 1 + index % 4, int(rng.integers(0, 2 ** 31)))
        third = random_state((2,), 1 + index % 2, int(rng.integers(0, 2 ** 31)))
        draws.append((state, tree, pair.matrix, third.matrix))
    states, trees, pairs, thirds = zip(*draws)
    rho = np.array([state.matrix for state in states])
    branches1, branches2 = _branch_walk(rho, _QUBITS, trees, 2)
    s0, s1, s2 = _table(rho), _table(sum(branches1)), _table(sum(branches2))
    deltas = np.min([
        _cmi(s0, (0,), (1,), (2,)) - _cmi(s1, (0,), (1,), (2,)),
        _cmi(s0, (0,), (2,), (1,)) - _cmi(s1, (0,), (2,), (1,)),
        _cmi(s1, (1,), (2,), (0,)) - _cmi(s2, (1,), (2,), (0,)),
    ], axis=0)
    product = kron_product([np.array(pairs), np.array(thirds)])
    (product_branches,) = _branch_walk(product, _QUBITS, trees, 1)
    monogamy = abs(_tri(_table(product)) - _tri(_table(sum(product_branches))))
    return {
        "objective_non_negativity": -reference_objective(states, trees),
        "conditional_discord_non_negativity": -deltas,
        "product_pair_monogamy_zero": monogamy,
    }


def _invariance_violations(rng, indices) -> dict[str, np.ndarray]:
    """The residual of each sample's state, measured to depth 1 or 2 by its
    random tree, under the tree :mod:`mdiscord.measure` rebuilds from the
    measured state alone."""
    residuals = []
    for index in indices:
        state, tree, _ = _draw(rng, index)
        depth = 1 + index % 2
        measured_state, _ = apply_tree(state, tree, depth)
        rebuilt = optimal_tree_for_measured_state(measured_state, tuple(range(depth)))
        residuals.append(invariance_residual(measured_state, rebuilt))
    return {"eigenbasis_tree_invariance": np.array(residuals)}


def _cross_implementation_check(rng, samples: int) -> list[VerifyReport]:
    from .discord import _MeasuredEntropyObjective

    def violations(rng, indices):
        states, trees, params = zip(*(_draw(rng, index) for index in indices))
        fast = np.array([_MeasuredEntropyObjective(state, 3)(node_params.to_flat())
                         for state, node_params in zip(states, params)])
        return {"cross_implementation_objective":
                np.abs(fast - reference_objective(states, trees))}

    return _reports(rng, samples, violations, 1e-10)


def verification_suite(seed: int = 0, samples: int = 100) -> tuple[VerifyReport, ...]:
    """Identity suite plus invariance, non-negativity, and
    cross-implementation checks; report order is fixed by check name."""
    rng = np.random.default_rng(seed)
    reports = list(identity_suite(seed, samples))
    reports += _reports(rng, samples, _nonnegativity_violations, IDENTITY_TOL)
    reports += _reports(rng, samples, _invariance_violations, 1e-10)
    reports += _cross_implementation_check(rng, samples)
    return tuple(sorted(reports, key=lambda report: report.name))
