import importlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mdiscord import (
    MeasParams,
    QState,
    StructuralError,
    apply_tree,
    discord,
    projector_pair_from_angles,
    random_state,
    states,
    tensor,
    tree_from_params,
)
from mdiscord.discord import (
    _EVAL_CHUNK,
    _MeasuredEntropyObjective,
    _branch_coefficients,
    _projector_coefficients,
    _qubit_terms,
    result_to_json,
)
from mdiscord import entropy_flux as flux
from mdiscord.qstate import ENTROPY_EIGENVALUE_CLAMP, entropy, kron_product, x_log2_x
from mdiscord.optimizer import (
    SIMPLEX_MAX_ITERS,
    OptimizerConfig,
    OptimizerOutcome,
    grid_cells,
    optimize,
    simplex_refine,
)
from mdiscord.measure import params_from_json
from mdiscord.oracle import reference_objective
from mdiscord.states import (bell_mixture, cc_example_state, classical_quantum_mix, ghz_state,
                             product_state)

from conftest import (dm, eigenbasis_tree, random_qubits, random_tree,
                      two_measurement_integrand)


def cc_optimal_tree():
    # root Z, children Z after outcome 0 and X after outcome 1
    return tree_from_params(
        (2, 2, 2), (0, 1),
        MeasParams(((0.0, 0.0), (0.0, 0.0), (np.pi / 4, 0.0))),
    )


class TestObjectiveBipartite:
    def test_bell_z(self, bell, z_tree_2q):
        assert_allclose(reference_objective(bell, z_tree_2q, level=2), 1.0, atol=1e-12)

    def test_product_any_tree(self):
        state = tensor(random_state((2,), 2, 1), random_state((2,), 2, 2))
        tree = random_tree(10, 1, dims=(2, 2))
        assert_allclose(reference_objective(state, tree, level=2), 0.0, atol=1e-9)

    def test_classical_pair_z(self, z_tree_2q):
        state = QState((2, 2), np.diag([0.5, 0.0, 0.0, 0.5]))
        assert_allclose(reference_objective(state, z_tree_2q, level=2), 0.0, atol=1e-12)


class TestObjectiveTwoMeasurement:
    def test_bell_z_tree(self, bell):
        tree = tree_from_params((2, 2), (0, 1), MeasParams(((0.0, 0.0),) * 3))
        assert_allclose(two_measurement_integrand(bell, tree), 1.0, atol=1e-12)

    def test_cc_pair_with_optimal_tree(self):
        state = QState((2, 2), (dm([1, 0, 0, 0]) + dm([0, 0, 1, 1])) / 2)
        tree = tree_from_params(
            (2, 2), (0, 1),
            MeasParams(((0.0, 0.0), (0.0, 0.0), (np.pi / 4, 0.0))),
        )
        assert_allclose(two_measurement_integrand(state, tree), 0.0, atol=1e-12)

    def test_product(self):
        # with the second measurement along the B factor's own eigenbasis
        # nothing changes, so the integrand vanishes
        state = QState((2, 2), np.kron(np.diag([0.8, 0.2]), np.diag([0.3, 0.7])))
        tree = tree_from_params((2, 2), (0, 1), MeasParams(((0.0, 0.0),) * 3))
        assert_allclose(two_measurement_integrand(state, tree), 0.0, atol=1e-9)
        # and for any product state and any root, the eigenbasis children
        # bring it to zero, its minimum
        random_product = tensor(random_state((2,), 2, 3), random_state((2,), 2, 4))
        root = projector_pair_from_angles(0.4, 1.3)
        assert abs(two_measurement_integrand(
            random_product, eigenbasis_tree(random_product, root))) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_dominates_single_measurement_form(self, seed):
        # convolving with a non-eigenbasis child can only raise the entropy;
        # the level-2 integrand reads the tree's root alone
        state = random_state((2, 2), 1 + seed % 4, 600 + seed)
        tree = random_tree(12 + seed, 2, dims=(2, 2))
        assert (
            two_measurement_integrand(state, tree)
            >= reference_objective(state, tree, level=2) - 1e-9
        )


class TestObjectiveTripartite:
    def test_ghz_full_z(self, ghz, z_tree_3q):
        assert_allclose(reference_objective(ghz, z_tree_3q), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_measured_state_scores_zero_with_its_tree(self, seed):
        tree = random_tree(20 + seed, 2)
        measured, _ = apply_tree(random_qubits(seed, 3, 1 + seed % 8), tree, 2)
        assert_allclose(reference_objective(measured, tree), 0.0, atol=1e-10)

    def test_cc_example_with_optimal_tree(self):
        assert_allclose(
            reference_objective(cc_example_state(), cc_optimal_tree()),
            0.0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_non_negative_for_every_tree(self, seed):
        state = random_qubits(700 + seed, 3, 1 + seed % 8)
        tree = random_tree(30 + seed, 2)
        assert reference_objective(state, tree) > -1e-9


class TestObjectiveNPartite:
    def test_four_qubit_product(self):
        state = tensor(product_state(), random_state((2,), 1, 77))
        tree = random_tree(40, 3, dims=(2, 2, 2, 2))
        assert_allclose(reference_objective(state, tree), 0.0, atol=1e-9)

    def test_four_qubit_ghz_full_z(self):
        tree = tree_from_params((2,) * 4, (0, 1, 2), MeasParams(((0.0, 0.0),) * 7))
        assert_allclose(reference_objective(ghz_state(4), tree), 1.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_four_partite_measured_state_scores_zero(self, seed):
        tree = random_tree(50 + seed, 3, dims=(2,) * 4)
        measured, _ = apply_tree(random_qubits(seed, 4, 1 + seed % 16), tree, 3)
        assert_allclose(reference_objective(measured, tree), 0.0, atol=1e-10)

    def test_reduces_to_lower_levels(self):
        # below the full level the unmeasured subsystems count as one party:
        # the level-k integrand of four qubits is the full-level integrand
        # of the state with its tail merged, under the tree's top k - 1 levels
        state = random_qubits(61, 4, 5)
        params = MeasParams.from_flat(_random_angles(62, 1, 7)[0])
        tree = tree_from_params((2,) * 4, (0, 1, 2), params)
        for level, dims in ((3, (2, 2, 4)), (2, (2, 8))):
            merged = QState(dims, state.matrix)
            top = MeasParams(params.angles[:2 ** (level - 1) - 1])
            merged_tree = tree_from_params(dims, tuple(range(level - 1)), top)
            assert_allclose(reference_objective(state, tree, level=level),
                            reference_objective(merged, merged_tree), atol=1e-12)


def _random_angles(seed, rows, n_nodes):
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.uniform(0, np.pi / 2, (rows, n_nodes)),
         rng.uniform(0, 2 * np.pi, (rows, n_nodes))], -1
    ).reshape(rows, -1)


def _basis_vectors(theta, phi):
    """Basis vectors (outcome x component) for arrays of node angles: the
    projector path the evaluator used before its Pauli blocks, kept as its
    reference."""
    phase = np.exp(1j * phi)
    cos, sin = np.cos(theta), np.sin(theta)
    vectors = np.empty(theta.shape + (2, 2), dtype=complex)
    vectors[..., 0, 0] = cos
    vectors[..., 0, 1] = phase * sin
    vectors[..., 1, 0] = sin
    vectors[..., 1, 1] = -phase * cos
    return vectors


def _node_vectors(chunk, depth):
    """Basis vectors of the depth-``depth`` nodes of every row."""
    idx = 2 ** depth - 1 + np.arange(2 ** depth)
    return _basis_vectors(chunk[:, 2 * idx], chunk[:, 2 * idx + 1])


def _einsum_step(branches, vectors):
    """Project the leading qubit of every unnormalized branch onto both
    basis vectors of its node; the branch count doubles and that qubit drops
    out."""
    nb = branches.shape[0]
    half = branches.shape[-1] // 2
    blocks = branches.reshape(nb, -1, 2, half, 2, half)
    return np.einsum(
        "npjm,npmrls,npjl->npjrs", vectors.conj(), blocks, vectors, optimize="greedy"
    ).reshape(nb, -1, half, half)


def _reference_blocks(objective, chunk):
    """Per step, every row's branches reduced to the block the step's terms
    read (the next qubit, or the whole tail at the last step), walked with
    the projectors themselves."""
    rho = objective.rho
    branches = np.broadcast_to(rho, (len(chunk), 1) + rho.shape)
    out = []
    for step in range(1, objective.steps + 1):
        branches = _einsum_step(branches, _node_vectors(chunk, step - 1))
        if step < objective.steps:
            quarter = branches.shape[-1] // 2
            six = branches.reshape(len(chunk), -1, 2, quarter, 2, quarter)
            out.append(np.einsum("npacbc->npab", six))
        else:
            out.append(branches)
    return out


def _reference_entropy(blocks):
    """p * S(block / p) of unnormalized blocks, from their eigenvalues."""
    vals = np.linalg.eigvalsh(blocks)
    return x_log2_x(vals.sum(axis=-1)) - x_log2_x(vals).sum(axis=-1)


def _reference_values(objective, chunk):
    """The integrand of every row, step by step with the reference formulas."""
    value = np.full(len(chunk), objective.base)
    for blocks in _reference_blocks(objective, chunk):
        value += _reference_entropy(blocks).sum(axis=-1)
    return value


_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                    [[1, 0], [0, -1]]])


def _blocks_from_components(comps, last):
    """Blocks back from a step's components: (t_0 I + t . sigma) / 2 from
    Pauli components, else real parts then imaginary parts of the entries."""
    if not last or comps.shape[-1] == 4:
        return np.einsum("...m,mab->...ab", comps, _PAULIS) / 2
    entries = comps.shape[-1] // 2
    side = int(round(entries ** 0.5))
    blocks = comps[..., :entries] + 1j * comps[..., entries:]
    return blocks.reshape(comps.shape[:-1] + (side, side))


def _reference_tables(objective, points):
    """The per-branch grid tables, walked with the projectors: every node of
    depth d sits in cell c_d of its row."""
    cell_angles = grid_cells(points)
    cells = len(cell_angles)
    tables = []
    for step in range(1, objective.steps + 1):
        combos = np.stack(np.unravel_index(np.arange(cells ** step), (cells,) * step), 1)
        depth_of_node = np.floor(np.log2(np.arange(objective.n_nodes) + 1)).astype(int)
        depth_of_node = np.minimum(depth_of_node, step - 1)
        chunk = cell_angles[combos[:, depth_of_node]].reshape(len(combos), -1)
        blocks = _reference_blocks(objective, chunk)[step - 1]
        tables.append(_reference_entropy(blocks).reshape((cells,) * step + (-1,)))
    return tables


def _reference_grid_minimum(objective, points):
    """Every root cell's least integrand over the rest of the grid, from the
    projector tables by recursion over the tree: a node's two terms plus
    its children's least subtrees, over the node's own cell."""
    tables = _reference_tables(objective, points)
    cells = len(grid_cells(points))

    def subtree(path, q):
        # node q of depth len(path), its ancestors in cells ``path``
        table = tables[len(path)][tuple(path)]
        terms = table[:, 2 * q] + table[:, 2 * q + 1]
        if len(path) + 1 < len(tables):
            terms = terms + np.array([
                subtree(path + [c], 2 * q).min() + subtree(path + [c], 2 * q + 1).min()
                for c in range(cells)])
        return terms

    return objective.base + subtree([], 0)


CASES = [((2, 2), 2), ((2, 2, 2), 3), ((2, 2, 2, 2), 4), ((2, 2, 2, 2), 3), ((2, 2, 3), 3)]


class TestMeasureStep:
    @pytest.mark.parametrize("rows", [1, 4, 13, 300, 4096])
    @pytest.mark.parametrize("dims, level, rank", [
        ((2, 2), 2, 3),
        ((2, 2, 2), 3, 4),
        ((2, 2, 2), 3, 8),
        ((2, 2, 2, 2), 4, 9),
        ((2, 2, 3), 3, 6),
    ])
    def test_equals_the_einsum_contraction(self, dims, level, rank, rows):
        # each step's branch blocks, as the Pauli-block products give them,
        # equal the projector contraction reduced to what the terms read
        objective = _MeasuredEntropyObjective(random_state(dims, rank, 60 + rank), level)
        chunk = _random_angles(rows, rows, objective.n_nodes)
        factors = _projector_coefficients(chunk[:, 0::2], chunk[:, 1::2])
        coefficients = _branch_coefficients(factors, objective.steps)
        reference = _reference_blocks(objective, chunk)
        for step, (coeff, tensor, expected) in enumerate(
            zip(coefficients, objective.tensors, reference), start=1
        ):
            blocks = _blocks_from_components(coeff @ tensor, step == objective.steps)
            assert np.max(np.abs(blocks - expected)) < 1e-12

    @pytest.mark.parametrize("dims, level", [
        ((2, 2), 2), ((2, 2, 2), 3), ((2, 2, 2, 2), 4), ((2, 2, 3), 3),
    ])
    def test_batched_rows_equal_single_row_values(self, dims, level):
        objective = _MeasuredEntropyObjective(random_state(dims, 3, 71), level)
        chunk = _random_angles(72, 100, objective.n_nodes)
        batched = objective.evaluate_many(chunk)
        assert all(value == objective(row) for value, row in zip(batched, chunk))


    @pytest.mark.parametrize("rows", [1, 2, 13, 512, 5000])
    @pytest.mark.parametrize("dims, level", [
        ((2, 2), 2), ((2, 2, 2), 3), ((2, 2, 2, 2), 4), ((2, 2, 2, 2), 3),
        ((2, 2, 3), 3),
    ])
    def test_values_equal_the_per_step_formulas(self, dims, level, rows):
        # the Pauli-block products round differently from the projector
        # walk, so the two agree to rounding, not bit for bit
        objective = _MeasuredEntropyObjective(random_state(dims, 3, 73), level)
        chunk = _random_angles(74 + rows, rows, objective.n_nodes)
        assert np.max(np.abs(
            objective.evaluate_many(chunk) - _reference_values(objective, chunk)
        )) < 1e-12

    @pytest.mark.parametrize("dims, level", CASES)
    def test_values_equal_the_oracle(self, dims, level):
        state = random_state(dims, 3, 75)
        objective = _MeasuredEntropyObjective(state, level)
        chunk = _random_angles(76, 30, objective.n_nodes)
        measured = tuple(range(level - 1))
        for value, row in zip(objective.evaluate_many(chunk), chunk):
            tree = tree_from_params(dims, measured, MeasParams.from_flat(row))
            assert abs(value - reference_objective(state, tree, level)) < 1e-12

    @pytest.mark.parametrize("points", [3, 6])
    @pytest.mark.parametrize("dims, level", CASES)
    def test_grid_tables_equal_the_projector_tables(self, dims, level, points):
        objective = _MeasuredEntropyObjective(random_state(dims, 4, 77), level)
        roots, params = objective.grid_minimum(points)
        assert np.max(np.abs(roots - _reference_grid_minimum(objective, points))) < 1e-12
        assert np.max(np.abs(objective.evaluate_many(params) - roots)) < 1e-12


def _central_differences(objective, chunk, step=1e-6):
    grads = np.empty_like(chunk)
    for k in range(chunk.shape[1]):
        shift = np.zeros(chunk.shape[1])
        shift[k] = step
        grads[:, k] = (objective.evaluate_many(chunk + shift)
                       - objective.evaluate_many(chunk - shift)) / (2 * step)
    return grads


def _gradient_rows(seed, rows, n_nodes):
    """Random rows, then rows with every theta at 0 and at pi/2."""
    chunk = _random_angles(seed, rows, n_nodes)
    poles = _random_angles(seed + 1, 8, n_nodes)
    poles[:4, 0::2] = 0.0
    poles[4:, 0::2] = np.pi / 2
    return np.vstack([chunk, poles])


def _angle_gradient(bloch_grads, chunk):
    """Derivatives in the nodes' Bloch vectors, n = (sin 2t cos p, sin 2t
    sin p, cos 2t), chained through dn / d(theta, phi) into the rows' angle
    order."""
    theta, phi = chunk[:, 0::2], chunk[:, 1::2]
    along = bloch_grads.reshape(theta.shape + (3,))
    sin2, cos2 = np.sin(2 * theta), np.cos(2 * theta)
    d_theta = 2 * np.stack([cos2 * np.cos(phi), cos2 * np.sin(phi), -sin2], axis=-1)
    d_phi = np.stack([-sin2 * np.sin(phi), sin2 * np.cos(phi), np.zeros_like(phi)], axis=-1)
    grads = np.empty(chunk.shape)
    grads[:, 0::2] = np.sum(along * d_theta, axis=-1)
    grads[:, 1::2] = np.sum(along * d_phi, axis=-1)
    return grads


class TestGradient:
    # the evaluator's gradient is in the Bloch vectors (three per node); the
    # angle chain rule of _angle_gradient compares it with central
    # differences in the angles
    @pytest.mark.parametrize("rank", [1, 3, 8])
    @pytest.mark.parametrize("dims, level", CASES)
    def test_equals_central_differences(self, dims, level, rank):
        rank = min(rank, int(np.prod(dims)))
        objective = _MeasuredEntropyObjective(random_state(dims, rank, 80 + rank), level)
        chunk = _gradient_rows(81 + rank, 40, objective.n_nodes)
        values, grads = objective.evaluate_many(chunk, gradient=True)
        assert np.array_equal(values, objective.evaluate_many(chunk))
        assert grads.shape == (len(chunk), 3 * objective.n_nodes)
        assert np.max(np.abs(_angle_gradient(grads, chunk)
                             - _central_differences(objective, chunk))) < 1e-8

    @pytest.mark.parametrize("state", [bell_mixture(0.9), ghz_state(3)],
                             ids=["bell_mixture-0.9", "ghz"])
    def test_catalog_states_equal_central_differences(self, state):
        objective = _MeasuredEntropyObjective(state, 3)
        chunk = _gradient_rows(83, 40, objective.n_nodes)
        _, grads = objective.evaluate_many(chunk, gradient=True)
        assert np.max(np.abs(_angle_gradient(grads, chunk)
                             - _central_differences(objective, chunk))) < 1e-8

    @pytest.mark.parametrize("dims, level", CASES)
    def test_batched_rows_equal_single_row_gradients(self, dims, level):
        # the lockstep refinement relies on this, as on the values
        objective = _MeasuredEntropyObjective(random_state(dims, 3, 86), level)
        chunk = _random_angles(87, 30, objective.n_nodes)
        values, grads = objective.evaluate_many(chunk, gradient=True)
        for value, grad, row in zip(values, grads, chunk):
            one_value, one_grad = objective.evaluate_many(row[None, :], gradient=True)
            assert one_value[0] == value
            assert np.array_equal(one_grad[0], grad)


def _reference_x_log2_x(values):
    """:func:`x_log2_x` before it dropped its ``np.where`` temporaries."""
    keep = values > ENTROPY_EIGENVALUE_CLAMP
    return np.where(keep, values * np.log2(np.where(keep, values, 1.0)), 0.0)


def _reference_x_log2_x_and_slope(values):
    keep = values > ENTROPY_EIGENVALUE_CLAMP
    logs = np.log2(np.where(keep, values, 1.0))
    return np.where(keep, values * logs, 0.0), np.where(keep, logs + 1.0 / np.log(2.0), 0.0)


def _reference_projector_coefficients(theta, phi):
    """:func:`_projector_coefficients` before it wrote the Bloch vectors
    into its own array."""
    sin2 = np.sin(2.0 * theta)
    bloch = np.stack([sin2 * np.cos(phi), sin2 * np.sin(phi), np.cos(2.0 * theta)], axis=-1)
    out = np.empty(theta.shape + (2, 4))
    out[..., 0] = 0.5
    out[..., 0, 1:] = bloch / 2.0
    out[..., 1, 1:] = -out[..., 0, 1:]
    return out


def _reference_qubit_terms(comps, slopes):
    """:func:`_qubit_terms` before it worked one component row at a time."""
    radius = np.sqrt(np.sum(comps[..., 1:] ** 2, axis=-1, keepdims=True))
    spectrum = (comps[..., :1] + radius * np.array([0.0, 1.0, -1.0])) * np.array([1.0, 0.5, 0.5])
    if not slopes:
        parts = _reference_x_log2_x(spectrum)
        return parts[..., 0] - parts[..., 1] - parts[..., 2]
    parts, d_parts = _reference_x_log2_x_and_slope(spectrum)
    direction = np.divide(comps[..., 1:], radius, out=np.zeros_like(comps[..., 1:]),
                          where=radius > 0)
    grad = np.concatenate([d_parts[..., :1] - (d_parts[..., 1:2] + d_parts[..., 2:]) / 2.0,
                           (d_parts[..., 2:] - d_parts[..., 1:2]) / 2.0 * direction], axis=-1)
    return parts[..., 0] - parts[..., 1] - parts[..., 2], grad


def _hexes(values):
    """float.hex of every entry, so that equal lists are equal bits, signed
    zeros included."""
    return [float(v).hex() for v in np.ravel(values)]


def _eigenvalue_edges():
    """Eigenvalues at, just above and below the clamp, zeros of both signs,
    negatives, subnormals and ordinary values."""
    clamp = ENTROPY_EIGENVALUE_CLAMP
    return np.array([clamp, np.nextafter(clamp, 0.0), np.nextafter(clamp, 1.0), 2 * clamp,
                     clamp / 2, 0.0, -0.0, -clamp, -1e-13, -0.3, 5e-324, 1e-300, 1e-12 + 1e-28,
                     0.25, 0.5, 1.0, 1.5, 1e300])


def _qubit_components(seed, rows):
    """Pauli components (t_0, t_x, t_y, t_z) of rows x 6 branch blocks: random
    ones, blocks with t = 0, rank-1 blocks (t_0 = |t|, so one eigenvalue
    rounds to about 0 or below it), zero blocks of both signs and blocks
    at the clamp."""
    rng = np.random.default_rng(seed)
    comps = rng.uniform(-1.0, 1.0, (rows, 6, 4))
    comps[..., 0] = np.abs(comps[..., 0]) + np.linalg.norm(comps[..., 1:], axis=-1)
    flat = comps.reshape(-1, 4)
    flat[0::7, 1:] = 0.0
    flat[1::7, 0] = np.linalg.norm(flat[1::7, 1:], axis=-1)
    flat[2::7] = -0.0
    flat[3::7] = 0.0
    flat[4::7, 0] = 2 * ENTROPY_EIGENVALUE_CLAMP
    flat[4::7, 1:] = [0.0, -0.0, ENTROPY_EIGENVALUE_CLAMP]
    flat[5::7, 1:] *= -1e-7
    return comps


class TestRewrittenHelpersBits:
    """The helpers that lost their temporaries give their references'
    results bit for bit."""

    @pytest.mark.parametrize("shape", [(18,), (3, 6), (4, 6, 3)])
    def test_x_log2_x_and_slope_equal_the_reference(self, shape):
        values = np.resize(_eigenvalue_edges(), shape)
        parts, slopes = x_log2_x(values, slope=True)
        reference_parts, reference_slopes = _reference_x_log2_x_and_slope(values)
        assert _hexes(parts) == _hexes(reference_parts)
        assert _hexes(slopes) == _hexes(reference_slopes)
        assert _hexes(x_log2_x(values)) == _hexes(_reference_x_log2_x(values))

    @pytest.mark.parametrize("values", [
        *_eigenvalue_edges().tolist(),
        *map(np.array, _eigenvalue_edges()),
        _eigenvalue_edges(),
        np.resize(_eigenvalue_edges(), (4, 6, 3)),
    ])
    def test_x_log2_x_is_the_first_part_of_its_slope_form(self, values):
        # scalars and 0-d arrays too: both forms give 0-d arrays for them
        parts, slopes = x_log2_x(values, slope=True)
        alone = x_log2_x(values)
        assert isinstance(parts, np.ndarray) and parts.shape == slopes.shape == alone.shape
        assert _hexes(alone) == _hexes(parts)

    @pytest.mark.parametrize("value", [0.25, -0.0, 1e-13], ids=["kept", "zero", "clamped"])
    @pytest.mark.parametrize("kind", [float, np.float64, np.array, np.float32])
    def test_x_log2_x_of_a_scalar_equals_the_reference(self, value, kind):
        got, want = x_log2_x(kind(value)), _reference_x_log2_x(kind(value))
        assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == want.dtype
        assert _hexes(got) == _hexes(want)

    @pytest.mark.parametrize("rows", [1, 4, 52])
    def test_projector_coefficients_equal_the_reference(self, rows):
        rng = np.random.default_rng(105 + rows)
        chunk = rng.uniform(-10.0, 10.0, (rows, 14))
        edge = rng.random(chunk.shape) < 0.5
        chunk[edge] = rng.choice([0.0, -0.0, np.pi / 2, np.pi, -np.pi, 1e300, -1e300],
                                 int(edge.sum()))
        theta, phi = chunk[:, 0::2], chunk[:, 1::2]
        assert (_hexes(_projector_coefficients(theta, phi))
                == _hexes(_reference_projector_coefficients(theta, phi)))

    @pytest.mark.parametrize("rows", [1, 4, 52, 700])
    def test_qubit_terms_equal_the_reference(self, rows):
        comps = _qubit_components(108 + rows, rows)
        assert _hexes(_qubit_terms(comps, False)) == _hexes(_reference_qubit_terms(comps, False))
        terms, grad = _qubit_terms(comps, True)
        reference_terms, reference_grad = _reference_qubit_terms(comps, True)
        assert _hexes(terms) == _hexes(reference_terms)
        assert grad.shape == comps.shape and grad.flags.c_contiguous
        assert _hexes(grad) == _hexes(reference_grad)


class TestEvaluationChunks:
    @pytest.mark.parametrize("dims, level", [
        ((2, 2), 2), ((2, 2, 2), 3), ((2, 2, 2, 2), 3),
    ], ids=["level-2", "level-3", "4x4-tail"])
    def test_rows_across_the_chunk_boundary_equal_single_rows(self, dims, level):
        # the first _EVAL_CHUNK rows are one chunk, the last one another
        objective = _MeasuredEntropyObjective(random_state(dims, 3, 111), level)
        rows = _random_angles(112, _EVAL_CHUNK + 1, objective.n_nodes)
        values, grads = objective.evaluate_many(rows, gradient=True)
        singles = [objective.evaluate_many(row[None, :], gradient=True) for row in rows]
        assert _hexes(values) == _hexes([value[0] for value, _ in singles])
        assert _hexes(grads) == _hexes(np.vstack([grad for _, grad in singles]))
        assert _hexes(objective.evaluate_many(rows)) == _hexes(values)

    @pytest.mark.parametrize("dims, level", [((2, 2), 2), ((2, 2, 2), 3), ((2, 2, 2, 2), 3)])
    def test_no_rows_give_empty_arrays(self, dims, level):
        objective = _MeasuredEntropyObjective(random_state(dims, 3, 114), level)
        rows = np.empty((0, 2 * objective.n_nodes))
        assert objective.evaluate_many(rows).shape == (0,)
        values, grads = objective.evaluate_many(rows, gradient=True)
        assert values.shape == (0,) and grads.shape == (0, 3 * objective.n_nodes)


class TestNonFiniteRows:
    # werner_ghz(0.7) at level 3 once valued this row 0.3476: the NaN
    # node's branch terms were clamped to 0
    ROW = [0.1, 0.2, np.nan, 0.3, 0.4, 0.5]

    def test_the_nan_row_is_refused(self):
        objective = _MeasuredEntropyObjective(states.werner_ghz(0.7), 3)
        with pytest.raises(ValueError, match="angles must be finite"):
            objective(self.ROW)

    @pytest.mark.parametrize("gradient", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rows, at", [(1, 0), (13, 7), (_EVAL_CHUNK + 3, _EVAL_CHUNK + 1)],
                             ids=["one-row", "small-batch", "second-chunk"])
    def test_a_non_finite_angle_is_refused(self, rows, at, bad, gradient):
        objective = _MeasuredEntropyObjective(states.werner_ghz(0.7), 3)
        chunk = _random_angles(113, rows, objective.n_nodes)
        chunk[at, 3] = bad
        with pytest.raises(ValueError, match="angles must be finite"):
            objective.evaluate_many(chunk, gradient=gradient)


class TestDiscord:
    def test_bell_value(self, bell):
        result = discord(bell)
        assert_allclose(result.value, 1.0, atol=1e-4)
        assert result.converged

    def test_ghz_value_and_decomposition(self, ghz):
        result = discord(ghz, level=3)
        assert_allclose(result.value, 1.0, atol=1e-4)
        total = sum(result.decomposition.values())
        assert_allclose(total, result.value, atol=1e-9)

    def test_pair_spectator_reduction(self):
        pair = random_state((2, 2), 2, 90)
        state = tensor(pair, random_state((2,), 1, 91))
        assert_allclose(
            discord(state, level=3).value, discord(pair, level=2).value, atol=1e-6
        )

    def test_bell_diagonal_matches_luo_closed_form(self):
        # Luo, PRA 77, 042303 (2008): rho = (I + sum_i c_i s_i x s_i) / 4 has
        # discord I - C with I = 2 - S(rho), C = 1 - h((1 + c) / 2), c = max |c_i|
        paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1, -1]))

        def h(p):
            return -p * np.log2(p) - (1 - p) * np.log2(1 - p)

        rng = np.random.default_rng(7)
        checked = 0
        while checked < 8:
            c = rng.uniform(-1, 1, 3)
            matrix = (np.eye(4) + sum(ci * np.kron(p, p) for ci, p in zip(c, paulis))) / 4
            eigenvalues = np.linalg.eigvalsh(matrix)
            if eigenvalues.min() < 0:
                continue
            eigenvalues = eigenvalues[eigenvalues > 0]
            mutual = 2 + np.sum(eigenvalues * np.log2(eigenvalues))
            classical = 1 - h((1 + np.abs(c).max()) / 2)
            value = discord(QState((2, 2), matrix), level=2).value
            assert abs(value - (mutual - classical)) < 1e-12, (c, value)
            checked += 1

    def test_measured_order_permutes(self, ghz):
        # measuring C first on a GHZ state is equivalent by symmetry
        direct = discord(ghz, level=3)
        reordered = discord(ghz, measured_order=(2, 0, 1), level=3)
        assert_allclose(reordered.value, direct.value, atol=1e-6)

    def test_level_two_on_three_qubits(self, ghz):
        # bipartite discord of A against the BC block; one bit for pure GHZ
        result = discord(ghz, level=2)
        assert_allclose(result.value, 1.0, atol=1e-6)
        assert result.decomposition is None

    def test_deterministic(self):
        state = random_qubits(17, 3, 4)
        first = discord(state, level=3)
        second = discord(state, level=3)
        assert first.value == second.value
        assert np.array_equal(
            first.optimal_params.to_flat(), second.optimal_params.to_flat()
        )
        assert first.diagnostics == second.diagnostics

    def test_zero_for_measured_state(self):
        tree = random_tree(60, 2)
        measured, _ = apply_tree(random_qubits(8, 3, 5), tree, 2)
        result = discord(measured, level=3)
        assert result.value < 1e-6

    def test_diagnostics_fields(self, bell):
        result = discord(bell)
        diag = result.diagnostics
        assert diag["evaluations"] > 36
        assert diag["level"] == 2
        assert "grid_best" in diag and "best_objective_trace" in diag
        assert result.value <= diag["grid_best"] + 1e-12

    def test_four_party_level_four_at_the_default_grid(self):
        state = ghz_state(4)
        result = discord(state, level=4)
        tree = tree_from_params(state.dims, (0, 1, 2), result.optimal_params)
        assert abs(result.value - reference_objective(state, tree, level=4)) < 1e-9
        assert result.value >= -1e-12
        assert result.diagnostics["evaluations"] > 13 ** 7

    # the polish ran on the objective times a scale and reported its value
    # divided by that scale, a few ulps off the objective at the reported
    # params: werner_w(0.1), classical_quantum_mix(0.3), ghz and the rank-3
    # draw below
    @pytest.mark.parametrize("family, mu", [
        (family, mu) for family in states.FAMILIES
        for mu in ((0.1, 0.3, 0.5, 0.7, 0.9) if family in states.MU_FAMILIES else (None,))
    ] + [("random", rank) for rank in range(1, 9)])
    def test_value_is_the_objective_at_the_optimal_params(self, family, mu):
        if family == "random":
            state = random_state((2, 2, 2), mu, 999 + mu)
        else:
            state = states.build(family, mu)
        result = discord(state)
        objective = _MeasuredEntropyObjective(state, state.n_subsystems)
        assert result.value == objective(result.optimal_params.to_flat())

    @pytest.mark.parametrize("polished_converged", [False, True])
    def test_polish_keeps_a_converged_point_from_an_unconverged_pass(
        self, monkeypatch, polished_converged
    ):
        state = random_qubits(17, 3, 4)
        refined = optimize(_MeasuredEntropyObjective(state, 3), OptimizerConfig())
        assert refined.converged

        def slightly_lower(objective, start):
            value = float(objective.evaluate_many(start[None, :])[0])
            return OptimizerOutcome(
                best_value=value - 1e-12 * abs(value), best_row=start,
                evaluations=1, converged=polished_converged, grid_best=value,
            )

        module = importlib.import_module("mdiscord.discord")
        monkeypatch.setattr(module, "simplex_refine", slightly_lower)
        result = discord(state, level=3)
        assert result.converged
        if polished_converged:
            assert result.value < refined.best_value
        else:
            assert result.value == refined.best_value

    @pytest.mark.parametrize("family, mu", [
        ("werner_ghz", 0.7), ("werner_w", 0.5), ("bell_mixture", 0.9),
        ("classical_quantum_mix", 0.3),
    ])
    def test_every_polish_pass_converges_below_the_cap(self, monkeypatch, family, mu):
        # on bell_mixture(0.9) each probe ring found a point a few ulps lower,
        # rebuilt the simplex and re-converged, until the iteration cap
        passes = []

        def recorded(objective, start):
            sizes = []

            class Counted:
                def evaluate_many(self, rows):
                    sizes.append(len(rows))
                    return objective.evaluate_many(rows)

            outcome = simplex_refine(Counted(), start)
            passes.append((outcome, sizes, start.size))
            return outcome

        module = importlib.import_module("mdiscord.discord")
        monkeypatch.setattr(module, "simplex_refine", recorded)
        discord(getattr(states, family)(mu), level=3)
        assert passes
        for outcome, sizes, n in passes:
            assert outcome.converged
            # one iteration per four-row call (with any shrink after it), one
            # per simplex rebuilt after a 2n-row probe ring, and the last one
            rebuilds = sum(before == 2 * n and size == n
                           for before, size in zip(sizes, sizes[1:]))
            assert sizes.count(4) + rebuilds + 1 < SIMPLEX_MAX_ITERS

    def test_a_near_pure_state_reaches_the_dense_minimum(self):
        # the default config gave 2.873e-5, converged, while its ladder,
        # which stopped at twice the quasi-Newton step, crept along a valley
        state = classical_quantum_mix(1e-5)
        dense = discord(state, config=OptimizerConfig(grid_points_per_angle=20, refine_starts=32))
        assert abs(discord(state).value - dense.value) <= 1e-9, dense.value

    def test_level_bounds(self, bell):
        with pytest.raises(StructuralError):
            discord(bell, level=3)
        with pytest.raises(StructuralError):
            discord(bell, level=1)

    def test_bad_order_rejected(self, ghz):
        with pytest.raises(StructuralError):
            discord(ghz, measured_order=(0, 0, 1))

    # each was truncated: level 2.9 ran level 2, and every order below ran
    # as [1, 0, 2]
    @pytest.mark.parametrize("argument, value, message", [
        ("level", 2.9, "level must be an integer"),
        ("level", 3.5, "level must be an integer"),
        ("level", True, "level must be an integer"),
        ("measured_order", [1.9], r"measured_order\[0\] must be an integer"),
        ("measured_order", [True], r"measured_order\[0\] must be an integer"),
        ("measured_order", ["1"], r"measured_order\[0\] must be an integer"),
    ], ids=["level-2.9", "level-3.5", "level-True",
            "order-1.9", "order-True", "order-str"])
    def test_refuses_an_argument_that_is_not_an_integer(self, argument, value, message):
        with pytest.raises(ValueError, match=message):
            discord(states.werner_ghz(0.7), **{argument: value})

    def test_accepts_numpy_integers(self):
        cfg = OptimizerConfig(grid_points_per_angle=3, refine_starts=1)
        state = states.werner_w(0.4)
        plain = discord(state, measured_order=[1], level=2, config=cfg)
        numpy = discord(state, measured_order=[np.int64(1)], level=np.int32(2), config=cfg)
        assert numpy.value.hex() == plain.value.hex()
        assert numpy.diagnostics == plain.diagnostics


class TestSharedEntropies:
    """A level-3 discord() values S(rho) and S(rho_A) once: the
    decomposition's pre-measurement table takes them from the objective."""

    def test_a_level_three_discord_values_eighteen_entropies(self, monkeypatch):
        calls = []

        def counted(state):  # entropy is this module's own, unpatched binding
            calls.append(state.dims)
            return entropy(state)

        for name in ("mdiscord.qstate", "mdiscord.discord", "mdiscord.entropy_flux"):
            monkeypatch.setattr(importlib.import_module(name), "entropy", counted)
        config = OptimizerConfig(grid_points_per_angle=3, refine_starts=1)
        assert discord(states.werner_ghz(0.7), level=3, config=config).decomposition
        # the objective's 2, then 5, 7 and 4 for the pre, once- and
        # twice-measured tables; the pre table used to value all 7
        assert len(calls) == 18

    @pytest.mark.parametrize("seed", range(12))
    def test_the_objective_entropies_equal_the_table_bits(self, seed):
        state = random_state((2, 2, 2), 1 + seed % 8, 3100 + seed)
        tree = random_tree(seed, 2)
        shared = flux._decomposition(state, tree, _MeasuredEntropyObjective(state, 3).entropies)
        assert _hexes(list(shared.values())) == _hexes(
            list(flux._decomposition(state, tree).values()))


class TestDiscordTwoMeasurement:
    # the two-measurement form at discord's root, with each child in the
    # eigenbasis of B's conditional state, is the minimized one-measurement
    # form, and no child goes lower (TestObjectiveTwoMeasurement)
    def test_matches_single_measurement_form(self):
        state = random_state((2, 2), 3, 506)
        result = discord(state, level=2)
        root = projector_pair_from_angles(*result.optimal_params.angles[0])
        assert_allclose(two_measurement_integrand(state, eigenbasis_tree(state, root)),
                        result.value, atol=1e-5)

    def test_bell(self, bell):
        root = projector_pair_from_angles(*discord(bell, level=2).optimal_params.angles[0])
        assert_allclose(two_measurement_integrand(bell, eigenbasis_tree(bell, root)),
                        1.0, atol=1e-4)


class TestResultJson:
    def test_round_trip(self, bell):
        result = discord(bell)
        loaded = json.loads(result_to_json(result))
        assert loaded["value"] == result.value
        assert params_from_json(json.dumps(loaded["params"])) == result.optimal_params
        assert loaded["diagnostics"] == result.diagnostics
        assert loaded["decomposition"] == result.decomposition


# Discord minimizes over every measurement tree, so local unitaries
# U_A (x) U_B (x) U_C leave it unchanged (Ollivier & Zurek, PRL 88, 017901,
# 2001): a missed minimum in one orientation of the landscape shows here.
INVARIANCE_TOL = 1e-9


def _local_rotation(seed, n_qubits):
    """A Haar-random unitary per qubit, made as the benchmark's
    ``local_unitaries`` makes them, as one Kronecker product."""
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(n_qubits):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        factors.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return kron_product(factors)


def _rotated(state, seed):
    u = _local_rotation(seed, state.n_subsystems)
    return QState(state.dims, u @ state.matrix @ u.conj().T)


@st.composite
def _base_states(draw):
    """A catalog state at a drawn mu, or a random 3-qubit state of rank 1-8."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(states.FAMILIES))
        mu = draw(st.floats(0.0, 1.0)) if family in states.MU_FAMILIES else None
        return states.build(family, mu)
    return random_state((2, 2, 2), draw(st.integers(1, 8)), draw(st.integers(0, 2 ** 31)))


class TestLocalUnitaryInvariance:
    # each missed its unturned value by 6.2e-3, 2.3e-4 and 1.3e-7 when the
    # starts could refine one measurement twice, as a grid cell and its
    # antipode
    @example(random_state((2, 2, 2), 5, 27062), 1)
    @example(random_state((2, 2, 2), 7, 1072), 0)
    @example(bell_mixture(0.99999), 0)
    # near-pure states: each missed by 4.1e-8 to 5.9e-5, or did not converge,
    # while the refinement's ladder stopped at twice its step and crept
    @example(bell_mixture(0.99999), 1)
    @example(bell_mixture(0.99999), 2)
    @example(bell_mixture(0.99999), 3)
    @example(bell_mixture(0.99999), 6)
    @example(classical_quantum_mix(1e-5), 0)
    @example(classical_quantum_mix(0.99999), 1)
    @example(classical_quantum_mix(0.99999), 6)
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(_base_states(), st.integers(0, 2 ** 31))
    def test_rotated_state_keeps_its_discord(self, state, seed):
        plain = discord(state)
        turned = discord(_rotated(state, seed))
        assert plain.converged and turned.converged
        assert abs(turned.value - plain.value) <= INVARIANCE_TOL, (plain.value, turned.value)

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
    def test_rotated_measured_state_stays_at_zero(self, rank, state_seed, seed):
        tree = random_tree(state_seed, 2)
        measured, _ = apply_tree(random_state((2, 2, 2), rank, state_seed), tree, 2)
        result = discord(_rotated(measured, seed))
        assert result.converged
        assert abs(result.value) <= INVARIANCE_TOL, result.value
