import importlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mdiscord import (
    MeasParams,
    QState,
    StructuralError,
    apply_tree,
    discord,
    discord_two_measurement,
    objective_bipartite,
    objective_bipartite_two_meas,
    objective_npartite,
    objective_tripartite,
    random_state,
    tensor,
    tree_from_params,
)
from mdiscord.discord import (
    _MeasuredEntropyObjective,
    _TwoMeasurementObjective,
    _branch_coefficients,
    _projector_coefficients,
    result_from_json,
    result_to_json,
)
from mdiscord.qstate import x_log2_x
from mdiscord.optimizer import OptimizerConfig, OptimizerOutcome, _angle_grids, optimize
from mdiscord.oracle import reference_objective
from mdiscord.states import bell_mixture, cc_example_state, ghz_state, product_state

from conftest import dm, random_qubits, random_tree


def cc_optimal_tree():
    # root Z, children Z after outcome 0 and X after outcome 1
    return tree_from_params(
        (2, 2, 2), (0, 1),
        MeasParams(((0.0, 0.0), (0.0, 0.0), (np.pi / 4, 0.0))),
    )


class TestObjectiveBipartite:
    def test_bell_z(self, bell, z_tree_2q):
        assert_allclose(objective_bipartite(bell, z_tree_2q), 1.0, atol=1e-12)

    def test_product_any_tree(self):
        state = tensor(random_state((2,), 2, 1), random_state((2,), 2, 2))
        tree = random_tree(10, 1, dims=(2, 2))
        assert_allclose(objective_bipartite(state, tree), 0.0, atol=1e-9)

    def test_classical_pair_z(self, z_tree_2q):
        state = QState((2, 2), np.diag([0.5, 0.0, 0.0, 0.5]))
        assert_allclose(objective_bipartite(state, z_tree_2q), 0.0, atol=1e-12)


class TestObjectiveTwoMeasurement:
    def test_bell_z_tree(self, bell):
        tree = tree_from_params((2, 2), (0, 1), MeasParams(((0.0, 0.0),) * 3))
        assert_allclose(objective_bipartite_two_meas(bell, tree), 1.0, atol=1e-12)

    def test_cc_pair_with_optimal_tree(self):
        state = QState((2, 2), (dm([1, 0, 0, 0]) + dm([0, 0, 1, 1])) / 2)
        tree = tree_from_params(
            (2, 2), (0, 1),
            MeasParams(((0.0, 0.0), (0.0, 0.0), (np.pi / 4, 0.0))),
        )
        assert_allclose(objective_bipartite_two_meas(state, tree), 0.0, atol=1e-12)

    def test_product(self):
        # with the second measurement along the B factor's own eigenbasis
        # nothing changes, so the integrand vanishes
        state = QState((2, 2), np.kron(np.diag([0.8, 0.2]), np.diag([0.3, 0.7])))
        tree = tree_from_params((2, 2), (0, 1), MeasParams(((0.0, 0.0),) * 3))
        assert_allclose(objective_bipartite_two_meas(state, tree), 0.0, atol=1e-9)
        # and the minimized value is zero for any product state
        random_product = tensor(random_state((2,), 2, 3), random_state((2,), 2, 4))
        assert discord_two_measurement(random_product).value < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_dominates_single_measurement_form(self, seed):
        # convolving with a non-eigenbasis child can only raise the entropy
        state = random_state((2, 2), 1 + seed % 4, 600 + seed)
        tree = random_tree(12 + seed, 2, dims=(2, 2))
        root_only = tree_from_params(
            (2, 2), (0,), MeasParams((tuple(_root_angles(tree)),))
        )
        assert (
            objective_bipartite_two_meas(state, tree)
            >= objective_bipartite(state, root_only) - 1e-9
        )

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_batched_walk_equals_the_tree_integrand(self, rank):
        # the evaluator discord_two_measurement minimizes: the discord walk
        # over both qubits with Shannon terms, against the raw tree path
        state = random_state((2, 2), rank, 610 + rank)
        objective = _TwoMeasurementObjective(state)
        chunk = _random_angles(620 + rank, 40, objective.n_nodes)
        for value, row in zip(objective.evaluate_many(chunk), chunk):
            tree = tree_from_params((2, 2), (0, 1), MeasParams.from_flat(row))
            assert abs(value - objective_bipartite_two_meas(state, tree)) < 1e-12
            assert objective(row) == value


def _root_angles(tree):
    p0 = tree.root.projectors[0]
    theta = float(np.arccos(np.sqrt(np.clip(p0[0, 0].real, 0.0, 1.0))))
    phi = float(np.angle(p0[1, 0])) % (2 * np.pi) if abs(p0[1, 0]) > 1e-12 else 0.0
    return theta, phi


class TestObjectiveTripartite:
    def test_ghz_full_z(self, ghz, z_tree_3q):
        assert_allclose(objective_tripartite(ghz, z_tree_3q), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_measured_state_scores_zero_with_its_tree(self, seed):
        tree = random_tree(20 + seed, 2)
        measured, _ = apply_tree(random_qubits(seed, 3, 1 + seed % 8), tree, 2)
        assert_allclose(objective_tripartite(measured, tree), 0.0, atol=1e-10)

    def test_cc_example_with_optimal_tree(self):
        assert_allclose(
            objective_tripartite(cc_example_state(), cc_optimal_tree()),
            0.0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_non_negative_for_every_tree(self, seed):
        state = random_qubits(700 + seed, 3, 1 + seed % 8)
        tree = random_tree(30 + seed, 2)
        assert objective_tripartite(state, tree) > -1e-9

    def test_matches_batched_evaluator(self):
        state = random_qubits(3, 3, 6)
        rng = np.random.default_rng(31)
        flat = np.stack(
            [rng.uniform(0, np.pi / 2, 3), rng.uniform(0, 2 * np.pi, 3)], 1
        ).ravel()
        tree = tree_from_params((2, 2, 2), (0, 1), MeasParams.from_flat(flat))
        fast = _MeasuredEntropyObjective(state, 3)
        assert_allclose(fast(flat), objective_tripartite(state, tree), atol=1e-12)


class TestObjectiveNPartite:
    def test_four_qubit_product(self):
        state = tensor(product_state(), random_state((2,), 1, 77))
        tree = random_tree(40, 3, dims=(2, 2, 2, 2))
        assert_allclose(objective_npartite(state, tree), 0.0, atol=1e-9)

    def test_four_qubit_ghz_full_z(self):
        tree = tree_from_params((2,) * 4, (0, 1, 2), MeasParams(((0.0, 0.0),) * 7))
        assert_allclose(objective_npartite(ghz_state(4), tree), 1.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_four_partite_measured_state_scores_zero(self, seed):
        tree = random_tree(50 + seed, 3, dims=(2,) * 4)
        measured, _ = apply_tree(random_qubits(seed, 4, 1 + seed % 16), tree, 3)
        assert_allclose(objective_npartite(measured, tree), 0.0, atol=1e-10)

    def test_reduces_to_lower_levels(self, ghz, z_tree_3q, bell, z_tree_2q):
        assert_allclose(
            objective_npartite(ghz, z_tree_3q),
            objective_tripartite(ghz, z_tree_3q),
            atol=1e-12,
        )
        assert_allclose(
            objective_npartite(bell, z_tree_2q),
            objective_bipartite(bell, z_tree_2q),
            atol=1e-12,
        )


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
    theta_grid, phi_grid = _angle_grids(points)
    cells = points * points
    cell_angles = np.stack([np.repeat(theta_grid, points), np.tile(phi_grid, points)], 1)
    tables = []
    for step in range(1, objective.steps + 1):
        combos = np.stack(np.unravel_index(np.arange(cells ** step), (cells,) * step), 1)
        depth_of_node = np.floor(np.log2(np.arange(objective.n_nodes) + 1)).astype(int)
        depth_of_node = np.minimum(depth_of_node, step - 1)
        chunk = cell_angles[combos[:, depth_of_node]].reshape(len(combos), -1)
        blocks = _reference_blocks(objective, chunk)[step - 1]
        tables.append(_reference_entropy(blocks).reshape((cells,) * step + (-1,)))
    return tables


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
        if level == 4 and points == 6:
            points = 2  # 36**3 reference rows would be slow
        objective = _MeasuredEntropyObjective(random_state(dims, 4, 77), level)
        base, tables = objective.grid_tables(points)
        assert base == objective.base
        for table, expected in zip(tables, _reference_tables(objective, points),
                                   strict=True):
            assert table.shape == expected.shape
            assert np.max(np.abs(table - expected)) < 1e-12


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

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_two_measurement_equals_central_differences(self, rank):
        objective = _TwoMeasurementObjective(random_state((2, 2), rank, 84 + rank))
        chunk = _gradient_rows(85 + rank, 40, objective.n_nodes)
        values, grads = objective.evaluate_many(chunk, gradient=True)
        assert np.array_equal(values, objective.evaluate_many(chunk))
        assert grads.shape == (len(chunk), 3 * objective.n_nodes)
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
        assert result.diagnostics["evaluations"] > 36 ** 7

    @pytest.mark.parametrize("polished_converged", [False, True])
    def test_polish_keeps_a_converged_point_from_an_unconverged_pass(
        self, monkeypatch, polished_converged
    ):
        state = random_qubits(17, 3, 4)
        refined = optimize(_MeasuredEntropyObjective(state, 3), 3, OptimizerConfig())
        assert refined.converged

        def slightly_lower(objective, start):
            value = float(objective.evaluate_many(start.to_flat()[None, :])[0])
            return OptimizerOutcome(
                best_value=value - 1e-12 * abs(value), best_params=start,
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

    def test_level_bounds(self, bell):
        with pytest.raises(StructuralError):
            discord(bell, level=3)
        with pytest.raises(StructuralError):
            discord(bell, level=1)

    def test_bad_order_rejected(self, ghz):
        with pytest.raises(StructuralError):
            discord(ghz, measured_order=(0, 0, 1))


class TestDiscordTwoMeasurement:
    def test_matches_single_measurement_form(self):
        state = random_state((2, 2), 3, 506)
        assert_allclose(
            discord_two_measurement(state).value,
            discord(state, level=2).value,
            atol=1e-5,
        )

    def test_bell(self, bell):
        assert_allclose(discord_two_measurement(bell).value, 1.0, atol=1e-4)


class TestResultJson:
    def test_round_trip(self, bell):
        result = discord(bell)
        loaded = result_from_json(result_to_json(result))
        assert loaded.value == result.value
        assert loaded.optimal_params == result.optimal_params
        assert loaded.diagnostics == result.diagnostics
        assert loaded.decomposition == result.decomposition
