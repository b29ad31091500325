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
    _basis_vectors,
    _branch_entropy_block,
    _measure_step,
    result_from_json,
    result_to_json,
)
from mdiscord.qstate import x_log2_x
from mdiscord.optimizer import OptimizerConfig, OptimizerOutcome, optimize
from mdiscord.oracle import reference_objective
from mdiscord.states import cc_example_state, ghz_state, product_state

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


def _node_vectors(chunk, depth):
    """Basis vectors of the depth-``depth`` nodes, valued for that depth
    alone: the per-step formula the evaluator used before it valued every
    node's vectors in one call, kept as its reference."""
    idx = 2 ** depth - 1 + np.arange(2 ** depth)
    return _basis_vectors(chunk[:, 2 * idx], chunk[:, 2 * idx + 1])


def _reference_branch_entropy_qubit(blocks):
    """p * S(block / p) of 2x2 blocks with one x log2 x call per term: the
    formula _branch_entropy_qubit stacked into one call, kept as its
    reference."""
    a = blocks[..., 0, 0].real
    d = blocks[..., 1, 1].real
    off = blocks[..., 0, 1]
    trace = a + d
    det = a * d - (off.real ** 2 + off.imag ** 2)
    disc = np.sqrt(np.maximum(trace * trace - 4.0 * det, 0.0))
    hi = (trace + disc) / 2.0
    lo = (trace - disc) / 2.0
    return x_log2_x(trace) - x_log2_x(hi) - x_log2_x(lo)


def _reference_values(objective, chunk):
    """The integrand of every row, step by step with the reference formulas."""
    value = np.full(len(chunk), objective.base)
    rho = objective.rho
    branches = np.broadcast_to(rho, (len(chunk), 1) + rho.shape)
    for step in range(1, objective.steps + 1):
        branches = _measure_step(branches, _node_vectors(chunk, step - 1))
        if step < objective.steps:
            quarter = branches.shape[-1] // 2
            six = branches.reshape(len(chunk), -1, 2, quarter, 2, quarter)
            terms = _reference_branch_entropy_qubit(np.einsum("npacbc->npab", six))
        elif branches.shape[-1] == 2:
            terms = _reference_branch_entropy_qubit(branches)
        else:
            terms = _branch_entropy_block(branches)
        value += terms.sum(axis=-1)
    return value


def _einsum_step(branches, vectors):
    """The contraction _measure_step replaced, kept as its reference."""
    nb = branches.shape[0]
    half = branches.shape[-1] // 2
    blocks = branches.reshape(nb, -1, 2, half, 2, half)
    return np.einsum(
        "npjm,npmrls,npjl->npjrs", vectors.conj(), blocks, vectors, optimize="greedy"
    ).reshape(nb, -1, half, half)


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
        rho = np.asarray(random_state(dims, rank, 60 + rank).matrix)
        chunk = _random_angles(rows, rows, 2 ** (level - 1) - 1)
        branches = np.broadcast_to(rho, (rows, 1) + rho.shape)
        for step in range(1, level):
            vectors = _node_vectors(chunk, step - 1)
            stepped = _measure_step(branches, vectors)
            assert np.array_equal(stepped, _einsum_step(branches, vectors))
            branches = stepped

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
        # one basis-vector call for every node and one x log2 x call per
        # qubit block leave every value bit for bit as before
        objective = _MeasuredEntropyObjective(random_state(dims, 3, 73), level)
        chunk = _random_angles(74 + rows, rows, objective.n_nodes)
        assert np.array_equal(
            objective.evaluate_many(chunk), _reference_values(objective, chunk)
        )


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
