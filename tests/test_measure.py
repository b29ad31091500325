import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mdiscord import (
    MeasParams,
    MeasurementTree,
    ProjectorBasis,
    QState,
    StructuralError,
    apply_tree,
    optimal_tree_for_measured_state,
    projector_pair_from_angles,
    random_state,
    tree_from_params,
)
from mdiscord import measure
from mdiscord.measure import bfs_paths, node_count, params_from_json, params_to_json

from conftest import KET0, KET1, PLUS, dm, random_tree


class TestProjectorPair:
    def test_zero_angles_give_computational_basis(self):
        basis = projector_pair_from_angles(0.0, 0.0)
        assert_allclose(basis.projectors[0], dm(KET0), atol=1e-15)
        assert_allclose(basis.projectors[1], dm(KET1), atol=1e-15)

    def test_pi_quarter_gives_plus_minus(self):
        basis = projector_pair_from_angles(np.pi / 4, 0.0)
        assert_allclose(basis.projectors[0], dm([1, 1]), atol=1e-15)
        assert_allclose(basis.projectors[1], dm([1, -1]), atol=1e-15)

    def test_circular_basis(self):
        # substitute (pi/4, pi/2) into the pair construction directly
        basis = projector_pair_from_angles(np.pi / 4, np.pi / 2)
        assert_allclose(basis.projectors[0], dm([1, 1j]), atol=1e-15)
        assert_allclose(basis.projectors[1], dm([1, -1j]), atol=1e-15)

    @pytest.mark.parametrize("seed", range(12))
    def test_pair_is_a_valid_basis(self, seed):
        rng = np.random.default_rng(seed)
        basis = projector_pair_from_angles(
            rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
        )
        p0, p1 = basis.projectors
        assert_allclose(p0 + p1, np.eye(2), atol=1e-12)
        assert_allclose(p0 @ p1, np.zeros((2, 2)), atol=1e-12)
        for p in (p0, p1):
            assert_allclose(p @ p, p, atol=1e-12)
            assert_allclose(p.trace(), 1.0, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            projector_pair_from_angles(np.nan, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_pair_equals_the_checked_construction(self, seed):
        # the pair skips the basis checks, and builds the very projectors
        # that from_vectors checks
        rng = np.random.default_rng(100 + seed)
        theta, phi = rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
        phase = np.exp(1j * phi)
        checked = ProjectorBasis.from_vectors([
            [np.cos(theta), phase * np.sin(theta)],
            [np.sin(theta), -phase * np.cos(theta)],
        ])
        basis = projector_pair_from_angles(theta, phi)
        assert basis.dim == checked.dim
        for p, q in zip(basis.projectors, checked.projectors, strict=True):
            assert p.dtype == q.dtype and np.array_equal(p, q)


class TestProjectorBasisValidation:
    def test_rejects_incomplete_set(self):
        with pytest.raises(ValueError):
            ProjectorBasis(dim=2, projectors=(dm(KET0), dm(KET0)))

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError):
            ProjectorBasis(dim=2, projectors=(np.eye(2), np.zeros((2, 2))))

    @pytest.mark.parametrize("vectors", [[KET0, PLUS], [[1, 1], [1, -1]]],
                             ids=["not-orthogonal", "not-normalized"])
    def test_from_vectors_rejects_an_invalid_basis(self, vectors):
        with pytest.raises(ValueError):
            ProjectorBasis.from_vectors(vectors)


class TestTreeFromParams:
    def test_single_node(self):
        tree = tree_from_params((2, 2), (0,), MeasParams(((0.0, 0.0),)))
        assert tree.depth == 1
        assert tree.measured == (0,)
        assert_allclose(tree.root.projectors[0], dm(KET0), atol=1e-15)

    def test_three_party_parameter_count(self):
        # one root plus two children: six scalars for the full tree
        assert node_count(2) == 3
        params = MeasParams(((0.1, 0.2), (0.3, 0.4), (0.5, 0.6)))
        tree = tree_from_params((2, 2, 2), (0, 1), params)
        assert params.to_flat().size == 6
        assert set(tree.children) == {(0,), (1,)}

    def test_four_party_parameter_count(self):
        # 1 + 2 + 4 nodes, 14 scalars = 2**4 - 2
        assert node_count(3) == 7
        params = MeasParams.from_flat(np.linspace(0.0, 1.0, 14))
        tree = tree_from_params((2, 2, 2, 2), (0, 1, 2), params)
        assert 2 * node_count(3) == 2 ** 4 - 2
        assert tree.depth == 3

    def test_node_count_mismatch(self):
        with pytest.raises(StructuralError):
            tree_from_params((2, 2, 2), (0, 1), MeasParams(((0.0, 0.0),)))

    def test_non_qubit_rejected(self):
        with pytest.raises(StructuralError):
            tree_from_params((3, 2), (0,), MeasParams(((0.0, 0.0),)))

    def test_measparams_node_count_shape(self):
        with pytest.raises(StructuralError):
            MeasParams(((0.0, 0.0), (0.1, 0.1)))


class TestApplyTree:
    def test_z_root_on_block_state(self):
        # (|00><00| + |1+><1+|)/2 is already conditioned on Z outcomes of A,
        # so the unselected Z measurement leaves it unchanged; check against
        # the explicitly computed projector sum.
        state = QState((2, 2), (dm([1, 0, 0, 0]) + dm([0, 0, 1, 1])) / 2)
        tree = tree_from_params((2, 2), (0,), MeasParams(((0.0, 0.0),)))
        post, branches = apply_tree(state, tree, 1)
        expected = np.zeros((4, 4), dtype=complex)
        for proj in tree.root.projectors:
            full = np.kron(proj, np.eye(2))
            expected += full @ state.matrix @ full
        assert_allclose(post.matrix, expected, atol=1e-15)
        assert_allclose(post.matrix, state.matrix, atol=1e-15)
        assert_allclose([b.probability for b in branches], [0.5, 0.5], atol=1e-12)

    def test_conditional_tree_fixed_point(self):
        # root Z with children {Z after outcome 0, X after outcome 1} leaves
        # (|00><00| + |1+><1+|)/2 invariant at depth 2
        state = QState((2, 2), (dm([1, 0, 0, 0]) + dm([0, 0, 1, 1])) / 2)
        tree = tree_from_params(
            (2, 2), (0, 1),
            MeasParams(((0.0, 0.0), (0.0, 0.0), (np.pi / 4, 0.0))),
        )
        post, _ = apply_tree(state, tree, 2)
        assert_allclose(post.matrix, state.matrix, atol=1e-12)

    def test_z_root_on_ghz(self, ghz, z_tree_3q):
        post, branches = apply_tree(ghz, z_tree_3q, 1)
        expected = (dm([1, 0, 0, 0, 0, 0, 0, 0]) + dm([0, 0, 0, 0, 0, 0, 0, 1])) / 2
        assert_allclose(post.matrix, expected, atol=1e-15)
        assert_allclose([b.probability for b in branches], [0.5, 0.5], atol=1e-12)

    def test_depth_bounds(self, ghz, z_tree_3q):
        with pytest.raises(StructuralError):
            apply_tree(ghz, z_tree_3q, 0)
        with pytest.raises(StructuralError):
            apply_tree(ghz, z_tree_3q, 3)

    def test_dimension_mismatch(self, z_tree_3q):
        qubit_qutrit = QState((2, 3), np.eye(6) / 6)
        with pytest.raises(StructuralError):
            apply_tree(qubit_qutrit, z_tree_3q, 2)
        with pytest.raises(StructuralError):
            apply_tree(QState((2,), np.eye(2) / 2), z_tree_3q, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_probabilities_sum_to_one_and_trace_preserved(self, seed):
        state = random_state((2, 2, 2), 1 + seed % 8, seed)
        tree = random_tree(seed, 2)
        for depth in (1, 2):
            post, branches = apply_tree(state, tree, depth)
            assert abs(sum(b.probability for b in branches) - 1.0) < 1e-9
            assert abs(post.matrix.trace() - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_idempotent(self, seed):
        state = random_state((2, 2, 2), 1 + seed % 8, seed)
        tree = random_tree(100 + seed, 2)
        once, _ = apply_tree(state, tree, 2)
        twice, _ = apply_tree(once, tree, 2)
        assert_allclose(twice.matrix, once.matrix, atol=1e-10)

    def test_zero_probability_branch_has_no_state(self):
        state = QState((2, 2), dm([1, 0, 0, 0]))
        tree = tree_from_params((2, 2), (0,), MeasParams(((0.0, 0.0),)))
        _, branches = apply_tree(state, tree, 1)
        assert branches[1].probability < 1e-12
        assert branches[1].post_state is None


class TestOptimalTree:
    def test_block_state_bases(self):
        state = QState((2, 2), (dm([1, 0, 0, 0]) + dm([0, 0, 1, 1])) / 2)
        tree = optimal_tree_for_measured_state(state, (0, 1))
        post, _ = apply_tree(state, tree, 2)
        assert_allclose(post.matrix, state.matrix, atol=1e-10)
        # the root is the computational basis in some outcome order, and the
        # child attached to the |1> outcome is the +/- basis
        root = {0: tree.root.projectors[0], 1: tree.root.projectors[1]}
        outcome_of_one = 0 if np.allclose(root[0], dm(KET1)) else 1
        assert_allclose(root[outcome_of_one], dm(KET1), atol=1e-9)
        assert_allclose(root[1 - outcome_of_one], dm(KET0), atol=1e-9)
        child = tree.children[(outcome_of_one,)]
        assert any(np.allclose(p, dm(PLUS), atol=1e-9) for p in child.projectors)

    def test_product_basis_state(self):
        state = QState((2, 2), dm([0, 1, 0, 0]))  # |01>
        tree = optimal_tree_for_measured_state(state, (0, 1))
        post, _ = apply_tree(state, tree, 2)
        assert_allclose(post.matrix, state.matrix, atol=1e-10)

    @pytest.mark.parametrize("seed", range(15))
    def test_rebuilds_invariance_for_measured_states(self, seed):
        depth = 1 + seed % 2
        state = random_state((2, 2, 2), 1 + seed % 8, seed)
        measured, _ = apply_tree(state, random_tree(200 + seed, 2), depth)
        tree = optimal_tree_for_measured_state(measured, tuple(range(depth)))
        post, _ = apply_tree(measured, tree, depth)
        assert np.max(np.abs(post.matrix - measured.matrix)) < 1e-10

    @pytest.mark.parametrize("matrix", [np.diag([0.75, 0.25]), np.eye(2) / 2, dm(PLUS)],
                             ids=["diagonal", "maximally-mixed", "plus"])
    def test_one_qubit_state_is_a_fixed_point(self, matrix):
        # no rest to condition on: the probe loop meets a rest of dimension 1
        state = QState((2,), matrix)
        tree = optimal_tree_for_measured_state(state, (0,))
        post, _ = apply_tree(state, tree, 1)
        assert np.max(np.abs(post.matrix - state.matrix)) < 1e-12

    def test_probes_are_made_once_and_read_only(self):
        # every conditioning basis of one rest dimension shares its probes
        first = measure._probe_matrix(4, 20_201)
        assert measure._probe_matrix(4, 20_201) is first
        assert not first.flags.writeable

    def test_degenerate_probabilities(self, ghz):
        # X-basis root measurement gives equal outcome probabilities with
        # distinct conditional states; the marginal alone cannot identify the
        # conditioning basis
        xtree = tree_from_params(
            (2, 2, 2), (0, 1),
            MeasParams(((np.pi / 4, 0.0), (0.0, 0.0), (0.0, 0.0))),
        )
        measured, _ = apply_tree(ghz, xtree, 1)
        tree = optimal_tree_for_measured_state(measured, (0,))
        post, _ = apply_tree(measured, tree, 1)
        assert np.max(np.abs(post.matrix - measured.matrix)) < 1e-10


class TestTreeStructure:
    def test_children_must_cover_paths(self):
        basis = projector_pair_from_angles(0.0, 0.0)
        with pytest.raises(StructuralError):
            MeasurementTree(measured=(0, 1), root=basis, children={(0,): basis})

    def test_qutrit_basis_rejected(self):
        qutrit = ProjectorBasis.from_vectors(np.eye(3))
        with pytest.raises(StructuralError, match="qubit pair"):
            MeasurementTree(measured=(0,), root=qutrit, children={})
        qubit = projector_pair_from_angles(0.0, 0.0)
        with pytest.raises(StructuralError, match="qubit pair"):
            MeasurementTree(measured=(0, 1), root=qubit,
                            children={(0,): qubit, (1,): qutrit})

    def test_parameter_count_scaling(self):
        for n_parties in (2, 3, 4):
            depth = n_parties - 1
            assert 2 * node_count(depth) == 2 ** n_parties - 2

    def test_bfs_paths(self):
        assert bfs_paths(2) == ((), (0,), (1,))
        assert bfs_paths(3)[3:] == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestParamsJson:
    def test_round_trip(self):
        params = MeasParams(((0.1, 0.2), (0.3, 0.4), (0.5, 0.6)))
        loaded = params_from_json(params_to_json(params))
        assert loaded == params

    def test_schema_shape(self):
        payload = json.loads(params_to_json(MeasParams(((0.1, 0.2),))))
        assert payload == {"nodes": [{"path": [], "theta": 0.1, "phi": 0.2}]}

    def test_rejects_incomplete_tree(self):
        payload = {"nodes": [
            {"path": [], "theta": 0.1, "phi": 0.2},
            {"path": [0], "theta": 0.1, "phi": 0.2},
            {"path": [0, 1], "theta": 0.1, "phi": 0.2},
        ]}
        with pytest.raises(StructuralError):
            params_from_json(json.dumps(payload))

    @pytest.mark.parametrize("payload, path", [
        ({"nodes": [{"path": [], "theta": 0.3, "phi": 0.0},
                    {"path": [], "theta": 1.0, "phi": 0.0}]}, "[]"),
        ({"nodes": [{"path": [], "theta": 0.1, "phi": 0.2},
                    {"path": [0], "theta": 0.1, "phi": 0.2},
                    {"path": [1], "theta": 0.1, "phi": 0.2},
                    {"path": [0], "theta": 0.4, "phi": 0.2}]}, "[0]"),
    ], ids=["root", "child"])
    def test_rejects_a_repeated_path(self, payload, path):
        # the paths still form a complete tree, but one node's angles
        # would silently replace another's
        message = f"node path {path} is given twice"
        with pytest.raises(StructuralError, match=re.escape(message)):
            params_from_json(json.dumps(payload))

    @pytest.mark.parametrize("payload", [
        [1],
        {},
        {"nodes": 5},
        {"nodes": [5]},
        {"nodes": [{"theta": 0.1, "phi": 0.2}]},
        {"nodes": [{"path": 5, "theta": 0.1, "phi": 0.2}]},
        {"nodes": [{"path": [[]], "theta": 0.1, "phi": 0.2}]},
        {"nodes": [{"path": [True], "theta": 0.1, "phi": 0.2}]},
        {"nodes": [{"path": [], "theta": "0.1", "phi": 0.2}]},
        {"nodes": [{"path": [], "theta": 0.1}]},
        {"nodes": [{"path": [], "theta": 0.1, "phi": None}]},
        # a 400-digit integer exceeds every float
        {"nodes": [{"path": [], "theta": 10 ** 400, "phi": 0.2}]},
        {"nodes": [{"path": [], "theta": 0.1, "phi": float("nan")}]},
        {"nodes": [{"path": [], "theta": 0.1, "phi": 0.2},
                   {"path": [0], "theta": float("-inf"), "phi": 0.2},
                   {"path": [1], "theta": 0.1, "phi": 0.2}]},
    ])
    def test_rejects_malformed_payload(self, payload):
        with pytest.raises(StructuralError):
            params_from_json(json.dumps(payload))
