import gc
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
from mdiscord.qstate import kron_product, permute_subsystems

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

    def test_states_are_read_only_and_complex(self, ghz, z_tree_3q):
        # the post state and the branch states skip the constructor, so they
        # must come out as the constructor would make them
        post, branches = apply_tree(ghz, z_tree_3q, 2)
        for state in (post, *(branch.post_state for branch in branches)):
            if state is None:
                continue
            assert state.dims == ghz.dims and state.matrix.shape == (8, 8)
            assert state.matrix.dtype == complex
            with pytest.raises(ValueError):
                state.matrix[0, 0] = 5.0

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
        first = measure._probes(4)
        assert measure._probes(4) is first
        assert not first.flags.writeable
        assert first.shape == (4, 4, 4)
        assert np.array_equal(first[0], np.eye(4) / 4)

    def test_leaves_no_reference_cycle(self):
        # the recursive walk it replaced left 17 unreachable objects per call
        state = random_state((2, 2, 2), 3, 7)
        measured, _ = apply_tree(state, random_tree(9, 2), 2)
        optimal_tree_for_measured_state(measured, (0, 1))  # first-call caches
        gc.collect()
        gc.disable()
        try:
            optimal_tree_for_measured_state(measured, (0, 1))
            assert gc.collect() == 0
        finally:
            gc.enable()

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


def _loop_conditioning_basis(state, position):
    """The conditioning basis with each probe diagonalized on its own, the
    real normalized identity first, the first strictly wider gap winning."""
    rest = [i for i in range(state.n_subsystems) if i != position]
    moved = permute_subsystems(state, [position] + rest)
    rest_dim = moved.side // 2
    sigma = moved.matrix.reshape(2, rest_dim, 2, rest_dim)
    best_vectors, best_gap = None, -1.0
    for probe in [np.eye(rest_dim) / rest_dim, *measure._probes(rest_dim)[1:]]:
        w = np.einsum("rs,asbr->ab", probe, sigma)
        w = (w + w.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(w)
        gap = float(abs(vals[1] - vals[0]))
        if gap > best_gap:
            best_gap, best_vectors = gap, vecs.T.copy()
    return best_vectors


def _recursive_rebuild(state, measured):
    """The rebuild as a recursive walk: each level sandwiches its parent's
    branch with that level's projector alone, then normalizes it."""
    bases = {}

    def descend(matrix, path):
        pos = measured[len(path)]
        prob = float(matrix.trace().real)
        if prob < measure.PROB_EPS:
            basis = projector_pair_from_angles(0.0, 0.0)
        else:
            conditional = QState(state.dims, matrix / prob)
            basis = ProjectorBasis.from_vectors(_loop_conditioning_basis(conditional, pos))
        bases[path] = basis
        if len(path) + 1 < len(measured):
            for j, proj in enumerate(basis.projectors):
                embedded = kron_product([proj if q == pos else np.eye(d)
                                         for q, d in enumerate(state.dims)])
                descend(embedded @ matrix @ embedded, path + (j,))

    descend(np.array(state.matrix), ())
    return bases


def _measured_state(dims, depth, seed, rank=None):
    rng = np.random.default_rng(seed)
    rank = rank or int(rng.integers(1, int(np.prod(dims)) + 1))
    state = random_state(dims, rank, int(rng.integers(0, 2 ** 31)))
    tree = random_tree(int(rng.integers(0, 2 ** 31)), depth, dims)
    return apply_tree(state, tree, depth)[0]


class TestRebuildBits:
    """The level-by-level rebuild through apply_tree gives the recursive
    walk's bases byte for byte up to depth 2; at depth 3 apply_tree's product
    projector moves their last bits, so only invariance is asserted there."""

    @staticmethod
    def assert_same_bytes(state, measured):
        tree = optimal_tree_for_measured_state(state, measured)
        reference = _recursive_rebuild(state, measured)
        assert set(reference) == set(bfs_paths(len(measured)))
        for path, basis in reference.items():
            for got, want in zip(tree.basis_at(path).projectors, basis.projectors):
                assert got.tobytes() == want.tobytes(), path
        return tree

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_three_qubits(self, depth, seed):
        self.assert_same_bytes(_measured_state((2, 2, 2), depth, seed), tuple(range(depth)))

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_two_qubits(self, depth, seed):
        self.assert_same_bytes(_measured_state((2, 2), depth, 50 + seed), tuple(range(depth)))

    @pytest.mark.parametrize("seed", range(4))
    def test_qutrit_tail(self, seed):
        self.assert_same_bytes(_measured_state((2, 2, 3), 2, 80 + seed), (0, 1))

    @pytest.mark.parametrize("seed", range(3))
    def test_one_qubit(self, seed):
        state = random_state((2,), 1 + seed % 2, 90 + seed)
        self.assert_same_bytes(state, (0,))

    def test_zero_probability_branch(self):
        # |0><0| on the first qubit: the rebuilt root is the computational
        # basis, one of its branches is empty and gets the default child
        rest = random_state((2, 2), 2, 11)
        state = QState((2, 2, 2), kron_product([np.diag([1.0, 0.0]), rest.matrix]))
        tree = self.assert_same_bytes(state, (0, 1))
        _, branches = apply_tree(state, tree, 1)
        (empty,) = [branch for branch in branches if branch.post_state is None]
        default = projector_pair_from_angles(0.0, 0.0)
        for got, want in zip(tree.children[empty.path].projectors, default.projectors):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_depth_three_is_invariant(self, seed):
        state = _measured_state((2, 2, 2, 2), 3, 120 + seed)
        tree = optimal_tree_for_measured_state(state, (0, 1, 2))
        post, _ = apply_tree(state, tree, 3)
        assert np.max(np.abs(post.matrix - state.matrix)) < 1e-10


def _per_path_apply_tree(state, tree, depth):
    """apply_tree as a loop over outcome paths: each path's embedded
    projector on its own, one sandwich per path, a running post state."""
    post = np.zeros_like(state.matrix)
    branches = []
    for path in measure._paths_at_depth(depth):
        position_of = {pos: i for i, pos in enumerate(tree.measured[:depth])}
        proj = kron_product([
            np.eye(dim) if pos not in position_of
            else tree.basis_at(path[:position_of[pos]]).projectors[path[position_of[pos]]]
            for pos, dim in enumerate(state.dims)])
        piece = proj @ state.matrix @ proj
        prob = float(piece.trace().real)
        post = post + piece
        branches.append((path, prob, piece / prob if prob >= measure.PROB_EPS else None))
    return post, branches


class TestStackedApplyTreeBits:
    """The stacked walk gives the per-path loop's post state, probabilities
    and branch states byte for byte."""

    @staticmethod
    def assert_same_bytes(state, tree, depth):
        post, branches = apply_tree(state, tree, depth)
        want_post, want_branches = _per_path_apply_tree(state, tree, depth)
        assert post.matrix.tobytes() == want_post.tobytes()
        assert len(branches) == len(want_branches)
        for branch, (path, prob, matrix) in zip(branches, want_branches):
            assert branch.path == path
            assert type(branch.probability) is float
            assert branch.probability.hex() == prob.hex()
            if matrix is None:
                assert branch.post_state is None
            else:
                assert branch.post_state.matrix.tobytes() == matrix.tobytes()
        return branches

    @pytest.mark.parametrize("n, depth", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                                          (4, 1), (4, 2), (4, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_qubits(self, n, depth, seed):
        state = random_state((2,) * n, 1 + seed, 300 + 10 * n + seed)
        tree = random_tree(400 + 10 * n + seed, depth, (2,) * n)
        for measured_depth in range(1, depth + 1):
            self.assert_same_bytes(state, tree, measured_depth)

    @pytest.mark.parametrize("seed", range(3))
    def test_permuted_measured_order(self, seed):
        tree = random_tree(500 + seed, 2)
        tree = MeasurementTree((2, 0), tree.root, tree.children)
        state = random_state((2, 2, 2), 2 + seed, 510 + seed)
        for depth in (1, 2):
            self.assert_same_bytes(state, tree, depth)

    @pytest.mark.parametrize("seed", range(3))
    def test_qutrit_tail(self, seed):
        state = random_state((2, 2, 3), 3 + seed, 520 + seed)
        tree = random_tree(530 + seed, 2, (2, 2, 3))
        for depth in (1, 2):
            self.assert_same_bytes(state, tree, depth)

    def test_zero_probability_branch(self):
        rest = random_state((2, 2), 2, 11)
        state = QState((2, 2, 2), kron_product([np.diag([1.0, 0.0]), rest.matrix]))
        tree = tree_from_params((2, 2, 2), (0, 1), MeasParams(((0.0, 0.0),) * 3))
        for depth in (1, 2):
            branches = self.assert_same_bytes(state, tree, depth)
            assert any(branch.post_state is None for branch in branches)


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

    # (1.7,) was taken as (1,), (-1,) measured the last subsystem, and a
    # (0, 0) tree's branch probabilities summed to 2
    @pytest.mark.parametrize("measured, message", [
        ((1.7,), r"measured\[0\] must be an integer"),
        ((0, True), r"measured\[1\] must be an integer"),
        ((-1,), "negative measured position"),
        ((0, 0), "repeated"),
    ], ids=["float", "bool", "negative", "repeated"])
    def test_refuses_a_position_that_is_not_a_new_non_negative_integer(self, measured, message):
        basis = projector_pair_from_angles(0.3, 0.1)
        children = {path: basis for path in bfs_paths(len(measured))[1:]}
        with pytest.raises(ValueError, match=message):
            MeasurementTree(measured, basis, children)

    def test_keeps_the_given_order_of_numpy_integers(self):
        basis = projector_pair_from_angles(0.3, 0.1)
        tree = MeasurementTree((np.int64(2), np.int32(0)), basis, {(0,): basis, (1,): basis})
        assert tree.measured == (2, 0)
        assert all(type(pos) is int for pos in tree.measured)

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
