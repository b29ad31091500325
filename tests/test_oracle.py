import ast
import gc
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mdiscord import (
    MeasParams,
    MeasurementTree,
    oracle,
    apply_tree,
    dense_grid_min,
    identity_suite,
    invariance_residual,
    projector_pair_from_angles,
    random_state,
    reference_objective,
    tree_from_params,
    verification_suite,
)
from mdiscord.discord import _MeasuredEntropyObjective
from mdiscord.states import bell_state, ghz_state, product_state

from conftest import random_qubits, random_tree


class TestReferenceObjective:
    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_production_objective(self, seed):
        state = random_qubits(seed, 3, 1 + seed % 8)
        rng = np.random.default_rng(2000 + seed)
        flat = np.stack(
            [rng.uniform(0, np.pi / 2, 3), rng.uniform(0, 2 * np.pi, 3)], 1
        ).ravel()
        tree = tree_from_params((2, 2, 2), (0, 1), MeasParams.from_flat(flat))
        assert_allclose(
            reference_objective(state, tree),
            _MeasuredEntropyObjective(state, 3)(flat),
            atol=1e-10,
        )

    def test_product_state_vanishes_on_grid_trees(self):
        state = product_state()
        thetas = np.linspace(0, np.pi / 2, 4)
        phis = np.linspace(0, 2 * np.pi, 4, endpoint=False)
        for ti in (0, 2, 3):
            for pi_ in (0, 1):
                flat = np.array([thetas[ti], phis[pi_], thetas[3 - ti], phis[pi_],
                                 thetas[ti], phis[(pi_ + 2) % 4]])
                tree = tree_from_params((2, 2, 2), (0, 1), MeasParams.from_flat(flat))
                assert abs(reference_objective(state, tree)) < 1e-12

    # level 5 and level 1 returned partial sums (1.1113 and -0.4126), and
    # True and 2.9 were taken as 1 and 2
    @pytest.mark.parametrize("level, message", [
        (1, r"level must lie in \[2, 3\], got 1$"),
        (5, r"level must lie in \[2, 3\], got 5$"),
        (True, "level must be an integer"),
        (2.9, "level must be an integer"),
    ], ids=["1", "5", "True", "2.9"])
    def test_refuses_a_level_outside_two_to_n(self, level, message):
        with pytest.raises(ValueError, match=message):
            reference_objective(random_state((2, 2, 2), 3, 1), random_tree(5, 2), level)

    # each ended in numpy's matmul ValueError on a core dimension mismatch
    @pytest.mark.parametrize("dims, level, position", [((3, 2, 2), None, 0), ((2, 3, 2), 3, 1)])
    def test_refuses_a_measured_subsystem_that_is_not_a_qubit(self, dims, level, position):
        with pytest.raises(ValueError, match=f"measured subsystem {position} is not a qubit"):
            reference_objective(random_state(dims, 3, 1), random_tree(5, 2), level)

    # a depth-1 tree at level 3 gave 0.4500, the first level's terms alone
    @pytest.mark.parametrize("measured, level, stacked", [
        ((0,), 3, False),
        ((1, 0), 2, False),
        ((0, 2), 3, False),
        ((0,), 3, True),
    ], ids=["depth-1-at-level-3", "first-1", "second-2", "one-tree-of-a-stack"])
    def test_refuses_a_tree_that_skips_a_leading_subsystem(self, measured, level, stacked):
        state = random_state((2, 2, 2), 3, 1)
        basis = projector_pair_from_angles(0.3, 0.1)
        tree = MeasurementTree(measured, basis,
                               {(j,): basis for j in (0, 1)} if len(measured) == 2 else {})
        with pytest.raises(ValueError, match="must measure"):
            if stacked:
                reference_objective([state, state], [random_tree(5, 2), tree], level)
            else:
                reference_objective(state, tree, level)

    def test_accepts_numpy_integers(self):
        state, tree = random_state((2, 2, 2), 3, 1), random_tree(5, 2)
        for level in (2, 3):
            assert (reference_objective(state, tree, np.int64(level)).hex()
                    == reference_objective(state, tree, level).hex())


def _grid_trees(dims, level, points):
    """Every tree whose node angles all lie on the product grid."""
    thetas = np.linspace(0, np.pi / 2, points)
    phis = np.linspace(0, 2 * np.pi, points, endpoint=False)
    cells = list(itertools.product(thetas, phis))
    measured = tuple(range(level - 1))
    for angles in itertools.product(cells, repeat=2 ** (level - 1) - 1):
        yield tree_from_params(dims, measured, MeasParams(angles))


class TestDenseGridMin:
    @pytest.mark.parametrize("dims, level, points, rank", [
        ((2, 2), 2, 6, 3),
        ((2, 2, 2), 2, 6, 5),   # a two-qubit unmeasured tail
        ((2, 2, 2), 3, 3, 1),
        ((2, 2, 2), 3, 3, 4),
        ((2, 2, 2), 3, 3, 8),
        ((2, 2, 3), 3, 3, 5),
    ])
    def test_equals_the_minimum_over_every_grid_tree(self, dims, level, points, rank):
        # brute force: the raw-definition integrand of every grid tree
        state = random_state(dims, rank, 500 + rank)
        brute = min(reference_objective(state, tree, level)
                    for tree in _grid_trees(dims, level, points))
        assert abs(dense_grid_min(state, level, points) - brute) < 1e-12

    def test_bell_at_fifty_points(self):
        value = dense_grid_min(bell_state(), level=2, points_per_angle=50)
        assert_allclose(value, 1.0, atol=2e-3)

    def test_measured_state_on_grid(self):
        # the generating angles sit on the 8-point grid, so zero is attained
        thetas = np.linspace(0, np.pi / 2, 8)
        phis = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        flat = np.array([thetas[2], phis[3], thetas[5], phis[1], thetas[1], phis[6]])
        tree = tree_from_params((2, 2, 2), (0, 1), MeasParams.from_flat(flat))
        measured, _ = apply_tree(random_qubits(7, 3, 5), tree, 2)
        assert dense_grid_min(measured, level=3, points_per_angle=8) < 1e-6

    def test_product_state_is_zero_everywhere(self):
        value = dense_grid_min(product_state(), level=3, points_per_angle=4)
        assert abs(value) < 1e-12

    def test_ghz_at_modest_density(self):
        value = dense_grid_min(ghz_state(), level=3, points_per_angle=6)
        assert_allclose(value, 1.0, atol=1e-9)

    # True and 1 valued a one-point grid, and 2.5 ended in a TypeError from
    # linspace
    @pytest.mark.parametrize("points", [True, 2.5, np.float64(3.0)],
                             ids=["True", "2.5", "float64-3.0"])
    def test_refuses_a_grid_that_is_not_an_integer(self, points):
        with pytest.raises(ValueError, match="points_per_angle must be an integer"):
            dense_grid_min(random_state((2, 2, 2), 3, 1), 3, points)

    @pytest.mark.parametrize("points", [1, 0])
    def test_refuses_fewer_than_two_points(self, points):
        with pytest.raises(ValueError, match="points_per_angle must be >= 2"):
            dense_grid_min(random_state((2, 2, 2), 3, 1), 3, points)

    # level 2.9 gave the level-2 value and level 1 ended in an IndexError
    @pytest.mark.parametrize("level, message", [
        (1, r"level must lie in \[2, 3\], got 1$"),
        (4, r"level must lie in \[2, 3\], got 4$"),
        (True, "level must be an integer"),
        (2.9, "level must be an integer"),
    ], ids=["1", "4", "True", "2.9"])
    def test_refuses_a_level_outside_two_to_n(self, level, message):
        with pytest.raises(ValueError, match=message):
            dense_grid_min(random_state((2, 2, 2), 3, 1), level, 4)

    # each ended in numpy's matmul ValueError on a core dimension mismatch;
    # a qutrit that is never measured stays valid
    @pytest.mark.parametrize("dims, level, position", [((3, 2, 2), None, 0), ((2, 3, 2), 3, 1)])
    def test_refuses_a_measured_subsystem_that_is_not_a_qubit(self, dims, level, position):
        state = random_state(dims, 3, 1)
        with pytest.raises(ValueError, match=f"measured subsystem {position} is not a qubit"):
            dense_grid_min(state, level, 3)
        if position == 1:
            assert dense_grid_min(state, 2, 3) >= -1e-12

    def test_accepts_numpy_integers(self):
        state = random_state((2, 2, 2), 3, 1)
        assert dense_grid_min(state, 3, np.int64(4)).hex() == dense_grid_min(state, 3, 4).hex()
        assert dense_grid_min(state, np.int32(2), 4).hex() == dense_grid_min(state, 2, 4).hex()

    def test_leaves_no_reference_cycle(self):
        # a recursive closure that referred to itself left 8 unreachable
        # objects per call
        state = random_state((2, 2, 2), 3, 1)
        dense_grid_min(state, 3, 3)  # first-call caches
        gc.collect()
        gc.disable()
        try:
            dense_grid_min(state, 3, 3)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestInvarianceResidual:
    def test_measured_state_with_generating_tree(self):
        tree = random_tree(90, 2)
        measured, _ = apply_tree(random_qubits(4, 3, 6), tree, 2)
        assert invariance_residual(measured, tree) < 1e-12

    def test_bell_z_coherences(self, bell, z_tree_2q):
        # the Bell off-diagonal entries of magnitude 1/2 are destroyed
        two_level = tree_from_params((2, 2), (0, 1), MeasParams(((0.0, 0.0),) * 3))
        assert_allclose(invariance_residual(bell, two_level), 0.5, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_non_negative(self, seed):
        state = random_qubits(seed, 3, 1 + seed % 8)
        assert invariance_residual(state, random_tree(seed, 2)) >= 0.0


class TestIdentitySuite:
    def test_all_identities_pass(self):
        reports = identity_suite(seed=0, samples=40)
        assert len(reports) == 6
        for report in reports:
            assert report.passed, report
            assert report.samples == 40
            assert report.max_violation < 1e-9

    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("suite", [identity_suite, verification_suite])
    def test_refuses_fewer_than_one_sample(self, suite, samples):
        # with no sample every check's worst violation was missing: KeyError
        with pytest.raises(ValueError, match=f"samples must be a positive integer, got {samples}$"):
            suite(seed=0, samples=samples)

    # True ran one sample whose reports carried samples=True, and 2.5 ended
    # in a TypeError from range
    @pytest.mark.parametrize("samples", [True, 2.5, np.float64(3.0)],
                             ids=["True", "2.5", "float64-3.0"])
    @pytest.mark.parametrize("suite", [identity_suite, verification_suite])
    def test_refuses_a_value_that_is_not_an_integer(self, suite, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            suite(seed=0, samples=samples)

    @pytest.mark.parametrize("suite", [identity_suite, verification_suite])
    def test_accepts_numpy_integers(self, suite):
        reports = suite(seed=0, samples=np.int64(3))
        assert _report_bits(reports) == _report_bits(suite(seed=0, samples=3))
        assert all(type(report.samples) is int for report in reports)

    def test_deterministic(self):
        first = identity_suite(seed=3, samples=10)
        second = identity_suite(seed=3, samples=10)
        assert first == second


class TestVerificationSuite:
    def test_everything_passes(self):
        reports = verification_suite(seed=0, samples=25)
        names = [report.name for report in reports]
        assert names == sorted(names)
        assert {"eigenbasis_tree_invariance", "objective_non_negativity",
                "cross_implementation_objective"} < set(names)
        for report in reports:
            assert report.passed, report

    def test_leaves_no_reference_cycle(self):
        # the invariance check's rebuilt trees left 45 unreachable objects
        # per suite of three samples
        verification_suite(seed=0, samples=3)  # first-call imports and caches
        gc.collect()
        gc.disable()
        try:
            verification_suite(seed=0, samples=3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_values_each_entropy_once(self, monkeypatch):
        # per sample: all 7 subsets of rho and of rho1, 4 of rho2 and 10
        # branch entropies; valuing each subset at each use took 60 per
        # sample and 342 per suite.  Each check values its samples as one
        # stack, so one call values every sample's matrix of one subset.
        matrices = []
        real_entropies = oracle._entropies

        def counting(stack):
            matrices.append(int(np.prod(stack.shape[:-2])))
            return real_entropies(stack)

        monkeypatch.setattr(oracle, "_entropies", counting)
        identity_suite(seed=0, samples=1)
        assert sum(matrices) == 28
        matrices.clear()
        verification_suite(seed=0, samples=3)
        assert sum(matrices) == 225
        # 22 stacks for the identities, 35 for the non-negativity checks and
        # 4 for the cross-implementation references: 61, not one per matrix
        assert len(matrices) == 61

    def test_eigvalsh_calls_fall_with_stacking(self, monkeypatch):
        # 231 calls per suite when every matrix was valued on its own; the
        # evaluator's own calls in the cross-implementation check remain
        calls = []
        real_eigvalsh = np.linalg.eigvalsh

        def counting(matrices, *args, **kwargs):
            calls.append(matrices.shape)
            return real_eigvalsh(matrices, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        verification_suite(seed=0, samples=3)
        assert len(calls) == 67
        calls.clear()
        verification_suite(seed=0, samples=6)
        assert len(calls) == 61 + 2 * 6


def _report_bits(reports):
    return [(r.name, r.samples, r.max_violation.hex(), r.tolerance) for r in reports]


class TestBlocks:
    @pytest.mark.parametrize("seed, samples", [(0, 1), (1, 2), (2, 5), (3, 8), (4, 11)])
    def test_two_sample_blocks_give_the_default_reports(self, monkeypatch, seed, samples):
        # the draws follow the rng's order and the worst violation is exact,
        # so the block size moves no bit of any report
        default = verification_suite(seed=seed, samples=samples)
        monkeypatch.setattr(oracle, "_VERIFY_BLOCK", 2)
        assert _report_bits(verification_suite(seed=seed, samples=samples)) == \
            _report_bits(default)

    def test_peak_memory_does_not_grow_with_the_blocks(self, monkeypatch):
        # holding every sample at once, 128 samples peaked at 3.6 times the
        # peak of 32; a block's worth of samples is all a check holds
        monkeypatch.setattr(oracle, "_VERIFY_BLOCK", 16)

        def peak(samples):
            gc.collect()
            tracemalloc.start()
            try:
                verification_suite(seed=0, samples=samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(32)  # first-call imports and caches
        two_blocks, eight_blocks = peak(32), peak(128)
        assert eight_blocks < 1.5 * two_blocks

    def test_a_nan_violation_fails_its_check_in_any_block(self, monkeypatch):
        real = oracle._identity_violations

        def nan_at_sample_two(rng, indices):
            violations = real(rng, indices)
            violations["probability_normalization"][np.array(indices) == 2] = np.nan
            return violations

        monkeypatch.setattr(oracle, "_VERIFY_BLOCK", 2)
        monkeypatch.setattr(oracle, "_identity_violations", nan_at_sample_two)
        reports = {report.name: report for report in identity_suite(seed=0, samples=5)}
        assert math.isnan(reports["probability_normalization"].max_violation)
        assert not reports["probability_normalization"].passed
        assert reports["conditional_discord_decomposition"].passed


def _loop_entropy(matrix):
    """Entropy in bits of one matrix, its eigenvalues added one at a time."""
    total = 0.0
    for value in np.linalg.eigvalsh(matrix):
        if value > 1e-12:
            total -= value * np.log2(value)
    return total


def _loop_weighted_entropy(branch):
    p = float(branch.trace().real)
    return 0.0 if p < 1e-12 else p * _loop_entropy(branch / p)


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestStackedHelpers:
    @pytest.mark.parametrize("side", [2, 3, 4, 8])
    @pytest.mark.parametrize("samples", [1, 2, 7])
    def test_stack_equals_each_matrix_on_its_own(self, side, samples):
        rng = np.random.default_rng(side * 100 + samples)
        stack = np.array([random_state((side,), int(rng.integers(1, side + 1)),
                                       int(rng.integers(0, 2 ** 31))).matrix
                          for _ in range(samples)])
        weights = rng.uniform(0.0, 1.0, samples)
        weights[0] = 0.0  # a branch of zero probability gives 0
        branches = stack * weights[:, None, None]
        entropies = oracle._entropies(stack)
        weighted = oracle._weighted_entropies(branches)
        for i in range(samples):
            assert _same_bits(entropies[i], _loop_entropy(stack[i]))
            assert _same_bits(oracle._entropies(stack[i]), _loop_entropy(stack[i]))
            assert _same_bits(weighted[i], _loop_weighted_entropy(branches[i]))
        # a second leading axis changes nothing
        assert np.array_equal(oracle._entropies(stack[None]), entropies[None])
        assert np.array_equal(oracle._weighted_entropies(branches[:, None]),
                              weighted[:, None])

    @pytest.mark.parametrize("level", [2, 3])
    def test_reference_objective_stack_equals_single_calls(self, level):
        states = [random_qubits(seed, 3, 1 + seed % 8) for seed in range(5)]
        trees = [random_tree(100 + seed, 2) for seed in range(5)]
        values = reference_objective(states, trees, level)
        for state, tree, value in zip(states, trees, values):
            assert _same_bits(value, reference_objective(state, tree, level))
        (one,) = reference_objective(states[:1], trees[:1], level)
        assert _same_bits(one, values[0])
        assert isinstance(reference_objective(states[0], trees[0], level), float)


def _per_path_branch_walk(matrices, dims, trees, depth):
    """The branch walk as a loop over each level's paths and outcomes, one
    embedded projector stack and one sandwich per branch."""
    levels = []
    branches = [((), matrices)]
    for position in trees[0].measured[:depth]:
        measured = []
        for path, sigma in branches:
            for outcome in (0, 1):
                proj = oracle._embed(dims, position, np.array(
                    [tree.basis_at(path).projectors[outcome] for tree in trees]))
                measured.append((path + (outcome,), proj @ sigma @ proj))
        branches = measured
        levels.append(np.array([sigma for _, sigma in branches]))
    return levels


class TestStackedBranchWalkBits:
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("samples", [1, 7])
    def test_levels_equal_the_per_path_walk(self, samples, depth):
        rho = np.array([random_qubits(600 + i, 3, 1 + i % 8).matrix for i in range(samples)])
        trees = [random_tree(700 + i, 2) for i in range(samples)]
        levels = oracle._branch_walk(rho, (2, 2, 2), trees, depth)
        reference = _per_path_branch_walk(rho, (2, 2, 2), trees, depth)
        assert len(levels) == len(reference) == depth
        for k, (got, want) in enumerate(zip(levels, reference), start=1):
            assert got.shape == want.shape == (2 ** k, samples, 8, 8)
            assert got.tobytes() == want.tobytes()


def _imported_names(node):
    """Every dotted-name part a node's import statements mention."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            modules = [alias.name for alias in sub.names]
        elif isinstance(sub, ast.ImportFrom):
            modules = [sub.module or ""]
            modules += [f"{sub.module or ''}.{alias.name}" for alias in sub.names]
        else:
            continue
        for module in modules:
            yield from module.split(".")


def test_oracle_stays_independent_of_the_production_path():
    # the raw-definition path never reaches entropy_flux, and reaches the
    # batched evaluator only where it is compared against it
    module = ast.parse(Path(oracle.__file__).read_text())
    for node in module.body:
        names = set(_imported_names(node))
        assert "entropy_flux" not in names
        if getattr(node, "name", None) == "_cross_implementation_check":
            assert "discord" in names
        else:
            assert "discord" not in names, getattr(node, "name", ast.dump(node))
