import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mdiscord import (
    QState,
    StructuralError,
    SubsetSpec,
    entropy,
    eig_hermitian,
    partial_trace,
    permute_subsystems,
    random_state,
    subsystem_entropy,
    tensor,
    validate,
)
from mdiscord.qstate import from_json, to_json

from conftest import KET0, KET1, PLUS, dm


def binary_entropy(p):
    # independent scalar route used as the oracle for entropy values
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestConstruction:
    def test_structural_checks(self):
        with pytest.raises(StructuralError):
            QState((2,), np.eye(3) / 3)
        with pytest.raises(StructuralError):
            QState((2, 3), np.eye(4) / 4)
        with pytest.raises(StructuralError):
            QState((1, 2), np.eye(2) / 2)

    def test_matrix_is_read_only(self):
        state = QState((2,), np.eye(2) / 2)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 5.0

    def test_subset_spec(self):
        assert SubsetSpec((0, 2)).indices == (0, 2)
        with pytest.raises(StructuralError):
            SubsetSpec(())
        with pytest.raises(StructuralError):
            SubsetSpec((1, 1))
        with pytest.raises(StructuralError):
            SubsetSpec((2, 0))


class TestValidate:
    def test_pure_projector_passes(self):
        assert validate(QState((2,), dm(KET0))).ok

    def test_maximally_mixed_passes(self):
        assert validate(QState((2,), np.eye(2) / 2)).ok

    def test_trace_deficit_is_reported(self):
        report = validate(QState((2,), 0.9 * dm(KET0)))
        assert not report.ok
        assert not report.trace_ok
        assert_allclose(report.trace_deviation, 0.1, atol=1e-12)

    def test_non_hermitian_is_reported(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        report = validate(QState((2,), m))
        assert not report.hermitian_ok

    def test_negative_eigenvalue_is_reported(self):
        report = validate(QState((2,), np.diag([1.1, -0.1])))
        assert not report.psd_ok
        assert report.min_eigenvalue < -1e-10


class TestTensor:
    def test_computational_kets(self):
        out = tensor(QState((2,), dm(KET0)), QState((2,), dm(KET1)))
        assert out.dims == (2, 2)
        assert_allclose(out.matrix, dm([0, 1, 0, 0]), atol=1e-15)

    def test_maximally_mixed(self):
        half = QState((2,), np.eye(2) / 2)
        assert_allclose(tensor(half, half).matrix, np.eye(4) / 4, atol=1e-15)

    def test_bell_with_extra_qubit(self):
        bell = QState((2, 2), dm([1, 0, 0, 1]))
        out = tensor(bell, QState((2,), dm(KET0)))
        expected = dm([1, 0, 0, 0, 0, 0, 1, 0])  # (|000> + |110>)/sqrt(2)
        assert out.dims == (2, 2, 2)
        assert_allclose(out.matrix, expected, atol=1e-15)


class TestPartialTrace:
    def test_product_ket(self):
        state = tensor(QState((2,), dm(KET0)), QState((2,), dm(KET1)))
        assert_allclose(partial_trace(state, [0]).matrix, dm(KET0), atol=1e-15)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = QState((2, 2), dm([1, 0, 0, 1]))
        assert_allclose(partial_trace(bell, [0]).matrix, np.eye(2) / 2, atol=1e-15)

    def test_ghz_pair_marginal(self, ghz):
        # oracle: explicit 8x8 -> 4x4 sum over the traced index
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                for k in range(2):
                    expected[i, j] += ghz.matrix[2 * i + k, 2 * j + k]
        reduced = partial_trace(ghz, [0, 1])
        assert_allclose(reduced.matrix, expected, atol=1e-15)
        assert_allclose(expected, (dm([1, 0, 0, 0]) + dm([0, 0, 0, 1])) / 2, atol=1e-15)

    def test_keep_must_be_valid(self, ghz):
        with pytest.raises(StructuralError):
            partial_trace(ghz, [])
        with pytest.raises(StructuralError):
            partial_trace(ghz, [3])

    @pytest.mark.parametrize("seed", range(8))
    def test_preserves_trace_and_psd(self, seed):
        state = random_state((2, 2, 2), 1 + seed % 8, seed)
        reduced = partial_trace(state, [0, 2])
        assert abs(reduced.matrix.trace() - 1.0) < 1e-12
        assert np.linalg.eigvalsh(reduced.matrix).min() > -1e-9


class TestEigHermitian:
    def test_maximally_mixed(self):
        assert_allclose(eig_hermitian(QState((2,), np.eye(2) / 2)), [0.5, 0.5])

    def test_plus_projector(self):
        vals = eig_hermitian(QState((2,), dm(PLUS)))
        assert_allclose(vals, [1.0, 0.0], atol=1e-12)

    def test_diagonal_state(self):
        vals = eig_hermitian(QState((2,), np.diag([0.75, 0.25])))
        assert_allclose(vals, [0.75, 0.25])

    def test_descending_with_orthonormal_vectors(self):
        state = random_state((2, 2), 4, 11)
        vals, vecs = eig_hermitian(state, return_vectors=True)
        assert np.all(np.diff(vals) <= 1e-15)
        assert_allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-9)
        assert_allclose(state.matrix @ vecs, vecs @ np.diag(vals), atol=1e-9)

    def test_non_hermitian_rejected(self):
        with pytest.raises(StructuralError):
            eig_hermitian(QState((2,), np.array([[0.5, 1.0], [0.0, 0.5]])))

    def test_degenerate_order_is_deterministic(self):
        state = QState((2, 2), np.eye(4) / 4)
        _, first = eig_hermitian(state, return_vectors=True)
        _, second = eig_hermitian(state, return_vectors=True)
        assert np.array_equal(first, second)


class TestEntropy:
    def test_pure_state(self):
        assert entropy(QState((2,), dm(KET0))) == 0.0

    def test_maximally_mixed(self):
        assert_allclose(entropy(QState((2,), np.eye(2) / 2)), 1.0)

    def test_binary_mixture(self):
        assert_allclose(
            entropy(QState((2,), np.diag([0.75, 0.25]))),
            binary_entropy(0.25),
            atol=1e-12,
        )

    def test_range(self):
        for seed in range(6):
            state = random_state((2, 2), 1 + seed % 4, seed)
            s = entropy(state)
            assert -1e-12 <= s <= 2.0 + 1e-12


class TestSubsystemEntropy:
    def test_bell_marginal(self, bell):
        assert_allclose(subsystem_entropy(bell, [0]), 1.0, atol=1e-12)

    def test_ghz_pair(self, ghz):
        # entropy of (|00><00| + |11><11|)/2
        assert_allclose(subsystem_entropy(ghz, [0, 1]), binary_entropy(0.5), atol=1e-12)

    def test_pure_state_total(self, ghz):
        assert_allclose(subsystem_entropy(ghz, [0, 1, 2]), 0.0, atol=1e-12)


class TestRandomState:
    def test_pure_qubit(self):
        state = random_state((2,), 1, 7)
        assert validate(state).ok
        assert_allclose(entropy(state), 0.0, atol=1e-9)

    def test_full_rank_three_qubits(self):
        state = random_state((2, 2, 2), 8, 1)
        assert validate(state).ok
        assert np.linalg.matrix_rank(state.matrix) == 8

    def test_deterministic(self):
        a = random_state((2, 2), 3, 42)
        b = random_state((2, 2), 3, 42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            random_state((2,), 0, 0)
        with pytest.raises(ValueError):
            random_state((2,), 3, 0)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_entropy_additive_under_tensor(self, seed_a, seed_b):
        a = random_state((2,), 1 + seed_a % 2, seed_a)
        b = random_state((2, 2), 1 + seed_b % 4, seed_b)
        assert_allclose(
            entropy(tensor(a, b)), entropy(a) + entropy(b), atol=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.permutations([0, 1, 2]))
    def test_entropy_invariant_under_relabeling(self, seed, order):
        state = random_state((2, 2, 2), 1 + seed % 8, seed)
        assert_allclose(
            entropy(permute_subsystems(state, order)), entropy(state), atol=1e-9
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_eigenvalues_form_a_distribution(self, seed):
        state = random_state((2, 2, 2), 1 + seed % 8, seed)
        vals = eig_hermitian(state)
        assert vals.min() > -1e-10
        assert vals.max() < 1.0 + 1e-10
        assert abs(vals.sum() - 1.0) < 1e-9

    def test_permutation_round_trip(self):
        state = random_state((2, 2, 2), 5, 3)
        back = permute_subsystems(permute_subsystems(state, [2, 0, 1]), [1, 2, 0])
        assert_allclose(back.matrix, state.matrix, atol=1e-15)


class TestJson:
    def test_round_trip(self):
        state = random_state((2, 2), 3, 5)
        loaded = from_json(to_json(state))
        assert loaded.dims == state.dims
        assert_allclose(loaded.matrix, state.matrix, atol=1e-15)

    def test_reader_rejects_invalid(self):
        payload = json.loads(to_json(QState((2,), np.eye(2) / 2)))
        payload["matrix"][0][0] = [0.9, 0.0]  # break the trace
        with pytest.raises(ValueError):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize("payload", [
        [],
        {"dims": [2]},
        {"dims": 5, "matrix": []},
        {"dims": [2.0], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
        {"dims": [True, 2], "matrix": []},
        {"dims": [2, 2], "matrix": 5},
        {"dims": [2, 2], "matrix": [5]},
        {"dims": [2, 2], "matrix": [[1, 2]]},
        {"dims": [2], "matrix": [[[0.5, 0], ["0", 0]], [[0, 0], [0.5, 0]]]},
        {"dims": [2], "matrix": [[[0.5, 0], [0, 0, 0]], [[0, 0], [0.5, 0]]]},
        # JSON NaN and Infinity, and an integer beyond every float, are
        # refused before numpy sees them: validation would warn on the first
        # two, and the third would not convert
        {"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[float("nan"), 0], [0.5, 0]]]},
        {"dims": [2], "matrix": [[[float("inf"), 0], [0, 0]], [[0, 0], [0.5, 0]]]},
        {"dims": [2], "matrix": [[[0.5, 0], [0, 10 ** 400]], [[0, 0], [0.5, 0]]]},
    ])
    @pytest.mark.filterwarnings("error")
    def test_reader_rejects_malformed_payload(self, payload):
        with pytest.raises(StructuralError):
            from_json(json.dumps(payload))
