import numpy as np
import pytest
from numpy.testing import assert_allclose

from mdiscord import QState, entropy, subsystem_entropy, validate
from mdiscord.states import (
    FAMILIES,
    MU_FAMILIES,
    bell_mixture,
    bell_state,
    build,
    cc_example_state,
    classical_quantum_mix,
    ghz_state,
    product_state,
    w_state,
    werner_ghz,
    werner_w,
)

from conftest import dm


class TestFixedStates:
    def test_ghz(self):
        state = ghz_state()
        assert state.dims == (2, 2, 2)
        assert_allclose(state.matrix, dm([1, 0, 0, 0, 0, 0, 0, 1]), atol=1e-15)

    def test_w_state_has_three_distinct_terms(self):
        state = w_state()
        expected = dm([0, 1, 1, 0, 1, 0, 0, 0])
        assert_allclose(state.matrix, expected, atol=1e-15)
        assert_allclose(entropy(state), 0.0, atol=1e-12)

    def test_bell(self):
        assert_allclose(bell_state().matrix, dm([1, 0, 0, 1]), atol=1e-15)

    def test_cc_example(self):
        state = cc_example_state()
        assert state.dims == (2, 2, 2)
        # third qubit pure |0>, first two classically correlated
        assert_allclose(subsystem_entropy(state, [2]), 0.0, atol=1e-12)
        pair = np.zeros((4, 4), dtype=complex)
        pair[0, 0] = 0.5
        pair[2:, 2:] = 0.5 * dm([1, 1])
        assert_allclose(state.matrix[::2, ::2], pair, atol=1e-15)

    def test_product_is_a_product(self):
        state = product_state()
        s_parts = sum(subsystem_entropy(state, [i]) for i in range(3))
        assert_allclose(entropy(state), s_parts, atol=1e-9)


class TestMuFamilies:
    def test_werner_ghz_endpoints(self):
        assert_allclose(werner_ghz(0.0).matrix, np.eye(8) / 8, atol=1e-15)
        top = werner_ghz(1.0)
        assert_allclose(top.matrix, ghz_state().matrix, atol=1e-15)
        assert_allclose(entropy(top), 0.0, atol=1e-12)

    def test_bell_mixture_endpoints(self):
        # mu=1 is the AB Bell pair with C in |0>; mu=0 the AC pair with B in |0>
        assert_allclose(bell_mixture(1.0).matrix, dm([1, 0, 0, 0, 0, 0, 1, 0]),
                        atol=1e-15)
        assert_allclose(bell_mixture(0.0).matrix, dm([1, 0, 0, 0, 0, 1, 0, 0]),
                        atol=1e-15)

    def test_classical_quantum_mix_endpoints(self):
        assert_allclose(classical_quantum_mix(1.0).matrix,
                        dm([1, 0, 0, 0, 0, 0, 0, 0]), atol=1e-15)
        assert_allclose(classical_quantum_mix(0.0).matrix,
                        dm([1, 1, 1, 1, 1, 1, 1, 1]), atol=1e-15)

    @pytest.mark.parametrize("family", MU_FAMILIES)
    def test_valid_on_a_21_point_grid(self, family):
        for i in range(21):
            state = build(family, mu=i / 20)
            assert validate(state).ok, (family, i / 20)

    @pytest.mark.parametrize("family", ("werner_ghz", "werner_w"))
    def test_affine_in_mu(self, family):
        top = build(family, mu=1.0).matrix
        bottom = build(family, mu=0.0).matrix
        for mu in (0.125, 0.5, 0.8):
            direct = build(family, mu=mu).matrix
            assert np.array_equal(direct, mu * top + (1 - mu) * bottom)

    def test_mu_range_enforced(self):
        with pytest.raises(ValueError):
            werner_ghz(1.2)
        with pytest.raises(ValueError):
            werner_w(-0.1)


class TestBuild:
    def test_family_names(self):
        assert set(MU_FAMILIES) < set(FAMILIES)
        with pytest.raises(ValueError):
            build("unknown")

    def test_mu_only_for_mu_families(self):
        with pytest.raises(ValueError):
            build("ghz", mu=0.5)
        with pytest.raises(ValueError):
            build("werner_ghz")
