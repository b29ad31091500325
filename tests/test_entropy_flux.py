import numpy as np
import pytest
from numpy.testing import assert_allclose

from mdiscord import (
    MeasParams,
    OptimizerConfig,
    QState,
    StructuralError,
    apply_tree,
    cond_entropy,
    cond_entropy_measured,
    cond_mutual_info,
    d_unminimized,
    delta_cond_discord,
    delta_monogamy,
    delta_post_discord,
    discord,
    flux_report,
    measured_mutual_infos,
    mutual_info,
    random_state,
    tensor,
    tree_from_params,
    tripartite_mutual_info,
)
import mdiscord.entropy_flux as entropy_flux
from mdiscord.entropy_flux import (
    DELTA_KEYS_TRIPARTITE,
    LEDGER_KEYS_TRIPARTITE,
    flux_csv,
)

from conftest import dm, random_qubits, random_tree


def classical_pair():
    return QState((2, 2), np.diag([0.5, 0.0, 0.0, 0.5]))


def product3(seed=0):
    rng_seeds = (seed, seed + 50, seed + 90)
    out = random_state((2,), 1 + seed % 2, rng_seeds[0])
    out = tensor(out, random_state((2,), 1 + (seed + 1) % 2, rng_seeds[1]))
    return tensor(out, random_state((2,), 1 + seed % 2, rng_seeds[2]))


class TestCondEntropy:
    def test_bell_is_negative(self, bell):
        assert_allclose(cond_entropy(bell, [1], [0]), -1.0, atol=1e-12)

    def test_maximally_mixed(self):
        state = QState((2, 2), np.eye(4) / 4)
        assert_allclose(cond_entropy(state, [1], [0]), 1.0, atol=1e-12)

    def test_product_reduces_to_marginal_entropy(self):
        from mdiscord import subsystem_entropy

        state = tensor(random_state((2,), 2, 1), random_state((2,), 2, 2))
        assert_allclose(
            cond_entropy(state, [1], [0]),
            subsystem_entropy(state, [1]),
            atol=1e-12,
        )

    def test_overlap_rejected(self, bell):
        with pytest.raises(StructuralError):
            cond_entropy(bell, [0], [0])


class TestCondEntropyMeasured:
    def test_bell_z_branches_are_pure(self, bell, z_tree_2q):
        assert_allclose(cond_entropy_measured(bell, z_tree_2q, 1), 0.0, atol=1e-12)

    def test_x_root_on_product_ket(self):
        state = QState((2, 2), dm([1, 0, 0, 0]))
        xtree = tree_from_params((2, 2), (0,), MeasParams(((np.pi / 4, 0.0),)))
        assert_allclose(cond_entropy_measured(state, xtree, 1), 0.0, atol=1e-12)

    def test_ghz_z_branches_are_pure(self, ghz, z_tree_3q):
        assert_allclose(cond_entropy_measured(ghz, z_tree_3q, 1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_conditional_entropy_of_measured_state(self, seed):
        # the average branch entropy is S(rho_m1) - S_A(rho_m1)
        state = random_qubits(seed, 3, 1 + seed % 8)
        tree = random_tree(300 + seed, 2)
        measured, _ = apply_tree(state, tree, 1)
        assert_allclose(
            cond_entropy_measured(state, tree, 1),
            cond_entropy(measured, (1, 2), (0,)),
            atol=1e-9,
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_twice_measured_entropy_decomposition(self, seed):
        # S(rho_m2) - S_A(rho_m2) - S_{B|mA}(rho_m2) equals the average
        # entropy of the depth-2 branches of the original state
        from mdiscord import entropy, subsystem_entropy

        state = random_qubits(1000 + seed, 3, 1 + seed % 8)
        tree = random_tree(400 + seed, 2)
        rho2, _ = apply_tree(state, tree, 2)
        lhs = (
            entropy(rho2)
            - subsystem_entropy(rho2, [0])
            - cond_entropy_measured(rho2, tree, 1, target=(1,))
        )
        assert_allclose(lhs, cond_entropy_measured(state, tree, 2), atol=1e-9)


class TestMutualInfo:
    def test_bell(self, bell):
        assert_allclose(mutual_info(bell, [0], [1]), 2.0, atol=1e-12)

    def test_product(self):
        state = tensor(random_state((2,), 2, 3), random_state((2,), 2, 4))
        assert_allclose(mutual_info(state, [0], [1]), 0.0, atol=1e-12)

    def test_classical_pair(self):
        assert_allclose(mutual_info(classical_pair(), [0], [1]), 1.0, atol=1e-12)


class TestCondMutualInfo:
    def test_decoupled_third_party(self):
        pair = random_state((2, 2), 2, 8)
        state = tensor(pair, random_state((2,), 2, 9))
        assert_allclose(
            cond_mutual_info(state, [0], [1], [2]),
            mutual_info(pair, [0], [1]),
            atol=1e-9,
        )

    def test_ghz(self, ghz):
        assert_allclose(cond_mutual_info(ghz, [1], [2], [0]), 1.0, atol=1e-12)

    def test_triple_product(self):
        assert_allclose(
            cond_mutual_info(product3(1), [0], [1], [2]), 0.0, atol=1e-9
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_strong_subadditivity(self, seed):
        state = random_qubits(seed, 3, 1 + seed % 8)
        assert cond_mutual_info(state, [0], [1], [2]) > -1e-9


class TestTripartiteMutualInfo:
    def test_ghz_vanishes(self, ghz):
        # S_A + S_C - S_AC = 1 and I_{A:C|B} = S_AB + S_BC - S_ABC - S_B = 1,
        # so the tripartite mutual information of the GHZ state is zero
        assert_allclose(tripartite_mutual_info(ghz), 0.0, atol=1e-12)

    def test_triple_product(self):
        assert_allclose(tripartite_mutual_info(product3(2)), 0.0, atol=1e-9)

    def test_pair_with_spectator(self):
        state = tensor(random_state((2, 2), 2, 21), random_state((2,), 2, 22))
        assert_allclose(tripartite_mutual_info(state), 0.0, atol=1e-9)

    def test_classical_ghz_mixture_is_one(self, ghz, z_tree_3q):
        measured, _ = apply_tree(ghz, z_tree_3q, 1)
        assert_allclose(tripartite_mutual_info(measured), 1.0, atol=1e-12)


class TestMeasuredMutualInfos:
    def test_measured_state_with_generating_tree(self):
        # on an already-measured state the tree changes nothing, so the
        # mutual informations before and after coincide componentwise
        state = random_qubits(5, 3, 6)
        tree = random_tree(500, 2)
        measured, _ = apply_tree(state, tree, 2)
        mm = measured_mutual_infos(measured, tree)
        expected = {
            "I_AB_C": cond_mutual_info(measured, [0], [1], [2]),
            "I_AC_B": cond_mutual_info(measured, [0], [2], [1]),
            "I_BC_A": cond_mutual_info(measured, [1], [2], [0]),
            "I_ABC": tripartite_mutual_info(measured),
        }
        for key, value in expected.items():
            assert_allclose(mm.after_first[key], value, atol=1e-9)
            assert_allclose(mm.after_second[key], value, atol=1e-9)

    def test_ghz_z_tree(self, ghz, z_tree_3q):
        # measuring A in Z collapses GHZ to the perfectly correlated
        # classical mixture: knowing A then determines B and C, so the
        # conditional mutual informations vanish while the tripartite
        # mutual information rises to one bit
        mm = measured_mutual_infos(ghz, z_tree_3q)
        assert_allclose(mm.after_first["I_BC_A"], 0.0, atol=1e-12)
        assert_allclose(mm.after_first["I_ABC"], 1.0, atol=1e-12)
        assert_allclose(mm.after_second["I_BC_A"], 0.0, atol=1e-12)
        assert_allclose(mm.after_second["I_ABC"], 1.0, atol=1e-12)


class TestUnminimizedDiscord:
    def test_bell_z(self, bell, z_tree_2q):
        assert_allclose(d_unminimized(bell, z_tree_2q, (0,), (1,)), 1.0, atol=1e-12)

    def test_product_any_tree(self):
        state = product3(3)
        tree = random_tree(600, 2, dims=(2, 2, 2))
        assert_allclose(d_unminimized(state, tree, (0,), (1, 2)), 0.0, atol=1e-9)

    def test_ghz_z_full_block(self, ghz, z_tree_3q):
        assert_allclose(d_unminimized(ghz, z_tree_3q, (0,), (1, 2)), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_non_negative(self, seed):
        state = random_qubits(2000 + seed, 3, 1 + seed % 8)
        tree = random_tree(700 + seed, 2)
        for rest in ((1,), (2,), (1, 2)):
            assert d_unminimized(state, tree, (0,), rest) > -1e-9

    def test_block_must_match_tree(self, ghz, z_tree_3q):
        with pytest.raises(StructuralError):
            d_unminimized(ghz, z_tree_3q, (1,), (2,))


class TestConditionalDiscords:
    def test_pair_with_spectator_reduces_to_bipartite(self):
        pair = random_state((2, 2), 2, 31)
        state = tensor(pair, random_state((2,), 2, 32))
        tree = random_tree(800, 2, dims=(2, 2, 2))
        delta_ab_c, _ = delta_cond_discord(state, tree)
        # same root acting on the pair alone
        root_tree = tree_from_params(
            (2, 2), (0,),
            MeasParams((tuple(np.array(tree_angles(tree))[0]),)),
        )
        assert_allclose(
            delta_ab_c, d_unminimized(pair, root_tree, (0,), (1,)), atol=1e-9
        )

    def test_ghz_z_tree_values(self, ghz, z_tree_3q):
        delta_ab_c, delta_ac_b = delta_cond_discord(ghz, z_tree_3q)
        assert_allclose(delta_ab_c, 1.0, atol=1e-12)
        assert_allclose(delta_ac_b, 1.0, atol=1e-12)

    def test_triple_product_vanishes(self):
        state = product3(4)
        tree = random_tree(900, 2, dims=(2, 2, 2))
        delta_ab_c, delta_ac_b = delta_cond_discord(state, tree)
        assert_allclose(delta_ab_c, 0.0, atol=1e-9)
        assert_allclose(delta_ac_b, 0.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_non_negative(self, seed):
        state = random_qubits(3000 + seed, 3, 1 + seed % 8)
        tree = random_tree(1000 + seed, 2)
        delta_ab_c, delta_ac_b = delta_cond_discord(state, tree)
        assert delta_ab_c > -1e-9
        assert delta_ac_b > -1e-9


def tree_angles(tree):
    """Recover (theta, phi) pairs from a parameterized tree's projectors."""
    out = []
    for path in [(), (0,), (1,)]:
        p0 = tree.basis_at(path).projectors[0]
        theta = float(np.arccos(np.sqrt(np.clip(p0[0, 0].real, 0.0, 1.0))))
        phi = float(np.angle(p0[1, 0])) % (2 * np.pi) if abs(p0[1, 0]) > 1e-12 else 0.0
        out.append((theta, phi))
    return out


class TestPostMeasurementDiscord:
    def test_ghz_with_its_optimal_tree(self, ghz, z_tree_3q):
        assert_allclose(delta_post_discord(ghz, z_tree_3q), 0.0, atol=1e-12)

    def test_bell_pair_in_bc(self):
        # a Bell pair between B and C keeps one full bit of B:C discord
        # after any measurement on the product subsystem A
        bell_bc = QState((2, 2), dm([1, 0, 0, 1]))
        state = tensor(random_state((2,), 2, 41), bell_bc)
        tree = tree_from_params(
            (2, 2, 2), (0, 1),
            MeasParams(((0.3, 1.1), (0.7, 0.2), (0.7, 0.2))),
        )
        assert_allclose(delta_post_discord(state, tree), 1.0, atol=1e-9)

    def test_triple_product_vanishes(self):
        assert_allclose(
            delta_post_discord(product3(5), random_tree(1100, 2)), 0.0, atol=1e-9
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_non_negative(self, seed):
        state = random_qubits(4000 + seed, 3, 1 + seed % 8)
        tree = random_tree(1200 + seed, 2)
        assert delta_post_discord(state, tree) > -1e-9


class TestMonogamy:
    def test_ghz_z_tree(self, ghz, z_tree_3q):
        assert_allclose(delta_monogamy(ghz, z_tree_3q), -1.0, atol=1e-12)

    def test_pair_with_spectator_vanishes(self):
        pair = random_state((2, 2), 3, 51)
        state = tensor(pair, random_state((2,), 2, 52))
        assert_allclose(delta_monogamy(state, random_tree(1300, 2)), 0.0, atol=1e-9)

    def test_triple_product_vanishes(self):
        assert_allclose(
            delta_monogamy(product3(6), random_tree(1400, 2)), 0.0, atol=1e-9
        )


class TestFluxReport:
    def test_bipartite_bell_z(self, bell, z_tree_2q):
        reports = flux_report(bell, z_tree_2q)
        assert [r.stage for r in reports] == ["pre", "after_first"]
        deltas = reports[1].deltas
        assert_allclose(deltas["d_A_B"], 1.0, atol=1e-12)
        assert_allclose(deltas["dS_PiA"], 0.0, atol=1e-12)
        assert_allclose(deltas["dS_PiA_B"], deltas["d_A_B"] + deltas["dS_PiA"],
                        atol=1e-9)
        # the conditional entropies rise by the discord while the mutual
        # information drops by it
        assert_allclose(reports[1].ledger["S_B_A"] - reports[0].ledger["S_B_A"],
                        1.0, atol=1e-12)
        assert_allclose(reports[0].ledger["I_AB"] - reports[1].ledger["I_AB"],
                        1.0, atol=1e-12)

    def test_ghz_z_deltas(self, ghz, z_tree_3q):
        reports = flux_report(ghz, z_tree_3q)
        m1 = reports[1].deltas
        assert_allclose(m1["Delta_AB_C"], 1.0, atol=1e-12)
        assert_allclose(m1["Delta_AC_B"], 1.0, atol=1e-12)
        assert_allclose(m1["Delta_ABC"], -1.0, atol=1e-12)
        assert_allclose(m1["d_A_BC"], 1.0, atol=1e-12)

    def test_measured_state_all_deltas_vanish(self):
        state = random_qubits(9, 3, 5)
        tree = random_tree(1500, 2)
        measured, _ = apply_tree(state, tree, 2)
        reports = flux_report(measured, tree)
        for report in reports[1:]:
            for name, value in report.deltas.items():
                assert abs(value) < 1e-9, (report.stage, name, value)

    @pytest.mark.parametrize("seed", range(15))
    def test_internal_consistency_on_random_inputs(self, seed):
        # flux_report cross-checks every delta against its second defining
        # route and raises on disagreement
        state = random_qubits(5000 + seed, 3, 1 + seed % 8)
        flux_report(state, random_tree(1600 + seed, 2))

    @pytest.mark.parametrize("n_qubits, depths", [(3, [1, 2]), (2, [1])])
    def test_measures_each_stage_once(self, monkeypatch, n_qubits, depths):
        measured = []
        real_apply_tree = entropy_flux.apply_tree

        def counting(state, tree, depth):
            measured.append(depth)
            return real_apply_tree(state, tree, depth)

        monkeypatch.setattr(entropy_flux, "apply_tree", counting)
        flux_report(random_qubits(31, n_qubits, 3), random_tree(1800, n_qubits - 1))
        assert measured == depths

    def test_deltas_match_ledger_differences(self, ghz):
        tree = random_tree(1700, 2)
        reports = flux_report(ghz, tree)
        pre, m1, m2 = reports
        assert_allclose(
            m1.deltas["Delta_AB_C"],
            pre.ledger["S_B_AC"] + m1.ledger["S_B_AC"] - 2 * pre.ledger["S_B_AC"],
            atol=1e-9,
        )
        # Delta_{B;PiA;C} is the drop of the tripartite mutual information
        # between the two measured stages
        assert_allclose(
            m2.deltas["Delta_BPiAC"],
            m1.ledger["I_ABC"] - m2.ledger["I_ABC"],
            atol=1e-12,
        )
        # delta S_{B|PiA} closes the S_{B|AC} budget at the second stage
        assert_allclose(
            m2.ledger["S_B_AC"] - m1.ledger["S_B_AC"],
            m2.deltas["Delta_BC_PiA"] + m2.deltas["dS_B_PiA"],
            atol=1e-9,
        )


class TestDecomposition:
    """discord(), flux_report and the delta_* functions read one definition
    of the four tripartite terms."""

    def test_discord_measures_each_stage_once(self, monkeypatch):
        measured = []
        real_apply_tree = entropy_flux.apply_tree

        def counting(state, tree, depth):
            measured.append(depth)
            return real_apply_tree(state, tree, depth)

        monkeypatch.setattr(entropy_flux, "apply_tree", counting)
        config = OptimizerConfig(grid_points_per_angle=4, refine_starts=1)
        result = discord(random_qubits(33, 3, 4), level=3, config=config)
        assert result.decomposition is not None
        assert measured == [1, 2]

    def test_values_fewer_entropies_than_four_walks(self, monkeypatch):
        # each distinct subset of a stage once: the 7 of the pre and of the
        # once-measured state, and the 4 that I_{B:C|A} of the twice-measured
        # state reads; the four separate walks took 38, and one walk per
        # stage 34
        calls = []
        real_subsystem_entropy = entropy_flux.subsystem_entropy

        def counting(state, subset):
            calls.append(subset)
            return real_subsystem_entropy(state, subset)

        monkeypatch.setattr(entropy_flux, "subsystem_entropy", counting)
        entropy_flux._decomposition(random_qubits(34, 3, 5), random_tree(1900, 2))
        assert len(calls) == 18

    @pytest.mark.parametrize("seed", range(20))
    def test_every_reader_agrees_exactly(self, seed):
        state = random_qubits(6000 + seed, 3, 1 + seed % 8)
        tree = random_tree(2000 + seed, 2)
        terms = entropy_flux._decomposition(state, tree)
        assert list(terms) == ["Delta_AB_C", "Delta_AC_B", "Delta_BC_PiA", "Delta_ABC"]
        assert delta_cond_discord(state, tree) == (terms["Delta_AB_C"], terms["Delta_AC_B"])
        assert delta_post_discord(state, tree) == terms["Delta_BC_PiA"]
        assert delta_monogamy(state, tree) == terms["Delta_ABC"]
        pre, m1, m2 = flux_report(state, tree)
        deltas = {**m1.deltas, **m2.deltas}
        assert {key: deltas[key] for key in terms} == terms
        assert tripartite_mutual_info(state) == pre.ledger["I_ABC"]


class TestFluxCsv:
    def test_canonical_columns_and_stability(self, ghz, z_tree_3q):
        reports = flux_report(ghz, z_tree_3q)
        header, row = flux_csv(reports)
        assert len(header) == len(row) == 45
        expected_names = [
            f"{name}_{stage}"
            for name in LEDGER_KEYS_TRIPARTITE + DELTA_KEYS_TRIPARTITE
            for stage in ("pre", "m1", "m2")
        ]
        assert header == expected_names
        header2, row2 = flux_csv(flux_report(ghz, z_tree_3q))
        assert (header2, row2) == (header, row)

    def test_twelve_significant_digits(self, ghz, z_tree_3q):
        _, row = flux_csv(flux_report(ghz, z_tree_3q))
        assert "1" in row  # exact values print without noise
        assert all("e-1" not in cell or float(cell) != 0 for cell in row)

    def test_bipartite_columns(self, bell, z_tree_2q):
        header, row = flux_csv(flux_report(bell, z_tree_2q))
        assert len(header) == len(row) == 6 * 2  # six names, stages pre and m1
        columns = dict(zip(header, (float(cell) for cell in row)))
        assert_allclose(columns["d_A_B_m1"], 1.0, atol=1e-12)
        assert columns["d_A_B_pre"] == 0.0
        assert_allclose(columns["I_AB_pre"], 2.0, atol=1e-12)
