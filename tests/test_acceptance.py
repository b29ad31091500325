"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one line so a `pytest -s tests/test_acceptance.py` run reads
as a checklist.  Random inputs are seeded; derived reference values (the
Bell and GHZ discords) were frozen from dense-grid oracle runs at 12+ points
per angle.
"""

import time

import numpy as np

from mdiscord import (
    MeasParams,
    OptimizerConfig,
    apply_tree,
    d_unminimized,
    delta_cond_discord,
    delta_post_discord,
    discord,
    identity_suite,
    invariance_residual,
    permute_subsystems,
    projector_pair_from_angles,
    random_state,
    reference_objective,
    tensor,
    tree_from_params,
)
from mdiscord.discord import _MeasuredEntropyObjective
from mdiscord.states import (
    bell_mixture,
    classical_quantum_mix,
    ghz_state,
    bell_state,
    product_state,
    werner_ghz,
    werner_w,
)

from conftest import eigenbasis_tree, random_qubits, random_tree, two_measurement_integrand


def report(number, name, detail, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.0f}s)"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail}, {elapsed:.1f}s)")


def test_01_identity_suite():
    started = time.time()
    reports = identity_suite(seed=0, samples=100)
    worst = max(r.max_violation for r in reports)
    for r in reports:
        assert r.max_violation < 1e-9, r
    report(1, "identity suite", f"max violation {worst:.2e} over 100 samples",
           started, 30)


def test_02_non_negativity():
    started = time.time()
    worst = 0.0
    for index in range(500):
        state = random_qubits(10_000 + index, 3, 1 + index % 8)
        tree = random_tree(20_000 + index, 2)
        values = [reference_objective(state, tree)]
        values.extend(
            d_unminimized(state, tree, (0,), rest) for rest in ((1,), (2,), (1, 2))
        )
        values.extend(delta_cond_discord(state, tree))
        values.append(delta_post_discord(state, tree))
        worst = min(min(values), worst)
        assert min(values) > -1e-9, index
    report(2, "non-negativity", f"500 pairs, most negative {worst:.2e}",
           started, 60)


def test_03_zero_iff_measured():
    started = time.time()
    worst_value = 0.0
    worst_residual = 0.0
    for index in range(50):
        source = random_qubits(30_000 + index, 3, 1 + index % 8)
        generating = random_tree(40_000 + index, 2)
        state, _ = apply_tree(source, generating, 2)
        result = discord(state, level=3)
        worst_value = max(worst_value, result.value)
        assert result.value < 1e-6, index
        optimal = tree_from_params(state.dims, (0, 1), result.optimal_params)
        residual = invariance_residual(state, optimal)
        worst_residual = max(worst_residual, residual)
        assert residual < 1e-5, index
    report(3, "zero iff measured",
           f"50 states, worst value {worst_value:.1e}, "
           f"worst residual {worst_residual:.1e}", started, 600)


def test_04_bipartite_reduction_three_placements():
    started = time.time()
    worst = 0.0
    for index in range(20):
        pair = random_state((2, 2), 2, 50_000 + index)
        single = random_state((2,), 1, 60_000 + index)
        expected = discord(pair, level=2).value
        placements = {
            "AB": tensor(pair, single),
            "BC": tensor(single, pair),
            "AC": permute_subsystems(tensor(pair, single), (0, 2, 1)),
        }
        for name, state in placements.items():
            error = abs(discord(state, level=3).value - expected)
            worst = max(worst, error)
            assert error < 1e-5, (index, name, error)
    report(4, "bipartite reduction (AB, BC, AC)",
           f"20 rank-2 pairs, worst error {worst:.1e}", started, 600)


def test_05_two_measurement_equivalence():
    # The two-measurement form S_{B|A}(rho_m2) - S_{B|A}(rho), from raw
    # definitions, at discord's root with each child in the eigenbasis of
    # B's conditional state equals the minimized one-measurement form, and
    # no other pair of children goes below it.
    started = time.time()
    rng = np.random.default_rng(75_000)
    worst, least_excess = 0.0, np.inf
    for index in range(20):
        state = random_state((2, 2), 1 + index % 4, 70_000 + index)
        result = discord(state, level=2)
        (root,) = result.optimal_params.angles
        best = two_measurement_integrand(
            state, eigenbasis_tree(state, projector_pair_from_angles(*root)))
        gap = abs(best - result.value)
        worst = max(worst, gap)
        assert gap < 1e-5, index
        for _ in range(20):
            children = [(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
                        for _ in range(2)]
            tree = tree_from_params((2, 2), (0, 1), MeasParams((root, *children)))
            excess = two_measurement_integrand(state, tree) - best
            least_excess = min(least_excess, excess)
            assert excess > -1e-12, index
    report(5, "two-measurement equivalence",
           f"20 states, worst gap {worst:.1e}, least child excess {least_excess:+.3f}",
           started, 120)


def test_06_point_values():
    started = time.time()
    bell = discord(bell_state(), level=2)
    assert abs(bell.value - 1.0) < 1e-3
    ghz = discord(ghz_state(), level=3)
    assert abs(ghz.value - 1.0) < 1e-3
    decomposition = ghz.decomposition
    assert abs(decomposition["Delta_AB_C"] - decomposition["Delta_AC_B"]) < 1e-4
    assert decomposition["Delta_BC_PiA"] < 1e-4
    assert abs(decomposition["Delta_ABC"] + ghz.value) < 1e-4
    report(6, "Bell and GHZ point values",
           f"D(Bell)={bell.value:.6f}, D(GHZ)={ghz.value:.6f}", started, 120)


def test_07_werner_ghz_sweep():
    started = time.time()
    values, post_deltas = [], []
    for i in range(21):
        result = discord(werner_ghz(i / 20), level=3)
        values.append(result.value)
        post_deltas.append(result.decomposition["Delta_BC_PiA"])
    assert values[0] < 1e-6
    steps = np.diff(values)
    assert steps.min() > -1e-6, steps.min()
    assert max(post_deltas) < 1e-4
    report(7, "Werner-GHZ sweep",
           f"monotone (min step {steps.min():+.1e}), "
           f"max Delta_BC_PiA {max(post_deltas):.1e}", started, 300)


def test_08_werner_w_sweep():
    started = time.time()
    monogamy = {}
    post = {}
    for i in range(21):
        mu = i / 20
        result = discord(werner_w(mu), level=3)
        monogamy[mu] = result.decomposition["Delta_ABC"]
        post[mu] = result.decomposition["Delta_BC_PiA"]
    has_negative = any(v < -1e-5 for mu, v in monogamy.items() if 0 < mu < 1)
    has_positive = any(v > 1e-5 for mu, v in monogamy.items() if 0 < mu < 1)
    assert has_negative and has_positive, monogamy
    assert post[0.95] > 1e-4 and post[1.0] > 1e-4
    report(8, "Werner-W sweep",
           f"monogamy spans {min(monogamy.values()):+.3f}..{max(monogamy.values()):+.3f}, "
           f"Delta_BC_PiA(1.0)={post[1.0]:.3f}", started, 300)


def test_09_bell_mixture_endpoints():
    started = time.time()
    for mu in (0.0, 1.0):
        value = discord(bell_mixture(mu), level=3).value
        assert abs(value - 1.0) < 1e-3, (mu, value)
    report(9, "Bell mixture endpoints", "both endpoints at the bipartite value 1",
           started, 120)


def test_10_non_convexity_witness():
    started = time.time()
    middle = discord(classical_quantum_mix(0.5), level=3).value
    low = discord(classical_quantum_mix(0.0), level=3).value
    high = discord(classical_quantum_mix(1.0), level=3).value
    assert middle > 1e-3
    assert low < 1e-6 and high < 1e-6
    report(10, "non-convexity witness",
           f"D(1/2)={middle:.4f} with zero-discord endpoints", started, 120)


def test_11_four_party_smoke():
    started = time.time()
    z_tree = tree_from_params((2,) * 4, (0, 1, 2), MeasParams(((0.0, 0.0),) * 7))
    ghz4 = reference_objective(ghz_state(4), z_tree)
    assert abs(ghz4 - 1.0) < 1e-9
    product4 = tensor(product_state(), random_state((2,), 1, 80_000))
    result = discord(
        product4, level=4, config=OptimizerConfig(grid_points_per_angle=3)
    )
    assert result.value < 1e-6
    report(11, "four-party smoke",
           f"GHZ objective {ghz4:.12f}, product discord {result.value:.1e} "
           f"({result.diagnostics['evaluations']} evaluations)", started, 900)


def test_12_cross_implementation():
    started = time.time()
    worst = 0.0
    for index in range(1000):
        state = random_qubits(90_000 + index, 3, 1 + index % 8)
        rng = np.random.default_rng(95_000 + index)
        flat = np.stack(
            [rng.uniform(0, np.pi / 2, 3), rng.uniform(0, 2 * np.pi, 3)], 1
        ).ravel()
        tree = tree_from_params((2, 2, 2), (0, 1), MeasParams.from_flat(flat))
        gap = abs(
            reference_objective(state, tree)
            - _MeasuredEntropyObjective(state, 3)(flat)
        )
        worst = max(worst, gap)
        assert gap < 1e-10, index
    report(12, "cross-implementation agreement",
           f"1000 pairs, worst gap {worst:.1e}", started, 120)
