import numpy as np
import pytest

from mdiscord import (
    MeasParams,
    MeasurementTree,
    ProjectorBasis,
    QState,
    apply_tree,
    entropy,
    partial_trace,
    projector_pair_from_angles,
    random_state,
    subsystem_entropy,
    tree_from_params,
)


def dm(ket):
    ket = np.asarray(ket, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


@pytest.fixture
def bell():
    return QState((2, 2), dm([1, 0, 0, 1]))


@pytest.fixture
def ghz():
    return QState((2, 2, 2), dm([1, 0, 0, 0, 0, 0, 0, 1]))


@pytest.fixture
def z_tree_2q():
    return tree_from_params((2, 2), (0,), MeasParams(((0.0, 0.0),)))


@pytest.fixture
def z_tree_3q():
    return tree_from_params((2, 2, 2), (0, 1), MeasParams(((0.0, 0.0),) * 3))


def random_tree(seed, depth, dims=None):
    """Seeded measurement tree with uniform random node angles."""
    rng = np.random.default_rng(seed)
    count = 2 ** depth - 1
    flat = np.stack(
        [rng.uniform(0.0, np.pi / 2, count), rng.uniform(0.0, 2 * np.pi, count)], axis=1
    ).ravel()
    dims = dims or (2,) * (depth + 1)
    return tree_from_params(dims, tuple(range(depth)), MeasParams.from_flat(flat))


def random_qubits(seed, n, rank=None):
    side = 2 ** n
    return random_state((2,) * n, rank if rank is not None else side, seed)


def two_measurement_integrand(state, tree):
    """The paper's two-measurement bipartite form S_{B|A}(rho_m2) - S_{B|A}(rho)
    of a two-party state, rho_m2 being the state after both levels of
    ``tree`` (A measured, then B conditioned on A's outcome)."""
    measured, _ = apply_tree(state, tree, 2)
    return ((entropy(measured) - subsystem_entropy(measured, (0,)))
            - (entropy(state) - subsystem_entropy(state, (0,))))


def eigenbasis_tree(state, root):
    """The two-level tree measuring A in the basis ``root``, then B, after
    each outcome, in the eigenbasis of B's conditional state (in the
    computational basis after an outcome of probability below
    ``PROB_EPS``): the children under which the two-measurement form
    equals the one-measurement form of ``root``."""
    _, branches = apply_tree(state, MeasurementTree((0,), root, {}), 1)
    children = {}
    for branch in branches:
        if branch.post_state is None:
            children[branch.path] = projector_pair_from_angles(0.0, 0.0)
        else:
            _, vectors = np.linalg.eigh(partial_trace(branch.post_state, (1,)).matrix)
            children[branch.path] = ProjectorBasis.from_vectors(vectors.T)
    return MeasurementTree((0, 1), root, children)
