"""Canonical state catalog for sweeps, demos, and tests.

All mu-parameterized families are affine in mu:
build(mu) = mu * build(1) + (1 - mu) * build(0) entrywise.
"""

from __future__ import annotations

import numpy as np

from .qstate import QState, kron_product

MU_FAMILIES = ("werner_ghz", "werner_w", "bell_mixture", "classical_quantum_mix")
FIXED_FAMILIES = ("cc_example", "ghz", "w_state", "product")
FAMILIES = MU_FAMILIES + FIXED_FAMILIES

_KET0 = np.array([1.0, 0.0])
_KET1 = np.array([0.0, 1.0])
_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
_MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


def _dm(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def _kets(*labels: str) -> np.ndarray:
    """Equal superposition of computational-basis kets, e.g. _kets('000','111')."""
    digit_maps = {"0": _KET0, "1": _KET1, "+": _PLUS}
    total = 0.0
    for label in labels:
        # kets as columns after a 1x1 one, so an empty label is the scalar 1
        columns = [np.ones((1, 1))] + [digit_maps[ch][:, None] for ch in label]
        total = total + kron_product(columns)[:, 0]
    return total / np.linalg.norm(total)


def ghz_state(n_qubits: int = 3) -> QState:
    """(|0...0> + |1...1>)/sqrt(2) as a density matrix."""
    ket = _kets("0" * n_qubits, "1" * n_qubits)
    return QState((2,) * n_qubits, _dm(ket))


def w_state() -> QState:
    """(|001> + |010> + |100>)/sqrt(3)."""
    return QState((2, 2, 2), _dm(_kets("001", "010", "100")))


def bell_state() -> QState:
    """(|00> + |11>)/sqrt(2)."""
    return QState((2, 2), _dm(_kets("00", "11")))


def cc_example_state() -> QState:
    """(|00><00| + |1+><1+|)/2 tensored with |0><0|: a classically
    correlated pair plus an uncorrelated third qubit; zero discord."""
    pair = (_dm(_kets("00")) + _dm(_kets("1+"))) / 2.0
    return QState((2, 2, 2), kron_product([pair, _dm(_KET0)]))


def product_state() -> QState:
    """A fixed three-qubit product state with mixed, differently oriented
    factors; zero discord for every measurement ordering."""
    factor_a = 0.8 * _dm(_KET0) + 0.2 * _dm(_KET1)
    factor_b = 0.7 * _dm(_PLUS) + 0.3 * _dm(_MINUS)
    factor_c = 0.65 * _dm(_KET0) + 0.35 * _dm(_KET1)
    return QState((2, 2, 2), kron_product([factor_a, factor_b, factor_c]))


def werner_ghz(mu: float) -> QState:
    """mu |GHZ><GHZ| + (1 - mu) I/8."""
    _check_mu(mu)
    return QState((2, 2, 2), mu * ghz_state().matrix + (1 - mu) * np.eye(8) / 8.0)


def werner_w(mu: float) -> QState:
    """mu |W><W| + (1 - mu) I/8."""
    _check_mu(mu)
    return QState((2, 2, 2), mu * w_state().matrix + (1 - mu) * np.eye(8) / 8.0)


def bell_mixture(mu: float) -> QState:
    """mu |Phi+_AB><Phi+_AB| + (1 - mu) |Phi+_AC><Phi+_AC| with the Bell pair
    on AB (third qubit |0>) resp. AC (second qubit |0>)."""
    _check_mu(mu)
    phi_ab = _dm(_kets("000", "110"))
    phi_ac = _dm(_kets("000", "101"))
    return QState((2, 2, 2), mu * phi_ab + (1 - mu) * phi_ac)


def classical_quantum_mix(mu: float) -> QState:
    """mu |000><000| + (1 - mu) |+++><+++|: a mixture of two product states
    whose discord is nonzero strictly inside (0, 1)."""
    _check_mu(mu)
    return QState((2, 2, 2), mu * _dm(_kets("000")) + (1 - mu) * _dm(_kets("+++")))


def _check_mu(mu: float):
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")


_BUILDERS = {
    "werner_ghz": werner_ghz,
    "werner_w": werner_w,
    "bell_mixture": bell_mixture,
    "classical_quantum_mix": classical_quantum_mix,
    "cc_example": cc_example_state,
    "ghz": ghz_state,
    "w_state": w_state,
    "product": product_state,
}


def build(family: str, mu: float | None = None) -> QState:
    """The catalog state ``family``, at ``mu`` for a mu-parameterized one."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if family in MU_FAMILIES:
        if mu is None:
            raise ValueError(f"family {family!r} is mu-parameterized and needs mu")
        return _BUILDERS[family](mu)
    if mu is not None:
        raise ValueError(
            f"family {family!r} takes no mu; only {', '.join(MU_FAMILIES)} do"
        )
    return _BUILDERS[family]()
