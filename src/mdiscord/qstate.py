"""Dense multipartite density matrices and entropy primitives.

Conventions used throughout the package:

* subsystem 0 is the leftmost tensor factor and the most significant
  (slowest-varying) index block of the matrix,
* all entropies are in bits (log base 2),
* eigenvalues below ``ENTROPY_EIGENVALUE_CLAMP`` contribute nothing to an
  entropy (the 0 log 0 = 0 convention).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
ENTROPY_EIGENVALUE_CLAMP = 1e-12


class StructuralError(ValueError):
    """Shapes or index bookkeeping are inconsistent (as opposed to a state
    merely violating a physical invariant such as unit trace)."""


@dataclass(frozen=True)
class SubsetSpec:
    """A non-empty, strictly increasing selection of subsystem positions."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise StructuralError("subset must name at least one subsystem")
        if any(i < 0 for i in idx):
            raise StructuralError(f"negative subsystem position in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise StructuralError(f"subset positions must strictly increase, got {idx}")
        object.__setattr__(self, "indices", idx)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


def as_subset(spec: SubsetSpec | Iterable[int], n_subsystems: int) -> SubsetSpec:
    """Normalize ``spec`` to a SubsetSpec and bounds-check it against a state."""
    subset = spec if isinstance(spec, SubsetSpec) else SubsetSpec(tuple(spec))
    if subset.indices[-1] >= n_subsystems:
        raise StructuralError(
            f"subset {subset.indices} out of range for {n_subsystems} subsystems"
        )
    return subset


@dataclass(frozen=True)
class QState:
    """Density matrix over an ordered list of subsystem dimensions.

    The constructor enforces only structural consistency (square matrix whose
    side equals the product of ``dims``); physical invariants are checked by
    :func:`validate` so that near-valid matrices can still be inspected.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0 or any(d < 2 for d in dims):
            raise StructuralError(f"subsystem dimensions must all be >= 2, got {dims}")
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructuralError(f"matrix must be square, got shape {m.shape}")
        side = int(np.prod(dims))
        if m.shape[0] != side:
            raise StructuralError(
                f"matrix side {m.shape[0]} does not match product of dims {dims}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class ValidityReport:
    """Measured deviations of a QState from its physical invariants."""

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float

    @property
    def hermitian_ok(self) -> bool:
        return self.hermiticity_deviation < HERMITICITY_TOL

    @property
    def trace_ok(self) -> bool:
        return self.trace_deviation < TRACE_TOL

    @property
    def psd_ok(self) -> bool:
        return self.min_eigenvalue > -PSD_TOL

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.psd_ok


def validate(state: QState) -> ValidityReport:
    """Check hermiticity, unit trace and positive semidefiniteness.

    Never mutates the input.  Structural problems (non-square matrix, dims
    mismatch) raise in the QState constructor and cannot reach this point.
    """
    m = state.matrix
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    trace_dev = float(abs(m.trace() - 1.0))
    eigvals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return ValidityReport(
        hermiticity_deviation=herm_dev,
        trace_deviation=trace_dev,
        min_eigenvalue=float(eigvals.min()),
    )


def tensor(a: QState, b: QState) -> QState:
    """Kronecker product of two states; dims concatenate."""
    return QState(a.dims + b.dims, np.kron(a.matrix, b.matrix))


def partial_trace(state: QState, keep: SubsetSpec | Iterable[int]) -> QState:
    """Trace out every subsystem not listed in ``keep``.

    The result keeps the dims in ``keep`` in their original order; trace,
    hermiticity and positivity are preserved.
    """
    keep = as_subset(keep, state.n_subsystems)
    n = state.n_subsystems
    kept = set(keep.indices)
    t = state.matrix.reshape(state.dims + state.dims)
    row_labels = list(range(n))
    col_labels = [n + i if i in kept else i for i in range(n)]
    out_labels = [i for i in keep.indices] + [n + i for i in keep.indices]
    reduced = np.einsum(t, row_labels + col_labels, out_labels)
    side = int(np.prod([state.dims[i] for i in keep.indices]))
    return QState(
        tuple(state.dims[i] for i in keep.indices), reduced.reshape(side, side)
    )


def permute_subsystems(state: QState, order: Sequence[int]) -> QState:
    """Relabel subsystems so that new position i holds old subsystem order[i].

    This is the explicit relabeling helper used to put measured subsystems
    first; no operation reorders subsystems implicitly.
    """
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(state.n_subsystems)):
        raise StructuralError(
            f"order {order} is not a permutation of 0..{state.n_subsystems - 1}"
        )
    n = state.n_subsystems
    t = state.matrix.reshape(state.dims + state.dims)
    t = t.transpose(order + tuple(n + i for i in order))
    dims = tuple(state.dims[i] for i in order)
    side = int(np.prod(dims))
    return QState(dims, t.reshape(side, side))


def eig_hermitian(state: QState, return_vectors: bool = False):
    """Eigenvalues of a Hermitian state, sorted descending.

    With ``return_vectors=True`` also returns the matching orthonormal
    eigenvectors as columns.  Exactly degenerate eigenvalues are ordered by
    lexicographic comparison of their eigenvector entries so repeated runs
    produce identical output.
    """
    m = state.matrix
    if float(np.max(np.abs(m - m.conj().T))) >= HERMITICITY_TOL:
        raise StructuralError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(m)
    order = list(np.argsort(-vals, kind="stable"))

    def vec_key(i):
        return tuple((float(x.real), float(x.imag)) for x in vecs[:, i])

    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and vals[order[stop]] == vals[order[start]]:
            stop += 1
        if stop - start > 1:
            order[start:stop] = sorted(order[start:stop], key=vec_key)
        start = stop

    sorted_vals = vals[order]
    if return_vectors:
        return sorted_vals, vecs[:, order]
    return sorted_vals


def x_log2_x(values: np.ndarray) -> np.ndarray:
    """Elementwise x log2 x, with entries at or below
    ``ENTROPY_EIGENVALUE_CLAMP`` contributing exactly 0."""
    keep = values > ENTROPY_EIGENVALUE_CLAMP
    return np.where(keep, values * np.log2(np.where(keep, values, 1.0)), 0.0)


def entropy(state: QState) -> float:
    """Von Neumann entropy S = -sum_i lambda_i log2 lambda_i, in bits.

    Eigenvalues below ``ENTROPY_EIGENVALUE_CLAMP`` are treated as exact zeros.
    """
    vals = np.linalg.eigvalsh(state.matrix)
    return -float(np.sum(x_log2_x(vals)))


def subsystem_entropy(state: QState, subset: SubsetSpec | Iterable[int]) -> float:
    """Entropy of the reduced state on ``subset``, in bits."""
    return entropy(partial_trace(state, subset))


def random_state(dims: Sequence[int], rank: int, seed: int) -> QState:
    """Seeded random density matrix of the requested rank.

    Normalizes G G-dagger where G is a complex Gaussian matrix with ``rank``
    columns; identical seeds give bit-identical output.
    """
    dims = tuple(int(d) for d in dims)
    side = int(np.prod(dims))
    if not 1 <= rank <= side:
        raise ValueError(f"rank must lie in [1, {side}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((side, rank)) + 1j * rng.standard_normal((side, rank))
    m = g @ g.conj().T
    return QState(dims, m / m.trace().real)


def to_json(state: QState) -> str:
    """Serialize as {"dims": [...], "matrix": [[[re, im], ...], ...]}."""
    payload = {
        "dims": list(state.dims),
        "matrix": [[[z.real, z.imag] for z in row] for row in state.matrix],
    }
    return json.dumps(payload)


def from_json(text: str) -> QState:
    """Parse the JSON schema produced by :func:`to_json`; the loaded state
    must have finite entries (JSON ``NaN`` and ``Infinity`` parse as
    floats, and an integer may exceed every float) and pass
    :func:`validate`."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or not {"dims", "matrix"} <= payload.keys():
        raise StructuralError("state JSON must be an object with 'dims' and 'matrix'")
    dims, rows = payload["dims"], payload["matrix"]
    if not (isinstance(dims, list) and all(_is_json_number(d, int) for d in dims)):
        raise StructuralError(f"dims must be a list of integers, got {dims!r}")
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            and all(_is_json_pair(z) for row in rows for z in row)):
        raise StructuralError("matrix must be a list of rows of [re, im] number pairs")
    for i, row in enumerate(rows):
        for j, z in enumerate(row):
            if not all(abs(x) <= sys.float_info.max for x in z):
                raise StructuralError(f"matrix entry [{i}][{j}] must be finite, got {z}")
    matrix = np.array([[complex(re, im) for re, im in row] for row in rows])
    state = QState(tuple(dims), matrix)
    report = validate(state)
    if not report.ok:
        raise ValueError(f"loaded state fails validation: {report}")
    return state


def _is_json_number(value, kinds=(int, float)) -> bool:
    """A JSON number of Python type ``kinds`` (a JSON bool is not a number)."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_json_pair(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(map(_is_json_number, value)))
