"""Conditional projective measurement trees.

A tree holds one rank-1 projector basis per outcome history: a root basis for
the first measured subsystem and, for every outcome path, a child basis for
the next measured subsystem.  Applying a tree to depth d realizes the
conditional measurement Pi_{j_1} ox Pi_{j_2|j_1} ox ... ox Pi_{j_d|j_1..j_{d-1}}.

Measured subsystems must be qubits: a tree refuses any basis that is not a
qubit pair, and :func:`apply_tree` any measured position that is not a qubit.
Measurement order is explicit: callers who want a different ordering relabel
the state first with :func:`mdiscord.qstate.permute_subsystems`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .qstate import (
    QState,
    StructuralError,
    SubsetSpec,
    _is_json_number,
    as_subset,
    kron_product,
    permute_subsystems,
)

PROB_EPS = 1e-12
_BASIS_TOL = 1e-10


@dataclass(frozen=True)
class ProjectorBasis:
    """A complete set of mutually orthogonal rank-1 projectors."""

    dim: int
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        if len(projs) != self.dim:
            raise StructuralError(f"need {self.dim} projectors, got {len(projs)}")
        for p in projs:
            if p.shape != (self.dim, self.dim):
                raise StructuralError(f"projector has shape {p.shape}")
            if np.max(np.abs(p @ p - p)) > _BASIS_TOL:
                raise ValueError("projector is not idempotent")
            if abs(p.trace() - 1.0) > _BASIS_TOL:
                raise ValueError("projector is not rank 1")
        for i, p in enumerate(projs):
            for q in projs[i + 1:]:
                if np.max(np.abs(p @ q)) > _BASIS_TOL:
                    raise ValueError("projectors are not mutually orthogonal")
        if np.max(np.abs(sum(projs) - np.eye(self.dim))) > _BASIS_TOL:
            raise ValueError("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", projs)

    @classmethod
    def from_vectors(cls, vectors: Iterable[np.ndarray]) -> "ProjectorBasis":
        vecs = [np.asarray(v, dtype=complex) for v in vectors]
        projs = tuple(np.outer(v, v.conj()) for v in vecs)
        return cls(dim=len(vecs), projectors=projs)


@dataclass(frozen=True)
class MeasurementTree:
    """Per-outcome-path qubit projector pairs over the measured subsystems.

    ``measured`` lists the measured positions in measurement order,
    ``root`` is the basis for the first of them, and ``children`` maps each
    outcome path (j_1, ..., j_{k-1}) to the basis used for the k-th.  Every
    basis must be a qubit pair.
    """

    measured: tuple[int, ...]
    root: ProjectorBasis
    children: Mapping[tuple[int, ...], ProjectorBasis]

    def __post_init__(self):
        measured = tuple(int(i) for i in self.measured)
        if len(measured) == 0:
            raise StructuralError("a tree must measure at least one subsystem")
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "children", dict(self.children))
        if any(basis.dim != 2 for basis in (self.root, *self.children.values())):
            raise StructuralError("every basis of a tree must be a qubit pair")
        if set(bfs_paths(len(measured))[1:]) != set(self.children):
            raise StructuralError("children do not cover every outcome path exactly once")

    @property
    def depth(self) -> int:
        return len(self.measured)

    def basis_at(self, path: tuple[int, ...]) -> ProjectorBasis:
        return self.root if len(path) == 0 else self.children[tuple(path)]


def _paths_at_depth(depth: int) -> list[tuple[int, ...]]:
    """The outcome paths of ``depth`` qubit measurements, in lexicographic order."""
    return list(itertools.product((0, 1), repeat=depth))


@dataclass(frozen=True)
class MeasParams:
    """(theta, phi) angle pairs, one per tree node in breadth-first order.

    Node i of a qubit tree sits at depth d = floor(log2(i + 1)) and outcome
    path given by the binary digits of i + 1 - 2^d.  A tree over k measured
    qubits has 2^k - 1 nodes, hence 2^(k+1) - 2 scalar parameters.
    """

    angles: tuple[tuple[float, float], ...]

    def __post_init__(self):
        angles = tuple((float(t), float(p)) for t, p in self.angles)
        count = len(angles)
        if count < 1 or (count + 1) & count != 0:
            raise StructuralError(
                f"node count must be 2^k - 1 for some k >= 1, got {count}"
            )
        if not all(np.isfinite(a) for pair in angles for a in pair):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "angles", angles)

    @property
    def tree_depth(self) -> int:
        return int(np.log2(len(self.angles) + 1))

    def to_flat(self) -> np.ndarray:
        return np.array([a for pair in self.angles for a in pair])

    @classmethod
    def from_flat(cls, flat) -> "MeasParams":
        flat = np.asarray(flat, dtype=float)
        if flat.size % 2 != 0:
            raise StructuralError("flat angle vector must pair theta with phi")
        return cls(tuple((flat[2 * i], flat[2 * i + 1]) for i in range(flat.size // 2)))


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, for
    values valid by construction: its ``__post_init__`` checks do not run."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def node_count(depth: int) -> int:
    """Nodes in a complete binary tree measuring ``depth`` qubits."""
    return 2 ** depth - 1


def bfs_paths(depth: int) -> tuple[tuple[int, ...], ...]:
    """Outcome paths for all nodes, breadth-first: (), (0,), (1,), (0,0), ..."""
    out = []
    for d in range(depth):
        out.extend(_paths_at_depth(d))
    return tuple(out)


def params_to_json(params: MeasParams) -> str:
    """Serialize as {"nodes": [{"path": [...], "theta": t, "phi": p}, ...]}."""
    paths = bfs_paths(params.tree_depth)
    nodes = [
        {"path": list(path), "theta": theta, "phi": phi}
        for path, (theta, phi) in zip(paths, params.angles)
    ]
    return json.dumps({"nodes": nodes})


def params_from_json(text: str) -> MeasParams:
    """Parse the JSON schema produced by :func:`params_to_json`; every angle
    must be finite (JSON ``NaN`` and ``Infinity`` parse as floats, and an
    integer may exceed every float), and no node path may appear twice."""
    payload = json.loads(text)
    nodes = payload.get("nodes") if isinstance(payload, dict) else None
    if not (isinstance(nodes, list) and all(map(_is_json_node, nodes))):
        raise StructuralError(
            'params JSON must be {"nodes": [{"path": [...], "theta": t, "phi": p}, ...]}'
        )
    for node in nodes:
        for angle in ("theta", "phi"):
            if not abs(node[angle]) <= sys.float_info.max:
                raise StructuralError(f"{angle} of node {node['path']} must be finite")
    by_path = {}
    for node in nodes:
        path = tuple(node["path"])
        if path in by_path:
            raise StructuralError(f"node path {node['path']} is given twice")
        by_path[path] = (node["theta"], node["phi"])
    depth = int(np.log2(len(by_path) + 1))
    paths = bfs_paths(depth)
    if set(paths) != set(by_path):
        raise StructuralError("node paths do not form a complete binary tree")
    return MeasParams(tuple(by_path[p] for p in paths))


def _is_json_node(node) -> bool:
    """A node object: a path of 0/1 outcomes and two numeric angles."""
    return (isinstance(node, dict) and isinstance(node.get("path"), list)
            and all(_is_json_number(bit, int) and bit in (0, 1) for bit in node["path"])
            and all(_is_json_number(node.get(angle)) for angle in ("theta", "phi")))


def projector_pair_from_angles(theta: float, phi: float) -> ProjectorBasis:
    """Qubit basis {cos t |0> + e^{i p} sin t |1>, sin t |0> - e^{i p} cos t |1>}."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError("angles must be finite")
    phase, cos, sin = np.exp(1j * phi), np.cos(theta), np.sin(theta)
    vectors = (np.array([cos, phase * sin]), np.array([sin, -phase * cos]))
    # orthonormal by construction: the outer products from_vectors builds
    return _unchecked(ProjectorBasis, dim=2,
                      projectors=tuple(v[:, None] * v.conj() for v in vectors))


def tree_from_params(
    dims: Iterable[int],
    measured: SubsetSpec | Iterable[int],
    params: MeasParams,
) -> MeasurementTree:
    """Build the complete qubit tree whose node bases come from ``params``."""
    dims = tuple(int(d) for d in dims)
    measured = as_subset(measured, len(dims))
    for pos in measured:
        if dims[pos] != 2:
            raise StructuralError(
                f"measured subsystem {pos} has dimension {dims[pos]}, only qubits "
                "can be parameterized by angles"
            )
    k = len(measured)
    if len(params.angles) != node_count(k):
        raise StructuralError(
            f"tree over {k} measured qubits needs {node_count(k)} nodes, "
            f"got {len(params.angles)}"
        )
    paths = bfs_paths(k)
    bases = {path: projector_pair_from_angles(*pair) for path, pair in zip(paths, params.angles)}
    root = bases.pop(())
    # a complete tree by construction
    return _unchecked(MeasurementTree, measured=measured.indices, root=root, children=bases)


@dataclass(frozen=True)
class BranchOutcome:
    """One outcome path with its probability and normalized post state.

    ``post_state`` is None when the probability falls below ``PROB_EPS``;
    such branches contribute nothing to entropy averages.
    """

    path: tuple[int, ...]
    probability: float
    post_state: QState | None


def _embedded_projector(dims, tree, path):
    factors = []
    position_of = {pos: i for i, pos in enumerate(tree.measured[: len(path)])}
    for pos, dim in enumerate(dims):
        i = position_of.get(pos)
        if i is None:
            factors.append(np.eye(dim))
        else:
            factors.append(tree.basis_at(path[:i]).projectors[path[i]])
    return kron_product(factors)


def apply_tree(
    state: QState, tree: MeasurementTree, depth: int
) -> tuple[QState, tuple[BranchOutcome, ...]]:
    """Measure the first ``depth`` tree levels.

    Returns the unselected post-measurement state sum_paths Pi rho Pi together
    with one BranchOutcome per depth-length outcome path.  Trace-preserving;
    branch probabilities sum to 1.
    """
    if not 1 <= depth <= tree.depth:
        raise StructuralError(f"depth must lie in [1, {tree.depth}], got {depth}")
    for pos in tree.measured[:depth]:
        if pos >= state.n_subsystems:
            raise StructuralError(f"tree measures position {pos}, state has fewer subsystems")
        if state.dims[pos] != 2:
            raise StructuralError(f"measured subsystem {pos} is not a qubit")
    post = np.zeros_like(state.matrix)
    branches = []
    for path in _paths_at_depth(depth):
        proj = _embedded_projector(state.dims, tree, path)
        piece = proj @ state.matrix @ proj
        prob = float(piece.trace().real)
        post = post + piece
        if prob >= PROB_EPS:
            branch_state = QState(state.dims, piece / prob)
        else:
            branch_state = None
        branches.append(BranchOutcome(path=tuple(path), probability=prob,
                                      post_state=branch_state))
    return QState(state.dims, post), tuple(branches)


# Fixed generic probe operators used to recover the conditioning basis of a
# measured (block diagonal) state; several are tried and the one giving the
# best-separated qubit spectrum wins.
_PROBE_SEEDS = (20_201, 47_111, 90_017)


@functools.cache  # three seeds per rest dimension: a few entries
def _probe_matrix(dim: int, seed: int) -> np.ndarray:
    """The probe of one (dim, seed), made once and shared read-only."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g + g.conj().T
    probe = m / np.linalg.norm(m)
    probe.setflags(write=False)
    return probe


def _conditioning_basis(state: QState, position: int) -> np.ndarray:
    """Orthonormal qubit basis (rows) diagonalizing ``position`` inside a
    product-conditional block structure, if the state has one."""
    rest = [i for i in range(state.n_subsystems) if i != position]
    moved = permute_subsystems(state, [position] + rest)
    rest_dim = moved.side // 2
    sigma = moved.matrix.reshape(2, rest_dim, 2, rest_dim)

    best_vectors = None
    best_gap = -1.0
    candidates = [np.eye(rest_dim) / rest_dim]
    candidates += [_probe_matrix(rest_dim, seed) for seed in _PROBE_SEEDS]
    for probe in candidates:
        # W[a, b] = sum_{r r'} probe[r, r'] sigma[a r', b r]; Hermitian whenever
        # sigma and probe are, and diagonal in the conditioning basis.
        w = np.einsum("rs,asbr->ab", probe, sigma)
        w = (w + w.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(w)
        gap = float(abs(vals[1] - vals[0]))
        if gap > best_gap:
            best_gap = gap
            best_vectors = vecs.T.copy()
    return best_vectors


def optimal_tree_for_measured_state(
    state: QState, measured: SubsetSpec | Iterable[int]
) -> MeasurementTree:
    """Tree of conditional eigenbases under which a measured state is a fixed
    point: applying the result at full depth reproduces the input.

    Intended for states produced by :func:`apply_tree` (block diagonal in some
    product-conditional basis); the precondition is not checked.
    """
    measured = as_subset(measured, state.n_subsystems)
    bases: dict[tuple[int, ...], ProjectorBasis] = {}

    for pos in measured:
        if state.dims[pos] != 2:
            raise StructuralError(f"measured subsystem {pos} is not a qubit")

    def descend(matrix: np.ndarray, path: tuple[int, ...]):
        level = len(path)
        pos = measured.indices[level]
        prob = float(matrix.trace().real)
        if prob < PROB_EPS:
            basis = projector_pair_from_angles(0.0, 0.0)
        else:
            conditional = QState(state.dims, matrix / prob)
            vectors = _conditioning_basis(conditional, pos)
            basis = ProjectorBasis.from_vectors(vectors)
        bases[path] = basis
        if level + 1 < len(measured):
            for j, proj in enumerate(basis.projectors):
                factors = [
                    proj if q == pos else np.eye(state.dims[q])
                    for q in range(state.n_subsystems)
                ]
                embedded = kron_product(factors)
                descend(embedded @ matrix @ embedded, path + (j,))

    descend(np.array(state.matrix), ())
    children = {path: basis for path, basis in bases.items() if len(path) > 0}
    return MeasurementTree(measured=measured.indices, root=bases[()],
                           children=children)
