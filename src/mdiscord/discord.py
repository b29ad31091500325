"""Optimized multipartite discord and its decomposition.

The discord of an N-party state for the measurement ordering A_1 -> A_2 ->
... -> A_{N-1} is the minimum over conditional measurement trees of

    - S_{A_2..A_N | A_1}(rho) + sum_k S_{A_k | measured prefix}(rho),

which is non-negative for every tree and zero exactly on measured states.
:func:`discord` minimizes it with the one production evaluator,
:class:`_MeasuredEntropyObjective`, built on Pauli blocks;
:func:`mdiscord.oracle.reference_objective` values it tree by tree from raw
definitions as the independent check.  A qubit projector is
(I +- n . sigma) / 2, so every branch state is a fixed linear combination of
partial traces of (Pauli product x I) rho, valued once per state (Luo, PRA
77, 042303, 2008; Girolami & Adesso, PRA 83, 052108, 2011).  A batch of
trees then costs one small matmul per measurement step, the exact gradient
in the nodes' Bloch vectors runs the same products backwards, and the
exact minimum over the angle grid comes from the same blocks, by dynamic
programming over the tree that reduces the branch terms block by block as
they are made.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import entropy_flux as flux
from .measure import (
    MeasParams,
    node_count,
    params_from_json,
    params_to_json,
    tree_from_params,
)
from .optimizer import OptimizerConfig, _bloch_vectors, grid_cells, optimize, simplex_refine
from .qstate import (
    ENTROPY_EIGENVALUE_CLAMP,
    QState,
    StructuralError,
    _integer,
    entropy,
    permute_subsystems,
    subsystem_entropy,
    x_log2_x,
)

_EVAL_CHUNK = 4096


@dataclass(frozen=True)
class DiscordResult:
    value: float
    optimal_params: MeasParams
    decomposition: dict[str, float] | None
    diagnostics: dict

    @property
    def converged(self) -> bool:
        return bool(self.diagnostics.get("converged", False))


_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                    [[1, 0], [0, -1]]])
# row 2x + y, column i: sigma_i[y, x]; a 2x2 block M flattened row-major
# times it gives Tr[sigma_i M] for i = 0..3
_PAULI_TRACE = _PAULIS.transpose(2, 1, 0).reshape(4, 4)
_LOG2_E = 1.0 / np.log(2.0)
_SPREAD, _SCALE = np.array([0.0, 1.0, -1.0]), np.array([1.0, 0.5, 0.5])
_GRID_BLOCK = 1 << 16  # branch terms the grid minimum values at once


def _x_log2_x_and_slope(values: np.ndarray):
    """:func:`x_log2_x` and its derivative log2 x + 1 / ln 2, both 0 where
    ``x_log2_x`` clamps."""
    keep = values > ENTROPY_EIGENVALUE_CLAMP
    logs = np.log2(np.where(keep, values, 1.0))
    return np.where(keep, values * logs, 0.0), np.where(keep, logs + _LOG2_E, 0.0)


def _qubit_terms(comps: np.ndarray, slopes: bool):
    """p * S(B / p) for unnormalized 2x2 blocks B = (t_0 I + t . sigma) / 2,
    given by their Pauli components (t_0, t_x, t_y, t_z), through the
    closed-form eigenvalues (t_0 +- |t|) / 2.  With ``slopes``, also each
    term's derivative in the four components."""
    radius = np.sqrt(np.sum(comps[..., 1:] ** 2, axis=-1, keepdims=True))
    # trace, then the eigenvalues (t_0 + |t|) / 2 and (t_0 - |t|) / 2
    spectrum = (comps[..., :1] + radius * _SPREAD) * _SCALE
    if not slopes:
        parts = x_log2_x(spectrum)
        return parts[..., 0] - parts[..., 1] - parts[..., 2]
    parts, d_parts = _x_log2_x_and_slope(spectrum)
    # d|t| = t . dt / |t|; at |t| = 0 both eigenvalues share one slope, so
    # the direction drops out
    direction = np.divide(comps[..., 1:], radius, out=np.zeros_like(comps[..., 1:]),
                          where=radius > 0)
    grad = np.concatenate([d_parts[..., :1] - (d_parts[..., 1:2] + d_parts[..., 2:]) / 2.0,
                           (d_parts[..., 2:] - d_parts[..., 1:2]) / 2.0 * direction], axis=-1)
    return parts[..., 0] - parts[..., 1] - parts[..., 2], grad


def _block_terms(comps: np.ndarray, slopes: bool):
    """p * S(B / p) for unnormalized Hermitian blocks B of any size, given
    by the real parts of their entries (row-major) followed by the imaginary
    parts.  With ``slopes``, also each term's derivative in those parts,
    from d Tr f(B) = Tr[f'(B) dB]."""
    entries = comps.shape[-1] // 2
    side = int(round(entries ** 0.5))
    blocks = (comps[..., :entries] + 1j * comps[..., entries:]).reshape(
        comps.shape[:-1] + (side, side)
    )
    # eigh for values too, so that a value never depends on whether its
    # gradient was asked for
    vals, vecs = np.linalg.eigh(blocks)
    whole, d_whole = _x_log2_x_and_slope(vals.sum(axis=-1))
    parts, d_parts = _x_log2_x_and_slope(vals)
    if not slopes:
        return whole - parts.sum(axis=-1)
    slope = (vecs * d_parts[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    slope = d_whole[..., None, None] * np.eye(side) - slope
    # Re Tr[G dB] for Hermitian G and dB is the dot product of their real
    # and imaginary parts, entry by entry
    slope = slope.reshape(comps.shape[:-1] + (entries,))
    return whole - parts.sum(axis=-1), np.concatenate([slope.real, slope.imag], axis=-1)


def _pauli_blocks(rho: np.ndarray, count: int) -> list[np.ndarray]:
    """Entry k (k = 0..count) stacks Tr_{0..k-1}[(sigma_{i_0} x ... x
    sigma_{i_{k-1}} x I) rho] for every index tuple, i_0 slowest: the 4**k
    blocks over the subsystems from k on.  The first ``count`` subsystems
    must be qubits."""
    blocks = [rho[None]]
    for k in range(count):
        rest = blocks[-1].shape[-1] // 2
        # qubit k's 2x2 block at every (n, r, s) entry of the rest
        split = blocks[-1].reshape(-1, 2, rest, 2, rest).transpose(0, 2, 4, 1, 3)
        traced = (split.reshape(-1, 4) @ _PAULI_TRACE).reshape(-1, rest, rest, 4)
        blocks.append(traced.transpose(0, 3, 1, 2).reshape(-1, rest, rest))
    return blocks


def _traces(blocks: np.ndarray) -> np.ndarray:
    return np.trace(blocks, axis1=-2, axis2=-1).real


def _projector_coefficients(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Pauli coefficients (I, X, Y, Z) of both projectors of every node,
    shape (..., 2, 4): outcome j projects on (I + s_j n . sigma) / 2 with
    s_0 = 1, s_1 = -1 and n the node's Bloch vector (:func:`_bloch_vectors`)."""
    out = np.empty(theta.shape + (2, 4))
    out[..., 0] = 0.5
    out[..., 0, 1:] = _bloch_vectors(theta, phi) / 2.0
    out[..., 1, 1:] = -out[..., 0, 1:]
    return out


def _depth_nodes(depth: int) -> slice:
    """The depth-``depth`` nodes of the node-major (breadth-first) order."""
    return slice(2 ** depth - 1, 2 ** (depth + 1) - 1)


def _branch_coefficients(factors: np.ndarray, steps: int) -> list[np.ndarray]:
    """Entry s - 1 holds, for every row, the Pauli coefficients of each
    outcome branch after step s (rows x 2**s x 4**s): the products of the
    coefficients of the branch's nodes, the branch 2b + j being outcome j of
    the depth-s node under branch b, the index tuple (i_0, ..., i_{s-1})
    row-major.  ``factors`` holds every node's :func:`_projector_coefficients`."""
    rows = len(factors)
    coefficients = [factors[:, 0]]
    for step in range(1, steps):
        prev = coefficients[-1]
        nodes = factors[:, _depth_nodes(step)]
        coefficients.append(
            (prev[:, :, None, :, None] * nodes[:, :, :, None, :]).reshape(
                rows, 2 ** (step + 1), -1
            )
        )
    return coefficients


def _step_tensors(rho: np.ndarray, steps: int) -> list[np.ndarray]:
    """Per step s, the matrix (4**s x components) from a branch's Pauli
    coefficients to the components its terms read: the Pauli components of
    the next qubit's block at an intermediate step; at the last step those
    of the tail if it is one qubit, else the real and imaginary parts of its
    block's entries."""
    blocks = _pauli_blocks(rho, steps)
    tensors = [_traces(blocks[s + 1]).reshape(4 ** s, 4) for s in range(1, steps)]
    tail = blocks[-1]
    if tail.shape[-1] == 2:
        tensors.append((tail.reshape(-1, 4) @ _PAULI_TRACE).real)
    else:
        flat = tail.reshape(len(tail), -1)
        tensors.append(np.concatenate([flat.real, flat.imag], axis=1))
    return tensors


class _MeasuredEntropyObjective:
    """Batched discord integrand over flat angle vectors, on Pauli blocks.

    A qubit projector is (I +- n . sigma) / 2, so every unnormalized branch
    state, reduced to the subsystems its term reads, is a fixed linear
    combination of partial traces of (Pauli product x I) rho.  Those are
    valued once per state (``tensors``, one real matrix per measurement
    step); a row's branches after step s are then the products of its
    nodes' coefficients (:func:`_branch_coefficients`) times that step's
    matrix, one small matmul.  Each branch adds its term, weighted by the
    branch probability: the entropy of the next qubit at an intermediate
    step (:func:`_qubit_terms`) and of the whole unmeasured tail at the last
    one (:func:`_block_terms`, or :func:`_qubit_terms` for a one-qubit
    tail).  :meth:`evaluate_many` and :meth:`grid_minimum` share the
    matrices and the term rules.  Agrees with
    :func:`mdiscord.oracle.reference_objective`, the raw-definition path, on
    the corresponding tree; ``verify`` checks that to 1e-10.

    The exact gradient runs the product backwards: each term's derivative
    in its branch's components (``d Tr f(B) = Tr[f'(B) dB]``, clamped where
    :func:`x_log2_x` clamps) is pulled back through the same matrices to
    every node's coefficients, and from there to its Bloch vector.
    """

    def __init__(self, state: QState, level: int):
        n = state.n_subsystems
        if n < 2:
            raise StructuralError(
                f"discord needs at least two subsystems, the state has {n}")
        if not 2 <= level <= n:
            raise StructuralError(f"level must lie in [2, {n}], got {level}")
        for pos in range(level - 1):
            if state.dims[pos] != 2:
                raise StructuralError(f"measured subsystem {pos} is not a qubit")
        self.steps = level - 1
        self.n_nodes = node_count(self.steps)
        self.rho = np.asarray(state.matrix)
        self.base = -(entropy(state) - subsystem_entropy(state, (0,)))
        self.tensors = _step_tensors(self.rho, self.steps)
        # whether the last step's terms follow a rule of their own
        self.last_rule = self.tensors[-1].shape[1] != 4

    def __call__(self, x) -> float:
        return float(self.evaluate_many(np.asarray(x, dtype=float)[None, :])[0])

    def evaluate_many(self, params_matrix: np.ndarray, gradient: bool = False):
        """The integrand of every row; with ``gradient``, also its derivative
        in each node's Bloch vector n, as a second array with three columns
        per node (node-major)."""
        params_matrix = np.asarray(params_matrix, dtype=float)
        out = np.empty(len(params_matrix))
        grads = np.empty((len(params_matrix), 3 * self.n_nodes)) if gradient else None
        for start in range(0, len(params_matrix), _EVAL_CHUNK):
            part = slice(start, start + _EVAL_CHUNK)
            if gradient:
                out[part], grads[part] = self._chunk(params_matrix[part], True)
            else:
                out[part] = self._chunk(params_matrix[part], False)
        return (out, grads) if gradient else out

    def _chunk(self, chunk: np.ndarray, gradient: bool):
        if chunk.shape[1] != 2 * self.n_nodes:
            raise StructuralError(
                f"expected {2 * self.n_nodes} angles per row, got {chunk.shape[1]}"
            )
        factors = _projector_coefficients(chunk[:, 0::2], chunk[:, 1::2])
        coefficients = _branch_coefficients(factors, self.steps)
        comps = [coeff @ tensor for coeff, tensor in zip(coefficients, self.tensors)]
        # the steps of one rule are valued in one call, branches side by side
        shared = self.steps - 1 if self.last_rule else self.steps
        value = np.full(len(chunk), self.base)
        slopes = []
        for group, rule in ((comps[:shared], _qubit_terms), (comps[shared:], _block_terms)):
            if not group:
                continue
            terms = rule(np.concatenate(group, axis=1), gradient)
            if gradient:
                terms, slope = terms
                widths = [c.shape[1] for c in group[:-1]]
                slopes += np.split(slope, np.cumsum(widths), axis=1)
            value += terms.sum(axis=-1)
        if not gradient:
            return value
        pulled = [slope @ tensor.T for slope, tensor in zip(slopes, self.tensors)]
        return value, _bloch_gradient(factors, coefficients, pulled)

    def grid_minimum(self, points: int) -> tuple[np.ndarray, np.ndarray]:
        """Every root cell's least integrand over the trees whose nodes all
        sit in :func:`mdiscord.optimizer.grid_cells` of ``points``, and one
        grid point (a flat angle row) attaining it.

        A cell is one (theta, phi) row of that list.  A branch term
        depends only on the cells of the nodes along its path, so its
        coefficients are a product of one cell's coefficients per depth, and
        each step's matrix is contracted with the cells' coefficients one
        depth at a time.  Node ``q`` of a depth owns branches ``2q`` and
        ``2q + 1``, and its children see only their own ancestors' cells,
        so the minimum factorizes over subtrees.  The steps run deepest
        first, in blocks of about ``_GRID_BLOCK`` branches; each block is
        reduced as it is made: every node's two terms plus its children's
        subtree minima, minimized over the node's own cell with the argmin
        kept (ties go to the lowest cell, which is cell order).  The root
        step keeps each cell's value, and each root cell's best point is
        decoded from the argmins, so no step's full term table is held.
        """
        angles = grid_cells(points)
        cells = len(angles)
        factors = _projector_coefficients(angles[:, 0], angles[:, 1]).reshape(2 * cells, 4)
        subtree, argmins = None, []
        for step in range(self.steps, 0, -1):
            # partial[p, q, i, k]: the depths before the last contracted, for
            # ancestor cells p and outcomes q (both row-major, oldest first)
            partial = self.tensors[step - 1].reshape(1, 1, 4, -1)
            for _ in range(step - 1):
                p, q, _, rest = partial.shape
                partial = (factors @ partial).reshape(p, q, cells, 2, 4, rest // 4)
                partial = partial.transpose(0, 2, 1, 3, 4, 5).reshape(
                    p * cells, 2 * q, 4, rest // 4
                )
            p, q = partial.shape[:2]
            best, cell = np.empty((p, q)), np.empty((p, q), dtype=np.intp)
            block = max(1, _GRID_BLOCK // (2 * q * cells))
            rule = _block_terms if step == self.steps and self.last_rule else _qubit_terms
            for first in range(0, p, block):
                terms = rule(factors @ partial[first:first + block], False)
                terms = terms.reshape(-1, q, cells, 2)
                node = terms[..., 0] + terms[..., 1]
                if subtree is not None:
                    below = subtree[first * cells:(first + block) * cells].reshape(-1, cells, q, 2)
                    node = node + (below[..., 0] + below[..., 1]).swapaxes(1, 2)
                at = node.argmin(axis=-1)
                cell[first:first + block] = at
                best[first:first + block] = np.take_along_axis(node, at[..., None], -1)[..., 0]
            subtree = best
            argmins.append(cell.reshape((cells,) * (step - 1) + (q,)))
        # the root step is one block, whose per-cell values are the roots
        roots = self.base + node[0, 0]

        # every node's cell, from the root down; the root step's own argmin,
        # argmins[-1], is not needed, since each root cell is kept
        node_cells = [np.arange(cells)[:, None]]
        for depth, cell in enumerate(argmins[-2::-1], start=1):
            q = np.arange(2 ** depth)
            ancestors = tuple(node_cells[k][:, q >> (depth - k)] for k in range(depth))
            node_cells.append(cell[ancestors + (q,)])
        params = angles[np.concatenate(node_cells, axis=1)].reshape(cells, -1)
        return roots, params


def _bloch_gradient(factors, coefficients, pulled) -> np.ndarray:
    """The integrand's derivative in every node's Bloch vector (rows x 3 per
    node, node-major), from each step's derivative in its branch
    coefficients (``pulled``): :func:`_branch_coefficients` run backwards
    gives the derivative in each node's projector coefficients, whose two
    outcomes carry +n / 2 and -n / 2."""
    rows = len(factors)
    out = np.empty_like(factors)
    grad = pulled[-1]
    for step in range(len(coefficients) - 1, 0, -1):
        nodes = _depth_nodes(step)
        split = grad.reshape(rows, 2 ** step, 2, 4 ** step, 4)
        out[:, nodes] = (coefficients[step - 1][:, :, None, None, :] @ split)[:, :, :, 0]
        grad = pulled[step - 1] + (split @ factors[:, nodes, :, :, None])[..., 0].sum(axis=2)
    out[:, 0] = grad
    return (out[:, :, 0, 1:] - out[:, :, 1, 1:]).reshape(rows, -1) / 2.0


def _normalize_order(measured_order, n: int) -> tuple[int, ...]:
    if measured_order is None:
        return tuple(range(n))
    order = [_integer(f"measured_order[{k}]", i) for k, i in enumerate(measured_order)]
    if len(set(order)) != len(order) or any(not 0 <= i < n for i in order):
        raise StructuralError(f"measurement order {order} is not a valid selection")
    order += [i for i in range(n) if i not in order]
    return tuple(order)


def _minimize(objective, cfg: OptimizerConfig):
    """Grid scan and quasi-Newton refinement (:func:`optimize`), followed by
    one downhill-simplex polish pass on the objective itself.

    Returns the best value and params plus bookkeeping for diagnostics."""
    outcome = optimize(objective, cfg)
    polished = simplex_refine(objective, outcome.best_params)
    # an unconverged pass never replaces a converged point, however little
    # lower it ends
    taken = polished.best_value < outcome.best_value and (
        polished.converged or not outcome.converged)
    best = polished if taken else outcome
    diagnostics = {
        "evaluations": outcome.evaluations + polished.evaluations,
        "restarts": 1,
        "converged": best.converged,
        "grid_best": outcome.grid_best,
        "best_objective_trace": [outcome.best_value, polished.best_value],
    }
    return best.best_value, best.best_params, diagnostics


def discord(
    state: QState,
    measured_order=None,
    level: int | None = None,
    config: OptimizerConfig | None = None,
) -> DiscordResult:
    """Minimize the level-N discord objective over measurement trees.

    ``measured_order`` lists subsystems in measurement order (a prefix is
    enough; remaining subsystems follow in ascending position).  The first
    ``level - 1`` of them are measured; everything else forms the final
    unmeasured party.  Returns the best value found even when the
    refinement did not converge, flagged through ``diagnostics['converged']``.
    """
    n = state.n_subsystems
    level = n if level is None else _integer("level", level)
    order = _normalize_order(measured_order, n)
    if order != tuple(range(n)):
        state = permute_subsystems(state, order)
    objective = _MeasuredEntropyObjective(state, level)
    cfg = config or OptimizerConfig()
    best_value, best_params, diagnostics = _minimize(objective, cfg)

    decomposition = None
    if level == 3 and n == 3:
        tree = tree_from_params(state.dims, tuple(range(level - 1)), best_params)
        decomposition = flux._decomposition(state, tree)

    diagnostics.update({"level": level, "measured_order": list(order)})
    return DiscordResult(
        value=best_value,
        optimal_params=best_params,
        decomposition=decomposition,
        diagnostics=diagnostics,
    )


def result_to_json(result: DiscordResult) -> str:
    payload = {
        "value": result.value,
        "params": json.loads(params_to_json(result.optimal_params)),
        "decomposition": result.decomposition,
        "diagnostics": result.diagnostics,
    }
    return json.dumps(payload, indent=2)


def result_from_json(text: str) -> DiscordResult:
    payload = json.loads(text)
    return DiscordResult(
        value=payload["value"],
        optimal_params=params_from_json(json.dumps(payload["params"])),
        decomposition=payload["decomposition"],
        diagnostics=payload["diagnostics"],
    )
