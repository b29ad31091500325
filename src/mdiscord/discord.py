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
    _level,
    node_count,
    params_from_json,
    params_to_json,
    tree_from_params,
)
from .optimizer import OptimizerConfig, _bloch_vectors, grid_cells, optimize, simplex_refine
from .qstate import (
    QState,
    StructuralError,
    _integer,
    _subset,
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
_GRID_BLOCK = 1 << 18  # branch components the grid minimum values at once


def _qubit_terms(comps: np.ndarray, slopes: bool):
    """p * S(B / p) for unnormalized 2x2 blocks B = (t_0 I + t . sigma) / 2,
    given by their Pauli components (t_0, t_x, t_y, t_z), through the
    closed-form eigenvalues (t_0 +- |t|) / 2.  With ``slopes``, also each
    term's derivative in the four components."""
    # the four components as rows, each across every block
    pauli = comps.reshape(-1, 4).T
    t_0, t_x, t_y, t_z = pauli
    radius = t_x * t_x
    radius += t_y * t_y
    radius += t_z * t_z
    np.sqrt(radius, out=radius)
    # trace, then the eigenvalues (t_0 + |t|) / 2 and (t_0 - |t|) / 2, as
    # (t_0 + |t| * (0, 1, -1)) * (1, 1/2, 1/2)
    spectrum = np.empty((3, len(radius)))
    trace, high, low = spectrum
    np.multiply(radius, 0.0, out=trace)
    trace += t_0
    np.add(t_0, radius, out=high)
    high *= 0.5
    np.subtract(t_0, radius, out=low)
    low *= 0.5
    if not slopes:
        parts = x_log2_x(spectrum)
        return (parts[0] - parts[1] - parts[2]).reshape(comps.shape[:-1])
    parts, (d_trace, d_high, d_low) = x_log2_x(spectrum, slope=True)
    # d|t| = t . dt / |t|; at |t| = 0 both eigenvalues share one slope, so
    # the direction drops out
    grad = np.zeros((4, len(radius)))
    np.divide(pauli[1:], radius, out=grad[1:], where=radius > 0)
    grad[1:] *= (d_low - d_high) / 2.0
    np.add(d_high, d_low, out=grad[0])
    grad[0] /= 2.0
    np.subtract(d_trace, grad[0], out=grad[0])
    terms = (parts[0] - parts[1] - parts[2]).reshape(comps.shape[:-1])
    return terms, np.ascontiguousarray(grad.T).reshape(comps.shape)


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
    whole, d_whole = x_log2_x(vals.sum(axis=-1), slope=True)
    parts, d_parts = x_log2_x(vals, slope=True)
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


def _projector_coefficients(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Pauli coefficients (I, X, Y, Z) of both projectors of every node,
    shape (..., 2, 4): outcome j projects on (I + s_j n . sigma) / 2 with
    s_0 = 1, s_1 = -1 and n the node's Bloch vector (:func:`_bloch_vectors`)."""
    out = np.empty(theta.shape + (2, 4))
    out[..., 0] = 0.5
    half = _bloch_vectors(theta, phi, out[..., 0, 1:])
    half /= 2.0
    np.negative(half, out=out[..., 1, 1:])
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
                rows, 2 ** (step + 1), 4 ** (step + 1)
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
    tensors = [blocks[s + 1].trace(axis1=-2, axis2=-1).real.reshape(4 ** s, 4)
               for s in range(1, steps)]
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

    def __init__(self, state: QState, level: int | None):
        self.steps = _level(state.dims, level) - 1
        self.n_nodes = node_count(self.steps)
        self.rho = np.asarray(state.matrix)
        # S(rho) and S(rho_A), keyed as the entropy table of the decomposition
        # (entropy_flux._decomposition), which reads them too
        whole = tuple(range(state.n_subsystems))
        self.entropies = {whole: entropy(state), (0,): subsystem_entropy(state, _subset((0,)))}
        self.base = -(self.entropies[whole] - self.entropies[(0,)])
        self.tensors = _step_tensors(self.rho, self.steps)
        # whether the last step's terms follow a rule of their own
        self.last_rule = self.tensors[-1].shape[1] != 4
        # the steps of the qubit rule are valued in one call, branches side
        # by side: the 2**s branches of step s at columns 2**s - 2 on
        shared = self.steps - 1 if self.last_rule else self.steps
        self.columns = [slice(2 ** s - 2, 2 ** (s + 1) - 2) for s in range(1, shared + 1)]

    def __call__(self, x) -> float:
        return float(self.evaluate_many(np.asarray(x, dtype=float)[None, :])[0])

    def evaluate_many(self, params_matrix: np.ndarray, gradient: bool = False):
        """The integrand of every row; with ``gradient``, also its derivative
        in each node's Bloch vector n, as a second array with three columns
        per node (node-major).  A row holding a non-finite angle is refused
        with the ValueError of :class:`MeasParams`."""
        params_matrix = np.asarray(params_matrix, dtype=float)
        if len(params_matrix) <= _EVAL_CHUNK:
            return self._chunk(params_matrix, gradient)
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
        """:meth:`evaluate_many` of at most ``_EVAL_CHUNK`` rows."""
        if chunk.shape[1] != 2 * self.n_nodes:
            raise StructuralError(
                f"expected {2 * self.n_nodes} angles per row, got {chunk.shape[1]}"
            )
        if not np.isfinite(chunk).all():
            raise ValueError("angles must be finite")
        factors = _projector_coefficients(chunk[:, 0::2], chunk[:, 1::2])
        coefficients = _branch_coefficients(factors, self.steps)
        value, slopes = self.base, []
        if self.columns:
            comps = np.empty((len(chunk), self.columns[-1].stop, 4))
            for columns, coeff, tensor in zip(self.columns, coefficients, self.tensors):
                np.matmul(coeff, tensor, out=comps[:, columns])
            terms = _qubit_terms(comps, gradient)
            if gradient:
                terms, slope = terms
                slopes = [slope[:, columns] for columns in self.columns]
            value = value + terms.sum(axis=-1)
        if self.last_rule:
            terms = _block_terms(coefficients[-1] @ self.tensors[-1], gradient)
            if gradient:
                terms, slope = terms
                slopes.append(slope)
            value = value + terms.sum(axis=-1)
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
        first, in blocks of about ``_GRID_BLOCK`` branch components; each
        block is reduced as it is made: every node's two terms plus its
        children's subtree minima, minimized over the node's own cell with
        the argmin kept (ties go to the lowest cell, which is cell order).
        The root step keeps each cell's value, so its blocks split its own
        cells, and each root cell's best point is decoded from the argmins,
        so no step's full term table is held.
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
            p, q, _, width = partial.shape
            rule = _block_terms if step == self.steps and self.last_rule else _qubit_terms
            if step == 1:
                # the root step keeps each cell's value, so its blocks split
                # its own cells, about _GRID_BLOCK branch components each
                block = max(1, _GRID_BLOCK // (2 * width))
                roots = np.empty(cells)
                for first in range(0, cells, block):
                    below = None if subtree is None else subtree[first:first + block]
                    node = _node_values(rule, factors[2 * first:2 * (first + block)],
                                        partial, below)
                    roots[first:first + block] = self.base + node[0, 0]
                break
            # blocks of ancestor cells, about _GRID_BLOCK branch components each
            block = max(1, _GRID_BLOCK // (2 * q * cells * width))
            best, cell = np.empty((p, q)), np.empty((p, q), dtype=np.intp)
            for first in range(0, p, block):
                below = None if subtree is None else \
                    subtree[first * cells:(first + block) * cells]
                node = _node_values(rule, factors, partial[first:first + block], below)
                at = node.argmin(axis=-1)
                cell[first:first + block] = at
                best[first:first + block] = np.take_along_axis(node, at[..., None], -1)[..., 0]
            subtree = best
            argmins.append(cell.reshape((cells,) * (step - 1) + (q,)))

        # every node's cell, from the root down
        node_cells = [np.arange(cells)[:, None]]
        for depth, cell in enumerate(argmins[::-1], start=1):
            q = np.arange(2 ** depth)
            ancestors = tuple(node_cells[k][:, q >> (depth - k)] for k in range(depth))
            node_cells.append(cell[ancestors + (q,)])
        params = angles[np.concatenate(node_cells, axis=1)].reshape(cells, -1)
        return roots, params


def _node_values(rule, factors, partial, below) -> np.ndarray:
    """Every node's two branch terms plus its children's subtree minima, for
    the ancestor rows ``partial`` (b x q x 4 x components) and the cells
    whose projector coefficients ``factors`` holds (2 per cell): b x q x
    cells.  ``below`` holds the children's minima, a row per (ancestor,
    cell) and a column per child, or is None at the deepest step."""
    b, q = partial.shape[:2]
    terms = rule(factors @ partial, False).reshape(b, q, -1, 2)
    node = terms[..., 0] + terms[..., 1]
    if below is not None:
        below = below.reshape(b, -1, q, 2)
        node = node + (below[..., 0] + below[..., 1]).swapaxes(1, 2)
    return node


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
        np.matmul(coefficients[step - 1][:, :, None, None, :], split,
                  out=out[:, nodes, :, None, :])
        grad = (split @ factors[:, nodes, :, :, None])[..., 0].sum(axis=2)
        grad += pulled[step - 1]
    out[:, 0] = grad
    grad = np.subtract(out[:, :, 0, 1:], out[:, :, 1, 1:]).reshape(rows, 3 * factors.shape[1])
    grad /= 2.0
    return grad


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
    order = _normalize_order(measured_order, n)
    if order != tuple(range(n)):
        state = permute_subsystems(state, order)
    objective = _MeasuredEntropyObjective(state, level)
    level = objective.steps + 1
    cfg = config or OptimizerConfig()
    best_value, best_params, diagnostics = _minimize(objective, cfg)

    decomposition = None
    if level == 3 and n == 3:
        tree = tree_from_params(state.dims, _subset((0, 1)), best_params)
        decomposition = flux._decomposition(state, tree, objective.entropies)

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
