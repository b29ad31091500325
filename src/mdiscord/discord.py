"""Optimized multipartite discord and its decomposition.

The discord of an N-party state for the measurement ordering A_1 -> A_2 ->
... -> A_{N-1} is the minimum over conditional measurement trees of

    - S_{A_2..A_N | A_1}(rho) + sum_k S_{A_k | measured prefix}(rho),

which is non-negative for every tree and zero exactly on measured states.
``objective_*`` evaluate that quantity for a given tree through the readable
:mod:`mdiscord.entropy_flux` path; :func:`discord` minimizes it with a
dedicated batched evaluator that contracts branch states directly and
tabulates per-branch terms over the angle grid, from which the grid scan
takes the exact grid minimum by dynamic programming over the tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import entropy_flux as flux
from .measure import (
    MeasParams,
    MeasurementTree,
    node_count,
    params_from_json,
    params_to_json,
    tree_from_params,
)
from .optimizer import OptimizerConfig, _angle_grids, optimize, simplex_refine
from .qstate import (
    QState,
    StructuralError,
    entropy,
    permute_subsystems,
    subsystem_entropy,
    x_log2_x,
)

_POLISH_PASSES = 2
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


def objective_npartite(state: QState, tree: MeasurementTree) -> float:
    """Discord integrand for the tree's measurement chain; the unmeasured
    tail of the state counts as the final party."""
    n = state.n_subsystems
    measured = tree.measured
    if measured != tuple(range(len(measured))):
        raise StructuralError("tree must measure the leading subsystems in order")
    if len(measured) >= n:
        raise StructuralError("at least one subsystem must stay unmeasured")
    rest_of_first = tuple(range(1, n))
    value = -flux.cond_entropy(state, rest_of_first, (0,))
    for depth in range(1, len(measured) + 1):
        if depth < len(measured):
            value += flux.cond_entropy_measured(state, tree, depth, target=(depth,))
        else:
            value += flux.cond_entropy_measured(state, tree, depth)
    return value


def objective_bipartite(state: QState, tree: MeasurementTree) -> float:
    """S_{B|measured A} - S_{B|A} where B is everything except subsystem 0."""
    if tree.measured[0] != 0:
        raise StructuralError("bipartite objective measures subsystem 0")
    rest = tuple(range(1, state.n_subsystems))
    return flux.cond_entropy_measured(state, tree, 1) - flux.cond_entropy(
        state, rest, (0,)
    )


def objective_tripartite(state: QState, tree: MeasurementTree) -> float:
    """- S_{BC|A} + S_{B|measured A} + S_{C|measured AB} for a 3-subsystem
    state measured A then B."""
    if state.n_subsystems != 3:
        raise StructuralError("tripartite objective needs exactly 3 subsystems")
    if tree.measured[:2] != (0, 1):
        raise StructuralError("tripartite objective measures subsystems 0 then 1")
    return objective_npartite(state, tree)


def objective_bipartite_two_meas(state: QState, tree: MeasurementTree) -> float:
    """Two-measurement bipartite form S_{B|A}(rho_m2) - S_{B|A}(rho);
    its minimum over trees equals the minimized single-measurement form."""
    if state.n_subsystems != 2:
        raise StructuralError("two-measurement objective is bipartite only")
    if tree.measured != (0, 1):
        raise StructuralError("two-measurement objective measures both qubits")
    from .measure import apply_tree

    rho2, _ = apply_tree(state, tree, 2)
    return flux.cond_entropy(rho2, (1,), (0,)) - flux.cond_entropy(state, (1,), (0,))


def _branch_entropy_qubit(blocks: np.ndarray) -> np.ndarray:
    """p * S(block / p) for every unnormalized 2x2 block, via closed-form
    eigenvalues."""
    a = blocks[..., 0, 0].real
    d = blocks[..., 1, 1].real
    off = blocks[..., 0, 1]
    trace = a + d
    det = a * d - (off.real ** 2 + off.imag ** 2)
    disc = np.sqrt(np.maximum(trace * trace - 4.0 * det, 0.0))
    whole, hi, lo = x_log2_x(np.stack([trace, (trace + disc) / 2.0, (trace - disc) / 2.0]))
    return whole - hi - lo


def _branch_entropy_block(blocks: np.ndarray) -> np.ndarray:
    """Same as :func:`_branch_entropy_qubit` for unnormalized blocks of any
    size."""
    vals = np.linalg.eigvalsh(blocks)
    trace = vals.sum(axis=-1)
    return x_log2_x(trace) - x_log2_x(vals).sum(axis=-1)


def _basis_vectors(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Basis vectors (outcome x component) for arrays of node angles."""
    phase = np.exp(1j * phi)
    cos, sin = np.cos(theta), np.sin(theta)
    vectors = np.empty(theta.shape + (2, 2), dtype=complex)
    vectors[..., 0, 0] = cos
    vectors[..., 0, 1] = phase * sin
    vectors[..., 1, 0] = sin
    vectors[..., 1, 1] = -phase * cos
    return vectors


def _depth_nodes(depth: int) -> slice:
    """The depth-``depth`` nodes of the node-major (breadth-first) order."""
    return slice(2 ** depth - 1, 2 ** (depth + 1) - 1)


def _measure_step(branches: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Project the leading qubit of every unnormalized branch onto both basis
    vectors; branch count doubles, qubit dimension drops out.

    For outcome j with basis vector v_j, the new branch is
    sum_{m, l} conj(v_j[m]) B[m, :, l, :] v_j[l], where B is the branch with
    its leading qubit split off on both sides.  It is taken as two batched
    ``matmul`` calls: the bra side over m, then the ket side over l.  These
    are the products ``np.einsum`` runs for this contraction, so the result
    is the same bit for bit, but einsum plans its path again on every call,
    which costs several times more than the products at the simplex's few
    rows.
    """
    nb, n_paths = branches.shape[:2]
    half = branches.shape[-1] // 2
    blocks = branches.reshape(nb, n_paths, 2, half, 2, half)
    rows = blocks.transpose(0, 1, 3, 4, 5, 2).reshape(nb, n_paths, 2 * half * half, 2)
    left = (rows @ vectors.conj().transpose(0, 1, 3, 2)).reshape(
        nb, n_paths, half, 2, half, 2
    )
    left = left.transpose(0, 1, 5, 2, 4, 3).reshape(nb, n_paths, 2, half * half, 2)
    return (left @ vectors[..., None]).reshape(nb, -1, half, half)


class _MeasuredEntropyObjective:
    """Batched discord integrand over flat angle vectors.

    Walks the measurement chain once per evaluation, keeping every outcome
    branch unnormalized (trace = path probability) so that entropy averages
    reduce to x log2 x sums; all branch contractions are batched numpy ops.
    After each of the ``steps`` measurement steps the branches' terms come
    from :meth:`_terms`, the one rule that both :meth:`evaluate_many` and
    :meth:`grid_tables` apply.  Agrees with :func:`objective_npartite` on
    the corresponding tree.
    """

    def __init__(self, state: QState, level: int):
        n = state.n_subsystems
        if not 2 <= level <= n:
            raise StructuralError(f"level must lie in [2, {n}], got {level}")
        for pos in range(level - 1):
            if state.dims[pos] != 2:
                raise StructuralError(f"measured subsystem {pos} is not a qubit")
        self.steps = level - 1
        self.n_nodes = node_count(self.steps)
        self.rho = np.asarray(state.matrix)
        self.base = -(entropy(state) - subsystem_entropy(state, (0,)))

    def __call__(self, x) -> float:
        return float(self.evaluate_many(np.asarray(x, dtype=float)[None, :])[0])

    def evaluate_many(self, params_matrix: np.ndarray) -> np.ndarray:
        params_matrix = np.asarray(params_matrix, dtype=float)
        out = np.empty(len(params_matrix))
        for start in range(0, len(params_matrix), _EVAL_CHUNK):
            stop = min(start + _EVAL_CHUNK, len(params_matrix))
            out[start:stop] = self._chunk(params_matrix[start:stop])
        return out

    def _chunk(self, chunk: np.ndarray) -> np.ndarray:
        nb = len(chunk)
        if chunk.shape[1] != 2 * self.n_nodes:
            raise StructuralError(
                f"expected {2 * self.n_nodes} angles per row, got {chunk.shape[1]}"
            )
        value = np.full(nb, self.base)
        vectors = _basis_vectors(chunk[:, 0::2], chunk[:, 1::2])
        branches = np.broadcast_to(self.rho, (nb, 1) + self.rho.shape)
        for step in range(1, self.steps + 1):
            branches = _measure_step(branches, vectors[:, _depth_nodes(step - 1)])
            value += self._terms(branches, step == self.steps).sum(axis=-1)
        return value

    def _terms(self, branches: np.ndarray, last: bool) -> np.ndarray:
        """Per-branch entropy terms (rows x branches) after one measurement
        step: of the next qubit alone at an intermediate step, of the whole
        unmeasured tail at the last one."""
        half = branches.shape[-1]
        if not last:
            quarter = half // 2
            six = branches.reshape(len(branches), -1, 2, quarter, 2, quarter)
            return _branch_entropy_qubit(np.einsum("npacbc->npab", six))
        if half == 2:
            return _branch_entropy_qubit(branches)
        return _branch_entropy_block(branches)

    def grid_tables(self, points: int) -> tuple[float, list[np.ndarray]]:
        """``base`` and the per-branch terms of the integrand on
        :func:`grid_scan`'s angle grid with ``points`` values per angle.

        ``tables[s - 1][c_0, ..., c_{s-1}, b]`` is the term of outcome branch
        ``b`` after step ``s`` when its ancestor node at depth ``d`` sits in
        cell ``c_d``, a (theta, phi) grid pair with theta slower.  A branch
        depends only on the nodes along its path, so each node's incoming
        branches are projected once per combination of ancestor cells, not
        once per grid point.  The integrand at a grid point is ``base`` plus
        every node's two terms under its own ancestors' cells; the largest
        table holds ``(2 * points**2) ** steps`` values.
        """
        theta_grid, phi_grid = _angle_grids(1, points)
        cells = points * points
        cell_vectors = _basis_vectors(
            np.repeat(theta_grid, points), np.tile(phi_grid, points)
        )
        # Incoming rows meet every cell in blocks of about _EVAL_CHUNK
        # projections, which bounds the temporaries as in evaluate_many.
        tables = []
        branches = np.broadcast_to(self.rho, (1, 1) + self.rho.shape)
        block = max(1, _EVAL_CHUNK // cells)
        for step in range(1, self.steps + 1):
            last = step == self.steps
            n_paths, half = branches.shape[1], branches.shape[-1] // 2
            rows = len(branches) * cells
            table = np.empty((rows, 2 * n_paths))
            if not last:
                projected = np.empty((rows, 2 * n_paths, half, half), dtype=complex)
            for first in range(0, len(branches), block):
                part = branches[first:first + block]
                count = len(part) * cells
                incoming = np.broadcast_to(
                    part[:, None], (len(part), cells) + part.shape[1:]
                )
                vectors = np.broadcast_to(
                    cell_vectors[None, :, None], (len(part), cells, n_paths, 2, 2)
                )
                outcomes = _measure_step(
                    incoming.reshape((count,) + part.shape[1:]),
                    vectors.reshape(count, n_paths, 2, 2),
                )
                done = slice(first * cells, first * cells + count)
                table[done] = self._terms(outcomes, last)
                if not last:
                    projected[done] = outcomes
            if not last:
                branches = projected
            tables.append(table.reshape((cells,) * step + (2 * n_paths,)))
        return self.base, tables


class _TwoMeasurementObjective(_MeasuredEntropyObjective):
    """Batched two-measurement bipartite integrand S_{B|A}(rho_m2) - S_{B|A}(rho).

    The walk measures both qubits of a 2-qubit state.  On the fully measured
    (hence classical) state the conditional entropy is the Shannon
    conditional entropy H(a, b) - H(a) of the outcome distribution, so the
    first step's branches add x log2 x of their probability p_a and the
    second step's subtract x log2 x of p_ab.
    """

    def __init__(self, state: QState):
        if state.n_subsystems != 2 or state.dims != (2, 2):
            raise StructuralError("two-measurement objective needs a 2-qubit state")
        super().__init__(state, 2)
        self.steps, self.n_nodes = 2, node_count(2)

    def _terms(self, branches: np.ndarray, last: bool) -> np.ndarray:
        probs = np.trace(branches, axis1=-2, axis2=-1).real
        return -x_log2_x(probs) if last else x_log2_x(probs)


class _ScaledObjective:
    """Multiply an objective by a constant so refinement near a shallow
    minimum sees values well above the simplex spread tolerance."""

    def __init__(self, objective, scale: float):
        self._objective = objective
        self.scale = scale

    def evaluate_many(self, params_matrix):
        return self.scale * self._objective.evaluate_many(params_matrix)


def _normalize_order(measured_order, n: int) -> tuple[int, ...]:
    if measured_order is None:
        return tuple(range(n))
    order = [int(i) for i in measured_order]
    if len(set(order)) != len(order) or any(not 0 <= i < n for i in order):
        raise StructuralError(f"measurement order {order} is not a valid selection")
    order += [i for i in range(n) if i not in order]
    return tuple(order)


def _minimize(objective, n_nodes: int, cfg: OptimizerConfig):
    """Grid scan and quasi-Newton refinement (:func:`optimize`), followed by
    rescaled downhill-simplex polish passes.

    Returns the best value and params plus bookkeeping for diagnostics."""
    outcome = optimize(objective, n_nodes, cfg)
    evaluations = outcome.evaluations
    trace = [outcome.best_value]
    best_value = outcome.best_value
    best_params = outcome.best_params
    converged = outcome.converged
    restarts = 0
    for _ in range(_POLISH_PASSES):
        # Rescale so a near-zero optimum is resolved far below the simplex
        # spread tolerance; the reported value is always the true objective.
        scale = 1.0 / max(abs(best_value), 1e-4)
        polished = simplex_refine(_ScaledObjective(objective, scale), best_params)
        evaluations += polished.evaluations
        restarts += 1
        polished_value = polished.best_value / scale
        trace.append(polished_value)
        # an unconverged pass never replaces a converged point, however
        # little lower it ends
        if polished_value < best_value and (polished.converged or not converged):
            best_value = polished_value
            best_params = polished.best_params
            converged = polished.converged
        else:
            break
    diagnostics = {
        "evaluations": evaluations,
        "restarts": restarts,
        "converged": converged,
        "grid_best": outcome.grid_best,
        "best_objective_trace": trace,
    }
    return best_value, best_params, diagnostics


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
    level = n if level is None else int(level)
    order = _normalize_order(measured_order, n)
    if order != tuple(range(n)):
        state = permute_subsystems(state, order)
    objective = _MeasuredEntropyObjective(state, level)
    cfg = config or OptimizerConfig()
    best_value, best_params, diagnostics = _minimize(objective, objective.n_nodes, cfg)

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


def discord_two_measurement(
    state: QState, config: OptimizerConfig | None = None
) -> DiscordResult:
    """Minimize the two-measurement bipartite form over full-depth trees.

    Equivalent after minimization to :func:`discord` at level 2 on the same
    two-qubit state; kept as an executable equivalence check.  The
    integrand is the discord walk over two steps with Shannon terms
    (:class:`_TwoMeasurementObjective`), so it takes the same exact grid
    minimum, refinement and polish as :func:`discord`.
    """
    objective = _TwoMeasurementObjective(state)
    best_value, best_params, diagnostics = _minimize(
        objective, objective.n_nodes, config or OptimizerConfig()
    )
    diagnostics.update({"level": 2, "measured_order": [0, 1]})
    return DiscordResult(
        value=best_value,
        optimal_params=best_params,
        decomposition=None,
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
