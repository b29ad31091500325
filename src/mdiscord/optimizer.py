"""Minimization over measurement angles: an exact grid minimum, then
quasi-Newton refinement.

A coarse Cartesian grid scan finds the grid minimum within each cell of the
root node's (theta, phi) grid and keeps the ``refine_starts`` best of those
root cells, each with its best grid point; quasi-Newton (BFGS) refinement
with exact gradients then takes each start downhill (Nocedal & Wright,
*Numerical Optimization*, 2006, ch. 6 and 8).  Everything is deterministic:
grids are enumerated lexicographically, value ties keep enumeration order,
and the refinement uses no randomness.

Objectives map a flat angle vector (theta, phi alternating, node-major) to a
scalar, and :func:`optimize` asks every objective for the same two methods.
``grid_tables(points)`` supplies per-branch term tables: the discord
integrand is a constant plus terms that each depend only on one branch's
ancestor nodes, so the grid minimum comes from dynamic programming over the
tree, and no grid point is valued on its own.  ``evaluate_many(rows,
gradient=True)`` values a matrix of angle vectors, one row each, and
returns their gradients as a second matrix; without ``gradient`` it returns
the values alone, which is all the simplex needs.

Refinement runs each start as a generator that yields the points it needs
next: one ladder of step lengths or one set of probe rings per request,
each row valued with its gradient.  :func:`optimize` advances its
``refine_starts`` runs in lockstep and values every pending point of every
unfinished run in one ``evaluate_many`` call per round; one batched call
costs about as much as a single-row one.  Each run compares only its own
values in its own order, and a batched row (value and gradient) equals the
single-row one bit for bit, so the results are those of refining the
starts one after another.

:class:`OptimizerConfig` sets the grid density and the number of starts.
The refinement's iteration cap ``QN_MAX_ITERS`` and step ladder
``QN_LINE_STEPS`` are fixed.  The downhill simplex of :func:`simplex_refine`
(Nelder & Mead 1965, capped at ``SIMPLEX_MAX_ITERS`` iterations, converged
below a value spread of ``SIMPLEX_TOL``) is kept for the polish passes of
:func:`mdiscord.discord.discord`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import MeasParams

_MAX_GRID_TOTAL = 100_000_000  # table values a grid scan may hold at once
_INITIAL_SIMPLEX_EDGE = 0.1
_PROBE_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5
SIMPLEX_MAX_ITERS = 400  # iterations of one simplex run
SIMPLEX_TOL = 1e-9       # value spread of a converged simplex
QN_MAX_ITERS = 200       # iterations of one quasi-Newton refinement
QN_LINE_STEPS = tuple(2.0 ** -k for k in range(-1, 12))  # 2, 1, ..., 2**-11


@dataclass(frozen=True)
class OptimizerConfig:
    grid_points_per_angle: int = 6
    refine_starts: int = 4

    def __post_init__(self):
        if self.grid_points_per_angle < 2:
            raise ValueError("grid_points_per_angle must be >= 2")
        if self.refine_starts < 1:
            raise ValueError("refine_starts must be >= 1")


@dataclass(frozen=True)
class OptimizerOutcome:
    best_value: float
    best_params: MeasParams
    evaluations: int
    converged: bool
    grid_best: float


def fold_angles(x: np.ndarray) -> np.ndarray:
    """Map a flat angle vector (or each row of a matrix of them) back into
    range: theta (even slots) reflected into [0, pi/2], phi (odd slots)
    wrapped mod 2 pi.

    The basis pair satisfies pair(pi - theta, phi + pi) = pair(theta, phi),
    so reflecting theta shifts the partner phi by pi; folding therefore
    relabels the same projector pair and never distorts the objective.
    """
    out = np.array(x, dtype=float)
    theta = np.mod(out[..., 0::2], np.pi)
    reflected = theta > np.pi / 2
    out[..., 0::2] = np.where(reflected, np.pi - theta, theta)
    out[..., 1::2] = np.mod(out[..., 1::2] + np.pi * reflected, 2 * np.pi)
    return out


def _angle_grids(n_nodes: int, points: int):
    theta_grid = np.linspace(0.0, np.pi / 2, points)
    phi_grid = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    grids = []
    for _ in range(n_nodes):
        grids.append(theta_grid)
        grids.append(phi_grid)
    return grids


@dataclass(frozen=True)
class GridScanResult:
    """The best grid starts, ascending by objective value."""

    values: np.ndarray   # the kept starts' values, ascending
    params: np.ndarray   # one flat angle vector per kept start
    evaluations: int     # grid points the exact minimum covers: the whole grid


def _tree_minimum(base: float, tables, points: int):
    """Every root cell's minimum of ``base`` plus the terms of ``tables``
    over the rest of the grid, and one grid point attaining it.

    ``tables[d][c_0, ..., c_d, b]`` is the term of outcome branch ``b`` of
    the depth-``d`` nodes when their ancestor at depth ``k`` sits in cell
    ``c_k`` (see ``grid_tables`` in :mod:`mdiscord.discord`).  Node ``q`` of
    a depth owns branches ``2q`` and ``2q + 1``, and child ``2q + j`` sees
    only its own ancestors' cells, so the minimum factorizes over subtrees:
    from the deepest nodes up, each node's two terms plus its children's
    subtree minima are minimized over the node's own cell, keeping the argmin
    (ties go to the lowest cell, which is grid order).  The best point of
    each root cell is decoded from those argmins.
    """
    def pairs(terms):
        return terms[..., 0::2] + terms[..., 1::2]

    argmins = []
    node = pairs(tables[-1])
    for table in tables[-2::-1]:
        cell = np.argmin(node, axis=-2)
        argmins.append(cell)
        subtree = np.take_along_axis(node, cell[..., None, :], axis=-2)[..., 0, :]
        node = pairs(table) + pairs(subtree)
    root = base + node[:, 0]

    cells = points * points
    node_cells = [np.arange(cells)[:, None]]
    for depth, cell in enumerate(reversed(argmins), start=1):
        q = np.arange(2 ** depth)
        ancestors = tuple(node_cells[k][:, q >> (depth - k)] for k in range(depth))
        node_cells.append(cell[ancestors + (q,)])
    flat = np.concatenate(node_cells, axis=1)
    theta_grid, phi_grid = _angle_grids(1, points)
    params = np.empty((cells, 2 * flat.shape[1]))
    params[:, 0::2] = theta_grid[flat // points]
    params[:, 1::2] = phi_grid[flat % points]
    return root, params


def grid_scan(objective, n_nodes: int, config: OptimizerConfig) -> GridScanResult:
    """The exact minimum of the objective over the full Cartesian angle grid,
    kept as its ``refine_starts`` best root cells.

    theta points include both endpoints of [0, pi/2]; phi points exclude
    2 pi.  The first parameter varies slowest, so flat index order is
    lexicographic parameter order.  A root cell is one (theta, phi) pair of
    the first node; each kept start is its root cell's best grid point, and
    the kept cells are the first ones of a stable sort of those minima (value
    ties in grid order, as are ties within a cell).

    The objective's ``grid_tables(points)`` supplies ``base`` and
    per-branch term tables, and the minimum comes from dynamic programming
    over the measurement tree (:func:`_tree_minimum`) without valuing any
    grid point on its own; ``evaluations`` is still the grid size.
    ``_MAX_GRID_TOTAL`` caps the values held at once: the largest table's
    ``(2 * points**2) ** depth`` for a tree of that depth.
    """
    points = config.grid_points_per_angle
    cells = points * points
    total = cells ** n_nodes
    depth = (n_nodes + 1).bit_length() - 1
    held = (2 * cells) ** depth
    if held > _MAX_GRID_TOTAL:
        raise ValueError(
            f"grid of {total} points needs {held} values at once, which is too "
            "large; lower grid_points_per_angle"
        )
    base, tables = objective.grid_tables(points)
    if len(tables) != depth or 2 ** depth - 1 != n_nodes:
        raise ValueError(
            f"objective tables span {len(tables)} depths, not a tree of "
            f"{n_nodes} nodes"
        )
    roots, params = _tree_minimum(base, tables, points)
    kept = np.argsort(roots, kind="stable")[:config.refine_starts]
    return GridScanResult(values=roots[kept], params=params[kept], evaluations=total)


def _nelder_mead(start):
    """The body of :func:`simplex_refine` as a generator: it yields each list
    of points it needs valued next and is sent their values as a list of
    floats, in the same order; it returns the :class:`OptimizerOutcome`.

    A run asks for its initial and rebuilt simplices, its shrinks and each
    probe ring as one list, and for a reflect, expand or contract point on
    its own, because whether it needs the next point depends on this one.
    """
    if isinstance(start, MeasParams):
        start = start.to_flat()
    x0 = fold_angles(np.asarray(start, dtype=float))
    n = x0.size
    nfe = 0

    def build_simplex(center, edge):
        points = [center]
        for i in range(n):
            step = np.zeros(n)
            step[i] = edge
            points.append(fold_angles(center + step))
        return points

    vertices = build_simplex(x0, _INITIAL_SIMPLEX_EDGE)
    values = yield vertices
    nfe += len(vertices)
    start_value = values[0]

    converged = False
    for _ in range(SIMPLEX_MAX_ITERS):
        order = np.argsort(values, kind="stable")
        vertices = [vertices[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < SIMPLEX_TOL:
            probe_point, probe_value, probe_scale = None, values[0], None
            for delta in _PROBE_STEPS:
                candidates = []
                for i in range(n):
                    for sign in (1.0, -1.0):
                        step = np.zeros(n)
                        step[i] = sign * delta
                        candidates.append(fold_angles(vertices[0] + step))
                candidate_values = yield candidates
                nfe += len(candidates)
                for candidate, candidate_value in zip(candidates, candidate_values):
                    if candidate_value < probe_value:
                        probe_point = candidate
                        probe_value = candidate_value
                        probe_scale = delta
                if probe_point is not None:
                    break
            if probe_point is None:
                converged = True
                break
            vertices = build_simplex(probe_point, probe_scale)
            values = [probe_value] + (yield vertices[1:])
            nfe += n
            continue

        centroid = np.mean(vertices[:-1], axis=0)
        reflected = fold_angles(centroid + _REFLECT * (centroid - vertices[-1]))
        (f_reflected,) = yield [reflected]
        nfe += 1
        if f_reflected < values[0]:
            expanded = fold_angles(centroid + _EXPAND * (centroid - vertices[-1]))
            (f_expanded,) = yield [expanded]
            nfe += 1
            if f_expanded < f_reflected:
                vertices[-1], values[-1] = expanded, f_expanded
            else:
                vertices[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            vertices[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = fold_angles(centroid + _CONTRACT * (reflected - centroid))
        else:
            contracted = fold_angles(centroid - _CONTRACT * (centroid - vertices[-1]))
        (f_contracted,) = yield [contracted]
        nfe += 1
        if f_contracted < min(f_reflected, values[-1]):
            vertices[-1], values[-1] = contracted, f_contracted
            continue
        best = vertices[0]
        for i in range(1, n + 1):
            vertices[i] = fold_angles(best + _SHRINK * (vertices[i] - best))
        values[1:] = yield vertices[1:]
        nfe += n

    best_index = int(np.argmin(values))
    best_value, best_vertex = values[best_index], vertices[best_index]
    if start_value <= best_value:
        best_value, best_vertex = start_value, x0
    return OptimizerOutcome(
        best_value=best_value,
        best_params=MeasParams.from_flat(best_vertex),
        evaluations=nfe,
        converged=converged,
        grid_best=start_value,
    )


def _coordinate_ring(n: int) -> np.ndarray:
    """Unit steps along each coordinate, both signs: +e_0, -e_0, +e_1, ..."""
    eye = np.eye(n)
    return np.stack([eye, -eye], axis=1).reshape(2 * n, n)


def _unfolded_gradient(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """A gradient valued at ``fold_angles(x)``, in the chart of ``x``
    itself: where the fold reflects theta, the theta slope changes sign
    (phi only shifts)."""
    reflected = np.mod(x[0::2], np.pi) > np.pi / 2
    out = np.array(grad, dtype=float)
    out[0::2] = np.where(reflected, -out[0::2], out[0::2])
    return out


def _quasi_newton(start):
    """Quasi-Newton (BFGS) refinement from ``start``, as a generator that
    yields each list of points it needs valued next and is sent their
    values (a list of floats, in the same order) together with their
    gradients (one row each); it returns the :class:`OptimizerOutcome`.

    The start is asked for alone.  An iteration asks for the whole ladder
    of ``QN_LINE_STEPS`` along -H g as one list, moves to its lowest point,
    whose gradient came with it, and updates the inverse Hessian estimate
    H.  When no rung lies below the current value, the per-coordinate probe
    rings of every ``_PROBE_STEPS`` size are asked for as one list: the
    lowest probe below it becomes the next point, and if none is below, the
    run has converged (the chart's flat edges, e.g. phi at theta = 0, are
    where a gradient test alone would stop short).  At most
    ``QN_MAX_ITERS`` iterations run.  The iterate stays unfolded, so steps
    and curvature pairs are smooth across the theta fold; only the rows
    asked for and the point returned are folded, which relabels the same
    projector pair, and each gradient is turned back into the unfolded
    chart.  Never returns a value above the start's.
    """
    x = np.array(start, dtype=float)
    n = x.size
    eye = np.eye(n)
    probes = np.concatenate([delta * _coordinate_ring(n) for delta in _PROBE_STEPS])

    values, grads = yield fold_angles(x[None, :])
    nfe = 1
    value = start_value = values[0]
    grad = _unfolded_gradient(x, grads[0])
    inverse, scaled = eye, False
    converged = False
    for _ in range(QN_MAX_ITERS):
        candidates = x + np.outer(QN_LINE_STEPS, -inverse @ grad)
        values, grads = yield fold_angles(candidates)
        nfe += len(candidates)
        best = int(np.argmin(values))
        if not values[best] < value:
            candidates = x + probes
            values, grads = yield fold_angles(candidates)
            nfe += len(candidates)
            best = int(np.argmin(values))
            if not values[best] < value:
                converged = True
                break
        x_next, value = candidates[best], values[best]
        next_grad = _unfolded_gradient(x_next, grads[best])
        s, y = x_next - x, next_grad - grad
        sy = s @ y
        if sy > 0:
            if not scaled:
                # Nocedal & Wright (6.20): size the first estimate to the
                # curvature seen along the first step
                inverse, scaled = (sy / (y @ y)) * eye, True
            v = eye - np.outer(s, y) / sy
            inverse = v @ inverse @ v.T + np.outer(s, s) / sy
        x, grad = x_next, next_grad
    return OptimizerOutcome(
        best_value=value,
        best_params=MeasParams.from_flat(fold_angles(x)),
        evaluations=nfe,
        converged=converged,
        grid_best=start_value,
    )


def _run_together(objective, runs, gradient: bool = False) -> list[OptimizerOutcome]:
    """Advance refinement generators in lockstep until each returns: runs
    of :func:`_quasi_newton` with ``gradient``, of :func:`_nelder_mead`
    without.

    Every round values the pending points of every unfinished run in one
    ``evaluate_many`` call (rows in run order) and sends each run its own
    values, with their gradients if asked.
    """
    outcomes = [None] * len(runs)
    pending = {index: next(run) for index, run in enumerate(runs)}
    while pending:
        rows = np.array([point for points in pending.values() for point in points])
        if gradient:
            values, grads = objective.evaluate_many(rows, gradient=True)
        else:
            values = objective.evaluate_many(rows)
        values = [float(v) for v in values]
        first = 0
        for index, points in list(pending.items()):
            own = values[first:first + len(points)]
            if gradient:
                own = (own, grads[first:first + len(points)])
            first += len(points)
            try:
                pending[index] = runs[index].send(own)
            except StopIteration as done:
                outcomes[index] = done.value
                del pending[index]
    return outcomes


def simplex_refine(objective, start) -> OptimizerOutcome:
    """Downhill simplex (Nelder-Mead) from ``start``.

    Coefficients are the classic (1, 2, 0.5, 0.5); every trial point is
    folded back into the angle ranges before evaluation; converged when the
    simplex value spread drops below ``SIMPLEX_TOL`` within
    ``SIMPLEX_MAX_ITERS`` iterations.  A small value spread alone is
    accepted only after per-coordinate probes of the best vertex at
    shrinking step sizes all fail to improve; an improving probe rebuilds
    the simplex at that scale and continues (the angle chart has exactly
    flat edges, e.g. phi at theta = 0, where an untested spread criterion
    stalls).  Never returns a value worse than the start.  The objective
    values its points through ``evaluate_many``, as in :func:`optimize`.
    """
    return _run_together(objective, [_nelder_mead(start)])[0]


def optimize(objective, n_nodes: int, config: OptimizerConfig | None = None) -> OptimizerOutcome:
    """Grid scan, then quasi-Newton refinement from the top candidates.

    The starts are refined in lockstep by :func:`_quasi_newton`, one
    batched call per round, each for at most ``QN_MAX_ITERS`` iterations.
    Deterministic for fixed config; the refined results are compared in grid
    rank order so ties keep the earlier (lexicographically smaller) start.
    ``converged`` describes the point returned: no probe of its rings lies
    below it.
    """
    config = config or OptimizerConfig()
    scan = grid_scan(objective, n_nodes, config)
    evaluations = scan.evaluations
    best: OptimizerOutcome | None = None
    starts = [_quasi_newton(start) for start in scan.params]
    for outcome in _run_together(objective, starts, gradient=True):
        evaluations += outcome.evaluations
        if best is None or outcome.best_value < best.best_value:
            best = outcome
    return OptimizerOutcome(
        best_value=best.best_value,
        best_params=best.best_params,
        evaluations=evaluations,
        converged=best.converged,
        grid_best=float(scan.values[0]),
    )
