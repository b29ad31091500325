"""Minimization over measurement angles: an exact grid minimum, then
quasi-Newton refinement on the Bloch sphere.

A coarse Cartesian grid scan finds the grid minimum within each cell of the
root node's (theta, phi) grid and keeps the ``refine_starts`` best of those
root cells, each with its best grid point; quasi-Newton (BFGS) refinement
with exact gradients then takes each start downhill (Nocedal & Wright,
*Numerical Optimization*, 2006, ch. 6 and 8).  Everything is deterministic:
grids are enumerated lexicographically, value ties keep enumeration order,
and the refinement uses no randomness.

Objectives map a flat angle vector (theta, phi alternating, node-major) to a
scalar.  Every objective carries ``n_nodes``, the node count of its tree, and
:func:`optimize` asks every objective for the same two methods.
``grid_minimum(points)`` returns each root cell's least value on the grid
and a grid point attaining it: the discord integrand is a constant plus
terms that each depend only on one branch's ancestor nodes, so the
objective takes the grid minimum by dynamic programming over the tree, and
no grid point is valued on its own.  ``evaluate_many(rows,
gradient=True)`` values a matrix of angle vectors, one row each, and
returns as a second matrix each row's derivative in its nodes' Bloch
vectors n (:func:`_bloch_vectors`, three components per node, node-major);
without ``gradient`` it returns the values alone, which is all the simplex
needs.

Refinement works on one unnormalized vector u per node, n = u / |u|, where
the objective is smooth and has no flat edge (Absil, Mahony & Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008, ch. 3-4).
:func:`_quasi_newton` refines every start at once as one array program: the
iterates, gradients and inverse Hessian estimates are stacked over the
unfinished starts, each iteration values every start's ladder of step
lengths in one ``evaluate_many`` call (one batched call costs about as much
as a single-row one), and a start leaves the stack when it stops.  Each
start compares only its own values, and batched rows and stacked products
equal their one-start counterparts bit for bit, so the results are those of
refining the starts one after another.

:class:`OptimizerConfig` sets the grid density and the number of starts.
The refinement's iteration cap ``QN_MAX_ITERS`` and step ladder
``QN_LINE_STEPS`` are fixed.  The downhill simplex of :func:`simplex_refine`
(Nelder & Mead 1965, capped at ``SIMPLEX_MAX_ITERS`` iterations, converged
below a value spread of ``SIMPLEX_TOL``) serves the polish passes of
:func:`mdiscord.discord.discord`, which follow :func:`optimize`.  It is a
plain loop that values each iteration's four candidate points in one
``evaluate_many`` call, and its convergence probes count a point as lower
only when it beats the best vertex by more than rounding (``_PROBE_GAIN``,
relative), so where rounding happens to stop the simplex does not decide
how long it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import MeasParams
from .qstate import _integer

_MAX_GRID_TOTAL = 100_000_000  # branch terms a grid scan may value in one step
_INITIAL_SIMPLEX_EDGE = 0.1
_PROBE_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
_PROBE_GAIN = 1e-12  # relative drop below the best vertex a probe ring must beat
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
        for name in ("grid_points_per_angle", "refine_starts"):
            _integer(name, getattr(self, name))
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


def _bloch_vectors(theta, phi) -> np.ndarray:
    """The Bloch vector n = (sin 2t cos p, sin 2t sin p, cos 2t) of a node's
    outcome-0 projector (I + n . sigma) / 2, for every (theta, phi) pair;
    the components form a new last axis."""
    sin2 = np.sin(2.0 * theta)
    return np.stack([sin2 * np.cos(phi), sin2 * np.sin(phi), np.cos(2.0 * theta)], axis=-1)


def _angles(u: np.ndarray) -> np.ndarray:
    """Angle rows of per-node vectors u (three components per node, node-major,
    last axis), inverting :func:`_bloch_vectors` for n = u / |u|: theta =
    atan2(|u_xy|, u_z) / 2 in [0, pi/2], exact next to the poles where
    arccos is not, and phi = atan2(u_y, u_x) mod 2 pi."""
    x, y, z = u[..., 0::3], u[..., 1::3], u[..., 2::3]
    angles = [np.arctan2(np.hypot(x, y), z) / 2.0, np.mod(np.arctan2(y, x), 2 * np.pi)]
    return np.stack(angles, axis=-1).reshape(u.shape[:-1] + (-1,))


def _angle_grids(points: int):
    """The theta and phi grids of one node (see :func:`grid_scan`)."""
    theta_grid = np.linspace(0.0, np.pi / 2, points)
    phi_grid = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    return theta_grid, phi_grid


@dataclass(frozen=True)
class GridScanResult:
    """The best grid starts, ascending by objective value: the root cells of
    least grid minimum, each at a grid point attaining it."""

    values: np.ndarray   # the kept starts' values, ascending
    params: np.ndarray   # one flat angle vector per kept start
    evaluations: int     # grid points the exact minimum covers: the whole grid


def grid_scan(objective, config: OptimizerConfig) -> GridScanResult:
    """The exact minimum of the objective over the full Cartesian angle grid,
    kept as its ``refine_starts`` best root cells.

    theta points include both endpoints of [0, pi/2]; phi points exclude
    2 pi.  The first parameter varies slowest, so flat index order is
    lexicographic parameter order.  A root cell is one (theta, phi) pair of
    the first node; each kept start is its root cell's best grid point, and
    the kept cells are the first ones of a stable sort of those minima (value
    ties in grid order, as are ties within a cell).

    The objective's ``grid_minimum(points)`` gives every root cell's
    minimum and best point over its tree of ``n_nodes`` nodes, by dynamic
    programming over the measurement tree, without valuing any grid point
    on its own; ``evaluations`` is still the grid size.  ``_MAX_GRID_TOTAL``
    caps the branch terms the deepest step values, ``(2 * points**2) **
    depth`` for a tree of that depth; they are reduced block by block as
    they are made, so memory stays far below them.  The cap is checked on
    the terms of one node first, so a huge ``points`` is refused before any
    power of it is formed.
    """
    points = config.grid_points_per_angle
    cells = points * points
    depth = objective.n_nodes.bit_length()  # a tree of depth d has 2**d - 1 nodes
    if 2 * cells > _MAX_GRID_TOTAL or (2 * cells) ** depth > _MAX_GRID_TOTAL:
        raise ValueError(
            f"a grid of {points} points per angle needs more than {_MAX_GRID_TOTAL} "
            "branch terms, which is too large; lower grid_points_per_angle"
        )
    roots, params = objective.grid_minimum(points)
    kept = np.argsort(roots, kind="stable")[:config.refine_starts]
    return GridScanResult(values=roots[kept], params=params[kept],
                          evaluations=cells ** objective.n_nodes)


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
    stalls).  A probe improves only when it lies more than ``_PROBE_GAIN``
    times the best vertex's magnitude below it: a point lower by rounding
    alone would rebuild and re-converge the simplex again and again, until
    the iteration cap.  Never returns a value worse than the start.

    Every matrix of points is valued in one ``evaluate_many`` call: the
    initial simplex (n + 1 rows), an iteration's four candidates (4 rows), a
    shrink or a rebuilt simplex (n rows) and a probe ring (2n rows).  An
    iteration values all of its candidates at once, the reflection, the
    expansion, the inside contraction and the outside contraction (built
    from the folded reflection), and keeps at most one of them.  A batched
    row equals the single-row value bit for bit, so the run is the one that
    values only the candidates it compares; ``evaluations`` counts every
    row valued.
    """
    if isinstance(start, MeasParams):
        start = start.to_flat()
    x0 = fold_angles(np.asarray(start, dtype=float))
    n = x0.size
    axes = np.eye(n)
    ring = np.zeros((2 * n, n))  # +e_0, -e_0, +e_1, -e_1, ...
    ring[np.arange(2 * n), np.repeat(np.arange(n), 2)] = np.tile([1.0, -1.0], n)
    moves = np.array([[_REFLECT], [_EXPAND], [-_CONTRACT]])

    vertices = np.vstack([x0, fold_angles(x0 + _INITIAL_SIMPLEX_EDGE * axes)])
    values = objective.evaluate_many(vertices)
    nfe = len(vertices)
    start_value = values[0]

    converged = False
    for _ in range(SIMPLEX_MAX_ITERS):
        order = np.argsort(values, kind="stable")
        vertices, values = vertices[order], values[order]
        if values[-1] - values[0] < SIMPLEX_TOL:
            # a point lower by rounding alone is no improvement
            probe_value = values[0] - _PROBE_GAIN * abs(values[0])
            probe_point = None
            for delta in _PROBE_STEPS:
                candidates = fold_angles(vertices[0] + delta * ring)
                candidate_values = objective.evaluate_many(candidates)
                nfe += len(candidates)
                best = int(np.argmin(candidate_values))
                if candidate_values[best] < probe_value:
                    probe_point, probe_value = candidates[best], candidate_values[best]
                    break
            if probe_point is None:
                converged = True
                break
            rebuilt = fold_angles(probe_point + delta * axes)
            vertices = np.vstack([probe_point, rebuilt])
            values = np.concatenate([[probe_value], objective.evaluate_many(rebuilt)])
            nfe += n
            continue

        centroid = np.mean(vertices[:-1], axis=0)
        reflected, expanded, inside = fold_angles(centroid + moves * (centroid - vertices[-1]))
        outside = fold_angles(centroid + _CONTRACT * (reflected - centroid))
        f_reflected, f_expanded, f_inside, f_outside = objective.evaluate_many(
            np.vstack([reflected, expanded, inside, outside]))
        nfe += 4
        if f_reflected < values[0]:
            kept = (expanded, f_expanded) if f_expanded < f_reflected else (reflected, f_reflected)
        elif f_reflected < values[-2]:
            kept = (reflected, f_reflected)
        else:
            kept = (outside, f_outside) if f_reflected < values[-1] else (inside, f_inside)
            if not kept[1] < min(f_reflected, values[-1]):
                kept = None
        if kept is not None:
            vertices[-1], values[-1] = kept
            continue
        vertices[1:] = fold_angles(vertices[0] + _SHRINK * (vertices[1:] - vertices[0]))
        values[1:] = objective.evaluate_many(vertices[1:])
        nfe += n

    best_index = int(np.argmin(values))
    best_value, best_vertex = float(values[best_index]), vertices[best_index]
    if start_value <= best_value:
        best_value, best_vertex = float(start_value), x0
    return OptimizerOutcome(
        best_value=best_value,
        best_params=MeasParams.from_flat(best_vertex),
        evaluations=nfe,
        converged=converged,
        grid_best=float(start_value),
    )


def _sphere_gradient(u: np.ndarray, bloch_grad: np.ndarray) -> np.ndarray:
    """The gradient in u of f(u / |u|), node by node, from the derivative
    ``bloch_grad`` of f in n: (I - n n^T) df/dn / |u|; one row per start
    for rows of u (three components per node, node-major, last axis)."""
    rows = u.shape[:-1]
    u, bloch_grad = u.reshape(rows + (-1, 3)), bloch_grad.reshape(rows + (-1, 3))
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    n = u / norm
    grad = (bloch_grad - np.sum(n * bloch_grad, axis=-1, keepdims=True) * n) / norm
    return grad.reshape(rows + (-1,))


def _quasi_newton(objective, starts) -> list[OptimizerOutcome]:
    """Quasi-Newton (BFGS) refinement from each row of ``starts``, all at
    once: one :class:`OptimizerOutcome` per start, in order.

    Each start's iterate is one unnormalized vector u per node, starting
    at the start's Bloch vectors, and the rows valued are the angles of u /
    |u| (:func:`_angles`), so the chart has no fold and no flat edge (phi
    at theta = 0 is just a point of the sphere).  The iterates, their
    gradients in u, their inverse Hessian estimates H and their values are
    arrays with one entry per unfinished start.  The starts are valued as
    given, in one ``evaluate_many`` call with gradients.  Each iteration
    then values the ladder of ``QN_LINE_STEPS`` along -H g of every
    unfinished start in one call, moves each to its lowest rung, whose
    gradient came with it, and updates each H in u by stacked products
    (skipped for a start whose step shows no positive curvature, s . y <=
    0).  A start none of whose rungs lies below its current value has
    converged and leaves the arrays.  At most ``QN_MAX_ITERS`` iterations
    run.  The point returned is a row that was valued, so its value is the
    one reported; never returns a value above the start's.

    Each start compares only its own values, and a batched row (value and
    gradient) equals the single-row one bit for bit, as do the stacked
    products and the per-start ones, so every outcome is that of refining
    its start alone.
    """
    row = np.array(starts, dtype=float)
    u = _bloch_vectors(row[:, 0::2], row[:, 1::2]).reshape(len(row), -1)
    eye = np.eye(u.shape[1])
    ladder = np.array(QN_LINE_STEPS)[:, None]
    rungs = len(ladder)

    value, grads = objective.evaluate_many(row, gradient=True)
    grad = _sphere_gradient(u, grads)
    start_value = value
    inverse = np.repeat(eye[None], len(row), axis=0)
    scaled = np.zeros(len(row), dtype=bool)
    live = np.arange(len(row))  # the original index of each unfinished start
    outcomes = [None] * len(row)

    def finish(index, converged, iterations):
        # the outcomes of unfinished starts ``index`` at their current points
        for k in index:
            outcomes[live[k]] = OptimizerOutcome(
                best_value=float(value[k]),
                best_params=MeasParams.from_flat(row[k]),
                evaluations=1 + iterations * rungs,
                converged=converged,
                grid_best=float(start_value[k]),
            )

    for iteration in range(1, QN_MAX_ITERS + 1):
        step = ((-inverse) @ grad[:, :, None]).swapaxes(-1, -2)
        candidates = (u[:, None, :] + ladder * step).reshape(-1, u.shape[1])
        rows = _angles(candidates)
        values, grads = objective.evaluate_many(rows, gradient=True)
        # the row of each start's lowest rung (the first of equal ones)
        pick = values.reshape(-1, rungs).argmin(axis=1) + rungs * np.arange(len(u))
        lower = values.take(pick) < value
        if not lower.all():
            finish(np.flatnonzero(~lower), True, iteration)
            at = np.flatnonzero(lower)
            if not at.size:
                return outcomes
            live, u, grad, inverse, scaled, start_value, pick = (
                a[at] for a in (live, u, grad, inverse, scaled, start_value, pick))
        u_next, row, value = candidates.take(pick, 0), rows.take(pick, 0), values.take(pick)
        next_grad = _sphere_gradient(u_next, grads.take(pick, 0))
        s, y = u_next - u, next_grad - grad
        sy = (s[:, None, :] @ y[:, :, None])[:, 0, 0]
        # a start whose step shows no positive curvature keeps its estimate
        curved = sy > 0
        first = curved & ~scaled
        if first.any():
            # Nocedal & Wright (6.20): size the first estimate to the
            # curvature seen along the first step
            yy = y[first, None, :] @ y[first, :, None]
            inverse[first] = sy[first, None, None] / yy * eye
            scaled |= first
        # a slice when every start updates: fancy indexing would copy
        update = slice(None) if curved.all() else np.flatnonzero(curved)
        s, y, sy = s[update], y[update], sy[update, None, None]
        v = eye - s[:, :, None] * y[:, None, :] / sy
        inverse[update] = (v @ inverse[update] @ v.swapaxes(-1, -2)
                           + s[:, :, None] * s[:, None, :] / sy)
        u, grad = u_next, next_grad
    finish(range(len(live)), False, QN_MAX_ITERS)
    return outcomes


def optimize(objective, config: OptimizerConfig) -> OptimizerOutcome:
    """Grid scan, then quasi-Newton refinement from the top candidates.

    The starts are refined together by :func:`_quasi_newton`, one batched
    call per iteration, each for at most ``QN_MAX_ITERS`` iterations.
    Deterministic for fixed config; the refined results are compared in grid
    rank order so ties keep the earlier (lexicographically smaller) start.
    ``converged`` describes the point returned: no rung of its last ladder
    along -H g lies below it.
    """
    scan = grid_scan(objective, config)
    evaluations = scan.evaluations
    best: OptimizerOutcome | None = None
    for outcome in _quasi_newton(objective, scan.params):
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
