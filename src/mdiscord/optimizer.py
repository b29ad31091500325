"""Minimization over measurement angles: an exact grid minimum, then
quasi-Newton refinement on the Bloch sphere.

Each node's grid is :func:`grid_cells`, one (theta, phi) cell per qubit
measurement of a Cartesian angle grid.  A grid scan finds the grid minimum
within each cell of the root node and keeps the ``refine_starts`` best of
those root cells, each with its best grid point; quasi-Newton (BFGS)
refinement with exact gradients then takes each start downhill (Nocedal &
Wright, *Numerical Optimization*, 2006, ch. 6 and 8).  Everything is
deterministic: cells are enumerated in a fixed order, value ties keep that
order, and the refinement uses no randomness.

Objectives map a flat angle vector (theta, phi alternating, node-major) to a
scalar.  Every objective carries ``n_nodes``, the node count of its tree, and
:func:`optimize` asks every objective for the same two methods.
``grid_minimum(points)`` returns, for each root cell of :func:`grid_cells`,
the least value over the trees whose nodes all sit in those cells and a
grid point attaining it: the discord integrand is a constant plus
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
``QN_LINE_STEPS`` are fixed; a start's ladder doubles while its longest
rung wins.  The downhill simplex of :func:`simplex_refine`
(Nelder & Mead 1965, capped at ``SIMPLEX_MAX_ITERS`` iterations, converged
below a value spread of ``SIMPLEX_TOL``) serves the one polish pass of
:func:`mdiscord.discord.discord`, which follows :func:`optimize`.  It is a
plain loop that values each iteration's four candidate points in one
``evaluate_many`` call, and its convergence probes count a point as lower
only when it beats the best vertex by more than rounding (``_PROBE_GAIN``,
relative), so where rounding happens to stop the simplex does not decide
how long it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import _integer

_MAX_GRID_TOTAL = 100_000_000  # branch terms a grid scan may value in one step
_MAX_GRID_CELLS = 2_000_000  # cells per node: a level-2 scan keeps about 120 bytes each
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
    """The grid density and the number of refinement starts.  A grid with
    fewer cells (:func:`grid_cells`) than ``refine_starts`` refines one
    start per cell: 2 points per angle give one cell."""

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
    best_row: np.ndarray  # the flat angle row valued at best_value, read-only
    evaluations: int
    converged: bool
    grid_best: float


def _frozen(row) -> np.ndarray:
    """A read-only copy of one flat angle row."""
    row = np.array(row, dtype=float)
    row.flags.writeable = False
    return row


def fold_angles(x: np.ndarray) -> np.ndarray:
    """Map a flat angle vector (or each row of a matrix of them) back into
    range: theta (even slots) reflected into [0, pi/2], phi (odd slots)
    wrapped mod 2 pi.

    The basis pair satisfies pair(pi - theta, phi + pi) = pair(theta, phi),
    so reflecting theta shifts the partner phi by pi; folding therefore
    relabels the same projector pair and never distorts the objective.
    """
    return _fold(np.array(x, dtype=float))


def _fold(x: np.ndarray) -> np.ndarray:
    """:func:`fold_angles` in place, on an array that nothing else holds."""
    theta, phi = x[..., 0::2], x[..., 1::2]
    np.mod(theta, np.pi, out=theta)
    reflected = theta > np.pi / 2
    np.copyto(theta, np.pi - theta, where=reflected)
    np.add(phi, np.pi * reflected, out=phi)
    np.mod(phi, 2 * np.pi, out=phi)
    return x


def _bloch_vectors(theta, phi, out=None) -> np.ndarray:
    """The Bloch vector n = (sin 2t cos p, sin 2t sin p, cos 2t) of a node's
    outcome-0 projector (I + n . sigma) / 2, for every (theta, phi) pair;
    the components form a new last axis, written to ``out`` when given."""
    if out is None:
        out = np.empty(theta.shape + (3,))
    twice = np.multiply(theta, 2.0)
    np.cos(twice, out=out[..., 2])
    sin2 = np.sin(twice, out=twice)
    np.multiply(sin2, np.cos(phi, out=out[..., 0]), out=out[..., 0])
    np.multiply(sin2, np.sin(phi, out=out[..., 1]), out=out[..., 1])
    return out


def _angles(u: np.ndarray) -> np.ndarray:
    """Angle rows of per-node vectors u (three components per node, node-major,
    last axis), inverting :func:`_bloch_vectors` for n = u / |u|: theta =
    atan2(|u_xy|, u_z) / 2 in [0, pi/2], exact next to the poles where
    arccos is not, and phi = atan2(u_y, u_x) mod 2 pi."""
    x, y, z = u[..., 0::3], u[..., 1::3], u[..., 2::3]
    out = np.empty(x.shape + (2,))
    theta, phi = out[..., 0], out[..., 1]
    np.arctan2(np.hypot(x, y), z, out=theta)
    theta /= 2.0
    np.mod(np.arctan2(y, x, out=phi), 2 * np.pi, out=phi)
    return out.reshape(u.shape[:-1] + (-1,))


def _interior_rows(points: int) -> int:
    """How many theta rows follow the pole cell in :func:`grid_cells`."""
    return points // 2 - 1 if points % 2 == 0 else points - 2


def grid_cells(points: int) -> np.ndarray:
    """One node's grid cells, one (theta, phi) row per qubit measurement.

    The angle grid has ``points`` values per angle: theta includes both
    endpoints of [0, pi/2] and phi excludes 2 pi.  The Bloch vectors n and
    -n give the same projector pair with the outcomes swapped, so the grid
    is kept up to sign: first the pole cell (0, 0), which stands for both
    pole rows (+-z), then the interior theta rows, theta slower, each with
    every phi.  On an even grid these are rows 1 .. points/2 - 1, since row
    points - 1 - i at phi + pi holds the antipodes of row i; on an odd grid,
    whose phi grid holds no phi + pi, they are rows 1 .. points - 2.
    """
    theta = np.linspace(0.0, np.pi / 2, points)[1:1 + _interior_rows(points)]
    phi = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    rows = np.stack([np.repeat(theta, points), np.tile(phi, len(theta))], axis=1)
    return np.vstack([np.zeros((1, 2)), rows])


@dataclass(frozen=True)
class GridScanResult:
    """The best grid starts, ascending by objective value: the root cells of
    least grid minimum, each at a grid point attaining it."""

    values: np.ndarray   # the kept starts' values, ascending
    params: np.ndarray   # one flat angle vector per kept start
    evaluations: int     # grid points the exact minimum covers: the whole grid


def grid_scan(objective, config: OptimizerConfig) -> GridScanResult:
    """The exact minimum of the objective over the grid of trees whose
    nodes all sit in :func:`grid_cells`, kept as its ``refine_starts`` best
    root cells.

    A root cell is one cell of the first node; each kept start is its root
    cell's best grid point, and the kept cells are the first ones of a
    stable sort of those minima (value ties in cell order, as are ties
    within a cell).  Every cell is a distinct measurement, so no two starts
    refine the same one.

    The objective's ``grid_minimum(points)`` gives every root cell's
    minimum and best point over its tree of ``n_nodes`` nodes, by dynamic
    programming over the measurement tree, without valuing any grid point
    on its own; ``evaluations`` is still the grid size, ``cells **
    n_nodes``.  ``_MAX_GRID_TOTAL`` caps the branch terms the deepest step
    values, ``(2 * cells) ** depth`` for a tree of that depth; they are
    reduced block by block as they are made, so memory stays far below
    them.  What does grow with the cells, each root cell's value and grid
    point and the cells' own coefficients, is capped by
    ``_MAX_GRID_CELLS``, which binds at level 2 alone.  Both caps are
    checked in integer arithmetic, on the cells of one node first, so a
    huge ``points`` is refused before any power of it or any array is
    formed.
    """
    points = int(config.grid_points_per_angle)  # a numpy integer would wrap
    cells = 1 + points * _interior_rows(points)
    depth = objective.n_nodes.bit_length()  # a tree of depth d has 2**d - 1 nodes
    if cells > _MAX_GRID_CELLS or (2 * cells) ** depth > _MAX_GRID_TOTAL:
        raise ValueError(
            f"a grid of {points} points per angle needs more than {_MAX_GRID_TOTAL} "
            f"branch terms or {_MAX_GRID_CELLS} cells per node, which is too large; "
            "lower grid_points_per_angle"
        )
    roots, params = objective.grid_minimum(points)
    kept = np.argsort(roots, kind="stable")[:config.refine_starts]
    return GridScanResult(values=roots[kept], params=params[kept],
                          evaluations=cells ** objective.n_nodes)


def simplex_refine(objective, start) -> OptimizerOutcome:
    """Downhill simplex (Nelder-Mead) from ``start``, a flat angle row.

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
    row valued.  A start holding a non-finite angle is refused with a
    ValueError before anything is valued.
    """
    x0 = np.asarray(start, dtype=float)
    if not np.isfinite(x0).all():
        raise ValueError("angles must be finite")
    x0 = fold_angles(x0)
    n = x0.size
    axes = np.eye(n)
    ring = np.zeros((2 * n, n))  # +e_0, -e_0, +e_1, -e_1, ...
    ring[np.arange(2 * n), np.repeat(np.arange(n), 2)] = np.tile([1.0, -1.0], n)
    moves = np.array([[_REFLECT], [_EXPAND], [-_CONTRACT]])

    vertices = np.vstack([x0, x0 + _INITIAL_SIMPLEX_EDGE * axes])
    _fold(vertices[1:])
    values = objective.evaluate_many(vertices)
    nfe = len(vertices)
    start_value = values[0]

    converged = False
    for _ in range(SIMPLEX_MAX_ITERS):
        order = values.argsort(kind="stable")
        vertices, values = vertices[order], values[order]
        if values[-1] - values[0] < SIMPLEX_TOL:
            # a point lower by rounding alone is no improvement
            probe_value = values[0] - _PROBE_GAIN * abs(values[0])
            probe_point = None
            for delta in _PROBE_STEPS:
                candidates = _fold(vertices[0] + delta * ring)
                candidate_values = objective.evaluate_many(candidates)
                nfe += len(candidates)
                best = int(np.argmin(candidate_values))
                if candidate_values[best] < probe_value:
                    probe_point, probe_value = candidates[best], candidate_values[best]
                    break
            if probe_point is None:
                converged = True
                break
            rebuilt = _fold(probe_point + delta * axes)
            vertices = np.vstack([probe_point, rebuilt])
            values = np.concatenate([[probe_value], objective.evaluate_many(rebuilt)])
            nfe += n
            continue

        centroid = np.add.reduce(vertices[:-1], axis=0) / n
        trials = np.empty((4, n))
        np.add(centroid, moves * (centroid - vertices[-1]), out=trials[:3])
        _fold(trials[:3])
        np.add(centroid, _CONTRACT * (trials[0] - centroid), out=trials[3])
        _fold(trials[3])
        reflected, expanded, inside, outside = trials
        f_reflected, f_expanded, f_inside, f_outside = objective.evaluate_many(trials)
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
        np.add(vertices[0], _SHRINK * (vertices[1:] - vertices[0]), out=vertices[1:])
        _fold(vertices[1:])
        values[1:] = objective.evaluate_many(vertices[1:])
        nfe += n

    best_index = int(np.argmin(values))
    best_value, best_vertex = float(values[best_index]), vertices[best_index]
    if start_value <= best_value:
        best_value, best_vertex = float(start_value), x0
    return OptimizerOutcome(
        best_value=best_value,
        best_row=_frozen(best_vertex),
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
    norm = np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True))
    n = u / norm
    grad = (n * bloch_grad).sum(axis=-1, keepdims=True) * n
    np.subtract(bloch_grad, grad, out=grad)
    grad /= norm
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
    then values a ladder of step lengths along -H g of every unfinished
    start in one call, moves each to its lowest rung, whose gradient came
    with it, and updates each H in u by stacked products (skipped for a
    start whose step shows no positive curvature, s . y <= 0).  A start's
    ladder is ``QN_LINE_STEPS`` times 2**k after k wins of its longest
    rung in a row, the expansion of a bracketing line search (Nocedal &
    Wright, ch. 3.5): near a pure branch state x log x curves as 1/x, the
    BFGS step can be far too short, and a ladder that stops at twice it
    would creep along a valley.  A start none of whose rungs lies below
    its current value has converged and leaves the arrays.  At most
    ``QN_MAX_ITERS`` iterations run.  The point returned is a row that was
    valued, so its value is the one reported; never returns a value above
    the start's.

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
    stretch = np.ones(len(row))  # 2**k after k wins of the longest rung in a row
    live = np.arange(len(row))  # the original index of each unfinished start
    outcomes = [None] * len(row)

    def finish(index, converged, iterations):
        # the outcomes of unfinished starts ``index`` at their current points
        for k in index:
            outcomes[live[k]] = OptimizerOutcome(
                best_value=float(value[k]),
                best_row=_frozen(row[k]),
                evaluations=1 + iterations * rungs,
                converged=converged,
                grid_best=float(start_value[k]),
            )

    for iteration in range(1, QN_MAX_ITERS + 1):
        step = ((-inverse) @ grad[:, :, None]).swapaxes(-1, -2) * stretch[:, None, None]
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
            live, u, grad, inverse, scaled, start_value, pick, stretch = (
                a[at] for a in (live, u, grad, inverse, scaled, start_value, pick, stretch))
        # the next ladder doubles while the longest rung wins, so that a
        # step far too short is bracketed in a few iterations, not crept along
        stretch = np.where(pick % rungs == 0, 2.0 * stretch, 1.0)
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
        v = s[:, :, None] * y[:, None, :]
        v /= sy
        np.subtract(eye, v, out=v)
        updated = v @ inverse[update] @ v.swapaxes(-1, -2)
        ss = s[:, :, None] * s[:, None, :]
        ss /= sy
        updated += ss
        inverse[update] = updated
        u, grad = u_next, next_grad
    finish(range(len(live)), False, QN_MAX_ITERS)
    return outcomes


def optimize(objective, config: OptimizerConfig) -> OptimizerOutcome:
    """Grid scan, then quasi-Newton refinement from the top candidates.

    The starts are refined together by :func:`_quasi_newton`, one batched
    call per iteration, each for at most ``QN_MAX_ITERS`` iterations.
    Deterministic for fixed config; the refined results are compared in grid
    rank order so ties keep the better-ranked start.
    ``converged`` describes the point returned: no rung of its last ladder
    along -H g lies below it.  That ladder is ``QN_LINE_STEPS`` stretched
    by 2**k after k wins of the longest rung, so after such wins its
    shortest rung is longer than ``QN_LINE_STEPS[-1]`` times -H g.
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
        best_row=best.best_row,
        evaluations=evaluations,
        converged=best.converged,
        grid_best=float(scan.values[0]),
    )
