"""Derivative-free minimization over measurement angles.

A coarse Cartesian grid scan keeps its ``refine_starts`` best points, then
downhill-simplex refinement polishes each of them.  Everything is
deterministic: grids are enumerated lexicographically, value ties among the
kept points keep enumeration order, and the simplex uses no randomness.

Objectives map a flat angle vector (theta, phi alternating, node-major) to a
scalar.  An objective exposing a ``grid_values(points)`` method supplies the
whole grid value array itself (the discord integrand factors over outcome
branches, so it need not evaluate each point from scratch).  Otherwise an
objective exposing an ``evaluate_many(params_matrix)`` method is evaluated
in batches during the grid scan, which is orders of magnitude faster for the
larger grids.

Refinement runs each simplex as a generator that yields the points it needs
next.  :func:`optimize` advances its ``refine_starts`` simplices in lockstep
and values every pending point of every unfinished run in one
``evaluate_many`` call per round; one batched call costs about as much as a
single-row one.  Each simplex compares only its own values in its own order,
and a batched row equals the single-row value bit for bit, so the results
are those of refining the starts one after another.  A plain callable is
evaluated point by point.

:class:`OptimizerConfig` sets the grid density and the number of starts.
Each simplex run stops after ``SIMPLEX_MAX_ITERS`` iterations or once its
value spread is below ``SIMPLEX_TOL``; both are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import MeasParams

_GRID_CHUNK = 65536
_MAX_GRID_TOTAL = 100_000_000
_INITIAL_SIMPLEX_EDGE = 0.1
_PROBE_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5
SIMPLEX_MAX_ITERS = 400  # iterations of one simplex run
SIMPLEX_TOL = 1e-9       # value spread of a converged simplex


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
    """Map a flat angle vector back into range: theta (even slots) reflected
    into [0, pi/2], phi (odd slots) wrapped mod 2 pi.

    The basis pair satisfies pair(pi - theta, phi + pi) = pair(theta, phi),
    so reflecting theta shifts the partner phi by pi; folding therefore
    relabels the same projector pair and never distorts the objective.
    """
    out = np.array(x, dtype=float)
    theta = np.mod(out[0::2], np.pi)
    reflected = theta > np.pi / 2
    out[0::2] = np.where(reflected, np.pi - theta, theta)
    out[1::2] = np.mod(out[1::2] + np.pi * reflected, 2 * np.pi)
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
    """The best grid points, ascending by objective value."""

    values: np.ndarray   # the kept points' values, ascending
    params: np.ndarray   # one flat angle vector per kept point
    evaluations: int     # grid points valued: the whole grid


def _decode(flat_indices: np.ndarray, grids) -> np.ndarray:
    k = len(grids)
    sizes = np.array([len(g) for g in grids], dtype=np.int64)
    out = np.empty((len(flat_indices), k))
    remainder = flat_indices.astype(np.int64)
    for pos in range(k - 1, -1, -1):
        digit = remainder % sizes[pos]
        out[:, pos] = grids[pos][digit]
        remainder = remainder // sizes[pos]
    return out


def grid_scan(objective, n_nodes: int, config: OptimizerConfig) -> GridScanResult:
    """Evaluate the objective on the full Cartesian angle grid and keep the
    ``refine_starts`` best points.

    theta points include both endpoints of [0, pi/2]; phi points exclude
    2 pi.  The first parameter varies slowest, so flat index order is
    lexicographic parameter order.  The kept points are the first ones of a
    stable sort of the whole grid (value ties in that order), but only they
    are ranked.  An objective with a ``grid_values(points)`` method returns
    the whole flat value array in grid order; any other objective is
    evaluated chunk by chunk, through ``evaluate_many`` when it has one.
    Either way every grid point is valued, so ``evaluations`` is the grid
    size.
    """
    grids = tuple(_angle_grids(n_nodes, config.grid_points_per_angle))
    total = int(np.prod([len(g) for g in grids], dtype=np.int64))
    if total > _MAX_GRID_TOTAL:
        raise ValueError(
            f"grid of {total} points is too large; lower grid_points_per_angle"
        )
    whole_grid = getattr(objective, "grid_values", None)
    if whole_grid is not None:
        values = whole_grid(config.grid_points_per_angle)
        if values.shape != (total,):
            raise ValueError(
                f"objective grid has shape {values.shape}, expected ({total},)"
            )
    else:
        values = np.empty(total)
        batch = getattr(objective, "evaluate_many", None)
        for start in range(0, total, _GRID_CHUNK):
            stop = min(start + _GRID_CHUNK, total)
            chunk = _decode(np.arange(start, stop), grids)
            if batch is not None:
                values[start:stop] = batch(chunk)
            else:
                values[start:stop] = [objective(row) for row in chunk]
    k = min(config.refine_starts, total)
    cut = np.partition(values, k - 1)[k - 1]
    # every point not above the k-th smallest value (NaNs sort last, as in
    # a full sort), in grid order, so the stable sort of these few keeps ties
    near = np.flatnonzero(~(values > cut))
    best = near[np.argsort(values[near], kind="stable")[:k]]
    return GridScanResult(
        values=values[best], params=_decode(best, grids), evaluations=total
    )


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


def _run_together(objective, runs) -> list[OptimizerOutcome]:
    """Advance :func:`_nelder_mead` runs in lockstep until each returns.

    Every round values the pending points of every unfinished run in one
    ``evaluate_many`` call when the objective has one (rows in run order),
    or point by point otherwise, and sends each run its own values.
    """
    batch = getattr(objective, "evaluate_many", None)
    outcomes = [None] * len(runs)
    pending = {index: next(run) for index, run in enumerate(runs)}
    while pending:
        rows = [point for points in pending.values() for point in points]
        if batch is None:
            values = [float(objective(row)) for row in rows]
        else:
            values = [float(v) for v in batch(np.array(rows))]
        first = 0
        for index, points in list(pending.items()):
            own = values[first:first + len(points)]
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
    stalls).  Never returns a value worse than the start.
    """
    return _run_together(objective, [_nelder_mead(start)])[0]


def optimize(objective, n_nodes: int, config: OptimizerConfig | None = None) -> OptimizerOutcome:
    """Grid scan, then simplex refinement from the top candidates.

    The starts are refined in lockstep, one batched call per round.
    Deterministic for fixed config; the refined results are compared in grid
    rank order so ties keep the earlier (lexicographically smaller) start.
    ``SIMPLEX_MAX_ITERS`` caps each simplex run, not the whole refinement:
    while the winning start has not converged, it is continued, one run at a
    time, with a fresh simplex from its best vertex, until a run converges,
    stops lowering the value, or lowers it by less than ``SIMPLEX_TOL`` (a
    gain below the spread tolerance only chases rounding on a flat floor).
    ``converged`` describes the point returned.
    """
    config = config or OptimizerConfig()
    scan = grid_scan(objective, n_nodes, config)
    evaluations = scan.evaluations
    best: OptimizerOutcome | None = None
    starts = [_nelder_mead(start) for start in scan.params]
    for outcome in _run_together(objective, starts):
        evaluations += outcome.evaluations
        if best is None or outcome.best_value < best.best_value:
            best = outcome
    while not best.converged:
        outcome = simplex_refine(objective, best.best_params)
        evaluations += outcome.evaluations
        if outcome.best_value >= best.best_value:
            break
        gain = best.best_value - outcome.best_value
        best = outcome
        if gain < SIMPLEX_TOL:
            break
    return OptimizerOutcome(
        best_value=best.best_value,
        best_params=best.best_params,
        evaluations=evaluations,
        converged=best.converged,
        grid_best=float(scan.values[0]),
    )
