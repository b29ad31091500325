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
larger grids.  ``evaluate_many`` also takes the simplex points that do not
depend on one another (initial and rebuilt simplices, shrinks, probes).
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


@dataclass(frozen=True)
class OptimizerConfig:
    grid_points_per_angle: int = 6
    refine_starts: int = 4
    simplex_max_iters: int = 400
    simplex_tol: float = 1e-9

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


def simplex_refine(objective, start, config: OptimizerConfig) -> OptimizerOutcome:
    """Downhill simplex (Nelder-Mead) from ``start``.

    Coefficients are the classic (1, 2, 0.5, 0.5); every trial point is
    folded back into the angle ranges before evaluation; converged when the
    simplex value spread drops below ``simplex_tol``.  A small value spread
    alone is accepted only after per-coordinate probes of the best vertex at
    shrinking step sizes all fail to improve; an improving probe rebuilds the
    simplex at that scale and continues (the angle chart has exactly flat
    edges, e.g. phi at theta = 0, where an untested spread criterion stalls).
    Never returns a value worse than the start.
    """
    if isinstance(start, MeasParams):
        start = start.to_flat()
    x0 = fold_angles(np.asarray(start, dtype=float))
    n = x0.size
    nfe = 0

    batch = getattr(objective, "evaluate_many", None)

    def evaluate(x):
        nonlocal nfe
        nfe += 1
        return float(objective(x))

    def evaluate_all(points):
        nonlocal nfe
        nfe += len(points)
        if batch is None:
            return [float(objective(p)) for p in points]
        return [float(v) for v in batch(np.array(points))]

    def build_simplex(center, edge):
        points = [center]
        for i in range(n):
            step = np.zeros(n)
            step[i] = edge
            points.append(fold_angles(center + step))
        return points

    vertices = build_simplex(x0, _INITIAL_SIMPLEX_EDGE)
    values = evaluate_all(vertices)
    start_value = values[0]

    converged = False
    for _ in range(config.simplex_max_iters):
        order = np.argsort(values, kind="stable")
        vertices = [vertices[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < config.simplex_tol:
            probe_point, probe_value, probe_scale = None, values[0], None
            for delta in _PROBE_STEPS:
                candidates = []
                for i in range(n):
                    for sign in (1.0, -1.0):
                        step = np.zeros(n)
                        step[i] = sign * delta
                        candidates.append(fold_angles(vertices[0] + step))
                for candidate, candidate_value in zip(
                    candidates, evaluate_all(candidates)
                ):
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
            values = [probe_value] + evaluate_all(vertices[1:])
            continue

        centroid = np.mean(vertices[:-1], axis=0)
        reflected = fold_angles(centroid + _REFLECT * (centroid - vertices[-1]))
        f_reflected = evaluate(reflected)
        if f_reflected < values[0]:
            expanded = fold_angles(centroid + _EXPAND * (centroid - vertices[-1]))
            f_expanded = evaluate(expanded)
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
        f_contracted = evaluate(contracted)
        if f_contracted < min(f_reflected, values[-1]):
            vertices[-1], values[-1] = contracted, f_contracted
            continue
        best = vertices[0]
        for i in range(1, n + 1):
            vertices[i] = fold_angles(best + _SHRINK * (vertices[i] - best))
        values[1:] = evaluate_all(vertices[1:])

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


def optimize(objective, n_nodes: int, config: OptimizerConfig | None = None) -> OptimizerOutcome:
    """Grid scan, then simplex refinement from the top candidates.

    Deterministic for fixed config; the refined results are compared in grid
    rank order so ties keep the earlier (lexicographically smaller) start.
    ``simplex_max_iters`` caps each simplex run, not the whole refinement:
    while the winning start has not converged, it is continued with a fresh
    simplex from its best vertex, until a run converges, stops lowering the
    value, or lowers it by less than ``simplex_tol`` (a gain below the spread
    tolerance only chases rounding on a flat floor).  ``converged`` describes
    the point returned.
    """
    config = config or OptimizerConfig()
    scan = grid_scan(objective, n_nodes, config)
    evaluations = scan.evaluations
    best: OptimizerOutcome | None = None
    for start in scan.params:
        outcome = simplex_refine(objective, start, config)
        evaluations += outcome.evaluations
        if best is None or outcome.best_value < best.best_value:
            best = outcome
    while not best.converged:
        outcome = simplex_refine(objective, best.best_params, config)
        evaluations += outcome.evaluations
        if outcome.best_value >= best.best_value:
            break
        gain = best.best_value - outcome.best_value
        best = outcome
        if gain < config.simplex_tol:
            break
    return OptimizerOutcome(
        best_value=best.best_value,
        best_params=best.best_params,
        evaluations=evaluations,
        converged=best.converged,
        grid_best=float(scan.values[0]),
    )
