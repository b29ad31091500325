import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mdiscord import (
    MeasParams,
    OptimizerConfig,
    apply_tree,
    dense_grid_min,
    discord,
    grid_scan,
    optimize,
    random_state,
    simplex_refine,
)
from mdiscord.discord import _MeasuredEntropyObjective
from mdiscord import optimizer
from mdiscord.optimizer import (
    _PROBE_STEPS,
    SIMPLEX_MAX_ITERS,
    SIMPLEX_TOL,
    _angles,
    _bloch_vectors,
    _quasi_newton,
    _sphere_gradient,
    fold_angles,
    grid_cells,
)
from mdiscord.measure import projector_pair_from_angles
from mdiscord.states import werner_ghz

from conftest import random_qubits, random_tree


class BatchCounter:
    """Wraps a batched objective, counting its ``evaluate_many`` calls and
    keeping the rows of each."""

    def __init__(self, objective):
        self.objective = objective
        self.n_nodes = objective.n_nodes
        self.grid_minimum = objective.grid_minimum
        self.batches = []

    @property
    def calls(self):
        return len(self.batches)

    @property
    def sizes(self):
        return [len(rows) for rows in self.batches]

    def evaluate_many(self, rows, gradient=False):
        self.batches.append(np.array(rows))
        return self.objective.evaluate_many(rows, gradient=gradient)


class RowByRow:
    """Values a batched objective one row per ``evaluate_many`` call."""

    def __init__(self, objective):
        self.objective = objective

    def evaluate_many(self, rows):
        return np.array([self.objective.evaluate_many(row[None, :])[0] for row in rows])


def refine_alone(objective, start):
    """One quasi-Newton refinement, run on its own."""
    return _quasi_newton(objective, [start])[0]


def refine_by_vectors(objective, start):
    """Quasi-Newton refinement of one start with one-start vector products
    (``np.outer``, 1-D ``@``), as a reference for the stacked refinement;
    also returns how many BFGS updates were skipped for want of positive
    curvature (s . y <= 0)."""
    row = np.array(start, dtype=float)
    u = _bloch_vectors(row[0::2], row[1::2]).ravel()
    eye = np.eye(u.size)
    values, grads = objective.evaluate_many(row[None, :], gradient=True)
    nfe, skipped = 1, 0
    value = start_value = float(values[0])
    grad = _sphere_gradient(u, grads[0])
    inverse, scaled, converged = eye, False, False
    for _ in range(optimizer.QN_MAX_ITERS):
        candidates = u + np.outer(optimizer.QN_LINE_STEPS, -inverse @ grad)
        rows = _angles(candidates)
        values, grads = objective.evaluate_many(rows, gradient=True)
        nfe += len(rows)
        best = int(np.argmin(values))
        if not values[best] < value:
            converged = True
            break
        u_next, row, value = candidates[best], rows[best], float(values[best])
        next_grad = _sphere_gradient(u_next, grads[best])
        s, y = u_next - u, next_grad - grad
        sy = s @ y
        if sy > 0:
            if not scaled:
                inverse, scaled = (sy / (y @ y)) * eye, True
            v = eye - np.outer(s, y) / sy
            inverse = v @ inverse @ v.T + np.outer(s, s) / sy
        else:
            skipped += 1
        u, grad = u_next, next_grad
    outcome = optimizer.OptimizerOutcome(
        best_value=value, best_params=MeasParams.from_flat(row), evaluations=nfe,
        converged=converged, grid_best=start_value)
    return outcome, skipped


def sequential_optimize(objective, config):
    """The refinement one start at a time: each grid start through
    _quasi_newton alone, in rank order."""
    scan = grid_scan(objective, config)
    evaluations = scan.evaluations
    best = None
    for start in scan.params:
        outcome = refine_alone(objective, start)
        evaluations += outcome.evaluations
        if best is None or outcome.best_value < best.best_value:
            best = outcome
    return best, evaluations


def assert_lockstep_equals_sequential(seed, starts):
    """optimize() with ``starts`` refinement starts equals refining them one
    at a time, and every start's outcome, not only the best, is the one of
    refining it alone with one-start vector products."""
    state = random_qubits(seed, 3, 2 + seed % 7)
    config = OptimizerConfig(refine_starts=starts)
    lockstep = BatchCounter(_MeasuredEntropyObjective(state, 3))
    sequential = BatchCounter(_MeasuredEntropyObjective(state, 3))
    outcome = optimize(lockstep, config)
    best, evaluations = sequential_optimize(sequential, config)
    assert outcome.best_value == best.best_value
    assert np.array_equal(outcome.best_params.to_flat(), best.best_params.to_flat())
    assert outcome.evaluations == evaluations
    assert outcome.converged == best.converged
    if starts > 1:
        assert lockstep.calls < sequential.calls
    objective = lockstep.objective
    params = grid_scan(objective, config).params
    assert _quasi_newton(objective, params) == [
        refine_by_vectors(objective, start)[0] for start in params]


def grid_points(n_nodes, points):
    """Every tree whose nodes all sit in grid cells, one angle row each, the
    first node's cell slowest."""
    rows = itertools.product(grid_cells(points), repeat=n_nodes)
    return np.array([np.concatenate(cells) for cells in rows])


def brute_force_by_root_cell(objective, points):
    """Every grid value, valued point by point: one row per root cell."""
    values = objective.evaluate_many(grid_points(objective.n_nodes, points))
    return values.reshape(len(grid_cells(points)), -1)


def root_cells(params, points):
    """The root cell (an index of grid_cells) of each start."""
    cells = grid_cells(points)
    return np.array([np.flatnonzero((cells == root).all(axis=1))[0]
                     for root in params[:, :2]])


def canonical_bloch(angles):
    """Unit Bloch vectors of (theta, phi) rows, each signed so that its
    first component away from zero is positive: n and -n give one
    measurement."""
    n = bloch(angles)[:, 0]
    lead = np.argmax(np.abs(n) > 1e-9, axis=1)
    return n * np.sign(n[np.arange(len(n)), lead])[:, None]


def bloch(x):
    """Bloch vectors of the nodes' first basis vectors from an angle row
    (or each row of a matrix), one row of three per node."""
    theta, phi = np.asarray(x)[..., 0::2], np.asarray(x)[..., 1::2]
    return np.stack([np.sin(2 * theta) * np.cos(phi),
                     np.sin(2 * theta) * np.sin(phi),
                     np.cos(2 * theta)], axis=-1)


def central_difference(fn, x, step=1e-6):
    """The gradient of ``fn`` at ``x`` by central differences."""
    eye = np.eye(len(x))
    return np.array([(fn(x + step * e) - fn(x - step * e)) / (2 * step) for e in eye])


class BatchRecorder:
    """A function of one angle vector, valued row by row through the batched
    protocol, with central-difference gradients when asked; records the
    rows of each call."""

    def __init__(self, fn):
        self.fn = fn
        self.batches = []

    def evaluate_many(self, rows, gradient=False):
        self.batches.append(np.array(rows))
        values = np.array([float(self.fn(row)) for row in rows])
        if not gradient:
            return values
        return values, np.array([central_difference(self.fn, row) for row in rows])


class SphereRecorder(BatchRecorder):
    """A function of the nodes' Bloch vectors (one row of three per node),
    valued at angle rows, with central-difference derivatives in the Bloch
    components when asked, as the refinement reads them."""

    def __init__(self, fn):
        super().__init__(lambda row: fn(bloch(row)))
        self.on_sphere = fn

    def evaluate_many(self, rows, gradient=False):
        values = super().evaluate_many(rows)
        if not gradient:
            return values

        def flat(n):
            return float(self.on_sphere(n.reshape(-1, 3)))

        return values, np.array([central_difference(flat, bloch(row).ravel())
                                 for row in rows])


def off_plane(rows, a, b):
    """How far the Bloch vectors of one-node rows lie off the plane of a and b."""
    normal = np.cross(a, b)
    return np.abs(bloch(rows)[:, 0] @ (normal / np.linalg.norm(normal)))


class TabulatedNode(BatchRecorder):
    """A 1-node objective: every root cell is one grid point, so the grid
    minimum is the values of the cells themselves, each at its own point."""

    n_nodes = 1

    def grid_minimum(self, points):
        params = grid_points(1, points)
        return self.evaluate_many(params), params


class TestConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.grid_points_per_angle == 6
        assert cfg.refine_starts == 4

    def test_bounds(self):
        with pytest.raises(ValueError):
            OptimizerConfig(grid_points_per_angle=1)
        with pytest.raises(ValueError):
            OptimizerConfig(refine_starts=0)

    # a float failed later inside discord() (linspace, a slice) and True ran
    # as one start
    @pytest.mark.parametrize("field, value", [
        ("grid_points_per_angle", 3.0), ("grid_points_per_angle", True),
        ("grid_points_per_angle", "6"), ("refine_starts", 2.0),
        ("refine_starts", True), ("refine_starts", np.float64(4.0)),
    ])
    def test_rejects_a_value_that_is_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            OptimizerConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        cfg = OptimizerConfig(grid_points_per_angle=np.int64(3), refine_starts=np.int32(2))
        assert (cfg.grid_points_per_angle, cfg.refine_starts) == (3, 2)

    # the simplex cap and tolerance are fixed constants of the optimizer
    # module, so a config refuses any value for them, the defaults included
    @pytest.mark.parametrize("iters", [0, -1])
    def test_rejects_no_refinement_iterations(self, iters):
        assert SIMPLEX_MAX_ITERS >= 1
        for value in (iters, SIMPLEX_MAX_ITERS):
            with pytest.raises(TypeError):
                OptimizerConfig(simplex_max_iters=value)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol):
        assert math.isfinite(SIMPLEX_TOL) and SIMPLEX_TOL > 0
        for value in (tol, SIMPLEX_TOL):
            with pytest.raises(TypeError):
                OptimizerConfig(simplex_tol=value)

    def test_no_seed(self):
        # the optimizer is deterministic; a seed would change nothing
        with pytest.raises(TypeError):
            OptimizerConfig(seed=0)


class TestFoldAngles:
    def test_in_range_untouched(self):
        x = np.array([0.3, 1.1])
        assert_allclose(fold_angles(x), x)

    def test_reflection_preserves_the_basis(self):
        # pair(pi - t, phi + pi) equals pair(t, phi), so folding a theta
        # overshoot must land on the same projector pair
        raw = np.array([np.pi / 2 + 0.3, 1.0])
        folded = fold_angles(raw)
        assert 0.0 <= folded[0] <= np.pi / 2
        original = projector_pair_from_angles(raw[0], raw[1])
        refolded = projector_pair_from_angles(folded[0], folded[1])
        for a, b in zip(original.projectors, refolded.projectors):
            assert_allclose(a, b, atol=1e-12)

    def test_phi_wraps(self):
        folded = fold_angles(np.array([0.2, 2 * np.pi + 0.5]))
        assert_allclose(folded, [0.2, 0.5], atol=1e-12)


def _reference_fold_angles(x):
    """:func:`fold_angles` before it folded in place, kept as its reference."""
    out = np.array(x, dtype=float)
    theta = np.mod(out[..., 0::2], np.pi)
    reflected = theta > np.pi / 2
    out[..., 0::2] = np.where(reflected, np.pi - theta, theta)
    out[..., 1::2] = np.mod(out[..., 1::2] + np.pi * reflected, 2 * np.pi)
    return out


def _reference_bloch_vectors(theta, phi):
    """:func:`_bloch_vectors` before it wrote into one array."""
    sin2 = np.sin(2.0 * theta)
    return np.stack([sin2 * np.cos(phi), sin2 * np.sin(phi), np.cos(2.0 * theta)], axis=-1)


def _reference_angles(u):
    """:func:`_angles` before it wrote into one array."""
    x, y, z = u[..., 0::3], u[..., 1::3], u[..., 2::3]
    angles = [np.arctan2(np.hypot(x, y), z) / 2.0, np.mod(np.arctan2(y, x), 2 * np.pi)]
    return np.stack(angles, axis=-1).reshape(u.shape[:-1] + (-1,))


def _reference_sphere_gradient(u, bloch_grad):
    """:func:`_sphere_gradient` before it dropped its temporaries."""
    rows = u.shape[:-1]
    u, bloch_grad = u.reshape(rows + (-1, 3)), bloch_grad.reshape(rows + (-1, 3))
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    n = u / norm
    grad = (bloch_grad - np.sum(n * bloch_grad, axis=-1, keepdims=True) * n) / norm
    return grad.reshape(rows + (-1,))


# signed zeros, the folds' edges, negative and huge angles
EDGE_ANGLES = (0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 3 * np.pi / 2,
               2 * np.pi, -2 * np.pi, -1.0, -3.7, 1e-300, 1e300, -1e300)


def edge_rows(seed, rows, width):
    """Random angles in [-10, 10] with about half the entries drawn from
    EDGE_ANGLES."""
    rng = np.random.default_rng(seed)
    out = rng.uniform(-10.0, 10.0, (rows, width))
    edge = rng.random((rows, width)) < 0.5
    out[edge] = rng.choice(EDGE_ANGLES, int(edge.sum()))
    return out


def hexes(values):
    """float.hex of every entry: equal lists are equal bits, signed zeros
    included."""
    return [float(v).hex() for v in np.ravel(values)]


class TestRewrittenHelpersBits:
    """The in-place helpers give their references' results bit for bit."""

    @pytest.mark.parametrize("shape", [(2,), (6,), (4, 6), (13, 14)])
    def test_fold_angles_equals_the_reference(self, shape):
        x = edge_rows(90 + len(shape), 1, math.prod(shape)).reshape(shape)
        before = x.copy()
        assert hexes(fold_angles(x)) == hexes(_reference_fold_angles(x))
        assert hexes(x) == hexes(before)  # the input is left alone

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_fold_angles_of_a_non_contiguous_matrix(self, layout):
        # np.array keeps a Fortran layout, where the rows' angle pairs are
        # no view of a flat buffer
        x = edge_rows(97, 8, 12)
        x = np.asfortranarray(x) if layout == "fortran" else x[::2, :6]
        assert hexes(fold_angles(x)) == hexes(_reference_fold_angles(x))

    def test_fold_angles_of_every_edge_pair(self):
        x = np.array([[t, p] for t in EDGE_ANGLES for p in EDGE_ANGLES]).ravel()
        assert hexes(fold_angles(x)) == hexes(_reference_fold_angles(x))

    @pytest.mark.parametrize("rows", [1, 4, 52])
    def test_bloch_vectors_equal_the_reference(self, rows):
        chunk = edge_rows(93 + rows, rows, 14)
        theta, phi = chunk[:, 0::2], chunk[:, 1::2]
        assert hexes(_bloch_vectors(theta, phi)) == hexes(_reference_bloch_vectors(theta, phi))

    @pytest.mark.parametrize("rows", [1, 13, 52])
    def test_angles_equal_the_reference(self, rows):
        u = edge_rows(96 + rows, rows, 9)
        u[0, :3] = 0.0  # a pole and a zero vector
        u[-1, 3:5] = -0.0
        assert hexes(_angles(u)) == hexes(_reference_angles(u))

    @pytest.mark.parametrize("rows", [1, 4, 52])
    def test_sphere_gradient_equals_the_reference(self, rows):
        u = edge_rows(99 + rows, rows, 9)
        u[np.abs(u) > 1e10] = 1.5  # finite norms
        bloch_grad = edge_rows(102 + rows, rows, 9)
        bloch_grad[np.abs(bloch_grad) > 1e10] = -0.25
        assert (hexes(_sphere_gradient(u, bloch_grad))
                == hexes(_reference_sphere_gradient(u, bloch_grad)))


class TestGridScan:
    def test_two_parameter_grid_size(self):
        # 6 points per angle: the pole cell and two theta rows of 6 phis
        objective = TabulatedNode(lambda x: float(np.sum(x ** 2)))
        scan = grid_scan(objective, OptimizerConfig())
        assert scan.evaluations == 13
        assert sum(len(rows) for rows in objective.batches) == 13

    def test_six_parameter_grid_size(self):
        # batched objective: still one evaluation per grid point
        state = random_qubits(1, 3, 8)
        objective = _MeasuredEntropyObjective(state, 3)
        scan = grid_scan(objective, OptimizerConfig())
        assert scan.evaluations == 13 ** 3 == 2197
        assert len(scan.values) == 4

    @pytest.mark.parametrize("points", range(2, 13))
    def test_cells_hold_each_grid_measurement_once(self, points):
        # the full (theta, phi) grid's Bloch vectors, taken up to sign, are
        # the cells' ones, and no two cells give one measurement
        theta = np.linspace(0.0, np.pi / 2, points)
        phi = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
        full = canonical_bloch(np.stack(np.meshgrid(theta, phi, indexing="ij"), -1).reshape(-1, 2))
        cells = canonical_bloch(grid_cells(points))
        apart = np.linalg.norm(full[:, None] - cells[None], axis=-1)
        assert np.all(apart.min(axis=1) < 1e-12)
        assert np.all(apart.min(axis=0) < 1e-12)
        between = np.linalg.norm(cells[:, None] - cells[None], axis=-1)
        assert np.all(between[~np.eye(len(cells), dtype=bool)] > 1e-3)

    def test_constant_objective_tie_break(self):
        objective = TabulatedNode(lambda x: 1.0)
        scan = grid_scan(objective, OptimizerConfig())
        assert_allclose(scan.params[0], [0.0, 0.0])
        assert scan.values[0] == 1.0

    def test_sorted_ascending(self):
        objective = TabulatedNode(lambda x: float(np.sum((x - 0.7) ** 2)))
        scan = grid_scan(objective, OptimizerConfig())
        assert np.all(np.diff(scan.values) >= 0)

    def test_theta_endpoints_and_phi_open_interval(self):
        objective = TabulatedNode(lambda x: -x[0] + x[1] / 100)
        # 16 starts keep all 5 cells of a 4-point grid, down to the worst:
        # the theta row pi/6 at every phi, whose antipodes fill the row
        # pi/3, and the pole cell, which stands for both theta endpoints
        config = OptimizerConfig(grid_points_per_angle=4, refine_starts=16)
        scan = grid_scan(objective, config)
        assert len(scan.values) == 5
        assert_allclose(scan.params[0], [np.pi / 6, 0.0])
        assert np.array_equal(scan.params[-1], [0.0, 0.0])
        assert np.all(scan.params[:, 1] < 2 * np.pi)  # 2 pi is never on the grid

    @pytest.mark.parametrize("objective, points", [
        (TabulatedNode(lambda x: 1.0), 6),   # every point ties
        (_MeasuredEntropyObjective(werner_ghz(0.7), 3), 6),
        (_MeasuredEntropyObjective(werner_ghz(0.7), 3), 10),
        (_MeasuredEntropyObjective(random_state((2, 2, 2), 5, 29), 3), 6),
    ], ids=["constant", "werner_ghz-6", "werner_ghz-10", "random-6"])
    def test_starts_equal_stable_sort_of_brute_force(self, objective, points):
        # the start rule: the root cells of least grid minimum, ascending
        # with ties in cell order, each started at its best grid point
        cells = len(grid_cells(points))
        values = brute_force_by_root_cell(objective, points)
        cell_min = values.min(axis=1)
        ranked = np.argsort(cell_min, kind="stable")
        for starts in (1, 4, 7, cells + 1):
            config = OptimizerConfig(grid_points_per_angle=points,
                                     refine_starts=starts)
            scan = grid_scan(objective, config)
            kept = root_cells(scan.params, points)
            first = ranked[:starts]
            assert scan.evaluations == values.size
            assert len(kept) == len(first) == min(starts, cells)
            assert np.all(np.diff(scan.values) >= 0)
            # equal values keep grid order
            assert np.all(np.diff(kept)[np.diff(scan.values) == 0] > 0)
            assert_allclose(scan.values, cell_min[kept], rtol=0, atol=1e-12)
            assert_allclose(cell_min[kept], cell_min[first], rtol=0, atol=1e-12)
            assert_allclose(objective.evaluate_many(scan.params), cell_min[kept],
                            rtol=0, atol=1e-12)
            if objective.n_nodes == 1:
                # one node's table holds the very grid values, so the rule
                # applies to them exactly
                assert np.array_equal(kept, first)
                assert np.array_equal(scan.values, cell_min[first])
                best = np.argmin(values[first], axis=1)
                assert np.array_equal(
                    scan.params,
                    grid_points(1, points)[first * values.shape[1] + best])

    @pytest.mark.parametrize("dims, level, points", [
        ((2, 2), 2, 6),
        ((2, 2, 2), 3, 6),
        ((2, 2, 2), 3, 10),
        ((2, 2, 2, 2), 3, 6),   # 2-qubit unmeasured tail: eigvalsh block path
        ((2, 2, 3), 3, 6),      # qutrit tail
        ((2, 2, 2, 2), 4, 2),   # one cell: one point
        ((2, 2, 2, 2), 4, 3),   # 16,384 points
    ])
    def test_factored_grid_equals_brute_force(self, dims, level, points):
        objective = _MeasuredEntropyObjective(random_state(dims, 3, 17), level)
        cell_min = brute_force_by_root_cell(objective, points).min(axis=1)
        cells = len(grid_cells(points))
        config = OptimizerConfig(grid_points_per_angle=points, refine_starts=cells)
        scan = grid_scan(objective, config)
        kept = root_cells(scan.params, points)
        assert np.array_equal(np.sort(kept), np.arange(cells))
        assert_allclose(scan.values, cell_min[kept], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims, level, points, rank", [
        ((2, 2), 2, 6, 3),
        ((2, 2, 2), 3, 6, 4),
        ((2, 2, 2), 3, 10, 8),
        ((2, 2, 2, 2), 3, 6, 5),
        ((2, 2, 3), 3, 6, 6),
        ((2, 2, 2, 2), 4, 4, 7),
    ])
    def test_tree_minimum_equals_the_dense_grid_oracle(self, dims, level, points, rank):
        state = random_state(dims, rank, 400 + rank)
        objective = _MeasuredEntropyObjective(state, level)
        config = OptimizerConfig(grid_points_per_angle=points, refine_starts=7)
        scan = grid_scan(objective, config)
        reference = dense_grid_min(state, level=level, points_per_angle=points)
        assert abs(scan.values[0] - reference) < 1e-12
        # every start's angles reproduce its value
        assert_allclose(objective.evaluate_many(scan.params), scan.values,
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims, level, points", [
        ((2, 2, 2), 3, 5),
        ((2, 2, 2, 2), 3, 4),   # 2-qubit unmeasured tail: eigh block path
        ((2, 2, 2, 2), 4, 3),
        ((2, 2, 2), 2, 9),      # 64 root cells, an eigh block path
    ])
    def test_block_size_moves_no_bit(self, monkeypatch, dims, level, points):
        # 1 and 7 branch components per block mean one ancestor cell, or at
        # the root one cell, per block; the third size splits a level-2 root
        # into blocks of 7 cells, and the fourth the deepest step of a
        # deeper tree into blocks of 7 ancestor cells, each with a shorter
        # last block
        objective = _MeasuredEntropyObjective(random_state(dims, 5, 19), level)
        cells = len(grid_cells(points))
        config = OptimizerConfig(grid_points_per_angle=points, refine_starts=cells)
        default = grid_scan(objective, config)
        discord_module = importlib.import_module("mdiscord.discord")
        width = objective.tensors[-1].shape[1]  # components of a deepest branch
        for block in (1, 7, 7 * 2 * width, 7 * 2 ** (level - 1) * cells * width):
            monkeypatch.setattr(discord_module, "_GRID_BLOCK", block)
            scan = grid_scan(objective, config)
            assert np.array_equal(scan.values, default.values)
            assert np.array_equal(scan.params, default.params)

    def test_a_level_three_scan_holds_no_term_table(self):
        # at 30 points per angle the deepest step values 3.24e6 branch terms,
        # 26 MB as one table; each block is reduced as it is made
        objective = _MeasuredEntropyObjective(random_state((2, 2, 2), 4, 5), 3)
        tracemalloc.start()
        try:
            grid_scan(objective, OptimizerConfig(grid_points_per_angle=30))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_a_level_two_scan_splits_its_root_cells(self):
        # the root step of a level-2 grid was one block: 79,601 cells at 400
        # points peaked at 157 MB; only per-cell values and params remain
        objective = _MeasuredEntropyObjective(random_state((2, 2, 2), 4, 5), 2)
        grid_scan(objective, OptimizerConfig())  # first-call imports and caches
        tracemalloc.start()
        try:
            grid_scan(objective, OptimizerConfig(grid_points_per_angle=400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    @pytest.mark.filterwarnings("error")
    def test_size_cap_holds_for_a_numpy_point_count(self):
        # 2**40 points give about 6e23 cells, past any 64-bit product
        objective = _MeasuredEntropyObjective(random_state((2, 2), 2, 5), 2)
        with pytest.raises(ValueError, match="too large"):
            grid_scan(objective, OptimizerConfig(grid_points_per_angle=np.int64(2 ** 40)))

    # a level-2 scan keeps about 120 bytes per cell: 2,000 points took a
    # discord run to about 260 MB of RSS, and 10,000 points, which the term
    # cap alone admitted, would need about 6 GB
    @pytest.mark.parametrize("points, cells", [
        (2000, 1_998_001), (1415, 1_999_396), (2002, 2_002_001), (1417, 2_005_056),
    ])
    def test_cell_cap_bounds_a_level_two_scan(self, monkeypatch, points, cells):
        admitted = cells <= 2_000_000
        objective = _MeasuredEntropyObjective(random_state((2, 2), 2, 5), 2)
        scanned = []

        def stub(points):  # no scan runs: one root cell at the origin
            scanned.append(points)
            return np.zeros(1), np.zeros((1, 2))

        monkeypatch.setattr(objective, "grid_minimum", stub)
        config = OptimizerConfig(grid_points_per_angle=points, refine_starts=1)
        if admitted:
            assert grid_scan(objective, config).evaluations == cells
        else:
            with pytest.raises(ValueError, match="too large"):
                grid_scan(objective, config)
        assert scanned == ([points] if admitted else [])

    def test_size_cap_counts_the_largest_table(self, monkeypatch):
        # a level-3 tree at 6 points values (2 * 13) ** 2 = 676 branch
        # terms at its deepest step, not its 2,197 grid values
        objective = _MeasuredEntropyObjective(random_state((2, 2, 2), 3, 5), 3)
        monkeypatch.setattr(optimizer, "_MAX_GRID_TOTAL", 676)
        grid_scan(objective, OptimizerConfig())
        monkeypatch.setattr(optimizer, "_MAX_GRID_TOTAL", 675)
        with pytest.raises(ValueError, match="too large"):
            grid_scan(objective, OptimizerConfig())


class TestSimplexRefine:
    def test_fixed_point_of_smooth_objective(self):
        def bowl(x):
            return float((x[0] - 0.3) ** 2 + (x[1] - 1.1) ** 2)

        outcome = simplex_refine(BatchRecorder(bowl), np.array([0.3, 1.1]))
        assert outcome.converged
        assert outcome.best_value < 1e-12

    def test_quadratic_bowl(self):
        def bowl(x):
            return float((x[0] - 0.3) ** 2 + (x[1] - 1.1) ** 2)

        outcome = simplex_refine(BatchRecorder(bowl), np.array([0.5, 0.5]))
        assert_allclose(outcome.best_params.to_flat(), [0.3, 1.1], atol=1e-6)

    def test_bell_objective_from_offset_start(self, bell):
        objective = _MeasuredEntropyObjective(bell, 2)
        outcome = simplex_refine(objective, np.array([0.1, 0.1]))
        assert_allclose(outcome.best_value, 1.0, atol=1e-6)

    def test_never_worse_than_start(self):
        # a spiky objective that punishes every move away from the start
        def spiky(x):
            return 0.0 if abs(x[0] - 0.2) < 1e-12 else 5.0

        outcome = simplex_refine(BatchRecorder(spiky), np.array([0.2, 0.3]))
        assert outcome.best_value <= 0.0 + 1e-15

    def test_accepts_measparams_start(self, bell):
        objective = _MeasuredEntropyObjective(bell, 2)
        outcome = simplex_refine(objective, MeasParams(((0.2, 0.4),)))
        assert_allclose(outcome.best_value, 1.0, atol=1e-6)

    def test_a_floor_flat_up_to_rounding_converges_at_once(self):
        # a tilt of a few ulps per probe step: counted as a descent, every
        # probe ring rebuilt the simplex and re-converged one step further,
        # until the iteration cap
        def tilt(x):
            return 1.0 + 1e-13 * x[1]

        recorder = BatchRecorder(tilt)
        outcome = simplex_refine(recorder, np.array([0.4, 5.0]))
        assert outcome.converged
        assert [len(rows) for rows in recorder.batches] == [3] + [4] * len(_PROBE_STEPS)
        assert outcome.evaluations == 3 + 4 * len(_PROBE_STEPS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_start_before_any_evaluation(self, bad):
        counter = BatchCounter(_MeasuredEntropyObjective(werner_ghz(0.7), 3))
        start = np.array([0.1, 0.2, bad, 0.3, 0.4, 0.5])
        with pytest.raises(ValueError, match="angles must be finite"):
            simplex_refine(counter, start)
        assert counter.calls == 0

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_batched_iterations_equal_row_by_row_values(self, seed):
        # an iteration values its four candidates in one call, and a batched
        # row equals the single-row value bit for bit, so the run is the one
        # of valuing every point on its own
        state = random_qubits(seed, 3, 2 + seed % 7)
        start = np.random.default_rng(seed).uniform(0.0, np.pi, 6)
        batched = BatchCounter(_MeasuredEntropyObjective(state, 3))
        outcome = simplex_refine(batched, start)
        alone = simplex_refine(RowByRow(_MeasuredEntropyObjective(state, 3)), start)
        assert outcome.best_value == alone.best_value
        assert np.array_equal(outcome.best_params.to_flat(), alone.best_params.to_flat())
        assert outcome.converged == alone.converged
        assert outcome.evaluations == alone.evaluations == sum(batched.sizes)
        # the start, then iterations, shrinks or rebuilds, and probe rings
        n = start.size
        assert batched.sizes[0] == n + 1
        assert set(batched.sizes[1:]) <= {4, n, 2 * n}
        assert 4 in batched.sizes


class TestQuasiNewton:
    @pytest.mark.parametrize("theta", [0.0, np.pi / 2], ids=["north", "south"])
    def test_bowl_across_the_pole(self, theta):
        # start and minimum lie on the great circle through the pole n = +z
        # (theta = 0) or n = -z (theta = pi/2), on opposite sides of it:
        # every row asked for stays on that circle, never on a way round
        # in phi, however phi jumps by pi at the pole
        side = 1.0 if theta == 0.0 else -1.0
        start = np.array([theta + side * 0.2, 1.0])
        target = bloch([theta + side * 0.1, 1.0 + np.pi])[0]

        def bowl(n):
            return float(np.sum((n - target) ** 2))

        recorder = SphereRecorder(bowl)
        outcome = refine_alone(recorder, start)
        assert outcome.converged
        assert outcome.best_value < 1e-12
        assert_allclose(bloch(outcome.best_params.to_flat())[0], target, atol=1e-6)
        rows = np.concatenate(recorder.batches)
        assert np.max(off_plane(rows, target, [0.0, 0.0, 1.0])) < 1e-6

    def test_first_ladder_runs_down_the_sphere_gradient(self):
        # the start's Bloch vectors are u, and the first ladder runs along
        # -g for g the gradient in u of f(u / |u|), by central differences
        objective = _MeasuredEntropyObjective(random_state((2, 2, 2), 4, 88), 3)
        start = np.array([0.3, 1.0, 1.2, 5.0, 0.0, 2.0])
        recorder = BatchCounter(objective)
        _quasi_newton(recorder, [start])
        ladder = recorder.batches[1]
        u = bloch(start).ravel()
        downhill = -central_difference(lambda v: objective(_angles(v)), u)
        assert_allclose(ladder, _angles(u + np.outer(optimizer.QN_LINE_STEPS, downhill)),
                        rtol=0, atol=1e-6)

    def test_sphere_gradient_equals_central_differences_in_u(self):
        # off the unit sphere too: the gradient of f(u / |u|) shrinks as 1 / |u|
        objective = _MeasuredEntropyObjective(random_state((2, 2, 2), 5, 89), 3)
        rng = np.random.default_rng(90)
        for _ in range(5):
            u = rng.normal(size=9) * np.repeat(rng.uniform(0.5, 2.0, 3), 3)
            _, grads = objective.evaluate_many(_angles(u)[None, :], gradient=True)
            expected = central_difference(lambda v: objective(_angles(v)), u)
            assert np.max(np.abs(_sphere_gradient(u, grads[0]) - expected)) < 1e-8

    def test_stacked_sphere_gradient_equals_each_row_on_its_own(self):
        rng = np.random.default_rng(91)
        for starts, nodes in ((1, 1), (4, 3), (8, 3), (5, 7)):
            u = rng.normal(size=(starts, 3 * nodes)) * rng.uniform(0.5, 2.0, (starts, 1))
            bloch_grad = rng.normal(size=(starts, 3 * nodes))
            stacked = _sphere_gradient(u, bloch_grad)
            alone = np.array([_sphere_gradient(a, b) for a, b in zip(u, bloch_grad)])
            assert stacked.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("phi", [0.0, 2.0], ids=["phi-0", "phi-2"])
    def test_start_at_theta_zero(self, phi):
        # at the pole phi names no direction: whatever the start's phi, the
        # first ladder heads straight for the minimum
        target = bloch([0.4, 1.0])[0]

        def bowl(n):
            return float(np.sum((n - target) ** 2))

        recorder = SphereRecorder(bowl)
        outcome = refine_alone(recorder, np.array([0.0, phi]))
        assert outcome.converged
        assert outcome.best_value < 1e-12
        assert_allclose(bloch(outcome.best_params.to_flat())[0], target, atol=1e-6)
        assert np.max(off_plane(recorder.batches[1], target, [0.0, 0.0, 1.0])) < 1e-6

    def test_minimum_at_the_pole(self):
        # minimum 0 at theta = 0 for every phi; away from it phi matters
        def cap(n):
            return float(1.0 - n[0, 2] + 0.1 * n[0, 0] ** 2)

        recorder = SphereRecorder(cap)
        outcome = refine_alone(recorder, np.array([0.6, 2.0]))
        assert outcome.converged
        assert outcome.best_value < 1e-12
        assert outcome.best_params.to_flat()[0] < 1e-6
        # the start, then ladders alone
        assert all(len(rows) == len(optimizer.QN_LINE_STEPS)
                   for rows in recorder.batches[1:])

    def test_iteration_cap(self, monkeypatch):
        def ripple(n):
            return float(np.sum(np.sin(3 * n) ** 2) + 0.1 * np.sum((n - 0.4) ** 2))

        monkeypatch.setattr(optimizer, "QN_MAX_ITERS", 2)
        start = np.array([1.2, 2.5, 0.3, 4.0, 0.9, 5.1])
        outcome = refine_alone(SphereRecorder(ripple), start)
        assert not outcome.converged
        assert outcome.best_value <= ripple(bloch(start))
        assert outcome.grid_best == ripple(bloch(start))
        # the start, then two iterations of a ladder, each row valued with
        # its gradient
        assert outcome.evaluations == 1 + 2 * len(optimizer.QN_LINE_STEPS)

    @pytest.mark.parametrize("rank", range(8))
    def test_acceptance_input_41_starts_reach_zero(self, rank):
        # the simplex stalled at 3.1e-3 to 6.2e-3 from starts 0, 2, 4 and 6
        state, _ = apply_tree(random_qubits(30_041, 3, 2), random_tree(40_041, 2), 2)
        objective = _MeasuredEntropyObjective(state, 3)
        scan = grid_scan(objective, OptimizerConfig(refine_starts=8))
        outcome = refine_alone(objective, scan.params[rank])
        assert outcome.best_value < 1e-9
        assert outcome.converged


class TestOptimize:
    def test_measured_state_reaches_zero(self):
        tree = random_tree(70, 2)
        measured, _ = apply_tree(random_qubits(5, 3, 6), tree, 2)
        objective = _MeasuredEntropyObjective(measured, 3)
        outcome = optimize(objective, OptimizerConfig())
        assert outcome.best_value < 1e-9
        assert outcome.converged

    def test_ghz_tripartite(self, ghz):
        objective = _MeasuredEntropyObjective(ghz, 3)
        outcome = optimize(objective, OptimizerConfig())
        assert_allclose(outcome.best_value, 1.0, atol=1e-4)

    def test_monotonicity(self):
        state = random_qubits(9, 3, 7)
        objective = _MeasuredEntropyObjective(state, 3)
        outcome = optimize(objective, OptimizerConfig())
        assert outcome.best_value <= outcome.grid_best + 1e-12

    def test_deterministic(self):
        state = random_qubits(10, 3, 3)
        objective = _MeasuredEntropyObjective(state, 3)
        first = optimize(objective, OptimizerConfig())
        second = optimize(objective, OptimizerConfig())
        assert first.best_value == second.best_value
        assert np.array_equal(
            first.best_params.to_flat(), second.best_params.to_flat()
        )
        assert first.evaluations == second.evaluations

    def test_pair_spectator_matches_bipartite(self):
        from mdiscord import tensor

        pair = random_state((2, 2), 2, 33)
        state = tensor(pair, random_state((2,), 2, 34))
        tri = optimize(_MeasuredEntropyObjective(state, 3), OptimizerConfig())
        bi = optimize(_MeasuredEntropyObjective(pair, 2), OptimizerConfig())
        assert abs(tri.best_value - bi.best_value) < 1e-5

    @pytest.mark.parametrize("starts", [1, 4, 7])
    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_lockstep_starts_equal_sequential_refinement(self, seed, starts):
        assert_lockstep_equals_sequential(seed, starts)

    # starts leave the stack in different rounds: all at the cap at 2 and
    # 5, some at the cap and some converged at 17, and all converged, in
    # 15 to 23 rounds, at the default cap above
    @pytest.mark.parametrize("starts", [1, 4, 7])
    @pytest.mark.parametrize("seed", [41, 42, 43])
    @pytest.mark.parametrize("cap", [2, 5, 17])
    def test_capped_lockstep_starts_equal_sequential_refinement(
            self, cap, seed, starts, monkeypatch):
        monkeypatch.setattr(optimizer, "QN_MAX_ITERS", cap)
        assert_lockstep_equals_sequential(seed, starts)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rank, seed, skipped", [(4, 1003, 3), (2, 1025, 8), (6, 1229, 5)])
    def test_starts_without_positive_curvature_keep_their_estimates(self, rank, seed, skipped):
        # some steps show s . y <= 0: those starts skip their BFGS update
        # while the others update theirs in the same stacked products; at
        # seed 1229 one start skips its first three steps' updates, and so
        # the scaling of its first estimate, which waits for a step that
        # curves up
        objective = _MeasuredEntropyObjective(random_state((2, 2, 2), rank, seed), 3)
        params = grid_scan(objective, OptimizerConfig(refine_starts=8)).params
        reference = [refine_by_vectors(objective, start) for start in params]
        assert _quasi_newton(objective, params) == [outcome for outcome, _ in reference]
        assert sum(count for _, count in reference) == skipped

    @pytest.mark.parametrize("seed", range(20))
    def test_dense_grid_oracle_dominance(self, seed):
        # default-settings optimize never loses to an independent dense-grid
        # oracle; it routinely wins by the grid's own resolution error
        state = random_state((2, 2), 1 + seed % 4, 900 + seed)
        found = discord(state, level=2).value
        reference = dense_grid_min(state, level=2, points_per_angle=100)
        assert found <= reference + 1e-4
