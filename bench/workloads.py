"""Seeded inputs and the timed task of each workload.

Input ``i`` of a run is a pure function of (workload, seed, i), so the same
seed gives the same inputs however many tasks a run reaches.  Every workload
draws a fixed base input per task index and lets the seed apply a random
local unitary to it (see :func:`local_unitaries`), which moves the work but
not the discord numbers.  Tasks come in cycles of a fixed mix, and a run
executes whole cycles.  The library receives only the generated states and
trees.  Task functions reach the library through module attributes, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from mdiscord import states
from mdiscord.measure import MeasParams, apply_tree, tree_from_params
from mdiscord.optimizer import OptimizerConfig
from mdiscord.qstate import QState, random_state

# ``import mdiscord.discord`` yields the function the package re-exports
# under that name, not the module.
discord_mod = importlib.import_module("mdiscord.discord")
flux_mod = importlib.import_module("mdiscord.entropy_flux")
oracle_mod = importlib.import_module("mdiscord.oracle")

SWEEP_CONFIG = OptimizerConfig()
# 10 points per angle over 6 angles: 1e6 grid points per task.
DENSE_CONFIG = OptimizerConfig(grid_points_per_angle=10, refine_starts=1)

# One sweep cycle: (class, mu) for a catalog family, (class, rank) for a
# random state or for the random state a measured state is made from.
SWEEP_CYCLE = (
    ("werner_ghz", 0.7), ("random", 4), ("werner_w", 0.5), ("measured", 2),
    ("bell_mixture", 0.9), ("random", 8), ("classical_quantum_mix", 0.3),
    ("random", 6),
)
DENSE_RANKS = (1, 3, 5, 8)    # one densegrid cycle
LEDGER_PAIRS = (3, 3, 2, 2)   # qubit count of each flux request in a task
# Samples of the verification suite per ledger task.  Its cost is linear in
# the samples; 3 gives the CLI `verify` path about the same share of ledger
# time as the four `flux` requests (README.md gives the measured split).
VERIFY_SAMPLES = 3
# Tasks per cycle.  A run executes whole cycles, so its task mix does not
# depend on how fast the program is; discord_bits_mean and peak_rss_mb are
# taken over the first cycle alone.
CYCLE_TASKS = {"sweep": len(SWEEP_CYCLE), "densegrid": len(DENSE_RANKS), "ledger": 8}

_SALT = {"sweep": 1, "densegrid": 2, "ledger": 3, "base": 4}


@dataclass
class DiscordTask:
    kind: str
    state: QState
    config: OptimizerConfig

    def run(self):
        return discord_mod.discord(self.state, level=3, config=self.config)


@dataclass
class FluxPair:
    state: QState
    tree: object
    angles: np.ndarray


@dataclass
class LedgerOutput:
    reports: list = field(default_factory=list)
    csv: list = field(default_factory=list)
    verify: tuple = ()


@dataclass
class LedgerTask:
    pairs: list
    verify_seed: int

    def run(self):
        out = LedgerOutput()
        for pair in self.pairs:
            reports = flux_mod.flux_report(pair.state, pair.tree)
            out.reports.append(reports)
            out.csv.append(flux_mod.flux_csv(reports))
        out.verify = oracle_mod.verification_suite(
            seed=self.verify_seed, samples=VERIFY_SAMPLES)
        return out


def _rng(workload: str, seed: int, index: int):
    return np.random.default_rng((_SALT[workload], seed, index))


def _seed31(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


def random_angles(rng, measured: int) -> np.ndarray:
    nodes = 2 ** measured - 1
    return np.stack([rng.uniform(0.0, np.pi / 2, nodes),
                     rng.uniform(0.0, 2 * np.pi, nodes)], 1).ravel()


def random_pair(rng, n_qubits: int, rank: int) -> FluxPair:
    state = random_state((2,) * n_qubits, rank, _seed31(rng))
    return make_pair(state, random_angles(rng, n_qubits - 1))


def make_pair(state: QState, angles: np.ndarray) -> FluxPair:
    n_qubits = state.n_subsystems
    tree = tree_from_params(state.dims, tuple(range(n_qubits - 1)),
                            MeasParams.from_flat(angles))
    return FluxPair(state, tree, angles)


def local_unitaries(rng, n_qubits: int) -> list[np.ndarray]:
    """A Haar-random single-qubit unitary per qubit.

    Discord and every flux-ledger entry are invariant under local unitaries
    (with the tree's bases turned along), so a rotated input has the same
    discord numbers while the optimizer meets a moved landscape; the seed
    thus varies the work without moving the discord numbers of a task.
    """
    factors = []
    for _ in range(n_qubits):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        factors.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return factors


def rotate_state(state: QState, factors) -> QState:
    u = reduce(np.kron, factors)
    matrix = u @ np.asarray(state.matrix) @ u.conj().T
    return QState(state.dims, (matrix + matrix.conj().T) / 2)


def rotate_angles(angles: np.ndarray, factors) -> np.ndarray:
    """Angles of the tree whose bases are those of ``angles`` turned by the
    factors: node i, on qubit floor(log2(i + 1)), gets U|v0(theta, phi)> up
    to a phase, so outcome 0 stays outcome 0 and the tree's branches keep
    their order."""
    out = np.array(angles, dtype=float)
    for node in range(out.size // 2):
        theta, phi = out[2 * node], out[2 * node + 1]
        u = factors[(node + 1).bit_length() - 1]
        a, b = u @ np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
        out[2 * node] = np.arctan2(abs(b), abs(a))
        out[2 * node + 1] = (np.angle(b) - np.angle(a)) % (2 * np.pi)
    return out


def _sweep_base(index: int) -> tuple[str, QState]:
    """The seed-independent state of sweep task ``index``."""
    kind, param = SWEEP_CYCLE[index % len(SWEEP_CYCLE)]
    rng = _rng("base", 0, index)
    if kind == "random":
        return kind, random_state((2, 2, 2), param, _seed31(rng))
    if kind == "measured":
        pair = random_pair(rng, 3, param)
        return kind, apply_tree(pair.state, pair.tree, 2)[0]
    return kind, getattr(states, kind)(param)


def _sweep_input(rng, index: int) -> DiscordTask:
    kind, base = _sweep_base(index)
    return DiscordTask(kind, rotate_state(base, local_unitaries(rng, 3)), SWEEP_CONFIG)


def _densegrid_input(rng, index: int) -> DiscordTask:
    rank = DENSE_RANKS[index % len(DENSE_RANKS)]
    base = random_state((2, 2, 2), rank, _seed31(_rng("base", 1, index)))
    return DiscordTask("random", rotate_state(base, local_unitaries(rng, 3)), DENSE_CONFIG)


def _ledger_input(rng, index: int) -> LedgerTask:
    """Four seed-independent base pairs of ranks that cycle with the task
    index, each turned by its own seeded local unitaries."""
    base_rng = _rng("base", 2, index)
    pairs = []
    for k, n in enumerate(LEDGER_PAIRS):
        base = random_pair(base_rng, n, 1 + (index + k) % 2 ** n)
        factors = local_unitaries(rng, n)
        pairs.append(make_pair(rotate_state(base.state, factors),
                               rotate_angles(base.angles, factors)))
    return LedgerTask(pairs, _seed31(rng))


_MAKERS = {"sweep": _sweep_input, "densegrid": _densegrid_input, "ledger": _ledger_input}


def make_input(workload: str, seed: int, index: int):
    """Input ``index`` of a run with this seed."""
    return _MAKERS[workload](_rng(workload, seed, index), index)


def warmup_input(workload: str):
    """The untimed first task of a run, the same for every seed so that
    set-up time does not vary with the seed: werner_ghz(0.7) under the
    workload's optimizer settings, or a fixed ledger task."""
    if workload == "ledger":
        return _ledger_input(_rng("base", 3, 0), 0)
    config = SWEEP_CONFIG if workload == "sweep" else DENSE_CONFIG
    return DiscordTask("werner_ghz", states.werner_ghz(0.7), config)


def tree_integrand(reports) -> float:
    """Level-3 discord integrand of a three-qubit flux report's tree: the
    sum of its four decomposition deltas."""
    m1, m2 = reports[1].deltas, reports[2].deltas
    return m1["Delta_AB_C"] + m1["Delta_AC_B"] + m1["Delta_ABC"] + m2["Delta_BC_PiA"]


def discord_bits(task, output) -> list[float]:
    """The discord numbers a task produced: the minimized value for the
    discord workloads; for the ledger, the integrand of each three-qubit
    tree, an upper bound on that state's discord.  The ledger's figure is a
    property of its inputs, not of the optimizer."""
    if isinstance(task, DiscordTask):
        return [output.value]
    return [tree_integrand(reports) for reports in output.reports if len(reports) == 3]
