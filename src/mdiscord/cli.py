"""Command-line interface: discord values, mu sweeps, flux reports, and the
verification suite.

Subcommands: discord, sweep, flux, verify.  Every numeric path is a thin
adapter over the library; CSV output is RFC-4180 with 12 significant digits
and is byte-stable for a fixed configuration and seed.  Exit codes: 0 on
success, 1 on verification failure, 2 on bad input (configuration errors and
inputs the library rejects).  The environment variable MDISCORD_THREADS caps
the sweep worker count.  Run as ``mdiscord`` or ``python -m mdiscord.cli``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import entropy_flux as flux
from . import oracle, states
from .entropy_flux import _format_value
from .discord import discord, result_to_json
from .measure import params_from_json, tree_from_params
from .optimizer import OptimizerConfig
from .qstate import from_json as qstate_from_json

SWEEP_COLUMNS = ("mu", "D", "Delta_AB_C", "Delta_AC_B", "Delta_BC_PiA", "Delta_ABC")
VERIFY_COLUMNS = ("check", "samples", "max_violation", "tolerance", "pass")


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line, like any other bad input."""

    def error(self, message):
        raise ConfigError(f"{message} (see {self.prog} --help)")


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _emit(text: str, out_path: str | None):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigError(f"cannot read config {path}: {error}") from error
    return _expect(config, dict, f"config {path}")


_NOUNS = {dict: "a JSON object", int: "an integer", (int, float): "a number"}


def _expect(value, kinds, name: str):
    """``value`` if it is of ``kinds``, a key of ``_NOUNS`` (a JSON bool is
    never a number), else a ConfigError naming the input."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{name} must be {_NOUNS[kinds]}, got {value!r}")
    return value


def _setting(args, config: dict, name: str, default=None):
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    return config.get(name, default)


def _optimizer_config(args, config: dict) -> OptimizerConfig:
    block = dict(_expect(config.get("optimizer", {}), dict, "optimizer block"))
    for flag, key in (
        ("grid_points", "grid_points_per_angle"),
        ("refine_starts", "refine_starts"),
        ("simplex_iters", "simplex_max_iters"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            block[key] = value
    try:
        return OptimizerConfig(**block)
    except (TypeError, ValueError) as error:
        raise ConfigError(f"bad optimizer settings: {error}") from error


def _resolve_state(args, config: dict):
    state_block = _expect(config.get("state", {}), dict, "state block")
    family = _setting(args, state_block, "family")
    state_path = _setting(args, state_block, "state")
    if (family is None) == (state_path is None):
        raise ConfigError("choose exactly one of --family or --state")
    if state_path is not None:
        try:
            return qstate_from_json(Path(state_path).read_text())
        except (OSError, ValueError, KeyError) as error:
            raise ConfigError(f"cannot load state {state_path}: {error}") from error
    mu = _setting(args, state_block, "mu")
    if mu is not None:
        _expect(mu, (int, float), "mu")
    try:
        spec = states.StateSpec(family=family, mu=mu)
        return states.build(spec)
    except ValueError as error:
        raise ConfigError(str(error)) from error


def _parse_order(text):
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as error:
        raise ConfigError(f"bad --order {text!r}: {error}") from error


def cmd_discord(args) -> int:
    config = _load_config(args.config)
    state = _resolve_state(args, config)
    order = _parse_order(args.order) or config.get("order")
    level = _setting(args, config, "level")
    result = discord(
        state,
        measured_order=order,
        level=level,
        config=_optimizer_config(args, config),
    )
    text = result_to_json(result) + "\n"
    _emit(text, _setting(args, config, "out"))
    return 0


def _sweep_point(family: str, mu: float, optimizer_kwargs: dict) -> list[str]:
    state = states.build(states.StateSpec(family=family, mu=mu))
    result = discord(state, level=3, config=OptimizerConfig(**optimizer_kwargs))
    decomposition = result.decomposition
    return [_format_value(mu), _format_value(result.value)] + [
        _format_value(decomposition[key]) for key in SWEEP_COLUMNS[2:]
    ]


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    sweep_block = _expect(config.get("sweep", {}), dict, "sweep block")
    family = _setting(args, config, "family")
    if family not in states.MU_FAMILIES:
        raise ConfigError(f"sweep needs a mu-parameterized family, got {family!r}")
    points = args.points if args.points is not None else sweep_block.get("points", 21)
    _expect(points, int, "sweep points")
    start = float(_expect(sweep_block.get("start", 0.0), (int, float), "sweep start"))
    stop = float(_expect(sweep_block.get("stop", 1.0), (int, float), "sweep stop"))
    if not (0.0 <= start <= stop <= 1.0) or points < 2:
        raise ConfigError("sweep grid must satisfy 0 <= start <= stop <= 1, points >= 2")
    mus = [start + (stop - start) * i / (points - 1) for i in range(points)]
    optimizer_kwargs = _optimizer_config(args, config).__dict__
    workers = _worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(_sweep_point, [family] * len(mus), mus,
                         [optimizer_kwargs] * len(mus))
            )
    else:
        rows = [_sweep_point(family, mu, optimizer_kwargs) for mu in mus]
    _emit(_csv_text(SWEEP_COLUMNS, rows), _setting(args, config, "out"))
    return 0


def _worker_count() -> int:
    raw = os.environ.get("MDISCORD_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def cmd_flux(args) -> int:
    config = _load_config(args.config)
    state = _resolve_state(args, config)
    order = _parse_order(args.order) or config.get("order")
    if order:
        from .qstate import permute_subsystems

        full = list(order) + [i for i in range(state.n_subsystems) if i not in order]
        state = permute_subsystems(state, full)
    params_path = _setting(args, config, "params")
    if params_path is not None:
        try:
            params = params_from_json(Path(params_path).read_text())
        except (OSError, ValueError, KeyError) as error:
            raise ConfigError(f"cannot load params {params_path}: {error}") from error
    else:
        level = 3 if state.n_subsystems == 3 else 2
        params = discord(state, level=level,
                         config=_optimizer_config(args, config)).optimal_params
    measured = tuple(range(params.tree_depth))
    tree = tree_from_params(state.dims, measured, params)
    header, row = flux.flux_csv(flux.flux_report(state, tree))
    _emit(_csv_text(header, [row]), _setting(args, config, "out"))
    return 0


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    samples = _setting(args, config, "samples", 100)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ConfigError(f"samples must be a positive integer, got {samples!r}")
    seed = _expect(_setting(args, config, "seed", 0), int, "seed")
    reports = oracle.verification_suite(seed=seed, samples=samples)
    rows = [
        [report.name, str(report.samples), _format_value(report.max_violation),
         _format_value(report.tolerance), "1" if report.passed else "0"]
        for report in reports
    ]
    _emit(_csv_text(VERIFY_COLUMNS, rows), _setting(args, config, "out"))
    return 0 if all(report.passed for report in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mdiscord",
        description="Multipartite quantum discord: values, sweeps, flux, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_state=True):
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--out", help="output file (default: stdout)")
        if with_state:
            p.add_argument("--family", help="catalog state family")
            p.add_argument("--mu", type=float, help="mixing parameter in [0, 1]")
            p.add_argument("--state", help="explicit state JSON file")
            p.add_argument("--order", help="measurement order, e.g. 0,1,2")
        p.add_argument("--grid-points", type=int, dest="grid_points")
        p.add_argument("--refine-starts", type=int, dest="refine_starts")
        p.add_argument("--simplex-iters", type=int, dest="simplex_iters")

    p_discord = sub.add_parser("discord", help="optimized discord of one state")
    add_common(p_discord)
    p_discord.add_argument("--level", type=int, help="number of parties (default: all)")
    p_discord.set_defaults(handler=cmd_discord)

    p_sweep = sub.add_parser("sweep", help="discord and decomposition over a mu grid")
    add_common(p_sweep)
    p_sweep.add_argument("--points", type=int, help="number of mu grid points")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_flux = sub.add_parser("flux", help="entropy flux ledger for one state")
    add_common(p_flux)
    p_flux.add_argument("--params", help="measurement angles JSON file")
    p_flux.set_defaults(handler=cmd_flux)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    add_common(p_verify, with_state=False)
    p_verify.add_argument("--samples", type=int, help="random samples per check")
    p_verify.add_argument("--seed", type=int, help="seed of the random samples")
    p_verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:  # StructuralError and other rejected input
        print(f"error: {error}", file=sys.stderr)
        return 2


def run():  # console entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
