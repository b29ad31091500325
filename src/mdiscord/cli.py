"""Command-line interface: discord values, mu sweeps, flux reports, and the
verification suite.

Subcommands: discord, sweep, flux, verify.  Every numeric path is a thin
adapter over the library; CSV output is RFC-4180 with 12 significant digits
and is byte-stable for a fixed configuration and seed.  Every setting is
read through ``SETTINGS``: a config file value, then the flag laid over it.
The optimizer settings are the grid density (points per angle, of which
:func:`mdiscord.optimizer.grid_cells` keeps one cell per measurement) and
the number of refinement starts; the quasi-Newton refinement's iteration
cap and step ladder, and the cap and tolerance of the one polish simplex
pass, are fixed constants of :mod:`mdiscord.optimizer`.  An ``--out`` path is checked before any work
starts.  Exit codes: 0 on success, 1 on verification failure, 2 on bad
input (configuration errors, an output file that cannot be written, and
inputs the library rejects).  Run as ``mdiscord`` or ``python -m
mdiscord.cli``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import entropy_flux as flux
from . import oracle, states
from .entropy_flux import _format_value
from .discord import _normalize_order, discord, result_to_json
from .measure import params_from_json, tree_from_params
from .optimizer import OptimizerConfig
from .qstate import _is_json_number, permute_subsystems
from .qstate import from_json as qstate_from_json

SWEEP_COLUMNS = ("mu", "D", "Delta_AB_C", "Delta_AC_B", "Delta_BC_PiA", "Delta_ABC")
VERIFY_COLUMNS = ("check", "samples", "max_violation", "tolerance", "pass")
_OPTIMIZED = ("discord", "sweep", "flux")  # the subcommands that run the optimizer


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line, like any other bad input."""

    def error(self, message):
        raise ConfigError(f"{message} (see {self.prog} --help)")


def _parse_order(text: str) -> tuple[int, ...] | None:
    try:  # an empty --order leaves the config file's order in force
        return tuple(int(part) for part in text.split(",") if part != "") or None
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"bad order {text!r}: {error}") from error


# JSON type: (noun, check of a config file value, parser of a flag value).
_TYPES = {
    "integer": ("an integer", lambda v: _is_json_number(v, int), int),
    "number": ("a number", _is_json_number, float),
    "string": ("a string", lambda v: isinstance(v, str), str),
    "integer list": ("a list of integers", lambda v: isinstance(v, list)
                     and all(_is_json_number(i, int) for i in v), _parse_order),
}

# Every setting: config key (``block.key`` inside the state, sweep and
# optimizer blocks) -> (JSON type, default, subcommands that take it, flag,
# flag help).  An optimizer key left unset takes its OptimizerConfig default.
SETTINGS = {
    "out": ("string", None, _OPTIMIZED + ("verify",), "--out",
            "output file (default: stdout)"),
    "level": ("integer", None, ("discord",), "--level",
              "number of parties (default: all)"),
    "order": ("integer list", None, ("discord", "flux"), "--order",
              "measurement order, e.g. 0,1,2"),
    "params": ("string", None, ("flux",), "--params", "measurement angles JSON file"),
    "samples": ("integer", 100, ("verify",), "--samples", "random samples per check"),
    "seed": ("integer", 0, ("verify",), "--seed", "seed of the random samples"),
    "state.family": ("string", None, _OPTIMIZED, "--family", "catalog state family"),
    "state.mu": ("number", None, ("discord", "flux"), "--mu",
                 "mixing parameter in [0, 1]"),
    "state.state": ("string", None, ("discord", "flux"), "--state",
                    "explicit state JSON file"),
    "sweep.points": ("integer", 21, ("sweep",), "--points", "number of mu grid points"),
    "sweep.start": ("number", 0.0, ("sweep",), None, None),
    "sweep.stop": ("number", 1.0, ("sweep",), None, None),
    "optimizer.grid_points_per_angle": ("integer", None, _OPTIMIZED, "--grid-points",
                                        None),
    "optimizer.refine_starts": ("integer", None, _OPTIMIZED, "--refine-starts", None),
}
_BLOCKS = ("state", "sweep", "optimizer")


def _load(path: str, what: str, parse):
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise ConfigError(f"cannot load {what} {path}: {error}") from error


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def _settings(args) -> dict:
    """The subcommand's settings: its config file, every key checked against
    ``SETTINGS`` for the subcommand and the type, with the flags laid over it;
    an output file that cannot be written is refused here, before any work."""
    config = {}
    if args.config is not None:
        config = _load(args.config, "config", json.loads)
        _object(config, f"config {args.config}")
    found = {}
    for key, value in config.items():
        if key in _BLOCKS:
            for inner, inner_value in _object(value, f"{key} block").items():
                found[f"{key}.{inner}"] = inner_value
        elif "." in key:
            raise ConfigError(f"{args.command} takes no config key {key!r}; "
                              "a block's keys go inside the block")
        else:
            found[key] = value
    settings = {key: row[1] for key, row in SETTINGS.items() if args.command in row[2]}
    for key, value in found.items():
        if key not in settings:
            near = [k for k in settings if k.split(".")[-1] == key.split(".")[-1]]
            hint = f" (did you mean {near[0]}?)" if near else ""
            raise ConfigError(f"{args.command} takes no config key {key!r}{hint}")
        noun, check, _ = _TYPES[SETTINGS[key][0]]
        if not check(value):
            raise ConfigError(f"config key {key} must be {noun}, got {value!r}")
        settings[key] = value
    for key in settings:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    _check_out(settings["out"])
    return settings


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _check_out(out_path: str | None):
    """Refuse an output file that cannot be written: one that names a
    directory, or whose directory does not exist."""
    if out_path and (Path(out_path).is_dir() or not Path(out_path).parent.is_dir()):
        raise ConfigError(f"cannot write {out_path}: not a file in an existing directory")


def _emit(text: str, out_path: str | None):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text)
    except OSError as error:
        raise ConfigError(f"cannot write {out_path}: {error}") from error


def _optimizer_config(settings: dict) -> OptimizerConfig:
    block = {key.split(".")[1]: value for key, value in settings.items()
             if key.startswith("optimizer.") and value is not None}
    try:
        return OptimizerConfig(**block)
    except ValueError as error:
        raise ConfigError(f"bad optimizer settings: {error}") from error


def _resolve_state(settings: dict):
    family, state_path = settings["state.family"], settings["state.state"]
    if (family is None) == (state_path is None):
        raise ConfigError("choose exactly one of --family or --state")
    if state_path is not None:
        if settings["state.mu"] is not None:
            raise ConfigError("mu parameterizes a catalog --family; an explicit "
                              "--state takes no mu")
        return _load(state_path, "state", qstate_from_json)
    try:
        return states.build(family, settings["state.mu"])
    except ValueError as error:
        raise ConfigError(str(error)) from error


def cmd_discord(settings: dict) -> int:
    result = discord(
        _resolve_state(settings),
        measured_order=settings["order"],
        level=settings["level"],
        config=_optimizer_config(settings),
    )
    _emit(result_to_json(result) + "\n", settings["out"])
    return 0


def _sweep_point(family: str, mu: float, config: OptimizerConfig) -> list[str]:
    state = states.build(family, mu)
    result = discord(state, level=3, config=config)
    decomposition = result.decomposition
    return [_format_value(mu), _format_value(result.value)] + [
        _format_value(decomposition[key]) for key in SWEEP_COLUMNS[2:]
    ]


def cmd_sweep(settings: dict) -> int:
    family = settings["state.family"]
    if family not in states.MU_FAMILIES:
        raise ConfigError(f"sweep needs a mu-parameterized family, got {family!r}")
    points = settings["sweep.points"]
    start, stop = settings["sweep.start"], settings["sweep.stop"]
    if not (0.0 <= start <= stop <= 1.0) or points < 2:
        raise ConfigError("sweep grid must satisfy 0 <= start <= stop <= 1, points >= 2")
    mus = [start + (stop - start) * i / (points - 1) for i in range(points)]
    config = _optimizer_config(settings)
    rows = [_sweep_point(family, mu, config) for mu in mus]
    _emit(_csv_text(SWEEP_COLUMNS, rows), settings["out"])
    return 0


def cmd_flux(settings: dict) -> int:
    state = _resolve_state(settings)
    if settings["order"]:
        state = permute_subsystems(
            state, _normalize_order(settings["order"], state.n_subsystems))
    if settings["params"] is not None:
        params = _load(settings["params"], "params", params_from_json)
    else:
        level = 3 if state.n_subsystems == 3 else 2
        params = discord(state, level=level,
                         config=_optimizer_config(settings)).optimal_params
    measured = tuple(range(params.tree_depth))
    tree = tree_from_params(state.dims, measured, params)
    header, row = flux.flux_csv(flux.flux_report(state, tree))
    _emit(_csv_text(header, [row]), settings["out"])
    return 0


def cmd_verify(settings: dict) -> int:
    seed = settings["seed"]
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    reports = oracle.verification_suite(seed=seed, samples=settings["samples"])
    rows = [
        [report.name, str(report.samples), _format_value(report.max_violation),
         _format_value(report.tolerance), "1" if report.passed else "0"]
        for report in reports
    ]
    _emit(_csv_text(VERIFY_COLUMNS, rows), settings["out"])
    return 0 if all(report.passed for report in reports) else 1


_COMMANDS = {
    "discord": (cmd_discord, "optimized discord of one state"),
    "sweep": (cmd_sweep, "discord and decomposition over a mu grid"),
    "flux": (cmd_flux, "entropy flux ledger for one state"),
    "verify": (cmd_verify, "run the verification suite"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mdiscord",
        description="Multipartite quantum discord: values, sweeps, flux, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON run configuration file")
        for key, (kind, _, commands, flag, help_text) in SETTINGS.items():
            if flag is not None and command in commands:
                p.add_argument(flag, dest=key, type=_TYPES[kind][2], help=help_text)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](_settings(args))
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
