"""Command-line front end: config parsing, dispatch, exit codes.

Config files are flat ``key = value`` lines with dotted section keys
(full-line ``#`` comments allowed); the validated config is the dict of
``SCHEMA`` keys.  Precedence: built-in defaults, then the config file, then
repeated ``--set key=value`` flags, then the dedicated flags (``--out``,
``--no-svg``, ``--no-timestamp``, ``--kind``).  ``experiments`` writes
every output file: the CSVs and each kind's charts.

Exit codes: 0 success, 1 config error (``ConfigError``, a usage error or a
``MemoryError``: the space is too large), 2 truncation,
3 tracking/phase or numerical failure (positivity guard, negativity
cross-check) or an internal error (any other ``ValueError``), 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import PositivityError, StepOverflowError
from .experiments import (
    EVOLVE_KEYS,
    KINDS,
    ConfigError,
    SweepSpec,
    default_spec,
    point_legs,
    run_sweep,
    write_sweep_csv,
    write_trajectory_csv,
)
from .geomphase import CoarseGridError, SingularCheckpointError, TrackingError
from .hilbert import SpaceSpec, TruncationError
from .model import InitialStateSpec, ModelParams, perpendicular_state

ENV_OUTPUT_DIR = "KERRJC_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRUNCATION = 2
EXIT_TRACKING = 3
EXIT_IO = 4


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in s.split(",") if part.strip())


# key -> (converter, default, sign): a None default means "derived later",
# and a sign, "nonnegative" or "positive", bounds the value; a default that
# the library holds too is read from its one home, a field of SweepSpec,
# ModelParams or InitialStateSpec
SCHEMA = {
    "model.delta": (float, SweepSpec.base_params.delta, None),
    "model.chi": (float, SweepSpec.base_params.chi, None),
    "model.g": (float, ModelParams.g, "positive"),
    "model.gamma": (float, None, "nonnegative"),
    "model.p": (float, None, "nonnegative"),
    "model.p_z": (float, None, "nonnegative"),
    "space.n_max": (int, SweepSpec.n_max, "positive"),
    "initial.theta0": (float, 0.0, None),
    "initial.phi0": (float, InitialStateSpec.phi0, None),
    "initial.n": (int, InitialStateSpec.n, "positive"),
    "initial.perpendicular": (_parse_bool, False, None),
    "integrator.steps_per_period": (int, SweepSpec.steps_per_period, "positive"),
    "integrator.record_stride": (int, None, "positive"),
    "integrator.periods": (float, None, "positive"),
    "sweep.kind": (str, "", None),
    "sweep.grid_start": (float, None, None),
    "sweep.grid_stop": (float, None, None),
    "sweep.grid_points": (int, None, "positive"),
    "sweep.m_values": (_parse_int_list, SweepSpec.m_values, None),
    "sweep.workers": (int, 1, "positive"),  # 1 only: sweeps run in one process
    "output.dir": (str, None, None),
    "output.emit_svg": (_parse_bool, True, None),
    "output.timestamp": (_parse_bool, True, None),
}
# the key to set in place of a key that a sweep does not read, where one exists
SET_INSTEAD = {"integrator.periods": "sweep.m_values",
               "model.delta": "sweep.grid_start and sweep.grid_stop"}


def _entry(text: str, where: str) -> tuple[str, tuple[str, str]]:
    """One ``key = value`` entry as (key, (raw value, ``where``)), the place
    that its errors name."""
    key, eq, value = text.partition("=")
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    if not key.strip():
        raise ConfigError(f"{where}: empty key")
    return key.strip(), (value.strip(), where)


def parse_config_text(text: str) -> dict[str, tuple[str, str]]:
    """Split ``key = value`` lines; values stay raw strings, placed by ``line N``."""
    out: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.strip()[0] == "#":
            continue
        key, entry = _entry(line, f"line {lineno}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = entry
    return out


def build_config(raw: dict[str, tuple[str, str]]) -> dict:
    """Validate raw key/value pairs against the schema and semantics; returns
    the value of every ``SCHEMA`` key (None for an unset optional key)."""
    values = {key: default for key, (_, default, _) in SCHEMA.items()}
    for key, (text, where) in raw.items():
        if key not in SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        conv = SCHEMA[key][0]
        try:
            values[key] = conv(text)
        except ValueError as exc:
            raise ConfigError(f"{where}: invalid value for {key}: {exc}") from exc
        # a text value must come back unchanged from its `key = value` line
        if conv is str and (text != text.strip() or len(text.splitlines()) != 1):
            raise ConfigError(f"{key} must be one nonempty line without surrounding "
                              f"whitespace, got {text!r}")
    if values["sweep.kind"] not in ("", *KINDS):
        raise ConfigError(f"sweep.kind must be one of {', '.join(KINDS)}, "
                          f"got {values['sweep.kind']!r}")
    for key, (conv, _, sign) in SCHEMA.items():
        value = values[key]
        if value is not None and conv is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        if value is not None and sign and (value <= 0 if sign == "positive" else value < 0):
            raise ConfigError(f"{key} must be {sign}")

    if values["initial.n"] > values["space.n_max"]:
        raise ConfigError(f"initial.n = {values['initial.n']} exceeds space.n_max = "
                          f"{values['space.n_max']}")
    for key in ("initial.theta0", "initial.phi0"):
        # the tolerance of model.InitialStateSpec
        if not -1e-12 <= values[key] <= 2 * math.pi + 1e-12:
            raise ConfigError(f"{key} must lie in [0, 2*pi], got {values[key]}")
    if values["sweep.workers"] != 1:
        raise ConfigError(f"sweep.workers must be 1, got {values['sweep.workers']}: "
                          "sweeps run in one process")
    m_values = values["sweep.m_values"]
    if not m_values or min(m_values) < 1 or len(set(m_values)) != len(m_values):
        raise ConfigError("sweep.m_values must list one or more distinct m, all >= 1")
    if values["output.dir"] is None:
        values["output.dir"] = os.environ.get(ENV_OUTPUT_DIR, "runs")
    return values


def parse_config(text: str) -> dict:
    return build_config(parse_config_text(text))


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return "" if value is None else str(value)


def serialize_config(config: dict) -> str:
    """Canonical config text; parse_config round-trips it.

    Unset optional keys are left out: the grid, the integrator keys whose
    default depends on the sweep kind, and the rates, whose default depends
    on the command.
    """
    return "".join(f"{key} = {_text(config[key])}\n" for key in SCHEMA
                   if _text(config[key]))


def _model_params(config: dict, base: ModelParams) -> ModelParams:
    """``base``, the command's default model, with the ``model.*`` keys set in ``config``."""
    return replace(base, **{f.name: config[f"model.{f.name}"] for f in fields(ModelParams)
                            if config[f"model.{f.name}"] is not None})


def _refuse_unread(config: dict, keys, reader: str) -> None:
    """Refuse each of ``keys`` set away from its default: ``reader`` does not read it."""
    for key in keys:
        if config[key] != (default := SCHEMA[key][1]):
            leave = f"at {_text(default)}" if _text(default) else "unset"
            instead = f" and set {SET_INSTEAD[key]}" if key in SET_INSTEAD else ""
            raise ConfigError(f"{reader} does not read {key}: leave it {leave}{instead}")


def sweep_spec_from_config(config: dict) -> SweepSpec:
    """The sweep of ``config``; unset keys take the kind's ``default_spec`` values,
    and a key it does not read (``EVOLVE_KEYS``, ``Kind.unread``) must keep its own."""
    kind = config["sweep.kind"]
    if kind == "":
        raise ConfigError("sweep.kind is required")
    _refuse_unread(config, (*EVOLVE_KEYS, *KINDS[kind].unread), kind)
    grid = [config[f"sweep.grid_{k}"] for k in ("start", "stop", "points")]
    if None in grid and grid != [None] * 3:
        raise ConfigError("sweep.grid_start/grid_stop/grid_points must be given together")
    if None not in grid and not math.isfinite(grid[1] - grid[0]):  # a float's span, no warning
        raise ConfigError("the grid from sweep.grid_start to sweep.grid_stop spans more than "
                          "a float holds: narrow it")
    overrides = dict(base_params=_model_params(config, SweepSpec.base_params),
                     m_values=config["sweep.m_values"], n_max=config["space.n_max"],
                     steps_per_period=config["integrator.steps_per_period"],
                     grid=None if None in grid else tuple(np.linspace(*grid)),
                     record_stride=config["integrator.record_stride"],
                     periods=config["integrator.periods"])
    return default_spec(kind, **{k: v for k, v in overrides.items() if v is not None})


def run_evolve(config: dict) -> int:
    """Single-trajectory run: the one point's leg (``point_legs``), open if
    the model has a collapse channel, streamed into the debug trajectory CSV."""
    _refuse_unread(config, [key for key in SCHEMA if key.startswith("sweep.")], "evolve")
    space = SpaceSpec(config["space.n_max"])
    params = _model_params(config, SweepSpec.base_params.with_rates(0.0, 0.0, 0.0))
    if config["initial.perpendicular"]:
        init = perpendicular_state(params, config["initial.n"])
    else:
        init = InitialStateSpec(theta0=config["initial.theta0"],
                                phi0=config["initial.phi0"], n=config["initial.n"])
    [(_, _, closed, opened)] = point_legs(
        [(None, params, init)], init.n, space, config["integrator.periods"] or SweepSpec.periods,
        config["integrator.steps_per_period"],
        config["integrator.record_stride"] or SweepSpec.record_stride)
    blocks = opened if params != params.with_rates(0.0, 0.0, 0.0) else closed
    first = next(blocks)  # the leg's checks, and its first block's, run before any write

    outdir = Path(config["output.dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "trajectory.csv"
    try:
        write_trajectory_csv(chain([first], blocks), space.dim, path)
    except BaseException:
        path.unlink(missing_ok=True)  # a block refused later leaves no partial file
        raise
    print(f"wrote {path}")
    return EXIT_OK


def dispatch(config: dict) -> int:
    """Run the configured sweep and write its outputs."""
    spec = sweep_spec_from_config(config)
    result = run_sweep(spec)
    outdir = Path(config["output.dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{spec.kind}.csv"
    timestamp = datetime.now(timezone.utc).isoformat() if config["output.timestamp"] else None
    write_sweep_csv(result, csv_path, timestamp=timestamp)
    print(f"wrote {csv_path}")
    if not config["output.emit_svg"]:
        print("svg output disabled", file=sys.stderr)
    else:
        for path in KINDS[spec.kind].chart(result, outdir):
            print(f"wrote {path}")
    for (case, series), report in result.meta.get("planarity", {}).items():
        print(f"planarity {case} {series}: {report.max_off_plane:.3e}")
    return EXIT_OK


def _load_config(args) -> dict:
    for flag in ("config", "out", "kind"):  # given empty, a flag would fall back unseen
        if getattr(args, flag, None) == "":
            raise ConfigError(f"--{flag} is empty: give it a value or leave it out")
    raw: dict[str, tuple[str, str]] = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        raw = parse_config_text(text)
    raw.update(_entry(item, f"--set {item}") for item in args.set or [])
    if args.command == "bloch":
        raw["sweep.kind"] = ("bloch_traj", "bloch")
    elif getattr(args, "kind", None) is not None:
        raw["sweep.kind"] = (args.kind, "--kind")
    config = build_config(raw)
    if args.out is not None:
        config["output.dir"] = args.out
    if args.no_svg:
        config["output.emit_svg"] = False
    if args.no_timestamp:
        config["output.timestamp"] = False
    return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error: exit 1, one line
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--no-svg", action="store_true", help="skip SVG output")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp header line (diff-friendly)")

    parser = _Parser(prog="kerrjc", description="Kerr Jaynes-Cummings simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("evolve", parents=[common],
                   help="integrate a single trajectory and dump it as CSV")
    sweep = sub.add_parser("sweep", parents=[common], help="run a parameter sweep")
    sweep.add_argument("--kind", help="sweep kind (overrides sweep.kind)")
    sub.add_parser("bloch", parents=[common],
                   help="run the Bloch-trajectory comparison (resonant vs off)")
    sub.add_parser("validate-config", parents=[common],
                   help="parse and echo the validated configuration")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _load_config(args)
        if args.command == "validate-config":
            sys.stdout.write(serialize_config(config))
            return EXIT_OK
        if args.command == "evolve":
            return run_evolve(config)
        return dispatch(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (TrackingError, SingularCheckpointError, CoarseGridError) as exc:
        print(f"tracking error: {exc}; raise integrator.steps_per_period or lower "
              "integrator.record_stride", file=sys.stderr)
        return EXIT_TRACKING
    except StepOverflowError as exc:
        print(f"numerical error: {exc}; raise integrator.steps_per_period or choose "
              "model.g, model.delta and model.chi on a scale nearer 1", file=sys.stderr)
        return EXIT_TRACKING
    except PositivityError as exc:
        print(f"numerical error: {exc}; raise integrator.steps_per_period, lower model.gamma, "
              "model.p, model.p_z or choose model.g, model.delta and model.chi on a scale "
              "nearer 1", file=sys.stderr)
        return EXIT_TRACKING
    except ArithmeticError as exc:
        print(f"numerical error: {exc}; raise integrator.steps_per_period",
              file=sys.stderr)
        return EXIT_TRACKING
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("memory error: the states and operators do not fit in memory; "
              "lower space.n_max", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # a ValueError that is not a ConfigError is a fault of the program
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_TRACKING


if __name__ == "__main__":
    sys.exit(main())
