"""Command-line front end: config parsing, dispatch, exit codes.

Config files are flat ``key = value`` lines with dotted section keys
(full-line ``#`` comments allowed); the validated config is the dict of
``SCHEMA`` keys.  Precedence: built-in defaults, then the config file, then
repeated ``--set key=value`` flags, then the dedicated flags (``--out``,
``--no-svg``, ``--no-timestamp``, ``--kind``).  ``experiments`` writes
every output file: the CSVs and each kind's charts.

Exit codes: 0 success, 1 config error (``ConfigError``, or a
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
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import LindbladSpec, PositivityError, evolve_closed, evolve_lindblad
from .experiments import (
    KINDS,
    START_SECTOR,
    ConfigError,
    SweepSpec,
    default_spec,
    leg_setup,
    run_sweep,
    write_sweep_csv,
    write_trajectory_csv,
)
from .geomphase import CoarseGridError, SingularCheckpointError, TrackingError
from .hilbert import SpaceSpec, TruncationError, reached_space
from .model import InitialStateSpec, ModelParams, initial_state, perpendicular_state

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
# and a sign, "nonnegative" or "positive", bounds the value
SCHEMA = {
    "model.delta": (float, 0.5, None),
    "model.chi": (float, 0.5, None),
    "model.g": (float, 1.0, "positive"),
    "model.gamma": (float, 0.0, "nonnegative"),
    "model.p": (float, 0.0, "nonnegative"),
    "model.p_z": (float, 0.0, "nonnegative"),
    "space.n_max": (int, 4, "positive"),
    "initial.theta0": (float, 0.0, None),
    "initial.phi0": (float, 0.0, None),
    "initial.n": (int, 1, "positive"),
    "initial.perpendicular": (_parse_bool, False, None),
    "integrator.steps_per_period": (int, 2000, "positive"),
    "integrator.record_stride": (int, None, "positive"),
    "integrator.periods": (float, None, "positive"),
    "sweep.kind": (str, "", None),
    "sweep.grid_start": (float, None, None),
    "sweep.grid_stop": (float, None, None),
    "sweep.grid_points": (int, None, "positive"),
    "sweep.m_values": (_parse_int_list, (1, 2, 3), None),
    "sweep.open_gamma": (float, 0.1, "nonnegative"),
    "sweep.open_p": (float, 0.0, "nonnegative"),
    "sweep.open_p_z": (float, 0.01, "nonnegative"),
    "sweep.workers": (int, 1, "positive"),  # 1 only: sweeps run in one process
    "output.dir": (str, None, None),
    "output.emit_svg": (_parse_bool, True, None),
    "output.timestamp": (_parse_bool, True, None),
}


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

    Unset optional keys are left out: the grid, and the integrator keys
    whose default depends on the sweep kind.
    """
    return "".join(f"{key} = {_text(config[key])}\n" for key in SCHEMA
                   if _text(config[key]))


def _model_params(config: dict) -> ModelParams:
    return ModelParams(**{f.name: config[f"model.{f.name}"] for f in fields(ModelParams)})


def sweep_spec_from_config(config: dict) -> SweepSpec:
    """The sweep of ``config``; unset keys take the kind's ``default_spec`` values."""
    kind = config["sweep.kind"]
    if kind == "":
        raise ConfigError("sweep.kind is required")
    if (n := config["initial.n"]) != START_SECTOR:
        raise ConfigError(f"sweeps start in sector {START_SECTOR}, and initial.n = {n} is "
                          f"read only by evolve: set initial.n = {START_SECTOR}")
    grid = [config[f"sweep.grid_{k}"] for k in ("start", "stop", "points")]
    if None in grid and grid != [None] * 3:
        raise ConfigError("sweep.grid_start/grid_stop/grid_points must be given together")
    overrides = dict(base_params=_model_params(config), m_values=config["sweep.m_values"],
                     open_rates=(config["sweep.open_gamma"], config["sweep.open_p"],
                                 config["sweep.open_p_z"]),
                     steps_per_period=config["integrator.steps_per_period"],
                     n_max=config["space.n_max"],
                     grid=None if None in grid else tuple(np.linspace(*grid)),
                     record_stride=config["integrator.record_stride"],
                     periods=config["integrator.periods"])
    return default_spec(kind, **{k: v for k, v in overrides.items() if v is not None})


def run_evolve(config: dict) -> int:
    """Single-trajectory run; writes the debug trajectory CSV (an open one
    runs on the reached space, zero-padded back to the full space)."""
    space = SpaceSpec(config["space.n_max"])
    params = _model_params(config)
    if config["initial.perpendicular"]:
        init = perpendicular_state(params, config["initial.n"])
    else:
        init = InitialStateSpec(theta0=config["initial.theta0"],
                                phi0=config["initial.phi0"], n=config["initial.n"])
    reached = reached_space(init.n, space)
    _, integ, h = leg_setup(params, init.n, space,
                            config["integrator.periods"] or SweepSpec.periods,
                            config["integrator.steps_per_period"],
                            config["integrator.record_stride"] or SweepSpec.record_stride)
    psi0 = initial_state(init, space)
    if params.gamma > 0 or params.p > 0 or params.p_z > 0:
        d, pad = reached.dim, space.dim - reached.dim
        record = evolve_lindblad(LindbladSpec.from_params(params, reached, h[:d, :d]),
                                 np.outer(psi0[:d], psi0[:d].conj()), integ)
        record = replace(record, states=np.pad(record.states, ((0, 0), (0, pad), (0, pad))))
    else:
        record = evolve_closed(h, psi0, integ)

    outdir = Path(config["output.dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(record, outdir / "trajectory.csv")
    print(f"wrote {outdir / 'trajectory.csv'}")
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
    raw: dict[str, tuple[str, str]] = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        raw = parse_config_text(text)
    raw.update(_entry(item, f"--set {item}") for item in args.set or [])
    if args.command == "bloch":
        raw["sweep.kind"] = ("bloch_traj", "bloch")
    elif getattr(args, "kind", None):
        raw["sweep.kind"] = (args.kind, "--kind")
    config = build_config(raw)
    if args.out:
        config["output.dir"] = args.out
    if args.no_svg:
        config["output.emit_svg"] = False
    if args.no_timestamp:
        config["output.timestamp"] = False
    return config


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--no-svg", action="store_true", help="skip SVG output")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp header line (diff-friendly)")

    parser = argparse.ArgumentParser(prog="kerrjc",
                                     description="Kerr Jaynes-Cummings simulator")
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
    args = build_parser().parse_args(argv)
    try:
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
    except PositivityError as exc:
        rates = ("model.gamma, model.p, model.p_z" if args.command == "evolve"
                 else "sweep.open_gamma, sweep.open_p, sweep.open_p_z")
        print(f"numerical error: {exc}; raise integrator.steps_per_period "
              f"or lower {rates}", file=sys.stderr)
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
