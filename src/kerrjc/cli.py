"""Command-line front end: config parsing, dispatch, CSV/SVG output.

Config files are flat ``key = value`` lines with dotted section keys
(full-line ``#`` comments allowed).  Precedence: built-in defaults, then the
config file, then repeated ``--set key=value`` flags, then the dedicated
flags (``--out``, ``--no-svg``, ``--no-timestamp``).

Exit codes: 0 success, 1 config error, 2 truncation, 3 tracking/phase or
numerical failure (positivity guard, negativity cross-check), 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    IntegratorConfig,
    LindbladSpec,
    PositivityError,
    evolve_closed,
    evolve_lindblad,
    write_trajectory_csv,
)
from .experiments import (
    SweepResult,
    SweepSpec,
    default_spec,
    run_sweep,
    write_sweep_csv,
)
from .geomphase import CoarseGridError, SingularCheckpointError, TrackingError
from .hilbert import SpaceSpec, TruncationError
from .model import (
    InitialStateSpec,
    ModelParams,
    hamiltonian,
    initial_state,
    perpendicular_state,
    sector_analytics,
)
from .svg import bloch_chart, line_chart

ENV_OUTPUT_DIR = "KERRJC_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRUNCATION = 2
EXIT_TRACKING = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in s.split(",") if part.strip())


# key -> (converter, default); None default means "derived later"
SCHEMA = {
    "model.delta": (float, 0.5),
    "model.chi": (float, 0.5),
    "model.g": (float, 1.0),
    "model.gamma": (float, 0.0),
    "model.p": (float, 0.0),
    "model.p_z": (float, 0.0),
    "space.n_max": (int, 4),
    "initial.theta0": (float, 0.0),
    "initial.phi0": (float, 0.0),
    "initial.n": (int, 1),
    "initial.perpendicular": (_parse_bool, False),
    "integrator.steps_per_period": (int, 2000),
    "integrator.record_stride": (int, None),
    "integrator.periods": (float, None),
    "sweep.kind": (str, ""),
    "sweep.grid_start": (float, None),
    "sweep.grid_stop": (float, None),
    "sweep.grid_points": (int, None),
    "sweep.m_values": (_parse_int_list, (1, 2, 3)),
    "sweep.open_gamma": (float, 0.1),
    "sweep.open_p": (float, 0.0),
    "sweep.open_p_z": (float, 0.01),
    "sweep.workers": (int, 1),
    "output.dir": (str, None),
    "output.emit_svg": (_parse_bool, True),
    "output.timestamp": (_parse_bool, True),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run settings."""

    model: ModelParams
    n_max: int
    theta0: float
    phi0: float
    sector: int
    perpendicular: bool
    steps_per_period: int
    record_stride: int | None
    periods: float | None
    sweep_kind: str
    grid_start: float | None
    grid_stop: float | None
    grid_points: int | None
    m_values: tuple[int, ...]
    open_rates: tuple[float, float, float]
    workers: int
    output_dir: str
    emit_svg: bool
    timestamp: bool


def parse_config_text(text: str) -> dict[str, tuple[str, int]]:
    """Split ``key = value`` lines; values stay raw strings."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


def build_config(raw: dict[str, tuple[str, int]]) -> RunConfig:
    """Validate raw key/value pairs against the schema and semantics."""
    values = {key: default for key, (_, default) in SCHEMA.items()}
    for key, (text, lineno) in raw.items():
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        conv = SCHEMA[key][0]
        try:
            values[key] = conv(text)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid value for {key}: {exc}") from exc
        # a text value must come back unchanged from its `key = value` line
        if conv is str and (text != text.strip() or len(text.splitlines()) != 1):
            raise ConfigError(f"{key} must be one nonempty line without surrounding "
                              f"whitespace, got {text!r}")
    for key, (conv, _) in SCHEMA.items():
        if conv is float and values[key] is not None and not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {values[key]}")

    for rate_key in ("model.gamma", "model.p", "model.p_z", "sweep.open_gamma",
                     "sweep.open_p", "sweep.open_p_z"):
        if values[rate_key] < 0:
            raise ConfigError(f"{rate_key} must be nonnegative")
    if values["model.g"] <= 0:
        raise ConfigError("model.g must be positive")
    if values["space.n_max"] < 1:
        raise ConfigError("space.n_max must be >= 1")
    if values["initial.n"] < 1:
        raise ConfigError("initial.n must be >= 1")
    for key in ("integrator.steps_per_period", "integrator.record_stride",
                "sweep.workers"):
        if values[key] is not None and values[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    if values["integrator.periods"] is not None and values["integrator.periods"] <= 0:
        raise ConfigError("integrator.periods must be positive")
    if values["sweep.grid_points"] is not None and values["sweep.grid_points"] < 1:
        raise ConfigError("sweep.grid_points must be >= 1")
    if not values["sweep.m_values"] or any(m < 1 for m in values["sweep.m_values"]):
        raise ConfigError("sweep.m_values must list one or more m, all >= 1")

    model = ModelParams(delta=values["model.delta"], chi=values["model.chi"],
                        g=values["model.g"], gamma=values["model.gamma"],
                        p=values["model.p"], p_z=values["model.p_z"])
    outdir = values["output.dir"]
    if outdir is None:
        outdir = os.environ.get(ENV_OUTPUT_DIR, "runs")
    return RunConfig(
        model=model,
        n_max=values["space.n_max"],
        theta0=values["initial.theta0"],
        phi0=values["initial.phi0"],
        sector=values["initial.n"],
        perpendicular=values["initial.perpendicular"],
        steps_per_period=values["integrator.steps_per_period"],
        record_stride=values["integrator.record_stride"],
        periods=values["integrator.periods"],
        sweep_kind=values["sweep.kind"],
        grid_start=values["sweep.grid_start"],
        grid_stop=values["sweep.grid_stop"],
        grid_points=values["sweep.grid_points"],
        m_values=values["sweep.m_values"],
        open_rates=(values["sweep.open_gamma"], values["sweep.open_p"],
                    values["sweep.open_p_z"]),
        workers=values["sweep.workers"],
        output_dir=outdir,
        emit_svg=values["output.emit_svg"],
        timestamp=values["output.timestamp"],
    )


def parse_config(text: str) -> RunConfig:
    return build_config(parse_config_text(text))


def serialize_config(config: RunConfig) -> str:
    """Canonical config text; parse_config round-trips it.

    Unset optional keys are left out: the grid, and the integrator keys
    whose default depends on the sweep kind.
    """
    def num(x):
        return None if x is None else f"{x:.17g}"

    def whole(x):
        return None if x is None else str(x)

    m = config.model
    pairs = [
        ("model.delta", num(m.delta)),
        ("model.chi", num(m.chi)),
        ("model.g", num(m.g)),
        ("model.gamma", num(m.gamma)),
        ("model.p", num(m.p)),
        ("model.p_z", num(m.p_z)),
        ("space.n_max", whole(config.n_max)),
        ("initial.theta0", num(config.theta0)),
        ("initial.phi0", num(config.phi0)),
        ("initial.n", whole(config.sector)),
        ("initial.perpendicular", "true" if config.perpendicular else "false"),
        ("integrator.steps_per_period", whole(config.steps_per_period)),
        ("integrator.record_stride", whole(config.record_stride)),
        ("integrator.periods", num(config.periods)),
        ("sweep.kind", config.sweep_kind),
        ("sweep.grid_start", num(config.grid_start)),
        ("sweep.grid_stop", num(config.grid_stop)),
        ("sweep.grid_points", whole(config.grid_points)),
        ("sweep.m_values", ",".join(str(v) for v in config.m_values)),
        ("sweep.open_gamma", num(config.open_rates[0])),
        ("sweep.open_p", num(config.open_rates[1])),
        ("sweep.open_p_z", num(config.open_rates[2])),
        ("sweep.workers", whole(config.workers)),
        ("output.dir", config.output_dir),
        ("output.emit_svg", "true" if config.emit_svg else "false"),
        ("output.timestamp", "true" if config.timestamp else "false"),
    ]
    return "\n".join(f"{k} = {v}" for k, v in pairs if v) + "\n"


def sweep_spec_from_config(config: RunConfig) -> SweepSpec:
    """The sweep of ``config``; unset keys take the kind's ``default_spec`` values."""
    kind = config.sweep_kind
    if kind == "":
        raise ConfigError("sweep.kind is required")
    overrides = dict(base_params=config.model, m_values=config.m_values,
                     open_rates=config.open_rates,
                     steps_per_period=config.steps_per_period,
                     n_max=config.n_max, workers=config.workers)
    if config.grid_start is not None or config.grid_stop is not None \
            or config.grid_points is not None:
        if None in (config.grid_start, config.grid_stop, config.grid_points):
            raise ConfigError("sweep.grid_start/grid_stop/grid_points must be "
                              "given together")
        overrides["grid"] = tuple(np.linspace(config.grid_start, config.grid_stop,
                                              config.grid_points))
    if config.record_stride is not None:
        overrides["record_stride"] = config.record_stride
    if config.periods is not None:
        overrides["periods"] = config.periods
    try:
        return default_spec(kind, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def emit_svg(result: SweepResult, outdir: Path) -> list[Path]:
    """Render the sweep as SVG charts; returns the files written."""
    if not result.rows:
        print("warning: empty result, no SVG written", file=sys.stderr)
        return []
    written: list[Path] = []
    kind = result.spec.kind
    # one pass: the rows of each grid value, m or (case, series), in row order
    key = (itemgetter(0, 1) if kind == "bloch_traj"
           else itemgetter(1 if kind.startswith("gp") else 0))
    groups: dict = {}
    for r in result.rows:
        groups.setdefault(key(r), []).append(r)

    if kind.startswith("negativity"):
        for variant, col in (("closed", 2), ("open", 3)):
            series = [(f"{value:.3g}", np.array([r[1] for r in groups[value]]),
                       np.array([r[col] for r in groups[value]]))
                      for value in result.spec.grid]
            path = outdir / f"{kind}_{variant}.svg"
            line_chart(series, path, title=f"{kind} ({variant})",
                       xlabel="t [1/g]", ylabel="negativity")
            written.append(path)
    elif kind.startswith("gp"):
        series = [(f"m={m}", np.array([r[0] for r in groups[m]]),
                   np.array([r[5] for r in groups[m]]))
                  for m in result.spec.m_values]
        path = outdir / f"{kind}_delta_phi.svg"
        line_chart(series, path, title=kind,
                   xlabel="sweep parameter", ylabel="delta phi (wrapped)")
        written.append(path)
    else:  # bloch_traj
        for case in ("resonant", "off_resonant"):
            series = [(name, np.array([[r[3], r[4], r[5]] for r in groups[case, name]]))
                      for name in ("unitary", "rho_proj", "eigvec")]
            path = outdir / f"bloch_{case}.svg"
            bloch_chart(series, path, title=f"Bloch trajectories ({case})")
            written.append(path)
    return written


def _timestamp_or_none(config: RunConfig) -> str | None:
    if not config.timestamp:
        return None
    return datetime.now(timezone.utc).isoformat()


def run_evolve(config: RunConfig) -> int:
    """Single-trajectory run; writes the debug trajectory CSV."""
    space = SpaceSpec(config.n_max)
    params = config.model
    if config.perpendicular:
        init = perpendicular_state(params, config.sector)
    else:
        init = InitialStateSpec(theta0=config.theta0, phi0=config.phi0,
                                n=config.sector)
    sa = sector_analytics(params, init.n)
    period = 2 * math.pi / sa.rabi_frequency
    integ = IntegratorConfig.for_periods(period, config.periods or SweepSpec.periods,
                                         config.steps_per_period,
                                         config.record_stride or SweepSpec.record_stride)
    psi0 = initial_state(init, space)
    h = hamiltonian(params, space)
    if params.gamma > 0 or params.p > 0 or params.p_z > 0:
        rho0 = np.outer(psi0, psi0.conj())
        record = evolve_lindblad(LindbladSpec.from_params(params, space, h), rho0,
                                 integ, space=space, params=params)
    else:
        record = evolve_closed(h, psi0, integ, space=space, params=params)

    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(record, outdir / "trajectory.csv")
    print(f"wrote {outdir / 'trajectory.csv'}")
    return EXIT_OK


def dispatch(config: RunConfig) -> int:
    """Run the configured sweep and write its outputs."""
    spec = sweep_spec_from_config(config)
    result = run_sweep(spec)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{spec.kind}.csv"
    write_sweep_csv(result, csv_path, timestamp=_timestamp_or_none(config))
    print(f"wrote {csv_path}")
    if config.emit_svg:
        for path in emit_svg(result, outdir):
            print(f"wrote {path}")
    else:
        print("svg output disabled", file=sys.stderr)
    return EXIT_OK


def _load_config(args) -> RunConfig:
    raw: dict[str, tuple[str, int]] = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        raw = parse_config_text(text)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = (value.strip(), 0)
    config = build_config(raw)
    if args.out:
        config = replace(config, output_dir=args.out)
    if args.no_svg:
        config = replace(config, emit_svg=False)
    if args.no_timestamp:
        config = replace(config, timestamp=False)
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
        if args.command == "bloch":
            config = replace(config, sweep_kind="bloch_traj")
            return dispatch(config)
        if getattr(args, "kind", None):
            config = replace(config, sweep_kind=args.kind)
        return dispatch(config)
    except ValueError as exc:
        # ConfigError and runner precondition failures (both config-induced)
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


if __name__ == "__main__":
    sys.exit(main())
