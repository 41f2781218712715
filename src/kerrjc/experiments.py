"""Parameter sweeps: negativity, geometric-phase and Bloch data products.

Every sweep kind is one row of ``KINDS``, and ``run_sweep`` runs them all,
each from sector ``START_SECTOR``.  Sweeps are deterministic (no
randomness anywhere in the pipeline), run in one process and assemble rows
in grid order, so re-running an identical spec reproduces the CSV byte for
byte.  The closed legs of all grid points advance in lockstep
(``dynamics.closed_blocks``) on the full space and record only the reached
space (``hilbert.reached_space``, Fock levels 0..START_SECTOR); the open
legs and every negativity and Bloch series run on it, whose states and
operators are exact slices of the full ones, and it sizes both legs'
blocks.  Grid points that share model parameters form one group, which
builds its operators once; consecutive groups form a chunk, whose hop
matrices hold at most ``BLOCK_ENTRIES`` entries, and the open legs of a
chunk advance in lockstep (``dynamics.lindblad_blocks``).  A kind reduces
the blocks of either leg through one interface,
``(spec, reached space, blocks) -> one reduction per point``; the phase
and Bloch kinds track the start sector's eigenpairs of each open block
(``information.sector_eigh``) with one ``BranchTracker`` per chunk.

This module writes every output file.  Each row layout is a column tuple
and one ``%``-template next to it, each kind's row in ``KINDS`` names its
chart builder, and ``_write_csv`` streams every CSV, the sweeps' and the
``evolve`` trajectory's, through a template.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .dynamics import (
    BLOCK_ENTRIES,
    IntegratorConfig,
    LindbladSpec,
    TrajectoryRecord,
    closed_blocks,
    lindblad_blocks,
)
from .geomphase import (
    BranchTracker,
    PhaseChain,
    SingularCheckpointError,
    checkpoint_phase,
    wrap_angle,
)
from .hilbert import SpaceSpec, reached_space
from .information import bloch_series, negativity, planarity, sector_eigh
from .model import (
    InitialStateSpec,
    ModelParams,
    hamiltonian,
    initial_state,
    is_resonant,
    perpendicular_state,
    sector_analytics,
)
from .svg import bloch_chart, line_chart

DEFAULT_OPEN_RATES = (0.1, 0.0, 0.01)
OMEGA_DEGRADED = 0.05
DEFAULT_N_MAX = 4
START_SECTOR = 1  # the excitation sector N of every sweep's initial states

# each row layout: its CSV columns and the %-template of one row
# (%.17g for a float, %d for m, %s for text)
GP_COLUMNS = ("param", "m", "tau", "phi_u", "phi_g", "delta_phi_wrapped",
              "delta_phi_raw", "omega_plus", "valid")
GP_ROW = "%.17g,%d" + ",%.17g" * 6 + ",%s\n"
NEG_COLUMNS = ("param", "t", "neg_closed", "neg_open")
NEG_ROW = "%.17g" + ",%.17g" * 3 + "\n"
BLOCH_COLUMNS = ("case", "series", "t", "x", "y", "z", "weight")
BLOCH_ROW = "%s,%s" + ",%.17g" * 5 + "\n"
BLOCH_CASES = ("resonant", "off_resonant")
BLOCH_SERIES = ("unitary", "rho_proj", "eigvec")


class ConfigError(ValueError):
    """Malformed or invalid run configuration; the message names the key."""


@dataclass(frozen=True)
class SweepSpec:
    """One sweep definition: kind, parameter grid, base model, open rates."""

    kind: str
    grid: tuple[float, ...]
    base_params: ModelParams
    m_values: tuple[int, ...] = (1, 2, 3)
    open_rates: tuple[float, float, float] = DEFAULT_OPEN_RATES
    steps_per_period: int = 2000
    record_stride: int = 4
    periods: float = 6.0
    n_max: int = DEFAULT_N_MAX

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown sweep.kind {self.kind!r}")
        if len(self.grid) == 0:
            raise ConfigError("the grid (sweep.grid_points) must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("the grid must rise: sweep.grid_stop > sweep.grid_start")
        m_values = self.m_values
        if not m_values or min(m_values) < 1 or len(set(m_values)) != len(m_values):
            raise ConfigError("sweep.m_values must list one or more distinct m, all >= 1")
        if any(r < 0 for r in self.open_rates):
            raise ConfigError("the sweep.open_* rates must be nonnegative")

    @property
    def open_params(self) -> ModelParams:
        g, p, pz = self.open_rates
        return self.base_params.with_rates(g, p, pz)

    @property
    def space(self) -> SpaceSpec:
        return SpaceSpec(self.n_max)


@dataclass
class SweepResult:
    spec: SweepSpec
    columns: tuple[str, ...]
    rows: list[tuple]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Kind:
    """What one sweep kind computes, as ``_grouped_rows`` runs it."""

    columns: tuple[str, ...]
    template: str  # one CSV row of ``columns``
    points: Callable  # spec -> (value, params, initial state) of every grid point
    closed: Callable  # (spec, reached space, closed_blocks) -> one reduction per point
    opened: Callable  # (spec, reached space, lindblad_blocks) -> one reduction per point
    rows: Callable  # (spec, value, period, closed, opened) -> the point's rows
    chart: Callable  # (result, outdir) -> the SVG files written
    checks: tuple[Callable, ...] = ()  # spec -> None, raise before any integration
    defaults: dict = field(default_factory=dict)  # the default_spec keywords
    horizon: Callable = attrgetter("periods")  # spec -> periods that every leg runs
    meta: Callable = lambda points, rows: {}  # -> the result's meta


def default_spec(kind: str, **overrides) -> SweepSpec:
    """Sweep spec with the package defaults for the given kind."""
    if kind not in KINDS:
        raise ConfigError(f"unknown sweep.kind {kind!r}")
    return SweepSpec(kind=kind, **{"base_params": ModelParams(delta=0.5, chi=0.5),
                                   **KINDS[kind].defaults, **overrides})


def _checkpoints(spec: SweepSpec) -> list[int]:
    """Record index of each checkpoint m * period; raises if one falls
    between records."""
    for m in spec.m_values:
        if m * spec.steps_per_period % spec.record_stride:
            raise ConfigError(
                f"checkpoint m={m} falls between records (m*steps_per_period/"
                f"record_stride = {m * spec.steps_per_period}/{spec.record_stride}); "
                "choose integrator.steps_per_period, integrator.record_stride and "
                "sweep.m_values so that it is a whole number")
    return [m * spec.steps_per_period // spec.record_stride for m in spec.m_values]


def _resonant(top: Optional[float] = None, label: str = "") -> Callable:
    """Check of start-sector resonance and of a polar-angle grid within [0, top]."""
    def check(spec: SweepSpec) -> None:
        if not is_resonant(spec.base_params, START_SECTOR, tol=1e-9):
            raise ConfigError(f"{spec.kind} requires sector-{START_SECTOR} resonance: "
                              "set model.delta equal to model.chi")
        if top is not None and (spec.grid[0] < -1e-12 or spec.grid[-1] > top + 1e-12):
            raise ConfigError(f"{spec.kind} grid must lie in [0, {label}]: set "
                              "sweep.grid_start and sweep.grid_stop")
    return check


def _two_records(spec: SweepSpec) -> None:
    """Check that the legs record two or more samples (planarity needs them)."""
    if round(spec.periods * spec.steps_per_period) < 1:
        raise ConfigError(f"{spec.kind} needs two or more records: raise integrator.periods")


def _largest_m(spec: SweepSpec) -> float:
    return float(max(spec.m_values))


def _per_state(fn, states: np.ndarray, space: SpaceSpec) -> np.ndarray:
    """``fn`` of a (b, r, ...) block of states as one stack, shaped (b, r, ...)."""
    b, r = states.shape[:2]
    out = fn(states.reshape(b * r, *states.shape[2:]), space)
    return out.reshape(b, r, *out.shape[1:])


def _series(fn) -> Callable:
    """Reducer of either leg: (times, ``fn`` of every state) of every point,
    on the reached space."""
    def series(spec: SweepSpec, reached: SpaceSpec, blocks) -> list[tuple]:
        times, values = zip(*((block_times, _per_state(fn, states, reached))
                              for block_times, states, *_ in blocks))
        return list(zip(np.concatenate(times, axis=1), np.concatenate(values, axis=1)))
    return series


def _neg_rows(spec: SweepSpec, value, period, closed, opened) -> list[tuple]:
    (times, neg_c), (_, neg_o) = closed, opened
    return [(value, t, nc, no)
            for t, nc, no in zip(times.tolist(), neg_c.tolist(), neg_o.tolist())]


def _gp_closed(spec: SweepSpec, reached: SpaceSpec, blocks) -> list[tuple]:
    """Every point's closed phase chain at the checkpoints."""
    chain = PhaseChain(_checkpoints(spec))
    for _, states, _ in blocks:
        chain.extend(states)
    return list(zip(*chain.values))


def _gp_opened(spec: SweepSpec, reached: SpaceSpec, blocks) -> list[Optional[tuple]]:
    """Per point: its open phase chain and tracked eigenvalue at the
    checkpoints (kept block by block), or None if its tracking failed."""
    checkpoints = np.array(_checkpoints(spec))
    tracker, chain, seen = BranchTracker(), PhaseChain(checkpoints), 0
    for times, states in blocks:
        w, vectors = tracker.extend(times, *sector_eigh(states, START_SECTOR))
        chain.extend(vectors)
        if not seen:
            omegas = np.empty((len(w), checkpoints.size))
        here = (checkpoints >= seen) & (checkpoints < seen + w.shape[1])
        omegas[:, here] = w[:, checkpoints[here] - seen]
        seen += w.shape[1]
    return [None if p in tracker.failed else ([v[p] for v in chain.values], omegas[p])
            for p in range(len(omegas))]


def _gp_rows(spec: SweepSpec, value, period, closed, opened) -> list[tuple]:
    nan = float("nan")
    m_values = spec.m_values
    if opened is None:
        return [(value, m, m * period, nan, nan, nan, nan, nan, "tracking_error")
                for m in m_values]
    chain_g, omegas = opened
    rows = []
    for j, m in enumerate(m_values):
        tau = m * period
        omega_plus = float(omegas[j])
        try:
            phi_u = checkpoint_phase(closed, j)
            phi_g = checkpoint_phase(chain_g, j)
        except SingularCheckpointError:
            rows.append((value, m, tau, nan, nan, nan, nan, omega_plus, "singular"))
            continue
        raw = phi_g - phi_u
        wrapped = wrap_angle(raw)
        flag = "degraded" if omega_plus < OMEGA_DEGRADED else "ok"
        rows.append((value, m, tau, phi_u, phi_g, wrapped, raw, omega_plus, flag))
    return rows


def _bloch_opened(spec: SweepSpec, reached: SpaceSpec, blocks) -> list[tuple]:
    """Per point: the Bloch series of its density matrices and of its
    tracked dominant eigenvector; a tracking failure aborts."""
    tracker = BranchTracker()
    rho, eigvec = [], []
    for times, states in blocks:
        rho.append(_per_state(bloch_series, states, reached))
        vectors = tracker.extend(times, *sector_eigh(states, START_SECTOR))[1]
        eigvec.append(_per_state(bloch_series, vectors, reached))
        for error in tracker.failed.values():
            raise error
    return list(zip(np.concatenate(rho, axis=1), np.concatenate(eigvec, axis=1)))


def _bloch_rows(spec: SweepSpec, value, period, closed, opened) -> list[tuple]:
    times, unitary = closed
    return [(value, name, float(t), float(x), float(y), float(z), float(w))
            for name, data in zip(BLOCH_SERIES, (unitary, *opened))
            for t, (x, y, z, w) in zip(times, data)]


def _bloch_planarity(points, rows) -> dict:
    """Planarity of each (case, series) Bloch path against the unitary
    rotation axis of its case."""
    paths: dict[tuple[str, str], list] = {}
    for row in rows:
        paths.setdefault(row[:2], []).append(row[3:6])
    axes = {case: sector_analytics(params, init.n).axis for case, params, init in points}
    return {"planarity": {key: planarity(np.array(xyz), np.array(axes[key[0]]))
                          for key, xyz in paths.items()}}


def leg_setup(params: ModelParams, n: int, space: SpaceSpec, periods: float,
              steps_per_period: int,
              record_stride: int) -> tuple[float, IntegratorConfig, np.ndarray]:
    """(period, integrator grid, H) of the legs that start in sector ``n``:
    the grid spans ``periods`` Rabi periods of that sector, which must be
    finite and positive."""
    rabi = sector_analytics(params, n).rabi_frequency
    period = 2 * math.pi / rabi if rabi > 0 else math.inf
    if not 0 < period < math.inf:
        raise ConfigError(f"the sector-{n} Rabi frequency is {rabi:g}, which gives no "
                          "finite positive period: choose model.g, model.delta and "
                          "model.chi on a scale nearer 1")
    config = IntegratorConfig.for_periods(period, periods, steps_per_period, record_stride)
    return period, config, hamiltonian(params, space)


def _grouped_rows(spec: SweepSpec, kind: Kind, points, reached: SpaceSpec) -> list[tuple]:
    """Rows of (value, params, initial state) points, in grid order.

    Points that share model parameters form one group: H, the period of sector
    START_SECTOR and the integrator grid are built once for it.  The closed
    legs of all points advance in lockstep (``closed_blocks``), record the
    ``reached`` space and are reduced block by block.  The open legs run on it,
    with slices of H and the states.  Consecutive groups of one size form a
    chunk whose hops hold at most BLOCK_ENTRIES entries (a group whose hop
    alone is larger is a chunk by itself); the open legs of a chunk advance in
    lockstep (``lindblad_blocks``) and are reduced block by block, as the
    closed legs are.  Each point's two reductions then become its rows.
    """
    space, d = spec.space, reached.dim
    groups: dict[ModelParams, list[int]] = {}
    for i, (_, params, _) in enumerate(points):
        groups.setdefault(params, []).append(i)
    psi0s = [initial_state(init, space) for _, _, init in points]
    setup = [None] * len(points)  # (period, config, H) of each point's group
    chunks = []  # (group size, the open legs of each group)
    per_chunk = max(1, BLOCK_ENTRIES // d ** 4)
    for params, group in groups.items():
        period, config, h = leg_setup(params, START_SECTOR, space, kind.horizon(spec),
                                      spec.steps_per_period, spec.record_stride)
        for i in group:
            setup[i] = (period, config, h)
        if not chunks or chunks[-1][0] != len(group) or len(chunks[-1][1]) == per_chunk:
            chunks.append((len(group), []))
        chunks[-1][1].append((LindbladSpec.from_params(params, reached, h[:d, :d]),
                              [np.outer(psi0s[i][:d], psi0s[i][:d].conj()) for i in group],
                              config))

    _, configs, hs = zip(*setup)
    # the closed legs record the reached space and size their blocks by it,
    # as the open legs do: both legs' reducers build d x d matrices per state
    closed = kind.closed(spec, reached, closed_blocks(hs, psi0s, configs, width=d))
    reductions = []  # the open legs' reductions, group by group
    for _, legs in chunks:
        specs, rho0s, configs = zip(*legs)
        reductions += kind.opened(spec, reached,
                                  lindblad_blocks(specs, np.array(rho0s), configs))
    opened = dict(zip((i for group in groups.values() for i in group), reductions))
    return [row for i, ((value, _, _), (period, _, _), c) in enumerate(zip(points, setup, closed))
            for row in kind.rows(spec, value, period, c, opened[i])]


def _theta_points(spec: SweepSpec) -> list[tuple]:
    return [(theta, spec.open_params,
             InitialStateSpec(theta0=theta, phi0=0.0, n=START_SECTOR)) for theta in spec.grid]


def _delta_points(spec: SweepSpec) -> list[tuple]:
    grid = [replace(spec.open_params, delta=delta) for delta in spec.grid]
    return [(p.delta, p, perpendicular_state(p, START_SECTOR)) for p in grid]


def _bloch_points(spec: SweepSpec) -> list[tuple]:
    """The base parameters and an off-resonant case (delta = 2g, chi = 0),
    both from the state perpendicular to their rotation axis."""
    off = replace(spec.open_params, delta=2 * spec.base_params.g, chi=0.0)
    return [(case, params, perpendicular_state(params, START_SECTOR))
            for case, params in zip(BLOCH_CASES, (spec.open_params, off))]


def _neg_charts(result: SweepResult, outdir: Path) -> list[Path]:
    """Negativity against time, one line per grid value: closed and open."""
    kind, grid = result.spec.kind, result.spec.grid

    def column(col):  # (grid value, record)
        return np.array([r[col] for r in result.rows]).reshape(len(grid), -1)

    t, paths = column(1), []
    for variant, col in (("closed", 2), ("open", 3)):
        paths.append(outdir / f"{kind}_{variant}.svg")
        line_chart([(f"{v:.3g}", x, y) for v, x, y in zip(grid, t, column(col))], paths[-1],
                   title=f"{kind} ({variant})", xlabel="t [1/g]", ylabel="negativity")
    return paths


def _gp_charts(result: SweepResult, outdir: Path) -> list[Path]:
    """Wrapped phase difference against the grid value, one line per m."""
    spec = result.spec
    table = np.array([(r[0], r[5]) for r in result.rows]).reshape(
        len(spec.grid), len(spec.m_values), 2)
    path = outdir / f"{spec.kind}_delta_phi.svg"
    line_chart([(f"m={m}", table[:, j, 0], table[:, j, 1])
                for j, m in enumerate(spec.m_values)], path, title=spec.kind,
               xlabel="sweep parameter", ylabel="delta phi (wrapped)")
    return [path]


def _bloch_charts(result: SweepResult, outdir: Path) -> list[Path]:
    """The three Bloch paths of each case, one chart per case."""
    table = np.array([r[3:6] for r in result.rows]).reshape(
        len(BLOCH_CASES), len(BLOCH_SERIES), -1, 3)
    paths = []
    for case, xyz in zip(BLOCH_CASES, table):
        paths.append(outdir / f"bloch_{case}.svg")
        bloch_chart(list(zip(BLOCH_SERIES, xyz)), paths[-1],
                    title=f"Bloch trajectories ({case})")
    return paths


_DELTA_GRID = tuple(np.linspace(-4.0, 4.0, 81))

KINDS = {
    # negativity vs time for a family of initial polar angles, on resonance
    "negativity_theta": Kind(
        NEG_COLUMNS, NEG_ROW, _theta_points, _series(negativity), _series(negativity),
        _neg_rows, _neg_charts,
        checks=(_resonant(math.pi / 2, "pi/2"),),
        defaults=dict(grid=tuple(np.linspace(0.0, math.pi / 2, 9)), record_stride=16)),
    # negativity vs time over a detuning grid, perpendicular initial states
    "negativity_delta": Kind(
        NEG_COLUMNS, NEG_ROW, _delta_points, _series(negativity), _series(negativity),
        _neg_rows, _neg_charts,
        defaults=dict(grid=_DELTA_GRID, record_stride=16)),
    # phase difference vs initial polar angle at fixed sector-1 resonance
    "gp_theta": Kind(
        GP_COLUMNS, GP_ROW, _theta_points, _gp_closed, _gp_opened, _gp_rows, _gp_charts,
        checks=(_resonant(2 * math.pi, "2*pi"), _checkpoints),
        defaults=dict(grid=tuple(np.linspace(0.0, 2 * math.pi, 64))),
        horizon=_largest_m),
    # phase difference vs detuning, perpendicular initial states
    "gp_delta": Kind(
        GP_COLUMNS, GP_ROW, _delta_points, _gp_closed, _gp_opened, _gp_rows, _gp_charts,
        checks=(_checkpoints,), defaults=dict(grid=_DELTA_GRID),
        horizon=_largest_m),
    # unitary path, density projection and tracked-eigenvector path per case,
    # with a planarity figure against the unitary rotation axis for each
    "bloch_traj": Kind(
        BLOCH_COLUMNS, BLOCH_ROW, _bloch_points, _series(bloch_series), _bloch_opened,
        _bloch_rows, _bloch_charts,
        checks=(_resonant(), _two_records), defaults=dict(grid=(0.0,), periods=3.0),
        meta=_bloch_planarity),
}


def run_sweep(spec: SweepSpec) -> SweepResult:
    """The rows of one sweep; its kind's checks and the truncation check run
    before any integration."""
    kind = KINDS[spec.kind]
    for check in kind.checks:
        check(spec)
    points = kind.points(spec)
    reached = reached_space(START_SECTOR, spec.space)
    rows = _grouped_rows(spec, kind, points, reached)
    return SweepResult(spec=spec, columns=kind.columns, rows=rows,
                       meta=kind.meta(points, rows))


def provenance_lines(spec: SweepSpec, timestamp: Optional[str] = None) -> list[str]:
    """Header lines (# prefixed) recording the full run parameters."""
    p = spec.base_params
    lines = [
        f"# kerrjc {__version__} sweep={spec.kind}",
        f"# model: delta={p.delta:.17g} chi={p.chi:.17g} g={p.g:.17g}",
        f"# open_rates: gamma={spec.open_rates[0]:.17g} p={spec.open_rates[1]:.17g} "
        f"p_z={spec.open_rates[2]:.17g}",
        f"# integrator: steps_per_period={spec.steps_per_period} "
        f"record_stride={spec.record_stride} periods={spec.periods:.17g}",
        f"# space: n_max={spec.n_max}",
        f"# m_values: {','.join(str(m) for m in spec.m_values)}",
        f"# grid: {','.join(f'{v:.17g}' for v in spec.grid)}",
    ]
    if is_resonant(p, START_SECTOR, tol=1e-9):
        lines.append(f"# note: sector n={START_SECTOR} resonance (delta = chi)")
    if timestamp is not None:
        lines.append(f"# written: {timestamp}")
    return lines


def _write_csv(path, head: list[str], template: str, records) -> None:
    """The ``head`` lines, then ``template % record`` of every record, streamed."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in head)
        fh.writelines(map(template.__mod__, records))


def write_sweep_csv(result: SweepResult, path, timestamp: Optional[str] = None) -> None:
    """Write one sweep as CSV with '#' provenance header lines."""
    head = [*provenance_lines(result.spec, timestamp), ",".join(result.columns)]
    _write_csv(path, head, KINDS[result.spec.kind].template, result.rows)


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """Debug dump: t, then row-major Re/Im of the density-matrix entries.

    Entry (i, j) is named ``re_<i><j>``/``im_<i><j>``, each index
    zero-padded to the width of d - 1, so every name is distinct.
    """
    mats = record.states if record.is_density else np.einsum(
        "ki,kj->kij", record.states, record.states.conj())
    n, d = mats.shape[:2]
    w = len(str(d - 1))
    header = ",".join(["t", *(f"{part}_{i:0{w}d}{j:0{w}d}" for i in range(d)
                              for j in range(d) for part in ("re", "im"))])
    # the complex entries viewed as float64 are Re, Im in header order
    table = np.column_stack((record.times,
                             np.ascontiguousarray(mats).reshape(n, -1).view(np.float64)))
    _write_csv(path, [header], ",".join(["%.17g"] * table.shape[1]) + "\n",
               map(tuple, table))
