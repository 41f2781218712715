"""Parameter sweeps: negativity, geometric-phase and Bloch data products.

Every sweep kind is one row of ``KINDS``, and ``run_sweep`` runs them all,
each from sector ``START_SECTOR``.  Sweeps are deterministic, run in one
process and assemble rows in grid order, so an identical spec reproduces
the CSV byte for byte.  ``point_legs`` makes every command's legs by
chunks, whose hops hold at most ``BLOCK_ENTRIES`` entries, with one stacked
set-up per chunk (``leg_setup``).  A chunk's closed legs advance in lockstep
(``dynamics.closed_blocks``) under the full space's H from states on the
reached space (``hilbert.reached_space``, Fock levels 0..n0), and
record only it; its open legs, one hop each, and every negativity and
Bloch series run on it (``dynamics.lindblad_blocks``).  A kind reduces the
blocks of either leg through one interface, ``(spec, reached space,
blocks) -> one reduction per point``; the phase and Bloch kinds track the
start sector's eigenpairs of each open block (``information.sector_eigh``)
with one ``BranchTracker`` per chunk.

This module writes every output file: each row layout is a column tuple
and a ``%``-template, each kind names its chart builder, and ``_write_csv``
streams every CSV through a template, one ``%`` per slice of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .dynamics import (
    BLOCK_ENTRIES,
    IntegratorConfig,
    LindbladSpec,
    closed_blocks,
    lindblad_blocks,
    rk4_hop,
    rk4_step_matrix,
    step_count,
)
from .geomphase import (
    BranchTracker,
    CoarseGridError,
    PhaseChain,
    SingularCheckpointError,
    checkpoint_phase,
    wrap_angle,
)
from .hilbert import SpaceSpec, reached_space
from .information import bloch_series, negativity, planarity, projectors, sector_eigh
from .model import (
    InitialStateSpec,
    ModelParams,
    collapse_operators,
    hamiltonian,
    initial_state,
    is_resonant,
    perpendicular_state,
    sector_analytics,
)
from .svg import bloch_chart, line_chart

OMEGA_DEGRADED = 0.05
START_SECTOR = 1  # the excitation sector N of every sweep's initial states
MAX_STEPS = 1 << 30  # the longest leg, in steps: a bound on a run's length

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
    """One sweep definition: kind, parameter grid, base model.

    ``base_params`` holds H and the open legs' rates.  The field defaults
    are the package's sweep defaults, written nowhere else (``cli`` reads
    them); a kind's own are in ``KINDS``."""

    kind: str
    grid: tuple[float, ...]
    base_params: ModelParams = ModelParams(delta=0.5, chi=0.5, gamma=0.1, p_z=0.01)
    m_values: tuple[int, ...] = (1, 2, 3)
    steps_per_period: int = 2000
    record_stride: int = 4
    periods: float = 6.0
    n_max: int = 4

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

    @property
    def space(self) -> SpaceSpec:
        return SpaceSpec(self.n_max)


@dataclass
class SweepResult:
    spec: SweepSpec
    columns: tuple[str, ...]
    rows: list[tuple] | np.ndarray  # a negativity kind's: one (n, 4) float array
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Kind:
    """What one sweep kind computes, as ``_point_rows`` runs it."""

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
    unread: tuple[str, ...] = ()  # the config keys it does not read, beyond EVOLVE_KEYS
    meta: Callable = lambda points, rows: {}  # -> the result's meta


def default_spec(kind: str, **overrides) -> SweepSpec:
    """Sweep spec with the package defaults for the given kind."""
    if kind not in KINDS:
        raise ConfigError(f"unknown sweep.kind {kind!r}")
    return SweepSpec(kind=kind, **{**KINDS[kind].defaults, **overrides})


def _checkpoints(spec: SweepSpec) -> list[int]:
    """Record index of each checkpoint m * period; raises if records lie half
    a period or more apart, where a chain cannot tell the sense of rotation
    (records one period apart hold one state), or if a checkpoint falls
    between records."""
    if 2 * spec.record_stride >= spec.steps_per_period:
        raise CoarseGridError(
            f"records lie {spec.record_stride} of the {spec.steps_per_period} steps per "
            "period apart, half a period or more: grid too coarse")
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
        if not is_resonant(spec.base_params, START_SECTOR):
            raise ConfigError(f"{spec.kind} requires sector-{START_SECTOR} resonance: "
                              "set model.delta equal to model.chi")
        if top is not None and (spec.grid[0] < -1e-12 or spec.grid[-1] > top + 1e-12):
            raise ConfigError(f"{spec.kind} grid must lie in [0, {label}]: set "
                              "sweep.grid_start and sweep.grid_stop")
    return check


def _two_records(spec: SweepSpec) -> None:
    """Check that the legs record two or more samples (planarity needs them)."""
    if step_count(spec.periods, spec.steps_per_period, spec.record_stride) == 0:
        raise ConfigError(f"{spec.kind} needs two or more records: raise integrator.periods")


def _largest_m(spec: SweepSpec) -> float:
    return float(max(spec.m_values))


def _per_state(fn, states: np.ndarray, space: SpaceSpec) -> np.ndarray:
    """``fn`` of a (b, r, ...) block of states as one stack, shaped (b, r, ...)."""
    b, r = states.shape[:2]
    out = fn(states.reshape(b * r, *states.shape[2:]), space)
    return out.reshape(b, r, *out.shape[1:])


def _series(name: str) -> Callable:
    """Reducer of either leg: (times, this module's ``name`` of every state)
    of every point, on the reached space."""
    def series(spec: SweepSpec, reached: SpaceSpec, blocks) -> list[tuple]:
        fn = globals()[name]  # looked up as it runs: a wrapper bound to it sees the calls
        times, values = zip(*((block_times, _per_state(fn, states, reached))
                              for block_times, states, *_ in blocks))
        return list(zip(np.concatenate(times, axis=1), np.concatenate(values, axis=1)))
    return series


def _neg_rows(spec: SweepSpec, value, period, closed, opened) -> np.ndarray:
    (times, neg_c), (_, neg_o) = closed, opened
    return np.column_stack((np.full(len(times), value), times, neg_c, neg_o))


def _gp_closed(spec: SweepSpec, reached: SpaceSpec, blocks) -> list[tuple]:
    """Every point's closed phase chain at the checkpoints."""
    chain = PhaseChain(_checkpoints(spec))
    for _, states, _ in blocks:
        chain.extend(states)
    return list(zip(*chain.values))


def _gp_opened(spec: SweepSpec, reached: SpaceSpec, blocks) -> list[Optional[tuple]]:
    """Per point: its open phase chain's values at the checkpoints, the
    tracked eigenvalue kept beside them, or None if its tracking failed."""
    tracker, chain = BranchTracker(), PhaseChain(_checkpoints(spec))
    for times, states in blocks:
        w, vectors = tracker.extend(times, *sector_eigh(states, START_SECTOR))
        chain.extend(vectors, w)
    return [None if p in tracker.failed else point
            for p, point in enumerate(zip(*chain.values))]


def _gp_rows(spec: SweepSpec, value, period, closed, opened) -> list[tuple]:
    nan = float("nan")
    m_values = spec.m_values
    if opened is None:
        return [(value, m, m * period, nan, nan, nan, nan, nan, "tracking_error")
                for m in m_values]
    *chain_g, omegas = opened
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


def leg_grid(params: ModelParams, n: int, periods: float, steps_per_period: int,
             record_stride: int) -> tuple[float, IntegratorConfig]:
    """(period, integrator grid) of the legs that start in sector ``n``: the
    grid spans ``periods`` Rabi periods of that sector, which must be finite
    and positive."""
    rabi = sector_analytics(params, n).rabi_frequency
    period = 2 * math.pi / rabi if rabi > 0 else math.inf
    if not 0 < period < math.inf:
        raise ConfigError(f"the sector-{n} Rabi frequency is {rabi:g}, which gives no "
                          "finite positive period: choose model.g, model.delta and "
                          "model.chi on a scale nearer 1")
    return period, IntegratorConfig.for_periods(period, periods, steps_per_period,
                                                record_stride)


def leg_setup(params, configs, n: int, space: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """The closed legs' RK4 steps (b, D, D) on ``space`` and the open legs'
    hops (b, d^2, d^2) on ``reached_space(n, space)``, from the slices of H,
    of each set of ``params`` on its grid in ``configs``, all at the rates of
    the first: one stacked build of each, every element with its own bits."""
    reached = reached_space(n, space)
    dts, d = np.array([c.dt for c in configs])[:, None, None], reached.dim
    h = hamiltonian(params, space)
    spec = LindbladSpec(h[:, :d, :d], collapse_operators(params[0], reached))
    return rk4_step_matrix(-1j * h, dts), rk4_hop(spec, dts, configs[0].record_stride)


def point_legs(points, n0: int, space: SpaceSpec, horizon: float, steps_per_period: int,
               record_stride: int):
    """``(chunk, periods, closed blocks, open blocks)`` of each chunk of
    (value, params, initial state) points from sector ``n0``.  The truncation,
    the step bound and every point's grid (``leg_grid``) are checked first; a
    chunk holds at most BLOCK_ENTRIES // d**4 points (one at least), d the
    reached space's dimension, and its set-up is one stacked ``leg_setup`` of
    its distinct parameters, indexed per point.  Both legs start on the
    reached space and record it."""
    reached = reached_space(n0, space)
    n_steps = step_count(horizon, steps_per_period, record_stride)
    if n_steps > MAX_STEPS:
        raise ConfigError(f"a leg of {n_steps:.10g} steps exceeds the bound of {MAX_STEPS}: "
                          "lower integrator.periods (sweep.m_values for the gp kinds) "
                          "or integrator.steps_per_period")
    grids = {params: leg_grid(params, n0, horizon, steps_per_period, record_stride)
             for _, params, _ in points}
    per_chunk = max(1, BLOCK_ENTRIES // reached.dim ** 4)
    for start in range(0, len(points), per_chunk):
        chunk = points[start:start + per_chunk]
        at: dict = {}  # each distinct set of parameters -> its place in the set-up
        index = [at.setdefault(params, len(at)) for _, params, _ in chunk]
        steps, hops = leg_setup(list(at), [grids[p][1] for p in at], n0, space)
        periods, configs = zip(*(grids[params] for _, params, _ in chunk))
        psi0s = [initial_state(init, reached) for _, _, init in chunk]
        rho0s = np.array([np.outer(psi0, psi0.conj()) for psi0 in psi0s])
        yield (chunk, periods, closed_blocks(steps[index], psi0s, configs),
               lindblad_blocks(hops[index], rho0s, configs))


def _point_rows(spec: SweepSpec, kind: Kind, points) -> list[tuple] | np.ndarray:
    """Rows of (value, params, initial state) points, in grid order: the kind
    reduces each chunk's legs (``point_legs``), each point's two reductions its rows."""
    reached = reached_space(START_SECTOR, spec.space)
    parts = []  # each point's rows
    for chunk, periods, closed, opened in point_legs(
            points, START_SECTOR, spec.space, kind.horizon(spec), spec.steps_per_period,
            spec.record_stride):
        closed, opened = kind.closed(spec, reached, closed), kind.opened(spec, reached, opened)
        parts += [kind.rows(spec, value, period, c, o)
                  for (value, _, _), period, c, o in zip(chunk, periods, closed, opened)]
    return np.concatenate(parts) if isinstance(parts[0], np.ndarray) else list(chain(*parts))


def _theta_points(spec: SweepSpec) -> list[tuple]:
    return [(theta, spec.base_params,
             InitialStateSpec(theta0=theta, phi0=0.0, n=START_SECTOR)) for theta in spec.grid]


def _delta_points(spec: SweepSpec) -> list[tuple]:
    grid = [replace(spec.base_params, delta=delta) for delta in spec.grid]
    return [(p.delta, p, perpendicular_state(p, START_SECTOR)) for p in grid]


def _bloch_points(spec: SweepSpec) -> list[tuple]:
    """The base parameters and an off-resonant case (delta = 2g, chi = 0),
    both from the state perpendicular to their rotation axis."""
    off = replace(spec.base_params, delta=2 * spec.base_params.g, chi=0.0)
    return [(case, params, perpendicular_state(params, START_SECTOR))
            for case, params in zip(BLOCH_CASES, (spec.base_params, off))]


def _neg_charts(result: SweepResult, outdir: Path) -> list[Path]:
    """Negativity against time, one line per grid value: closed and open."""
    kind, grid = result.spec.kind, result.spec.grid
    table = result.rows.reshape(len(grid), -1, 4)  # (grid value, record, column)
    t, paths = table[..., 1], []
    for variant, col in (("closed", 2), ("open", 3)):
        paths.append(outdir / f"{kind}_{variant}.svg")
        line_chart([(f"{v:.3g}", x, y) for v, x, y in zip(grid, t, table[..., col])], paths[-1],
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
# the config keys that only `kerrjc evolve` reads: every sweep builds its own states
EVOLVE_KEYS = ("initial.theta0", "initial.phi0", "initial.n", "initial.perpendicular")

KINDS = {
    # negativity vs time for a family of initial polar angles, on resonance
    "negativity_theta": Kind(
        NEG_COLUMNS, NEG_ROW, _theta_points, _series("negativity"), _series("negativity"),
        _neg_rows, _neg_charts, unread=("sweep.m_values",),
        checks=(_resonant(math.pi / 2, "pi/2"),),
        defaults=dict(grid=tuple(np.linspace(0.0, math.pi / 2, 9)), record_stride=16)),
    # negativity vs time over a detuning grid, perpendicular initial states
    "negativity_delta": Kind(
        NEG_COLUMNS, NEG_ROW, _delta_points, _series("negativity"), _series("negativity"),
        _neg_rows, _neg_charts, unread=("model.delta", "sweep.m_values"),
        defaults=dict(grid=_DELTA_GRID, record_stride=16)),
    # phase difference vs initial polar angle at fixed sector-1 resonance
    "gp_theta": Kind(
        GP_COLUMNS, GP_ROW, _theta_points, _gp_closed, _gp_opened, _gp_rows, _gp_charts,
        checks=(_resonant(2 * math.pi, "2*pi"), _checkpoints),
        defaults=dict(grid=tuple(np.linspace(0.0, 2 * math.pi, 64))),
        horizon=_largest_m, unread=("integrator.periods",)),
    # phase difference vs detuning, perpendicular initial states
    "gp_delta": Kind(
        GP_COLUMNS, GP_ROW, _delta_points, _gp_closed, _gp_opened, _gp_rows, _gp_charts,
        checks=(_checkpoints,), defaults=dict(grid=_DELTA_GRID),
        horizon=_largest_m, unread=("model.delta", "integrator.periods")),
    # unitary path, density projection and tracked-eigenvector path per case,
    # with a planarity figure against the unitary rotation axis for each
    "bloch_traj": Kind(
        BLOCH_COLUMNS, BLOCH_ROW, _bloch_points, _series("bloch_series"), _bloch_opened,
        _bloch_rows, _bloch_charts, meta=_bloch_planarity,
        checks=(_resonant(), _two_records), defaults=dict(grid=(0.0,), periods=3.0),
        unread=("sweep.m_values", "sweep.grid_start", "sweep.grid_stop", "sweep.grid_points")),
}


def run_sweep(spec: SweepSpec) -> SweepResult:
    """The rows of one sweep; its kind's checks and the truncation check run
    before any integration."""
    kind = KINDS[spec.kind]
    for check in kind.checks:
        check(spec)
    points = kind.points(spec)
    rows = _point_rows(spec, kind, points)
    return SweepResult(spec=spec, columns=kind.columns, rows=rows,
                       meta=kind.meta(points, rows))


def provenance_lines(spec: SweepSpec, timestamp: Optional[str] = None) -> list[str]:
    """Header lines (# prefixed) recording the full run parameters."""
    p = spec.base_params
    lines = [
        f"# kerrjc {__version__} sweep={spec.kind}",
        f"# model: delta={p.delta:.17g} chi={p.chi:.17g} g={p.g:.17g}",
        f"# open_rates: gamma={p.gamma:.17g} p={p.p:.17g} p_z={p.p_z:.17g}",
        f"# integrator: steps_per_period={spec.steps_per_period} "
        f"record_stride={spec.record_stride} periods={spec.periods:.17g}",
        f"# space: n_max={spec.n_max}",
        f"# m_values: {','.join(str(m) for m in spec.m_values)}",
        f"# grid: {','.join(f'{v:.17g}' for v in spec.grid)}",
    ]
    if is_resonant(p, START_SECTOR):
        lines.append(f"# note: sector n={START_SECTOR} resonance (delta = chi)")
    if timestamp is not None:
        lines.append(f"# written: {timestamp}")
    return lines


def _write_csv(path, head: list[str], template: str, parts) -> None:
    """The ``head`` lines, then the bytes of ``template % row`` of every row of
    ``parts`` (float arrays or lists of tuples), one ``%`` per slice of at most
    BLOCK_ENTRIES // 4 values, at about 60 B a value the bytes of a block."""
    size = max(1, BLOCK_ENTRIES // 4 // template.count("%"))  # one % per column
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in head)
        for rows in parts:
            for i in range(0, len(rows), size):
                part = rows[i:i + size]
                values = (part.ravel().tolist() if isinstance(part, np.ndarray)
                          else chain.from_iterable(part))
                fh.write(template * len(part) % tuple(values))


def write_sweep_csv(result: SweepResult, path, timestamp: Optional[str] = None) -> None:
    """Write one sweep as CSV with '#' provenance header lines."""
    head = [*provenance_lines(result.spec, timestamp), ",".join(result.columns)]
    _write_csv(path, head, KINDS[result.spec.kind].template, [result.rows])


def write_trajectory_csv(blocks, dim: int, path) -> None:
    """Debug dump of the blocks of one state's leg (``closed_blocks`` or
    ``lindblad_blocks``), each written as it arrives: t, then row-major
    Re/Im of the density-matrix entries, pure states as their projectors,
    zero-padded to ``dim`` x ``dim`` in the writer's slices of records.

    Entry (i, j) is named ``re_<i><j>``/``im_<i><j>``, each index
    zero-padded to the width of dim - 1, so every name is distinct.
    """
    w = len(str(dim - 1))
    header = ",".join(["t", *(f"{part}_{i:0{w}d}{j:0{w}d}" for i in range(dim)
                              for j in range(dim) for part in ("re", "im"))])
    template = ",".join(["%.17g"] * (1 + 2 * dim * dim)) + "\n"
    per_slice = max(1, BLOCK_ENTRIES // 4 // template.count("%"))  # _write_csv's slice

    def slices():
        for (all_times,), (all_states,), *_ in blocks:
            for i in range(0, len(all_times), per_slice):
                times, mats = all_times[i:i + per_slice], projectors(all_states[i:i + per_slice])
                pad = dim - mats.shape[1]
                mats = np.pad(mats, ((0, 0), (0, pad), (0, pad)))
                # the complex entries viewed as float64 are Re, Im in header order
                yield np.column_stack((times, mats.reshape(len(times), -1).view(np.float64)))
    _write_csv(path, [header], template, slices())
