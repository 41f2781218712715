"""Parameter sweeps: negativity and geometric-phase data products.

Every sweep is deterministic (no randomness anywhere in the pipeline) and
assembles rows in grid order, so re-running an identical spec reproduces
the CSV byte for byte.  The closed legs of all grid points advance in
lockstep (``dynamics.closed_blocks``) in the calling process.  Grid points
that share model parameters form one open-leg job: the group builds its
operators once and advances its open legs together
(``dynamics.lindblad_blocks``).  Groups are independent; with
``workers > 1`` they are evaluated by a process pool and reassembled in
grid order by the single writer.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import __version__
from .dynamics import (
    IntegratorConfig,
    LindbladSpec,
    closed_blocks,
    evolve_closed,
    evolve_lindblad,
    lindblad_blocks,
)
from .geomphase import (
    BranchTracker,
    PhaseChain,
    SingularCheckpointError,
    TrackingError,
    checkpoint_phase,
    track_dominant_eigenvector,
    wrap_angle,
)
from .hilbert import SpaceSpec
from .information import bloch_series, negativity, planarity
from .model import (
    InitialStateSpec,
    ModelParams,
    hamiltonian,
    initial_state,
    is_resonant,
    perpendicular_state,
    sector_analytics,
)

SWEEP_KINDS = ("negativity_theta", "negativity_delta", "gp_theta", "gp_delta",
               "bloch_traj")
DEFAULT_OPEN_RATES = (0.1, 0.0, 0.01)
OMEGA_DEGRADED = 0.05
DEFAULT_N_MAX = 4

GP_COLUMNS = ("param", "m", "tau", "phi_u", "phi_g", "delta_phi_wrapped",
              "delta_phi_raw", "omega_plus", "valid")
NEG_COLUMNS = ("param", "t", "neg_closed", "neg_open")
BLOCH_COLUMNS = ("case", "series", "t", "x", "y", "z", "weight")


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
    workers: int = 1

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if len(self.grid) == 0:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if any(m < 1 for m in self.m_values):
            raise ValueError("m values must be >= 1")
        if any(r < 0 for r in self.open_rates):
            raise ValueError("open rates must be nonnegative")
        off_grid = [m for m in self.m_values
                    if m * self.steps_per_period % self.record_stride]
        if self.kind.startswith("gp") and off_grid:
            m = off_grid[0]
            raise ValueError(
                f"checkpoint m={m} falls between records (m*steps_per_period/"
                f"record_stride = {m * self.steps_per_period}/{self.record_stride}); "
                "choose integrator.steps_per_period, integrator.record_stride and "
                "sweep.m_values so that it is a whole number")

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


def default_grid(kind: str) -> tuple[float, ...]:
    if kind == "negativity_theta":
        return tuple(np.linspace(0.0, math.pi / 2, 9))
    if kind == "gp_theta":
        return tuple(np.linspace(0.0, 2 * math.pi, 64))
    if kind in ("negativity_delta", "gp_delta"):
        return tuple(np.linspace(-4.0, 4.0, 81))
    return (0.0,)  # bloch_traj carries its cases internally


def default_spec(kind: str, **overrides) -> SweepSpec:
    """Sweep spec with the package defaults for the given kind."""
    base = overrides.pop("base_params", None)
    if base is None:
        chi = 0.0 if kind in ("negativity_delta",) else 0.5
        base = ModelParams(delta=chi, chi=chi)
    kw = dict(kind=kind, grid=default_grid(kind), base_params=base)
    if kind.startswith("negativity"):
        kw["record_stride"] = 16
    if kind == "bloch_traj":
        kw["periods"] = 3.0
    kw.update(overrides)
    return SweepSpec(**kw)


def _checkpoints(spec: SweepSpec) -> list[int]:
    """Record index of each checkpoint m * period (on the grid, see SweepSpec)."""
    return [m * spec.steps_per_period // spec.record_stride for m in spec.m_values]


def _open_blocks(job, decompose: bool = False):
    """The open legs of one group job as ``lindblad_blocks``."""
    spec, params, psi0s, config, h = job
    rho0s = np.array([np.outer(psi0, psi0.conj()) for psi0 in psi0s])
    return lindblad_blocks(LindbladSpec.from_params(params, spec.space, h), rho0s,
                           config, space=spec.space, decompose=decompose)


def _neg_closed(spec: SweepSpec, blocks) -> list[tuple]:
    """(times, negativities) of every point's closed leg."""
    times, negs = [], []
    for block_times, states, _ in blocks:
        b, r, d = states.shape
        times.append(block_times)
        negs.append(negativity(states.reshape(b * r, d), spec.space).reshape(b, r))
    return list(zip(np.concatenate(times, axis=1), np.concatenate(negs, axis=1)))


def _neg_group(job) -> np.ndarray:
    """Open-leg negativities (points, records) of one group."""
    negs = []
    for _, states, _ in _open_blocks(job):
        b, r, d, _ = states.shape
        negs.append(negativity(states.reshape(b * r, d, d), job[0].space)
                    .reshape(b, r))
    return np.concatenate(negs, axis=1)


def _neg_rows(spec: SweepSpec, value, period, closed, opened) -> list[tuple]:
    times, neg_c = closed
    return [(value, float(t), float(nc), float(no))
            for t, nc, no in zip(times, neg_c, opened)]


def _gp_closed(spec: SweepSpec, blocks) -> list[tuple]:
    """Every point's closed phase chain at the checkpoints."""
    chain = PhaseChain(_checkpoints(spec))
    for _, states, _ in blocks:
        chain.extend(states)
    return list(zip(*chain.values))


def _gp_group(job) -> list[Optional[tuple]]:
    """Per point of one group: its open phase chain and tracked eigenvalue at
    the checkpoints, or None if tracking failed."""
    spec, psi0s = job[0], job[2]
    trackers = [BranchTracker() for _ in psi0s]
    for times, _, (all_w, all_v) in _open_blocks(job, decompose=True):
        for j, tracker in enumerate(trackers):
            if tracker is None:
                continue
            try:
                tracker.extend(times, all_w[j], all_v[j])
            except TrackingError:
                trackers[j] = None

    checkpoints = _checkpoints(spec)
    out = []
    for tracker in trackers:
        if tracker is None:
            out.append(None)
            continue
        track = tracker.track()
        chain = PhaseChain(checkpoints)
        chain.extend(track.vectors[None])
        out.append(([v[0] for v in chain.values], track.eigenvalues[checkpoints]))
    return out


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


def _map_groups(fn, jobs, workers: int):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(j) for j in jobs]


def _grouped_rows(spec: SweepSpec, points) -> list[tuple]:
    """Rows of (value, params, initial state) points, in grid order.

    Points that share model parameters (and excitation sector) form one
    group: H, the period and the integrator grid are built once for it.
    The closed legs of all points advance in lockstep here
    (``closed_blocks``) and are reduced block by block; the open legs run as
    one job per group (sharing the Liouvillian and the hop), mapped by a
    process pool when ``spec.workers > 1``.  Each point's two reductions
    then become its rows.
    """
    if spec.kind.startswith("gp"):
        periods = float(max(spec.m_values))
        closed_fn, group_fn, row_fn = _gp_closed, _gp_group, _gp_rows
    else:
        periods = spec.periods
        closed_fn, group_fn, row_fn = _neg_closed, _neg_group, _neg_rows
    space = spec.space
    groups: dict[tuple[ModelParams, int], list[int]] = {}
    for i, (_, params, init) in enumerate(points):
        groups.setdefault((params, init.n), []).append(i)
    psi0s = [initial_state(init, space) for _, _, init in points]
    setup = [None] * len(points)  # (period, config, H) of each point's group
    jobs = []
    for (params, n), members in groups.items():
        period = 2 * math.pi / sector_analytics(params, n).rabi_frequency
        config = IntegratorConfig.for_periods(period, periods, spec.steps_per_period,
                                              spec.record_stride)
        h = hamiltonian(params, space)
        for i in members:
            setup[i] = (period, config, h)
        jobs.append((spec, params, [psi0s[i] for i in members], config, h))

    _, configs, hs = zip(*setup)
    closed = closed_fn(spec, closed_blocks(hs, psi0s, configs, space=space))
    opened = [None] * len(points)
    for members, results in zip(groups.values(),
                                _map_groups(group_fn, jobs, spec.workers)):
        for i, result in zip(members, results):
            opened[i] = result
    return [row for (value, _, _), (period, _, _), c, o in zip(points, setup, closed, opened)
            for row in row_fn(spec, value, period, c, o)]


def _theta_points(spec: SweepSpec) -> list[tuple]:
    return [(theta, spec.open_params, InitialStateSpec(theta0=theta, phi0=0.0, n=1))
            for theta in spec.grid]


def _delta_points(spec: SweepSpec) -> list[tuple]:
    points = []
    for delta in spec.grid:
        params = replace(spec.open_params, delta=delta)
        points.append((delta, params, perpendicular_state(params, 1)))
    return points


def run_negativity_theta(spec: SweepSpec) -> SweepResult:
    """Negativity vs time for a family of initial polar angles, on resonance."""
    if not is_resonant(spec.base_params, 1, tol=1e-9):
        raise ValueError("negativity_theta requires sector-1 resonance (delta = chi)")
    if spec.grid[0] < -1e-12 or spec.grid[-1] > math.pi / 2 + 1e-12:
        raise ValueError("negativity_theta grid must lie in [0, pi/2]")
    return SweepResult(spec=spec, columns=NEG_COLUMNS,
                       rows=_grouped_rows(spec, _theta_points(spec)))


def run_negativity_delta(spec: SweepSpec) -> SweepResult:
    """Negativity vs time over a detuning grid, perpendicular initial state."""
    return SweepResult(spec=spec, columns=NEG_COLUMNS,
                       rows=_grouped_rows(spec, _delta_points(spec)))


def run_gp_theta(spec: SweepSpec) -> SweepResult:
    """Phase difference vs initial polar angle at fixed sector-1 resonance."""
    if not is_resonant(spec.base_params, 1, tol=1e-9):
        raise ValueError("gp_theta requires sector-1 resonance (delta = chi)")
    if spec.grid[0] < -1e-12 or spec.grid[-1] > 2 * math.pi + 1e-12:
        raise ValueError("gp_theta grid must lie in [0, 2*pi]")
    return SweepResult(spec=spec, columns=GP_COLUMNS,
                       rows=_grouped_rows(spec, _theta_points(spec)))


def run_gp_delta(spec: SweepSpec) -> SweepResult:
    """Phase difference vs detuning with per-point perpendicular initial states."""
    return SweepResult(spec=spec, columns=GP_COLUMNS,
                       rows=_grouped_rows(spec, _delta_points(spec)))


def run_bloch_traj(spec: SweepSpec) -> SweepResult:
    """Unitary path, density projection and tracked-eigenvector path per case.

    Runs one resonant case (the base parameters) and one off-resonant case
    (delta = 2g, chi = 0), both from perpendicular initial states, and
    reports a planarity figure against the unitary rotation axis for each
    series.
    """
    if not is_resonant(spec.base_params, 1, tol=1e-9):
        raise ValueError("bloch_traj base parameters must be resonant (delta = chi)")
    g = spec.base_params.g
    cases = (("resonant", spec.open_params),
             ("off_resonant", replace(spec.open_params, delta=2 * g, chi=0.0)))
    space = spec.space
    rows: list[tuple] = []
    reports: dict[tuple[str, str], object] = {}

    for label, params in cases:
        sa = sector_analytics(params, 1)
        period = 2 * math.pi / sa.rabi_frequency
        config = IntegratorConfig.for_periods(period, spec.periods,
                                              spec.steps_per_period,
                                              spec.record_stride)
        init = perpendicular_state(params, 1)
        psi0 = initial_state(init, space)
        h = hamiltonian(params, space)

        closed = evolve_closed(h, psi0, config, space=space)
        rho0 = np.outer(psi0, psi0.conj())
        opened = evolve_lindblad(LindbladSpec.from_params(params, space, h), rho0,
                                 config, space=space)
        track = track_dominant_eigenvector(opened)

        series = {
            "unitary": bloch_series(closed.states, space),
            "rho_proj": bloch_series(opened.states, space),
            "eigvec": bloch_series(track.vectors, space),
        }
        for name in ("unitary", "rho_proj", "eigvec"):
            data = series[name]
            reports[(label, name)] = planarity(data[:, :3], np.array(sa.axis))
            for t, (x, y, z, w) in zip(closed.times, data):
                rows.append((label, name, float(t), float(x), float(y),
                             float(z), float(w)))

    return SweepResult(spec=spec, columns=BLOCH_COLUMNS, rows=rows,
                       meta={"planarity": reports})


_RUNNERS = {
    "negativity_theta": run_negativity_theta,
    "negativity_delta": run_negativity_delta,
    "gp_theta": run_gp_theta,
    "gp_delta": run_gp_delta,
    "bloch_traj": run_bloch_traj,
}


def run_sweep(spec: SweepSpec) -> SweepResult:
    return _RUNNERS[spec.kind](spec)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


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
    if is_resonant(p, 1, tol=1e-9):
        lines.append("# note: sector n=1 resonance (delta = chi)")
    if timestamp is not None:
        lines.append(f"# written: {timestamp}")
    return lines


def write_sweep_csv(result: SweepResult, path, timestamp: Optional[str] = None) -> None:
    """Write one sweep as CSV with '#' provenance header lines."""
    lines = provenance_lines(result.spec, timestamp)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
        fh.write(",".join(result.columns) + "\n")
        for row in result.rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
