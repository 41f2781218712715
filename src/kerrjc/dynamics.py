"""Time evolution: Schrödinger and Lindblad integration with fixed-step RK4.

Both right-hand sides are linear and time independent, so a single RK4 step
is the degree-4 Taylor polynomial of the generator; the integrators
precompute that step matrix once and then advance by matrix products.

``closed_blocks`` advances the pure states of many grid points in lockstep,
each under its own Hamiltonian and time step: one stacked matrix-vector
step and one renormalisation per time step for all of them, written into
preallocated buffers, with the same per-state arithmetic as a lone
trajectory, so a state's bits do not depend on which others share its
batch.  A closed leg whose initial states are shorter than H's dimension
records only their leading components (the reached space): it computes
and renormalises only those rows of the full-space product, each the same
dot product over the full row and the zero-padded state.
``lindblad_blocks`` does the same for open legs: density matrices, each
with its own Lindbladian and time step, advance by one stacked
matrix-vector product per record, again with the bits of each state's own
product; their records are block-diagonal in N by construction and pass
the density checks on the N blocks.  Both yield records in blocks that
they size themselves, within ``BLOCK_ENTRIES``; ``evolve_closed`` and
``evolve_lindblad`` feed one trajectory through them and join its blocks.
Truncation is checked before integrating, by the callers
(``hilbert.reached_space``).  Before the first product, both legs
refuse an RK4 step or hop that is not finite, take the components their
steps can reach from the initial states (``_reached``) and refuse a closed
leg that could leave its recorded components, an open leg that could
leave its N blocks and an RK4 hop that would amplify a reachable mode; a
closed block whose norms overflow is refused before it is yielded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .hilbert import SpaceSpec, kron, n_blocks, off_n_blocks
from .model import ModelParams

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-9
POSITIVITY_FLOOR = -1e-8
NORM_DRIFT_TOL = 1e-10
# a stable hop's spectral radius is exactly 1.0 (|g0><g0| is stationary) and
# eigvals' rounding on these hops stays below 1e-15 (measured): this separates
# rounding from a growing mode; the density checks bound what it lets through
HOP_RADIUS_TOL = 1e-12
# complex entries (records x trajectories x d^2) in one block of
# lindblad_blocks, or (records x trajectories x width^2) in one of
# closed_blocks (1 MiB); the block's checks and reducers build a few d x d
# (width x width) matrices per sample, and no whole trajectory of a sweep
# is ever held
BLOCK_ENTRIES = 1 << 16


class PositivityError(RuntimeError):
    """A recorded density matrix violated trace/Hermiticity/positivity bounds,
    or an RK4 hop is not finite or would grow a mode that the density
    matrices reach."""


class StepOverflowError(PositivityError):
    """A closed leg's RK4 step, or the norm of a state that it steps to, is
    not finite: the time step is too large for the model's scale."""


@dataclass(frozen=True)
class LindbladSpec:
    """Hamiltonian plus (collapse operator, rate) channels."""

    hamiltonian: np.ndarray
    collapse_ops: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        # Frobenius norm of the anti-Hermitian part relative to max(1, ||h||_F)
        if np.linalg.norm(h - h.conj().T) / max(1.0, np.linalg.norm(h)) >= 1e-10:
            raise ValueError("hamiltonian must be Hermitian to 1e-10")
        for _, rate in self.collapse_ops:
            if rate < 0:
                raise ValueError("collapse rates must be nonnegative")
        object.__setattr__(self, "hamiltonian", h)

    @classmethod
    def from_params(cls, params: ModelParams, spec: SpaceSpec,
                    h: Optional[np.ndarray] = None) -> "LindbladSpec":
        """Spec of ``params`` on ``spec``; ``h``, when given, is its already
        built Hamiltonian."""
        from .model import collapse_operators, hamiltonian

        return cls(hamiltonian=hamiltonian(params, spec) if h is None else h,
                   collapse_ops=collapse_operators(params, spec))


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step grid: step dt, horizon t_final, samples every record_stride steps."""

    dt: float
    t_final: float
    record_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        n = self.t_final / self.dt
        if abs(n - round(n)) > 1e-6:
            raise ValueError("t_final must be an integer number of steps")
        if round(n) % self.record_stride != 0:
            raise ValueError("record_stride must divide the total step count")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @classmethod
    def for_periods(cls, period: float, periods: float, steps_per_period: int,
                    record_stride: int) -> "IntegratorConfig":
        """Grid spanning ``periods`` oscillation periods of length ``period``."""
        dt = period / steps_per_period
        n_steps = int(round(periods * steps_per_period))
        if n_steps % record_stride:
            n_steps += record_stride - n_steps % record_stride
        return cls(dt=dt, t_final=n_steps * dt, record_stride=record_stride)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Recorded time series of states plus integration metadata.

    ``states`` has shape (N, dim) for pure evolutions and (N, dim, dim) for
    density matrices.  ``max_norm_drift`` logs the largest per-step norm
    deviation seen before renormalization (pure evolutions only).
    """

    times: np.ndarray
    states: np.ndarray
    config: IntegratorConfig
    max_norm_drift: float = 0.0

    def __post_init__(self):
        self.times.setflags(write=False)
        self.states.setflags(write=False)

    @property
    def is_density(self) -> bool:
        return self.states.ndim == 3


def liouvillian(spec: LindbladSpec) -> np.ndarray:
    """Superoperator matrix L with vec(rhs) = L vec(rho), row-major vec."""
    h = spec.hamiltonian
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    sup = -1j * (kron(h, eye) - kron(eye, h.T))
    for op, rate in spec.collapse_ops:
        if not rate:
            continue
        odo = op.conj().T @ op
        sup += rate * (kron(op, op.conj())
                       - 0.5 * (kron(odo, eye) + kron(eye, odo.T)))
    return sup


def rk4_step_matrix(generator: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of v' = G v as a matrix (exact for linear G)."""
    d = generator.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # the callers refuse infs and NaNs
        a = generator * dt
        m = np.eye(d, dtype=complex) + a / 4
        m = np.eye(d, dtype=complex) + (a / 3) @ m
        m = np.eye(d, dtype=complex) + (a / 2) @ m
        return np.eye(d, dtype=complex) + a @ m


def _check_density_stack(states: np.ndarray, times: np.ndarray) -> None:
    """Trace, Hermiticity and positivity of every sample of a stack that is
    block-diagonal in N, checked in that order on its N blocks
    (``hilbert.n_blocks``), each 2x2 block's least eigenvalue in closed form
    from its lower triangle, as ``eigvalsh`` reads it; raises PositivityError
    at the first sample that fails."""
    traces = np.einsum("kii->k", states).real
    bad = np.abs(traces - 1.0) > TRACE_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise PositivityError(f"trace drifted to {traces[k]:.12g} at t={times[k]:g}")
    diag, upper, lower = n_blocks(states)
    # sums and minima over the short last axis, one ufunc call per column
    defect = np.sqrt(4 * reduce(np.add, (diag.imag ** 2).T)
                     + 2 * reduce(np.add, (np.abs(upper - lower.conj()) ** 2).T))
    bad = defect > HERMITICITY_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise PositivityError(f"Hermiticity lost at t={times[k]:g}")
    pops = diag.real
    a, b = pops[:, 1:-1:2], pops[:, 2:-1:2]  # |e,N-1>, |g,N>
    pairs = (a + b) / 2 - np.hypot((a - b) / 2, np.abs(lower))
    mins = np.minimum(np.minimum(pops[:, 0], pops[:, -1]), reduce(np.minimum, pairs.T))
    bad = mins < POSITIVITY_FLOOR
    if bad.any():
        k = int(np.argmax(bad))
        raise PositivityError(f"negative eigenvalue {mins[k]:.3e} at t={times[k]:g} "
                              "(time step too large)")


def _reached(starts: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Mask of the components that ``steps`` (a stack of linear maps) can
    ever make nonzero from the rows of ``starts``: the closure of their
    support under the steps' nonzero pattern.  The others stay exactly 0."""
    live, links = starts.any(axis=0), steps.any(axis=0)
    while (grown := live | links[:, live].any(axis=1)).sum() > live.sum():
        live = grown
    return live


def closed_blocks(hs, psi0s, configs):
    """Advance b pure states in lockstep, each under its own H and time step.

    psi' = -i H psi by RK4 with renormalisation after every step.  All
    configs must share the step count and the record stride; H and dt differ
    per state and live in its step matrix.  Each step is one stacked
    matrix-vector product and one norm per state, which gives the bits of a
    lone ``step.dot(psi)`` and ``vdot`` whatever the batch (checked on
    OpenBLAS by ``tests/test_lockstep.py``).  Yields ``(times, states,
    drift)`` for consecutive blocks of records: ``times`` has shape (b, r),
    ``states`` (b, r, width) the first width components, width the length
    of the initial states (at most H's dimension d), and ``drift`` each
    state's largest per-step norm deviation before renormalisation so far.
    The states, zero-padded to d, step and renormalise only those
    components: the first width rows of each step matrix times the full
    state, which keeps every dot product of the full product, while the
    other components stay +0.0.  Before the first step, longer states
    raise ValueError, non-finite steps StepOverflowError, and steps linking
    the initial support to a component from width on ValueError; a block
    whose norms overflow raises StepOverflowError before it is yielded.  r
    keeps r*b*width^2 within BLOCK_ENTRIES.
    """
    configs = list(configs)
    n_steps, stride = configs[0].n_steps, configs[0].record_stride
    if any(c.n_steps != n_steps or c.record_stride != stride for c in configs):
        raise ValueError("lockstep closed legs need one step count and record stride")
    cols = []
    for psi0 in psi0s:
        psi = np.asarray(psi0, dtype=complex).copy()
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("psi0 must be normalized")
        psi /= norm
        cols.append(psi)
    steps = np.array([rk4_step_matrix(-1j * np.asarray(h, dtype=complex), c.dt)
                      for h, c in zip(hs, configs)])
    b, width, d = len(cols), cols[0].size, steps.shape[-1]
    if steps.shape != (b, d, d) or width > d:
        raise ValueError("psi0 and hamiltonian dimensions disagree")
    if not np.isfinite(steps).all():
        raise StepOverflowError("the RK4 step is not finite (time step too large)")
    # step buffers: two ping-pong columns and the inner product of each
    # norm; rows from width on are never written or divided
    col, nxt = (np.zeros((b, d, 1), dtype=complex) for _ in range(2))
    col[:, :width, 0] = cols
    if _reached(col[:, :, 0], steps)[width:].any():
        raise ValueError(f"a closed leg left the first {width} basis states")
    # the rows of the steps that can be nonzero: each is the dot product of
    # a full row with the full state, as in the (b, d, d) product
    rows = np.ascontiguousarray(steps[:, :width])
    col_rows, nxt_rows = col[:, :width], nxt[:, :width]
    dot = np.empty((b, 1, 1), dtype=complex)
    dot_col, dot_re = dot[:, 0], dot.real
    n_rec = n_steps // stride + 1
    spacing = np.array([[c.dt * stride] for c in configs])
    per_block = max(1, BLOCK_ENTRIES // (b * width * width))
    norms = np.empty((min(per_block, n_rec) * stride, b, 1, 1))  # a block's steps
    drift = np.zeros(b)
    for start in range(0, n_rec, per_block):
        block_times = np.arange(start, min(start + per_block, n_rec)) * spacing
        r = block_times.shape[1]
        states = np.empty((b, r, width), dtype=complex)
        i = 0
        with np.errstate(all="ignore"):  # a block whose norms overflow is refused below
            for k in range(r):
                if start + k:
                    for _ in range(stride):
                        np.matmul(rows, col, out=nxt_rows)
                        np.vecdot(nxt, nxt, axis=1, out=dot_col)
                        nxt_rows /= np.sqrt(dot_re, out=norms[i])
                        col, nxt, col_rows, nxt_rows = nxt, col, nxt_rows, col_rows
                        i += 1
                states[:, k] = col[:, :width, 0]
        # max is exact: folding once per block keeps the bits of a running max;
        # it carries a norm that is not finite into the drift
        np.maximum(drift, np.abs(norms[:i, :, 0, 0] - 1.0).max(axis=0, initial=0.0),
                   out=drift)
        if not np.isfinite(drift).all():
            raise StepOverflowError("a closed state's norm overflowed (time step too large)")
        yield block_times, states, drift.copy()


def evolve_closed(h: np.ndarray, psi0: np.ndarray,
                  config: IntegratorConfig) -> TrajectoryRecord:
    """RK4 integration of psi' = -i H psi with per-step renormalization:
    ``closed_blocks`` of one state, its blocks joined."""
    times, states, drift = zip(*closed_blocks([h], [psi0], [config]))
    return TrajectoryRecord(times=np.concatenate(times, axis=1)[0],
                            states=np.concatenate(states, axis=1)[0], config=config,
                            max_norm_drift=float(drift[-1][0]))


def lindblad_blocks(specs, rho0s, configs):
    """Advance b density matrices in lockstep, each under its own Lindbladian.

    ``rho0s`` has shape (b, d, d): state i advances under ``specs[i]`` with
    time step ``configs[i].dt``.  All configs must share the step count and
    the record stride.  Each record is one stacked product
    (b, d^2, d^2) @ (b, d^2, 1) of the states' hops and vectorised states,
    which gives the bits of each state's own ``hop @ vec`` (checked on
    OpenBLAS), so a trajectory's results do not depend on what shares its
    batch.  Yields ``(times, states)`` for consecutive blocks of records:
    ``times`` has shape (b, r) and ``states`` (b, r, d, d).  Every block
    passes the density checks on its N blocks as one (b*r, d, d) stack.  r
    keeps r*b*d^2 within BLOCK_ENTRIES.  Before the first product, a
    reachable entry of vec(rho) (``_reached``) between two N blocks raises
    ValueError, so every record is block-diagonal in N; hops with a
    non-finite entry, or whose spectral radius on the reachable entries
    exceeds 1 + HOP_RADIUS_TOL, raise PositivityError.
    """
    configs = list(configs)
    n_steps, stride = configs[0].n_steps, configs[0].record_stride
    if any(cfg.n_steps != n_steps or cfg.record_stride != stride for cfg in configs):
        raise ValueError("lockstep open legs need one step count and record stride")
    rho0s = np.asarray(rho0s, dtype=complex)
    b, d = rho0s.shape[0], rho0s.shape[-1]
    if (rho0s.shape != (b, d, d) or len(specs) != b or len(configs) != b
            or any(s.hamiltonian.shape != (d, d) for s in specs)):
        raise ValueError("rho0 and hamiltonian dimensions disagree")

    # compose record_stride RK4 steps into one matrix; the recorded samples
    # are identical to stepping one dt at a time (up to float associativity)
    with np.errstate(over="ignore", invalid="ignore"):
        hops = np.array([np.linalg.matrix_power(rk4_step_matrix(liouvillian(s), cfg.dt),
                                                stride) for s, cfg in zip(specs, configs)])
    if not np.isfinite(hops).all():
        raise PositivityError("the RK4 hop is not finite (time step too large)")
    vecs = rho0s.reshape(b, d * d, 1)
    live = _reached(vecs[:, :, 0], hops)
    if off_n_blocks(live.reshape(1, d, d)):
        raise ValueError("an open leg's initial states or operators link two N blocks")
    radius = np.abs(np.linalg.eigvals(hops[:, live][:, :, live])).max(initial=0.0)
    if radius > 1.0 + HOP_RADIUS_TOL:
        raise PositivityError(f"the RK4 hop amplifies by up to {radius:.6g} per record "
                              "(time step too large)")
    n_rec = n_steps // stride + 1
    spacing = np.array([[cfg.dt * stride] for cfg in configs])
    per_block = max(1, BLOCK_ENTRIES // (b * d * d))
    for start in range(0, n_rec, per_block):
        block_times = np.arange(start, min(start + per_block, n_rec)) * spacing
        r = block_times.shape[1]
        states = np.empty((b, r, d, d), dtype=complex)
        for k in range(r):
            if start + k:
                vecs = np.matmul(hops, vecs)
            states[:, k] = vecs.reshape(b, d, d)
        _check_density_stack(states.reshape(b * r, d, d), block_times.reshape(-1))
        yield block_times, states


def evolve_lindblad(spec: LindbladSpec, rho0: np.ndarray,
                    config: IntegratorConfig) -> TrajectoryRecord:
    """RK4 Lindblad integration of one state: ``lindblad_blocks`` of it, its
    blocks joined."""
    times, states = zip(*lindblad_blocks([spec], np.asarray(rho0)[None], [config]))
    return TrajectoryRecord(times=np.concatenate(times, axis=1)[0],
                            states=np.concatenate(states, axis=1)[0], config=config)

