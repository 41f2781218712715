"""Time evolution: Schrödinger and Lindblad integration with fixed-step RK4.

Both right-hand sides are linear and time independent, so an RK4 step is
the degree-4 Taylor polynomial of the generator: one matrix, built for a
whole stack of generators at once (``rk4_step_matrix``, and ``rk4_hop``
for the steps between two records), each with the bits of its own build.
``closed_blocks`` advances the pure states of many grid points in
lockstep, each by its own step, and ``lindblad_blocks`` their density
matrices, each by its own hop: one stacked product per step or record, in
preallocated buffers, with the bits of each state's own product, so a
trajectory does not depend on its batch.  A closed leg records and
renormalises only the leading components that its initial states hold
(the reached space); open records are block-diagonal in N by construction
and pass the density checks on the N blocks.  Both size their blocks
within ``BLOCK_ENTRIES``; ``evolve_closed`` and ``evolve_lindblad`` run one
trajectory and join its blocks.  Truncation is the callers' static check
(``hilbert.reached_space``).  Before the first product, both refuse a step
or hop that is not finite, a closed leg that could leave its recorded
components, an open leg that could leave its N blocks and a hop that would
amplify a reachable mode (``_reached``); a closed block whose norms
overflow is refused before it is yielded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .hilbert import kron, n_blocks, off_n_blocks

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
    """Hamiltonian, or a stack of them (..., d, d), plus the (collapse
    operator, rate) channels that they share."""

    hamiltonian: np.ndarray
    collapse_ops: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        # Frobenius norm of each anti-Hermitian part relative to max(1, ||h||_F),
        # inf without a warning where it overflows (as numpy's dot-based norm)
        with np.errstate(over="ignore", invalid="ignore"):
            skew = (np.linalg.norm(h - h.conj().swapaxes(-2, -1), axis=(-2, -1))
                    / np.maximum(1.0, np.linalg.norm(h, axis=(-2, -1))))
        if (skew >= 1e-10).any():
            raise ValueError("hamiltonian must be Hermitian to 1e-10")
        for _, rate in self.collapse_ops:
            if rate < 0:
                raise ValueError("collapse rates must be nonnegative")
        object.__setattr__(self, "hamiltonian", h)


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
    """Superoperator matrix L with vec(rhs) = L vec(rho), row-major vec, of
    each Hamiltonian of the spec: shape (..., d^2, d^2)."""
    h = spec.hamiltonian
    d = h.shape[-1]
    eye = np.eye(d, dtype=complex)
    sup = -1j * (kron(h, eye) - kron(eye, h.swapaxes(-2, -1)))
    for op, rate in spec.collapse_ops:
        if not rate:
            continue
        odo = op.conj().T @ op
        sup += rate * (kron(op, op.conj())
                       - 0.5 * (kron(odo, eye) + kron(eye, odo.T)))
    return sup


def rk4_step_matrix(generator: np.ndarray, dt) -> np.ndarray:
    """One classical RK4 step of v' = G v as a matrix (exact for linear G), of
    each generator of a (..., d, d) stack, dt a float or (..., 1, 1): each
    stacked product is a lone generator's BLAS call, so each step its bits."""
    d = generator.shape[-1]
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


def closed_blocks(steps, psi0s, configs):
    """Advance b pure states in lockstep, each under its own H and time step.

    psi' = -i H psi by RK4 with renormalisation after every step: ``steps``
    (b, d, d) holds each state's ``rk4_step_matrix(-1j H, dt)``; all configs
    share the step count and the record stride, and their dt spaces the
    records.  Each step is one stacked matrix-vector product and one norm
    per state, the bits of a lone ``step.dot(psi)`` and ``vdot`` whatever
    the batch (``tests/test_lockstep.py``).  Yields ``(times, states,
    drift)`` per block of records: ``times`` (b, r), ``states`` (b, r,
    width), the first width components, width the initial states' length
    (at most d), and ``drift`` each state's largest per-step norm deviation
    so far.  Only those rows are stepped and renormalised, each the dot
    product of a full row with the zero-padded state; the others stay +0.0.
    Before the first step, longer states raise ValueError, non-finite steps
    StepOverflowError, and steps linking the initial support to a component
    from width on ValueError; a block whose norms overflow raises
    StepOverflowError before it is yielded.  r keeps r*b*width^2 within
    BLOCK_ENTRIES.
    """
    configs = list(configs)
    n_steps, stride = configs[0].n_steps, configs[0].record_stride
    if any(c.n_steps != n_steps or c.record_stride != stride for c in configs):
        raise ValueError("lockstep closed legs need one step count and record stride")
    # each norm as np.linalg.norm takes it: ddot of the real and imaginary parts
    cols = np.array(psi0s, dtype=complex)
    norms = np.sqrt(np.vecdot(cols.real, cols.real) + np.vecdot(cols.imag, cols.imag))
    if (np.abs(norms - 1.0) > 1e-9).any():
        raise ValueError("psi0 must be normalized")
    cols /= norms[:, None]
    steps = np.asarray(steps)
    (b, width), d = cols.shape, steps.shape[-1]
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
    step = rk4_step_matrix(-1j * np.asarray(h, dtype=complex), config.dt)
    times, states, drift = zip(*closed_blocks(step[None], [psi0], [config]))
    return TrajectoryRecord(times=np.concatenate(times, axis=1)[0],
                            states=np.concatenate(states, axis=1)[0], config=config,
                            max_norm_drift=float(drift[-1][0]))


def rk4_hop(spec: LindbladSpec, dt, stride: int) -> np.ndarray:
    """``stride`` RK4 steps of each Liouvillian of ``spec`` composed into one
    hop between records (the samples of single steps, up to float
    associativity); dt as in ``rk4_step_matrix``, each product a lone hop's."""
    with np.errstate(over="ignore", invalid="ignore"):  # lindblad_blocks refuses infs and NaNs
        return np.linalg.matrix_power(rk4_step_matrix(liouvillian(spec), dt), stride)


def lindblad_blocks(hops, rho0s, configs):
    """Advance b density matrices in lockstep, each under its own Lindbladian.

    ``rho0s`` (b, d, d): state i advances by ``hops[i]``, its ``rk4_hop`` of
    its config's stride and dt; all configs share the step count and the
    record stride.  Each record is one stacked product (b, d^2, d^2) @ (b,
    d^2, 1), written into its block, with the bits of each state's own ``hop
    @ vec`` (checked on OpenBLAS), so a trajectory does not depend on its
    batch.  Yields ``(times, states)`` per block of records: ``times`` (b, r)
    and ``states`` (b, r, d, d); every block passes the density checks on its
    N blocks as one (b*r, d, d) stack, and r keeps r*b*d^2 within
    BLOCK_ENTRIES.  Before the first product, a reachable entry of vec(rho)
    (``_reached``) between two N blocks raises ValueError, so every record is
    block-diagonal in N; a hop with a non-finite entry, or whose spectral
    radius on the reachable entries exceeds 1 + HOP_RADIUS_TOL, raises
    PositivityError.
    """
    configs = list(configs)
    n_steps, stride = configs[0].n_steps, configs[0].record_stride
    if any(cfg.n_steps != n_steps or cfg.record_stride != stride for cfg in configs):
        raise ValueError("lockstep open legs need one step count and record stride")
    rho0s, hops = np.asarray(rho0s, dtype=complex), np.asarray(hops)
    b, d = rho0s.shape[0], rho0s.shape[-1]
    if rho0s.shape != (b, d, d) or len(configs) != b or hops.shape != (b, d * d, d * d):
        raise ValueError("rho0 and hop dimensions disagree")
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
        states = np.empty((b, r, d * d, 1), dtype=complex)
        for k in range(r):  # each record's product straight into its slot
            if start + k:
                vecs = np.matmul(hops, vecs, out=states[:, k])
            else:
                states[:, 0] = vecs
        states = states.reshape(b, r, d, d)
        _check_density_stack(states.reshape(b * r, d, d), block_times.reshape(-1))
        yield block_times, states


def evolve_lindblad(spec: LindbladSpec, rho0: np.ndarray,
                    config: IntegratorConfig) -> TrajectoryRecord:
    """RK4 Lindblad integration of one state: ``lindblad_blocks`` of it, its
    blocks joined."""
    hop = rk4_hop(spec, config.dt, config.record_stride)
    times, states = zip(*lindblad_blocks(hop[None], np.asarray(rho0)[None], [config]))
    return TrajectoryRecord(times=np.concatenate(times, axis=1)[0],
                            states=np.concatenate(states, axis=1)[0], config=config)

