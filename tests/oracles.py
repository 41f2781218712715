"""Test-only basis indices and states, and reference forms of the package's operators
independent of its vectorised code: the dense density checks, the Lindblad
right-hand side as matrix in, matrix out, a hand-coded right-hand side on
the five lowest basis states, the excitation number operator, the sector
Hamiltonian block and eigenvectors and the closed-form resonant evolution; the geometric
identities of the sweeps' states, phases as solid angles and negativity
from the Bloch vector and the leaked population; and the one-trajectory
geometric phases at a recorded time: closed, open from the tracked
branch, and the mixed-state multi-branch phase.  Also the patch that
sets the lockstep legs' block length, and the bitwise equality of sweep rows."""

import contextlib
import math
from unittest import mock

import numpy as np

from kerrjc import dynamics, hilbert
from kerrjc.dynamics import (
    HERMITICITY_TOL,
    POSITIVITY_FLOOR,
    TRACE_TOL,
    LindbladSpec,
    PositivityError,
    TrajectoryRecord,
)
from kerrjc.geomphase import (
    AMBIGUITY_TOL,
    OVERLAP_FLOOR,
    EigenTrack,
    TrackingError,
    checkpoint_phase,
    phase_series,
    wrap_angle,
)
from kerrjc.hilbert import SpaceSpec
from kerrjc.information import bloch_series
from kerrjc.model import (
    ModelParams,
    collapse_operators,
    hamiltonian,
    is_resonant,
    sector_analytics,
)


def flat_index(atom: str, photons: int, spec: SpaceSpec) -> int:
    """Index of |atom, photons> in the ordered basis (``hilbert``)."""
    if atom not in ("g", "e"):
        raise ValueError(f"atom must be 'g' or 'e', got {atom!r}")
    if not 0 <= photons <= spec.n_max:
        raise ValueError(f"photon number {photons} outside [0, {spec.n_max}]")
    return 2 * photons + (1 if atom == "e" else 0)


def basis_state(atom: str, photons: int, spec: SpaceSpec) -> np.ndarray:
    """|atom, photons> as a vector of the full space."""
    v = np.zeros(spec.dim, dtype=complex)
    v[flat_index(atom, photons, spec)] = 1.0
    return v


def lindblad_spec(params: ModelParams, spec: SpaceSpec) -> LindbladSpec:
    """The Lindbladian of ``params`` on ``spec``: H and its collapse channels."""
    return LindbladSpec(hamiltonian([params], spec)[0], collapse_operators(params, spec))


def dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator O rho O† - (1/2){O†O, rho}."""
    if op.shape != rho.shape:
        raise ValueError(f"shape mismatch: {op.shape} vs {rho.shape}")
    odo = op.conj().T @ op
    return op @ rho @ op.conj().T - 0.5 * (odo @ rho + rho @ odo)


def lindblad_rhs(spec: LindbladSpec, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] plus the rate-weighted dissipators."""
    h = spec.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for op, rate in spec.collapse_ops:
        if rate:
            out += rate * dissipator(op, rho)
    return out


def check_density_dense(states: np.ndarray, times: np.ndarray) -> None:
    """The density checks on whole matrices, whatever their entries between
    N blocks: trace, the Frobenius norm of rho - rho^dagger and eigvalsh's
    least eigenvalue, in that order, raising PositivityError with the
    messages of ``dynamics._check_density_stack`` at the first failing sample."""
    traces = np.einsum("kii->k", states).real
    bad = np.abs(traces - 1.0) > TRACE_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise PositivityError(f"trace drifted to {traces[k]:.12g} at t={times[k]:g}")
    defect = np.sqrt((np.abs(states - states.conj().transpose(0, 2, 1)) ** 2)
                     .sum(axis=(1, 2)))
    bad = defect > HERMITICITY_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise PositivityError(f"Hermiticity lost at t={times[k]:g}")
    mins = np.linalg.eigvalsh(states)[:, 0]
    bad = mins < POSITIVITY_FLOOR
    if bad.any():
        k = int(np.argmax(bad))
        raise PositivityError(f"negative eigenvalue {mins[k]:.3e} at t={times[k]:g} "
                              "(time step too large)")


# Eq-system support pattern on the basis |g0>,|e0>,|g1>,|e1>,|g2>:
# populations, the n=1 coherence (1,2) and the n=2 coherence (3,4).
LOWEX_DIM = 5
LOWEX_PATTERN = np.zeros((LOWEX_DIM, LOWEX_DIM), dtype=bool)
LOWEX_PATTERN[0, 0] = True
LOWEX_PATTERN[1:3, 1:3] = True
LOWEX_PATTERN[3:5, 3:5] = True


def lowex_rhs(params: ModelParams, rho: np.ndarray, support_tol: float = 1e-12) -> np.ndarray:
    """Hand-coded low-excitation derivatives on |g0>,|e0>,|g1>,|e1>,|g2>.

    Covers the populations and the two in-sector coherences; all other
    matrix elements are required to vanish (they stay zero under the
    dynamics for this support) and their derivatives are returned as zero.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (LOWEX_DIM, LOWEX_DIM):
        raise ValueError(f"expected a {LOWEX_DIM}x{LOWEX_DIM} block, got {rho.shape}")
    if np.abs(rho[~LOWEX_PATTERN]).max(initial=0.0) > support_tol:
        raise ValueError("support outside the low-excitation pattern")

    d, chi, g = params.delta, params.chi, params.g
    gam, p, pz = params.gamma, params.p, params.p_z
    r2 = np.sqrt(2.0)

    out = np.zeros_like(rho)
    out[0, 0] = p * rho[1, 1] + gam * rho[2, 2]
    out[1, 1] = -1j * g * (rho[2, 1] - rho[1, 2]) - p * rho[1, 1] + gam * rho[3, 3]
    out[2, 2] = (-1j * g * (rho[1, 2] - rho[2, 1]) - gam * rho[2, 2]
                 + 2 * gam * rho[4, 4] + p * rho[3, 3])
    out[1, 2] = (-1j * g * (rho[2, 2] - rho[1, 1]) - 1j * (d - chi) * rho[1, 2]
                 - (gam / 2) * rho[1, 2] - (p / 2) * rho[1, 2]
                 + gam * r2 * rho[3, 4] - 2 * pz * rho[1, 2])
    out[3, 3] = 1j * r2 * g * (rho[3, 4] - rho[4, 3]) - (p + gam) * rho[3, 3]
    # population-difference term enters with +i so that sector-2 population
    # actually flows out of |e1> (consistent with the diagonal lines above)
    out[3, 4] = (1j * r2 * g * (rho[3, 3] - rho[4, 4]) - 1j * (d - 3 * chi) * rho[3, 4]
                 - (p / 2 + 3 * gam / 2 + 2 * pz) * rho[3, 4])
    out[4, 4] = -1j * r2 * g * (rho[3, 4] - rho[4, 3]) - 2 * gam * rho[4, 4]
    out[2, 1] = np.conj(out[1, 2])
    out[4, 3] = np.conj(out[3, 4])
    return out


def excitation_number(spec: SpaceSpec) -> np.ndarray:
    """Conserved excitation count a†a + σ+σ-."""
    return (hilbert.number_op(spec)
            + hilbert.sigma_plus(spec) @ hilbert.sigma_minus(spec))


def sector_block(params: ModelParams, n: int) -> np.ndarray:
    """2x2 Hamiltonian block in the basis {|e,n-1>, |g,n>}."""
    if n < 1:
        raise ValueError("sector n=0 is one-dimensional, no block")
    d, chi, g = params.delta, params.chi, params.g
    return np.array(
        [[d / 2 + chi * (n - 1) ** 2, g * math.sqrt(n)],
         [g * math.sqrt(n), -d / 2 + chi * n**2]],
        dtype=complex,
    )


def dressed_states(params: ModelParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized sector eigenvectors (psi_plus, psi_minus) in {|e,n-1>, |g,n>}.

    Pairing satisfies H_sector psi_pm = E_pm psi_pm.
    """
    sa = sector_analytics(params, n)
    g_comp_plus = -sa.eff_detuning / 2 + sa.rabi_frequency / 2
    g_comp_minus = -sa.eff_detuning / 2 - sa.rabi_frequency / 2
    plus = np.array([params.g * math.sqrt(n), g_comp_plus], dtype=complex)
    minus = np.array([params.g * math.sqrt(n), g_comp_minus], dtype=complex)
    return plus / np.linalg.norm(plus), minus / np.linalg.norm(minus)


def resonant_state(params: ModelParams, n: int, t: float, spec: SpaceSpec) -> np.ndarray:
    """Closed-form resonant evolution of |g,n> at time t, on the full space.

    psi(t) = exp(-i E0 t) [cos(Omega t/2)|g,n> - i sin(Omega t/2)|e,n-1>]
    with E0 = chi (n-1/2)^2 + chi/4.  Only valid on sector-n resonance.
    """
    if not is_resonant(params, n, tol=1e-10):
        raise ValueError("closed-form resonant evolution requires delta = chi(2n-1)")
    sa = sector_analytics(params, n)
    e0 = params.chi * (n - 0.5) ** 2 + params.chi / 4
    half = sa.rabi_frequency * t / 2
    i_e, i_g = hilbert.sector_indices(n, spec)
    psi = np.zeros(spec.dim, dtype=complex)
    phase = np.exp(-1j * e0 * t)
    psi[i_g] = phase * math.cos(half)
    psi[i_e] = phase * (-1j) * math.sin(half)
    return psi


def sector_bloch_vectors(states: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors (..., 3) of pure states (..., d) in the sector-1
    pair {|e,0>, |g,1>}, |e,0> at the north pole: for a|e,0> + b|g,1>,
    (2 Re(a* b), 2 Im(a* b), |a|^2 - |b|^2), each divided by its length."""
    a, b = states[..., 1], states[..., 2]  # flat indices of |e,0> and |g,1>
    ab = np.conj(a) * b
    r = np.stack((2 * ab.real, 2 * ab.imag, np.abs(a) ** 2 - np.abs(b) ** 2), axis=-1)
    return r / np.linalg.norm(r, axis=-1, keepdims=True)


def triangle_solid_angle(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signed solid angle in (-2 pi, 2 pi] of the geodesic triangle a, b, c of
    unit 3-vectors (last axis), by Van Oosterom and Strackee (IEEE Trans.
    Biomed. Eng. BME-30, 125, 1983): tan(Omega/2) = a.(b x c) /
    (1 + a.b + b.c + c.a)."""
    def dot(x, y):
        return (x * y).sum(axis=-1)

    return 2 * np.arctan2(dot(a, np.cross(b, c)), 1 + dot(a, b) + dot(b, c) + dot(c, a))


def solid_angle_phases(states: np.ndarray, axes: np.ndarray, checkpoints) -> np.ndarray:
    """-1/2 the solid angle that the sector-1 Bloch path of each of b state
    sequences (b, n, d) encloses up to each checkpoint, closed by the
    geodesic back to its first sample, (b, len(checkpoints)): a fan of
    triangles from the pole of its rotation axis (``axes``, (b, 3)) nearer
    its first sample.  Defined mod 2 pi; no phase chain is involved."""
    r = sector_bloch_vectors(states)
    axes = np.asarray(axes, dtype=float)
    apex = np.where(((r[:, 0] * axes).sum(axis=1) >= 0)[:, None], axes, -axes)[:, None]
    fan = np.cumsum(triangle_solid_angle(apex, r[:, :-1], r[:, 1:]), axis=1)
    idx = np.asarray(checkpoints)
    return -(fan[:, idx - 1] + triangle_solid_angle(apex, r[:, idx], r[:, :1])) / 2


def negativity_from_bloch(rhos: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """(sqrt(p0^2 + r_perp^2) - p0) / 2 of each density matrix that a leg from
    sector 1 reaches (block-diagonal in N, no |e,1> population): p0 =
    rho_g0,g0, the population that left the sector, and r_perp the sector-1
    Bloch vector's length across the z axis, from ``bloch_series``."""
    x, y = bloch_series(rhos, spec)[:, :2].T
    p0 = rhos[:, 0, 0].real
    return (np.sqrt(p0 ** 2 + x ** 2 + y ** 2) - p0) / 2


# initial eigenvalues below this carry no branch in phase_open_general
BRANCH_WEIGHT_FLOOR = 1e-12


def grid_index(times: np.ndarray, t: float) -> int:
    """Index of the sample time ``t`` on a uniform grid; raises if off-grid."""
    step = times[1] - times[0] if len(times) > 1 else 1.0
    i = int(round(t / step))
    if i < 0 or i >= len(times) or abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"t={t} is not on the recorded grid")
    return i


def _phase_at(states: np.ndarray, idx: int) -> float:
    return checkpoint_phase(phase_series(states[: idx + 1]), idx)


def phase_unitary(traj: TrajectoryRecord, t_end: float) -> float:
    """Geometric phase of a pure-state trajectory at a recorded time."""
    if traj.is_density:
        raise ValueError("phase_unitary needs a pure-state trajectory")
    return _phase_at(traj.states, grid_index(traj.times, t_end))


def phase_open_pure(track: EigenTrack, t_end: float) -> float:
    """Open-system phase for a pure initial state, from the tracked branch."""
    return _phase_at(track.vectors, grid_index(track.times, t_end))


def phase_open_general(traj: TrajectoryRecord, t_end: float) -> float:
    """Mixed-state kinematic phase: weighted multi-branch overlap sum.

    Every eigenvalue branch with nonzero initial weight is tracked by
    maximal overlap; branch pairings must stay unambiguous.  The reported
    value is arg of sum_k sqrt(w_k(0) w_k(t)) <psi_k(0)|psi_k(t)> e^{-i D_k}
    with D_k the branch's accumulated link phase, unwrapped along the grid.
    """
    if not traj.is_density:
        raise ValueError("phase_open_general needs a density-matrix trajectory")
    idx = grid_index(traj.times, t_end)
    states = traj.states[: idx + 1]
    n = states.shape[0]

    w0, v0 = np.linalg.eigh(states[0])
    keep = np.where(w0 > BRANCH_WEIGHT_FLOOR)[0]
    if keep.size == 0:
        raise ValueError("initial state has no weight above the branch floor")
    prev = v0[:, keep].copy()
    weights0 = w0[keep]
    k_branches = keep.size

    dyn = np.zeros(k_branches)
    weights_t = weights0.copy()
    raw = np.empty(n)
    raw[0] = float(np.angle(np.sum(weights0)))
    phi = np.empty(n)
    phi[0] = raw[0]
    first = prev.copy()

    for s in range(1, n):
        w, v = np.linalg.eigh(states[s])
        overlaps = np.abs(v.conj().T @ prev)  # (dim, branches)
        assignment = overlaps.argmax(axis=0)
        if np.unique(assignment).size != k_branches:
            raise TrackingError(f"branch pairing collision at t={traj.times[s]:g}")
        for b in range(k_branches):
            col = overlaps[:, b]
            top = col[assignment[b]]
            col_sorted = np.sort(col)[::-1]
            if col_sorted[0] - col_sorted[1] < AMBIGUITY_TOL:
                raise TrackingError(
                    f"branch {b} crossing within tolerance at t={traj.times[s]:g}")
            if top <= OVERLAP_FLOOR:
                raise TrackingError(
                    f"branch {b} overlap {top:.3g} below floor at t={traj.times[s]:g}")
        new = v[:, assignment]
        links = np.einsum("ib,ib->b", prev.conj(), new)
        dyn += np.angle(links)
        weights_t = w[assignment]
        prev = new

        terms = (np.sqrt(np.maximum(weights0 * weights_t, 0.0))
                 * np.einsum("ib,ib->b", first.conj(), new)
                 * np.exp(-1j * dyn))
        raw[s] = float(np.angle(terms.sum()))
        phi[s] = phi[s - 1] + wrap_angle(raw[s] - raw[s - 1])

    return float(phi[idx])


def blocks_of(records, points: int, width: int):
    """A context in which a lockstep leg (``dynamics.closed_blocks`` or
    ``lindblad_blocks``) of ``points`` states recorded at ``width`` yields
    blocks of ``records`` records: ``BLOCK_ENTRIES`` set to their entries.
    The legs read it at their first ``next``; None keeps their own size."""
    if records is None:
        return contextlib.nullcontext()
    return mock.patch.object(dynamics, "BLOCK_ENTRIES", records * points * width ** 2)


def same_rows(a, b) -> bool:
    """Whether two sweeps' rows are equal to the last bit: a negativity
    kind's float64 arrays by their int64 views, so -0.0 is not 0.0 and a nan
    matches only its own bits; the other kinds' lists of tuples by ``==``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (a.dtype == b.dtype == np.float64
                and np.array_equal(a.view(np.int64), b.view(np.int64)))
    return a == b
