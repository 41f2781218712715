"""Kerr-nonlinear Jaynes-Cummings Hamiltonian and its sector structure.

All frequencies and rates are expressed in units of the coupling g
(g = 1 by default).  Excitation sector n is the invariant two-dimensional
subspace spanned by {|e,n-1>, |g,n>}; that ordering fixes every Bloch
projection in the package, with |e,n-1> at the north pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import hilbert
from .hilbert import SpaceSpec

RESONANCE_TOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: detuning, Kerr strength, coupling, decay rates.

    delta  -- atom-cavity detuning
    chi    -- Kerr nonlinearity strength
    g      -- atom-field coupling (unit scale)
    gamma  -- cavity photon loss rate
    p      -- atomic relaxation rate
    p_z    -- pure atomic dephasing rate
    """

    delta: float
    chi: float
    g: float = 1.0
    gamma: float = 0.0
    p: float = 0.0
    p_z: float = 0.0

    def __post_init__(self):
        vals = (self.delta, self.chi, self.g, self.gamma, self.p, self.p_z)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("model parameters must be finite")
        if self.g <= 0:
            raise ValueError("coupling g must be positive")
        for name in ("gamma", "p", "p_z"):
            if getattr(self, name) < 0:
                raise ValueError(f"rate {name} must be nonnegative")

    def with_rates(self, gamma: float, p: float, p_z: float) -> "ModelParams":
        return replace(self, gamma=gamma, p=p, p_z=p_z)


@dataclass(frozen=True)
class SectorAnalytics:
    """Closed-form structure of one excitation sector.

    rabi_frequency -- generalized Rabi frequency sqrt(eff_detuning^2 + 4 g^2 n)
    eff_detuning   -- sector effective detuning delta - chi*(2n - 1)
    e_plus/e_minus -- sector eigenenergies
    energy_offset  -- scalar part of the sector block
    axis           -- unit rotation axis on the sector Bloch sphere (x, y, z)
    axis_polar     -- polar angle of that axis measured from +z
    """

    n: int
    rabi_frequency: float
    eff_detuning: float
    e_plus: float
    e_minus: float
    energy_offset: float
    axis: tuple[float, float, float]
    axis_polar: float


@dataclass(frozen=True)
class InitialStateSpec:
    """Pure sector-n state cos(theta0/2)|e,n-1> + e^{i phi0} sin(theta0/2)|g,n>."""

    theta0: float
    phi0: float = 0.0
    n: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.theta0) and math.isfinite(self.phi0)):
            raise ValueError("angles must be finite")
        if not -1e-12 <= self.theta0 <= 2 * math.pi + 1e-12:
            raise ValueError("theta0 must lie in [0, 2*pi]")
        if not -1e-12 <= self.phi0 <= 2 * math.pi + 1e-12:
            raise ValueError("phi0 must lie in [0, 2*pi]")
        if self.n < 1:
            raise ValueError("sector index n must be >= 1")


def hamiltonian(params: Sequence[ModelParams], spec: SpaceSpec) -> np.ndarray:
    """(delta/2) sigma_z + chi n^2 + g (sigma_+ a + sigma_- a†) on the full
    space, of each set of ``params``: shape (b, d, d), a point a stack of one."""
    nop, a, sm = hilbert.number_op(spec), hilbert.annihilation(spec), hilbert.sigma_minus(spec)
    delta, chi, g = np.array([(p.delta, p.chi, p.g) for p in params]).T[:, :, None, None]
    return (delta / 2) * hilbert.sigma_z(spec) + chi * (nop @ nop) \
        + g * (hilbert.sigma_plus(spec) @ a + sm @ a.conj().T)


def sector_analytics(params: ModelParams, n: int) -> SectorAnalytics:
    if n < 1:
        raise ValueError("sector index n must be >= 1")
    d, chi, g = params.delta, params.chi, params.g
    eff = d - chi * (2 * n - 1)
    # a float64 square overflows to inf, where a float's ** raises; callers
    # refuse an omega with no finite period, so numpy need not warn of it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        omega = math.sqrt(np.float64(eff) ** 2 + 4 * g * g * n)
        ax = np.array([g * math.sqrt(n), 0.0, eff / 2])
        ax /= np.linalg.norm(ax)
    e0 = (chi * (n - 1) ** 2 + chi * n**2) / 2
    # polar angle from +z, so a state at theta0 = axis_polar + pi/2 is
    # exactly perpendicular to the rotation axis
    polar = math.atan2(g * math.sqrt(n), eff / 2)
    return SectorAnalytics(
        n=n,
        rabi_frequency=omega,
        eff_detuning=eff,
        e_plus=e0 + omega / 2,
        e_minus=e0 - omega / 2,
        energy_offset=e0,
        axis=(float(ax[0]), float(ax[1]), float(ax[2])),
        axis_polar=polar,
    )


def is_resonant(params: ModelParams, n: int, tol: float = RESONANCE_TOL) -> bool:
    """True when the sector-n effective detuning vanishes (delta = chi(2n-1))."""
    return abs(params.delta - params.chi * (2 * n - 1)) <= tol * max(1.0, abs(params.delta))


def initial_state(init: InitialStateSpec, spec: SpaceSpec) -> np.ndarray:
    """Embed the parametrized sector state into the full space."""
    i_e, i_g = hilbert.sector_indices(init.n, spec)
    psi = np.zeros(spec.dim, dtype=complex)
    psi[i_e] = math.cos(init.theta0 / 2)
    psi[i_g] = np.exp(1j * init.phi0) * math.sin(init.theta0 / 2)
    return psi


def perpendicular_state(params: ModelParams, n: int) -> InitialStateSpec:
    """Initial-state spec perpendicular to the sector rotation axis (phi0 = 0).

    The unitary evolution of this state traces a great circle.
    """
    sa = sector_analytics(params, n)
    return InitialStateSpec(theta0=sa.axis_polar + math.pi / 2, phi0=0.0, n=n)


def collapse_operators(params: ModelParams, spec: SpaceSpec) -> tuple[tuple[np.ndarray, float], ...]:
    """(operator, rate) pairs for photon loss, atomic relaxation and dephasing."""
    ops = []
    if params.gamma > 0:
        ops.append((hilbert.annihilation(spec), params.gamma))
    if params.p > 0:
        ops.append((hilbert.sigma_minus(spec), params.p))
    if params.p_z > 0:
        ops.append((hilbert.sigma_z(spec), params.p_z))
    return tuple(ops)
