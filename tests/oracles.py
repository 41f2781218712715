"""Test-only reference forms of the package's operators, independent of its
vectorised code: the Lindblad right-hand side as matrix in, matrix out, and
a hand-coded right-hand side on the five lowest basis states."""

import numpy as np

from kerrjc.dynamics import LindbladSpec
from kerrjc.model import ModelParams


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
