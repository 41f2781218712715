"""Test-only reference forms of the package's operators, independent of its
vectorised code: the Lindblad right-hand side as matrix in, matrix out."""

import numpy as np

from kerrjc.dynamics import LindbladSpec


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
