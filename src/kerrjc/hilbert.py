"""Composite atom-cavity Hilbert space with Fock truncation.

The flat basis is ordered |g0>, |e0>, |g1>, |e1>, ... so a level with
``photons`` photons and atomic state ``atom`` sits at index
``2*photons + (1 if atom == 'e' else 0)``.  All full-space operators are
built as kron(cavity, atom) to match that layout, so a smaller truncation's
basis is a prefix of a larger one's and its operators are slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

class TruncationError(RuntimeError):
    """The dynamics can reach the highest kept Fock level."""


@dataclass(frozen=True)
class SpaceSpec:
    """Truncated space: cavity levels 0..n_max times a two-level atom."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1 (sectors n=1,2 must exist)")

    @property
    def cavity_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, or of each pair of two stacks of them
    (leading axes broadcast): the same products a_ij * b_kl, so the same
    bits (signed zeros too), without its generic-shape overhead."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def annihilation(spec: SpaceSpec) -> np.ndarray:
    """Cavity annihilation on the full space: a|n> = sqrt(n)|n-1>."""
    a = np.zeros((spec.cavity_dim, spec.cavity_dim), dtype=complex)
    for n in range(1, spec.cavity_dim):
        a[n - 1, n] = np.sqrt(n)
    return kron(a, np.eye(2, dtype=complex))


def number_op(spec: SpaceSpec) -> np.ndarray:
    return kron(np.diag(np.arange(spec.cavity_dim, dtype=float)),
                np.eye(2)).astype(complex)


def sigma_minus(spec: SpaceSpec) -> np.ndarray:
    """Atomic lowering |e,n> -> |g,n> on the full space."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # rows/cols (g, e)
    return kron(np.eye(spec.cavity_dim, dtype=complex), sm)


def sigma_plus(spec: SpaceSpec) -> np.ndarray:
    return sigma_minus(spec).conj().T


def sigma_z(spec: SpaceSpec) -> np.ndarray:
    sz = np.diag([-1.0, 1.0]).astype(complex)  # g -> -1, e -> +1
    return kron(np.eye(spec.cavity_dim, dtype=complex), sz)


def sector_indices(n: int, spec: SpaceSpec) -> tuple[int, int]:
    """Flat indices of the sector-n basis {|e,n-1>, |g,n>}."""
    if not 1 <= n <= spec.n_max:
        raise ValueError(f"sector index n = {n} outside [1, {spec.n_max}]")
    return 2 * n - 1, 2 * n


def reached_space(n0: int, spec: SpaceSpec) -> SpaceSpec:
    """Fock levels 0..n0, which hold every state (N <= n0) that legs from
    sector ``n0`` reach: H keeps N and each collapse operator lowers or keeps
    it.  The top kept level of ``spec`` (N >= n_max) must stay empty, which
    holds, exactly, if and only if n_max > n0: a static check."""
    if spec.n_max <= n0:
        raise TruncationError(f"space.n_max = {spec.n_max} puts the start sector n = {n0} "
                              f"on the top Fock level; raise space.n_max above {n0}")
    return SpaceSpec(n0)


def off_n_blocks(rhos: np.ndarray) -> bool:
    """True if an entry of an (n, d, d) stack between two N blocks is nonzero."""
    n = (np.arange(rhos.shape[-1]) + 1) // 2  # N of each basis state
    return bool(rhos[:, n[:, None] != n].any())


def n_blocks(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of the N blocks of an (n, d, d) stack, 1x1 at |g,0> and
    |e,n_max> and 2x2 on {|e,N-1>, |g,N>} (N = 1..n_max): the diagonal (n, d),
    and rho[2N-1, 2N] and rho[2N, 2N-1] of each 2x2 block, (n, n_max) each;
    of pure states (n, d), their projectors', as einsum's ``ki,kj->kij``."""
    if rhos.ndim == 2:
        d = rhos.shape[1]
        i, j = np.r_[0:d, 1:d - 1:2, 2:d:2], np.r_[0:d, 2:d:2, 1:d - 1:2]
        entries = np.einsum("ki,ki->ki", rhos[:, i], rhos.conj()[:, j])
        return tuple(np.split(entries, [d, 3 * d // 2 - 1], axis=1))
    return (np.diagonal(rhos, 0, 1, 2), np.diagonal(rhos, 1, 1, 2)[:, 1::2],
            np.diagonal(rhos, -1, 1, 2)[:, 1::2])
