"""Entanglement and Bloch-sphere diagnostics.

Every routine here takes a stack of states: (n, d) pure states or
(n, d, d) density matrices; a single state is a stack of one.  The two
replays of LAPACK zheevd live here: ``sector_eigh``, the start sector's
eigenpairs that the sweeps track, and ``_replayed``, the negativity's.

Negativity is computed on the whole space it is given (partial transpose
over the atom against its whole cavity ladder), because dissipation couples
excitation sectors; the sweeps give it the reached space, Fock levels 0..n0,
which the partial transpose (atomic indices only) maps to itself.  Its
value is eigvalsh's, bit for bit (replayed without it on a sweep's 4x4
ones), checked against the trace norm: in closed form for the states of a
sweep (block-diagonal in the excitation number N, exactly), else by SVD.  Bloch
projections use the n=1 sector basis {|e0>, |g1>} with |e0> at the north
pole and y = 2 Im<g1|rho|e0>, which makes the resonant closed evolution of
|e0> a right-handed rotation about +x (north pole toward -y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import hilbert
from .hilbert import SpaceSpec

NEGATIVITY_FORMULA_TOL = 1e-10
PLANARITY_THRESHOLD = 0.02
BLOCH_EPS = 1e-6
# LAPACK's dlamch constants and the thresholds at which zheevd (the matrix),
# zlarfg (a reflector) and zsteqr or dsterf (a 2x2 block) rescale:
# ``sector_eigh`` and ``_replayed`` leave such records to LAPACK
_EPS, _SAFMIN = 2.0 ** -53, 2.0 ** -1022
_RMIN, _RMAX = 2.0 ** -485, 2.0 ** 485  # sqrt(safmin / (2 eps)) and its inverse
_BETA_MIN = _SAFMIN / _EPS
# sqrt(safmin) / eps^2 and sqrt(1 / safmin) / 3
_SSFMIN, _SSFMAX = 2.0 ** -511 / _EPS ** 2, 2.0 ** 511 / 3


@dataclass(frozen=True)
class PlanarityReport:
    """Largest relative off-plane excursion of a Bloch trajectory."""

    plane_normal: tuple[float, float, float]
    max_off_plane: float
    samples_used: int


def partial_transpose_atom(rhos: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """Transpose the atomic indices only, of each matrix of an (n, d, d) stack."""
    d = spec.dim
    if rhos.ndim != 3 or rhos.shape[1:] != (d, d):
        raise ValueError(f"expected shape (n, {d}, {d}), got {rhos.shape}")
    n = rhos.shape[0]
    blocks = rhos.reshape(n, spec.cavity_dim, 2, spec.cavity_dim, 2)
    return blocks.transpose(0, 1, 4, 3, 2).reshape(n, d, d)


def block_trace_norm(rhos: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """||rho^T_A||_1 of each N-block-diagonal matrix of an (n, d, d) stack.

    The partial transpose is block-diagonal: 2x2 blocks on {|g,k>, |e,k+1>}
    with diagonal a = rho_gk,gk, b = rho_e(k+1),e(k+1) and off-diagonal
    c = rho_ek,g(k+1) (``hilbert.n_blocks``), of trace norm
    max(|a + b|, sqrt((a - b)^2 + 4|c|^2)), and the 1x1 blocks |e,0> and
    |g,n_max>, which add |their population|."""
    diag, upper, _ = hilbert.n_blocks(rhos)
    pops, c = diag.real, np.abs(upper)
    a, b = pops[:, 0:-2:2], pops[:, 3::2]
    pairs = np.maximum(np.abs(a + b), np.hypot(a - b, 2 * c))
    return pairs.sum(axis=1) + np.abs(pops[:, 1]) + np.abs(pops[:, -2])


def _dlae2(a, b, c):
    """LAPACK dlae2: eigenvalues rt1, rt2 (|rt1| >= |rt2|) of each [[a, b], [b, c]] and
    their distance rt, one float64 ufunc per operation; unused branches may warn."""
    sm, adf, ab = a + c, np.abs(a - c), np.abs(b + b)
    first = np.abs(a) > np.abs(c)
    acmx, acmn = np.where(first, a, c), np.where(first, c, a)
    rt = np.where(adf > ab, adf * np.sqrt(1.0 + (ab / adf) * (ab / adf)),
                  np.where(adf < ab, ab * np.sqrt(1.0 + (adf / ab) * (adf / ab)),
                           ab * np.sqrt(2.0)))
    rt1 = np.where(sm < 0, 0.5 * (sm - rt), 0.5 * (sm + rt))
    rt2 = np.where(sm == 0, -0.5 * rt, (acmx / rt1) * acmn - (b / rt1) * b)
    return rt1, rt2, rt


def sector_eigh(states: np.ndarray, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (..., 2) and eigenvector columns (..., d, 2) of the block
    {|e,n0-1>, |g,n0>} of each matrix of an N-block-diagonal Hermitian
    (..., d, d) stack, as eigh (LAPACK zheevd) gives them for that 2x2
    block alone, bit for bit and in either order, with +0.0 off the block.
    It repeats zheevd's own operations, one float64 ufunc each:
    zhetd2 makes the lower coherence real with zlarfg's reflector (none when
    it is real) and updates the |g,n0> population by its rank-2 step;
    zsteqr leaves the block as two 1x1 blocks if either of its split tests
    passes, and rotates it by dlaev2's eigenvectors otherwise; zunmtr
    applies the reflector to the |g,n0> row.  Blocks that LAPACK would
    rescale (their largest entry outside [_RMIN, _RMAX], a complex
    coherence below _BETA_MIN, or a rotated block with its largest entry
    outside [_SSFMIN, _SSFMAX]) are left to eigh.
    """
    shape, d = states.shape[:-2], states.shape[-1]
    rhos = states.reshape(-1, d, d)
    diag, _, lower = hilbert.n_blocks(rhos)
    i = 2 * n0 - 1  # |e,n0-1>; |g,n0> is i + 1
    d1, c, z = diag.real[:, i], diag.real[:, i + 1], lower[:, n0 - 1]
    zr, zi = z.real, z.imag
    cplx = zi != 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # zlarfg: beta = -sign(dlapy3(zr, zi, 0), zr), tau = (beta - z) / beta
        top = np.maximum(np.abs(zr), np.abs(zi))
        p, q = np.abs(zr) / top, np.abs(zi) / top
        beta = -np.copysign(top * np.sqrt(p * p + q * q), zr)
        tau_r = np.where(cplx, (beta - zr) / beta, 0.0)
        tau_i = np.where(cplx, -zi / beta, 0.0)
        # the rank-2 update of the |g,n0> population c: zhemv's x = tau c,
        # zdotc and zaxpy's w = x - (tau/2) conj(x), zher2's c - Re w - Re w
        x_r = tau_r * c
        w_r = x_r - ((0.5 * tau_r) * x_r + (0.5 * tau_i) * (tau_i * c))
        d2 = (c - w_r) - w_r
        e = np.where(cplx, beta, zr)
        # zsteqr's split tests: on entry, then in its QL or QR sweep
        ad1, ad2, ae = np.abs(d1), np.abs(d2), np.abs(e)
        coupled = ae > (np.sqrt(ad1) * np.sqrt(ad2)) * _EPS
        rotated = coupled & (ae * ae > (_EPS ** 2 * np.minimum(ad1, ad2))
                             * np.maximum(ad1, ad2) + _SAFMIN)
        # dlaev2(d1, e, d2): dlae2's eigenvalues rt1, rt2 and the rotation (cs, sn)
        rt1, rt2, rt = _dlae2(d1, e, d2)
        sm, df, tb = d1 + d2, d1 - d2, e + e
        cs = np.where(df >= 0, df + rt, df - rt)
        ct, tn = -tb / cs, -cs / tb
        sn_a = 1.0 / np.sqrt(1.0 + ct * ct)
        cs_b = 1.0 / np.sqrt(1.0 + tn * tn)
        wide = np.abs(cs) > np.abs(tb)
        cs1, sn1 = np.where(wide, ct * sn_a, cs_b), np.where(wide, sn_a, tn * cs_b)
        swap = (sm < 0) == (df < 0)  # sgn1 == sgn2
        cs1, sn1 = np.where(swap, -sn1, cs1), np.where(swap, cs1, sn1)

    w = np.stack((np.where(rotated, rt1, d1), np.where(rotated, rt2, d2)), axis=1)
    # zlasr rotates the identity's columns as complex numbers: the
    # imaginary parts stay 0.0, and a rotated block's cs1 and sn1 are never
    # zero, so the identity's zeros add nothing, not even a sign
    v = np.zeros((len(rhos), d, 2), dtype=complex)
    re = v.real
    re[:, i, 0] = np.where(rotated, cs1, 1.0)
    re[:, i, 1] = np.where(rotated, -sn1, 0.0)
    # zunmtr: the reflector scales the |g,n0> row by 1 - tau (zgemv, zgerc)
    for col, x in enumerate((np.where(rotated, sn1, 0.0), np.where(rotated, cs1, 1.0))):
        re[:, i + 1, col] = np.where(cplx, x - tau_r * x, x)
        v.imag[:, i + 1, col] = np.where(cplx, 0.0 - tau_i * x, 0.0)

    # the block's largest entry, as zlanhe finds it, and as zsteqr finds it
    # in the tridiagonal block (d1, d2, e)
    anorm = np.maximum(np.maximum(np.abs(d1), np.abs(c)), np.abs(z))
    block = np.maximum(np.maximum(ad1, ad2), ae)
    lapack = (~(anorm <= _RMAX) | ((anorm > 0) & (anorm < _RMIN))
              | (cplx & (np.abs(beta) < _BETA_MIN))
              | (coupled & ~((block >= _SSFMIN) & (block <= _SSFMAX))))
    if lapack.any():
        w[lapack], v[lapack, i:i + 2] = np.linalg.eigh(rhos[lapack, i:i + 2, i:i + 2])
    return w.reshape(*shape, 2), v.reshape(*shape, d, 2)


def _from_eigs(pts: np.ndarray) -> np.ndarray:
    """The sum of |negative eigenvalues| of each matrix, by eigvalsh."""
    eigs = np.linalg.eigvalsh(pts)
    return np.where(eigs < 0, -eigs, 0.0).sum(axis=1)


def _replayed(rhos: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """``_from_eigs`` of the partial transposes of an N-block-diagonal stack,
    by LAPACK zheevd('N', 'L')'s float64 operations where d = 4 (sector 1's
    reached space): zhetd2 reduces the block that z = rho[|g,1>, |e,0>]
    couples to d = (rho_g0,g0, 0) and e0 = -||z|| (dznrm2 sums in x87
    extended precision, longdouble here), and dsterf's dlae2 of it, after
    rte = sqrt(e0^2), gives the one negative eigenvalue rt2.  Records LAPACK
    treats otherwise take eigvalsh: an |e,1> or a negative population, a
    subnormal |e,0> one (zhetd2 halves it), a largest entry above _RMAX, or
    z != 0 with |e0| < _BETA_MIN or a block below _SSFMIN (as all below _RMIN have)."""
    if spec.dim != 4:
        return _from_eigs(partial_transpose_atom(rhos, spec))
    pops, z = np.diagonal(rhos, 0, 1, 2).real, rhos[:, 2, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zl = z.astype(np.clongdouble)
        beta = np.sqrt(zl.real * zl.real + zl.imag * zl.imag).astype(float)
        # dsterf's QR order; dlae2 is symmetric in a and c, bit for bit
        rt2 = _dlae2(0.0, np.sqrt(beta * beta), pops[:, 0])[1]
    neg = np.where(rt2 < 0, -rt2, 0.0)
    # maxima and minima over the short last axis, one ufunc call per column
    anorm = np.maximum(reduce(np.maximum, np.abs(pops).T), np.abs(z))
    block = np.maximum(np.abs(pops[:, 0]), beta)
    lapack = ((pops[:, 3] != 0) | (reduce(np.minimum, pops.T) < 0)
              | ((pops[:, 1] > 0) & (pops[:, 1] < 2 * _SAFMIN)) | ~(anorm <= _RMAX)
              | ((z != 0) & ((beta < _BETA_MIN) | (block < _SSFMIN))))
    if lapack.any():
        neg[lapack] = _from_eigs(partial_transpose_atom(rhos[lapack], spec))
    return neg


def negativity(states: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """Entanglement negativity of each state of a stack: the sum of |negative
    eigenvalues| of its partial transpose, as eigvalsh gives them.

    Cross-checked against the trace-norm form (||rho^T_A||_1 - 1)/2, by
    ``block_trace_norm``, or by SVD if any entry between two N blocks is
    nonzero; the two must agree to NEGATIVITY_FORMULA_TOL or the eigensolve is suspect.
    """
    rhos = np.einsum("ki,kj->kij", states, states.conj()) if states.ndim == 2 else states
    if hilbert.off_n_blocks(rhos):
        pt = partial_transpose_atom(rhos, spec)
        from_eigs = _from_eigs(pt)
        norms = np.linalg.svd(pt, compute_uv=False).sum(axis=1)
    else:
        from_eigs = _replayed(rhos, spec)
        norms = block_trace_norm(rhos, spec)
    from_norm = (norms - 1.0) / 2.0
    worst = np.abs(from_eigs - from_norm).max()
    if worst > NEGATIVITY_FORMULA_TOL:
        raise ArithmeticError(f"negativity formulas disagree by {worst:.3e}")
    return from_eigs


def bloch_series(states: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """Sector-1 Bloch components of each state of a stack; shape (n, 4) =
    x, y, z and the sector population weight."""
    i_e, i_g = hilbert.sector_indices(1, spec)
    if states.ndim == 2:
        a = np.abs(states[:, i_e]) ** 2
        d = np.abs(states[:, i_g]) ** 2
        c = states[:, i_e] * np.conj(states[:, i_g])
    else:
        a = states[:, i_e, i_e].real
        d = states[:, i_g, i_g].real
        c = states[:, i_e, i_g]
    return np.column_stack([2 * c.real, -2 * c.imag, a - d, a + d])


def planarity(points: np.ndarray, reference_normal) -> PlanarityReport:
    """Max of |r·n| / max(|r|, eps) over a Bloch trajectory.

    ``points`` is (N, 3) (a trailing weight column is ignored).  At least two
    samples must have |r| > eps.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 3:
        raise ValueError("points must be an (N, >=3) array")
    pts = pts[:, :3]
    normal = np.asarray(reference_normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    radii = np.linalg.norm(pts, axis=1)
    usable = int((radii > BLOCH_EPS).sum())
    if usable < 2:
        raise ValueError("fewer than two samples with |r| above the floor")
    off = np.abs(pts @ normal) / np.maximum(radii, BLOCH_EPS)
    return PlanarityReport(
        plane_normal=(float(normal[0]), float(normal[1]), float(normal[2])),
        max_off_plane=float(off.max()),
        samples_used=usable,
    )
