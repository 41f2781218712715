"""Geometric-phase engine.

Phases are evaluated with the gauge-invariant discrete chain

    phi(t_N) = arg<psi(t_0)|psi(t_N)> - sum_k arg<psi(t_k)|psi(t_{k+1})>

which telescopes away any per-sample phase redefinition exactly, at any
sample density; estimating d/dt of the state by finite differences would
not be gauge safe for tracked density-matrix eigenvectors.  Values along
the grid are accumulated with increments wrapped to (-pi, pi], so the
reported phase is unwrapped without any post-hoc heuristic while genuine
pi-jumps at antipodal crossings survive.

The open-system phase follows the density-matrix eigenvector branch whose
eigenvalue is one at t0, continued by maximal overlap (its eigenvalue
decays and may cross others) on the start sector's two eigenpairs:
dissipation only lowers N.  ``BranchTracker`` picks in one batched pass per
block; only the phase fix of each pick is a per-sample recurrence, in its
exact sequential form (a dot product on a strided column, then
``arctan2``), because a cumulative-sum form changes the bits of the chain
and can move a phase by 2 pi at an antipodal crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .dynamics import TrajectoryRecord
from .information import sector_eigh

OVERLAP_FLOOR = 0.5
AMBIGUITY_TOL = 1e-6
ENDPOINT_FLOOR = 1e-6
PURITY_TOL = 1e-8


class TrackingError(RuntimeError):
    """Eigenvector continuation failed (ambiguity, purity, or overlap floor)."""


class SingularCheckpointError(RuntimeError):
    """Endpoint overlap vanished; the phase is undefined at this checkpoint."""


class CoarseGridError(RuntimeError):
    """Consecutive sample overlap fell below the validity floor."""


@dataclass(frozen=True)
class EigenTrack:
    """Continuously tracked dominant eigenvector branch of a density trajectory."""

    times: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    overlap_floor: float


def wrap_angle(x: float) -> float:
    """Map to (-pi, pi]."""
    w = math.remainder(x, 2 * math.pi)
    return math.pi if w <= -math.pi else w


def wrap_angles(x: np.ndarray) -> np.ndarray:
    """``wrap_angle`` on every element of an array.

    Equal to ``wrap_angle`` bit for bit for |x| < 21 pi, except that -0.0
    maps to +0.0; the two add identically to any running sum that starts at
    0.0.  From 21 pi on, 2 pi times round(x / 2 pi) rounds and the last bits
    can differ; ``PhaseChain``'s increments lie within (-3 pi, 3 pi).
    """
    w = x - 2 * math.pi * np.round(x / (2 * math.pi))
    return np.where(w <= -math.pi, math.pi, w)


def _accumulate(ufunc, carry: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate`` of ``values`` along axis 1, continued from ``carry``."""
    return ufunc.accumulate(np.concatenate((carry[:, None], values), axis=1), axis=1)[:, 1:]


class PhaseChain:
    """The discrete phase chain of b state sequences, fed in blocks of samples.

    ``extend`` takes the next r samples of every sequence, shape (b, r, d),
    and any per-sample arrays of shape (b, r) to keep beside them.  Only the
    values at the sample indices ``checkpoints`` are kept: ``values`` is
    (phases, |endpoint overlaps|, min consecutive |overlap| up to each
    checkpoint, *the per-sample arrays), each of shape (b, len(checkpoints)).
    The running sums and minima carry across blocks in the order one pass
    would take them, so the kept values do not depend on the block lengths.
    Sample 0 follows itself, a zero step (arg<psi_0|psi_0> = 0), so every
    block takes one path; its least link is the self-overlap |<psi_0|psi_0>|.
    """

    def __init__(self, checkpoints):
        self.checkpoints = np.asarray(checkpoints, dtype=int)
        self._seen = 0
        self._last: Optional[np.ndarray] = None

    def extend(self, states: np.ndarray, *per_sample: np.ndarray) -> None:
        states = np.asarray(states)
        b, r = states.shape[:2]
        if self._last is None:  # sample 0 follows itself: a zero step
            self._first, self._last = states[:, 0].conj(), states[:, 0]
            self._dyn, self._phi = np.full(b, -0.0), np.full(b, -0.0)
            self._raw, self._min = np.zeros((b, 1)), np.full(b, np.inf)
            self._values = np.full((3 + len(per_sample), b, self.checkpoints.size), np.nan)
        seq = np.concatenate((self._last[:, None], states), axis=1)
        link = np.einsum("bki,bki->bk", seq[:, :-1].conj(), seq[:, 1:])
        dyn = _accumulate(np.add, self._dyn, np.angle(link))
        endpoint = np.einsum("bi,bki->bk", self._first, states)
        raw = np.angle(endpoint) - dyn
        turns = wrap_angles(np.diff(np.concatenate((self._raw, raw), axis=1), axis=1))
        phi = _accumulate(np.add, self._phi, turns)
        min_link = _accumulate(np.minimum, self._min, np.abs(link))

        idx = self.checkpoints - self._seen
        here = (idx >= 0) & (idx < r)
        kept = np.stack((phi, np.abs(endpoint), min_link, *per_sample))
        self._values[:, :, here] = kept[:, :, idx[here]]
        self._last = states[:, -1].copy()
        self._dyn, self._raw, self._phi = dyn[:, -1], raw[:, -1:], phi[:, -1]
        self._min = min_link[:, -1]
        self._seen += r

    @property
    def values(self) -> tuple[np.ndarray, ...]:
        return tuple(self._values)


def phase_series(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unwrapped geometric phase at every sample of a normalized state sequence.

    Returns (phases, |endpoint overlaps|, min consecutive |overlap| up to
    each sample, which at sample 0 is the self-overlap |<psi_0|psi_0>|), so
    one call serves every checkpoint on the sequence: the ``PhaseChain`` of
    the one sequence, fed whole, keeping every sample.
    """
    states = np.asarray(states)
    n = states.shape[0]
    if n < 1:
        raise ValueError("need at least one sample")
    chain = PhaseChain(np.arange(n))
    chain.extend(states[None])
    return tuple(v[0] for v in chain.values)


def checkpoint_phase(series: tuple[np.ndarray, np.ndarray, np.ndarray], idx: int) -> float:
    """Phase at sample ``idx`` of a ``phase_series`` result, if it is usable there."""
    phi, endpoint_abs, min_link = series
    if min_link[idx] <= OVERLAP_FLOOR:
        raise CoarseGridError(
            f"consecutive overlap {min_link[idx]:.3g} <= {OVERLAP_FLOOR}; grid too coarse")
    if endpoint_abs[idx] < ENDPOINT_FLOOR:
        raise SingularCheckpointError(
            f"endpoint overlap {endpoint_abs[idx]:.3g} below {ENDPOINT_FLOOR:g}")
    return float(phi[idx])


class BranchTracker:
    """Dominant-branch continuation of b points, fed one block of a sector's
    two eigenpairs per sample (``information.sector_eigh``) at a time.

    Each branch starts at the column of the larger eigenvalue at t0 and
    moves, at every sample, to the column of maximal |overlap| with the
    previous pick, its phase fixed so that the overlap with the previous
    tracked vector is real and nonnegative.  Both samples' columns are
    orthonormal pairs in one plane, so the previous smaller column S'
    overlaps this sample's (L, S) as the previous larger one L' does,
    swapped: the branch changes eigenvalue exactly where |<L'|S>| >
    |<L'|L>|, and its side is the parity of those swaps.  One batched pass
    of the L' overlaps decides every pick of a block, in either column
    order; only the phase fix is a per-sample recurrence.  Sample 0 follows
    itself, a zero step from its own larger column, so every block takes
    one path; that self-overlap, 1 to rounding, enters ``floor``.  Raw
    columns carry across blocks, so a trajectory fed in blocks, or beside
    other points, gets the bits it gets fed whole and alone.  A point whose
    continuation fails is set aside in ``failed`` (point index ->
    TrackingError), its later picks undefined and its ``floor`` NaN;
    ``floor`` holds each other point's least picked overlap.
    """

    def __init__(self):
        self.failed: dict[int, TrackingError] = {}
        self.floor: Optional[np.ndarray] = None
        self._prev = self._col = self._side = None

    def extend(self, times: np.ndarray, all_w: np.ndarray,
               all_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Continue every point through the samples ``times`` (b, r) with
        eigenvalues ``all_w`` (b, r, 2) and eigenvector columns ``all_v``
        (b, r, d, 2) of one plane, in either order; returns their tracked
        eigenvalues (b, r) and vectors (b, r, d)."""
        (b, n, m), dim = all_w.shape, all_v.shape[2]
        if m != 2:
            raise ValueError(f"the tracker takes two eigenpairs per sample, not {m}")
        pts, samples = np.arange(b), np.arange(n)
        large = (all_w[..., 1] > all_w[..., 0]).astype(int)  # argmax, ties to column 0
        larger = all_v[pts[:, None], samples, :, large]
        if self._col is None:  # sample 0 follows itself: a zero step
            largest = all_w[:, 0].max(axis=1)
            for p in np.flatnonzero(largest < 1.0 - PURITY_TOL):
                self.failed[int(p)] = TrackingError(
                    f"initial state not pure: largest eigenvalue {largest[p]:.9f}")
            self._col = self._prev = larger[:, 0]
            self._side, self.floor = np.zeros(b, bool), np.ones(b)

        # |overlaps| of each previous larger column with this sample's two, summed
        # down the columns, one add per row: the same bits wherever a column sits
        cols = np.concatenate((self._col[:, None], larger[:, :-1]), axis=1)
        overlaps = np.abs(reduce(np.add, (cols.conj()[:, :, :, None]
                                          * all_v).transpose(2, 0, 1, 3)))
        # one overlap is >= 1/sqrt(2) > OVERLAP_FLOOR, so only the ambiguity check can
        # fail; max and min column by column (exact; a short-axis reduction is slow)
        o0, o1 = overlaps[..., 0], overlaps[..., 1]
        first, second = np.maximum(o0, o1), np.minimum(o0, o1)
        ambiguous = first - second < AMBIGUITY_TOL
        for p in np.flatnonzero(ambiguous.any(axis=1)):  # a point keeps its first failure
            i = ambiguous[p].argmax()
            self.failed.setdefault(int(p), TrackingError(
                f"eigenvector overlap ambiguity at t={times[p, i]:g}: "
                f"{first[p, i]:.8f} vs {second[p, i]:.8f}"))
        self.floor = np.minimum(self.floor, first.min(axis=1, initial=np.inf))
        self.floor[list(self.failed)] = np.nan
        # on the smaller eigenvalue: the parity of the swaps so far
        swaps = (o1 > o0) != large
        side = _accumulate(np.logical_xor, self._side, swaps)
        picks = large ^ side

        # the picked vectors are read with a non-unit stride, as eigenvector
        # columns are: a contiguous copy would take other BLAS and ufunc
        # kernels and change the last bits
        picked = np.empty((b, n, dim, 2), dtype=complex)[..., 0]
        picked[:] = all_v[pts[:, None], samples, :, picks]
        vectors = np.empty((b, n, dim), dtype=complex)
        prev = self._prev
        # the fix's buffers, each written in place by the ufunc that makes it;
        # vecdot (zdotc) of prev and vec has the bits of zdotu of conj(prev)
        # and vec, signed zeros too, and turn = -1j * arg<prev|vec>, whose real
        # part is +0.0 for every finite angle
        ov, angle = np.empty(b, dtype=complex), np.empty(b)
        turn, fix = np.zeros((2, b, 1), dtype=complex)
        ov_re, ov_im, turn_im = ov.real, ov.imag, turn.imag[:, 0]
        for k in range(n):
            vec = picked[:, k]
            np.vecdot(prev, vec, out=ov)
            np.negative(np.arctan2(ov_im, ov_re, out=angle), out=turn_im)
            prev = np.multiply(vec, np.exp(turn, out=fix), out=vectors[:, k])

        self._col, self._side, self._prev = larger[:, -1], side[:, -1], prev
        return all_w[pts[:, None], samples, picks], vectors


def track_dominant_eigenvector(traj: TrajectoryRecord) -> EigenTrack:
    """Follow the eigenvector branch that starts with eigenvalue one: a
    ``BranchTracker`` of one point, fed the whole trajectory's eigenpairs on
    the 2x2 N block that holds (or, for |g,0> and |e,n_max>, lies next to)
    the first record's largest population."""
    if not traj.is_density:
        raise ValueError("tracking needs a density-matrix trajectory")
    top = int(np.diagonal(traj.states[0]).real.argmax())
    n0 = min(max(1, (top + 1) // 2), traj.states.shape[-1] // 2 - 1)
    tracker = BranchTracker()
    w, v = tracker.extend(traj.times[None], *sector_eigh(traj.states[None], n0))
    if tracker.failed:
        raise tracker.failed[0]
    return EigenTrack(times=traj.times, eigenvalues=w[0], vectors=v[0],
                      overlap_floor=float(tracker.floor[0]))
