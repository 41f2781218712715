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
eigenvalue is one at t0, continued by maximal overlap (not by eigenvalue
order, since the branch's eigenvalue decays and may cross others), on the
start sector's two eigenpairs: dissipation only lowers N, and every other
eigenvector has zero overlap with that sector.  ``BranchTracker`` follows
many points at once and picks with array operations; only the phase fix
of each picked vector is a per-sample recurrence, kept in its exact
sequential form (a dot product on a strided column, then ``arctan2``),
because a cumulative-sum form changes the bits of the chain and can move
a phase by 2 pi where it passes an antipodal crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .dynamics import TrajectoryRecord

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

    Equal to ``wrap_angle`` bit for bit, except that -0.0 maps to +0.0;
    the two add identically to any running sum that starts at 0.0.
    """
    w = x - 2 * math.pi * np.round(x / (2 * math.pi))
    return np.where(w <= -math.pi, math.pi, w)


def _accumulate(ufunc, carry: np.ndarray, values: np.ndarray,
                initial: Optional[float]) -> np.ndarray:
    """``ufunc.accumulate`` of ``values`` along axis 1, continued from ``carry``.

    With ``initial`` (the first block) the result starts with that value at
    sample 0 and ``carry`` must leave the first term unchanged (-0.0 for
    add, inf for minimum); otherwise the carried term is dropped.
    """
    out = ufunc.accumulate(np.concatenate((carry[:, None], values), axis=1), axis=1)
    if initial is None:
        return out[:, 1:]
    out[:, 0] = initial
    return out


class PhaseChain:
    """The discrete phase chain of b state sequences, fed in blocks of samples.

    ``extend`` takes the next r samples of every sequence, shape (b, r, d).
    Only the values at the sample indices ``checkpoints`` are kept:
    ``values`` is (phases, |endpoint overlaps|, min consecutive |overlap| up
    to each checkpoint), each of shape (b, len(checkpoints)).  The running
    sums and minima carry across blocks in the order one pass would take
    them, so the kept values do not depend on the block lengths.
    """

    def __init__(self, checkpoints):
        self.checkpoints = np.asarray(checkpoints, dtype=int)
        self._seen = 0
        self._last: Optional[np.ndarray] = None

    def extend(self, states: np.ndarray) -> None:
        states = np.asarray(states)
        b, r = states.shape[:2]
        start = self._last is None
        if start:
            self._first = states[:, 0].conj()
            self._dyn, self._phi = np.full(b, -0.0), np.full(b, -0.0)
            self._min = np.full(b, np.inf)
            self._values = np.full((3, b, self.checkpoints.size), np.nan)
            seq = states
        else:
            seq = np.concatenate((self._last[:, None], states), axis=1)
        link = np.einsum("bki,bki->bk", seq[:, :-1].conj(), seq[:, 1:])
        dyn = _accumulate(np.add, self._dyn, np.angle(link), 0.0 if start else None)
        endpoint = np.einsum("bi,bki->bk", self._first, states)
        raw = np.angle(endpoint) - dyn
        turns = wrap_angles(np.diff(raw if start else
                                    np.concatenate((self._raw, raw), axis=1), axis=1))
        phi = _accumulate(np.add, self._phi, turns, 0.0 if start else None)
        min_link = _accumulate(np.minimum, self._min, np.abs(link),
                               1.0 if start else None)

        idx = self.checkpoints - self._seen
        here = (idx >= 0) & (idx < r)
        self._values[:, :, here] = np.stack((phi, np.abs(endpoint), min_link))[:, :, idx[here]]
        self._last = states[:, -1].copy()
        self._dyn, self._raw, self._phi = dyn[:, -1], raw[:, -1:], phi[:, -1]
        self._min = min_link[:, -1]
        self._seen += r

    @property
    def values(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(self._values)


def phase_series(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unwrapped geometric phase at every sample of a normalized state sequence.

    Returns (phases, |endpoint overlaps|, min consecutive |overlap| up to
    each sample), so one call serves every checkpoint on the sequence: the
    ``PhaseChain`` of the one sequence, fed whole, keeping every sample.
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
    """Dominant-branch continuation of b points, fed one block of
    eigendecompositions at a time.

    Continuation starts at the eigenvector of the largest eigenvalue at t0,
    then picks, at every sample, the eigenvector with maximal |overlap|
    against the previous pick and fixes its phase so the consecutive
    overlap with the previous tracked vector is real and nonnegative.  The
    eigenpairs may come in any column order, even one that changes from
    sample to sample, and need not be all d of them: a column with zero
    overlap against every tracked vector, never picked and never among the
    top two overlaps, can be left out.  ``information.sector_eigh`` gives only
    the start sector's two, ``track_dominant_eigenvector`` all d of eigh's.
    Selection assumes each point's picked column index stays put: one
    batched pass gives every sample's (b, r, m) |overlaps|, each summed
    down its column so that its bits do not depend
    on the column's place, and restarts after the first sample at which
    some point's best column differs (an eigenvalue crossing).  Only the
    phase fix is a per-sample recurrence.  The overlaps use the raw
    columns, carried across blocks, so feeding a trajectory in blocks, or
    beside other points, gives the same track, bit for bit, as feeding it
    whole and alone.  A point whose continuation fails is set aside in
    ``failed`` (point index -> TrackingError), its later picks undefined and
    its ``floor`` NaN; ``floor`` holds each other point's least picked overlap.
    """

    def __init__(self):
        self.failed: dict[int, TrackingError] = {}
        self.floor: Optional[np.ndarray] = None
        self._prev = self._j = self._col = None

    def extend(self, times: np.ndarray, all_w: np.ndarray,
               all_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Continue every point through the samples ``times`` (b, r) with
        eigenvalues ``all_w`` (b, r, m) and eigenvector columns ``all_v``
        (b, r, d, m), m >= 2 in any column order and of any count per block;
        returns their tracked eigenvalues (b, r) and vectors (b, r, d)."""
        (b, n, m), dim = all_w.shape, all_v.shape[2]
        pts = np.arange(b)
        picks = np.empty((b, n), dtype=int)
        start = 0
        if self._col is None:
            j = all_w[:, 0].argmax(axis=1)
            largest = all_w[pts, 0, j]
            for p in np.flatnonzero(largest < 1.0 - PURITY_TOL):
                self.failed[int(p)] = TrackingError(
                    f"initial state not pure: largest eigenvalue {largest[p]:.9f}")
            self._j, self._col = j, all_v[pts, 0, :, j]
            self.floor = np.ones(b)
            picks[:, 0] = j
            start = 1

        # one pass per run of samples between crossings: each point's column
        # j (carried over, a guess if this block has fewer columns) is assumed
        # to stay picked; the pass ends where a point still tracked moves off
        j, col = np.minimum(self._j, m - 1), self._col
        k = start
        while k < n:
            cols = np.concatenate((col[:, None], all_v[pts, k:n - 1, :, j]), axis=1)
            # summed down the columns, one add per row: the same bits wherever a column sits
            overlaps = np.abs(reduce(np.add, (cols.conj()[:, :, :, None]
                                              * all_v[:, k:]).transpose(2, 0, 1, 3)))
            best = overlaps.argmax(axis=2)
            moved = best != j[:, None]
            moved[list(self.failed)] = False
            stop = moved.argmax(axis=1)[moved.any(axis=1)].min(initial=n - k - 1) + 1
            # the two largest overlaps, column by column (max and min are exact)
            first = second = np.full((b, stop), -np.inf)
            for x in np.moveaxis(overlaps[:, :stop], 2, 0):
                first, second = np.maximum(first, x), np.maximum(second, np.minimum(first, x))
            ambiguous = first - second < AMBIGUITY_TOL
            bad = ambiguous | (first <= OVERLAP_FLOOR)
            for p in np.flatnonzero(bad.any(axis=1)):  # a point keeps its first failure
                i = bad[p].argmax()
                self.failed.setdefault(int(p), TrackingError(
                    f"eigenvector overlap ambiguity at t={times[p, k + i]:g}: "
                    f"{first[p, i]:.8f} vs {second[p, i]:.8f}" if ambiguous[p, i] else
                    f"tracking overlap {first[p, i]:.3g} <= {OVERLAP_FLOOR} "
                    f"at t={times[p, k + i]:g}"))
            self.floor = np.minimum(self.floor, first.min(axis=1))
            picks[:, k:k + stop] = best[:, :stop]
            k += stop
            j = best[:, stop - 1]
            col = all_v[pts, k - 1, :, j]
        self.floor[list(self.failed)] = np.nan

        # the picked vectors are read with a non-unit stride, as eigenvector
        # columns are: a contiguous copy would take other BLAS and ufunc
        # kernels and change the last bits
        picked = np.empty((b, n, dim, 2), dtype=complex)[..., 0]
        picked[:] = all_v[pts[:, None], np.arange(n), :, picks]
        vectors = np.empty((b, n, dim), dtype=complex)
        prev = self._prev
        if start:
            vectors[:, 0] = picked[:, 0]
            prev = vectors[:, 0]
        # the fix's buffers, each written in place by the ufunc that makes it;
        # turn = -1j * angle, whose real part is +0.0 for every finite angle
        conj, ov = np.empty((b, 1, dim), dtype=complex), np.empty((b, 1, 1), dtype=complex)
        angle, (turn, fix) = np.empty((b, 1)), np.zeros((2, b, 1), dtype=complex)
        rows, ov_re, ov_im, turn_im = conj[:, 0], ov.real[:, 0], ov.imag[:, 0], turn.imag
        for k in range(start, n):
            vec = picked[:, k]
            np.conjugate(prev, out=rows)
            np.matmul(conj, vec[:, :, None], out=ov)
            np.negative(np.arctan2(ov_im, ov_re, out=angle), out=turn_im)
            prev = np.multiply(vec, np.exp(turn, out=fix), out=vectors[:, k])

        self._j, self._col, self._prev = j, col, prev
        return all_w[pts[:, None], np.arange(n), picks], vectors


def track_dominant_eigenvector(traj: TrajectoryRecord) -> EigenTrack:
    """Follow the eigenvector branch that starts with eigenvalue one: a
    ``BranchTracker`` of one point, fed the whole trajectory."""
    if not traj.is_density:
        raise ValueError("tracking needs a density-matrix trajectory")
    tracker = BranchTracker()
    w, v = np.linalg.eigh(traj.states)
    eigenvalues, vectors = tracker.extend(traj.times[None], w[None], v[None])
    if tracker.failed:
        raise tracker.failed[0]
    return EigenTrack(times=traj.times, eigenvalues=eigenvalues[0], vectors=vectors[0],
                      overlap_floor=float(tracker.floor[0]))
