import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrjc import hilbert
from kerrjc.dynamics import (
    IntegratorConfig,
    LindbladSpec,
    TrajectoryRecord,
    evolve_closed,
    evolve_lindblad,
)
from kerrjc.geomphase import (
    AMBIGUITY_TOL,
    OVERLAP_FLOOR,
    PURITY_TOL,
    BranchTracker,
    CoarseGridError,
    PhaseChain,
    SingularCheckpointError,
    TrackingError,
    phase_series,
    track_dominant_eigenvector,
    wrap_angle,
    wrap_angles,
)
from kerrjc.experiments import KINDS, default_spec, run_sweep
from kerrjc.hilbert import SpaceSpec
from kerrjc.information import PLANARITY_THRESHOLD, bloch_series, planarity, sector_eigh
from kerrjc.model import (
    InitialStateSpec,
    ModelParams,
    hamiltonian,
    initial_state,
    perpendicular_state,
    sector_analytics,
)

from oracles import (
    dressed_states,
    excitation_number,
    lindblad_spec,
    phase_open_general,
    phase_open_pure,
    phase_unitary,
    solid_angle_phases,
)

SPACE = SpaceSpec(4)
RESONANT = ModelParams(delta=0.5, chi=0.5)
OPEN = ModelParams(delta=0.5, chi=0.5, gamma=0.1, p_z=0.01)


def closed_trajectory(params, init, periods=1.0, spp=2000, stride=4):
    sa = sector_analytics(params, init.n)
    period = 2 * math.pi / sa.rabi_frequency
    config = IntegratorConfig.for_periods(period, periods, spp, stride)
    psi0 = initial_state(init, SPACE)
    return evolve_closed(hamiltonian([params], SPACE)[0], psi0, config), period


def open_trajectory(params, init, periods=1.0, spp=2000, stride=4):
    sa = sector_analytics(params, init.n)
    period = 2 * math.pi / sa.rabi_frequency
    config = IntegratorConfig.for_periods(period, periods, spp, stride)
    psi0 = initial_state(init, SPACE)
    rho0 = np.outer(psi0, psi0.conj())
    traj = evolve_lindblad(lindblad_spec(params, SPACE), rho0, config)
    return traj, period


def open_eigs(params, init, n_max=4, periods=1.0, spp=2000, stride=4):
    """Times and the start sector's two columns of a batched ``eigh`` of an
    open trajectory in an n_max space."""
    space = SpaceSpec(n_max)
    period = 2 * math.pi / sector_analytics(params, init.n).rabi_frequency
    config = IntegratorConfig.for_periods(period, periods, spp, stride)
    psi0 = initial_state(init, space)
    traj = evolve_lindblad(lindblad_spec(params, space),
                           np.outer(psi0, psi0.conj()), config)
    w, v = np.linalg.eigh(traj.states)
    return traj.times, *(x[0] for x in sector_columns(w[None], v[None], init.n))


def per_sample_track(times, all_w, all_v):
    """The branch continuation written as one loop over samples: (vectors,
    eigenvalues, overlap floor), or the TrackingError it raises."""
    n, dim = all_w.shape[0], all_v.shape[1]
    vectors = np.empty((n, dim), dtype=complex)
    eigenvalues = np.empty(n)
    if all_w[0][-1] < 1.0 - PURITY_TOL:
        raise TrackingError(
            f"initial state not pure: largest eigenvalue {all_w[0][-1]:.9f}")
    vectors[0], eigenvalues[0] = all_v[0][:, -1], all_w[0][-1]
    prev, floor = vectors[0], 1.0
    for k in range(1, n):
        w, v = all_w[k], all_v[k]
        overlaps = np.abs(v.conj().T @ prev)
        order = np.argsort(overlaps)[::-1]
        best, second = order[0], order[1]
        if overlaps[best] - overlaps[second] < AMBIGUITY_TOL:
            raise TrackingError(
                f"eigenvector overlap ambiguity at t={times[k]:g}: "
                f"{overlaps[best]:.8f} vs {overlaps[second]:.8f}")
        if overlaps[best] <= OVERLAP_FLOOR:
            raise TrackingError(
                f"tracking overlap {overlaps[best]:.3g} <= {OVERLAP_FLOOR} "
                f"at t={times[k]:g}")
        vec = v[:, best]
        ov = np.vdot(prev, vec)
        vec = vec * np.exp(-1j * np.angle(ov))
        vectors[k], eigenvalues[k] = vec, w[best]
        floor = min(floor, float(overlaps[best]))
        prev = vec
    return vectors, eigenvalues, floor


def fed_in_blocks(times, all_w, all_v, lengths, sector=None):
    """One ``BranchTracker`` fed the points stacked on axis 0 (``times`` is
    (b, n)) in blocks of the given lengths, cycled: (tracked eigenvalues,
    tracked vectors, the tracker).  With ``sector``, the sector's two
    eigenpairs of each sample, it takes those instead."""
    tracker = BranchTracker()
    blocks = []
    start, k = 0, 0
    w, v = (all_w, all_v) if sector is None else sector
    while start < times.shape[1]:
        stop = start + lengths[k % len(lengths)]
        blocks.append(tracker.extend(times[:, start:stop], w[:, start:stop],
                                     v[:, start:stop]))
        start, k = stop, k + 1
    w, v = zip(*blocks)
    return np.concatenate(w, axis=1), np.concatenate(v, axis=1), tracker


def assert_tracks_like_loop(times, all_w, all_v, lengths=None, sector=None):
    """Every point of the stack, tracked together in blocks (default: one),
    on ``sector``'s eigenpairs if given, fails with the message the
    per-sample loop raises on it alone over ``all_w`` and ``all_v``, or
    equals that loop: bit for bit on vectors and eigenvalues, the floor
    within 1e-14.  Returns (eigenvalues, vectors, tracker)."""
    lengths = lengths or [times.shape[1]]
    w, v, tracker = fed_in_blocks(times, all_w, all_v, lengths, sector)
    for p in range(len(times)):
        try:
            want = per_sample_track(times[p], all_w[p], all_v[p])
        except TrackingError as exc:
            assert str(tracker.failed[p]) == str(exc)
            continue
        assert p not in tracker.failed
        assert np.array_equal(v[p], want[0])
        assert np.array_equal(w[p], want[1])
        assert abs(tracker.floor[p] - want[2]) <= 1e-14
    return w, v, tracker


def with_overlaps(all_v, k, magnitudes):
    """Copy of a sector's two columns ``all_v`` whose sample k has columns
    with the given |overlaps| against sample k-1's top column (magnitudes
    must be a unit 2-vector): a Householder reflection of e_0 onto them, in
    the basis of sample k-1's columns that starts with that one."""
    all_v = all_v.copy()
    u = np.eye(2)[0] - magnitudes
    reflect = np.eye(2) - 2 * np.outer(u, u) / (u @ u)
    basis = all_v[k - 1][:, ::-1]
    all_v[k] = basis @ reflect
    return all_v


# two overlaps 2.4e-7 apart, below AMBIGUITY_TOL
NEAR_TIE = (0.7071069, math.sqrt(1 - 0.7071069 ** 2))


def density_record_from_pure(traj):
    rhos = np.einsum("ki,kj->kij", traj.states, traj.states.conj())
    return TrajectoryRecord(times=traj.times.copy(), states=rhos, config=traj.config)


def one_pass_series(states):
    """The phase chain of one whole sequence, written as one pass; the
    least link at sample 0 is the self-overlap |<psi_0|psi_0>|."""
    link = np.einsum("ki,ki->k", states[:-1].conj(), states[1:])
    dyn = np.concatenate([[0.0], np.cumsum(np.angle(link))])
    endpoint = np.einsum("i,ki->k", states[0].conj(), states)
    raw = np.angle(endpoint) - dyn
    phi = np.concatenate([[0.0], np.cumsum(wrap_angles(np.diff(raw)))])
    self_link = np.einsum("ki,ki->k", states[:1].conj(), states[:1])
    min_link = np.minimum.accumulate(np.abs(np.concatenate([self_link, link])))
    return phi, np.abs(endpoint), min_link


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def chain_sequences():
    """Three closed sequences, one through the antipodal crossing, with a
    random phase on every sample."""
    rng = np.random.default_rng(11)
    seqs = []
    for theta in (math.pi, 0.7, 2.2):
        traj, _ = closed_trajectory(RESONANT, InitialStateSpec(theta0=theta),
                                    periods=3.0, spp=200)
        seqs.append(traj.states * np.exp(1j * rng.uniform(-4, 4, len(traj.times)))[:, None])
    return np.array(seqs)


CHAIN_SEQUENCES = chain_sequences()


class TestPhaseChain:
    def test_phase_series_is_the_one_pass_chain(self):
        for states in CHAIN_SEQUENCES:
            got, want = phase_series(states), one_pass_series(states)
            assert all(same_bits(g, w) for g, w in zip(got, want))

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 60), min_size=1, max_size=8),
           every=st.integers(1, 40))
    def test_streamed_chain_equals_phase_series(self, lengths, every):
        # a per-sample array fed beside the states is kept at the checkpoints
        b, n = CHAIN_SEQUENCES.shape[:2]
        per_sample = np.random.default_rng(5).standard_normal((b, n))
        checkpoints = np.arange(0, n, every)
        chain = PhaseChain(checkpoints)
        start, k = 0, 0
        while start < n:
            stop = start + lengths[k % len(lengths)]
            chain.extend(CHAIN_SEQUENCES[:, start:stop], per_sample[:, start:stop])
            start, k = stop, k + 1
        *series, kept = chain.values
        assert same_bits(kept, per_sample[:, checkpoints])
        for j, states in enumerate(CHAIN_SEQUENCES):
            whole = phase_series(states)
            for got, want in zip(series, whole):
                assert same_bits(got[j], want[checkpoints])


class TestWrapAngles:
    def test_equals_scalar_wrap_bit_for_bit(self):
        pi = math.pi
        edges = [pi, -pi, 3 * pi, -3 * pi, 0.0]
        edges += [np.nextafter(x, t) for x in (pi, -pi) for t in (-np.inf, np.inf)]
        rng = np.random.default_rng(7)
        x = np.concatenate([edges, rng.uniform(-10.0, 10.0, 20000),
                            rng.uniform(-3 * pi, 3 * pi, 20000)])
        want = np.array([wrap_angle(float(v)) for v in x])
        assert np.array_equal(wrap_angles(x).view(np.int64), want.view(np.int64))

    @given(x=st.floats(-21 * math.pi, 21 * math.pi, exclude_min=True, exclude_max=True))
    def test_equals_scalar_wrap_below_21_pi(self, x):
        # the float 2*pi times k rounds first at |k| = 11, which round(x / 2pi)
        # reaches at |x| = 21*pi: below it the two agree, -0.0 read as +0.0
        want = np.array([wrap_angle(x) + 0.0])
        assert np.array_equal(wrap_angles(np.array([x])).view(np.int64), want.view(np.int64))

    def test_negative_zero_adds_like_scalar_wrap(self):
        # wrap_angle keeps the sign of -0.0; wrap_angles gives +0.0, and both
        # leave a running sum that starts at 0.0 unchanged
        assert wrap_angles(np.array([-0.0]))[0] == wrap_angle(-0.0) == 0.0
        assert math.copysign(1.0, 0.0 + wrap_angle(-0.0)) == 1.0

    def test_series_matches_scalar_accumulation(self):
        traj, _ = closed_trajectory(RESONANT, InitialStateSpec(theta0=math.pi),
                                    periods=3.0, spp=500)
        phi, endpoint_abs, min_link = phase_series(traj.states)
        link = np.einsum("ki,ki->k", traj.states[:-1].conj(), traj.states[1:])
        raw = np.angle(np.einsum("i,ki->k", traj.states[0].conj(), traj.states)) \
            - np.concatenate([[0.0], np.cumsum(np.angle(link))])
        want = [0.0]
        for k in range(1, len(raw)):
            want.append(want[-1] + wrap_angle(raw[k] - raw[k - 1]))
        assert np.array_equal(phi, np.array(want))
        assert min_link[0] == 1.0
        for k in (1, len(link) // 2, len(link)):
            assert min_link[k] == np.abs(link[:k]).min()


class TestPhaseUnitary:
    def test_gauge_invariance(self):
        traj, period = closed_trajectory(RESONANT, InitialStateSpec(theta0=0.8),
                                         periods=1.0, spp=500)
        base, _, _ = phase_series(traj.states)
        rng = np.random.default_rng(61)
        phases = np.exp(1j * rng.uniform(-math.pi, math.pi, size=len(traj.times)))
        modified, _, _ = phase_series(traj.states * phases[:, None])
        assert abs(wrap_angle(base[-1] - modified[-1])) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12),
           n=st.integers(2, 60), step=st.floats(0.01, 0.5))
    def test_gauge_invariance_property(self, seed, dim, n, step):
        # a random walk of normalized states, then a random phase on each
        rng = np.random.default_rng(seed)
        states = np.empty((n, dim), dtype=complex)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for k in range(n):
            states[k] = psi = psi / np.linalg.norm(psi)
            kick = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi = psi + step * kick / np.linalg.norm(kick)
        phases = np.exp(1j * rng.uniform(-math.pi, math.pi, n))
        phi, endpoint, min_link = phase_series(states)
        phi_g, endpoint_g, min_link_g = phase_series(states * phases[:, None])
        assert np.abs(endpoint_g - endpoint).max() <= 1e-12
        assert np.abs(min_link_g - min_link).max() <= 1e-12
        # a +-pi turn may take either branch, so compare modulo 2 pi; the
        # phase's rounding error grows like 1/|endpoint| (it is undefined
        # where the endpoint overlap vanishes), so skip near-singular samples
        usable = endpoint >= 1e-3
        assert np.abs(wrap_angles(phi_g - phi)[usable]).max() <= 1e-12

    def test_eigenstate_trajectory_zero(self):
        params = ModelParams(delta=0.8, chi=0.2)
        plus, _ = dressed_states(params, 1)
        i_e, i_g = hilbert.sector_indices(1, SPACE)
        psi0 = np.zeros(SPACE.dim, dtype=complex)
        psi0[i_e], psi0[i_g] = plus
        sa = sector_analytics(params, 1)
        config = IntegratorConfig.for_periods(2 * math.pi / sa.rabi_frequency, 1.0, 2000, 4)
        traj = evolve_closed(hamiltonian([params], SPACE)[0], psi0, config)
        assert abs(phase_unitary(traj, traj.times[-1])) < 1e-10

    def test_resonant_geodesic_pi_per_period(self):
        traj, period = closed_trajectory(RESONANT, InitialStateSpec(theta0=math.pi),
                                         periods=1.0)
        assert abs(phase_unitary(traj, period) - math.pi) < 1e-8

    def test_pi_jumps_at_antipodal_crossings(self):
        traj, period = closed_trajectory(RESONANT, InitialStateSpec(theta0=math.pi),
                                         periods=3.0)
        phi, _, _ = phase_series(traj.states)
        omega = 2 * math.pi / period
        jumps = np.where(np.abs(np.diff(phi)) > 0.5)[0]
        assert len(jumps) == 3
        for j in jumps:
            size = abs(phi[j + 1] - phi[j])
            assert abs(size - math.pi) < 0.05
            t_mid = (traj.times[j] + traj.times[j + 1]) / 2
            k = round((omega * t_mid / math.pi - 1) / 2)
            assert abs(omega * t_mid - (2 * k + 1) * math.pi) < 0.05

    def test_singular_checkpoint_at_antipode(self):
        traj, period = closed_trajectory(RESONANT, InitialStateSpec(theta0=math.pi),
                                         periods=1.0)
        with pytest.raises(SingularCheckpointError):
            phase_unitary(traj, period / 2)

    def test_coarse_grid_rejected(self):
        traj, period = closed_trajectory(RESONANT, InitialStateSpec(theta0=math.pi),
                                         periods=1.0, spp=8, stride=4)
        with pytest.raises(CoarseGridError):
            phase_unitary(traj, period)

    def test_rejects_density_record(self):
        traj, period = open_trajectory(OPEN, InitialStateSpec(theta0=0.0))
        with pytest.raises(ValueError):
            phase_unitary(traj, period)


class TestTracking:
    def test_closed_limit_track_is_unitary_trajectory(self):
        params = RESONANT
        closed, period = closed_trajectory(params, InitialStateSpec(theta0=0.6))
        opened, _ = open_trajectory(params, InitialStateSpec(theta0=0.6))
        track = track_dominant_eigenvector(opened)
        assert np.abs(track.eigenvalues - 1.0).max() < 1e-9
        fidelity = np.abs(np.einsum("ki,ki->k", track.vectors.conj(),
                                    closed.states))
        assert (1 - fidelity).max() < 1e-9
        assert track.overlap_floor > 0.999

    def test_resonant_open_track_stays_on_geodesic_plane(self):
        opened, period = open_trajectory(OPEN, perpendicular_state(OPEN, 1),
                                         periods=3.0)
        track = track_dominant_eigenvector(opened)
        sa = sector_analytics(OPEN, 1)
        series = bloch_series(track.vectors, SPACE)
        report = planarity(series[:, :3], np.array(sa.axis))
        assert report.max_off_plane < PLANARITY_THRESHOLD

    def test_block_fed_tracker_equals_whole_track(self):
        opened, _ = open_trajectory(OPEN, InitialStateSpec(theta0=2.0), periods=2.0)
        whole = track_dominant_eigenvector(opened)
        w, v = sector_eigh(opened.states, 1)
        eigenvalues, vectors, tracker = fed_in_blocks(opened.times[None], w[None], v[None],
                                                      [37])
        assert np.array_equal(eigenvalues[0], whole.eigenvalues)
        assert np.array_equal(vectors[0], whole.vectors)
        assert tracker.floor[0] == whole.overlap_floor

    @pytest.mark.parametrize("params,theta,n_max", [
        (OPEN, 2.0, 4), (OPEN.with_rates(0.3, 0.05, 0.02), 0.7, 4),
        (ModelParams(delta=-1.3, chi=0.2, gamma=0.1, p_z=0.01), 2.2, 10)])
    def test_equals_per_sample_loop(self, params, theta, n_max):
        times, w, v = open_eigs(params, InitialStateSpec(theta0=theta), n_max,
                                periods=3.0)
        assert_tracks_like_loop(times[None], w[None], v[None])
        assert_tracks_like_loop(times[None], w[None], v[None], lengths=(1, 37, 200))

    @settings(max_examples=25, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 2 * math.pi),
                                     st.floats(0.0, 0.3), st.floats(0.0, 0.05),
                                     st.floats(0.0, 0.05)), min_size=1, max_size=4),
           n_max=st.integers(2, 5),
           lengths=st.lists(st.integers(1, 60), min_size=1, max_size=6))
    def test_blocks_equal_per_sample_loop(self, points, n_max, lengths):
        # b points with their own generators, tracked together: each equals
        # its own per-sample loop, and the floors do not depend on the blocks
        eigs = [open_eigs(ModelParams(delta=delta, chi=0.5, gamma=gamma, p=p, p_z=p_z),
                          InitialStateSpec(theta0=theta), n_max, periods=1.5, spp=400)
                for delta, theta, gamma, p, p_z in points]
        times, w, v = (np.array(x) for x in zip(*eigs))
        tracker = assert_tracks_like_loop(times, w, v, lengths)[2]
        whole = fed_in_blocks(times, w, v, [times.shape[1]])[2]
        assert whole.failed.keys() == tracker.failed.keys()
        tracked = [p for p in range(len(points)) if p not in tracker.failed]
        assert np.array_equal(tracker.floor[tracked], whole.floor[tracked])

    @pytest.mark.parametrize("n_max", [1, 4])
    def test_column_order_does_not_matter(self, n_max):
        # the same eigenpairs with the columns permuted at every sample: the
        # same tracks bit for bit, the same failures and floors; the middle
        # point fails at sample 37
        magnitudes = np.array(NEAR_TIE)
        eigs = [open_eigs(OPEN.with_rates(gamma, 0.0, 0.01), InitialStateSpec(theta0=theta),
                          n_max, periods=2.0)
                for gamma, theta in ((0.1, 2.0), (0.2, 0.7), (0.3, 2.6))]
        times, w, v = (np.array(x) for x in zip(*eigs))
        v[1] = with_overlaps(v[1], 37, magnitudes)
        order = np.random.default_rng(65).random(w.shape).argsort(axis=2)
        shuffled = (np.take_along_axis(w, order, 2),
                    np.take_along_axis(v, order[:, :, None], 3))
        for lengths in ((37,), (1,), (times.shape[1],)):
            want = fed_in_blocks(times, w, v, lengths)
            got = fed_in_blocks(times, *shuffled, lengths)
            assert got[0][[0, 2]].tobytes() == want[0][[0, 2]].tobytes()
            assert got[1][[0, 2]].tobytes() == want[1][[0, 2]].tobytes()
            assert list(got[2].failed) == list(want[2].failed) == [1]
            assert str(got[2].failed[1]) == str(want[2].failed[1])
            assert got[2].floor.tobytes() == want[2].floor.tobytes()

    @pytest.mark.parametrize("lengths", [(1,), (37,), (300,)])
    def test_failed_points_floor_is_nan(self, lengths):
        # point 1 fails at sample 37 and point 2 starts impure: their floors
        # are NaN, and point 0 keeps the track and floor it has alone
        times, w, v = open_eigs(OPEN, InitialStateSpec(theta0=2.0), 1, periods=2.0)
        times, w, v = (np.repeat(x[None], 3, axis=0) for x in (times, w, v))
        v[1] = with_overlaps(v[1], 37, np.array(NEAR_TIE))
        w[2, 0, -1] = 0.9
        alone = fed_in_blocks(times[:1], w[:1], v[:1], lengths)
        together = fed_in_blocks(times, w, v, lengths)
        assert list(together[2].failed) == [2, 1]
        assert np.isnan(together[2].floor[1:]).all()
        assert together[2].floor[:1].tobytes() == alone[2].floor.tobytes()
        assert not np.isnan(alone[2].floor).any()
        assert together[0][:1].tobytes() == alone[0].tobytes()
        assert together[1][:1].tobytes() == alone[1].tobytes()

    def test_relabelled_columns_are_followed(self):
        # eigh orders columns by eigenvalue, so a crossing relabels the
        # tracked column; relabel from three samples on, block by block, at
        # other samples in each of three points tracked together
        rng = np.random.default_rng(64)
        eigs = []
        for theta, relabels in ((2.0, (5, 140, 141)), (0.7, (60, 61, 300)), (2.6, ())):
            times, w, v = open_eigs(OPEN, InitialStateSpec(theta0=theta), periods=2.0)
            for k in relabels:
                order = rng.permutation(w.shape[1])
                w[k:], v[k:] = w[k:, order], v[k:, :, order]
            eigs.append((times, w, v))
        times, w, v = (np.array(x) for x in zip(*eigs))
        whole = per_sample_track(times[0], w[0], v[0])
        assert not np.array_equal(whole[1], w[0, :, -1])
        for lengths in ((1, 7, 139, 500), None):
            assert not assert_tracks_like_loop(times, w, v, lengths)[2].failed
        assert_tracks_like_loop(times[:1], w[:1], v[:1], lengths=(1, 7, 139, 500))

    # of two orthonormal columns of one plane, one overlaps the previous
    # pick by at least 1/sqrt(2): the tracking-overlap failure cannot occur
    @pytest.mark.parametrize("failure,magnitudes", [
        ("ambiguity", (0.7071069, 0.0)),
        ("ambiguity", (0.7071066, 0.0)),  # the smaller column first
        ("ambiguity", (math.sqrt(0.5), 0.0))])  # a tie
    @pytest.mark.parametrize("k", [1, 37, 38, 120])
    def test_failure_raises_like_loop(self, failure, magnitudes, k):
        magnitudes = np.array(magnitudes)  # the last one normalizes them
        magnitudes[-1] = math.sqrt(1 - magnitudes[:-1] @ magnitudes[:-1])
        times, w, v = open_eigs(OPEN, InitialStateSpec(theta0=2.0))
        v = with_overlaps(v, k, magnitudes)
        with pytest.raises(TrackingError, match=f"{failure}.* at t={times[k]:g}"):
            per_sample_track(times, w, v)
        assert_tracks_like_loop(times[None], w[None], v[None], lengths=(37,))
        assert_tracks_like_loop(times[None], w[None], v[None], lengths=(1,))

    @pytest.mark.parametrize("k", [1, 37, 120])
    def test_failed_point_is_set_aside(self, k):
        # the middle one of three points tracked together fails at sample k;
        # the other two keep the bits of their own per-sample loops
        magnitudes = np.array(NEAR_TIE)
        eigs = [open_eigs(OPEN.with_rates(gamma, 0.0, 0.01), InitialStateSpec(theta0=2.0))
                for gamma in (0.1, 0.2, 0.3)]
        times, w, v = (np.array(x) for x in zip(*eigs))
        v[1] = with_overlaps(v[1], k, magnitudes)
        for lengths in ((37,), (1,), None):
            tracker = assert_tracks_like_loop(times, w, v, lengths)[2]
            assert list(tracker.failed) == [1]
            assert f"ambiguity at t={times[1, k]:g}" in str(tracker.failed[1])

    def test_impure_start_raises_like_loop(self):
        times, w, v = open_eigs(OPEN, InitialStateSpec(theta0=2.0))
        w = w.copy()
        w[0, -1] = 1.0 - 2 * PURITY_TOL
        assert_tracks_like_loop(times[None], w[None], v[None])
        assert_tracks_like_loop(times[None], w[None], v[None], lengths=(1,))

    def test_tracked_eigenvalue_decays(self):
        opened, period = open_trajectory(OPEN, perpendicular_state(OPEN, 1),
                                         periods=3.0)
        track = track_dominant_eigenvector(opened)
        assert track.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)
        assert track.eigenvalues[-1] < 0.7
        assert (np.diff(track.eigenvalues) < 1e-6).all()

    def test_requires_pure_start(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(SPACE.dim, SPACE.dim)) \
            + 1j * rng.normal(size=(SPACE.dim, SPACE.dim))
        # mixed, and block-diagonal in N (an open leg refuses any other start)
        n = np.diag(excitation_number(SPACE)).real
        rho0 = np.where(n[:, None] == n, x @ x.conj().T, 0.0)
        rho0 /= np.trace(rho0).real
        sa = sector_analytics(OPEN, 1)
        config = IntegratorConfig.for_periods(2 * math.pi / sa.rabi_frequency, 0.5, 2000, 4)
        traj = evolve_lindblad(lindblad_spec(OPEN, SPACE), rho0, config)
        with pytest.raises(TrackingError, match="not pure"):
            track_dominant_eigenvector(traj)


def six_call_fix(picked, prev):
    """The phase fix of each picked column as six ufunc calls per sample:
    conjugate, matmul (zdotu), arctan2, negative, exp and multiply."""
    b, n, dim = picked.shape
    vectors = np.empty((b, n, dim), dtype=complex)
    conj, ov = np.empty((b, 1, dim), dtype=complex), np.empty((b, 1, 1), dtype=complex)
    angle, (turn, fix) = np.empty((b, 1)), np.zeros((2, b, 1), dtype=complex)
    for k in range(n):
        vec = picked[:, k]
        np.conjugate(prev, out=conj[:, 0])
        np.matmul(conj, vec[:, :, None], out=ov)
        np.negative(np.arctan2(ov.imag[:, 0], ov.real[:, 0], out=angle), out=turn.imag)
        prev = np.multiply(vec, np.exp(turn, out=fix), out=vectors[:, k])
    return vectors


@pytest.mark.parametrize("kind", ["gp_delta", "gp_theta"])
def test_phase_fix_has_the_six_call_bits(kind, monkeypatch):
    # the start-sector eigenpairs of every open record of a default sweep
    # (gp_theta's θ = 0 keeps real columns, whose overlaps are exactly real),
    # tracked in one pass: the tracker's phase fix gives the bits of the
    # six-call recurrence over the same picked columns
    import kerrjc.experiments as ex
    real, fed = ex.sector_eigh, []
    monkeypatch.setattr(ex, "sector_eigh", lambda *a: fed.append(real(*a)) or fed[-1])
    run_sweep(default_spec(kind))
    w, v = (np.concatenate(x, axis=1) for x in zip(*fed))
    tracker = BranchTracker()
    _, vectors = tracker.extend(np.zeros(w.shape[:2]), w, v)
    assert not tracker.failed
    # the picked column of each sample is the one the tracked vector lies on
    along = np.abs(np.einsum("bkdc,bkd->bkc", v.conj(), vectors))
    picks = (along[..., 1] > along[..., 0]).astype(int)
    b, n = picks.shape
    picked = np.empty((b, n, v.shape[2], 2), dtype=complex)[..., 0]  # strided, as tracked
    picked[:] = v[np.arange(b)[:, None], np.arange(n), :, picks]
    assert same_bits(vectors, six_call_fix(picked, picked[:, 0].copy()))


def sector_trajectories(n0, draws, r):
    """Times and eigh's eigenpairs of synthetic density trajectories on the
    reached space of sector n0 (d = 2 n0 + 2), block-diagonal in N, one per
    (seed, crossing, pure) draw: the sector block U(t) diag(a, b) U(t)^dag
    under a random rotation, its eigenvalues crossing inside the sector if
    ``crossing``, a starts below one unless ``pure``, and the weight it
    loses moving into the lower blocks, whose eigenvalues pass a and b."""
    d, i = 2 * n0 + 2, 2 * n0 - 1
    t = np.linspace(0.0, 1.0, r)
    rhos = np.zeros((len(draws), r, d, d), dtype=complex)
    for p, (seed, crossing, pure) in enumerate(draws):
        rng = np.random.default_rng(seed)
        kept = 1.0 - rng.uniform(0.0, 0.6) * t
        first = 1.0 if pure else rng.uniform(0.6, 0.99)
        last = rng.uniform(0.05, 0.45) if crossing else rng.uniform(0.6, first)
        frac = first + (last - first) * t
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        angles, q = np.linalg.eigh((x + x.conj().T) / 2)
        u = (q[None] * np.exp(-1j * np.outer(t, angles))[:, None]) @ q.conj().T
        rhos[p, :, i:i + 2, i:i + 2] = (u * np.stack((kept * frac, kept * (1 - frac)),
                                                     axis=1)[:, None]) @ u.conj().transpose(0, 2, 1)
        shares = rng.dirichlet(np.ones(n0))  # |g,0> and the 2x2 blocks N < n0
        rhos[p, :, 0, 0] = shares[0] * (1 - kept)
        for n, share in enumerate(shares[1:], start=1):
            y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            shape = y @ y.conj().T
            rhos[p, :, 2 * n - 1:2 * n + 1, 2 * n - 1:2 * n + 1] = (
                share * (1 - kept)[:, None, None] * shape / np.trace(shape).real)
    return np.tile(t, (len(draws), 1)), *np.linalg.eigh(rhos)


def sector_columns(w, v, n0):
    """The two columns of eigh's (b, r, d) and (b, r, d, d) eigenpairs that lie
    on the block of sector n0; every other one is exactly zero there."""
    b, r, d = w.shape
    on = (v[:, :, 2 * n0 - 1:2 * n0 + 1] != 0).any(axis=2)
    assert (on.sum(axis=2) == 2).all()
    cols = np.flatnonzero(on).reshape(b, r, 2) % d
    return np.take_along_axis(w, cols, 2), np.take_along_axis(v, cols[:, :, None], 3)


SECTOR_DRAWS = dict(
    n0=st.integers(1, 3),
    draws=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.booleans(),
                             st.sampled_from([True, True, False])),
                   min_size=1, max_size=4),
    r=st.integers(20, 90),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=4))


class TestStartSectorColumns:
    """``BranchTracker`` fed only the start sector's two eigenpairs, as
    ``information.sector_eigh`` gives them, tracks as the per-sample loop
    does over all of eigh's."""

    @settings(max_examples=40, deadline=None)
    @given(**SECTOR_DRAWS)
    def test_same_track_as_every_column(self, n0, draws, r, lengths):
        times, w, v = sector_trajectories(n0, draws, r)
        tracker = assert_tracks_like_loop(times, w, v, lengths, sector_columns(w, v, n0))[2]
        assert set(tracker.failed) >= {p for p, (_, _, pure) in enumerate(draws)
                                       if not pure}

    @settings(max_examples=40, deadline=None)
    @given(**SECTOR_DRAWS)
    def test_floor_is_at_least_one_over_root_two(self, n0, draws, r, lengths):
        # of two orthonormal columns of one plane, one overlaps any unit
        # vector of that plane by at least 1/sqrt(2)
        times, w, v = sector_trajectories(n0, draws, r)
        tracker = fed_in_blocks(times, w, v, lengths, sector_columns(w, v, n0))[2]
        tracked = [p for p in range(len(draws)) if p not in tracker.failed]
        assert (tracker.floor[tracked] >= 1 / math.sqrt(2) - 1e-12).all()
        assert np.isnan(tracker.floor[list(tracker.failed)]).all()

    @pytest.mark.parametrize("m", [1, 3, 4])
    def test_extend_takes_two_columns(self, m):
        times, w, v = sector_trajectories(2, [(3, False, True)], 20)
        with pytest.raises(ValueError, match="two eigenpairs"):
            BranchTracker().extend(times, w[:, :, -m:], v[:, :, :, -m:])

    def test_crossing_inside_the_sector_is_followed(self):
        # the tracked eigenvalue starts as the sector's larger one and ends
        # as its smaller one: the pick moves from one column to the other
        times, w, v = sector_trajectories(2, [(5, True, True)], 60)
        sector = sector_columns(w, v, 2)
        got_w, _, tracker = fed_in_blocks(times, w, v, [7], sector)
        assert not tracker.failed
        assert got_w[0, 0] == sector[0][0, 0, 1] and got_w[0, -1] == sector[0][0, -1, 0]


class TestOpenPhases:
    def test_pure_phase_equals_unitary_on_same_samples(self):
        closed, period = closed_trajectory(RESONANT, InitialStateSpec(theta0=0.7))
        dens = density_record_from_pure(closed)
        track = track_dominant_eigenvector(dens)
        assert abs(phase_open_pure(track, period)
                   - phase_unitary(closed, period)) < 1e-10

    def test_general_reduces_to_pure_start(self):
        rng = np.random.default_rng(63)
        for _ in range(5):
            params = ModelParams(delta=rng.uniform(-2, 2), chi=rng.uniform(-1, 1),
                                 gamma=rng.uniform(0.02, 0.15),
                                 p=rng.uniform(0, 0.05), p_z=rng.uniform(0, 0.03))
            init = InitialStateSpec(theta0=rng.uniform(0, 2 * math.pi),
                                    phi0=rng.uniform(0, 2 * math.pi))
            traj, period = open_trajectory(params, init, periods=1.0, spp=1000)
            track = track_dominant_eigenvector(traj)
            a = phase_open_pure(track, period)
            b = phase_open_general(traj, period)
            assert abs(a - b) < 1e-10

    def test_stationary_mixture_zero_phase(self):
        # diagonal rho commuting with a coupling-free Hamiltonian stays put
        diag_h = np.diag(np.linspace(0.0, 1.2, SPACE.dim)).astype(complex)
        spec = LindbladSpec(hamiltonian=diag_h,
                            collapse_ops=((hilbert.sigma_z(SPACE), 0.05),))
        rho0 = np.zeros((SPACE.dim, SPACE.dim), dtype=complex)
        rho0[1, 1], rho0[2, 2] = 0.7, 0.3
        config = IntegratorConfig(dt=0.01, t_final=2.0, record_stride=10)
        traj = evolve_lindblad(spec, rho0, config)
        assert abs(phase_open_general(traj, 2.0)) < 1e-12

    def test_maximally_mixed_zero_phase(self):
        spec = LindbladSpec(hamiltonian=np.zeros((SPACE.dim, SPACE.dim), complex))
        rho0 = np.eye(SPACE.dim, dtype=complex) / SPACE.dim
        config = IntegratorConfig(dt=0.01, t_final=1.0, record_stride=10)
        traj = evolve_lindblad(spec, rho0, config)
        assert abs(phase_open_general(traj, 1.0)) < 1e-12

    def test_general_needs_density_record(self):
        closed, period = closed_trajectory(RESONANT, InitialStateSpec(theta0=0.7))
        with pytest.raises(ValueError):
            phase_open_general(closed, period)


def gp_theta_rows(open_params, thetas, m):
    """Rows (param, m, tau, phi_u, phi_g, delta_phi_wrapped, delta_phi_raw,
    omega_plus, valid) of a gp_theta sweep over ``thetas`` with one checkpoint
    m, at the model and the open leg's rates of ``open_params``."""
    spec = default_spec("gp_theta", grid=tuple(thetas), m_values=(m,), base_params=open_params)
    return run_sweep(spec).rows


class TestDeltaPhi:
    """The closed/open phase difference of single points, from gp_theta sweeps."""

    def test_zero_rates_zero_difference(self):
        geo, res = gp_theta_rows(RESONANT, (0.0, 0.8), m=1)
        assert abs(res[6]) < 1e-9
        assert abs(geo[5]) < 1e-9
        assert res[7] == pytest.approx(1.0, abs=1e-9)

    def test_closed_limit_small_rates(self):
        tiny = RESONANT.with_rates(1e-6, 0.0, 1e-6)
        res, = gp_theta_rows(tiny, (0.8,), m=1)
        assert abs(res[6]) < 1e-4

    def test_geodesic_protected(self):
        res, = gp_theta_rows(OPEN, (0.0,), m=1)
        assert abs(res[5]) < 0.01
        assert abs(res[3] - math.pi) < 1e-8

    def test_far_from_geodesic_above_tolerance(self):
        res, = gp_theta_rows(OPEN, (math.pi / 4,), m=3)
        assert abs(res[5]) > 0.01

    def test_mirror_antisymmetry(self):
        rows = gp_theta_rows(OPEN, (0.7, 2.2, 2 * math.pi - 2.2, 2 * math.pi - 0.7), m=1)
        for a, b in zip(rows, rows[::-1]):
            assert abs(a[6] + b[6]) < 1e-9

    def test_result_consistency(self):
        res, = gp_theta_rows(OPEN, (0.5,), m=2)
        assert res[6] == pytest.approx(res[4] - res[3], abs=1e-12)
        sa = sector_analytics(OPEN, 1)
        assert res[2] == pytest.approx(2 * 2 * math.pi / sa.rabi_frequency)
        assert res[1] == 2 and res[8] == "ok"
        with pytest.raises(ValueError):
            gp_theta_rows(OPEN, (0.5,), m=0)


def fed_chains(spec, monkeypatch):
    """A sweep's result and the states that each of its ``PhaseChain``s was
    fed, whole: (b, n, d) per chain, in the order the chains were made."""
    real, fed = PhaseChain.extend, {}

    def extend(self, states, *per_sample):
        fed.setdefault(self, []).append(np.array(states))
        real(self, states, *per_sample)

    monkeypatch.setattr(PhaseChain, "extend", extend)
    result = run_sweep(spec)
    return result, [np.concatenate(blocks, axis=1) for blocks in fed.values()]


class TestSolidAngles:
    """The sweeps' phases against an oracle that shares no code with the
    phase chain: -1/2 the solid angle of the states' sector-1 Bloch path."""

    @pytest.mark.parametrize("kind", ["gp_delta", "gp_theta"])
    def test_phases_are_half_solid_angles(self, kind, monkeypatch):
        bound = 1e-12  # ROADMAP fact 6 measured at most 3.4e-13
        spec = default_spec(kind)
        result, chains = fed_chains(spec, monkeypatch)
        # the closed legs of every point feed one chain, then each chunk of
        # open legs its own: both in grid order
        closed, opened = chains[0], np.concatenate(chains[1:])
        axes = np.array([sector_analytics(params, 1).axis
                         for _, params, _ in KINDS[kind].points(spec)])
        checkpoints = [m * spec.steps_per_period // spec.record_stride
                       for m in spec.m_values]
        half_u, half_g = (solid_angle_phases(states, axes, checkpoints)  # -Omega/2
                          for states in (closed, opened))
        rows = result.rows
        assert {row[8] for row in rows} <= {"ok", "degraded"}
        phi_u, phi_g, delta_phi = np.array([row[3:6] for row in rows]).reshape(
            len(spec.grid), len(spec.m_values), 3).transpose(2, 0, 1)

        def wrapped(x):
            return np.abs(x - 2 * math.pi * np.round(x / (2 * math.pi))).max()

        assert wrapped(phi_u - half_u) <= bound
        assert wrapped(phi_g - half_g) <= bound
        assert wrapped(delta_phi - (half_g - half_u)) <= bound
