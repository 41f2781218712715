"""Legs advanced in lockstep equal lone trajectories bit for bit: closed legs
against the one-trajectory step loop, open legs against each state run
alone.  A closed leg records the width of its initial states; one that its
couplings can take out of that width is refused before its first step.
The stacked set-up of many points (H, RK4 steps, Liouvillians, hops) has
the bits of each point's own build."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrjc import experiments, hilbert
from kerrjc.dynamics import (
    BLOCK_ENTRIES,
    IntegratorConfig,
    LindbladSpec,
    closed_blocks,
    evolve_closed,
    evolve_lindblad,
    lindblad_blocks,
    liouvillian,
    rk4_hop,
    rk4_step_matrix,
)
from kerrjc.experiments import default_spec, leg_grid, leg_setup, run_sweep
from kerrjc.hilbert import SpaceSpec, reached_space
from kerrjc.information import sector_eigh
from kerrjc.model import (
    InitialStateSpec,
    ModelParams,
    collapse_operators,
    hamiltonian,
    initial_state,
    perpendicular_state,
    sector_analytics,
)
from oracles import blocks_of, lindblad_spec

SPACE = SpaceSpec(4)
RESONANT = ModelParams(delta=0.5, chi=0.5)


def scalar_closed(h, psi0, config):
    """The loop of one closed leg: one matrix-vector step and one norm per step."""
    psi = np.asarray(psi0, dtype=complex).copy()
    psi /= np.linalg.norm(psi)
    step = rk4_step_matrix(-1j * np.asarray(h, dtype=complex), config.dt)
    n_rec = config.n_steps // config.record_stride + 1
    states = np.empty((n_rec, psi.size), dtype=complex)
    states[0] = psi
    max_drift = 0.0
    rec = 1
    for k in range(1, config.n_steps + 1):
        psi = step.dot(psi)
        norm = math.sqrt(np.vdot(psi, psi).real)
        max_drift = max(max_drift, abs(norm - 1.0))
        psi /= norm
        if k % config.record_stride == 0:
            states[rec] = psi
            rec += 1
    return states, max_drift


def legs(kind, values, steps_per_period=60, stride=4, periods=1.0):
    """H, psi0 and config of δ points (perpendicular states) or θ points."""
    hs, psi0s, configs = [], [], []
    for v in values:
        if kind == "delta":
            params = ModelParams(delta=v, chi=0.5)
            init = perpendicular_state(params, 1)
        else:
            params, init = RESONANT, InitialStateSpec(theta0=v)
        period = 2 * math.pi / sector_analytics(params, 1).rabi_frequency
        hs.append(hamiltonian([params], SPACE)[0])
        psi0s.append(initial_state(init, SPACE))
        configs.append(IntegratorConfig.for_periods(period, periods, steps_per_period,
                                                    stride))
    return hs, psi0s, configs


def steps_of(hs, configs):
    """Each leg's RK4 step matrix, built alone, as ``closed_blocks`` takes them."""
    return np.array([rk4_step_matrix(-1j * h, c.dt) for h, c in zip(hs, configs)])


def assert_lockstep_is_scalar(hs, psi0s, configs, block_records=None):
    # the open legs of the same H and grids: both engines record on one loop
    hops = hops_of([LindbladSpec(h) for h in hs], configs)
    rho0s = np.array([np.outer(psi0, np.conj(psi0)) for psi0 in psi0s])
    with blocks_of(block_records, len(psi0s), SPACE.dim):
        blocks = list(closed_blocks(steps_of(hs, configs), psi0s, configs))
        open_times = np.concatenate([t for t, _ in lindblad_blocks(hops, rho0s, configs)],
                                    axis=1)
    states = np.concatenate([s for _, s, _ in blocks], axis=1)
    times = np.concatenate([t for t, _, _ in blocks], axis=1)
    drift = blocks[-1][2]
    for j, (h, psi0, config) in enumerate(zip(hs, psi0s, configs)):
        want, want_drift = scalar_closed(h, psi0, config)
        assert np.array_equal(states[j], want)
        assert drift[j] == want_drift
        for got in (times[j], open_times[j]):
            assert np.array_equal(got, np.arange(len(want)) * (config.dt * config.record_stride))


def test_lockstep_equals_scalar_loop():
    # four δ points: different H and different dt in one batch
    hs, psi0s, configs = legs("delta", (-3.0, -0.4, 0.5, 2.5), steps_per_period=400)
    assert len({c.dt for c in configs}) == 4
    assert_lockstep_is_scalar(hs, psi0s, configs)


def test_evolve_closed_is_one_point_of_the_batch():
    hs, psi0s, configs = legs("delta", (-1.0, 0.5, 3.0))
    blocks = list(closed_blocks(steps_of(hs, configs), psi0s, configs))
    states = np.concatenate([s for _, s, _ in blocks], axis=1)
    for j in range(3):
        alone = evolve_closed(hs[j], psi0s[j], configs[j])
        assert np.array_equal(alone.states, states[j])
        assert alone.max_norm_drift == blocks[-1][2][j]


def test_block_bound_counts_d_squared():
    hs, psi0s, configs = legs("theta", (0.0, 1.0, 2.0), steps_per_period=4000)
    times, states, _ = next(closed_blocks(steps_of(hs, configs), psi0s, configs))
    b, r, d = states.shape
    assert times.shape == (b, r)
    assert r == BLOCK_ENTRIES // (b * d * d) < configs[0].n_steps // 4


def test_rejects_mismatched_step_counts():
    hs, psi0s, configs = legs("delta", (-1.0, 1.0))
    configs[1] = IntegratorConfig.for_periods(1.0, 2.0, 60, 4)
    with pytest.raises(ValueError, match="step count"):
        next(closed_blocks(steps_of(hs, configs), psi0s, configs))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["delta", "theta"]),
       values=st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=6),
       stride=st.integers(1, 4),
       block_records=st.one_of(st.none(), st.integers(1, 40)))
def test_lockstep_equals_scalar_loop_property(kind, values, stride, block_records):
    if kind == "theta":
        values = [abs(v) * math.pi / 4 for v in values]
    assert_lockstep_is_scalar(*legs(kind, values, stride=stride),
                              block_records=block_records)


def open_legs(deltas, thetas, steps_per_period=60, stride=4, periods=1.0):
    """One open leg per (δ, θ) pair, δ-major: its Lindbladian, initial
    density matrix and integrator grid."""
    specs, rho0s, configs = [], [], []
    for delta in deltas:
        params = ModelParams(delta=delta, chi=0.5, gamma=0.1, p_z=0.01)
        period = 2 * math.pi / sector_analytics(params, 1).rabi_frequency
        spec = lindblad_spec(params, SPACE)
        config = IntegratorConfig.for_periods(period, periods, steps_per_period, stride)
        for theta in thetas:
            psi = initial_state(InitialStateSpec(theta0=theta), SPACE)
            specs.append(spec)
            rho0s.append(np.outer(psi, psi.conj()))
            configs.append(config)
    return specs, np.array(rho0s), configs


def hops_of(specs, configs):
    """Each leg's RK4 hop, built alone, as ``lindblad_blocks`` takes them."""
    return np.array([rk4_hop(s, c.dt, c.record_stride) for s, c in zip(specs, configs)])


def joined(blocks):
    """(times, states, eigenvalues, eigenvectors) of all blocks, joined: the
    start-sector eigenpairs of each block, as the sweeps' reducers take them."""
    return [np.concatenate(x, axis=1)
            for x in zip(*((t, s, *sector_eigh(s, 1)) for t, s in blocks))]


@pytest.mark.parametrize("thetas", [(0.0,), (0.0, 1.2, 2.5)])
def test_open_lockstep_equals_each_generator_alone(thetas):
    # three δ with their own dt, each from every θ, in blocks of 7: legs
    # that share a Lindbladian keep the bits of each one run alone
    specs, rho0s, configs = open_legs((-2.0, 0.3, 1.5), thetas)
    b = len(specs)
    with blocks_of(7, b, SPACE.dim):
        together = joined(lindblad_blocks(hops_of(specs, configs), rho0s, configs))
    for i in range(b):
        one = slice(i, i + 1)
        alone = joined(lindblad_blocks(hops_of(specs[one], configs[one]), rho0s[one],
                                       configs[one]))
        for got, want in zip(together, alone):
            assert np.array_equal(got[i:i + 1], want)
        record = evolve_lindblad(specs[i], rho0s[i], configs[i])
        assert np.array_equal(record.states, together[1][i])
        assert np.array_equal(record.times, together[0][i])


def test_open_lockstep_rejects_mismatched_step_counts():
    specs, rho0s, configs = open_legs((-1.0, 1.0), (0.0,))
    configs[1] = IntegratorConfig.for_periods(1.0, 2.0, 60, 4)
    with pytest.raises(ValueError, match="step count"):
        next(lindblad_blocks(hops_of(specs, configs), rho0s, configs))


def test_open_lockstep_rejects_a_state_axis_per_generator():
    # one spec and one config per state: a (g, c, d, d) stack is refused
    specs, rho0s, configs = open_legs((-1.0,), (0.0, 1.2))
    with pytest.raises(ValueError, match="dimensions disagree"):
        next(lindblad_blocks(hops_of(specs[:1], configs), rho0s[None], configs[:1]))


def sector_legs(kind, values, space, n0, steps_per_period=60):
    """H, psi0 and config of δ points (perpendicular states) or θ points
    that start in sector ``n0`` of ``space``."""
    hs, psi0s, configs = [], [], []
    for v in values:
        if kind == "delta":
            params = ModelParams(delta=v, chi=0.5)
            init = perpendicular_state(params, n0)
        else:
            params, init = RESONANT, InitialStateSpec(theta0=v, n=n0)
        period = 2 * math.pi / sector_analytics(params, n0).rabi_frequency
        hs.append(hamiltonian([params], space)[0])
        psi0s.append(initial_state(init, space))
        configs.append(IntegratorConfig.for_periods(period, 1.0, steps_per_period, 4))
    return hs, psi0s, configs


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["delta", "theta"]),
       values=st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=5),
       n_max=st.integers(1, 10), n0=st.integers(1, 4),
       block_records=st.sampled_from([1, 7, 100]))
def test_recorded_width_is_the_leading_components(kind, values, n_max, n0, block_records):
    # a leg from sector n0 stays on Fock levels 0..n0: started from its
    # state on those levels, under the same H, its records are the first
    # 2 (n0 + 1) components of the full-space state's run, bit for bit
    n0 = min(n0, n_max)
    if kind == "theta":
        values = [abs(v) * math.pi / 4 for v in values]
    hs, psi0s, configs = sector_legs(kind, values, SpaceSpec(n_max), n0)
    reached = sector_legs(kind, values, SpaceSpec(n0), n0)[1]
    width = 2 * (n0 + 1)
    with blocks_of(block_records, len(values), SpaceSpec(n_max).dim):
        full = list(closed_blocks(steps_of(hs, configs), psi0s, configs))
    kept = []
    with blocks_of(block_records, len(values), width):
        for block in (blocks := closed_blocks(steps_of(hs, configs), reached, configs)):
            kept.append(block)
            # the rows from width on of both step buffers are never written
            # nor divided: they stay +0.0, so the full-length norms add +0.0
            for name in ("col", "nxt"):
                rest = blocks.gi_frame.f_locals[name][:, width:]
                assert not rest.any()
                assert not (np.signbit(rest.real).any() or np.signbit(rest.imag).any())
    assert len(kept) == len(full)
    for (t, s, drift), (t_full, s_full, drift_full) in zip(kept, full):
        assert s.shape == s_full.shape[:2] + (width,)
        assert np.array_equal(s, s_full[:, :, :width])
        assert np.array_equal(t, t_full) and np.array_equal(drift, drift_full)


def leading(psi0s, width):
    """The first ``width`` components of each state: a shorter recorded width."""
    return [psi0[:width] for psi0 in psi0s]


def test_state_longer_than_h_raises():
    # an initial state has at most H's dimension of components
    hs, psi0s, configs = sector_legs("theta", (0.3, 1.1), SPACE, 1)
    longer = [np.append(psi0, 0.0) for psi0 in psi0s]
    with pytest.raises(ValueError, match="dimensions disagree"):
        next(closed_blocks(steps_of(hs, configs), longer, configs))


def test_leaving_the_recorded_width_raises():
    # a coupling between |g,1> (kept) and |g,2> (dropped) moves weight out
    # of the first four components, which the reachability check sees
    hs, psi0s, configs = sector_legs("theta", (0.3, 1.1), SPACE, 1)
    hs[1] = hs[1].copy()
    hs[1][2, 4] = hs[1][4, 2] = 0.1
    with pytest.raises(ValueError, match="left the first 4 basis states"), \
            blocks_of(7, 2, 4):
        next(closed_blocks(steps_of(hs, configs), leading(psi0s, 4), configs))
    # the same legs, recorded at full width, run
    with blocks_of(7, 2, SPACE.dim):
        assert len(list(closed_blocks(steps_of(hs, configs), psi0s, configs))) > 1


def coupled_legs(*links):
    """Two θ legs from sector 1 of SPACE, the second with extra couplings
    between the given pairs of basis states (|g,n> is 2n, |e,n> is 2n + 1)."""
    hs, psi0s, configs = sector_legs("theta", (0.3, 1.1), SPACE, 1)
    hs[1] = hs[1].copy()
    for i, j in links:
        hs[1][i, j] = hs[1][j, i] = 0.1
    return hs, psi0s, configs


# |g,1> -> |g,2> -> |g,3>, two hops of H; and |g,1> -> |g,0> -> |g,2> ->
# |e,1> -> |e,2> -> |g,3>, five hops, more than one RK4 step spans
LINKS_OUT_OF_WIDTH_6 = [((2, 4), (4, 6)), ((0, 2), (0, 4), (3, 5))]


@pytest.mark.parametrize("links", LINKS_OUT_OF_WIDTH_6)
def test_reaching_out_of_the_width_raises_before_the_first_record(links):
    # with one record per block, the first block holds only the initial
    # states: the refusal comes from the closure of their support under the
    # steps' nonzero pattern, not from the states
    hs, psi0s, configs = coupled_legs(*links)
    with pytest.raises(ValueError, match="left the first 6 basis states"), \
            blocks_of(1, 2, 6):
        next(closed_blocks(steps_of(hs, configs), leading(psi0s, 6), configs))
    with blocks_of(7, 2, SPACE.dim):
        assert len(list(closed_blocks(steps_of(hs, configs), psi0s, configs))) > 1


def test_five_hops_are_beyond_one_step():
    # the second case of LINKS_OUT_OF_WIDTH_6 needs the closure: no single
    # step matrix links the start sector {|e,0>, |g,1>} to |g,3>
    hs, _, configs = coupled_legs(*LINKS_OUT_OF_WIDTH_6[1])
    step = rk4_step_matrix(-1j * hs[1], configs[1].dt)
    assert not step[6:, 1:3].any() and step[4:6, 1:3].any()


def test_no_step_runs_before_the_check_raises(monkeypatch):
    products = []
    matmul = np.matmul

    def spy(*args, **kwargs):
        products.append(args[0].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    hs, psi0s, configs = coupled_legs(*LINKS_OUT_OF_WIDTH_6[0])
    with pytest.raises(ValueError, match="left the first 6 basis states"):
        next(closed_blocks(steps_of(hs, configs), leading(psi0s, 6), configs))
    assert products == []
    # the spy sees the steps of legs that may run: the first block holds steps
    next(closed_blocks(steps_of(hs, configs), psi0s, configs))
    assert products


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def one_point_builds(params, dt, stride, space, reached):
    """H, closed RK4 step, Liouvillian and hop of one point, each a lone 2-D
    build from Python scalars, as the set-up was built point by point."""
    nop, a = hilbert.number_op(space), hilbert.annihilation(space)
    sp, sm = hilbert.sigma_plus(space), hilbert.sigma_minus(space)
    h = (params.delta / 2) * hilbert.sigma_z(space) + params.chi * (nop @ nop) \
        + params.g * (sp @ a + sm @ a.conj().T)
    d = reached.dim
    sup = liouvillian(LindbladSpec(h[:d, :d], collapse_operators(params, reached)))
    with np.errstate(over="ignore", invalid="ignore"):
        hop = np.linalg.matrix_power(rk4_step_matrix(sup, dt), stride)
    return h, rk4_step_matrix(-1j * h, dt), sup, hop


def assert_stack_is_each_point(params, configs, space, n0=1):
    """Every element of the stacked builds has the bits of its point built alone."""
    reached = reached_space(n0, space)
    h = hamiltonian(params, space)
    d = reached.dim
    sups = liouvillian(LindbladSpec(h[:, :d, :d], collapse_operators(params[0], reached)))
    steps, hops = leg_setup(params, configs, n0, space)
    assert h.shape == (len(params), space.dim, space.dim) and hops.shape == sups.shape
    for i, (p, c) in enumerate(zip(params, configs)):
        alone = one_point_builds(p, c.dt, c.record_stride, space, reached)
        for stacked, want in zip((h[i], steps[i], sups[i], hops[i]), alone):
            assert same_bits(stacked, want)


class TestStackedSetup:
    def test_default_gp_delta_grid(self):
        spec = default_spec("gp_delta")
        params = [replace(spec.base_params, delta=delta) for delta in spec.grid]
        configs = [leg_grid(p, 1, 3.0, spec.steps_per_period, spec.record_stride)[1]
                   for p in params]
        assert len({c.dt for c in configs}) > 1
        assert_stack_is_each_point(params, configs, spec.space)

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-2.0, 2.0),
                                     st.floats(0.1, 3.0), st.floats(1e-3, 0.5)),
                           min_size=1, max_size=5),
           rates=st.tuples(*[st.floats(0.0, 1.0)] * 3), stride=st.integers(1, 5),
           n_max=st.integers(2, 4), n0=st.integers(1, 3))
    def test_stack_equals_each_point_property(self, points, rates, stride, n_max, n0):
        # any (δ, χ, g, dt) per point at one set of rates, from any sector
        # below n_max: the stacked builds (one call each) are the lone builds
        n0 = min(n0, n_max - 1)
        params = [ModelParams(delta, chi, g).with_rates(*rates) for delta, chi, g, _ in points]
        configs = [IntegratorConfig(dt=dt, n_steps=stride, record_stride=stride)
                   for *_, dt in points]
        assert_stack_is_each_point(params, configs, SpaceSpec(n_max), n0)

    def test_a_single_point_is_a_stack_of_one(self):
        assert same_bits(hamiltonian([RESONANT], SPACE)[0],
                         one_point_builds(RESONANT, 0.01, 1, SPACE, SpaceSpec(1))[0])

    def test_default_gp_theta_builds_one_hop(self, monkeypatch):
        # the 64 points of the default gp_theta share their model parameters:
        # one Liouvillian, one hop and one closed step are built, not 64
        import kerrjc.dynamics as dyn
        built = {"liouvillian": [], "rk4_hop": [], "rk4_step_matrix": []}

        def spy(module, name):
            real = getattr(module, name)

            def spied(*args):
                out = real(*args)
                built[name].append(out.shape)
                return out
            monkeypatch.setattr(module, name, spied)
        spy(dyn, "liouvillian")
        spy(experiments, "rk4_hop")
        spy(experiments, "rk4_step_matrix")
        rows = run_sweep(default_spec("gp_theta")).rows
        assert len(rows) == 64 * 3
        assert built == {"liouvillian": [(1, 16, 16)], "rk4_hop": [(1, 16, 16)],
                         "rk4_step_matrix": [(1, 10, 10)]}
