import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kerrjc import dynamics, experiments, hilbert, information
from kerrjc.dynamics import (
    IntegratorConfig,
    LindbladSpec,
    NORM_DRIFT_TOL,
    PositivityError,
    StepOverflowError,
    evolve_closed,
    evolve_lindblad,
    lindblad_blocks,
    liouvillian,
    rk4_hop,
    rk4_step_matrix,
)
from kerrjc.experiments import (
    MAX_STEPS,
    SweepSpec,
    default_spec,
    run_sweep,
    write_trajectory_csv,
)
from kerrjc.hilbert import SpaceSpec, TruncationError
from kerrjc.model import (
    InitialStateSpec,
    ModelParams,
    hamiltonian,
    initial_state,
    sector_analytics,
)
from oracles import (
    LOWEX_DIM,
    LOWEX_PATTERN,
    basis_state,
    blocks_of,
    check_density_dense,
    dissipator,
    dressed_states,
    excitation_number,
    grid_index,
    lindblad_rhs,
    lindblad_spec,
    lowex_rhs,
    resonant_state,
)

SPACE = SpaceSpec(4)
RESONANT = ModelParams(delta=0.5, chi=0.5)
OPEN = ModelParams(delta=0.5, chi=0.5, gamma=0.1, p_z=0.01)


def random_lowex_rho(rng):
    """Random PSD unit-trace matrix supported on the printed pattern."""

    def psd2():
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return x @ x.conj().T

    m = np.zeros((LOWEX_DIM, LOWEX_DIM), dtype=complex)
    m[0, 0] = rng.uniform(0.1, 1.0)
    m[1:3, 1:3] = psd2()
    m[3:5, 3:5] = psd2()
    return m / np.trace(m).real


def embed_lowex(block, space):
    full = np.zeros((space.dim, space.dim), dtype=complex)
    full[:LOWEX_DIM, :LOWEX_DIM] = block
    return full


def resonant_config(periods=3.0, steps_per_period=2000, stride=4):
    sa = sector_analytics(RESONANT, 1)
    return IntegratorConfig.for_periods(2 * math.pi / sa.rabi_frequency, periods,
                                        steps_per_period, stride)


class TestDissipator:
    def test_vacuum_dark_to_photon_loss(self):
        g0 = basis_state("g", 0, SPACE)
        rho = np.outer(g0, g0.conj())
        assert np.abs(dissipator(hilbert.annihilation(SPACE), rho)).max() == 0.0

    def test_dephasing_leaves_populations(self):
        rng = np.random.default_rng(31)
        rho = np.diag(rng.random(SPACE.dim)).astype(complex)
        rho /= np.trace(rho).real
        out = dissipator(hilbert.sigma_z(SPACE), rho)
        assert np.abs(out).max() < 1e-15

    def test_trace_free(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            x = rng.normal(size=(SPACE.dim, SPACE.dim)) \
                + 1j * rng.normal(size=(SPACE.dim, SPACE.dim))
            rho = x @ x.conj().T
            rho /= np.trace(rho).real
            op = rng.normal(size=(SPACE.dim, SPACE.dim)) \
                + 1j * rng.normal(size=(SPACE.dim, SPACE.dim))
            assert abs(np.trace(dissipator(op, rho))) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dissipator(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


class TestRhs:
    def test_zero_rates_is_von_neumann(self):
        rng = np.random.default_rng(33)
        h = hamiltonian([RESONANT], SPACE)[0]
        spec = LindbladSpec(hamiltonian=h)
        x = rng.normal(size=(SPACE.dim, SPACE.dim)) \
            + 1j * rng.normal(size=(SPACE.dim, SPACE.dim))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        assert np.allclose(lindblad_rhs(spec, rho), -1j * (h @ rho - rho @ h))

    def test_pure_loss_flows_down_the_ladder(self):
        g1 = basis_state("g", 1, SPACE)
        rho = np.outer(g1, g1.conj())
        spec = LindbladSpec(hamiltonian=np.zeros((SPACE.dim, SPACE.dim), complex),
                            collapse_ops=((hilbert.annihilation(SPACE), 0.2),))
        out = lindblad_rhs(spec, rho)
        assert out[0, 0].real > 0      # |g0> gains
        assert out[2, 2].real < 0      # |g1> loses

    def test_matches_lowex_oracle_on_pattern(self):
        rng = np.random.default_rng(34)
        params = ModelParams(delta=0.7, chi=0.3, gamma=0.13, p=0.07, p_z=0.02)
        spec = lindblad_spec(params, SPACE)
        for _ in range(25):
            block = random_lowex_rho(rng)
            full = embed_lowex(block, SPACE)
            generic = lindblad_rhs(spec, full)
            oracle = lowex_rhs(params, block)
            assert np.abs(generic[:LOWEX_DIM, :LOWEX_DIM] - oracle).max() < 1e-12
            outside = generic.copy()
            outside[:LOWEX_DIM, :LOWEX_DIM] = 0.0
            assert np.abs(outside).max() < 1e-14

    def test_lowex_rejects_off_pattern_support(self):
        rho = np.zeros((LOWEX_DIM, LOWEX_DIM), dtype=complex)
        rho[0, 0] = 0.5
        rho[0, 2] = rho[2, 0] = 0.3   # ground-state coherence, not in the pattern
        rho[2, 2] = 0.5
        with pytest.raises(ValueError):
            lowex_rhs(ModelParams(delta=0.5, chi=0.5), rho)

    def test_lowex_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            lowex_rhs(ModelParams(delta=0.5, chi=0.5), np.eye(4, dtype=complex))

    def test_liouvillian_matches_rhs(self):
        rng = np.random.default_rng(35)
        spec = lindblad_spec(OPEN, SPACE)
        sup = liouvillian(spec)
        for _ in range(5):
            x = rng.normal(size=(SPACE.dim, SPACE.dim)) \
                + 1j * rng.normal(size=(SPACE.dim, SPACE.dim))
            rho = x @ x.conj().T
            rho /= np.trace(rho).real
            direct = lindblad_rhs(spec, rho)
            via_sup = (sup @ rho.reshape(-1)).reshape(SPACE.dim, SPACE.dim)
            assert np.abs(direct - via_sup).max() < 1e-13

    def test_step_matrix_equals_staged_rk4(self):
        spec = lindblad_spec(OPEN, SPACE)
        rng = np.random.default_rng(36)
        x = rng.normal(size=(SPACE.dim, SPACE.dim)) \
            + 1j * rng.normal(size=(SPACE.dim, SPACE.dim))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        dt = 1e-3
        k1 = lindblad_rhs(spec, rho)
        k2 = lindblad_rhs(spec, rho + dt / 2 * k1)
        k3 = lindblad_rhs(spec, rho + dt / 2 * k2)
        k4 = lindblad_rhs(spec, rho + dt * k3)
        staged = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        step = rk4_step_matrix(liouvillian(spec), dt)
        via_matrix = (step @ rho.reshape(-1)).reshape(SPACE.dim, SPACE.dim)
        assert np.abs(staged - via_matrix).max() < 1e-13


class TestRK4Order:
    @pytest.mark.parametrize("open_params", [None, SweepSpec.base_params],
                             ids=["hamiltonian", "liouvillian"])
    def test_one_step_error_falls_as_dt_to_the_fifth(self, open_params):
        # RK4 is exact to fourth order, so its one-step error against the
        # exact propagator is O(dt^5): halving dt divides it by about 32
        pytest.importorskip("scipy")
        from scipy.linalg import expm
        if open_params is None:
            generator = -1j * hamiltonian([RESONANT], SPACE)[0]
        else:
            generator = liouvillian(lindblad_spec(open_params, SPACE))
        errors = [np.abs(rk4_step_matrix(generator, dt) - expm(generator * dt)).max()
                  for dt in (0.04, 0.02, 0.01, 0.005)]
        ratios = np.array(errors[:-1]) / errors[1:]
        assert np.abs(ratios / 32 - 1).max() < 0.01


class TestEvolveClosed:
    def test_matches_resonant_closed_form(self):
        config = resonant_config()
        psi0 = resonant_state(RESONANT, 1, 0.0, SPACE)
        traj = evolve_closed(hamiltonian([RESONANT], SPACE)[0], psi0, config)
        worst = max(
            np.abs(traj.states[k] - resonant_state(RESONANT, 1, t, SPACE)).max()
            for k, t in enumerate(traj.times))
        assert worst < 1e-8
        assert traj.max_norm_drift < NORM_DRIFT_TOL

    def test_eigenstate_stationary_up_to_phase(self):
        params = ModelParams(delta=0.8, chi=0.2)
        plus, _ = dressed_states(params, 1)
        sa = sector_analytics(params, 1)
        psi0 = np.zeros(SPACE.dim, dtype=complex)
        i_e, i_g = hilbert.sector_indices(1, SPACE)
        psi0[i_e], psi0[i_g] = plus
        config = IntegratorConfig.for_periods(2 * math.pi / sa.rabi_frequency, 2.0, 2000, 4)
        traj = evolve_closed(hamiltonian([params], SPACE)[0], psi0, config)
        for k, t in enumerate(traj.times):
            expected = np.exp(-1j * sa.e_plus * t) * psi0
            assert np.abs(traj.states[k] - expected).max() < 1e-9

    def test_excitation_expectation_constant(self):
        config = resonant_config(periods=2.0)
        psi0 = initial_state(InitialStateSpec(theta0=0.9, phi0=0.4), SPACE)
        traj = evolve_closed(hamiltonian([RESONANT], SPACE)[0], psi0, config)
        nexc = excitation_number(SPACE)
        vals = np.einsum("ki,ij,kj->k", traj.states.conj(), nexc, traj.states).real
        assert np.abs(vals - vals[0]).max() < 1e-10

    def test_requires_normalized_input(self):
        with pytest.raises(ValueError):
            evolve_closed(hamiltonian([RESONANT], SPACE)[0],
                          2.0 * basis_state("g", 1, SPACE), resonant_config())

    def test_non_finite_step_refused_before_stepping(self, monkeypatch):
        # dt = 1e150 overflows the RK4 polynomial: the step holds infs and
        # NaNs, which _reached would read as links
        monkeypatch.setattr(dynamics, "_reached", mock.Mock(side_effect=AssertionError))
        config = IntegratorConfig(dt=1e150, t_final=4e150, record_stride=1)
        with pytest.raises(PositivityError, match="RK4 step is not finite"):
            evolve_closed(hamiltonian([RESONANT], SPACE)[0], basis_state("e", 0, SPACE), config)

    def test_norm_overflow_refused_before_yielding(self):
        # dt = 1e57 leaves the step finite (entries near 1e228), but the first
        # step's norm overflows: the block is refused, not yielded as NaNs
        config = IntegratorConfig(dt=1e57, t_final=4e57, record_stride=1)
        step = rk4_step_matrix(-1j * hamiltonian([RESONANT], SPACE), config.dt)
        blocks = dynamics.closed_blocks(step, [basis_state("e", 0, SPACE)], [config])
        with pytest.raises(StepOverflowError, match="norm overflowed"):
            next(blocks)

    def test_truncation_guard(self):
        # a leg from sector n reaches Fock level n (|g,n>), so the truncation
        # must keep a level above it; the check needs no integration
        for n in (1, 2, 3):
            assert hilbert.reached_space(n, SpaceSpec(n + 1)) == SpaceSpec(n)
            assert hilbert.reached_space(n, SpaceSpec(10)) == SpaceSpec(n)
            for n_max in range(1, n + 1):
                with pytest.raises(TruncationError, match="space.n_max"):
                    hilbert.reached_space(n, SpaceSpec(n_max))


class TestEvolveLindblad:
    def test_relaxes_to_ground_state(self):
        # all rates positive, resonant params, t = 50/gamma
        params = ModelParams(delta=0.5, chi=0.5, gamma=0.1, p=0.05, p_z=0.01)
        sa = sector_analytics(params, 1)
        period = 2 * math.pi / sa.rabi_frequency
        dt = period / 500
        n_steps = int(round(50.0 / params.gamma / dt))
        n_steps += (-n_steps) % 500
        config = IntegratorConfig(dt=dt, t_final=n_steps * dt, record_stride=500)
        psi0 = initial_state(InitialStateSpec(theta0=1.1, phi0=0.3), SPACE)
        rho0 = np.outer(psi0, psi0.conj())
        traj = evolve_lindblad(lindblad_spec(params, SPACE), rho0, config)
        ground_fidelity = traj.states[-1][0, 0].real
        assert ground_fidelity > 1 - 1e-6

    def test_zero_rates_preserve_purity(self):
        config = resonant_config(periods=2.0)
        psi0 = initial_state(InitialStateSpec(theta0=0.7), SPACE)
        rho0 = np.outer(psi0, psi0.conj())
        traj = evolve_lindblad(lindblad_spec(RESONANT, SPACE), rho0, config)
        purity = np.einsum("kij,kji->k", traj.states, traj.states).real
        assert np.abs(purity - 1.0).max() < 1e-9

    def test_cptp_invariants_on_samples(self):
        config = resonant_config(periods=3.0)
        psi0 = initial_state(InitialStateSpec(theta0=0.0), SPACE)
        rho0 = np.outer(psi0, psi0.conj())
        traj = evolve_lindblad(lindblad_spec(OPEN, SPACE), rho0, config)
        for rho in traj.states[::50]:
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.linalg.norm(rho - rho.conj().T) < 1e-9
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_matches_direct_rk4_of_lowex_oracle(self):
        rng = np.random.default_rng(41)
        params = ModelParams(delta=0.7, chi=0.3, gamma=0.12, p=0.05, p_z=0.02)
        block = random_lowex_rho(rng)
        full = embed_lowex(block, SPACE)
        sa = sector_analytics(params, 1)
        dt = (2 * math.pi / sa.rabi_frequency) / 2000
        steps = 400
        config = IntegratorConfig(dt=dt, t_final=steps * dt, record_stride=steps)
        traj = evolve_lindblad(lindblad_spec(params, SPACE), full, config)

        b = block.copy()
        for _ in range(steps):
            k1 = lowex_rhs(params, b)
            k2 = lowex_rhs(params, b + dt / 2 * k1)
            k3 = lowex_rhs(params, b + dt / 2 * k2)
            k4 = lowex_rhs(params, b + dt * k3)
            b = b + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.abs(traj.states[-1][:LOWEX_DIM, :LOWEX_DIM] - b).max() < 1e-10

    def test_excitation_monotone_under_decay(self):
        config = resonant_config(periods=3.0)
        psi0 = initial_state(InitialStateSpec(theta0=0.3), SPACE)
        rho0 = np.outer(psi0, psi0.conj())
        traj = evolve_lindblad(lindblad_spec(OPEN, SPACE), rho0, config)
        nexc = excitation_number(SPACE)
        vals = np.einsum("kij,ji->k", traj.states, nexc).real
        assert (np.diff(vals) <= 1e-10).all()

    def test_step_halving_convergence(self):
        psi0 = initial_state(InitialStateSpec(theta0=0.4), SPACE)
        rho0 = np.outer(psi0, psi0.conj())
        spec = lindblad_spec(OPEN, SPACE)
        coarse = evolve_lindblad(spec, rho0, resonant_config(2.0, 2000, 8))
        fine = evolve_lindblad(spec, rho0, resonant_config(2.0, 4000, 16))
        assert np.allclose(coarse.times, fine.times)
        assert np.abs(coarse.states - fine.states).max() < 1e-8

    def test_positivity_guard_trips_on_coarse_step(self):
        # absurdly large step makes RK4 leave the physical cone
        params = ModelParams(delta=0.5, chi=0.5, gamma=2.0, p=1.0, p_z=1.0)
        psi0 = initial_state(InitialStateSpec(theta0=0.4), SPACE)
        rho0 = np.outer(psi0, psi0.conj())
        config = IntegratorConfig(dt=2.0, t_final=40.0, record_stride=1)
        with pytest.raises(PositivityError):
            evolve_lindblad(lindblad_spec(params, SPACE), rho0, config)

    def test_non_finite_hop_refused_before_eigvals(self, monkeypatch):
        # a rate of 1e300 overflows the RK4 polynomial: the hop holds infs
        # and NaNs, which eigvals would refuse with a ValueError
        params = ModelParams(delta=0.5, chi=0.5, gamma=1e300)
        psi0 = initial_state(InitialStateSpec(theta0=0.4), SPACE)
        calls = []
        monkeypatch.setattr(np.linalg, "eigvals", lambda *args: calls.append(args))
        with pytest.raises(PositivityError, match="not finite"):
            evolve_lindblad(lindblad_spec(params, SPACE),
                            np.outer(psi0, psi0.conj()), resonant_config(1.0, 100))
        assert calls == []

    def test_hop_check_ignores_unreached_modes(self):
        # |e1><e1| (N = 2) decays at gamma + p, too fast for ten RK4 steps per
        # period, so the whole hop is unstable; a leg from sector 1 never
        # reaches it, and its hop is accepted
        params = ModelParams(delta=-2.5, chi=-1.5, gamma=7.1, p=6.5)
        space = SpaceSpec(1)
        period = 2 * math.pi / sector_analytics(params, 1).rabi_frequency
        config = IntegratorConfig.for_periods(period, 1.0, 10, 4)
        spec = lindblad_spec(params, space)
        hop = np.linalg.matrix_power(rk4_step_matrix(liouvillian(spec), config.dt), 4)
        assert np.abs(np.linalg.eigvals(hop)).max() > 100
        psi0 = initial_state(InitialStateSpec(theta0=2.5), space)
        record = evolve_lindblad(spec, np.outer(psi0, psi0.conj()), config)
        assert np.abs(record.states[:, 3]).max() == 0.0


def unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def n_block_stack(rng, spec, size):
    """Random unit-trace density matrices, block-diagonal in N, each block
    U diag(w) U† with w >= 0.05 before normalisation."""
    n = np.diag(excitation_number(spec)).real.astype(int)
    rhos = np.zeros((size, spec.dim, spec.dim), dtype=complex)
    for k in range(size):
        for block in range(n.max() + 1):
            idx = np.flatnonzero(n == block)
            u = unitary(rng, idx.size)
            rhos[k, idx[:, None], idx] = (u * rng.uniform(0.05, 1.0, idx.size)) @ u.conj().T
    return rhos / np.einsum("kii->k", rhos).real[:, None, None]


def verdict(states, times, dense=False):
    """The message of the density checks on the N blocks, or of the dense
    oracle (``dense``), or None if they pass."""
    try:
        if dense:
            check_density_dense(states, times)
        else:
            dynamics._check_density_stack(states, times)
    except PositivityError as exc:
        return str(exc)
    return None


def push_past(rhos, k, fault, factor, rng):
    """Move sample k of a stack ``factor`` times its bound from the physical
    state: its trace, its Hermiticity (a diagonal entry or a 2x2 block's
    coherence), or the smallest eigenvalue of the 1x1 block |g,0> or
    |e,n_max> or of a 2x2 block, the trace kept."""
    d = rhos.shape[-1]
    i = 2 * rng.integers(1, d // 2)  # |g,N> of a 2x2 block
    if fault == "trace":
        rhos[k, 0, 0] += rng.choice([-1, 1]) * factor * dynamics.TRACE_TOL
    elif fault == "imaginary_population":
        rhos[k, i, i] += 0.5j * factor * dynamics.HERMITICITY_TOL
    elif fault == "coherence":
        rhos[k, i - 1, i] += factor * dynamics.HERMITICITY_TOL / math.sqrt(2)
    else:
        low = factor * dynamics.POSITIVITY_FLOOR
        if fault == "pair":
            idx = np.array([i - 1, i])
            u = unitary(rng, 2)
            weight = np.trace(rhos[k][np.ix_(idx, idx)]).real
            rhos[k, idx[:, None], idx] = (u * [weight - low, low]) @ u.conj().T
        else:
            i, other = (0, d - 1) if fault == "g0" else (d - 1, 0)
            rhos[k, other, other] += rhos[k, i, i] - low
            rhos[k, i, i] = low


class TestBlockChecks:
    """The density checks of N-block-diagonal stacks read their blocks; they
    must give the verdict, the message and the sample of the dense checks."""

    @pytest.mark.parametrize("fault", ["trace", "imaginary_population", "coherence",
                                       "g0", "top", "pair"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n0=st.sampled_from([1, 2, 3]),
           size=st.integers(1, 6),
           factor=st.one_of(st.floats(0.5, 0.99), st.floats(1.01, 2.0)))
    def test_blocks_give_the_dense_verdict(self, fault, seed, n0, size, factor):
        rng = np.random.default_rng(seed)
        rhos = n_block_stack(rng, SpaceSpec(n0), size)
        hit = np.flatnonzero(rng.integers(2, size=size)) if size > 1 else np.array([0])
        hit = hit if hit.size else np.array([size - 1])
        for k in hit:
            push_past(rhos, k, fault, factor, rng)
        times = np.arange(1.0, size + 1)
        got = verdict(rhos, times)
        assert got == verdict(rhos, times, dense=True)
        assert (got is None) == (factor < 1)
        if got is not None:  # the first sample pushed past the bound
            assert re.search(r"at t=(\d+)", got)[1] == str(hit[0] + 1)

EIGH = np.linalg.eigh  # unpatched by the spies below


def eigh_block(rhos, n0):
    """eigh of the start-sector block {|e,n0-1>, |g,n0>} of each matrix of a
    stack: (n, 2) eigenvalues and (n, d, 2) columns, +0.0 off the block."""
    i = 2 * n0 - 1
    w, v = EIGH(rhos[:, i:i + 2, i:i + 2])
    padded = np.zeros((len(rhos), rhos.shape[-1], 2), dtype=complex)
    padded[:, i:i + 2] = v
    return w, padded


def equals_eigh(rhos, n0, w, v):
    """The sector-n0 eigenpairs (w, v) of a stack equal ``eigh_block``'s
    byte for byte, signed zeros and the +0.0 off the block included, pair
    by pair in either order."""
    want_w, want_v = eigh_block(rhos, n0)

    def same(a, b):  # per record
        a, b = (np.ascontiguousarray(x).view(np.uint8).reshape(len(x), -1) for x in (a, b))
        return (a == b).all(axis=1)

    return bool(np.logical_or(*(same(w[:, o], want_w) & same(v[:, :, o], want_v)
                                for o in ([0, 1], [1, 0]))).all())


BLOCK_CASES = ("complex", "real", "imaginary", "under_split", "at_split", "equal",
               "zero", "negative", "empty_g")


def block_case_stack(rng, n0, cases, scale):
    """N-block-diagonal Hermitian stack, one record per row of ``cases``
    (n0 names from BLOCK_CASES each), scaled by ``scale``: the 1x1 blocks
    uniform in [0, 1) and each 2x2 block {|e,N-1>, |g,N>} as named."""
    d = 2 * (n0 + 1)
    rhos = np.zeros((len(cases), d, d), dtype=complex)
    for k, row in enumerate(cases):
        rhos[k, 0, 0], rhos[k, -1, -1] = rng.random(2)
        for n, case in enumerate(row, start=1):
            a, c = rng.random(2)
            z = complex(*rng.normal(size=2)) * math.sqrt(a * c) / 2
            if case == "real":
                z = z.real
            elif case == "imaginary":
                z = 1j * z.imag
            elif case in ("under_split", "at_split"):  # zsteqr's first split test
                z *= math.sqrt(a * c) * 2.0 ** -53 / abs(z) * (0.5 if case == "under_split"
                                                                 else rng.uniform(0.9, 4))
            elif case == "equal":
                c = a
            elif case == "zero":
                a = c = z = 0.0
            elif case == "negative":
                a, c = -a, -c
            elif case == "empty_g":
                c = 0.0
            i = 2 * n - 1
            rhos[k, i, i], rhos[k, i + 1, i + 1] = a, c
            rhos[k, i + 1, i], rhos[k, i, i + 1] = z, np.conj(z)
    return rhos * scale


class TestBlockEigh:
    """``information.sector_eigh`` gives eigh's eigenpairs of the start
    sector's 2x2 block."""

    @pytest.mark.parametrize("kind", ["gp_delta", "bloch_traj"])
    def test_every_open_record_of_a_sweep(self, kind, monkeypatch):
        # every record takes the closed form (no eigh call) and gets eigh's bits
        real, verdicts = information.sector_eigh, []

        def checked(states, n0):
            w, v = real(states, n0)
            d = states.shape[-1]
            rhos = states.reshape(-1, d, d)
            verdicts.append((len(rhos), equals_eigh(rhos, n0, w.reshape(-1, 2),
                                                    v.reshape(-1, d, 2))))
            return w, v

        monkeypatch.setattr(experiments, "sector_eigh", checked)
        with mock.patch.object(np.linalg, "eigh", wraps=EIGH) as eigh:
            run_sweep(default_spec(kind))
        assert not eigh.called
        records, same = zip(*verdicts)
        assert all(same) and sum(records) > 3000

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n0=st.sampled_from([1, 2, 3]),
           data=st.data(), exponent=st.floats(-12.0, 0.0))
    def test_equals_eigh_on_random_blocks(self, seed, n0, data, exponent):
        # bit for bit at every start sector, whatever the other blocks hold
        cases = data.draw(st.lists(st.lists(st.sampled_from(BLOCK_CASES), min_size=n0,
                                            max_size=n0), min_size=1, max_size=12))
        rhos = block_case_stack(np.random.default_rng(seed), n0, cases, 10.0 ** exponent)
        sector = data.draw(st.integers(1, n0))
        with mock.patch.object(np.linalg, "eigh", wraps=EIGH) as eigh:
            w, v = information.sector_eigh(rhos, sector)
        assert not eigh.called
        assert w.shape == (len(rhos), 2) and v.shape == (len(rhos), 2 * n0 + 2, 2)
        assert equals_eigh(rhos, sector, w, v)

    def test_split_tests_at_their_threshold(self):
        # real coherences (no reflector) within two ulps of zsteqr's first
        # split threshold: some pass the first test and fail the second
        rng = np.random.default_rng(8)
        a, c = rng.random((2, 4000))
        step = rng.integers(-1, 3, a.size) * 2.0 ** -52
        z = rng.choice([-1, 1], a.size) * (np.sqrt(a) * np.sqrt(c)) * 2.0 ** -53 * (1 + step)
        rhos = np.zeros((a.size, 4, 4), dtype=complex)
        rhos[:, 0, 0], rhos[:, 3, 3] = rng.random((2, a.size))
        rhos[:, 1, 1], rhos[:, 2, 2], rhos[:, 2, 1], rhos[:, 1, 2] = a, c, z, z
        got = information.sector_eigh(rhos, 1)
        assert equals_eigh(rhos, 1, *got)

    @pytest.mark.parametrize("scale", [1e-125, 1e-160, 1e-300, 1e160])
    def test_records_lapack_rescales_take_eigh(self, scale):
        # zsteqr rescales a 2x2 block below 1.2e-122, zheevd a matrix below
        # 1e-146 or above 1e146: the start-sector blocks of those records
        # alone go to eigh; scaling only the other blocks sends none there
        for n0 in (1, 2, 3):
            i = 2 * n0 - 1
            rng = np.random.default_rng(7)
            rhos = n_block_stack(rng, SpaceSpec(n0), 6)
            others = np.ones(2 * n0 + 2, dtype=bool)
            others[i:i + 2] = False
            rhos[np.ix_([2, 3], others, others)] *= scale
            rhos[[1, 4]] *= scale
            with mock.patch.object(np.linalg, "eigh", wraps=EIGH) as eigh:
                got = information.sector_eigh(rhos, n0)
            assert eigh.call_count == 1
            assert np.array_equal(eigh.call_args.args[0], rhos[[1, 4], i:i + 2, i:i + 2])
            assert equals_eigh(rhos, n0, *got)


class TestNBlockRefusal:
    """``lindblad_blocks`` refuses, before its first product, a leg whose
    initial states or operators link two N blocks; every record of any
    other leg is block-diagonal in N by construction, and no block of
    records is scanned for entries between N blocks."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n0=st.sampled_from([1, 2, 3]),
           rates=st.tuples(*[st.floats(0.0, 1.0)] * 3), delta=st.floats(-4.0, 4.0),
           link=st.sampled_from(["rho0", "hamiltonian"]),
           size=st.one_of(st.just(5e-324), st.floats(5e-324, 1e-12)),
           term=st.floats(1e-12, 1.0))
    def test_link_between_blocks_refused(self, seed, n0, rates, delta, link, size, term):
        rng = np.random.default_rng(seed)
        space = SpaceSpec(n0)
        params = ModelParams(delta, 0.5).with_rates(*rates)
        spec = lindblad_spec(params, space)
        rho0s = n_block_stack(rng, space, 3)
        n = np.diag(excitation_number(space)).real.astype(int)
        i, j = rng.choice(np.argwhere(n[:, None] != n))  # in two N blocks
        if link == "rho0":  # one entry, however small, and the states stay as they are
            rho0s[rng.integers(3), i, j] = size * rng.choice([1, -1, 1j])
        else:  # a Hermitian term of H between |i> and |j>
            h = spec.hamiltonian.copy()
            h[i, j] += term
            h[j, i] += term
            spec = LindbladSpec(h, spec.collapse_ops)
        config = IntegratorConfig.for_periods(
            2 * math.pi / sector_analytics(params, n0).rabi_frequency, 1.0, 2000, 4)
        hop = rk4_hop(spec, config.dt, config.record_stride)
        legs = lindblad_blocks(np.array([hop] * 3), rho0s, [config] * 3)
        with mock.patch.object(np, "matmul", wraps=np.matmul) as product, \
                pytest.raises(ValueError, match="link two N blocks"):
            next(legs)
        assert not product.called

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n0=st.sampled_from([1, 2, 3]),
           rates=st.tuples(*[st.floats(0.0, 1.0)] * 3), delta=st.floats(-4.0, 4.0),
           size=st.integers(1, 4))
    def test_block_diagonal_starts_accepted(self, seed, n0, rates, delta, size):
        # random block-diagonal states under the package's operators: every
        # record is block-diagonal in N and the start-sector eigenpairs of
        # its block are eigh's, whatever the block of records
        space = SpaceSpec(n0)
        params = ModelParams(delta, 0.5).with_rates(*rates)
        spec = lindblad_spec(params, space)
        rho0s = n_block_stack(np.random.default_rng(seed), space, size)
        config = IntegratorConfig.for_periods(
            2 * math.pi / sector_analytics(params, n0).rabi_frequency, 0.5, 2000, 4)
        records = 0
        with blocks_of(97, size, space.dim):
            hops = np.array([rk4_hop(spec, config.dt, config.record_stride)] * size)
            for _, states in lindblad_blocks(hops, rho0s, [config] * size):
                flat = states.reshape(-1, space.dim, space.dim)
                assert not hilbert.off_n_blocks(flat)
                w, v = information.sector_eigh(states, n0)
                assert equals_eigh(flat, n0, w.reshape(-1, 2), v.reshape(-1, space.dim, 2))
                records += states.shape[1]
        assert records == config.n_steps // config.record_stride + 1

    @pytest.mark.parametrize("kind", ["gp_delta", "negativity_delta"])
    def test_default_sweeps_scan_no_block(self, kind, monkeypatch):
        # while the open legs advance, nothing asks whether an entry of a
        # record lies between N blocks: the one question, before the first
        # product, is about the boolean mask of reachable entries; and the
        # density checks call no eigvalsh
        real_scan, asked = hilbert.off_n_blocks, []

        def scan(rhos):
            assert rhos.dtype == bool, "off_n_blocks called on records"
            asked.append(rhos.shape)
            return real_scan(rhos)

        scans = mock.Mock(side_effect=scan)
        real_blocks, real_check, checked = dynamics.lindblad_blocks, \
            dynamics._check_density_stack, []

        def spied_blocks(*args, **kwargs):
            legs = real_blocks(*args, **kwargs)
            while True:
                with mock.patch.object(hilbert, "off_n_blocks", scans), \
                        mock.patch.object(dynamics, "off_n_blocks", scans):
                    block = next(legs, None)
                if block is None:
                    return
                yield block

        def spied_check(states, times):
            with mock.patch.object(np.linalg, "eigvalsh",
                                   side_effect=AssertionError("eigvalsh called")):
                real_check(states, times)
            checked.append(len(states))

        monkeypatch.setattr(experiments, "lindblad_blocks", spied_blocks)
        monkeypatch.setattr(dynamics, "_check_density_stack", spied_check)
        run_sweep(default_spec(kind))
        assert asked == [(1, 4, 4)]  # one chunk, on the reached space
        # every open record of the 81 points: 3 periods at stride 4, 6 at 16
        assert sum(checked) == 81 * {"gp_delta": 1501, "negativity_delta": 751}[kind]


class TestCPTPHealth:
    @settings(max_examples=25, deadline=None)
    @given(rates=st.tuples(*[st.floats(0.0, 1.0)] * 3), n0=st.sampled_from([1, 2, 3]),
           delta=st.floats(-4.0, 4.0), theta0=st.floats(0.0, math.pi))
    def test_open_legs_pass_on_blocks_and_dense(self, rates, n0, delta, theta0):
        # random rates at the default step: every record is physical, and
        # the block checks and the dense checks agree on it
        params = ModelParams(delta, 0.5).with_rates(*rates)
        space = SpaceSpec(n0)
        period = 2 * math.pi / sector_analytics(params, n0).rabi_frequency
        config = IntegratorConfig.for_periods(period, 1.0, 2000, 4)
        psi0 = initial_state(InitialStateSpec(theta0=theta0, n=n0), space)
        rho0 = np.outer(psi0, psi0.conj())[None]
        spec = lindblad_spec(params, space)
        hop = rk4_hop(spec, config.dt, config.record_stride)
        for times, states in lindblad_blocks(hop[None], rho0, [config]):
            flat = states.reshape(-1, space.dim, space.dim)
            assert not hilbert.off_n_blocks(flat)
            assert verdict(flat, times[0]) is None
            assert verdict(flat, times[0], dense=True) is None


class TestRecordAndDump:
    def test_record_immutable_and_grid(self):
        config = resonant_config(periods=1.0)
        psi0 = initial_state(InitialStateSpec(theta0=0.0), SPACE)
        traj = evolve_closed(hamiltonian([RESONANT], SPACE)[0], psi0, config)
        assert len(traj.times) == config.n_steps // config.record_stride + 1
        with pytest.raises(ValueError):
            traj.states[0] = 0.0
        assert grid_index(traj.times, traj.times[3]) == 3
        with pytest.raises(ValueError):
            grid_index(traj.times, config.dt * 1.5)

    def test_trajectory_csv(self, tmp_path):
        config = resonant_config(periods=1.0, steps_per_period=200, stride=50)
        psi0 = initial_state(InitialStateSpec(theta0=0.0), SPACE)
        traj = evolve_closed(hamiltonian([RESONANT], SPACE)[0], psi0, config)
        path = tmp_path / "traj.csv"
        write_trajectory_csv([(traj.times[None], traj.states[None])], SPACE.dim, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t,re_00,im_00")
        assert len(lines) == len(traj.times) + 1
        first = [float(x) for x in lines[1].split(",")]
        assert len(first) == 1 + 2 * SPACE.dim**2

    @settings(max_examples=300, deadline=None)
    @given(period=st.floats(1e-6, 1e6), steps_per_period=st.integers(1, 10**6),
           stride=st.integers(1, 1000),
           count=st.integers(1, MAX_STEPS) | st.integers(MAX_STEPS // 2, MAX_STEPS))
    def test_for_periods_gives_back_every_count_up_to_the_bound(self, period, steps_per_period,
                                                                stride, count):
        # the step count rounded up to a whole stride, as the legs' step
        # bound reads it, comes back from t_final / dt up to MAX_STEPS
        periods = count / steps_per_period
        n_steps = -(-round(periods * steps_per_period) // stride) * stride
        assume(n_steps <= MAX_STEPS)
        config = IntegratorConfig.for_periods(period, periods, steps_per_period, stride)
        assert config.n_steps == n_steps

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, t_final=1.05)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, t_final=1.0, record_stride=3)
