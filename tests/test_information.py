import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrjc import hilbert, information

from kerrjc.dynamics import IntegratorConfig, evolve_closed, evolve_lindblad
from kerrjc.experiments import default_spec, run_sweep
from kerrjc.hilbert import SpaceSpec
from kerrjc.information import (
    PLANARITY_THRESHOLD,
    bloch_series,
    negativity,
    partial_transpose_atom,
    planarity,
)
from kerrjc.model import (
    InitialStateSpec,
    ModelParams,
    hamiltonian,
    initial_state,
    perpendicular_state,
    sector_analytics,
)

from oracles import basis_state, lindblad_spec, negativity_from_bloch

SPACE = SpaceSpec(4)
RESONANT = ModelParams(delta=0.5, chi=0.5)


def random_density(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def one(state, spec, fn):
    """``fn`` of a single state, passed as a stack of one."""
    return fn(state[None], spec)[0]


def brute_force_partial_transpose(rho, spec):
    """Index-by-index reference, independent of the reshape implementation."""
    out = np.zeros_like(rho)
    for n in range(spec.cavity_dim):
        for s in range(2):
            for m in range(spec.cavity_dim):
                for t in range(2):
                    out[2 * n + s, 2 * m + t] = rho[2 * n + t, 2 * m + s]
    return out


class TestPartialTranspose:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            rho = random_density(rng, SPACE.dim)
            assert np.allclose(one(rho, SPACE, partial_transpose_atom),
                               brute_force_partial_transpose(rho, SPACE))

    def test_stack_transposes_each_matrix(self):
        rng = np.random.default_rng(50)
        rhos = np.stack([random_density(rng, SPACE.dim) for _ in range(3)])
        pts = partial_transpose_atom(rhos, SPACE)
        for rho, pt in zip(rhos, pts):
            assert np.array_equal(pt, brute_force_partial_transpose(rho, SPACE))

    def test_product_state_spectrum_preserved(self):
        rng = np.random.default_rng(52)
        rho_c = random_density(rng, SPACE.cavity_dim)
        rho_a = random_density(rng, 2)
        rho = np.kron(rho_c, rho_a)
        pt = one(rho, SPACE, partial_transpose_atom)
        assert np.allclose(np.sort(np.linalg.eigvalsh(pt)),
                           np.sort(np.linalg.eigvalsh(rho)))
        assert np.linalg.eigvalsh(pt).min() > -1e-12

    def test_involution(self):
        rng = np.random.default_rng(53)
        rho = random_density(rng, SPACE.dim)
        assert np.allclose(partial_transpose_atom(
            partial_transpose_atom(rho[None], SPACE), SPACE)[0], rho)

    def test_maximally_entangled_eigenvalue(self):
        # explicit 4x4 check on the smallest space
        small = SpaceSpec(1)
        psi = (basis_state("e", 0, small) + basis_state("g", 1, small)) / math.sqrt(2)
        pt = one(np.outer(psi, psi.conj()), small, partial_transpose_atom)
        eigs = np.sort(np.linalg.eigvalsh(pt))
        assert abs(eigs[0] + 0.5) < 1e-12
        assert np.allclose(eigs[1:], 0.5)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            partial_transpose_atom(np.eye(9, dtype=complex)[None], SPACE)
        with pytest.raises(ValueError):
            partial_transpose_atom(np.eye(SPACE.dim, dtype=complex), SPACE)


class TestNegativity:
    def test_separable_basis_state(self):
        e0 = basis_state("e", 0, SPACE)
        assert one(np.outer(e0, e0.conj()), SPACE, negativity) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, 2.5])
    def test_maximally_entangled_half(self, phi):
        psi = (basis_state("e", 0, SPACE)
               + np.exp(1j * phi) * basis_state("g", 1, SPACE)) / math.sqrt(2)
        assert abs(one(np.outer(psi, psi.conj()), SPACE, negativity) - 0.5) < 1e-10

    def test_product_states_zero(self):
        rng = np.random.default_rng(54)
        rhos = np.stack([np.kron(random_density(rng, SPACE.cavity_dim),
                                 random_density(rng, 2)) for _ in range(10)])
        assert negativity(rhos, SPACE).max() < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(55)
        rhos, turned = [], []
        for _ in range(10):
            rho = random_density(rng, SPACE.dim)
            u = np.kron(random_unitary(rng, SPACE.cavity_dim), random_unitary(rng, 2))
            rhos.append(rho)
            turned.append(u @ rho @ u.conj().T)
        assert np.abs(negativity(np.array(turned), SPACE)
                      - negativity(np.array(rhos), SPACE)).max() < 1e-10

    def test_sin_law_for_resonant_geodesic(self):
        sa = sector_analytics(RESONANT, 1)
        period = 2 * math.pi / sa.rabi_frequency
        config = IntegratorConfig.for_periods(period, 2.0, 2000, 8)
        psi0 = initial_state(InitialStateSpec(theta0=0.0), SPACE)
        traj = evolve_closed(hamiltonian([RESONANT], SPACE)[0], psi0, config)
        rhos = np.einsum("ki,kj->kij", traj.states, traj.states.conj())
        target = np.abs(np.sin(sa.rabi_frequency * traj.times)) / 2
        assert np.abs(negativity(rhos, SPACE) - target).max() < 1e-7

    def test_pure_stack_equals_density_stack(self):
        rng = np.random.default_rng(59)
        psis = np.array([initial_state(InitialStateSpec(theta0=rng.uniform(0, 2 * math.pi),
                                                        phi0=rng.uniform(0, 2 * math.pi)),
                                       SPACE) for _ in range(8)])
        x = rng.normal(size=psis.shape) + 1j * rng.normal(size=psis.shape)
        psis = np.concatenate([psis, x / np.linalg.norm(x, axis=1, keepdims=True)])
        rhos = np.einsum("ki,kj->kij", psis, psis.conj())
        assert np.abs(negativity(psis, SPACE) - negativity(rhos, SPACE)).max() < 1e-12

    def test_cross_check_failure_raises(self, monkeypatch):
        # |e0> is N-block-diagonal, so the closed-form trace norm checks it
        closed_form = information.block_trace_norm
        monkeypatch.setattr(information, "block_trace_norm",
                            lambda rhos, spec: closed_form(rhos, spec) + 1e-6)
        e0 = basis_state("e", 0, SPACE)
        with pytest.raises(ArithmeticError, match="negativity formulas disagree"):
            negativity(e0[None], SPACE)

    def test_svd_cross_check_failure_raises(self, monkeypatch):
        # (|g0> + |g1>)/sqrt(2) has coherence between N = 0 and N = 1: the SVD checks it
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, compute_uv=True: svd(a, compute_uv=compute_uv) + 1e-6)
        psi = (basis_state("g", 0, SPACE) + basis_state("g", 1, SPACE)) / math.sqrt(2)
        with pytest.raises(ArithmeticError, match="negativity formulas disagree"):
            negativity(psi[None], SPACE)


def eigvalsh_negativity(rhos, spec, eigvalsh=np.linalg.eigvalsh):
    """The oracle: eigvalsh's sum of |negative eigenvalues| of each partial transpose."""
    eigs = eigvalsh(partial_transpose_atom(rhos, spec))
    return np.where(eigs < 0, -eigs, 0.0).sum(axis=1)


SECTOR_1 = SpaceSpec(1)


def sector_one_stack(rng, size, pure, pt00, coherence, scale):
    """Random N-block-diagonal stacks on the reached space of sector 1 (d = 4):
    pure states in {|e,0>, |g,1>} (as vectors), or a |g,0> population
    (``pt00``: "zero", "-0.0" or "positive") beside a mixed sector block,
    trace one; times ``scale``.  The coherence rho[|e,0>, |g,1>] is
    "complex", "real", "imag" or "zero"."""
    a = rng.normal(size=(size, 2)) + 1j * rng.normal(size=(size, 2))
    if coherence == "zero":
        a[:, rng.integers(2)] = 0.0
    elif coherence != "complex":
        a = a.real * np.array([1.0, 1j if coherence == "imag" else 1.0])
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    if pure:
        psis = np.zeros((size, 4), dtype=complex)
        psis[:, 1:3] = a
        return psis * math.sqrt(scale)
    rhos = np.zeros((size, 4, 4), dtype=complex)
    rhos[:, 1:3, 1:3] = np.einsum("ki,kj->kij", a, a.conj())
    rhos[:, [1, 2], [1, 2]] += rng.uniform(0, 1, (size, 2))
    rhos[:, 0, 0] = {"zero": 0.0, "-0.0": -0.0, "positive": rng.uniform(0, 2, size)}[pt00]
    rhos /= np.einsum("kii->k", rhos).real[:, None, None]
    return rhos * scale


class TestNegativityReplay:
    """On the reached space of sector 1 (d = 4) the negativity is
    eigvalsh's, byte for byte, without eigvalsh."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8), pure=st.booleans(),
           pt00=st.sampled_from(["zero", "-0.0", "positive"]),
           coherence=st.sampled_from(["complex", "real", "imag", "zero"]))
    def test_equals_eigvalsh(self, seed, size, pure, pt00, coherence):
        states = sector_one_stack(np.random.default_rng(seed), size, pure, pt00, coherence, 1.0)
        rhos = np.einsum("ki,kj->kij", states, states.conj()) if pure else states
        want = eigvalsh_negativity(rhos, SECTOR_1)
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
            got = negativity(states, SECTOR_1)
        assert got.tobytes() == want.tobytes()
        assert not spy.called

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8),
           pt00=st.sampled_from(["zero", "-0.0", "positive"]),
           coherence=st.sampled_from(["complex", "real", "imag", "zero"]),
           scale=st.sampled_from([1e-300, 1e-160, 1e-140, 1e-125, 1e-30, 1.0, 1e30,
                                  1e140, 1e150, 1e300]),
           coherence_scale=st.sampled_from([1.0, 1e-100, 1e-160, 1e-300]),
           fault=st.sampled_from([None, "negative", "e1", "subnormal_e0"]))
    def test_equals_eigvalsh_at_any_scale(self, seed, size, pt00, coherence, scale,
                                          coherence_scale, fault):
        # random scales and faults, whatever path each record takes
        rng = np.random.default_rng(seed)
        rhos = sector_one_stack(rng, size, False, pt00, coherence, scale)
        rhos[:, 1, 2] *= coherence_scale
        rhos[:, 2, 1] *= coherence_scale
        k = rng.integers(size)
        if fault == "negative":
            i = rng.integers(4)
            rhos[k, i, i] = -abs(rhos[k, i, i]) - 1e-3 * scale
        elif fault == "e1":
            rhos[k, 3, 3] = rng.uniform(0, 1) * scale
        elif fault == "subnormal_e0":
            rhos[k, 1, 1] = rng.integers(1, 2**20) * 5e-324
        got = information._replayed(rhos, SECTOR_1)
        assert got.tobytes() == eigvalsh_negativity(rhos, SECTOR_1).tobytes()

    # one record per way the replay leaves a record to eigvalsh, each beside
    # a record it keeps; (|g,0>, |e,0>, |g,1>, |e,1>) populations and the coherence
    @pytest.mark.parametrize("pops, z", [
        ((0.5, 0.25, 0.25, 1e-3), 0.1),  # an |e,1> population
        ((0.5, -1e-9, 0.5, 0.0), 1e-6j),  # a negative population
        ((0.5, 5e-324, 0.5, 0.0), 1e-170),  # zhetd2's halving of p_e0 rounds
        ((0.5, 0.25, 0.25, 0.0), 1e-300),  # zlarfg would rescale the reflector
        ((1e-150, 1e-150, 1e-150, 0.0), 1e-151 + 1e-151j),  # zheevd would scale
        ((1e150, 1e150, 1e150, 0.0), 1e149),  # zheevd would scale
        ((1e-130, 1e-130, 1e-130, 0.0), 1e-131j),  # dsterf would scale the block
    ], ids=["e1", "negative", "subnormal_e0", "beta", "rmin", "rmax", "ssfmin"])
    def test_records_lapack_treats_otherwise_take_eigvalsh(self, pops, z):
        kept = (0.25, 0.375, 0.375, 0.0), 0.3 - 0.1j
        rhos = np.zeros((2, 4, 4), dtype=complex)
        for rho, (p, c) in zip(rhos, ((pops, z), kept)):
            rho[range(4), range(4)] = p
            rho[1, 2], rho[2, 1] = np.conj(c), c
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
            got = information._replayed(rhos, SECTOR_1)
        (flagged,), _ = spy.call_args
        assert spy.call_count == 1 and flagged.shape == (1, 4, 4)
        assert np.array_equal(flagged[0], partial_transpose_atom(rhos[:1], SECTOR_1)[0])
        assert got.tobytes() == eigvalsh_negativity(rhos, SECTOR_1).tobytes()

    def test_every_state_of_the_default_sweeps(self, monkeypatch):
        # each state passes through the replay once; eigvalsh is never called
        replayed, eigvalsh, seen = information._replayed, np.linalg.eigvalsh, []

        def checked(rhos, spec, blocks=None):
            got = replayed(rhos, spec, blocks)
            assert got.tobytes() == eigvalsh_negativity(information.projectors(rhos), spec,
                                                        eigvalsh).tobytes()
            seen.append(len(rhos))
            return got

        monkeypatch.setattr(information, "_replayed", checked)
        monkeypatch.setattr(np.linalg, "eigvalsh", mock.Mock(side_effect=AssertionError))
        for kind in ("negativity_theta", "negativity_delta"):
            seen.clear()
            rows = run_sweep(default_spec(kind)).rows
            assert sum(seen) == 2 * len(rows)

    def test_cross_block_stacks_take_the_dense_path(self, monkeypatch):
        # one entry between two N blocks: eigvalsh and the SVD of the whole
        # stack, and the SVD's cross-check still fires
        rng = np.random.default_rng(60)
        rhos = sector_one_stack(rng, 5, False, "positive", "complex", 1.0)
        rhos[2, 0, 1] = rhos[2, 1, 0] = 1e-3
        monkeypatch.setattr(information, "_replayed", mock.Mock(side_effect=AssertionError))
        svd = np.linalg.svd
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy, \
                mock.patch.object(np.linalg, "svd", wraps=svd) as svd_spy:
            got = negativity(rhos, SECTOR_1)
        assert spy.call_args.args[0].shape == svd_spy.call_args.args[0].shape == (5, 4, 4)
        assert got.tobytes() == eigvalsh_negativity(rhos, SECTOR_1).tobytes()
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, compute_uv=True: svd(a, compute_uv=compute_uv) + 1e-6)
        with pytest.raises(ArithmeticError, match="negativity formulas disagree"):
            negativity(rhos, SECTOR_1)


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_pure_states_build_only_their_n_blocks(monkeypatch):
    # the closed states of the default negativity_delta: the N-block entries
    # of their projectors are einsum's, bit for bit, no record is scanned for
    # entries between N blocks, and the negativity is the density path's
    import kerrjc.experiments as ex
    real, closed = information.negativity, []
    monkeypatch.setattr(ex, "negativity",
                        lambda states, spec: (states.ndim == 2 and closed.append(states))
                        or real(states, spec))
    run_sweep(default_spec("negativity_delta"))
    psi = np.concatenate(closed)
    assert psi.shape == (81 * 751, 4)
    rhos = np.einsum("ki,kj->kij", psi, psi.conj())
    for got, want in zip(hilbert.n_blocks(psi), hilbert.n_blocks(rhos)):
        assert same_bits(got, want)
    reached = SpaceSpec(1)
    with mock.patch.object(hilbert, "off_n_blocks", side_effect=AssertionError):
        pure = negativity(psi, reached)
    assert same_bits(pure, negativity(rhos, reached))


class TestNegativityGeometry:
    """The sweeps' negativities against an oracle that shares no code with
    them: the sector-1 Bloch vector and the population that left it."""

    @pytest.mark.parametrize("kind", ["negativity_theta", "negativity_delta"])
    def test_every_state_of_the_default_sweeps(self, kind, monkeypatch):
        bound = 1e-12  # ROADMAP fact 9 measured 1.3e-13
        replayed, fed = information._replayed, []

        def recorded(rhos, spec, blocks=None):
            got = replayed(rhos, spec, blocks)
            fed.append((information.projectors(rhos).copy(), spec, got))
            return got

        monkeypatch.setattr(information, "_replayed", recorded)
        rows = run_sweep(default_spec(kind)).rows
        rhos = np.concatenate([f[0] for f in fed])
        got = np.concatenate([f[2] for f in fed])
        spec, = {f[1] for f in fed}
        # the closed legs' states come first, then the open legs'
        assert len(rhos) == 2 * len(rows)
        assert np.abs(got - negativity_from_bloch(rhos, spec)).max() <= bound
        pops = np.diagonal(rhos[:len(rows)], 0, 1, 2).real
        assert np.abs(got[:len(rows)] - np.sqrt(pops[:, 1] * pops[:, 2])).max() <= bound


def excitation_numbers(spec):
    return np.array([k // 2 + k % 2 for k in range(spec.dim)])


def block_diagonal_stack(rng, spec, size, negative_singles):
    """Random PSD stacks that are block-diagonal in N, trace one; with
    ``negative_singles`` the populations of |e,0> and |g,n_max> (the 1x1
    blocks of the partial transpose) are -1e-9, and |g,0>'s keeps the trace."""
    n = excitation_numbers(spec)
    rhos = np.zeros((size, spec.dim, spec.dim), dtype=complex)
    for block in range(n.max() + 1):
        idx = np.flatnonzero(n == block)
        rhos[:, idx[:, None], idx] = [random_density(rng, idx.size) * rng.uniform(0, 1)
                                      for _ in range(size)]
    rhos /= np.einsum("kii->k", rhos).real[:, None, None]
    if negative_singles:
        rhos[:, [1, -2], [1, -2]] = -1e-9
        rhos[:, 0, 0] += 1.0 - np.einsum("kii->k", rhos).real
    return rhos


class TestBlockTraceNorm:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n0=st.sampled_from([1, 2, 3]),
           size=st.integers(1, 6), negative_singles=st.booleans(),
           cross=st.sampled_from([5e-324, -1e-300, 1e-14j, 1e-12]))
    def test_equals_svd_trace_norm(self, seed, n0, size, negative_singles, cross):
        spec = SpaceSpec(n0)
        rng = np.random.default_rng(seed)
        rhos = block_diagonal_stack(rng, spec, size, negative_singles)
        pts = partial_transpose_atom(rhos, spec)
        svd_norm = np.linalg.svd(pts, compute_uv=False).sum(axis=1)
        assert np.abs(information.block_trace_norm(hilbert.n_blocks(rhos), spec)
                      - svd_norm).max() < 1e-12

        # block-diagonal stacks take the closed form; one nonzero entry
        # between two N blocks, however small, sends the stack to the SVD
        n = excitation_numbers(spec)
        i, j = rng.choice(np.argwhere(n[:, None] != n))
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            negativity(rhos, spec)
            assert not svd.called
            rhos[rng.integers(size), i, j] = cross
            negativity(rhos, spec)
            assert svd.called


class TestBlochProjection:
    def test_reference_states(self):
        e0 = basis_state("e", 0, SPACE)
        assert np.allclose(one(e0, SPACE, bloch_series), [0, 0, 1, 1])
        plus = (basis_state("e", 0, SPACE) + basis_state("g", 1, SPACE)) / math.sqrt(2)
        assert np.allclose(one(plus, SPACE, bloch_series), [1, 0, 0, 1])
        g0 = np.outer(basis_state("g", 0, SPACE), basis_state("g", 0, SPACE).conj())
        b = one(g0, SPACE, bloch_series)
        assert np.allclose(b[:3], [0, 0, 0]) and b[3] == 0.0

    def test_pure_sector_states_unit_radius(self):
        rng = np.random.default_rng(56)
        psis = np.array([initial_state(InitialStateSpec(theta0=rng.uniform(0, 2 * math.pi),
                                                        phi0=rng.uniform(0, 2 * math.pi)),
                                       SPACE) for _ in range(10)])
        b = bloch_series(psis, SPACE)
        assert np.abs(np.linalg.norm(b[:, :3], axis=1) - 1).max() < 1e-10
        assert np.abs(b[:, 3] - 1).max() < 1e-10

    def test_y_sign_convention(self):
        # resonant evolution of |e0> must rotate +z -> -y (right-handed about +x)
        sa = sector_analytics(RESONANT, 1)
        period = 2 * math.pi / sa.rabi_frequency
        config = IntegratorConfig.for_periods(period, 0.05, 2000, 10)
        psi0 = initial_state(InitialStateSpec(theta0=0.0), SPACE)
        traj = evolve_closed(hamiltonian([RESONANT], SPACE)[0], psi0, config)
        _, y, z, _ = bloch_series(traj.states, SPACE)[-1]
        assert y < -1e-3
        assert z < 1.0

    def test_rotation_preserves_axis_component(self):
        params = ModelParams(delta=1.3, chi=0.4)
        sa = sector_analytics(params, 1)
        period = 2 * math.pi / sa.rabi_frequency
        config = IntegratorConfig.for_periods(period, 2.0, 2000, 8)
        psi0 = initial_state(InitialStateSpec(theta0=0.8, phi0=0.5), SPACE)
        traj = evolve_closed(hamiltonian([params], SPACE)[0], psi0, config)
        series = bloch_series(traj.states, SPACE)
        comp = series[:, :3] @ np.array(sa.axis)
        assert np.abs(comp - comp[0]).max() < 1e-9

    def test_radius_bounded_by_weight(self):
        rng = np.random.default_rng(58)
        rhos = np.stack([random_density(rng, SPACE.dim) for _ in range(20)])
        b = bloch_series(rhos, SPACE)
        assert (np.linalg.norm(b[:, :3], axis=1) <= b[:, 3] + 1e-9).all()

    def test_pure_stack_equals_density_stack(self):
        rng = np.random.default_rng(57)
        x = rng.normal(size=(6, SPACE.dim)) + 1j * rng.normal(size=(6, SPACE.dim))
        psis = x / np.linalg.norm(x, axis=1, keepdims=True)
        rhos = np.einsum("ki,kj->kij", psis, psis.conj())
        assert np.abs(bloch_series(psis, SPACE) - bloch_series(rhos, SPACE)).max() < 1e-12


class TestPlanarity:
    def _trajectories(self, params, periods=3.0):
        sa = sector_analytics(params, 1)
        period = 2 * math.pi / sa.rabi_frequency
        config = IntegratorConfig.for_periods(period, periods, 2000, 8)
        psi0 = initial_state(perpendicular_state(params, 1), SPACE)
        closed = evolve_closed(hamiltonian([params], SPACE)[0], psi0, config)
        rho0 = np.outer(psi0, psi0.conj())
        opened = evolve_lindblad(lindblad_spec(params, SPACE), rho0, config)
        return sa, closed, opened

    def test_closed_geodesic_exactly_planar(self):
        sa, closed, _ = self._trajectories(RESONANT.with_rates(0, 0, 0))
        series = bloch_series(closed.states, SPACE)
        report = planarity(series[:, :3], np.array(sa.axis))
        assert report.max_off_plane < 1e-8
        assert report.samples_used == len(closed.times)

    def test_open_resonant_below_threshold(self):
        sa, _, opened = self._trajectories(RESONANT.with_rates(0.1, 0.0, 0.01))
        series = bloch_series(opened.states, SPACE)
        report = planarity(series[:, :3], np.array(sa.axis))
        assert report.max_off_plane < PLANARITY_THRESHOLD

    def test_open_off_resonant_above_threshold(self):
        params = ModelParams(delta=2.0, chi=0.0, gamma=0.1, p_z=0.01)
        sa, _, opened = self._trajectories(params)
        series = bloch_series(opened.states, SPACE)
        report = planarity(series[:, :3], np.array(sa.axis))
        assert report.max_off_plane > PLANARITY_THRESHOLD

    def test_requires_two_usable_samples(self):
        with pytest.raises(ValueError):
            planarity(np.zeros((5, 3)), [1.0, 0.0, 0.0])
