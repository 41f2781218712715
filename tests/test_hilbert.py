import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrjc import hilbert
from kerrjc.dynamics import IntegratorConfig, evolve_closed, evolve_lindblad
from kerrjc.hilbert import SpaceSpec
from kerrjc.model import (
    InitialStateSpec,
    ModelParams,
    hamiltonian,
    initial_state,
    sector_analytics,
)

from oracles import basis_state, excitation_number, flat_index, lindblad_spec

SPACE = SpaceSpec(4)


def bra_op_ket(bra, op, ket):
    return np.vdot(bra, op @ ket)


class TestBasisIndexing:
    def test_ordered_basis(self):
        assert flat_index("g", 0, SPACE) == 0
        assert flat_index("e", 1, SPACE) == 3
        assert flat_index("g", 2, SPACE) == 4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            flat_index("g", SPACE.n_max + 1, SPACE)
        with pytest.raises(ValueError):
            flat_index("x", 0, SPACE)

    def test_dim(self):
        assert SPACE.dim == 10
        with pytest.raises(ValueError):
            SpaceSpec(0)


class TestOperators:
    def test_annihilation_elements(self):
        a = hilbert.annihilation(SPACE)
        g0, g1 = basis_state("g", 0, SPACE), basis_state("g", 1, SPACE)
        e1, e2 = basis_state("e", 1, SPACE), basis_state("e", 2, SPACE)
        assert bra_op_ket(g0, a, g1) == pytest.approx(1.0)
        assert bra_op_ket(e1, a, e2) == pytest.approx(np.sqrt(2))
        assert np.linalg.norm(a @ g0) == 0.0

    def test_atomic_operators(self):
        sm = hilbert.sigma_minus(SPACE)
        sz = hilbert.sigma_z(SPACE)
        nop = hilbert.number_op(SPACE)
        e0, g0 = basis_state("e", 0, SPACE), basis_state("g", 0, SPACE)
        g1, g2 = basis_state("g", 1, SPACE), basis_state("g", 2, SPACE)
        assert np.allclose(sm @ e0, g0)
        assert np.allclose(sz @ g1, -g1)
        assert np.allclose(nop @ nop @ g2, 4 * g2)

    def test_commutator_truncation(self):
        # [a, a+] = I except on the top Fock level
        a = hilbert.annihilation(SPACE)
        comm = a @ a.conj().T - a.conj().T @ a
        low = 2 * SPACE.n_max  # flat indices below the top level
        assert np.allclose(comm[:low, :low], np.eye(low))

    def test_sigma_anticommutator(self):
        sp, sm = hilbert.sigma_plus(SPACE), hilbert.sigma_minus(SPACE)
        assert np.allclose(sp @ sm + sm @ sp, np.eye(SPACE.dim))

    def test_excitation_number_conserved(self):
        rng = np.random.default_rng(11)
        nexc = excitation_number(SPACE)
        for _ in range(5):
            params = ModelParams(delta=rng.normal(), chi=rng.normal(),
                                 g=rng.uniform(0.5, 2.0))
            h = hamiltonian([params], SPACE)[0]
            assert np.abs(h @ nexc - nexc @ h).max() < 1e-12


class TestKron:
    def test_bit_equal_to_np_kron(self):
        # the operator builders' and the Liouvillian's products, signed zeros too
        h = hamiltonian([ModelParams(delta=-0.7, chi=0.3)], SPACE)[0]
        a = hilbert.annihilation(SPACE)
        ops = [h, -1j * h.T, a, a.conj(), a.conj().T @ a, hilbert.sigma_minus(SPACE),
               hilbert.sigma_z(SPACE), np.eye(SPACE.dim, dtype=complex),
               np.diag(np.arange(3.0)), np.array([[0.0, -1.0], [-0.0, 2.0]])]
        for x in ops:
            for y in ops:
                ours, ref = hilbert.kron(x, y), np.kron(x, y)
                assert ours.dtype == ref.dtype and np.array_equal(ours, ref)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(ours)), np.signbit(part(ref)))


class TestReachedBlock:
    """Legs from sector n0 stay on the states with N <= n0, which lie in Fock
    levels 0..n0: full-space legs hold exact zeros outside that block, so
    running them on the reached space drops nothing."""

    @settings(max_examples=40, deadline=None)
    @given(delta=st.floats(-4.0, 4.0), chi=st.floats(-1.0, 1.0),
           rates=st.tuples(*[st.floats(0.0, 0.5)] * 3), theta0=st.floats(0.0, 2 * math.pi),
           n0=st.sampled_from([1, 2]), data=st.data())
    def test_full_space_legs_zero_outside_reached_block(self, delta, chi, rates, theta0,
                                                        n0, data):
        space = SpaceSpec(data.draw(st.integers(n0 + 1, 6), label="n_max"))
        d = hilbert.reached_space(n0, space).dim
        params = ModelParams(delta=delta, chi=chi).with_rates(*rates)
        period = 2 * math.pi / sector_analytics(params, n0).rabi_frequency
        config = IntegratorConfig.for_periods(period, 1.0, 200, 4)
        psi0 = initial_state(InitialStateSpec(theta0=theta0, n=n0), space)
        closed = evolve_closed(hamiltonian([params], space)[0], psi0, config).states
        opened = evolve_lindblad(lindblad_spec(params, space),
                                 np.outer(psi0, psi0.conj()), config).states
        assert np.any(closed[:, :d]) and np.any(opened[:, :d, :d])
        assert not np.any(closed[:, d:])
        assert not np.any(opened[:, d:]) and not np.any(opened[:, :, d:])
