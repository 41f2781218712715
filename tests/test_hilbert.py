import numpy as np
import pytest

from kerrjc import hilbert
from kerrjc.hilbert import SpaceSpec, basis_state, flat_index
from kerrjc.model import ModelParams, hamiltonian

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
        nexc = hilbert.excitation_number(SPACE)
        for _ in range(5):
            params = ModelParams(delta=rng.normal(), chi=rng.normal(),
                                 g=rng.uniform(0.5, 2.0))
            h = hamiltonian(params, SPACE)
            assert np.abs(h @ nexc - nexc @ h).max() < 1e-12


class TestTopLevelPopulation:
    def test_pure_and_density(self):
        top = basis_state("g", SPACE.n_max, SPACE)
        psis = np.array([top, basis_state("g", 0, SPACE),
                         (top + basis_state("e", SPACE.n_max - 1, SPACE)) / np.sqrt(2)])
        rhos = np.einsum("ki,kj->kij", psis, psis.conj())
        for stack in (psis, rhos):
            assert hilbert.top_level_population(stack, SPACE) == pytest.approx([1.0, 0.0, 0.5])
