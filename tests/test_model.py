import math

import numpy as np
import pytest

from kerrjc import model
from kerrjc.hilbert import SpaceSpec, sector_indices
from kerrjc.information import bloch_series
from kerrjc.model import (
    InitialStateSpec,
    ModelParams,
    hamiltonian,
    initial_state,
    perpendicular_state,
    sector_analytics,
)

from oracles import (
    basis_state,
    dressed_states,
    excitation_number,
    resonant_state,
    sector_block,
)

SPACE = SpaceSpec(4)


def closed_form_energies(params, n):
    omega = math.sqrt((params.chi * (2 * n - 1) - params.delta) ** 2
                      + 4 * params.g**2 * n)
    base = params.chi * (n - 0.5) ** 2 + params.chi / 4
    return base + omega / 2, base - omega / 2


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(delta=0.0, chi=0.0, g=0.0)
        with pytest.raises(ValueError):
            ModelParams(delta=0.0, chi=0.0, gamma=-0.1)
        with pytest.raises(ValueError):
            ModelParams(delta=float("nan"), chi=0.0)


class TestHamiltonian:
    def test_coupling_element(self):
        params = ModelParams(delta=0.7, chi=0.3, g=1.3)
        h = hamiltonian([params], SPACE)[0]
        e0, g1 = basis_state("e", 0, SPACE), basis_state("g", 1, SPACE)
        assert np.vdot(e0, h @ g1) == pytest.approx(params.g)
        assert np.vdot(g1, h @ g1).real == pytest.approx(-params.delta / 2 + params.chi)

    def test_block_diagonal_between_sectors(self):
        params = ModelParams(delta=0.4, chi=0.2)
        h = hamiltonian([params], SPACE)[0]
        # matrix elements between different excitation sectors vanish exactly
        nexc = np.diag(excitation_number(SPACE)).real
        for i in range(SPACE.dim):
            for j in range(SPACE.dim):
                if nexc[i] != nexc[j]:
                    assert h[i, j] == 0

    def test_sector_block_values(self):
        b = sector_block(ModelParams(delta=0.0, chi=0.0), 1)
        assert np.allclose(b, [[0, 1], [1, 0]])
        b2 = sector_block(ModelParams(delta=0.3, chi=0.1), 2)
        assert b2[0, 1] == pytest.approx(math.sqrt(2))
        with pytest.raises(ValueError):
            sector_block(ModelParams(delta=0.0, chi=0.0), 0)

    def test_block_embedded_in_full_hamiltonian(self):
        params = ModelParams(delta=-0.8, chi=0.45)
        h = hamiltonian([params], SPACE)[0]
        for n in (1, 2, 3):
            idx = sector_indices(n, SPACE)
            assert np.allclose(h[np.ix_(idx, idx)], sector_block(params, n))


class TestSectorAnalytics:
    def test_block_eigenvalues_match_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            params = ModelParams(delta=rng.normal(scale=2), chi=rng.normal(),
                                 g=rng.uniform(0.3, 2.0))
            n = int(rng.integers(1, 4))
            ep, em = closed_form_energies(params, n)
            w = np.linalg.eigvalsh(sector_block(params, n))
            assert abs(w[1] - ep) < 1e-10 and abs(w[0] - em) < 1e-10
            sa = sector_analytics(params, n)
            assert sa.e_plus == pytest.approx(ep, abs=1e-12)
            assert sa.e_minus == pytest.approx(em, abs=1e-12)

    def test_resonant_sector1(self):
        sa = sector_analytics(ModelParams(delta=0.5, chi=0.5), 1)
        assert sa.eff_detuning == 0.0
        assert sa.rabi_frequency == pytest.approx(2.0)
        assert sa.e_plus == pytest.approx(0.5 / 2 + 1.0)
        assert sa.e_minus == pytest.approx(0.5 / 2 - 1.0)
        assert np.allclose(sa.axis, [1, 0, 0])

    def test_bare_resonance(self):
        sa = sector_analytics(ModelParams(delta=0.0, chi=0.0), 1)
        assert sa.rabi_frequency == pytest.approx(2.0)

    def test_sector2_resonance_condition(self):
        sa = sector_analytics(ModelParams(delta=0.9, chi=0.3), 2)
        assert sa.eff_detuning == pytest.approx(0.0)

    def test_axis_decomposition(self):
        # block - E0*I = g sqrt(n) sigma_x + (eff/2) sigma_z in the sector basis
        rng = np.random.default_rng(22)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        for _ in range(10):
            params = ModelParams(delta=rng.normal(scale=2), chi=rng.normal())
            n = int(rng.integers(1, 4))
            sa = sector_analytics(params, n)
            lhs = sector_block(params, n) - sa.energy_offset * np.eye(2)
            rhs = params.g * math.sqrt(n) * sx + sa.eff_detuning / 2 * sz
            assert np.abs(lhs - rhs).max() < 1e-12


class TestDressedStates:
    def test_resonant_forms(self):
        plus, minus = dressed_states(ModelParams(delta=0.5, chi=0.5), 1)
        target_plus = np.array([1, 1]) / math.sqrt(2)   # (|e0> + |g1>)/sqrt(2)
        target_minus = np.array([1, -1]) / math.sqrt(2)
        assert abs(abs(np.vdot(target_plus, plus)) - 1) < 1e-12
        assert abs(abs(np.vdot(target_minus, minus)) - 1) < 1e-12

    def test_eigenpairs_and_orthogonality(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            params = ModelParams(delta=rng.normal(scale=2), chi=rng.normal())
            n = int(rng.integers(1, 4))
            block = sector_block(params, n)
            sa = sector_analytics(params, n)
            plus, minus = dressed_states(params, n)
            assert np.abs(block @ plus - sa.e_plus * plus).max() < 1e-12
            assert np.abs(block @ minus - sa.e_minus * minus).max() < 1e-12
            assert abs(np.vdot(plus, minus)) < 1e-12

    def test_resonance_balances_amplitudes(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            chi = rng.normal()
            n = int(rng.integers(1, 4))
            params = ModelParams(delta=chi * (2 * n - 1), chi=chi)
            for vec in dressed_states(params, n):
                assert abs(abs(vec[0]) - 1 / math.sqrt(2)) < 1e-12
                assert abs(abs(vec[1]) - 1 / math.sqrt(2)) < 1e-12


class TestResonantState:
    PARAMS = ModelParams(delta=0.5, chi=0.5)

    def test_t0_is_gn(self):
        psi = resonant_state(self.PARAMS, 1, 0.0, SPACE)
        assert np.allclose(psi, basis_state("g", 1, SPACE))

    def test_half_period_full_transfer(self):
        sa = sector_analytics(self.PARAMS, 1)
        psi = resonant_state(self.PARAMS, 1, math.pi / sa.rabi_frequency, SPACE)
        e0 = basis_state("e", 0, SPACE)
        assert abs(abs(np.vdot(e0, psi)) - 1.0) < 1e-12

    def test_full_period_sign_flip(self):
        sa = sector_analytics(self.PARAMS, 1)
        t = 2 * math.pi / sa.rabi_frequency
        psi = resonant_state(self.PARAMS, 1, t, SPACE)
        e0_energy = self.PARAMS.chi * 0.25 + self.PARAMS.chi / 4
        expected = -np.exp(-1j * e0_energy * t) * basis_state("g", 1, SPACE)
        assert np.abs(psi - expected).max() < 1e-12

    def test_rejects_off_resonance(self):
        with pytest.raises(ValueError):
            resonant_state(ModelParams(delta=1.0, chi=0.0), 1, 0.1, SPACE)


class TestInitialAndPerpendicular:
    def test_poles_and_equator(self):
        assert np.allclose(initial_state(InitialStateSpec(theta0=0.0), SPACE),
                           basis_state("e", 0, SPACE))
        psi = initial_state(InitialStateSpec(theta0=math.pi / 2, phi0=0.0), SPACE)
        expected = (basis_state("e", 0, SPACE) + basis_state("g", 1, SPACE)) / math.sqrt(2)
        assert np.abs(psi - expected).max() < 1e-12

    def test_normalization(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            spec = InitialStateSpec(theta0=rng.uniform(0, 2 * math.pi),
                                    phi0=rng.uniform(0, 2 * math.pi),
                                    n=int(rng.integers(1, 4)))
            assert abs(np.linalg.norm(initial_state(spec, SPACE)) - 1) < 1e-12

    def test_stationary_at_half_pi_on_resonance(self):
        # theta0 = pi/2 is a Hamiltonian eigenvector when delta = chi
        params = ModelParams(delta=0.5, chi=0.5)
        psi = initial_state(InitialStateSpec(theta0=math.pi / 2), SPACE)
        h = hamiltonian([params], SPACE)[0]
        hp = h @ psi
        energy = np.vdot(psi, hp).real
        assert np.abs(hp - energy * psi).max() < 1e-12

    def test_perpendicularity_exact(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            params = ModelParams(delta=rng.normal(scale=3), chi=rng.normal(),
                                 g=rng.uniform(0.3, 2.0))
            sa = sector_analytics(params, 1)
            spec = perpendicular_state(params, 1)
            bloch = bloch_series(initial_state(spec, SPACE)[None], SPACE)[0]
            assert abs(bloch[:3] @ np.array(sa.axis)) < 1e-12

    def test_resonant_perpendicular_hits_pole(self):
        # axis = +x, perpendicular start is the |g1> pole: yz great circle
        params = ModelParams(delta=0.5, chi=0.5)
        psi = initial_state(perpendicular_state(params, 1), SPACE)
        bloch = bloch_series(psi[None], SPACE)[0]
        assert np.allclose(bloch[:3], [0, 0, -1], atol=1e-12)

    def test_large_detuning_approaches_equator(self):
        params = ModelParams(delta=50.0, chi=0.0)
        psi = initial_state(perpendicular_state(params, 1), SPACE)
        _, _, z, weight = bloch_series(psi[None], SPACE)[0]
        assert abs(z) < 0.05
        assert weight == pytest.approx(1.0)


def test_collapse_operators_filter_zero_rates():
    params = ModelParams(delta=0.5, chi=0.5, gamma=0.1)
    ops = model.collapse_operators(params, SPACE)
    assert len(ops) == 1 and ops[0][1] == 0.1
    params = ModelParams(delta=0.5, chi=0.5, gamma=0.1, p=0.2, p_z=0.3)
    assert len(model.collapse_operators(params, SPACE)) == 3
