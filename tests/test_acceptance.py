"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.  Heavy sweep results are shared between the runtime
criterion and the convergence criterion through module-scoped fixtures.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kerrjc import hilbert
from kerrjc.dynamics import (
    IntegratorConfig,
    evolve_closed,
    evolve_lindblad,
)
from kerrjc.experiments import SweepSpec, default_spec, run_sweep
from kerrjc.geomphase import (
    phase_series,
    track_dominant_eigenvector,
    wrap_angle,
)
from kerrjc.hilbert import SpaceSpec
from kerrjc.information import PLANARITY_THRESHOLD
from kerrjc.model import (
    InitialStateSpec,
    ModelParams,
    hamiltonian,
    initial_state,
    perpendicular_state,
    sector_analytics,
)
from oracles import (
    LOWEX_DIM,
    lindblad_rhs,
    lindblad_spec,
    lowex_rhs,
    phase_open_general,
    phase_open_pure,
    phase_unitary,
    resonant_state,
)

SPACE = SpaceSpec(4)
RESONANT = ModelParams(delta=0.5, chi=0.5)
BENCH_RATES = (0.1, 0.0, 0.01)   # cavity loss 0.1g, pure dephasing 0.01g
OPEN = RESONANT.with_rates(*BENCH_RATES)


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def resonant_period(params=RESONANT):
    return 2 * math.pi / sector_analytics(params, 1).rabi_frequency


@pytest.fixture(scope="module")
def gp_sweeps_default():
    """Both gp sweeps at default grids, wall-clock timed (criteria 7 and 10)."""
    start = time.perf_counter()
    theta = run_sweep(default_spec("gp_theta"))
    delta = run_sweep(default_spec("gp_delta"))
    elapsed = time.perf_counter() - start
    return theta, delta, elapsed


@pytest.fixture(scope="module")
def negativity_sweeps_default():
    theta = run_sweep(default_spec("negativity_theta"))
    delta = run_sweep(default_spec("negativity_delta"))
    return theta, delta


def test_criterion_01_resonant_oracle():
    start = time.perf_counter()
    period = resonant_period()
    config = IntegratorConfig.for_periods(period, 3.0, 2000, 4)
    psi0 = resonant_state(RESONANT, 1, 0.0, SPACE)
    traj = evolve_closed(hamiltonian([RESONANT], SPACE)[0], psi0, config)
    worst = max(
        np.abs(traj.states[k] - resonant_state(RESONANT, 1, t, SPACE)).max()
        for k, t in enumerate(traj.times))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-8 and elapsed < 1.0,
           f"closed resonant evolution matches the analytic oracle "
           f"(max state error {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_ode_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    params = ModelParams(delta=0.7, chi=0.3, gamma=0.13, p=0.07, p_z=0.02)
    spec = lindblad_spec(params, SPACE)

    def random_lowex(rng):
        def psd2():
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            return x @ x.conj().T
        m = np.zeros((LOWEX_DIM, LOWEX_DIM), dtype=complex)
        m[0, 0] = rng.uniform(0.1, 1.0)
        m[1:3, 1:3] = psd2()
        m[3:5, 3:5] = psd2()
        return m / np.trace(m).real

    worst = 0.0
    for _ in range(100):
        block = random_lowex(rng)
        full = np.zeros((SPACE.dim, SPACE.dim), dtype=complex)
        full[:LOWEX_DIM, :LOWEX_DIM] = block
        generic = lindblad_rhs(spec, full)
        oracle = lowex_rhs(params, block)
        worst = max(worst, np.abs(generic[:LOWEX_DIM, :LOWEX_DIM] - oracle).max())
        outside = generic.copy()
        outside[:LOWEX_DIM, :LOWEX_DIM] = 0.0
        worst = max(worst, np.abs(outside).max())
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-12 and elapsed < 1.0,
           f"generic Lindblad RHS equals the hand-coded low-excitation system "
           f"on 100 random states (max diff {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_cptp_health():
    cases = [
        (OPEN, InitialStateSpec(theta0=0.0)),
        (OPEN, perpendicular_state(OPEN, 1)),
        (ModelParams(delta=2.0, chi=0.0, gamma=0.1, p_z=0.01),
         perpendicular_state(ModelParams(delta=2.0, chi=0.0), 1)),
        (ModelParams(delta=4.0, chi=0.0, gamma=0.1, p_z=0.01),
         perpendicular_state(ModelParams(delta=4.0, chi=0.0), 1)),
    ]
    worst_trace = worst_herm = 0.0
    worst_eig = 1.0
    for params, init in cases:
        period = 2 * math.pi / sector_analytics(params, 1).rabi_frequency
        config = IntegratorConfig.for_periods(period, 3.0, 2000, 4)
        psi0 = initial_state(init, SPACE)
        traj = evolve_lindblad(lindblad_spec(params, SPACE),
                               np.outer(psi0, psi0.conj()), config)
        worst_trace = max(worst_trace,
                          np.abs(np.einsum("kii->k", traj.states).real - 1).max())
        herm = np.sqrt((np.abs(traj.states
                               - traj.states.conj().transpose(0, 2, 1)) ** 2)
                       .sum(axis=(1, 2)))
        worst_herm = max(worst_herm, herm.max())
        worst_eig = min(worst_eig, np.linalg.eigvalsh(traj.states)[:, 0].min())

    period = resonant_period()
    dt = period / 500
    n_steps = int(round(50.0 / OPEN.gamma / dt))
    n_steps += (-n_steps) % 500
    config = IntegratorConfig(dt=dt, t_final=n_steps * dt, record_stride=500)
    psi0 = initial_state(InitialStateSpec(theta0=0.0), SPACE)
    traj = evolve_lindblad(lindblad_spec(OPEN, SPACE),
                           np.outer(psi0, psi0.conj()), config)
    fidelity = traj.states[-1][0, 0].real

    ok = (worst_trace < 1e-9 and worst_herm < 1e-9 and worst_eig > -1e-8
          and fidelity > 1 - 1e-6)
    report(3, ok,
           f"CPTP health along benchmark-rate trajectories (trace {worst_trace:.1e}, "
           f"herm {worst_herm:.1e}, min eig {worst_eig:.1e}) and ground-state "
           f"fidelity {fidelity:.9f} at t = 50/gamma")


def test_criterion_04_negativity_sin_law():
    sa = sector_analytics(RESONANT, 1)
    period = resonant_period()
    config = IntegratorConfig.for_periods(period, 3.0, 2000, 8)
    psi0 = initial_state(InitialStateSpec(theta0=0.0), SPACE)
    traj = evolve_closed(hamiltonian([RESONANT], SPACE)[0], psi0, config)

    # independent oracle: brute-force partial transpose of the analytic state
    def brute_negativity(t):
        half = sa.rabi_frequency * t / 2
        amp_e, amp_g = math.cos(half), -1j * math.sin(half)
        rho4 = np.zeros((4, 4), dtype=complex)  # basis g0,e0,g1,e1
        vec = np.array([0.0, amp_e, amp_g, 0.0])
        rho4 = np.outer(vec, vec.conj())
        pt = np.zeros_like(rho4)
        for n in range(2):
            for s in range(2):
                for m_ in range(2):
                    for u in range(2):
                        pt[2 * n + s, 2 * m_ + u] = rho4[2 * n + u, 2 * m_ + s]
        eigs = np.linalg.eigvalsh(pt)
        return float(-eigs[eigs < 0].sum())

    from kerrjc.information import negativity
    pipeline = negativity(traj.states, SPACE)
    law = np.abs(np.sin(sa.rabi_frequency * traj.times)) / 2
    worst_pipeline = np.abs(pipeline - law).max()
    worst_oracle = max(abs(brute_negativity(t) - abs(math.sin(sa.rabi_frequency * t)) / 2)
                       for t in traj.times[::25])
    report(4, worst_pipeline < 1e-7 and worst_oracle < 1e-12,
           f"closed resonant negativity follows |sin(Omega t)|/2 "
           f"(pipeline err {worst_pipeline:.2e}, oracle err {worst_oracle:.2e})")


def test_criterion_05_chi_shift_symmetry():
    grid = default_spec("negativity_delta").grid
    shifted = run_sweep(default_spec(
        "negativity_delta", base_params=replace(SweepSpec.base_params, delta=0.5, chi=0.5)))
    reference = run_sweep(default_spec(
        "negativity_delta", grid=tuple(g - 0.5 for g in grid),
        base_params=replace(SweepSpec.base_params, delta=0.0, chi=0.0)))
    a = np.array([(r[2], r[3]) for r in shifted.rows])
    b = np.array([(r[2], r[3]) for r in reference.rows])
    worst = np.abs(a - b).max()
    report(5, worst < 1e-9,
           f"negativity series at (Delta, chi=0.5) equals (Delta-0.5, chi=0) "
           f"across the default grid (max diff {worst:.2e})")


def test_criterion_06_geodesic_phase_and_pi_jumps():
    period = resonant_period()
    config = IntegratorConfig.for_periods(period, 3.0, 2000, 4)
    psi0 = initial_state(InitialStateSpec(theta0=math.pi), SPACE)  # |g,1>
    traj = evolve_closed(hamiltonian([RESONANT], SPACE)[0], psi0, config)
    phi_period = phase_unitary(traj, period)
    err = abs(phi_period - math.pi)

    phi, _, _ = phase_series(traj.states)
    omega = 2 * math.pi / period
    jumps = np.where(np.abs(np.diff(phi)) > 0.5)[0]
    jumps_ok = len(jumps) == 3
    for j in jumps:
        size = abs(phi[j + 1] - phi[j])
        t_mid = (traj.times[j] + traj.times[j + 1]) / 2
        k = round((omega * t_mid / math.pi - 1) / 2)
        jumps_ok &= abs(size - math.pi) < 0.05
        jumps_ok &= abs(omega * t_mid - (2 * k + 1) * math.pi) < 0.05
    report(6, err < 1e-6 and jumps_ok,
           f"geodesic unitary phase after one period is pi (err {err:.2e}); "
           f"{len(jumps)} pi-jumps localized at antipodal crossings")


def test_criterion_07_robustness_dichotomy(gp_sweeps_default):
    theta, delta, elapsed = gp_sweeps_default

    protected = [abs(r[5]) for r in delta.rows if abs(r[0] - 0.5) < 1e-9]
    protected += [abs(r[5]) for r in theta.rows if abs(r[0]) < 1e-12]
    prot_ok = len(protected) == 6 and max(protected) < 0.01

    off_ok = True
    for d in (2.5, -1.5):   # Delta - chi = +-2g
        vals = [abs(r[5]) for r in delta.rows if abs(r[0] - d) < 1e-9]
        off_ok &= len(vals) == 3 and min(vals) > 0.05
        off_ok &= bool((np.diff(vals) >= 0).all())

    report(7, prot_ok and off_ok and elapsed < 30.0,
           f"|dphi| < 0.01 on the resonant geodesic (max {max(protected):.1e}) "
           f"and > 0.05 rising with m off resonance; both sweeps in {elapsed:.1f}s")


def test_criterion_08_planarity_dichotomy():
    result = run_sweep(default_spec("bloch_traj"))
    rep = result.meta["planarity"]
    res = rep[("resonant", "eigvec")].max_off_plane
    off = rep[("off_resonant", "eigvec")].max_off_plane
    ok = (res < PLANARITY_THRESHOLD / 2 and off > 2 * PLANARITY_THRESHOLD
          and off > 2 * res)
    report(8, ok,
           f"tracked-eigenvector planarity {res:.1e} on resonance vs {off:.3f} "
           f"off resonance (threshold {PLANARITY_THRESHOLD})")


def test_criterion_09_formula_reduction():
    rng = np.random.default_rng(209)
    worst = 0.0
    for _ in range(20):
        params = ModelParams(delta=rng.uniform(-2, 2), chi=rng.uniform(-1, 1),
                             gamma=rng.uniform(0.02, 0.15),
                             p=rng.uniform(0.0, 0.05), p_z=rng.uniform(0.0, 0.03))
        init = InitialStateSpec(theta0=rng.uniform(0, 2 * math.pi),
                                phi0=rng.uniform(0, 2 * math.pi))
        period = 2 * math.pi / sector_analytics(params, 1).rabi_frequency
        config = IntegratorConfig.for_periods(period, 1.0, 1000, 4)
        psi0 = initial_state(init, SPACE)
        traj = evolve_lindblad(lindblad_spec(params, SPACE),
                               np.outer(psi0, psi0.conj()), config)
        track = track_dominant_eigenvector(traj)
        a = phase_open_pure(track, period)
        b = phase_open_general(traj, period)
        worst = max(worst, abs(a - b))
    report(9, worst < 1e-10,
           f"mixed-state phase reduces to the pure-start form on 20 random "
           f"open trajectories (max diff {worst:.2e})")


def test_criterion_10_grid_convergence(gp_sweeps_default,
                                       negativity_sweeps_default):
    theta, delta, _ = gp_sweeps_default
    neg_theta, neg_delta = negativity_sweeps_default

    def halved(kind, **overrides):
        spec = default_spec(kind, **overrides)
        return default_spec(kind, steps_per_period=2 * spec.steps_per_period,
                            record_stride=2 * spec.record_stride, **overrides)

    worst_phase = 0.0
    for base, fine in (
        (theta, run_sweep(halved("gp_theta"))),
        (delta, run_sweep(halved("gp_delta"))),
    ):
        a = np.array([r[5] for r in base.rows])
        b = np.array([r[5] for r in fine.rows])
        diff = np.abs(np.array([wrap_angle(x) for x in a - b]))
        worst_phase = max(worst_phase, diff.max())

    worst_neg = 0.0
    for base, fine in (
        (neg_theta, run_sweep(halved("negativity_theta"))),
        (neg_delta, run_sweep(halved("negativity_delta"))),
    ):
        a = np.array([(r[1], r[2], r[3]) for r in base.rows])
        b = np.array([(r[1], r[2], r[3]) for r in fine.rows])
        assert np.abs(a[:, 0] - b[:, 0]).max() < 1e-9  # identical recorded times
        worst_neg = max(worst_neg, np.abs(a[:, 1:] - b[:, 1:]).max())

    report(10, worst_phase < 1e-6 and worst_neg < 1e-8,
           f"halving dt moves dphi by {worst_phase:.2e} (< 1e-6 rad) and "
           f"negativity samples by {worst_neg:.2e} (< 1e-8)")
