import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrjc.dynamics import (
    IntegratorConfig,
    LindbladSpec,
    evolve_closed,
    evolve_lindblad,
)
from kerrjc.geomphase import (
    BranchTracker,
    TrackingError,
    track_dominant_eigenvector,
    wrap_angle,
)

from kerrjc.experiments import (
    KINDS,
    ConfigError,
    SweepSpec,
    default_spec,
    provenance_lines,
    run_sweep,
    write_sweep_csv,
)
from kerrjc.hilbert import reached_space
from kerrjc.information import PLANARITY_THRESHOLD, bloch_series, negativity, planarity
from kerrjc.model import (
    InitialStateSpec,
    ModelParams,
    collapse_operators,
    hamiltonian,
    initial_state,
    perpendicular_state,
    sector_analytics,
)
from oracles import (
    blocks_of,
    grid_index,
    lindblad_spec,
    phase_open_pure,
    phase_unitary,
    same_rows,
)

RESONANT = ModelParams(delta=0.5, chi=0.5)

SMALL_NEG = dict(periods=2.0, steps_per_period=1000, record_stride=8)
SMALL_GP = dict(steps_per_period=1000, record_stride=4)


def rows_for(result, value, col=0):
    return [r for r in result.rows if abs(r[col] - value) < 1e-9]


class TestSpecValidation:
    def test_kind_and_grid(self):
        with pytest.raises(ValueError):
            SweepSpec(kind="nope", grid=(0.0,), base_params=RESONANT)
        with pytest.raises(ValueError):
            SweepSpec(kind="gp_theta", grid=(), base_params=RESONANT)
        with pytest.raises(ValueError):
            SweepSpec(kind="gp_theta", grid=(0.0, 0.0), base_params=RESONANT)
        with pytest.raises(ValueError):
            SweepSpec(kind="gp_theta", grid=(0.0, 1.0), base_params=RESONANT,
                      m_values=(0,))
        with pytest.raises(ValueError, match="sweep.m_values"):
            SweepSpec(kind="gp_theta", grid=(0.0, 1.0), base_params=RESONANT,
                      m_values=(1, 2, 1))

    @pytest.mark.parametrize("kind", ["gp_theta", "gp_delta", "negativity_theta"])
    def test_empty_m_values_refused(self, kind):
        with pytest.raises(ConfigError, match="sweep.m_values"):
            run_sweep(default_spec(kind, m_values=(), grid=(0.0,)))

    def test_default_grids(self):
        assert len(default_spec("negativity_theta").grid) == 9
        assert default_spec("negativity_theta").grid[-1] == pytest.approx(math.pi / 2)
        assert len(default_spec("gp_theta").grid) == 64
        assert len(default_spec("gp_delta").grid) == 81

    def test_resonance_required(self):
        spec = default_spec("gp_theta", base_params=ModelParams(delta=1.0, chi=0.2))
        with pytest.raises(ValueError):
            run_sweep(spec)

    @pytest.mark.parametrize("kind, overrides, message", [
        ("negativity_theta", dict(base_params=ModelParams(delta=1.0, chi=0.2)), "resonance"),
        ("gp_theta", dict(base_params=ModelParams(delta=1.0, chi=0.2)), "resonance"),
        ("bloch_traj", dict(base_params=ModelParams(delta=1.0, chi=0.2)), "resonance"),
        ("negativity_theta", dict(grid=(0.0, 1.6)), r"\[0, pi/2\]"),
        ("negativity_theta", dict(grid=(-0.1, 1.0)), r"\[0, pi/2\]"),
        ("gp_theta", dict(grid=(0.0, 6.3)), r"\[0, 2\*pi\]"),
        ("gp_theta", dict(grid=(-0.1, 1.0)), r"\[0, 2\*pi\]"),
    ])
    def test_preconditions_refused_before_integrating(self, kind, overrides, message,
                                                      monkeypatch):
        import kerrjc.experiments as ex
        integrated = []
        for name in ("closed_blocks", "lindblad_blocks"):
            monkeypatch.setattr(ex, name, lambda *args, **kw: integrated.append(args))
        with pytest.raises(ValueError, match=message):
            run_sweep(default_spec(kind, **overrides))
        assert integrated == []


class TestOneRateSource:
    """The open legs' rates are the base model's: base_params holds H and the
    rates, and a bare ModelParams runs rate-free open legs."""

    def test_default_base_params_holds_the_default_rates(self):
        assert SweepSpec.base_params == ModelParams(0.5, 0.5, gamma=0.1, p_z=0.01)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_bare_base_params_means_no_rates(self, kind):
        spec = default_spec(kind, base_params=ModelParams(delta=0.5, chi=0.5))
        assert all(params == params.with_rates(0.0, 0.0, 0.0)
                   for _, params, _ in KINDS[kind].points(spec))


@pytest.fixture(scope="module")
def neg_theta_result():
    grid = (0.0, math.pi / 4, math.pi / 2)
    return run_sweep(default_spec("negativity_theta", grid=grid,
                                  **SMALL_NEG))


@pytest.fixture(scope="module")
def gp_theta_result():
    grid = (0.0, 0.7, math.pi / 2, 2 * math.pi - 0.7)
    return run_sweep(default_spec("gp_theta", grid=grid, m_values=(1,),
                                  **SMALL_GP))


class TestNegativityTheta:

    def test_geodesic_full_amplitude(self, neg_theta_result):
        result = neg_theta_result
        vals = np.array([r[2] for r in rows_for(result, 0.0)])
        assert vals.max() > 0.499 and vals.min() < 1e-6

    def test_eigenstate_constant_half(self, neg_theta_result):
        result = neg_theta_result
        vals = np.array([r[2] for r in rows_for(result, math.pi / 2)])
        assert np.abs(vals - 0.5).max() < 1e-9

    def test_amplitude_shrinks_and_mean_rises_with_theta(self, neg_theta_result):
        result = neg_theta_result
        amp, mean = {}, {}
        for theta in (0.0, math.pi / 4):
            vals = np.array([r[2] for r in rows_for(result, theta)])
            amp[theta] = vals.max() - vals.min()
            mean[theta] = vals.mean()
        assert amp[math.pi / 4] < amp[0.0]
        assert mean[math.pi / 4] > mean[0.0]

    def test_open_oscillations_damped(self, neg_theta_result):
        result = neg_theta_result
        t = np.array([r[1] for r in rows_for(result, 0.0)])
        vals = np.array([r[3] for r in rows_for(result, 0.0)])
        first = vals[t <= t[-1] / 2]
        last = vals[t > t[-1] / 2]
        assert last.max() < first.max()


class TestNegativityDelta:
    def test_bare_resonance_full_oscillation(self):
        spec = default_spec("negativity_delta", grid=(-2.0, 0.0, 2.0),
                            base_params=replace(SweepSpec.base_params, delta=0.0, chi=0.0),
                            **SMALL_NEG)
        result = run_sweep(spec)
        on_res = np.array([r[2] for r in rows_for(result, 0.0)])
        assert on_res.max() > 0.499 and on_res.min() < 1e-6

    def test_large_detuning_confined_high(self):
        spec = default_spec("negativity_delta", grid=(4.0,),
                            base_params=replace(SweepSpec.base_params, delta=0.0, chi=0.0),
                            **SMALL_NEG)
        vals = np.array([r[2] for r in run_sweep(spec).rows])
        assert vals.min() > 0.3

    def test_chi_shift_symmetry(self):
        grid = tuple(np.linspace(-2.0, 2.0, 5))
        shifted = run_sweep(default_spec(
            "negativity_delta", grid=grid,
            base_params=replace(SweepSpec.base_params, delta=0.5, chi=0.5), **SMALL_NEG))
        reference = run_sweep(default_spec(
            "negativity_delta", grid=tuple(g - 0.5 for g in grid),
            base_params=replace(SweepSpec.base_params, delta=0.0, chi=0.0), **SMALL_NEG))
        a = np.array([(r[2], r[3]) for r in shifted.rows])
        b = np.array([(r[2], r[3]) for r in reference.rows])
        assert np.abs(a - b).max() < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(chi=st.floats(-1.0, 1.0), start=st.floats(-4.0, 3.5),
           span=st.floats(0.05, 0.5), rates=st.tuples(*[st.floats(0.0, 0.3)] * 3))
    def test_chi_shift_symmetry_off_the_default_grid(self, chi, start, span, rates):
        # the Kerr term shifts sector 1 by chi (delta -> delta - chi) and
        # every channel leaves it for sector 0, so the negativities at
        # (delta, chi) equal those at (delta - chi, 0), on a short grid,
        # under random rates; the bound is criterion 5's, fixed beforehand
        grid = tuple(np.linspace(start, start + span, 3))
        shifted, reference = (run_sweep(default_spec(
            "negativity_delta", grid=values,
            base_params=ModelParams(delta=0.0, chi=c).with_rates(*rates), periods=1.0,
            record_stride=16))
            for values, c in ((grid, chi), (tuple(g - chi for g in grid), 0.0)))
        a = np.array([r[1:] for r in shifted.rows])
        b = np.array([r[1:] for r in reference.rows])
        assert a.shape == b.shape == (3 * 126, 3)
        assert np.abs(a - b).max() < 1e-9

    def test_wrapper_on_negativity_sees_the_sweep_calls(self, monkeypatch):
        # the reducers look negativity up as they run, so a wrapper bound to
        # experiments.negativity (as a tracer binds one) sees every state
        import kerrjc.experiments as ex
        spec = default_spec("negativity_delta", grid=(-1.0, 1.0), **SMALL_NEG)
        plain = run_sweep(spec).rows
        states = []
        monkeypatch.setattr(ex, "negativity", lambda rhos, space, real=ex.negativity:
                            states.append(len(rhos)) or real(rhos, space))
        assert same_rows(run_sweep(spec).rows, plain)
        assert sum(states) == 2 * len(plain)  # each point's closed and open records


class TestGpSweeps:

    def test_geodesic_protected(self, gp_theta_result):
        gp_theta = gp_theta_result
        row = rows_for(gp_theta, 0.0)[0]
        assert abs(row[5]) < 0.01
        assert row[8] == "ok"

    def test_eigenstate_angle_unitary_phase_zero(self, gp_theta_result):
        gp_theta = gp_theta_result
        row = rows_for(gp_theta, math.pi / 2)[0]
        assert abs(row[3]) < 1e-8   # phi_u

    def test_mirror_antisymmetry(self, gp_theta_result):
        gp_theta = gp_theta_result
        a = rows_for(gp_theta, 0.7)[0]
        b = rows_for(gp_theta, 2 * math.pi - 0.7)[0]
        assert abs(a[6] + b[6]) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(chi=st.floats(-1.0, 1.0), x=st.floats(0.05, 3.0))
    def test_delta_mirror_about_sector_one_resonance(self, chi, x):
        # the detunings chi + x and chi - x, equally far from sector 1's
        # resonance delta = chi, give opposite wrapped phase differences at
        # every m; the bound is the theta mirror's, fixed beforehand
        spec = default_spec("gp_delta", grid=(chi - x, chi + x),
                            base_params=replace(SweepSpec.base_params, delta=0.0, chi=chi),
                            **SMALL_GP)
        rows = run_sweep(spec).rows
        assert [row[8] for row in rows] == ["ok"] * 6
        for below, above in zip(rows[:3], rows[3:]):
            assert abs(wrap_angle(below[5] + above[5])) < 1e-9

    def test_rows_carry_omega_plus(self, gp_theta_result):
        gp_theta = gp_theta_result
        for row in gp_theta.rows:
            assert 0.0 < row[7] <= 1.0

    def test_gp_delta_dichotomy(self):
        spec = default_spec("gp_delta", grid=(-1.5, 0.5, 2.5), **SMALL_GP)
        result = run_sweep(spec)
        protected = [abs(r[5]) for r in rows_for(result, 0.5)]
        assert max(protected) < 0.01
        for delta in (-1.5, 2.5):
            off = [abs(r[5]) for r in rows_for(result, delta)]
            assert min(off) > 0.05
            assert (np.diff(off) >= 0).all()

    def test_unsorted_m_values_reorder_the_rows(self):
        # omega_plus and both chains are kept by checkpoint position, not
        # by the checkpoints' order in time
        spec = default_spec("gp_delta", grid=(-1.0, 0.5, 2.0), m_values=(1, 3), **SMALL_GP)
        rows = run_sweep(spec).rows
        swapped = run_sweep(replace(spec, m_values=(3, 1))).rows
        assert all(row[8] == "ok" for row in rows)
        assert swapped == [rows[i + j] for i in range(0, len(rows), 2) for j in (1, 0)]

    def test_zero_rates_zero_everywhere(self):
        spec = default_spec("gp_delta", grid=(-1.0, 0.5, 2.0), m_values=(1,),
                            base_params=SweepSpec.base_params.with_rates(0.0, 0.0, 0.0),
                            **SMALL_GP)
        result = run_sweep(spec)
        assert max(abs(r[5]) for r in result.rows) < 1e-9


class TestBlochTraj:
    def test_planarity_dichotomy(self):
        result = run_sweep(default_spec("bloch_traj", periods=3.0,
                                        steps_per_period=1000))
        rep = result.meta["planarity"]
        res = rep[("resonant", "eigvec")].max_off_plane
        off = rep[("off_resonant", "eigvec")].max_off_plane
        assert res < PLANARITY_THRESHOLD
        assert off > PLANARITY_THRESHOLD
        assert off > 2 * res

    def test_rows_and_planarity_equal_per_case_loop(self):
        spec = default_spec("bloch_traj")
        result = run_sweep(spec)
        rows, planarity_reports = per_case_bloch(spec)
        assert result.rows == rows
        assert result.meta["planarity"] == planarity_reports

    @pytest.mark.parametrize("block_records", [1, 7, 100])
    def test_rows_do_not_depend_on_block_length(self, block_records, monkeypatch):
        spec = default_spec("bloch_traj", periods=1.0, steps_per_period=1000)
        default = run_sweep(spec)
        for name in ("closed_blocks", "lindblad_blocks"):
            with_block_records(monkeypatch, name, block_records)
        result = run_sweep(spec)
        assert result.rows == default.rows
        assert result.meta == default.meta

    def test_zero_rates_series_coincide(self):
        spec = default_spec("bloch_traj", periods=1.0, steps_per_period=1000,
                            base_params=SweepSpec.base_params.with_rates(0.0, 0.0, 0.0))
        result = run_sweep(spec)
        for case in ("resonant", "off_resonant"):
            by_series = {
                name: np.array([r[3:6] for r in result.rows
                                if r[0] == case and r[1] == name])
                for name in ("unitary", "rho_proj", "eigvec")
            }
            assert np.abs(by_series["unitary"] - by_series["rho_proj"]).max() < 1e-9
            assert np.abs(by_series["unitary"] - by_series["eigvec"]).max() < 1e-9


class TestCsvAndWorkers:
    def test_csv_deterministic(self, tmp_path):
        spec = default_spec("gp_theta", grid=(0.0, 1.0), m_values=(1,), **SMALL_GP)
        result = run_sweep(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(result, p1, timestamp=None)
        write_sweep_csv(run_sweep(spec), p2, timestamp=None)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_provenance(self, tmp_path):
        spec = default_spec("gp_theta", grid=(0.0, 1.0), m_values=(1,), **SMALL_GP)
        lines = provenance_lines(spec, timestamp="2026-01-01T00:00:00")
        text = "\n".join(lines)
        assert "delta=0.5" in text and "gamma=0.1" in text
        assert "resonance" in text
        assert "written: 2026-01-01T00:00:00" in text
        path = tmp_path / "out.csv"
        write_sweep_csv(run_sweep(spec), path)
        header = [l for l in path.read_text().splitlines() if l.startswith("#")]
        assert any("steps_per_period" in l for l in header)

    def test_wrapped_column_is_wrap_of_raw(self, gp_theta_result):
        for row in gp_theta_result.rows:
            assert row[5] == pytest.approx(wrap_angle(row[6]), abs=1e-12)

    def test_invalid_rows_flagged_not_dropped(self):
        # a checkpoint forced onto the antipodal point must appear as flagged rows
        spec = default_spec("gp_theta", grid=(0.0, 1.0), m_values=(1,), **SMALL_GP)
        result = run_sweep(spec)
        assert len(result.rows) == 2
        assert all(r[8] in ("ok", "degraded", "singular", "tracking_error")
                   for r in result.rows)


def _per_point_legs(spec, theta, periods):
    """One grid point alone: its own H, Lindbladian and evolve_lindblad run."""
    params, space = spec.base_params, spec.space
    period = 2 * math.pi / sector_analytics(params, 1).rabi_frequency
    config = IntegratorConfig.for_periods(period, periods, spec.steps_per_period,
                                          spec.record_stride)
    psi0 = initial_state(InitialStateSpec(theta0=theta), space)
    closed = evolve_closed(hamiltonian([params], space)[0], psi0, config)
    opened = evolve_lindblad(lindblad_spec(params, space),
                             np.outer(psi0, psi0.conj()), config)
    return period, closed, opened


def per_point_gp_rows(spec):
    rows = []
    for theta in spec.grid:
        period, closed, opened = _per_point_legs(spec, theta, float(max(spec.m_values)))
        track = track_dominant_eigenvector(opened)
        for m in spec.m_values:
            tau = m * period
            phi_u, phi_g = phase_unitary(closed, tau), phase_open_pure(track, tau)
            rows.append((theta, m, tau, phi_u, phi_g, wrap_angle(phi_g - phi_u),
                         phi_g - phi_u, track.eigenvalues[grid_index(track.times, tau)]))
    return rows


def per_case_bloch(spec):
    """Rows and planarity reports of each bloch case run alone:
    evolve_closed, evolve_lindblad and track_dominant_eigenvector on whole
    trajectories, as bloch_traj ran before it was a sweep."""
    cases = (("resonant", spec.base_params),
             ("off_resonant", replace(spec.base_params, delta=2 * spec.base_params.g,
                                      chi=0.0)))
    space = spec.space
    rows, reports = [], {}
    for label, params in cases:
        sa = sector_analytics(params, 1)
        config = IntegratorConfig.for_periods(2 * math.pi / sa.rabi_frequency, spec.periods,
                                              spec.steps_per_period, spec.record_stride)
        psi0 = initial_state(perpendicular_state(params, 1), space)
        h = hamiltonian([params], space)[0]
        closed = evolve_closed(h, psi0, config)
        opened = evolve_lindblad(LindbladSpec(h, collapse_operators(params, space)),
                                 np.outer(psi0, psi0.conj()), config)
        track = track_dominant_eigenvector(opened)
        for name, states in (("unitary", closed.states), ("rho_proj", opened.states),
                             ("eigvec", track.vectors)):
            data = bloch_series(states, space)
            reports[(label, name)] = planarity(data[:, :3], np.array(sa.axis))
            rows += [(label, name, float(t), float(x), float(y), float(z), float(w))
                     for t, (x, y, z, w) in zip(closed.times, data)]
    return rows, reports


def per_point_neg_rows(spec):
    rows = []
    for theta in spec.grid:
        _, closed, opened = _per_point_legs(spec, theta, spec.periods)
        rows += zip([theta] * len(closed.times), closed.times,
                    negativity(closed.states, spec.space),
                    negativity(opened.states, spec.space))
    return rows


def with_block_records(monkeypatch, name, block_records):
    """Draw the sweeps' ``name`` generator in blocks of ``block_records``
    records, over the length it picks: the real generator, iterated under
    ``blocks_of`` for the points and the recorded width of each call."""
    import kerrjc.dynamics as dyn
    import kerrjc.experiments as ex
    real = getattr(dyn, name)

    def drawn(*args, **kwargs):
        # the initial states: psi0s (b, width) or rho0s (b, width, width)
        points, width = np.shape(args[1])[:2]
        with blocks_of(block_records, points, width):
            yield from real(*args, **kwargs)

    monkeypatch.setattr(ex, name, drawn)


GP_THETA_GRID = dict(grid=(0.0, 0.7, 2.0, 4.0), m_values=(1, 2), **SMALL_GP)
NEG_THETA_GRID = dict(grid=(0.0, 0.4, 1.1), **SMALL_NEG)
DELTA_GRID = dict(grid=(-1.5, -0.2, 0.5, 2.5), m_values=(1, 2), steps_per_period=500,
                  record_stride=4, periods=2.0)


class TestGroupedEngine:
    """Points advance together, block by block, each with its own open-leg
    generator, so every row is that of its point run alone, bit for bit."""

    @pytest.mark.parametrize("open_rates", [(0.1, 0.0, 0.01), (0.1, 0.05, 0.01)])
    def test_gp_theta_matches_per_point(self, open_rates):
        spec = default_spec("gp_theta",
                            base_params=SweepSpec.base_params.with_rates(*open_rates),
                            **GP_THETA_GRID)
        got = run_sweep(spec).rows
        want = per_point_gp_rows(spec)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[8] == "ok"
            assert g[:8] == w

    @pytest.mark.parametrize("open_rates", [(0.1, 0.0, 0.01), (0.1, 0.05, 0.01)])
    def test_negativity_theta_matches_per_point(self, open_rates):
        spec = default_spec("negativity_theta",
                            base_params=SweepSpec.base_params.with_rates(*open_rates),
                            **NEG_THETA_GRID)
        got = run_sweep(spec).rows
        assert got.dtype == np.float64 and got.shape == (3 * 251, 4)
        assert same_rows(got, np.array(per_point_neg_rows(spec)))

    @pytest.mark.parametrize("block_records", [1, 7, 100])
    def test_gp_rows_do_not_depend_on_block_length(self, block_records, monkeypatch):
        spec = default_spec("gp_theta", **GP_THETA_GRID)
        default = run_sweep(spec).rows
        with_block_records(monkeypatch, "lindblad_blocks", block_records)
        assert run_sweep(spec).rows == default

    @pytest.mark.parametrize("block_records", [1, 7, 100])
    def test_negativity_rows_do_not_depend_on_block_length(self, block_records,
                                                           monkeypatch):
        spec = default_spec("negativity_theta", **NEG_THETA_GRID)
        default = run_sweep(spec).rows
        with_block_records(monkeypatch, "lindblad_blocks", block_records)
        assert same_rows(run_sweep(spec).rows, default)

    @pytest.mark.parametrize("block_records", [1, 7, 100])
    @pytest.mark.parametrize("kind", ["gp_delta", "negativity_delta"])
    def test_delta_rows_do_not_depend_on_closed_block_length(self, kind, block_records,
                                                             monkeypatch):
        spec = default_spec(kind, **DELTA_GRID)
        default = run_sweep(spec).rows
        with_block_records(monkeypatch, "closed_blocks", block_records)
        assert same_rows(run_sweep(spec).rows, default)

    def test_closed_blocks_sized_by_the_reached_space(self, monkeypatch):
        # the closed reducers build reached-space matrices, so a closed
        # block holds BLOCK_ENTRIES // (points * 4 * 4) records whatever n_max
        import kerrjc.dynamics as dyn
        import kerrjc.experiments as ex
        shapes = []

        def recording(*args, **kwargs):
            for block in dyn.closed_blocks(*args, **kwargs):
                shapes.append(block[1].shape)
                yield block

        monkeypatch.setattr(ex, "closed_blocks", recording)
        run_sweep(default_spec("gp_theta", grid=(0.0, 1.0, 2.0), m_values=(1, 3),
                               n_max=10))
        # three periods of 2000 steps, recorded every fourth: 1501 records
        r = dyn.BLOCK_ENTRIES // (3 * 4 * 4)
        assert [shape[1] for shape in shapes] == [r, 1501 - r]
        assert shapes[0] == (3, r, 4)

    @pytest.mark.parametrize("kind,settings", [("gp_theta", GP_THETA_GRID),
                                               ("gp_delta", DELTA_GRID)])
    def test_tracking_failure_flags_only_its_point(self, kind, settings, monkeypatch):
        # the second point of a chunk of four fails in its second block
        spec = default_spec(kind, **settings)
        clean = run_sweep(spec).rows
        hit = with_ambiguity(monkeypatch, point=1, record=200)
        rows = run_sweep(spec).rows
        assert len(hit) == 1
        second = spec.grid[1]
        assert [r[8] for r in rows if r[0] == second] \
            == ["tracking_error"] * len(spec.m_values)
        assert [r for r in rows if r[0] != second] == [r for r in clean if r[0] != second]


def with_ambiguity(monkeypatch, point, record):
    """Run the sweeps' open legs with the start-sector eigenvectors of chunk
    point ``point`` made equal at record ``record``, an ambiguity that
    tracking must report there; returns the list that receives that sample's
    time."""
    import kerrjc.experiments as ex
    real_blocks, real_eigh, hit, block = ex.lindblad_blocks, ex.sector_eigh, [], {}

    def blocks(*args, **kwargs):  # each block of a chunk, with its first record
        seen = 0
        for times, states in real_blocks(*args, **kwargs):
            block.update(times=times, seen=seen)
            seen += times.shape[1]
            yield times, states

    def eigh(states, n0):
        w, v = real_eigh(states, n0)
        times, k = block["times"], record - block["seen"]
        if 0 <= k < times.shape[1]:
            v[point, k] = v[point, k][:, -1:]
            hit.append(times[point, k])
        return w, v

    monkeypatch.setattr(ex, "lindblad_blocks", blocks)
    monkeypatch.setattr(ex, "sector_eigh", eigh)
    return hit


CHUNK_SPECS = {
    "gp_delta": dict(grid=tuple(np.linspace(-2.0, 2.0, 9)), m_values=(1, 2),
                     steps_per_period=400, record_stride=4),
    "negativity_delta": dict(grid=tuple(np.linspace(-2.0, 2.0, 9)), periods=1.0,
                             steps_per_period=400, record_stride=8),
    "bloch_traj": dict(periods=1.0, steps_per_period=400),
}


class TestChunks:
    """Consecutive points advance both legs together, in chunks whose hops
    hold at most BLOCK_ENTRIES entries."""

    @pytest.mark.parametrize("points", [1, 2, 7, None])
    @pytest.mark.parametrize("kind", list(CHUNK_SPECS))
    def test_rows_do_not_depend_on_chunk_size(self, kind, points, monkeypatch):
        import kerrjc.experiments as ex
        spec = default_spec(kind, **CHUNK_SPECS[kind])
        default = run_sweep(spec)
        # a budget of `points` hops on the reached space; None puts every
        # point in one chunk
        budget = 1 << 40 if points is None else points * reached_space(1, spec.space).dim ** 4
        monkeypatch.setattr(ex, "BLOCK_ENTRIES", budget)
        result = run_sweep(spec)
        assert same_rows(result.rows, default.rows)
        assert result.meta == default.meta

    def test_hops_within_budget_unless_one_point(self, monkeypatch):
        import kerrjc.dynamics as dyn
        import kerrjc.experiments as ex
        chunks, closed = [], []

        def recording(specs, rho0s, *args, **kwargs):
            chunks.append(rho0s.shape)
            return dyn.lindblad_blocks(specs, rho0s, *args, **kwargs)

        def closed_recording(hs, psi0s, *args, **kwargs):
            closed.append(len(psi0s))
            return dyn.closed_blocks(hs, psi0s, *args, **kwargs)

        monkeypatch.setattr(ex, "lindblad_blocks", recording)
        monkeypatch.setattr(ex, "closed_blocks", closed_recording)
        delta = default_spec("gp_delta", grid=tuple(np.linspace(-2.0, 2.0, 13)),
                             m_values=(1,), steps_per_period=200)
        run_sweep(delta)
        run_sweep(default_spec("gp_theta", grid=(0.0, 1.0), m_values=(1,), n_max=10,
                               steps_per_period=200))
        # (points, d, d): the open legs run on the reached space, d = 4
        # whatever n_max, so the 13 δ points' 16² hops fit in one chunk, and
        # the two θ points at n_max 10 run on 4 x 4 states too
        assert chunks == [(13, 4, 4), (2, 4, 4)]
        # a budget of six hops makes chunks of six, and one below a single
        # hop leaves each point a chunk by itself; each chunk runs its
        # closed legs in one lockstep call, then its open legs
        for budget, want in ((6 * 4 ** 4, [6, 6, 1]), (4 ** 4 - 1, [1] * 13)):
            monkeypatch.setattr(ex, "BLOCK_ENTRIES", budget)
            chunks.clear()
            closed.clear()
            run_sweep(delta)
            assert [shape[0] for shape in chunks] == want
            assert closed == want

    def test_bloch_tracking_failure_aborts(self, monkeypatch):
        hit = with_ambiguity(monkeypatch, point=1, record=40)
        with pytest.raises(TrackingError) as exc:
            run_sweep(default_spec("bloch_traj", **CHUNK_SPECS["bloch_traj"]))
        assert len(hit) == 1
        assert str(exc.value).startswith(f"eigenvector overlap ambiguity at t={hit[0]:g}: ")
