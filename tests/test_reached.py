"""The open legs on the reached space against the full-space path.

Legs from sector n0 run on Fock levels 0..n0 (``hilbert.reached_space``).
The full truncated space, given to the same engine in its place, is the
oracle: on the default sweeps the rows are equal to the last bit, over
random parameters and truncations they agree to rounding, with the raw
phases equal modulo 2 pi (which branch rounding noise picks is not fixed),
and ``kerrjc evolve`` writes the same open trajectory up to the sign of
zero.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kerrjc.experiments as ex
from kerrjc.cli import main
from kerrjc.experiments import KINDS, default_spec, run_sweep
from kerrjc.geomphase import wrap_angle
from kerrjc.model import InitialStateSpec, ModelParams, perpendicular_state

from oracles import same_rows


@pytest.mark.parametrize("kind", list(KINDS))
def test_default_rows_equal_full_space_rows(kind, monkeypatch):
    reduced = run_sweep(default_spec(kind))
    monkeypatch.setattr(ex, "reached_space", lambda n0, space: space)
    full = run_sweep(default_spec(kind))
    if isinstance(reduced.rows, np.ndarray):  # a negativity kind's rows, bit for bit
        assert same_rows(reduced.rows, full.rows)
    else:
        template = KINDS[kind].template
        assert [template % r for r in reduced.rows] == [template % r for r in full.rows]
    assert reduced.meta == full.meta


@settings(max_examples=30, deadline=None)
@given(delta=st.floats(-3.0, 3.0), chi=st.floats(-1.0, 1.0),
       rates=st.tuples(*[st.floats(0.0, 0.3)] * 3), theta0=st.floats(0.0, 2 * math.pi),
       n_max=st.integers(2, 6))
def test_rows_agree_with_full_space(delta, chi, rates, theta0, n_max):
    params = ModelParams(delta=delta, chi=chi).with_rates(*rates)
    # two starts that share model parameters: the drawn angle and the great circle
    points = [(0.0, params, InitialStateSpec(theta0=theta0)),
              (1.0, params, perpendicular_state(params, 1))]
    for kind in ("gp_theta", "negativity_theta"):
        spec = default_spec(kind, m_values=(1, 2), periods=2.0, steps_per_period=200,
                            n_max=n_max)
        reduced = ex._point_rows(spec, KINDS[kind], points)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ex, "reached_space", lambda n0, space: space)
            full = ex._point_rows(spec, KINDS[kind], points)
        assert len(reduced) == len(full)
        if kind == "negativity_theta":  # (n, 4) float rows
            assert same_rows(reduced[:, :3], full[:, :3])
            assert np.abs(reduced[:, 3] - full[:, 3]).max() < 1e-12
            continue
        for r, f in zip(reduced, full):
            assert r[:4] == f[:4] or np.isnan(r[3])  # the closed legs are one path
            assert r[8] == f[8]
            if r[8] in ("ok", "degraded"):
                assert abs(r[7] - f[7]) < 1e-12
                assert abs(wrap_angle(r[5] - f[5])) < 1e-12
                for col in (4, 6):  # phi_g, delta_phi_raw
                    assert abs(wrap_angle(r[col] - f[col])) < 1e-12


@pytest.mark.parametrize("sets", [
    ["model.gamma=0.1", "model.p_z=0.01"],
    ["model.delta=-2", "model.gamma=0.3", "model.p=0.2", "model.p_z=0.05",
     "initial.perpendicular=true"],
    ["initial.n=2", "space.n_max=5", "model.gamma=0.2", "model.p=0.1", "initial.theta0=1"],
    # closed legs: no rate set
    ["initial.theta0=1.1"],
    ["initial.n=2", "space.n_max=3", "initial.theta0=2", "initial.phi0=0.7"],
    ["initial.n=3", "space.n_max=10", "initial.theta0=0.4", "model.chi=-0.3"],
    ["initial.n=1", "space.n_max=2", "initial.theta0=3"],
    ["model.delta=-2", "initial.perpendicular=true"],
])
def test_evolve_trajectory_equals_full_space(sets, tmp_path, monkeypatch):
    argv = ["evolve", "--no-timestamp", "--set", "integrator.steps_per_period=200",
            *(arg for s in sets for arg in ("--set", s))]
    assert main([*argv, "--out", str(tmp_path / "reduced")]) == 0
    monkeypatch.setattr(ex, "reached_space", lambda n0, space: space)
    assert main([*argv, "--out", str(tmp_path / "full")]) == 0
    # the zero padding prints 0 where the full-space run may print -0
    reduced, full = (re.sub(r"(?<=,)-0(?=[,\n])", "0",
                            (tmp_path / name / "trajectory.csv").read_text())
                     for name in ("reduced", "full"))
    assert reduced == full
