
import lzma
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrjc.cli import (
    SCHEMA,
    ConfigError,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_TRACKING,
    EXIT_TRUNCATION,
    build_config,
    main,
    parse_config,
    parse_config_text,
    serialize_config,
    sweep_spec_from_config,
)
from kerrjc.experiments import KINDS, default_spec, run_sweep

FAST_GP = [
    "--set", "integrator.steps_per_period=500",
    "--set", "sweep.m_values=1",
    "--set", "sweep.grid_start=0.0",
    "--set", "sweep.grid_stop=1.0",
    "--set", "sweep.grid_points=2",
]


class TestParsing:
    def test_minimal_defaults(self):
        config = parse_config("sweep.kind = gp_theta\n")
        assert config["sweep.kind"] == "gp_theta"
        assert config["model.delta"] == 0.5 and config["model.chi"] == 0.5
        assert config["integrator.steps_per_period"] == 2000
        assert config["sweep.m_values"] == (1, 2, 3)
        assert config["output.emit_svg"] is True

    def test_comments_and_blanks(self):
        text = "# a comment\n\nmodel.delta = 1.5\n"
        assert parse_config(text)["model.delta"] == 1.5

    def test_negative_rate_names_key(self):
        with pytest.raises(ConfigError, match="model.gamma"):
            parse_config("model.gamma = -0.1\n")

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*model.gama"):
            parse_config("model.delta = 1\nmodel.gama = 0.1\n")

    @pytest.mark.parametrize("argv, config, line", [
        (["--set", "foo=1"], None, "--set foo=1: unknown key 'foo'"),
        (["--set", "model.delta=1", "--set", " =3"], None, "--set  =3: empty key"),
        (["--set", "foo"], None, "--set foo: expected 'key = value', got 'foo'"),
        (["--set", "space.n_max=wide"], None, "--set space.n_max=wide: invalid value for "
         "space.n_max: invalid literal for int() with base 10: 'wide'"),
        ([], "model.delta = 1\nfoo = 1\n", "line 2: unknown key 'foo'"),
        ([], "model.delta = 1\n = 3\n", "line 2: empty key"),
    ], ids=["set-unknown", "set-empty", "set-no-equals", "set-bad-value", "file-unknown",
            "file-empty"])
    def test_errors_name_the_set_item_or_the_line(self, tmp_path, capsys, argv, config,
                                                   line):
        # a --set item is named as given, a config file entry by its line;
        # an empty key reads the same from both
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "run.cfg")]
        assert main(["validate-config", *argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: {line}\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("this is not a key value pair\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("model.delta = 1\nmodel.delta = 2\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="space.n_max"):
            parse_config("space.n_max = wide\n")

    def test_roundtrip(self):
        original = parse_config(
            "sweep.kind = gp_delta\nmodel.delta = 0.25\nmodel.chi = 0.75\n"
            "sweep.grid_start = -1\nsweep.grid_stop = 1\nsweep.grid_points = 5\n"
            "output.emit_svg = false\n")
        again = parse_config(serialize_config(original))
        assert again == original

    def test_resonance_noted_in_provenance(self):
        from kerrjc.experiments import provenance_lines
        config = parse_config("sweep.kind = gp_theta\nmodel.delta = 0.5\n"
                              "model.chi = 0.5\n")
        spec = sweep_spec_from_config(config)
        assert any("resonance" in line for line in provenance_lines(spec))

    def test_grid_override_requires_all_three(self):
        config = parse_config("sweep.kind = gp_delta\nsweep.grid_start = 0\n")
        with pytest.raises(ConfigError, match="together"):
            sweep_spec_from_config(config)

    def test_env_var_default_output(self, monkeypatch):
        monkeypatch.setenv("KERRJC_OUTPUT_DIR", "/tmp/kerrjc-env-test")
        config = parse_config("sweep.kind = gp_theta\n")
        assert config["output.dir"] == "/tmp/kerrjc-env-test"


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds).map(repr)


def _whole():
    return st.integers(1, 10**6).map(str)


_BOOL = st.sampled_from(["true", "false", "yes", "no", "on", "off", "1", "0", "TRUE"])
_RATE = _floats(min_value=0.0)
# raw text of each key; the text keys also draw arbitrary strings (newlines,
# surrounding whitespace, the empty string), which must be refused, and
# sweep.m_values may be empty
RAW_TEXT = {
    "model.delta": _floats(), "model.chi": _floats(),
    "model.g": _floats(min_value=0.0, exclude_min=True),
    "model.gamma": _RATE, "model.p": _RATE, "model.p_z": _RATE,
    "space.n_max": _whole(), "initial.theta0": _floats(), "initial.phi0": _floats(),
    "initial.n": _whole(), "initial.perpendicular": _BOOL,
    "integrator.steps_per_period": _whole(), "integrator.record_stride": _whole(),
    "integrator.periods": _floats(min_value=0.0, exclude_min=True),
    "sweep.kind": st.one_of(st.sampled_from(list(KINDS)), st.text()),
    "sweep.grid_start": _floats(), "sweep.grid_stop": _floats(),
    "sweep.grid_points": _whole(),
    "sweep.m_values": st.lists(st.integers(1, 50), max_size=4).map(
        lambda ms: ",".join(map(str, ms))),
    "sweep.open_gamma": _RATE, "sweep.open_p": _RATE, "sweep.open_p_z": _RATE,
    "sweep.workers": st.one_of(st.just("1"), _whole()),  # 1 is its one accepted value
    "output.dir": st.one_of(st.just("runs/a b"), st.text()),
    "output.emit_svg": _BOOL, "output.timestamp": _BOOL,
}


def test_raw_text_covers_schema():
    assert set(RAW_TEXT) == set(SCHEMA) and len(SCHEMA) == 26


@settings(max_examples=300, deadline=None)
@given(raw=st.fixed_dictionaries({}, optional=RAW_TEXT))
def test_config_round_trip(raw):
    """Any accepted config comes back equal from its canonical text; unset
    keys (the grid triple, record_stride, periods, ...) stay unset."""
    try:
        config = build_config({key: (text, 1) for key, text in raw.items()})
    except ConfigError as exc:
        assert any(key in str(exc) for key in ("sweep.kind", "output.dir", "sweep.m_values",
                                               "initial.theta0", "initial.phi0",
                                               "initial.n", "sweep.workers"))
        return
    assert parse_config(serialize_config(config)) == config


class TestDispatch:
    def test_sweep_writes_csv_and_svg(self, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", "--kind", "gp_theta", "--out", str(out),
                     "--no-timestamp", *FAST_GP])
        assert code == EXIT_OK
        csv = out / "gp_theta.csv"
        assert csv.exists()
        body = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
        assert body[0].startswith("param,m,tau")
        assert len(body) == 1 + 2  # header + 2 grid points x 1 m value
        assert (out / "gp_theta_delta_phi.svg").exists()

    def test_no_svg_flag(self, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", "--kind", "gp_theta", "--out", str(out),
                     "--no-svg", "--no-timestamp", *FAST_GP])
        assert code == EXIT_OK
        assert not list(out.glob("*.svg"))

    def test_rerun_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["sweep", "--kind", "gp_theta", "--out", str(out),
                         "--no-timestamp", *FAST_GP]) == EXIT_OK
        assert (out1 / "gp_theta.csv").read_bytes() == (out2 / "gp_theta.csv").read_bytes()
        assert (out1 / "gp_theta_delta_phi.svg").read_bytes() \
            == (out2 / "gp_theta_delta_phi.svg").read_bytes()

    def test_config_error_exit(self, tmp_path):
        assert main(["sweep", "--set", "model.gamma=-1",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert main(["sweep", "--out", str(tmp_path)]) == EXIT_CONFIG  # no kind

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["model.delta", "sweep.open_gamma", "integrator.periods",
                                     "sweep.grid_start"])
    def test_non_finite_value_rejected_before_integrating(self, tmp_path, capsys,
                                                          monkeypatch, key, value):
        import kerrjc.dynamics as dyn
        import kerrjc.experiments as ex
        integrated = []
        for module in (ex, dyn):
            for name in ("closed_blocks", "lindblad_blocks"):
                monkeypatch.setattr(module, name, lambda *args, **kw: integrated.append(args))
        for command in (["validate-config"], ["evolve"], ["sweep", "--kind", "gp_delta"]):
            code = main([*command, "--out", str(tmp_path), "--no-timestamp", "--no-svg",
                         "--set", f"{key}={value}"])
            assert code == EXIT_CONFIG
            assert key in capsys.readouterr().err
        assert integrated == []

    @pytest.mark.parametrize("setting", ["initial.theta0=7", "initial.theta0=-0.5",
                                         "initial.phi0=6.5", "initial.n=5"])
    def test_initial_state_out_of_range_names_key(self, tmp_path, capsys, setting):
        key = setting.partition("=")[0]
        for command in (["validate-config"], ["evolve"]):
            code = main([*command, "--out", str(tmp_path), "--no-timestamp",
                         "--set", setting])
            assert code == EXIT_CONFIG
            assert key in capsys.readouterr().err

    def test_initial_state_range_edges_accepted(self, capsys):
        assert main(["validate-config", "--set", "initial.theta0=6.283185307179586",
                     "--set", "initial.phi0=0", "--set", "initial.n=4",
                     "--set", "space.n_max=4"]) == EXIT_OK

    def test_repeated_m_rejected(self, tmp_path, capsys, monkeypatch):
        import kerrjc.experiments as ex
        integrated = []
        for name in ("closed_blocks", "lindblad_blocks"):
            monkeypatch.setattr(ex, name, lambda *args, **kw: integrated.append(args))
        for command in (["validate-config"], ["sweep", "--kind", "gp_delta"]):
            code = main([*command, "--out", str(tmp_path), "--no-timestamp",
                         "--set", "sweep.m_values=1,2,1"])
            assert code == EXIT_CONFIG
            assert "sweep.m_values" in capsys.readouterr().err
        assert integrated == []

    @pytest.mark.parametrize("command", [["sweep", "--kind", "gp_delta"], ["bloch"]])
    def test_sweep_start_sector_other_than_one_rejected(self, tmp_path, capsys,
                                                        monkeypatch, command):
        # sweeps start in sector 1: another initial.n is refused before
        # anything is integrated or written
        import kerrjc.experiments as ex
        integrated = []
        monkeypatch.setattr(ex, "closed_blocks", lambda *args, **kw: integrated.append(args))
        code = main([*command, "--out", str(tmp_path), "--no-timestamp",
                     "--set", "initial.n=2"])
        assert code == EXIT_CONFIG
        assert "initial.n" in capsys.readouterr().err
        assert integrated == []
        assert not list(tmp_path.iterdir())
        with pytest.raises(ConfigError, match="initial.n"):
            sweep_spec_from_config(parse_config("sweep.kind = gp_delta\ninitial.n = 3\n"))

    def test_coarse_grid_exit_names_keys(self, tmp_path, capsys):
        code = main(["sweep", "--kind", "gp_delta", "--out", str(tmp_path), "--no-svg",
                     "--set", "integrator.steps_per_period=4",
                     "--set", "integrator.record_stride=2",
                     "--set", "sweep.m_values=1",
                     "--set", "sweep.grid_start=0",
                     "--set", "sweep.grid_stop=1",
                     "--set", "sweep.grid_points=2"])
        assert code == EXIT_TRACKING
        err = capsys.readouterr().err
        assert "grid too coarse" in err
        assert "integrator.steps_per_period" in err and "integrator.record_stride" in err

    @pytest.mark.parametrize("argv", [
        # n_max = n puts the start sector's |g,n> amplitude on the top Fock level
        ["sweep", "--kind", "gp_delta", "--set", "space.n_max=1"],
        ["bloch", "--set", "space.n_max=1"],
        ["evolve", "--set", "space.n_max=1", "--set", "initial.theta0=1.0"],
        ["evolve", "--set", "initial.n=3", "--set", "space.n_max=3"],
        ["evolve", "--set", "initial.n=3", "--set", "space.n_max=3",
         "--set", "model.gamma=0.1"],
    ])
    def test_truncation_exit(self, tmp_path, capsys, monkeypatch, argv):
        import kerrjc.dynamics as dyn
        import kerrjc.experiments as ex
        integrated = []
        for module in (dyn, ex):
            for name in ("closed_blocks", "lindblad_blocks"):
                monkeypatch.setattr(module, name, lambda *args, **kw: integrated.append(args))
        code = main([*argv, "--out", str(tmp_path), "--no-timestamp"])
        assert code == EXIT_TRUNCATION
        assert "space.n_max" in capsys.readouterr().err
        assert integrated == []

    @pytest.mark.parametrize("argv", [
        ["evolve", "--set", "model.gamma=40"],
        ["sweep", "--kind", "gp_delta", "--set", "sweep.open_gamma=40",
         "--set", "integrator.record_stride=1"],
    ], ids=["evolve", "sweep"])
    def test_unstable_hop_exit(self, tmp_path, capsys, monkeypatch, argv):
        # ten RK4 steps per period are far too coarse for gamma = 40: the
        # 16 x 16 hop of the reached space is refused before its first product
        matmul, operands = np.matmul, []
        monkeypatch.setattr(np, "matmul", lambda *args, **kwargs:
                            operands.append(args[0].shape) or matmul(*args, **kwargs))
        code = main([*argv, "--out", str(tmp_path), "--no-timestamp",
                     "--set", "integrator.steps_per_period=10"])
        assert code == EXIT_TRACKING
        err = capsys.readouterr().err
        assert "RK4 hop amplifies" in err and "integrator.steps_per_period" in err
        assert not [shape for shape in operands if shape[-2:] == (16, 16)]

    def test_positivity_exit(self, tmp_path, capsys, monkeypatch):
        # ten RK4 steps per period are far too coarse for gamma = 40; with the
        # hop check off, the density checks still catch the blow-up
        import kerrjc.dynamics as dyn
        monkeypatch.setattr(dyn, "HOP_RADIUS_TOL", float("inf"))
        code = main(["evolve", "--out", str(tmp_path), "--no-timestamp",
                     "--set", "model.gamma=40",
                     "--set", "integrator.steps_per_period=10"])
        assert code == EXIT_TRACKING
        err = capsys.readouterr().err
        assert "trace drifted" in err
        assert "integrator.steps_per_period" in err and "model.gamma" in err

    def test_negativity_cross_check_exit(self, tmp_path, capsys, monkeypatch):
        # every sweep state is N-block-diagonal: the closed form checks it
        import kerrjc.information as info
        closed_form = info.block_trace_norm
        monkeypatch.setattr(info, "block_trace_norm",
                            lambda rhos, spec: closed_form(rhos, spec) + 1e-6)
        code = main(["sweep", "--kind", "negativity_theta", "--out", str(tmp_path),
                     "--no-timestamp", "--no-svg",
                     "--set", "integrator.steps_per_period=200",
                     "--set", "integrator.periods=1.0",
                     "--set", "sweep.grid_start=0.0",
                     "--set", "sweep.grid_stop=1.0",
                     "--set", "sweep.grid_points=2"])
        assert code == EXIT_TRACKING
        err = capsys.readouterr().err
        assert "negativity formulas disagree" in err
        assert "integrator.steps_per_period" in err

    def test_workers_other_than_one_refused_before_integrating(self, tmp_path, capsys,
                                                               monkeypatch):
        import kerrjc.experiments as ex
        integrated = []
        monkeypatch.setattr(ex, "closed_blocks", lambda *args, **kw: integrated.append(args))
        for value in ("2", "0"):
            code = main(["sweep", "--kind", "gp_delta", "--out", str(tmp_path),
                         "--no-timestamp", "--set", f"sweep.workers={value}"])
            assert code == EXIT_CONFIG
            assert "sweep.workers" in capsys.readouterr().err
        assert integrated == []
        assert main(["validate-config", "--set", "sweep.workers=1"]) == EXIT_OK
        assert "sweep.workers = 1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("setting", ["model.g=1e300", "model.chi=1e200", "model.g=1e-300"])
    @pytest.mark.parametrize("command", [["sweep", "--kind", "gp_delta"], ["evolve"]])
    def test_rabi_frequency_out_of_range_is_config_error(self, tmp_path, capsys,
                                                         monkeypatch, command, setting):
        # the period 2 pi / Omega of the start sector is 0 (an overflowing
        # Omega) or undefined (Omega = 0 on resonance)
        import kerrjc.dynamics as dyn
        import kerrjc.experiments as ex
        integrated = []
        for module in (dyn, ex):
            for name in ("closed_blocks", "lindblad_blocks"):
                monkeypatch.setattr(module, name, lambda *args, **kw: integrated.append(args))
        with np.errstate(all="ignore"):
            code = main([*command, "--out", str(tmp_path), "--no-timestamp", "--no-svg",
                         "--set", setting])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(key in err for key in ("model.g", "model.delta", "model.chi"))
        assert integrated == []

    @pytest.mark.parametrize("setting", ["model.g=1e300", "model.chi=1e200", "model.g=1e-300"])
    def test_rabi_frequency_out_of_range_prints_one_line(self, tmp_path, setting):
        # in a fresh process, numpy's over- and underflow warnings would
        # reach stderr ahead of the config error
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run(
            [sys.executable, "-c", "import sys; from kerrjc.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "evolve", "--out", str(tmp_path), "--set", setting],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == EXIT_CONFIG
        assert out.stderr.count("\n") == 1 and out.stderr.startswith("config error: ")

    @pytest.mark.parametrize("argv", [
        ["evolve", "--set", "model.gamma=1e300"],
        ["sweep", "--kind", "gp_delta", "--set", "sweep.open_gamma=1e300"],
    ], ids=["evolve", "sweep"])
    def test_non_finite_hop_exit(self, tmp_path, capsys, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(np.linalg, "eigvals", lambda *args: calls.append(args))
        with np.errstate(all="ignore"):
            code = main([*argv, "--out", str(tmp_path), "--no-timestamp", "--no-svg",
                         "--set", "sweep.grid_start=0", "--set", "sweep.grid_stop=1",
                         "--set", "sweep.grid_points=2", "--set", "sweep.m_values=1",
                         "--set", "integrator.steps_per_period=100"])
        assert code == EXIT_TRACKING
        err = capsys.readouterr().err
        assert "RK4 hop is not finite" in err and "integrator.steps_per_period" in err
        assert ("model.gamma" if argv[0] == "evolve" else "sweep.open_gamma") in err
        assert calls == []

    @pytest.mark.parametrize("command", [["sweep", "--kind", "gp_delta"], ["evolve"]])
    def test_memory_error_exit(self, tmp_path, capsys, monkeypatch, command):
        import kerrjc.experiments as ex

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(ex, "hamiltonian", exhausted)
        code = main([*command, "--out", str(tmp_path), "--no-timestamp", "--no-svg"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "space.n_max" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_io_error_exit(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory")
        out = blocker / "sub"
        assert main(["sweep", "--kind", "gp_theta", "--out", str(out),
                     "--no-timestamp", *FAST_GP]) == EXIT_IO

    def test_validate_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweep.kind = gp_delta\nmodel.delta = 0.7\n")
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_OK
        echoed = capsys.readouterr().out
        assert "model.delta = 0.69999999999999996" in echoed \
            or "model.delta = 0.7" in echoed
        assert parse_config(echoed)["model.delta"] == 0.7

    def test_validate_config_rejects_bad_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense\n")
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_CONFIG

    def test_evolve_writes_trajectory(self, tmp_path):
        out = tmp_path / "run"
        code = main(["evolve", "--out", str(out), "--no-timestamp",
                     "--set", "model.gamma=0.1",
                     "--set", "integrator.steps_per_period=200",
                     "--set", "integrator.periods=1.0"])
        assert code == EXIT_OK
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("t,re_00")
        assert len(lines) > 10

    def test_bloch_subcommand(self, tmp_path):
        out = tmp_path / "run"
        code = main(["bloch", "--out", str(out), "--no-timestamp",
                     "--set", "integrator.steps_per_period=500"])
        assert code == EXIT_OK
        assert (out / "bloch_traj.csv").exists()
        assert (out / "bloch_resonant.svg").exists()
        assert (out / "bloch_off_resonant.svg").exists()

    def test_bloch_prints_planarity(self, tmp_path, capsys):
        # after the `wrote` lines, one line per (case, series) Bloch path:
        # the planarity figure of the result's meta, in its order
        text = "integrator.steps_per_period = 500\nintegrator.periods = 1.0\n"
        (tmp_path / "bloch.conf").write_text(text)
        code = main(["bloch", "--config", str(tmp_path / "bloch.conf"),
                     "--out", str(tmp_path), "--no-timestamp"])
        assert code == EXIT_OK
        meta = run_sweep(sweep_spec_from_config(parse_config(
            "sweep.kind = bloch_traj\n" + text))).meta["planarity"]
        want = [f"planarity {case} {series}: {report.max_off_plane:.3e}"
                for (case, series), report in meta.items()]
        lines = capsys.readouterr().out.splitlines()
        assert len(want) == 6
        assert lines[-6:] == want
        assert all(line.startswith("wrote ") for line in lines[:-6])

    def test_bloch_tracking_error_exit(self, tmp_path, capsys, monkeypatch):
        # every overlap gap is below a tolerance above 1: the first tracked
        # sample is ambiguous, and nothing is written
        import kerrjc.geomphase as gp
        monkeypatch.setattr(gp, "AMBIGUITY_TOL", 2.0)
        code = main(["bloch", "--out", str(tmp_path / "run"), "--no-timestamp",
                     "--set", "integrator.steps_per_period=500"])
        assert code == EXIT_TRACKING
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("tracking error: eigenvector overlap ambiguity")
        assert "integrator.steps_per_period" in err[0]
        assert not (tmp_path / "run").exists()

    def test_set_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.delta = 0.1\nsweep.kind = gp_theta\n")
        assert main(["validate-config", "--config", str(cfg),
                     "--set", "model.delta=0.9"]) == EXIT_OK
        assert parse_config(capsys.readouterr().out)["model.delta"] == 0.9

    @pytest.mark.parametrize("setting", ["integrator.steps_per_period=2001",
                                         "integrator.record_stride=3"])
    def test_off_grid_checkpoint_rejected_before_integrating(self, tmp_path, capsys,
                                                             monkeypatch, setting):
        import kerrjc.experiments as ex
        integrated = []
        for name in ("closed_blocks", "lindblad_blocks"):
            monkeypatch.setattr(ex, name, lambda *args, **kw: integrated.append(args))
        code = main(["sweep", "--kind", "gp_delta", "--out", str(tmp_path),
                     "--no-timestamp", "--set", setting])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        for key in ("integrator.steps_per_period", "integrator.record_stride",
                    "sweep.m_values"):
            assert key in err
        assert integrated == []

    @pytest.mark.parametrize("command", [["validate-config", "--set", "sweep.kind=nope"],
                                         ["sweep", "--set", "sweep.kind=nope"],
                                         ["sweep", "--kind", "nope"],
                                         ["evolve", "--set", "sweep.kind=nope"]])
    def test_unknown_kind_names_key(self, tmp_path, capsys, monkeypatch, command):
        import kerrjc.experiments as ex
        integrated = []
        for name in ("closed_blocks", "lindblad_blocks"):
            monkeypatch.setattr(ex, name, lambda *args, **kw: integrated.append(args))
        assert main([*command, "--out", str(tmp_path), "--no-timestamp"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sweep.kind" in err and "'nope'" in err and "gp_delta" in err
        assert integrated == []

    def test_command_kind_wins_over_config(self, tmp_path, capsys):
        # `bloch` and --kind are applied before the kind is checked
        assert main(["validate-config", "--set", "sweep.kind=gp_theta"]) == EXIT_OK
        assert main(["bloch", "--set", "sweep.kind=nope", "--out", str(tmp_path),
                     "--no-svg", "--no-timestamp", "--set", "integrator.periods=0.5",
                     "--set", "integrator.steps_per_period=200"]) == EXIT_OK
        assert (tmp_path / "bloch_traj.csv").exists()

    @pytest.mark.parametrize("command,key", [
        (["sweep", "--kind", "gp_theta", "--set", "model.delta=1.0"], "model.delta"),
        (["bloch", "--set", "integrator.periods=0.0001"], "integrator.periods")])
    def test_kind_precondition_is_config_error(self, tmp_path, capsys, monkeypatch,
                                               command, key):
        import kerrjc.experiments as ex
        integrated = []
        for name in ("closed_blocks", "lindblad_blocks"):
            monkeypatch.setattr(ex, name, lambda *args, **kw: integrated.append(args))
        code = main([*command, "--out", str(tmp_path), "--no-timestamp"])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert integrated == []

    @pytest.mark.parametrize("name", ["closed_blocks", "lindblad_blocks"])
    def test_internal_value_error_exit(self, tmp_path, capsys, monkeypatch, name):
        # a ValueError from the engine is a fault of the program, not of the
        # config: exit 3, reported without a traceback
        import kerrjc.experiments as ex

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(ex, name, broken)
        code = main(["sweep", "--kind", "gp_delta", "--out", str(tmp_path),
                     "--no-timestamp", "--no-svg", "--set", "sweep.grid_points=2",
                     "--set", "sweep.grid_start=0", "--set", "sweep.grid_stop=1"])
        assert code == EXIT_TRACKING
        err = capsys.readouterr().err
        assert err == "internal error: operands could not be broadcast together\n"

    def test_explicit_record_stride_wins(self, tmp_path):
        default = sweep_spec_from_config(parse_config("sweep.kind = negativity_delta\n"))
        assert default.record_stride == 16
        code = main(["sweep", "--kind", "negativity_delta", "--out", str(tmp_path),
                     "--no-timestamp", "--no-svg",
                     "--set", "integrator.record_stride=8",
                     "--set", "integrator.steps_per_period=200",
                     "--set", "integrator.periods=1.0",
                     "--set", "sweep.grid_start=0.0",
                     "--set", "sweep.grid_stop=1.0",
                     "--set", "sweep.grid_points=2"])
        assert code == EXIT_OK
        lines = (tmp_path / "negativity_delta.csv").read_text().splitlines()
        assert any("record_stride=8 " in line for line in lines if line.startswith("#"))
        assert len([line for line in lines if line[0].isdigit() or line[0] == "-"]) \
            == 2 * (200 // 8 + 1)

    def test_explicit_periods_win(self, tmp_path):
        default = sweep_spec_from_config(parse_config("sweep.kind = bloch_traj\n"))
        assert default.periods == 3.0
        code = main(["bloch", "--out", str(tmp_path), "--no-timestamp", "--no-svg",
                     "--set", "integrator.periods=2",
                     "--set", "integrator.steps_per_period=500"])
        assert code == EXIT_OK
        header = [line for line in (tmp_path / "bloch_traj.csv").read_text().splitlines()
                  if line.startswith("# integrator:")]
        assert header == ["# integrator: steps_per_period=500 record_stride=4 periods=2"]


@pytest.mark.parametrize("kind", list(KINDS))
def test_default_spec_is_the_cli_default(kind):
    # the package's default sweep of a kind is the one `kerrjc sweep` runs
    assert default_spec(kind) == sweep_spec_from_config(parse_config(f"sweep.kind = {kind}\n"))


def test_import_leaves_the_process_pool_unloaded():
    # sweeps run in one process, so nothing loads multiprocessing, whose
    # modules would add a third to the package's import time
    probe = "import sys, kerrjc.cli; print('multiprocessing' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.mark.parametrize("kind", ["gp_delta", "negativity_delta"])
def test_default_sweep_matches_reference_bytes(tmp_path, kind):
    """The default sweep's CSV equals, byte for byte, the reference the
    benchmark checks against (made from the first version of the package)."""
    assert main(["sweep", "--kind", kind, "--no-timestamp", "--set", "sweep.workers=1",
                 "--no-svg", "--out", str(tmp_path)]) == EXIT_OK
    want = lzma.decompress((REFERENCE / f"{kind}.csv.xz").read_bytes())
    assert (tmp_path / f"{kind}.csv").read_bytes() == want
