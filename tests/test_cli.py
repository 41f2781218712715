
import hashlib
import lzma
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrjc.cli import (
    ENV_OUTPUT_DIR,
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
from kerrjc.experiments import KINDS, SweepSpec, default_spec, run_sweep

HUGE = "1" + "0" * 399  # 400 digits: above every integer key's bound and every float

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

    def test_sweep_rates_are_the_model_keys(self):
        # a sweep runs its open legs at the model.* rates it sets, and at
        # the default spec's for the others
        spec = sweep_spec_from_config(parse_config(
            "sweep.kind = gp_delta\nmodel.gamma = 0\nmodel.p = 0.05\n"))
        assert spec.base_params == SweepSpec.base_params.with_rates(0.0, 0.05, 0.01)

    def test_rates_unset_until_a_command_reads_them(self):
        # each command has its own default rates, so the config leaves them unset
        config = parse_config("")
        assert [config[f"model.{rate}"] for rate in ("gamma", "p", "p_z")] == [None] * 3
        assert "model.gamma" not in serialize_config(config)

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


def fresh_main(*argv):
    """``kerrjc.cli.main(argv)`` run in a fresh Python process on this
    checkout's package: its CompletedProcess, with stdout and stderr as text."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run(
        [sys.executable, "-c", "import sys; from kerrjc.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True, timeout=60)


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
    "sweep.workers": st.one_of(st.just("1"), _whole()),  # 1 is its one accepted value
    "output.dir": st.one_of(st.just("runs/a b"), st.text()),
    "output.emit_svg": _BOOL, "output.timestamp": _BOOL,
}


def test_raw_text_covers_schema():
    assert set(RAW_TEXT) == set(SCHEMA) and len(SCHEMA) == 23


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

    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--kind", "gp_delta", "--out", ""], "--out"),
        (["bloch", "--out", ""], "--out"),
        (["evolve", "--out", ""], "--out"),
        (["validate-config", "--config", ""], "--config"),
        (["sweep", "--config", "", "--kind", "gp_delta"], "--config"),
        (["sweep", "--kind", "", "--set", "sweep.kind=gp_delta"], "--kind"),
    ], ids=["sweep-out", "bloch-out", "evolve-out", "validate-config", "sweep-config",
            "kind"])
    def test_empty_flag_is_config_error(self, tmp_path, capsys, monkeypatch, argv, flag):
        # a flag given empty is refused, not skipped: skipped, `--out ""`
        # wrote to runs/, `--config ""` ran the defaults and `--kind ""` ran
        # the kind that --set gave
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
        assert main([*argv, "--no-timestamp"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"config error: {flag} is empty: give it a value or leave it out\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["model.delta", "model.gamma", "integrator.periods",
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

    @pytest.mark.parametrize("setting,command", [
        (setting, command) for setting, commands in [
            (f"space.n_max={HUGE}", ("evolve", "sweep", "bloch")),
            (f"initial.n={HUGE}", ("evolve",)),
            (f"integrator.steps_per_period={HUGE}", ("evolve", "sweep", "bloch")),
            (f"integrator.record_stride={HUGE}", ("evolve", "sweep", "bloch")),
            (f"sweep.grid_points={HUGE}", ("sweep",)),
            (f"sweep.m_values=1,{HUGE}", ("sweep",)),
            (f"sweep.workers={HUGE}", ("sweep",))]
        for command in ("validate-config", *commands)],
        ids=lambda v: v.partition("=")[0])
    def test_integer_key_above_its_bound_is_refused(self, tmp_path, capsys, monkeypatch,
                                                    setting, command):
        # a 400-digit integer is a config error naming its key, refused before
        # it meets a float (an OverflowError) or an array size (a ValueError)
        key = setting.partition("=")[0]
        argv = ["sweep", "--kind", "gp_delta"] if command == "sweep" else [command]
        if key == "sweep.grid_points":
            argv += ["--set", "sweep.grid_start=0", "--set", "sweep.grid_stop=1"]
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
        assert main([*argv, "--set", setting]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"config error: {key} must ") and "at most" in err
        assert not any(tmp_path.iterdir())

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

    @pytest.mark.parametrize("kind", ["gp_delta", "gp_theta"])
    def test_one_record_per_period_refused_before_integrating(self, tmp_path, capsys,
                                                              monkeypatch, kind):
        # records one Rabi period apart hold one state: every consecutive
        # overlap is 1, and the chain would write phases of 0 flagged ok
        import kerrjc.dynamics as dyn
        import kerrjc.experiments as ex
        integrated = []
        for module in (dyn, ex):
            for name in ("closed_blocks", "lindblad_blocks"):
                # each spy runs its leg, so a sweep that is not refused completes
                monkeypatch.setattr(module, name, lambda *args, real=getattr(module, name),
                                    **kw: integrated.append(args) or real(*args, **kw))
        out = tmp_path / "out"
        code = main(["sweep", "--kind", kind, "--out", str(out), "--no-timestamp",
                     "--set", "integrator.record_stride=2000"])
        assert code == EXIT_TRACKING
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("tracking error:")
        for text in ("grid too coarse", "integrator.steps_per_period",
                     "integrator.record_stride"):
            assert text in err[0]
        assert not out.exists()
        assert integrated == []

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
        ["sweep", "--kind", "gp_delta", "--set", "model.gamma=40",
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
        out = fresh_main("evolve", "--out", str(tmp_path), "--set", setting)
        assert out.returncode == EXIT_CONFIG
        assert out.stderr.count("\n") == 1 and out.stderr.startswith("config error: ")

    def test_overflowing_grid_span_is_config_error(self, tmp_path):
        # np.linspace over a span that overflows a float would warn and give
        # non-finite grid values: refused first, naming both grid ends, with
        # one stderr line in a fresh process and nothing written
        out = fresh_main("sweep", "--kind", "gp_delta", "--out", str(tmp_path),
                         "--set", "sweep.grid_start=-1e308", "--set", "sweep.grid_stop=1e308",
                         "--set", "sweep.grid_points=2")
        assert out.returncode == EXIT_CONFIG
        assert out.stderr.count("\n") == 1 and out.stderr.startswith("config error: ")
        assert "sweep.grid_start" in out.stderr and "sweep.grid_stop" in out.stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["evolve", "--set", "model.g=1e-150"],
        ["sweep", "--kind", "gp_theta", "--set", "model.g=1e-150"],
        ["evolve", "--set", "model.g=1e-60"],
        ["sweep", "--kind", "gp_theta", "--set", "model.g=1e-60"],
        ["evolve", "--set", "model.gamma=1e300"],
        ["evolve", "--set", "model.g=1e-60", "--set", "model.gamma=0.1"],
    ], ids=["closed-evolve", "closed-sweep", "closed-evolve-norm", "closed-sweep-norm",
            "open-evolve", "open-evolve-scale"])
    def test_non_finite_step_prints_one_line(self, tmp_path, argv):
        # a Rabi period of ~3e150 (or a rate of 1e300) overflows the RK4
        # polynomial: refused before the first product; at ~3e60 the step is
        # finite and the first block's norms overflow: refused before it is
        # reduced; with a rate, that coupling's time step overflows the open
        # hop first, and the message names the model scale beside the rates.
        # In a fresh process no overflow warning reaches stderr
        # ahead of the error, and nothing is written
        out = fresh_main(*argv, "--out", str(tmp_path))
        assert out.returncode == EXIT_TRACKING
        assert out.stderr.count("\n") == 1 and out.stderr.startswith("numerical error: ")
        assert "integrator.steps_per_period" in out.stderr
        assert not any(tmp_path.iterdir())
        if argv[-1].startswith("model.g="):  # a closed leg: no rate takes part
            assert all(key in out.stderr for key in ("model.g,", "model.delta", "model.chi"))
            assert not any(rate in out.stderr for rate in ("gamma", "model.p", "open_"))
        else:  # an open leg's hop: the rates and the model scale both take part
            assert all(key in out.stderr for key in ("model.gamma", "model.g,", "model.delta",
                                                      "model.chi"))

    @pytest.mark.parametrize("argv", [
        ["evolve"],
        ["sweep", "--kind", "gp_delta", "--set", "sweep.grid_start=0",
         "--set", "sweep.grid_stop=1", "--set", "sweep.grid_points=2",
         "--set", "sweep.m_values=1"],
    ], ids=["evolve", "sweep"])
    def test_non_finite_hop_exit(self, tmp_path, capsys, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(np.linalg, "eigvals", lambda *args: calls.append(args))
        code = main([*argv, "--out", str(tmp_path), "--no-timestamp", "--no-svg",
                     "--set", "model.gamma=1e300", "--set", "integrator.steps_per_period=100"])
        assert code == EXIT_TRACKING
        err = capsys.readouterr().err
        assert "RK4 hop is not finite" in err and "integrator.steps_per_period" in err
        assert all(key in err for key in ("model.gamma", "model.g,", "model.delta",
                                          "model.chi"))
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
        (["bloch", "--set", "integrator.periods=0.0001"], "integrator.periods"),
        # a δ sweep takes δ from its grid and would ignore model.delta
        *((["sweep", "--kind", kind, "--set", "model.delta=3"],
           "model.delta,sweep.grid_start,sweep.grid_stop")
          for kind in ("gp_delta", "negativity_delta")),
        # a gp sweep runs max(sweep.m_values) periods and would ignore
        # integrator.periods
        *((["sweep", "--kind", kind, "--set", f"integrator.periods={periods}"],
           "integrator.periods,sweep.m_values")
          for kind, periods in (("gp_delta", 10), ("gp_theta", 1)))])
    def test_kind_precondition_is_config_error(self, tmp_path, capsys, monkeypatch,
                                               command, key):
        import kerrjc.experiments as ex
        integrated = []
        for name in ("closed_blocks", "lindblad_blocks"):
            monkeypatch.setattr(ex, name, lambda *args, **kw: integrated.append(args))
        code = main([*command, "--out", str(tmp_path), "--no-timestamp"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(name in err for name in key.split(","))
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

    @pytest.mark.parametrize("argv", [["sweep", "--bogus"], [], ["sweep", "--kind"]],
                             ids=["unknown flag", "no command", "flag without value"])
    def test_usage_error_is_one_config_error_line(self, tmp_path, capsys, monkeypatch, argv):
        # a command line that argparse refuses exits 1 like any config error,
        # with one stderr line and nothing written, not argparse's usage and 2
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
        assert main(argv) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("config error: ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0 and capsys.readouterr().out

    @pytest.mark.parametrize("command,setting,key", [
        (["evolve"], "integrator.periods=1e300", "integrator.periods"),
        (["evolve"], "integrator.periods=1e7", "integrator.periods"),
        (["sweep", "--kind", "negativity_delta"], "integrator.periods=1e7", "integrator.periods"),
        (["sweep", "--kind", "gp_delta"], "sweep.m_values=10000000", "sweep.m_values"),
        (["bloch"], "integrator.periods=1e7", "integrator.periods")],
        ids=["evolve-1e300", "evolve-1e7", "negativity_delta", "gp_delta", "bloch"])
    def test_step_bound_refused_before_any_grid(self, tmp_path, capsys, monkeypatch, command,
                                                setting, key):
        # a leg of more steps than IntegratorConfig gives back exactly is a
        # config error that names the keys setting its length, refused before
        # any grid is built and with nothing written
        import kerrjc.experiments as ex
        built = []
        monkeypatch.setattr(ex, "leg_grid", lambda *args: built.append(args))
        code = main([*command, "--out", str(tmp_path), "--set", setting])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: a leg of ") and err.count("\n") == 1
        assert key in err and "integrator.steps_per_period" in err
        assert built == [] and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("stride,refused", [(1, False), (3, True)])
    def test_step_bound_reads_the_stride_rounded_count(self, tmp_path, monkeypatch, stride,
                                                       refused):
        # 2**29 periods of 2 steps are MAX_STEPS steps, which stride 1 keeps
        # and stride 3 rounds up to MAX_STEPS + 2
        import kerrjc.experiments as ex

        def spy(*args):
            raise _Seen

        monkeypatch.setattr(ex, "leg_grid", spy)
        argv = ["evolve", "--out", str(tmp_path), "--set", f"integrator.periods={2 ** 29}",
                "--set", "integrator.steps_per_period=2",
                "--set", f"integrator.record_stride={stride}"]
        if refused:
            assert main(argv) == EXIT_CONFIG
        else:
            with pytest.raises(_Seen):
                main(argv)

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


# each key that a kind does not read, at a valid value away from its default
EVOLVE_ONLY = ["initial.theta0=1", "initial.phi0=1", "initial.n=2",
               "initial.perpendicular=true"]
UNREAD = {
    "negativity_theta": [*EVOLVE_ONLY, "sweep.m_values=7"],
    "negativity_delta": [*EVOLVE_ONLY, "model.delta=3", "sweep.m_values=7"],
    "gp_theta": [*EVOLVE_ONLY, "integrator.periods=10"],
    "gp_delta": [*EVOLVE_ONLY, "model.delta=3", "integrator.periods=10"],
    "bloch_traj": [*EVOLVE_ONLY, "sweep.m_values=7", "sweep.grid_start=0",
                   "sweep.grid_stop=1", "sweep.grid_points=3"],
}
# the other keys, at valid values away from their defaults (the grid keys
# go together); sweep.kind and sweep.workers are left out: a sweep reads
# both, and sweep.workers takes only its default
READ = [["model.delta=0.7"], ["model.chi=0.7"], ["model.g=2"], ["space.n_max=6"],
        ["integrator.steps_per_period=1000"], ["integrator.record_stride=8"],
        ["integrator.periods=2"],
        ["sweep.grid_start=0.1", "sweep.grid_stop=0.2", "sweep.grid_points=3"],
        ["sweep.m_values=2,4"], ["model.gamma=0.3"], ["model.p=0.2"],
        ["model.p_z=0.05"], ["output.dir=elsewhere"], ["output.emit_svg=false"],
        ["output.timestamp=false"]]


def _key(setting: str) -> str:
    return setting.partition("=")[0]


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_key_is_read_or_refused(kind):
    read = {_key(item) for items in READ for item in items}
    assert read | {_key(s) for s in UNREAD[kind]} | {"sweep.kind", "sweep.workers"} \
        == set(SCHEMA)


@pytest.mark.parametrize("kind,setting", [(kind, setting) for kind, settings in UNREAD.items()
                                          for setting in settings])
def test_sweep_refuses_a_key_its_kind_does_not_read(tmp_path, capsys, monkeypatch, kind,
                                                     setting):
    # set away from its default, a key the sweep would drop is a config
    # error that names it, raised before anything is integrated or written
    import kerrjc.dynamics as dyn
    import kerrjc.experiments as ex
    integrated = []
    for module in (dyn, ex):
        for name in ("closed_blocks", "lindblad_blocks"):
            monkeypatch.setattr(module, name, lambda *args, **kw: integrated.append(args))
    command = ["bloch"] if kind == "bloch_traj" else ["sweep", "--kind", kind]
    code = main([*command, "--out", str(tmp_path), "--no-timestamp", "--set", setting])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {kind} does not read {_key(setting)}: leave it ")
    assert integrated == [] and not any(tmp_path.iterdir())


@pytest.mark.parametrize("kind,items", [
    (kind, items) for kind in KINDS for items in READ
    if not {_key(item) for item in items} & {_key(s) for s in UNREAD[kind]}])
def test_sweep_accepts_the_keys_its_kind_reads(kind, items):
    raw = {_key(item): (item.partition("=")[2], "--set") for item in items}
    sweep_spec_from_config(build_config({"sweep.kind": (kind, "--kind"), **raw}))


@pytest.mark.parametrize("kind,setting", [(kind, setting) for kind in KINDS for setting in
                                          ["model.gamma=0.3", "model.p=0.2", "model.p_z=0.05"]])
def test_sweep_reads_the_model_rates(tmp_path, monkeypatch, kind, setting):
    # every kind's open legs run at the model.* rate set, the other two
    # rates kept at the default spec's
    import kerrjc.experiments as ex
    seen = []

    def spy(params, *args):
        seen.append(params)
        raise _Seen

    monkeypatch.setattr(ex, "leg_setup", spy)
    command = ["bloch"] if kind == "bloch_traj" else ["sweep", "--kind", kind]
    with pytest.raises(_Seen):
        main([*command, "--out", str(tmp_path), "--no-timestamp", "--set", setting])
    key, _, value = setting.partition("=")
    want = replace(default_spec(kind).base_params, **{key.removeprefix("model."): float(value)})
    assert {(p.gamma, p.p, p.p_z) for p in seen[0]} == {(want.gamma, want.p, want.p_z)}


@pytest.mark.parametrize("kind", list(KINDS))
def test_sweep_accepts_unread_keys_at_their_defaults(kind):
    # a key set to its default changes nothing, so it is not refused
    at_default = ["initial.theta0=0", "initial.phi0=0", "initial.n=1",
                  "initial.perpendicular=false", "model.delta=0.5", "sweep.m_values=1,2,3"]
    raw = {_key(item): (item.partition("=")[2], "--set") for item in at_default}
    config = build_config({"sweep.kind": (kind, "--kind"), **raw})
    assert sweep_spec_from_config(config) == default_spec(kind)


@pytest.mark.parametrize("key", ["sweep.open_gamma", "sweep.open_p", "sweep.open_p_z"])
@pytest.mark.parametrize("command", [["sweep", "--kind", "gp_delta"], ["bloch"], ["evolve"]],
                         ids=["sweep", "bloch", "evolve"])
def test_retired_open_rate_keys_are_unknown(tmp_path, capsys, command, key):
    # every command reads its rates from model.*: the sweep.open_* keys,
    # which once held a sweep's, are unknown, and nothing is written
    code = main([*command, "--out", str(tmp_path), "--no-timestamp", "--set", f"{key}=0.3"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: --set {key}=0.3: unknown key '{key}'\n"
    assert not any(tmp_path.iterdir())


class _Seen(Exception):
    """Raised by a spy once it has seen what it watches."""


@pytest.mark.parametrize("rate", [None, "gamma", "p", "p_z"],
                         ids=["unset", "gamma", "p", "p_z"])
@pytest.mark.parametrize("command", [["evolve"], ["sweep", "--kind", "gp_delta"], ["bloch"]],
                         ids=["evolve", "sweep", "bloch"])
def test_model_rates_reach_the_legs(tmp_path, monkeypatch, command, rate):
    # a rate set as model.* reaches the legs of every command; an unset one
    # takes the command's default: 0 for evolve, the default spec's for sweeps
    import kerrjc.experiments as ex
    seen = []

    def spy(params, *args):
        seen.append(params)
        raise _Seen

    monkeypatch.setattr(ex, "leg_setup", spy)
    setting = [] if rate is None else ["--set", f"model.{rate}=0.25"]
    with pytest.raises(_Seen):
        main([*command, "--out", str(tmp_path), *setting])
    base = SweepSpec.base_params
    want = base.with_rates(0.0, 0.0, 0.0) if command == ["evolve"] else base
    want = want if rate is None else replace(want, **{rate: 0.25})
    assert {(p.gamma, p.p, p.p_z) for p in seen[0]} == {(want.gamma, want.p, want.p_z)}


# for each sweep.* key, a valid value away from its default; sweep.workers
# takes only its default
SWEEP_ONLY = {"sweep.kind": "gp_delta", "sweep.grid_start": "0", "sweep.grid_stop": "1",
              "sweep.grid_points": "5", "sweep.m_values": "2"}


def test_sweep_only_covers_the_sweep_keys():
    assert {*SWEEP_ONLY, "sweep.workers"} == {key for key in SCHEMA if key.startswith("sweep.")}


@pytest.mark.parametrize("key", list(SWEEP_ONLY))
def test_evolve_refuses_a_sweep_key(tmp_path, capsys, monkeypatch, key):
    # evolve reads no sweep.* key: one set away from its default is a config
    # error that names it, raised before anything is built or written
    import kerrjc.experiments as ex
    built = []
    monkeypatch.setattr(ex, "leg_setup", lambda *args: built.append(args))
    code = main(["evolve", "--out", str(tmp_path), "--set", f"{key}={SWEEP_ONLY[key]}"])
    assert code == EXIT_CONFIG
    leave = "at 1,2,3" if key == "sweep.m_values" else "unset"
    assert capsys.readouterr().err == \
        f"config error: evolve does not read {key}: leave it {leave}\n"
    assert built == [] and not any(tmp_path.iterdir())


def test_evolve_accepts_sweep_keys_at_their_defaults(tmp_path):
    assert main(["evolve", "--out", str(tmp_path), "--no-timestamp", "--set", "sweep.workers=1",
                 "--set", "sweep.m_values=1,2,3", "--set", "integrator.periods=0.5"]) == EXIT_OK
    assert (tmp_path / "trajectory.csv").exists()


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


@pytest.mark.parametrize("workload,kind,sets", [
    ("gp_delta", "gp_delta", []),
    ("negativity_delta", "negativity_delta", []),
    # the --set items of the benchmark's gp_theta_n10 workload
    ("gp_theta_n10", "gp_theta", ["space.n_max=10", "sweep.grid_start=0",
                                  "sweep.grid_stop=6.283185307179586",
                                  "sweep.grid_points=16"]),
], ids=["gp_delta", "negativity_delta", "gp_theta_n10"])
def test_default_sweep_matches_reference_bytes(tmp_path, workload, kind, sets):
    """Each benchmark workload's sweep CSV equals, byte for byte, the
    reference the benchmark checks against (made from the first version of
    the package)."""
    settings = [arg for item in sets for arg in ("--set", item)]
    assert main(["sweep", "--kind", kind, "--no-timestamp", "--set", "sweep.workers=1",
                 *settings, "--no-svg", "--out", str(tmp_path)]) == EXIT_OK
    want = lzma.decompress((REFERENCE / f"{workload}.csv.xz").read_bytes())
    assert (tmp_path / f"{kind}.csv").read_bytes() == want


# SHA-256 of every --no-timestamp output file of each default run, and the
# planarity lines that `kerrjc bloch` prints: the bytes that a change which
# keeps the outputs must keep (the benchmark's CSVs are checked against
# perfbench/reference above, so they are not pinned twice); the open gp_delta
# run's are the bytes that its rates wrote as sweep.open_gamma and sweep.open_p
PINNED_OUTPUTS = [
    (["sweep", "--kind", "gp_delta"], {
        "gp_delta_delta_phi.svg":
            "68300393ee700c1f828a337529c88d2a821663536cb1d8b6e75622b4f5f43c73"}),
    (["sweep", "--kind", "gp_theta"], {
        "gp_theta.csv": "b2a01ec7eccdbc9e33a5ba7b6675cf3009a8679dc709f0314e5518b4747501d7",
        "gp_theta_delta_phi.svg":
            "0b265aba12a67dc2d946b19ab432fa5e570723babd30363ec3f17e94d62bd211"}),
    (["sweep", "--kind", "negativity_delta"], {
        "negativity_delta_closed.svg":
            "58682d9ae1bb2c40c297a9d49d98f62308deca0659379608514868f2556fadfa",
        "negativity_delta_open.svg":
            "eca7d6c3921cad763ad727ebcfbcf0030e434884d298d6799e8a073290331700"}),
    (["sweep", "--kind", "negativity_theta"], {
        "negativity_theta.csv":
            "a9135e6f77e69912a71e9bc0376df415ff0867a1ff108b8989c6c95d82cf7720",
        "negativity_theta_closed.svg":
            "d3e089aa83036e5a0d7c932e7af21abb13b56e1623439196c190baf1512ca5a1",
        "negativity_theta_open.svg":
            "8989b3f8420ec75809d957e479453d81dcbed3c82b2b93577f8482503a466566"}),
    (["bloch"], {
        "bloch_traj.csv": "ce4b3f8f08f0b2e21f99dec093aeb9d65c20facf7f5b365e145208e7174d0e10",
        "bloch_resonant.svg":
            "1977590f197452dd6c0b9e2f7278ddf2b549c032f1ba06d76bbdcc31f73f8485",
        "bloch_off_resonant.svg":
            "9477941b897bc6416ea06f7e0b44aef77ee389d00174b7ba3fe3651f3bcc28d1"}),
    (["sweep", "--kind", "gp_delta", "--set", "model.gamma=0.3", "--set", "model.p=0.05"], {
        "gp_delta.csv": "96a7b827a71c6d6419ab8d6f4fd4cb9ca6b298888e801919b874ca8705923ae7",
        "gp_delta_delta_phi.svg":
            "1a47f735a0f303c8a7c876889ced1c98362d68ad1201d57a0da067beddcc63db"}),
    (["evolve"], {
        "trajectory.csv": "27b6a4ae809b434714e1038446475d63d15946d24946ae5b5d3fddf382616510"}),
    (["evolve", "--set", "model.gamma=0.1", "--set", "model.p_z=0.01"], {
        "trajectory.csv": "f50d531a08276bfc3224336168b300f8e523a22a68ca2649be23bb9a82658e03"}),
    (["evolve", "--set", "model.gamma=0.1", "--set", "model.p_z=0.01",
      "--set", "initial.n=2"], {
        "trajectory.csv": "d2ddae6765fe13d9b25855b2166ea9333b367e61c51cc16a0a21c88e190c6947"}),
]
BLOCH_PLANARITY = [
    "planarity resonant unitary: 6.013e-15",
    "planarity resonant rho_proj: 1.246e-16",
    "planarity resonant eigvec: 2.937e-16",
    "planarity off_resonant unitary: 4.736e-15",
    "planarity off_resonant rho_proj: 2.464e-01",
    "planarity off_resonant eigvec: 2.464e-01",
]


@pytest.mark.parametrize("argv,digests", PINNED_OUTPUTS,
                         ids=[" ".join(argv) for argv, _ in PINNED_OUTPUTS])
def test_outputs_match_pinned_digests(tmp_path, capsys, argv, digests):
    """Each default run writes the files pinned for it, byte for byte."""
    assert main([*argv, "--no-timestamp", "--out", str(tmp_path)]) == EXIT_OK
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests
    planarity = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("planarity")]
    assert planarity == (BLOCH_PLANARITY if argv == ["bloch"] else [])


# SHA-256 of trajectory.csv from evolves on the 22-level space (n_max = 10),
# closed and open, as the whole-trajectory writer wrote them
LARGE_EVOLVES = [
    (["evolve", "--set", "space.n_max=10", "--set", "integrator.periods=1"],
     "2b8a4fc68084000e3b1893fe289971335ffd929e8cc0e28e519a0bc0f5b49581"),
    (["evolve", "--set", "space.n_max=10", "--set", "integrator.periods=1",
      "--set", "model.gamma=0.1"],
     "94d458a42a01e5f82900ec1da2ccc2c60b8b72d4b96893e35a49726be4f308fa"),
]


@pytest.mark.parametrize("argv,digest", LARGE_EVOLVES, ids=["closed", "open"])
def test_large_evolve_matches_pinned_digest(tmp_path, argv, digest):
    assert main([*argv, "--no-timestamp", "--out", str(tmp_path)]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest() == digest


def test_large_open_evolve_pads_in_slices(tmp_path, monkeypatch):
    # the open n_max = 10 leg yields its 4 x 4 records as one block; they are
    # padded to 22 x 22 in slices of at most BLOCK_ENTRIES entries, into the
    # pinned bytes
    import kerrjc.experiments as ex
    real_pad, padded = np.pad, []
    monkeypatch.setattr(np, "pad", lambda *args: padded.append(real_pad(*args).size)
                        or real_pad(*args))
    argv, digest = LARGE_EVOLVES[1]
    assert main([*argv, "--no-timestamp", "--out", str(tmp_path)]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest() == digest
    assert len(padded) > 1 and max(padded) <= ex.BLOCK_ENTRIES


def _counting_legs(monkeypatch) -> list:
    """The blocks that `kerrjc evolve`'s legs yield, appended as they pass."""
    import kerrjc.experiments as ex
    blocks = []
    for name in ("closed_blocks", "lindblad_blocks"):
        monkeypatch.setattr(ex, name, lambda *args, real=getattr(ex, name):
                            (blocks.append(block) or block for block in real(*args)))
    return blocks


EVOLVES = [case for case in PINNED_OUTPUTS if case[0][0] == "evolve"]


@pytest.mark.parametrize("argv,digests", EVOLVES, ids=[" ".join(a) for a, _ in EVOLVES])
def test_evolve_streams_many_blocks_into_the_pinned_bytes(tmp_path, monkeypatch, argv,
                                                          digests):
    # blocks of at most 256 entries: both legs yield many blocks, and the
    # trajectory written as they arrive keeps the bytes of the pinned file
    import kerrjc.dynamics as dyn
    monkeypatch.setattr(dyn, "BLOCK_ENTRIES", 256)
    blocks = _counting_legs(monkeypatch)
    assert main([*argv, "--no-timestamp", "--out", str(tmp_path)]) == EXIT_OK
    assert len(blocks) > 100
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_refused_evolve_writes_nothing(tmp_path, capsys, monkeypatch):
    # a leg refused before its first block is written makes no output
    # directory; with one record per block and no hop check, the first
    # block (the initial state) passes and is written, the next fails the
    # density checks, and the partial trajectory is removed
    out = tmp_path / "out"
    assert main(["evolve", "--out", str(out), "--set", "model.gamma=1e300"]) == EXIT_TRACKING
    assert not out.exists()
    import kerrjc.dynamics as dyn
    monkeypatch.setattr(dyn, "BLOCK_ENTRIES", 16)
    monkeypatch.setattr(dyn, "HOP_RADIUS_TOL", float("inf"))
    blocks = _counting_legs(monkeypatch)
    code = main(["evolve", "--out", str(out), "--no-timestamp",
                 "--set", "model.gamma=40", "--set", "integrator.steps_per_period=10"])
    assert code == EXIT_TRACKING
    assert "negative eigenvalue" in capsys.readouterr().err
    assert len(blocks) == 1 and out.exists() and not any(out.iterdir())
