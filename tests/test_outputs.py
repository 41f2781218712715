"""The CSV writers and chart builders against test-local copies of the code
they replaced: the per-cell ``_fmt`` sweep writer, the nested-loop
trajectory writer and the ``cli.emit_svg`` dispatch.  Every output must keep
its bytes."""

import math
from dataclasses import replace
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kerrjc.experiments as ex
from kerrjc.dynamics import (
    IntegratorConfig,
    TrajectoryRecord,
    evolve_closed,
    evolve_lindblad,
)
from kerrjc.experiments import (
    GP_COLUMNS,
    KINDS,
    SweepResult,
    SweepSpec,
    default_spec,
    run_sweep,
    write_sweep_csv,
    write_trajectory_csv,
)
from kerrjc.hilbert import SpaceSpec
from kerrjc.model import (
    InitialStateSpec,
    ModelParams,
    hamiltonian,
    initial_state,
    sector_analytics,
)
from kerrjc.svg import bloch_chart, line_chart

from oracles import lindblad_spec

RESONANT = ModelParams(delta=0.5, chi=0.5)
FAST = dict(steps_per_period=400, n_max=3)
SMALL = {
    "negativity_theta": dict(grid=(0.0, 0.7, 1.5), periods=1.0, record_stride=8, **FAST),
    "negativity_delta": dict(grid=(-1.0, 0.5, 2.0), periods=1.0, record_stride=8,
                             base_params=replace(SweepSpec.base_params, delta=0.5, chi=0.5),
                             **FAST),
    "gp_theta": dict(grid=(0.0, 1.0, 3.0), m_values=(1, 2), record_stride=4, **FAST),
    "gp_delta": dict(grid=(-1.0, 0.5, 2.0), m_values=(1, 2), record_stride=4, **FAST),
    "bloch_traj": dict(periods=1.0, record_stride=8, **FAST),
}


def old_fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def old_write_sweep_csv(result, path) -> None:
    from kerrjc.experiments import provenance_lines

    with open(path, "w", encoding="utf-8") as fh:
        for line in provenance_lines(result.spec, None):
            fh.write(line + "\n")
        fh.write(",".join(result.columns) + "\n")
        for row in result.rows:
            fh.write(",".join(old_fmt(v) for v in row) + "\n")


def old_write_trajectory_csv(record, path) -> None:
    if record.is_density:
        mats = record.states
    else:
        mats = np.einsum("ki,kj->kij", record.states, record.states.conj())
    d = mats.shape[1]
    header = ["t"]
    for i in range(d):
        for j in range(d):
            header += [f"re_{i}{j}", f"im_{i}{j}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for t, m in zip(record.times, mats):
            cells = [f"{t:.17g}"]
            for z in m.reshape(-1):
                cells += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            fh.write(",".join(cells) + "\n")


def old_emit_svg(result, outdir) -> list:
    written = []
    kind = result.spec.kind
    key = (itemgetter(0, 1) if kind == "bloch_traj"
           else itemgetter(1 if kind.startswith("gp") else 0))
    groups: dict = {}
    for r in result.rows:
        groups.setdefault(key(r), []).append(r)
    if kind.startswith("negativity"):
        for variant, col in (("closed", 2), ("open", 3)):
            series = [(f"{value:.3g}", np.array([r[1] for r in groups[value]]),
                       np.array([r[col] for r in groups[value]]))
                      for value in result.spec.grid]
            path = outdir / f"{kind}_{variant}.svg"
            line_chart(series, path, title=f"{kind} ({variant})",
                       xlabel="t [1/g]", ylabel="negativity")
            written.append(path)
    elif kind.startswith("gp"):
        series = [(f"m={m}", np.array([r[0] for r in groups[m]]),
                   np.array([r[5] for r in groups[m]]))
                  for m in result.spec.m_values]
        path = outdir / f"{kind}_delta_phi.svg"
        line_chart(series, path, title=kind,
                   xlabel="sweep parameter", ylabel="delta phi (wrapped)")
        written.append(path)
    else:
        for case in ("resonant", "off_resonant"):
            series = [(name, np.array([[r[3], r[4], r[5]] for r in groups[case, name]]))
                      for name in ("unitary", "rho_proj", "eigvec")]
            path = outdir / f"bloch_{case}.svg"
            bloch_chart(series, path, title=f"Bloch trajectories ({case})")
            written.append(path)
    return written


@pytest.fixture(scope="module")
def small_results():
    return {kind: run_sweep(default_spec(kind, **settings))
            for kind, settings in SMALL.items()}


@pytest.mark.parametrize("kind", list(SMALL))
def test_sweep_csv_equals_old_writer(kind, small_results, tmp_path):
    result = small_results[kind]
    write_sweep_csv(result, tmp_path / "new.csv")
    old_write_sweep_csv(result, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_hand_built_gp_rows_equal_old_writer(tmp_path):
    nan = float("nan")
    rows = [
        (0.0, 1, 6.25, nan, nan, nan, nan, nan, "tracking_error"),
        (np.float64(0.5), np.int64(2), 12.5, 0.25, nan, nan, nan, 0.75, "singular"),
        (-0.0, 3, 5e-324, -0.0, np.float64(1 / 3), np.float64(-2.5e-300), 1e300,
         np.float64(0.04), "degraded"),
        (np.int64(7), np.int64(1), 2 * math.pi, math.pi, -math.pi, 0.0, -1.0,
         float("inf"), "ok"),
    ]
    result = SweepResult(spec=default_spec("gp_delta", grid=(0.0, 0.5, 1.0)),
                         columns=GP_COLUMNS, rows=rows)
    write_sweep_csv(result, tmp_path / "new.csv")
    old_write_sweep_csv(result, tmp_path / "old.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert b"\n-0,3,4.9406564584124654e-324,-0," in new
    assert new.endswith(b"\n7,1,6.2831853071795862,3.1415926535897931,"
                        b"-3.1415926535897931,0,-1,inf,ok\n")


# floats whose %.17g is worth a check: the signed zeros, nan, the
# infinities, the smallest subnormal and a large exponent
EDGE_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


def _part_lengths(per_slice: int):
    """One to three parts, each one row below, at or above whole slices."""
    return st.lists(st.builds(lambda k, off: k * per_slice + off, st.integers(1, 3),
                              st.sampled_from((-1, 0, 1))), min_size=1, max_size=3)


def _block_writer_equals_per_row(template, parts, per_slice, extra, path):
    """``_write_csv`` writes ``parts`` in slices of ``per_slice`` rows (its
    BLOCK_ENTRIES // 4 // columns, ``extra`` < columns values left over) into
    the bytes of one ``template % row`` per row."""
    columns = template.count("%")
    with mock.patch.object(ex, "BLOCK_ENTRIES", 4 * (per_slice * columns + extra % columns)):
        ex._write_csv(path, ["# head", "a,b"], template, parts)
    rows = "".join(template % tuple(row) for part in parts for row in part)
    assert path.read_bytes() == ("# head\na,b\n" + rows).encode()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), columns=st.integers(1, 5), per_slice=st.integers(1, 4),
       extra=st.integers(0, 4))
def test_block_writer_keeps_the_bytes_of_float_arrays(tmp_path_factory, data, columns,
                                                       per_slice, extra):
    template = ",".join(["%.17g"] * columns) + "\n"
    parts = [np.array(data.draw(st.lists(FLOATS, min_size=n * columns,
                                         max_size=n * columns)), dtype=float).reshape(n, columns)
             for n in data.draw(_part_lengths(per_slice))]
    _block_writer_equals_per_row(template, parts, per_slice, extra,
                                 tmp_path_factory.mktemp("block") / "rows.csv")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), per_slice=st.integers(1, 4), extra=st.integers(0, 3))
def test_block_writer_keeps_the_bytes_of_tuple_rows(tmp_path_factory, data, per_slice,
                                                     extra):
    # a gp-like layout: numpy and Python scalars side by side, and text
    template = "%.17g,%d,%.17g,%s\n"
    row = st.tuples(st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(-2**60, 2**60)),
                    st.one_of(st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64)),
                    FLOATS.map(np.float64), st.text(st.characters(blacklist_categories=["Cs"])))
    parts = [data.draw(st.lists(row, min_size=n, max_size=n))
             for n in data.draw(_part_lengths(per_slice))]
    _block_writer_equals_per_row(template, parts, per_slice, extra,
                                 tmp_path_factory.mktemp("block") / "rows.csv")


@pytest.mark.parametrize("kind", list(SMALL))
def test_chart_builder_equals_old_emit_svg(kind, small_results, tmp_path):
    result = small_results[kind]
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    new = KINDS[kind].chart(result, tmp_path / "new")
    old = old_emit_svg(result, tmp_path / "old")
    assert [p.name for p in new] == [p.name for p in old]
    for n, o in zip(new, old):
        assert n.parent == tmp_path / "new"
        assert n.read_bytes() == o.read_bytes()


def _records():
    space = SpaceSpec(4)
    period = 2 * math.pi / sector_analytics(RESONANT, 1).rabi_frequency
    config = IntegratorConfig.for_periods(period, 1.0, 200, 10)
    psi0 = initial_state(InitialStateSpec(theta0=0.9, phi0=0.3), space)
    closed = evolve_closed(hamiltonian([RESONANT], space)[0], psi0, config)
    opened = evolve_lindblad(
        lindblad_spec(RESONANT.with_rates(0.1, 0.0, 0.01), space),
        np.outer(psi0, psi0.conj()), config)
    return {"closed": closed, "open": opened}


def _one_block(record) -> list[tuple]:
    """The record as the one block of a one-state leg."""
    return [(record.times[None], record.states[None])]


@pytest.mark.parametrize("leg", ["closed", "open"])
def test_trajectory_csv_equals_old_loop(leg, tmp_path):
    record = _records()[leg]
    write_trajectory_csv(_one_block(record), record.states.shape[1], tmp_path / "new.csv")
    old_write_trajectory_csv(record, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _header(n_max: int, tmp_path) -> tuple[list[str], list[str]]:
    d = SpaceSpec(n_max).dim
    record = TrajectoryRecord(times=np.zeros(1), states=np.eye(d, dtype=complex)[:1],
                              config=IntegratorConfig(dt=1.0, n_steps=0))
    write_trajectory_csv(_one_block(record), d, tmp_path / "new.csv")
    old_write_trajectory_csv(record, tmp_path / "old.csv")
    new, old = ((tmp_path / name).read_text().splitlines()[0].split(",")
                for name in ("new.csv", "old.csv"))
    return new, old


def test_trajectory_header_names_are_distinct(tmp_path):
    new, old = _header(4, tmp_path)  # d = 10: the names keep their bytes
    assert new == old and len(set(new)) == len(new) == 201
    new, old = _header(5, tmp_path)  # d = 12: the unpadded names collide
    assert len(set(new)) == len(new) == 289 and len(set(old)) == 285
    assert new[:3] == ["t", "re_0000", "im_0000"]
    assert "re_0110" in new and "re_1100" in new and new[-1] == "im_1111"
