"""The traced run's counts repeat exactly and match the hand-derived values.

    python3 -m pytest perfbench/test_counts.py

Each traced sweep takes about 10 s on a 2-core Xeon.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import outcheck  # noqa: E402
import run  # noqa: E402

# metrics computed from counts alone, never from a clock
EXACT = [name for name, unit in layers.UNITS.items()
         if unit in ("count", "bytes", "calls/point")] + ["geomphase.chain_useful_ratio"]


def traced(workload, seed):
    work = run.WORK / "test_counts" / f"{workload}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    argv = run.sweep_argv(workload, out, random.Random(seed))
    outcome = run.sweep_once(workload, "trace", argv, out,
                             outcheck.reference_bytes(workload),
                             str(work / "spans.json"))
    assert outcome["passed"], outcome["reason"]
    return outcome["report"]["metrics"]


@pytest.fixture(scope="module")
def gp_delta():
    return [traced("gp_delta", seed) for seed in (1, 2)]


def test_counts_repeat_exactly(gp_delta):
    first, second = gp_delta
    assert {n: first[n] for n in EXACT} == {n: second[n] for n in EXACT}


def test_gp_delta_seed_counts(gp_delta):
    m = gp_delta[0]
    # 81 points x 3 periods x 2000 steps; open hops are every 4th step
    assert m["dynamics.closed_steps"] == 486000
    assert m["dynamics.open_hops"] == 121500
    # m = 1, 2, 3 re-run the chain over prefixes of 501, 1001 and 1501 samples
    assert m["geomphase.chain_useful_ratio"] == pytest.approx(1501 / 3003)
    assert m["model.hamiltonian_per_point"] == 2
    assert m["experiments.points"] == 81 and m["experiments.rows"] == 243
    assert m["information.negativity_samples"] == 0


def test_negativity_delta_seed_counts():
    m = traced("negativity_delta", 1)
    # 81 points x 6 periods x 2000 steps
    assert m["dynamics.closed_steps"] == 972000
    assert m["geomphase.track_samples"] == 0
    assert m["information.negativity_samples"] == 2 * 81 * (12000 // 16 + 1)
