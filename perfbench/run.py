"""kerrjc sweep benchmark: end-to-end wall time, set-up time and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``kerrjc sweep`` argument list, run through
``kerrjc.cli.main`` in a fresh single-threaded process (probe.py), one at a
time in a closed loop with one client, until the next sweep would end after
S seconds (at least MIN_SWEEPS sweeps).  Before every sweep, SETUPS_PER_SWEEP
fresh processes time the import of ``kerrjc.cli`` and the config build, up
to the start of the sweep.  Every sweep's CSV is checked against the
reference made at the seed commit (outcheck.py) and its SVGs must exist; a
non-zero exit, a missing file or a mismatch is a failed sweep.  With
``--trace 1`` one more sweep runs with every layer wrapped (layers.py).

Every process runs on one pinned CPU, and a fixed kernel (``pace_s``) is
timed before the first sweep and after each one.  Sweep and set-up times
are scaled by REFERENCE_PACE_S over the mean pace around them, so that the
CPU's changing speed on a shared machine cancels out.

The package's outputs do not depend on the seed, since they must match the
reference; the seed only shuffles the order of the command-line options,
which the CLI's precedence rules make irrelevant.  The last line of standard
output is the JSON result; the lines before it give every metric by name
with its unit and the machine record.  Full results and the trace spans
are written under ``.perfbench_work/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import outcheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = {
    "gp_delta": {"kind": "gp_delta", "sets": [],
                 "svgs": ["gp_delta_delta_phi.svg"]},
    "negativity_delta": {"kind": "negativity_delta", "sets": [],
                         "svgs": ["negativity_delta_closed.svg",
                                  "negativity_delta_open.svg"]},
    "gp_theta_n10": {"kind": "gp_theta",
                     "sets": ["space.n_max=10", "sweep.grid_start=0",
                              "sweep.grid_stop=6.283185307179586",
                              "sweep.grid_points=16"],
                     "svgs": ["gp_theta_delta_phi.svg"]},
}

END_TO_END_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "passed_frac": "ratio"}
# single-threaded BLAS: steadier timings, and never more threads than cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_SWEEPS = 3
SETUPS_PER_SWEEP = 2
PROBE_TIMEOUT_S = 150
# pace_s() of the machine in README.md; times are scaled to this pace
REFERENCE_PACE_S = 0.1
PACE_REPEATS = 5


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def sweep_argv(workload: str, out: Path, rng: random.Random) -> list[str]:
    spec = WORKLOADS[workload]
    options = [["--kind", spec["kind"]], ["--set", "sweep.workers=1"],
               *(["--set", s] for s in spec["sets"]),
               ["--no-timestamp"], ["--out", str(out)]]
    rng.shuffle(options)
    return ["sweep"] + [arg for option in options for arg in option]


def run_probe(mode: str, argv: list[str], *extra: str) -> tuple[int, dict | None, str]:
    """(exit code, JSON report or None, stderr tail) of one probe process."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), mode, str(ROOT),
             json.dumps(argv), *extra],
            cwd=ROOT, env={**os.environ, **THREAD_ENV}, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, None, f"probe timed out after {PROBE_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        report = None
    return proc.returncode, report, proc.stderr[-2000:]


def setup_once(argv: list[str]) -> float:
    rc, report, err = run_probe("setup", argv)
    if report is None:
        raise BenchmarkError(f"set-up probe failed (exit {rc}): {err}")
    return report["setup_s"]


def sweep_once(workload: str, mode: str, argv: list[str], out: Path,
               reference: bytes, *extra: str) -> dict:
    """Run one sweep probe into ``out`` and check its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    rc, report, err = run_probe(mode, argv, *extra)
    outcome = {"report": report, "passed": False, "identical": False, "reason": ""}
    spec = WORKLOADS[workload]
    csv = out / f"{spec['kind']}.csv"
    missing = [p.name for p in [csv, *(out / s for s in spec["svgs"])]
               if not p.is_file() or p.stat().st_size == 0]
    if report is None or report.get("rc") != 0:
        outcome["reason"] = f"exit {rc}, cli.main returned " \
            f"{report and report.get('rc')}: {err.strip()[-300:]}"
    elif missing:
        outcome["reason"] = "missing output: " + ", ".join(missing)
    else:
        passed, identical, reason = outcheck.compare(csv.read_bytes(), reference)
        outcome.update(passed=passed, identical=identical, reason=reason)
    return outcome


def machine_record() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": THREAD_ENV,
            "loadavg_start": list(os.getloadavg())}


def pace_s() -> float:
    """Mean time of a fixed mix of the package's kinds of work, on frozen code.

    The mix is small matrix-vector steps in a Python loop (the closed leg),
    100 x 100 matrix-vector hops (the open leg) and batched 10 x 10 ``eigh``
    (tracking and the health checks).  On a shared VM each vCPU slows down
    by up to 2x, independently, for seconds to minutes; timing this kernel
    before and after every sweep on the same vCPU measures that drift, and
    a change to kerrjc cannot change it.
    """
    import numpy as np

    rng = np.random.default_rng(0)

    def cmat(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    small, hop, herm = cmat(10, 10), cmat(100, 100), cmat(400, 10, 10)
    herm = herm + herm.conj().transpose(0, 2, 1)
    times = []
    for _ in range(PACE_REPEATS):
        t0 = time.perf_counter()
        psi = np.ones(10, dtype=complex)
        for _ in range(20000):
            psi = small.dot(psi)
            psi /= math.sqrt(np.vdot(psi, psi).real)
        v = np.ones(100, dtype=complex)
        for _ in range(2000):
            v = hop.dot(v)
            v /= np.linalg.norm(v)
        for _ in range(5):
            np.linalg.eigh(herm)
        times.append(time.perf_counter() - t0)
    return statistics.mean(times)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            machine: dict) -> dict:
    rng = random.Random(seed)
    reference = outcheck.reference_bytes(workload)
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"

    setup_once(sweep_argv(workload, out, rng))  # warm-up: bytecode, file cache
    paces = [pace_s()]

    def scale():
        """Factor to the reference pace, from the paces just before and after."""
        paces.append(pace_s())
        return 2 * REFERENCE_PACE_S / (paces[-2] + paces[-1])

    setups, walls, sweeps, outcomes, cycles = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup_walls = [setup_once(sweep_argv(workload, out, rng))
                       for _ in range(SETUPS_PER_SWEEP)]
        outcome = sweep_once(workload, "time", sweep_argv(workload, out, rng), out,
                             reference)
        factor = scale()
        outcomes.append(outcome)
        setups += [s * factor for s in setup_walls]
        if outcome["report"] is not None and outcome["report"]["rc"] == 0:
            walls.append(outcome["report"]["sweep_s"])
            sweeps.append({**outcome["report"], "sweep_s": walls[-1] * factor})
        now = time.perf_counter()
        cycles.append(now - t0)
        if (len(outcomes) >= MIN_SWEEPS
                and now - start + statistics.median(cycles) > seconds):
            break
    if not sweeps:
        raise BenchmarkError("no sweep completed: "
                             + "; ".join(o["reason"] for o in outcomes))

    sweep_median = statistics.median(s["sweep_s"] for s in sweeps)
    per_layer = None
    if trace:
        outcome = sweep_once(workload, "trace", sweep_argv(workload, out, rng), out,
                             reference, str(work / "spans.json"))
        factor = scale()
        outcomes.append(outcome)
        if outcome["report"] is None:
            raise BenchmarkError("traced sweep failed: " + outcome["reason"])
        per_layer = dict(outcome["report"]["metrics"])
        per_layer["trace.overhead_frac"] = (
            (outcome["report"]["sweep_s"] * factor - sweep_median) / sweep_median)

    failed = sum(not o["passed"] for o in outcomes)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "machine": machine,
        "attempted": len(outcomes), "failed": failed,
        "byte_identical": sum(o["identical"] for o in outcomes),
        "failures": [o["reason"] for o in outcomes if not o["passed"]],
        "samples": {"sweep_s": [s["sweep_s"] for s in sweeps],
                    "sweep_wall_s": walls, "pace_s": paces,
                    "cpu_s": [s["cpu_s"] for s in sweeps],
                    "peak_rss_mb": [s["peak_rss_mb"] for s in sweeps],
                    "setup_s": setups},
        "end_to_end": {
            "sweep_s": sweep_median,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
            "passed_frac": (len(outcomes) - failed) / len(outcomes),
        },
        "per_layer": per_layer,
    }


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report_lines(result: dict) -> list[str]:
    n_sweeps = len(result["samples"]["sweep_s"])
    lines = [
        "machine: " + json.dumps(result["machine"], sort_keys=True),
        f"workload {result['workload']} seed {result['seed']}: "
        f"{result['attempted'] - result['failed']}/{result['attempted']} sweeps passed "
        f"the output check, {result['byte_identical']} byte-identical",
        *(f"failed: {reason}" for reason in result["failures"]),
    ]
    counts = {"sweep_s": n_sweeps, "peak_rss_mb": n_sweeps,
              "setup_s": len(result["samples"]["setup_s"])}
    for name, value in result["end_to_end"].items():
        note = f" (median of n={counts[name]})" if name in counts else ""
        lines.append(f"{name} = {_fmt(value)} {END_TO_END_UNITS[name]}{note}")
    lines.append("no percentile above the median is reported: "
                 "fewer than 11 samples per run")
    lines.append(f"times are scaled to a pace of {REFERENCE_PACE_S} s; unscaled "
                 f"sweep wall median = {_fmt(statistics.median(result['samples']['sweep_wall_s']))}"
                 f" s, pace median = {_fmt(statistics.median(result['samples']['pace_s']))} s")
    for name, value in (result["per_layer"] or {}).items():
        shown = "absent" if value is None else f"{_fmt(value)} {layers.UNITS[name]}"
        lines.append(f"{name} = {shown}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kerrjc" / "cli.py").is_file():
        print(f"perfbench: no kerrjc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads, for pace_s()
    machine = machine_record()
    # the two vCPUs of a shared VM slow down independently; pinning every
    # process to one of them lets pace_s() track the speed the sweeps see
    machine["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {machine["pinned_cpu"]})
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         machine)
    except (BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    (WORK / args.workload / "result.json").write_text(json.dumps(result, indent=1))
    print("\n".join(report_lines(result)))

    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in layers.UNITS.items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
