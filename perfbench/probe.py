"""One ``kerrjc.cli.main`` call in a fresh interpreter.

    python3 perfbench/probe.py MODE ROOT ARGV_JSON [SPANS_JSON]

ROOT is the checkout whose ``src/`` holds the package; ARGV_JSON is the
argument list for ``cli.main``.  MODE is one of:

- ``setup``: import ``kerrjc.cli`` and run ``main`` up to the call of
  ``run_sweep``, which is replaced by a stop; reports ``setup_s``.
- ``time``: run ``main`` untouched; reports its wall time and peak RSS.
- ``trace``: run ``main`` with every layer of ``layers.py`` wrapped; reports
  the per-layer metrics and writes the spans to SPANS_JSON.

The last line of standard output is one JSON object.
"""

import json
import os
import resource
import sys
import time


class SweepStarted(Exception):
    """Raised in place of the sweep, so that a set-up probe ends where it starts."""


def load_cli(root):
    """Import ``kerrjc.cli`` from ROOT/src, never from an installed copy."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "kerrjc", "cli.py")):
        raise SystemExit(f"probe: no kerrjc sources under {src}")
    sys.path.insert(0, src)
    from kerrjc import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"probe: kerrjc was imported from {cli.__file__}, not {src}")
    return cli


def probe_setup(root, argv):
    import layers

    t0 = time.perf_counter()
    cli = load_cli(root)
    started = []

    def stop(original):
        def run_sweep(*args, **kwargs):
            started.append(time.perf_counter())
            raise SweepStarted
        return run_sweep

    if layers.replace_everywhere("kerrjc.experiments", "run_sweep", stop) is None:
        raise SystemExit("probe: kerrjc.experiments.run_sweep not found")
    try:
        cli.main(argv)
    except SweepStarted:
        pass
    if not started:
        raise SystemExit("probe: cli.main returned before the sweep started")
    return {"setup_s": started[0] - t0}


def probe_time(root, argv):
    cli = load_cli(root)
    t1, c1 = time.perf_counter(), time.process_time()
    rc = cli.main(argv)
    t2, c2 = time.perf_counter(), time.process_time()
    return {"rc": rc, "sweep_s": t2 - t1, "cpu_s": c2 - c1,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def probe_trace(root, argv, spans_path):
    import layers

    cli = load_cli(root)
    tracer = layers.Tracer()
    t1 = time.perf_counter()
    rc = tracer.call_main(cli.main, argv)
    t2 = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"argv": argv, "spans": tracer.spans}, fh)
    return {"rc": rc, "sweep_s": t2 - t1, "metrics": tracer.metrics()}


def main():
    mode, root, argv = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if mode == "setup":
        out = probe_setup(root, argv)
    elif mode == "time":
        out = probe_time(root, argv)
    elif mode == "trace":
        out = probe_trace(root, argv, sys.argv[4])
    else:
        raise SystemExit(f"probe: unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
