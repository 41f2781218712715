"""Write the reference CSVs of every workload from the current sources.

    python3 perfbench/make_reference.py

Run only at a commit whose outputs are the accepted ones; the committed
references were made at the commit that added this benchmark, whose
package sources are those of the seed.  The outputs go to
``.perfbench_work/reference``.
"""

import random
import sys

import outcheck
import run


def main() -> int:
    for workload, spec in run.WORKLOADS.items():
        out = run.WORK / "reference" / workload
        argv = run.sweep_argv(workload, out, random.Random(0))
        rc, report, err = run.run_probe("time", argv)
        if report is None or report["rc"] != 0:
            print(f"{workload}: sweep failed (exit {rc}): {err}", file=sys.stderr)
            return 1
        print(outcheck.write_reference(workload, out / f"{spec['kind']}.csv"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
