"""Cold-start probe: time one fresh interpreter from ``import repro`` to a finished run.

Run by ``run.py`` in a new interpreter per sample::

    python3 perfbench/setup_probe.py --workload NAME --seed N --dir DIR

The clock starts before ``repro`` is imported and stops when a
one-trial-per-point run of the workload's spec has finished on the
workload's executor and store, so it covers imports, the campaign registry,
the transformer fixture and clean-logit oracle, store creation and pool or
worker spawn.  Prints the elapsed seconds as the last line.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    from workloads import WORKLOADS

    from repro.exec import run_experiment

    workload = WORKLOADS[args.workload]
    result = run_experiment(
        workload.setup_spec(args.seed),
        executor=workload.executor,
        n_workers=workload.workers,
        results_path=workload.results_path(args.dir),
    )
    elapsed = perf_counter() - START
    if any(len(point.records.records) != 1 for point in result.points):
        print("setup run did not commit one trial per point", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
