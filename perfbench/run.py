"""Benchmark of the pgmlab CLI: one command, three workloads.

    python3 perfbench/run.py --workload {cli_cold,exact_sweep,stochastic_fit}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it imports pgmlab from ``src/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Inputs are generated under ``perfbench/out/`` and a record of the run
(counts per operation type, per-operation times, and the spans of a traced
run) is written there too.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before NumPy is first imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys

import harness
from harness import OUT, ROOT

# -- entry point -----------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["cli_cold", "exact_sweep", "stochastic_fit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pgmlab" / "cli.py").is_file():
        print(f"error: no pgmlab sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)
    # One CPU for this process and its children, so that the calibration
    # kernel measures the speed of the CPU the operations run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.trace:
        import spans

        metrics, tally, detail = spans.traced_run(args.workload, args.seed, args.seconds)
    elif args.workload == "cli_cold":
        metrics, tally, detail = harness.cold_run(args.workload, args.seed, args.seconds)
    else:
        metrics, tally, detail = harness.warm_run(args.workload, args.seed, args.seconds)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "counts": {k: {"attempted": a, "failed": f} for k, (a, f) in tally.counts.items()},
              "problems": tally.problems, "metrics": {k: v for k, (v, _) in metrics.items()},
              "timings": tally.timings(),
              "detail": detail}
    record_path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for kind, (attempted, failed) in sorted(tally.counts.items()):
        print(f"{kind:48s} attempted {attempted:5d}  failed {failed:5d}")
    for problem in tally.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
