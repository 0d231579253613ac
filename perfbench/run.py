"""Benchmark entry point.

    python3 perfbench/run.py --workload certify-rain-mcd --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Prints one line per certification
cell or training round, an `env` line, and as the last line a JSON object
with `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`). See README.md.
"""

import os
import sys

# BLAS is pinned to one thread before numpy loads, so that pool jobs x BLAS
# threads stays within the two cores the benchmark is sized for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "safesteer" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print("env " + json.dumps(workloads.env_record(), sort_keys=True))
    metrics = workloads.Metrics()
    outcome = workloads.Outcome()
    run = workloads.certify if isinstance(wl, workloads.CertifyWorkload) else workloads.train
    run(args.workload, wl, args.seed, args.seconds, bool(args.trace), metrics, outcome)
    for note in dict.fromkeys(outcome.notes):
        print(f"check failed: {note}")
    print(json.dumps({
        "correct": not outcome.failed,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "metrics": metrics.values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
