#!/usr/bin/env python3
"""otrobust scenario benchmark: end-to-end and per-layer timing.

    python3 perfbench/run.py --workload ic-desk --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. Workloads are ic-desk, ic-wide and
param-lp (see scenarios.py). Each run sets up the controllers, runs the
scenario repeatedly for --seconds, checks every output, prints every
metric with its unit and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from traced scenarios interleaved with untraced ones). Outputs, results
and spans go under .perfbench_out/<workload>/. Runs are single-threaded:
BLAS threads and OTROBUST_WORKERS are set to 1.

Other modes: --smoke (two-step horizon, no set-up probes),
--write-reference (store the seed-0 W curves of one scenario) and
--setup-probe (time one set-up; used for the fresh-process samples).
Reported times are scaled to a reference machine speed by a calibration
kernel run between scenarios (see calibration.py).
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1", "OTROBUST_WORKERS": "1"}


def main() -> int:
    ap = argparse.ArgumentParser(description="otrobust scenario benchmark")
    ap.add_argument("--workload", default="ic-desk")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args()

    # must precede the first numpy import, here and in child processes
    os.environ.update(SINGLE_THREAD_ENV)
    src = ROOT / "src"
    if not (src / "otrobust" / "__init__.py").is_file():
        print(f"perfbench: no otrobust sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.chdir(ROOT)

    import bench
    import otrobust

    if Path(otrobust.__file__).resolve().parent != (src / "otrobust").resolve():
        print(f"perfbench: imported otrobust from {otrobust.__file__}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": bench.time_setup()[0]}))
        return 0
    if args.workload not in bench.scenarios.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(bench.scenarios.WORKLOADS)}")
    if args.write_reference:
        return write_reference(bench, args.workload)

    doc = bench.run_benchmark(ROOT, Path(__file__).resolve(), args.workload, args.seed,
                              args.seconds, bool(args.trace), smoke=args.smoke)
    bench.print_report(doc)
    return 0


def write_reference(bench, workload: str) -> int:
    out = Path(".perfbench_out") / workload / "scenario"
    cfg = bench.scenarios.make_config(workload, 0, str(out))
    _, setup = bench.time_setup()
    report = bench.harness.run_scenario(cfg, setup=setup, keep_snapshots=True)
    problems = bench.checks.check_outputs(cfg, setup.trim.x_trim.as_array(), report, out)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(bench.checks.write_reference(workload, cfg, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
