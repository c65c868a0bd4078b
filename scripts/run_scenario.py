#!/usr/bin/env python3
"""Run one robustness experiment from a scenario config.

Convenience wrapper over the library runner: builds the fixed-gain and
scheduled controllers at the nominal trim, executes the configured
experiment, and writes report.json / W.csv / snapshot CSVs. The checked-in
configs under scripts/configs/ reproduce the three study families at desk
scale (200 samples); ic_full.json is the full 2000-sample run.

    python scripts/run_scenario.py scripts/configs/ic_desk.json
    python scripts/run_scenario.py scripts/configs/param_desk.json --out /tmp/param

Exit codes: 0 success, 2 configuration error (as otrobust propagate).
"""

import argparse
import sys
import time
from dataclasses import replace

from otrobust.harness import ScenarioConfig, run_scenario


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", help="scenario config JSON")
    ap.add_argument("--out", help="override output directory")
    ap.add_argument("--samples", type=int, help="override sample count")
    args = ap.parse_args()

    overrides = {"output_dir": args.out, "samples": args.samples}
    try:
        cfg = replace(ScenarioConfig.from_json(args.config),
                      **{k: v for k, v in overrides.items() if v is not None})
        if not cfg.output_dir:
            ap.error("config has no output_dir and --out not given")
        t0 = time.time()
        report = run_scenario(cfg, keep_snapshots=True)
    except ValueError as exc:  # a ConfigError, or a malformed OTROBUST_WORKERS
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{cfg.kind} scenario ({cfg.samples} samples, {len(cfg.controllers)} "
          f"controllers) finished in {time.time() - t0:.0f} s")
    print(f"outputs in {cfg.output_dir} (content hash {report.content_hash[:12]})")
    for c in report.curves:
        label = f"{c['controller']}" + (f" {c['variant']}" if c["variant"] else "")
        print(f"  {label:24s} W(0)={c['W'][0]:8.3f}  W(t_f)={c['W'][-1]:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
