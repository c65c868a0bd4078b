#!/usr/bin/env python3
"""Trim, gain, and schedule synthesis walk-through.

Reproduces the controller-side numbers: the nominal trim point, the LQR
gain matrix, the open/closed-loop spectral abscissas across the 10x10
scheduling lattice, and the closed-loop disturbance-to-state frequency
response peak. Writes the schedule to a JSON file if --out is given.
"""

import argparse
import json
import sys

import numpy as np

from otrobust.f16 import DEG
from otrobust.harness import build_controllers, default_omega_grid, freq_response


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="write the gain schedule JSON here")
    args = ap.parse_args()

    setup = build_controllers()
    tp = setup.trim
    print("nominal trim:")
    print(f"  theta = {tp.x_trim.theta / DEG:8.4f} deg   V = {tp.x_trim.V:.4f} ft/s")
    print(f"  alpha = {tp.x_trim.alpha / DEG:8.4f} deg   q = {tp.x_trim.q / DEG:.4e} deg/s")
    print(f"  T     = {tp.u_trim.T:8.1f} lb    delta_e = {tp.u_trim.delta_e / DEG:.4f} deg")
    print(f"  residual = {tp.residual:.3e}  optimality = {tp.optimality:.3e}")

    print("\nLQR gain (thrust lb, elevator rad per rad/fps/rad/rps deviation):")
    print(np.array_str(setup.K, precision=4, suppress_small=False))

    sched = setup.schedule
    n_unstable = int(np.count_nonzero(sched.abscissa_open > 0))
    print(f"\nschedule: {sched.n_nodes} nodes, {n_unstable} open-loop unstable,")
    print(f"  worst closed-loop abscissa {sched.abscissa_closed.max():.4f} (all < 0)")

    model = setup.closed_loop_linear_model()
    _, peak = freq_response(model, default_omega_grid())
    print(f"\nclosed-loop disturbance-to-state response peaks at {peak:.3f} rad/s")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(sched.to_dict(), f, indent=1)
        print(f"schedule written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
