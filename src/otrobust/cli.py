"""Command-line interface.

Subcommands mirror the library pipeline: trim / trim-grid for equilibria,
gains for the fixed gain, schedule for the gain schedule that scenario
builds and flies (harness.build_controllers), scenario for the full
experiment runner (its snapshots/ CSVs are the raw ensemble), wasserstein
for scoring snapshot files, and freq for the disturbance-to-state
response. Angle-valued inputs and outputs are degrees. JSON inputs are read
by f16.read_json, so a malformed one exits 2 naming its file. Every command
writes its output text through _write, to a file or to stdout. The JSON
that trim, trim-grid, gains and schedule write is strict: a non-finite
number in it is a numerical failure, and nothing is written.

Exit codes: 0 success (a closed stdout included), 2 configuration error
(a ValueError or OSError), 3 numerical failure (a RuntimeError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import controller, harness, trim
from .f16 import DEG, STATE_UNITS, AeroTables, AircraftParams
from .harness import ConfigError, NumericalFailure, ScenarioConfig
from .transport import DiscreteDistribution, wasserstein_lp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_params_tables(args):
    params = AircraftParams.from_json(args.params) if args.params else AircraftParams()
    tables = AeroTables.from_json(args.tables) if args.tables else AeroTables.default()
    return params, tables


def _check_output(flag: str, path, is_dir: bool = False) -> None:
    """ConfigError naming flag unless path (None: stdout) could be written:
    the nearest existing ancestor of a directory output, or of a file
    output's parent, is a directory, and a file output is not a directory.
    Commands call this before any work; it creates nothing."""
    if path is None:
        return
    p = Path(path)
    if not is_dir and p.is_dir():
        raise ConfigError(f"{flag} {path} is a directory")
    start = p if is_dir else p.parent
    nearest = next(a for a in (start, *start.parents) if a.exists())
    if not nearest.is_dir():
        raise ConfigError(f"{flag} {path}: {nearest} is not a directory")


def _json_text(doc) -> str:
    """doc as indented JSON text; NumericalFailure if it holds a non-finite
    number, which JSON has no token for."""
    try:
        return json.dumps(doc, indent=1, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"non-finite value in the JSON output ({exc})") from None


def _write(path, text: str) -> None:
    """text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as f:
        f.write(text)


def _cmd_trim(args) -> int:
    params, tables = _load_params_tables(args)
    tp = trim.find_trim(args.V, args.alpha_deg * DEG, params, tables)
    _write(None, _json_text(tp.to_dict()) + "\n")
    return EXIT_OK


def _cmd_trim_grid(args) -> int:
    for flag, n in (("--nv", args.nv), ("--nalpha", args.nalpha)):
        if n < 1:
            raise ConfigError(f"{flag} must be at least 1, got {n}")
    _check_output("--out", args.out)
    params, tables = _load_params_tables(args)
    grid = trim.default_grid(args.nv, args.nalpha)
    points = trim.trim_grid(grid, params, tables)
    _write(args.out, _json_text([tp.to_dict() for tp in points]))
    n_conv = sum(tp.converged for tp in points)
    print(f"wrote {len(points)} trim points ({n_conv} converged) to {args.out}")
    return EXIT_OK


def _cmd_gains(args) -> int:
    params, tables = _load_params_tables(args)
    tp = trim.find_trim(args.V, args.alpha_deg * DEG, params, tables)
    model = controller.linearize_plant(tp.x_trim.as_array(), tp.u_trim.as_array(), params, tables)
    K = controller.lqr_gain(model, controller.LqrWeights())
    acl = controller.spectral_abscissa(model.A - model.B @ K)
    _write(None, _json_text({
        "trim": tp.to_dict(),
        "K": K.tolist(),
        "K_units": controller.K_UNITS,
        "closed_loop_abscissa": acl,
        "open_loop_abscissa": controller.spectral_abscissa(model.A),
    }) + "\n")
    return EXIT_OK


def _cmd_schedule(args) -> int:
    _check_output("--out", args.out)
    sched = harness.build_controllers(*_load_params_tables(args)).schedule
    _write(args.out, _json_text(sched.to_dict()))
    n_unstable = int(np.count_nonzero(sched.abscissa_open > 0))
    print(f"wrote {sched.n_nodes}-node schedule to {args.out} ({n_unstable} open-loop "
          f"unstable nodes, worst closed-loop abscissa {sched.abscissa_closed.max():.4f})")
    return EXIT_OK


def _dist_from_snapshot(snap, weights: str) -> DiscreteDistribution:
    pts = np.concatenate([harness.in_reporting_units(snap).states, snap.params], axis=1)
    w = harness.probability_weights(snap) if weights == "density" else snap.gamma
    return DiscreteDistribution(pts, w)


def _cmd_wasserstein(args) -> int:
    if args.plan and not args.b:
        raise ConfigError("--plan needs --b: --dirac-at solves no transport plan")
    _check_output("--out", args.out)
    _check_output("--plan", args.plan)
    snaps_a = harness.read_snapshot_csv(args.a)
    rows = []
    plan_export = None
    if args.dirac_at:
        tp = trim.TrimPoint.from_json(args.dirac_at)
        W = harness._W_dirac_series([harness.in_reporting_units(s) for s in snaps_a],
                                    tp.x_trim.as_array() / STATE_UNITS, args.weights)
        rows = [(s.t, w) for s, w in zip(snaps_a, W)]
    else:
        snaps_b = harness.read_snapshot_csv(args.b)
        times = zip_longest([s.t for s in snaps_a], [s.t for s in snaps_b], fillvalue="none")
        mismatches = [(k, ta, tb) for k, (ta, tb) in enumerate(times) if ta != tb]
        if mismatches:
            k, ta, tb = mismatches[0]
            raise ConfigError(f"snapshot files carry different emit schedules: snapshot {k} "
                              f"is at t = {ta} in {args.a} but t = {tb} in {args.b}")
        for sa, sb in zip(snaps_a, snaps_b):
            plan = wasserstein_lp(_dist_from_snapshot(sa, args.weights),
                                  _dist_from_snapshot(sb, args.weights))
            rows.append((sa.t, plan.W))
            plan_export = plan
    _write(args.out, "t,W\n" + "".join(f"{t},{W}\n" for t, W in rows))
    if args.plan and plan_export is not None:
        _write(args.plan, "i,j,mass\n" + "".join(
            f"{i},{j},{mu}\n"
            for i, j, mu in zip(plan_export.rows, plan_export.cols, plan_export.flows)))
    return EXIT_OK


def _cmd_freq(args) -> int:
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    _check_output("--out", args.out)
    params, tables = _load_params_tables(args)
    setup = harness.build_controllers(params, tables, need_schedule=False)
    model = setup.closed_loop_linear_model()
    grid = harness.default_omega_grid(args.points)
    gains_db, peak = harness.freq_response(model, grid)
    _write(args.out, "omega_rad_s,gain_db\n"
           + "".join(f"{w},{g}\n" for w, g in zip(grid, gains_db)))
    print(f"peak gain at omega = {peak:.4f} rad/s", file=sys.stderr)
    return EXIT_OK


def _cmd_scenario(args) -> int:
    cfg = ScenarioConfig.from_json(args.config)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if cfg.output_dir is None:
        raise ConfigError("no output directory: set output_dir in the config or pass --out")
    _check_output("--out" if args.out is not None else "output_dir", cfg.output_dir,
                  is_dir=True)
    params, tables = _load_params_tables(args)
    setup = harness.build_controllers(params, tables,
                                      need_schedule="gslqr" in cfg.controllers, cfg=cfg)
    report = harness.run_scenario(cfg, setup=setup, keep_snapshots=True)
    print(f"report written to {cfg.output_dir} (hash {report.content_hash[:12]})")
    for c in report.curves:
        label = c["controller"] + (f" {c['variant']}" if c["variant"] else "")
        print(f"  {label:24s} W(0)={c['W'][0]:8.3f}  W(t_f)={c['W'][-1]:8.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="otrobust",
                                 description="Controller robustness via density transport")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--params", help="aircraft parameter JSON (defaults built in)")
        p.add_argument("--tables", help="aero table JSON (defaults to shipped tables)")

    p = sub.add_parser("trim", help="trim at one flight condition")
    p.add_argument("--V", type=float, required=True, help="velocity, ft/s")
    p.add_argument("--alpha-deg", type=float, required=True, dest="alpha_deg")
    add_model_args(p)
    p.set_defaults(func=_cmd_trim)

    p = sub.add_parser("trim-grid", help="trim the scheduling lattice")
    p.add_argument("--nv", type=int, default=10)
    p.add_argument("--nalpha", type=int, default=10)
    p.add_argument("--out", required=True)
    add_model_args(p)
    p.set_defaults(func=_cmd_trim_grid)

    p = sub.add_parser("gains", help="LQR gain at a flight condition")
    p.add_argument("--V", type=float, default=harness.NOMINAL_V)
    p.add_argument("--alpha-deg", type=float, default=harness.NOMINAL_ALPHA_DEG,
                   dest="alpha_deg")
    add_model_args(p)
    p.set_defaults(func=_cmd_gains)

    p = sub.add_parser("schedule", help="the gain schedule the gslqr scenarios fly")
    p.add_argument("--out", required=True)
    add_model_args(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("wasserstein", help="score snapshot CSVs")
    p.add_argument("--a", required=True, help="snapshot CSV")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--b", help="second snapshot CSV (transportation LP)")
    target.add_argument("--dirac-at", dest="dirac_at",
                        help="trim JSON: closed-form distance to the trim point")
    p.add_argument("--weights", choices=["density", "mass"], default="density",
                   help="marginal weights: normalized carried densities or transport masses")
    p.add_argument("--plan", help="with --b, write the final optimal plan as triplet CSV")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_wasserstein)

    p = sub.add_parser("freq", help="closed-loop disturbance-to-state response")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out")
    add_model_args(p)
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("scenario", help="run a full experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (overrides config)")
    add_model_args(p)
    p.set_defaults(func=_cmd_scenario)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader has gone, which is no fault of the command; with
        # stdout on the null device the interpreter's final flush is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError) as exc:  # ConfigError and the transport's errors among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:  # NumericalFailure, SynthesisError, LinearizationError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
