"""Command-line front end.

Four subcommands:

* ``transform``: apply a configured coordinate map to an events CSV and
  emit original plus transformed coordinates with interval values.
* ``interfere``: sweep the interferometer phase and emit the fringe table.
* ``nogo``: brute-force contrast between classical mixtures and the
  amplitude rule over a weight/phase grid.
* ``check``: run the registered invariant checks and report pass/fail
  lines with a machine-readable JSON report; exit code 0 only if all pass.

All numeric output is printed with 17 significant digits and every run is
a pure function of its flags (fixed seed, no timestamps), so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import codecs
import dataclasses
import io
import math
import sys

import numpy as np

from .checks import (
    CheckContext,
    NoMatchingChecksError,
    run_checks,
)
from .constants import DEFAULT_RESOLUTION, DEFAULT_SEED, DEFAULT_TRIALS
from .interference import (
    ConfigError,
    ExperimentConfig,
    no_go_search,
    phase_sweep,
    uniform_phase_grid,
    visibility,
)
from .kinematics import KinematicsError, event_interval
from .schemas import (
    SchemaError,
    dump_json,
    experiment_config_from_dict,
    format_float,
    frame_map_from_dict,
    load_json,
    parse_events_csv,
    row_format,
)

_CONVENTION_NOTE = ("symmetric splitters: transmission sqrt(T), reflection "
                    "i*sqrt(1-T); upper arm transmitted at splitter 1 and "
                    "carries the phase; D0 bright at phi=0")


def _parse_seed(text: str) -> int:
    # Text to int only, with a base prefix (0x10); CheckContext owns the range.
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")


def _parse_phis(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"phase grid must look like start:stop:steps, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"phase grid must be number:number:integer, got {text!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError("phase endpoints must be finite")
    if steps < 1:
        raise argparse.ArgumentTypeError("phase grid needs at least one step")
    if steps == 1:
        return (start,)
    try:
        with np.errstate(all="ignore"):
            grid = np.linspace(start, stop, steps)
    except MemoryError:
        raise argparse.ArgumentTypeError(
            f"phase grid {text!r} is too large to build")
    if not np.all(np.isfinite(grid)):
        raise argparse.ArgumentTypeError(
            f"phase grid {text!r} has points that overflow a float")
    return tuple(grid.tolist())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fringelab",
        description=("verification bench for extended 1+1 boosts, the "
                     "Mach-Zehnder benchmark, and the planar amplitude "
                     "calculus"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_transform = sub.add_parser(
        "transform", help="apply a coordinate map to an events CSV")
    p_transform.add_argument("--events", required=True,
                             help="input events CSV with header t,x")
    p_transform.add_argument("--config", required=True,
                             help="map spec JSON (branch, V, eta, ...)")
    p_transform.add_argument("--out", help="output CSV path (default stdout)")

    p_interfere = sub.add_parser(
        "interfere", help="phase-sweep the interferometer and emit a fringe table")
    p_interfere.add_argument("--config",
                             help="experiment JSON (default: ideal 50/50 bench)")
    p_interfere.add_argument("--phis", type=_parse_phis,
                             default=f"0:{2.0 * math.pi!r}:65",
                             help="sweep grid start:stop:steps "
                                  "(default 0:2pi:65, endpoints included)")
    p_interfere.add_argument("--out", help="output CSV path (default stdout)")

    p_nogo = sub.add_parser(
        "nogo", help="grid-search classical mixtures for any phase sensitivity")
    p_nogo.add_argument("--resolution", type=int,
                        default=DEFAULT_RESOLUTION,
                        help=f"path-weight grid resolution "
                             f"(default {DEFAULT_RESOLUTION})")
    p_nogo.add_argument("--phis", type=_parse_phis,
                        default=uniform_phase_grid(32),
                        help="phase grid start:stop:steps "
                             "(default: 32 evenly spaced phases over one period)")
    p_nogo.add_argument("--out", help="write the JSON report here")

    p_check = sub.add_parser(
        "check", help="run registered invariant checks and report pass/fail")
    p_check.add_argument("--suite", default="all",
                         help="substring selector on check id or label "
                              "(default: all)")
    p_check.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                         help=f"u64 seed for randomized trials "
                              f"(default {DEFAULT_SEED})")
    p_check.add_argument("--trials", type=int,
                         default=DEFAULT_TRIALS,
                         help=f"randomized trials per check "
                              f"(default {DEFAULT_TRIALS})")
    p_check.add_argument("--resolution", type=int,
                         default=DEFAULT_RESOLUTION,
                         help=f"weight grid resolution for the no-go check "
                              f"(default {DEFAULT_RESOLUTION})")
    p_check.add_argument("--out", help="write the JSON report here "
                                       "(default: print it after the text)")
    return parser


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_text(path: str) -> str:
    """The contents of a UTF-8 input file, less a leading byte order mark."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # Not the utf-8-sig codec: reading a file, it takes a lone
            # truncated mark (EF BB) for empty text instead of raising.
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not UTF-8 text ({err.reason} "
                          f"at byte {err.start})") from None


def cmd_transform(args: argparse.Namespace) -> int:
    events = parse_events_csv(_read_text(args.events))
    m = frame_map_from_dict(load_json(_read_text(args.config)))
    lines = ["# map: " + m.branch.value
             + (f" V={format_float(m.V)}" if m.V is not None else "")
             + (f" eta={m.eta:+d}" if m.eta is not None else "")
             + f" c={format_float(m.c)}",
             "t,x,t_out,x_out,interval_in,interval_out"]
    apply, c, row = m.apply, m.c, row_format(6)
    # apply names an image past the largest float; numpy's overflow
    # warning would only repeat that on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        for p in events:
            q = apply(p)
            lines.append(row % (p.t, p.x, q.t, q.x, event_interval(p, c),
                                event_interval(q, c)))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_interfere(args: argparse.Namespace) -> int:
    config = (ExperimentConfig() if args.config is None else
              experiment_config_from_dict(load_json(_read_text(args.config))))
    sweep = phase_sweep(config, args.phis)
    vis = visibility(sweep)
    lines = [f"# {_CONVENTION_NOTE}",
             f"# visibility = {format_float(vis)}",
             "phi,p_d0,p_d1,p_absorbed,p_d0_given_detected,p_d1_given_detected"]
    row = row_format(6)
    for phi, d in sweep:  # an undefined conditional prints as nan
        c0, c1 = d.p_d0_given_detected, d.p_d1_given_detected
        lines.append(row % (phi, d.p_d0, d.p_d1, d.p_absorbed,
                            math.nan if c0 is None else c0,
                            math.nan if c1 is None else c1))
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.out is not None:
        print(f"visibility = {format_float(vis)}")
    return 0


def cmd_nogo(args: argparse.Namespace) -> int:
    report = no_go_search(args.phis, args.resolution)
    print(f"classical configurations enumerated: {report.classical_config_count}")
    print(f"phases: {report.phase_count}, weight resolution: {report.resolution}")
    print(f"max classical variation: "
          f"{format_float(report.max_classical_variation)}")
    print(f"amplitude visibility: {format_float(report.amplitude_visibility)}")
    print(f"no-go contrast: {'PASS' if report.passed else 'FAIL'}")
    if args.out is not None:
        _write_text(args.out, dump_json(dataclasses.asdict(report)))
    return 0 if report.passed else 1


def cmd_check(args: argparse.Namespace) -> int:
    ctx = CheckContext(seed=args.seed, trials=args.trials,
                       resolution=args.resolution)
    results = run_checks(ctx, args.suite)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.id}  [{r.paper_ref}]  {r.detail}")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed "
          f"(suite: {args.suite}, seed: {args.seed})")
    report = {"suite": args.suite,
              "checks": [r.as_dict() for r in results]}
    _write_text(args.out, dump_json(report))
    return 0 if passed == len(results) else 1


def main(argv: list[str] | None = None) -> int:
    # stdout is UTF-8 on any locale; a capture that replaced it stays as it is
    out = sys.stdout
    if (isinstance(out, io.TextIOWrapper)
            and codecs.lookup(out.encoding).name != "utf-8"):
        out.reconfigure(encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"transform": cmd_transform, "interfere": cmd_interfere,
                "nogo": cmd_nogo, "check": cmd_check}
    try:
        return commands[args.command](args)
    except (SchemaError, ConfigError, KinematicsError,
            NoMatchingChecksError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
