"""Command line interface: profile, transform, run, suite.

Exit codes: 0 on success, 2 for validation or configuration problems,
3 when a transformed mode fails the observable-equivalence check.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .daegen import DaegenError
from .harness import (
    EquivalenceError,
    HarnessError,
    load_kernel,
    prepare,
    report_to_json,
    rows_to_csv,
    rows_to_dat,
    run_one,
    run_suite,
)
from .ir import DirError, print_program
from .machine import MachineError, load_machine
from .machsim import MODES, MachSimError
from .profiler import ProfileError, profiled_baseline, read_profile, write_profile


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machine", metavar="FILE", default=None,
                   help="machine config JSON (default: built-in machine)")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed folded into the kernel's data (default 0)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write output here instead of stdout")


def _add_split(p: argparse.ArgumentParser) -> None:
    """The common flags plus those that steer the phase split."""
    _add_common(p)
    p.add_argument("--theta", type=_fraction, default=Fraction(1, 100),
                   help="stall-share threshold for critical loads (default 1/100)")
    p.add_argument("--rho", type=_fraction, default=Fraction(1, 2),
                   help="fraction of L1 a slice may touch (default 1/2)")
    p.add_argument("--slice", type=int, default=None, dest="slice_override",
                   help="fixed slice size, overriding the profile-driven choice")


def _add_profile_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", metavar="FILE", default=None,
                   help="use this stored profile instead of re-profiling")
    p.add_argument("--allow-stale", action="store_true",
                   help="accept a profile whose digests do not match")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_profile(args) -> int:
    kernel = load_kernel(args.kernel)
    machine = load_machine(args.machine)
    report = profiled_baseline(kernel.program(args.seed), machine)[1]
    total = report.total_stall_cycles
    print(f"profile of {kernel.name} (seed {args.seed})")
    print(f"  {'id':>4}  {'execs':>8}  {'misses':>8}  {'stall':>10}  share")
    for s in sorted(report.loads, key=lambda s: -s.stall_cycles):
        share = s.stall_cycles / total if total else 0.0
        print(f"  {s.id:>4}  {s.exec_count:>8}  {s.miss_count:>8}"
              f"  {s.stall_cycles:>10}  {share:.3f}")
    print(f"total stall cycles: {total}")
    if args.out:
        write_profile(report, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_transform(args) -> int:
    kernel = load_kernel(args.kernel)
    machine = load_machine(args.machine)
    profile = read_profile(args.profile) if args.profile else None
    prep = prepare(kernel, machine, seed=args.seed, theta=args.theta,
                   rho=args.rho, slice_override=args.slice_override,
                   profile=profile, allow_stale=args.allow_stale)
    plan = prep.plan
    print(f"{kernel.name}: slice size {plan.slice_params.size}"
          f" ({plan.slice_params.source}), {plan.n_slices} slices,"
          f" critical loads {sorted(plan.critical) or 'none'}",
          file=sys.stderr)
    _emit(print_program(plan.program), args.out)
    return 0


def cmd_run(args) -> int:
    kernel = load_kernel(args.kernel)
    machine = load_machine(args.machine)
    profile = read_profile(args.profile) if args.profile else None
    row = run_one(kernel, args.mode, machine, seed=args.seed,
                  theta=args.theta, rho=args.rho,
                  slice_override=args.slice_override,
                  profiling_overhead=args.profiling_overhead,
                  profile=profile, allow_stale=args.allow_stale)
    if args.emit == "csv":
        _emit(rows_to_csv([row], with_geomean=False), args.out)
    elif args.emit == "json":
        _emit(json.dumps(report_to_json(row), indent=2) + "\n", args.out)
    else:  # dir
        _emit(print_program(row.program), args.out)
    return 0


def cmd_suite(args) -> int:
    machine = load_machine(args.machine)
    rows = run_suite(machine, seed=args.seed, theta=args.theta, rho=args.rho,
                     slice_override=args.slice_override,
                     profiling_overhead=args.profiling_overhead)
    # Format first: a value that cannot print exits 2 before any file exists.
    csv, dat = rows_to_csv(rows), rows_to_dat(rows)
    out_dir = Path(args.out or "results")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "suite.csv"
    dat_path = out_dir / "suite.dat"
    csv_path.write_text(csv)
    dat_path.write_text(dat)
    for line in csv.splitlines():
        if line.startswith("geomean"):
            print(line)
    print(f"wrote {csv_path} and {dat_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daef",
        description="profile, split, and simulate access-execute kernels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="profile a kernel's load stalls")
    p.add_argument("--kernel", required=True,
                   help="built-in kernel name or path to a source file")
    _add_common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("transform", help="emit the transformed program")
    p.add_argument("--kernel", required=True)
    _add_split(p)
    _add_profile_source(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("run", help="simulate one kernel in one mode")
    p.add_argument("--kernel", required=True)
    p.add_argument("--mode", choices=MODES, default="baseline")
    p.add_argument("--profiling-overhead", type=_fraction, default=Fraction(0),
                   help="runtime profiling cost as a fraction of slice-0 time")
    p.add_argument("--emit", choices=("csv", "json", "dir"), default="csv")
    _add_split(p)
    _add_profile_source(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("suite", help="run every built-in kernel in every mode")
    p.add_argument("--profiling-overhead", type=_fraction, default=Fraction(0))
    _add_split(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EquivalenceError as e:
        print(f"daef: {e}", file=sys.stderr)
        return 3
    except (HarnessError, ProfileError, DaegenError, MachSimError,
            MachineError, DirError, OSError) as e:
        print(f"daef: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
