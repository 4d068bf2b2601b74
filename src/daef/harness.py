"""Pipelines from kernel source to normalized result rows.

One entry point per experiment shape: transform a kernel, run one
(kernel, mode) cell, or sweep the whole built-in suite.  A kernel's
text is parsed and validated once per BenchmarkKernel, whose program
calls each return a fresh seeded copy of it, and its phase plan once,
where make_phases builds it; the
profiler and simulator take both as valid.  Each kernel's seeded original
is interpreted once for its baseline, and that same run yields the
profile, unless a stored profile was given.  Without a stored profile,
prepare keeps a seeded program, its plan, one baseline, the plan's
compiled functions and the decoupled reports simulated from them in a
small LRU memo, and serves a later call with equal inputs from it: the
seeded program's digest, theta, rho, the slice override and the
machine, whose mshr_count is left out when the seeded entry function
has no prefetch (its baseline never allocates a miss register, and the
plan reads only the L1 capacity).  So a sweep over miss registers
profiles and plans each kernel once.  Reports are immutable, so a served
value shares that baseline's records, stamped with the caller's machine
digest, and equals what a fresh prepare returns; its rows carry the
caller's kernel name.  It also shares the compiled functions, so each
function of a plan is compiled once per plan, however many seeds or
machines run it.  The seeded program's digest, taken once per prepare,
names the memo key, the profile and the baseline, whose digest every
decoupled report of the kernel takes.  Both decoupled modes reuse that
plan, and every simulated variant is checked for observable equivalence
against the baseline before any number is reported.  The decoupled
schedules of a kernel are simulated
together by machsim.simulate_each: dynamic DAE runs slice 0 while
profiling and then the same access/execute pairs as static DAE, so where
the two reach equal machine states after slice 0 the shared slices are
simulated once, and every report stays what a separate simulation of its
schedule gives.  Each decoupled report is kept with its plan, keyed by
the machine as the schedule's functions read it (mshr_count left out
when none of them prefetches) and the profiling overhead, and served,
stamped with the caller's machine digest, to a later equal call: so a
sweep over miss registers simulates such a schedule once, and so do the
seeds of a kernel without random data.  A decoupled simulation runs on
the fuel budget of dae_fuel, and a runtime fault in it, running past the
budget included, counts as a divergence of the mode that faulted (the
baseline ran clean), and stores nothing.  The suite runs its kernels
one after another, in list order.

A row's share columns come from CATEGORIES: each category's wall time
and energy as a share of the baseline's total, named <category>_time
and <category>_energy.  The CSV, the .dat file and Row.values() all
follow that one list.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from .daegen import (
    PhasePlan,
    candidate_loop,
    choose_slice_size,
    make_phases,
)
from .inputs import read_text
from .ir import DirRuntimeError, Function, Prefetch, Program, program_digest
from .ir.interp import CompiledFunction
from .kernels import BenchmarkKernel, builtin_kernels, kernel_by_name
from .machine import MachineConfig
from .machsim import (
    CATEGORIES,
    MODES,
    MachSimError,
    SimReport,
    Stats,
    baseline_schedule,
    build_schedule,
    normalize,
    simulate_baseline,
    simulate_each,
)
from .profiler import ProfileReport, classify_critical, profiled_baseline

# (column, category, Stats field) of every share column.
_SHARES = tuple((f"{c}_{name}", c, stat)
                for name, stat in (("time", "wall_ns"), ("energy", "energy"))
                for c in CATEGORIES)
SHARE_COLUMNS = tuple(col for col, _, _ in _SHARES)
CSV_COLUMNS = ("kernel", "mode", "norm_time", "norm_energy") + SHARE_COLUMNS


class HarnessError(Exception):
    pass


class EquivalenceError(Exception):
    """A transformed mode produced different observable behavior."""


@dataclass
class Row:
    kernel: str
    mode: str
    norm_time: Fraction
    norm_energy: Fraction
    shares: dict[str, Fraction]  # SHARE_COLUMNS -> share of the baseline
    report: SimReport = field(repr=False)
    program: Program = field(repr=False)  # as simulated

    def values(self) -> list:
        return [self.kernel, self.mode, self.norm_time, self.norm_energy,
                *(self.shares[col] for col in SHARE_COLUMNS)]


@dataclass(frozen=True)
class Prepared:
    """Everything derived once per kernel and shared by both DAE modes.
    compiled maps the plan's function names to the code simulate_each
    built for them.  reports holds the decoupled reports _run_modes
    simulated, for one key at a time: (the machine as the schedules'
    functions read it, the profiling overhead) -> mode -> report, each
    as simulated, so stamped with its own machine's digest.  A value
    the memo serves shares both."""
    seeded: Program
    plan: PhasePlan
    baseline: SimReport
    compiled: dict[str, CompiledFunction] = field(
        default_factory=dict, compare=False, repr=False)
    reports: dict[tuple, dict[str, SimReport]] = field(
        default_factory=dict, compare=False, repr=False)


def load_kernel(name_or_path: str) -> BenchmarkKernel:
    try:
        return kernel_by_name(name_or_path)
    except KeyError:
        path = Path(name_or_path)
        if not path.is_file():
            raise HarnessError(
                f"{name_or_path!r} is neither a built-in kernel nor a file; "
                f"built-ins: {', '.join(k.name for k in builtin_kernels())}")
        return BenchmarkKernel(
            name=path.stem, text=read_text(path, HarnessError),
            oracle=lambda seed: None)


def check_profile(profile: ProfileReport, digest: str,
                  machine: MachineConfig, allow_stale: bool = False) -> list[str]:
    """Digest-match a stored profile against the inputs it will steer.

    Returns warning strings when allow_stale waived a mismatch.
    """
    problems = []
    if profile.program_digest != digest:
        problems.append("profile was taken from a different program or seed")
    if profile.machine_digest != machine.digest():
        problems.append("profile was taken on a different machine config")
    if problems and not allow_stale:
        raise HarnessError("; ".join(problems)
                           + " (pass --allow-stale to use it anyway)")
    return problems


# The Prepared values prepare built, least recently used first.  A sweep
# over miss registers, or over the seeds of a kernel without random data,
# asks for the same few in turn; each holds a seeded program, its plan,
# one small report and the plan's compiled functions, and the bound only
# stops a long-lived process from growing.
_PREPARED_MAX = 16
_prepared: OrderedDict[tuple, Prepared] = OrderedDict()


def _machine_key(functions: Iterable[Function],
                 machine: MachineConfig) -> MachineConfig:
    """The machine as runs of functions read it.  Only a prefetch
    allocates a miss register, so without one mshr_count does not
    matter."""
    if any(isinstance(n, Prefetch) for fn in functions for n in fn.nodes()):
        return machine
    return replace(machine, mshr_count=1)


def _plan(seeded: Program, machine: MachineConfig, profile: ProfileReport,
          theta: Fraction, rho: Fraction,
          slice_override: int | None) -> PhasePlan:
    li = candidate_loop(seeded.entry_function())
    slice_params = choose_slice_size(machine, profile.footprint(li.header),
                                     rho=rho, override=slice_override)
    return make_phases(seeded, critical=classify_critical(profile, theta),
                       slice_params=slice_params)


def prepare(kernel: BenchmarkKernel, machine: MachineConfig, seed: int = 0,
            theta: Fraction = Fraction(1, 100), rho: Fraction = Fraction(1, 2),
            slice_override: int | None = None,
            profile: ProfileReport | None = None,
            allow_stale: bool = False) -> Prepared:
    """Seeded program, phase plan and baseline of one seeded kernel.

    The baseline runs before the plan exists: it simulates the seeded
    program, whose digest the plan's program shares (program_digest).
    The profile (the stored one, or the one the baseline run takes)
    steers the plan: its critical loads and its slice size.  A stored
    profile must match the seeded program and the machine
    (check_profile); each mismatch that allow_stale waives is printed to
    stderr as a "daef: warning:" line.

    Without a stored profile, the result is reused from an earlier call
    whose inputs are equal: the seeded program's digest, theta, rho,
    slice_override and the machine, less its mshr_count when the seeded
    entry function has no prefetch (see _machine_key).  The memo keeps
    what a cold call returns.  A reused value carries this call's seeded
    program and the memo's baseline stamped with this call's machine
    digest, so it equals what a fresh prepare returns.  Reports are
    immutable and shared: a served baseline's records are the stored
    ones, and a served value shares the stored compiled functions and
    decoupled reports (see _run_modes).  On either path the seeded
    program is printed once, for the digest every check and report reads.
    """
    seeded = kernel.program(seed)
    digest = program_digest(seeded)
    if profile is not None:
        for problem in check_profile(profile, digest, machine, allow_stale):
            print(f"daef: warning: {problem}", file=sys.stderr)
        baseline = simulate_baseline(seeded, machine, digest=digest)
        return Prepared(seeded, _plan(seeded, machine, profile, theta, rho,
                                      slice_override), baseline)
    key = (digest, theta, rho, slice_override,
           _machine_key([seeded.entry_function()], machine))
    prep = _prepared.get(key)
    if prep is not None:
        _prepared.move_to_end(key)
        return replace(prep, seeded=seeded, baseline=replace(
            prep.baseline, machine_digest=machine.digest()))
    baseline, profiled = profiled_baseline(seeded, machine, digest)
    prep = Prepared(seeded, _plan(seeded, machine, profiled, theta, rho,
                                  slice_override), baseline)
    _prepared[key] = prep
    if len(_prepared) > _PREPARED_MAX:
        _prepared.popitem(last=False)
    return prep


def _diff_dump(name: str, mode: str, rep: SimReport, base: SimReport) -> str:
    lines = [f"{name} [{mode}] diverged from its baseline:"]
    if rep.output != base.output:
        lines.append(f"  output  {rep.output[:8]} != {base.output[:8]}")
    if rep.memory_digest != base.memory_digest:
        lines.append(f"  memory  {rep.memory_digest[:16]} != {base.memory_digest[:16]}")
    return "\n".join(lines)


def _row_from(name: str, mode: str, rep: SimReport, base: SimReport,
              program: Program | None = None) -> Row:
    try:
        norm_time, norm_energy = normalize(rep, base)
    except MachSimError as e:
        raise EquivalenceError(_diff_dump(name, mode, rep, base) + f"\n  ({e})")
    shares = {col: getattr(rep.categories[c], stat) / getattr(base.total, stat)
              for col, c, stat in _SHARES}
    return Row(kernel=name, mode=mode, norm_time=norm_time,
               norm_energy=norm_energy, shares=shares, report=rep,
               program=program)


def dae_fuel(plan: PhasePlan, baseline_nodes: int) -> int:
    """The nodes a decoupled schedule of plan may retire.

    The execute and the access function each run a slice's iterations
    with no more nodes per iteration than the original, the prologue and
    epilogue at most once, and, per slice, straight-line dispatch, resume
    and exit code shorter than the function itself.  So each retires at
    most the baseline's nodes plus n_slices times its own static size.
    """
    static = sum(len(list(plan.program.function(name).nodes()))
                 for name in (plan.execute, plan.access))
    return 2 * baseline_nodes + plan.n_slices * static


def _run_modes(name: str, prep: Prepared, modes: tuple[str, ...],
               machine: MachineConfig, profiling_overhead: Fraction) -> list[Row]:
    """The rows of kernel name's modes, in order, normalized against the
    prepared baseline.

    A schedule equal to the baseline's (static_dae with nothing to
    prefetch) runs the same original function once at f_max on the same
    image, so it is not simulated again: its row reports prep.baseline,
    with the plan's program as the program simulated.  Another schedule
    is served from prep.reports when an earlier call simulated it on the
    machine as its functions read it (without mshr_count when none of
    them prefetches) and with the same profiling overhead, which with
    the plan and the mode fix the schedule; the served report is
    stamped with this machine's digest.  The schedules left go to one
    simulate_each call, which simulates the runs they share once where
    their machine states meet (static and dynamic DAE after slice 0).
    These rules look only at the schedules, so a row equals a fresh
    simulation of its schedule.
    """
    plan, base = prep.plan, prep.baseline
    base_sched = baseline_schedule(plan.original, machine)
    dae = {}
    for mode in modes:
        sched = build_schedule(mode, plan, machine,
                               profiling_overhead=profiling_overhead)
        if sched != base_sched:
            dae[mode] = sched
    names = {r.function for sched in dae.values() for r in sched} - {None}
    key = (_machine_key(map(plan.program.function, names), machine),
           profiling_overhead)
    stored = prep.reports.get(key)
    if stored is None:  # a sweep visits each machine once: start over
        prep.reports.clear()
        stored = prep.reports[key] = {}
    fuel = dae_fuel(plan, base.total.instr_count)
    fresh = simulate_each(plan.program,
                          [s for mode, s in dae.items() if mode not in stored],
                          machine, fuel=fuel, compiled=prep.compiled,
                          digest=base.program_digest)
    rows = []
    for mode in modes:
        rep = base
        if mode in stored:
            rep = replace(stored[mode], machine_digest=machine.digest())
        elif mode in dae:
            try:
                rep = stored[mode] = next(fresh)
            except DirRuntimeError as e:
                # The baseline ran to completion, so this is a transformation bug.
                raise EquivalenceError(f"{name} [{mode}] failed where"
                                       f" its baseline ran ({fuel}-node budget): {e}")
        rows.append(_row_from(name, mode, rep, base,
                              prep.seeded if mode == "baseline" else plan.program))
    return rows


def run_one(kernel: BenchmarkKernel, mode: str, machine: MachineConfig,
            seed: int = 0, theta: Fraction = Fraction(1, 100),
            rho: Fraction = Fraction(1, 2), slice_override: int | None = None,
            profiling_overhead: Fraction = Fraction(0),
            profile: ProfileReport | None = None,
            allow_stale: bool = False) -> Row:
    """Simulate one (kernel, mode) cell against a fresh baseline."""
    if mode not in MODES:
        raise HarnessError(f"unknown mode {mode!r}; choices: {', '.join(MODES)}")
    if mode == "baseline":
        # The baseline must not depend on transformability.
        seeded = kernel.program(seed)
        rep = simulate_baseline(seeded, machine)
        return _row_from(kernel.name, mode, rep, rep, seeded)
    prep = prepare(kernel, machine, seed=seed, theta=theta, rho=rho,
                   slice_override=slice_override, profile=profile,
                   allow_stale=allow_stale)
    return _run_modes(kernel.name, prep, (mode,), machine,
                      profiling_overhead)[0]


def run_kernel_all_modes(kernel: BenchmarkKernel, machine: MachineConfig,
                         seed: int = 0, theta: Fraction = Fraction(1, 100),
                         rho: Fraction = Fraction(1, 2),
                         slice_override: int | None = None,
                         profiling_overhead: Fraction = Fraction(0)) -> list[Row]:
    """All three modes for one kernel, sharing one baseline, profile and
    plan."""
    prep = prepare(kernel, machine, seed=seed, theta=theta, rho=rho,
                   slice_override=slice_override)
    return _run_modes(kernel.name, prep, MODES, machine, profiling_overhead)


def run_suite(machine: MachineConfig, seed: int = 0,
              theta: Fraction = Fraction(1, 100), rho: Fraction = Fraction(1, 2),
              slice_override: int | None = None,
              profiling_overhead: Fraction = Fraction(0)) -> list[Row]:
    """The full kernel x mode matrix, one kernel after another."""
    return [row for k in builtin_kernels()
            for row in run_kernel_all_modes(k, machine, seed, theta, rho,
                                            slice_override, profiling_overhead)]


# -- emission ----------------------------------------------------------------


def _fmt(x) -> str:
    try:
        return f"{float(x):.6f}"
    except OverflowError:
        raise HarnessError("a result is too large to print as a decimal;"
                           " `daef run --emit json` gives it exactly")


def rows_to_csv(rows: list[Row], with_geomean: bool = True) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        vals = r.values()
        lines.append(",".join(vals[:2] + [_fmt(v) for v in vals[2:]]))
    if with_geomean:
        by_mode: dict[str, list[Row]] = {}
        for r in rows:
            by_mode.setdefault(r.mode, []).append(r)
        for mode, group in by_mode.items():
            gt = math.exp(sum(math.log(float(r.norm_time)) for r in group)
                          / len(group))
            ge = math.exp(sum(math.log(float(r.norm_energy)) for r in group)
                          / len(group))
            lines.append(",".join(["geomean", mode, _fmt(gt), _fmt(ge)]
                                  + [""] * len(SHARE_COLUMNS)))
    return "\n".join(lines) + "\n"


def rows_to_dat(rows: list[Row]) -> str:
    """Stacked-bar data: one labeled row per cell, whitespace separated."""
    lines = [" ".join(("# kernel mode",) + SHARE_COLUMNS)]
    for r in rows:
        lines.append(" ".join([r.kernel, r.mode]
                              + [_fmt(r.shares[col]) for col in SHARE_COLUMNS]))
    return "\n".join(lines) + "\n"


def report_to_json(row: Row) -> dict:
    """Exact values for debugging: every fraction as a num/den string."""
    def frac(x) -> str:
        return str(Fraction(x))

    def stats(s: Stats) -> dict:
        return {f.name: frac(getattr(s, f.name))
                if isinstance(f.default, Fraction) else getattr(s, f.name)
                for f in fields(Stats)}

    rep = row.report
    return {
        "kernel": row.kernel,
        "mode": row.mode,
        "norm_time": frac(row.norm_time),
        "norm_energy": frac(row.norm_energy),
        "categories": {c: stats(s) for c, s in rep.categories.items()},
        "total": stats(rep.total),
        "runs": [{"kind": r.kind, "function": r.function,
                  "frequency": frac(r.frequency), "category": r.category,
                  "slice_index": r.slice_index, **stats(r)}
                 for r in rep.runs],
        "output": rep.output,
        "memory_digest": rep.memory_digest,
        "program_digest": rep.program_digest,
        "machine_digest": rep.machine_digest,
    }
