"""Timing and energy simulation of phase schedules.

An in-order core runs a schedule of function activations, each at its own
frequency.  The L1 cache and the register environment persist across runs
within one simulation, which is the whole point: an access slice warms the
cache that the following execute slice reads.  Each run keeps its own
clock, an integer count of ticks of 1/q cycle since the run started, and
its own miss-handling registers, which drain when it ends.  The clock
learns how many nodes have retired from the fuel left that the
interpreter passes to the load and prefetch hooks, so nothing runs per
block.  The run's cycles are converted to exact nanoseconds once,
through its frequency.

Cost model per retired node: one core cycle, plus hit_cycles for a load
that hits, plus ceil(mem_latency_ns * f) blocking cycles for a load that
misses outright.  A load whose line is already in flight waits only the
remaining wall time.  A prefetch retires in its single cycle after
allocating a miss register; when all registers are busy it first waits
for the oldest to complete.  Completed fills install into the cache just
before each memory access and in bulk at the end of every run (phase
boundaries drain).  Stores write memory directly and do not touch the
cache.

Frequency changes between runs, the one-time specialization of the access
phase, and optional profiling cost are charged as overhead: wall time at
zero-IPC power.

Stats declares the reported quantities once: each run record is a Stats,
and a report's per-category sums and its total add up every Stats field
of its records.  normalize() returns the (time, energy) ratios of a
report's total against a baseline's.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .daegen import PhasePlan
from .ir import Program, program_digest, validate_program
from .ir.interp import (
    DEFAULT_FUEL,
    compile_function,
    default_mem_size,
    init_memory,
    memory_digest,
    run_compiled,
)
from .machine import LruCache, MachineConfig

MODES = ("baseline", "static_dae", "dynamic_dae")

CAT_ACCESS = "access"
CAT_EXECUTE = "execute"
CAT_OVERHEAD = "overhead"
CATEGORIES = (CAT_ACCESS, CAT_EXECUTE, CAT_OVERHEAD)


class MachSimError(ValueError):
    pass


@dataclass
class PhaseRun:
    """One schedule entry: a function activation or a bare charge.

    charge is (kind, amount): for "jit" the amount is nanoseconds, for
    "profiling" it is a fraction of this run's own wall time, added as
    overhead right after the run.  Frequency switches are not scheduled
    explicitly; the simulator charges dvfs_switch_ns whenever the
    frequency differs from the previous run's.
    """
    function: str | None
    frequency: Fraction
    category: str
    slice_index: int | None = None
    args: dict[str, int] = field(default_factory=dict)
    writeback: bool = False
    charge: tuple[str, Fraction] | None = None


@dataclass
class Stats:
    """The reported quantities; a new counter is one field plus its increment."""
    cycles: Fraction = Fraction(0)
    wall_ns: Fraction = Fraction(0)
    energy: Fraction = Fraction(0)
    instr_count: int = 0

    @property
    def ipc(self) -> Fraction:
        return self.instr_count / self.cycles if self.cycles else Fraction(0)

    def add(self, other: Stats) -> None:
        for f in fields(Stats):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass(kw_only=True)
class RunRecord(Stats):
    kind: str  # "run" | "jit" | "dvfs_switch" | "profiling"
    function: str | None
    frequency: Fraction
    category: str
    slice_index: int | None = None


@dataclass
class SimReport:
    categories: dict[str, Stats]
    total: Stats
    runs: list[RunRecord]
    output: list[int]
    memory_digest: str
    program_digest: str
    machine_digest: str
    block_counts: dict[str, dict[str, int]]  # function -> label -> entries


class _RunClock:
    """One run's clock and miss registers, driven by the interpreter hooks.

    Time is an integer count of ticks since the run started.  A tick is
    1/q cycle, where q is the denominator of mem_latency_ns * f, so a
    base cycle, a hit, a blocking miss and a fill are all whole numbers
    of ticks.  The clock reads the retired nodes from the fuel that each
    hook receives: the interpreter charges a block's nodes on entry, so
    now = (fuel at the start - fuel left) * q + stall is the instant
    after the work retired so far (at block granularity), where stall
    sums the ticks spent on hits, blocking misses, joins and waits for a
    miss register.  No call is made per block.  The miss registers
    belong to the run and drain at its end: no fill outlives it.
    """

    def __init__(self, machine: MachineConfig, cache: LruCache, f: Fraction,
                 fuel: int):
        fill = machine.mem_latency_ns * f
        self.q = fill.denominator
        self.hit = machine.l1.hit_cycles * self.q
        self.miss = machine.mem_latency_cycles(f) * self.q
        self.fill = fill.numerator
        self.mshr_count = machine.mshr_count
        self.cache = cache
        self.mshr: OrderedDict[int, int] = OrderedDict()  # line -> done tick
        self.base = fuel * self.q
        self.stall = 0

    def on_load(self, instr_id: int, addr: int, fuel: int) -> bool:
        """Account one demand load; True when it missed outright."""
        now = self.base - fuel * self.q + self.stall
        cache, mshr = self.cache, self.mshr
        # Install every fill that has completed by now.
        while mshr and mshr[next(iter(mshr))] <= now:
            cache.install(mshr.popitem(last=False)[0])
        line = cache.line_of(addr)
        if cache.contains(line):
            cache.touch(line)
        elif line in mshr:
            # Join the in-flight fill, then read through the cache.
            self.stall += max(0, mshr.pop(line) - now)
            cache.install(line)
        else:
            # Blocking miss: the line is delivered directly.
            self.stall += self.miss
            cache.install(line)
            return True
        self.stall += self.hit
        return False

    def on_prefetch(self, instr_id: int, addr: int, fuel: int) -> None:
        now = self.base - fuel * self.q + self.stall
        cache, mshr = self.cache, self.mshr
        while mshr and mshr[next(iter(mshr))] <= now:
            cache.install(mshr.popitem(last=False)[0])
        line = cache.line_of(addr)
        if cache.contains(line):
            cache.touch(line)
            return
        if line in mshr:
            return
        if len(mshr) >= self.mshr_count:
            old_line, done = mshr.popitem(last=False)
            if done > now:
                self.stall += done - now
                now = done
            cache.install(old_line)
        mshr[line] = now + self.fill

    def drain(self, fuel: int) -> Fraction:
        """Wait for every fill; returns the run's length in cycles, given
        the fuel the run left."""
        now = self.base - fuel * self.q + self.stall
        while self.mshr:
            line, done = self.mshr.popitem(last=False)
            now = max(now, done)
            self.cache.install(line)
        return Fraction(now, self.q)


def _idle_energy(m: MachineConfig, wall_ns: Fraction) -> Fraction:
    return m.power(m.f_max_ghz, Fraction(0)) * wall_ns


def simulate(
    prog: Program,
    sched: list[PhaseRun],
    machine: MachineConfig,
    fuel: int = DEFAULT_FUEL,
    on_load=None,
) -> SimReport:
    """Run a schedule to completion and account time and energy.

    Registers persist across runs: parameters bind from the run's args
    first, then from the persistent environment, then zero.  Runs marked
    writeback publish their final registers (execute and baseline runs);
    access runs observe but never publish.

    on_load, when given, observes every demand load of every run as
    (instr_id, addr, missed), where missed is true for a load that
    missed outright.  Without it no load pays for observation.
    """
    diags = validate_program(prog)
    if diags:
        raise MachSimError(
            "refusing to simulate an invalid program: "
            + "; ".join(str(d) for d in diags))
    names = {f.name for f in prog.functions}
    for r in sched:
        if r.function is not None and r.function not in names:
            raise MachSimError(f"schedule references unknown function {r.function!r}")
        if not machine.f_min_ghz <= r.frequency <= machine.f_max_ghz:
            raise MachSimError(
                f"frequency {r.frequency} outside "
                f"[{machine.f_min_ghz}, {machine.f_max_ghz}]")
        if r.category not in CATEGORIES:
            raise MachSimError(f"unknown category {r.category!r}")
        if r.charge is not None and r.charge[1] < 0:
            raise MachSimError(f"negative charge {r.charge!r}")

    compiled = {}

    def get_compiled(name: str):
        if name not in compiled:
            compiled[name] = compile_function(prog.function(name))
        return compiled[name]

    cache = LruCache(machine.l1)
    mem_size = default_mem_size(prog)
    mem = init_memory(prog, mem_size)
    env: dict[str, int] = {}
    output: list[int] = []
    block_counts: dict[str, dict[str, int]] = {}
    fuel_box = [fuel]

    records: list[RunRecord] = []
    freq = machine.f_max_ghz

    def charge(kind: str, ns: Fraction, f: Fraction) -> None:
        records.append(RunRecord(
            kind=kind, function=None, frequency=f, category=CAT_OVERHEAD,
            wall_ns=ns, energy=_idle_energy(machine, ns)))

    for r in sched:
        if r.frequency != freq:
            charge("dvfs_switch", machine.dvfs_switch_ns, r.frequency)
            freq = r.frequency
        if r.function is None:
            if r.charge is not None:
                charge(r.charge[0], r.charge[1], r.frequency)
            continue
        cf = get_compiled(r.function)
        call_env = {p: r.args.get(p, env.get(p, 0)) for p in cf.fn.params}
        fuel_before = fuel_box[0]
        clock = _RunClock(machine, cache, r.frequency, fuel_before)
        load_hook = clock.on_load
        if on_load is not None:
            def load_hook(lid, addr, left, account=clock.on_load):
                on_load(lid, addr, account(lid, addr, left))
        run_compiled(cf, call_env, mem, output,
                     block_counts.setdefault(r.function, {}), fuel_box,
                     mem_size, on_load=load_hook, on_prefetch=clock.on_prefetch)
        cycles = clock.drain(fuel_box[0])
        if r.writeback:
            env.update(call_env)
        # Each retired node costs one unit of fuel.
        rec = RunRecord(
            kind="run", function=r.function, frequency=r.frequency,
            category=r.category, slice_index=r.slice_index, cycles=cycles,
            wall_ns=cycles / r.frequency, instr_count=fuel_before - fuel_box[0])
        rec.energy = machine.power(r.frequency, rec.ipc) * rec.wall_ns
        records.append(rec)
        if r.charge is not None and r.charge[0] == "profiling":
            charge("profiling", r.charge[1] * rec.wall_ns, r.frequency)
    if freq != machine.f_max_ghz:
        charge("dvfs_switch", machine.dvfs_switch_ns, machine.f_max_ghz)

    categories = {c: Stats() for c in CATEGORIES}
    total = Stats()
    for rec in records:
        categories[rec.category].add(rec)
        total.add(rec)

    original = Program(functions=[prog.entry_function()], data=prog.data,
                       entry=prog.entry)
    return SimReport(
        categories=categories,
        total=total,
        runs=records,
        output=output,
        memory_digest=memory_digest(mem),
        program_digest=program_digest(original),
        machine_digest=machine.digest(),
        block_counts=block_counts,
    )


# ---------------------------------------------------------------------------
# schedules


def baseline_schedule(function: str, machine: MachineConfig) -> list[PhaseRun]:
    return [PhaseRun(function=function, frequency=machine.f_max_ghz,
                     category=CAT_EXECUTE, slice_index=0, writeback=True)]


def simulate_baseline(prog: Program, machine: MachineConfig,
                      on_load=None) -> SimReport:
    """The entry function alone, once, at f_max."""
    return simulate(prog, baseline_schedule(prog.entry, machine), machine,
                    on_load=on_load)


def build_schedule(
    mode: str,
    plan: PhasePlan,
    machine: MachineConfig,
    profiling_overhead: Fraction = Fraction(0),
) -> list[PhaseRun]:
    """The three experiment shapes.

    baseline: the original, once, at f_max.
    static_dae: access at f_min then execute at f_max for every slice;
      with nothing to prefetch this degenerates to the baseline.
    dynamic_dae: slice 0 runs the execute clone at f_max while profiling,
      then a one-time specialization charge, then access/execute pairs
      for the remaining slices.
    """
    if mode == "baseline":
        return baseline_schedule(plan.original, machine)
    if mode not in MODES:
        raise MachSimError(f"unknown mode {mode!r}")
    if profiling_overhead < 0:
        raise MachSimError("profiling overhead must be non-negative")

    f_lo, f_hi = machine.f_min_ghz, machine.f_max_ghz
    skip_access = plan.access_is_empty
    if mode == "static_dae" and skip_access:
        return baseline_schedule(plan.original, machine)

    sched: list[PhaseRun] = []

    def pair(k: int, with_access: bool) -> None:
        args = plan.slice_args(k)
        if with_access:
            sched.append(PhaseRun(function=plan.access, frequency=f_lo,
                                  category=CAT_ACCESS, slice_index=k, args=args))
        sched.append(PhaseRun(function=plan.execute, frequency=f_hi,
                              category=CAT_EXECUTE, slice_index=k, args=args,
                              writeback=True))

    if mode == "static_dae":
        for k in range(plan.n_slices):
            pair(k, with_access=True)
        return sched

    # dynamic_dae: the first slice doubles as the profiling run.
    prof = ("profiling", profiling_overhead) if profiling_overhead else None
    sched.append(PhaseRun(function=plan.execute, frequency=f_hi,
                          category=CAT_EXECUTE, slice_index=0,
                          args=plan.slice_args(0), writeback=True, charge=prof))
    if plan.n_slices >= 2 and not skip_access:
        jit_ns = machine.jit_ns_per_instr * plan.jit_node_count
        sched.append(PhaseRun(function=None, frequency=f_hi,
                              category=CAT_OVERHEAD, charge=("jit", jit_ns)))
    for k in range(1, plan.n_slices):
        pair(k, with_access=not skip_access)
    return sched


def normalize(report: SimReport,
              baseline: SimReport) -> tuple[Fraction, Fraction]:
    """(time ratio, energy ratio) of a report's total against a baseline's.

    The two reports must describe the same program, input and machine,
    and must have produced identical observable behavior.
    """
    if report.program_digest != baseline.program_digest:
        raise MachSimError("cannot normalize across different programs")
    if report.machine_digest != baseline.machine_digest:
        raise MachSimError("cannot normalize across different machines")
    if report.output != baseline.output or report.memory_digest != baseline.memory_digest:
        raise MachSimError("behavior diverged from the baseline run")
    if not baseline.total.wall_ns or not baseline.total.energy:
        raise MachSimError("baseline has no time or energy to normalize against")
    return (report.total.wall_ns / baseline.total.wall_ns,
            report.total.energy / baseline.total.energy)
