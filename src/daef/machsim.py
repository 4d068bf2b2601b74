"""Timing and energy simulation of phase schedules.

An in-order core runs a schedule of function activations, each at its own
frequency.  The L1 cache and the register environment persist across runs
within one simulation, which is the whole point: an access slice warms the
cache that the following execute slice reads.  Each run keeps its own
clock, an integer count of ticks of 1/q cycle since the run started,
and pays only for the memory system its function uses (_run_clock).  A
run of a function that prefetches has its own miss-handling registers,
which drain when it ends; its clock learns how many nodes have retired
from the fuel left that the interpreter passes to the load and prefetch
hooks, so nothing runs per block.  A run of a function that loads but
never prefetches has no fill in flight, so its clock reads no time: it
counts its misses, and its length follows from its nodes, its misses
and its loads (its block counts times each block's loads).  A run of a
function with no load or prefetch gets no clock: its cycles are its
retired nodes.  The hooks are closures over the run's state, and a load
to the line of the run's last load, with no fill installed and no
prefetch hit in that line's set since, is a hit that touches no set.
The run's ticks become its exact cycles, nanoseconds and energy once,
when its record is built.

Cost model per retired node: one core cycle, plus hit_cycles for a load
that hits, plus ceil(mem_latency_ns * f) blocking cycles for a load that
misses outright.  A load whose line is already in flight waits only the
remaining wall time.  A prefetch retires in its single cycle after
allocating a miss register; when all registers are busy it first waits
for the oldest to complete.  Completed fills install into the cache just
before each memory access and in bulk at the end of every run (phase
boundaries drain).  Stores write memory directly and do not touch the
cache.  A program with no store runs on the shared pristine image of
its input, read only, so its memory digest, at every state below and at
the end, is the image's sha256, taken once when the image was built.

Frequency changes between runs, the one-time specialization of the access
phase, and optional profiling cost are charged as overhead: wall time at
zero-IPC power at f_max, one value per simulation.

What depends only on the machine and a frequency f is computed once per
distinct f and simulate_each call, or lone simulate (_Rates.at): the
clock's tick counts, the record of a switch into f, and a run's time
and energy per tick and per node over one integer denominator.  A
run's T ticks last T / (q * f) ns; power() is affine in IPC and ipc *
wall_ns = instr_count / f, so its energy power(f, ipc) * wall_ns is
exactly power(f, 0) * wall_ns + slope * instr_count, where slope =
(power(f, 1) - power(f, 0)) / f.  So each Fraction of a run record is
built once from integers (_Rates.stats).

Stats declares the reported quantities once: each run record is a Stats,
and a report's per-category sums are sums of its records, each field
over a common denominator (_sum), and its total is their sum.
Stats, run records and reports are immutable, so a report and its
records can be shared by every reader.  normalize() returns the (time,
energy) ratios of a report's total against a baseline's.

simulate_each simulates several schedules of one program and simulates
the runs they end in alike once, reusing a suffix only from an equal
state (the exact form of Schnarr and Larus's memoization, ASPLOS 1998).
For an earlier schedule A and a later one B whose last L runs are equal
PhaseRuns, A records its state before its last L runs and B compares
its own state at the same point.  The state is the frequency, the
register environment, the sha256 of memory and each L1 set's lines in
recency order; the miss registers are empty between runs.  From equal
states equal runs retire the same nodes at the same cost, since a
clock's time counts from its run's start and fuel matters only where it
runs out.  So B joins when the states are equal and its fuel left
covers the nodes A's suffix records retired: it shares those records
and takes A's final memory digest.  Otherwise it simulates on.  Static
and dynamic DAE meet this way before access(1), after dynamic's JIT
charge.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from fractions import Fraction
from types import MappingProxyType

from .daegen import PhasePlan
from .ir import Program, Store, program_digest
from .ir.interp import (
    DEFAULT_FUEL,
    CompiledFunction,
    compile_function,
    default_mem_size,
    init_memory,
    memory_digest,
    pristine_image,
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

    charge is (kind, amount): a bare entry (function None) charges "jit"
    with the amount in nanoseconds, and a run charges "profiling" with
    the amount a fraction of its own wall time, added as overhead right
    after the run.  Frequency switches are not scheduled
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


@dataclass(frozen=True)
class Stats:
    """The reported quantities; a new counter is one field."""
    cycles: Fraction = Fraction(0)
    wall_ns: Fraction = Fraction(0)
    energy: Fraction = Fraction(0)
    instr_count: int = 0

    def __add__(self, other: Stats) -> Stats:
        return Stats(*(getattr(self, f.name) + getattr(other, f.name)
                       for f in fields(Stats)))


@dataclass(frozen=True, kw_only=True)
class RunRecord(Stats):
    """One run or charge: its Stats, and what a run printed and entered."""
    kind: str  # "run" | "jit" | "dvfs_switch" | "profiling"
    function: str | None
    frequency: Fraction
    category: str
    slice_index: int | None = None
    output: tuple[int, ...] = ()
    block_counts: Mapping[str, int] = field(  # label -> entries
        default_factory=lambda: MappingProxyType({}))


@dataclass(frozen=True)
class SimReport:
    categories: Mapping[str, Stats]
    total: Stats
    runs: tuple[RunRecord, ...]
    memory_digest: str
    program_digest: str
    machine_digest: str

    @property
    def output(self) -> list[int]:
        """The runs' outputs, in order, in a new list."""
        return [v for rec in self.runs for v in rec.output]


def _common(values) -> tuple[list[int], int]:
    """Exact rationals (ints too) as numerators over their least common
    denominator, and that denominator."""
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


def _sum(records: list[Stats]) -> Stats:
    """The exact sum of records: each field normalized once, in its type."""
    def total(name: str) -> Fraction:
        nums, den = _common([getattr(rec, name) for rec in records])
        return Fraction(sum(nums), den)
    return Stats(*(type(f.default)(total(f.name)) for f in fields(Stats)))


@dataclass(frozen=True)
class _Rates:
    """The costs of a run at frequency f: ticks of 1/q cycle; its wall_ns =
    ticks * wall / den and energy = (ticks * per_tick + nodes * per_node)
    / den; and the record of a switch into f."""
    f: Fraction
    q: int
    hit: int
    miss: int
    fill: int
    den: int
    wall: int
    per_tick: int
    per_node: int
    switch: RunRecord

    @classmethod
    def at(cls, machine: MachineConfig, f: Fraction) -> _Rates:
        fill = machine.mem_latency_ns * f
        q, ns = fill.denominator, machine.dvfs_switch_ns
        p0, tick_ns = machine.power(f, Fraction(0)), 1 / (q * f)
        (wall, per_tick, per_node), den = _common(
            [tick_ns, p0 * tick_ns, (machine.power(f, Fraction(1)) - p0) / f])
        return cls(f=f, q=q, hit=machine.l1.hit_cycles * q,
                   miss=machine.mem_latency_cycles(f) * q, fill=fill.numerator,
                   den=den, wall=wall, per_tick=per_tick, per_node=per_node,
                   switch=RunRecord(
                       kind="dvfs_switch", function=None, frequency=f,
                       category=CAT_OVERHEAD, wall_ns=ns,
                       energy=machine.power(machine.f_max_ghz, Fraction(0)) * ns))

    def stats(self, ticks: int, nodes: int) -> tuple[Fraction, Fraction, Fraction]:
        """A run's exact (cycles, wall_ns, energy) from its ticks and nodes."""
        return (Fraction(ticks, self.q), Fraction(ticks * self.wall, self.den),
                Fraction(ticks * self.per_tick + nodes * self.per_node, self.den))


def _run_clock(machine: MachineConfig, cache: LruCache, rates: _Rates,
               fuel: int, prefetches: bool, tally: tuple | None = None):
    """One run's clock: the run's (on_load, on_prefetch, drain) hooks,
    closures over its state.  drain(fuel, loads) takes the fuel the run
    left and the loads it ran, and returns the run's length in ticks.

    Time is an integer count of ticks since the run started.  A tick is
    1/q cycle, where q is the denominator of mem_latency_ns * f, so a
    base cycle, a hit, a blocking miss and a fill are all whole numbers
    of ticks.  The constants come from rates, computed once per
    frequency and simulate_each call.

    probe accounts a load on the L1, whose sets it probes itself: a hit
    moves the line to the most recent end of its set in place, and only
    misses and fills call LruCache.install.  recent is the line of the
    run's last load, which that load left resident and most recent in
    its set.  Until a fill installs or a prefetch hits in that set, both
    of which reset recent, nothing touches that set, so a later load to
    that line is a hit that leaves every set as it is.

    A run whose function has no prefetch has no fill in flight, so its
    load hook is probe, which reads no time and counts only misses, and
    drain returns (fuel at the start - fuel left) * q + misses * miss +
    (loads - misses) * hit.  A run that prefetches has its own miss
    registers, which drain at its end: no fill outlives it.  Its clock
    reads the retired nodes from the fuel each hook receives (the
    interpreter charges a block's nodes on entry, so no call is made per
    block): now = (fuel at the start - fuel left) * q + stall, where
    stall sums the ticks of hits, blocking misses, joins and waits for a
    register.  Each access first installs the fills completed by now,
    in issue order; oldest is the done tick of the first.  A prefetch to
    a line in flight returns before that: it touches no set and no
    register, and the next access or the drain installs the same fills,
    in the same order, before it touches a set.

    tally, when given, is simulate's (lines, misses): each load adds its
    line to lines[id], and one that misses outright adds 1 to misses[id].
    """
    q, hit, miss, fill = rates.q, rates.hit, rates.miss, rates.fill
    mshr_count, line_bytes = machine.mshr_count, machine.l1.line_bytes
    sets, n_sets, install = cache.sets, cache.n_sets, cache.install
    lines, misses = tally or (None, None)
    base = fuel * q
    recent = -1  # no line: line numbers are not negative
    missed = 0

    def probe(instr_id: int, addr: int, fuel: int) -> bool:
        """Account one demand load on the L1; True when it missed outright."""
        nonlocal recent, missed
        line = addr // line_bytes
        if lines is not None:
            lines[instr_id].add(line)
        if line == recent:
            return False
        recent = line
        s = sets.get(line % n_sets, ())
        if line in s:
            del s[line]
            s[line] = None
            return False
        install(line)
        missed += 1
        if misses is not None:
            misses[instr_id] += 1
        return True

    if not prefetches:
        def drain(fuel: int, loads: int) -> int:
            return base - fuel * q + missed * miss + (loads - missed) * hit

        return probe, None, drain

    mshr: OrderedDict[int, int] = OrderedDict()  # line -> done tick
    stall = 0
    oldest = math.inf  # mshr is empty

    def complete(now: int) -> None:
        """Install every fill that has completed by now."""
        nonlocal recent, oldest
        recent = -1
        while oldest <= now:
            install(mshr.popitem(last=False)[0])
            oldest = next(iter(mshr.values()), math.inf)

    def on_load(instr_id: int, addr: int, fuel: int) -> bool:
        """probe, once the fills completed by now are installed and a
        fill of the load's line in flight is joined."""
        nonlocal stall, oldest
        if mshr:
            now = base - fuel * q + stall
            if oldest <= now:
                complete(now)
            line = addr // line_bytes
            if line in mshr:
                # Join the fill in flight, then read it through the cache.
                stall += max(0, mshr.pop(line) - now)
                oldest = next(iter(mshr.values()), math.inf)
                install(line)
        if probe(instr_id, addr, fuel):
            stall += miss
            return True
        stall += hit
        return False

    def on_prefetch(instr_id: int, addr: int, fuel: int) -> None:
        nonlocal stall, recent, oldest
        line = addr // line_bytes
        now = base - fuel * q + stall
        if mshr.get(line, now) > now:
            return  # in flight: it touches nothing
        if oldest <= now:
            complete(now)
        s = sets.get(line % n_sets, ())
        if line in s:
            del s[line]
            s[line] = None
            if recent in s:
                recent = -1
            return
        if len(mshr) >= mshr_count:
            old_line, done = mshr.popitem(last=False)
            if done > now:
                stall += done - now
                now = done
            install(old_line)
            recent = -1
        mshr[line] = now + fill
        oldest = next(iter(mshr.values()))

    def drain(fuel: int, loads: int) -> int:
        """Wait for every fill."""
        now = base - fuel * q + stall
        while mshr:
            line, done = mshr.popitem(last=False)
            now = max(now, done)
            install(line)
        return now

    return on_load, on_prefetch, drain


def _memory(prog: Program, mem_size: int):
    """The memory a simulation of prog runs on, and a function that
    gives its sha256 now.  A program without a store never writes
    memory: its runs read the shared pristine image through a read-only
    view, and its digest is the image's, taken when the image was built.
    Any other program runs on a fresh copy, hashed each time."""
    if any(isinstance(n, Store) for fn in prog.functions for n in fn.nodes()):
        mem = init_memory(prog, mem_size)
        return mem, lambda: memory_digest(mem)
    image = pristine_image(prog, mem_size)
    return memoryview(image.mem).toreadonly(), lambda: image.digest


@dataclass
class _Suffix:
    """The last runs an earlier schedule shares with a later one: the
    earlier one's state before them, and what they did from there."""
    state: tuple | None = None  # (frequency, env, memory sha256, L1 snapshot)
    first: int = 0  # the index of the state's first record
    records: list[RunRecord] = field(default_factory=list)
    memory_digest: str = ""


def simulate(
    prog: Program,
    sched: list[PhaseRun],
    machine: MachineConfig,
    fuel: int = DEFAULT_FUEL,
    tally: tuple[dict[int, set[int]], dict[int, int]] | None = None,
    *,
    marks: dict[int, list[_Suffix]] | None = None,
    joins: dict[int, list[_Suffix]] | None = None,
    compiled: dict[str, CompiledFunction] | None = None,
    rates: dict[Fraction, _Rates] | None = None,
    digest: str | None = None,
) -> SimReport:
    """Run a schedule to completion and account time and energy.

    prog must be valid (BenchmarkKernel.program checks a kernel as it is
    loaded, and make_phases checks the plan it builds); the schedule is
    checked here.

    Registers persist across runs: parameters bind from the run's args
    first, then from the persistent environment, then zero.  Runs marked
    writeback publish their final registers (execute and baseline runs);
    access runs observe but never publish.

    tally, when given, is the profiler's (lines, misses), keyed by the
    id of every load the schedule may run: each demand load adds its
    cache line to lines[id], and one that missed outright adds 1 to
    misses[id].  The clock's on_load records both as it accounts the
    load; without a tally a load pays one test for it.

    Each run record keeps the run's output and block entry counts; the
    report's output is their concatenation.

    marks, joins, compiled and rates come from simulate_each.  Before
    run k, simulate records its state into each suffix in marks[k], and
    takes the first suffix in joins[k] whose state equals its own and
    whose records' instr_count its fuel left covers.  tally sees only the
    runs simulated.  compiled maps function names to their
    CompiledFunction, and rates frequencies to the machine's _Rates;
    simulate adds each function it compiles and each table it computes,
    so the schedules of one simulate_each call compute each once.

    The report's program_digest is program_digest(prog).  digest, when
    given, is that value, which a caller that already has it hands down
    instead of having prog printed again.
    """
    marks, joins = marks or {}, joins or {}
    compiled = {} if compiled is None else compiled
    rates = {} if rates is None else rates
    names = {f.name for f in prog.functions}
    for r in sched:
        if r.function is not None and r.function not in names:
            raise MachSimError(f"schedule references unknown function {r.function!r}")
        if r.category not in CATEGORIES:
            raise MachSimError(f"unknown category {r.category!r}")
        if r.function is None and r.charge is None:
            raise MachSimError("schedule entry has neither a function nor a charge")
        if r.charge is not None and r.charge[1] < 0:
            raise MachSimError(f"negative charge {r.charge!r}")
        if r.charge is not None and r.charge[0] != (
                "jit" if r.function is None else "profiling"):
            raise MachSimError(f"charge {r.charge!r} does not fit its entry")
    # The schedule's few frequency objects and f_max, each checked and
    # looked up once, by identity; equal frequencies share one _Rates.
    rates_of = {id(r.frequency): r.frequency for r in sched}
    rates_of[id(machine.f_max_ghz)] = machine.f_max_ghz
    for i, f in rates_of.items():
        if not machine.f_min_ghz <= f <= machine.f_max_ghz:
            raise MachSimError(f"frequency {f} outside "
                               f"[{machine.f_min_ghz}, {machine.f_max_ghz}]")
        if f not in rates:
            rates[f] = _Rates.at(machine, f)
        rates_of[i] = rates[f]

    cache = LruCache(machine.l1)
    mem_size = default_mem_size(prog)
    mem, mem_digest = _memory(prog, mem_size)
    env: dict[str, int] = {}
    fuel_box = [fuel]

    records: list[RunRecord] = []
    top = cur = rates_of[id(machine.f_max_ghz)]
    idle = machine.power(machine.f_max_ghz, Fraction(0))

    def charge(kind: str, ns: Fraction, f: Fraction) -> None:
        records.append(RunRecord(
            kind=kind, function=None, frequency=f, category=CAT_OVERHEAD,
            wall_ns=ns, energy=idle * ns))

    joined = None
    for k, r in enumerate(sched):
        rt = rates_of[id(r.frequency)]
        if k in marks or k in joins:
            state = (cur.f, dict(env), mem_digest(), cache.snapshot())
            for s in marks.get(k, ()):
                s.state, s.first = state, len(records)
            joined = next((s for s in joins.get(k, ()) if s.state == state and
                           sum(r.instr_count for r in s.records) <= fuel_box[0]),
                          None)
            if joined is not None:
                break
        if rt is not cur:
            records.append(rt.switch)
            cur = rt
        if r.function is None:
            if r.charge is not None:
                charge("jit", r.charge[1], r.frequency)
            continue
        cf = compiled.get(r.function)
        if cf is None:
            cf = compiled[r.function] = compile_function(prog.function(r.function))
        call_env = {p: r.args.get(p, env.get(p, 0)) for p in cf.fn.params}
        fuel_before = fuel_box[0]
        on_load = on_prefetch = None
        if cf.loads or cf.prefetches:
            on_load, on_prefetch, drain = _run_clock(
                machine, cache, rt, fuel_before, cf.prefetches, tally)
        output: list[int] = []
        counts: dict[str, int] = {}
        cf.run(call_env, mem, output, counts, fuel_box, mem_size,
               on_load=on_load, on_prefetch=on_prefetch)
        # Each retired node costs one unit of fuel, and without a load or
        # a prefetch one cycle: what the clock would drain to.
        instr_count = fuel_before - fuel_box[0]
        ticks = instr_count * rt.q if on_load is None else drain(
            fuel_box[0], sum(counts.get(b, 0) * n for b, n in cf.loads))
        if r.writeback:
            env.update(call_env)
        cycles, wall_ns, energy = rt.stats(ticks, instr_count)
        rec = RunRecord(
            kind="run", function=r.function, frequency=r.frequency,
            category=r.category, slice_index=r.slice_index, cycles=cycles,
            wall_ns=wall_ns, instr_count=instr_count, energy=energy,
            output=tuple(output), block_counts=MappingProxyType(counts))
        records.append(rec)
        if r.charge is not None:
            charge("profiling", r.charge[1] * rec.wall_ns, r.frequency)

    if joined is None:
        if cur is not top:
            records.append(top.switch)
        mem_final = mem_digest()
    else:
        records += joined.records
        mem_final = joined.memory_digest
    for s in (s for group in marks.values() for s in group):
        if s.state is None:
            continue  # this schedule joined another before s began
        s.records = records[s.first:]
        s.memory_digest = mem_final

    if digest is None:
        digest = program_digest(prog)
    categories = {c: _sum([rec for rec in records if rec.category == c])
                  for c in CATEGORIES}
    return SimReport(
        categories=MappingProxyType(categories),
        total=sum(categories.values(), Stats()),
        runs=tuple(records),
        memory_digest=mem_final,
        program_digest=digest,
        machine_digest=machine.digest(),
    )


def simulate_each(prog: Program, scheds: list[list[PhaseRun]],
                  machine: MachineConfig, fuel: int = DEFAULT_FUEL,
                  compiled: dict[str, CompiledFunction] | None = None,
                  digest: str | None = None):
    """Yield simulate(prog, sched, machine, fuel) for each schedule, in
    order, simulating the runs a later schedule shares with an earlier
    one once (see the module docstring), and compiling each function and
    computing each frequency's rates once.  digest is handed to each
    simulation, as in simulate.  compiled, a map from prog's
    function names to their CompiledFunction, is read and filled when
    given (harness.Prepared keeps one per plan), and made fresh when
    not.  A program that stores gets a working copy of memory per
    schedule, released before the next one's is made."""
    marks: list[dict[int, list[_Suffix]]] = [{} for _ in scheds]
    joins: list[dict[int, list[_Suffix]]] = [{} for _ in scheds]
    for j, b in enumerate(scheds):
        for i, a in enumerate(scheds[:j]):
            n = 0
            while n < min(len(a), len(b)) and a[-1 - n] == b[-1 - n]:
                n += 1
            if n:
                s = _Suffix()
                marks[i].setdefault(len(a) - n, []).append(s)
                joins[j].setdefault(len(b) - n, []).append(s)
    compiled = {} if compiled is None else compiled
    rates: dict[Fraction, _Rates] = {}
    for sched, mine, theirs in zip(scheds, marks, joins):
        yield simulate(prog, sched, machine, fuel, marks=mine, joins=theirs,
                       compiled=compiled, rates=rates,
                       digest=digest)


# ---------------------------------------------------------------------------
# schedules


def baseline_schedule(function: str, machine: MachineConfig) -> list[PhaseRun]:
    return [PhaseRun(function=function, frequency=machine.f_max_ghz,
                     category=CAT_EXECUTE, slice_index=0, writeback=True)]


def simulate_baseline(prog: Program, machine: MachineConfig, tally=None,
                      digest: str | None = None) -> SimReport:
    """The entry function, once, at f_max; tally and digest as in
    simulate."""
    return simulate(prog, baseline_schedule(prog.entry, machine), machine,
                    tally=tally, digest=digest)


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
