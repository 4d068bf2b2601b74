"""Tests for the timing simulator: cost model, schedules, accounting."""

from __future__ import annotations

import dataclasses
import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from daef.cfg import find_loops
from daef.daegen import SliceParams, make_phases
from daef import machsim
from daef.ir import (DirRuntimeError, interp, interpret, parse_program,
                     print_program)
from daef.ir.interp import memory_digest
from daef.harness import dae_fuel, prepare, run_kernel_all_modes, run_suite
from daef.ir.types import Load, Store
from daef.kernels import BenchmarkKernel, builtin_kernels, kernel_by_name
from daef.machine import L1Config, LruCache, MachineConfig, PowerConfig
from daef.machsim import (
    CAT_EXECUTE,
    CAT_OVERHEAD,
    MODES,
    MachSimError,
    PhaseRun,
    SimReport,
    Stats,
    _Rates,
    _run_clock,
    baseline_schedule,
    build_schedule,
    normalize,
    simulate,
    simulate_each,
)
from daef.profiler import profiled_baseline

from conftest import (counting_runs, random_chase_kernel, random_loop_kernel,
                      random_machine)
from test_oracle import model_run


def machine() -> MachineConfig:
    return MachineConfig()


def override(size: int) -> SliceParams:
    return SliceParams(size=size, source="override")


def sum_text(n: int, stride: int = 8, seed: int = 7) -> str:
    length = max(n * stride, 8)
    return f"""
data @base=4096 prng(seed={seed}, len={length})

entry @main

func @main() kind=original {{
entry:
  %base = const 4096            !id=0
  %n = const {n}                !id=1
  br loop                       !id=2
loop:
  %i = phi [entry: 0], [latch: %i2]       !id=3
  %acc = phi [entry: 0], [latch: %acc2]   !id=4
  %c = binop slt %i, %n         !id=5
  brcond %c, body, done         !id=6
body:
  %off = binop mul %i, {stride} !id=7
  %addr = binop add %base, %off !id=8
  %v = load %addr, 0, w8        !id=10
  %acc2 = binop add %acc, %v    !id=11
  br latch                      !id=12
latch:
  %i2 = binop add %i, 1         !id=13
  br loop                       !id=14
done:
  out %acc                      !id=15
  ret %acc                      !id=16
}}
"""


def straightline_text(n_nodes: int) -> str:
    # const + adds + ret retire exactly n_nodes nodes.
    assert n_nodes >= 2
    lines = ["entry @main", "", "func @main() kind=original {", "entry:",
             "  %x0 = const 1"]
    for i in range(1, n_nodes - 1):
        lines.append(f"  %x{i} = binop add %x{i - 1}, %x0")
    lines.append(f"  ret %x{n_nodes - 2}")
    lines.append("}")
    return "\n".join(lines)


def prefetch_fan_text(n_lines: int) -> str:
    # Origin tags must name a load, so park one behind a never-taken branch.
    lines = [f"data @base=4096 zero={n_lines * 64}", "", "entry @main", "",
             "func @main() kind=original {", "entry:",
             "  %b = const 4096"]
    for i in range(n_lines):
        lines.append(f"  prefetch %b, {i * 64}   !origin=99")
    lines.append("  %z = const 0")
    lines.append("  brcond %z, dead, done")
    lines.append("dead:")
    lines.append("  %v = load %b, 0, w8   !id=99")
    lines.append("  br done")
    lines.append("done:")
    lines.append("  ret")
    lines.append("}")
    return "\n".join(lines)


def body_load_ids(prog) -> set[int]:
    fn = prog.entry_function()
    li = find_loops(fn).loops[0]
    return {ins.id for blk in fn.blocks if blk.label in li.body
            for ins in blk.body if isinstance(ins, Load)}


def plan_for(text: str, size: int, critical: set[int] | None = None):
    prog = parse_program(text)
    if critical is None:
        critical = body_load_ids(prog)
    return make_phases(prog, critical=critical, slice_params=override(size))


def run_records(report):
    return [r for r in report.runs if r.kind == "run"]


# -- single-run cost model ---------------------------------------------------


def test_empty_schedule_is_all_zero():
    m = machine()
    rep = simulate(parse_program(straightline_text(10)), [], m)
    assert rep.total.cycles == 0
    assert rep.total.wall_ns == 0
    assert rep.total.energy == 0
    assert rep.total.instr_count == 0
    assert rep.runs == ()
    assert rep.output == []


def test_register_only_run_is_one_cycle_per_node():
    m = machine()
    prog = parse_program(straightline_text(100))
    rep = simulate(prog, baseline_schedule("main", m), m)
    assert rep.total.instr_count == 100
    assert rep.total.cycles == 100
    assert rep.total.wall_ns == Fraction(100) / m.f_max_ghz
    assert rep.total.instr_count / rep.total.cycles == 1
    assert rep.total.energy == m.power(m.f_max_ghz, Fraction(1)) * rep.total.wall_ns


def test_register_only_wall_scales_exactly_with_frequency():
    m = machine()
    prog = parse_program(straightline_text(100))
    walls = {}
    for f in (m.f_max_ghz, m.f_min_ghz):
        sched = [PhaseRun(function="main", frequency=f, category=CAT_EXECUTE,
                          writeback=True)]
        rep = simulate(prog, sched, m)
        walls[f] = [r for r in rep.runs if r.kind == "run"][0].wall_ns
    assert walls[m.f_min_ghz] / walls[m.f_max_ghz] == m.f_max_ghz / m.f_min_ghz


def test_prefetch_fanout_overlaps_misses():
    # 10 outstanding fills complete together: issue time plus one latency.
    m = machine()
    prog = parse_program(prefetch_fan_text(10))
    # Entry retires 13 nodes before the first fill is timed; the final ret
    # retires under the latency shadow.
    issue = Fraction(13) / m.f_max_ghz
    rep = simulate(prog, baseline_schedule("main", m), m)
    assert rep.total.wall_ns == issue + m.mem_latency_ns
    assert rep.total.wall_ns < 10 * m.mem_latency_ns

    one = dataclasses.replace(m, mshr_count=1)
    rep1 = simulate(prog, baseline_schedule("main", one), one)
    assert rep1.total.wall_ns == issue + 10 * m.mem_latency_ns


def test_prefetched_line_hits_in_later_phase():
    m = machine()
    text = """
data @base=4096 zero=64

entry @main

func @warm() kind=original {
entry:
  %b = const 4096
  prefetch %b, 0   !origin=50
  ret
}

func @main() kind=original {
entry:
  %b = const 4096
  %v = load %b, 0, w8   !id=50
  ret %v
}
"""
    prog = parse_program(text)
    sched = [
        PhaseRun(function="warm", frequency=m.f_max_ghz, category=CAT_EXECUTE),
        PhaseRun(function="main", frequency=m.f_max_ghz, category=CAT_EXECUTE),
    ]
    rep = simulate(prog, sched, m)
    warm, load = run_records(rep)
    # The drain leaves the line resident, so the load pays only the hit.
    assert load.cycles == load.instr_count + m.l1.hit_cycles
    assert warm.wall_ns >= m.mem_latency_ns


def test_load_joins_in_flight_fill():
    m = machine()
    text = """
data @base=4096 zero=64

entry @main

func @main() kind=original {
entry:
  %b = const 4096
  prefetch %b, 0   !origin=7
  %v = load %b, 0, w8   !id=7
  ret %v
}
"""
    rep = simulate(parse_program(text), baseline_schedule("main", machine()), m)
    # Nodes flush first, then the load stalls out the remaining latency and
    # pays the hit on top.
    issue = Fraction(4) / m.f_max_ghz
    hit = Fraction(m.l1.hit_cycles) / m.f_max_ghz
    assert rep.total.wall_ns == issue + m.mem_latency_ns + hit


def test_store_bypasses_cache():
    m = machine()
    text = """
data @base=4096 zero=64

entry @main

func @main() kind=original {
entry:
  %b = const 4096
  %x = const 7
  store %b, 0, %x, w8
  %v = load %b, 0, w8
  out %v
  ret %v
}
"""
    rep = simulate(parse_program(text), baseline_schedule("main", m), m)
    assert rep.output == [7]
    # The store does not install the line; the load still misses.
    assert rep.total.cycles == rep.total.instr_count + m.mem_latency_cycles(m.f_max_ghz)


def test_all_miss_wall_is_frequency_independent():
    lines = ["data @base=4096 zero=6400", "", "entry @main", "",
             "func @main() kind=original {", "entry:", "  %b = const 4096"]
    for i in range(100):
        lines.append(f"  %v{i} = load %b, {i * 64}, w8")
    lines.append("  ret")
    lines.append("}")
    prog = parse_program("\n".join(lines))
    m = machine()
    walls = {}
    for f in (m.f_max_ghz, m.f_min_ghz):
        sched = [PhaseRun(function="main", frequency=f, category=CAT_EXECUTE)]
        run = run_records(simulate(prog, sched, m))[0]
        assert run.instr_count == 102
        # The memory component is identical; only the 102 core cycles move.
        assert run.wall_ns - Fraction(102) / f == 100 * m.mem_latency_ns
        walls[f] = run.wall_ns
    hi, lo = walls[m.f_max_ghz], walls[m.f_min_ghz]
    assert abs(lo - hi) / hi < Fraction(1, 100)


# -- schedules ---------------------------------------------------------------


def test_static_schedule_shape():
    m = machine()
    plan = plan_for(sum_text(1000), size=250)
    rep = simulate(plan.program, build_schedule("static_dae", plan, m), m)
    runs = run_records(rep)
    assert [(r.category, r.slice_index) for r in runs] == [
        (c, k) for k in range(4) for c in ("access", "execute")]
    switches = [r for r in rep.runs if r.kind == "dvfs_switch"]
    assert len(switches) == 8  # entry switch included, exit is free
    assert all(r.wall_ns == m.dvfs_switch_ns for r in switches)
    assert not [r for r in rep.runs if r.kind == "jit"]
    assert {r.frequency for r in runs if r.category == "access"} == {m.f_min_ghz}
    assert {r.frequency for r in runs if r.category == "execute"} == {m.f_max_ghz}


def test_dynamic_schedule_shape():
    m = machine()
    plan = plan_for(sum_text(1000), size=250)
    rep = simulate(plan.program, build_schedule("dynamic_dae", plan, m), m)
    runs = run_records(rep)
    assert [(r.category, r.slice_index) for r in runs] == [
        ("execute", 0),
        ("access", 1), ("execute", 1),
        ("access", 2), ("execute", 2),
        ("access", 3), ("execute", 3)]
    jits = [r for r in rep.runs if r.kind == "jit"]
    assert len(jits) == 1
    assert jits[0].wall_ns == m.jit_ns_per_instr * plan.jit_node_count
    assert len([r for r in rep.runs if r.kind == "dvfs_switch"]) == 6


def test_profiling_charge_follows_first_slice():
    m = machine()
    plan = plan_for(sum_text(64), size=16)
    sched = build_schedule("dynamic_dae", plan, m,
                           profiling_overhead=Fraction(1, 10))
    rep = simulate(plan.program, sched, m)
    prof = [r for r in rep.runs if r.kind == "profiling"]
    first = run_records(rep)[0]
    assert len(prof) == 1
    assert prof[0].wall_ns == first.wall_ns * Fraction(1, 10)
    assert prof[0].category == "overhead"
    assert prof[0].instr_count == 0


def test_compute_only_plan_degenerates():
    text = """
entry @main

func @main() kind=original {
entry:
  %n = const 40
  br loop
loop:
  %i = phi [entry: 0], [latch: %i2]
  %acc = phi [entry: 0], [latch: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %sq = binop mul %i, %i
  %acc2 = binop add %acc, %sq
  br latch
latch:
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret %acc
}
"""
    m = machine()
    plan = plan_for(text, size=10, critical=set())
    assert plan.access_is_empty
    static = build_schedule("static_dae", plan, m)
    assert [(r.function, r.frequency) for r in static] == [
        (plan.original, m.f_max_ghz)]
    dyn = build_schedule("dynamic_dae", plan, m)
    assert all(r.function == plan.execute for r in dyn)
    rep = simulate(plan.program, dyn, m)
    assert not [r for r in rep.runs if r.kind != "run"]
    assert rep.output == interpret(parse_program(text)).output


def test_exit_switch_back_to_f_max_is_charged():
    m = machine()
    prog = parse_program(straightline_text(10))
    sched = [PhaseRun(function="main", frequency=m.f_min_ghz,
                      category=CAT_EXECUTE)]
    rep = simulate(prog, sched, m)
    switches = [r for r in rep.runs if r.kind == "dvfs_switch"]
    assert len(switches) == 2  # down at entry, back up at the end


# -- semantics and accounting ------------------------------------------------


@pytest.mark.parametrize("mode", ["baseline", "static_dae", "dynamic_dae"])
def test_modes_preserve_semantics(mode):
    m = machine()
    plan = plan_for(sum_text(200, stride=24), size=32)
    ref = interpret(parse_program(sum_text(200, stride=24)))
    rep = simulate(plan.program, build_schedule(mode, plan, m), m)
    assert rep.output == ref.output
    base = simulate(plan.program, baseline_schedule(plan.original, m), m)
    assert rep.memory_digest == base.memory_digest
    assert rep.program_digest == base.program_digest


def test_random_kernels_preserve_semantics():
    m = machine()
    rng = random.Random(60467)
    for _ in range(8):
        prog = random_loop_kernel(rng)
        ref = interpret(prog)
        plan = make_phases(prog, critical=body_load_ids(prog),
                           slice_params=override(rng.choice([1, 7, 33])))
        base = simulate(plan.program, baseline_schedule(plan.original, m), m)
        assert base.output == ref.output
        for mode in ("static_dae", "dynamic_dae"):
            rep = simulate(plan.program, build_schedule(mode, plan, m), m)
            assert rep.output == ref.output
            assert rep.memory_digest == base.memory_digest


def test_instruction_counts_are_frequency_invariant():
    plan = plan_for(sum_text(128, stride=64), size=32)
    counts = []
    for f_min in (Fraction("1.6"), Fraction(1)):
        m = dataclasses.replace(machine(), f_min_ghz=f_min)
        rep = simulate(plan.program, build_schedule("static_dae", plan, m), m)
        counts.append({c: s.instr_count for c, s in rep.categories.items()})
    assert counts[0] == counts[1]


def test_totals_are_additive():
    m = machine()
    plan = plan_for(sum_text(200), size=64)
    rep = simulate(plan.program, build_schedule("dynamic_dae", plan, m), m,)
    for stat in (f.name for f in dataclasses.fields(Stats)):
        by_cat = sum(getattr(s, stat) for s in rep.categories.values())
        by_run = sum(getattr(r, stat) for r in rep.runs)
        assert getattr(rep.total, stat) == by_cat == by_run


def test_zero_overhead_degeneracy():
    # With free switches and free specialization, dynamic differs from
    # static only in slice 0, where it runs execute cold instead of an
    # access/execute pair.
    m = dataclasses.replace(machine(), dvfs_switch_ns=Fraction(0),
                            jit_ns_per_instr=Fraction(0))
    plan = plan_for(sum_text(64), size=16)
    st = simulate(plan.program, build_schedule("static_dae", plan, m), m)
    dy = simulate(plan.program, build_schedule("dynamic_dae", plan, m), m)
    st_runs = run_records(st)
    dy_runs = run_records(dy)
    for a, b in zip(st_runs[2:], dy_runs[1:]):
        assert (a.function, a.slice_index) == (b.function, b.slice_index)
        assert (a.cycles, a.wall_ns, a.energy, a.instr_count) == \
            (b.cycles, b.wall_ns, b.energy, b.instr_count)
    slice0_delta = dy_runs[0].wall_ns - st_runs[0].wall_ns - st_runs[1].wall_ns
    assert dy.total.wall_ns == st.total.wall_ns + slice0_delta
    assert st.categories["overhead"].wall_ns == 0
    assert dy.categories["overhead"].wall_ns == 0


def test_access_wall_shrinks_with_more_mshrs():
    plan = plan_for(sum_text(256, stride=64), size=64)
    walls = []
    for k in (1, 2, 4, 10):
        m = dataclasses.replace(machine(), mshr_count=k)
        rep = simulate(plan.program, build_schedule("static_dae", plan, m), m)
        walls.append(rep.categories["access"].wall_ns)
    assert all(b <= a for a, b in zip(walls, walls[1:]))
    assert walls[-1] < walls[0] / 2


def test_baseline_cycles_match_profile_counts():
    # One cycle per node, hit_cycles per hit, latency cycles per miss:
    # the profile is taken on the baseline run, so the counts must agree.
    m = machine()
    text = sum_text(512, stride=8)
    prog = parse_program(text)
    prof = profiled_baseline(prog, m)[1]
    hits = sum(s.exec_count - s.miss_count for s in prof.loads)
    misses = sum(s.miss_count for s in prof.loads)
    assert misses > 0 and hits > 0
    rep = simulate(prog, baseline_schedule("main", m), m)
    lat = m.mem_latency_cycles(m.f_max_ghz)
    assert rep.total.cycles == rep.total.instr_count + hits * m.l1.hit_cycles \
        + misses * lat


# 61.3 ns at 3.3 and at 1.5 GHz are 202.29 and 91.95 cycles, so a fill
# is not a whole number of cycles at either frequency: q > 1.
FRACTIONAL_LATENCY = {
    "f_max_ghz": 3.3, "f_min_ghz": 1.5, "mem_latency_ns": 61.3,
    "mshr_count": 2, "dvfs_switch_ns": 97.5,
    "l1": {"capacity_bytes": 4096, "ways": 2}}


def test_exact_results_when_latency_is_not_whole_cycles():
    m = MachineConfig.from_json(FRACTIONAL_LATENCY)
    assert (m.mem_latency_ns * m.f_max_ghz).denominator > 1
    assert (m.mem_latency_ns * m.f_min_ghz).denominator > 1
    expected = {
        "gather_sum": {
            "static_dae": ("15288239/16813700", "1370958151/1704839000"),
            "dynamic_dae": ("11524942/12610275", "2858809/3532125")},
        "chase_sum": {
            "static_dae": ("8097237/4040620", "681663117/413975000"),
            "dynamic_dae": ("1893703/1010155", "323933893/206987500")},
    }
    for name, by_mode in expected.items():
        rows = run_kernel_all_modes(kernel_by_name(name), m, seed=0)
        got = {r.mode: (r.norm_time, r.norm_energy) for r in rows
               if r.mode != "baseline"}
        assert got == {mode: (Fraction(t), Fraction(e))
                       for mode, (t, e) in by_mode.items()}


# -- normalization and errors ------------------------------------------------


def test_normalize_against_self_is_unity():
    m = machine()
    plan = plan_for(sum_text(64), size=16)
    base = simulate(plan.program, baseline_schedule(plan.original, m), m)
    assert normalize(base, base) == (1, 1)


def test_normalize_rejects_mismatches():
    m = machine()
    plan = plan_for(sum_text(64), size=16)
    base = simulate(plan.program, baseline_schedule(plan.original, m), m)
    other_m = dataclasses.replace(m, mshr_count=3)
    other = simulate(plan.program, baseline_schedule(plan.original, other_m),
                     other_m)
    with pytest.raises(MachSimError, match="machines"):
        normalize(other, base)
    prog2 = parse_program(sum_text(65))
    base2 = simulate(prog2, baseline_schedule("main", m), m)
    with pytest.raises(MachSimError, match="programs"):
        normalize(base2, base)
    (run,) = base.runs
    forged = dataclasses.replace(
        base, runs=(dataclasses.replace(run, output=(0,)),))
    with pytest.raises(MachSimError, match="diverged"):
        normalize(forged, base)


def test_simulate_rejects_bad_inputs():
    m = machine()
    prog = parse_program(straightline_text(10))
    with pytest.raises(MachSimError, match="unknown function"):
        simulate(prog, [PhaseRun(function="nope", frequency=m.f_max_ghz,
                                 category=CAT_EXECUTE)], m)
    with pytest.raises(MachSimError, match="frequency"):
        simulate(prog, [PhaseRun(function="main", frequency=Fraction(9),
                                 category=CAT_EXECUTE)], m)
    with pytest.raises(MachSimError, match="category"):
        simulate(prog, [PhaseRun(function="main", frequency=m.f_max_ghz,
                                 category="warmup")], m)
    with pytest.raises(MachSimError, match="mode"):
        plan = plan_for(sum_text(8), size=4)
        build_schedule("turbo", plan, m)
    # A run takes only a profiling charge, and a bare entry only a jit
    # charge; any other would be dropped or charged as the wrong thing.
    for function, charge in (("main", ("jit", Fraction(1000))),
                             (None, ("profiling", Fraction(1, 2))),
                             (None, ("warmup", Fraction(5))),
                             ("main", ("warmup", Fraction(5)))):
        with pytest.raises(MachSimError, match="does not fit"):
            simulate(prog, [PhaseRun(function=function, frequency=m.f_max_ghz,
                                     category=CAT_OVERHEAD if function is None
                                     else CAT_EXECUTE, charge=charge)], m)
    # A bare entry without a charge would only switch the clock.
    with pytest.raises(MachSimError, match="neither a function nor a charge"):
        simulate(prog, [PhaseRun(function=None, frequency=m.f_min_ghz,
                                 category=CAT_OVERHEAD),
                        PhaseRun(function="main", frequency=m.f_max_ghz,
                                 category=CAT_EXECUTE)], m)


def test_zero_trip_loop_still_runs_epilogue():
    m = machine()
    plan = plan_for(sum_text(0), size=8)
    ref = interpret(parse_program(sum_text(0)))
    for mode in ("baseline", "static_dae", "dynamic_dae"):
        rep = simulate(plan.program, build_schedule(mode, plan, m), m)
        assert rep.output == ref.output == [0]


def test_l1_sets_are_built_on_first_install():
    """A 64 MiB L1 of one-byte lines has 67,108,864 sets; only those a
    run installs into exist."""
    m = MachineConfig.from_json({"l1": {"capacity_bytes": 1 << 26,
                                        "line_bytes": 1, "ways": 1}})
    cache = LruCache(m.l1)
    assert cache.n_sets == 1 << 26 and cache.sets == {}
    p = parse_program(sum_text(16))
    rep = simulate(p, baseline_schedule("main", m), m)
    assert rep.output == interpret(p).output
    cache.install(5)
    assert list(cache.sets) == [5] and cache.contains(5)
    assert not cache.contains(6) and list(cache.sets) == [5]


def test_l1_snapshot_lists_lines_least_recent_first():
    c = LruCache(L1Config(capacity_bytes=256, line_bytes=64, ways=2))
    assert c.snapshot() == {}
    for line in (0, 2, 1, 0):
        c.install(line)
    assert c.snapshot() == {0: (2, 0), 1: (1,)}
    c.sets[3] = {}  # a set with no lines equals an absent one
    assert c.snapshot() == {0: (2, 0), 1: (1,)}


def test_load_hit_makes_its_line_most_recent():
    """The clock probes the L1 itself: addresses map to 64-byte lines,
    and a hit moves its line to the most recent end of the set."""
    m = MachineConfig(l1=L1Config(capacity_bytes=128, line_bytes=64, ways=2,
                                  hit_cycles=4))
    cache = LruCache(m.l1)
    rates = _Rates.at(m, m.f_max_ghz)
    on_load, on_prefetch, drain = _run_clock(m, cache, rates, 1000, False)
    assert on_prefetch is None        # a run without a prefetch has none
    assert on_load(0, 640, 1000)      # line 10: miss
    assert on_load(0, 704, 1000)      # line 11: miss
    assert not on_load(0, 703, 1000)  # line 10 again: hit, now most recent
    assert on_load(0, 768, 1000)      # line 12 evicts 11, not 10
    assert cache.sets == {0: {10: None, 12: None}}
    assert not on_load(0, 640, 1000)
    assert on_load(0, 767, 1000)      # line 11 was evicted
    # Four misses and two hits, no node retired.
    miss = m.mem_latency_cycles(m.f_max_ghz)
    assert Fraction(drain(1000, 6), rates.q) == 4 * miss + 2 * 4


def one_set_clock(ways: int, sets: int = 1):
    """A run clock with miss registers on an L1 of sets sets of 64-byte
    lines, the cache, the cycles of a blocking miss and the clock's ticks
    per cycle."""
    m = MachineConfig(l1=L1Config(capacity_bytes=64 * ways * sets,
                                  line_bytes=64, ways=ways, hit_cycles=4))
    cache = LruCache(m.l1)
    rates = _Rates.at(m, m.f_max_ghz)
    hooks = _run_clock(m, cache, rates, 1000, True)
    return hooks, cache, m.mem_latency_cycles(m.f_max_ghz), rates.q


def test_repeat_load_after_a_fill_into_its_set_misses():
    """A load that repeats the last load's line skips the set only while
    nothing else has touched the L1: on a 1-way L1, the prefetched line
    20 lands once the first load's miss has outlasted its fill and
    evicts line 10, so the repeat misses."""
    (on_load, on_prefetch, drain), cache, miss, q = one_set_clock(1)
    on_prefetch(0, 1280, 1000)        # line 20: in flight
    assert on_load(0, 640, 1000)      # line 10: miss
    assert on_load(0, 640, 1000)      # 20 lands first and evicts 10
    assert cache.sets == {0: {10: None}}
    assert Fraction(drain(1000, 2), q) == 2 * miss


def test_repeat_load_installs_completed_fills_first():
    """The fills completed by a repeated load install before it hits, so
    the repeat leaves its line the most recent, after line 20."""
    (on_load, on_prefetch, drain), cache, miss, q = one_set_clock(2)
    on_prefetch(0, 1280, 1000)        # line 20: in flight
    assert on_load(0, 640, 1000)      # line 10: miss
    assert not on_load(0, 640, 1000)  # 20 lands, then 10 hits
    assert list(cache.sets[0]) == [20, 10]
    assert Fraction(drain(1000, 2), q) == miss + 4


def test_repeat_load_after_a_prefetch_takes_the_full_path():
    """A prefetch that hits makes its line the most recent, so a load that
    repeats the last load's line after it moves that line back."""
    (on_load, on_prefetch, drain), cache, miss, q = one_set_clock(2)
    assert on_load(0, 640, 1000)      # line 10: miss
    assert on_load(0, 704, 1000)      # line 11: miss
    on_prefetch(0, 640, 1000)         # line 10 hits, now most recent
    assert not on_load(0, 704, 1000)  # line 11 again: most recent again
    assert list(cache.sets[0]) == [10, 11]
    assert on_load(0, 768, 1000)      # line 12 evicts 10, not 11
    assert list(cache.sets[0]) == [11, 12]
    assert Fraction(drain(1000, 4), q) == 3 * miss + 4


def test_prefetch_in_flight_installs_nothing():
    """A prefetch to a line whose fill is still in flight returns before
    it installs the fills completed by then; the next access installs
    them first, in issue order.  A prefetch to a line whose fill has
    completed installs it and makes it the most recent.  The L1 and the
    cycles equal model_run's."""
    (on_load, on_prefetch, drain), cache, miss, q = one_set_clock(2)
    m = MachineConfig(l1=cache.l1)
    assert (miss, q) == (204, 1)  # a fill takes 204 cycles
    events = [("prefetch", 1280, 1000),  # line 20, done at 204
              ("prefetch", 1344, 900),   # line 21, done at 304
              ("prefetch", 1408, 850),   # line 22, done at 354
              ("prefetch", 1408, 750),   # at 250: 20 is done, 22 in flight
              ("load", 640, 740),        # at 260: 20 lands, then 10 misses
              ("prefetch", 1344, 730)]   # at 474: 21 and 22 land, 21 hits
    shown = []
    for kind, addr, left in events:
        (on_load if kind == "load" else on_prefetch)(0, addr, left)
        shown.append(list(cache.sets.get(0, ())))
    assert shown == [[], [], [], [], [20, 10], [22, 21]]
    assert drain(700, 1) == 300 + miss
    sets = {}
    assert model_run(m, m.f_max_ghz, sets, 1000, events, 700, Counter()) == 504
    assert cache.snapshot() == {i: tuple(s) for i, s in sets.items()}


def test_join_of_the_oldest_fill_waits_for_the_next():
    """A load that joins the oldest fill in flight leaves the next one to
    complete at its own time: at 298 line 21 (done at 304) is still in
    flight, so line 10 misses beside line 20, and 21 lands in the
    drain.  The L1 and the cycles equal model_run's."""
    (on_load, on_prefetch, drain), cache, miss, q = one_set_clock(2)
    m = MachineConfig(l1=cache.l1)
    events = [("prefetch", 1280, 1000),  # line 20, done at 204
              ("prefetch", 1344, 900),   # line 21, done at 304
              ("load", 1280, 890),       # at 110: joins 20, waits 94
              ("load", 640, 800)]        # at 298: 10 misses
    for kind, addr, left in events:
        (on_load if kind == "load" else on_prefetch)(0, addr, left)
    assert list(cache.sets[0]) == [20, 10]
    assert drain(800, 2) == 200 + 94 + 4 + miss
    assert list(cache.sets[0]) == [10, 21]
    sets = {}
    assert model_run(m, m.f_max_ghz, sets, 1000, events, 800, Counter()) == 502
    assert cache.snapshot() == {i: tuple(s) for i, s in sets.items()}


def recent_line(on_prefetch) -> int:
    """The line a run clock remembers as its run's last load's, -1 for
    none, read from its prefetch hook's closure."""
    cells = dict(zip(on_prefetch.__code__.co_freevars, on_prefetch.__closure__))
    return cells["recent"].cell_contents


def test_same_line_shortcut_survives_what_leaves_its_set_alone():
    """The last load's line stays remembered, so a repeat load skips its
    set, across a miss register allocation and a prefetch hit in another
    set; a prefetch hit in its own set or an installed fill forgets it."""
    (on_load, on_prefetch, drain), cache, miss, q = one_set_clock(2, sets=2)
    for line in (10, 12, 11, 10):  # set 0 holds 12 then 10, set 1 holds 11
        on_load(0, 64 * line, 1000)
    assert recent_line(on_prefetch) == 10
    on_prefetch(0, 64 * 21, 1000)  # allocates, done at 3 * 204 + 4 + 204
    assert recent_line(on_prefetch) == 10
    on_prefetch(0, 64 * 11, 1000)  # hits in set 1
    assert recent_line(on_prefetch) == 10
    on_prefetch(0, 64 * 12, 1000)  # hits in set 0: 12 is the most recent
    assert recent_line(on_prefetch) == -1
    assert not on_load(0, 64 * 10, 1000)  # probes set 0 and moves 10 back
    assert recent_line(on_prefetch) == 10
    assert list(cache.sets[0]) == [12, 10]
    on_prefetch(0, 64 * 11, 700)  # at 920, 21 lands in set 1 first
    assert recent_line(on_prefetch) == -1
    assert list(cache.sets[1]) == [21, 11]
    assert Fraction(drain(700, 5), q) == 300 + 3 * miss + 2 * 4


def test_load_only_runs_cost_their_nodes_hits_and_misses(monkeypatch):
    """A run of a function that loads and never prefetches gets a clock
    without miss registers, and its cycles are nodes + misses *
    mem_latency_cycles + (loads - misses) * hit_cycles, with the loads
    and misses counted from its load hook's calls and answers: random
    loop and chase kernels on 3 random machines, in every mode."""
    make, checked = machsim._run_clock, Counter()

    def checking(machine, cache, rates, fuel, prefetches, tally=None):
        on_load, on_prefetch, drain = make(machine, cache, rates, fuel,
                                           prefetches, tally)
        loads = misses = 0

        def load(lid, addr, left):
            nonlocal loads, misses
            missed = on_load(lid, addr, left)
            loads, misses = loads + 1, misses + missed
            return missed

        def end(left, ran):
            ticks = drain(left, ran)
            if not prefetches:
                assert Fraction(ticks, rates.q) == (
                    fuel - left + misses * machine.mem_latency_cycles(rates.f)
                    + (loads - misses) * machine.l1.hit_cycles)
                checked["runs"] += 1
                checked["hits"] += loads - misses
                checked["misses"] += misses
            return ticks
        return load, on_prefetch, end

    monkeypatch.setattr(machsim, "_run_clock", checking)
    rng = random.Random(11)
    for i in range(3):
        m = random_machine(rng)
        for make_kernel in (random_loop_kernel, random_chase_kernel):
            kernel = BenchmarkKernel(name=f"rand{i}",
                                     text=print_program(make_kernel(rng)),
                                     oracle=lambda seed: None)
            run_kernel_all_modes(kernel, m, slice_override=16)
    assert min(checked.values()) > 0 and checked["runs"] >= 50, checked


def test_fuel_bounds_a_simulation():
    p = parse_program("func @main() kind=original {\nentry:\n  br spin\n"
                      "spin:\n  br spin\n}\n")
    m = machine()
    with pytest.raises(DirRuntimeError, match=r"^fuel exhausted in block 'spin'$"):
        simulate(p, baseline_schedule("main", m), m, fuel=1000)


def random_plans(n: int = 20) -> list:
    """Seeded random loop kernels, split with every body load critical."""
    rng = random.Random(8)
    plans = []
    for _ in range(n):
        prog = random_loop_kernel(rng)
        plans.append(make_phases(prog, critical=body_load_ids(prog),
                                 slice_params=override(rng.choice([1, 7, 33]))))
    return plans


# sha256 of every run record below, recorded before the run clock read
# its time from the interpreter's fuel instead of a per-block call.
RECORDS_SHA256 = (
    "7e764495bf5433046febe89c86bfcfe7e7109d807c89900323d968fdbcc04e24")


def three_machines() -> list[MachineConfig]:
    return [machine(),
            MachineConfig.from_json({"mshr_count": 1, "l1": {
                "capacity_bytes": 2048, "ways": 1}}),
            MachineConfig.from_json(FRACTIONAL_LATENCY)]


def test_run_records_are_pinned_across_machines():
    plans = random_plans()
    h = hashlib.sha256()
    for m in three_machines():
        for plan in plans:
            for mode in MODES:
                rep = simulate(plan.program, build_schedule(mode, plan, m), m)
                for r in rep.runs:
                    h.update(repr((r.kind, r.function, r.slice_index, r.cycles,
                                   r.wall_ns, r.energy, r.instr_count)).encode())
    assert h.hexdigest() == RECORDS_SHA256


def assert_records_hold_their_runs(prog, rep: SimReport) -> None:
    """Each run retired its blocks' nodes, once per entry; a charge
    printed and entered nothing; the runs' outputs make the report's."""
    size = {fn.name: {b.label: len(b.phis) + len(b.body) + 1 for b in fn.blocks}
            for fn in prog.functions}
    for r in rep.runs:
        if r.kind == "run":
            assert r.instr_count == sum(n * size[r.function][label]
                                        for label, n in r.block_counts.items())
        else:
            assert (r.output, r.block_counts) == ((), {})
    assert [v for r in rep.runs for v in r.output] == rep.output


def test_each_run_record_holds_its_output_and_block_counts(monkeypatch):
    """On the built-ins in every mode, and on random plans whose three
    modes share one simulate_each on three machines, so that joined
    records are included."""
    for k in builtin_kernels():
        for row in run_kernel_all_modes(k, machine()):
            assert_records_hold_their_runs(row.program, row.report)
    made = counting_runs(monkeypatch)
    runs = 0
    for m in three_machines():
        for plan in random_plans():
            scheds = [build_schedule(mode, plan, m) for mode in MODES]
            runs += sum(r.function is not None for s in scheds for r in s)
            for rep in simulate_each(plan.program, scheds, m):
                assert_records_hold_their_runs(plan.program, rep)
    assert len(made) < runs


def test_dae_fuel_bounds_every_plan():
    m = machine()
    plans = [(p.plan, p.baseline) for p in
             (prepare(k, m) for k in builtin_kernels())]
    plans += [(plan, simulate(plan.program, baseline_schedule(plan.original, m), m))
              for plan in random_plans()]
    for plan, base in plans:
        fuel = dae_fuel(plan, base.total.instr_count)
        for mode in ("static_dae", "dynamic_dae"):
            rep = simulate(plan.program, build_schedule(mode, plan, m), m)
            assert rep.total.instr_count <= fuel


def test_energy_is_power_times_wall_exactly():
    """simulate costs energy from per-frequency terms; every run still
    costs power(f, ipc) * wall_ns and every charge power(f_max, 0) *
    wall_ns, on random power models and frequency pairs."""
    rng = random.Random(21)
    plans = random_plans(4)

    def frac(lo: int, hi: int, den: int) -> Fraction:
        return Fraction(rng.randint(lo, hi), den)

    for _ in range(6):
        alpha = frac(0, 10, 10)
        f_lo, f_hi = sorted((frac(5, 40, 10), frac(5, 40, 10)))
        m = MachineConfig(
            f_min_ghz=f_lo, f_max_ghz=f_hi, mem_latency_ns=frac(7, 900, 7),
            power_model=PowerConfig(p_static=frac(0, 30, 10),
                                    c_dyn=frac(0, 50, 10), alpha=alpha,
                                    beta=1 - alpha,
                                    v_min_ratio=frac(1, 10, 10)))
        idle = m.power(m.f_max_ghz, Fraction(0))
        for plan in plans:
            for mode in MODES:
                sched = build_schedule(mode, plan, m,
                                       profiling_overhead=frac(0, 3, 10))
                for r in simulate(plan.program, sched, m).runs:
                    if r.kind == "run":
                        ipc = r.instr_count / r.cycles
                        assert r.energy == m.power(r.frequency, ipc) * r.wall_ns
                    else:
                        assert r.energy == idle * r.wall_ns


def test_rates_turn_ticks_into_exact_stats():
    """_Rates.stats builds a run's (cycles, wall_ns, energy) from integer
    terms; on random machines and power models, at frequencies in
    [f_min, f_max] with large odd denominators, each equals the Fraction
    arithmetic it replaces: ticks / q, cycles / f and p0 * wall_ns +
    slope * nodes."""
    rng = random.Random(26)
    for _ in range(40):
        alpha = Fraction(rng.randint(0, 10), 10)
        m = dataclasses.replace(random_machine(rng), power_model=PowerConfig(
            p_static=Fraction(rng.randint(0, 30), rng.randint(1, 9)),
            c_dyn=Fraction(rng.randint(0, 50), rng.randint(1, 9)),
            alpha=alpha, beta=1 - alpha,
            v_min_ratio=Fraction(rng.randint(1, 10), 10)))
        den = rng.randrange(10**6 + 1, 10**9, 2)
        f = m.f_min_ghz + (m.f_max_ghz - m.f_min_ghz) * Fraction(
            rng.randint(0, den), den)
        rates = _Rates.at(m, f)
        p0 = m.power(f, Fraction(0))
        slope = (m.power(f, Fraction(1)) - p0) / f
        for _ in range(5):
            ticks, nodes = rng.randint(0, 10**9), rng.randint(0, 10**8)
            cycles = Fraction(ticks, rates.q)
            wall_ns = cycles / f
            assert rates.stats(ticks, nodes) == (
                cycles, wall_ns, p0 * wall_ns + slope * nodes)


def assert_sums_match_the_oracle(rep: SimReport) -> None:
    """The report's total and each category equal Stats.__add__ summed
    over their records."""
    assert rep.total == sum(rep.runs, Stats())
    for c, stats in rep.categories.items():
        assert stats == sum((r for r in rep.runs if r.category == c), Stats())


def test_report_sums_equal_stats_add(monkeypatch):
    """Every report of a seed-0 suite pass, and stream_sum's and
    gather_sum's at 16-node slices, where dynamic DAE joins static DAE's
    records: each report's sums equal Stats.__add__'s."""
    for row in run_suite(machine(), seed=0):
        assert_sums_match_the_oracle(row.report)
    made = counting_runs(monkeypatch)
    for name in ("stream_sum", "gather_sum"):
        made.clear()
        rows = run_kernel_all_modes(kernel_by_name(name), machine(),
                                    slice_override=16)
        runs = [r for row in rows[1:] for r in row.report.runs if r.kind == "run"]
        assert len(made) < len(runs)  # some records were joined, not made
        for row in rows:
            assert_sums_match_the_oracle(row.report)


def test_later_schedule_joins_only_with_fuel_for_the_shared_suffix(monkeypatch):
    """dynamic_dae then static_dae share every run from access(1) on and
    meet there in equal states.  With fuel for both, the later schedule
    joins: it simulates only its two runs of slice 0.  Given fuel for
    its prefix but not for the shared suffix, it does not join and
    fails as it does alone."""
    made = counting_runs(monkeypatch)
    m = machine()
    plan = prepare(kernel_by_name("gather_sum"), m).plan
    dyn = build_schedule("dynamic_dae", plan, m)
    st = build_schedule("static_dae", plan, m)
    assert dyn[2:] == st[2:] and dyn[1].function is None
    alone = simulate(plan.program, st, m)
    dyn_nodes = simulate(plan.program, dyn, m).total.instr_count
    made.clear()
    _, later = simulate_each(plan.program, [dyn, st], m,
                                 fuel=alone.total.instr_count)
    assert len(made) == sum(r.function is not None for r in dyn) + 2
    for f in dataclasses.fields(SimReport):
        assert getattr(later, f.name) == getattr(alone, f.name), f.name

    short = simulate_each(plan.program, [dyn, st], m, fuel=dyn_nodes)
    assert next(short).total.instr_count == dyn_nodes
    with pytest.raises(DirRuntimeError) as joined:
        next(short)
    with pytest.raises(DirRuntimeError) as standalone:
        simulate(plan.program, st, m, fuel=dyn_nodes)
    assert str(joined.value) == str(standalone.value)



def test_simulate_each_compiles_each_function_once(monkeypatch):
    """The three modes of gather_sum's plan, simulated by one
    simulate_each, compile each function they run once.  A map of
    compiled functions passed in is filled with them, and a later call
    given that map compiles nothing."""
    names = []
    compile_function = machsim.compile_function
    monkeypatch.setattr(machsim, "compile_function",
                        lambda fn: names.append(fn.name) or compile_function(fn))
    m = machine()
    plan = prepare(kernel_by_name("gather_sum"), m).plan
    scheds = [build_schedule(mode, plan, m) for mode in MODES]
    run = sorted({r.function for s in scheds for r in s if r.function is not None})
    names.clear()
    list(simulate_each(plan.program, scheds, m))
    assert sorted(names) == run
    names.clear()
    compiled = {}
    for _ in range(2):
        list(simulate_each(plan.program, scheds, m, compiled=compiled))
    assert sorted(names) == sorted(compiled) == run

def test_join_requires_equal_memory(monkeypatch):
    """Two schedules end in the same run of @main from equal frequency,
    registers and cache, and differ only in what an earlier run stored:
    the later one joins only where memory is equal too."""
    text = """
data @base=4096 zero=64

entry @main

func @main() kind=original {
entry:
  %b = const 4096
  %v = load %b, 0, w8
  out %v
  ret %v
}

func @poke() kind=original {
entry:
  %b = const 4096
  %x = const 7
  store %b, 0, %x, w8
  ret %x
}

func @idle() kind=original {
entry:
  %x = const 7
  ret %x
}
"""
    made = counting_runs(monkeypatch)
    m = machine()
    prog = parse_program(text)
    main, poke, idle = (PhaseRun(function=name, frequency=m.f_max_ghz,
                                 category=CAT_EXECUTE)
                        for name in ("main", "poke", "idle"))
    scheds = [[main], [idle, main], [poke, main]]
    reps = list(simulate_each(prog, scheds, m))
    assert len(made) == 1 + 1 + 2
    assert [r.output for r in reps] == [[0], [0], [7]]
    for sched, rep in zip(scheds, reps):
        alone = simulate(prog, sched, m)
        for f in dataclasses.fields(SimReport):
            assert getattr(rep, f.name) == getattr(alone, f.name), f.name


def test_join_requires_equal_l1_contents(monkeypatch):
    """Two schedules end in the same run of @main from equal frequency,
    registers and memory, and differ only in whether an earlier run
    loaded @main's line: the later one joins only where the L1 is equal
    too, so @main misses after @idle and hits after @touch."""
    text = """
data @base=4096 zero=64

entry @main

func @main() kind=original {
entry:
  %b = const 4096
  %v = load %b, 0, w8
  out %v
  ret %v
}

func @touch() kind=original {
entry:
  %b = const 4096
  %v = load %b, 8, w8
  ret %v
}

func @idle() kind=original {
entry:
  %x = const 7
  ret %x
}
"""
    made = counting_runs(monkeypatch)
    m = machine()
    prog = parse_program(text)
    main, touch, idle = (PhaseRun(function=name, frequency=m.f_max_ghz,
                                  category=CAT_EXECUTE)
                         for name in ("main", "touch", "idle"))
    scheds = [[main], [idle, main], [touch, main]]
    reps = list(simulate_each(prog, scheds, m))
    assert len(made) == 1 + 1 + 2
    miss, hit = (rep.runs[-1].cycles for rep in reps[1:])
    assert miss == reps[0].runs[0].cycles > hit
    for sched, rep in zip(scheds, reps):
        alone = simulate(prog, sched, m)
        for f in dataclasses.fields(SimReport):
            assert getattr(rep, f.name) == getattr(alone, f.name), f.name


def test_store_free_runs_share_the_image_and_its_digest(monkeypatch):
    """A differential check of the cached digest.  Every mode of every
    built-in kernel and of 50 random kernels, with and without stores,
    reports the memory digest of the reference interpreter.  After each
    simulation every cached image still hashes to its cached digest, so
    no run wrote one.  The memory a store-free program runs on refuses
    writes; a program that stores gets a copy of its own."""
    memory, sim = machsim._memory, machsim.simulate
    kinds = set()

    def capture(prog, mem_size):
        mem, digest = memory(prog, mem_size)
        store = any(isinstance(n, Store) for fn in prog.functions
                    for n in fn.nodes())
        kinds.add(store)
        if store:
            assert all(mem is not image.mem for image in interp._images.values())
        else:
            with pytest.raises(TypeError):
                mem[0] = 1
        return mem, digest

    def checked(*args, **kwargs):
        rep = sim(*args, **kwargs)
        for image in interp._images.values():
            assert memory_digest(image.mem) == image.digest
        return rep

    monkeypatch.setattr(machsim, "_memory", capture)
    monkeypatch.setattr(machsim, "simulate", checked)
    m = machine()
    for kernel in builtin_kernels():
        ref = interpret(kernel.program(0)).memory_digest
        for row in run_kernel_all_modes(kernel, m):
            assert row.report.memory_digest == ref, (kernel.name, row.mode)
    assert kinds == {False, True}
    kinds.clear()
    rng = random.Random(20)
    for i in range(50):
        prog = random_loop_kernel(rng)
        ref = interpret(prog).memory_digest
        plan = make_phases(prog, critical=body_load_ids(prog),
                           slice_params=override(rng.choice([1, 7, 33])))
        scheds = [build_schedule(mode, plan, m) for mode in MODES]
        for mode, rep in zip(MODES, simulate_each(plan.program, scheds, m)):
            assert rep.memory_digest == ref, (i, mode)
    assert kinds == {False, True}
