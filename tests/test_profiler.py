"""Profiler behavior: stall attribution, footprints, persistence."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conftest import random_cfg_program, random_loop_kernel, sum_kernel
from daef import machsim
from daef.cfg import block_of, find_loops
from daef.harness import check_profile
from daef.ir import Load, interpret, parse_program, with_seed
from daef.ir.interp import default_mem_size, init_memory
from daef.kernels import builtin_kernels
from daef.machine import L1Config, MachineConfig
from daef.machsim import baseline_schedule, simulate, simulate_baseline
from daef.profiler import (
    PROFILE_VERSION,
    LoadStats,
    LoopFootprint,
    ProfileError,
    ProfileReport,
    classify_critical,
    profiled_baseline,
    program_digest,
    read_profile,
    report_from_json,
    report_to_json,
    write_profile,
)

MACHINE = MachineConfig()
MISS = 204  # ceil(60 ns * 3.4 GHz)


def stride_kernel(n: int, stride: int, base: int = 4096) -> str:
    return f"""
data @base={base} prng(seed=5, len={n * stride})
func @main() kind=original {{
entry:
  %n = const {n}
  %zero = const 0
  %base = const {base}
  %stride = const {stride}
  br loop
loop:
  %i = phi [entry: %zero], [body: %i2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %off = binop mul %i, %stride
  %addr = binop add %base, %off
  %v = load %addr, 0, w8
  %i2 = binop add %i, 1
  br loop
done:
  ret
}}
"""


def test_sum_kernel_profile_frozen():
    r = profiled_baseline(sum_kernel(), MACHINE)[1]
    assert r.total_stall_cycles == MISS
    (st,) = r.loads
    # 8 loads land in a single 64-byte line: one miss, seven hits.
    assert (st.id, st.exec_count, st.miss_count, st.stall_cycles, st.lines) == \
        (10, 8, 1, MISS, 1)
    (lf,) = r.loops
    assert lf.header == "loop"
    assert lf.bytes_per_iter == 64 / 8


def test_stride_64_misses_every_iteration():
    p = parse_program(stride_kernel(n=50, stride=64))
    r = profiled_baseline(p, MACHINE)[1]
    (st,) = r.loads
    assert st.miss_count == 50
    assert st.stall_cycles == 50 * MISS
    assert st.lines == 50
    assert r.loops[0].bytes_per_iter == 64.0


def test_misses_match_independent_lru_model():
    # Two sequential passes over an array twice the L1 capacity: compare
    # against a freestanding per-set LRU simulation.
    n, stride = 2048, 64
    src = f"""
data @base=4096 prng(seed=5, len={n // 2 * stride})
func @main() kind=original {{
entry:
  %n = const {n}
  %zero = const 0
  %half = const {n // 2}
  br loop
loop:
  %i = phi [entry: %zero], [body: %i2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %w = binop rem %i, %half
  %off = binop mul %w, {stride}
  %addr = binop add %off, 4096
  %v = load %addr, 0, w8
  %i2 = binop add %i, 1
  br loop
done:
  ret
}}
"""
    p = parse_program(src)
    r = profiled_baseline(p, MACHINE)[1]

    sets: dict[int, list[int]] = {}
    misses = 0
    for i in range(n):
        line = (4096 + (i % (n // 2)) * stride) // 64
        bucket = sets.setdefault(line % 64, [])
        if line in bucket:
            bucket.remove(line)
            bucket.append(line)
        else:
            misses += 1
            if len(bucket) == 8:
                bucket.pop(0)
            bucket.append(line)
    (st,) = r.loads
    assert st.miss_count == misses
    assert misses == n  # cyclic sweep defeats LRU completely


def test_gather_footprint_matches_recomputed_lines():
    src = """
data @base=4096 prng(seed=9, len=2048)
data @base=8192 prng(seed=4, len=2048)
func @main() kind=original {
entry:
  %n = const 256
  %zero = const 0
  br loop
loop:
  %i = phi [entry: %zero], [body: %i2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %ioff = binop shl %i, 3
  %iaddr = binop add %ioff, 4096
  %j = load %iaddr, 0, w8
  %jm = binop and %j, 255
  %toff = binop shl %jm, 3
  %taddr = binop add %toff, 8192
  %v = load %taddr, 0, w8
  %i2 = binop add %i, 1
  br loop
done:
  ret
}
"""
    p = parse_program(src)
    r = profiled_baseline(p, MACHINE)[1]
    # Recompute the expected distinct lines from the materialized index
    # array, independent of the profiler's own bookkeeping.
    mem = init_memory(p, default_mem_size(p))
    lines = set()
    for i in range(256):
        lines.add((4096 + 8 * i) // 64)
        j = int.from_bytes(mem[4096 + 8 * i:4096 + 8 * i + 8], "little") & 255
        lines.add((8192 + 8 * j) // 64)
    (lf,) = r.loops
    assert lf.bytes_per_iter == len(lines) * 64 / 256
    by_id = {st.id: st for st in r.loads}
    assert sum(st.lines for st in by_id.values()) >= len(lines)


def test_profile_runs_at_fmax_stall_units():
    # Halving f_max halves the per-miss stall (wall latency is fixed).
    m = MachineConfig.from_json({**MACHINE.to_json(), "f_max_ghz": 1.7})
    r = profiled_baseline(parse_program(stride_kernel(n=10, stride=64)), m)[1]
    assert r.loads[0].stall_cycles == 10 * 102


def test_profile_seed_changes_digest_and_is_deterministic():
    p = sum_kernel()
    a = profiled_baseline(with_seed(p, 3), MACHINE)[1]
    b = profiled_baseline(with_seed(p, 3), MACHINE)[1]
    c = profiled_baseline(with_seed(p, 4), MACHINE)[1]
    assert a == b
    assert a.program_digest != c.program_digest
    assert a.program_digest != profiled_baseline(p, MACHINE)[1].program_digest
    # The digest is of the seeded instance.
    assert check_profile(a, program_digest(p), MACHINE, allow_stale=True) == [
        "profile was taken from a different program or seed"]


def test_program_without_canonical_loop_profiles_fine():
    p = random_cfg_program(random.Random(8))
    r = profiled_baseline(p, MACHINE)[1]
    assert r.loops == []
    assert r.total_stall_cycles >= 0


# -- criticality -------------------------------------------------------------


def fake_report(stalls: dict[int, int], misses: dict[int, int] | None = None) -> ProfileReport:
    loads = [
        LoadStats(id=i, exec_count=100, stall_cycles=s,
                  miss_count=(misses or {}).get(i, 1 if s else 0), lines=1)
        for i, s in sorted(stalls.items())
    ]
    return ProfileReport(version=PROFILE_VERSION, program_digest="x",
                         machine_digest="y",
                         total_stall_cycles=sum(stalls.values()), loads=loads,
                         loops=[])


def test_classify_critical_threshold_is_inclusive():
    r = fake_report({1: 900, 2: 90, 3: 10})  # exactly 1% for load 3
    assert classify_critical(r, Fraction(1, 100)) == {1, 2, 3}
    assert classify_critical(r, Fraction(2, 100)) == {1, 2}
    assert classify_critical(r, 0.5) == {1}


def test_classify_critical_requires_misses():
    r = fake_report({1: 1000, 2: 0}, misses={1: 5, 2: 0})
    assert classify_critical(r, Fraction(1, 1000)) == {1}


def test_classify_critical_empty_when_no_stalls():
    r = fake_report({1: 0}, misses={1: 0})
    assert classify_critical(r) == frozenset()


def test_classify_critical_rejects_bad_theta():
    r = fake_report({1: 100})
    with pytest.raises(ProfileError):
        classify_critical(r, 1.5)
    with pytest.raises(ProfileError):
        classify_critical(r, -0.1)


# -- persistence -------------------------------------------------------------


def test_profile_file_round_trip(tmp_path):
    r = profiled_baseline(with_seed(sum_kernel(), 2), MACHINE)[1]
    path = tmp_path / "p.json"
    write_profile(r, path)
    assert read_profile(path) == r
    data = json.loads(path.read_text())
    assert set(data) == {"version", "program_digest", "machine_digest",
                         "total_stall_cycles", "loads", "loops"}
    assert set(data["loads"][0]) == {"id", "exec", "miss", "stall", "lines"}
    assert set(data["loops"][0]) == {"header", "bytes_per_iter"}


def test_read_profile_error_cases(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"version": 1,')
    with pytest.raises(ProfileError) as err:
        read_profile(path)
    assert "offset" in str(err.value)

    good = report_to_json(profiled_baseline(sum_kernel(), MACHINE)[1])
    for breakage, message in [
        (lambda d: d.update(version=9), "version"),
        (lambda d: d.update(surprise=1), "unknown keys"),
        (lambda d: d.pop("loads"), "missing key"),
        (lambda d: d.update(total_stall_cycles="lots"), "wrong type"),
        (lambda d: d["loads"][0].update(flavor=2), "unknown keys"),
        (lambda d: d["loads"][0].pop("miss"), "missing key"),
        (lambda d: d["loops"][0].update(bytes_per_iter=float("nan")), "finite"),
        (lambda d: d["loops"][0].update(bytes_per_iter=float("inf")), "finite"),
        (lambda d: d["loops"][0].update(bytes_per_iter=-1), "finite"),
        (lambda d: d["loops"][0].update(bytes_per_iter=10**400), "finite"),
    ]:
        d = json.loads(json.dumps(good))
        breakage(d)
        path.write_text(json.dumps(d))
        with pytest.raises(ProfileError) as err:
            read_profile(path)
        assert message in str(err.value)


def test_staleness_detection():
    p = sum_kernel()
    r = profiled_baseline(p, MACHINE)[1]
    assert check_profile(r, program_digest(p), MACHINE, allow_stale=True) == []
    other = MachineConfig.from_json({**MACHINE.to_json(), "mem_latency_ns": 61})
    assert check_profile(r, program_digest(p), other, allow_stale=True) == [
        "profile was taken on a different machine config"]
    q = parse_program(p and SUM_VARIANT)
    assert check_profile(r, program_digest(q), MACHINE, allow_stale=True) == [
        "profile was taken from a different program or seed"]


SUM_VARIANT = """
data @base=4096 prng(seed=8, len=64)
func @main() kind=original {
entry:
  ret
}
"""


def test_report_accessors():
    r = profiled_baseline(sum_kernel(), MACHINE)[1]
    assert {s.id: s.exec_count for s in r.loads} == {10: 8}
    assert r.footprint("loop") == 8.0
    assert r.footprint("nope") is None


# -- the profile is taken on the baseline run ------------------------------


def test_exec_counts_match_reference_interpreter():
    progs = [with_seed(parse_program(k.text), 7) for k in builtin_kernels()]
    rng = random.Random(31)
    progs += [random_loop_kernel(rng) for _ in range(4)]
    for prog in progs:
        retired = interpret(prog).retired_by_static_id
        report = profiled_baseline(prog, MACHINE)[1]
        for st in report.loads:
            assert st.exec_count == retired.get(st.id, 0), (prog.entry, st.id)


def test_observing_leaves_the_baseline_unchanged():
    prog = with_seed(parse_program(stride_kernel(n=50, stride=24)), 3)
    base, report = profiled_baseline(prog, MACHINE)
    plain = simulate(prog, baseline_schedule(prog.entry, MACHINE), MACHINE)
    assert base == plain
    assert report == profiled_baseline(prog, MACHINE)[1]



def observed_profile(prog, machine) -> tuple:
    """The baseline and its profile as a per-load observer builds them:
    a closure on_load(lid, addr, missed) around the clock's on_load
    counts each load's executions, lines and misses."""
    fn = prog.entry_function()
    ids = [n.id for b in fn.blocks for n in b.body if isinstance(n, Load)]
    exec_count = dict.fromkeys(ids, 0)
    miss_count = dict.fromkeys(ids, 0)
    lines_of = {i: set() for i in ids}
    line_bytes = machine.l1.line_bytes

    def on_load(lid: int, addr: int, missed: bool) -> None:
        exec_count[lid] += 1
        lines_of[lid].add(addr // line_bytes)
        if missed:
            miss_count[lid] += 1

    make = machsim._run_clock

    def observed(*args):
        account, on_prefetch, drain = make(*args)

        def load(lid, addr, fuel):
            missed = account(lid, addr, fuel)
            on_load(lid, addr, missed)
            return missed
        return load, on_prefetch, drain

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machsim, "_run_clock", observed)
        base = simulate_baseline(prog, machine)
    lat = machine.mem_latency_cycles(machine.f_max_ghz)
    loads = [LoadStats(id=i, exec_count=exec_count[i], miss_count=miss_count[i],
                       stall_cycles=miss_count[i] * lat, lines=len(lines_of[i]))
             for i in sorted(ids)]
    counts, where = base.runs[0].block_counts, block_of(fn)
    loops = []
    for li in find_loops(fn).loops:
        trips = counts.get(li.latch, 0)
        if trips > 0:
            touched = set().union(*(ls for lid, ls in lines_of.items()
                                    if where[lid] in li.body))
            loops.append(LoopFootprint(li.header,
                                       len(touched) * line_bytes / trips))
    return base, ProfileReport(
        version=PROFILE_VERSION,
        program_digest=program_digest(prog), machine_digest=machine.digest(),
        total_stall_cycles=sum(st.stall_cycles for st in loads),
        loads=loads, loops=loops)


def test_tallies_equal_a_per_load_observer():
    """The simulator's two tallies and the block counts give the profile
    a per-load observer gives, on the built-ins and random kernels on
    several L1 shapes; every load's exec_count is its block's entry
    count in the baseline."""
    rng = random.Random(2024)
    progs = [with_seed(parse_program(k.text), 5) for k in builtin_kernels()]
    progs += [random_loop_kernel(rng) for _ in range(50)]
    machines = [MACHINE,
                MachineConfig(l1=L1Config(capacity_bytes=512, line_bytes=16,
                                          ways=2, hit_cycles=3)),
                MachineConfig(l1=L1Config(capacity_bytes=128, line_bytes=128,
                                          ways=1), mshr_count=1)]
    for k, prog in enumerate(progs):
        m = machines[k % len(machines)]
        base, report = profiled_baseline(prog, m)
        ref_base, ref = observed_profile(prog, m)
        assert base == ref_base, k
        assert report == ref, k
        fn = prog.entry_function()
        where, counts = block_of(fn), base.runs[0].block_counts
        for st in report.loads:
            assert st.exec_count == counts.get(where[st.id], 0), (k, st.id)
