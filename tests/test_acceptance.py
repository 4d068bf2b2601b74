"""Acceptance suite: nine end-to-end criteria, one test each.

Each criterion is a single test function, so a verbose run shows one
pass/fail line per criterion.  Tolerances are written literally at the
assertion sites.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from daef.cfg import (
    backward_slice,
    build_cfg,
    dce,
    dominators,
    natural_loops,
    simplify_cfg,
)
from daef.cli import main
from daef.daegen import (
    IdAlloc,
    candidate_loop,
    make_access_phase,
    make_phases,
    specialize_access,
    structural_text,
)
from daef.harness import prepare, run_suite
from daef.ir import interpret, parse_program, print_function, with_seed
from daef.ir.types import (
    BinOp,
    Br,
    BrCond,
    Load,
    Out,
    Phi,
    Prefetch,
    Ret,
    Store,
)
from daef.kernels import builtin_kernels, kernel_by_name
from daef.machine import MachineConfig
from daef.machsim import PhaseRun, baseline_schedule, build_schedule, simulate

from conftest import random_cfg_program, random_loop_kernel

MACHINE = MachineConfig()


@pytest.fixture(scope="module")
def suite_rows():
    return {(r.kernel, r.mode): r for r in run_suite(MACHINE)}


# -- oracle helpers ----------------------------------------------------------


def node_reads(n) -> list[str]:
    """Registers a node consumes, written out per node type."""
    if isinstance(n, Phi):
        return [v for _, v in n.incoming if isinstance(v, str)]
    if isinstance(n, BinOp):
        return [v for v in (n.a, n.b) if isinstance(v, str)]
    if isinstance(n, (Load, Prefetch)):
        return [n.base]
    if isinstance(n, Store):
        return [n.base, n.src]
    if isinstance(n, Out):
        return [n.src]
    if isinstance(n, BrCond):
        return [n.cond]
    if isinstance(n, Ret):
        return [n.value] if isinstance(n.value, str) else []
    return []  # Const, Br


def oracle_closure(fn, seeds: set[int]) -> set[int]:
    """Transitive closure of use-def edges, phis included."""
    by_id = {n.id: n for n in fn.nodes()}
    def_of = {}
    for n in fn.nodes():
        dst = getattr(n, "dst", None)
        if dst is not None:
            def_of[dst] = n.id
    visited: set[int] = set()
    stack = list(seeds)
    while stack:
        i = stack.pop()
        if i in visited:
            continue
        visited.add(i)
        for reg in node_reads(by_id[i]):
            if reg in def_of:
                stack.append(def_of[reg])
    return visited


def oracle_slice(fn, seeds: set[int]) -> set[int]:
    closed = oracle_closure(fn, seeds)
    by_id = {n.id: n for n in fn.nodes()}
    return {i for i in closed if not isinstance(by_id[i], (Store, Out))}


def oracle_dce_keep(fn, roots: set[int]) -> set[int]:
    seeds = set(roots)
    def_of = {}
    for n in fn.nodes():
        dst = getattr(n, "dst", None)
        if dst is not None:
            def_of[dst] = n.id
    for blk in fn.blocks:
        if blk.term is not None:
            seeds.update(def_of[r] for r in node_reads(blk.term) if r in def_of)
    return oracle_slice(fn, seeds) | set(roots)


def flow_edges(fn) -> dict[str, list[str]]:
    succ = {}
    for blk in fn.blocks:
        t = blk.term
        if isinstance(t, Br):
            succ[blk.label] = [t.target]
        elif isinstance(t, BrCond):
            succ[blk.label] = [t.if_true, t.if_false]
        else:
            succ[blk.label] = []
    return succ


def reach(succ: dict[str, list[str]], start: str, skip: str | None = None
          ) -> set[str]:
    if start == skip:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        for s in succ[stack.pop()]:
            if s != skip and s not in seen:
                seen.add(s)
                stack.append(s)
    return seen


# -- criteria ----------------------------------------------------------------


def test_criterion_1_semantic_preservation():
    """All kernels x modes x 10 seeds leave identical observable traces."""
    seeds = [random.Random(1914).randrange(2**32) for _ in range(10)]
    for kernel in builtin_kernels():
        prog = parse_program(kernel.text)
        prep = prepare(kernel, MACHINE, seed=0)
        for seed in seeds:
            seeded = with_seed(prog, seed)
            plan = make_phases(seeded, critical=prep.plan.critical,
                               slice_params=prep.plan.slice_params)
            traces = []
            for mode in ("baseline", "static_dae", "dynamic_dae"):
                sched = (baseline_schedule(plan.original, MACHINE)
                         if mode == "baseline"
                         else build_schedule(mode, plan, MACHINE))
                rep = simulate(plan.program, sched, MACHINE)
                traces.append((rep.output, rep.memory_digest))
            assert traces[0] == traces[1] == traces[2], (kernel.name, seed)
            assert traces[0][0] == kernel.oracle(seed), (kernel.name, seed)


def test_criterion_2_slicing_oracle_equivalence():
    """dce and backward_slice match a brute-force closure on 200 kernels;
    specializing the base access equals building it directly."""
    rng = random.Random(60902)
    checked = 0
    while checked < 200:
        loopy = rng.random() < 0.5
        prog = (random_loop_kernel(rng) if loopy
                else random_cfg_program(rng))
        fn = prog.entry_function()
        ids = [n.id for n in fn.nodes()]
        if len(ids) > 50:
            continue
        removable = [n.id for b in fn.blocks for n in b.phis + b.body]
        seeds = {rng.choice(ids) for _ in range(rng.randint(1, 4))}
        assert backward_slice(fn, seeds) == oracle_slice(fn, seeds)
        roots = {rng.choice(removable) for _ in range(rng.randint(0, 3))} \
            if removable else set()
        got = dce(fn, roots)
        kept = {n.id for b in got.blocks for n in b.phis + b.body}
        assert kept == (oracle_dce_keep(fn, roots) & set(removable))

        if loopy:
            li = candidate_loop(fn)
            loads = [n.id for b in fn.blocks if b.label in li.body
                     for n in b.body if isinstance(n, Load)]
            critical = {i for i in loads if rng.random() < 0.5}
            base = make_access_phase(fn, li, loads, "b",
                                     IdAlloc(fn.max_id() + 1))
            direct = make_access_phase(fn, li, critical, "d",
                                       IdAlloc(fn.max_id() + 1))
            special = specialize_access(base, critical, "s",
                                        IdAlloc(base.max_id() + 1))
            assert structural_text(special) == structural_text(direct)
        checked += 1


def test_criterion_3_directional_energy_savings(suite_rows):
    """Memory-bound kernels save energy: static <= 0.90, dynamic <= 0.95."""
    for name in ("stream_sum", "gather_sum"):
        assert suite_rows[name, "static_dae"].norm_energy <= Fraction(90, 100)
        assert suite_rows[name, "dynamic_dae"].norm_energy <= Fraction(95, 100)


def test_criterion_4_compute_bound_null(suite_rows):
    """The register-only kernel is within 2% of baseline either way, with a
    negligible access phase."""
    for mode in ("static_dae", "dynamic_dae"):
        row = suite_rows["compute_poly", mode]
        assert abs(row.norm_time - 1) <= Fraction(2, 100)
        assert abs(row.norm_energy - 1) <= Fraction(2, 100)
    dyn = suite_rows["compute_poly", "dynamic_dae"].report
    assert dyn.categories["access"].instr_count \
        <= Fraction(5, 100) * dyn.total.instr_count


def test_criterion_5_mlp_shrinks_access_wall():
    """Gather's access phase overlaps misses: 10 MSHRs cut its wall to at
    most 0.3x of 1 MSHR, non-increasing in between."""
    prep = prepare(kernel_by_name("gather_sum"), MACHINE)
    walls = []
    for count in (1, 2, 4, 10):
        m = dataclasses.replace(MACHINE, mshr_count=count)
        rep = simulate(prep.plan.program,
                       build_schedule("static_dae", prep.plan, m), m)
        walls.append(rep.categories["access"].wall_ns)
    assert all(b <= a for a, b in zip(walls, walls[1:]))
    assert walls[-1] <= Fraction(3, 10) * walls[0]


def test_criterion_6_overhead_accounting(suite_rows):
    """Dynamic equals static plus jit, switch delta, and slice-0 delta,
    exactly; with free switches and jit the overhead category is zero."""
    st = suite_rows["stream_sum", "static_dae"].report
    dy = suite_rows["stream_sum", "dynamic_dae"].report

    def split(rep, stat):
        runs = [r for r in rep.runs]
        return (sum(getattr(r, stat) for r in runs
                    if r.kind == "run" and r.slice_index == 0),
                sum(getattr(r, stat) for r in runs if r.kind == "dvfs_switch"),
                sum(getattr(r, stat) for r in runs if r.kind == "jit"))

    for stat in ("wall_ns", "energy"):
        s0_st, dvfs_st, jit_st = split(st, stat)
        s0_dy, dvfs_dy, jit_dy = split(dy, stat)
        assert jit_st == 0
        delta = jit_dy + (dvfs_dy - dvfs_st) + (s0_dy - s0_st)
        assert getattr(dy.total, stat) - getattr(st.total, stat) == delta

    free = dataclasses.replace(MACHINE, dvfs_switch_ns=Fraction(0),
                               jit_ns_per_instr=Fraction(0))
    prep = prepare(kernel_by_name("stream_sum"), free)
    for mode in ("static_dae", "dynamic_dae"):
        rep = simulate(prep.plan.program,
                       build_schedule(mode, prep.plan, free), free)
        over = rep.categories["overhead"]
        assert (over.cycles, over.wall_ns, over.energy, over.instr_count) \
            == (0, 0, 0, 0)


def test_criterion_7_timing_model_identities():
    """Register-only wall scales exactly with frequency; an all-miss phase
    is frequency-insensitive (< 1%) and cheaper to run slow."""
    poly = parse_program(kernel_by_name("compute_poly").text)
    ref = None
    for f in (MACHINE.f_max_ghz, Fraction(2), MACHINE.f_min_ghz):
        sched = [PhaseRun(function="main", frequency=f, category="execute")]
        run = [r for r in simulate(poly, sched, MACHINE).runs
               if r.kind == "run"][0]
        assert run.cycles == run.instr_count
        if ref is None:
            ref = run.wall_ns * f
        assert run.wall_ns == ref / f  # exact f_max/f scaling

    lines = ["data @base=4096 zero=6400", "", "entry @main", "",
             "func @main() kind=original {", "entry:", "  %b = const 4096"]
    for i in range(100):
        lines.append(f"  %v{i} = load %b, {i * 64}, w8")
    lines.append("  ret")
    lines.append("}")
    crafted = parse_program("\n".join(lines))
    results = {}
    for f in (MACHINE.f_max_ghz, MACHINE.f_min_ghz):
        sched = [PhaseRun(function="main", frequency=f, category="execute")]
        run = [r for r in simulate(crafted, sched, MACHINE).runs
               if r.kind == "run"][0]
        results[f] = (run.wall_ns, run.energy)
    w_hi, e_hi = results[MACHINE.f_max_ghz]
    w_lo, e_lo = results[MACHINE.f_min_ghz]
    assert abs(w_lo - w_hi) / w_hi < Fraction(1, 100)
    assert e_lo < e_hi


def test_criterion_8_analysis_oracles():
    """Dominators and natural loops match path-based oracles on 500 CFGs;
    simplification is idempotent and preserves behavior."""
    rng = random.Random(71205)
    checked = 0
    while checked < 500:
        prog = random_cfg_program(rng, n_blocks=rng.randint(3, 9))
        fn = prog.entry_function()
        if len(fn.blocks) > 12:
            continue
        succ = flow_edges(fn)
        entry = fn.blocks[0].label
        reachable = reach(succ, entry)
        dom = dominators(build_cfg(fn))
        for a in succ:
            for b in succ:
                if b not in reachable:
                    want = False
                elif a == b:
                    want = True
                else:
                    want = b not in reach(succ, entry, skip=a)
                assert dom.dominates(a, b) == want, (a, b)

        preds: dict[str, list[str]] = {l: [] for l in succ}
        for u, vs in succ.items():
            for v in vs:
                preds[v].append(u)
        want_loops = set()
        for u in reachable:
            for h in succ[u]:
                if h in reachable and dom.dominates(h, u):
                    body = {h, u}
                    stack = [u]
                    while stack:
                        n = stack.pop()
                        if n == h:
                            continue
                        for p in preds[n]:
                            if p not in body:
                                body.add(p)
                                stack.append(p)
                    want_loops.add((h, u, frozenset(body)))
        got = {(l.header, l.latch, l.body) for l in natural_loops(fn)}
        assert got == want_loops

        simple = simplify_cfg(fn)
        again = simplify_cfg(simple)
        assert print_function(again) == print_function(simple)
        t0 = interpret(prog)
        t1 = interpret(dataclasses.replace(prog, functions=[simple]))
        assert (t1.output, t1.memory_digest) == (t0.output, t0.memory_digest)
        checked += 1


def test_criterion_9_suite_reproducibility(tmp_path):
    """Two identically seeded suite invocations emit identical bytes."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["suite", "--seed", "7", "--out", str(a)]) == 0
    assert main(["suite", "--seed", "7", "--out", str(b)]) == 0
    assert (a / "suite.csv").read_bytes() == (b / "suite.csv").read_bytes()
    assert (a / "suite.dat").read_bytes() == (b / "suite.dat").read_bytes()
