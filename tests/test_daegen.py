"""Phase generation: sliced access and execute clones, specialization
against the base phase, and slice sizing.

Equivalence is the backbone: running access+execute slice pairs with a
persistent register environment must reproduce the original program's
output and final memory exactly, for any slice size and any critical
load subset.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import (
    assert_valid,
    base_chain,
    bound_chain,
    empty_tail,
    load_blocks,
    random_loop_kernel,
    sum_kernel,
)

from daef import cfg, daegen
from daef.daegen import (
    DaegenError,
    IdAlloc,
    SliceParams,
    choose_slice_size,
    make_phases,
    specialize_access,
    structural_text,
)
from daef.harness import prepare, run_kernel_all_modes
from daef.ir import (
    BrCond,
    Function,
    Load,
    Out,
    Prefetch,
    Ret,
    Store,
    interpret,
    node_def,
    node_uses,
    parse_program,
    print_program,
)
from daef.ir.interp import (
    DEFAULT_FUEL,
    compile_function,
    default_mem_size,
    init_memory,
    memory_digest,
)
from daef.kernels import BenchmarkKernel, builtin_kernels
from daef.machine import MachineConfig
from daef.machsim import MODES


def override(size: int) -> SliceParams:
    return SliceParams(size=size, source="override")


def entry_loads(prog) -> list[int]:
    fn = prog.entry_function()
    return [n.id for b in fn.blocks for n in b.body if isinstance(n, Load)]


def assert_specializes(plan) -> None:
    """The plan's access phase, built directly from the original, is its
    base phase specialized to the plan's critical set, as the paper's
    runtime derives it."""
    base = plan.program.function(f"{plan.original}__base")
    special = specialize_access(base, plan.critical, "s",
                                IdAlloc(plan.program.max_id() + 1))
    assert structural_text(special) == \
        structural_text(plan.program.function(plan.access))


def run_phased(plan, with_access: bool = True):
    """Drive the slice schedule by hand: access then execute per slice,
    registers persisting through execute runs only."""
    p = plan.program
    mem_size = default_mem_size(p)
    mem = init_memory(p, mem_size)
    output: list[int] = []
    env: dict[str, int] = {}
    compiled = {name: compile_function(p.function(name))
                for name in (plan.access, plan.execute)}

    def run(fname, args):
        cf = compiled[fname]
        call_env = {q: args.get(q, env.get(q, 0)) for q in cf.fn.params}
        cf.run(call_env, mem, output, {}, [DEFAULT_FUEL], mem_size)
        return call_env

    for k in range(plan.n_slices):
        args = plan.slice_args(k)
        if with_access:
            run(plan.access, args)
        env.update(run(plan.execute, args))
    return output, memory_digest(mem)


# ---------------------------------------------------------------------------
# slice sizing


def test_slice_size_from_footprint():
    m = MachineConfig()
    # budget is half of 32 KiB; 8 bytes per iteration fills it at 2048
    assert choose_slice_size(m, 8.0).size == 2048
    assert choose_slice_size(m, 8.0).source == "profile"
    assert choose_slice_size(m, 12.0).size == 1365


def test_slice_size_clamps():
    m = MachineConfig()
    assert choose_slice_size(m, 2.0).size == 4096
    assert choose_slice_size(m, 100000.0).size == 8


def test_slice_size_fallback_and_override():
    m = MachineConfig()
    assert choose_slice_size(m, None).size == 256
    assert choose_slice_size(m, None).source == "default"
    assert choose_slice_size(m, 0.0).size == 256
    assert choose_slice_size(m, 8.0, override=17) == SliceParams(
        size=17, source="override")


def test_slice_size_rejects():
    m = MachineConfig()
    with pytest.raises(DaegenError):
        choose_slice_size(m, 8.0, override=0)
    with pytest.raises(DaegenError):
        choose_slice_size(m, 8.0, rho=0)
    with pytest.raises(DaegenError):
        choose_slice_size(m, 8.0, rho=Fraction(3, 2))


def test_slice_size_rho_scales():
    m = MachineConfig()
    assert choose_slice_size(m, 8.0, rho=Fraction(1, 4)).size == 1024
    assert choose_slice_size(m, 8.0, rho=1).size == 4096


# ---------------------------------------------------------------------------
# phase structure on the reference kernel


def test_sum_phase_plan_shape():
    prog = sum_kernel()
    plan = make_phases(prog, {10}, override(4))
    assert plan.trips == 8
    assert plan.critical == frozenset({10})
    assert plan.n_slices == 2
    assert not plan.access_is_empty
    assert_valid(plan.program)

    ex = plan.program.function(plan.execute)
    ac = plan.program.function(plan.access)
    base = plan.program.function(f"{plan.original}__base")
    assert ex.kind == "execute" and ac.kind == "access" and base.kind == "access"
    assert ex.params == ["__first", "__lo", "__hi", "__carry_acc"]
    assert ac.params == ex.params
    assert plan.jit_node_count == len(list(base.nodes()))


def test_sum_access_prefetches_the_load():
    plan = make_phases(sum_kernel(), {10}, override(4))
    ac = plan.program.function(plan.access)
    prefetches = [n for n in ac.nodes() if isinstance(n, Prefetch)]
    assert [p.origin for p in prefetches] == [10]
    assert not any(isinstance(n, Load) for n in ac.nodes())


def test_sum_slice_args():
    plan = make_phases(sum_kernel(), {10}, override(3))
    assert plan.n_slices == 3
    assert plan.slice_args(0) == {"__first": 1, "__lo": 0, "__hi": 3}
    assert plan.slice_args(1) == {"__first": 0, "__lo": 3, "__hi": 6}
    assert plan.slice_args(2) == {"__first": 0, "__lo": 6, "__hi": 8}


def test_execute_keeps_loop_body_intact():
    """Execute slices must retire the same work per iteration as the
    original, so the body is cloned verbatim, latch included."""
    prog = sum_kernel()
    plan = make_phases(prog, {10}, override(4))
    ex = plan.program.function(plan.execute)
    labels = [b.label for b in ex.blocks]
    assert labels == ["__dispatch", "__resume", "entry", "loop", "body",
                      "latch", "done", "__sexit", "__export"]
    orig_body = prog.entry_function().block_map()["body"]
    ex_body = ex.block_map()["body"]
    assert [type(n) for n in ex_body.body] == [type(n) for n in orig_body.body]


def test_resume_replays_only_what_the_phase_needs():
    plan = make_phases(sum_kernel(), {10}, override(4))
    ex = plan.program.function(plan.execute)
    ac = plan.program.function(plan.access)
    ex_resume = {n.dst for n in ex.block_map()["__resume"].body}
    assert ex_resume == {"base", "n"}  # bound feeds the final-slice check
    ac_defs = {node_def(n) for n in ac.nodes()} - {None}
    assert "n" not in ac_defs  # prefetch slices never test the real bound


def test_access_rets_carry_no_value():
    plan = make_phases(sum_kernel(), {10}, override(4))
    ac = plan.program.function(plan.access)
    assert all(t.value is None for b in ac.blocks
               for t in [b.term] if isinstance(t, Ret))


# ---------------------------------------------------------------------------
# behavioral equivalence


def test_sum_phases_match_interpreter():
    prog = sum_kernel()
    ref = interpret(prog)
    for s in (1, 2, 3, 5, 8, 64):
        plan = make_phases(prog, {10}, override(s))
        assert run_phased(plan) == (ref.output, ref.memory_digest)
        assert run_phased(plan, with_access=False) == (ref.output, ref.memory_digest)


def test_empty_critical_set_still_runs():
    prog = sum_kernel()
    ref = interpret(prog)
    plan = make_phases(prog, set(), override(4))
    assert plan.access_is_empty
    assert run_phased(plan) == (ref.output, ref.memory_digest)


def test_zero_trip_loop_runs_epilogue_once():
    prog = parse_program(SUM_N0)
    ref = interpret(prog)
    assert ref.output == [0]
    plan = make_phases(prog, entry_loads(prog), override(4))
    assert plan.trips == 0
    assert plan.n_slices == 1
    assert plan.slice_args(0) == {"__first": 1, "__lo": 0, "__hi": 0}
    assert run_phased(plan) == (ref.output, ref.memory_digest)


SUM_N0 = """
data @base=4096 prng(seed=7, len=64)
entry @main
func @main() kind=original {
entry:
  %n = const 0
  %zero = const 0
  %base = const 4096
  br loop
loop:
  %i = phi [entry: %zero], [body: %i2]
  %acc = phi [entry: %zero], [body: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
done:
  out %acc
  ret %acc
body:
  %off = binop shl %i, 3
  %addr = binop add %base, %off
  %v = load %addr, 0, w8
  %acc2 = binop add %acc, %v
  %i2 = binop add %i, 1
  br loop
}
"""


def test_phase_equivalence_random_kernels():
    rng = random.Random(1812)
    for _ in range(25):
        prog = random_loop_kernel(rng)
        ref = interpret(prog)
        loads = entry_loads(prog)
        pick = rng.choice(["all", "none", "subset"])
        if pick == "all":
            critical = set(loads)
        elif pick == "none":
            critical = set()
        else:
            critical = {x for x in loads if rng.random() < 0.5}
        plan = make_phases(prog, critical, override(rng.choice([1, 7, 64, 1000])))
        assert_specializes(plan)
        assert run_phased(plan) == (ref.output, ref.memory_digest)
        assert run_phased(plan, with_access=False) == (ref.output, ref.memory_digest)


def test_phase_equivalence_random_chain_kernels():
    """The large-kernel generators at random small sizes: long definition
    chains in the prologue, many load blocks or empty blocks in the body,
    random critical sets and slice lengths."""
    rng = random.Random(4099)
    gens = (bound_chain, base_chain, load_blocks, empty_tail)
    for _ in range(24):
        prog = parse_program(rng.choice(gens)(rng.randint(1, 64)))
        ref = interpret(prog)
        critical = {x for x in entry_loads(prog) if rng.random() < 0.5}
        plan = make_phases(prog, critical, override(rng.choice([1, 3, 8, 64])))
        assert_specializes(plan)
        assert run_phased(plan) == (ref.output, ref.memory_digest)
        assert run_phased(plan, with_access=False) == (ref.output, ref.memory_digest)


def test_access_phase_invariants_random_kernels():
    """Purity and tagging: no stores or outs, every prefetch tagged, and
    the tagged origins are exactly the critical set.  Cleanliness: every
    node survives elimination from the prefetches and tagged loads, the
    simplifier finds nothing left to do, and a tagged load stays a load
    only because a kept node reads it."""
    rng = random.Random(90125)
    for _ in range(25):
        prog = random_loop_kernel(rng)
        loads = entry_loads(prog)
        critical = {x for x in loads if rng.random() < 0.5}
        plan = make_phases(prog, critical, override(64))
        ac = plan.program.function(plan.access)
        assert not any(isinstance(n, (Store, Out)) for n in ac.nodes())
        origins = []
        for n in ac.nodes():
            if isinstance(n, Prefetch):
                assert n.origin is not None
                origins.append(n.origin)
            elif isinstance(n, Load) and n.origin is not None:
                origins.append(n.origin)
        assert sorted(origins) == sorted(plan.critical)
        assert plan.critical == frozenset(critical)
        tagged = [n for n in ac.nodes()
                  if isinstance(n, Load) and n.origin is not None]
        roots = {n.id for n in ac.nodes() if isinstance(n, Prefetch)}
        kept = cfg.dce(ac, roots | {n.id for n in tagged})
        assert [n.id for n in kept.nodes()] == [n.id for n in ac.nodes()]
        assert structural_text(cfg.simplify_cfg(ac)) == structural_text(ac)
        used = {reg for n in ac.nodes() for reg in node_uses(n)}
        assert all(n.dst in used for n in tagged)


def test_nonzero_init_and_folded_bound():
    prog = parse_program(INIT2_BOUND_CHAIN)
    ref = interpret(prog)
    plan = make_phases(prog, entry_loads(prog), override(3))
    assert plan.init_val == 2 and plan.trips == 6
    assert plan.slice_args(plan.n_slices - 1)["__hi"] == 8
    assert plan.slice_args(0) == {"__first": 1, "__lo": 2, "__hi": 5}
    assert plan.slice_args(1) == {"__first": 0, "__lo": 5, "__hi": 8}
    assert run_phased(plan) == (ref.output, ref.memory_digest)
    # the invariant bound chain is replayed in dependency order
    ex = plan.program.function(plan.execute)
    resume = [n.dst for n in ex.block_map()["__resume"].body]
    assert resume.index("n0") < resume.index("n")


INIT2_BOUND_CHAIN = """
data @base=4096 prng(seed=7, len=64)
entry @main
func @main() kind=original {
entry:
  %n0 = const 4
  %n = binop add %n0, 4
  %start = const 2
  %zero = const 0
  %base = const 4096
  br loop
loop:
  %i = phi [entry: %start], [body: %i2]
  %acc = phi [entry: %zero], [body: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %off = binop shl %i, 3
  %addr = binop add %base, %off
  %v = load %addr, 0, w8
  %acc2 = binop add %acc, %v
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret %acc
}
"""


# ---------------------------------------------------------------------------
# specialization and dependent loads


CHASE = """
data @base=4096 zero=512
entry @main
func @main() kind=original {
entry:
  %n = const 16
  %zero = const 0
  %base = const 4096
  br loop
loop:
  %i = phi [entry: %zero], [body: %i2]
  %acc = phi [entry: %zero], [body: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %m = binop and %i, 63
  %o = binop shl %m, 3
  %a1 = binop add %base, %o
  %p = load %a1, 0, w8
  %m2 = binop and %p, 63
  %o2 = binop shl %m2, 3
  %a2 = binop add %base, %o2
  %v = load %a2, 0, w8
  %acc2 = binop add %acc, %v
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret %acc
}
"""


def test_address_feeding_load_stays_a_load():
    prog = parse_program(CHASE)
    p_id, v_id = entry_loads(prog)
    plan = make_phases(prog, {v_id}, override(4))
    ac = plan.program.function(plan.access)
    kept_loads = [n for n in ac.nodes() if isinstance(n, Load)]
    prefetches = [n for n in ac.nodes() if isinstance(n, Prefetch)]
    assert len(kept_loads) == 1 and kept_loads[0].origin is None
    assert [q.origin for q in prefetches] == [v_id]
    ref = interpret(prog)
    assert run_phased(plan) == (ref.output, ref.memory_digest)


def test_critical_pointer_without_consumer_becomes_prefetch():
    prog = parse_program(CHASE)
    p_id, v_id = entry_loads(prog)
    plan = make_phases(prog, {p_id}, override(4))
    ac = plan.program.function(plan.access)
    assert not any(isinstance(n, Load) for n in ac.nodes())
    assert [q.origin for q in ac.nodes() if isinstance(q, Prefetch)] == [p_id]


def test_two_load_subsets_specialize_cleanly():
    """Every subset's access phase is the base phase specialized to it,
    and the plan tags exactly its own loads."""
    prog = parse_program(CHASE)
    loads = entry_loads(prog)
    for bits in range(4):
        critical = {x for k, x in enumerate(loads) if bits >> k & 1}
        plan = make_phases(prog, critical, override(8))
        assert_specializes(plan)
        assert plan.critical == frozenset(critical)


# A 512-trip loop that adds up the loaded values below a threshold.  The
# access phase keeps nothing of the sum, so the cleanup empties the `add`
# arm and the simplifier folds the branch into it; only then is the
# comparison dead, and the load it read free to become a prefetch.
COND_SUM = """
data @base=65536 prng(seed=7, len=4096)
entry @main

func @main() kind=original {
entry:
  %zero = const 0
  %base = const 65536
  %t = const 0
  br loop
loop:
  %i = phi [entry: %zero], [join: %i2]
  %acc = phi [entry: %zero], [join: %acc2]
  %c = binop slt %i, 512
  brcond %c, body, done
body:
  %off = binop shl %i, 3
  %addr = binop add %base, %off
  %v = load %addr, 0, w8
  %big = binop slt %v, %t
  brcond %big, add, join
add:
  %sum = binop add %acc, %v
  br join
join:
  %acc2 = phi [body: %acc], [add: %sum]
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret
}
"""


def test_folded_branch_frees_its_load_for_a_prefetch():
    """Once the branch on the loaded value folds, elimination runs again:
    the comparison goes, and the load becomes a prefetch."""
    prog = parse_program(COND_SUM)
    (v_id,) = entry_loads(prog)
    plan = make_phases(prog, {v_id}, override(64))
    ac = plan.program.function(plan.access)
    assert [n.origin for n in ac.nodes() if isinstance(n, Prefetch)] == [v_id]
    assert not any(isinstance(n, Load) and n.origin is not None
                   for n in ac.nodes())
    assert "big" not in {node_def(n) for n in ac.nodes()}
    ref = interpret(prog)
    assert run_phased(plan) == (ref.output, ref.memory_digest)


def test_static_dae_beats_the_baseline_across_a_data_dependent_branch():
    """With the load prefetched at f_min rather than waited on, static
    DAE takes less time than the baseline."""
    kernel = BenchmarkKernel(name="cond_sum", text=COND_SUM,
                             oracle=lambda seed: None)
    rows = {r.mode: r for r in run_kernel_all_modes(kernel, MachineConfig())}
    assert rows["static_dae"].norm_time < 1


DEAD_ARM = """
data @base=65536 prng(seed=7, len=4096)
entry @main

func @main() kind=original {
entry:
  %zero = const 0
  %base = const 65536
  br loop
loop:
  %i = phi [entry: %zero], [join: %i2]
  %acc = phi [entry: %zero], [join: %acc2]
  %c = binop slt %i, 64
  brcond %c, body, done
body:
  %off = binop shl %i, 3
  %addr = binop add %base, %off
  %v = load %addr, 0, w8
  %k = const 1
  brcond %k, join, cold
cold:
  %w = load %addr, 8, w8
  br join
join:
  %acc2 = binop add %acc, %v
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret
}
"""


# DEAD_ARM with the branch's constant in the prologue, which each slice
# clone's __resume block defines again.
PROLOGUE_ARM = DEAD_ARM.replace("  %k = const 1\n", "").replace(
    "  %base = const 65536\n", "  %base = const 65536\n  %k = const 1\n")


def test_target_load_in_an_arm_that_folds_away():
    """The access clones fold the constant branch, also on a register
    that every definition sets to the same constant, and a target load in
    its dead arm goes with it instead of failing the plan."""
    for text in (DEAD_ARM, PROLOGUE_ARM):
        prog = parse_program(text)
        ref = interpret(prog)
        for critical in (entry_loads(prog), entry_loads(prog)[1:]):
            plan = make_phases(prog, critical, override(8))
            assert_specializes(plan)
            ac = plan.program.function(plan.access)
            assert not any(isinstance(n, Load) for n in ac.nodes())
            for fn in (ac, plan.program.function(f"{plan.original}__base")):
                assert not any(isinstance(n, BrCond) and n.cond == "k"
                               for n in fn.nodes())
            assert run_phased(plan) == (ref.output, ref.memory_digest)


def test_access_phase_is_its_base_phase_specialized():
    """The built-in kernels and COND_SUM at their profiled critical sets
    (the plans prepare builds), at all loads and at none, and the chain
    generators at small sizes: each access phase equals its base phase
    specialized to the plan's critical set.  The random kernels of the
    equivalence tests above check the same.  34 of the 54 plans have a
    critical load."""
    plans = []
    kernels = [*builtin_kernels(), BenchmarkKernel(
        name="cond_sum", text=COND_SUM, oracle=lambda seed: None)]
    for kernel in kernels:
        plans.append(prepare(kernel, MachineConfig()).plan)
        prog = kernel.program()
        plans += [make_phases(prog, critical, override(64))
                  for critical in (entry_loads(prog), ())]
    for gen in (bound_chain, base_chain, load_blocks, empty_tail):
        for n in (1, 2, 5):
            prog = parse_program(gen(n))
            plans += [make_phases(prog, critical, override(8))
                      for critical in (entry_loads(prog), entry_loads(prog)[:1], ())]
    assert sum(bool(plan.critical) for plan in plans) == 34
    for plan in plans:
        assert_specializes(plan)


def test_stray_critical_ids_are_ignored():
    prog = sum_kernel()
    plan = make_phases(prog, {10, 999, 3}, override(4))
    assert plan.critical == frozenset({10})
    empty = make_phases(prog, {999}, override(4))
    assert empty.critical == frozenset()
    assert empty.access_is_empty


# ---------------------------------------------------------------------------
# rejections


def test_rejects_program_without_a_loop():
    prog = parse_program("""
entry @main
func @main() kind=original {
entry:
  %x = const 1
  out %x
  ret
}
""")
    with pytest.raises(DaegenError, match="no canonical loop"):
        make_phases(prog, set(), override(4))


def test_rejects_reserved_names():
    prog = parse_program("""
entry @main
func @main() kind=original {
entry:
  %n = const 8
  %zero = const 0
  br loop
loop:
  %i = phi [entry: %zero], [body: %i2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %__x = binop add %i, 1
  %i2 = binop add %i, 1
  br loop
done:
  out %i
  ret
}
""")
    with pytest.raises(DaegenError, match="reserved"):
        make_phases(prog, set(), override(4))


def test_rejects_loop_with_side_exit():
    prog = parse_program("""
data @base=4096 prng(seed=7, len=64)
entry @main
func @main() kind=original {
entry:
  %n = const 8
  %zero = const 0
  br loop
loop:
  %i = phi [entry: %zero], [latch: %i2]
  %acc = phi [entry: %zero], [latch: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %acc2 = binop add %acc, %i
  %g = binop slt %acc2, 100
  brcond %g, latch, done
latch:
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret %acc
}
""")
    with pytest.raises(DaegenError, match="exits the loop"):
        make_phases(prog, set(), override(4))


def test_rejects_break_out_of_the_loop_body():
    """A body block that leaves for a block past the loop, not the exit
    target, still leaves without passing the header."""
    prog = parse_program("""
entry @main
func @main() kind=original {
entry:
  %n = const 8
  %zero = const 0
  br loop
loop:
  %i = phi [entry: %zero], [latch: %i2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %g = binop slt %i, 5
  brcond %g, latch, brk
latch:
  %i2 = binop add %i, 1
  br loop
brk:
  out %i
  ret %i
done:
  out %n
  ret %n
}
""")
    with pytest.raises(DaegenError, match="'body' exits the loop without "
                                          "passing the header: \\['brk'\\]"):
        make_phases(prog, set(), override(4))


EXIT_PHI_KERNEL = """
data @base=4096 prng(seed=7, len=64)
entry @main
func @main() kind=original {
entry:
  %n = const 8
  %zero = const 0
  %base = const 4096
  br loop
loop:
  %i = phi [entry: %zero], [body: %i2]
  %acc = phi [entry: %zero], [body: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %off = binop shl %i, 3
  %addr = binop add %base, %off
  %v = load %addr, 0, w8
  %acc2 = binop add %acc, %v
  %i2 = binop add %i, 1
  br loop
done:
  %r = phi [loop: %acc]
  out %r
  ret %r
}
"""


def test_exit_block_phi_reads_the_slice_exit():
    """The execute clone's exit block is entered from __sexit, not the
    header, so its phis are retargeted; all three modes print the sum."""
    plan = make_phases(parse_program(EXIT_PHI_KERNEL), set(), override(3))
    done = plan.program.function(plan.execute).block_map()["done"]
    assert done.phis[0].incoming == [("__sexit", "acc")]
    kernel = BenchmarkKernel(name="exit_phi", text=EXIT_PHI_KERNEL,
                             oracle=lambda seed: None)
    rows = run_kernel_all_modes(kernel, MachineConfig(), slice_override=3)
    assert [r.mode for r in rows] == list(MODES)
    want = interpret(kernel.program(0)).output
    assert len(want) == 1
    assert all(r.report.output == want for r in rows)


def test_rejects_unresolvable_init():
    prog = parse_program("""
data @base=4096 prng(seed=7, len=64)
entry @main
func @main(%start) kind=original {
entry:
  %n = const 8
  %zero = const 0
  br loop
loop:
  %i = phi [entry: %start], [body: %i2]
  %acc = phi [entry: %zero], [body: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %acc2 = binop add %acc, %i
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret %acc
}
""")
    with pytest.raises(DaegenError, match="resolve to constants"):
        make_phases(prog, set(), override(4))


@pytest.mark.parametrize("prologue, redefine, message", [
    ("  %base = const 4096\n  %k = load %base, 0, w8", "",
     "loop-invariant %k is not recomputable from constants"),
    ("  %k = const 3\n  %k = binop add %k, 1", "",
     "loop needs %k, which the prologue defines more than once"),
    ("  %k = const 3", "  %k = binop add %t, 1",
     "loop needs %k, which has conflicting definitions inside and outside"),
], ids=["load", "prologue_twice", "inside_and_outside"])
def test_rejects_unreplayable_loop_invariant(prologue, redefine, message):
    """The resume path replays the loop's prologue inputs, so each must
    have one pure prologue definition.  A load cannot be replayed, and
    the validator lets a register be assigned more than once."""
    prog = parse_program(f"""
entry @main
func @main() kind=original {{
entry:
  %n = const 8
  %zero = const 0
{prologue}
  br loop
loop:
  %i = phi [entry: %zero], [body: %i2]
  %acc = phi [entry: %zero], [body: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %t = binop mul %i, %k
{redefine}
  %acc2 = binop add %acc, %t
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret %acc
}}
""")
    assert_valid(prog)
    with pytest.raises(DaegenError, match=message):
        make_phases(prog, set(), override(4))


@pytest.mark.parametrize("gen", [load_blocks, empty_tail],
                         ids=lambda g: g.__name__)
def test_make_phases_sweeps_instead_of_rebuilding_per_block(monkeypatch, gen):
    """One make_phases call builds as many predecessor maps, def maps,
    CFGs, node placements and function copies for a 500-block loop body
    as for a 50-block one: the CFG cleanup sweeps the blocks, it does not
    rebuild the CFG after every change, and each slice, prune or
    conversion builds one def map, not one per block or node.  The loop
    scan builds one CFG, the three clones share one analysis of the
    original, and the combined program holds the original uncopied."""
    names = ("predecessors", "defs_of", "build_cfg", "block_of", "copy")
    calls = []

    def count(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda fn: calls.append(name) or real(fn))

    for name in names[:4]:
        count(cfg, name)
    count(daegen, "defs_of")
    count(daegen, "block_of")
    count(Function, "copy")
    counts = []
    for n in (50, 500):
        prog = parse_program(gen(n))
        loads = {x.id for x in prog.entry_function().nodes()
                 if isinstance(x, Load)}
        calls.clear()
        make_phases(prog, loads, override(8))
        counts.append(tuple(calls.count(name) for name in names))
    assert counts[0] == counts[1] == (19, 11, 1, 2, 6)


# ---------------------------------------------------------------------------
# loop edge cases


def strided_sum(step: int, n: int, cmp: str) -> str:
    return f"""
data @base=4096 prng(seed=7, len=64)
entry @main
func @main() kind=original {{
entry:
  %n = const {n}
  %zero = const 0
  %base = const 4096
  br loop
loop:
  %i = phi [entry: %zero], [body: %i2]
  %acc = phi [entry: %zero], [body: %acc2]
  %c = binop {cmp} %i, %n
  brcond %c, body, done
body:
  %m = binop and %i, 7
  %off = binop shl %m, 3
  %addr = binop add %base, %off
  %v = load %addr, 0, w8
  %acc2 = binop add %acc, %v
  %i2 = binop add %i, {step}
  br loop
done:
  %fin = binop add %acc, %i
  out %fin
  ret %fin
}}
"""


def test_phases_preserve_behavior_at_edges():
    """Exit values of both the accumulator and the induction register
    must survive, including overshoot past the bound and zero trips."""
    for step in (1, 3):
        for n in (0, 1, 7, 8):
            for cmp in ("slt", "sle"):
                prog = parse_program(strided_sum(step, n, cmp))
                ref = interpret(prog)
                for s in (1, 3, 100):
                    plan = make_phases(prog, entry_loads(prog), override(s))
                    assert run_phased(plan) == \
                        (ref.output, ref.memory_digest), (step, n, cmp, s)


def test_phases_allow_exit_redefinition():
    """Redefining a loop register after the loop is legal input; the
    phases must still reproduce the original's output."""
    prog = parse_program("""
data @base=4096 prng(seed=7, len=64)
entry @main
func @main() kind=original {
entry:
  %n = const 8
  %zero = const 0
  br loop
loop:
  %i = phi [entry: %zero], [body: %i2]
  %acc = phi [entry: %zero], [body: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %acc2 = binop add %acc, %i
  %i2 = binop add %i, 1
  br loop
done:
  %i = binop add %i, 0
  out %i
  ret %i
}
""")
    ref = interpret(prog)
    for s in (1, 3, 4, 100):
        plan = make_phases(prog, set(), override(s))
        assert_valid(plan.program)
        assert run_phased(plan) == (ref.output, ref.memory_digest)


# sha256 of the printed plan programs below, recorded while phase
# generation still copied IR with copy.deepcopy.
PLANS_SHA256 = (
    "432f7451985f85a9cd10a02b4fb562645e519a5173d11ed21fcf41d6f897f554")


def test_plan_programs_are_pinned():
    """Random loop kernels, random critical sets and slice sizes."""
    h = hashlib.sha256()
    for i in range(60):
        rng = random.Random(1000 + i)
        prog = random_loop_kernel(rng)
        critical = {x for x in entry_loads(prog) if rng.random() < 0.5}
        plan = make_phases(prog, critical=critical,
                           slice_params=override(rng.randint(1, 64)))
        h.update(print_program(plan.program).encode())
    assert h.hexdigest() == PLANS_SHA256
