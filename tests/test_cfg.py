"""CFG analyses checked against brute-force oracles.

Dominators are compared with the node-removal definition (d dominates n
iff deleting d cuts every path from entry to n).  Natural loops are
compared with direct back-edge enumeration over those brute dominator
sets.  Slices are compared with a rescanning fixpoint closure.
"""

from __future__ import annotations

import random

import pytest

from conftest import assert_valid, random_cfg_program, random_loop_kernel, sum_kernel
from daef.cfg import (
    backward_slice,
    build_cfg,
    dce,
    dce_keep,
    dominators,
    find_loops,
    natural_loops,
    resolve_constant,
    simplify_cfg,
)
from daef.ir import BrCond, Out, Program, Store, interpret, parse_program, print_function, print_program, validate_program


# -- oracles -----------------------------------------------------------------


def _reach(succs, entry, skip=None):
    seen = set()
    if entry == skip:
        return seen
    stack = [entry]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(s for s in succs[n] if s != skip)
    return seen


def brute_dom_sets(c):
    reachable = _reach(c.succs, c.entry)
    return {
        n: {d for d in reachable if n not in _reach(c.succs, c.entry, skip=d)}
        for n in reachable
    }


def brute_natural_loops(fn):
    c = build_cfg(fn)
    doms = brute_dom_sets(c)
    loops = []
    for latch in c.nodes:
        if latch not in doms:
            continue
        for header in c.succs[latch]:
            if header in doms.get(latch, set()):
                # Nodes reaching the latch without passing the header.
                rsuccs = {n: [] for n in c.nodes}
                for a, outs in c.succs.items():
                    for b in outs:
                        rsuccs[b].append(a)
                body = _reach(rsuccs, latch, skip=header) | {header, latch}
                body &= set(doms)  # reachable only
                loops.append((header, latch, frozenset(body)))
    return sorted(loops, key=lambda t: (c.nodes.index(t[0]), c.nodes.index(t[1])))


def brute_slice(fn, seeds):
    by_id = {n.id: n for n in fn.nodes()}
    from daef.ir import node_def, node_uses
    result = set(seeds)
    changed = True
    while changed:
        changed = False
        for i in list(result):
            for reg in node_uses(by_id[i]):
                for n in fn.nodes():
                    if node_def(n) == reg and n.id not in result:
                        result.add(n.id)
                        changed = True
    return {i for i in result if not isinstance(by_id[i], (Store, Out))}


def brute_trips(init, bound, step, cmp):
    i, t = init, 0
    while (i < bound) if cmp == "slt" else (i <= bound):
        t += 1
        i += step
        assert t < 10**6
    return t


# -- dominators --------------------------------------------------------------


def test_dominators_match_removal_oracle():
    for seed in range(40):
        fn = random_cfg_program(random.Random(seed)).functions[0]
        c = build_cfg(fn)
        info = dominators(c)
        expected = brute_dom_sets(c)
        assert set(info.idom) == set(expected)
        for n, want in expected.items():
            got = {n}
            cur = n
            while info.idom[cur] != cur:
                cur = info.idom[cur]
                got.add(cur)
            assert got == want, f"seed {seed}, node {n}"


def test_dominators_report_unreachable():
    fn = parse_program("""
func @f() kind=original {
entry:
  ret
island:
  ret
}
""").functions[0]
    info = dominators(build_cfg(fn))
    assert "island" not in info.idom


def test_dominates_relation():
    fn = sum_kernel().functions[0]
    info = dominators(build_cfg(fn))
    assert info.dominates("entry", "done")
    assert info.dominates("loop", "body")
    assert info.dominates("loop", "done")
    assert not info.dominates("body", "done")
    assert not info.dominates("done", "entry")


# -- natural loops -----------------------------------------------------------


def test_natural_loops_match_oracle():
    for seed in range(40):
        rng = random.Random(seed + 100)
        fn = random_cfg_program(rng).functions[0]
        got = [(l.header, l.latch, l.body) for l in natural_loops(fn)]
        assert got == brute_natural_loops(fn), f"seed {seed}"


def test_sum_kernel_loop_is_canonical():
    scan = find_loops(sum_kernel().functions[0])
    assert not scan.skipped
    (li,) = scan.loops
    assert (li.header, li.latch, li.preheader) == ("loop", "latch", "entry")
    assert li.body == frozenset({"loop", "body", "latch"})
    assert (li.reg, li.step, li.cmp) == ("i", 1, "slt")
    assert (li.body_target, li.exit_target) == ("body", "done")


def test_random_kernels_are_canonical_and_trip_counts_agree():
    for seed in range(25):
        prog = random_loop_kernel(random.Random(seed + 1))
        fn = prog.functions[0]
        scan = find_loops(fn)
        assert len(scan.loops) == 1, f"seed {seed}: {[str(d) for d in scan.skipped]}"
        li = scan.loops[0]
        init = resolve_constant(fn, li.init)
        bound = resolve_constant(fn, li.bound)
        assert init is not None and bound is not None
        want = brute_trips(init, bound, li.step, li.cmp)
        assert li.trip_count(init, bound) == want
        # The step instruction retires exactly once per iteration.
        t = interpret(prog)
        assert t.retired_by_static_id.get(li.step_id, 0) == want


@pytest.mark.parametrize("init, bound, step, cmp", [
    (0, 10, 1, "slt"), (0, 10, 1, "sle"), (0, 10, 3, "slt"), (0, 10, 3, "sle"),
    (5, 5, 1, "slt"), (5, 5, 1, "sle"), (7, 3, 2, "slt"), (-6, 7, 4, "sle"),
    (-10, -1, 3, "slt"), (0, 1, 7, "slt"),
])
def test_trip_count_formula(init, bound, step, cmp):
    scan = find_loops(sum_kernel().functions[0])
    li = scan.loops[0]
    object.__setattr__(li, "step", step)
    object.__setattr__(li, "cmp", cmp)
    assert li.trip_count(init, bound) == brute_trips(init, bound, step, cmp)


def _loop_src(header_term="brcond %c, body, done", cmp="slt",
              phi='%i = phi [entry: %zero], [body: %i2]',
              step_line="%i2 = binop add %i, 1",
              cond="%c = binop {cmp} %i, %n"):
    return f"""
func @f() kind=original {{
entry:
  %n = const 10
  %zero = const 0
  br loop
loop:
  {phi}
  {cond.format(cmp=cmp)}
  {header_term}
body:
  {step_line}
  br loop
done:
  ret
}}
"""


@pytest.mark.parametrize("src, why", [
    (_loop_src(header_term="brcond %c, done, body"), "on true"),
    (_loop_src(cmp="seq"), "slt/sle"),
    (_loop_src(step_line="%i2 = binop mul %i, 2"), "not phi plus a constant"),
    (_loop_src(step_line="%i2 = binop add %i, -1"), "not positive"),
    (_loop_src(step_line="%i2 = binop add %i, 0"), "not positive"),
    (_loop_src(phi="%i = phi [entry: %zero], [body: %zero]"),
     "not phi plus a constant"),
    (_loop_src(step_line="%i2 = binop add %i, 1\n  %i2 = binop add %i2, 0"),
     "not defined exactly once"),
    (_loop_src(cond="%c = binop slt %n, %i"), "not a header phi"),
])
def test_non_canonical_loops_are_skipped(src, why):
    fn = parse_program(src).functions[0]
    scan = find_loops(fn)
    assert not scan.loops
    assert any(why in str(d) for d in scan.skipped), \
        f"wanted {why!r} in {[str(d) for d in scan.skipped]}"


def test_commuted_step_is_canonical():
    fn = parse_program(_loop_src(step_line="%i2 = binop add 3, %i")).functions[0]
    (li,) = find_loops(fn).loops
    assert (li.reg, li.step) == ("i", 3)
    assert li.step_id == fn.block_map()["body"].body[0].id


def test_variable_bound_redefined_in_body_is_skipped():
    src = """
func @f() kind=original {
entry:
  %n = const 10
  %zero = const 0
  br loop
loop:
  %i = phi [entry: %zero], [body: %i2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %n = binop add %n, 0
  %i2 = binop add %i, 1
  br loop
done:
  ret
}
"""
    scan = find_loops(parse_program(src).functions[0])
    assert not scan.loops
    assert any("loop-invariant" in str(d) for d in scan.skipped)


def test_multiple_back_edges_are_skipped():
    src = """
func @f() kind=original {
entry:
  %n = const 10
  %zero = const 0
  br loop
loop:
  %i = phi [entry: %zero], [a: %i2], [b: %i3]
  %c = binop slt %i, %n
  brcond %c, a, done
a:
  %i2 = binop add %i, 1
  %p = binop and %i2, 1
  brcond %p, loop, b
b:
  %i3 = binop add %i2, 1
  br loop
done:
  ret
}
"""
    fn = parse_program(src).functions[0]
    assert len(natural_loops(fn)) == 2  # one per back edge
    scan = find_loops(fn)
    assert not scan.loops
    assert any("multiple back edges" in str(d) for d in scan.skipped)


def test_only_innermost_loop_is_reported():
    src = """
func @f() kind=original {
entry:
  %n = const 4
  %zero = const 0
  br outer
outer:
  %i = phi [entry: %zero], [outerlatch: %i2]
  %oc = binop slt %i, %n
  brcond %oc, innerpre, done
innerpre:
  br inner
inner:
  %j = phi [innerpre: %zero], [innerbody: %j2]
  %ic = binop slt %j, %n
  brcond %ic, innerbody, outerlatch
innerbody:
  %j2 = binop add %j, 1
  br inner
outerlatch:
  %i2 = binop add %i, 1
  br outer
done:
  ret
}
"""
    fn = parse_program(src).functions[0]
    assert len(natural_loops(fn)) == 2
    scan = find_loops(fn)
    assert [l.header for l in scan.loops] == ["inner"]


# -- constant resolution -----------------------------------------------------


def test_resolve_constant_folds_pure_chains():
    fn = parse_program("""
func @f() kind=original {
entry:
  %a = const 6
  %b = binop mul %a, 7
  %c = binop add %b, -2
  %d = binop shl %c, 1
  ret
}
""").functions[0]
    assert resolve_constant(fn, "a") == 6
    assert resolve_constant(fn, "b") == 42
    assert resolve_constant(fn, "c") == 40
    assert resolve_constant(fn, "d") == 80
    assert resolve_constant(fn, 17) == 17
    assert resolve_constant(fn, "missing") is None


def test_resolve_constant_refuses_loads_and_multiple_defs():
    fn = parse_program("""
func @f() kind=original {
entry:
  %p = const 64
  %v = load %p, 0, w8
  %x = const 1
  %x = binop add %x, 1
  %z = const 0
  %bad = binop div %p, %z
  ret
}
""").functions[0]
    assert resolve_constant(fn, "v") is None
    assert resolve_constant(fn, "x") is None
    assert resolve_constant(fn, "bad") is None


# -- slicing -----------------------------------------------------------------


def test_backward_slice_sum_kernel_frozen():
    fn = sum_kernel().functions[0]
    load_id = next(n.id for b in fn.blocks for n in b.body
                   if type(n).__name__ == "Load")
    assert load_id == 10
    # By hand: load 10 <- addr 9 <- {base 2, off 8}; off <- phi i 4
    # <- {zero 1, i2 12}; i2 <- phi 4.  The acc chain stays out.
    assert backward_slice(fn, {load_id}) == {1, 2, 4, 8, 9, 10, 12}


def test_backward_slice_matches_closure_oracle():
    for seed in range(20):
        rng = random.Random(seed + 7)
        prog = random_loop_kernel(rng) if seed % 2 else random_cfg_program(rng)
        fn = prog.functions[0]
        ids = [n.id for n in fn.nodes()]
        seeds = set(rng.sample(ids, min(3, len(ids))))
        assert backward_slice(fn, seeds) == brute_slice(fn, seeds), f"seed {seed}"


def test_slice_and_dce_reject_unknown_ids():
    """Each entry point names the ids it does not know, in its own terms."""
    fn = sum_kernel().functions[0]
    with pytest.raises(ValueError, match=r"seed ids not in function: \[999\]"):
        backward_slice(fn, {999, 10})
    with pytest.raises(ValueError, match=r"root ids not in function: \[999\]"):
        dce_keep(fn, {999, 10})
    with pytest.raises(ValueError, match=r"root ids not in function: \[999\]"):
        dce(fn, {999, 10})


# -- dead code elimination ---------------------------------------------------


def _with_fn(prog: Program, fn) -> Program:
    return Program(functions=[fn], data=prog.data, entry=prog.entry)


def test_dce_keeps_behavior_with_effect_roots():
    for seed in range(12):
        rng = random.Random(seed + 50)
        prog = random_cfg_program(rng) if seed % 2 else random_loop_kernel(rng)
        fn = prog.functions[0]
        roots = {n.id for n in fn.nodes() if isinstance(n, (Store, Out))}
        cleaned = dce(fn, roots)
        slim = _with_fn(prog, cleaned)
        assert_valid(slim)
        a, b = interpret(prog), interpret(slim)
        assert a.output == b.output
        assert a.memory_digest == b.memory_digest
        assert len(list(cleaned.nodes())) <= len(list(fn.nodes()))


def test_dce_drops_unrooted_effects_and_junk():
    fn = sum_kernel().functions[0]
    load_id = 10
    cleaned = dce(fn, {load_id})
    kept = {n.id for n in cleaned.nodes()}
    assert load_id in kept
    assert 15 not in kept  # the out is gone
    assert 16 in kept      # ret survives, with its acc chain
    assert 5 in kept and 11 in kept
    assert_valid(_with_fn(sum_kernel(), cleaned))


def test_dce_preserves_ids():
    fn = sum_kernel().functions[0]
    cleaned = dce(fn, {10})
    orig = {n.id: type(n).__name__ for n in fn.nodes()}
    for n in cleaned.nodes():
        assert orig[n.id] == type(n).__name__


# -- simplification ----------------------------------------------------------


def test_simplify_preserves_behavior_and_is_idempotent():
    for seed in range(30):
        rng = random.Random(seed + 200)
        prog = random_cfg_program(rng) if seed % 2 else random_loop_kernel(rng)
        fn = prog.functions[0]
        simp = simplify_cfg(fn)
        simple = _with_fn(prog, simp)
        assert_valid(simple)
        a, b = interpret(prog), interpret(simple)
        assert a.output == b.output, f"seed {seed}"
        assert a.memory_digest == b.memory_digest, f"seed {seed}"
        assert print_function(simplify_cfg(simp)) == print_function(simp)
        assert len(simp.blocks) <= len(fn.blocks)


def test_simplify_folds_constant_branches_to_straight_line():
    prog = parse_program("""
func @f() kind=original {
entry:
  %t = const 1
  brcond %t, live, dead
live:
  %x = const 7
  out %x
  br tail
dead:
  %y = const 8
  out %y
  br tail
tail:
  ret
}
""")
    simp = simplify_cfg(prog.functions[0])
    assert len(simp.blocks) == 1
    assert interpret(_with_fn(prog, simp)).output == [7]


def test_simplify_folds_a_zero_branch_and_drops_its_phi_edge():
    """A brcond on the constant 0 takes its false edge; the phi at the
    end of the dropped edge loses that incoming and keeps the others."""
    prog = parse_program("""
func @f() kind=original {
entry:
  %f = const 0
  %a = const 5
  %b = const 9
  brcond %f, join, mid
mid:
  out %b
  %g = binop slt %b, %a
  brcond %g, join, other
other:
  out %a
  br join
join:
  %v = phi [entry: %a], [mid: %b], [other: %a]
  out %v
  ret
}
""")
    simp = simplify_cfg(prog.functions[0])
    simple = _with_fn(prog, simp)
    assert_valid(simple)
    # entry's edge to join went with the fold; mid then merged into entry.
    assert [b.label for b in simp.blocks] == ["entry", "other", "join"]
    assert simp.block_map()["join"].phis[0].incoming == [("entry", "b"),
                                                         ("other", "a")]
    assert interpret(simple).output == interpret(prog).output == [9, 5, 5]


BRANCH_ON_K = """
func @f(%p) kind=original {
entry:
  brcond %p, a, b
a:
  %k = const KA
  br join
b:
  %k = const KB
  br join
join:
  brcond %k, yes, no
yes:
  %x = const 7
  out %x
  ret
no:
  ret
}
"""


@pytest.mark.parametrize("ka, kb, folds", [("2", "1", True), ("2", "0", False),
                                           ("0", "0", True)])
def test_simplify_folds_a_branch_when_every_definition_agrees(ka, kb, folds):
    """A brcond folds when every definition of its condition is a const,
    all of one truth value, since each path defines it first."""
    prog = parse_program(BRANCH_ON_K.replace("KA", ka).replace("KB", kb))
    simp = simplify_cfg(prog.functions[0])
    assert folds != any(isinstance(n, BrCond) and n.cond == "k"
                        for n in simp.nodes())
    assert interpret(_with_fn(prog, simp)).output == interpret(prog).output


def test_simplify_keeps_a_branch_on_a_parameter_with_one_const():
    """A parameter is defined on entry, so one const beside it fixes
    nothing: %p is 0 here when entry branches on it."""
    prog = parse_program("""
func @f(%p) kind=original {
entry:
  %one = const 1
  brcond %p, yes, no
yes:
  out %one
  ret
no:
  %p = const 1
  ret
}
""")
    simp = simplify_cfg(prog.functions[0])
    assert interpret(_with_fn(prog, simp)).output == interpret(prog).output == []


def test_simplify_rethreads_a_brcond_true_edge_past_an_empty_block():
    prog = parse_program("""
func @f() kind=original {
entry:
  %x = const 3
  %y = const 4
  %c = binop slt %x, %y
  brcond %c, fwd, other
fwd:
  br join
other:
  out %y
  br join
join:
  out %x
  ret
}
""")
    simp = simplify_cfg(prog.functions[0])
    assert [b.label for b in simp.blocks] == ["entry", "other", "join"]
    term = simp.blocks[0].term
    assert (term.if_true, term.if_false) == ("join", "other")
    assert interpret(_with_fn(prog, simp)).output == [3]


@pytest.mark.parametrize("x", [3, 5])
def test_simplify_keeps_an_empty_block_that_would_double_a_phi_edge(x):
    """Removing fwd would give join two edges from entry, which its phi
    could not tell apart."""
    prog = parse_program(f"""
func @f() kind=original {{
entry:
  %x = const {x}
  %y = const 4
  %c = binop slt %x, %y
  brcond %c, fwd, join
fwd:
  br join
join:
  %v = phi [entry: %x], [fwd: %y]
  out %v
  ret
}}
""")
    simp = simplify_cfg(prog.functions[0])
    simple = _with_fn(prog, simp)
    assert_valid(simple)
    assert "fwd" in [b.label for b in simp.blocks]
    assert interpret(simple).output == interpret(prog).output == [4 if x < 4 else x]


def test_simplify_merges_forwarding_chain():
    fn = sum_kernel().functions[0]
    simp = simplify_cfg(fn)
    labels = [b.label for b in simp.blocks]
    assert "latch" not in labels  # empty forwarder folded away
    prog = _with_fn(sum_kernel(), simp)
    assert_valid(prog)
    assert interpret(prog).output == interpret(sum_kernel()).output


def test_simplify_lowers_parallel_phi_swap_correctly():
    # %x and %y swap through single-predecessor phis; naive sequential
    # copies would read the freshly written %x.
    prog = parse_program("""
func @f() kind=original {
entry:
  %x = const 1
  %b0 = const 2
  br mid
mid:
  %x = phi [entry: %b0]
  %y = phi [entry: %x]
  out %x
  out %y
  ret
}
""")
    assert interpret(prog).output == [2, 1]
    simp = simplify_cfg(prog.functions[0])
    simple = _with_fn(prog, simp)
    assert_valid(simple)
    assert interpret(simple).output == [2, 1]
    assert not any(b.phis for b in simp.blocks)


def test_simplify_keeps_loops_intact():
    prog = random_loop_kernel(random.Random(4))
    fn = prog.functions[0]
    simp = simplify_cfg(fn)
    scan = find_loops(simp)
    assert len(scan.loops) == 1
