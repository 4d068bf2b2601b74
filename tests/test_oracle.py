"""Independent oracles: the code generator and the run clock checked against them.

walk() runs a function one node at a time on canonical Python ints and
shares no code with ir.interp: each block counts its entry and charges
its fuel first, its phis take the values of the edge just taken all at
once, and every fault raises the interpreter's text.  The differential
tests run it and compile_function on the same random programs, at full
and at random fuel, and compare everything a run shows.  Programs
derived from the random ones by planting a division by zero or an
address that leaves memory test the faults that the generators never
raise.

model_run is the cost model written out naively, sharing no code with
machsim: it replays the (kind, addr, fuel) events that a run's hooks
received and gives the run's cycles and the L1 after it, which the
simulator's run clock must match.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

from conftest import (
    break_program,
    random_cfg_program,
    random_chase_kernel,
    random_loop_kernel,
    random_machine,
)
from daef import machsim
from daef.daegen import SliceParams, make_phases
from daef.harness import dae_fuel, prepare
from daef.ir import (
    Br,
    BinOp,
    Const,
    DirRuntimeError,
    Load,
    Out,
    Prefetch,
    Ret,
    Store,
    parse_program,
    print_program,
)
from daef.ir.interp import (
    DEFAULT_FUEL,
    _GUARD,
    _Source,
    _build,
    compile_function,
    default_mem_size,
    init_memory,
    memory_digest,
)
from daef.kernels import BenchmarkKernel, builtin_kernels
from daef.machine import L1Config, LruCache, MachineConfig
from daef.machsim import _Rates, build_schedule, simulate

M64 = (1 << 64) - 1


def _signed(v: int) -> int:
    return v - (1 << 64) if v >> 63 else v


def _div(a: int, b: int, rem: bool) -> int:
    q = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
    return (a - q * b if rem else q) & M64


_OPS = {
    "add": lambda a, b: (a + b) & M64, "sub": lambda a, b: (a - b) & M64,
    "mul": lambda a, b: (a * b) & M64, "and": lambda a, b: a & b,
    "or": lambda a, b: a | b, "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a << b % 64) & M64, "shr": lambda a, b: a >> b % 64,
    "div": lambda a, b: _div(_signed(a), _signed(b), False),
    "rem": lambda a, b: _div(_signed(a), _signed(b), True),
    "slt": lambda a, b: int(_signed(a) < _signed(b)),
    "sle": lambda a, b: int(_signed(a) <= _signed(b)), "seq": lambda a, b: int(a == b),
}


def walk(fn, env, mem, mem_size, fuel, seen):
    """Run fn; returns (output, block counts, fuel left, error text or
    None).  env gives the parameters and, after a clean return, receives
    every register; seen gets (kind, id, address, fuel left) per load
    and in-bounds prefetch, as the interpreter's hooks see them."""
    blocks = {blk.label: blk for blk in fn.blocks}
    regs = {p: env[p] for p in fn.params if p in env}

    def val(v):
        return regs[v] if isinstance(v, str) else v & M64

    out, counts, label, prev = [], {}, fn.blocks[0].label, None
    try:
        while True:
            blk = blocks[label]
            counts[label] = counts.get(label, 0) + 1
            fuel -= len(blk.phis) + len(blk.body) + 1
            if fuel < 0:
                raise DirRuntimeError(f"fuel exhausted in block {label!r}")
            if blk.phis and prev is None:
                raise DirRuntimeError(f"phi executed on function entry in {label!r}")
            moves = {}
            for phi in blk.phis:
                incoming = dict(phi.incoming)
                if prev not in incoming:
                    raise DirRuntimeError(f"phi %{phi.dst} has no incoming"
                                          f" for predecessor {prev!r}")
                moves[phi.dst] = val(incoming[prev])
            regs.update(moves)
            for n in blk.body:
                if isinstance(n, Const):
                    regs[n.dst] = n.value & M64
                elif isinstance(n, BinOp):
                    a, b = val(n.a), val(n.b)
                    if n.op in ("div", "rem") and b == 0:
                        raise DirRuntimeError("division by zero", n.id)
                    regs[n.dst] = _OPS[n.op](a, b)
                elif isinstance(n, Out):
                    out.append(_signed(regs[n.src]))
                else:
                    addr = _signed(regs[n.base]) + n.offset
                    width = getattr(n, "width", 1)
                    inside = 0 <= addr and addr + width <= mem_size
                    kind = type(n).__name__.lower()
                    if isinstance(n, Prefetch):
                        if inside:
                            seen.append((kind, n.id, addr, fuel))
                        continue
                    if not inside:
                        raise DirRuntimeError(f"{kind} address {addr} out of"
                                              f" [0, {mem_size})", n.id)
                    if isinstance(n, Load):
                        seen.append((kind, n.id, addr, fuel))
                        regs[n.dst] = int.from_bytes(mem[addr:addr + width], "little")
                    else:
                        value = regs[n.src] & ((1 << 8 * width) - 1)
                        mem[addr:addr + width] = value.to_bytes(width, "little")
            if isinstance(blk.term, Ret):
                break
            prev = label
            if isinstance(blk.term, Br):
                label = blk.term.target
            else:
                t = blk.term
                label = t.if_true if regs[t.cond] else t.if_false
    except DirRuntimeError as e:
        return out, counts, fuel, str(e)
    env.update(regs)
    return out, counts, fuel, None


def compiled_run(cf, env, mem, mem_size, fuel, seen):
    """cf's run, cf a CompiledFunction, reporting what walk reports."""
    out, counts, box = [], {}, [fuel]
    try:
        cf.run(
            env, mem, out, counts, box, mem_size,
            on_load=lambda i, a, f: seen.append(("load", i, a, f)),
            on_prefetch=lambda i, a, f: seen.append(("prefetch", i, a, f)))
    except DirRuntimeError as e:
        return out, counts, box[0], str(e)
    return out, counts, box[0], None


def both(prog, fuel: int, fn=None, params=None, cf=None):
    """(walk's result, compile_function's result) for a call of fn,
    prog's entry function by default, with params in env; each with its
    memory digest, env and hook calls.  cf is fn compiled, compiled here
    when not given: a caller that runs fn at many budgets compiles it
    once."""
    fn, size = fn or prog.entry_function(), default_mem_size(prog)
    results = []
    for run, code in ((walk, fn), (compiled_run, cf or compile_function(fn))):
        mem, env, seen = init_memory(prog, size), dict(params or {}), []
        try:
            shown = run(code, env, mem, size, fuel, seen)
        except (KeyError, NameError):
            # A damaged program reads a register or block that does not
            # exist; neither engine defines what else it has done.
            results.append("lookup error")
            continue
        results.append((*shown, memory_digest(mem), env, seen))
    return results


def test_compiled_code_agrees_with_the_walker():
    """100 random loop kernels and 100 random CFGs, each at full fuel and
    at a random budget: output, block counts, fuel left, error text,
    memory, the env written back (every value canonical) and each hook
    call agree."""
    rng = random.Random(2024)
    for seed in range(100):
        for make in (random_loop_kernel, random_cfg_program):
            prog = make(random.Random(seed))
            full = both(prog, DEFAULT_FUEL)
            assert full[0] == full[1]
            out, counts, left, err, digest, env, seen = full[0]
            assert err is None
            assert all(0 <= v <= M64 for v in env.values())
            spent = DEFAULT_FUEL - left
            cut = both(prog, rng.randrange(spent + 2))
            assert cut[0] == cut[1]


def test_fuel_cuts_near_the_fast_copy_agree_with_the_walker():
    """A loop arm runs its fast copy only on trips that start with at
    least K fuel, the most any of its paths charges.  Every fuel from a
    full run's spend minus 2K to the spend plus 1 moves that switch
    across the last trips.  The built-in kernels' clones, at their first
    and last slices (their originals run the same loops, but every trip
    in one call), 20 random loop kernels and those of 40 random CFGs that
    have a loop arm with a fast copy agree with the walker at each fuel."""
    cases = []
    for kernel in builtin_kernels():
        prog = kernel.program()
        loads = [n.id for n in prog.entry_function().nodes() if isinstance(n, Load)]
        plan = make_phases(prog, critical=loads, slice_params=SliceParams(64, "override"))
        for fn in plan.program.functions:
            if fn.name != plan.original:
                cases += [(plan.program, fn, plan.slice_args(k))
                          for k in {0, plan.n_slices - 1}]
    progs = [random_loop_kernel(random.Random(seed)) for seed in range(20)]
    progs += [random_cfg_program(random.Random(seed)) for seed in range(40)]
    cases += [(prog, prog.entry_function(), {}) for prog in progs]
    for prog, fn, args in cases:
        params = {p: args.get(p, 0) for p in fn.params}
        tops = [int(k) for k in re.findall(r"while f >= (\d+)",
                                           _Source(fn, fn.block_map()).text())]
        if not tops:
            continue
        top = max(tops)
        cf = compile_function(fn)
        full = both(prog, DEFAULT_FUEL, fn, params, cf)
        assert full[0] == full[1]
        spent = DEFAULT_FUEL - full[0][2]
        for fuel in range(max(0, spent - 2 * top), spent + 2):
            cut = both(prog, fuel, fn, params, cf)
            assert cut[0] == cut[1], (fn.name, args, fuel)


def test_damaged_programs_fault_alike():
    """Random CFGs with up to three damaging edits (a phi edge dropped,
    a branch or a read pointed elsewhere, a label duplicated) raise the
    same faults at the same point, or both read something undefined."""
    rng = random.Random(7)
    compared = 0
    for seed in range(150):
        prog = random_cfg_program(random.Random(seed))
        break_program(rng, prog, rng.randint(1, 3))
        try:
            cf = compile_function(prog.entry_function())
        except TypeError:
            continue  # a block lost its terminator
        walked, ran = both(prog, 5000, cf=cf)
        assert walked == ran
        compared += 1
    assert compared > 100


def plant_fault(rng: random.Random, prog, kind: str):
    """Insert, at a random point of a block of prog's entry function,
    nodes that read a counter r of that block: %i in a loop kernel's
    body, a random CFG block's visit counter.  kind "div" divides by r -
    k (times an odd constant half the time), 0 where r equals k.  kind
    "address" gives a load, store or prefetch an address that crosses
    mem_size as r grows (8r with an offset near mem_size - 8k), or 0
    (-8r with an offset near 8k, or 8r with one near -8k).  Returns the
    block and the last node inserted."""
    fn = prog.entry_function()
    consts = {n.dst: n.value for n in fn.blocks[0].body if isinstance(n, Const)}
    if "n" in consts:  # a loop kernel of consts["n"] trips
        blk, r, top = fn.block_map()["body"], "i", consts["n"]
    else:  # a random CFG: each block's phi counts the blocks walked so far
        blk = rng.choice(fn.blocks[1:])
        r, top = blk.phis[0].dst, consts["lim"] + 1
    k = rng.randint(0, top)
    ids = itertools.count(prog.max_id() + 1)
    if kind == "div":
        nodes = [BinOp(next(ids), "z0", "sub", r, k)]
        if rng.random() < 0.5:
            nodes.append(BinOp(next(ids), "z1", "mul", "z0",
                               rng.randrange(1, 1 << 64, 2)))
        nodes += [BinOp(next(ids), "zq", rng.choice(["div", "rem"]),
                        rng.choice([r, rng.randint(-9, 9)]), nodes[-1].dst),
                  Out(next(ids), "zq")]
    else:
        width, e = rng.choice([1, 2, 4, 8]), rng.randint(-8, 8)
        form = rng.randrange(3)
        nodes = [BinOp(next(ids), "za", "mul" if form == 1 else "shl", r,
                       -8 if form == 1 else 3)]
        offset = [default_mem_size(prog) - 8 * k - width + e, 8 * k + e,
                  e - 8 * k][form]
        mem = rng.randrange(3)
        if mem == 0:
            nodes += [Load(next(ids), "zv", "za", offset, width),
                      Out(next(ids), "zv")]
        elif mem == 1:
            nodes.append(Store(next(ids), "za", offset, r, width))
        else:
            nodes.append(Prefetch(next(ids), "za", offset))
    at = rng.randint(0, len(blk.body))
    blk.body[at:at] = nodes
    return blk, nodes[-1]


def test_runtime_faults_agree_with_the_walker():
    """Random loop kernels and CFGs with a planted division by zero or an
    address outside [0, mem_size): the error text, fuel left, block
    counts, hook calls, output and memory agree, at full and at random
    fuel.  Over 100 programs divide by zero, and over 100 fault on a
    load or store address or drop a prefetch outside memory."""
    rng = random.Random(11)
    divided = addressed = 0
    for seed in range(120):
        for make in (random_loop_kernel, random_cfg_program):
            for kind in ("div", "address"):
                prog = make(random.Random(seed))
                blk, last = plant_fault(rng, prog, kind)
                full = both(prog, DEFAULT_FUEL)
                assert full[0] == full[1]
                _, counts, left, err, _, _, seen = full[0]
                divided += err is not None and err.startswith("division by zero")
                addressed += err is not None and " address " in err
                addressed += isinstance(last, Prefetch) and \
                    sum(e[1] == last.id for e in seen) < counts.get(blk.label, 0)
                cut = both(prog, rng.randrange(DEFAULT_FUEL - left + 2))
                assert cut[0] == cut[1]
    assert divided >= 100 and addressed >= 100


# A counted loop whose fast trips guard %i and, given as a parameter, %hi
# below _GUARD.  {fault} reads %z = %i - k, which is 0 mid-loop.
GUARDED_LOOP = """
data @base=0 prng(seed=3, len=4096)
entry @main
func @main({params}) kind=original {{
entry:
{consts}
  %zero = const 0
  br loop
loop:
  %i = phi [entry: %lo], [latch: %i2]
  %acc = phi [entry: %zero], [latch: %acc2]
  %c = binop slt %i, %hi
  brcond %c, body, done
body:
  %t1 = binop mul %i, 3
  %t2 = binop add %t1, 5
  %t3 = binop mul %t2, %i
  %m = binop and %i, 511
  %p = binop shl %m, 3
  %v = load %p, 0, w8
  %e = binop sle %i, %t2
  %s = binop add %t3, %v
  %s2 = binop add %s, %e
  %z = binop sub %i, {k}
{fault}
  %acc2 = binop add %acc, %s2
  br latch
latch:
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  out %i
  ret
}}
"""
FAULTS = {"none": "", "div": "  %q = binop div %s2, %z\n  out %q",
          "load": "  %w = load %z, 4088, w8\n  out %w",
          "store": "  store %z, 4088, %s2, w8", "prefetch": "  prefetch %z, 4088 !origin=0"}


def test_guard_boundaries_agree_with_the_walker():
    """Counters that start just below _GUARD and cross it mid-loop, at
    2**63, and at 2**64 - 3 (they wrap to 0 and pass the guard from
    then on), with %hi a constant or a guarded parameter, and with a
    division by zero, an address that leaves memory mid-loop or none;
    and the built-in kernels' DAE clones with __lo and __hi at or past
    _GUARD.  Output, block counts, fuel left, fault text, env, memory
    and hook calls agree with the walker at full and at random fuel."""
    rng = random.Random(31)
    cases = []
    for lo, hi in [(0, 12), (_GUARD - 6, _GUARD + 6), (1 << 63, (1 << 63) + 12),
                   ((1 << 64) - 3, 9)]:
        k = (lo + 6) % (1 << 64)
        for fault, as_params in itertools.product(FAULTS, (False, True)):
            consts = "" if as_params else f"  %lo = const {lo}\n  %hi = const {hi}"
            prog = parse_program(GUARDED_LOOP.format(
                params="%lo, %hi" if as_params else "", consts=consts, k=k,
                fault=FAULTS[fault]))
            fn = prog.entry_function()
            loop, = re.findall("while f >= .*", _Source(fn, fn.block_map()).text())
            assert loop.count(f" < {_GUARD:#x}") == 1 + as_params
            cases.append((prog, fn, {"lo": lo, "hi": hi} if as_params else {}))
    for kernel in builtin_kernels():
        prog = kernel.program()
        loads = [n.id for n in prog.entry_function().nodes() if isinstance(n, Load)]
        plan = make_phases(prog, critical=loads, slice_params=SliceParams(64, "override"))
        for fn in plan.program.functions:
            if fn.name == plan.original:
                continue
            for lo in (_GUARD - 3, _GUARD, 1 << 63):
                args = {"__first": 0, "__lo": lo, "__hi": lo + 5}
                cases.append((plan.program, fn, {p: args.get(p, 0) for p in fn.params}))
    faults = Counter()
    for prog, fn, params in cases:
        cf = compile_function(fn)
        full = both(prog, DEFAULT_FUEL, fn, params, cf)
        assert full[0] == full[1] and full[0] != "lookup error", (fn.name, params)
        err = full[0][3]
        faults[err.split(" ")[0] if err else None] += 1
        spent = DEFAULT_FUEL - full[0][2]
        for fuel in {rng.randrange(spent + 2) for _ in range(3)}:
            cut = both(prog, fuel, fn, params, cf)
            assert cut[0] == cut[1], (fn.name, params, fuel)
    assert faults[None] and faults["division"] and faults["load"] and faults["store"], faults


# A counted loop from {lo} to {hi}, whose fast trips guard %i.  %ghost
# is assigned only on the exit that %flag takes, %last only after the loop.
HANDOVER_LOOP = """
data @base=0 prng(seed=5, len=4096)
entry @main
func @main(%flag) kind=original {{
entry:
  %zero = const 0
  %lo = const {lo}
  %hi = const {hi}
  br loop
loop:
  %i = phi [entry: %lo], [latch: %i2]
  %acc = phi [entry: %zero], [latch: %acc2]
  %c = binop slt %i, %hi
  brcond %c, body, done
body:
  %m = binop and %i, 255
  %p = binop shl %m, 3
  %v = load %p, 0, w8
  prefetch %p, 64 !origin=0
  %acc2 = binop add %acc, %v
  brcond %flag, never, latch
never:
  %ghost = const 7
  out %ghost
  ret
latch:
  %i2 = binop add %i, 1
  br loop
done:
  %last = binop add %acc, %i
  out %last
  ret
}}
"""


def test_handovers_agree_with_the_walker():
    """A trip that its fast copy does not take hands the call over to
    the per-block function, which the first handover builds and a call
    with none leaves unbuilt.  A counter that
    crosses _GUARD after 5 fast trips hands over with those trips'
    counts and fuel flushed: the per-block function starts at the loop
    arm and sees them in block_counts and fuel.  A counter past _GUARD
    hands over on the first trip, so every register of the loop is first
    assigned after the handover; %last always is, and %ghost, which
    neither part assigns, stays out of env.  Output, block counts, fuel
    left, env, memory and the fuel that each load and prefetch hook
    receives agree with the walker at full fuel and at every fuel that
    cuts the last trips, where the handover comes from the fuel test."""
    for lo, trips, fast in [(_GUARD - 5, 10, 5), (1 << 40, 6, 0), (0, 8, None)]:
        prog = parse_program(HANDOVER_LOOP.format(lo=lo, hi=lo + trips))
        fn = prog.entry_function()
        cost = {blk.label: len(blk.phis) + len(blk.body) + 1 for blk in fn.blocks}
        trip = cost["loop"] + cost["body"] + cost["latch"]
        for flag in (0, 1):
            params = {"flag": flag}
            lazy = compile_function(fn)
            assert lazy.per_block is None
            built = both(prog, DEFAULT_FUEL, fn, params, lazy)
            cf, handed = compile_function(fn), []

            def per_block(b, regs, env, mem, out, counts, box, *rest,
                          real=_build(fn, None)):
                handed.append((b, dict(counts), box[0]))
                real(b, regs, env, mem, out, counts, box, *rest)

            cf.per_block = per_block
            full = both(prog, DEFAULT_FUEL, fn, params, cf)
            assert full[0] == full[1] == built[1], (lo, flag)
            assert (lazy.per_block is not None) == bool(handed)
            out, counts, left, err, _, env, seen = full[1]
            assert err is None and ("ghost" in env) == bool(flag)
            if flag:
                assert out == [7] and "last" not in env
                continue
            assert "last" in env and len(seen) == 2 * trips
            if fast is None:
                assert not handed
            else:
                ran = dict.fromkeys(["loop", "body", "latch"] if fast else [], fast)
                assert handed == [(1, {"entry": 1, **ran},
                                   DEFAULT_FUEL - cost["entry"] - fast * trip)]
            spent = DEFAULT_FUEL - left
            handed.clear()
            for fuel in range(spent - 2 * trip, spent + 2):
                cut = both(prog, fuel, fn, params, cf)
                assert cut[0] == cut[1], (lo, fuel)
            assert handed


# Registers assigned more than once: a large constant or load over a
# small and, a phi move of a large value over a small constant, a parameter that the loop redefines, and a register
# that two paths define with constants of different lengths.
REDEFINED = ["""
data @base=0 prng(seed=1, len=8)
func @main() kind=original {
entry:
  %r = const 5
  %big = const -1
  %u = binop and %big, 3
  %u = const -3
  %cu = binop slt %u, 3
  %w = binop and %big, 3
  %w = load %w, -3, w8
  %cw = binop slt %w, 3
  out %cu
  out %cw
  br next
next:
  %r = phi [entry: %big]
  %s = binop add %r, 1
  %c = binop slt %r, 3
  out %s
  out %c
  prefetch %r, 8 !origin=0
  ret
}
""", """
func @main(%p) kind=original {
entry:
  %z = const 0
  br loop
loop:
  %i = phi [entry: %z], [loop: %i2]
  %c = binop slt %p, 10
  %s = binop add %p, 1
  out %c
  out %s
  %p = const 20
  %i2 = binop add %i, 1
  %d = binop slt %i2, 3
  brcond %d, loop, done
done:
  ret
}
""", """
func @main(%p) kind=original {
entry:
  brcond %p, small, large
small:
  %n = const 7
  br join
large:
  %n = const -2
  br join
join:
  %c = binop slt %n, 3
  %s = binop add %n, 5
  %v = load %n, 16, w1
  out %c
  out %s
  ret
}
"""]


def test_bounds_end_where_a_register_is_redefined():
    """No bound outlives the definition or phi move that set it, and a
    parameter's value on entry is not bounded by its definitions: each
    program of REDEFINED agrees with the walker."""
    for text in REDEFINED:
        fn = parse_program(text).entry_function()
        for p in (0, 1, (1 << 63) + 5, (1 << 64) - 1):
            params = {q: p for q in fn.params}
            walked, ran = both(parse_program(text), DEFAULT_FUEL, fn, params)
            assert walked == ran and walked != "lookup error", (text, p)


# -- the timing model ----------------------------------------------------------


def model_run(machine, f, sets, fuel, events, left, seen) -> Fraction:
    """One run's cycles under the cost model, replayed from its hook
    events (kind, addr, fuel left) on the L1 sets, which it updates.
    Time is in Fraction cycles, the fills in flight are a list of [line,
    done] in issue order, and each set is a list of lines, least recent
    first.  seen counts the joins, the waits for a miss register, the
    prefetches to a line still in flight, the reloads after an install
    (loads to the line of the run's last load that install a completed
    fill first) and the same-line loads across a prefetch (loads to the
    last load's line after a prefetch, with no install since and no
    prefetch hit in that line's set)."""
    l1 = machine.l1
    stall = Fraction(0)
    flight = []
    last = None  # the line of the run's last load
    kept = crossed = False  # last's set untouched, and a prefetch ran, since

    def put(line):
        s = sets.setdefault(line % l1.n_sets, [])
        if line in s:
            s.remove(line)
        elif len(s) == l1.ways:
            del s[0]
        s.append(line)

    for kind, addr, f_left in events:
        line, now = addr // l1.line_bytes, fuel - f_left + stall
        seen["prefetch in flight"] += kind == "prefetch" and any(
            x == line and done > now for x, done in flight)
        installed = False
        while flight and flight[0][1] <= now:
            put(flight.pop(0)[0])
            installed = True
        kept = kept and not installed
        if kind == "load":
            seen["reload after install"] += line == last and installed
            seen["same line across a prefetch"] += (line == last and kept
                                                    and crossed)
            last, kept, crossed = line, True, False
        else:
            crossed = True
        waiting = [x for x in flight if x[0] == line]
        if line in sets.get(line % l1.n_sets, []):
            put(line)
            stall += l1.hit_cycles if kind == "load" else 0
            kept = kept and (kind == "load"
                             or last % l1.n_sets != line % l1.n_sets)
        elif kind == "load" and waiting:
            seen["join"] += 1
            flight.remove(waiting[0])
            stall += max(0, waiting[0][1] - now) + l1.hit_cycles
            put(line)
        elif kind == "load":
            stall += math.ceil(machine.mem_latency_ns * f)
            put(line)
        elif not waiting:
            if len(flight) == machine.mshr_count:
                old, done = flight.pop(0)
                seen["wait"] += done > now
                stall += max(0, done - now)
                now = max(now, done)
                put(old)
                kept = False
            flight.append([line, now + machine.mem_latency_ns * f])
    now = fuel - left + stall
    for line, done in flight:
        now = max(now, done)
        put(line)
    return now


def record_runs(monkeypatch) -> list:
    """Patch the run clock so that each run it times appends (fuel at the
    start, whether it prefetches, its hook events, fuel left, the loads
    it ran) to the returned list."""
    runs = []
    make = machsim._run_clock

    def recording(machine, cache, rates, fuel, prefetches, tally=None):
        on_load, on_prefetch, drain = make(machine, cache, rates, fuel,
                                           prefetches, tally)
        events = []

        def load(lid, addr, left):
            events.append(("load", addr, left))
            return on_load(lid, addr, left)

        def prefetch(lid, addr, left):
            events.append(("prefetch", addr, left))
            on_prefetch(lid, addr, left)

        def end(left, loads):
            runs.append((fuel, prefetches, events, left, loads))
            return drain(left, loads)
        return load, prefetch, end

    monkeypatch.setattr(machsim, "_run_clock", recording)
    return runs


def replay(clock, machine, runs, seen) -> list[Fraction]:
    """Each run's cycles, replaying runs' (frequency, fuel at the start,
    whether it prefetches, events, fuel left, loads run) in order on one
    L1 through clock, a run clock factory, and through model_run, which
    must agree on them and on the L1 after each run.  Each run's loads
    must be its load events.  seen also counts the machines with
    prefetches whose fills take a fractional cycle count, and those with
    a 1-way L1."""
    cache, sets, cycles = LruCache(machine.l1), {}, []
    for f, fuel, prefetches, events, left, loads in runs:
        assert loads == sum(kind == "load" for kind, _, _ in events)
        rates = _Rates.at(machine, f)
        on_load, on_prefetch, drain = clock(machine, cache, rates, fuel,
                                            prefetches)
        for kind, addr, f_left in events:
            (on_load if kind == "load" else on_prefetch)(0, addr, f_left)
        cycles.append(model_run(machine, f, sets, fuel, events, left, seen))
        assert Fraction(drain(left, loads), rates.q) == cycles[-1]
        assert cache.snapshot() == {i: tuple(s) for i, s in sets.items() if s}
    if any(kind == "prefetch" for run in runs for kind, _, _ in run[3]):
        fill = machine.mem_latency_ns * machine.f_min_ghz
        seen["fractional"] += fill.denominator > 1
        seen["one way"] += machine.l1.ways == 1
    return cycles


def test_timing_model_agrees_with_the_clock(monkeypatch):
    """The built-in kernels on the default machine, and 24 random loop
    kernels and 8 random chase kernels on random machines, each in its
    baseline (profiled) and its static and dynamic DAE schedules: every
    run's cycles equal model_run's replay of the events its hooks
    received (a run of a function with no load or prefetch, which gets
    no clock, its nodes retired), and the run clock's replay agrees with
    model_run on the cycles and the L1 after each run.  The static DAE
    events replay again on an L1 of one 128-byte line, where each fill
    evicts the line that loads read.  The machines include fills of a
    fractional cycle count (q > 1) and 1-way L1s, each with prefetches,
    loads that join a fill, prefetches that wait for a register,
    prefetches to a line still in flight, which return before they
    install a completed fill, loads to the last load's line after a fill
    installed, which the clock's same-line shortcut must not take, and
    loads to that line after a prefetch that touched no line of its set,
    which it takes."""
    clock = machsim._run_clock
    recorded = record_runs(monkeypatch)
    rng = random.Random(5)
    seen: Counter = Counter()
    cases = [(kernel, MachineConfig(), {}) for kernel in builtin_kernels()]
    cases += [(BenchmarkKernel(name=f"rand{i}",
                               text=print_program(random_loop_kernel(rng)),
                               oracle=lambda seed: None),
               random_machine(rng), {"slice_override": rng.choice([None, 8, 64])})
              for i in range(24)]
    chase = random.Random(6)
    cases += [(BenchmarkKernel(name=f"chase{i}",
                               text=print_program(random_chase_kernel(chase)),
                               oracle=lambda seed: None),
               random_machine(chase), {"slice_override": chase.choice([None, 8])})
              for i in range(8)]
    for kernel, m, args in cases:
        prep = prepare(kernel, m, **args)
        fuel = dae_fuel(prep.plan, prep.baseline.total.instr_count)
        quiet = {fn.name for fn in prep.plan.program.functions
                 if not any(isinstance(n, (Load, Prefetch)) for n in fn.nodes())}
        for mode in ("baseline", "static_dae", "dynamic_dae"):
            report = prep.baseline if mode == "baseline" else simulate(
                prep.plan.program, build_schedule(mode, prep.plan, m), m, fuel)
            recs = [rec for rec in report.runs if rec.kind == "run"]
            # A run with no load or prefetch gets no clock: a cycle a node.
            assert all(rec.cycles == rec.instr_count for rec in recs
                       if rec.function in quiet)
            recs = [rec for rec in recs if rec.function not in quiet]
            runs = [(rec.frequency, *recorded.pop(0)) for rec in recs]
            assert replay(clock, m, runs, seen) == [rec.cycles for rec in recs]
            if mode == "static_dae":
                tiny = dataclasses.replace(random_machine(rng),
                                           l1=L1Config(128, 128, 1, 2))
                replay(clock, tiny, runs, seen)
        assert not recorded
    assert all(seen[k] for k in ("fractional", "one way", "join", "wait",
                                 "reload after install", "prefetch in flight",
                                 "same line across a prefetch")), seen
