"""Parser, printer, validator and interpreter behavior."""

from __future__ import annotations

import copy
import hashlib
import itertools
import random
import re
import time
from collections import OrderedDict

import pytest

from conftest import (
    SUM_KERNEL,
    assert_valid,
    brcond_tree,
    break_program,
    fan_in,
    load_blocks,
    mutate_dir,
    random_cfg_program,
    random_loop_kernel,
    sum_kernel,
)
from daef.daegen import SliceParams, make_phases
from daef.ir import (
    Block,
    Br,
    BrCond,
    Const,
    DirRuntimeError,
    DirSyntaxError,
    BinOp,
    Function,
    Load,
    Ret,
    init_memory,
    interpret,
    parse_program,
    print_program,
    successors,
    validate_program,
    with_seed,
)
from daef.ir import interp
from daef.ir.interp import (
    BINOP_FNS,
    DEFAULT_FUEL,
    compile_function,
    default_mem_size,
    splitmix_fill,
    to_signed,
)
from daef.ir.ranges import LOOSE_OPS, Facts, Ranges
from daef.ir.types import predecessors
from daef.ir.validate import MAX_DATA_END
from daef.kernels import builtin_kernels

M64 = (1 << 64) - 1


def _wrap(x: int) -> int:
    return (x + (1 << 63)) % (1 << 64) - (1 << 63)


def ref_binop(op: str, a: int, b: int) -> int:
    """Independent signed 64-bit reference for every binop."""
    ua, ub = a & M64, b & M64
    if op == "add":
        return _wrap(a + b)
    if op == "sub":
        return _wrap(a - b)
    if op == "mul":
        return _wrap(a * b)
    if op == "div":
        q = abs(a) // abs(b)
        return _wrap(-q if (a < 0) != (b < 0) else q)
    if op == "rem":
        q = abs(a) // abs(b)
        q = -q if (a < 0) != (b < 0) else q
        return _wrap(a - q * b)
    if op == "and":
        return _wrap(ua & ub)
    if op == "or":
        return _wrap(ua | ub)
    if op == "xor":
        return _wrap(ua ^ ub)
    if op == "shl":
        return _wrap(ua << (ub % 64))
    if op == "shr":
        return _wrap(ua >> (ub % 64))
    if op == "slt":
        return int(a < b)
    if op == "sle":
        return int(a <= b)
    if op == "seq":
        return int(a == b)
    raise AssertionError(op)


def run_expr(body: str) -> list[int]:
    prog = parse_program(
        "func @main() kind=original {\nentry:\n" + body + "\n  ret\n}\n")
    assert_valid(prog)
    return interpret(prog).output


# -- round trips -------------------------------------------------------------


def test_round_trip_sum_kernel():
    p = sum_kernel()
    text = print_program(p)
    assert print_program(parse_program(text)) == text


def test_round_trip_random_programs():
    for seed in range(30):
        rng = random.Random(seed)
        p = random_cfg_program(rng) if seed % 2 else random_loop_kernel(rng)
        assert_valid(p)
        text = print_program(p)
        again = parse_program(text)
        assert print_program(again) == text
        assert_valid(again)


def test_round_trip_preserves_ids_and_origins():
    src = """
func @a() kind=original {
entry:
  %p = const 4096 !id=40
  %v = load %p, 0, w8 !id=41
  ret !id=42
}
func @b() kind=access {
entry:
  %p = const 4096 !id=7
  prefetch %p, 0 !origin=41 !id=9
  ret !id=11
}
"""
    p = parse_program(src)
    text = print_program(p)
    assert "!origin=41" in text
    assert print_program(parse_program(text)) == text


def test_auto_ids_skip_claimed():
    src = """
func @a() kind=original {
entry:
  %x = const 1 !id=2
  %y = const 2
  %z = const 3
  ret
}
"""
    p = parse_program(src)
    ids = [n.id for n in p.functions[0].nodes()]
    # Explicit 2 is kept; the rest fill 0, 1, 3, 4 in layout order.
    assert ids == [2, 0, 1, 3]


# -- parse errors ------------------------------------------------------------


@pytest.mark.parametrize("src, message", [
    ("func @f( kind=original { entry: ret }", "expected"),
    ("func @f() kind=original {\nentry:\n  %x = const 1\n}", "terminator"),
    ("func @f() kind=original {\ne:\n  ret\ne:\n  ret\n}", "duplicate label"),
    ("func @f() kind=weird {\ne:\n  ret\n}", "unknown function kind"),
    ("func @f() kind=original {\ne:\n  %x = binop bogus 1, 2\n  ret\n}", "unknown binop"),
    # A comma separates operands only, not a binop's name from them.
    ("func @f() kind=original {\ne:\n  %x = binop add, 1, 2\n  ret\n}",
     "line 3, col 17: expected integer, found ','"),
    ("func @f() kind=original {\ne:\n  %p = const 0\n  %x = load %p, 0, w3\n  ret\n}", "width"),
    ("func @f() kind=original {\ne:\n  %x = const 1\n  %y = phi [e: %x]\n  ret\n}", "phi after"),
    ("data @base=4096 bytes=[300]\nfunc @f() kind=original {\ne:\n  ret\n}", "byte value"),
    ("func @f() kind=original {\ne:\n  %x = const 1 !origin=3\n  ret\n}", "origin"),
    ("func @f() kind=original {\ne:\n  %x = const 1 !flavor=3\n  ret\n}", "metadata"),
    ("$", "unexpected character"),
])
def test_parse_errors(src, message):
    with pytest.raises(DirSyntaxError) as err:
        parse_program(src)
    assert message in str(err.value)


def test_parse_results_of_token_mutants_are_pinned():
    """The printed program, or the message with its line and column, for
    1,000 seeded token mutants of the built-in kernels and SUM_KERNEL: the
    parser accepts and rejects the same texts in the same words."""
    texts = [k.text for k in builtin_kernels()] + [SUM_KERNEL]
    rng = random.Random(2029)
    h = hashlib.sha256()
    accepted = 0
    for _ in range(1000):
        text = mutate_dir(rng, rng.choice(texts), rng.randint(1, 3))
        try:
            result = print_program(parse_program(text))
            accepted += 1
        except DirSyntaxError as e:
            result = str(e)
        h.update((result + "\n\n").encode())
    assert accepted == 20
    assert h.hexdigest() == \
        "d459316b1aba9de2b608b4f7204f005f25db4c613ddf8aed96501639bf4b0a94"


def test_parse_error_carries_position():
    try:
        parse_program("func @f() kind=original {\nentry:\n  %x = binop nope 1, 2\n  ret\n}")
    except DirSyntaxError as e:
        assert e.line == 3
    else:
        raise AssertionError("expected a syntax error")


# -- arithmetic semantics ----------------------------------------------------

EDGE_VALUES = [0, 1, -1, 2, -2, 7, -7, 63, 64, 65, (1 << 63) - 1, -(1 << 63),
               (1 << 62), 12345, -98765]


def test_binop_semantics_match_reference():
    ops = ["add", "sub", "mul", "div", "rem", "and", "or", "xor",
           "shl", "shr", "slt", "sle", "seq"]
    rng = random.Random(11)
    cases = []
    for op in ops:
        for a in EDGE_VALUES:
            for b in (EDGE_VALUES if op in ("div", "rem") else
                      rng.sample(EDGE_VALUES, 6)):
                if op in ("div", "rem") and b == 0:
                    continue
                cases.append((op, a, b))
    body = []
    expected = []
    for k, (op, a, b) in enumerate(cases):
        body.append(f"  %a{k} = const {a}")
        body.append(f"  %b{k} = const {b}")
        body.append(f"  %r{k} = binop {op} %a{k}, %b{k}")
        body.append(f"  out %r{k}")
        expected.append(ref_binop(op, a, b))
    assert run_expr("\n".join(body)) == expected


def test_division_truncates_toward_zero():
    assert run_expr("""
  %a = const -7
  %b = const 2
  %q = binop div %a, %b
  %r = binop rem %a, %b
  out %q
  out %r
""") == [-3, -1]


ENGINE_OPERANDS = [0, 1, 63, 64, (1 << 63) - 1, 1 << 63, M64]


def test_every_op_agrees_with_binop_fns():
    """Each operator through interpret() gives BINOP_FNS's value, with the
    right operand in a register and as an immediate."""
    cases = [(op, a, b) for op in BINOP_FNS for a in ENGINE_OPERANDS
             for b in ENGINE_OPERANDS if not (op in ("div", "rem") and b == 0)]
    body = []
    for k, (op, a, b) in enumerate(cases):
        body.append(f"  %a{k} = const {a}")
        body.append(f"  %b{k} = const {b}")
        body.append(f"  %r{k} = binop {op} %a{k}, %b{k}")
        body.append(f"  %i{k} = binop {op} %a{k}, {b}")
        body.append(f"  out %r{k}")
        body.append(f"  out %i{k}")
    expected = [to_signed(BINOP_FNS[op](a, b)) for op, a, b in cases
                for _ in range(2)]
    assert run_expr("\n".join(body)) == expected


def test_division_by_zero_faults():
    for op in ("div", "rem"):
        with pytest.raises(DirRuntimeError, match=r"^division by zero \(at !id=2\)$"):
            run_expr(f"""
  %a = const 5
  %z = const 0
  %q = binop {op} %a, %z
  out %q
""")


def test_shift_counts_wrap_at_64():
    assert run_expr("""
  %one = const 1
  %n = const 65
  %x = binop shl %one, %n
  %neg = const -1
  %y = binop shr %neg, %n
  out %x
  out %y
""") == [2, 0x7FFFFFFFFFFFFFFF]  # shr is logical


# -- memory ------------------------------------------------------------------


def test_load_widths_little_endian_zero_extend():
    src = """
data @base=4096 bytes=[1, 2, 3, 4, 5, 6, 7, 255]
func @main() kind=original {
entry:
  %p = const 4096
  %b = load %p, 0, w1
  %h = load %p, 0, w2
  %w = load %p, 0, w4
  %d = load %p, 0, w8
  %top = load %p, 7, w1
  out %b
  out %h
  out %w
  out %d
  out %top
  ret
}
"""
    p = parse_program(src)
    assert_valid(p)
    assert interpret(p).output == [
        0x01, 0x0201, 0x04030201, _wrap(0x07060504030201 | (0xFF << 56)), 0xFF]


def test_store_masks_to_width():
    out = run_expr("""
  %p = const 1024
  %v = const -1
  store %p, 0, %v, w2
  %r = load %p, 0, w8
  out %r
""")
    assert out == [0xFFFF]


def test_uninitialized_memory_reads_zero():
    assert run_expr("""
  %p = const 100
  %r = load %p, 0, w8
  out %r
""") == [0]


def test_out_of_bounds_access_faults():
    for snippet, message in (
        ("  %p = const -8\n  %r = load %p, 0, w8\n  out %r",
         r"^load address -8 out of \[0, 4096\) \(at !id=1\)$"),
        ("  %p = const 1000000000\n  %r = load %p, 0, w8\n  out %r",
         r"^load address 1000000000 out of \[0, 4096\) \(at !id=1\)$"),
        ("  %p = const 4090\n  %r = load %p, 8, w8\n  out %r",  # straddles end
         r"^load address 4098 out of \[0, 4096\) \(at !id=1\)$"),
        ("  %p = const -8\n  %v = const 1\n  store %p, 0, %v, w8",
         r"^store address -8 out of \[0, 4096\) \(at !id=2\)$"),
    ):
        with pytest.raises(DirRuntimeError, match=message):
            run_expr(snippet)


def test_prefetch_never_faults():
    # Prefetch has no architectural effect, even wildly out of range.
    src = """
func @main() kind=original {
entry:
  %p = const -999999
  prefetch %p, 0 !origin=0
  ret
}
"""
    assert interpret(parse_program(src)).output == []


def splitmix64_stream(seed: int, n64: int) -> bytes:
    """The splitmix64 stream, one word at a time."""
    out = bytearray()
    x = seed & M64
    for _ in range(n64):
        x = (x + 0x9E3779B97F4A7C15) & M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out += (z ^ (z >> 31)).to_bytes(8, "little")
    return bytes(out)


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 4096 * 8 - 1, 4096 * 8,
                                    4096 * 8 + 1, 1 << 20])
@pytest.mark.parametrize("seed", [0, M64, (1 << 64) + 5])
def test_splitmix_fill_matches_the_word_stream(seed, length):
    expected = splitmix64_stream(seed, (length + 7) // 8)[:length]
    assert splitmix_fill(seed, length) == expected


def test_prng_segment_matches_splitmix64():
    p = parse_program("data @base=64 prng(seed=9, len=20)\n"
                      "func @main() kind=original {\ne:\n  ret\n}")
    mem = init_memory(p, 4096)
    assert bytes(mem[64:84]) == splitmix64_stream(9, 3)[:20]
    assert mem[84] == 0


def test_with_seed_identity_and_mixing():
    p = sum_kernel()
    assert with_seed(p, 0) is p
    q = with_seed(p, 5)
    assert q.data[0].seed == 7 ^ 5
    assert p.data[0].seed == 7  # original untouched
    r1, r2 = interpret(q), interpret(with_seed(p, 5))
    assert r1.output == r2.output
    assert r1.output != interpret(p).output


# -- execution shape ---------------------------------------------------------


def test_entry_params_default_to_zero():
    src = """
func @main(%a, %b) kind=original {
entry:
  %s = binop add %a, %b
  out %s
  ret
}
"""
    assert interpret(parse_program(src)).output == [0]
    # A compiled call reads its parameters from env and writes back the
    # registers it assigns, each function under its own names.
    template = """
func @f(%n) kind=execute {{
entry:
  %{a} = binop add %n, 1
  %{b} = binop mul %{a}, 3
  ret
}}
"""
    for a, b in (("x", "y"), ("u", "v")):
        env = {"n": 4}
        compile_function(parse_program(template.format(a=a, b=b)).entry_function()
                         ).run(env, bytearray(8), [], {}, [100], 8)
        assert env == {"n": 4, a: 5, b: 15}


def test_ret_value_and_empty_output():
    src = "func @main() kind=original {\nentry:\n  ret 41\n}"
    t = interpret(parse_program(src))
    assert t.output == []


def test_fuel_exhaustion_raises():
    src = """
func @main() kind=original {
entry:
  br spin
spin:
  br spin
}
"""
    with pytest.raises(DirRuntimeError, match=r"^fuel exhausted in block 'spin'$"):
        interpret(parse_program(src), fuel=1000)


def test_fuel_exhaustion_is_pinned():
    """Budgets that run out in every block of 20 random loop kernels and
    20 random CFGs: the error, the output, the block counts and the fuel
    left hash to a value recorded before blocks were inlined into their
    one predecessor.  Each block keeps its own fuel check."""
    h = hashlib.sha256()
    for seed in range(20):
        for make in (random_loop_kernel, random_cfg_program):
            prog = make(random.Random(seed))
            fn = prog.entry_function()
            size = default_mem_size(prog)
            cf = compile_function(fn)
            full = [DEFAULT_FUEL]
            cf.run({}, init_memory(prog, size), [], {}, full, size)
            total = DEFAULT_FUEL - full[0]
            for budget in [*range(0, 64, 3), *range(max(0, total - 40), total + 2)]:
                out, counts, fuel = [], {}, [budget]
                try:
                    cf.run({}, init_memory(prog, size), out, counts, fuel, size)
                    err = None
                except DirRuntimeError as e:
                    err = str(e)
                h.update(repr((err, out, sorted(counts.items()), fuel[0])).encode())
    assert h.hexdigest() == \
        "68e463a4eeade22f97cd9503d0bab07f0e654e3c7b5273d35e0ae1ed2b8a4bb8"


def test_phi_on_entry_raises():
    src = """
func @main() kind=original {
entry:
  %x = phi [entry: %x]
  ret
}
"""
    with pytest.raises(DirRuntimeError,
                       match=r"^phi executed on function entry in 'entry'$"):
        interpret(parse_program(src))


def test_init_memory_returns_independent_copies(monkeypatch):
    """The second image of the same program is a copy of the first as it
    was built, not as the caller left it, and costs no second fill."""
    fills = []
    fill = interp._splitmix_into

    def counting(mem, base, seed, length):
        fills.append(seed)
        return fill(mem, base, seed, length)

    monkeypatch.setattr(interp, "_splitmix_into", counting)
    monkeypatch.setattr(interp, "_images", OrderedDict())
    p = sum_kernel()
    first = init_memory(p, 4096 * 2)
    pristine = bytes(first)
    first[4096:4104] = b"\xff" * 8
    second = init_memory(p, 4096 * 2)
    assert bytes(second) == pristine and second is not first
    second[0] = 1
    assert init_memory(p, 4096 * 2) == pristine
    assert len(fills) == 1
    init_memory(with_seed(p, 3), 4096 * 2)
    assert len(fills) == 2


def test_retired_counts_sum_kernel():
    t = interpret(sum_kernel())
    r = t.retired_by_static_id
    # 8 iterations: header runs 9 times, body and latch 8, prologue and
    # epilogue once.  Ids follow layout order (nothing explicit).
    assert r[0] == 1 and r[3] == 1          # entry const, br
    assert r[4] == 9 and r[6] == 9 and r[7] == 9  # phi, cmp, brcond
    assert r[10] == 8                        # the load
    assert r[14] == 8                        # latch br
    assert r[15] == 1 and r[16] == 1         # out, ret
    assert sum(r.values()) == 98


def test_interpret_is_deterministic():
    for seed in (3, 12):
        p = random_cfg_program(random.Random(seed))
        a, b = interpret(p), interpret(p)
        assert a.output == b.output
        assert a.memory_digest == b.memory_digest
        assert a.retired_by_static_id == b.retired_by_static_id


# -- code generation ---------------------------------------------------------


def arm_roots(src: str) -> list[str]:
    """The blocks that get a dispatch arm, after every arm is written."""
    fn = parse_program(src).entry_function()
    gen = interp._Source(fn, fn.block_map())
    gen.all_arms()
    return gen.roots


def run_counts(src: str) -> tuple[list[int], dict[str, int]]:
    prog = parse_program(src)
    fn = prog.entry_function()
    out, counts = [], {}
    size = default_mem_size(prog)
    compile_function(fn).run({}, init_memory(prog, size), out, counts,
                             [DEFAULT_FUEL], size)
    return out, counts


def test_only_join_blocks_and_the_entry_get_arms():
    assert arm_roots(SUM_KERNEL) == ["entry", "loop"]  # body, latch, done inline
    out, counts = run_counts(SUM_KERNEL)
    assert out == interpret(sum_kernel()).output
    assert counts == {"entry": 1, "loop": 9, "body": 8, "latch": 8, "done": 1}


def test_brcond_with_equal_targets_is_two_edges():
    src = """
func @main() kind=original {
entry:
  %c = const 1
  brcond %c, join, join
join:
  %x = phi [entry: %c]
  out %x
  ret
}
"""
    assert arm_roots(src) == ["entry", "join"]
    assert run_counts(src) == ([1], {"entry": 1, "join": 1})


def test_self_loop_gets_an_arm():
    src = """
func @main() kind=original {
entry:
  %z = const 0
  br spin
spin:
  %i = phi [entry: %z], [spin: %i2]
  %i2 = binop add %i, 1
  %c = binop slt %i2, 5
  brcond %c, spin, done
done:
  out %i2
  ret
}
"""
    assert arm_roots(src) == ["entry", "spin"]
    assert run_counts(src) == ([5], {"entry": 1, "spin": 5, "done": 1})


def test_entry_with_a_back_edge():
    """The entry's one incoming edge does not inline it into its
    predecessor; it keeps the arm that the call starts in.  The validator
    rejects such a function, but the interpreter runs it."""
    src = """
func @main() kind=original {
entry:
  %a = const 64
  %n = load %a, 0, w8
  %n2 = binop add %n, 1
  store %a, 0, %n2, w8
  br body
body:
  %c = binop slt %n2, 3
  brcond %c, entry, done
done:
  out %n2
  ret
}
"""
    assert arm_roots(src) == ["entry"]
    assert run_counts(src) == ([3], {"entry": 3, "body": 3, "done": 1})


def test_deep_brcond_nesting_is_cut_into_arms():
    """Each inlined true target nests one level; past MAX_NEST the block
    gets an arm, so 100 levels compile and run."""
    src = brcond_tree(100)
    assert arm_roots(src) == ["entry", "t42", "t83"]
    out, counts = run_counts(src)
    assert out == [100] and sum(counts.values()) == 102


# -- where values are wrapped --------------------------------------------------

WRAP = f"& {M64:#x}"


def generated(fn) -> str:
    return interp._Source(fn, fn.block_map()).text()


def unobserved(fn) -> set[str]:
    return Ranges(fn.params, fn.blocks[0].label, fn.block_map()).unobserved


def run_fn(src: str, env: dict | None = None):
    """(output, env after the call, error text, prefetched addresses) of
    the one function in src, on 4096 bytes of zeroed memory."""
    fn = parse_program(src).entry_function()
    out, env, hits = [], dict(env or {}), []
    try:
        compile_function(fn).run(env, bytearray(4096), out, {}, [DEFAULT_FUEL],
                                 4096, on_prefetch=lambda i, a, f: hits.append(a))
    except DirRuntimeError as e:
        return out, env, str(e), hits
    return out, env, None, hits


@pytest.mark.parametrize("op, operand", [("mul", "%x{k}"), ("add", "%c"),
                                         ("shl", "%c")])
def test_long_chains_in_one_block_stay_small(op, operand):
    """300 chained ops, each unwrapped as far as the 256-bit bound lets
    it: squaring doubles a value's length, so without the bound the last
    of 300 would need 2**300 bits.  The chain compiles, runs at once and
    matches BINOP_FNS.  (%c is 64, a shift by 0 that still counts 63
    bits in the bound.)"""
    lines = ["func @main() kind=original {", "entry:", "  %c = const 64",
             f"  %x0 = const {0x9E3779B97F4A7C15}"]
    want = 0x9E3779B97F4A7C15
    for k in range(300):
        b = operand.format(k=k)
        lines.append(f"  %x{k + 1} = binop {op} %x{k}, {b}")
        want = BINOP_FNS[op](want, 64 if b == "%c" else want)
    lines += ["  out %x300", "  ret", "}"]
    src = "\n".join(lines)
    start = time.perf_counter()
    out, env, err, _ = run_fn(src)
    assert time.perf_counter() - start < 0.5
    assert (out, err, env["x300"]) == ([to_signed(want)], None, want)
    wraps = generated(parse_program(src).entry_function()).count(WRAP)
    assert 1 < wraps < 300


OBSERVERS = {
    "slt": ["%r = binop slt %w, %a", "out %r"],
    "sle": ["%r = binop sle %a, %w", "out %r"],
    "seq": ["%r = binop seq %w, %a", "out %r"],
    "shr": ["%r = binop shr %w, %a", "out %r"],
    "div": ["%r = binop div %a, %w", "out %r"],
    "rem": ["%r = binop rem %w, %b", "out %r"],
    "brcond": ["brcond %w, yes, no", "yes:", "%one = const 1", "out %one", "ret",
               "no:"],
    "out": ["out %w"],
    "load": ["%r = load %w, 0, w1", "out %r"],
    "store": ["store %w, 0, %a, w1"],
    "prefetch": ["prefetch %w, 0 !origin=0"],
    "phi": ["br next", "next:", "%q = phi [entry: %w]", "out %q"],
    "env": [],
}


def observed(kind: str, a: int, b: int, w: int):
    """What the observer shows of w, by BINOP_FNS and the access rules:
    (output, error text, prefetched addresses)."""
    s = to_signed(w)
    inside = 0 <= s < 4096
    if kind in ("slt", "seq", "shr"):
        return [to_signed(BINOP_FNS[kind](w, a))], None, []
    if kind == "sle":
        return [BINOP_FNS["sle"](a, w)], None, []
    if kind in ("div", "rem"):
        x, y = (a, w) if kind == "div" else (w, b)
        if y == 0:
            return [], "division by zero (at !id=4)", []
        return [to_signed(BINOP_FNS[kind](x, y))], None, []
    if kind == "brcond":
        return [1] if w else [], None, []
    if kind in ("out", "phi"):
        return [s], None, []
    if kind in ("load", "store"):
        err = None if inside else f"{kind} address {s} out of [0, 4096) (at !id=4)"
        return [0] if kind == "load" and inside else [], err, []
    if kind == "prefetch":
        return [], None, [w] if inside else []
    return [], None, []


@pytest.mark.parametrize("kind", OBSERVERS)
def test_unwrapped_values_reach_each_observer_wrapped(kind):
    """%u = a - b, negative whenever a < b, stays unwrapped: its one read
    is the add that makes %w.  Whatever observes %w (a comparison, shr,
    div, rem, a branch, an out, an address, a phi move or the write-back
    to env) sees what BINOP_FNS gives, and env holds canonical values."""
    for a, b, k in itertools.product([0, 7, M64], [1, 1 << 63], [0, 1, 8, 4000, (1 << 63) + 5]):
        src = "\n".join(["func @main() kind=original {", "entry:",
                         f"%a = const {a}", f"%b = const {b}",
                         "%u = binop sub %a, %b", f"%w = binop add %u, {k}",
                         *OBSERVERS[kind], "ret", "}"])
        fn = parse_program(src).entry_function()
        assert "u" in unobserved(fn)
        u = BINOP_FNS["sub"](a, b)
        w = BINOP_FNS["add"](u, k)
        out, env, err, hits = run_fn(src)
        assert (out, err, hits) == observed(kind, a, b, w), (a, b, k)
        if err is None:
            assert env["u"] == u and env["w"] == w


def test_reassigned_or_early_read_registers_are_wrapped():
    """Only %y may stay unwrapped: %x is read before its one definition
    in its block (on later trips, the last trip's %x), and %t is defined
    twice.  Were %x unwrapped, each trip would double its length; 300
    trips of %x = (%x + 1) ** 2 agree with BINOP_FNS."""
    src = """
func @main(%x) kind=original {
entry:
  %n = const 0
  br loop
loop:
  %i = phi [entry: %n], [loop: %i2]
  %y = binop add %x, 1
  %x = binop mul %y, %y
  %t = binop add %i, 5
  %t = binop mul %i, 3
  %i2 = binop add %i, 1
  %c = binop slt %i2, 300
  brcond %c, loop, done
done:
  ret
}
"""
    fn = parse_program(src).entry_function()
    assert unobserved(fn) == {"y"}
    x = 3
    for _ in range(300):
        x = BINOP_FNS["mul"](x + 1, x + 1)
    out, env, err, _ = run_fn(src, {"x": 3})
    assert (out, err, env["x"], env["t"]) == ([], None, x, 299 * 3)

def operand(rng: random.Random, loose: bool):
    """A bound and a value within it: below 2**n, or for an unwrapped
    register of at most n bits, possibly negative.  Edges half the time."""
    n = rng.randint(1, 130) if loose else rng.randint(0, 64)
    v = rng.choice([0, (1 << n) - 1, rng.randrange(1 << n)])
    return n, (rng.choice([v, -v]) if loose else v)


def test_bounds_that_facts_claim_hold():
    """Each operator on operands drawn within their bounds (canonical
    registers, unwrapped ones for LOOSE_OPS, and immediates), the
    result's register unobserved or not: the expression Facts.binop
    writes gives what BINOP_FNS gives (mod 2**64 where it leaves the
    result unwrapped), and the bound it records for the result holds."""
    rng = random.Random(3)
    fn = parse_program("func @main() kind=original {\nentry:\n  ret\n}").entry_function()
    ranges = Ranges(fn.params, "entry", fn.block_map())
    namespace = {"_div": BINOP_FNS["div"], "_rem": BINOP_FNS["rem"]}
    for _ in range(20000):
        op = rng.choice(sorted(BINOP_FNS))
        ranges.unobserved = {"d"} if rng.random() < 0.5 else set()
        facts, values, names = Facts(ranges, {}), [], []
        for name in ("a", "b"):
            if rng.random() < 0.2:
                names.append(rng.choice([0, 1, 3, 63, 64, 4095, M64, rng.randrange(1 << 64)]))
                values.append(names[-1])
                continue
            loose = op in LOOSE_OPS and rng.random() < 0.3
            n, v = operand(rng, loose)
            (facts.loose if loose else facts.known)[name] = n
            names.append(name)
            values.append(v)
        if op in ("div", "rem") and values[1] == 0:
            continue
        want = BINOP_FNS[op](*(v & M64 for v in values))
        expr = facts.binop(BinOp(0, "d", op, *names), "a", "b")
        got = eval(expr, namespace, dict(zip(("a", "b"), values)))
        case = (op, names, values, facts.known, facts.loose, expr)
        if "d" in facts.loose:
            assert got & M64 == want and abs(got).bit_length() <= facts.loose["d"], case
        else:
            assert got == want and got < 1 << facts.bits("d"), case


# Base 4097 with offset -1 is the end of memory, through the signed form.
ADDRESS_BASES = [0, 4088, 4097, 1 << 63, M64 - 7]
ADDRESS_OFFSETS = [0, 8, 16, (1 << 62) - 1, 1 << 62, (1 << 63) - 1, -1, -(1 << 63)]


@pytest.mark.parametrize("kind", ["load", "store", "prefetch"])
def test_address_checks_agree_with_signed_addresses(kind):
    """A base register plus an offset decides in or out of memory, and
    names a faulting address, as the signed sum does: base 2**64 - 8
    (that is, -8) plus 8 is address 0, and plus 2**62 - 1 is far past
    memory."""
    access = {"load": "%r = load %p, {off}, w8", "store": "store %p, {off}, %p, w8",
              "prefetch": "prefetch %p, {off} !origin=0"}[kind]
    for base, off in itertools.product(ADDRESS_BASES, ADDRESS_OFFSETS):
        src = "\n".join(["func @main() kind=original {", "entry:",
                         f"%p = const {base}", access.format(off=off), "ret", "}"])
        addr = to_signed(base) + off
        width = 1 if kind == "prefetch" else 8
        inside = 0 <= addr and addr + width <= 4096
        _, _, err, hits = run_fn(src)
        if kind == "prefetch":
            assert (err, hits) == (None, [addr] if inside else []), (base, off)
        else:
            want = None if inside else f"{kind} address {addr} out of [0, 4096) (at !id=1)"
            assert err == want, (base, off)


def trip_lines(fn) -> list[str]:
    """The lines that a full-fuel trip of fn's one loop arm runs: in the
    arm's fast copy, the path from its while to the continue that loops
    back.  Lines nested deeper than that path (fault raises, hook calls
    and the other paths' leaves) are left out."""
    lines = generated(fn).splitlines()
    top = next(k for k, line in enumerate(lines)
               if line.lstrip().startswith("while f >= "))
    back = next(k for k in range(top, len(lines)) if lines[k].strip() == "continue")
    path, depth = [], None
    for line in reversed(lines[top + 1:back + 1]):
        indent = len(line) - len(line.lstrip())
        if depth is None or indent <= depth:
            path.append(line.strip())
            depth = indent
    return path[::-1]


def plan_functions() -> dict:
    """Every built-in kernel's plan functions, keyed (kernel, name)."""
    functions = {}
    for k in builtin_kernels():
        prog = k.program()
        loads = [n.id for n in prog.entry_function().nodes() if isinstance(n, Load)]
        plan = make_phases(prog, critical=loads,
                           slice_params=SliceParams(64, "override"))
        for fn in plan.program.functions:
            functions[k.name, fn.name] = fn
    return functions


def fast_copy(fn) -> list[str]:
    """The lines of fn's one fast copy: its while and what it runs."""
    lines = generated(fn).splitlines()
    top = next(k for k, line in enumerate(lines)
               if line.lstrip().startswith("while f >= "))
    other = lines[top][:len(lines[top]) - len(lines[top].lstrip())] + "else:"
    return lines[top:lines.index(other, top)]


def test_generated_loops_wrap_only_what_is_observed():
    """A fast trip of compute_poly's execute clone wraps 1 value, the
    accumulator that its phi carries (it wrapped 8, and 2 before the
    trip guard), its fast copy flips no sign bit, and no generated
    function selects its phi values on a predecessor index."""
    functions = plan_functions()
    fn = functions["compute_poly", "main__exec"]
    src = interp._Source(fn, fn.block_map())
    src.text()
    trip = trip_lines(fn)
    assert [line.split(" = ")[0] for line in trip if WRAP in line] == [src.regs["acc2"]]
    assert not any(f"^ {1 << 63:#x}" in line for line in fast_copy(fn))
    cfgs = [random_cfg_program(random.Random(s)).entry_function() for s in range(20)]
    for fn in [*functions.values(), *cfgs]:
        assert "p ==" not in generated(fn), fn.name


def test_trip_guards_hold_induction_variables_only():
    """Every built-in plan function's fast trips guard its counter %i
    and, in the clones, the slice bound %__hi that %i is compared with;
    never an accumulator, which passes _GUARD within a few trips and
    would send every trip after that to the per-block copy."""
    for (kernel, name), fn in plan_functions().items():
        src = interp._Source(fn, fn.block_map())
        src.text()
        local = {r: reg for reg, r in src.regs.items()}
        guarded = re.findall(rf"(r\d+) < {interp._GUARD:#x}\b", fast_copy(fn)[0])
        want = ["i"] if name == "main" else ["i", "__hi"]
        assert [local[r] for r in guarded] == want, (kernel, name)


def test_a_full_fuel_trip_charges_and_counts_once():
    """A trip of compute_poly's execute loop (header, body and latch)
    with fuel for its longest path subtracts its fuel once, adds 1 to one
    counter and tests no fuel; every built-in plan function's loop gets
    such a trip."""
    functions = plan_functions()
    trip = trip_lines(functions["compute_poly", "main__exec"])
    assert [line for line in trip if line.startswith("f -= ")] == ["f -= 14"]
    assert len([line for line in trip if re.fullmatch(r"[cp]\d+ \+= 1", line)]) == 1
    assert not any("if f < 0" in line for line in trip)
    for key, fn in functions.items():
        assert generated(fn).count("while f >= ") == 1, key


def test_long_loop_bodies_get_no_fast_copy():
    """A loop arm that enters more than MAX_FAST blocks keeps only its
    per-block code."""
    fits = parse_program(load_blocks(interp.MAX_FAST - 3)).entry_function()
    over = parse_program(load_blocks(interp.MAX_FAST - 2)).entry_function()
    assert "while f >= " in generated(fits)
    assert "while f >= " not in generated(over)


# -- validator ---------------------------------------------------------------


def check_diag(src: str, message: str) -> None:
    diags = validate_program(parse_program(src))
    assert any(message in str(d) for d in diags), \
        f"wanted {message!r} in {[str(d) for d in diags]}"


def test_use_before_def_on_one_path():
    check_diag("""
func @main() kind=original {
entry:
  %c = const 1
  brcond %c, a, b
a:
  %x = const 5
  br join
b:
  br join
join:
  out %x
  ret
}
""", "used before assignment")


def test_phi_incoming_value_checked_per_edge():
    check_diag("""
func @main() kind=original {
entry:
  %c = const 1
  brcond %c, a, b
a:
  %x = const 5
  br join
b:
  br join
join:
  %y = phi [a: %x], [b: %x]
  out %y
  ret
}
""", "not assigned on path")


def test_phi_shape_diagnostics():
    check_diag("""
func @main() kind=original {
entry:
  %z = const 0
  br join
join:
  %y = phi [entry: %z], [entry: %z]
  ret
}
""", "duplicate incoming")
    check_diag("""
func @main() kind=original {
entry:
  %z = const 0
  br join
join:
  %y = phi [entry: %z], [nowhere: %z]
  ret
}
""", "non-predecessor")
    check_diag("""
func @main() kind=original {
entry:
  %z = const 0
  brcond %z, join, other
other:
  br join
join:
  %y = phi [entry: %z]
  ret
}
""", "missing incoming")


def test_access_phase_purity():
    check_diag("""
func @main() kind=access {
entry:
  %p = const 4096
  %v = const 1
  store %p, 0, %v, w8
  ret
}
""", "store in access phase")
    check_diag("""
func @main() kind=access {
entry:
  %v = const 1
  out %v
  ret
}
""", "out in access phase")


def test_prefetch_requires_origin():
    check_diag("""
func @main() kind=access {
entry:
  %p = const 4096
  prefetch %p, 0
  ret
}
""", "prefetch without origin")


def test_origin_must_name_an_original_load():
    check_diag("""
func @orig() kind=original {
entry:
  %p = const 4096 !id=1
  %v = load %p, 0, w8 !id=2
  ret !id=3
}
func @acc() kind=access {
entry:
  %p = const 4096 !id=4
  prefetch %p, 0 !origin=1 !id=5
  ret !id=6
}
""", "does not name an original load")


def test_structure_diagnostics():
    check_diag("func @main() kind=original {\nentry:\n  br gone\n}", "undefined label")
    check_diag("""
func @main() kind=original {
entry:
  br entry
}
""", "entry block has predecessors")
    check_diag("""
func @main() kind=original {
entry:
  ret
island:
  ret
}
""", "unreachable block")
    check_diag("""
func @a() kind=original {
entry:
  ret
}
func @a() kind=original {
entry:
  ret
}
""", "duplicate function name")
    check_diag("""
entry @nope
func @main() kind=original {
entry:
  ret
}
""", "not defined")


def test_successors_and_reachable():
    fn = Function("f", blocks=[
        Block("entry", term=BrCond(1, "c", "a", "a")),
        Block("a", term=BrCond(2, "c", "b", "gone")),
        Block("b", term=Ret(3)),
    ])
    entry, a, b = fn.blocks
    assert successors(entry) == ["a", "a"]  # equal targets are not deduped
    assert successors(a) == ["b", "gone"]
    assert successors(b) == []
    assert fn.reachable("entry") == {"entry", "a", "b"}  # "gone" has no block
    assert fn.reachable("entry", stop={"b"}) == {"entry", "a"}
    assert fn.reachable("b", stop={"b"}) == set()


def test_predecessors_are_distinct_and_skip_dangling_labels():
    fn = Function("f", blocks=[
        Block("entry", term=BrCond(1, "c", "a", "a")),
        Block("a", term=BrCond(2, "c", "b", "gone")),
        Block("b", term=Br(3, "a")),
    ])
    assert predecessors(fn) == {"entry": [], "a": ["entry", "b"], "b": ["a"]}


class _CountedLabel(str):
    """A label that counts the comparisons made with it."""
    eqs = 0

    def __eq__(self, other):
        _CountedLabel.eqs += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def test_predecessors_scale_linearly_in_fan_in():
    """A block with n predecessors costs O(n) label comparisons, not a
    list scan per edge: a dict lookup compares a label once per edge, a
    list scan once per element.  The comparisons at 4n are at most 4
    times those at n (a quadratic map gives 16), and the order stays the
    chain's."""
    def comparisons(n: int) -> int:
        fn = parse_program(fan_in(n)).entry_function()
        for blk in fn.blocks:
            blk.label = _CountedLabel(blk.label)
            for attr in ("target", "if_true", "if_false"):
                if hasattr(blk.term, attr):
                    setattr(blk.term, attr,
                            _CountedLabel(getattr(blk.term, attr)))
        _CountedLabel.eqs = 0
        preds = predecessors(fn)
        eqs = _CountedLabel.eqs
        assert preds["done"] == [f"b{i}" for i in range(1, n + 1)]
        return eqs

    small, large = comparisons(500), comparisons(2000)
    assert 0 < large <= 4 * small, (small, large)


def test_generated_source_indents_one_character_per_level():
    """A 2,000-block fan-in's brcond chain nests to MAX_NEST inside its
    dispatch tree, so the source's size is mostly indentation: at one
    character per level it stays under 400 bytes a block."""
    fn = parse_program(fan_in(2000)).entry_function()
    src = generated(fn)
    assert len(src) < 400 * 2000, len(src)


def test_duplicate_ids_rejected():
    check_diag("""
func @main() kind=original {
entry:
  %x = const 1 !id=5
  %y = const 2 !id=5
  ret
}
""", "already used")


def test_overlapping_data_segments():
    check_diag("""
data @base=4096 zero=100
data @base=4160 zero=100
func @main() kind=original {
entry:
  ret
}
""", "overlap")


def test_data_past_the_memory_limit_is_rejected():
    check_diag(f"""
data @base=4096 zero={MAX_DATA_END - 4096 + 1}
func @main() kind=original {{
entry:
  ret
}}
""", "memory limit")


def test_data_ending_at_the_memory_limit_validates():
    src = f"""
data @base=4096 zero={MAX_DATA_END - 4096}
func @main() kind=original {{
entry:
  ret
}}
"""
    assert validate_program(parse_program(src)) == []


def test_register_reassignment_is_legal():
    src = """
func @main() kind=original {
entry:
  %x = const 1
  %x = binop add %x, 10
  %x = binop mul %x, 3
  out %x
  ret
}
"""
    p = parse_program(src)
    assert_valid(p)
    assert interpret(p).output == [33]


# sha256 of validate_program's diagnostics over 300 conftest programs,
# 169 of them left invalid by break_program, recorded while each block's
# defined registers were still a set of names.
DIAGNOSTICS_SHA256 = (
    "dcb71404c0972c8e9e6e19588c3754cca70b3b18101b5fd58a15ae5584520544")


def test_diagnostics_are_pinned():
    h = hashlib.sha256()
    invalid = 0
    for i in range(300):
        rng = random.Random(i)
        prog = (random_cfg_program if i % 2 else random_loop_kernel)(rng)
        break_program(rng, prog, rng.randint(0, 3))
        diags = validate_program(prog)
        invalid += bool(diags)
        h.update(("\n".join(map(str, diags)) + "\n\n").encode())
    assert invalid == 169
    assert h.hexdigest() == DIAGNOSTICS_SHA256


# -- structural copies -------------------------------------------------------


def scramble(fn: Function) -> None:
    """Mutate every list and every node field of fn in place."""
    fn.name += "_x"
    fn.params.append("extra")
    for blk in fn.blocks:
        blk.label += "_x"
        for n in blk.phis:
            n.dst += "_x"
            n.incoming[0] = ("elsewhere", 0)
            n.incoming.append(("other", 1))
        for n in fn.nodes():
            n.id += 10_000
        for n in blk.body:
            for attr in ("dst", "base", "src"):
                if hasattr(n, attr):
                    setattr(n, attr, getattr(n, attr) + "_x")
        blk.phis.reverse()
        blk.body.reverse()
        blk.body.append(Const(id=-1, dst="added", value=1))
    fn.blocks.reverse()
    fn.blocks.append(Block(label="added", term=Ret(id=-2)))


def test_copies_share_nothing_mutable():
    """Mutating a copy's blocks, body lists, phi incoming lists or node
    fields leaves the original unchanged."""
    rng = random.Random(5)
    for i in range(20):
        prog = (random_cfg_program if i % 2 else random_loop_kernel)(rng)
        before = copy.deepcopy(prog)
        dup = prog.copy()
        assert dup == prog
        scramble(dup.entry_function())
        dup.data[0].seed = -1
        dup.data.append(dup.data[0])
        dup.functions.append(Function(name="added"))
        dup.entry = "added"
        assert prog == before
        fn = prog.entry_function().copy()
        assert fn == prog.entry_function()
        scramble(fn)
        assert prog == before
