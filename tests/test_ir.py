"""Parser, printer, validator and interpreter behavior."""

from __future__ import annotations

import random

import pytest

from conftest import SUM_KERNEL, assert_valid, random_cfg_program, random_loop_kernel, sum_kernel
from daef.ir import (
    Block,
    Br,
    BrCond,
    DirRuntimeError,
    DirSyntaxError,
    Function,
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
from daef.ir.interp import BINOP_FNS, splitmix_fill, to_signed
from daef.ir.types import predecessors
from daef.ir.validate import MAX_DATA_END

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

    def counting(seed, length):
        fills.append(seed)
        return splitmix_fill(seed, length)

    monkeypatch.setattr(interp, "splitmix_fill", counting)
    monkeypatch.setattr(interp, "_last_image", None, raising=False)
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
