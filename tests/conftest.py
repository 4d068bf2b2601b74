"""Shared helpers: seeded random program generators and small fixtures.

Two corpora drive the randomized tests.  random_cfg_program builds messy
but terminating control flow (every block threads a visit counter, and
each conditional branch bails to the sink once the counter passes its
budget).  random_loop_kernel builds a well-formed counted loop with a
random body DAG: loads behind power-of-two masks, loop-carried
accumulators, and optional stores.  random_chase_kernel builds a
counted pointer chase whose access phase keeps loads of a node's line
next to prefetches.  break_program damages either kind
for the validator.  br_chain and brcond_tree write the source of long and
deeply nested kernels for the code generator, and fan_in one whose last
block has thousands of predecessors; bound_chain, base_chain,
load_blocks and empty_tail write counted loops whose definition chains or
bodies are n long, for the phase generator.  random_machine draws a
valid machine, and counting_runs counts the runs the simulator
simulates.  Every test starts with prepare's memo empty, as a fresh
process does.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from daef import harness, machsim
from daef.ir import Br, Program, node_def, parse_program, validate_program
from daef.machine import L1Config, MachineConfig


@pytest.fixture(autouse=True)
def cold_prepare():
    """Forget the Prepared values earlier tests built."""
    harness._prepared.clear()


def assert_valid(prog: Program) -> None:
    diags = validate_program(prog)
    assert not diags, "\n".join(str(d) for d in diags)


SUM_KERNEL = """
data @base=4096 prng(seed=7, len=64)
entry @main
func @main() kind=original {
entry:
  %n = const 8
  %zero = const 0
  %base = const 4096
  br loop
loop:
  %i = phi [entry: %zero], [latch: %i2]
  %acc = phi [entry: %zero], [latch: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %off = binop shl %i, 3
  %addr = binop add %base, %off
  %v = load %addr, 0, w8
  %acc2 = binop add %acc, %v
  %i2 = binop add %i, 1
  br latch
latch:
  br loop
done:
  out %acc
  ret %acc
}
"""


def counting_runs(monkeypatch) -> list:
    """Patch the simulator's run records to append to the returned list
    once per simulated run; a joined record is shared, not made again."""
    made = []
    make = machsim.RunRecord

    def counting(**fields):
        record = make(**fields)
        if record.kind == "run":
            made.append(1)
        return record

    monkeypatch.setattr(machsim, "RunRecord", counting)
    return made


def random_machine(rng: random.Random) -> MachineConfig:
    """A valid machine with a random L1 shape, miss registers and timing."""
    line = rng.choice([8, 16, 32, 64, 128])
    ways = rng.choice([1, 2, 4, 8])
    return MachineConfig(
        l1=L1Config(capacity_bytes=line * ways * rng.choice([1, 2, 8, 32]),
                    line_bytes=line, ways=ways, hit_cycles=rng.randint(1, 6)),
        mshr_count=rng.randint(1, 16),
        mem_latency_ns=Fraction(rng.randint(1, 240), rng.choice([1, 3, 7])))


def sum_kernel() -> Program:
    return parse_program(SUM_KERNEL)


def random_cfg_program(rng: random.Random, n_blocks: int | None = None) -> Program:
    """A terminating single-function program with random control flow.

    Block i threads a visit counter (phi + add 1).  Conditional branches
    jump anywhere while the counter is under a budget, then fall through
    to the sink, and plain branches only jump forward, so every walk
    terminates.  Unreachable blocks are pruned before emission.
    """
    n = n_blocks if n_blocks is not None else rng.randint(4, 9)
    budget = rng.randint(6, 48)
    sink = n

    # Choose terminators first; blocks and phis come after pruning.
    kinds: dict[int, tuple] = {}
    for i in range(1, n):
        if rng.random() < 0.5:
            kinds[i] = ("br", rng.randint(i + 1, sink))
        else:
            kinds[i] = ("brcond", rng.randint(1, sink), sink)

    succs: dict[int, list[int]] = {0: [1]}
    for i in range(1, n):
        succs[i] = sorted(set(kinds[i][1:]))
    succs[sink] = []

    live = {0}
    stack = [0]
    while stack:
        b = stack.pop()
        for s in succs[b]:
            if s not in live:
                live.add(s)
                stack.append(s)

    preds: dict[int, list[int]] = {i: [] for i in sorted(live)}
    for b in sorted(live):
        for s in succs[b]:
            preds[s].append(b)

    def label(i: int) -> str:
        if i == 0:
            return "entry"
        if i == sink:
            return "sink"
        return f"b{i}"

    lines = ["data @base=4096 prng(seed=3, len=256)", "entry @main",
             "func @main() kind=original {"]
    out_reg = {0: "c"}
    for i in sorted(live - {0}):
        out_reg[i] = f"q{i}"
    lines.append("entry:")
    lines.append("  %c = const 0")
    lines.append(f"  %lim = const {budget}")
    lines.append(f"  br {label(1)}")
    for i in sorted(live - {0}):
        lines.append(f"{label(i)}:")
        inc = ", ".join(f"[{label(p)}: %{out_reg[p]}]" for p in preds[i])
        lines.append(f"  %p{i} = phi {inc}")
        lines.append(f"  %q{i} = binop add %p{i}, 1")
        for k in range(rng.randint(0, 2)):
            op = rng.choice(["add", "sub", "mul", "xor", "and", "or", "slt", "shl"])
            a = rng.choice([f"%q{i}", f"%p{i}", "%lim", str(rng.randint(0, 7))])
            b = rng.choice([f"%q{i}", "%lim", str(rng.randint(0, 7))])
            lines.append(f"  %j{i}_{k} = binop {op} {a}, {b}")
        if rng.random() < 0.3:
            lines.append(f"  %a{i} = const {4096 + 8 * i}")
            lines.append(f"  store %a{i}, 0, %q{i}, w8")
        if rng.random() < 0.2:
            lines.append(f"  out %q{i}")
        if i == sink:
            lines.append(f"  ret %p{sink}")
        elif kinds[i][0] == "br":
            lines.append(f"  br {label(kinds[i][1])}")
        else:
            lines.append(f"  %g{i} = binop slt %q{i}, %lim")
            lines.append(f"  brcond %g{i}, {label(kinds[i][1])}, {label(sink)}")
    lines.append("}")
    return parse_program("\n".join(lines))


def random_loop_kernel(rng: random.Random) -> Program:
    """A canonical counted loop with a random body DAG.

    One to three data arrays, each a power-of-two element count so load
    addresses can be masked into range.  One to three loop-carried
    accumulators, optional stores to a scratch array, outs in the
    epilogue.  Always validates and always terminates.
    """
    n_iters = rng.randint(40, 300)
    step = rng.choice([1, 1, 1, 2])
    n_arrays = rng.randint(1, 3)
    arrays = []
    base = 4096
    for a in range(n_arrays):
        logn = rng.randint(6, 9)  # 64..512 elements of 8 bytes
        arrays.append((base, (1 << logn) - 1))
        base += (1 << logn) * 8
    scratch = base  # plain store target, one slot per iteration
    has_store = rng.random() < 0.5
    n_accs = rng.randint(1, 3)

    lines = []
    for b, mask in arrays:
        lines.append(f"data @base={b} prng(seed={rng.randint(1, 1 << 30)}, "
                     f"len={(mask + 1) * 8})")
    if has_store:
        lines.append(f"data @base={scratch} zero={n_iters * step * 8}")
    lines += ["entry @main", "func @main() kind=original {", "entry:"]
    lines.append(f"  %n = const {n_iters * step}")
    lines.append("  %zero = const 0")
    for a, (b, _) in enumerate(arrays):
        lines.append(f"  %base{a} = const {b}")
    if has_store:
        lines.append(f"  %sbase = const {scratch}")
    lines.append("  br loop")
    lines.append("loop:")
    lines.append("  %i = phi [entry: %zero], [body: %i2]")
    for k in range(n_accs):
        lines.append(f"  %acc{k} = phi [entry: %zero], [body: %acc{k}x]")
    lines.append("  %cond = binop slt %i, %n")
    lines.append("  brcond %cond, body, done")
    lines.append("body:")

    avail = ["%i"] + [f"%acc{k}" for k in range(n_accs)]
    tmp = 0
    loads = 0
    for _ in range(rng.randint(3, 12)):
        tmp += 1
        dst = f"%t{tmp}"
        if rng.random() < 0.4:
            a = rng.randrange(n_arrays)
            b, mask = arrays[a]
            src = rng.choice(avail)
            lines.append(f"  %m{tmp} = binop and {src}, {mask}")
            lines.append(f"  %o{tmp} = binop shl %m{tmp}, 3")
            lines.append(f"  %ad{tmp} = binop add %base{a}, %o{tmp}")
            width = rng.choice([1, 2, 4, 8])
            lines.append(f"  {dst} = load %ad{tmp}, 0, w{width}")
            loads += 1
        else:
            op = rng.choice(["add", "sub", "mul", "xor", "and", "or", "shl", "shr"])
            x = rng.choice(avail)
            y = rng.choice(avail + [str(rng.randint(1, 63))])
            if op in ("shl", "shr"):
                y = str(rng.randint(1, 7))
            lines.append(f"  {dst} = binop {op} {x}, {y}")
        avail.append(dst)
    for k in range(n_accs):
        src = rng.choice(avail[1:])
        op = rng.choice(["add", "xor"])
        lines.append(f"  %acc{k}x = binop {op} %acc{k}, {src}")
    if has_store:
        lines.append("  %soff = binop shl %i, 3")
        lines.append("  %sad = binop add %sbase, %soff")
        lines.append(f"  store %sad, 0, {rng.choice(avail[1:])}, w8")
    lines.append(f"  %i2 = binop add %i, {step}")
    lines.append("  br loop")
    lines.append("done:")
    for k in range(n_accs):
        lines.append(f"  out %acc{k}")
    lines.append("  ret %acc0")
    lines.append("}")
    return parse_program("\n".join(lines))


def random_chase_kernel(rng: random.Random) -> Program:
    """A counted loop that chases a pointer through random nodes.

    Each trip loads the next node's index and one to three more fields of
    the current node, in random order.  A field is summed or indexes a
    gather table; one that indexes a table stays a load in the access
    phase, beside the node's other loads and the table's prefetches.  The
    gathers may sit in a block of their own.  Always validates and always
    terminates.
    """
    node_log, table_log = rng.randint(6, 10), rng.randint(6, 10)
    node_shift = rng.choice([4, 5, 6])  # 16-, 32- or 64-byte nodes
    nbase, nodes_len = 4096, 1 << node_shift + node_log
    tbase = nbase + nodes_len
    offsets = rng.sample(range(8, 1 << node_shift, 8),
                         rng.randint(1, min(3, (1 << node_shift - 3) - 1)))
    gathers = [k for k in offsets if rng.random() < 0.7]
    reads = [0, *offsets]
    rng.shuffle(reads)
    body = ["body:"]
    for k in reads:
        body.append(f"  %f{k} = load %p, {k}, w8")
        if k in gathers:
            body += [f"  %m{k} = binop and %f{k}, {(1 << table_log) - 1}",
                     f"  %o{k} = binop shl %m{k}, 3",
                     f"  %a{k} = binop add %tbase, %o{k}"]
    if gathers and rng.random() < 0.5:
        body += ["  br gather", "gather:"]
    sums = [f"%f{k}" for k in offsets if k not in gathers]
    for k in gathers:
        body.append(f"  %g{k} = load %a{k}, 0, w8")
        sums.append(f"%g{k}")
    acc = "%acc"
    for t, v in enumerate(sums):
        body.append(f"  %s{t} = binop {rng.choice(['add', 'xor'])} {acc}, {v}")
        acc = f"%s{t}"
    body += [f"  %acc2 = binop add {acc}, 0",
             f"  %j = binop and %f0, {(1 << node_log) - 1}",
             f"  %jo = binop shl %j, {node_shift}",
             "  %p2 = binop add %nbase, %jo",
             "  %i2 = binop add %i, 1",
             "  br loop"]
    latch = "gather" if "gather:" in body else "body"
    lines = [
        f"data @base={nbase} prng(seed={rng.randint(1, 1 << 30)}, "
        f"len={nodes_len})",
        f"data @base={tbase} prng(seed={rng.randint(1, 1 << 30)}, "
        f"len={8 << table_log})",
        "entry @main", "func @main() kind=original {", "entry:",
        f"  %n = const {rng.randint(40, 300)}", "  %zero = const 0",
        f"  %nbase = const {nbase}", f"  %tbase = const {tbase}",
        "  br loop", "loop:",
        f"  %i = phi [entry: %zero], [{latch}: %i2]",
        f"  %p = phi [entry: %nbase], [{latch}: %p2]",
        f"  %acc = phi [entry: %zero], [{latch}: %acc2]",
        "  %c = binop slt %i, %n", "  brcond %c, body, done",
        *body, "done:", "  out %acc", "  ret %acc", "}"]
    return parse_program("\n".join(lines))


def break_program(rng: random.Random, prog: Program, n_edits: int) -> None:
    """Apply n_edits random damaging edits to prog's entry function, in
    place: drop a node, a phi edge or a terminator, point a branch or a
    read elsewhere, or duplicate a label."""
    fn = prog.entry_function()
    for _ in range(n_edits):
        blk = rng.choice(fn.blocks)
        regs = sorted({d for n in fn.nodes() if (d := node_def(n))} | {"ghost"})
        edit = rng.randrange(6)
        if edit == 0 and blk.body:
            del blk.body[rng.randrange(len(blk.body))]
        elif edit == 1 and blk.phis:
            phi = rng.choice(blk.phis)
            if phi.incoming:
                del phi.incoming[rng.randrange(len(phi.incoming))]
        elif edit == 2:
            blk.term = None
        elif edit == 3 and isinstance(blk.term, Br):
            blk.term.target = rng.choice([b.label for b in fn.blocks] + ["nowhere"])
        elif edit == 4:
            reads = [(n, attr) for n in (*blk.body, blk.term)
                     for attr in ("a", "b", "src", "base", "cond")
                     if isinstance(getattr(n, attr, None), str)]
            if reads:
                n, attr = rng.choice(reads)
                setattr(n, attr, rng.choice(regs))
        elif edit == 5:
            blk.label = rng.choice(fn.blocks).label


def br_chain(n: int) -> str:
    """n blocks, each adding one and branching to the next."""
    lines = ["func @main() kind=original {", "entry:", "  %x0 = const 0", "  br b1"]
    for i in range(1, n):
        lines += [f"b{i}:", f"  %x{i} = binop add %x{i - 1}, 1"]
        lines += [f"  br b{i + 1}"] if i < n - 1 else [f"  out %x{i}", "  ret"]
    return "\n".join(lines + ["}"]) + "\n"


def brcond_tree(depth: int) -> str:
    """A brcond per level, always true, whose false side returns."""
    lines = ["func @main() kind=original {", "entry:", "  %one = const 1",
             "  %x0 = const 0", "  br t1"]
    for i in range(1, depth + 1):
        nxt = f"t{i + 1}" if i < depth else "end"
        lines += [f"t{i}:", f"  %x{i} = binop add %x{i - 1}, 1",
                  f"  brcond %one, {nxt}, f{i}", f"f{i}:", f"  out %x{i}", "  ret"]
    return "\n".join(lines + ["end:", f"  out %x{depth}", "  ret", "}"]) + "\n"


def fan_in(n: int) -> str:
    """n blocks in a chain, each able to branch to one done block, whose
    phi takes block i's number from block i; the walk reaches b{n}."""
    lines = ["func @main() kind=original {", "entry:", "  %one = const 1", "  br b1"]
    for i in range(1, n):
        lines += [f"b{i}:", f"  brcond %one, b{i + 1}, done"]
    lines += [f"b{n}:", "  br done", "done:",
              "  %r = phi " + ", ".join(f"[b{i}: {i}]" for i in range(1, n + 1)),
              "  out %r", "  ret"]
    return "\n".join(lines + ["}"]) + "\n"


def _sum_loop(prologue: list[str], bound: str, body: list[str], latch: str) -> str:
    """A counted loop over data at 65536: %i runs from 0 while below bound,
    the body lines start at block `body`, and block `latch` defines %i2
    and %acc2 and branches back to the header.  The epilogue outs %acc."""
    return "\n".join([
        "data @base=65536 prng(seed=7, len=8192)", "entry @main",
        "func @main() kind=original {", "entry:", "  %zero = const 0",
        *prologue, "  br loop", "loop:",
        f"  %i = phi [entry: %zero], [{latch}: %i2]",
        f"  %acc = phi [entry: %zero], [{latch}: %acc2]",
        f"  %c = binop slt %i, {bound}", "  brcond %c, body, done",
        *body, "done:", "  out %acc", "  ret", "}"]) + "\n"


def _address(base: str) -> list[str]:
    """%addr: the start of line i mod 128 of the data at base."""
    return ["  %m = binop and %i, 127", "  %off = binop shl %m, 6",
            f"  %addr = binop add {base}, %off"]


_STEP = ["  %v = load %addr, 0, w8", "  %acc2 = binop add %acc, %v",
         "  %i2 = binop add %i, 1"]


def bound_chain(n: int) -> str:
    """A loop of n trips whose bound is n adds of 1 onto a const 0."""
    pro = ["  %base = const 65536", "  %n0 = const 0"]
    pro += [f"  %n{k} = binop add %n{k - 1}, 1" for k in range(1, n + 1)]
    body = ["body:", *_address("%base"), *_STEP, "  br loop"]
    return _sum_loop(pro, f"%n{n}", body, "body")


def base_chain(n: int) -> str:
    """A 16-trip loop whose load base is n adds of 1 onto 65536 - n."""
    pro = [f"  %b0 = const {65536 - n}"]
    pro += [f"  %b{k} = binop add %b{k - 1}, 1" for k in range(1, n + 1)]
    body = ["body:", *_address(f"%b{n}"), *_STEP, "  br loop"]
    return _sum_loop(pro, "16", body, "body")


def load_blocks(n: int) -> str:
    """A 16-trip loop whose body is n blocks of one load each, chained by br."""
    body = ["body:", *_address("%base"), "  %s0 = binop add %acc, 0",
            "  br b1"]
    for k in range(1, n + 1):
        body += [f"b{k}:", f"  %v{k} = load %addr, {8 * (k % 8)}, w8",
                 f"  %s{k} = binop add %s{k - 1}, %v{k}"]
        body += [f"  br b{k + 1}"] if k < n else [
            f"  %acc2 = binop add %s{n}, 0", "  %i2 = binop add %i, 1", "  br loop"]
    return _sum_loop(["  %base = const 65536"], "16", body, f"b{n}")


def empty_tail(n: int) -> str:
    """A 16-trip loop whose body reaches the header through n empty blocks."""
    body = ["body:", *_address("%base"), *_STEP, "  br e1"]
    for k in range(1, n + 1):
        body += [f"e{k}:", f"  br e{k + 1}" if k < n else "  br loop"]
    return _sum_loop(["  %base = const 65536"], "16", body, f"e{n}")
