"""Reference interpreter for DIR.

This is the semantic oracle for the whole toolkit: transformations and the
timing simulator are checked against it.  It is timing-free; prefetch is a
no-op here.  Values are 64-bit two's-complement integers kept internally
in unsigned form.  Loads zero-extend, div/rem truncate toward zero, shr is
a logical shift, and shift amounts are taken mod 64.

There is one engine.  compile_function writes each function as Python
source and builds it with exec, the way the stdlib's dataclasses builds
methods: registers are locals, each block is one arm of an if/elif on an
integer block index, and fuel and block counts live in locals until the
call ends.  BINOP_FNS defines every operator; the generated code spells
out all but div and rem with the same arithmetic and calls BINOP_FNS for
those two.  interpret() and the timing simulator both run it.  The
timing hooks see each load and prefetch together with the fuel left,
which tells the simulator how many nodes have retired, so no hook runs
per block.
Only parameters are read from env; a register read before any definition
raises NameError, and the validator rejects such programs.
"""

from __future__ import annotations

import copy
import hashlib
import struct

from .types import (
    BinOp,
    Br,
    BrCond,
    Const,
    DirRuntimeError,
    ExecTrace,
    Function,
    Load,
    Operand,
    Out,
    Prefetch,
    Program,
    Ret,
    Store,
    node_def,
    predecessors,
    successors,
)

M64 = (1 << 64) - 1
_U64 = 1 << 64
_H64 = 1 << 63

# 98x the largest built-in run (stencil3 static_dae, 204,850 nodes); a
# one-node spin loop spends it in about two seconds.
DEFAULT_FUEL = 20_000_000


def to_signed(v: int) -> int:
    return v - _U64 if v >= _H64 else v


def to_unsigned(v: int) -> int:
    return v & M64


def _sdiv(a: int, b: int) -> int:
    sa, sb = to_signed(a), to_signed(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & M64


def _srem(a: int, b: int) -> int:
    sa, sb = to_signed(a), to_signed(b)
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & M64


BINOP_FNS = {
    "add": lambda a, b: (a + b) & M64,
    "sub": lambda a, b: (a - b) & M64,
    "mul": lambda a, b: (a * b) & M64,
    "div": _sdiv,
    "rem": _srem,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a << (b & 63)) & M64,
    "shr": lambda a, b: a >> (b & 63),
    "slt": lambda a, b: 1 if to_signed(a) < to_signed(b) else 0,
    "sle": lambda a, b: 1 if to_signed(a) <= to_signed(b) else 0,
    "seq": lambda a, b: 1 if a == b else 0,
}

# The generated spelling of each BINOP_FNS entry; the rest are called.
_INLINE = {
    "add": f"({{a}} + {{b}}) & {M64:#x}",
    "sub": f"({{a}} - {{b}}) & {M64:#x}",
    "mul": f"({{a}} * {{b}}) & {M64:#x}",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": f"({{a}} << ({{b}} & 63)) & {M64:#x}",
    "shr": "{a} >> ({b} & 63)",
    "seq": "1 if {a} == {b} else 0",
    # Flipping the sign bit maps signed order onto unsigned order.
    "slt": f"1 if {{a}} ^ {_H64:#x} < {{b}} ^ {_H64:#x} else 0",
    "sle": f"1 if {{a}} ^ {_H64:#x} <= {{b}} ^ {_H64:#x} else 0",
}

_STRUCTS = {w: struct.Struct(f"<{c}") for w, c in ((2, "H"), (4, "I"), (8, "Q"))}
_NAMESPACE = {
    "_Err": DirRuntimeError,
    **{f"_{op}": BINOP_FNS[op] for op in BINOP_FNS if op not in _INLINE},
    **{f"_ld{w}": s.unpack_from for w, s in _STRUCTS.items()},
    **{f"_st{w}": s.pack_into for w, s in _STRUCTS.items()},
}


class CompiledFunction:
    """A function and the Python code generated for it.

    ids maps each block label to the node ids that retire when the block
    runs; run is the generated function that run_compiled calls.
    """

    __slots__ = ("fn", "ids", "run")

    def __init__(self, fn: Function, ids: dict[str, list[int]], run):
        self.fn = fn
        self.ids = ids
        self.run = run


def _signed(r: str) -> str:
    return f"({r} - {_U64:#x} if {r} >= {_H64:#x} else {r})"


def _address(base: str, offset: int) -> str:
    return f"{_signed(base)} + {offset}" if offset else _signed(base)


class _Source:
    """The generated source of one function, built a block at a time."""

    def __init__(self, fn: Function, blocks: dict):
        self.lines: list[str] = []
        self.index = {label: k for k, label in enumerate(blocks)}
        self.entry = fn.blocks[0].label
        self.phi_labels = {label for label, blk in blocks.items() if blk.phis}
        self.preds = predecessors(fn)
        self.regs: dict[str, str] = {}  # register -> local name

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def reg(self, name: str) -> str:
        return self.regs.setdefault(name, f"r{len(self.regs)}")

    def val(self, v: Operand) -> str:
        return self.reg(v) if isinstance(v, str) else str(v & M64)

    def goto(self, d: int, label: str) -> None:
        if label in self.index:
            self.emit(d, f"b = {self.index[label]}")
        else:
            self.emit(d, f"raise KeyError({label!r})")

    def phis(self, d: int, blk) -> None:
        """Assign the block's phis, all at once, for the predecessor p."""
        incoming = [(phi.dst, dict(phi.incoming)) for phi in blk.phis]
        arms: list[str | None] = list(self.preds[blk.label])
        if blk.label == self.entry:
            arms.insert(0, None)
        for n, prev in enumerate(arms):
            inner = d
            if len(arms) > 1:
                inner = d + 1
                if n == len(arms) - 1:
                    self.emit(d, "else:")
                else:
                    test = "p < 0" if prev is None else f"p == {self.index[prev]}"
                    self.emit(d, f"{'if' if n == 0 else 'elif'} {test}:")
            if prev is None:
                msg = f"phi executed on function entry in {blk.label!r}"
                self.emit(inner, f"raise _Err({msg!r})")
                continue
            missing = [dst for dst, inc in incoming if prev not in inc]
            if missing:
                msg = f"phi %{missing[0]} has no incoming for predecessor {prev!r}"
                self.emit(inner, f"raise _Err({msg!r})")
                continue
            dsts = ", ".join(self.reg(dst) for dst, _ in incoming)
            vals = ", ".join(self.val(inc[prev]) for _, inc in incoming)
            self.emit(inner, f"{dsts} = {vals}")

    def block(self, d: int, blk, k: int, ncount: int) -> None:
        emit = self.emit
        emit(d, f"c{k} += 1")
        emit(d, f"f -= {ncount}")
        emit(d, "if f < 0:")
        msg = f"fuel exhausted in block {blk.label!r}"
        emit(d + 1, f"raise _Err({msg!r})")
        if blk.phis:
            self.phis(d, blk)
        for ins in blk.body:
            if isinstance(ins, Const):
                emit(d, f"{self.reg(ins.dst)} = {ins.value & M64}")
            elif isinstance(ins, BinOp):
                a, b = self.val(ins.a), self.val(ins.b)
                if ins.op in _INLINE:
                    expr = _INLINE[ins.op].format(a=a, b=b)
                else:
                    if ins.op in ("div", "rem"):
                        emit(d, f"if {b} == 0:")
                        emit(d + 1, f"raise _Err('division by zero', {ins.id})")
                    expr = f"_{ins.op}({a}, {b})"
                emit(d, f"{self.reg(ins.dst)} = {expr}")
            elif isinstance(ins, (Load, Store)):
                kind = "load" if isinstance(ins, Load) else "store"
                emit(d, f"a = {_address(self.reg(ins.base), ins.offset)}")
                emit(d, f"if a < 0 or a + {ins.width} > mem_size:")
                emit(d + 1, f"raise _Err(f'{kind} address {{a}} out of"
                            f" [0, {{mem_size}})', {ins.id})")
                if kind == "load":
                    emit(d, "if on_load is not None:")
                    emit(d + 1, f"on_load({ins.id}, a, f)")
                    read = "mem[a]" if ins.width == 1 else f"_ld{ins.width}(mem, a)[0]"
                    emit(d, f"{self.reg(ins.dst)} = {read}")
                elif ins.width == 1:
                    emit(d, f"mem[a] = {self.reg(ins.src)} & 0xff")
                else:
                    mask = (1 << (8 * ins.width)) - 1
                    emit(d, f"_st{ins.width}(mem, a, {self.reg(ins.src)} & {mask:#x})")
            elif isinstance(ins, Prefetch):
                # Architectural no-op; only the timing model cares.
                emit(d, "if on_prefetch is not None:")
                emit(d + 1, f"a = {_address(self.reg(ins.base), ins.offset)}")
                emit(d + 1, "if 0 <= a < mem_size:")
                emit(d + 2, f"on_prefetch({ins.id}, a, f)")
            elif isinstance(ins, Out):
                emit(d, f"out({_signed(self.reg(ins.src))})")
            else:
                raise TypeError(f"cannot compile {ins!r}")
        t = blk.term
        if isinstance(t, Ret):
            emit(d, "break")
            return
        if not isinstance(t, (Br, BrCond)):
            raise TypeError(f"block {blk.label!r} lacks a terminator")
        if self.phi_labels.intersection(successors(blk)):
            emit(d, f"p = {k}")
        if isinstance(t, Br):
            self.goto(d, t.target)
        else:
            emit(d, f"if {self.reg(t.cond)}:")
            self.goto(d + 1, t.if_true)
            emit(d, "else:")
            self.goto(d + 1, t.if_false)


def compile_function(fn: Function) -> CompiledFunction:
    """Generate the Python function that runs fn, and build it."""
    blocks = {blk.label: blk for blk in fn.blocks}
    src = _Source(fn, blocks)
    ids: dict[str, list[int]] = {}
    for k, (label, blk) in enumerate(blocks.items()):
        ids[label] = [n.id for n in (*blk.phis, *blk.body)]
        src.emit(3, f"{'if' if k == 0 else 'elif'} b == {k}:")
        src.block(4, blk, k, len(ids[label]) + 1)
        ids[label].append(blk.term.id)
    counts = ", ".join(f"c{k}" for k in range(len(blocks)))
    head = ["def run(env, mem, output, block_counts, fuel, mem_size,"
            " on_load, on_prefetch):",
            "    out = output.append",
            "    f = fuel[0]",
            f"    {counts.replace(',', ' =')} = 0"]
    for name in fn.params:
        if name in src.regs:
            head.append(f"    if {name!r} in env: {src.regs[name]} = env[{name!r}]")
    head += ["    b = 0",
             "    p = -1",
             "    try:",
             "        while True:"]
    tail = ["    finally:",
            "        fuel[0] = f",
            f"        for label, c in zip(_labels, ({counts},)):",
            "            if c:",
            "                block_counts[label] = block_counts.get(label, 0) + c",
            # Registers the call never assigned stay out of env.
            "    bound = locals()",
            "    for name, r in _defs:",
            "        if r in bound:",
            "            env[name] = bound[r]"]
    defined = {node_def(n) for blk in blocks.values() for n in (*blk.phis, *blk.body)}
    namespace = dict(_NAMESPACE, _labels=tuple(blocks),
                     _defs=tuple((name, r) for name, r in src.regs.items()
                                 if name in defined))
    code = "\n".join(head + src.lines + tail) + "\n"
    exec(compile(code, f"<dir @{fn.name}>", "exec"), namespace)
    return CompiledFunction(fn, ids, namespace["run"])


def _splitmix_chunks(seed: int, words: int):
    """The first words of the splitmix64 stream, up to 4096 at a time.

    Word i mixes the state seed + (i+1) * gamma.  One integer holds a
    chunk's states in 128-bit lanes: each mixing step acts on every lane
    at once, the mask keeps each lane's low 64 bits, and a 64-bit product
    never reaches the next lane.  The low half of each lane is one word.
    The last chunk may run past words.
    """
    n = min(words, 4096)  # lanes
    if not n:
        return
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    mask = ones * M64
    iota = int.from_bytes(struct.pack("<" + "Q8x" * n, *range(1, n + 1)), "little")
    gamma = 0x9E3779B97F4A7C15
    x = ((seed & M64) * ones + gamma * iota) & mask
    step = ((n * gamma) & M64) * ones
    for _ in range(0, words, n):
        z = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        z ^= z >> 31
        yield memoryview(z.to_bytes(16 * n, "little")).cast("Q")[::2].tobytes()
        x = (x + step) & mask


def splitmix_fill(seed: int, length: int) -> bytes:
    """Deterministic byte fill from a 64-bit seed (splitmix64 stream)."""
    # The generator frees its lane constants before join builds the result.
    out = b"".join(_splitmix_chunks(seed, (length + 7) // 8))
    return out if len(out) == length else out[:length]


def default_mem_size(prog: Program) -> int:
    end = max((seg.end() for seg in prog.data), default=0)
    return max(4096, (end + 4095) // 4096 * 4096)


# The last image init_memory built, and what it was built from.  One
# entry: every run of one kernel at one seed asks for the same image in
# turn, and holding more would only raise peak memory.
_last_image: tuple[tuple, bytes] | None = None


def init_memory(prog: Program, mem_size: int) -> bytearray:
    """A fresh memory image holding the program's data segments."""
    global _last_image
    key = (mem_size, tuple((seg.kind, seg.base, seg.length, seg.seed, seg.data)
                           for seg in prog.data))
    if _last_image is not None and _last_image[0] == key:
        return bytearray(_last_image[1])
    _last_image = None  # let the old image go before building the next
    mem = bytearray(mem_size)
    for seg in prog.data:
        if seg.end() > mem_size:
            raise DirRuntimeError(
                f"data segment [{seg.base}, {seg.end()}) exceeds memory size {mem_size}")
        if seg.kind == "bytes":
            mem[seg.base:seg.end()] = seg.data or b""
        elif seg.kind == "zero":
            mem[seg.base:seg.end()] = bytes(seg.length)
        elif seg.kind == "prng":
            mem[seg.base:seg.end()] = splitmix_fill(seg.seed or 0, seg.length)
        else:
            raise DirRuntimeError(f"unknown data segment kind {seg.kind!r}")
    _last_image = (key, bytes(mem))
    return mem


def with_seed(prog: Program, seed: int) -> Program:
    """Copy of prog with the run seed mixed into every PRNG segment.

    Seed 0 is the identity, so plain interpret(p) agrees with seeded runs
    at seed 0.  The mix is XOR, keeping materialization deterministic.
    """
    if seed == 0:
        return prog
    mixed = copy.deepcopy(prog)
    for seg in mixed.data:
        if seg.kind == "prng":
            seg.seed = (seg.seed or 0) ^ (seed & M64)
    return mixed


def memory_digest(mem: bytearray) -> str:
    return hashlib.sha256(bytes(mem)).hexdigest()


def run_compiled(
    cf: CompiledFunction,
    env: dict[str, int],
    mem: bytearray,
    output: list[int],
    block_counts: dict[str, int],
    fuel: list[int],
    mem_size: int,
    on_load=None,
    on_prefetch=None,
) -> None:
    """Execute one function invocation against shared memory and output.

    block_counts is keyed by block label and is the basis for the retired
    instruction counts (every node in a block retires when the block runs).
    Parameters are read from env on entry, and the registers the call
    assigns are written back to env when it returns; the caller decides
    what to do with them.  Hooks, both optional: on_load observes
    (instr_id, addr, fuel_left) for every executed load, and on_prefetch
    the same for in-bounds prefetches (out-of-bounds ones are dropped,
    never faulted).  fuel_left is the fuel after every node of the
    current block has been charged, so the fuel passed in minus it is the
    number of nodes this call has retired, counted a whole block at a time.
    """
    cf.run(env, mem, output, block_counts, fuel, mem_size,
           on_load, on_prefetch)


def retired_counts(
    compiled: list[CompiledFunction],
    counts_per_fn: dict[str, dict[str, int]],
) -> dict[int, int]:
    retired: dict[int, int] = {}
    for cf in compiled:
        counts = counts_per_fn.get(cf.fn.name, {})
        for label, n in counts.items():
            for node_id in cf.ids[label]:
                retired[node_id] = retired.get(node_id, 0) + n
    return retired


def interpret(
    prog: Program,
    mem_size: int | None = None,
    fuel: int = DEFAULT_FUEL,
) -> ExecTrace:
    """Run the entry function to completion and return the observable trace.

    Entry parameters, if any, are bound to zero.  Uninitialized memory
    reads as zero.  Raises DirRuntimeError on division by zero, an address
    outside [0, mem_size), or fuel exhaustion.
    """
    if mem_size is None:
        mem_size = default_mem_size(prog)
    mem = init_memory(prog, mem_size)
    entry = prog.entry_function()
    cf = compile_function(entry)
    env = {p: 0 for p in entry.params}
    output: list[int] = []
    counts: dict[str, int] = {}
    run_compiled(cf, env, mem, output, counts, [fuel], mem_size)
    return ExecTrace(
        output=output,
        memory_digest=memory_digest(mem),
        retired_by_static_id=retired_counts([cf], {entry.name: counts}),
    )
