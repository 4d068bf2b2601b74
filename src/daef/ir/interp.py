"""Reference interpreter for DIR.

This is the semantic oracle for the whole toolkit: transformations and the
timing simulator are checked against it.  It is timing-free; prefetch is a
no-op here.  Values are 64-bit two's-complement integers kept internally
in unsigned form.  Loads zero-extend, div/rem truncate toward zero, shr is
a logical shift, and shift amounts are taken mod 64.
"""

from __future__ import annotations

import copy
import hashlib

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
)

M64 = (1 << 64) - 1
_U64 = 1 << 64
_H64 = 1 << 63

DEFAULT_FUEL = 200_000_000


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

# Step opcodes for the compiled form shared with the timing simulator.
K_CONST = 0
K_BINOP = 1
K_LOAD = 2
K_STORE = 3
K_PREFETCH = 4
K_OUT = 5

T_BR = 0
T_BRCOND = 1
T_RET = 2


class CompiledBlock:
    __slots__ = ("label", "phis", "steps", "term", "ids", "ncount")

    def __init__(self, label: str):
        self.label = label
        self.phis: list[tuple[str, dict[str, Operand]]] = []
        self.steps: list[tuple] = []
        self.term: tuple = ()
        self.ids: list[int] = []
        self.ncount = 0


class CompiledFunction:
    __slots__ = ("fn", "entry", "blocks")

    def __init__(self, fn: Function, entry: str, blocks: dict[str, CompiledBlock]):
        self.fn = fn
        self.entry = entry
        self.blocks = blocks


def _imm(v: Operand) -> Operand:
    return v if isinstance(v, str) else v & M64


def compile_function(fn: Function) -> CompiledFunction:
    """Lower a function to flat step tuples for the execution loops."""
    blocks: dict[str, CompiledBlock] = {}
    for blk in fn.blocks:
        cb = CompiledBlock(blk.label)
        for phi in blk.phis:
            cb.phis.append((phi.dst, {p: _imm(v) for p, v in phi.incoming}))
            cb.ids.append(phi.id)
        for instr in blk.body:
            cb.ids.append(instr.id)
            if isinstance(instr, Const):
                cb.steps.append((K_CONST, instr.dst, instr.value & M64))
            elif isinstance(instr, BinOp):
                zerocheck = instr.op in ("div", "rem")
                cb.steps.append((K_BINOP, instr.dst, BINOP_FNS[instr.op],
                                 _imm(instr.a), _imm(instr.b), zerocheck, instr.id))
            elif isinstance(instr, Load):
                cb.steps.append((K_LOAD, instr.dst, instr.base, instr.offset,
                                 instr.width, instr.id))
            elif isinstance(instr, Store):
                cb.steps.append((K_STORE, instr.base, instr.offset, instr.src,
                                 instr.width, instr.id))
            elif isinstance(instr, Prefetch):
                cb.steps.append((K_PREFETCH, instr.base, instr.offset, instr.id))
            elif isinstance(instr, Out):
                cb.steps.append((K_OUT, instr.src))
            else:
                raise TypeError(f"cannot compile {instr!r}")
        t = blk.term
        if isinstance(t, Br):
            cb.term = (T_BR, t.target)
        elif isinstance(t, BrCond):
            cb.term = (T_BRCOND, t.cond, t.if_true, t.if_false)
        elif isinstance(t, Ret):
            cb.term = (T_RET, _imm(t.value) if t.value is not None else None)
        else:
            raise TypeError(f"block {blk.label!r} lacks a terminator")
        if t is not None:
            cb.ids.append(t.id)
        cb.ncount = len(cb.ids)
        blocks[blk.label] = cb
    return CompiledFunction(fn, fn.blocks[0].label, blocks)


def splitmix_fill(seed: int, length: int) -> bytes:
    """Deterministic byte fill from a 64-bit seed (splitmix64 stream)."""
    out = bytearray()
    x = seed & M64
    while len(out) < length:
        x = (x + 0x9E3779B97F4A7C15) & M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        z = z ^ (z >> 31)
        out += z.to_bytes(8, "little")
    return bytes(out[:length])


def default_mem_size(prog: Program) -> int:
    end = max((seg.end() for seg in prog.data), default=0)
    return max(4096, (end + 4095) // 4096 * 4096)


def init_memory(prog: Program, mem_size: int) -> bytearray:
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
    on_block=None,
) -> None:
    """Execute one function invocation against shared memory and output.

    block_counts is keyed by block label and is the basis for the retired
    instruction counts (every node in a block retires when the block runs).
    Mutates env in place; the caller decides what to do with the final
    register values.  Hooks, all optional: on_load observes (instr_id,
    addr) for every executed load, on_prefetch the same for in-bounds
    prefetches (out-of-bounds ones are dropped, never faulted), and
    on_block observes each block's retired node count on entry.
    """
    blocks = cf.blocks
    cur = blocks[cf.entry]
    prev: str | None = None
    bc_get = block_counts.get
    while True:
        label = cur.label
        block_counts[label] = bc_get(label, 0) + 1
        fuel[0] -= cur.ncount
        if fuel[0] < 0:
            raise DirRuntimeError(f"fuel exhausted in block {label!r}")
        if on_block is not None:
            on_block(cur.ncount)
        if cur.phis:
            if prev is None:
                raise DirRuntimeError(f"phi executed on function entry in {label!r}")
            values = []
            for dst, incoming in cur.phis:
                try:
                    v = incoming[prev]
                except KeyError:
                    raise DirRuntimeError(
                        f"phi %{dst} has no incoming for predecessor {prev!r}")
                values.append((dst, env[v] if type(v) is str else v))
            for dst, v in values:
                env[dst] = v
        for s in cur.steps:
            k = s[0]
            if k == K_BINOP:
                a = s[3]
                b = s[4]
                va = env[a] if type(a) is str else a
                vb = env[b] if type(b) is str else b
                if s[5] and vb == 0:
                    raise DirRuntimeError("division by zero", s[6])
                env[s[1]] = s[2](va, vb)
            elif k == K_LOAD:
                addr = to_signed(env[s[2]]) + s[3]
                w = s[4]
                if addr < 0 or addr + w > mem_size:
                    raise DirRuntimeError(
                        f"load address {addr} out of [0, {mem_size})", s[5])
                if on_load is not None:
                    on_load(s[5], addr)
                env[s[1]] = int.from_bytes(mem[addr:addr + w], "little")
            elif k == K_CONST:
                env[s[1]] = s[2]
            elif k == K_STORE:
                addr = to_signed(env[s[1]]) + s[2]
                w = s[4]
                if addr < 0 or addr + w > mem_size:
                    raise DirRuntimeError(
                        f"store address {addr} out of [0, {mem_size})", s[5])
                mem[addr:addr + w] = (env[s[3]] & ((1 << (8 * w)) - 1)).to_bytes(w, "little")
            elif k == K_OUT:
                output.append(to_signed(env[s[1]]))
            elif k == K_PREFETCH:
                # Architectural no-op; only the timing model cares.
                if on_prefetch is not None:
                    addr = to_signed(env[s[1]]) + s[2]
                    if 0 <= addr < mem_size:
                        on_prefetch(s[3], addr)
        t = cur.term
        k = t[0]
        if k == T_BRCOND:
            prev = label
            cur = blocks[t[2]] if env[t[1]] else blocks[t[3]]
        elif k == T_BR:
            prev = label
            cur = blocks[t[1]]
        else:
            return


def retired_counts(
    compiled: list[CompiledFunction],
    counts_per_fn: dict[str, dict[str, int]],
) -> dict[int, int]:
    retired: dict[int, int] = {}
    for cf in compiled:
        counts = counts_per_fn.get(cf.fn.name, {})
        for label, n in counts.items():
            for node_id in cf.blocks[label].ids:
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
