"""Reference interpreter for DIR.

This is the semantic oracle for the whole toolkit: transformations and the
timing simulator are checked against it.  It is timing-free; prefetch is a
no-op here.  Values are 64-bit two's-complement integers.  Loads
zero-extend, div/rem truncate toward zero, shr is a logical shift, and
shift amounts are taken mod 64.

There is one engine.  compile_function writes each function as Python
source and builds it with exec, the way the stdlib's dataclasses builds
methods: registers are locals, and fuel and block counts live in locals
until the call ends.  Only the entry and the join blocks (entered by
more or fewer than one CFG edge, or by a self-loop) get an arm of the
dispatch, a balanced if-tree on an integer arm index.  Every other block
is written out where its one edge is taken, so a loop's header, body and
latch run as one arm.  Each block counts its entries and charges its
fuel as it starts, except in the fast copy of a small loop arm, which
runs a trip that starts with fuel for the arm's longest path: there a
path charges its fuel where it ends (a block that loads or prefetches
first charges what the path owes through it), and a trip back to the
arm's root adds 1 to one counter and loops in place.  Each edge moves
its target's phi values where it is taken, in one tuple assignment,
before it jumps to the target's arm or runs into the inlined target;
the edge that enters a phi's block with no value for it (the call's
start included) counts the entry, charges the fuel and raises instead.
A load or store address fault is one call of _address_fault.

A trip that a fast copy does not take (too little fuel, or a guard
failed) hands the call over to the function's per-block code, which has
no fast copy and finishes the call from the start of that trip.  So
compile_function writes, compiles and execs only the fast code: the fast
copy of each small loop arm and the per-block code of every other arm.
The per-block code is built on the first handover and kept with the
CompiledFunction; no run of a built-in kernel's plan hands over.  Each
call of compile_function builds its code anew, in a namespace that holds
the register names written back to env; a caller that runs a function
many times keeps its CompiledFunction.

A register holds its canonical value, the unsigned form in [0, 2**64),
wherever something observes it: a phi move, a branch, a comparison, shr,
div, rem, an out, an address, and the write-back to env, which wraps
each value it writes.  The bounds that ir.ranges carries along each
path decide which results need no reduction and which slt and sle need
no sign flips; a fast trip of a loop starts by testing its induction
variables, and the registers it compares them with, below _GUARD.  An
address with a non-negative offset is tested with one compare of its
canonical form.

BINOP_FNS defines every operator; the generated code spells out all but
div and rem with the same arithmetic (ir.ranges) and calls BINOP_FNS for
those two.
interpret() and the timing simulator both run it.  The timing hooks see
each load and prefetch together with the fuel left, which tells the
simulator how many nodes have retired, so no hook runs per block.  Only
parameters are read from env; a register read before any definition
raises NameError, and the validator rejects such programs.

Each distinct memory input is built once: pristine_image fills the data
segments straight into one image, splitmix64 chunks included, takes its
sha256 once, and keeps the last two images it built.  init_memory hands
out a fresh copy of one; the simulator reads a program that never
stores from the shared image itself, through a read-only view.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from typing import NamedTuple

from .ranges import Facts, Ranges
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

_STRUCTS = {w: struct.Struct(f"<{c}") for w, c in ((2, "H"), (4, "I"), (8, "Q"))}


def _address_fault(kind: str, base: int, offset: int, mem_size: int,
                   node_id: int) -> DirRuntimeError:
    """The fault of a load or store at the signed address base + offset,
    base canonical, outside [0, mem_size)."""
    return DirRuntimeError(f"{kind} address {to_signed(base) + offset}"
                           f" out of [0, {mem_size})", node_id)


_NAMESPACE = {
    "_Err": DirRuntimeError,
    "_oob": _address_fault,
    "_div": _sdiv,
    "_rem": _srem,
    **{f"_ld{w}": s.unpack_from for w, s in _STRUCTS.items()},
    **{f"_st{w}": s.pack_into for w, s in _STRUCTS.items()},
}


class CompiledFunction:
    """A function and the Python code generated for it.

    run(env, mem, output, block_counts, fuel, mem_size, on_load=None,
    on_prefetch=None) executes one invocation against shared memory and
    output.  block_counts is keyed by block label; every node of a block
    retires each time the block runs.  Parameters are read from env on
    entry, and the registers the call assigns are written back to env,
    in canonical form, when it returns; the caller decides what to do
    with them.  fuel is a one-element list holding the nodes the call
    may still retire.  Hooks, both optional:
    on_load observes (instr_id, addr, fuel_left) for every executed load,
    and on_prefetch the same for in-bounds prefetches (out-of-bounds ones
    are dropped, never faulted).  fuel_left is the fuel after every node
    of the current block has been charged, so the fuel passed in minus it
    is the number of nodes this call has retired, counted a whole block
    at a time.  A loop's fast copy (see _Source.arm) shows all of this as
    the per-block code does; only an exception that a hook raises, or a
    NameError, leaves the trip it cuts short uncharged and uncounted.
    Parameters must be canonical, as the write-back leaves them, and all
    bound: a loop's trip guard (see _Source.arm) may read one that the
    trip does not.  loads pairs each block that loads with its number of
    loads, so a run's executed loads are its block counts times these;
    prefetches tells whether the function has a prefetch.  A function
    with neither calls no hook.

    run is fn's fast code: the fast copy of each small loop arm, and the
    per-block code of every other arm.  A trip that a fast copy does not
    take (it starts with less fuel than the arm's longest path, or a
    guard fails) ends run's own loop, so that its finally flushes the
    counts and the fuel, and then hands the call over to per_block, fn's
    code with no fast copy, which starts at that arm with the registers
    bound so far and finishes the call.  per_block is None until the
    first handover builds it; it is kept from then on.  So fn must not
    change once it is compiled.
    """

    __slots__ = ("fn", "run", "per_block", "loads", "prefetches")

    def __init__(self, fn: Function):
        self.fn = fn
        self.run = _build(fn, self._hand_over)
        self.per_block = None
        self.loads = tuple((blk.label, n) for blk in fn.blocks
                           if (n := sum(isinstance(i, Load) for i in blk.body)))
        self.prefetches = any(isinstance(n, Prefetch) for n in fn.nodes())

    def _hand_over(self, *call) -> None:
        """Finish a call of run from the start of the trip it handed over."""
        if self.per_block is None:
            self.per_block = _build(self.fn, None)
        self.per_block(*call)


def _signed(r: str) -> str:
    return f"({r} - {_U64:#x} if {r} >= {_H64:#x} else {r})"


def _address(base: str, offset: int) -> str:
    return f"{_signed(base)} + {offset}" if offset else _signed(base)


# Each inlined brcond target nests one level deeper than its branch.
# A block that would sit deeper gets its own arm instead, which keeps the
# generated code well inside the nesting limits of Python's parser.
MAX_NEST = 40
# An arm that jumps back to its own root gets a fast copy (see _Source.arm)
# when it enters at most this many blocks; a longer loop body is written
# and compiled once.
MAX_FAST = 32
# A fast trip also starts only while its guarded registers are below this
# (Ranges.guards), so that their sums and products stay well inside 64 bits.
_GUARD = 1 << 32


class _Source:
    """The generated source of one function.

    Arms are numbered in the order they are found: the entry, then every
    other block entered by more or fewer than one CFG edge or by a
    self-loop, in block order, then any block that MAX_NEST pushes out.
    Every other block is written out where its one edge is taken.

    A path is the blocks entered since the arm's root, a linked list of
    (label, fuel charged from the root through it, the rest) or None.

    With fast_loops, the source is of run, the function compile_function
    builds; without, of the per-block function that run hands a call
    over to (see CompiledFunction).
    """

    def __init__(self, fn: Function, blocks: dict, fast_loops: bool = True):
        self.params = fn.params
        self.blocks = blocks
        self.fast_loops = fast_loops
        self.index = {label: k for k, label in enumerate(blocks)}
        self.entry = fn.blocks[0].label
        self.ranges = Ranges(fn.params, self.entry, blocks)
        # Each phi's values by predecessor, built once per block, not per edge.
        self.incoming = {label: [(phi.dst, dict(phi.incoming)) for phi in blk.phis]
                         for label, blk in blocks.items() if blk.phis}
        # register -> local name.  The parameters and the registers that
        # nodes define come first, numbered alike in both functions, so a
        # handover passes run's locals() as they are.
        self.regs: dict[str, str] = {
            r: f"r{k}" for k, r in enumerate(dict.fromkeys([*fn.params, *self.ranges.defs]))}
        self.held = tuple(self.regs.values())  # what a call may have bound
        self.defs = tuple((r, self.regs[r]) for r in self.ranges.defs)
        edges = dict.fromkeys(blocks, 0)
        for label, blk in blocks.items():
            for target in successors(blk):
                if target in edges:
                    edges[target] += 1
        self.roots = [label for label, blk in blocks.items()
                      if label == self.entry or edges[label] != 1
                      or label in successors(blk)]
        self.arms = {label: n for n, label in enumerate(self.roots)}
        self.lines: list[str] = []  # the copy being written
        self.fast = False  # whether that is a fast copy
        self.path: tuple | None = None  # the path being written
        self.charged = 0  # the fuel of the path that the fast copy has subtracted
        self.facts: Facts | None = None  # the bounds the path shows
        self.top = 0  # the most fuel a path of the copy charges
        self.trips: list[tuple] = []  # the path of each trip counter

    def emit(self, depth: int, line: str) -> None:
        # One space per level: an arm nests up to MAX_NEST deep, so wider
        # indentation would be most of the source that compile() reads.
        self.lines.append(" " * depth + line)

    def reg(self, name: str) -> str:
        return self.regs.setdefault(name, f"r{len(self.regs)}")

    def val(self, v: Operand) -> str:
        return self.reg(v) if isinstance(v, str) else str(v & M64)

    def labels(self, path):
        """The blocks of path, last first."""
        while path is not None:
            yield path[0]
            path = path[2]

    def text(self) -> str:
        """The function's source."""
        arms = self.all_arms()
        body: list[str] = []
        _dispatch(arms, 0, len(arms), 3, body)
        self.lines, self.fast, self.path = [], False, None
        counts = ", ".join(f"c{k}" for k in range(len(self.blocks)))
        trips = "".join(f" = p{j}" for j in range(len(self.trips)))
        if self.fast_loops:
            entry = self.blocks[self.entry]
            if entry.phis:
                # The call enters the entry by no edge.
                self.fault(2, entry, f"phi executed on function entry in {self.entry!r}")
            call = ("env, mem, output, block_counts, fuel, mem_size,"
                    " on_load=None, on_prefetch=None")
            bind = [*(f" if {name!r} in env: {self.regs[name]} = env[{name!r}]"
                      for name in self.params), " b = 0"]
        else:
            # A handover gives the arm to start at and run's locals().
            call = ("b, regs, env, mem, output, block_counts, fuel, mem_size,"
                    " on_load, on_prefetch")
            bind = [f" if {r!r} in regs: {r} = regs[{r!r}]" for r in self.held]
        head = [f"def run({call}):", " out = output.append", " f = fuel[0]",
                f" {counts.replace(',', ' =')}{trips} = 0", *bind,
                " try:", *self.lines, "  while True:"]
        # Each trip counter adds its trips to the blocks on its path.
        on_path: dict[int, list[str]] = {}
        for j, path in enumerate(self.trips):
            for label in self.labels(path):
                on_path.setdefault(self.index[label], []).append(f"p{j}")
        tail = [" finally:",
                *(f"  c{k} += {' + '.join(ps)}" for k, ps in sorted(on_path.items())),
                "  fuel[0] = f",
                f"  for label, c in zip(_labels, ({counts},)):",
                "   if c:",
                "    block_counts[label] = block_counts.get(label, 0) + c"]
        if self.trips:
            # A fast copy's else sets b below -1: the call goes on in the
            # per-block function, now that its counts and fuel are flushed.
            tail += [" if b < -1:",
                     "  return _hand_over(-2 - b, locals(), env, mem, output,"
                     " block_counts, fuel, mem_size, on_load, on_prefetch)"]
        # Registers the call never assigned stay out of env.
        tail += [" bound = locals()",
                 " for name, r in _defs:",
                 "  if r in bound:",
                 f"   env[name] = bound[r] & {M64:#x}"]
        return "\n".join(head + body + tail) + "\n"

    def all_arms(self) -> list[list[str]]:
        """Every arm's code, in arm order; writing an arm may add roots."""
        arms: list[list[str]] = []
        while len(arms) < len(self.roots):
            arms.append(self.arm(self.roots[len(arms)]))
        return arms

    def arm(self, root: str) -> list[str]:
        """The code of the arm that starts at root, at depth 0.

        The per-block copy counts each block's entry and charges its fuel
        as the block starts.  With fast_loops, an arm whose code jumps
        back to root and that enters at most MAX_FAST blocks gets a fast
        copy instead:

            while f >= K and r < _GUARD ...:
                <the fast copy>
            else:
                b = -2 - b
            if b < 0:
                break
            continue

        K is the most fuel that any path from root to a leaf (a continue,
        a break or a raise) charges, so no block runs out of fuel on a
        trip that starts with f >= K, and the fast copy leaves out every
        per-block count, charge and test.  Each of its leaves subtracts
        what its path's fuel still owes: all of it, unless a block on the
        path loads or prefetches, which first subtracts the path's fuel
        through that block, so that its hooks see f itself, the value
        the per-block copy passes them.  A trip back to root adds 1 to
        its trip counter, which the finally adds to each block on its
        path, and loops in place.  Any other leaf counts its path's
        blocks itself and raises, or leaves the loop with b set to the
        next arm (-1 after a ret).  Each r is a register that Ranges.guards
        picks, which the fast copy's bounds then take to be below _GUARD.
        A trip that starts with less fuel, or a guard failed, leaves the
        dispatch loop with b = -2 - root's arm, and the code after the
        finally hands the call over to the per-block function (see
        CompiledFunction), which runs that trip; no per-block copy of the
        arm is written.
        """
        if self.fast_loops:
            inside, back = self.shape(root)
            if back and len(inside) <= MAX_FAST:
                guards = self.ranges.guards(self.blocks[root], back, inside, _GUARD)
                fast = self.copy(root, True,
                                 dict.fromkeys(guards, (_GUARD - 1).bit_length()))
                loop = "".join([f"while f >= {self.top}",
                                *(f" and {self.reg(r)} < {_GUARD:#x}" for r in guards), ":"])
                return [loop, *(" " + line for line in fast),
                        "else:", " b = -2 - b", "if b < 0:", " break", "continue"]
        return self.copy(root, False, {})

    def shape(self, root: str) -> tuple[list[str], set[str]]:
        """The blocks that the arm at root enters, in the order copy
        writes them, and those whose edges jump back to root; it adds
        the arms that MAX_NEST pushes out as copy would."""
        inside, back = [], set()
        todo = [(root, 0, None)]
        while todo:
            label, d, prev = todo.pop()
            blk = self.blocks.get(label)
            if blk is None:
                continue
            if prev is not None:
                if any(prev not in inc for _, inc in self.incoming.get(label, ())):
                    inside.append(label)  # the fault of a missing phi value
                    continue
                if label in self.arms or d > MAX_NEST:
                    self.arm_of(label)
                    if label == root:
                        back.add(prev)
                    continue
            inside.append(label)
            t = blk.term
            if isinstance(t, Br):
                todo.append((t.target, d, label))
            elif isinstance(t, BrCond):
                todo.append((t.if_false, d, label))
                todo.append((t.if_true, d + 1, label))
        return inside, back

    def arm_of(self, label: str) -> int:
        """label's arm, added after every other when it has none."""
        if label not in self.arms:
            self.arms[label] = len(self.roots)
            self.roots.append(label)
        return self.arms[label]

    def copy(self, root: str, fast: bool, known: dict[str, int]) -> list[str]:
        """One copy of the arm that starts at root, at depth 0, where
        known gives the bounds that hold as a trip starts.

        A stack of (label, depth, the block jumping there, the path
        there, the fuel of it charged, its Facts) stands in for
        recursion, so a long chain of inlined blocks costs no Python
        stack.  Each edge first moves the target's phi values, then jumps
        to the target's arm or writes the target inline.  A brcond writes its true target inside
        an if and its false target after it; every path ends in continue,
        break or raise, so nothing falls through.
        """
        self.lines, self.fast, self.top = [], fast, 0
        todo = [(root, 0, None, None, 0, Facts(self.ranges, known))]
        while todo:
            label, d, prev, self.path, self.charged, self.facts = todo.pop()
            if label not in self.blocks:
                self.leave(d, "raise", f"raise KeyError({label!r})")
                continue
            blk = self.blocks[label]
            if prev is not None:
                if not self.moves(d, prev, blk):
                    continue
                if label in self.arms or d > MAX_NEST:
                    jump = f"b = {self.arm_of(label)}"
                    if label == root:
                        self.leave(d, "trip", *(() if fast else (jump,)), "continue")
                    else:
                        self.leave(d, "exit", jump, "break" if fast else "continue")
                    continue
            t = self.block(d, blk)
            if t is None:
                continue
            at = (label, self.path, self.charged)
            if isinstance(t, Br):
                todo.append((t.target, d, *at, self.facts))
            else:
                self.emit(d, f"if {self.reg(t.cond)}:")
                todo.append((t.if_false, d, *at, self.facts.fork()))
                todo.append((t.if_true, d + 1, *at, self.facts))
        return self.lines

    def leave(self, d: int, kind: str, *lines: str) -> None:
        """End the path being written with lines.  kind is "trip" for a
        jump back to the arm's root, "raise" or "exit"; a fast copy first
        charges the path's fuel still owed and counts its blocks."""
        self.top = max(self.top, self.path[1])
        if self.fast:
            if self.path[1] > self.charged:
                self.emit(d, f"f -= {self.path[1] - self.charged}")
            if kind == "trip":
                self.emit(d, f"p{len(self.trips)} += 1")
                self.trips.append(self.path)
            else:
                for label in self.labels(self.path):
                    self.emit(d, f"c{self.index[label]} += 1")
        for line in lines:
            self.emit(d, line)

    def moves(self, d: int, prev: str, blk) -> bool:
        """Assign blk's phis, all at once, the values of the edge from
        prev; False when the edge has none, after writing the fault."""
        incoming = self.incoming.get(blk.label, ())
        missing = [dst for dst, inc in incoming if prev not in inc]
        if missing:
            self.fault(d, blk, f"phi %{missing[0]} has no incoming"
                               f" for predecessor {prev!r}")
            return False
        if incoming:
            dsts, vals = [dst for dst, _ in incoming], [inc[prev] for _, inc in incoming]
            self.emit(d, f"{', '.join(map(self.reg, dsts))} = {', '.join(map(self.val, vals))}")
            self.facts.move(dsts, vals)
        return True

    def enter(self, d: int, blk) -> None:
        """Add blk to the path; the per-block copy counts its entry and
        charges its nodes' fuel here."""
        n = len(blk.phis) + len(blk.body) + 1
        self.path = (blk.label, n + (self.path[1] if self.path else 0), self.path)
        if self.fast:
            return
        self.emit(d, f"c{self.index[blk.label]} += 1")
        self.emit(d, f"f -= {n}")
        self.emit(d, "if f < 0:")
        msg = f"fuel exhausted in block {blk.label!r}"
        self.emit(d + 1, f"raise _Err({msg!r})")

    def fault(self, d: int, blk, msg: str) -> None:
        """Enter blk and raise msg, the fault of an edge into it."""
        self.enter(d, blk)
        self.leave(d, "raise", f"raise _Err({msg!r})")

    def address(self, d: int, reg: str, offset: int) -> tuple[str, bool]:
        """Write the address reg + offset; returns its expression and
        whether it is the canonical address.

        reg is canonical.  With 0 <= offset < 2**63 the canonical sum is
        the signed address whenever that lies in [0, 2**64), and at or
        past 2**63, so past memory, whenever the signed address is
        negative: one compare tests it; a sum that stays below 2**64
        needs no reduction.  Other offsets get the signed address itself.
        """
        base = self.reg(reg)
        if not 0 <= offset < _H64:
            self.emit(d, f"a = {_address(base, offset)}")
            return "a", False
        if not offset:
            return base, True
        a = f"{base} + {offset}"
        self.emit(d, f"a = {a}" if self.facts.bits(reg) < 64 else f"a = ({a}) & {M64:#x}")
        return "a", True

    def block(self, d: int, blk):
        """Write the block up to its terminator; returns a br or brcond
        for the caller to follow, or None after a ret."""
        emit, facts = self.emit, self.facts
        self.enter(d, blk)
        for ins in blk.body:
            if (self.fast and isinstance(ins, (Load, Prefetch))
                    and self.charged < self.path[1]):
                # Its hook must see the fuel left after this block.
                emit(d, f"f -= {self.path[1] - self.charged}")
                self.charged = self.path[1]
            if isinstance(ins, Const):
                emit(d, f"{self.reg(ins.dst)} = {ins.value & M64}")
                facts.set(ins.dst, (ins.value & M64).bit_length())
            elif isinstance(ins, BinOp):
                a, b = self.val(ins.a), self.val(ins.b)
                if ins.op in ("div", "rem"):
                    emit(d, f"if {b} == 0:")
                    self.leave(d + 1, "raise", f"raise _Err('division by zero', {ins.id})")
                emit(d, f"{self.reg(ins.dst)} = {facts.binop(ins, a, b)}")
            elif isinstance(ins, (Load, Store)):
                kind = "load" if isinstance(ins, Load) else "store"
                a, canonical = self.address(d, ins.base, ins.offset)
                test = "" if canonical else f"{a} < 0 or "
                emit(d, f"if {test}{a} + {ins.width} > mem_size:")
                self.leave(d + 1, "raise", f"raise _oob({kind!r}, {self.reg(ins.base)},"
                                           f" {ins.offset}, mem_size, {ins.id})")
                if kind == "load":
                    emit(d, "if on_load is not None:")
                    emit(d + 1, f"on_load({ins.id}, {a}, f)")
                    read = f"mem[{a}]" if ins.width == 1 else f"_ld{ins.width}(mem, {a})[0]"
                    emit(d, f"{self.reg(ins.dst)} = {read}")
                    facts.set(ins.dst, 8 * ins.width)
                elif ins.width == 1:
                    emit(d, f"mem[{a}] = {self.reg(ins.src)} & 0xff")
                else:
                    mask = (1 << (8 * ins.width)) - 1
                    emit(d, f"_st{ins.width}(mem, {a}, {self.reg(ins.src)} & {mask:#x})")
            elif isinstance(ins, Prefetch):
                # Architectural no-op; only the timing model cares.
                emit(d, "if on_prefetch is not None:")
                a, canonical = self.address(d + 1, ins.base, ins.offset)
                emit(d + 1, f"if {a} < mem_size:" if canonical else
                     f"if 0 <= {a} < mem_size:")
                emit(d + 2, f"on_prefetch({ins.id}, {a}, f)")
            elif isinstance(ins, Out):
                emit(d, f"out({_signed(self.reg(ins.src))})")
            else:
                raise TypeError(f"cannot compile {ins!r}")
        if isinstance(blk.term, Ret):
            self.leave(d, "exit", *(("b = -1", "break") if self.fast else ("break",)))
            return None
        return blk.term


def _dispatch(arms: list[list[str]], lo: int, hi: int, depth: int,
              lines: list[str]) -> None:
    """A balanced if b < k tree over arms[lo:hi]."""
    if hi - lo == 1:
        lines.extend(" " * depth + line for line in arms[lo])
        return
    mid = (lo + hi) // 2
    lines.append(" " * depth + f"if b < {mid}:")
    _dispatch(arms, lo, mid, depth + 1, lines)
    lines.append(" " * depth + "else:")
    _dispatch(arms, mid, hi, depth + 1, lines)


def _build(fn: Function, hand_over):
    """Generate, compile and exec fn's code: with hand_over, run, whose
    handovers call it; with None, the per-block function."""
    blocks = {blk.label: blk for blk in fn.blocks}
    for label, blk in blocks.items():
        if not isinstance(blk.term, (Br, BrCond, Ret)):
            raise TypeError(f"block {label!r} lacks a terminator")
    src = _Source(fn, blocks, hand_over is not None)
    code = compile(src.text(), f"<dir @{fn.name}>", "exec")
    namespace = dict(_NAMESPACE, _labels=tuple(blocks), _defs=src.defs,
                     _hand_over=hand_over)
    exec(code, namespace)
    return namespace["run"]


def compile_function(fn: Function) -> CompiledFunction:
    """Generate the Python function that runs fn, and build it."""
    return CompiledFunction(fn)


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


def _splitmix_into(mem: bytearray, base: int, seed: int, length: int) -> None:
    """Write the first length bytes of the splitmix64 stream into
    mem[base:base + length], a chunk at a time."""
    pos, end = base, base + length
    for chunk in _splitmix_chunks(seed, (length + 7) // 8):
        n = min(len(chunk), end - pos)
        mem[pos:pos + n] = memoryview(chunk)[:n]
        pos += n


def splitmix_fill(seed: int, length: int) -> bytearray:
    """Deterministic byte fill from a 64-bit seed (splitmix64 stream)."""
    out = bytearray(length)
    _splitmix_into(out, 0, seed, length)
    return out


def default_mem_size(prog: Program) -> int:
    end = max((seg.end() for seg in prog.data), default=0)
    return max(4096, (end + 4095) // 4096 * 4096)


class Image(NamedTuple):
    """A program's pristine memory image and its sha256, taken once.

    Every caller shares it: read it through a read-only view, or copy
    it before writing.
    """
    mem: bytearray
    digest: str


# The pristine images built last, keyed by what they were built from,
# least recently used first.  A simulation that cannot store reads the
# shared image and makes no working copy, so a second cached image takes
# the memory of that copy; two let a sweep that alternates two inputs
# build each once.
_IMAGES_MAX = 2
_images: OrderedDict[tuple, Image] = OrderedDict()


def _build_image(prog: Program, mem_size: int) -> Image:
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
            _splitmix_into(mem, seg.base, seg.seed or 0, seg.length)
        else:
            raise DirRuntimeError(f"unknown data segment kind {seg.kind!r}")
    return Image(mem, memory_digest(mem))


def pristine_image(prog: Program, mem_size: int) -> Image:
    """The shared image holding the program's data segments; built once
    per distinct mem_size and segments while it stays cached."""
    key = (mem_size, tuple((seg.kind, seg.base, seg.length, seg.seed, seg.data)
                           for seg in prog.data))
    image = _images.get(key)
    if image is not None:
        _images.move_to_end(key)
        return image
    while len(_images) >= _IMAGES_MAX:
        _images.popitem(last=False)  # let it go before building the next
    image = _images[key] = _build_image(prog, mem_size)
    return image


def init_memory(prog: Program, mem_size: int) -> bytearray:
    """A fresh memory image holding the program's data segments."""
    return bytearray(pristine_image(prog, mem_size).mem)


def with_seed(prog: Program, seed: int) -> Program:
    """Copy of prog with the run seed mixed into every PRNG segment.

    Seed 0 is the identity, so plain interpret(p) agrees with seeded runs
    at seed 0.  The mix is XOR, keeping materialization deterministic.
    """
    if seed == 0:
        return prog
    mixed = prog.copy()
    for seg in mixed.data:
        if seg.kind == "prng":
            seg.seed = (seg.seed or 0) ^ (seed & M64)
    return mixed


def memory_digest(mem: bytearray) -> str:
    return hashlib.sha256(mem).hexdigest()


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
    cf.run(env, mem, output, counts, [fuel], mem_size)
    blocks = entry.block_map()
    retired: dict[int, int] = {}
    for label, n in counts.items():
        blk = blocks[label]
        for node in (*blk.phis, *blk.body, blk.term):
            retired[node.id] = retired.get(node.id, 0) + n
    return ExecTrace(output=output, memory_digest=memory_digest(mem),
                     retired_by_static_id=retired)
