"""Core data types for DIR, the toolkit's register-based loop IR.

A program is a set of functions plus initialized data segments.  Functions
are lists of basic blocks; every block carries its phis, a straight-line
body, and exactly one terminator.  Instruction ids are integers and must be
unique across the whole program so that profiles and prefetch origin tags
can refer to instructions stably.

Program.copy, Function.copy, Block.copy and copy_node copy structurally:
fresh lists down to every phi's incoming list, and every node copied
field by field.  Node fields and data segments hold only ints, strings,
bytes and tuples, so nothing a copy holds is shared mutably.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Iterator, Union

# Registers are bare names ("acc", "i2"); the textual form adds the % sigil.
# An operand position accepts either a register name or a 64-bit immediate.
Operand = Union[str, int]

BINOP_OPS = (
    "add", "sub", "mul", "div", "rem",
    "and", "or", "xor", "shl", "shr",
    "slt", "sle", "seq",
)

LOAD_WIDTHS = (1, 2, 4, 8)

FUNCTION_KINDS = ("original", "access", "execute")


@dataclass
class Const:
    id: int
    dst: str
    value: int


@dataclass
class BinOp:
    id: int
    dst: str
    op: str
    a: Operand
    b: Operand


@dataclass
class Load:
    id: int
    dst: str
    base: str
    offset: int
    width: int
    # For loads cloned into an access phase: id of the original load.
    origin: int | None = None


@dataclass
class Store:
    id: int
    base: str
    offset: int
    src: str
    width: int


@dataclass
class Prefetch:
    id: int
    base: str
    offset: int
    # Required by the validator; names the original load this prefetch covers.
    origin: int | None = None


@dataclass
class Out:
    id: int
    src: str


@dataclass
class Phi:
    id: int
    dst: str
    # One (predecessor label, value) entry per CFG predecessor.
    incoming: list[tuple[str, Operand]] = field(default_factory=list)


Instruction = Union[Const, BinOp, Load, Store, Prefetch, Out]


@dataclass
class Br:
    id: int
    target: str


@dataclass
class BrCond:
    id: int
    cond: str
    if_true: str
    if_false: str


@dataclass
class Ret:
    id: int
    value: Operand | None = None


Terminator = Union[Br, BrCond, Ret]

Node = Union[Phi, Instruction, Terminator]


def copy_node(n: Node) -> Node:
    """A field-by-field copy; a phi gets its own incoming list."""
    c = type(n)(**vars(n))
    if isinstance(c, Phi):
        c.incoming = list(c.incoming)
    return c


@dataclass
class Block:
    label: str
    phis: list[Phi] = field(default_factory=list)
    body: list[Instruction] = field(default_factory=list)
    term: Terminator | None = None

    def copy(self) -> Block:
        return Block(self.label, [copy_node(p) for p in self.phis],
                     [copy_node(i) for i in self.body],
                     None if self.term is None else copy_node(self.term))


@dataclass
class Function:
    name: str
    params: list[str] = field(default_factory=list)
    blocks: list[Block] = field(default_factory=list)
    kind: str = "original"

    def copy(self) -> Function:
        return Function(self.name, list(self.params),
                        [b.copy() for b in self.blocks], self.kind)

    def block_map(self) -> dict[str, Block]:
        return {b.label: b for b in self.blocks}

    def nodes(self) -> Iterator[Node]:
        """All phis, body instructions, and terminators in layout order."""
        for b in self.blocks:
            yield from b.phis
            yield from b.body
            if b.term is not None:
                yield b.term

    def max_id(self) -> int:
        return max((n.id for n in self.nodes()), default=-1)

    def reachable(self, start: str, stop: Collection[str] = ()) -> set[str]:
        """Labels reachable from start without entering stop.

        Targets that name no block are skipped, so this also works on
        programs that fail validation.
        """
        bm = self.block_map()
        seen: set[str] = set()
        work = [start]
        while work:
            label = work.pop()
            if label in seen or label in stop or label not in bm:
                continue
            seen.add(label)
            work.extend(successors(bm[label]))
        return seen


@dataclass
class DataSegment:
    """Initialized memory region: explicit bytes, zero fill, or PRNG fill."""

    base: int
    kind: str  # "bytes" | "zero" | "prng"
    length: int
    data: bytes | None = None
    seed: int | None = None

    def end(self) -> int:
        return self.base + self.length


@dataclass
class Program:
    functions: list[Function] = field(default_factory=list)
    data: list[DataSegment] = field(default_factory=list)
    entry: str = ""

    def copy(self) -> Program:
        return Program([f.copy() for f in self.functions],
                       [replace(s) for s in self.data], self.entry)

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")

    def entry_function(self) -> Function:
        return self.function(self.entry)

    def max_id(self) -> int:
        return max((f.max_id() for f in self.functions), default=-1)


@dataclass
class ExecTrace:
    """Observable result of one execution: out values, final memory, counts."""

    output: list[int] = field(default_factory=list)
    memory_digest: str = ""
    retired_by_static_id: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Diagnostic:
    message: str
    function: str | None = None
    block: str | None = None
    instr_id: int | None = None

    def __str__(self) -> str:
        where = []
        if self.function is not None:
            where.append(f"@{self.function}")
        if self.block is not None:
            where.append(self.block)
        if self.instr_id is not None:
            where.append(f"!id={self.instr_id}")
        loc = ":".join(where)
        return f"{loc}: {self.message}" if loc else self.message


class DirError(Exception):
    """Base class for IR-level failures."""


class DirSyntaxError(DirError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DirRuntimeError(DirError):
    def __init__(self, message: str, instr_id: int | None = None):
        loc = f" (at !id={instr_id})" if instr_id is not None else ""
        super().__init__(message + loc)
        self.instr_id = instr_id


def node_uses(n: Node) -> list[str]:
    """Register names read by a node.  Phi reads cover all incoming values."""
    regs: list[str] = []

    def op(v: Operand | None) -> None:
        if isinstance(v, str):
            regs.append(v)

    if isinstance(n, BinOp):
        op(n.a)
        op(n.b)
    elif isinstance(n, Load):
        regs.append(n.base)
    elif isinstance(n, Store):
        regs.append(n.base)
        regs.append(n.src)
    elif isinstance(n, Prefetch):
        regs.append(n.base)
    elif isinstance(n, Out):
        regs.append(n.src)
    elif isinstance(n, Phi):
        for _, v in n.incoming:
            op(v)
    elif isinstance(n, BrCond):
        regs.append(n.cond)
    elif isinstance(n, Ret):
        op(n.value)
    return regs


def node_def(n: Node) -> str | None:
    """Register defined by a node, if any."""
    if isinstance(n, (Const, BinOp, Load, Phi)):
        return n.dst
    return None


def successors(blk: Block) -> list[str]:
    """Labels the block's terminator may jump to, in operand order.

    Equal brcond targets both come back; a ret or a missing terminator
    gives an empty list.
    """
    t = blk.term
    if isinstance(t, Br):
        return [t.target]
    if isinstance(t, BrCond):
        return [t.if_true, t.if_false]
    return []


def predecessors(fn: Function) -> dict[str, list[str]]:
    """Each block's distinct predecessors, in block order.

    Edges to labels that name no block are left out.
    """
    preds: dict[str, dict[str, None]] = {blk.label: {} for blk in fn.blocks}
    for blk in fn.blocks:
        for target in successors(blk):
            if target in preds:
                preds[target][blk.label] = None
    return {label: list(ps) for label, ps in preds.items()}
