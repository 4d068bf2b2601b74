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


class Form:
    """The forms of a node's fields in the text format.  A DEF field is
    written "%reg =" before the node's keyword, so it comes first, and an
    OP field right after the keyword.  The other forms are operands,
    separated by commas."""
    DEF = "def"  # the register the node defines
    OP = "op"  # a name from BINOP_OPS
    REG = "reg"  # a register the node reads
    VALUE = "value"  # a register the node reads, or an integer
    INT = "int"  # an integer
    LABEL = "label"  # a block the terminator may jump to
    WIDTH = "width"  # a width from LOAD_WIDTHS, written w1 to w8
    INCOMING = "incoming"  # a phi's [label: value] entries; it reads the values
    OPT_VALUE = "opt_value"  # an optional VALUE (ret's)


# Each node kind's keyword and its fields in written order, with their
# forms.  The parser, the printer, node_uses, node_def, successors and
# retarget read this table and nothing else about a kind's syntax.
SYNTAX: dict[type, tuple[str, tuple[tuple[str, str], ...]]] = {
    Phi: ("phi", (("dst", Form.DEF), ("incoming", Form.INCOMING))),
    Const: ("const", (("dst", Form.DEF), ("value", Form.INT))),
    BinOp: ("binop", (("dst", Form.DEF), ("op", Form.OP), ("a", Form.VALUE),
                      ("b", Form.VALUE))),
    Load: ("load", (("dst", Form.DEF), ("base", Form.REG), ("offset", Form.INT),
                    ("width", Form.WIDTH))),
    Store: ("store", (("base", Form.REG), ("offset", Form.INT),
                      ("src", Form.REG), ("width", Form.WIDTH))),
    Prefetch: ("prefetch", (("base", Form.REG), ("offset", Form.INT))),
    Out: ("out", (("src", Form.REG),)),
    Br: ("br", (("target", Form.LABEL),)),
    BrCond: ("brcond", (("cond", Form.REG), ("if_true", Form.LABEL),
                        ("if_false", Form.LABEL))),
    Ret: ("ret", (("value", Form.OPT_VALUE),)),
}

# The table's roles by kind, for the operand helpers below, which run
# often: the fields a node reads (flagging a phi's entries) and its labels.
_READS = {kind: tuple((name, form == Form.INCOMING) for name, form in fields
                      if form in (Form.REG, Form.VALUE, Form.OPT_VALUE,
                                  Form.INCOMING))
          for kind, (_, fields) in SYNTAX.items()}
_LABELS = {kind: tuple(name for name, form in fields if form == Form.LABEL)
           for kind, (_, fields) in SYNTAX.items()}


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
    for name, incoming in _READS[type(n)]:
        v = getattr(n, name)
        if incoming:
            regs += [x for _, x in v if isinstance(x, str)]
        elif isinstance(v, str):
            regs.append(v)
    return regs


def node_def(n: Node) -> str | None:
    """Register defined by a node, if any."""
    name, form = SYNTAX[type(n)][1][0]
    return getattr(n, name) if form == Form.DEF else None


def successors(blk: Block) -> list[str]:
    """Labels the block's terminator may jump to, in operand order.

    Equal brcond targets both come back; a ret or a missing terminator
    gives an empty list.
    """
    t = blk.term
    return [] if t is None else [getattr(t, name) for name in _LABELS[type(t)]]


def retarget(term: Terminator, old: str, new: str) -> None:
    """Point each of the terminator's labels that names old at new."""
    for name in _LABELS[type(term)]:
        if getattr(term, name) == old:
            setattr(term, name, new)


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
