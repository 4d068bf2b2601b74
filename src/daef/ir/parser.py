"""Text-format parser for DIR programs.

The accepted grammar is documented in docs/ir.md.  Parsing is permissive
about registers and labels (undefined names are the validator's job) but
strict about shape: every block needs a terminator, labels may not repeat,
and instruction ids given via !id= must not collide.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .types import (
    BINOP_OPS,
    FUNCTION_KINDS,
    LOAD_WIDTHS,
    SYNTAX,
    Block,
    Br,
    BrCond,
    DataSegment,
    DirSyntaxError,
    Form,
    Function,
    Load,
    Node,
    Operand,
    Phi,
    Prefetch,
    Program,
    Ret,
)

_TOKEN_RE = re.compile(
    r"%[A-Za-z_][A-Za-z0-9_.]*"  # register
    r"|@[A-Za-z_][A-Za-z0-9_.]*"  # function / base name
    r"|-?[0-9]+"  # integer
    r"|[A-Za-z_][A-Za-z0-9_.]*"  # bare word
    r"|[{}()\[\]:,=!]"  # punctuation
)

_WIDTHS = {f"w{w}": w for w in LOAD_WIDTHS}

# Each kind by whether it is written after "%reg =", and its keyword.
_KINDS = {(any(f == Form.DEF for _, f in fields), keyword): kind
          for kind, (keyword, fields) in SYNTAX.items()}

_U64 = 1 << 64
_I64_MIN = -(1 << 63)


def _to_signed(v: int) -> int:
    return (v - _I64_MIN) % _U64 + _I64_MIN


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        hash_at = line.find("#")
        if hash_at >= 0:
            line = line[:hash_at]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise DirSyntaxError(
                    f"unexpected character {line[pos]!r}", lineno, pos + 1
                )
            toks.append(_Tok(m.group(0), lineno, m.start() + 1))
            pos = m.end()
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> str | None:
        i = self.pos + ahead
        return self.toks[i].text if i < len(self.toks) else None

    def next(self) -> _Tok:
        if self.pos >= len(self.toks):
            last = self.toks[-1] if self.toks else _Tok("", 1, 1)
            raise DirSyntaxError("unexpected end of input", last.line, last.col)
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str) -> DirSyntaxError:
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
        elif self.toks:
            t = self.toks[-1]
        else:
            t = _Tok("", 1, 1)
        return DirSyntaxError(message, t.line, t.col)

    def expect(self, text: str) -> _Tok:
        if self.peek() != text:
            raise self.fail(f"expected {text!r}, found {self.peek()!r}")
        return self.next()

    def skip_comma(self) -> None:
        if self.peek() == ",":
            self.next()

    def expect_int(self) -> int:
        t = self.next()
        try:
            return int(t.text)
        except ValueError:
            raise DirSyntaxError(f"expected integer, found {t.text!r}", t.line, t.col)

    def expect_reg(self) -> str:
        t = self.next()
        if not t.text.startswith("%"):
            raise DirSyntaxError(f"expected register, found {t.text!r}", t.line, t.col)
        return t.text[1:]

    def expect_at_name(self) -> str:
        t = self.next()
        if not t.text.startswith("@"):
            raise DirSyntaxError(f"expected @name, found {t.text!r}", t.line, t.col)
        return t.text[1:]

    def expect_word(self) -> str:
        t = self.next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", t.text):
            raise DirSyntaxError(f"expected name, found {t.text!r}", t.line, t.col)
        return t.text

    # -- program structure -------------------------------------------------

    def parse_program(self) -> Program:
        prog = Program()
        explicit_entry: str | None = None
        while self.peek() is not None:
            head = self.peek()
            if head == "data":
                prog.data.append(self.data_segment())
            elif head == "entry":
                self.next()
                explicit_entry = self.expect_at_name()
            elif head == "func":
                prog.functions.append(self.function())
            else:
                raise self.fail(f"expected 'data', 'entry' or 'func', found {head!r}")
        if explicit_entry is not None:
            prog.entry = explicit_entry
        elif prog.functions:
            prog.entry = prog.functions[0].name
        self._assign_ids(prog)
        return prog

    def data_segment(self) -> DataSegment:
        self.expect("data")
        base_tok = self.next()
        if base_tok.text != "@base":
            raise DirSyntaxError(
                f"expected @base, found {base_tok.text!r}", base_tok.line, base_tok.col
            )
        self.expect("=")
        base = self.expect_int()
        kind_tok = self.next()
        kind = kind_tok.text
        if kind == "zero":
            self.expect("=")
            length = self.expect_int()
            seg = DataSegment(base=base, kind="zero", length=length)
        elif kind == "bytes":
            self.expect("=")
            self.expect("[")
            values: list[int] = []
            while self.peek() != "]":
                v = self.expect_int()
                if not 0 <= v <= 255:
                    raise self.fail("byte value out of range 0..255")
                values.append(v)
                self.skip_comma()
            self.expect("]")
            seg = DataSegment(base=base, kind="bytes", length=len(values), data=bytes(values))
        elif kind == "prng":
            self.expect("(")
            self.expect("seed")
            self.expect("=")
            seed = self.expect_int() % _U64
            self.skip_comma()
            self.expect("len")
            self.expect("=")
            length = self.expect_int()
            self.expect(")")
            seg = DataSegment(base=base, kind="prng", length=length, seed=seed)
        else:
            raise DirSyntaxError(
                f"expected zero=, bytes= or prng(...), found {kind!r}",
                kind_tok.line,
                kind_tok.col,
            )
        if seg.base < 0 or seg.length < 0:
            raise self.fail("data segment base and length must be non-negative")
        return seg

    def function(self) -> Function:
        self.expect("func")
        name = self.expect_at_name()
        self.expect("(")
        params: list[str] = []
        while self.peek() != ")":
            params.append(self.expect_reg())
            self.skip_comma()
        self.expect(")")
        self.expect("kind")
        self.expect("=")
        kind_tok = self.next()
        if kind_tok.text not in FUNCTION_KINDS:
            raise DirSyntaxError(
                f"unknown function kind {kind_tok.text!r}", kind_tok.line, kind_tok.col
            )
        fn = Function(name=name, params=params, kind=kind_tok.text)
        self.expect("{")
        seen_labels: set[str] = set()
        while self.peek() != "}":
            fn.blocks.append(self.block(seen_labels))
        self.expect("}")
        if not fn.blocks:
            raise self.fail(f"function @{name} has no blocks")
        return fn

    def block(self, seen_labels: set[str]) -> Block:
        label_tok = self.next()
        label = label_tok.text
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", label):
            raise DirSyntaxError(
                f"expected block label, found {label!r}", label_tok.line, label_tok.col
            )
        if label in seen_labels:
            raise DirSyntaxError(
                f"duplicate label {label!r}", label_tok.line, label_tok.col
            )
        seen_labels.add(label)
        self.expect(":")
        blk = Block(label=label)
        while True:
            head = self.peek()
            if head is None or head == "}" or self.peek(1) == ":":
                raise self.fail(f"block {label!r} has no terminator")
            node = self.node()
            if isinstance(node, Phi):
                if blk.body:
                    raise self.fail("phi after non-phi instruction")
                blk.phis.append(node)
            elif isinstance(node, (Br, BrCond, Ret)):
                blk.term = node
                return blk
            else:
                blk.body.append(node)

    # -- nodes, as SYNTAX declares them ------------------------------------

    def node(self) -> Node:
        dst = None
        if self.peek().startswith("%"):
            dst = self.expect_reg()
            self.expect("=")
        kw = self.next()
        kind = _KINDS.get((dst is not None, kw.text))
        if kind is None:
            raise DirSyntaxError(
                f"unknown instruction {kw.text!r}" if dst is not None
                else f"expected instruction, found {kw.text!r}", kw.line, kw.col)
        values = {}
        operands = 0
        for name, form in SYNTAX[kind][1]:
            if form == Form.DEF:
                values[name] = dst
                continue
            if form != Form.OP:
                if operands:
                    self.skip_comma()
                operands += 1
            values[name] = self.field(form)
        node = kind(id=-1, **values)
        self.metadata(node)
        return node

    def field(self, form: str):
        """Read one field written in the given form."""
        if form == Form.OPT_VALUE:
            # A register here is the value unless it starts the next
            # instruction (which would make the following token an '=').
            nxt = self.peek() or ""
            if not (nxt.startswith("%") and self.peek(1) != "="
                    or re.fullmatch(r"-?[0-9]+", nxt)):
                return None
            form = Form.VALUE
        if form == Form.REG or (form == Form.VALUE
                                and (self.peek() or "").startswith("%")):
            return self.expect_reg()
        if form in (Form.INT, Form.VALUE):
            return _to_signed(self.expect_int())
        if form == Form.LABEL:
            return self.expect_word()
        if form == Form.OP:
            op = self.expect_word()
            if op not in BINOP_OPS:
                raise self.fail(f"unknown binop {op!r}")
            return op
        if form == Form.WIDTH:
            t = self.next()
            if t.text not in _WIDTHS:
                raise DirSyntaxError(
                    f"expected width w1/w2/w4/w8, found {t.text!r}", t.line, t.col
                )
            return _WIDTHS[t.text]
        incoming: list[tuple[str, Operand]] = []  # Form.INCOMING
        while self.peek() == "[":
            self.next()
            pred = self.expect_word()
            self.expect(":")
            value = self.field(Form.VALUE)
            self.expect("]")
            incoming.append((pred, value))
            self.skip_comma()
        return incoming

    def metadata(self, node) -> None:
        while self.peek() == "!":
            self.next()
            key = self.expect_word()
            self.expect("=")
            value = self.expect_int()
            if key == "id":
                node.id = value
            elif key == "origin":
                if not isinstance(node, (Load, Prefetch)):
                    raise self.fail("!origin= is only valid on load and prefetch")
                node.origin = value
            else:
                raise self.fail(f"unknown metadata key {key!r}")

    # -- id assignment -----------------------------------------------------

    def _assign_ids(self, prog: Program) -> None:
        used: set[int] = set()
        for fn in prog.functions:
            for n in fn.nodes():
                if n.id >= 0:
                    used.add(n.id)
        counter = 0
        for fn in prog.functions:
            for n in fn.nodes():
                if n.id < 0:
                    while counter in used:
                        counter += 1
                    n.id = counter
                    used.add(counter)


def parse_program(text: str) -> Program:
    """Parse DIR source text into a Program.

    Raises DirSyntaxError with line and column on malformed input.  Nodes
    without an explicit !id= get fresh ids in layout order, skipping any
    ids claimed explicitly elsewhere in the program.
    """
    return _Parser(_tokenize(text)).parse_program()
