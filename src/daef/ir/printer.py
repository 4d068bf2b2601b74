"""Canonical text output for DIR programs.

print_program is deterministic: the same in-memory program always yields
byte-identical text, and parsing that text reconstructs an equal program
(ids included, since every node is printed with its !id= suffix).
"""

from __future__ import annotations

import hashlib

from .types import (
    SYNTAX,
    Block,
    DataSegment,
    Form,
    Function,
    Node,
    Operand,
    Program,
)


def _operand(v: Operand) -> str:
    return f"%{v}" if isinstance(v, str) else str(v)


_WRITE = {Form.REG: "%{}".format, Form.VALUE: _operand, Form.OPT_VALUE: _operand,
          Form.INT: str, Form.LABEL: str, Form.WIDTH: "w{}".format}


def _meta(n: Node, with_ids: bool) -> str:
    parts = []
    if with_ids:
        parts.append(f"!id={n.id}")
    origin = getattr(n, "origin", None)
    if origin is not None:
        parts.append(f"!origin={origin}")
    return (" " + " ".join(parts)) if parts else ""


def format_node(n: Node, with_ids: bool = True) -> str:
    keyword, fields = SYNTAX[type(n)]
    head, operands = [keyword], []
    for name, form in fields:
        v = getattr(n, name)
        if form == Form.DEF:
            head.insert(0, f"%{v} =")
        elif form == Form.OP:
            head.append(v)
        elif form == Form.INCOMING:
            operands += [f"[{pred}: {_operand(x)}]" for pred, x in v]
        elif v is not None:
            operands.append(_WRITE[form](v))
    text = " ".join(head)
    if operands:
        text += " " + ", ".join(operands)
    return text + _meta(n, with_ids)


def _segment(seg: DataSegment) -> str:
    if seg.kind == "zero":
        return f"data @base={seg.base} zero={seg.length}"
    if seg.kind == "prng":
        return f"data @base={seg.base} prng(seed={seg.seed}, len={seg.length})"
    values = ", ".join(str(b) for b in (seg.data or b""))
    return f"data @base={seg.base} bytes=[{values}]"


def _block(blk: Block, with_ids: bool, lines: list[str]) -> None:
    lines.append(f"{blk.label}:")
    for phi in blk.phis:
        lines.append("  " + format_node(phi, with_ids))
    for instr in blk.body:
        lines.append("  " + format_node(instr, with_ids))
    if blk.term is not None:
        lines.append("  " + format_node(blk.term, with_ids))


def print_function(fn: Function, with_ids: bool = True) -> str:
    params = ", ".join(f"%{p}" for p in fn.params)
    lines = [f"func @{fn.name}({params}) kind={fn.kind} {{"]
    for blk in fn.blocks:
        _block(blk, with_ids, lines)
    lines.append("}")
    return "\n".join(lines)


def print_program(prog: Program, with_ids: bool = True) -> str:
    return _text(prog, prog.functions, with_ids)


def program_digest(prog: Program) -> str:
    """sha256 of the canonical text of what the program can run: its data
    and its entry function (DIR has no call), so a phase plan's program
    names its input.  The identity that profiles and reports carry."""
    text = _text(prog, [prog.entry_function()], True)
    return hashlib.sha256(text.encode()).hexdigest()


def _text(prog: Program, functions: list[Function], with_ids: bool) -> str:
    chunks = [_segment(seg) for seg in prog.data]
    if prog.entry:
        chunks.append(f"entry @{prog.entry}")
    chunks += (print_function(fn, with_ids) for fn in functions)
    return "\n".join(chunks) + "\n"
