"""Canonical text output for DIR programs.

print_program is deterministic: the same in-memory program always yields
byte-identical text, and parsing that text reconstructs an equal program
(ids included, since every node is printed with its !id= suffix).
"""

from __future__ import annotations

import hashlib

from .types import (
    BinOp,
    Block,
    Br,
    BrCond,
    Const,
    DataSegment,
    Function,
    Load,
    Node,
    Operand,
    Out,
    Phi,
    Prefetch,
    Program,
    Ret,
    Store,
)


def _operand(v: Operand) -> str:
    return f"%{v}" if isinstance(v, str) else str(v)


def _meta(n: Node, with_ids: bool) -> str:
    parts = []
    if with_ids:
        parts.append(f"!id={n.id}")
    origin = getattr(n, "origin", None)
    if origin is not None:
        parts.append(f"!origin={origin}")
    return (" " + " ".join(parts)) if parts else ""


def format_node(n: Node, with_ids: bool = True) -> str:
    if isinstance(n, Const):
        text = f"%{n.dst} = const {n.value}"
    elif isinstance(n, BinOp):
        text = f"%{n.dst} = binop {n.op} {_operand(n.a)}, {_operand(n.b)}"
    elif isinstance(n, Load):
        text = f"%{n.dst} = load %{n.base}, {n.offset}, w{n.width}"
    elif isinstance(n, Store):
        text = f"store %{n.base}, {n.offset}, %{n.src}, w{n.width}"
    elif isinstance(n, Prefetch):
        text = f"prefetch %{n.base}, {n.offset}"
    elif isinstance(n, Out):
        text = f"out %{n.src}"
    elif isinstance(n, Phi):
        inc = ", ".join(f"[{pred}: {_operand(v)}]" for pred, v in n.incoming)
        text = f"%{n.dst} = phi {inc}" if inc else f"%{n.dst} = phi"
    elif isinstance(n, Br):
        text = f"br {n.target}"
    elif isinstance(n, BrCond):
        text = f"brcond %{n.cond}, {n.if_true}, {n.if_false}"
    elif isinstance(n, Ret):
        text = "ret" if n.value is None else f"ret {_operand(n.value)}"
    else:
        raise TypeError(f"unprintable node {n!r}")
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
    chunks: list[str] = []
    for seg in prog.data:
        chunks.append(_segment(seg))
    if prog.entry:
        chunks.append(f"entry @{prog.entry}")
    for fn in prog.functions:
        chunks.append(print_function(fn, with_ids))
    return "\n".join(chunks) + "\n"


def program_digest(prog: Program) -> str:
    """sha256 of the program's canonical text: the identity that profiles
    and simulation reports carry."""
    return hashlib.sha256(print_program(prog).encode()).hexdigest()
