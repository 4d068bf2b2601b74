"""Structural and dataflow validation for DIR programs.

validate_program returns a list of diagnostics; an empty list means the
program is well formed.  Checks cover data segment bounds (MAX_DATA_END),
label and id integrity, phi shape, access-phase purity, prefetch origin
tags, and assignment-before-use of every register along all paths (a
forward must-be-defined dataflow).
"""

from __future__ import annotations

from .types import (
    BINOP_OPS,
    FUNCTION_KINDS,
    LOAD_WIDTHS,
    BinOp,
    Diagnostic,
    Function,
    Load,
    Out,
    Prefetch,
    Program,
    Store,
    node_def,
    node_uses,
    predecessors,
    successors,
)

# Every data segment must end at or below this address: 64 MiB, 64x the
# largest built-in image, so no input can make init_memory allocate more.
MAX_DATA_END = 64 << 20


def _validate_function(fn: Function, diags: list[Diagnostic]) -> None:
    def diag(msg: str, block: str | None = None, instr_id: int | None = None) -> None:
        diags.append(Diagnostic(msg, function=fn.name, block=block, instr_id=instr_id))

    if fn.kind not in FUNCTION_KINDS:
        diag(f"unknown function kind {fn.kind!r}")
    if not fn.blocks:
        diag("function has no blocks")
        return

    labels: set[str] = set()
    for blk in fn.blocks:
        if blk.label in labels:
            diag(f"duplicate label {blk.label!r}", block=blk.label)
        labels.add(blk.label)

    # Structural checks per block.
    for blk in fn.blocks:
        if blk.term is None:
            diag("block has no terminator", block=blk.label)
        for target in successors(blk):
            if target not in labels:
                diag(f"undefined label {target!r}", block=blk.label,
                     instr_id=blk.term.id if blk.term else None)
        for instr in blk.body:
            if isinstance(instr, BinOp) and instr.op not in BINOP_OPS:
                diag(f"unknown binop {instr.op!r}", block=blk.label, instr_id=instr.id)
            if isinstance(instr, (Load, Store)) and instr.width not in LOAD_WIDTHS:
                diag(f"bad width {instr.width}", block=blk.label, instr_id=instr.id)
            if fn.kind == "access" and isinstance(instr, Store):
                diag("store in access phase", block=blk.label, instr_id=instr.id)
            if fn.kind == "access" and isinstance(instr, Out):
                diag("out in access phase", block=blk.label, instr_id=instr.id)
            if isinstance(instr, Prefetch) and instr.origin is None:
                diag("prefetch without origin tag", block=blk.label, instr_id=instr.id)

    preds = predecessors(fn)
    entry = fn.blocks[0]
    if preds[entry.label]:
        diag("entry block has predecessors", block=entry.label)

    # Phi shape: one incoming per predecessor, no extras or duplicates.
    for blk in fn.blocks:
        pred_set = set(preds[blk.label])
        for phi in blk.phis:
            seen: set[str] = set()
            for pred, _ in phi.incoming:
                if pred in seen:
                    diag(f"phi has duplicate incoming for {pred!r}",
                         block=blk.label, instr_id=phi.id)
                seen.add(pred)
                if pred not in pred_set:
                    diag(f"phi incoming from non-predecessor {pred!r}",
                         block=blk.label, instr_id=phi.id)
            for pred in sorted(pred_set - seen):
                diag(f"phi missing incoming for predecessor {pred!r}",
                     block=blk.label, instr_id=phi.id)

    reachable = fn.reachable(entry.label)
    for blk in fn.blocks:
        if blk.label not in reachable:
            diag("unreachable block", block=blk.label)

    _check_defined_before_use(fn, preds, reachable, diags)


def _check_defined_before_use(
    fn: Function,
    preds: dict[str, list[str]],
    reachable: set[str],
    diags: list[Diagnostic],
) -> None:
    """Must-be-defined forward dataflow over reachable blocks.

    A register set is an int bitset over the function's registers,
    numbered in first-seen order, so each block's state costs one bit
    per register.
    """
    index: dict[str, int] = {p: 0 for p in fn.params}
    for n in fn.nodes():
        d = node_def(n)
        if d is not None:
            index[d] = 0
        for use in node_uses(n):
            index[use] = 0
    for i, reg in enumerate(index):
        index[reg] = i
    universe = (1 << len(index)) - 1

    def bits(regs) -> int:
        m = 0
        for reg in regs:
            m |= 1 << index[reg]
        return m

    block_map = fn.block_map()
    entry_label = fn.blocks[0].label
    params = bits(fn.params)
    defined_out = {blk.label: universe for blk in fn.blocks}

    def avail_at_entry(label: str) -> int:
        if label == entry_label:
            return params
        avail = universe
        for p in preds[label]:
            if p in reachable:
                avail &= defined_out[p]
        return avail

    order = [blk.label for blk in fn.blocks if blk.label in reachable]
    gen = {}  # label -> registers the block's phis and body define
    for label in order:
        blk = block_map[label]
        gen[label] = bits(d for n in (*blk.phis, *blk.body)
                          if (d := node_def(n)) is not None)
    changed = True
    while changed:
        changed = False
        for label in order:
            avail = avail_at_entry(label) | gen[label]
            if avail != defined_out[label]:
                defined_out[label] = avail
                changed = True

    for label in order:
        blk = block_map[label]
        avail = avail_at_entry(label)
        for phi in blk.phis:
            for pred, value in phi.incoming:
                if isinstance(value, str) and pred in reachable:
                    if not defined_out[pred] >> index[value] & 1:
                        diags.append(Diagnostic(
                            f"register %{value} not assigned on path through {pred!r}",
                            function=fn.name, block=label, instr_id=phi.id))
        avail |= bits(phi.dst for phi in blk.phis)
        nodes = list(blk.body) + ([blk.term] if blk.term is not None else [])
        for n in nodes:
            for use in node_uses(n):
                if not avail >> index[use] & 1:
                    diags.append(Diagnostic(
                        f"register %{use} used before assignment",
                        function=fn.name, block=label, instr_id=n.id))
            d = node_def(n)
            if d is not None:
                avail |= 1 << index[d]


def validate_program(prog: Program) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    names: set[str] = set()
    for fn in prog.functions:
        if fn.name in names:
            diags.append(Diagnostic(f"duplicate function name @{fn.name}"))
        names.add(fn.name)

    if prog.functions:
        if not prog.entry:
            diags.append(Diagnostic("program has no entry function"))
        elif prog.entry not in names:
            diags.append(Diagnostic(f"entry function @{prog.entry} not defined"))

    segs = sorted(prog.data, key=lambda s: (s.base, s.length))
    for seg in segs:
        if seg.length <= 0:
            diags.append(Diagnostic(f"data segment at {seg.base} has no bytes"))
        if seg.base < 0:
            diags.append(Diagnostic(f"data segment base {seg.base} is negative"))
        if seg.end() > MAX_DATA_END:
            diags.append(Diagnostic(
                f"data segment at {seg.base} ends at {seg.end()},"
                f" past the memory limit of {MAX_DATA_END} bytes"))
    for a, b in zip(segs, segs[1:]):
        if a.end() > b.base:
            diags.append(Diagnostic(
                f"data segments at {a.base} and {b.base} overlap"))

    seen_ids: dict[int, str] = {}
    for fn in prog.functions:
        for n in fn.nodes():
            if n.id in seen_ids:
                diags.append(Diagnostic(
                    f"instruction id {n.id} already used in @{seen_ids[n.id]}",
                    function=fn.name, instr_id=n.id))
            else:
                seen_ids[n.id] = fn.name

    # Origin tags must name loads of some original-kind function, when one
    # is present to check against.
    original_loads: set[int] = set()
    have_original = False
    for fn in prog.functions:
        if fn.kind == "original":
            have_original = True
            for n in fn.nodes():
                if isinstance(n, Load):
                    original_loads.add(n.id)
    if have_original:
        for fn in prog.functions:
            for blk in fn.blocks:
                for instr in blk.body:
                    origin = getattr(instr, "origin", None)
                    if origin is not None and origin not in original_loads:
                        diags.append(Diagnostic(
                            f"origin tag {origin} does not name an original load",
                            function=fn.name, block=blk.label, instr_id=instr.id))

    for fn in prog.functions:
        _validate_function(fn, diags)
    return diags
