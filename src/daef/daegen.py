"""Decoupled access-execute phase generation.

Takes a program with one canonical counted loop and produces, in a single
combined program:

- an execute clone that runs any contiguous span of iterations,
- an access clone of the same span that only walks the address chains of
  selected loads and prefetches their lines, and
- a base access clone covering every load in the loop, from which
  specialize_access derives the selected variant, as the paper's
  runtime does; make_phases builds that variant directly, and the tests
  check that the two agree.

Sliced clones share a calling convention.  Beyond the original
parameters they take %__first (nonzero for the first slice, which runs
the original prologue), %__lo and %__hi (the induction range of the
slice, half open), and one %__carry_<reg> per loop-carried value, fed
from the previous slice's exported registers.  A slice enters through a
dispatch block: first slices flow through the cloned prologue, later
slices through a resume block that recomputes the pure loop-invariant
prologue values and jumps straight to the loop header.

Names beginning with a double underscore are reserved for this
machinery; input programs must not use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from .cfg import (
    LoopInfo,
    block_of,
    build_cfg,
    dce,
    defs_of,
    find_loops,
    resolve_constant,
    simplify_cfg,
)
from .ir import (
    BinOp,
    Block,
    Br,
    BrCond,
    Const,
    Diagnostic,
    Function,
    Load,
    Node,
    Prefetch,
    Program,
    Ret,
    copy_node,
    node_def,
    node_uses,
    print_function,
    validate_program,
)

S_MIN = 8
S_MAX = 4096
S_DEFAULT = 256


class DaegenError(ValueError):
    def __init__(self, message: str, diagnostics: list[Diagnostic] | None = None):
        if diagnostics:
            message += ": " + "; ".join(str(d) for d in diagnostics[:3])
        super().__init__(message)


class IdAlloc:
    """Hands out fresh instruction ids, program-wide."""

    def __init__(self, start: int):
        self.next = start

    def take(self) -> int:
        v = self.next
        self.next += 1
        return v


@dataclass(frozen=True)
class SliceParams:
    size: int
    source: str  # "profile", "default" or "override"


def choose_slice_size(machine, bytes_per_iter: float | None,
                      rho: float | Fraction = Fraction(1, 2),
                      override: int | None = None) -> SliceParams:
    """Slice length in iterations: fit a slice's cache footprint into a
    rho fraction of L1, clamped to [8, 4096].  An explicit override wins
    unclamped; without a usable footprint the fallback is 256."""
    rho = Fraction(str(rho)) if not isinstance(rho, Fraction) else rho
    if not 0 < rho <= 1:
        raise DaegenError(f"rho {rho} outside (0, 1]")
    if override is not None:
        if override < 1:
            raise DaegenError(f"slice override {override} must be at least 1")
        return SliceParams(size=override, source="override")
    if bytes_per_iter is None or bytes_per_iter <= 0:
        return SliceParams(size=S_DEFAULT, source="default")
    raw = int(rho * machine.l1.capacity_bytes / Fraction(str(bytes_per_iter)))
    return SliceParams(size=min(max(raw, S_MIN), S_MAX), source="profile")


# ---------------------------------------------------------------------------
# cloning machinery


def _fresh_node(n: Node, alloc: IdAlloc, id_map: dict[int, int]) -> Node:
    c = copy_node(n)
    id_map[n.id] = alloc.take()
    c.id = id_map[n.id]
    return c


def _clone_function(fn: Function, name: str, kind: str,
                    alloc: IdAlloc) -> tuple[Function, dict[int, int]]:
    id_map: dict[int, int] = {}
    g = Function(name=name, params=list(fn.params), kind=kind)
    for blk in fn.blocks:
        nb = Block(label=blk.label)
        nb.phis = [_fresh_node(p, alloc, id_map) for p in blk.phis]
        nb.body = [_fresh_node(i, alloc, id_map) for i in blk.body]
        nb.term = _fresh_node(blk.term, alloc, id_map) if blk.term else None
        g.blocks.append(nb)
    return g, id_map


def _check_names(fn: Function) -> None:
    bad = sorted({p for p in fn.params if p.startswith("__")}
                 | {node_def(n) for n in fn.nodes()
                    if node_def(n) and node_def(n).startswith("__")}
                 | {b.label for b in fn.blocks if b.label.startswith("__")})
    if bad:
        raise DaegenError(
            f"names starting with '__' are reserved for generated code: {bad}")


def _check_sliceable(fn: Function, li: LoopInfo) -> None:
    """Slicing needs a single-entry, single-exit loop: the header is the
    only way in and its false edge the only way out."""
    c = build_cfg(fn)
    for label in li.body:
        if label != li.header:
            outside = sorted(set(c.preds[label]) - li.body)
            if outside:
                raise DaegenError(
                    f"loop body block {label!r} has entries from outside "
                    f"the loop: {outside}")
            escapes = sorted(set(c.succs[label]) - li.body)
            if escapes:
                raise DaegenError(
                    f"loop body block {label!r} exits the loop without "
                    f"passing the header: {escapes}")


def _simplify(g: Function, alloc: IdAlloc) -> Function:
    # Mint any new ids from the shared allocator's range, then advance it
    # past whatever came out so later ids stay unique program-wide.
    g = simplify_cfg(g, id_base=alloc.next)
    alloc.next = max(alloc.next, g.max_id() + 1)
    return g


def _resume_closure(fn: Function, li: LoopInfo, needed_labels: set[str],
                    carry_regs: list[str]) -> list[Node]:
    """The pure prologue instructions a resumed slice must replay.

    Returns them in dependency order: each after the instructions its
    operands need.  Layout order would not be safe, since block layout
    need not follow path order.  Raises when a needed value cannot be
    recomputed from constants alone.
    """
    where = block_of(fn)
    defs = defs_of(fn)
    exit_side = fn.reachable(li.exit_target, li.body)
    satisfied = set(fn.params) | {li.reg} | set(carry_regs)

    def prologue_defs(reg: str) -> list[Node]:
        return [d for d in defs.get(reg, [])
                if where[d.id] not in li.body and where[d.id] not in exit_side]

    roots: list[str] = []
    bm = fn.block_map()
    for label in sorted(needed_labels):
        blk = bm[label]
        for phi in blk.phis:
            # The preheader edge is only taken when the prologue really
            # ran, so its value needs no replay.
            roots += [v for pred, v in phi.incoming if isinstance(v, str) and not (
                label == li.header and pred == li.preheader)]
        for n in blk.body + ([blk.term] if blk.term else []):
            roots += node_uses(n)
    if isinstance(li.bound, str):
        roots.append(li.bound)

    # Iterative post-order over the roots in turn: (reg, None) visits reg,
    # and (reg, d) appends its definition d once every operand is needed.
    needed: list[Node] = []
    needed_ids: set[int] = set()
    on_path: set[str] = set()
    stack: list[tuple[str, Node | None]] = [(r, None) for r in reversed(roots)]
    while stack:
        reg, done = stack.pop()
        if done is not None:
            on_path.discard(reg)
            needed.append(done)
            needed_ids.add(done.id)
            continue
        if reg in satisfied:
            continue
        ds = defs.get(reg, [])
        pro = prologue_defs(reg)
        if not pro:
            continue  # defined in the loop or epilogue; runs in the slice
        if len(pro) != len(ds):
            raise DaegenError(
                f"loop needs %{reg}, which has conflicting definitions "
                f"inside and outside the loop")
        if len(pro) != 1:
            raise DaegenError(
                f"loop needs %{reg}, which the prologue defines more than once")
        d = pro[0]
        if d.id in needed_ids:
            continue
        if reg in on_path:
            raise DaegenError(f"loop-invariant %{reg} depends on itself")
        if not isinstance(d, (Const, BinOp)):
            raise DaegenError(
                f"loop-invariant %{reg} is not recomputable from constants "
                f"(defined by {type(d).__name__.lower()})")
        on_path.add(reg)
        stack.append((reg, d))
        if isinstance(d, BinOp):
            stack += [(op, None) for op in (d.b, d.a) if isinstance(op, str)]
    return needed


def _slice_clone(fn: Function, li: LoopInfo, name: str, kind: str,
                 alloc: IdAlloc) -> tuple[Function, dict[int, int]]:
    """Clone fn into a slice-callable phase function (see module doc).

    fn must have passed _check_names and _check_sliceable for li.
    """
    g, id_map = _clone_function(fn, name, kind, alloc)
    bm = g.block_map()
    header = bm[li.header]
    entry_label = g.blocks[0].label
    carry_regs = [p.dst for p in header.phis if p.dst != li.reg]

    # Resume path must replay whatever the loop (and, for execute slices,
    # the slice exit check and epilogue) reads from the prologue.
    needed = set(li.body)
    if kind != "access":
        needed |= fn.reachable(li.exit_target, li.body)
    resume_nodes = _resume_closure(fn, li, needed, carry_regs)

    # Header edits: a resume edge into the phis, and the guard retargeted
    # to the slice bound.
    for phi in header.phis:
        if phi.dst == li.reg:
            phi.incoming.append(("__resume", "__lo"))
        else:
            phi.incoming.append(("__resume", f"__carry_{phi.dst}"))
    cond_pos = next(k for k, n in enumerate(header.body)
                    if n.id == id_map[li.cond_id])
    old_cond = header.body[cond_pos]
    header.body[cond_pos] = BinOp(id=old_cond.id, dst=old_cond.dst,
                                  op="slt", a=li.reg, b="__hi")
    assert isinstance(header.term, BrCond)
    header.term.if_false = "__sexit"

    # The loop's old exit edge now flows through __sexit.
    exit_block = bm[li.exit_target]
    for phi in exit_block.phis:
        phi.incoming = [("__sexit" if p == li.header else p, v)
                        for p, v in phi.incoming]

    if kind == "access":
        sexit = Block(label="__sexit", term=Ret(id=alloc.take(), value=None))
        tail = [sexit]
    else:
        more = BinOp(id=alloc.take(), dst="__more", op=li.cmp,
                     a=li.reg, b=li.bound)
        sexit = Block(label="__sexit", body=[more],
                      term=BrCond(id=alloc.take(), cond="__more",
                                  if_true="__export", if_false=li.exit_target))
        export = Block(label="__export", term=Ret(id=alloc.take(), value=None))
        export.body = [BinOp(id=alloc.take(), dst=f"__carry_{r}",
                             op="add", a=r, b=0) for r in carry_regs]
        tail = [sexit, export]

    resume_body = []
    for n in resume_nodes:
        c = copy_node(n)
        c.id = alloc.take()
        resume_body.append(c)
    dispatch = Block(label="__dispatch",
                     term=BrCond(id=alloc.take(), cond="__first",
                                 if_true=entry_label, if_false="__resume"))
    resume = Block(label="__resume", body=resume_body,
                   term=Br(id=alloc.take(), target=li.header))

    g.params = g.params + ["__first", "__lo", "__hi"] \
        + [f"__carry_{r}" for r in carry_regs]
    g.blocks = [dispatch, resume] + g.blocks + tail
    return g, id_map


# ---------------------------------------------------------------------------
# phase builders


def _loop_load_ids(fn: Function, li: LoopInfo) -> set[int]:
    return {n.id for blk in fn.blocks if blk.label in li.body
            for n in blk.body if isinstance(n, Load)}


def make_access_phase(fn: Function, li: LoopInfo, targets: Iterable[int],
                      name: str, alloc: IdAlloc) -> Function:
    """Access clone prefetching the given original loads.

    Targets whose value still feeds a retained computation (for example a
    pointer the next address depends on) stay loads, tagged with their
    origin; the rest become prefetches with the same id and origin.
    Everything else not needed for addresses or control is dropped.
    fn and li must pass the input checks make_phases runs.
    """
    targets = set(targets)
    body_loads = _loop_load_ids(fn, li)
    stray = targets - body_loads
    if stray:
        raise DaegenError(f"targets {sorted(stray)} are not loads in the loop body")
    g, id_map = _slice_clone(fn, li, name, "access", alloc)
    for blk in g.blocks:
        if isinstance(blk.term, Ret):
            blk.term.value = None  # access results are never consumed
    g = _simplify(g, alloc)  # drops the now unreachable epilogue
    cloned = {id_map[t]: t for t in targets}
    g = dce(g, set(cloned))
    _convert_unconsumed(g, cloned_targets=cloned)
    return _simplify(g, alloc)


def _convert_unconsumed(g: Function, cloned_targets: dict[int, int]) -> None:
    """Tag target loads; turn the ones no node of g reads into prefetches
    in place.

    g must have just been through dce, so every node it holds is kept and
    a load another kept address chain reads stays a load.
    """
    used = {reg for n in g.nodes() for reg in node_uses(n)}
    for blk in g.blocks:
        for k, n in enumerate(blk.body):
            if n.id in cloned_targets and isinstance(n, Load):
                origin = cloned_targets[n.id]
                if n.dst in used:
                    n.origin = origin
                else:
                    blk.body[k] = Prefetch(id=n.id, base=n.base,
                                           offset=n.offset, origin=origin)


def specialize_access(base: Function, critical: Iterable[int], name: str,
                      alloc: IdAlloc) -> Function:
    """Narrow a base access phase down to a critical load set.

    Drops prefetches for non-critical origins, then runs dead-code
    elimination from the remaining prefetches and critical loads, and
    load-to-prefetch conversion once: a critical load whose consumers
    all disappeared becomes a prefetch.  A prefetch reads the base its
    load read, so a second elimination would keep the same nodes.
    Surviving non-critical loads (address dependencies) lose their tags.
    """
    critical = set(critical)
    g = base.copy()
    g.name = name
    for blk in g.blocks:
        blk.body = [n for n in blk.body
                    if not (isinstance(n, Prefetch) and n.origin not in critical)]
    cloned = {n.id: n.origin for n in g.nodes()
              if isinstance(n, Load) and n.origin in critical}
    g = dce(g, set(cloned) | {n.id for n in g.nodes() if isinstance(n, Prefetch)})
    _convert_unconsumed(g, cloned_targets=cloned)
    for blk in g.blocks:
        for n in blk.body:
            if isinstance(n, Load) and n.origin is not None \
                    and n.origin not in critical:
                n.origin = None
    return _simplify(g, alloc)


def structural_text(fn: Function) -> str:
    """Canonical text with ids stripped and the name normalized, for
    comparing independently generated twins."""
    return print_function(replace(fn, name="_"), with_ids=False)


# ---------------------------------------------------------------------------
# the combined plan


@dataclass
class PhasePlan:
    program: Program
    original: str
    execute: str
    access: str
    loop: LoopInfo
    init_val: int
    trips: int
    slice_params: SliceParams
    critical: frozenset[int]
    jit_node_count: int
    access_is_empty: bool

    @property
    def n_slices(self) -> int:
        # Zero-trip loops still need one slice so the epilogue runs.
        return max(1, math.ceil(self.trips / self.slice_params.size))

    def slice_args(self, k: int) -> dict[str, int]:
        s = self.slice_params.size
        lo = min(k * s, self.trips)
        hi = min((k + 1) * s, self.trips)
        return {
            "__first": 1 if k == 0 else 0,
            "__lo": self.init_val + self.loop.step * lo,
            "__hi": self.init_val + self.loop.step * hi,
        }


def candidate_loop(fn: Function) -> LoopInfo:
    """The loop the phase transforms will operate on.

    Raises DaegenError with the skip reasons when nothing qualifies.
    """
    scan = find_loops(fn)
    if not scan.loops:
        raise DaegenError("no canonical loop to transform", scan.skipped)
    return scan.loops[0]


def make_phases(prog: Program, critical: Iterable[int],
                slice_params: SliceParams) -> PhasePlan:
    """Build the combined program: original, execute, access, base access.

    prog must be valid, as BenchmarkKernel.program returns it.  critical
    holds load ids of the original program; ids outside the target
    loop's body are ignored.  The combined program is validated before
    it is returned, since `daef transform` prints it without simulating
    it.
    """
    fn = prog.entry_function()
    if fn.kind != "original":
        raise DaegenError(f"entry function @{fn.name} is not kind=original")
    li = candidate_loop(fn)

    init_val = resolve_constant(fn, li.init)
    bound_val = resolve_constant(fn, li.bound)
    if init_val is None or bound_val is None:
        raise DaegenError("loop bounds must resolve to constants for slicing")
    trips = li.trip_count(init_val, bound_val)

    loads = _loop_load_ids(fn, li)
    critical = frozenset(critical) & frozenset(loads)

    _check_names(fn)
    _check_sliceable(fn, li)
    alloc = IdAlloc(prog.max_id() + 1)
    execute, _ = _slice_clone(fn, li, f"{fn.name}__exec", "execute", alloc)
    access = make_access_phase(fn, li, critical, f"{fn.name}__access", alloc)
    base = make_access_phase(fn, li, loads, f"{fn.name}__base", alloc)

    combined = Program(
        functions=[fn.copy(), execute, access, base],
        data=[replace(s) for s in prog.data],
        entry=fn.name,
    )
    diags = validate_program(combined)
    if diags:
        raise DaegenError("generated program failed validation", diags)

    access_is_empty = not any(
        isinstance(n, Prefetch) or (isinstance(n, Load) and n.origin is not None)
        for n in access.nodes())

    return PhasePlan(
        program=combined,
        original=fn.name,
        execute=execute.name,
        access=access.name,
        loop=li,
        init_val=init_val,
        trips=trips,
        slice_params=slice_params,
        critical=critical,
        jit_node_count=len(list(base.nodes())),
        access_is_empty=access_is_empty,
    )
