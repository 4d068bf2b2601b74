"""Control-flow and dataflow analyses over DIR functions.

Provides the CFG builder, iterative dominators, natural-loop detection
with canonical-induction recognition (one CFG and one dominator tree per
find_loops scan), backward slicing over use-def chains, dead-code
elimination, and a semantics-preserving CFG simplifier.
Block successors, predecessors and label reachability come from
daef.ir.types (successors, predecessors, Function.reachable); this
module owns the register-to-definitions map (defs_of) and node
placement (block_of).

Register-to-definition links are path-insensitive: a use of %r depends on
every definition of %r in the function.  For single-assignment code (all
generated phases, the bundled kernels) this is the exact use-def chain;
for code that reassigns registers it degrades to a safe over-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir.types import (
    BinOp,
    Block,
    Br,
    BrCond,
    Const,
    Diagnostic,
    Function,
    Node,
    Operand,
    Out,
    Store,
    node_def,
    node_uses,
    predecessors,
    retarget,
    successors,
)


@dataclass
class Cfg:
    entry: str
    nodes: list[str]
    succs: dict[str, list[str]]
    preds: dict[str, list[str]]


def build_cfg(fn: Function) -> Cfg:
    """Block-level CFG; edges follow terminators (brcond edges deduped)."""
    nodes = [b.label for b in fn.blocks]
    succs: dict[str, list[str]] = {n: [] for n in nodes}
    for b in fn.blocks:
        for t in successors(b):
            if t in succs and t not in succs[b.label]:
                succs[b.label].append(t)
    return Cfg(entry=nodes[0], nodes=nodes, succs=succs, preds=predecessors(fn))


@dataclass
class DomInfo:
    """Immediate dominators over the reachable subgraph."""

    idom: dict[str, str]  # entry maps to itself
    rpo: dict[str, int]  # reverse-postorder position of each reachable block

    def dominates(self, a: str, b: str) -> bool:
        if b not in self.idom:
            return False
        cur = b
        while True:
            if cur == a:
                return True
            nxt = self.idom[cur]
            if nxt == cur:
                return False
            cur = nxt


def _reverse_postorder(c: Cfg) -> list[str]:
    seen: set[str] = set()
    order: list[str] = []

    stack = [(c.entry, iter(c.succs[c.entry]))]
    seen.add(c.entry)
    while stack:
        node, it = stack[-1]
        s = next((t for t in it if t not in seen), None)
        if s is None:
            order.append(node)
            stack.pop()
        else:
            seen.add(s)
            stack.append((s, iter(c.succs[s])))
    return list(reversed(order))


def dominators(c: Cfg) -> DomInfo:
    """Iterative immediate-dominator computation (RPO intersection)."""
    rpo = _reverse_postorder(c)
    index = {n: i for i, n in enumerate(rpo)}
    idom: dict[str, str] = {c.entry: c.entry}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for n in rpo:
            if n == c.entry:
                continue
            candidates = [p for p in c.preds[n] if p in index and p in idom]
            if not candidates:
                continue
            new = candidates[0]
            for p in candidates[1:]:
                new = intersect(new, p)
            if idom.get(n) != new:
                idom[n] = new
                changed = True
    return DomInfo(idom=idom, rpo=index)


@dataclass(frozen=True)
class NaturalLoop:
    header: str
    latch: str
    body: frozenset[str]


def natural_loops(fn: Function) -> list[NaturalLoop]:
    """One loop per back edge (latch -> dominating header), layout order."""
    return _natural_loops(build_cfg(fn))


def _natural_loops(c: Cfg) -> list[NaturalLoop]:
    dom = dominators(c)
    loops: list[NaturalLoop] = []
    rpo = dom.rpo
    for latch in c.nodes:
        if latch not in rpo:
            continue
        for header in c.succs[latch]:
            # A header that dominates the latch comes no later in reverse
            # postorder, so only retreating edges need the idom walk.
            if rpo[header] <= rpo[latch] and dom.dominates(header, latch):
                body = {header, latch}
                stack = [latch]
                while stack:
                    n = stack.pop()
                    if n == header:
                        continue
                    for p in c.preds[n]:
                        if p not in body and p in rpo:
                            body.add(p)
                            stack.append(p)
                loops.append(NaturalLoop(header, latch, frozenset(body)))
    pos = {label: k for k, label in enumerate(c.nodes)}
    loops.sort(key=lambda l: (pos[l.header], pos[l.latch]))
    return loops


@dataclass(frozen=True)
class LoopInfo:
    """An innermost natural loop with a recognized counted induction.

    The induction register is defined by a header phi whose loop-carried
    input adds a positive constant step, and the header guard compares the
    phi register against a loop-invariant bound with slt or sle, branching
    into the body on true.
    """

    header: str
    latch: str
    preheader: str
    body: frozenset[str]
    body_target: str
    exit_target: str
    reg: str
    init: Operand
    step: int
    bound: Operand
    cmp: str
    cond_id: int
    step_id: int

    def trip_count(self, init_val: int, bound_val: int) -> int:
        span = bound_val - init_val
        if self.cmp == "slt":
            trips = -((-span) // self.step)
        else:  # sle
            trips = span // self.step + 1
        return max(0, trips)


@dataclass
class LoopScan:
    loops: list[LoopInfo] = field(default_factory=list)
    skipped: list[Diagnostic] = field(default_factory=list)


def resolve_constant(fn: Function, v: Operand) -> int | None:
    """Fold an operand to a signed constant when its value is static.

    A register resolves only if it has exactly one definition which is a
    const, or a binop whose operands both resolve.  Anything else (loads,
    phis, multiple definitions, a cycle, division by a zero constant)
    gives None.
    """
    from .ir.interp import BINOP_FNS, to_signed, to_unsigned

    if isinstance(v, int):
        return v
    defs = defs_of(fn)
    # Iterative post-order: a binop is expanded on the first visit and
    # folded on the second, once its operands are in memo.  An operand
    # still on the path closes a cycle and reads as None.
    memo: dict[str, int | None] = {}
    on_path: set[str] = set()
    stack = [v]
    while stack:
        x = stack[-1]
        if x in memo:
            stack.pop()
            continue
        ds = defs.get(x, [])
        d = ds[0] if len(ds) == 1 else None
        if isinstance(d, BinOp) and x not in on_path:
            on_path.add(x)
            stack.extend(o for o in (d.a, d.b)
                         if isinstance(o, str) and o not in on_path)
            continue
        stack.pop()
        on_path.discard(x)
        memo[x] = d.value if isinstance(d, Const) else None
        if isinstance(d, BinOp):
            a, b = (o if isinstance(o, int) else memo.get(o) for o in (d.a, d.b))
            if not (a is None or b is None or (d.op in ("div", "rem") and b == 0)):
                memo[x] = to_signed(BINOP_FNS[d.op](to_unsigned(a), to_unsigned(b)))
    return memo[v]


def defs_of(fn: Function) -> dict[str, list[Node]]:
    """Each register to its defining nodes, in layout order."""
    defs: dict[str, list[Node]] = {}
    for n in fn.nodes():
        d = node_def(n)
        if d is not None:
            defs.setdefault(d, []).append(n)
    return defs


def block_of(fn: Function) -> dict[int, str]:
    """Each node id to the label of the block holding it."""
    return {n.id: blk.label for blk in fn.blocks
            for n in blk.phis + blk.body + ([blk.term] if blk.term else [])}


def find_loops(fn: Function) -> LoopScan:
    """Innermost natural loops whose induction fits the canonical pattern.

    Loops failing the pattern are reported in `skipped` with the reason,
    never guessed at.
    """
    scan = LoopScan()
    c = build_cfg(fn)
    raw = _natural_loops(c)

    def skip(header: str, why: str) -> None:
        scan.skipped.append(Diagnostic(why, function=fn.name, block=header))

    by_header: dict[str, list[NaturalLoop]] = {}
    for l in raw:
        by_header.setdefault(l.header, []).append(l)

    headers = set(by_header)
    block_map = fn.block_map()
    defs = defs_of(fn)
    where = block_of(fn)

    for header, group in by_header.items():
        if len(group) > 1:
            skip(header, "loop has multiple back edges")
            continue
        loop = group[0]
        if any(h in loop.body and h != header for h in headers):
            continue  # not innermost; an inner loop covers it
        hpreds = c.preds[header]
        if len(hpreds) != 2 or loop.latch not in hpreds:
            skip(header, "loop header needs exactly a preheader and a latch")
            continue
        preheader = next(p for p in hpreds if p != loop.latch)
        if preheader in loop.body:
            skip(header, "loop has no preheader outside the body")
            continue
        hblk = block_map[header]
        term = hblk.term
        if not isinstance(term, BrCond):
            skip(header, "loop guard is not a conditional branch in the header")
            continue
        body_target, exit_target = successors(hblk)
        if (body_target in loop.body, exit_target in loop.body) != (True, False):
            skip(header, "loop guard does not branch into the body on true")
            continue
        cond_defs = [i for i in hblk.body if node_def(i) == term.cond]
        if len(cond_defs) != 1:
            skip(header, "loop guard condition is not defined once in the header")
            continue
        cond = cond_defs[0]
        if not isinstance(cond, BinOp) or cond.op not in ("slt", "sle"):
            skip(header, "loop guard is not an slt/sle comparison")
            continue
        if not isinstance(cond.a, str):
            skip(header, "loop guard does not compare a register")
            continue
        ind_phis = [p for p in hblk.phis if p.dst == cond.a]
        if len(ind_phis) != 1:
            skip(header, "guard register is not a header phi")
            continue
        phi = ind_phis[0]
        inc = dict(phi.incoming)
        if set(inc) != {preheader, loop.latch}:
            skip(header, "induction phi incomings do not match preheader and latch")
            continue
        init = inc[preheader]
        nxt = inc[loop.latch]
        if not isinstance(nxt, str):
            skip(header, "loop-carried induction input is not a register")
            continue
        nxt_defs = defs.get(nxt, [])
        if len(nxt_defs) != 1:
            skip(header, "induction step register is not defined exactly once")
            continue
        step_instr = nxt_defs[0]
        step = None
        if isinstance(step_instr, BinOp) and step_instr.op == "add":
            if step_instr.a == phi.dst and isinstance(step_instr.b, int):
                step = step_instr.b
            elif step_instr.b == phi.dst and isinstance(step_instr.a, int):
                step = step_instr.a
        if step is None:
            skip(header, "induction step is not phi plus a constant")
            continue
        if step <= 0:
            skip(header, "non-canonical induction: step is not positive")
            continue
        bound = cond.b
        if isinstance(bound, str):
            if any(where[d.id] in loop.body for d in defs.get(bound, [])):
                skip(header, "loop bound is not loop-invariant")
                continue
        scan.loops.append(LoopInfo(
            header=header, latch=loop.latch, preheader=preheader,
            body=loop.body, body_target=body_target, exit_target=exit_target,
            reg=phi.dst, init=init, step=step, bound=bound, cmp=cond.op,
            cond_id=cond.id, step_id=step_instr.id))
    return scan  # in header layout order, as _natural_loops sorts them


def backward_slice(fn: Function, seeds: set[int]) -> set[int]:
    """Least set containing seeds and closed under data dependence.

    Walks use-def edges transitively, through phis to all incoming values.
    Store and out never appear in the result (they produce no values),
    though a store seed still contributes its operand chain.
    """
    by_id: dict[int, Node] = {n.id: n for n in fn.nodes()}
    bad = [s for s in seeds if s not in by_id]
    if bad:
        raise ValueError(f"seed ids not in function: {sorted(bad)}")
    defs = defs_of(fn)
    visited: set[int] = set()
    stack = list(seeds)
    while stack:
        i = stack.pop()
        if i in visited:
            continue
        visited.add(i)
        stack.extend(d.id for reg in node_uses(by_id[i]) for d in defs.get(reg, []))
    return {i for i in visited if not isinstance(by_id[i], (Store, Out))}


def dce_keep(fn: Function, roots: set[int]) -> set[int]:
    """Ids that dce would retain: the roots, the backward closure of the
    roots and of every register any terminator reads.  Terminator ids are
    not included unless they are roots; they are never removable anyway."""
    bad = roots - {n.id for n in fn.nodes()}
    if bad:
        raise ValueError(f"root ids not in function: {sorted(bad)}")
    # A terminator defines no register, so the closure reaches one only
    # as a seed.
    terms = {b.term.id for b in fn.blocks if b.term is not None}
    return (backward_slice(fn, roots | terms) - terms) | roots


def dce(fn: Function, roots: set[int]) -> Function:
    """Drop instructions outside the backward closure of the roots.

    Terminators are implicit roots: they survive along with the closure of
    every register they read.  Ids of surviving instructions are preserved.
    """
    keep = dce_keep(fn, roots)
    out = fn.copy()
    for blk in out.blocks:
        blk.phis = [p for p in blk.phis if p.id in keep]
        blk.body = [i for i in blk.body if i.id in keep]
    return out


# ---------------------------------------------------------------------------
# CFG simplification


def simplify_cfg(fn: Function, id_base: int | None = None) -> Function:
    """Clean up control flow without changing observable behavior.

    Drops unreachable blocks, folds brcond on a constant or with equal
    targets, lowers single-predecessor phis to copies, removes empty
    forwarding blocks (rethreading phis), and merges single-successor/
    single-predecessor block pairs.  Each rule is one sweep over the
    blocks, and the sweeps repeat while any rule changes something;
    they end because every change removes a block, a brcond or a block's
    phis and none adds one.  Idempotent.

    id_base sets the first id for any copies the phi lowering must mint;
    it defaults to one past the function's own maximum id.
    """
    out = fn.copy()
    next_id = [max(out.max_id() + 1, 0) if id_base is None else id_base]
    while (_drop_unreachable(out) | _fold_brcond(out)
           | _lower_single_pred_phis(out, next_id)
           | _remove_empty_blocks(out) | _merge_linear(out)):
        pass
    return out


def _drop_unreachable(fn: Function) -> bool:
    reachable = fn.reachable(fn.blocks[0].label)
    if len(reachable) == len(fn.blocks):
        return False
    dead = {b.label for b in fn.blocks} - reachable
    fn.blocks = [b for b in fn.blocks if b.label in reachable]
    # Phis may reference removed predecessors.
    for blk in fn.blocks:
        for phi in blk.phis:
            phi.incoming = [(p, v) for p, v in phi.incoming if p not in dead]
    return True


def _retarget_phis(blk: Block, old_pred: str, new_preds: list[str]) -> None:
    for phi in blk.phis:
        new_incoming: list[tuple[str, Operand]] = []
        for p, v in phi.incoming:
            if p == old_pred:
                new_incoming.extend((np, v) for np in new_preds)
            else:
                new_incoming.append((p, v))
        phi.incoming = new_incoming


def _fold_brcond(fn: Function) -> bool:
    # Folding a branch changes no definition, so one map serves the sweep.
    defs = defs_of(fn)
    bm = fn.block_map()
    changed = False
    for blk in fn.blocks:
        t = blk.term
        if not isinstance(t, BrCond):
            continue
        if t.if_true == t.if_false:
            blk.term = Br(id=t.id, target=t.if_true)
            changed = True
            continue
        # Every path defines the condition first (the validator checks
        # it), so consts of one truth value fix the branch; a parameter
        # is a definition too.
        truths = {d.value != 0 if isinstance(d, Const) else None
                  for d in defs.get(t.cond, [])}
        if len(truths) != 1 or None in truths or t.cond in fn.params:
            continue
        taken, dropped = (t.if_true, t.if_false) if truths.pop() \
            else (t.if_false, t.if_true)
        blk.term = Br(id=t.id, target=taken)
        # The dropped edge disappears; fix the other side's phis now so a
        # later unreachable-drop cannot leave a stale incoming behind.
        if dropped in bm:
            for phi in bm[dropped].phis:
                phi.incoming = [(p, v) for p, v in phi.incoming if p != blk.label]
        changed = True
    return changed


def _lower_single_pred_phis(fn: Function, next_id: list[int]) -> bool:
    preds = predecessors(fn)
    changed = False
    for blk in fn.blocks:
        if not blk.phis or len(preds[blk.label]) != 1:
            continue
        pred = preds[blk.label][0]
        incs = [dict(phi.incoming) for phi in blk.phis]
        if any(pred not in inc for inc in incs):
            continue
        pairs = [(phi.dst, inc[pred]) for phi, inc in zip(blk.phis, incs)]
        dsts = {d for d, _ in pairs}
        copies: list[BinOp] = []
        if any(isinstance(v, str) and v in dsts for _, v in pairs):
            # Parallel-assignment semantics: stage through temporaries.
            for k, (dst, v) in enumerate(pairs):
                copies.append(BinOp(id=next_id[0], dst=f"__phi_tmp{k}",
                                    op="add", a=v, b=0))
                next_id[0] += 1
            pairs = [(dst, f"__phi_tmp{k}") for k, (dst, _) in enumerate(pairs)]
        copies += [BinOp(id=phi.id, dst=dst, op="add", a=v, b=0)
                   for (dst, v), phi in zip(pairs, blk.phis)]
        blk.phis = []
        blk.body = copies + blk.body
        changed = True
    return changed


def _pred_sets(fn: Function) -> dict[str, set[str]]:
    """The predecessor map that _remove_empty_blocks and _merge_linear keep
    current through one sweep in layout order.  A sweep picks the blocks
    that restarting from the top after each change would: neither rewrite
    makes an earlier block eligible that was passed over."""
    return {label: set(ps) for label, ps in predecessors(fn).items()}


def _remove_empty_blocks(fn: Function) -> bool:
    preds = _pred_sets(fn)
    pos = {b.label: k for k, b in enumerate(fn.blocks)}
    bm = fn.block_map()
    dead: set[str] = set()
    for blk in fn.blocks[1:]:  # entry is never removed
        if blk.phis or blk.body or not isinstance(blk.term, Br):
            continue
        label, target = blk.label, blk.term.target
        if target == label or not preds[label]:
            continue
        # Rethreading must not give the target two edges from one pred.
        if bm[target].phis and preds[label] & preds[target]:
            continue
        incoming = sorted(preds.pop(label), key=pos.__getitem__)
        for p in incoming:
            retarget(bm[p].term, label, target)
        _retarget_phis(bm[target], label, incoming)
        preds[target].discard(label)
        preds[target].update(incoming)
        dead.add(label)
    fn.blocks = [b for b in fn.blocks if b.label not in dead]
    return bool(dead)


def _merge_linear(fn: Function) -> bool:
    preds = _pred_sets(fn)
    bm = fn.block_map()
    entry = fn.blocks[0].label
    dead: set[str] = set()
    for a in fn.blocks:
        while a.label not in dead and isinstance(a.term, Br):
            blabel = a.term.target
            b = bm[blabel]
            if blabel in (a.label, entry) or preds[blabel] != {a.label} or b.phis:
                break
            a.body.extend(b.body)
            a.term = b.term
            for succ_label in set(successors(b)) & preds.keys():
                _retarget_phis(bm[succ_label], blabel, [a.label])
                preds[succ_label].discard(blabel)
                preds[succ_label].add(a.label)
            del preds[blabel]
            dead.add(blabel)
    fn.blocks = [b for b in fn.blocks if b.label not in dead]
    return bool(dead)
