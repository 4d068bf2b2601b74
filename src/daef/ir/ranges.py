"""Bit-length bounds on registers, for the code that ir.interp generates.

A register holds its canonical value, the unsigned form in [0, 2**64),
wherever something observes it, so the generated code reduces mod 2**64
and flips sign bits only where a value could leave the range that the
plain Python operation gets right.  What it knows is carried along each
path of the code it writes, since the IR is not SSA: a register may be
assigned in several blocks (the DAE clones define %n in both __resume
and entry, and __export redefines a parameter), so a bound holds only
from the definition or phi move that set it to the next one on the same
path.  A parameter's value on entry is never bounded by a definition
inside the function.

Facts holds one path's bounds.  They come from constants, from a
register that only constants define, from the trip guard of a loop's
fast copy (Ranges.guards), from an and with a canonical operand, from a
load's width, from comparisons and from add, mul, shl, or and xor of
bounded canonical operands.  Below 2**64 an add, mul or shl needs no
reduction, and below 2**63 slt and sle compare as plain ints.

Unobserved registers (Ranges.unobserved) are left unwrapped, possibly
negative: add, sub, mul, and, or, xor and shl commute with reduction mod
2**64 on Python's ints, so a chain of them whose values only later ones
of the same block read (or a store, which masks the value) is reduced
once, at its end, unless a bound on its bit length would pass 256 bits
(MAX_BITS).
"""

from __future__ import annotations

from .types import BinOp, Const, Store, node_def, node_uses

M64 = (1 << 64) - 1
_H64 = 1 << 63

# The generated spelling of each operator it writes inline; div and rem
# are called.  The forms of LOOSE_OPS leave out the reduction mod 2**64.
_INLINE = {
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "mul": "{a} * {b}",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "{a} << ({b} & 63)",
    "shr": "{a} >> ({b} & 63)",
    "seq": "1 if {a} == {b} else 0",
    # Flipping the sign bit maps signed order onto unsigned order.
    "slt": f"1 if {{a}} ^ {_H64:#x} < {{b}} ^ {_H64:#x} else 0",
    "sle": f"1 if {{a}} ^ {_H64:#x} <= {{b}} ^ {_H64:#x} else 0",
}
_PLAIN = {"slt": "1 if {a} < {b} else 0", "sle": "1 if {a} <= {b} else 0"}

# On Python's ints each of these commutes with reduction mod 2**64 (a
# shl reads its count mod 64 either way), so a chain of them may be
# reduced once, at its end.
LOOSE_OPS = frozenset(("add", "sub", "mul", "and", "or", "xor", "shl"))
# The most bits an unwrapped value may need; a result that could need
# more is wrapped, so a chain of squarings stays small.
MAX_BITS = 256


class Ranges:
    """What holds of a function's registers wherever the code reads them.

    defs maps each register to the (block, index, node) of each of its
    definitions.  consts maps each register, no parameter, that only
    constants define to the bit length of the longest of them.  first
    holds the registers that the entry block defines, which are defined
    wherever any other block runs.
    """

    def __init__(self, params, entry: str, blocks: dict):
        self.params = set(params)
        self.blocks = blocks
        self.defs: dict[str, list] = {}
        for label, blk in blocks.items():
            for k, n in enumerate((*blk.phis, *blk.body)):
                d = node_def(n)
                if d is not None:
                    self.defs.setdefault(d, []).append((label, k, n))
        self.consts = {r: max((n.value & M64).bit_length() for _, _, n in ds)
                       for r, ds in self.defs.items()
                       if r not in self.params and all(isinstance(n, Const) for _, _, n in ds)}
        self.first = {node_def(n) for n in blocks[entry].body}
        self.unobserved = self._unobserved()

    def _unobserved(self) -> set[str]:
        """The registers whose values nothing observes unwrapped.

        Each is defined once, by a LOOSE_OPS binop, and read only later in
        its own block, by LOOSE_OPS binops or as a store's value, which the
        store masks to its width.  Every other read observes the value: a
        comparison, shr, div or rem, a branch, an out, an address, and a phi
        move, which carries it into another block.
        """
        site = {r: (label, k) for r, [(label, k, n)] in
                ((r, ds) for r, ds in self.defs.items() if len(ds) == 1)
                if isinstance(n, BinOp) and n.op in LOOSE_OPS}
        for label, blk in self.blocks.items():
            for k, n in enumerate((*blk.phis, *blk.body, blk.term)):
                if isinstance(n, BinOp) and n.op in LOOSE_OPS:
                    quiet, loud = node_uses(n), []
                elif isinstance(n, Store):
                    quiet, loud = [n.src], [n.base]
                else:
                    quiet, loud = [], node_uses(n)
                for r in loud:
                    site.pop(r, None)
                for r in quiet:
                    s = site.get(r)
                    if s is not None and (s[0] != label or s[1] >= k):
                        del site[r]
        return set(site)

    def guards(self, root, back, inside: list[str], limit: int) -> list[str]:
        """The registers that a fast trip of the arm at root tests below
        limit as it starts.

        First root's induction variables: each phi, no parameter, whose
        value on every edge back from back is a register, no parameter,
        that only add %phi, c defines, with c a constant in [0, limit).
        Then the registers those are compared with by slt or sle in the
        arm's blocks (inside), where a guard can bound them: another phi
        of root, or a parameter or a register of the entry block that no
        block of the arm defines and that constants alone do not bound.
        Each is defined when the trip starts, given every parameter.
        """
        def steps(v, p) -> bool:
            ds = [] if v in self.params else self.defs.get(v, [])
            return bool(ds) and all(
                isinstance(n, BinOp) and n.op == "add"
                and any(r == p and isinstance(c, int) and 0 <= c < limit
                        for r, c in ((n.a, n.b), (n.b, n.a)))
                for _, _, n in ds)

        phis = {phi.dst: dict(phi.incoming) for phi in root.phis}
        out = [p for p, inc in phis.items()
               if p not in self.params and all(steps(inc[b], p) for b in back)]
        ivs, arm = set(out), set(inside)
        for label in inside:
            for n in self.blocks[label].body:
                if not (isinstance(n, BinOp) and n.op in ("slt", "sle")):
                    continue
                for p, r in ((n.a, n.b), (n.b, n.a)):
                    if (p in ivs and isinstance(r, str) and r not in out
                            and r not in self.consts
                            and (r in phis or (r in self.params or r in self.first)
                                 and all(s[0] not in arm for s in self.defs.get(r, ())))):
                        out.append(r)
        return out


class Facts:
    """The bounds the code written so far on one path shows.

    known maps a canonical register to n, its value being below 2**n;
    loose maps an unwrapped register to a bound on its bit length (it
    may be negative).  Any other register is canonical, below 2**n where
    ranges.consts gives n, else 64 bits.
    """

    __slots__ = ("ranges", "known", "loose")

    def __init__(self, ranges: Ranges, known: dict[str, int], loose=None):
        self.ranges, self.known, self.loose = ranges, known, loose or {}

    def fork(self) -> Facts:
        return Facts(self.ranges, dict(self.known), dict(self.loose))

    def bits(self, v) -> int:
        if not isinstance(v, str):
            return (v & M64).bit_length()
        return self.loose.get(v, self.known.get(v, self.ranges.consts.get(v, 64)))

    def set(self, dst: str, n: int) -> None:
        """dst now holds a canonical value below 2**n."""
        self.loose.pop(dst, None)
        if n < 64:
            self.known[dst] = n
        else:
            self.known.pop(dst, None)

    def move(self, dsts, values) -> None:
        """Phi moves, all at once: each dst takes its value's bound."""
        for dst, n in zip(dsts, [self.bits(v) for v in values]):
            self.set(dst, n)

    def binop(self, ins: BinOp, a: str, b: str) -> str:
        """The expression of ins, its operands spelled a and b.

        A product needs the sum of its operands' lengths, a shl its left
        operand's and the count's (63 for a register), an and no more
        than a canonical operand, an or or xor of canonical operands the
        longer, and the rest one more than the longer.  A LOOSE_OPS result
        past 64 bits, or from a sub or an unwrapped operand, is wrapped
        unless its register is unobserved and it needs at most MAX_BITS.
        """
        op, dst = ins.op, ins.dst
        x, y = self.bits(ins.a), self.bits(ins.b)
        form = _PLAIN[op] if op in _PLAIN and x < 64 and y < 64 else _INLINE.get(op)
        expr = form.format(a=a, b=b) if form else f"_{op}({a}, {b})"
        if op not in LOOSE_OPS:
            self.set(dst, 1 if op in ("slt", "sle", "seq") else x if op == "shr" else 64)
            return expr
        canon = [n for v, n in ((ins.a, x), (ins.b, y)) if v not in self.loose]
        if op == "and" and canon:
            self.set(dst, min(canon))
            return expr
        if op in ("or", "xor") and len(canon) == 2:
            self.set(dst, max(x, y))
            return expr
        n = (x + y if op == "mul" else
             x + (ins.b & 63 if isinstance(ins.b, int) else 63) if op == "shl" else
             max(x, y) + 1)
        if op != "sub" and len(canon) == 2 and n <= 64:
            self.set(dst, n)
            return expr
        if dst in self.ranges.unobserved and n <= MAX_BITS:
            self.known.pop(dst, None)
            self.loose[dst] = n
            return expr
        self.set(dst, 64)
        return f"({expr}) & {M64:#x}"
