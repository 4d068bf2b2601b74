"""Built-in benchmark kernels spanning compute-bound to memory-bound.

Five small loops with known answers:

- compute_poly (compute bound): cubic polynomial evaluated per index,
  no memory traffic;
- stream_sum (streaming): sequential 64-bit reduction over one array;
- gather_sum (indirect gather): table lookups through a random index
  stream;
- chase_sum (linked chase): pointer walk where each address comes from
  the last load;
- stencil3 (mixed): 3-point neighborhood sums written to a second array.

Each kernel carries an oracle that recomputes its expected output in
plain Python straight from the data-segment definition, so the
interpreter and simulator can be checked against something that shares
none of their code.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .ir import (
    DirError,
    Program,
    parse_program,
    splitmix_fill,
    validate_program,
    with_seed,
)

M64 = (1 << 64) - 1

STREAM_N = 8192
POLY_N = 8192
GATHER_N = 4096
GATHER_MASK = 131071  # 131072 table entries, 1 MiB
CHASE_N = 2048
CHASE_MASK = 65535  # 65536 nodes of 16 bytes
STENCIL_N = 8190


@dataclass(frozen=True)
class BenchmarkKernel:
    name: str
    text: str
    oracle: Callable[[int], list[int]]

    @cached_property
    def _checked(self) -> Program:
        """The text parsed and validated, once per instance.  An invalid
        text raises DirError and keeps nothing, so every call raises."""
        prog = parse_program(self.text)
        diags = validate_program(prog)
        if diags:
            raise DirError("invalid program: "
                           + "; ".join(str(d) for d in diags[:3]))
        return prog

    def program(self, seed: int = 0) -> Program:
        """The kernel parsed, seeded and validated: the one check of a
        program from outside, which the profiler, the phase generator
        and the simulator take as a precondition.

        The text is parsed and checked once per kernel; each call returns
        a fresh copy of that program, so a caller may mutate it.  A seeded
        copy is still valid: validate_program reads a segment's base,
        length and overlaps, never its seed."""
        checked = self._checked
        return with_seed(checked, seed) if seed else checked.copy()


def _words(seed: int, length: int) -> list[int]:
    return list(struct.unpack(f"<{length // 8}Q", splitmix_fill(seed, length)))


def _signed(x: int) -> int:
    # out values are observed as signed 64-bit.
    x &= M64
    return x - (1 << 64) if x >= (1 << 63) else x


# -- stream_sum --------------------------------------------------------------

STREAM_TEXT = f"""
data @base=4096 prng(seed=101, len={STREAM_N * 8})

entry @main

func @main() kind=original {{
entry:
  %base = const 4096
  %n = const {STREAM_N}
  br loop
loop:
  %i = phi [entry: 0], [latch: %i2]
  %acc = phi [entry: 0], [latch: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %off = binop shl %i, 3
  %addr = binop add %base, %off
  %v = load %addr, 0, w8
  %acc2 = binop add %acc, %v
  br latch
latch:
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret %acc
}}
"""


def _stream_oracle(input_seed: int) -> list[int]:
    a = _words(101 ^ input_seed, STREAM_N * 8)
    return [_signed(sum(a))]


# -- compute_poly ------------------------------------------------------------

POLY_TEXT = f"""
entry @main

func @main() kind=original {{
entry:
  %n = const {POLY_N}
  br loop
loop:
  %i = phi [entry: 0], [latch: %i2]
  %acc = phi [entry: 0], [latch: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %t1 = binop mul %i, 3
  %t2 = binop add %t1, 5
  %t3 = binop mul %t2, %i
  %t4 = binop add %t3, 7
  %t5 = binop mul %t4, %i
  %t6 = binop add %t5, 11
  %acc2 = binop add %acc, %t6
  br latch
latch:
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret %acc
}}
"""


def _poly_oracle(input_seed: int) -> list[int]:
    acc = 0
    for i in range(POLY_N):
        acc += ((i * 3 + 5) * i + 7) * i + 11
    return [_signed(acc)]


# -- gather_sum --------------------------------------------------------------

GATHER_TEXT = f"""
data @base=4096 prng(seed=202, len={GATHER_N * 8})
data @base=65536 prng(seed=203, len={(GATHER_MASK + 1) * 8})

entry @main

func @main() kind=original {{
entry:
  %idx = const 4096
  %table = const 65536
  %n = const {GATHER_N}
  br loop
loop:
  %i = phi [entry: 0], [latch: %i2]
  %acc = phi [entry: 0], [latch: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %ioff = binop shl %i, 3
  %iaddr = binop add %idx, %ioff
  %r = load %iaddr, 0, w8
  %j = binop and %r, {GATHER_MASK}
  %toff = binop shl %j, 3
  %taddr = binop add %table, %toff
  %v = load %taddr, 0, w8
  %acc2 = binop add %acc, %v
  br latch
latch:
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret %acc
}}
"""


def _gather_oracle(input_seed: int) -> list[int]:
    idx = _words(202 ^ input_seed, GATHER_N * 8)
    table = _words(203 ^ input_seed, (GATHER_MASK + 1) * 8)
    return [_signed(sum(table[r & GATHER_MASK] for r in idx))]


# -- chase_sum ---------------------------------------------------------------

CHASE_TEXT = f"""
data @base=65536 prng(seed=404, len={(CHASE_MASK + 1) * 16})

entry @main

func @main() kind=original {{
entry:
  %nbase = const 65536
  %n = const {CHASE_N}
  br loop
loop:
  %i = phi [entry: 0], [latch: %i2]
  %p = phi [entry: 65536], [latch: %p2]
  %acc = phi [entry: 0], [latch: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %nxt = load %p, 0, w8
  %val = load %p, 8, w8
  %acc2 = binop add %acc, %val
  %j = binop and %nxt, {CHASE_MASK}
  %off = binop shl %j, 4
  %p2 = binop add %nbase, %off
  br latch
latch:
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret %acc
}}
"""


def _chase_oracle(input_seed: int) -> list[int]:
    w = _words(404 ^ input_seed, (CHASE_MASK + 1) * 16)
    acc = 0
    node = 0
    for _ in range(CHASE_N):
        nxt, val = w[2 * node], w[2 * node + 1]
        acc += val
        node = nxt & CHASE_MASK
    return [_signed(acc)]


# -- stencil3 ----------------------------------------------------------------

STENCIL_TEXT = f"""
data @base=4096 prng(seed=303, len={(STENCIL_N + 2) * 8})
data @base=69632 zero={(STENCIL_N + 2) * 8}

entry @main

func @main() kind=original {{
entry:
  %a = const 4096
  %b = const 69632
  %n = const {STENCIL_N}
  br loop
loop:
  %i = phi [entry: 0], [latch: %i2]
  %acc = phi [entry: 0], [latch: %acc2]
  %c = binop slt %i, %n
  brcond %c, body, done
body:
  %off = binop shl %i, 3
  %ad = binop add %a, %off
  %v0 = load %ad, 0, w8
  %v1 = load %ad, 8, w8
  %v2 = load %ad, 16, w8
  %s1 = binop add %v0, %v1
  %s2 = binop add %s1, %v2
  %bd = binop add %b, %off
  store %bd, 0, %s2, w8
  %acc2 = binop add %acc, %s2
  br latch
latch:
  %i2 = binop add %i, 1
  br loop
done:
  out %acc
  ret %acc
}}
"""


def _stencil_oracle(input_seed: int) -> list[int]:
    a = _words(303 ^ input_seed, (STENCIL_N + 2) * 8)
    return [_signed(sum(a[i] + a[i + 1] + a[i + 2] for i in range(STENCIL_N)))]


_KERNELS = [
    BenchmarkKernel(name="compute_poly", text=POLY_TEXT, oracle=_poly_oracle),
    BenchmarkKernel(name="stream_sum", text=STREAM_TEXT, oracle=_stream_oracle),
    BenchmarkKernel(name="gather_sum", text=GATHER_TEXT, oracle=_gather_oracle),
    BenchmarkKernel(name="chase_sum", text=CHASE_TEXT, oracle=_chase_oracle),
    BenchmarkKernel(name="stencil3", text=STENCIL_TEXT, oracle=_stencil_oracle),
]


def builtin_kernels() -> list[BenchmarkKernel]:
    return list(_KERNELS)


def kernel_by_name(name: str) -> BenchmarkKernel:
    for k in _KERNELS:
        if k.name == name:
            return k
    raise KeyError(f"no built-in kernel named {name!r}; "
                   f"choices: {', '.join(k.name for k in _KERNELS)}")
