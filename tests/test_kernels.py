"""Tests for the built-in kernels and their oracles."""

from __future__ import annotations

import pytest

from daef.harness import prepare
from daef.ir import (
    DirError,
    interpret,
    parse_program,
    print_program,
    validate_program,
    with_seed,
)
from daef.ir.types import Load, Prefetch, Store
from daef.kernels import BenchmarkKernel, builtin_kernels, kernel_by_name
from daef.machine import MachineConfig


def fn_loads(fn):
    return [n for b in fn.blocks for n in b.body if isinstance(n, Load)]


def fn_prefetches(fn):
    return [n for b in fn.blocks for n in b.body if isinstance(n, Prefetch)]


@pytest.mark.parametrize("kernel", builtin_kernels(), ids=lambda k: k.name)
@pytest.mark.parametrize("seed", [0, 1, 424242])
def test_oracle_matches_interpreter(kernel, seed):
    trace = interpret(kernel.program(seed))
    assert trace.output == kernel.oracle(seed)


def test_roster():
    names = [k.name for k in builtin_kernels()]
    assert names == ["compute_poly", "stream_sum", "gather_sum", "chase_sum",
                     "stencil3"]
    assert len(set(names)) == 5
    with pytest.raises(KeyError, match="no built-in kernel"):
        kernel_by_name("linpack")


@pytest.mark.parametrize("kernel", builtin_kernels(), ids=lambda k: k.name)
def test_program_is_a_fresh_copy_of_the_checked_text(kernel):
    """program(seed) prints as the text parsed afresh and seeded, and is
    valid.  Each call returns its own program: emptying a block body or
    reseeding a segment of one leaves the next call equal to a fresh
    parse."""
    for seed in (0, 3, 7):
        fresh = print_program(with_seed(parse_program(kernel.text), seed))
        prog = kernel.program(seed)
        assert print_program(prog) == fresh
        assert validate_program(prog) == []
        prog.entry_function().blocks[0].body.clear()
        for seg in prog.data:
            seg.seed = 99
        assert print_program(kernel.program(seed)) == fresh


def test_invalid_kernel_raises_on_every_call():
    kernel = BenchmarkKernel("bad", "entry @main\n\n"
                             "func @main() kind=original {\n"
                             "entry:\n  out %x\n  ret\n}\n",
                             lambda seed: [])
    for _ in range(2):
        with pytest.raises(DirError, match="invalid program"):
            kernel.program()


def test_compute_poly_touches_no_memory():
    k = kernel_by_name("compute_poly")
    fn = k.program().entry_function()
    assert not fn_loads(fn)
    assert not [n for b in fn.blocks for n in b.body if isinstance(n, Store)]
    # No data to reseed: every input seed computes the same thing.
    assert interpret(k.program(3)).output == k.oracle(0)


def test_input_seed_changes_data_kernels():
    for name in ("stream_sum", "gather_sum", "chase_sum", "stencil3"):
        k = kernel_by_name(name)
        assert k.oracle(0) != k.oracle(1), name


def test_stream_access_is_a_single_prefetch():
    prep = prepare(kernel_by_name("stream_sum"), MachineConfig())
    access = prep.plan.program.function(prep.plan.access)
    assert len(fn_prefetches(access)) == 1
    assert not fn_loads(access)


def test_chase_access_keeps_the_link_load():
    # The next-pointer value feeds the following address, so it must stay
    # a real load.  The payload shares its cache line, never stalls, and
    # so is not even critical.
    k = kernel_by_name("chase_sum")
    prep = prepare(k, MachineConfig())
    link_id = fn_loads(k.program().entry_function())[0].id
    assert prep.plan.critical == {link_id}
    access = prep.plan.program.function(prep.plan.access)
    loads = fn_loads(access)
    assert [n.origin for n in loads] == [link_id]
    assert not fn_prefetches(access)
    # The base variant still tags both loads for later specialization.
    base = prep.plan.program.function(f"{prep.plan.original}__base")
    assert len(fn_loads(base) + fn_prefetches(base)) == 2


def test_base_access_covers_every_body_load():
    m = MachineConfig()
    for k in builtin_kernels():
        prep = prepare(k, m)
        plan = prep.plan
        fn = parse_program(k.text).entry_function()
        body_loads = {n.id for b in fn.blocks if b.label in plan.loop.body
                      for n in b.body if isinstance(n, Load)}
        base = plan.program.function(f"{plan.original}__base")
        origins = {n.origin for n in fn_loads(base) + fn_prefetches(base)}
        assert origins == body_loads, k.name
