"""Tests for the pipelines, CSV emission, and the CLI."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import tracemalloc
from collections import OrderedDict
from fractions import Fraction

import pytest

from conftest import (
    SUM_KERNEL,
    base_chain,
    bound_chain,
    br_chain,
    brcond_tree,
    counting_runs,
    empty_tail,
    fan_in,
    load_blocks,
    random_loop_kernel,
    random_machine,
)
from daef.cli import main
from daef.harness import (
    CSV_COLUMNS,
    EquivalenceError,
    HarnessError,
    _row_from,
    check_profile,
    load_kernel,
    prepare,
    rows_to_csv,
    rows_to_dat,
    run_kernel_all_modes,
    run_one,
    run_suite,
)
from daef.ir import (
    Prefetch,
    Program,
    interpret,
    parse_program,
    print_program,
    program_digest,
    validate_program,
    with_seed,
)
from daef.ir import interp
from daef.ir.validate import MAX_DATA_END
from daef.kernels import BenchmarkKernel, builtin_kernels, kernel_by_name
from daef.machine import L1Config, MachineConfig
from daef import harness, machsim, profiler
from daef.machsim import (
    baseline_schedule,
    build_schedule,
    simulate,
    simulate_baseline,
)
from daef.profiler import (
    profiled_baseline,
    read_profile,
    report_to_json,
    write_profile,
)


def machine() -> MachineConfig:
    return MachineConfig()


def test_csv_header_is_stable():
    assert ",".join(CSV_COLUMNS) == (
        "kernel,mode,norm_time,norm_energy,access_time,execute_time,"
        "overhead_time,access_energy,execute_energy,overhead_energy")
    csv = rows_to_csv([], with_geomean=False)
    assert csv.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_baseline_row_is_unity():
    row = run_one(kernel_by_name("stream_sum"), "baseline", machine())
    assert row.norm_time == 1
    assert row.norm_energy == 1
    assert row.shares["access_time"] == row.shares["overhead_time"] == 0
    assert row.shares["execute_time"] == 1
    assert row.shares["access_energy"] == row.shares["overhead_energy"] == 0


def test_rows_decompose_exactly():
    rows = run_kernel_all_modes(kernel_by_name("stencil3"), machine())
    for r in rows:
        s = r.shares
        assert s["access_time"] + s["execute_time"] + s["overhead_time"] \
            == r.norm_time
        assert s["access_energy"] + s["execute_energy"] + s["overhead_energy"] \
            == r.norm_energy


def test_mlp_kernels_keep_the_energy_ordering():
    # Dynamic adds overhead on top of static, and both beat the baseline,
    # for the kernels whose access phase can overlap misses.  The pointer
    # chase is dependence limited and exempt by construction.
    m = machine()
    for name in ("stream_sum", "gather_sum", "stencil3"):
        rows = {r.mode: r for r in run_kernel_all_modes(kernel_by_name(name), m)}
        st, dy = rows["static_dae"], rows["dynamic_dae"]
        assert st.norm_energy <= dy.norm_energy <= 1, name
        assert st.norm_time < 1, name


def test_compute_bound_kernel_is_a_no_op():
    rows = {r.mode: r for r in
            run_kernel_all_modes(kernel_by_name("compute_poly"), machine())}
    for mode in ("static_dae", "dynamic_dae"):
        assert abs(rows[mode].norm_time - 1) <= Fraction(2, 100)
        assert abs(rows[mode].norm_energy - 1) <= Fraction(2, 100)
        assert rows[mode].report.categories["access"].instr_count == 0


def test_dynamic_is_static_plus_overhead_identity():
    # Exact bookkeeping: the two modes differ by the jit charge, the
    # difference in switch charges, and slice 0 running cold.
    m = machine()
    rows = {r.mode: r for r in
            run_kernel_all_modes(kernel_by_name("stream_sum"), m)}
    st, dy = rows["static_dae"].report, rows["dynamic_dae"].report

    def parts(rep):
        runs = [r for r in rep.runs if r.kind == "run"]
        slice0 = sum(r.wall_ns for r in runs if r.slice_index == 0)
        dvfs = sum(r.wall_ns for r in rep.runs if r.kind == "dvfs_switch")
        jit = sum(r.wall_ns for r in rep.runs if r.kind == "jit")
        return slice0, dvfs, jit

    s0_st, dvfs_st, jit_st = parts(st)
    s0_dy, dvfs_dy, jit_dy = parts(dy)
    assert jit_st == 0
    assert dy.total.wall_ns - st.total.wall_ns == \
        jit_dy + (dvfs_dy - dvfs_st) + (s0_dy - s0_st)


def test_suite_matrix_and_determinism():
    m = machine()
    rows = run_suite(m, seed=5)
    assert len(rows) == 15
    assert [r.mode for r in rows[:3]] == ["baseline", "static_dae",
                                          "dynamic_dae"]
    csv = rows_to_csv(rows)
    assert csv == rows_to_csv(run_suite(m, seed=5))
    geomeans = [l for l in csv.splitlines() if l.startswith("geomean")]
    assert len(geomeans) == 3
    dat = rows_to_dat(rows)
    assert dat.splitlines()[0].startswith("# kernel mode")
    assert len(dat.splitlines()) == 16


def test_suite_output_bytes_are_pinned():
    """The CSV, the .dat file and every row's JSON at seed 0, byte for byte."""
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    rows = run_suite(machine(), seed=0)
    assert sha(rows_to_csv(rows)) == \
        "f8f1ee1ea497fac6ff31c761fedae12708b2a206dc8fa5ae4b75895094e20459"
    assert sha(rows_to_dat(rows)) == \
        "587d9e71b862260ac58f34cb19fba36977591eeab4bd8a902934fb8923d344fc"
    assert sha("".join(json.dumps(harness.report_to_json(r), indent=2) + "\n"
                       for r in rows)) == \
        "b55cf96d0048d36193afc4b2506b37aed6ca723677581fa46f8abc9c6bd036e1"


def test_one_memory_image_per_simulation(monkeypatch):
    """The baseline doubles as the profiling run: one memory per
    simulation.  compute_poly has nothing to prefetch, so its static_dae
    schedule is the baseline's and reuses that run: 2 memories, not 3.  A
    second equal call is served the prepared baseline and the stored
    decoupled reports, so it simulates nothing and makes no memory.
    Every simulation of a kernel reads the same input, whose image is
    built once."""
    calls, built = [], []
    memory, build = machsim._memory, interp._build_image

    def counting_memory(prog, mem_size):
        calls.append(prog.entry)
        return memory(prog, mem_size)

    def counting_build(prog, mem_size):
        built.append(prog.entry)
        return build(prog, mem_size)

    monkeypatch.setattr(machsim, "_memory", counting_memory)
    monkeypatch.setattr(interp, "_build_image", counting_build)
    monkeypatch.setattr(interp, "_images", OrderedDict())
    for name, images in (("compute_poly", 2), ("stream_sum", 3)):
        calls.clear()
        built.clear()
        run_kernel_all_modes(kernel_by_name(name), machine())
        assert len(calls) == images, name
        calls.clear()
        run_kernel_all_modes(kernel_by_name(name), machine())
        assert len(calls) == 0, name
        assert len(built) == 1, name


def test_reused_static_row_equals_a_forced_simulation():
    """With no critical load the static_dae schedule is the baseline's:
    its row reuses the baseline report, and that report equals a fresh
    simulation of the same schedule of the plan's program in every
    SimReport field."""
    rng = random.Random(11)
    m = machine()
    checked = 0
    for i in range(12):
        text = print_program(random_loop_kernel(rng))
        kernel = BenchmarkKernel(name=f"rand{i}", text=text,
                                 oracle=lambda seed: None)
        prep = prepare(kernel, m, theta=Fraction(1))
        if prep.plan.critical:
            continue
        sched = build_schedule("static_dae", prep.plan, m)
        assert sched == baseline_schedule(prep.plan.original, m)
        (row,) = harness._run_modes(kernel.name, prep, ("static_dae",), m,
                                    Fraction(0))
        assert row.report is prep.baseline
        assert row.program is prep.plan.program
        forced = simulate(prep.plan.program, sched, m,
                          fuel=harness.dae_fuel(prep.plan,
                                                prep.baseline.total.instr_count))
        for f in dataclasses.fields(machsim.SimReport):
            assert getattr(forced, f.name) == getattr(row.report, f.name), f.name
        checked += 1
    assert checked >= 8


def test_suite_fills_each_image_once(monkeypatch):
    """All three modes of a kernel read the same seeded image, so a suite
    pass fills each of the suite's 5 prng segments once and builds each
    kernel's image once."""
    fills, built = [], []
    fill, build = interp._splitmix_into, interp._build_image

    def counting_fill(mem, base, seed, length):
        fills.append(seed)
        return fill(mem, base, seed, length)

    def counting_build(prog, mem_size):
        built.append(prog.entry)
        return build(prog, mem_size)

    monkeypatch.setattr(interp, "_splitmix_into", counting_fill)
    monkeypatch.setattr(interp, "_build_image", counting_build)
    monkeypatch.setattr(interp, "_images", OrderedDict())
    run_suite(machine(), seed=0)
    assert len(fills) == len(set(fills)) == 5
    assert len(built) == len(builtin_kernels())


def test_mlp_sweep_fills_and_hashes_each_image_once(monkeypatch):
    """gather_sum and chase_sum over 1, 4 and 16 miss registers: neither
    stores, so every simulation reads the shared image and reports its
    cached digest.  The sweep fills their 3 prng segments once and hashes
    their 2 images once."""
    fills, hashes = [], []
    fill, digest = interp._splitmix_into, interp.memory_digest

    def counting_fill(mem, base, seed, length):
        fills.append(seed)
        return fill(mem, base, seed, length)

    def counting_digest(mem):
        hashes.append(len(mem))
        return digest(mem)

    monkeypatch.setattr(interp, "_splitmix_into", counting_fill)
    monkeypatch.setattr(interp, "memory_digest", counting_digest)
    monkeypatch.setattr(machsim, "memory_digest", counting_digest)
    monkeypatch.setattr(interp, "_images", OrderedDict())
    for n in (1, 4, 16):
        m = dataclasses.replace(machine(), mshr_count=n)
        for name in ("gather_sum", "chase_sum"):
            run_kernel_all_modes(kernel_by_name(name), m)
    assert sorted(fills) == [202, 203, 404]
    assert len(hashes) == 2


def test_suite_rows_follow_kernel_order():
    m = machine()
    kernels = builtin_kernels()
    rows = run_suite(m, seed=3)
    assert [(r.kernel, r.mode) for r in rows] == [
        (k.name, mode) for k in kernels
        for mode in ("baseline", "static_dae", "dynamic_dae")]
    singles = [r for k in kernels for r in run_kernel_all_modes(k, m, seed=3)]
    assert rows_to_csv(rows) == rows_to_csv(singles)


def test_profile_reuse_and_staleness():
    """A stored profile steers the plan: a doctored loop footprint yields
    the slice size that footprint implies."""
    m = machine()
    k = kernel_by_name("stream_sum")
    prof = profiled_baseline(k.program(), m)[1]
    assert prepare(k, m, seed=0, profile=prof).plan.slice_params.size == \
        m.l1.capacity_bytes // 2 // 8  # one 8-byte word per iteration
    doctored = dataclasses.replace(prof, loops=[
        dataclasses.replace(lf, bytes_per_iter=128.0) for lf in prof.loops])
    plan = prepare(k, m, seed=0, profile=doctored).plan
    assert (plan.slice_params.size, plan.slice_params.source) == \
        (m.l1.capacity_bytes // 2 // 128, "profile")
    with pytest.raises(HarnessError, match="different program"):
        prepare(k, m, seed=1, profile=prof)
    stale = prepare(k, m, seed=1, profile=prof, allow_stale=True)
    assert stale.plan.n_slices >= 1
    other = dataclasses.replace(m, mshr_count=2)
    with pytest.raises(HarnessError, match="different machine"):
        check_profile(prof, program_digest(k.program()), other)


def test_run_one_rejects_unknown_mode():
    with pytest.raises(HarnessError, match="unknown mode"):
        run_one(kernel_by_name("stream_sum"), "warp_speed", machine())


def test_load_kernel_from_file(tmp_path):
    src = tmp_path / "mini.dir"
    src.write_text(kernel_by_name("stream_sum").text)
    k = load_kernel(str(src))
    assert k.name == "mini"
    row = run_one(k, "static_dae", machine())
    assert row.norm_energy < 1
    with pytest.raises(HarnessError, match="neither a built-in"):
        load_kernel("no_such_kernel")


def test_equivalence_failure_reports_a_diff():
    m = machine()
    prog = with_seed(parse_program(kernel_by_name("stream_sum").text), 0)
    base = simulate(prog, baseline_schedule("main", m), m)
    (run,) = base.runs
    forged = dataclasses.replace(
        base, runs=(dataclasses.replace(run, output=(123,)),))
    with pytest.raises(EquivalenceError, match="diverged") as err:
        _row_from("stream_sum", "static_dae", forged, base)
    # The list form, which the benchmark's fingerprints hash too.
    assert "  output  [123] != [-6275875263781682430]" in \
        str(err.value).splitlines()


# -- CLI ---------------------------------------------------------------------


def test_cli_run_writes_csv(tmp_path):
    out = tmp_path / "row.csv"
    rc = main(["run", "--kernel", "stream_sum", "--mode", "static_dae",
               "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    fields = row.split(",")
    assert fields[:2] == ["stream_sum", "static_dae"]
    assert float(fields[3]) < 0.9


def test_cli_run_json_has_exact_values(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["run", "--kernel", "compute_poly", "--mode", "baseline",
               "--emit", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["norm_time"] == "1"
    assert set(data["categories"]) == {"access", "execute", "overhead"}


def test_cli_profile_roundtrip(tmp_path, capsys):
    out = tmp_path / "p.json"
    rc = main(["profile", "--kernel", "gather_sum", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "total stall cycles" in text
    report = read_profile(out)
    shares = [s.stall_cycles / report.total_stall_cycles
              for s in report.loads if s.stall_cycles]
    assert sum(shares) == 1.0
    rc = main(["run", "--kernel", "gather_sum", "--mode", "static_dae",
               "--profile", str(out), "--out", str(tmp_path / "r.csv")])
    assert rc == 0


def test_cli_stale_profile_is_refused(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["profile", "--kernel", "stream_sum", "--out", str(out)]) == 0
    rc = main(["run", "--kernel", "stream_sum", "--mode", "static_dae",
               "--seed", "3", "--profile", str(out)])
    assert rc == 2
    assert "different program" in capsys.readouterr().err
    rc = main(["run", "--kernel", "stream_sum", "--mode", "static_dae",
               "--seed", "3", "--profile", str(out), "--allow-stale",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 0



@pytest.mark.parametrize("command", [["run", "--mode", "static_dae"], ["transform"]])
def test_cli_prints_each_waived_profile_mismatch(tmp_path, capsys, command):
    """A profile of stream_sum at seed 0 used at seed 3 on another
    machine: --allow-stale uses it, prints one warning per mismatch on
    stderr and exits 0."""
    prof, other = tmp_path / "p.json", tmp_path / "m.json"
    assert main(["profile", "--kernel", "stream_sum", "--out", str(prof)]) == 0
    other.write_text(json.dumps({"mshr_count": 2}))
    capsys.readouterr()
    rc = main([*command, "--kernel", "stream_sum", "--seed", "3", "--machine",
               str(other), "--profile", str(prof), "--allow-stale",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("daef: warning: ")]
    assert warnings == [
        "daef: warning: profile was taken from a different program or seed",
        "daef: warning: profile was taken on a different machine config"]

def test_cli_run_emit_dir_prints_the_simulated_plan(tmp_path, capsys):
    prof = profiled_baseline(kernel_by_name("gather_sum").program(),
                             machine())[1]
    data = report_to_json(prof)
    *rest, last = data["loads"]
    last["miss"] = last["stall"] = 0  # one critical load fewer
    data["total_stall_cycles"] = sum(ld["stall"] for ld in rest)
    stored = tmp_path / "p.json"
    stored.write_text(json.dumps(data))
    flags = ["--kernel", "gather_sum", "--seed", "1", "--profile",
             str(stored), "--allow-stale"]
    run_out, transform_out = tmp_path / "run.dir", tmp_path / "t.dir"
    assert main(["run", "--mode", "static_dae", "--emit", "dir",
                 "--out", str(run_out), *flags]) == 0
    assert main(["transform", "--out", str(transform_out), *flags]) == 0
    assert run_out.read_text() == transform_out.read_text()
    fresh = tmp_path / "fresh.dir"
    assert main(["transform", "--kernel", "gather_sum", "--seed", "1",
                 "--out", str(fresh)]) == 0
    assert fresh.read_text() != run_out.read_text()


@pytest.mark.parametrize("config", [
    {"ipc_max": 0.5}, {"mshr_count": 0},
    {"l1": {"capacity_bytes": 2**40, "line_bytes": 64, "ways": 1}},
])
def test_cli_bad_machine_is_exit_2(tmp_path, capsys, monkeypatch, config):
    # Were the oversized L1 accepted, the run would build 2**34 cache sets;
    # fail at the cache instead of exhausting memory.
    monkeypatch.setattr("daef.machsim.LruCache", None)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(config))
    rc = main(["run", "--kernel", "compute_poly", "--machine", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("daef: ") and err.count("\n") == 1
    assert next(iter(config)) in err


@pytest.mark.parametrize("config", [
    {"f_min_ghz": 1e-320}, {"f_max_ghz": 1001},
])
def test_cli_frequency_out_of_range_is_exit_2(tmp_path, capsys, config):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(config))
    rc = main(["run", "--kernel", "gather_sum", "--mode", "dynamic_dae",
               "--machine", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("daef: ") and err.count("\n") == 1
    assert "[0.001, 1000] GHz" in err


def test_cli_fuel_exhaustion_is_exit_2(tmp_path, capsys, monkeypatch):
    """A kernel that never ends stops at the fuel budget (here cut to
    1,000 nodes) with one line, not a hang."""
    real = machsim.simulate
    monkeypatch.setattr(machsim, "simulate",
                        lambda *a, **kw: real(*a, **{**kw, "fuel": 1000}))
    path = tmp_path / "spin.dir"
    path.write_text("func @main() kind=original {\nentry:\n  br spin\n"
                    "spin:\n  br spin\n}\n")
    rc = main(["run", "--kernel", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "daef: fuel exhausted in block 'spin'\n"


@pytest.mark.parametrize("text, output, nodes", [
    (br_chain(3000), [2999], 2 + 2 * 2999 + 1),
    (br_chain(6000), [5999], 2 + 2 * 5999 + 1),
    (brcond_tree(300), [300], 3 + 2 * 300 + 2),
    (fan_in(20000), [20000], 2 + 19999 + 1 + 3),
], ids=["br_chain_3000", "br_chain_6000", "brcond_tree_300", "fan_in_20000"])
def test_cli_runs_large_kernels(tmp_path, text, output, nodes):
    """Thousands of blocks, hundreds of nested branches or a phi with
    20,000 predecessors generate code that Python compiles: no recursion
    error, no nesting limit."""
    path = tmp_path / "big.dir"
    path.write_text(text)
    out = tmp_path / "rep.json"
    rc = main(["run", "--kernel", str(path), "--mode", "baseline",
               "--emit", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["output"] == output
    assert data["total"]["instr_count"] == nodes


@pytest.mark.parametrize("gen", [bound_chain, base_chain, load_blocks, empty_tail],
                         ids=lambda g: g.__name__)
def test_cli_transforms_large_kernels(tmp_path, gen):
    """Definition chains and loop bodies 5,000 long go through static DAE:
    no recursion error, and no CFG rebuild per block.  The bound chain
    also goes through transform."""
    text = gen(5000)
    path = tmp_path / "big.dir"
    path.write_text(text)
    out = tmp_path / "rep.json"
    rc = main(["run", "--kernel", str(path), "--mode", "static_dae",
               "--slice", "8", "--emit", "json", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["output"] == \
        interpret(parse_program(text)).output
    if gen is bound_chain:
        assert main(["transform", "--kernel", str(path),
                     "--out", str(tmp_path / "plan.dir")]) == 0


def test_long_chain_validates_in_little_memory():
    """Validation keeps one bit per register per block: a valid
    6,000-block chain validates under 50 MiB."""
    prog = parse_program(br_chain(6000))
    tracemalloc.start()
    try:
        assert validate_program(prog) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 << 20


def workload_passes():
    """(name, pass) of each benchmark workload at seed 0, as bench/
    runs them: the suite, gather_sum and chase_sum on 1, 4 and 16 miss
    registers, and compute_poly at seeds 0 to 7."""
    def mlp_sweep():
        for n in (1, 4, 16):
            m = dataclasses.replace(machine(), mshr_count=n)
            for name in ("gather_sum", "chase_sum"):
                run_kernel_all_modes(kernel_by_name(name), m, seed=0)

    def compute_poly():
        for seed in range(8):
            run_kernel_all_modes(kernel_by_name("compute_poly"), machine(),
                                 seed=seed)
    return [("suite", lambda: run_suite(machine(), seed=0)),
            ("mlp_sweep", mlp_sweep), ("compute_poly", compute_poly)]


def test_suite_compiles_each_distinct_function_once(monkeypatch):
    """A seed-0 suite pass compiles 14 functions, each distinct: each
    kernel's original for its baseline and the 9 plan functions its
    decoupled modes run, each once for all their schedules.  A second
    pass reuses each kernel's prepared plan and the code compiled for
    it, so it compiles nothing.  From an empty memo, each workload pass
    generates one source per function it compiles: the suite 14, the
    miss-register sweep 6 (2 kernels, one plan each for the 3 machines)
    and compute_poly 2 (its 8 seeds share one plan, whose dynamic mode
    runs only the execute phase)."""
    calls, texts = [], []
    generator = interp._Source
    text = generator.text

    def counting(source, filename, mode):
        calls.append(source)
        return compile(source, filename, mode)

    def counting_text(src):
        texts.append(1)
        return text(src)

    monkeypatch.setattr(interp, "compile", counting, raising=False)
    monkeypatch.setattr(generator, "text", counting_text)
    run_suite(machine(), seed=0)
    assert len(calls) == len(set(calls)) == 14
    calls.clear()
    run_suite(machine(), seed=0)
    assert len(calls) == 0
    generated = {}
    for name, run in workload_passes():
        harness._prepared.clear()
        texts.clear()
        run()
        generated[name] = len(texts)
    assert generated == {"suite": 14, "mlp_sweep": 6, "compute_poly": 2}


@pytest.mark.parametrize("mode", ["static_dae", "dynamic_dae"])
def test_dae_run_past_its_budget_is_exit_3(capsys, monkeypatch, mode):
    """A decoupled run that outlives dae_fuel's budget (here cut to 1,000
    nodes) is a transformation bug, reported as a divergence."""
    monkeypatch.setattr(harness, "dae_fuel", lambda plan, nodes: 1000)
    rc = main(["run", "--kernel", "gather_sum", "--mode", mode])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"daef: gather_sum [{mode}] failed where its"
                          " baseline ran (1000-node budget): fuel exhausted")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["run", "--kernel", "gather_sum", "--mode", "dynamic_dae"],
    ["suite", "--out", "OUT"],
])
def test_cli_result_past_the_float_range_is_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    rc = main(argv + ["--profiling-overhead", "1e400"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("daef: ") and err.count("\n") == 1
    assert "--emit json" in err
    # Nothing is written, not even the suite's output directory.
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--kernel", "--machine", "--profile"])
def test_cli_non_utf8_file_is_exit_2(tmp_path, capsys, flag):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe\x00")
    args = {"--kernel": "compute_poly", flag: str(path)}
    rc = main(["run", *(x for kv in args.items() for x in kv)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("daef: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("flag", ["--machine", "--profile"])
@pytest.mark.parametrize("text", ["1" * 5000, "[" * 200_000],
                         ids=["5000_digit_int", "200000_deep_array"])
def test_cli_json_past_the_decoder_limits_is_exit_2(tmp_path, capsys, flag,
                                                    text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = main(["run", "--kernel", "compute_poly", flag, str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("daef: ") and err.count("\n") == 1
    assert str(path) in err


def test_cli_profile_takes_no_split_flags(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["profile", "--kernel", "compute_poly", "--theta", "1/2"])
    assert exit_.value.code == 2
    assert "--theta" in capsys.readouterr().err


def test_cli_transform_emits_the_phases(tmp_path, capsys):
    out = tmp_path / "phases.dir"
    rc = main(["transform", "--kernel", "stream_sum", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "kind=access" in text
    assert "kind=execute" in text
    assert text.count("prefetch") >= 2  # specialized and base access
    reparsed = parse_program(text)
    assert len(reparsed.functions) == 4


def test_cli_no_loop_is_exit_2(tmp_path, capsys):
    src = tmp_path / "flat.dir"
    src.write_text("""
entry @main

func @main() kind=original {
entry:
  %x = const 5
  out %x
  ret %x
}
""")
    rc = main(["transform", "--kernel", str(src)])
    assert rc == 2
    assert "no canonical loop" in capsys.readouterr().err


def test_cli_no_loop_names_the_skip_reason(tmp_path, capsys):
    """A loop find_loops skips is reported with the reason it skipped it,
    on the one message line."""
    src = tmp_path / "guard.dir"
    src.write_text("""
entry @main

func @main() kind=original {
entry:
  %n = const 10
  br loop
loop:
  %i = phi [entry: 0], [body: %i2]
  %i2 = binop add %i, 1
  %c = binop slt %i2, %n
  brcond %c, body, done
body:
  br loop
done:
  out %i
  ret %i
}
""")
    rc = main(["transform", "--kernel", str(src)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("daef: no canonical loop to transform")
    assert "@main:loop: guard register is not a header phi" in err


# sha256 of `daef transform` stdout and stderr for every built-in kernel
# at seeds 0 and 7, recorded before Prepared was cut down to its seeded
# program, plan and baseline.
TRANSFORM_SHA256 = (
    "8161c6f2a20b1bb704f629cbeb6d4a79939c3d2b0920e4187325ee750e67d301")


def test_transform_output_is_pinned(capsys):
    h = hashlib.sha256()
    for seed in (0, 7):
        for k in builtin_kernels():
            assert main(["transform", "--kernel", k.name,
                         "--seed", str(seed)]) == 0
            out, err = capsys.readouterr()
            h.update(out.encode())
            h.update(err.encode())
    assert h.hexdigest() == TRANSFORM_SHA256


# sha256 of `daef profile --kernel K --out FILE` at seed 0 for every
# built-in kernel: its stdout, with FILE written as OUT, and FILE's bytes.
# Recorded before one JSON codec replaced the profile's own writer.
PROFILE_SHA256 = {
    "compute_poly": (
        "2438e788e5932fd816916eaf272c956cbac49b2d96564ef126089c67de3e01c1",
        "db161a8246f316b9c16fa1f195aae54c64d7943bbffd21a2f8675319dc7fc3ab"),
    "stream_sum": (
        "923cd026990606c32e9621ca7c1fae3d2451bcf95a96ed423a1a6514d8b0211d",
        "16c18de3aed2191fed0405b101ae067f55543b9e501fdc4d134674e69e781728"),
    "gather_sum": (
        "e1181de6d0d30c85e7c57abfb5cc717c34c283bc0f8ff6a24b858900d380ed2e",
        "c969d927714e1e0c00d9c474ff14907b1f073538caaf7efef627a1970df28c5a"),
    "chase_sum": (
        "b01fe9d2f12442df59255203af9a9b7baac3d2a083a6c7de86cb17163b967b75",
        "c7137566fde3e747389880fd123be3b02205f9fba83c75022e7f9193ff47a16d"),
    "stencil3": (
        "8f20e7bf91d61a2d91bf72e9832dd04efdb4e70decc72e41719c9622c649f90d",
        "31fe3ce464629aa76b11c0647feaefdbc0bd375f88289d0473ab799006615c56"),
}


def test_profile_output_is_pinned(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert sorted(PROFILE_SHA256) == sorted(k.name for k in builtin_kernels())
    for k in builtin_kernels():
        assert main(["profile", "--kernel", k.name, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        assert (hashlib.sha256(stdout.encode()).hexdigest(),
                hashlib.sha256(out.read_bytes()).hexdigest()) == \
            PROFILE_SHA256[k.name], k.name


# sha256 of `daef run --kernel stream_sum --slice 16 --emit json` in each
# DAE mode, 2,048 records a report, recorded before a run's time, energy
# and sums were computed from integers.
RUN_SLICE_16_SHA256 = {
    "static_dae":
        "8e7864d6624b9fb8659b116ee3c610c468c27807ea9c5b504044cd46ab8eebda",
    "dynamic_dae":
        "17945c72d596f66b2b20e2e63b7b8b2b7810d7b85f513001948ab0efff13fcf8",
}


def test_run_json_with_many_slices_is_pinned(capsys):
    for mode, digest in RUN_SLICE_16_SHA256.items():
        assert main(["run", "--kernel", "stream_sum", "--mode", mode,
                     "--slice", "16", "--emit", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, mode


def test_cli_data_past_the_memory_limit_is_exit_2(tmp_path, capsys):
    src = tmp_path / "huge.dir"
    src.write_text(f"""
data @base=4096 zero={MAX_DATA_END - 4096 + 1}
entry @main

func @main() kind=original {{
entry:
  ret
}}
""")
    rc = main(["run", "--kernel", str(src)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("daef: ") and err.count("\n") == 1
    assert "memory limit" in err


@pytest.mark.parametrize("argv", [
    ["profile"],
    ["transform"],
    ["run", "--mode", "baseline"],
    ["run", "--mode", "static_dae"],
    ["run", "--mode", "dynamic_dae"],
    ["run", "--mode", "static_dae", "--profile", "STORED"],
], ids=["profile", "transform", "baseline", "static_dae", "dynamic_dae",
        "stored_profile"])
def test_cli_invalid_kernel_is_exit_2(tmp_path, capsys, argv):
    """Every command refuses an invalid kernel where it is loaded, with
    one line naming the fault, before any profile or plan is used."""
    src = tmp_path / "ghost.dir"
    src.write_text("func @main() kind=original {\nentry:\n  out %ghost\n"
                   "  ret\n}\n")
    if "STORED" in argv:
        stored = tmp_path / "p.json"
        write_profile(profiled_baseline(kernel_by_name("compute_poly").program(),
                                        machine())[1], stored)
        argv = [str(stored) if a == "STORED" else a for a in argv]
    rc = main([*argv, "--kernel", str(src)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("daef: invalid program: ") and err.count("\n") == 1
    assert "%ghost used before assignment" in err


def counting_calls(monkeypatch, real) -> list:
    """Patch real wherever a daef module names it, so that each call
    appends its first argument to the returned list."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for mod in [m for n, m in sys.modules.items() if n.startswith("daef")]:
        for name, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, name, counting)
    return calls


def test_each_program_is_validated_once(monkeypatch):
    """A kernel's text is validated once per BenchmarkKernel, where its
    first program call parses it, and a plan where make_phases builds it,
    and nowhere downstream.  A fresh kernel's first prepare validates its
    text and its plan; a second prepare is served from the memo and a
    baseline-only run copies the checked program, so neither validates
    anything.  With the built-ins already loaded, a cold suite pass
    validates only its five plans, and a served pass nothing."""
    calls = counting_calls(monkeypatch, validate_program)
    m = machine()
    k = kernel_by_name("gather_sum")
    k = BenchmarkKernel(k.name, k.text, k.oracle)
    prepare(k, m, seed=3)
    # The kernel's text, then the plan.
    assert [len(prog.functions) for prog in calls] == [1, 4]
    calls.clear()
    prepare(k, m, seed=3)
    assert calls == []
    run_one(k, "baseline", m, seed=3)
    assert calls == []
    run_suite(m)
    harness._prepared.clear()
    calls.clear()
    run_suite(m)
    assert [len(prog.functions) for prog in calls] == \
        [4] * len(builtin_kernels())
    calls.clear()
    run_suite(m)
    assert calls == []


def test_cli_equivalence_violation_is_exit_3(monkeypatch, capsys):
    import daef.cli as cli

    def boom(*a, **kw):
        raise EquivalenceError("stream_sum [static_dae] diverged")

    monkeypatch.setattr(cli, "run_one", boom)
    rc = main(["run", "--kernel", "stream_sum", "--mode", "static_dae"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_cli_suite_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["suite", "--out", str(a), "--seed", "2"]) == 0
    assert main(["suite", "--out", str(b), "--seed", "2"]) == 0
    assert (a / "suite.csv").read_bytes() == (b / "suite.csv").read_bytes()
    assert (a / "suite.dat").read_bytes() == (b / "suite.dat").read_bytes()
    lines = (a / "suite.csv").read_text().splitlines()
    assert len(lines) == 1 + 15 + 3


def test_cli_suite_is_reproducible_from_a_cold_start(tmp_path):
    """Criterion 9 on two independent computations: the second suite is
    not served from the first one's prepared kernels."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["suite", "--seed", "7", "--out", str(a)]) == 0
    harness._prepared.clear()
    assert main(["suite", "--seed", "7", "--out", str(b)]) == 0
    assert (a / "suite.csv").read_bytes() == (b / "suite.csv").read_bytes()
    assert (a / "suite.dat").read_bytes() == (b / "suite.dat").read_bytes()


def test_all_modes_rows_equal_standalone_simulations(monkeypatch):
    """run_kernel_all_modes simulates the runs that static and dynamic DAE
    share once, where their machine states meet.  On random kernels and
    machines every row still equals a standalone simulation of its
    schedule in every SimReport field, every report is immutable, and a
    joined report's suffix records are the earlier report's objects.
    Both outcomes of the join rule occur."""
    made = counting_runs(monkeypatch)
    rng = random.Random(13)
    joins = fallbacks = 0
    for i in range(40):
        m = random_machine(rng)
        overhead = rng.choice([Fraction(0), Fraction(1, 10)])
        size = rng.choice([None, 1, 3, 8])
        theta = rng.choice([Fraction(0), Fraction(1, 100), Fraction(1, 5)])
        kernel = BenchmarkKernel(name=f"rand{i}",
                                 text=print_program(random_loop_kernel(rng)),
                                 oracle=lambda seed: None)
        made.clear()
        rows = run_kernel_all_modes(kernel, m, theta=theta, slice_override=size,
                                    profiling_overhead=overhead)
        simulated = len(made) - 1  # prepare's baseline is one run

        prep = prepare(kernel, m, theta=theta, slice_override=size)
        fuel = harness.dae_fuel(prep.plan, prep.baseline.total.instr_count)
        scheds = {mode: build_schedule(mode, prep.plan, m,
                                       profiling_overhead=overhead)
                  for mode in machsim.MODES}
        for row in rows:
            prog = prep.seeded if row.mode == "baseline" else prep.plan.program
            alone = simulate(prog, scheds[row.mode], m, fuel=fuel)
            for f in dataclasses.fields(machsim.SimReport):
                assert getattr(row.report, f.name) == getattr(alone, f.name), \
                    (i, row.mode, f.name)

        dae = [scheds[mode] for mode in ("static_dae", "dynamic_dae")
               if scheds[mode] != scheds["baseline"]]
        runs = sum(r.function is not None for sched in dae for r in sched)
        assert simulated <= runs
        if simulated < runs:
            joins += 1
            # The runs not simulated are the static report's own records.
            st, dy = rows[1].report.runs, rows[2].report.runs
            n = 0
            while n < min(len(st), len(dy)) and st[-1 - n] is dy[-1 - n]:
                n += 1
            assert sum(r.kind == "run" for r in dy[len(dy) - n:]) == \
                runs - simulated, i
        elif len(dae) == 2 and dae[0][-1] == dae[1][-1]:
            fallbacks += 1
        for row in rows:
            assert_immutable(row.report)
    assert joins >= 1 and fallbacks >= 1, (joins, fallbacks)


def assert_immutable(rep) -> None:
    """No field of a report, its Stats or its records can be set, its
    runs are a tuple, its categories and block counts take no item
    assignment, and each read of its output is a new list."""
    for obj in (rep, rep.total, *rep.categories.values(), *rep.runs):
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
    assert isinstance(rep.runs, tuple)
    for mapping in (rep.categories, *(r.block_counts for r in rep.runs)):
        with pytest.raises(TypeError):
            mapping["x"] = 0
    output = rep.output
    rep.output.append(0)
    assert rep.output == output


def test_memo_served_prepare_equals_a_cold_one(monkeypatch):
    """A sweep over mshr_count profiles a kernel without prefetches once.
    Every later prepare is served from the memo and equals a cold one in
    every field, plan text, row JSON and CSV, and every report it hands
    out is immutable.  Running and emitting every mode leaves the memo's
    value as a cold prepare builds it."""
    profiled = []

    def counting(seeded, m, *rest):
        profiled.append(m.mshr_count)
        return profiled_baseline(seeded, m, *rest)

    monkeypatch.setattr(harness, "profiled_baseline", counting)
    rng = random.Random(17)
    for i in range(30):
        base_m = random_machine(rng)
        args = dict(theta=rng.choice([Fraction(0), Fraction(1, 100),
                                      Fraction(1, 5)]),
                    slice_override=rng.choice([None, 8, 64]))
        kernel = BenchmarkKernel(name=f"rand{i}",
                                 text=print_program(random_loop_kernel(rng)),
                                 oracle=lambda seed: None)
        harness._prepared.clear()
        for k, n in enumerate(sorted(rng.sample(range(1, 17), 3))):
            m = dataclasses.replace(base_m, mshr_count=n)
            profiled.clear()
            served = prepare(kernel, m, **args)
            served_rows = run_kernel_all_modes(kernel, m, **args)
            assert profiled == ([n] if k == 0 else []), (i, n)
            (stored,) = harness._prepared.values()
            for rep in (stored.baseline, served.baseline, served_rows[0].report):
                assert_immutable(rep)

            harness._prepared.clear()
            cold = prepare(kernel, m, **args)
            cold_rows = harness._run_modes(kernel.name, cold, machsim.MODES, m,
                                           Fraction(0))
            assert served == cold, (i, n)
            assert print_program(served.plan.program) == \
                print_program(cold.plan.program)
            assert [harness.report_to_json(r) for r in served_rows] == \
                [harness.report_to_json(r) for r in cold_rows], (i, n)
            assert rows_to_csv(served_rows) == rows_to_csv(cold_rows)

        (stored,) = harness._prepared.values()
        rows = run_kernel_all_modes(kernel, m, **args)
        json.dumps([harness.report_to_json(r) for r in rows])
        rows_to_csv(rows)
        rows_to_dat(rows)
        harness._prepared.clear()
        assert stored == prepare(kernel, m, **args), i


def test_memo_key_separates_every_input(monkeypatch):
    """A change to the seed's data, theta, rho, the slice override or any
    machine field but mshr_count prepares afresh; a repeat is served,
    and equals a cold prepare."""
    kernel = BenchmarkKernel(name="sum", text=SUM_KERNEL,
                             oracle=lambda seed: None)
    m = machine()
    variants = [{}, {"seed": 1}, {"theta": Fraction(1)}, {"rho": Fraction(1, 4)},
                {"slice_override": 3},
                {"machine": dataclasses.replace(m, mem_latency_ns=Fraction(7))},
                {"machine": MachineConfig(l1=L1Config(capacity_bytes=1024))}]
    variants = [dict(v, machine=v.get("machine", m)) for v in variants]
    colds = []
    for v in variants:
        harness._prepared.clear()
        colds.append(prepare(kernel, **v))
    harness._prepared.clear()
    profiled = []

    def counting(seeded, machine, *rest):
        profiled.append(1)
        return profiled_baseline(seeded, machine, *rest)

    monkeypatch.setattr(harness, "profiled_baseline", counting)
    for _ in range(2):
        for v, cold in zip(variants, colds):
            assert prepare(kernel, **v) == cold, v
    assert len(profiled) == len(variants)


def test_memo_serves_a_twin_kernel_under_its_own_name(monkeypatch):
    """Two kernels with equal text and different names share one profile
    and plan, and each one's rows carry its own name.  The served
    baseline shares the stored one's records."""
    profiled = []

    def counting_profile(seeded, m, *rest):
        profiled.append(1)
        return profiled_baseline(seeded, m, *rest)

    monkeypatch.setattr(harness, "profiled_baseline", counting_profile)
    rows = {}
    for name in ("first", "second"):
        kernel = BenchmarkKernel(name=name, text=SUM_KERNEL,
                                 oracle=lambda seed: None)
        rows[name] = run_kernel_all_modes(kernel, machine())
    assert len(profiled) == 1
    (stored,) = harness._prepared.values()
    assert rows["second"][0].report.runs is stored.baseline.runs
    for name, got in rows.items():
        assert [r.kernel for r in got] == [name] * 3
    assert rows_to_csv(rows["second"]) == \
        rows_to_csv(rows["first"]).replace("first", "second")


def test_memo_keeps_mshr_count_for_a_kernel_with_prefetches(monkeypatch):
    """An original with a prefetch allocates miss registers in its
    baseline, so each mshr_count is prepared afresh."""
    text = SUM_KERNEL.replace("  %v = load", "  prefetch %addr, 64 !origin=11\n"
                              "  %v = load")
    kernel = BenchmarkKernel(name="prefetching", text=text,
                             oracle=lambda seed: None)
    profiled = []

    def counting(seeded, m, *rest):
        profiled.append(m.mshr_count)
        return profiled_baseline(seeded, m, *rest)

    monkeypatch.setattr(harness, "profiled_baseline", counting)
    for n in (1, 4, 1, 4):
        prepare(kernel, dataclasses.replace(machine(), mshr_count=n))
    assert profiled == [1, 4]


def test_run_clocks_per_pass_are_pinned(monkeypatch):
    """The runs simulated in a seed-0 pass of each benchmark workload,
    each pass starting with prepare's memo empty, as in a fresh process.
    Static and dynamic DAE share every run from access(1) on, so the
    suite simulates 97 runs (145 with each schedule simulated alone).
    gather_sum and chase_sum have no prefetch of their own, so the sweep
    over 1, 4 and 16 miss registers profiles each once and reuses that
    baseline on 4 and 16.  chase_sum's access and execute functions have
    no prefetch either (only main__base, which no schedule runs, has
    one), so its decoupled reports from 1 miss register are served on 4
    and 16, while gather_sum's access phase prefetches and is simulated
    on each: 112 runs (122 without stored reports, 126 without the memo,
    228 with neither).  compute_poly has nothing to prefetch: its static
    schedule is the baseline's, and it has no random data, so its 8 seeds
    give one seeded program, one baseline and one dynamic report: 33 runs
    (257 without stored reports, 264 without the memo)."""
    made = counting_runs(monkeypatch)
    simulated = {}
    for name, run in workload_passes():
        harness._prepared.clear()
        made.clear()
        run()
        simulated[name] = len(made)
    assert simulated == {"suite": 97, "mlp_sweep": 112, "compute_poly": 33}


def test_warm_passes_parse_nothing(monkeypatch):
    """Each kernel parses and checks its text once per BenchmarkKernel,
    and the built-ins are loaded once per process.  So after one pass of
    each benchmark workload, a second pass with prepare's memo empty
    parses nothing and validates only the plans it builds: the suite's
    5, one for each of gather_sum and chase_sum across the three
    machines, and compute_poly's one for its 8 seeds."""
    for _, run in workload_passes():
        run()
    parsed = counting_calls(monkeypatch, parse_program)
    validated = counting_calls(monkeypatch, validate_program)
    counted = {}
    for name, run in workload_passes():
        harness._prepared.clear()
        parsed.clear()
        validated.clear()
        run()
        counted[name] = (len(parsed), len(validated))
    assert counted == {"suite": (0, 5), "mlp_sweep": (0, 2),
                       "compute_poly": (0, 1)}


def mshr_machine(n: int) -> MachineConfig:
    return dataclasses.replace(machine(), mshr_count=n)


def prefetches(prog: Program, name: str) -> bool:
    return any(isinstance(n, Prefetch) for n in prog.function(name).nodes())


def test_served_reports_equal_fresh_ones(monkeypatch):
    """A sweep over 1, 4 and 16 miss registers serves the decoupled
    reports of every kernel whose schedules run no prefetch.  For every
    built-in kernel at seeds 0 and 7, each row of the sweep equals the
    row a cold prepare and a fresh simulation give on that machine,
    machine digest included, and the served kernels are exactly those
    whose execute and access functions have no prefetch."""
    made = counting_runs(monkeypatch)
    served = set()
    for kernel in builtin_kernels():
        for seed in (0, 7):
            harness._prepared.clear()
            swept = {}
            for n in (1, 4, 16):
                made.clear()
                swept[n] = run_kernel_all_modes(kernel, mshr_machine(n),
                                                seed=seed)
                if n > 1 and not made:
                    served.add(kernel.name)
            for n, rows in swept.items():
                harness._prepared.clear()
                fresh = run_kernel_all_modes(kernel, mshr_machine(n), seed=seed)
                assert rows == fresh, (kernel.name, seed, n)
                assert [harness.report_to_json(r) for r in rows] == \
                    [harness.report_to_json(r) for r in fresh]
                for row in rows:
                    assert row.report.machine_digest == mshr_machine(n).digest()
                    assert_immutable(row.report)
    plans = {k.name: prepare(k, machine()).plan for k in builtin_kernels()}
    assert served == {name for name, plan in plans.items()
                      if not any(prefetches(plan.program, f)
                                 for f in (plan.execute, plan.access))}
    assert served >= {"compute_poly", "chase_sum"}
    assert "gather_sum" not in served


def test_prefetching_access_phase_is_simulated_per_mshr_count():
    """gather_sum's access phase prefetches, so its static DAE report on
    4 miss registers is simulated on them: it is faster than the
    1-register one, and equals a fresh simulation of the schedule."""
    kernel = kernel_by_name("gather_sum")
    reports = {}
    for n in (1, 4):
        m = mshr_machine(n)
        _, static, _ = run_kernel_all_modes(kernel, m)
        reports[n] = static.report
        prep = prepare(kernel, m)
        assert prefetches(prep.plan.program, prep.plan.access)
        fuel = harness.dae_fuel(prep.plan, prep.baseline.total.instr_count)
        alone = simulate(prep.plan.program,
                         build_schedule("static_dae", prep.plan, m), m, fuel=fuel)
        assert static.report == alone, n
    assert reports[4].total.wall_ns < reports[1].total.wall_ns


def test_chase_sum_is_served_although_its_base_phase_prefetches(monkeypatch):
    """chase_sum's plan prefetches only in main__base, which no schedule
    runs, so after 1 miss register its 4- and 16-register cells simulate
    nothing: the key reads the functions the schedules name, not the
    whole plan program."""
    kernel = kernel_by_name("chase_sum")
    plan = prepare(kernel, machine()).plan
    assert prefetches(plan.program, "main__base")
    assert not prefetches(plan.program, plan.execute)
    assert not prefetches(plan.program, plan.access)
    made = counting_runs(monkeypatch)
    for n in (1, 4, 16):
        made.clear()
        rows = run_kernel_all_modes(kernel, mshr_machine(n))
        assert bool(made) == (n == 1), n
        assert {r.report.machine_digest for r in rows} == \
            {mshr_machine(n).digest()}


def test_failing_schedule_stores_nothing(monkeypatch):
    """A decoupled schedule that runs past its budget raises, is not
    stored, and raises again on the next equal call; with its budget
    back it is simulated and its row equals a cold one."""
    kernel = kernel_by_name("gather_sum")
    fuel = harness.dae_fuel
    monkeypatch.setattr(harness, "dae_fuel", lambda plan, nodes: 1000)
    for _ in range(2):
        with pytest.raises(EquivalenceError, match=r"\[static_dae\] failed"):
            run_kernel_all_modes(kernel, machine())
        prep = prepare(kernel, machine())
        assert [stored for stored in prep.reports.values() if stored] == []
    monkeypatch.setattr(harness, "dae_fuel", fuel)
    rows = run_kernel_all_modes(kernel, machine())
    (stored,) = prep.reports.values()
    assert sorted(stored) == ["dynamic_dae", "static_dae"]
    harness._prepared.clear()
    assert rows == run_kernel_all_modes(kernel, machine())


def test_one_program_digest_per_prepared_kernel(monkeypatch):
    """Each prepare prints its seeded program once, on either path, and
    hands that digest down to the profile and every report; the plan's
    program, the same entry function and data with the phase functions
    beside them, has the same digest.  A cold pass of each benchmark
    workload digests one program per prepare call, and so does a
    prepare with a stored profile."""
    for kernel in builtin_kernels():
        prep = prepare(kernel, machine())
        assert prep.baseline.program_digest == \
            program_digest(prep.plan.program) == \
            program_digest(prep.seeded), kernel.name
    kernel = kernel_by_name("gather_sum")
    stored = profiled_baseline(kernel.program(), machine())[1]
    digests = []

    def counting(prog):
        digests.append(1)
        return program_digest(prog)

    for module in (harness, machsim, profiler):
        monkeypatch.setattr(module, "program_digest", counting)
    counted = {}
    for name, run in workload_passes():
        harness._prepared.clear()
        digests.clear()
        run()
        counted[name] = len(digests)
    assert counted == {"suite": 5, "mlp_sweep": 6, "compute_poly": 8}
    digests.clear()
    prepare(kernel, machine(), profile=stored)
    assert len(digests) == 1


SPARE = "func @spare() kind=original {\nentry:\n  ret\n}\n"


def test_one_digest_names_a_program_with_a_spare_function(tmp_path):
    """A function besides the entry never runs, so it is no part of the
    program's identity: the memo key, the profile, the baseline and
    every row's report carry the seeded program's digest, which is its
    plan's and the digest of the file without the spare function."""
    path = tmp_path / "two.dir"
    path.write_text(SUM_KERNEL + SPARE)
    kernel = load_kernel(str(path))
    seeded = kernel.program(0)
    digest = program_digest(seeded)
    assert digest == program_digest(parse_program(SUM_KERNEL))
    m = machine()
    rows = run_kernel_all_modes(kernel, m)
    assert [key[0] for key in harness._prepared] == [digest]
    assert {r.report.program_digest for r in rows} == {digest}
    assert rows[0].report == simulate_baseline(seeded, m)
    assert program_digest(prepare(kernel, m).plan.program) == digest
    assert profiled_baseline(seeded, m)[1].program_digest == digest
    assert main(["profile", "--kernel", str(path), "--out",
                 str(tmp_path / "p.json")]) == 0
    assert read_profile(tmp_path / "p.json").program_digest == digest


def test_cli_stored_profile_names_the_entry_function_and_data(tmp_path,
                                                              capsys):
    """A stored profile of a file with a spare function serves that file
    and one whose spare function changed, since it never runs, and is
    refused for a changed entry function or data segment unless
    --allow-stale waives it with one warning."""
    path, prof, out = tmp_path / "k.dir", tmp_path / "p.json", tmp_path / "r"
    path.write_text(SUM_KERNEL + SPARE)
    assert main(["profile", "--kernel", str(path), "--out", str(prof)]) == 0
    run = ["run", "--kernel", str(path), "--mode", "static_dae", "--profile",
           str(prof), "--emit", "json", "--out", str(out)]
    capsys.readouterr()
    assert main(run) == 0
    assert json.loads(out.read_text())["program_digest"] == \
        read_profile(prof).program_digest
    path.write_text(SUM_KERNEL + SPARE.replace("ret", "%x = const 1\n  ret"))
    assert main(run) == 0
    assert capsys.readouterr().err == ""
    mismatch = "profile was taken from a different program or seed"
    for edited in (SUM_KERNEL.replace("const 8", "const 7"),
                   SUM_KERNEL.replace("seed=7", "seed=8")):
        path.write_text(edited + SPARE)
        assert main(run) == 2
        assert capsys.readouterr().err.startswith(f"daef: {mismatch} ")
        assert main([*run, "--allow-stale"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"daef: warning: {mismatch}"]


def test_suite_past_its_budget_names_the_failing_mode(tmp_path, capsys,
                                                     monkeypatch):
    """With dae_fuel cut to 1,000 nodes the suite stops at its first
    failing cell, compute_poly's dynamic schedule.  Each kernel with
    something to prefetch fails first in static_dae, the earlier of the
    two schedules simulated together."""
    monkeypatch.setattr(harness, "dae_fuel", lambda plan, nodes: 1000)
    assert main(["suite", "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "daef: compute_poly [dynamic_dae] failed where its baseline ran"
        " (1000-node budget): fuel exhausted in block 'loop'\n")
    for name, block in (("stream_sum", "body"), ("gather_sum", "loop"),
                        ("chase_sum", "body"), ("stencil3", "body")):
        with pytest.raises(EquivalenceError) as err:
            run_kernel_all_modes(kernel_by_name(name), machine())
        assert str(err.value) == (
            f"{name} [static_dae] failed where its baseline ran"
            f" (1000-node budget): fuel exhausted in block '{block}'")
