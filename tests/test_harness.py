"""Tests for the pipelines, CSV emission, and the CLI."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from fractions import Fraction

import pytest

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
from daef.ir import parse_program, with_seed
from daef.ir import interp
from daef.ir.interp import init_memory, splitmix_fill
from daef.ir.validate import MAX_DATA_END
from daef.kernels import builtin_kernels, kernel_by_name
from daef.machine import MachineConfig
from daef import harness, machsim
from daef.machsim import baseline_schedule, simulate
from daef.profiler import profile_run, read_profile, report_to_json


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
    """The baseline doubles as the profiling run: 3 materializations per
    kernel, one for each mode."""
    calls = []

    def counting(prog, mem_size):
        calls.append(prog.entry)
        return init_memory(prog, mem_size)

    for name, mod in list(sys.modules.items()):
        if name.startswith("daef") and getattr(mod, "init_memory", None) \
                is init_memory:
            monkeypatch.setattr(mod, "init_memory", counting)
    for name in ("compute_poly", "stream_sum"):
        calls.clear()
        run_kernel_all_modes(kernel_by_name(name), machine())
        assert len(calls) == 3, name


def test_suite_fills_each_image_once(monkeypatch):
    """All three modes of a kernel read the same seeded image, so a suite
    pass fills each of the suite's 5 prng segments once."""
    fills = []

    def counting(seed, length):
        fills.append(seed)
        return splitmix_fill(seed, length)

    monkeypatch.setattr(interp, "splitmix_fill", counting)
    monkeypatch.setattr(interp, "_last_image", None, raising=False)
    run_suite(machine(), seed=0)
    assert len(fills) == len(set(fills)) == 5


def test_suite_rows_follow_kernel_order():
    m = machine()
    kernels = [kernel_by_name(n) for n in ("stream_sum", "compute_poly")]
    rows = run_suite(m, seed=3, kernels=kernels)
    assert [(r.kernel, r.mode) for r in rows] == [
        (k.name, mode) for k in kernels
        for mode in ("baseline", "static_dae", "dynamic_dae")]
    singles = [r for k in kernels for r in run_kernel_all_modes(k, m, seed=3)]
    assert rows_to_csv(rows) == rows_to_csv(singles)
    assert [k.name for k in builtin_kernels()][:2] != \
        [k.name for k in kernels]  # not the built-in order


def test_profile_reuse_and_staleness():
    m = machine()
    k = kernel_by_name("stream_sum")
    prof = profile_run(parse_program(k.text), m, input_seed=0)
    prep = prepare(k, m, seed=0, profile=prof)
    assert prep.profile is prof
    with pytest.raises(HarnessError, match="different program"):
        prepare(k, m, seed=1, profile=prof)
    warned = prepare(k, m, seed=1, profile=prof, allow_stale=True)
    assert warned.plan.n_slices >= 1
    other = dataclasses.replace(m, mshr_count=2)
    with pytest.raises(HarnessError, match="different machine"):
        check_profile(prof, with_seed(parse_program(k.text), 0), other)


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
    forged = dataclasses.replace(base, output=[123])
    with pytest.raises(EquivalenceError, match="diverged"):
        _row_from("stream_sum", "static_dae", forged, base)


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


def test_cli_run_emit_dir_prints_the_simulated_plan(tmp_path, capsys):
    prof = profile_run(parse_program(kernel_by_name("gather_sum").text),
                       machine())
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
