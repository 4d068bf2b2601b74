"""Planted faults that tier-1 must catch.

    python tests/mutants.py [NAME ...]

Each mutant is one exact text replacement in src/, a sentence on why the
replaced code would be wrong, and the tests that must fail with it.  For
each mutant (all of them, or those named) the script copies src/ to a
temporary directory, applies the replacement, which must match exactly
once, and runs only the named tests against the copy.  It prints one
line per mutant and exits 1 if any mutant survives or no longer applies.

A surviving mutant is a finding: add a test that kills it.  Drop a
mutant only when it is provably equivalent to the code it replaces.
This file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/daef/
    old: str
    new: str
    why: str
    tests: tuple[str, ...]  # pytest node ids under tests/


MUTANTS = [
    Mutant("load_past_the_end", "ir/interp.py",
           'f"if {test}{a} + {ins.width} > mem_size:"',
           'f"if {test}{a} + {ins.width} >= mem_size:"',
           "an access that ends exactly at mem_size is in bounds",
           ("test_oracle.py::test_runtime_faults_agree_with_the_walker",)),
    Mutant("prefetch_at_the_end", "ir/interp.py",
           'f"if {a} < mem_size:" if canonical', 'f"if {a} <= mem_size:" if canonical',
           "a prefetch of address mem_size is outside memory and dropped",
           ("test_oracle.py::test_runtime_faults_agree_with_the_walker",)),
    Mutant("signed_prefetch_at_the_end", "ir/interp.py",
           'f"if 0 <= {a} < mem_size:"', 'f"if 0 <= {a} <= mem_size:"',
           "the same, for an address that may be negative",
           ("test_ir.py::test_address_checks_agree_with_signed_addresses",)),
    Mutant("negative_address", "ir/interp.py",
           'test = "" if canonical else f"{a} < 0 or "', 'test = ""',
           "an address that may be negative must be tested for it",
           ("test_oracle.py::test_runtime_faults_agree_with_the_walker",)),
    Mutant("division_fault_without_id", "ir/interp.py",
           "raise _Err('division by zero', {ins.id})",
           "raise _Err('division by zero')",
           "a runtime fault names the node that raised it",
           ("test_oracle.py::test_runtime_faults_agree_with_the_walker",)),
    Mutant("recent_kept_across_a_fill", "machsim.py",
           "        recent = -1\n        while oldest <= now:\n",
           "        while oldest <= now:\n",
           "an installed fill may evict the remembered line, so the next"
           " load to it must probe its set",
           ("test_machsim.py::test_repeat_load_after_a_fill_into_its_set_misses",
            "test_machsim.py::test_same_line_shortcut_survives_what_leaves_its"
            "_set_alone",
            "test_oracle.py::test_timing_model_agrees_with_the_clock")),
    Mutant("prefetch_exit_without_done_test", "machsim.py",
           "if mshr.get(line, now) > now:", "if line in mshr:",
           "a prefetch to a line whose fill has completed installs the fills"
           " completed by then and makes that line the most recent",
           ("test_machsim.py::test_prefetch_in_flight_installs_nothing",
            "test_oracle.py::test_timing_model_agrees_with_the_clock")),
    Mutant("oldest_stale_after_a_join", "machsim.py",
           "                oldest = next(iter(mshr.values()), math.inf)\n"
           "                install(line)\n",
           "                install(line)\n",
           "a join may take the oldest fill; the next in flight completes"
           " later, and installing it earlier changes the L1",
           ("test_machsim.py::test_join_of_the_oldest_fill_waits_for_the_next",
            "test_oracle.py::test_timing_model_agrees_with_the_clock")),
    Mutant("load_count_misses_a_block", "machsim.py",
           "for b, n in cf.loads)", "for b, n in cf.loads[1:])",
           "a load-only run pays a hit for every load it ran that did not"
           " miss, in every block",
           ("test_machsim.py::test_load_only_runs_cost_their_nodes_hits_and"
            "_misses",
            "test_oracle.py::test_timing_model_agrees_with_the_clock")),
    Mutant("non_critical_prefetches_kept", "daegen.py",
           "if not (isinstance(n, Prefetch) and n.origin not in critical)]",
           "if not isinstance(n, Prefetch) or n.origin is None]",
           "the access phase prefetches only the critical loads",
           ("test_daegen.py::test_two_load_subsets_specialize_cleanly",)),
    Mutant("access_cleanup_once", "daegen.py",
           "if branches == sum(", "if True or branches == sum(",
           "a folded branch can leave a load unread; elimination and"
           " conversion must run again to prefetch it",
           ("test_daegen.py::test_folded_branch_frees_its_load_for_a_prefetch",
            "test_daegen.py::test_static_dae_beats_the_baseline_across_a_data"
            "_dependent_branch")),
    Mutant("cleanup_roots_not_in_phase", "daegen.py",
           "g = dce(g, {n.id for n in g.nodes() if n.id in targets})",
           "g = dce(g, set(targets))",
           "a target load in an arm the simplifier folded away is gone,"
           " not a root",
           ("test_daegen.py::test_target_load_in_an_arm_that_folds_away",)),
    Mutant("charge_kind_unchecked", "machsim.py",
           "if r.charge is not None and r.charge[0] != (",
           "if False and r.charge[0] != (",
           "a charge that does not fit its entry would be dropped or"
           " charged as the wrong thing",
           ("test_machsim.py::test_simulate_rejects_bad_inputs",)),
    Mutant("plan_code_not_shared", "harness.py",
           "machine, fuel=fuel, compiled=prep.compiled,",
           "machine, fuel=fuel,",
           "the modes of one plan run the code the plan compiled once",
           ("test_harness.py::test_suite_compiles_each_distinct_function_once",)),
    Mutant("join_without_fuel", "machsim.py",
           "sum(r.instr_count for r in s.records) <= fuel_box[0]", "True",
           "a schedule may share a suffix only if its fuel covers it",
           ("test_machsim.py::test_later_schedule_joins_only_with_fuel_for_the"
            "_shared_suffix",)),
    Mutant("join_ignores_l1", "machsim.py",
           "state = (cur.f, dict(env), mem_digest(), cache.snapshot())",
           "state = (cur.f, dict(env), mem_digest(), None)",
           "two schedules' equal suffixes cost alike only from equal L1s",
           ("test_machsim.py::test_join_requires_equal_l1_contents",)),
    Mutant("memo_ignores_mshr_count", "harness.py",
           "for n in fn.nodes()):\n        return machine\n",
           "for n in fn.nodes()):\n        return replace(machine, mshr_count=1)\n",
           "a kernel with prefetches is timed with the machine's miss registers",
           ("test_harness.py::test_memo_keeps_mshr_count_for_a_kernel_with"
            "_prefetches",)),
    Mutant("report_key_drops_mshr_count", "harness.py",
           "key = (_machine_key(map(plan.program.function, names), machine),",
           "key = (replace(machine, mshr_count=1),",
           "a decoupled report whose access phase prefetches is timed with"
           " the machine's miss registers",
           ("test_harness.py::test_prefetching_access_phase_is_simulated_per"
            "_mshr_count",
            "test_harness.py::test_served_reports_equal_fresh_ones")),
    Mutant("report_key_reads_the_whole_plan", "harness.py",
           "_machine_key(map(plan.program.function, names), machine)",
           "_machine_key(plan.program.functions, machine)",
           "a prefetch in a function no schedule runs allocates no miss"
           " register",
           ("test_harness.py::test_chase_sum_is_served_although_its_base"
            "_phase_prefetches",
            "test_harness.py::test_served_reports_equal_fresh_ones")),
    Mutant("served_report_keeps_its_machine", "harness.py",
           "rep = replace(stored[mode], machine_digest=machine.digest())",
           "rep = stored[mode]",
           "a served report describes the caller's machine",
           ("test_harness.py::test_chase_sum_is_served_although_its_base"
            "_phase_prefetches",
            "test_harness.py::test_served_reports_equal_fresh_ones")),
    Mutant("digest_prints_every_function", "ir/printer.py",
           "text = _text(prog, [prog.entry_function()], True)",
           "text = print_program(prog)",
           "only the entry function runs, so a plan and a file's spare"
           " functions are no part of the input's identity",
           ("test_harness.py::test_one_program_digest_per_prepared_kernel",
            "test_harness.py::test_one_digest_names_a_program_with_a_spare"
            "_function",
            "test_harness.py::test_cli_stored_profile_names_the_entry"
            "_function_and_data")),
    Mutant("kernel_program_not_copied", "kernels.py",
           "return with_seed(checked, seed) if seed else checked.copy()",
           "return with_seed(checked, seed) if seed else checked",
           "a caller may mutate the program it gets; the kernel keeps its own",
           ("test_kernels.py::test_program_is_a_fresh_copy_of_the_checked"
            "_text",)),
    Mutant("machine_digest_per_class", "machine.py",
           "        return self._digest\n",
           "        if not hasattr(MachineConfig, \"kept\"):\n"
           "            MachineConfig.kept = self._digest\n"
           "        return MachineConfig.kept\n",
           "each machine has its own digest, kept with its own fields",
           ("test_machine.py::test_digest_is_computed_per_instance",)),
    Mutant("codec_unknown_keys", "inputs.py",
           "unknown = data.keys() - spec.keys()", "unknown = set()",
           "a key no field declares is a typo, not a default",
           ("test_inputs.py::test_codec_refuses_unknown_keys_at_every_level",
            "test_machine.py::test_config_rejections")),
    Mutant("codec_required_keys", "inputs.py",
           "elif required:", "elif False:",
           "a profile without one of its keys is not a profile",
           ("test_inputs.py::test_codec_requires_fields_without_a_default",
            "test_profiler.py::test_read_profile_error_cases")),
    Mutant("codec_bool_as_int", "inputs.py",
           "if isinstance(value, bool) or not isinstance(value, kinds):",
           "if not isinstance(value, kinds):",
           "JSON true is not the integer 1",
           ("test_inputs.py::test_codec_checks_each_value_against_its"
            "_annotated_type",)),
    Mutant("codec_float_range", "inputs.py",
           "if not abs(value) <= sys.float_info.max:", "if False:",
           "a Fraction past the float range cannot be written back",
           ("test_inputs.py::test_codec_refuses_numbers_that_do_not_fit_a_float",
            "test_inputs.py::test_cli_machine_fraction_past_the_float_range"
            "_is_exit_2")),
    Mutant("store_offset_and_src_swapped", "ir/types.py",
           '("offset", Form.INT),\n                      ("src", Form.REG),',
           '("src", Form.REG),\n                      ("offset", Form.INT),',
           "a store is written base, offset, source, width; the printer and"
           " the parser read the order from one table, so a round trip"
           " alone cannot see it",
           ("test_ir.py::test_store_masks_to_width",)),
    Mutant("ret_value_not_read", "ir/types.py",
           "if form in (Form.REG, Form.VALUE, Form.OPT_VALUE,",
           "if form in (Form.REG, Form.VALUE,",
           "ret %r reads %r: the validator must see the read, and dead-code"
           " elimination must keep its definition",
           ("test_cfg.py::test_dce_drops_unrooted_effects_and_junk",
            "test_ir.py::test_diagnostics_are_pinned")),
    Mutant("brcond_false_label_dropped", "ir/types.py",
           '("if_true", Form.LABEL),\n                        ("if_false", Form.LABEL))),',
           '("if_true", Form.LABEL))),',
           "a brcond has two successors, written and read in that order",
           ("test_ir.py::test_round_trip_sum_kernel",)),
    Mutant("comma_after_binop_name", "ir/parser.py",
           "            if form != Form.OP:\n"
           "                if operands:\n"
           "                    self.skip_comma()\n"
           "                operands += 1\n",
           "            if operands:\n"
           "                self.skip_comma()\n"
           "            operands += 1\n",
           "a comma separates operands only; `binop add, %a, %b` is refused",
           ("test_ir.py::test_parse_errors",
            "test_ir.py::test_parse_results_of_token_mutants_are_pinned")),
    Mutant("bare_entry_without_charge", "machsim.py",
           "if r.function is None and r.charge is None:", "if False:",
           "an entry that neither runs nor charges would only switch the clock",
           ("test_machsim.py::test_simulate_rejects_bad_inputs",)),
    Mutant("fold_needs_one_definition", "cfg.py",
           "if len(truths) != 1 or None in truths",
           "if len(defs.get(t.cond, [])) != 1 or None in truths",
           "each slice clone's __resume redefines the prologue constants, so"
           " a branch on one folds only when all its definitions agree",
           ("test_cfg.py::test_simplify_folds_a_branch_when_every_definition"
            "_agrees",
            "test_daegen.py::test_target_load_in_an_arm_that_folds_away")),
    Mutant("fold_ignores_parameters", "cfg.py",
           " or t.cond in fn.params:", ":",
           "a parameter is defined on entry, so a const beside it fixes nothing",
           ("test_cfg.py::test_simplify_keeps_a_branch_on_a_parameter_with_one"
            "_const",)),
]


def run(m: Mutant, scratch: Path) -> str:
    """'killed', 'SURVIVED' or 'DOES NOT APPLY' for one mutant."""
    src = scratch / m.name
    shutil.copytree(ROOT / "src", src)
    target = src / "daef" / m.path
    text = target.read_text()
    if text.count(m.old) != 1:
        return "DOES NOT APPLY"
    target.write_text(text.replace(m.old, m.new))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *(f"tests/{t}" for t in m.tests)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode == 1:  # a test failed
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"ERROR (pytest exit {proc.returncode})"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for m in chosen:
            t = time.perf_counter()
            outcome = run(m, Path(tmp))
            bad += outcome != "killed"
            print(f"{m.name:32} {outcome:10} {time.perf_counter() - t:5.1f} s"
                  f"  ({m.why})")
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
