"""The daef benchmark: time the toolkit from outside, one fresh process per pass.

    python3 bench/run.py --workload suite --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --selftest              # the correctness gate bites

Load is a closed loop with one client: each timed pass runs in a new
Python child (bench/child.py) and the next starts only after it exits.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps every daef layer in spans and reports the per-layer metrics named
in BENCHMARK.json.  Every result cell is checked against the kernel's
own oracle, against the committed fingerprints in fingerprints.json
when they cover the seed, and against the run's first pass.  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FINGERPRINTS = BENCH / "fingerprints.json"
SETUP_SAMPLES = 11
# Time of one child.calibrate() loop on the reference host, an idle 2-vCPU
# KVM guest on an Intel Xeon (Sapphire Rapids) with Python 3.11.7.  It sets
# the unit of every reported time: seconds at that host's speed.
REF_CAL_S = 0.0027
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken child)."""


def child(*args: str) -> dict:
    """Run bench/child.py in a fresh interpreter; return its last JSON line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> dict:
    """Where and on what a result was measured."""
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "daef").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


# -- the correctness gate ------------------------------------------------------

class Gate:
    """Decides which cells of a pass failed."""

    def __init__(self, workload: str, seed: int):
        self.keys = workloads.expected_cells(workload, seed)
        committed = {}
        if FINGERPRINTS.is_file():
            committed = json.loads(FINGERPRINTS.read_text())
        self.committed = committed.get(workload, {}).get(str(seed))
        self.first = None  # the first pass with no failed cell
        self.reference = None  # its fingerprints

    def failed(self, result: dict, expected: list[dict] | None = None) -> set[str]:
        """Keys of the cells this pass got wrong.

        A cell fails on an exception or equivalence error (no cell), an
        output other than its kernel's oracle (computed by the child after
        it measured its peak RSS), or a fingerprint or emitted file that
        differs from an expected one.
        """
        if expected is None:
            expected = [e for e in (self.committed, self.reference) if e]
        cells, files = result["cells"], result["files"]
        if result["error"] or any(files.get(n) != h for e in expected
                                  for n, h in e["files"].items()):
            return {key for key, _, _ in self.keys}
        bad = set()
        for key, kernel, s in self.keys:
            cell = cells.get(key)
            want = result["oracle"][f"{kernel}/{s}"]
            if (cell is None or cell["output"] != want
                    or any(e["cells"].get(key, cell["fp"]) != cell["fp"]
                           for e in expected)):
                bad.add(key)
        if not bad and self.first is None:
            self.first = dict(result)
            self.reference = {"cells": {k: c["fp"] for k, c in cells.items()},
                              "files": files}
        return bad

    def bites(self) -> bool:
        """A perturbed fingerprint must fail exactly its own cell."""
        if self.first is None:
            return False
        key = self.keys[0][0]
        cells = dict(self.reference["cells"], **{key: "0" * 64})
        perturbed = {"cells": cells, "files": self.reference["files"]}
        return self.failed(self.first, [perturbed]) == {key}


# -- runs ------------------------------------------------------------------------

def timed_passes(workload: str, seed: int, seconds: float, gate: Gate,
                 trace: bool, first_untraced: bool = False):
    """Passes until the next one would end after `seconds`.

    At least one pass, and with first_untraced at least one traced pass
    after the untraced one.
    """
    min_passes = 2 if first_untraced else 1
    passes = []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while True:
        traced = trace and not (first_untraced and not passes)
        out_dir = OUT / f"{workload}-{seed}-{os.getpid()}-{len(passes)}"
        load_before = os.getloadavg()
        t0 = time.perf_counter()
        result = child("pass", workload, str(seed), "1" if traced else "0",
                       str(out_dir))
        longest = max(longest, time.perf_counter() - t0)
        result["load_before"], result["load_after"] = load_before, os.getloadavg()
        result["traced"] = traced
        result["failed"] = sorted(gate.failed(result))
        if traced:
            trace_file = OUT / f"trace-{workload}-seed{seed}.json"
            shutil.move(result.pop("trace"), trace_file)  # the last pass's stays
            if not result["error"]:
                events = json.loads(trace_file.read_text())["traceEvents"]
                result["layers"] = tracing.layer_metrics(events)
                result["span_errors"] = tracing.thread_self_excess(events)
        shutil.rmtree(out_dir, ignore_errors=True)
        del result["cells"], result["oracle"]
        passes.append(result)
        if (len(passes) >= min_passes
                and time.perf_counter() + longest > deadline):
            return passes


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def host_factor(child_result: dict) -> float:
    """Reference-host seconds per second measured in one child.

    The child's work W, in reference seconds, took wall time T while the
    host ran at speed REF_CAL_S / cal(t), so W = T * mean(REF_CAL_S / cal)
    over its calibration loops, which sample that time evenly (see
    README: host speed).
    """
    return statistics.fmean(REF_CAL_S / c for c in child_result["cal_s"])


def end_to_end(workload: str, seed: int, seconds: float, gate: Gate):
    kernels = ",".join(workloads.kernels_used(workload))
    child("setup", kernels)  # untimed: writes the bytecode caches
    setups = [child("setup", kernels) for _ in range(SETUP_SAMPLES)]
    passes = timed_passes(workload, seed, seconds, gate, trace=False)
    walls = [p["wall_s"] * host_factor(p) for p in passes]
    samples = {
        "wall_s": walls,
        "sim_nodes_per_s": [p["nodes"] / w for p, w in zip(passes, walls)],
        "setup_s": [s["setup_s"] * host_factor(s) for s in setups],
        "peak_rss_mib": [p["rss_mib"] for p in passes],
    }
    raw = {"wall_s": [p["wall_s"] for p in passes],
           "setup_s": [s["setup_s"] for s in setups],
           "setup_cal_s": [s["cal_s"] for s in setups]}
    return samples, raw, passes


def per_layer(workload: str, seed: int, seconds: float, gate: Gate):
    child("setup", ",".join(workloads.kernels_used(workload)))
    passes = timed_passes(workload, seed, seconds, gate, trace=True,
                          first_untraced=True)
    untraced = passes[0]
    traced = [p for p in passes[1:] if "layers" in p]  # no layers if it raised
    units = declared("per_layer")
    power = {"s": 1, "ns": 1, "1/s": -1}  # how host time enters each unit
    samples = {name: [p["layers"][name]
                      * host_factor(p) ** power.get(units.get(name), 0)
                      for p in traced]
               for name in (traced[0]["layers"] if traced else ())}
    base = untraced["wall_s"] * host_factor(untraced)
    samples["trace.overhead_frac"] = [p["wall_s"] * host_factor(p) / base - 1
                                      for p in traced]
    errors = [f"{name} differs between traced passes: {samples[name]}"
              for name in tracing.EXACT if len(set(samples.get(name, []))) > 1]
    raw = {name: [p["layers"][name] for p in traced]
           for name in samples if units.get(name) in power}
    return samples, dict(raw, errors=errors), passes


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    gate = Gate(workload, seed)
    env = environment()
    measure = per_layer if trace else end_to_end
    samples, raw, passes = measure(workload, seed, seconds, gate)
    units = declared("per_layer" if trace else "end_to_end")
    errors = raw.pop("errors", []) + [e for p in passes
                                      for e in p.get("span_errors", [])]
    if set(samples) != set(units):
        errors.append(f"metrics {sorted(set(samples) ^ set(units))} are "
                      "measured but not declared, or declared but not measured")
    bites = gate.bites()
    attempted = len(gate.keys) * len(passes)
    failed = sum(len(p["failed"]) for p in passes)
    summary = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values) if values else (0.0, 0.0, 0.0)
        summary[name] = {"value": med, "unit": units.get(name, "?"), "q1": q1,
                         "q3": q3, "n": len(values)}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "attempted": attempted,
              "failed": failed, "gate_bites": bites, "errors": errors,
              "metrics": summary, "samples": samples, "uncorrected": raw,
              "passes": passes}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def print_record(record: dict) -> None:
    env = record["env"]
    print(f"# {record['workload']} seed {record['seed']} trace {int(record['trace'])}:"
          f" git {env['git_sha']} src {env['src_sha256'][:12]} python {env['python']}"
          f" nproc {env['nproc']}")
    for p in record["passes"]:
        print(f"#   pass wall {p['wall_s']:.3f} s  host factor"
              f" {host_factor(p):.3f}  load {p['load_before'][0]:.2f}"
              f" -> {p['load_after'][0]:.2f}  failed {len(p['failed'])}")
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"#   failed_frac {frac:.4f} ({record['failed']} of {record['attempted']}"
          f" cells)  gate_bites {record['gate_bites']}")
    for name, m in record["metrics"].items():
        print(f"#   {name:42s} {m['value']:.6g} {m['unit']}  (q1 {m['q1']:.6g},"
              f" q3 {m['q3']:.6g}, n {m['n']})")
    for e in record["errors"]:
        print(f"#   error: {e}")


def result_line(record: dict) -> dict:
    correct = (record["failed"] == 0 and record["gate_bites"]
               and not record["errors"])
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                        for n, m in record["metrics"].items()}}


def selftest() -> bool:
    """One compute_poly pass at seed 0; the gate must pass it and must
    fail it once a committed fingerprint or an output is perturbed."""
    gate = Gate("compute_poly", 0)
    (result,) = timed_passes("compute_poly", 0, 0, gate, trace=False)
    key = gate.keys[0][0]
    wrong_fp = {"cells": dict(gate.committed["cells"], **{key: "f" * 64}),
                "files": {}}
    wrong_output = dict(gate.first, cells={
        k: dict(c, output=[0]) if k == key else c
        for k, c in gate.first["cells"].items()})
    checks = {
        "committed fingerprints cover seed 0": gate.committed is not None,
        "the pass has no failed cell": result["failed"] == [],
        "a perturbed committed fingerprint fails its cell":
            gate.failed(gate.first, [wrong_fp]) == {key},
        "a wrong output fails its cell": gate.failed(wrong_output) == {key},
        "a perturbed first-pass fingerprint fails its cell": gate.bites(),
    }
    for what, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return all(checks.values())


def write_fingerprints(seeds=(0, 7)) -> None:
    """Record every workload's cell fingerprints at the given seeds.

    Run this only on code whose simulated numbers are known good: the
    oracle still gates each cell, but the fingerprints become the truth.
    """
    data = {}
    for workload in workloads.NAMES:
        for seed in seeds:
            gate = Gate(workload, seed)
            gate.committed = None
            (result,) = timed_passes(workload, seed, 0, gate, trace=False)
            if result["failed"]:
                raise BenchError(f"{workload} seed {seed}: cells "
                                 f"{result['failed']} fail their oracle")
            data.setdefault(workload, {})[str(seed)] = gate.reference
    FINGERPRINTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check that the correctness gate catches mismatches")
    ap.add_argument("--write-fingerprints", action="store_true",
                    help="record cell fingerprints at seeds 0 and 7")
    args = ap.parse_args(argv)
    if not (SRC / "daef" / "__init__.py").is_file():
        print(f"bench: no daef sources under {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        return 0 if selftest() else 1
    if args.write_fingerprints:
        write_fingerprints()
        return 0
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    ok = True
    try:
        for name in names:
            record = run(name, args.seed, args.seconds, bool(args.trace))
            print_record(record)
            line = result_line(record)
            ok = ok and line["correct"]
            if args.workload != "all":
                print(json.dumps(line))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
