"""The benchmark's workloads: what one timed pass runs, and the result
cells it must produce.

A cell is one (kernel, mode, machine, kernel seed) result.  Its
fingerprint hashes the exact normalized time and energy, the output and
the final memory digest, so any change to a simulated number shows.

This module imports nothing from daef at load time: the set-up probe
starts its clock before daef is imported.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

MODES = ("baseline", "static_dae", "dynamic_dae")
SUITE_KERNELS = ("compute_poly", "stream_sum", "gather_sum", "chase_sum",
                 "stencil3")
MLP_KERNELS = ("gather_sum", "chase_sum")
MLP_MSHR_COUNTS = (1, 4, 16)
POLY_SEEDS = 8  # compute_poly runs at seeds S .. S+7 in one pass

NAMES = ("suite", "mlp_sweep", "compute_poly")


def kernels_used(workload: str) -> tuple[str, ...]:
    return {"suite": SUITE_KERNELS, "mlp_sweep": MLP_KERNELS,
            "compute_poly": ("compute_poly",)}[workload]


def machine_labels(workload: str) -> tuple[str, ...]:
    if workload == "mlp_sweep":
        return tuple(f"mshr{n}" for n in MLP_MSHR_COUNTS)
    return ("default",)


def kernel_seeds(workload: str, seed: int) -> tuple[int, ...]:
    if workload == "compute_poly":
        return tuple(range(seed, seed + POLY_SEEDS))
    return (seed,)


def cell_key(kernel: str, mode: str, machine: str, seed: int) -> str:
    return f"{kernel}/{mode}/{machine}/seed{seed}"


def expected_cells(workload: str, seed: int) -> list[tuple[str, str, int]]:
    """(cell key, kernel, kernel seed) for every cell one pass must yield."""
    return [(cell_key(k, mode, m, s), k, s)
            for m in machine_labels(workload)
            for s in kernel_seeds(workload, seed)
            for k in kernels_used(workload)
            for mode in MODES]


def fingerprint(row) -> str:
    rep = row.report
    text = (f"{row.norm_time}|{row.norm_energy}|{rep.output}"
            f"|{rep.memory_digest}")
    return hashlib.sha256(text.encode()).hexdigest()


def machines(workload: str):
    """(label, MachineConfig) pairs, from the public loader."""
    import dataclasses

    from daef.machine import load_machine

    base = load_machine(None)
    if workload == "mlp_sweep":
        return [(f"mshr{n}", dataclasses.replace(base, mshr_count=n))
                for n in MLP_MSHR_COUNTS]
    return [("default", base)]


def run_pass(workload: str, seed: int, out_dir: Path):
    """Run one pass through the public entry points.

    Returns (rows by (machine label, kernel seed), sha256 of emitted
    files).  The caller times this call.
    """
    import daef.cli
    from daef.harness import run_kernel_all_modes
    from daef.kernels import kernel_by_name

    if workload == "suite":
        captured = []
        run_suite = daef.cli.run_suite

        def capture(*args, **kwargs):
            rows = run_suite(*args, **kwargs)
            captured.append(rows)
            return rows

        daef.cli.run_suite = capture
        try:
            code = daef.cli.main(["suite", "--seed", str(seed),
                                  "--out", str(out_dir)])
        finally:
            daef.cli.run_suite = run_suite
        if code != 0 or len(captured) != 1:
            raise RuntimeError(f"daef suite exited {code}")
        files = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                 for name in ("suite.csv", "suite.dat")}
        return {("default", seed): captured[0]}, files

    rows = {}
    for label, machine in machines(workload):
        for s in kernel_seeds(workload, seed):
            rows[label, s] = [
                row for name in kernels_used(workload)
                for row in run_kernel_all_modes(kernel_by_name(name), machine,
                                                seed=s)]
    return rows, {}
