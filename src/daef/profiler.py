"""Offline cache profiling of DIR programs, taken on the baseline run.

The profile is taken on the baseline simulation: the seeded original
runs once at f_max against the machine's L1, every miss stalling the
core for the full memory latency.  The simulator keeps two tallies for
it, the cache lines and the outright misses of each load id, which its
clock's load hook counts as it accounts each load; a load's execution
count is its block's entry count, which the baseline's one run record
keeps, as every run record does.
From that one run the profile ranks loads by the stall cycles they
caused and measures each canonical loop's cache footprint per
iteration, the two inputs the phase generator needs.  This module also
classifies critical loads and persists profiles as JSON, in the format
its dataclasses declare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .cfg import block_of, find_loops
from .inputs import from_json, read_json, to_json
from .ir import Load, Program, program_digest
from .machine import MachineConfig
from .machsim import SimReport, simulate_baseline

PROFILE_VERSION = 1


class ProfileError(ValueError):
    """Raised for unusable profile files and criticality thresholds."""


@dataclass
class LoadStats:
    id: int
    exec_count: int = field(metadata={"json": "exec"})
    miss_count: int = field(metadata={"json": "miss"})
    stall_cycles: int = field(metadata={"json": "stall"})
    lines: int  # distinct cache lines touched


@dataclass
class LoopFootprint:
    header: str
    bytes_per_iter: float

    def __post_init__(self):
        if not self.bytes_per_iter >= 0:
            raise ProfileError("bytes_per_iter is not a finite number >= 0")


@dataclass(kw_only=True)
class ProfileReport:
    version: int
    program_digest: str
    machine_digest: str
    total_stall_cycles: int
    loads: list[LoadStats]
    loops: list[LoopFootprint]

    def __post_init__(self):
        if self.version != PROFILE_VERSION:
            raise ProfileError(f"unsupported version {self.version}")

    def footprint(self, header: str) -> float | None:
        for lf in self.loops:
            if lf.header == header:
                return lf.bytes_per_iter
        return None


def profiled_baseline(seeded: Program, machine: MachineConfig,
                      digest: str | None = None
                      ) -> tuple[SimReport, ProfileReport]:
    """Simulate the baseline schedule of a seeded program and profile it
    on the way.

    The digest stored in the profile and the baseline identifies the
    seeded program, so a profile can only be replayed against the same
    input instance.  digest, when given, is program_digest(seeded), which
    is then not computed again.  The program must be valid, as
    BenchmarkKernel.program returns it.
    """
    if digest is None:
        digest = program_digest(seeded)
    fn = seeded.entry_function()
    line_bytes = machine.l1.line_bytes
    lines_of: dict[int, set[int]] = {
        instr.id: set() for blk in fn.blocks for instr in blk.body
        if isinstance(instr, Load)}
    miss_count = dict.fromkeys(lines_of, 0)
    base = simulate_baseline(seeded, machine, tally=(lines_of, miss_count),
                             digest=digest)

    # A load runs once each time its block is entered.
    counts = base.runs[0].block_counts
    where = block_of(fn)
    lat = machine.mem_latency_cycles(machine.f_max_ghz)
    loads = [LoadStats(id=i, exec_count=counts.get(where[i], 0),
                       miss_count=miss_count[i],
                       stall_cycles=miss_count[i] * lat, lines=len(lines_of[i]))
             for i in sorted(lines_of)]

    loops = []
    for li in find_loops(fn).loops:
        trips = counts.get(li.latch, 0)
        if trips <= 0:
            continue
        touched: set[int] = set()
        for lid, ls in lines_of.items():
            if where[lid] in li.body:
                touched |= ls
        loops.append(LoopFootprint(
            header=li.header,
            bytes_per_iter=len(touched) * line_bytes / trips,
        ))

    return base, ProfileReport(
        version=PROFILE_VERSION,
        program_digest=digest,
        machine_digest=machine.digest(),
        total_stall_cycles=sum(s.stall_cycles for s in loads),
        loads=loads,
        loops=loops,
    )


# -- criticality -------------------------------------------------------------


def classify_critical(report: ProfileReport,
                      theta: float | Fraction = Fraction(1, 100)) -> frozenset[int]:
    """The ids of the loads worth prefetching: stall share >= theta, and
    at least one actual miss."""
    th = Fraction(str(theta)) if not isinstance(theta, Fraction) else theta
    if not 0 <= th <= 1:
        raise ProfileError(f"theta {th} outside [0, 1]")
    total = report.total_stall_cycles
    if total <= 0:
        return frozenset()
    return frozenset(
        s.id for s in report.loads
        if s.miss_count > 0 and Fraction(s.stall_cycles, total) >= th
    )


# -- persistence -------------------------------------------------------------
#
# The file's keys and value types are the dataclasses' own, read and
# written by daef.inputs' codec.  No profile field has a default, so every
# key is required; the version and footprint checks are __post_init__'s.


def report_to_json(report: ProfileReport) -> dict:
    return to_json(report)


def write_profile(report: ProfileReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report_to_json(report), indent=2) + "\n")


def report_from_json(data, where: str = "profile") -> ProfileReport:
    return from_json(ProfileReport, data, where, ProfileError)


def read_profile(path: str | Path) -> ProfileReport:
    return report_from_json(read_json(path, ProfileError), where=str(path))
