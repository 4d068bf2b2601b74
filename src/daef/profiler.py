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
classifies critical loads and persists profiles as JSON.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .cfg import block_of, find_loops
from .inputs import read_json
from .ir import Load, Program, program_digest
from .machine import MachineConfig
from .machsim import SimReport, simulate_baseline

PROFILE_VERSION = 1


class ProfileError(ValueError):
    """Raised for unusable profile files and criticality thresholds."""


@dataclass
class LoadStats:
    id: int
    exec_count: int = 0
    miss_count: int = 0
    stall_cycles: int = 0
    lines: int = 0  # distinct cache lines touched


@dataclass
class LoopFootprint:
    header: str
    bytes_per_iter: float


@dataclass
class ProfileReport:
    program_digest: str
    machine_digest: str
    total_stall_cycles: int
    loads: list[LoadStats] = field(default_factory=list)
    loops: list[LoopFootprint] = field(default_factory=list)
    version: int = PROFILE_VERSION

    def footprint(self, header: str) -> float | None:
        for lf in self.loops:
            if lf.header == header:
                return lf.bytes_per_iter
        return None


def profiled_baseline(seeded: Program,
                      machine: MachineConfig) -> tuple[SimReport, ProfileReport]:
    """Simulate the baseline schedule of a seeded program and profile it
    on the way.

    The digest stored in the profile identifies the seeded program, so a
    profile can only be replayed against the same input instance.  The
    program must be valid, as BenchmarkKernel.program returns it.
    """
    fn = seeded.entry_function()
    line_bytes = machine.l1.line_bytes
    lines_of: dict[int, set[int]] = {
        instr.id: set() for blk in fn.blocks for instr in blk.body
        if isinstance(instr, Load)}
    miss_count = dict.fromkeys(lines_of, 0)
    base = simulate_baseline(seeded, machine, tally=(lines_of, miss_count))

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
        program_digest=program_digest(seeded),
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

_TOP_KEYS = {"version", "program_digest", "machine_digest",
             "total_stall_cycles", "loads", "loops"}
_LOAD_KEYS = {"id", "exec", "miss", "stall", "lines"}
_LOOP_KEYS = {"header", "bytes_per_iter"}


def report_to_json(report: ProfileReport) -> dict:
    return {
        "version": report.version,
        "program_digest": report.program_digest,
        "machine_digest": report.machine_digest,
        "total_stall_cycles": report.total_stall_cycles,
        "loads": [
            {"id": s.id, "exec": s.exec_count, "miss": s.miss_count,
             "stall": s.stall_cycles, "lines": s.lines}
            for s in report.loads
        ],
        "loops": [
            {"header": lf.header, "bytes_per_iter": lf.bytes_per_iter}
            for lf in report.loops
        ],
    }


def write_profile(report: ProfileReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report_to_json(report), indent=2) + "\n")


def _need(d: dict, key: str, kinds, where: str):
    if key not in d:
        raise ProfileError(f"{where}: missing key {key!r}")
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, kinds):
        raise ProfileError(f"{where}: key {key!r} has the wrong type")
    return v


def report_from_json(data, where: str = "profile") -> ProfileReport:
    if not isinstance(data, dict):
        raise ProfileError(f"{where}: expected an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ProfileError(f"{where}: unknown keys {sorted(unknown)}")
    version = _need(data, "version", int, where)
    if version != PROFILE_VERSION:
        raise ProfileError(f"{where}: unsupported version {version}")
    loads = []
    raw_loads = _need(data, "loads", list, where)
    for k, entry in enumerate(raw_loads):
        ctx = f"{where}: loads[{k}]"
        if not isinstance(entry, dict):
            raise ProfileError(f"{ctx}: expected an object")
        if set(entry) - _LOAD_KEYS:
            raise ProfileError(f"{ctx}: unknown keys {sorted(set(entry) - _LOAD_KEYS)}")
        loads.append(LoadStats(
            id=_need(entry, "id", int, ctx),
            exec_count=_need(entry, "exec", int, ctx),
            miss_count=_need(entry, "miss", int, ctx),
            stall_cycles=_need(entry, "stall", int, ctx),
            lines=_need(entry, "lines", int, ctx),
        ))
    loops = []
    raw_loops = _need(data, "loops", list, where)
    for k, entry in enumerate(raw_loops):
        ctx = f"{where}: loops[{k}]"
        if not isinstance(entry, dict):
            raise ProfileError(f"{ctx}: expected an object")
        if set(entry) - _LOOP_KEYS:
            raise ProfileError(f"{ctx}: unknown keys {sorted(set(entry) - _LOOP_KEYS)}")
        header = _need(entry, "header", str, ctx)
        bytes_per_iter = _need(entry, "bytes_per_iter", (int, float), ctx)
        # NaN fails both comparisons; an int past the float range fails the
        # second, before float() could overflow.
        if not 0 <= bytes_per_iter <= sys.float_info.max:
            raise ProfileError(f"{ctx}: bytes_per_iter is not a finite number >= 0")
        loops.append(LoopFootprint(header=header,
                                   bytes_per_iter=float(bytes_per_iter)))
    return ProfileReport(
        program_digest=_need(data, "program_digest", str, where),
        machine_digest=_need(data, "machine_digest", str, where),
        total_stall_cycles=_need(data, "total_stall_cycles", int, where),
        loads=loads,
        loops=loops,
        version=version,
    )


def read_profile(path: str | Path) -> ProfileReport:
    return report_from_json(read_json(path, ProfileError), where=str(path))
