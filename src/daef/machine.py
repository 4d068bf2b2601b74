"""Machine description: frequencies, L1 cache shape, DVFS power model.

All derived arithmetic uses exact rationals.  JSON numbers are converted
through their decimal string form, so every timing or energy figure
downstream is exact.

The JSON keys are the dataclass fields (power_model is written "power"),
read and written by daef.inputs' codec from the annotated field types; a
missing key keeps its default.  Each class's __post_init__ holds its
range checks, the minimum 1 of every int field among them.

Frequencies are in GHz, which doubles as cycles per nanosecond: a run of
C cycles at frequency f takes C / f nanoseconds of wall time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from . import inputs
from .ir.validate import MAX_DATA_END


class MachineError(ValueError):
    """Raised for malformed or inconsistent machine configurations."""


@dataclass(frozen=True)
class L1Config:
    capacity_bytes: int = 32768
    line_bytes: int = 64
    ways: int = 8
    hit_cycles: int = 4

    def __post_init__(self):
        if self.line_bytes <= 0 or self.capacity_bytes <= 0:
            raise MachineError("capacity and line size must be positive")
        if self.capacity_bytes > MAX_DATA_END:
            # No program has more lines than this to cache.
            raise MachineError(f"capacity_bytes must not exceed {MAX_DATA_END},"
                               " the data memory limit")
        if self.capacity_bytes % self.line_bytes:
            raise MachineError("capacity must be a multiple of the line size")
        if self.ways < 1:
            raise MachineError("ways must be at least 1")
        lines = self.capacity_bytes // self.line_bytes
        if lines % self.ways:
            raise MachineError("line count must be a multiple of ways")
        if self.hit_cycles < 1:
            raise MachineError("hit_cycles must be at least 1")

    @property
    def n_sets(self) -> int:
        return self.capacity_bytes // self.line_bytes // self.ways


@dataclass(frozen=True)
class PowerConfig:
    """P(f, ipc) = p_static + c_dyn * v(f)^2 * (f/f_max) * (alpha + beta*ipc).

    v(f) ramps linearly from v_min_ratio at f_min to 1 at f_max,
    expressing voltage relative to its maximum.  alpha is the
    activity-independent share of dynamic power, beta the share that
    scales with achieved IPC; they must sum to one.
    """

    p_static: Fraction = Fraction(1)
    c_dyn: Fraction = Fraction(3)
    alpha: Fraction = Fraction(3, 10)
    beta: Fraction = Fraction(7, 10)
    v_min_ratio: Fraction = Fraction(4, 5)

    def __post_init__(self):
        if self.alpha + self.beta != 1:
            raise MachineError("alpha + beta must equal 1 exactly")
        if not 0 < self.v_min_ratio <= 1:
            raise MachineError("v_min_ratio must be in (0, 1]")
        if self.p_static < 0 or self.c_dyn < 0:
            raise MachineError("p_static and c_dyn must be non-negative")


@dataclass(frozen=True)
class MachineConfig:
    f_max_ghz: Fraction = Fraction("3.4")
    f_min_ghz: Fraction = Fraction("1.6")
    l1: L1Config = L1Config()
    mem_latency_ns: Fraction = Fraction(60)
    mshr_count: int = 10
    dvfs_switch_ns: Fraction = Fraction(100)
    jit_ns_per_instr: Fraction = Fraction(50)
    power_model: PowerConfig = field(default=PowerConfig(),
                                     metadata={"json": "power"})

    def __post_init__(self):
        for f in (self.f_min_ghz, self.f_max_ghz):
            # Far outside this range, exact times outgrow what a float prints.
            if not Fraction(1, 1000) <= f <= 1000:
                raise MachineError("frequencies must be positive, within"
                                   " [0.001, 1000] GHz")
        if self.f_min_ghz > self.f_max_ghz:
            raise MachineError("f_min_ghz must not exceed f_max_ghz")
        if self.mem_latency_ns < 0 or self.dvfs_switch_ns < 0 or self.jit_ns_per_instr < 0:
            raise MachineError("latencies must be non-negative")
        if self.mshr_count < 1:
            raise MachineError("mshr_count must be at least 1")

    # -- derived timing ----------------------------------------------------

    def mem_latency_cycles(self, f_ghz: Fraction) -> int:
        """Memory latency is wall-clock fixed, so the cycle cost scales with f."""
        return math.ceil(self.mem_latency_ns * f_ghz)

    def voltage_ratio(self, f_ghz: Fraction) -> Fraction:
        if self.f_max_ghz == self.f_min_ghz:
            return Fraction(1)
        span = (f_ghz - self.f_min_ghz) / (self.f_max_ghz - self.f_min_ghz)
        return self.power_model.v_min_ratio + (1 - self.power_model.v_min_ratio) * span

    def power(self, f_ghz: Fraction, ipc: Fraction) -> Fraction:
        """Dissipated power (arbitrary units) at frequency f and achieved IPC.

        The core retires at most one node per cycle, so IPC is in [0, 1].
        """
        if not self.f_min_ghz <= f_ghz <= self.f_max_ghz:
            raise MachineError(f"frequency {f_ghz} outside [{self.f_min_ghz}, {self.f_max_ghz}]")
        if not 0 <= ipc <= 1:
            raise MachineError(f"ipc {ipc} outside [0, 1]")
        pm = self.power_model
        v = self.voltage_ratio(f_ghz)
        util = pm.alpha + pm.beta * ipc
        return pm.p_static + pm.c_dyn * v * v * (f_ghz / self.f_max_ghz) * util

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json(cls, data, where: str = "machine config") -> MachineConfig:
        return inputs.from_json(cls, data, where, MachineError)

    def to_json(self) -> dict:
        return inputs.to_json(self)

    @cached_property
    def _digest(self) -> str:
        canon = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def digest(self) -> str:
        """sha256 of the canonical JSON, computed once per instance: every
        field is immutable, and dataclasses.replace makes a new one."""
        return self._digest


def load_machine(path: str | Path | None) -> MachineConfig:
    """Read a machine config from a JSON file, or the defaults when None."""
    if path is None:
        return MachineConfig()
    return MachineConfig.from_json(inputs.read_json(path, MachineError), str(path))


class LruCache:
    """Set-associative L1 with strict least-recently-used replacement.

    Tracks cache lines by line number (address // line_bytes).  Each set
    keeps its lines in recency order, least recent first: sets maps a set
    index (line % n_sets) to a dict of its lines, and a set comes into
    being on its first install, so an empty cache costs nothing however
    many sets it has.  The simulator's clock probes sets directly and
    moves a hit line to the most recent end itself; it calls install for
    misses and fills, so it can model latency between the probe and the
    fill.
    """

    def __init__(self, l1: L1Config):
        self.l1 = l1
        self.n_sets, self.ways = l1.n_sets, l1.ways
        self.sets: dict[int, dict[int, None]] = {}  # set index -> lines

    def contains(self, line: int) -> bool:
        return line in self.sets.get(line % self.n_sets, ())

    def snapshot(self) -> dict[int, tuple[int, ...]]:
        """Each non-empty set's lines, least recent first.  Two caches of
        one shape with equal snapshots behave alike from then on; an
        absent set and an empty one compare equal."""
        return {i: tuple(s) for i, s in self.sets.items() if s}

    def install(self, line: int) -> int | None:
        """Insert a line as most recent; returns the evicted line, if any."""
        s = self.sets.get(line % self.n_sets)
        if s is None:
            self.sets[line % self.n_sets] = {line: None}
            return None
        evicted = None
        if line in s:
            del s[line]
        elif len(s) >= self.ways:
            evicted = next(iter(s))
            del s[evicted]
        s[line] = None
        return evicted
