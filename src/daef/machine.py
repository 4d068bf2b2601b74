"""Machine description: frequencies, L1 cache shape, DVFS power model.

All derived arithmetic uses exact rationals.  JSON numbers are converted
through their decimal string form, so a config file's 3.4 GHz is the
rational 17/5, not the nearest binary float, and every timing or energy
figure downstream is exact.

The JSON keys are the dataclass fields (power_model is written "power"),
and the type of each field's default decides how its value is read: a
Fraction through the exact decimal form, an int as a whole number of at
least 1, a nested config recursively.  A missing key keeps its default.

Frequencies are in GHz, which doubles as cycles per nanosecond: a run of
C cycles at frequency f takes C / f nanoseconds of wall time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path

from .inputs import read_json
from .ir.validate import MAX_DATA_END


class MachineError(ValueError):
    """Raised for malformed or inconsistent machine configurations."""


def _frac(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MachineError(f"{where}: expected a number, got {value!r}")
    try:
        return Fraction(str(value))
    except ValueError:
        raise MachineError(f"{where}: cannot interpret {value!r} exactly")


def _nat(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MachineError(f"{where}: expected an integer, got {value!r}")
    if value < 1:
        raise MachineError(f"{where}: {value} is below the minimum 1")
    return value


_JSON_KEY = {"power_model": "power"}


def _from_json(cls, d, path: str = ""):
    name = path or "machine config"
    if not isinstance(d, dict):
        raise MachineError(f"{name}: expected an object, got {type(d).__name__}")
    by_key = {_JSON_KEY.get(f.name, f.name): f for f in fields(cls)}
    unknown = set(d) - set(by_key)
    if unknown:
        raise MachineError(f"{name}: unknown keys {sorted(unknown)}")
    values = {}
    for key, f in by_key.items():
        if key not in d:
            continue
        where = f"{path}.{key}" if path else key
        if isinstance(f.default, Fraction):
            values[f.name] = _frac(d[key], where)
        elif isinstance(f.default, int):
            values[f.name] = _nat(d[key], where)
        else:
            values[f.name] = _from_json(type(f.default), d[key], where)
    return cls(**values)


def _to_json(cfg) -> dict:
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(f.default):
            value = _to_json(value)
        elif isinstance(f.default, Fraction):
            value = float(value)
        out[_JSON_KEY.get(f.name, f.name)] = value
    return out


@dataclass(frozen=True)
class L1Config:
    capacity_bytes: int = 32768
    line_bytes: int = 64
    ways: int = 8
    hit_cycles: int = 4

    def __post_init__(self):
        if self.line_bytes <= 0 or self.capacity_bytes <= 0:
            raise MachineError("l1: capacity and line size must be positive")
        if self.capacity_bytes > MAX_DATA_END:
            # No program has more lines than this to cache.
            raise MachineError(f"l1: capacity_bytes must not exceed {MAX_DATA_END},"
                               " the data memory limit")
        if self.capacity_bytes % self.line_bytes:
            raise MachineError("l1: capacity must be a multiple of the line size")
        if self.ways < 1:
            raise MachineError("l1: ways must be at least 1")
        lines = self.capacity_bytes // self.line_bytes
        if lines % self.ways:
            raise MachineError("l1: line count must be a multiple of ways")
        if self.hit_cycles < 1:
            raise MachineError("l1: hit_cycles must be at least 1")

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
            raise MachineError("power: alpha + beta must equal 1 exactly")
        if not 0 < self.v_min_ratio <= 1:
            raise MachineError("power: v_min_ratio must be in (0, 1]")
        if self.p_static < 0 or self.c_dyn < 0:
            raise MachineError("power: p_static and c_dyn must be non-negative")


@dataclass(frozen=True)
class MachineConfig:
    f_max_ghz: Fraction = Fraction("3.4")
    f_min_ghz: Fraction = Fraction("1.6")
    l1: L1Config = L1Config()
    mem_latency_ns: Fraction = Fraction(60)
    mshr_count: int = 10
    dvfs_switch_ns: Fraction = Fraction(100)
    jit_ns_per_instr: Fraction = Fraction(50)
    power_model: PowerConfig = PowerConfig()

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

    from_json = classmethod(_from_json)  # from_json(d) -> MachineConfig
    to_json = _to_json

    def digest(self) -> str:
        canon = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def load_machine(path: str | Path | None) -> MachineConfig:
    """Read a machine config from a JSON file, or the defaults when None."""
    if path is None:
        return MachineConfig()
    data = read_json(path, MachineError)
    try:
        return MachineConfig.from_json(data)
    except MachineError as e:
        raise MachineError(f"{path}: {e}")


class LruCache:
    """Set-associative L1 with strict least-recently-used replacement.

    Tracks cache lines by line number (address // line_bytes).  Each set
    keeps its lines in recency order, least recent first.  A set comes
    into being on its first install, so an empty cache costs nothing
    however many sets it has.  Lookups, touches and installs are split so
    callers can model latency between the probe and the fill.
    """

    def __init__(self, l1: L1Config):
        self.l1 = l1
        self.n_sets = l1.n_sets
        self.sets: dict[int, dict[int, None]] = {}  # set index -> lines

    def line_of(self, addr: int) -> int:
        return addr // self.l1.line_bytes

    def contains(self, line: int) -> bool:
        return line in self.sets.get(line % self.n_sets, ())

    def touch(self, line: int) -> None:
        """Make a resident line most recent; KeyError if it is not resident."""
        s = self.sets[line % self.n_sets]
        del s[line]
        s[line] = None

    def install(self, line: int) -> int | None:
        """Insert a line as most recent; returns the evicted line, if any."""
        s = self.sets.setdefault(line % self.n_sets, {})
        evicted = None
        if line in s:
            del s[line]
        elif len(s) >= self.l1.ways:
            evicted = next(iter(s))
            del s[evicted]
        s[line] = None
        return evicted

    def resident_lines(self) -> set[int]:
        return {line for s in self.sets.values() for line in s}
