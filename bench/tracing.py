"""Spans around the calls into each daef layer, and the per-layer metrics
derived from them.

The tracer wraps public functions from outside the program: each wrapped
name is replaced in every daef module that binds it, because callers
such as harness and profiler look names up in their own globals
(`from .x import f`).  A span records wall time and thread CPU time; the
span stack is per thread, since `run_suite` runs kernels on a thread
pool.  Cache probes are plain counters, not spans.

Spans are kept in memory and written as Chrome Trace Event JSON, one
complete ("X") event per span plus one counter ("C") event, which
Perfetto and chrome://tracing open as is.  `layer_metrics` reads that
same event list back.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import threading
import time
from fractions import Fraction

PROBE = "bench.interpret_probe"
PASS = "bench.pass"


def _data_bytes(result, args, kwargs) -> dict:
    prog = args[0] if args else kwargs["prog"]
    return {"bytes": sum(seg.length for seg in prog.data)}


def _interp_nodes(trace, args, kwargs) -> dict:
    return {"nodes": sum(trace.retired_by_static_id.values())}


def _sim_report(rep, args, kwargs) -> dict:
    runs = sum(1 for r in rep.runs if r.kind == "run")
    return {"nodes": rep.total.instr_count, "runs": runs,
            "charges": len(rep.runs) - runs,
            "sim_wall_ns": str(rep.total.wall_ns)}


def _kernel_rows(rows, args, kwargs) -> dict:
    return {"kernel": rows[0].kernel,
            "norm_energy": {r.mode: str(r.norm_energy) for r in rows}}


# (span name, defining module, attribute, args from the result)
TRACED = (
    ("ir.parse_program", "daef.ir.parser", "parse_program", None),
    ("ir.validate_program", "daef.ir.validate", "validate_program", None),
    ("ir.init_memory", "daef.ir.interp", "init_memory", _data_bytes),
    ("ir.interpret", "daef.ir.interp", "interpret", _interp_nodes),
    ("cfg.find_loops", "daef.cfg", "find_loops", None),
    ("profiler.profile_run", "daef.profiler", "profile_run", None),
    ("daegen.make_phases", "daef.daegen", "make_phases", None),
    ("machine.load_machine", "daef.machine", "load_machine", None),
    ("machsim.simulate", "daef.machsim", "simulate", _sim_report),
    ("harness.prepare", "daef.harness", "prepare", None),
    ("harness.run_kernel_all_modes", "daef.harness", "run_kernel_all_modes",
     _kernel_rows),
    ("harness.run_suite", "daef.harness", "run_suite", None),
    ("harness.rows_to_csv", "daef.harness", "rows_to_csv", None),
    ("harness.rows_to_dat", "daef.harness", "rows_to_dat", None),
    ("harness.report_to_json", "daef.harness", "report_to_json", None),
    ("cli.main", "daef.cli", "main", None),
)
EMIT = ("harness.rows_to_csv", "harness.rows_to_dat", "harness.report_to_json")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter_ns()
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[dict] = []  # per-thread counters, summed at the end
        self._lock = threading.Lock()

    def _state(self):
        st = self._local.__dict__
        if "stack" not in st:
            st["stack"] = []
            st["counts"] = {"probes": 0, "hits": 0, "installs": 0}
            with self._lock:
                self._threads.append(st["counts"])
        return st

    def wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._state()["stack"]
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            c0, w0 = time.thread_time_ns(), time.perf_counter_ns()
            extra = None
            try:
                result = fn(*args, **kwargs)
                extra = describe(result, args, kwargs) if describe else {}
                return result
            finally:
                w1, c1 = time.perf_counter_ns(), time.thread_time_ns()
                stack.pop()
                self.spans.append({
                    "name": name, "ph": "X", "cat": name.split(".")[0],
                    "ts": (w0 - self.t0) / 1000, "dur": (w1 - w0) / 1000,
                    "pid": self.pid, "tid": threading.get_native_id(),
                    "args": {"id": sid, "parent": parent, "wall_ns": w1 - w0,
                             "cpu_ns": c1 - c0, "ok": extra is not None,
                             **(extra or {})}})
        return traced

    def run(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every TRACED function under each name that binds it."""
        daef_modules = [m for n, m in sys.modules.items()
                        if n == "daef" or n.startswith("daef.")]
        for name, module, attr, describe in TRACED:
            orig = getattr(sys.modules.get(module), attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(name, orig, describe)
            for mod in daef_modules:
                for gname, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, gname, wrapped)
        from daef.machine import LruCache
        contains, install = LruCache.contains, LruCache.install

        def counting_contains(cache, line):
            hit = contains(cache, line)
            counts = self._state()["counts"]
            counts["probes"] += 1
            counts["hits"] += hit
            return hit

        def counting_install(cache, line):
            self._state()["counts"]["installs"] += 1
            return install(cache, line)

        LruCache.contains = counting_contains
        LruCache.install = counting_install

    def cache_counter(self) -> dict:
        """The cache counts so far, as one Chrome counter event."""
        totals = {"probes": 0, "hits": 0, "installs": 0}
        with self._lock:
            for counts in self._threads:
                for k in totals:
                    totals[k] += counts[k]
        return {"name": "machine.cache", "ph": "C",
                "ts": (time.perf_counter_ns() - self.t0) / 1000,
                "pid": self.pid, "tid": threading.get_native_id(),
                "args": totals}


# -- derivation ----------------------------------------------------------------

def _self_ns(spans: list[dict]) -> dict[int, int]:
    own = {s["args"]["id"]: s["args"]["wall_ns"] for s in spans}
    for s in spans:
        parent = s["args"]["parent"]
        if parent is not None:
            own[parent] -= s["args"]["wall_ns"]
    return own


def _roots(spans: list[dict]) -> dict[int, str]:
    """Span id -> name of the root span it descends from."""
    by_id = {s["args"]["id"]: s for s in spans}
    root: dict[int, str] = {}
    for s in spans:
        chain = [s]
        while chain[-1]["args"]["parent"] is not None:
            chain.append(by_id[chain[-1]["args"]["parent"]])
        for c in chain:
            root[c["args"]["id"]] = chain[-1]["name"]
    return root


def thread_self_excess(events: list[dict]) -> list[str]:
    """Threads whose span self times sum to more than their traced wall."""
    spans = [e for e in events if e["ph"] == "X"]
    own = _self_ns(spans)
    bad = []
    for tid in {s["tid"] for s in spans}:
        mine = [s for s in spans if s["tid"] == tid]
        total_self = sum(own[s["args"]["id"]] for s in mine)
        lo = min(s["ts"] for s in mine)
        hi = max(s["ts"] + s["dur"] for s in mine)
        if total_self > (hi - lo) * 1000 + len(mine):  # 1 ns rounding per span
            bad.append(f"thread {tid}: self {total_self} ns > wall {(hi - lo) * 1000:.0f} ns")
        if any(v < 0 for v in (own[s["args"]["id"]] for s in mine)):
            bad.append(f"thread {tid}: a span's children outlast it")
    return bad


def layer_metrics(events: list[dict]) -> dict[str, float]:
    """Every per-layer metric of one traced pass, from its events."""
    counter = next(e for e in events if e["ph"] == "C")["args"]
    spans = [e for e in events if e["ph"] == "X"]
    own = _self_ns(spans)
    root = _roots(spans)

    def pick(name: str, probe: bool = False) -> list[dict]:
        return [s for s in spans if s["name"] == name
                and (root[s["args"]["id"]] == PROBE) == probe]

    def self_s(*names: str) -> float:
        return sum(own[s["args"]["id"]] for n in names for s in pick(n)) / 1e9

    def total(name: str, key: str, probe: bool = False) -> int:
        return sum(s["args"][key] for s in pick(name, probe))

    sims = pick("machsim.simulate")
    sim_nodes = total("machsim.simulate", "nodes")
    sim_self_ns = sum(own[s["args"]["id"]] for s in sims)
    probe_nodes = total("ir.interpret", "nodes", probe=True)
    probe_self_ns = sum(own[s["args"]["id"]] for s in pick("ir.interpret", True))
    kernel_runs = pick("harness.run_kernel_all_modes")

    def geomean_energy(mode: str) -> float:
        vals = [Fraction(s["args"]["norm_energy"][mode]) for s in kernel_runs]
        return math.exp(sum(math.log(v) for v in vals) / len(vals))

    probes = counter["probes"]
    return {
        "ir.init_memory.calls": len(pick("ir.init_memory")),
        "ir.init_memory.bytes": total("ir.init_memory", "bytes"),
        "ir.init_memory.self_s": self_s("ir.init_memory"),
        "ir.interpret.nodes_per_s": probe_nodes / (probe_self_ns / 1e9),
        "machsim.simulate.calls": len(sims),
        "machsim.simulate.self_s": sim_self_ns / 1e9,
        "machsim.simulate.nodes": sim_nodes,
        "machsim.simulate.ns_per_node": sim_self_ns / sim_nodes,
        "machsim.runs": total("machsim.simulate", "runs"),
        "machsim.overhead_charges": total("machsim.simulate", "charges"),
        "machsim.sim_wall_ns": float(sum(Fraction(s["args"]["sim_wall_ns"])
                                         for s in sims)),
        "machsim.geomean_norm_energy.static_dae": geomean_energy("static_dae"),
        "machsim.geomean_norm_energy.dynamic_dae": geomean_energy("dynamic_dae"),
        "machine.cache.probes": probes,
        "machine.cache.hit_ratio": counter["hits"] / probes if probes else 0.0,
        "machine.cache.installs": counter["installs"],
        "profiler.profile_run.calls": len(pick("profiler.profile_run")),
        "profiler.profile_run.self_s": self_s("profiler.profile_run"),
        "harness.prepare.self_s": self_s("harness.prepare"),
        "harness.emit.self_s": self_s(*EMIT),
        "harness.gil_wait_s": sum(s["args"]["wall_ns"] - s["args"]["cpu_ns"]
                                  for s in kernel_runs) / 1e9,
        "daegen.make_phases.self_s": self_s("daegen.make_phases"),
        "cfg.find_loops.self_s": self_s("cfg.find_loops"),
        "ir.parse_program.self_s": self_s("ir.parse_program"),
        "ir.validate_program.self_s": self_s("ir.validate_program"),
        "cli.main.self_s": self_s("cli.main"),
    }


# Metrics that count work: they must repeat exactly on every traced pass.
EXACT = ("ir.init_memory.calls", "ir.init_memory.bytes",
         "machsim.simulate.calls", "machsim.simulate.nodes", "machsim.runs",
         "machsim.overhead_charges", "machsim.sim_wall_ns",
         "machsim.geomean_norm_energy.static_dae",
         "machsim.geomean_norm_energy.dynamic_dae", "machine.cache.probes",
         "machine.cache.hit_ratio", "machine.cache.installs",
         "profiler.profile_run.calls")
