"""One fresh interpreter per measurement; run.py starts it and waits.

    child.py setup KERNEL[,KERNEL...]
        Time importing daef.cli, load_machine and parse_program of each
        kernel, from before the first daef import.  Prints
        {"setup_s": x, "cal_s": [...]}.

    child.py pass WORKLOAD SEED TRACE OUT_DIR
        Run one pass of the workload and print its cells, wall time,
        calibration times and peak RSS as one JSON line.  With TRACE=1
        the daef layers are wrapped in spans and the Chrome trace is
        written to OUT_DIR/trace.json.

Only sys and time are imported before the set-up clock starts.
"""

import sys
import time

CAL_SAMPLES = 5  # calibration loops run before and after each measurement
CAL_EVERY_S = 0.2  # and during a pass, one every 0.2 s on a sampler thread
_CAL_BUFFER = []  # 1 MiB read by calibrate(), allocated on first use


def calibrate(iterations: int = 2000) -> float:
    """Thread CPU seconds for a fixed pure-Python loop that shares no code
    with daef but does the same kinds of work: integer mixing, dict
    stores, random 8-byte reads from 1 MiB, bytearray appends and
    Fraction sums.  run.py divides by it to cancel changes in host speed."""
    from fractions import Fraction

    if not _CAL_BUFFER:
        _CAL_BUFFER.append(bytearray(1 << 20))
    buf = _CAL_BUFFER[0]
    t0 = time.thread_time()
    acc, table, out, x = 0, {}, bytearray(), Fraction(0)
    step = Fraction(5, 17)
    for i in range(iterations):
        acc = (acc * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        o = acc >> 44
        table[i & 1023] = int.from_bytes(buf[o:o + 8], "little")
        out += acc.to_bytes(8, "little")
        if i % 8 == 0:
            x += step * (i % 7 + 1)
    return time.thread_time() - t0


def sample_during(fn):
    """Call fn() while a thread times calibrate() every CAL_EVERY_S.

    Returns fn's result and the calibration times.  The sampler holds
    the interpreter lock for one short loop at a time, so it takes about
    the same small share of every pass.
    """
    import threading

    samples = [calibrate() for _ in range(CAL_SAMPLES)]
    done = threading.Event()

    def sampler():
        while not done.wait(CAL_EVERY_S):
            samples.append(calibrate())

    thread = threading.Thread(target=sampler, daemon=True)
    thread.start()
    try:
        result = fn()
    finally:
        done.set()
        thread.join()
    samples += [calibrate() for _ in range(CAL_SAMPLES)]
    return result, samples


def setup(kernels: list[str]) -> None:
    t0 = time.perf_counter()
    import daef.cli  # noqa: F401
    from daef.ir import parse_program
    from daef.kernels import kernel_by_name
    from daef.machine import load_machine

    load_machine(None)
    for name in kernels:
        parse_program(kernel_by_name(name).text)
    elapsed = time.perf_counter() - t0
    cal = [calibrate() for _ in range(3 * CAL_SAMPLES)]
    import json
    print(json.dumps({"setup_s": elapsed, "cal_s": cal}))


def probe_interpreter(tracer, kernels, seed: int, repeats: int = 3) -> None:
    """Bare interpret() of each kernel, no timing hooks attached."""
    import daef.ir
    from daef.kernels import kernel_by_name

    def probe():
        for name in kernels:
            prog = daef.ir.with_seed(
                daef.ir.parse_program(kernel_by_name(name).text), seed)
            for _ in range(repeats):
                daef.ir.interpret(prog)

    tracer.run("bench.interpret_probe", probe)


def run_pass(workload: str, seed: int, trace: bool, out_dir: str) -> None:
    import json
    import resource
    import traceback
    from pathlib import Path

    import workloads
    from tracing import PASS, Tracer

    import daef.cli  # noqa: F401  (imports are set-up, not pass time)
    import daef.harness  # noqa: F401

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    result = {"cells": {}, "files": {}, "nodes": 0, "error": None}

    def timed():
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out_rows = workloads.run_pass(workload, seed, out)
            else:
                out_rows = tracer.run(PASS, workloads.run_pass, workload,
                                      seed, out)
        except Exception:
            out_rows = {}, {}
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t0
        return out_rows

    (rows, files), result["cal_s"] = sample_during(timed)
    result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["files"] = files
    for (label, s), group in rows.items():
        for row in group:
            key = workloads.cell_key(row.kernel, row.mode, label, s)
            result["cells"][key] = {"fp": workloads.fingerprint(row),
                                    "output": row.report.output}
            result["nodes"] += row.report.total.instr_count
    # After ru_maxrss: the oracles build large lists of their own.
    from daef.kernels import kernel_by_name
    result["oracle"] = {f"{k}/{s}": kernel_by_name(k).oracle(s)
                        for k in workloads.kernels_used(workload)
                        for s in workloads.kernel_seeds(workload, seed)}
    if tracer is not None:
        n_pass_spans = len(tracer.spans)
        counter = tracer.cache_counter()
        probe_interpreter(tracer, workloads.kernels_used(workload), seed)
        events = [*tracer.spans[:n_pass_spans], counter,
                  *tracer.spans[n_pass_spans:]]
        trace_path = out / "trace.json"
        trace_path.write_text(json.dumps({
            "traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"workload": workload, "seed": seed}}))
        result["trace"] = str(trace_path)
    print(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2].split(","))
    else:
        _, _, workload, seed, trace, out_dir = sys.argv
        run_pass(workload, int(seed), trace == "1", out_dir)
