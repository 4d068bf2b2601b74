"""Repeat bench/run.py over several seeds and report each metric's spread.

    python3 bench/repeat.py --workload suite [--seeds 1 2 3] [--trace 1] [--out FILE]

Runs `run.py --workload W --seed S` for each seed (default 1 to 10), one
after another, and for each metric prints the median of the per-run
values, their quartiles, and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json.  --out writes every per-run value,
the summary and the environment record to a JSON file; that is how
bench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, environment, quartiles


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"runs": {}, "summary": {}}
    ok = True
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            line["seed"] = seed
            runs.append(line)
            ok = ok and proc.returncode == 0 and line["correct"]
            print(f"{workload} seed {seed}: correct {line['correct']} failed "
                  f"{line['failed']}/{line['attempted']}", flush=True)
        report["runs"][workload] = runs
        summary = report["summary"][workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                             "spread": spread, "bound": bound,
                             "unit": runs[0]["metrics"][name]["unit"]}
            mark = "" if bound is None else (
                "  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {name:42s} median {med:.6g} {summary[name]['unit']}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                  + ("" if bound is None else f"  bound {bound}") + mark)
    if args.out:
        report["env"] = environment()
        report["seconds"] = args.seconds
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
