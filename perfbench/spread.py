"""Run one or more workloads over several seeds and summarise the spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads pair-concurrent fanin-merchant --seeds 1-10

Runs ``perfbench/run.py`` once per (workload, seed), one after another,
with BENCHMARK.json's ``run_seconds``. For every end-to-end metric it prints
the median, the quartiles from ``statistics.quantiles(values, n=4)``, the
spread (q3 - q1) / median and the metric's bound. ``--out`` writes the same
summary as JSON, which is how BASELINE.json is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units = {}
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {}
        print(f"== {workload} ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            summary[workload][name] = {"unit": units[name], "median": q2, "q1": q1,
                                       "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:<34} median {q2:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:6.3f} bound {bound}{flag}")
        sys.stdout.flush()
    if args.out:
        record = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
                  "trace": args.trace, "workloads": summary}
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
