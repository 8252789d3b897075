"""hubpay benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload pair-concurrent --seed 1 --seconds 20 --trace 0

Prints one line per metric with its unit, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics. Exits nonzero when any payment fails or any
correctness check does not hold. The program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / ".perfbench"
SIMNET_WORKLOADS = ("pair-concurrent", "fanin-merchant", "pair-serialized-xledger")
WORKLOADS = SIMNET_WORKLOADS + ("socket-loopback",)

# per-layer metrics a workload's traced process cannot observe; reported as 0
NOT_OBSERVED = {
    "simnet": ("wire.", "server.", "generator."),
    "socket": ("simnet.", "hub.msg_self_us", "hub.tick_us", "hub.busy_share",
               "hub.journal_per_payment", "hub.recover_us_per_entry"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--payments", type=int,
                        help="payments per round (simnet) or per phase (socket); "
                             "small values give a smoke run")
    parser.add_argument("--expect-balance-delta", type=int, default=0,
                        help="add this to the payee's expected final balance; "
                             "any nonzero value must fail the correctness gate")
    return parser.parse_args(argv)


def run_workload(args, kind: str):
    if kind == "simnet":
        import simnet_load

        workload = simnet_load.SPECS[args.workload]
        return simnet_load.run(workload, args.seed, args.seconds, bool(args.trace),
                               args.payments or workload.payments,
                               args.expect_balance_delta, OUTDIR)
    import socket_load

    return socket_load.run(ROOT, args.seed, args.seconds, bool(args.trace), args.payments,
                           args.expect_balance_delta, OUTDIR)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hubpay" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no hubpay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUTDIR.mkdir(exist_ok=True)

    kind = "simnet" if args.workload in SIMNET_WORKLOADS else "socket"
    try:
        outcome = run_workload(args, kind)
    except Exception as exc:  # report any crash as a failed run, with its traceback
        traceback.print_exc()
        from metrics import Outcome

        outcome = Outcome(errors=[f"{type(exc).__name__}: {exc}"])

    if args.trace:
        for m in wanted:
            if m["name"].startswith(NOT_OBSERVED[kind]):
                outcome.metrics.setdefault(m["name"], 0.0)
    for note in outcome.notes:
        print(f"# {note}")
    for error in outcome.errors:
        print(f"# CHECK FAILED: {error}")
    if outcome.attempted:
        print(f"# failed_ratio {outcome.failed / outcome.attempted:.6f} "
              f"({outcome.failed} of {outcome.attempted} payments)")
    metrics = {}
    if not outcome.errors:
        missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
        if missing:
            raise RuntimeError(f"metrics not computed: {missing}")
        for m in wanted:
            value = float(outcome.metrics[m["name"]])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:<34} {value:>14.6g} {m['unit']}")
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
