"""Print one ``name sha256`` line per deterministic simulation run.

Each digest is the SHA-256 of ``RunReport.canonical_bytes()``: everything a
run reports except wall-clock timing. A change that claims to alter no
behaviour must leave every line identical, so run this script on both sides
of the change and diff the outputs:

    python tests/report_digests.py > before.txt   # on the base commit
    python tests/report_digests.py > after.txt    # on the change
    diff before.txt after.txt

The 201 runs are the scenario files under ``scenarios/``, the adversary
corpus (every behaviour against the hub and against a client, in both
channel modes), random scenarios 0-99, ``throughput_bench(3000)`` in both
modes, and the runs of ``probes.py`` (the payer-side dispute probe at four
close ticks and the hub crash sweep, in both modes). The file name keeps
pytest from collecting it.

A change to the protocol's messages alters the digests of the runs it
touches on purpose. ``--outcomes`` prints ``name payments_paid
final_balances`` per run instead, so the same diff then shows that every
run still moved the same money and paid the same payments. A run whose
trace notes a lost route or a refused claim also gets ``route_lost=N`` or
``claim_failed=N`` at the end of its line:

    python tests/report_digests.py --outcomes > outcomes.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hubpay.messages import MODES  # noqa: E402
from hubpay.scenarios import DIRECTIVES, adversary_scenario, random_scenario  # noqa: E402
from hubpay.simnet import load_scenario, run_scenario, throughput_bench  # noqa: E402
from probes import crash_sweep, dispute_probes  # noqa: E402

N_RANDOM = 100
BENCH_PAYMENTS = 3000
# notes that mark money at risk: a route closed or expired unpaid, and a
# claim the ledger refused
COUNTED_NOTES = ("route_lost", "claim_failed")


def runs():
    """(name, thunk returning a RunReport) for every run, in output order."""
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        yield path.name, lambda path=path: run_scenario(load_scenario(str(path)))
    for mode in sorted(MODES):
        for target in ("hub", "client"):
            for directive in DIRECTIVES:
                scenario = adversary_scenario(directive, target, mode=mode)
                yield f"{scenario['name']}-{mode}", lambda s=scenario: run_scenario(s)
    for seed in range(N_RANDOM):
        yield f"random-{seed}", lambda seed=seed: run_scenario(random_scenario(seed))
    for mode in sorted(MODES):
        yield (f"bench-{mode}-{BENCH_PAYMENTS}",
               lambda mode=mode: throughput_bench(BENCH_PAYMENTS, mode=mode))
    for name, scenario in [*dispute_probes(), *crash_sweep()]:
        yield name, lambda s=scenario: run_scenario(s)


def outcome_line(report) -> str:
    """Payments paid and final balances, without anything that depends on
    message bytes, then the count of each note in ``COUNTED_NOTES`` the run
    made, when nonzero."""
    balances = json.dumps(report.final_balances, sort_keys=True, separators=(",", ":"))
    notes = [e["action"] for e in report.trace if e["ev"] == "note"]
    counts = "".join(f" {kind}={notes.count(kind)}" for kind in COUNTED_NOTES
                     if kind in notes)
    return f"{report.metrics['payments_paid']} {balances}{counts}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outcomes", action="store_true",
                        help="print payments paid and final balances, not digests")
    args = parser.parse_args(argv)
    for name, run in runs():
        report = run()
        if args.outcomes:
            print(name, outcome_line(report), flush=True)
        else:
            print(name, hashlib.sha256(report.canonical_bytes()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
