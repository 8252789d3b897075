"""Tests of the benchmark itself: tiny runs of every workload.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# payments per round (simnet) or per phase (socket); fan-in needs a multiple of 32
TINY = {"pair-concurrent": 32, "fanin-merchant": 64, "pair-serialized-xledger": 16,
        "socket-loopback": 24}
SIMNET = ["pair-concurrent", "fanin-merchant", "pair-serialized-xledger"]
COUNTS = ["crypto.sign_per_payment", "crypto.verify_per_payment",
          "crypto.merkle_root_per_payment", "codec.encode_per_payment",
          "simnet.msgs_per_payment", "hub.journal_per_payment",
          "hub.snapshot_bytes_per_payment"]


def bench(workload: str, trace: int = 0, seed: int = 1, *extra: str,
          cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--payments", str(TINY[workload]),
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


# fanin-merchant is runnable but not in BENCHMARK.json; it is smoke-tested too
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]]
                         + ["fanin-merchant"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    code, lines = bench(workload, trace)
    assert code == 0, "\n".join(lines)
    out = result(lines)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    for name, m in out["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_trace_sanity_counts():
    _, lines = bench("pair-concurrent", 1)
    pair = result(lines)["metrics"]
    assert pair["crypto.sign_per_payment"]["value"] == 4
    assert pair["crypto.verify_per_payment"]["value"] == 4
    assert pair["simnet.msgs_per_payment"]["value"] == 6
    _, lines = bench("pair-serialized-xledger", 1)
    xledger = result(lines)["metrics"]
    assert xledger["crypto.merkle_root_per_payment"]["value"] == 0
    assert xledger["crypto.ed448.sign_us"]["value"] > 0


@pytest.mark.parametrize("workload", SIMNET)
def test_counts_repeat_exactly_with_the_same_seed(workload):
    runs = [result(bench(workload, 1, 7)[1])["metrics"] for _ in range(2)]
    for name in COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    onchain = [result(bench(workload, 0, 7)[1])["metrics"]["onchain_tx"]["value"]
               for _ in range(2)]
    assert onchain[0] == onchain[1]


@pytest.mark.parametrize("workload", ["pair-serialized-xledger", "socket-loopback"])
def test_wrong_expected_balance_fails_the_command(workload):
    code, lines = bench(workload, 0, 1, "--expect-balance-delta", "1")
    assert code != 0
    out = result(lines)
    assert out["correct"] is False
    assert any("CHECK FAILED" in line for line in lines)


def test_without_program_sources_exits_nonzero_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("pair-concurrent", 0, 1, cwd=tmp_path)
    assert code != 0
    assert lines == []
