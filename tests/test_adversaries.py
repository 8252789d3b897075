"""Adversary corpus: every scripted misbehavior against every role.

Each directive runs twice, once with a malicious hub against honest clients
and once with a malicious client against the honest hub. The trace-level
oracles assert conservation, honest-client solvency, and hub safety.
"""

from pathlib import Path

import pytest

from hubpay import cli, hub, server, wallet
from hubpay.ledger import Ledger
from hubpay.scenarios import DIRECTIVES, adversary_scenario, base_two_clients
from hubpay.simnet import BEHAVIORS, World

from corpus_checks import (
    accounts_equal_genesis,
    client_solvency_bound,
    conservation_holds,
    htlc_invariants_hold,
    hub_safety_bound,
)

MODES = ("SERIALIZED", "CONCURRENT")


def run_world(scenario):
    world = World(scenario)
    report = world.run()
    return world, report


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("directive", DIRECTIVES)
def test_malicious_hub_cannot_hurt_honest_clients(directive, mode):
    scenario = adversary_scenario(directive, "hub", mode=mode)
    world, report = run_world(scenario)
    assert conservation_holds(world, scenario)
    ok, detail = htlc_invariants_hold(world)
    assert ok, detail
    for client in ("alice", "bob"):
        ok, detail = client_solvency_bound(report, client)
        assert ok, f"{scenario['name']}: {detail}"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("directive", DIRECTIVES)
def test_malicious_client_cannot_hurt_honest_hub(directive, mode):
    scenario = adversary_scenario(directive, "client", mode=mode)
    world, report = run_world(scenario)
    assert conservation_holds(world, scenario)
    ok, detail = htlc_invariants_hold(world)
    assert ok, detail
    ok, detail = hub_safety_bound(world, report, scenario)
    assert ok, f"{scenario['name']}: {detail}"
    # the honest client alice stays whole as well
    ok, detail = client_solvency_bound(report, "alice")
    assert ok, f"{scenario['name']}: {detail}"


@pytest.mark.parametrize("directive", DIRECTIVES)
def test_corpus_channels_all_settle(directive):
    # even with a crashed actor, the surviving parties close every channel
    for target in ("hub", "client"):
        scenario = adversary_scenario(directive, target)
        world, _ = run_world(scenario)
        assert accounts_equal_genesis(world, scenario), scenario["name"]


def test_stale_receipt_attacker_pays_penalty():
    scenario = adversary_scenario("STALE_RECEIPT_DISPUTE", "client")
    world, report = run_world(scenario)
    penalties = [e["payload"]["penalties"] for e in report.trace
                 if e["ev"] == "ledger" and e["kind"] == "CLOSED"
                 and e["payload"]["penalties"]]
    assert penalties and all("bob" in p for p in penalties)


def test_stale_receipt_hub_pays_penalty_to_clients():
    scenario = adversary_scenario("STALE_RECEIPT_DISPUTE", "hub")
    world, report = run_world(scenario)
    penalties = [e["payload"]["penalties"] for e in report.trace
                 if e["ev"] == "ledger" and e["kind"] == "CLOSED"
                 and e["payload"]["penalties"]]
    assert penalties and all("hub" in p for p in penalties)


def test_double_claim_attack_rejected_in_serialized_mode():
    scenario = adversary_scenario("DOUBLE_CLAIM", "client", mode="SERIALIZED")
    _, report = run_world(scenario)
    rejections = [e for e in report.trace
                  if e.get("action") == "attack_double_claim_rejected"]
    assert rejections and rejections[0]["code"] == "AlreadyClaimed"
    assert not any(e.get("action") == "attack_double_claim_succeeded"
                   for e in report.trace)


def test_double_claim_attack_rejected_in_concurrent_mode():
    scenario = adversary_scenario("DOUBLE_CLAIM", "client", mode="CONCURRENT")
    _, report = run_world(scenario)
    rejections = [e for e in report.trace
                  if e.get("action") == "attack_double_claim_rejected"]
    assert rejections and rejections[0]["code"] == "ProofRequired"


def test_replay_and_overspend_promises_rejected():
    for directive, code in (("REPLAY_PROMISE", {"StaleIndex", "DuplicateHashlock"}),
                            ("OVERSPEND_PROMISE", {"InsufficientCapacity"})):
        scenario = adversary_scenario(directive, "client")
        _, report = run_world(scenario)
        rejected = {e.get("reason") for e in report.trace
                    if e.get("action") == "promise_rejected"}
        assert rejected & code, f"{directive}: hub never rejected ({rejected})"


@pytest.mark.parametrize("mode", ["SERIALIZED", "CONCURRENT"])
def test_overspend_promises_keep_their_reject_reason(mode):
    # both overspends are sealed like honest promises, so the receiver
    # refuses them for capacity, not for their signature
    _, report = run_world(adversary_scenario("OVERSPEND_PROMISE", "client", mode=mode))
    assert {e.get("reason") for e in report.trace
            if e.get("action") == "promise_rejected"} == {"InsufficientCapacity"}
    _, report = run_world(adversary_scenario("OVERSPEND_PROMISE", "hub", mode=mode))
    reasons = {e.get("reason") for e in report.trace
               if e.get("action") == "payment_done" and e.get("outcome") == "FAILED"}
    assert "InsufficientCapacity" in reasons and "BadSignature" not in reasons


def test_honest_cores_hold_no_scripted_behaviour():
    for module in (hub, server, wallet, cli):
        source = Path(module.__file__).read_text(encoding="utf-8")
        named = sorted(b for b in BEHAVIORS if b in source)
        assert not named, f"{module.__name__} names {named}"
    ledger = Ledger("L1", "SCHEME_A", {"carol": 100, "hub": 1000})
    honest_hub = hub.HubCore(hub.HubConfig(), {"L1": ledger})
    honest_wallet = wallet.WalletCore(wallet.WalletConfig("carol", "L1"), ledger)
    assert not hasattr(honest_hub, "behaviors")
    assert not hasattr(honest_wallet, "behaviors")


def test_adversary_action_turns_a_behaviour_on_mid_run():
    scenario = base_two_clients()
    scenario["script"] += [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 20, "expiry_delta": 20},
        {"at": 14, "action": "adversary", "actor": "bob", "behavior": "WITHHOLD_SECRET"},
        {"at": 16, "action": "pay", "from": "alice", "to": "bob",
         "amount": 30, "expiry_delta": 20},
        {"at": 50, "action": "close", "actor": "alice"},
        {"at": 52, "action": "close", "actor": "bob"},
    ]
    scenario["horizon"] = 200
    world, report = run_world(scenario)
    bob = world.wallets["bob"]
    assert bob.flows["pmt-00001"].outcome == "RECEIVED"
    assert bob.flows["pmt-00002"].outcome != "RECEIVED"
    assert world.wallets["alice"].flows["pmt-00002"].outcome == "FAILED"
    assert any(e.get("action") == "secret_withheld" and e["actor"] == "bob"
               for e in report.trace)
    assert world.final_balances()["bob"] == 1000 + 20
