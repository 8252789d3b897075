"""The one claim rule for a revealed, unreceipted promise
(``watchdog.tend_revealed``), as the hub and the wallet run it: when each
re-sends a secret and claims on-chain, and the runs where the honest hub
used to lose money or go on-chain for nothing."""

from pathlib import Path

import pytest

from hubpay.errors import AlreadyClaimed
from hubpay.messages import MODES, SecretMessage
from hubpay.scenarios import DIRECTIVES, adversary_scenario, base_two_clients, random_scenario
from hubpay.simnet import World, load_scenario
from hubpay.wire import K_SECRET, WireMessage

from corpus_checks import conservation_holds, hub_safety_bound
from probes import crash_sweep, dispute_probes
from test_hub import build_hub, fund, register, route_one

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def notes_of(report, action, actor=None):
    return [e for e in report.trace if e["ev"] == "note" and e["action"] == action
            and actor in (None, e["actor"])]


def ledger_events(report, kind):
    return [e for e in report.trace if e["ev"] == "ledger" and e["kind"] == kind]


def world_against_hub(behaviors, script, mode="SERIALIZED"):
    """alice and bob with a hub scripted to ``behaviors``."""
    scenario = base_two_clients(mode=mode)
    scenario["hub"]["behaviors"] = behaviors
    scenario["script"] += script
    scenario["horizon"] = 160
    return World(scenario)


def test_hub_resends_once_two_margins_before_expiry_and_claims_once(monkeypatch):
    delta, expiry = 4, 30
    hub, ledger = build_hub(delta=delta)
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 500)
    preimage = b"\x0d" * 32
    _, outgoing = route_one(hub, ledger, a_sk, preimage, expiry=expiry)
    secret = SecretMessage(outgoing.channel_id, outgoing.hashlock, preimage)
    out = hub.handle_message("bob", WireMessage(K_SECRET, {
        "payment_id": "p1", "secret": secret.to_jsonable()}), now=1)
    assert [dst for dst, msg in out if msg.kind == K_SECRET] == ["alice"]
    claims = []

    def refuse(*args):
        claims.append(ledger.now)
        raise AlreadyClaimed("refused")
    monkeypatch.setattr(ledger, "claim_promise", refuse)
    # alice never sends her receipt
    resent = []
    for now in range(2, expiry + 3):
        ledger.advance_time(now - ledger.now)
        out = hub.hub_tick(now)
        resent += [now for dst, msg in out if dst == "alice" and msg.kind == K_SECRET]
    assert resent == [expiry - 2 * delta]
    assert claims == [expiry - delta]
    assert [n["code"] for n in hub.trace if n["action"] == "claim_failed"] == ["AlreadyClaimed"]
    assert [n["action"] for n in hub.trace if n["action"] == "route_lost"] == ["route_lost"]


def test_wallet_resends_every_poll_interval_until_it_claims():
    world = world_against_hub(["WITHHOLD_RECEIPT"], [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 45, "expiry_delta": 30},
        {"at": 60, "action": "close", "actor": "bob"},
    ])
    report = world.run()
    bob = world.wallets["bob"]
    sends = [e["t"] for e in report.trace if e["ev"] == "msg" and e["src"] == "bob"
             and e["kind"] == K_SECRET]
    [claim] = [e["t"] for e in ledger_events(report, "CLAIMED")
               if e["payload"]["claimant"] == "bob"]
    poll = bob.config.poll_interval
    # every poll interval from the first reveal until the claim, at the
    # threshold, and nothing after it
    assert set(range(sends[0], claim, poll)) <= set(sends)
    assert max(b - a for a, b in zip(sends, sends[1:])) == poll
    assert sends[-1] < claim
    assert len(notes_of(report, "claimed_onchain", "bob")) == 1
    assert bob.flows["pmt-00001"].outcome == "CLAIM_ON_CHAIN"


@pytest.mark.parametrize("mode", sorted(MODES))
def test_a_wallet_submits_a_refused_claim_once(mode):
    # the hub disputes with a stale receipt while bob holds a revealed,
    # unreceipted promise: bob claims at once, and the ledger refuses
    world = world_against_hub(["WITHHOLD_RECEIPT", "STALE_RECEIPT_DISPUTE"], [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 40, "expiry_delta": 40},
        {"at": 13, "action": "hub_close", "client": "bob"},
        {"at": 15, "action": "close", "actor": "alice"},
    ], mode=mode)
    report = world.run()
    assert len(notes_of(report, "claim_failed", "bob")) == 1
    assert report.final_balances == {"alice": 960, "bob": 1040, "hub": 50_000}


@pytest.mark.parametrize("name, scenario", list(dispute_probes()),
                         ids=[name for name, _ in dispute_probes()])
def test_the_hub_claims_at_once_when_its_payer_disputes(name, scenario):
    world = World(scenario)
    report = world.run()
    assert report.ok(), report.assertion_results
    assert conservation_holds(world, scenario)
    ok, detail = hub_safety_bound(world, report, scenario)
    assert ok, f"{name}: {detail}"
    [claim] = ledger_events(report, "CLAIMED")
    [dispute] = ledger_events(report, "DISPUTE_OPENED")
    assert claim["payload"]["claimant"] == "hub"
    # the first tick that polls the dispute claims, before its window ends
    assert claim["t"] == dispute["t"] + 1
    assert not notes_of(report, "route_lost")


def test_a_held_route_whose_channel_closes_unpaid_is_noted_lost(monkeypatch):
    _, scenario = next(dispute_probes())
    world = World(scenario)
    ledger = world.ledgers["L1"]
    claim = ledger.claim_promise

    def refuse_the_hub(channel_id, claimant, *args):
        if claimant == "hub":
            raise AlreadyClaimed("refused")
        return claim(channel_id, claimant, *args)
    monkeypatch.setattr(ledger, "claim_promise", refuse_the_hub)
    report = world.run()
    assert len(notes_of(report, "claim_failed", "hub")) == 1
    [lost] = notes_of(report, "route_lost", "hub")
    [closed] = [e for e in ledger_events(report, "CLOSED")
                if e["payload"]["channel_id"] == world.wallets["alice"].channel_id]
    assert lost["payment"] == "pmt-00001" and lost["t"] == closed["t"] + 1
    assert report.final_balances["hub"] == 50_000 - 40


@pytest.mark.parametrize("mode", sorted(MODES))
def test_a_hub_crash_costs_the_hub_nothing_and_a_paid_run_stays_off_chain(mode):
    for name, scenario in crash_sweep():
        if not name.endswith(mode):
            continue
        report = World(scenario).run()
        assert report.final_balances["hub"] == 50_000, name
        assert not notes_of(report, "route_lost"), name
        if report.metrics["payments_paid"] == report.metrics["payments_attempted"]:
            assert not ledger_events(report, "CLAIMED"), name
            assert not ledger_events(report, "DISPUTE_OPENED"), name


def honest_hub_runs():
    for path in sorted(SCENARIOS.glob("*.json")):
        yield path.name, load_scenario(str(path))
    for mode in MODES:
        for directive in DIRECTIVES:
            yield (f"adv-client-{directive}-{mode}",
                   adversary_scenario(directive, "client", mode=mode))
    for seed in range(100):
        yield f"random-{seed}", random_scenario(seed)


def test_no_honest_hub_corpus_run_loses_a_route():
    checked = 0
    for name, scenario in honest_hub_runs():
        if scenario.get("hub", {}).get("behaviors"):
            continue
        report = World(scenario).run()
        assert not notes_of(report, "route_lost", "hub"), name
        checked += 1
    assert checked >= 100
