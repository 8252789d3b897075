"""Journal replay: the recovered hub equals the live one, and replay makes
no signature and checks none; each journal entry hands back the results of
its live step."""

import json
from pathlib import Path

import pytest

from hubpay import crypto
from hubpay.adversaries import ScriptedHub
from hubpay.channel import ChannelState
from hubpay.crypto import generate_keypair, hash_commit
from hubpay.errors import RecoveryError
from hubpay.hub import HubCore
from hubpay.messages import MODES, ClosingRecord
from hubpay.scenarios import DIRECTIVES, adversary_scenario, cross_ledger, happy_path
from hubpay.simnet import World, load_scenario
from hubpay.wire import K_CLOSE_REQUEST, K_PROMISE, K_PROPOSAL_RELAY, WireMessage

from probes import dispute_probes, hub_crash
from test_hub import build_hub, fund, make_client_promise, register, route_one

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def forbid_crypto(monkeypatch):
    """From here on, any signature or signature check fails the test."""
    def called(*args):
        raise AssertionError("crypto called during replay")
    monkeypatch.setattr(crypto, "sign", called)
    monkeypatch.setattr(crypto, "verify", called)


def recover(hub: HubCore) -> HubCore:
    behaviors = {"behaviors": hub.behaviors} if isinstance(hub, ScriptedHub) else {}
    return type(hub).recover(hub.config, hub.ledgers, hub.store, **behaviors)


def simulated_runs():
    for mode in MODES:
        yield f"happy-{mode}", happy_path(mode=mode)
        yield f"cross-ledger-{mode}", cross_ledger(mode=mode)
    yield "hub_crash_recovery", load_scenario(str(SCENARIOS / "hub_crash_recovery.json"))
    for mode in MODES:
        for target in ("hub", "client"):
            for directive in DIRECTIVES:
                yield (f"adv-{target}-{directive}-{mode}",
                       adversary_scenario(directive, target, mode=mode))
        # a re-sent secret recovers a receipt lost in a hub crash
        yield f"hub-crash-12-{mode}", hub_crash(12, mode)
    # the hub claims at once on a booked dispute
    yield from dispute_probes()


RUNS = dict(simulated_runs())


@pytest.mark.parametrize("floor", [None, 8], ids=["whole-journal", "checkpointed"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_replay_calls_no_crypto_and_equals_live(name, floor, monkeypatch):
    if floor is not None:
        # recovery loads a snapshot, whose channels hold no verified batch,
        # then replays the tail
        monkeypatch.setattr("hubpay.hub.CHECKPOINT_FLOOR", floor)
    world = World(RUNS[name])
    crashed = {}
    crash = world._crash

    def keep_live_state(actor):
        # a crashed hub is gone; what recovery must rebuild is its state then
        if actor == "hub":
            crashed["hub"] = world.hub
            crashed["json"] = world.hub.persist_json()
        crash(actor)
    world._crash = keep_live_state
    world.run()
    live = world.hub or crashed["hub"]
    live_json = world.hub.persist_json() if world.hub else crashed["json"]
    assert world.hub_store.journal, "the run journaled nothing"
    assert (world.hub_store.snapshot is not None) == (floor is not None)
    forbid_crypto(monkeypatch)
    assert recover(live).persist_json() == live_json


def test_forged_promise_and_close_request_are_refused_again_on_replay(monkeypatch):
    hub, ledger = build_hub(delta=4)
    register(hub, ledger, "alice", mode="CONCURRENT")
    register(hub, ledger, "bob", mode="CONCURRENT")
    fund(hub, ledger, "alice", 500)
    mallory_sk, _ = generate_keypair("SCHEME_A", b"mallory")
    forged = make_client_promise(hub, mallory_sk, "alice", 10,
                                 hash_commit(b"\x21" * 32), 1000)
    [(_, refused)] = hub.handle_message("alice", WireMessage(K_PROMISE, {
        "payment_id": "p1", "payee": "bob", "promise": forged.to_jsonable()}), now=2)
    assert refused.body["code"] == "BadSignature"
    channel_id = hub.registry["alice"].channel_id
    record = ClosingRecord.make(channel_id, {"alice": 500, "hub": 5000})
    [(_, refused)] = hub.handle_message("alice", WireMessage(K_CLOSE_REQUEST, {
        "channel_id": channel_id, "record": record.to_jsonable(),
        "sig": crypto.sign(mallory_sk, record.signing_bytes).data.hex()}), now=2)
    assert refused.body["code"] == "BadSignature"
    # each entry records its one failed check and no signature
    forged_entries = hub.store.journal[-2:]
    assert [(e["kind"], e.get("bad"), e.get("sigs")) for e in forged_entries] == [
        (K_PROMISE, [0], None), (K_CLOSE_REQUEST, [0], None)]

    forbid_crypto(monkeypatch)
    recovered = recover(hub)
    assert recovered.persist_json() == hub.persist_json()
    assert forged.hashlock not in recovered.routes
    assert recovered.channels[channel_id].pending_in == {}
    assert channel_id not in recovered.closed_channels
    assert ledger.read_state(channel_id)["status"] == "OPEN"


@pytest.mark.parametrize("mode", MODES)
def test_an_entry_missing_a_signature_fails_recovery(mode):
    hub, ledger = build_hub(delta=4)
    a_sk, _, _ = register(hub, ledger, "alice", mode=mode)
    register(hub, ledger, "bob", mode=mode)
    fund(hub, ledger, "alice", 500)
    if mode == "SERIALIZED":
        route_one(hub, ledger, a_sk, b"\x31" * 32)  # sealed as it is forwarded
    else:
        promise = make_client_promise(hub, a_sk, "alice", 10,
                                      hash_commit(b"\x31" * 32), 1000)
        hub.handle_message("alice", WireMessage(K_PROMISE, {
            "payment_id": "p1", "payee": "bob", "promise": promise.to_jsonable()}), now=2)
        hub.flush_receipts(2)  # seals the batch
    [signed] = [e for e in hub.store.journal if e.get("sigs")]
    assert len(signed["sigs"]) == 1
    assert recover(hub).persist_json() == hub.persist_json()
    signed["sigs"].pop()
    with pytest.raises(RecoveryError, match="recorded 0 signatures"):
        recover(hub)


def test_an_infinite_amount_is_refused_and_replays_the_same(monkeypatch):
    # what json made of a PROMISE frame's 1e999 before the codec refused it
    hub, ledger = build_hub()
    register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    [(dst, reply)] = hub.handle_message("alice", WireMessage(K_PROMISE, {
        "payment_id": "p1", "payee": "bob", "promise": {
            "channel_id": hub.registry["alice"].channel_id, "sender": "alice",
            "index": 1, "amount": float("inf"), "hashlock": "00" * 32,
            "expiry": 100}}), now=1)
    assert (dst, reply.kind, reply.body["code"]) == ("alice", "ERROR", "EncodingError")
    forbid_crypto(monkeypatch)
    assert recover(hub).persist_json() == hub.persist_json()


def test_relays_are_not_journaled():
    hub, ledger = build_hub()
    register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    journaled = len(hub.store.journal)
    relay = {"payment_id": "p1", "to": "bob", "amount": 5, "expiry_delta": 100,
             "padding": "x" * 100_000}
    for _ in range(3):
        [(dst, msg)] = hub.handle_message("alice", WireMessage(K_PROPOSAL_RELAY, relay), now=1)
        assert (dst, msg.kind, msg.body["from"]) == ("bob", K_PROPOSAL_RELAY, "alice")
    assert len(hub.store.journal) == journaled
    assert recover(hub).persist_json() == hub.persist_json()


def test_a_scripted_hub_restarts_with_its_behaviours():
    # the journal holds the signature of each overspending promise the hub
    # sealed as it forwarded it; a replay without the behaviour would seal
    # none, and fail
    scenario = adversary_scenario("OVERSPEND_PROMISE", "hub", mode="CONCURRENT")
    scenario["script"] += [{"at": 10, "action": "crash", "actor": "hub"},
                           {"at": 12, "action": "restart", "actor": "hub"}]
    world = World(scenario)
    world.run()
    assert "hub" not in world.crashed
    assert world.hub.behaviors == {"OVERSPEND_PROMISE"}


def test_snapshot_keeps_the_reveal_order():
    hub, ledger = build_hub(delta=4)
    a_sk, _, _ = register(hub, ledger, "alice", mode="CONCURRENT")
    register(hub, ledger, "bob", mode="CONCURRENT")
    fund(hub, ledger, "alice", 500)
    state = hub.channel_of("alice")
    preimages = [bytes([n]) * 32 for n in (3, 1, 2)]
    hashlocks = [hash_commit(preimage) for preimage in preimages]
    for index, (hashlock, preimage) in enumerate(zip(hashlocks, preimages), start=1):
        state.accept_promise(make_client_promise(hub, a_sk, "alice", 5, hashlock, 1000,
                                                 index=index))
        state.secrets[hashlock] = preimage
    for hashlock in hashlocks + hashlocks[:1]:  # a second reveal keeps its place
        state.reveal_secret(hashlock)
    assert list(state.revealed_unreceipted) == hashlocks
    saved = state.to_jsonable()
    assert [h for h, _ in saved["revealed_unreceipted"]] == [h.hex() for h in hashlocks]
    assert ChannelState.from_jsonable(json.loads(json.dumps(saved))).to_jsonable() == saved
