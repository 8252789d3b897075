"""Hub core: registration, routing policy, secret handling, persistence."""

import json

import pytest

from hubpay.crypto import SCHEME_A, SCHEME_B, generate_keypair, hash_commit
from hubpay.hub import HubConfig, HubCore, HubStore
from hubpay.ledger import Ledger
from hubpay.messages import Promise, SecretMessage
from hubpay.wire import K_PROMISE, K_REGISTER, K_SECRET, WireMessage

from conftest import sealed


def build_hub(fee_bps=0, delta=4, float_=5000):
    ledgers = {"L1": Ledger("L1", SCHEME_A, {"alice": 1000, "bob": 1000,
                                             "hub": 100_000})}
    config = HubConfig(fee_bps=fee_bps, claim_margin_delta=delta,
                       dispute_window=10, channel_float=float_)
    return HubCore(config, ledgers), ledgers["L1"]


def register(hub, ledger, client_id, scheme=SCHEME_A, mode="SERIALIZED"):
    sk, pk = generate_keypair(scheme, f"{client_id}-key".encode())
    out = hub.handle_message(client_id, WireMessage(K_REGISTER, {
        "client_id": client_id, "scheme": scheme, "pk": pk.data.hex(),
        "ledger_id": ledger.ledger_id, "mode": mode}), now=0)
    return sk, pk, out[0][1]


def fund(hub, ledger, client_id, amount, now=1):
    reg = hub.registry[client_id]
    ledger.deposit(reg.channel_id, client_id, amount)
    hub.hub_tick(now)


def make_client_promise(hub, sk, client_id, amount, hashlock, expiry, index=1):
    channel_id = hub.registry[client_id].channel_id
    promise = Promise(channel_id, client_id, index, amount, hashlock, expiry)
    return sealed(promise, sk)


def test_register_deploys_open_contract():
    hub, ledger = build_hub()
    _, pk, reply = register(hub, ledger, "alice")
    assert reply.kind == "REGISTER_OK"
    channel_id = reply.body["channel_id"]
    view = ledger.read_state(channel_id)
    assert view["status"] == "OPEN"
    assert view["params"]["client_pk"] == pk.data.hex()
    assert view["deposits"]["hub"] == 5000  # prefunded float


def test_duplicate_registration_rejected():
    hub, ledger = build_hub()
    register(hub, ledger, "alice")
    _, _, reply = register(hub, ledger, "alice")
    assert reply.kind == "ERROR" and reply.body["code"] == "AlreadyRegistered"


def test_scheme_mismatch_rejected():
    hub, ledger = build_hub()
    _, _, reply = register(hub, ledger, "eve", scheme=SCHEME_B)
    assert reply.kind == "ERROR" and reply.body["code"] == "SchemeError"


def test_route_applies_margin_and_fee():
    hub, ledger = build_hub(fee_bps=100, delta=50)
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 500)
    promise = make_client_promise(hub, a_sk, "alice", 100,
                                  hash_commit(b"\x01" * 32), expiry=1000)
    out = hub.handle_message("alice", WireMessage(K_PROMISE, {
        "payment_id": "p1", "payee": "bob",
        "promise": promise.to_jsonable()}), now=0)
    dst, msg = out[0]
    assert dst == "bob" and msg.kind == K_PROMISE
    forwarded = Promise.from_jsonable(msg.body["promise"])
    assert forwarded.amount == 99          # 100 bps fee
    assert forwarded.expiry == 1000 - 50   # one margin earlier
    assert forwarded.hashlock == promise.hashlock


def test_route_rejects_tight_expiry():
    hub, ledger = build_hub(delta=50)
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 500)
    promise = make_client_promise(hub, a_sk, "alice", 10,
                                  hash_commit(b"\x02" * 32), expiry=100)
    out = hub.handle_message("alice", WireMessage(K_PROMISE, {
        "payment_id": "p1", "payee": "bob",
        "promise": promise.to_jsonable()}), now=0)
    assert out[0][1].body["code"] == "ExpiryTooSoon"  # needs > 2 * delta


def test_route_rejects_unknown_payee():
    hub, ledger = build_hub()
    a_sk, _, _ = register(hub, ledger, "alice")
    fund(hub, ledger, "alice", 500)
    promise = make_client_promise(hub, a_sk, "alice", 10,
                                  hash_commit(b"\x03" * 32), expiry=1000)
    out = hub.handle_message("alice", WireMessage(K_PROMISE, {
        "payment_id": "p1", "payee": "carol",
        "promise": promise.to_jsonable()}), now=0)
    assert out[0][1].body["code"] == "NoRoute"


def test_route_rejects_when_hub_channel_underfunded():
    hub, ledger = build_hub(float_=50)
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 500)
    promise = make_client_promise(hub, a_sk, "alice", 100,
                                  hash_commit(b"\x04" * 32), expiry=1000)
    out = hub.handle_message("alice", WireMessage(K_PROMISE, {
        "payment_id": "p1", "payee": "bob",
        "promise": promise.to_jsonable()}), now=0)
    assert out[0][1].body["code"] == "HubLiquidityExhausted"


def test_overspending_sender_rejected():
    hub, ledger = build_hub()
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 100)
    promise = make_client_promise(hub, a_sk, "alice", 101,
                                  hash_commit(b"\x05" * 32), expiry=1000)
    out = hub.handle_message("alice", WireMessage(K_PROMISE, {
        "payment_id": "p1", "payee": "bob",
        "promise": promise.to_jsonable()}), now=0)
    assert out[0][1].body["code"] == "InsufficientCapacity"


def route_one(hub, ledger, a_sk, preimage=b"\x06" * 32, amount=60, expiry=1000):
    promise = make_client_promise(hub, a_sk, "alice", amount,
                                  hash_commit(preimage), expiry)
    out = hub.handle_message("alice", WireMessage(K_PROMISE, {
        "payment_id": "p1", "payee": "bob",
        "promise": promise.to_jsonable()}), now=0)
    # a CONCURRENT forward goes out when the delivery batch ends
    out += hub.flush_receipts(0)
    return promise, Promise.from_jsonable(out[0][1].body["promise"])


def test_handle_secret_issues_receipt_and_forwards():
    hub, ledger = build_hub(delta=4)
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 500)
    preimage = b"\x07" * 32
    _, outgoing = route_one(hub, ledger, a_sk, preimage)
    secret = SecretMessage(outgoing.channel_id, outgoing.hashlock, preimage)
    out = hub.handle_message("bob", WireMessage(K_SECRET, {
        "payment_id": "p1", "secret": secret.to_jsonable()}), now=1)
    kinds = {(dst, msg.kind) for dst, msg in out}
    assert ("bob", "RECEIPT") in kinds
    assert ("alice", "SECRET") in kinds
    receipt_msg = [m for d, m in out if m.kind == "RECEIPT"][0]
    assert receipt_msg.body["receipt"]["cumulative_credit"] == outgoing.amount


def test_handle_secret_unknown_hashlock():
    hub, ledger = build_hub()
    register(hub, ledger, "bob")
    secret = SecretMessage("ch-none", b"\x08" * 32, b"\x09" * 32)
    out = hub.handle_message("bob", WireMessage(K_SECRET, {
        "payment_id": "px", "secret": secret.to_jsonable()}), now=1)
    assert out[0][1].body["code"] == "UnknownPromise"


def test_handle_secret_after_outgoing_expiry():
    hub, ledger = build_hub(delta=4)
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 500)
    preimage = b"\x0a" * 32
    _, outgoing = route_one(hub, ledger, a_sk, preimage, expiry=20)
    ledger.advance_time(outgoing.expiry)
    hub.hub_tick(ledger.now)
    secret = SecretMessage(outgoing.channel_id, outgoing.hashlock, preimage)
    out = hub.handle_message("bob", WireMessage(K_SECRET, {
        "payment_id": "p1", "secret": secret.to_jsonable()}), now=ledger.now)
    assert any(m.kind == "ERROR" and m.body["code"] == "Expired" for _, m in out)


def test_hub_tick_claims_when_sender_withholds_receipt():
    hub, ledger = build_hub(delta=4)
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 500)
    preimage = b"\x0b" * 32
    incoming, outgoing = route_one(hub, ledger, a_sk, preimage, expiry=30)
    secret = SecretMessage(outgoing.channel_id, outgoing.hashlock, preimage)
    hub.handle_message("bob", WireMessage(K_SECRET, {
        "payment_id": "p1", "secret": secret.to_jsonable()}), now=1)
    # the sender never acknowledges; at the margin the hub claims on-chain
    claims_before = len([e for e in ledger.events if e.kind == "CLAIMED"])
    assert claims_before == 0
    while ledger.now < incoming.expiry - 4:
        ledger.advance_time(1)
        hub.hub_tick(ledger.now)
    ledger.advance_time(1)
    hub.hub_tick(ledger.now)
    claims = [e for e in ledger.events if e.kind == "CLAIMED"]
    assert len(claims) == 1
    assert claims[0].payload["claimant"] == "hub"
    assert claims[0].payload["amount"] == incoming.amount


def test_hub_tick_prompt_receipts_mean_no_onchain_actions():
    hub, ledger = build_hub(delta=4)
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 500)
    preimage = b"\x0c" * 32
    incoming, outgoing = route_one(hub, ledger, a_sk, preimage, expiry=40)
    secret = SecretMessage(outgoing.channel_id, outgoing.hashlock, preimage)
    hub.handle_message("bob", WireMessage(K_SECRET, {
        "payment_id": "p1", "secret": secret.to_jsonable()}), now=1)
    # the sender acknowledges promptly
    alice_channel = hub.channels[hub.registry["alice"].channel_id]
    from hubpay.channel import ChannelState
    sender_state = ChannelState(params=alice_channel.params, owner="alice",
                                my_deposit=500)
    sender_state.pending_out[incoming.hashlock] = incoming
    sender_state.next_out_index = 2
    receipt = sender_state.accept_secret(
        SecretMessage(incoming.channel_id, incoming.hashlock, preimage), a_sk, 2)
    out = hub.handle_message("alice", WireMessage(
        "RECEIPT", {"receipt": receipt.to_jsonable()}), now=2)
    assert out == []
    for _ in range(50):
        ledger.advance_time(1)
        hub.hub_tick(ledger.now)
    assert [e for e in ledger.events if e.kind == "CLAIMED"] == []


def test_expired_route_restores_capacity():
    hub, ledger = build_hub(delta=4)
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 500)
    _, outgoing = route_one(hub, ledger, a_sk, b"\x0d" * 32, amount=60, expiry=20)
    bob_channel = hub.channels[hub.registry["bob"].channel_id]
    assert bob_channel.available_balance() == 5000 - outgoing.amount
    while ledger.now <= outgoing.expiry:
        ledger.advance_time(1)
        hub.hub_tick(ledger.now)
    assert bob_channel.available_balance() == 5000
    assert hub.routes[outgoing.hashlock].state == "EXPIRED"


def test_persist_recover_persist_is_identical():
    hub, ledger = build_hub(delta=4)
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 500)
    route_one(hub, ledger, a_sk, b"\x0e" * 32)
    snapshot = hub.persist_json()
    store = HubStore()
    store.set_snapshot(json.loads(snapshot))
    recovered = HubCore.recover(hub.config, hub.ledgers, store)
    assert recovered.persist_json() == snapshot


def test_recover_from_corrupt_snapshot_raises():
    from hubpay.errors import RecoveryError

    hub, ledger = build_hub()
    store = HubStore()
    store.set_snapshot({"registry": {}, "channels": "garbage"})
    with pytest.raises(RecoveryError):
        HubCore.recover(hub.config, hub.ledgers, store)


def test_snapshot_plus_journal_recovery():
    hub, ledger = build_hub(delta=4)
    store = hub.store
    a_sk, _, _ = register(hub, ledger, "alice", mode="CONCURRENT")
    register(hub, ledger, "bob", mode="CONCURRENT")
    fund(hub, ledger, "alice", 500)
    route_one(hub, ledger, a_sk, b"\x51" * 32)
    hub.snapshot_now()  # journal truncates here
    promise2 = make_client_promise(hub, a_sk, "alice", 5,
                                   hash_commit(b"\x52" * 32), 1000, index=2)
    hub.handle_message("alice", WireMessage(K_PROMISE, {
        "payment_id": "p2", "payee": "bob",
        "promise": promise2.to_jsonable()}), now=3)
    recovered = HubCore.recover(hub.config, hub.ledgers, store)
    assert recovered.persist_json() == hub.persist_json()
    assert len(recovered.routes) == 2


def test_malformed_frame_is_refused_and_replays_the_same():
    # a PROMISE with no promise in it is journaled like any other frame, so
    # the hub must answer it, live and in replay, without raising
    hub, ledger = build_hub()
    register(hub, ledger, "alice")
    hub.snapshot_now()
    out = hub.handle_message("alice", WireMessage(K_PROMISE, {
        "payment_id": "p1", "payee": "bob"}), now=1)
    assert [(dst, msg.kind, msg.body["code"]) for dst, msg in out] == \
        [("alice", "ERROR", "EncodingError")]
    recovered = HubCore.recover(hub.config, hub.ledgers, hub.store)
    assert recovered.persist_json() == hub.persist_json()


def test_journal_replay_resumes_in_flight_route():
    hub, ledger = build_hub(delta=4)
    store = hub.store
    a_sk, _, _ = register(hub, ledger, "alice")
    register(hub, ledger, "bob")
    fund(hub, ledger, "alice", 500)
    preimage = b"\x0f" * 32
    _, outgoing = route_one(hub, ledger, a_sk, preimage)
    # crash: in-memory hub gone, journal survives
    recovered = HubCore.recover(hub.config, hub.ledgers, store)
    assert outgoing.hashlock in recovered.routes
    assert recovered.routes[outgoing.hashlock].state == "AWAIT_SECRET"
    # the payee re-sends the secret and the payment completes
    secret = SecretMessage(outgoing.channel_id, outgoing.hashlock, preimage)
    out = recovered.handle_message("bob", WireMessage(K_SECRET, {
        "payment_id": "p1", "secret": secret.to_jsonable()}), now=2)
    assert any(m.kind == "RECEIPT" for _, m in out)


def route_concurrent_pair(hub, ledger, a_sk, count=2):
    """Route ``count`` CONCURRENT payments alice -> bob in one delivery
    batch; returns their forwarded promises and preimages."""
    preimages = []
    for i in range(count):
        preimage = bytes([0x60 + i]) * 32
        promise = make_client_promise(hub, a_sk, "alice", 10 + i,
                                      hash_commit(preimage), 1000, index=i + 1)
        assert hub.handle_message("alice", WireMessage(K_PROMISE, {
            "payment_id": f"p{i}", "payee": "bob",
            "promise": promise.to_jsonable()}), now=2) == []
        preimages.append(preimage)
    # the batch ends: one signature seals every forwarded promise
    out = hub.flush_receipts(2)
    assert [(dst, m.kind) for dst, m in out] == [("bob", K_PROMISE)] * count
    return [(Promise.from_jsonable(m.body["promise"]), preimage)
            for (_, m), preimage in zip(out, preimages)]


def reveal_all(hub, routed, now=3):
    outboxes = []
    for outgoing, preimage in routed:
        secret = SecretMessage(outgoing.channel_id, outgoing.hashlock, preimage)
        outboxes += hub.handle_message("bob", WireMessage(K_SECRET, {
            "payment_id": "p", "secret": secret.to_jsonable()}), now=now)
    return outboxes


def concurrent_hub():
    hub, ledger = build_hub(delta=4)
    a_sk, _, _ = register(hub, ledger, "alice", mode="CONCURRENT")
    register(hub, ledger, "bob", mode="CONCURRENT")
    fund(hub, ledger, "alice", 500)
    return hub, ledger, a_sk


def test_concurrent_secrets_in_one_tick_get_one_receipt():
    hub, ledger, a_sk = concurrent_hub()
    routed = route_concurrent_pair(hub, ledger, a_sk)
    replies = reveal_all(hub, routed)
    # each secret is forwarded to the sender at once; the receipt waits
    assert sorted((dst, m.kind) for dst, m in replies) == [("alice", "SECRET")] * 2
    receipts = [(dst, m) for dst, m in hub.hub_tick(3) if m.kind == "RECEIPT"]
    assert len(receipts) == 1
    dst, msg = receipts[0]
    assert dst == "bob" and msg.body["receipt"]["cumulative_credit"] == 21
    assert hub.hub_tick(4) == []


def test_recovery_between_resolution_and_flush_issues_the_same_receipt():
    hub, ledger, a_sk = concurrent_hub()
    reveal_all(hub, route_concurrent_pair(hub, ledger, a_sk))
    snapshot = HubStore()
    snapshot.set_snapshot(json.loads(hub.persist_json()))
    # once from the journal, once from a snapshot taken before the flush
    recovered = [HubCore.recover(hub.config, hub.ledgers, store)
                 for store in (hub.store, snapshot)]
    assert {r.persist_json() for r in recovered} == {hub.persist_json()}
    outbox = hub.hub_tick(3)
    assert [r.hub_tick(3) for r in recovered] == [outbox, outbox]
    assert {r.persist_json() for r in recovered} == {hub.persist_json()}


def test_flush_between_ticks_is_journaled_for_recovery():
    hub, ledger, a_sk = concurrent_hub()
    first, second = route_concurrent_pair(hub, ledger, a_sk)
    reveal_all(hub, [first])
    flushed = hub.flush_receipts(3)
    assert [m.body["receipt"]["cumulative_credit"] for _, m in flushed] == [10]
    assert hub.flush_receipts(3) == []
    reveal_all(hub, [second])
    recovered = HubCore.recover(hub.config, hub.ledgers, hub.store)
    assert recovered.persist_json() == hub.persist_json()
    receipt = hub.hub_tick(3)[0][1].body["receipt"]
    assert receipt["index"] == 2 and receipt["cumulative_credit"] == 21
    assert recovered.hub_tick(3)[0][1].body["receipt"] == receipt


def test_snapshot_in_the_middle_of_a_batch_round_trips():
    hub, ledger, a_sk = concurrent_hub()
    for i in range(3):
        promise = make_client_promise(hub, a_sk, "alice", 10 + i,
                                      hash_commit(bytes([0x70 + i]) * 32), 1000, index=i + 1)
        assert hub.handle_message("alice", WireMessage(K_PROMISE, {
            "payment_id": f"p{i}", "payee": "bob",
            "promise": promise.to_jsonable()}), now=2) == []
    bob_channel = hub.registry["bob"].channel_id
    assert hub.promises_unsealed == {bob_channel}
    snapshot = HubStore()
    snapshot.set_snapshot(json.loads(hub.persist_json()))
    recovered = HubCore.recover(hub.config, hub.ledgers, snapshot)
    assert recovered.persist_json() == hub.persist_json()
    # the unsealed set is read back from the books
    assert recovered.promises_unsealed == {bob_channel}
    outbox = hub.flush_receipts(2)
    assert [(dst, m.kind) for dst, m in outbox] == [("bob", K_PROMISE)] * 3
    assert recovered.flush_receipts(2) == outbox
    assert recovered.persist_json() == hub.persist_json()


def test_capacity_check_holds_while_the_payer_withholds_receipts():
    hub, ledger = build_hub(delta=4)
    a_sk, _, _ = register(hub, ledger, "alice", mode="CONCURRENT")
    register(hub, ledger, "bob", mode="CONCURRENT")
    fund(hub, ledger, "alice", 1000)
    count = 200
    preimages = [i.to_bytes(2, "big") * 16 for i in range(count)]
    for i, preimage in enumerate(preimages):
        promise = make_client_promise(hub, a_sk, "alice", 1 + i % 4,
                                      hash_commit(preimage), 1000, index=i + 1)
        assert hub.handle_message("alice", WireMessage(K_PROMISE, {
            "payment_id": f"p{i}", "payee": "bob",
            "promise": promise.to_jsonable()}), now=2) == []
    forwarded = [Promise.from_jsonable(m.body["promise"]) for _, m in hub.flush_receipts(2)]
    assert len(forwarded) == count
    reveal_all(hub, list(zip(forwarded, preimages)))
    # every payment is paid to bob; alice has every secret and sends no receipt
    in_state = hub.channel_of("alice")
    assert len(in_state.pending_in) == len(in_state.revealed_unreceipted) == count
    spendable = in_state.peer_spendable()
    assert spendable == 1000 - sum(1 + i % 4 for i in range(count))

    def offer(amount, payment_id):
        promise = make_client_promise(hub, a_sk, "alice", amount,
                                      hash_commit(payment_id.encode() * 8), 1000,
                                      index=count + 1)
        return hub.handle_message("alice", WireMessage(K_PROMISE, {
            "payment_id": payment_id, "payee": "bob",
            "promise": promise.to_jsonable()}), now=3)

    [(dst, refused)] = offer(spendable + 1, "over")
    assert (dst, refused.kind, refused.body["code"]) == ("alice", "ERROR",
                                                         "InsufficientCapacity")
    assert offer(spendable, "full") == []  # routed, sealed when the batch ends
    assert in_state.peer_spendable() == 0


def _written_promises(node):
    """Every promise object anywhere in a persisted tree."""
    if isinstance(node, dict):
        if {"sender", "index", "hashlock", "expiry"} <= node.keys():
            yield node
        for value in node.values():
            yield from _written_promises(value)
    elif isinstance(node, list):
        for value in node:
            yield from _written_promises(value)


def test_a_snapshot_writes_each_promise_once():
    hub, ledger, a_sk = concurrent_hub()
    routed = route_concurrent_pair(hub, ledger, a_sk)
    reveal_all(hub, routed[:1])
    snap = json.loads(hub.persist_json())
    written = sorted((p["channel_id"], p["sender"], p["index"])
                     for p in _written_promises(snap))
    # alice receipted neither payment; bob's books keep only the unpaid one;
    # the routes write none
    books = sorted((p.channel_id, p.sender, p.index) for state in hub.channels.values()
                   for pending in (state.pending_in, state.pending_out)
                   for p in pending.values())
    assert len(books) == 3 and written == books
    store = HubStore()
    store.set_snapshot(snap)
    recovered = HubCore.recover(hub.config, hub.ledgers, store)
    assert recovered.persist_json() == hub.persist_json()
