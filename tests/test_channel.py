"""Channel state machine: promises, secrets, receipts, expiry, and modes."""

import json
from collections import Counter
from dataclasses import replace
from itertools import permutations
from random import Random

import pytest

from hubpay import crypto
from hubpay.channel import ChannelState
from hubpay.crypto import SCHEME_A, MerkleProof
from hubpay.errors import (
    REJECT_EXPIRY_TOO_SOON,
    REJECT_STALE_INDEX,
    BadPreimage,
    BadSignature,
    ChannelBusy,
    Expired,
    ExpiredProposal,
    InsufficientCapacity,
    InvalidAmount,
)
from hubpay.ledger import Ledger
from hubpay.messages import MODE_CONCURRENT, MODE_SERIALIZED, Promise, SecretMessage

from conftest import make_pair, run_payment, sealed
from oracles import AccountingOracle


# -- proposals -----------------------------------------------------------------

def test_make_proposal_hashlock_binds_stored_preimage():
    pair = make_pair()
    proposal, preimage = pair.hub.make_proposal("p-1", 10, 100, 0, Random(1))
    from hubpay.crypto import hash_commit
    assert proposal.hashlock == hash_commit(preimage)
    assert pair.hub.secrets[proposal.hashlock] == preimage


def test_make_proposal_hashlocks_unique_over_many_calls():
    pair = make_pair()
    rng = Random(2)
    locks = set()
    for i in range(10_000):
        proposal, _ = pair.hub.make_proposal(f"p-{i}", 1, 100, 0, rng)
        locks.add(proposal.hashlock)
    assert len(locks) == 10_000


def test_make_proposal_zero_amount_rejected():
    pair = make_pair()
    with pytest.raises(InvalidAmount):
        pair.hub.make_proposal("p-1", 0, 100, 0, Random(3))


def test_make_proposal_expired_rejected():
    pair = make_pair()
    with pytest.raises(ExpiredProposal):
        pair.hub.make_proposal("p-1", 5, 10, 10, Random(3))


# -- available balance -----------------------------------------------------------

def test_available_balance_identity_case():
    pair = make_pair(client_deposit=100)
    assert pair.client.available_balance() == 100


def test_available_balance_matches_accounting_oracle():
    pair = make_pair(client_deposit=100, mode=MODE_CONCURRENT)
    oracle = AccountingOracle()
    oracle.record("deposit", 100)
    state = pair.client
    state.credit_received = 10
    oracle.record("credit_in", 10)
    state.credit_sent = 30
    oracle.record("credit_out", 30)
    proposal, _ = pair.hub.make_proposal("p-1", 20, 100, 0, Random(4))
    state.make_promise(proposal, pair.client_sk, 0)
    oracle.record("pend_out", 20)
    assert state.available_balance() == oracle.available() == 60


def test_available_balance_floor_zero_after_full_spend():
    pair = make_pair(client_deposit=50)
    pair.client.credit_sent = 50
    assert pair.client.available_balance() == 0


# -- promises ----------------------------------------------------------------------

def test_make_promise_at_capacity_boundary():
    pair = make_pair(client_deposit=100, mode=MODE_CONCURRENT)
    rng = Random(5)
    p1, _ = pair.hub.make_proposal("p-1", 40, 1000, 0, rng)
    pair.client.make_promise(p1, pair.client_sk, 0)
    p2, _ = pair.hub.make_proposal("p-2", 60, 1000, 0, rng)
    promise = pair.client.make_promise(p2, pair.client_sk, 0)
    assert promise.amount == 60
    p3, _ = pair.hub.make_proposal("p-3", 1, 1000, 0, rng)
    with pytest.raises(InsufficientCapacity):
        pair.client.make_promise(p3, pair.client_sk, 0)


def test_make_promise_over_capacity_rejected():
    pair = make_pair(client_deposit=100, mode=MODE_CONCURRENT)
    rng = Random(6)
    p1, _ = pair.hub.make_proposal("p-1", 40, 1000, 0, rng)
    pair.client.make_promise(p1, pair.client_sk, 0)
    p2, _ = pair.hub.make_proposal("p-2", 61, 1000, 0, rng)
    with pytest.raises(InsufficientCapacity):
        pair.client.make_promise(p2, pair.client_sk, 0)


def test_serialized_mode_blocks_second_in_flight_promise():
    pair = make_pair(mode=MODE_SERIALIZED)
    rng = Random(7)
    p1, _ = pair.hub.make_proposal("p-1", 10, 1000, 0, rng)
    pair.client.make_promise(p1, pair.client_sk, 0)
    p2, _ = pair.hub.make_proposal("p-2", 10, 1000, 0, rng)
    with pytest.raises(ChannelBusy):
        pair.client.make_promise(p2, pair.client_sk, 0)


def test_verify_promise_accepts_well_formed():
    pair = make_pair()
    proposal, _ = pair.hub.make_proposal("p-1", 10, 1000, 0, Random(8))
    promise = pair.client.make_promise(proposal, pair.client_sk, 0)
    assert pair.hub.verify_promise(promise, 0) is None


def test_verify_promise_rejects_mutated_amount():
    pair = make_pair()
    proposal, _ = pair.hub.make_proposal("p-1", 10, 1000, 0, Random(9))
    promise = pair.client.make_promise(proposal, pair.client_sk, 0)
    forged = Promise(promise.channel_id, promise.sender, promise.index,
                     promise.amount + 90, promise.hashlock, promise.expiry,
                     promise.sender_sig)
    assert pair.hub.verify_promise(forged, 0) == "BadSignature"


def test_verify_promise_rejects_reused_index_serialized():
    pair = make_pair(mode=MODE_SERIALIZED)
    run_payment(pair, "alice", 10)
    # replay the same index after it was receipted
    proposal, _ = pair.hub.make_proposal("p-2", 5, 1000, 0, Random(10))
    stale = Promise(pair.params.channel_id, "alice", 1, 5, proposal.hashlock, 1000)
    stale = sealed(stale, pair.client_sk)
    assert pair.hub.verify_promise(stale, 0) == "StaleIndex"


def test_verify_promise_rejects_duplicate_hashlock():
    pair = make_pair(mode=MODE_CONCURRENT)
    rng = Random(11)
    proposal, _ = pair.hub.make_proposal("p-1", 10, 1000, 0, rng)
    promise = pair.client.make_promise(proposal, pair.client_sk, 0)
    assert pair.hub.verify_promise(promise, 0) is None
    pair.hub.accept_promise(promise)
    dup = Promise(pair.params.channel_id, "alice", 2, 10, proposal.hashlock, 1000)
    dup = sealed(dup, pair.client_sk)
    assert pair.hub.verify_promise(dup, 0) == "DuplicateHashlock"


def test_verify_promise_respects_expiry_margin():
    pair = make_pair()
    proposal, _ = pair.hub.make_proposal("p-1", 10, 100, 0, Random(12))
    promise = pair.client.make_promise(proposal, pair.client_sk, 0)
    assert pair.hub.verify_promise(promise, 0, min_margin=100) == "ExpiryTooSoon"
    assert pair.hub.verify_promise(promise, 0, min_margin=99) is None


# -- batch-sealed promises -----------------------------------------------------------

def hub_batch(pair, count, now=0):
    """``count`` hub promises to the client, sealed as one batch; returns
    them as they go on the wire, with the client's preimages."""
    rng = Random(count)
    preimages = []
    for i in range(count):
        proposal, preimage = pair.client.make_proposal(f"p-{i}", 1 + i, 1000, now, rng)
        pair.hub.promise_raw(proposal.amount, proposal.hashlock, proposal.expiry, now)
        preimages.append(preimage)
    return pair.hub.seal_pending(pair.hub_sk), preimages


def funded_ledger_for(*pairs):
    ledger = Ledger("L1", SCHEME_A, {"alice": 1000, "bob": 1000, "hub": 100_000})
    for pair in pairs:
        ledger.deploy_contract(pair.params, "hub")
        ledger.deposit(pair.params.channel_id, "hub", 1000)
    return ledger


def test_batch_carries_paths_and_the_books_keep_none():
    pair = make_pair(mode=MODE_CONCURRENT)
    batch, _ = hub_batch(pair, 3)
    assert len({p.sender_sig for p in batch}) == 1  # one signature
    assert [p.path.leaf_index for p in batch] == [0, 1, 2]
    stored = list(pair.hub.pending_out.values())
    assert [p.sender_sig for p in stored] == [p.sender_sig for p in batch]
    assert all(p.path is None for p in stored)
    assert pair.hub.seal_pending(pair.hub_sk) == []  # nothing left unsealed


def test_payer_batch_of_one_keeps_the_wire_form():
    pair = make_pair(mode=MODE_CONCURRENT)
    proposal, _ = pair.hub.make_proposal("p-1", 10, 1000, 0, Random(31))
    promise = pair.client.make_promise(proposal, pair.client_sk, 0)
    assert promise.path is None
    assert set(promise.to_jsonable()) == {"channel_id", "sender", "index", "amount",
                                          "hashlock", "expiry", "sig", "sig_scheme"}
    assert pair.hub.verify_promise(Promise.from_jsonable(promise.to_jsonable()), 0) is None


def test_promise_under_another_channels_root_refused():
    alice = make_pair(mode=MODE_CONCURRENT)
    bob = make_pair(mode=MODE_CONCURRENT, channel_id="ch-2", client_id="bob")
    assert alice.hub_sk == bob.hub_sk  # one hub key signs both channels' batches
    ledger = funded_ledger_for(alice, bob)
    batch, preimages = hub_batch(alice, 3)
    for promise, preimage in zip(batch, preimages):
        # as sent: valid on its own channel, refused on the other
        assert alice.client.verify_promise(promise, 0) is None
        assert bob.client.verify_promise(promise, 0) == "BadSignature"
        # relabelled for the other channel, the path no longer reaches the root
        moved = replace(promise, channel_id="ch-2")
        assert bob.client.verify_promise(moved, 0) == "BadSignature"
        for forged in (promise, moved):
            with pytest.raises(BadSignature):
                ledger.claim_promise("ch-2", "bob", forged, preimage)
    ledger.claim_promise("ch-1", "alice", batch[0], preimages[0])


@pytest.mark.parametrize("tamper", ["sibling", "leaf_index"])
def test_tampered_path_refused(tamper):
    pair = make_pair(mode=MODE_CONCURRENT)
    ledger = funded_ledger_for(pair)
    batch, preimages = hub_batch(pair, 3)
    path = batch[0].path
    if tamper == "sibling":
        first = bytes([path.siblings[0][0] ^ 1]) + path.siblings[0][1:]
        path = MerkleProof(path.leaf_index, (first,) + path.siblings[1:])
    else:
        path = MerkleProof(1, path.siblings)
    forged = batch[0].with_sig(batch[0].sender_sig, path)
    assert pair.client.verify_promise(forged, 0) == "BadSignature"
    # still refused once the genuine batch has been verified
    assert pair.client.verify_promise(batch[1], 0) is None
    assert pair.client.verify_promise(forged, 0) == "BadSignature"
    with pytest.raises(BadSignature):
        ledger.claim_promise("ch-1", "alice", forged, preimages[0])


def test_sixteen_promise_batch_costs_the_payee_one_verification(monkeypatch):
    pair = make_pair(mode=MODE_CONCURRENT)
    batch, _ = hub_batch(pair, 16)
    real_verify = crypto.verify
    calls = []

    def counting_verify(*args):
        calls.append(args)
        return real_verify(*args)

    monkeypatch.setattr(crypto, "verify", counting_verify)
    for promise in batch:
        assert pair.client.verify_promise(promise, 0) is None
        pair.client.accept_promise(promise)
    assert len(calls) == 1
    # the memo is not persisted: a restored state verifies the batch again
    restored = ChannelState.from_jsonable(json.loads(json.dumps(pair.client.to_jsonable())))
    assert restored.verified_batch is None
    assert "verified_batch" not in pair.client.to_jsonable()


# -- secrets and receipts -----------------------------------------------------------

def _promise_in_flight(pair, amount=10, now=0, expiry=1000, rng=None, pid="p-1"):
    rng = rng or Random(13)
    proposal, _ = pair.hub.make_proposal(pid, amount, expiry, now, rng)
    promise = pair.client.make_promise(proposal, pair.client_sk, now)
    assert pair.hub.verify_promise(promise, now) is None
    pair.hub.accept_promise(promise)
    return promise


def test_accept_secret_issues_cumulative_receipt():
    pair = make_pair()
    pair.client.credit_sent = 5  # prior resolved credit
    promise = _promise_in_flight(pair, amount=10)
    secret = pair.hub.reveal_secret(promise.hashlock)
    receipt = pair.client.accept_secret(secret, pair.client_sk, 0)
    assert receipt.cumulative_credit == 15
    assert receipt.index == promise.index  # serialized lockstep


def test_accept_secret_wrong_preimage_rejected():
    pair = make_pair()
    promise = _promise_in_flight(pair)
    bad = SecretMessage(pair.params.channel_id, promise.hashlock, b"\x00" * 32)
    with pytest.raises(BadPreimage):
        pair.client.accept_secret(bad, pair.client_sk, 0)


def test_accept_secret_after_expiry_leaves_credit_unchanged():
    pair = make_pair()
    promise = _promise_in_flight(pair, expiry=50)
    secret = pair.hub.reveal_secret(promise.hashlock)
    with pytest.raises(Expired):
        pair.client.accept_secret(secret, pair.client_sk, 50)
    assert pair.client.credit_sent == 0


def test_accept_secret_unknown_hashlock():
    from hubpay.errors import UnknownPromise
    pair = make_pair()
    ghost = SecretMessage(pair.params.channel_id, b"\x01" * 32, b"\x02" * 32)
    with pytest.raises(UnknownPromise):
        pair.client.accept_secret(ghost, pair.client_sk, 0)


def test_verify_receipt_accepts_matching_books():
    pair = make_pair()
    receipt = run_payment(pair, "alice", 10)
    assert pair.hub.credit_received == 10
    assert pair.hub.last_receipt_received == receipt


def test_verify_receipt_rejects_stale_or_shrinking_credit():
    pair = make_pair()
    run_payment(pair, "alice", 10, proposal_id="p-1")
    stale = pair.hub.last_receipt_received
    run_payment(pair, "alice", 5, proposal_id="p-2")
    assert pair.hub.verify_receipt(stale) == "StaleIndex"


def test_verify_receipt_concurrent_detects_omitted_pending_promise():
    pair = make_pair(mode=MODE_CONCURRENT)
    rng = Random(14)
    first = _promise_in_flight(pair, amount=10, rng=rng, pid="p-1")
    second = _promise_in_flight(pair, amount=20, rng=rng, pid="p-2")
    secret = pair.hub.reveal_secret(first.hashlock)
    receipt = pair.client.accept_secret(secret, pair.client_sk, 0)
    # the honest receipt commits to the still-pending second promise
    assert pair.hub.verify_receipt(receipt) is None
    # a receipt whose root omits it must be rejected
    from hubpay.crypto import sign
    from hubpay.messages import Receipt
    bad = Receipt(receipt.channel_id, receipt.issuer, receipt.index,
                  receipt.cumulative_credit, b"\x00" * 32)
    bad = bad.with_sig(sign(pair.client_sk, bad.signing_bytes))
    assert pair.hub.verify_receipt(bad) == "BadPendingRoot"


def test_later_receipt_covers_multiple_resolved_promises():
    # receipt #1 never arrives; receipt #2's cumulative covers both secrets
    pair = make_pair(mode=MODE_CONCURRENT)
    rng = Random(23)
    first = _promise_in_flight(pair, amount=10, rng=rng, pid="p-1")
    second = _promise_in_flight(pair, amount=20, rng=rng, pid="p-2")
    s1 = pair.hub.reveal_secret(first.hashlock)
    s2 = pair.hub.reveal_secret(second.hashlock)
    pair.client.accept_secret(s1, pair.client_sk, 0)  # lost in transit
    receipt2 = pair.client.accept_secret(s2, pair.client_sk, 0)
    assert receipt2.cumulative_credit == 30
    assert pair.hub.verify_receipt(receipt2) is None
    resolved = pair.hub.apply_receipt(receipt2)
    assert {first.hashlock, second.hashlock} == set(resolved)
    assert pair.hub.credit_received == 30
    assert pair.hub.pending_in == {}


def test_one_receipt_resolves_a_batch_of_secrets():
    pair = make_pair(mode=MODE_CONCURRENT)
    rng = Random(24)
    promises = [_promise_in_flight(pair, amount=amount, rng=rng, pid=f"p-{i}")
                for i, amount in enumerate((10, 20, 30, 40))]
    for promise in promises[:3]:
        pair.client.resolve_secret(pair.hub.reveal_secret(promise.hashlock), 0)
        assert pair.client.receipt_owed()
    assert pair.client.last_receipt_sent is None
    receipt = pair.client.issue_receipt(pair.client_sk)
    assert not pair.client.receipt_owed()
    assert receipt.index == 1 and receipt.cumulative_credit == 60
    # the root commits to the fourth promise, still pending on both sides
    assert pair.hub.verify_receipt(receipt) is None
    assert pair.hub.apply_receipt(receipt) == [p.hashlock for p in promises[:3]]
    assert pair.hub.credit_received == 60
    assert list(pair.hub.pending_in) == [promises[3].hashlock]
    assert pair.hub.revealed_unreceipted == {}


def test_serialized_receipt_needs_its_promise_index():
    pair = make_pair()
    promise = _promise_in_flight(pair)
    pair.client.resolve_secret(pair.hub.reveal_secret(promise.hashlock), 0)
    with pytest.raises(ValueError):
        pair.client.issue_receipt(pair.client_sk)
    receipt = pair.client.issue_receipt(pair.client_sk, promise.index)
    assert receipt.index == promise.index
    assert pair.hub.verify_receipt(receipt) is None


def test_receipt_credit_mismatch_rejected():
    pair = make_pair()
    promise = _promise_in_flight(pair, amount=10)
    pair.hub.reveal_secret(promise.hashlock)
    from hubpay.crypto import ZERO_DIGEST, sign
    from hubpay.messages import Receipt
    wrong = Receipt(pair.params.channel_id, "alice", promise.index, 9, ZERO_DIGEST)
    wrong = wrong.with_sig(sign(pair.client_sk, wrong.signing_bytes))
    assert pair.hub.verify_receipt(wrong) == "CreditMismatch"


# -- expiry ---------------------------------------------------------------------------

def test_expire_pending_no_expired_entries():
    pair = make_pair()
    _promise_in_flight(pair, expiry=100)
    assert pair.client.expire_pending(50) == []
    assert len(pair.client.pending_out) == 1


def test_expire_pending_restores_sender_capacity():
    pair = make_pair(client_deposit=100)
    _promise_in_flight(pair, amount=20, expiry=60)
    assert pair.client.available_balance() == 80
    dropped = pair.client.expire_pending(60)
    assert [p.amount for p in dropped] == [20]
    assert pair.client.available_balance() == 100


def test_expire_pending_removes_exactly_due_subset():
    pair = make_pair(mode=MODE_CONCURRENT, client_deposit=1000)
    rng = Random(15)
    expiries = [40, 90, 60, 120, 55]
    for i, exp in enumerate(expiries):
        _promise_in_flight(pair, amount=5, expiry=exp, rng=rng, pid=f"p-{i}")
    now = 60
    dropped = {p.expiry for p in pair.client.expire_pending(now)}
    brute = {e for e in expiries if e <= now}
    assert dropped == brute
    assert {p.expiry for p in pair.client.pending_out.values()} == set(expiries) - brute


def test_serialized_index_reusable_after_expiry():
    pair = make_pair(mode=MODE_SERIALIZED)
    _promise_in_flight(pair, amount=10, expiry=50, pid="p-1")
    pair.client.expire_pending(50)
    pair.hub.expire_pending(50)
    receipt = run_payment(pair, "alice", 7, now=51, proposal_id="p-2")
    assert receipt.index == 1


# -- invariants ------------------------------------------------------------------------

def test_credit_monotonicity_and_liability_bound_over_trace():
    pair = make_pair(client_deposit=200, hub_deposit=200)
    rng = Random(16)
    last = 0
    for i in range(12):
        amount = rng.randint(1, 15)
        payer = "alice" if i % 3 != 2 else "hub"
        state = pair.state_of(payer)
        if amount > state.available_balance():
            continue
        receipt = run_payment(pair, payer, amount, proposal_id=f"p-{i}", rng=rng)
        if payer == "alice":
            assert receipt.cumulative_credit > last
            last = receipt.cumulative_credit
        for side in (pair.client, pair.hub):
            assert side.credit_sent <= side.my_deposit + side.credit_received
            assert side.available_balance() >= 0
        assert_pending_totals(pair.client, pair.hub)


def assert_pending_totals(*states):
    """The running totals the capacity checks read equal the maps' sums."""
    for state in states:
        assert state.pending_out.total == sum(p.amount for p in state.pending_out.values())
        assert state.pending_in.total == sum(p.amount for p in state.pending_in.values())


def _deliver(src, dst, sk, now) -> bool:
    """Seal the sender's unsealed promises and hand them to the receiver;
    one it refuses is dropped, as the hub drops a refused promise."""
    batch = src.seal_pending(sk)
    for promise in batch:
        reason = dst.verify_promise(promise, now)
        if reason is None:
            dst.accept_promise(promise)
        else:
            assert reason in (REJECT_EXPIRY_TOO_SOON, REJECT_STALE_INDEX)
            src.drop_promise(promise.hashlock)
    return bool(batch)


def _receipt(src, dst, sk, now) -> bool:
    """Deliver what is unsealed, then send the receipt owed, if any: the
    receipt's root commits to every promise the sender has booked."""
    _deliver(src, dst, sk, now)
    if not src.receipt_owed():
        return False
    receipt = src.issue_receipt(sk)
    assert dst.verify_receipt(receipt) is None
    dst.apply_receipt(receipt)
    return True


@pytest.mark.parametrize("seed", range(6))
def test_pending_totals_match_the_maps_over_a_random_walk(seed):
    pair = make_pair(mode=MODE_CONCURRENT, client_deposit=300, hub_deposit=300)
    rng = Random(seed)
    done = Counter()
    kinds = ("promise", "seal", "secret", "receipt", "expire", "claim", "reload")
    for now in range(150):
        payer = rng.choice(("alice", "hub"))
        src, dst = pair.state_of(payer), pair.state_of(pair.params.other_party(payer))
        sk = pair.key_of(payer)
        kind = rng.choices(kinds, weights=(6, 3, 5, 3, 2, 1 if now > 75 else 0, 1))[0]
        unrevealed = [h for h, p in dst.pending_in.items()
                      if h not in dst.revealed_unreceipted and p.expiry > now]
        acted = False
        if kind == "promise" and not src.out_frozen and src.available_balance() > 0:
            amount = rng.randint(1, min(40, src.available_balance()))
            proposal, _ = dst.make_proposal(f"p-{now}", amount, now + rng.randint(2, 30),
                                            now, rng)
            src.promise_raw(proposal.amount, proposal.hashlock, proposal.expiry, now)
            acted = True
        elif kind == "seal":
            acted = _deliver(src, dst, sk, now)
        elif kind == "secret" and unrevealed:
            src.resolve_secret(dst.reveal_secret(rng.choice(unrevealed)), now)
            acted = True
        elif kind == "receipt":
            acted = _receipt(src, dst, sk, now)
        elif kind == "expire":
            for a, b in ((pair.client, pair.hub), (pair.hub, pair.client)):
                _receipt(a, b, pair.key_of(a.owner), now)
            acted = bool(pair.client.expire_pending(now) + pair.hub.expire_pending(now))
        elif kind == "claim" and unrevealed:
            hashlock = rng.choice(unrevealed)
            amount = dst.pending_in[hashlock].amount
            dst.note_self_claimed(hashlock, amount)
            src.note_peer_claimed(hashlock, amount)
            acted = True
        elif kind == "reload":
            for name in ("client", "hub"):
                blob = json.dumps(getattr(pair, name).to_jsonable(), sort_keys=True)
                setattr(pair, name, ChannelState.from_jsonable(json.loads(blob)))
            acted = True
        done[kind] += acted
        assert_pending_totals(pair.client, pair.hub)
    assert all(done[kind] for kind in kinds), done


def test_unrevealed_secret_incurs_no_liability():
    pair = make_pair()
    promise = _promise_in_flight(pair, amount=25, expiry=40)
    # the payee never reveals; promise expires on both sides
    pair.client.expire_pending(40)
    pair.hub.expire_pending(40)
    assert pair.client.credit_sent == 0
    assert pair.hub.credit_received == 0
    assert promise.hashlock not in pair.hub.pending_in


def test_serialized_mode_single_unresolved_promise_invariant():
    pair = make_pair(mode=MODE_SERIALIZED)
    rng = Random(17)
    for i in range(6):
        run_payment(pair, "alice", 3, proposal_id=f"p-{i}", rng=rng)
        assert len(pair.client.pending_out) == 0
        assert len(pair.hub.pending_in) == 0


def _equivalence_run(mode: str, issue_order, resolve_order, payments):
    pair = make_pair(mode=mode, client_deposit=500, hub_deposit=500)
    rng = Random(18)
    promises = {}
    if mode == MODE_SERIALIZED:
        # one at a time, in issue order
        for i in issue_order:
            payer, amount = payments[i]
            run_payment(pair, payer, amount, proposal_id=f"p-{i}", rng=rng)
    else:
        for i in issue_order:
            payer, amount = payments[i]
            payee = pair.params.other_party(payer)
            proposal, _ = pair.state_of(payee).make_proposal(f"p-{i}", amount, 1000, 0, rng)
            promise = pair.state_of(payer).make_promise(proposal, pair.key_of(payer), 0)
            assert pair.state_of(payee).verify_promise(promise, 0) is None
            pair.state_of(payee).accept_promise(promise)
            promises[i] = (payer, payee, promise)
        for i in resolve_order:
            payer, payee, promise = promises[i]
            secret = pair.state_of(payee).reveal_secret(promise.hashlock)
            receipt = pair.state_of(payer).accept_secret(secret, pair.key_of(payer), 0)
            assert pair.state_of(payee).verify_receipt(receipt) is None
            pair.state_of(payee).apply_receipt(receipt)
    return (pair.client.credit_sent, pair.client.credit_received,
            pair.hub.credit_sent, pair.hub.credit_received)


def test_concurrent_and_serialized_agree_for_any_interleaving():
    payments = [("alice", 5), ("hub", 7), ("alice", 3), ("hub", 2)]
    base = _equivalence_run(MODE_SERIALIZED, range(4), range(4), payments)
    rng = Random(19)
    for issue_order in permutations(range(4)):
        resolve_order = list(issue_order)
        rng.shuffle(resolve_order)
        got = _equivalence_run(MODE_CONCURRENT, issue_order, resolve_order, payments)
        assert got == base


# -- state determinism --------------------------------------------------------------

def test_state_round_trips_through_json():
    pair = make_pair(mode=MODE_CONCURRENT)
    rng = Random(20)
    _promise_in_flight(pair, amount=4, rng=rng, pid="p-0")
    run_payment(pair, "alice", 9, proposal_id="p-1", rng=rng)
    for state in (pair.client, pair.hub):
        blob = json.dumps(state.to_jsonable(), sort_keys=True)
        rebuilt = ChannelState.from_jsonable(json.loads(blob))
        assert json.dumps(rebuilt.to_jsonable(), sort_keys=True) == blob


def test_replaying_identical_trace_reproduces_identical_state():
    def run_once():
        pair = make_pair()
        rng = Random(21)
        for i in range(5):
            run_payment(pair, "alice" if i % 2 == 0 else "hub", 2 + i,
                        proposal_id=f"p-{i}", rng=rng)
        return (json.dumps(pair.client.to_jsonable(), sort_keys=True),
                json.dumps(pair.hub.to_jsonable(), sort_keys=True))

    assert run_once() == run_once()
