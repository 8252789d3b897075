"""Mock ledger: contract lifecycle, HTLC semantics, disputes, settlement."""

import json

import pytest

from hubpay.crypto import ZERO_DIGEST, hash_commit, merkle_prove, merkle_root, sign
from hubpay.errors import (
    AlreadyClaimed,
    AlreadyExists,
    BadPreimage,
    BadSignature,
    BadStatus,
    ConservationViolation,
    Expired,
    InsufficientFunds,
    InvalidAmount,
    NotFound,
    ProofRequired,
    StaleReceipt,
    WindowClosed,
    WindowOpen,
)
from hubpay.ledger import Ledger, replay_events
from hubpay.messages import (
    MODE_CONCURRENT,
    MODE_SERIALIZED,
    ClosingRecord,
    Promise,
    Receipt,
)

from conftest import make_pair, sealed
from oracles import settle_oracle

WINDOW = 20


def make_ledger(mode=MODE_SERIALIZED, balances=None):
    pair = make_pair(mode=mode, window=WINDOW)
    ledger = Ledger("L1", pair.params.scheme,
                    balances or {"alice": 1000, "hub": 1_000_000})
    ledger.deploy_contract(pair.params, "hub")
    return ledger, pair


def funded_ledger(mode=MODE_SERIALIZED, client_dep=100, hub_dep=100):
    ledger, pair = make_ledger(mode=mode)
    ledger.deposit(pair.params.channel_id, "alice", client_dep)
    ledger.deposit(pair.params.channel_id, "hub", hub_dep)
    return ledger, pair


def signed_promise(pair, sender, index, amount, preimage, expiry):
    promise = Promise(pair.params.channel_id, sender, index, amount,
                      hash_commit(preimage), expiry)
    return sealed(promise, pair.key_of(sender))


def signed_receipt(pair, issuer, index, cumulative, root=ZERO_DIGEST):
    receipt = Receipt(pair.params.channel_id, issuer, index, cumulative, root)
    return receipt.with_sig(sign(pair.key_of(issuer), receipt.signing_bytes))


def co_signed_close(pair, balances):
    record = ClosingRecord.make(pair.params.channel_id, balances)
    return record, {
        "alice": sign(pair.client_sk, record.signing_bytes),
        "hub": sign(pair.hub_sk, record.signing_bytes),
    }


# -- deployment and deposits -----------------------------------------------------

def test_deploy_creates_open_contract_with_zero_deposits():
    ledger, pair = make_ledger()
    view = ledger.read_state(pair.params.channel_id)
    assert view["status"] == "OPEN"
    assert view["deposits"] == {"alice": 0, "hub": 0}


def test_redeploy_same_channel_rejected():
    ledger, pair = make_ledger()
    with pytest.raises(AlreadyExists):
        ledger.deploy_contract(pair.params, "hub")


def test_deployed_contract_visible_to_any_reader():
    ledger, pair = make_ledger()
    view = ledger.read_state(pair.params.channel_id)
    assert view["params"]["client_pk"] == pair.params.client_pk.data.hex()
    assert view["events"][0]["kind"] == "DEPLOYED"


def test_deposit_moves_funds_from_account():
    ledger, pair = make_ledger(balances={"alice": 500, "hub": 500})
    ledger.deposit(pair.params.channel_id, "alice", 100)
    assert ledger.balance("alice") == 400
    assert ledger.read_state(pair.params.channel_id)["deposits"]["alice"] == 100


def test_deposit_exceeding_balance_changes_nothing():
    ledger, pair = make_ledger(balances={"alice": 50, "hub": 500})
    with pytest.raises(InsufficientFunds):
        ledger.deposit(pair.params.channel_id, "alice", 51)
    assert ledger.balance("alice") == 50
    assert ledger.read_state(pair.params.channel_id)["deposits"]["alice"] == 0


def test_deposit_after_closing_rejected():
    ledger, pair = funded_ledger()
    ledger.initiate_dispute(pair.params.channel_id, "alice")
    with pytest.raises(BadStatus):
        ledger.deposit(pair.params.channel_id, "alice", 10)


# -- claims --------------------------------------------------------------------------

def test_claim_happy_path_before_expiry():
    ledger, pair = funded_ledger()
    preimage = b"\x11" * 32
    promise = signed_promise(pair, "alice", 1, 30, preimage, expiry=100)
    ledger.claim_promise(pair.params.channel_id, "hub", promise, preimage)
    view = ledger.read_state(pair.params.channel_id)
    assert view["claimed"][0]["amount"] == 30
    assert view["claimed"][0]["claimant"] == "hub"


def test_claim_exactly_at_expiry_rejected():
    ledger, pair = funded_ledger()
    preimage = b"\x12" * 32
    promise = signed_promise(pair, "alice", 1, 30, preimage, expiry=10)
    ledger.advance_time(10)
    with pytest.raises(Expired):
        ledger.claim_promise(pair.params.channel_id, "hub", promise, preimage)


def test_claim_wrong_preimage_rejected():
    ledger, pair = funded_ledger()
    promise = signed_promise(pair, "alice", 1, 30, b"\x13" * 32, expiry=100)
    with pytest.raises(BadPreimage):
        ledger.claim_promise(pair.params.channel_id, "hub", promise, b"\x14" * 32)


def test_claim_bad_signature_rejected():
    ledger, pair = funded_ledger()
    preimage = b"\x15" * 32
    promise = signed_promise(pair, "alice", 1, 30, preimage, expiry=100)
    forged = Promise(promise.channel_id, promise.sender, promise.index, 99,
                     promise.hashlock, promise.expiry, promise.sender_sig)
    with pytest.raises(BadSignature):
        ledger.claim_promise(pair.params.channel_id, "hub", forged, preimage)


def test_double_claim_rejected():
    ledger, pair = funded_ledger()
    preimage = b"\x16" * 32
    promise = signed_promise(pair, "alice", 1, 30, preimage, expiry=100)
    ledger.claim_promise(pair.params.channel_id, "hub", promise, preimage)
    with pytest.raises(AlreadyClaimed):
        ledger.claim_promise(pair.params.channel_id, "hub", promise, preimage)


def test_claim_covered_by_submitted_receipt_serialized():
    # the double-count attack: promise index 1 is already inside the
    # submitted receipt's cumulative credit
    ledger, pair = funded_ledger()
    preimage = b"\x17" * 32
    promise = signed_promise(pair, "alice", 1, 30, preimage, expiry=100)
    receipt = signed_receipt(pair, "alice", 1, 30)
    ledger.initiate_dispute(pair.params.channel_id, "hub", receipt)
    with pytest.raises(AlreadyClaimed):
        ledger.claim_promise(pair.params.channel_id, "hub", promise, preimage)


def test_claim_requires_inclusion_proof_in_concurrent_mode():
    ledger, pair = funded_ledger(mode=MODE_CONCURRENT)
    pre1, pre2 = b"\x18" * 32, b"\x19" * 32
    resolved = signed_promise(pair, "alice", 1, 30, pre1, expiry=100)
    in_flight = signed_promise(pair, "alice", 2, 20, pre2, expiry=100)
    # receipt covers promise 1; promise 2 is still pending under the root
    root = merkle_root([in_flight.digest])
    receipt = signed_receipt(pair, "alice", 1, 30, root)
    ledger.initiate_dispute(pair.params.channel_id, "hub", receipt)
    with pytest.raises(ProofRequired):
        ledger.claim_promise(pair.params.channel_id, "hub", resolved, pre1)
    proof = merkle_prove([in_flight.digest], 0)
    ledger.claim_promise(pair.params.channel_id, "hub", in_flight, pre2,
                         proof=(receipt, proof))
    with pytest.raises(ProofRequired):
        # the resolved promise has no valid proof against the pending root
        bad_proof = merkle_prove([in_flight.digest], 0)
        ledger.claim_promise(pair.params.channel_id, "hub", resolved, pre1,
                             proof=(receipt, bad_proof))


# -- cooperative close ------------------------------------------------------------------

def test_cooperative_close_pays_agreed_balances():
    ledger, pair = funded_ledger(client_dep=100, hub_dep=100)
    # off-chain history: client received 10, sent 30
    record, sigs = co_signed_close(pair, {"alice": 80, "hub": 120})
    settlement = ledger.cooperative_close(pair.params.channel_id, record, sigs)
    expected = settle_oracle({"alice": 100, "hub": 100},
                             [("hub", "alice", 1, 10), ("alice", "hub", 1, 30)],
                             [], penalty_bps=1000)
    assert settlement == expected == {"alice": 80, "hub": 120}
    assert ledger.balance("alice") == 1000 - 100 + 80


def test_cooperative_close_conservation_violation():
    ledger, pair = funded_ledger()
    record, sigs = co_signed_close(pair, {"alice": 80, "hub": 121})
    with pytest.raises(ConservationViolation):
        ledger.cooperative_close(pair.params.channel_id, record, sigs)


def test_cooperative_close_missing_signature():
    ledger, pair = funded_ledger()
    record, sigs = co_signed_close(pair, {"alice": 80, "hub": 120})
    del sigs["hub"]
    with pytest.raises(BadSignature):
        ledger.cooperative_close(pair.params.channel_id, record, sigs)


# -- disputes ------------------------------------------------------------------------------

def test_initiate_dispute_records_receipt():
    ledger, pair = funded_ledger()
    receipt = signed_receipt(pair, "hub", 3, 25)
    ledger.initiate_dispute(pair.params.channel_id, "alice", receipt)
    view = ledger.read_state(pair.params.channel_id)
    assert view["status"] == "CLOSING"
    assert view["dispute"]["receipts"]["hub"]["receipt"]["cumulative_credit"] == 25


def test_initiate_dispute_with_no_receipt():
    ledger, pair = funded_ledger()
    ledger.initiate_dispute(pair.params.channel_id, "alice")
    assert ledger.read_state(pair.params.channel_id)["dispute"]["receipts"] == {}


def test_second_initiate_rejected():
    ledger, pair = funded_ledger()
    ledger.initiate_dispute(pair.params.channel_id, "alice")
    with pytest.raises(BadStatus):
        ledger.initiate_dispute(pair.params.channel_id, "hub")


def test_respond_dispute_override_newest_wins():
    ledger, pair = funded_ledger()
    stale = signed_receipt(pair, "hub", 1, 10)
    ledger.initiate_dispute(pair.params.channel_id, "alice", stale)
    newer = signed_receipt(pair, "hub", 3, 30)
    ledger.respond_dispute(pair.params.channel_id, "alice", newer)
    ledger.advance_time(WINDOW)
    settlement = ledger.finalize_settlement(pair.params.channel_id)
    expected = settle_oracle(
        {"alice": 100, "hub": 100},
        [("hub", "alice", 1, 10), ("hub", "alice", 3, 30)],
        [], penalty_bps=1000)
    assert settlement == expected
    assert settlement["alice"] == 130


def test_respond_after_window_rejected():
    ledger, pair = funded_ledger()
    ledger.initiate_dispute(pair.params.channel_id, "alice")
    ledger.advance_time(WINDOW)
    with pytest.raises(WindowClosed):
        ledger.respond_dispute(pair.params.channel_id, "hub",
                               signed_receipt(pair, "alice", 1, 5))


def test_equal_index_resubmission_rejected():
    ledger, pair = funded_ledger()
    ledger.initiate_dispute(pair.params.channel_id, "alice",
                            signed_receipt(pair, "hub", 2, 20))
    with pytest.raises(StaleReceipt):
        ledger.respond_dispute(pair.params.channel_id, "hub",
                               signed_receipt(pair, "hub", 2, 20))


# -- settlement -------------------------------------------------------------------------------

def test_finalize_settlement_formula():
    ledger, pair = funded_ledger(client_dep=100, hub_dep=100)
    # client credit_received 10 (hub-issued), credit_sent 30 (alice-issued)
    ledger.initiate_dispute(pair.params.channel_id, "alice",
                            signed_receipt(pair, "hub", 1, 10))
    ledger.respond_dispute(pair.params.channel_id, "hub",
                           signed_receipt(pair, "alice", 1, 30))
    ledger.advance_time(WINDOW)
    settlement = ledger.finalize_settlement(pair.params.channel_id)
    assert settlement == {"alice": 80, "hub": 120}


def test_finalize_before_window_rejected():
    ledger, pair = funded_ledger()
    ledger.initiate_dispute(pair.params.channel_id, "alice")
    ledger.advance_time(WINDOW - 1)
    with pytest.raises(WindowOpen):
        ledger.finalize_settlement(pair.params.channel_id)


def test_zero_activity_dispute_returns_deposits():
    ledger, pair = funded_ledger(client_dep=100, hub_dep=250)
    ledger.initiate_dispute(pair.params.channel_id, "alice")
    ledger.advance_time(WINDOW)
    assert ledger.finalize_settlement(pair.params.channel_id) == {"alice": 100, "hub": 250}


def test_stale_self_issued_submission_incurs_penalty():
    # hub submits its own stale issuance understating the client's credit;
    # the client overrides with the newer hub-signed receipt
    ledger, pair = funded_ledger(client_dep=100, hub_dep=100)
    ledger.initiate_dispute(pair.params.channel_id, "hub",
                            signed_receipt(pair, "hub", 1, 10))
    ledger.respond_dispute(pair.params.channel_id, "alice",
                           signed_receipt(pair, "hub", 3, 30))
    ledger.advance_time(WINDOW)
    settlement = ledger.finalize_settlement(pair.params.channel_id)
    expected = settle_oracle(
        {"alice": 100, "hub": 100},
        [("hub", "hub", 1, 10), ("hub", "alice", 3, 30)],
        [], penalty_bps=1000)
    assert settlement == expected
    # raw: alice 130, hub 70; hub pays 10% of 70
    assert settlement == {"alice": 137, "hub": 63}
    view = ledger.read_state(pair.params.channel_id)
    assert view["dispute"]["misbehaving"] == ["hub"]


def test_uncovered_claim_counts_into_settlement():
    ledger, pair = funded_ledger(client_dep=100, hub_dep=100)
    preimage = b"\x21" * 32
    promise = signed_promise(pair, "hub", 1, 40, preimage, expiry=100)
    ledger.claim_promise(pair.params.channel_id, "alice", promise, preimage)
    ledger.initiate_dispute(pair.params.channel_id, "alice")
    ledger.advance_time(WINDOW)
    settlement = ledger.finalize_settlement(pair.params.channel_id)
    assert settlement == {"alice": 140, "hub": 60}


def test_claim_covered_by_late_receipt_not_paid_twice_serialized():
    ledger, pair = funded_ledger(client_dep=100, hub_dep=100)
    preimage = b"\x22" * 32
    promise = signed_promise(pair, "hub", 1, 40, preimage, expiry=100)
    ledger.claim_promise(pair.params.channel_id, "alice", promise, preimage)
    # a receipt covering index 1 arrives during the dispute
    ledger.initiate_dispute(pair.params.channel_id, "alice",
                            signed_receipt(pair, "hub", 1, 40))
    ledger.advance_time(WINDOW)
    settlement = ledger.finalize_settlement(pair.params.channel_id)
    # credit 40 via receipt, claim ignored as covered
    assert settlement == {"alice": 140, "hub": 60}


# -- time ----------------------------------------------------------------------------------------

def test_advance_time_zero_rejected():
    ledger, _ = make_ledger()
    with pytest.raises(InvalidAmount):
        ledger.advance_time(0)


def test_advance_past_window_marks_finalizable():
    ledger, pair = funded_ledger()
    ledger.initiate_dispute(pair.params.channel_id, "alice")
    assert not ledger.read_state(pair.params.channel_id)["finalizable"]
    ledger.advance_time(WINDOW)
    assert ledger.read_state(pair.params.channel_id)["finalizable"]
    ledger.finalize_settlement(pair.params.channel_id)


# -- reads, privacy, conservation, replay ----------------------------------------------------------

def test_read_state_unknown_channel():
    ledger, _ = make_ledger()
    with pytest.raises(NotFound):
        ledger.read_state("ch-none")


def test_event_seq_strictly_increasing():
    ledger, pair = funded_ledger()
    seqs = [e["seq"] for e in ledger.read_state(pair.params.channel_id)["events"]]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_on_ledger_trace_contains_no_payment_records():
    # off-chain volume leaves no on-ledger footprint: deploy, two deposits,
    # one cooperative close, nothing else
    ledger, pair = funded_ledger()
    record, sigs = co_signed_close(pair, {"alice": 70, "hub": 130})
    ledger.cooperative_close(pair.params.channel_id, record, sigs)
    kinds = [e["kind"] for e in ledger.read_state(pair.params.channel_id)["events"]]
    assert kinds == ["DEPLOYED", "DEPOSITED", "DEPOSITED", "CLOSED"]
    view = ledger.read_state(pair.params.channel_id)
    assert view["claimed"] == []


def test_conservation_on_close_and_global_constant():
    ledger, pair = funded_ledger(client_dep=100, hub_dep=100)
    start_total = ledger.total_value()
    ledger.initiate_dispute(pair.params.channel_id, "hub",
                            signed_receipt(pair, "hub", 1, 10))
    ledger.respond_dispute(pair.params.channel_id, "alice",
                           signed_receipt(pair, "hub", 4, 44))
    ledger.advance_time(WINDOW)
    settlement = ledger.finalize_settlement(pair.params.channel_id)
    assert sum(settlement.values()) == 200
    assert ledger.total_value() == start_total == 1000 + 1_000_000


def assert_rebuilds_agree(ledger):
    """A replay of the event log and a snapshot restore both reach the live
    ledger's state."""
    replayed = replay_events("L1", ledger.scheme, ledger.genesis_balances, ledger.events)
    replayed.now = ledger.now
    restored = Ledger.from_snapshot(json.loads(ledger.snapshot_json()))
    assert replayed.state_digest() == ledger.state_digest()
    assert restored.state_digest() == ledger.state_digest()


def test_replay_from_event_log_reproduces_state():
    # a CONCURRENT run that emits every event kind, checked after each step
    ledger, pair = make_ledger(mode=MODE_CONCURRENT)
    cid = pair.params.channel_id
    pre1, pre2 = b"\x23" * 32, b"\x24" * 32
    p1 = signed_promise(pair, "alice", 1, 25, pre1, expiry=100)
    p2 = signed_promise(pair, "alice", 2, 15, pre2, expiry=100)
    stale_leaves, fresh_leaves = [p1.digest], [p1.digest, p2.digest]
    stale = signed_receipt(pair, "alice", 1, 0, merkle_root(stale_leaves))
    fresh = signed_receipt(pair, "alice", 2, 0, merkle_root(fresh_leaves))
    steps = [
        lambda: ledger.deposit(cid, "alice", 100),
        lambda: ledger.deposit(cid, "hub", 100),
        # alice opens the dispute with her own stale receipt
        lambda: ledger.initiate_dispute(cid, "alice", stale),
        lambda: ledger.claim_promise(cid, "hub", p1, pre1,
                                     (stale, merkle_prove(stale_leaves, 0))),
        # the claim carries a fresher receipt, which overrides alice's own
        lambda: ledger.claim_promise(cid, "hub", p2, pre2,
                                     (fresh, merkle_prove(fresh_leaves, 1))),
        lambda: ledger.refresh_claim_proof(cid, "hub", p1.hashlock,
                                           (fresh, merkle_prove(fresh_leaves, 0))),
        lambda: ledger.respond_dispute(cid, "alice", signed_receipt(pair, "hub", 1, 5)),
        lambda: ledger.advance_time(WINDOW),
        lambda: ledger.finalize_settlement(cid),
    ]
    assert_rebuilds_agree(ledger)
    for step in steps:
        step()
        assert_rebuilds_agree(ledger)
        if step is steps[-2]:
            assert ledger.read_state(cid)["finalizable"]
    view = ledger.read_state(cid)
    assert view["dispute"]["misbehaving"] == ["alice"]
    assert [c["basis_index"] for c in view["claimed"]] == [2, 2]
    assert {e["kind"] for e in view["events"]} == {
        "DEPLOYED", "DEPOSITED", "DISPUTE_OPENED", "CLAIMED", "RECEIPT_SUBMITTED", "CLOSED"}


def test_claim_rejected_for_its_proof_records_no_fresher_receipt():
    # alice opens the dispute with her receipt index 1; the hub claims with
    # a fresher alice receipt, index 2, whose root omits the promise
    ledger, pair = funded_ledger(mode=MODE_CONCURRENT)
    cid = pair.params.channel_id
    pre = b"\x25" * 32
    promise = signed_promise(pair, "alice", 1, 25, pre, expiry=100)
    other = signed_promise(pair, "alice", 2, 10, b"\x26" * 32, expiry=100)
    ledger.initiate_dispute(cid, "alice", signed_receipt(
        pair, "alice", 1, 0, merkle_root([promise.digest])))
    fresher = signed_receipt(pair, "alice", 2, 0, merkle_root([other.digest]))
    events = len(ledger.events)
    with pytest.raises(ProofRequired):
        ledger.claim_promise(cid, "hub", promise, pre,
                             (fresher, merkle_prove([other.digest], 0)))
    assert len(ledger.events) == events
    assert ledger.read_state(cid)["dispute"]["misbehaving"] == []


def test_snapshot_round_trip():
    ledger, pair = funded_ledger()
    ledger.initiate_dispute(pair.params.channel_id, "alice",
                            signed_receipt(pair, "hub", 2, 12))
    snap = ledger.snapshot_json()
    restored = Ledger.from_snapshot(json.loads(snap))
    assert restored.snapshot_json() == snap
    assert restored.state_digest() == ledger.state_digest()


def test_export_events_jsonl_is_replayable():
    import json as _json

    ledger, pair = funded_ledger()
    blob = ledger.export_events_jsonl()
    from hubpay.ledger import LedgerEvent
    events = [LedgerEvent.from_jsonable(_json.loads(line)) for line in blob.splitlines()]
    replayed = replay_events("L1", ledger.scheme, ledger.genesis_balances, events)
    replayed.now = ledger.now
    assert replayed.state_digest() == ledger.state_digest()
