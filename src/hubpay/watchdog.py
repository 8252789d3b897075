"""On-chain watchdog: one party's reactions to the ledger for one channel.

The hub runs it for each of its channels and the wallet for its one channel,
both as ``(ledger, state, party_id)``: book deposits, claims, disputes and
closes into the channel state, answer a dispute with the best receipt held,
re-prove this party's claims against a newer receipt, and finalize once the
dispute window has passed. It also holds the one rule for an incoming
promise whose secret this party revealed and no receipt covers yet
(``tend_revealed``): send the secret again, or claim the promise on-chain.
``note`` is the caller's trace hook; only the finalize note names the
channel, so a caller with many channels binds the channel id into the hook
it passes for the rest.
"""

from __future__ import annotations

from typing import Callable

from .channel import ChannelState
from .crypto import merkle_prove
from .errors import HubpayError
from .ledger import (
    EV_CLAIMED,
    EV_CLOSED,
    EV_DEPOSITED,
    EV_DISPUTE_OPENED,
    EV_RECEIPT_SUBMITTED,
    STATUS_CLOSING,
    Ledger,
    LedgerEvent,
)
from .messages import MODE_CONCURRENT, SecretMessage

Note = Callable[..., None]


def book_event(state: ChannelState, party_id: str, event: LedgerEvent) -> bytes | None:
    """Book a deposit, a claim, a dispute or a close on this channel into
    ``state``; returns the hashlock of a claim it booked. Once the channel
    is closed, no revealed promise can be receipted or claimed any more."""
    payload = event.payload
    if event.kind == EV_DEPOSITED:
        if payload["party"] == party_id:
            state.my_deposit += payload["amount"]
        else:
            state.peer_deposit += payload["amount"]
    elif event.kind == EV_CLAIMED and not payload.get("refresh"):
        hashlock = bytes.fromhex(payload["hashlock"])
        if payload["claimant"] == party_id:
            state.note_self_claimed(hashlock, payload["amount"])
        else:
            state.note_peer_claimed(hashlock, payload["amount"])
        return hashlock
    elif event.kind == EV_DISPUTE_OPENED:
        state.disputed = True
    elif event.kind == EV_CLOSED:
        state.revealed_unreceipted.clear()
    return None


def answer_event(ledger: Ledger, state: ChannelState, party_id: str, event: LedgerEvent,
                 note: Note) -> None:
    """Answer a dispute, or the peer's receipt submitted in one."""
    if event.kind == EV_DISPUTE_OPENED:
        respond_with_best_receipt(ledger, state, party_id, note)
    elif event.kind == EV_RECEIPT_SUBMITTED and event.payload["party"] != party_id:
        respond_with_best_receipt(ledger, state, party_id, note)
        refresh_claims(ledger, state, party_id, note)


def respond_with_best_receipt(ledger: Ledger, state: ChannelState, party_id: str,
                              note: Note) -> None:
    """Submit the peer's latest receipt unless the dispute already holds it
    or a newer one."""
    contract = ledger.contracts.get(state.params.channel_id)
    if contract is None or contract.status != STATUS_CLOSING or contract.dispute is None:
        return
    mine = state.last_receipt_received
    if mine is None:
        return
    recorded = contract.dispute.receipts.get(mine.issuer)
    if recorded is not None and recorded[0].index >= mine.index:
        return
    try:
        ledger.respond_dispute(state.params.channel_id, party_id, mine)
        note("dispute_response", index=mine.index)
    except HubpayError as exc:
        note("dispute_response_failed", code=exc.code)


def refresh_claims(ledger: Ledger, state: ChannelState, party_id: str, note: Note) -> None:
    """Re-prove each of this party's CONCURRENT claims against the receipt
    the dispute now holds for its sender, when that receipt is the one held
    here and still commits to the claimed promise."""
    if state.params.mode != MODE_CONCURRENT:
        return
    contract = ledger.contracts.get(state.params.channel_id)
    if contract is None or contract.dispute is None:
        return
    for hashlock, record in contract.claimed.items():
        if record.claimant != party_id:
            continue
        recorded = contract.dispute.receipts.get(record.sender)
        if recorded is None or record.basis_index == recorded[0].index:
            continue
        held = state.last_receipt_received
        if held is None or held.signing_bytes != recorded[0].signing_bytes:
            continue
        try:
            idx = state.last_receipt_leaves.index(record.promise_digest)
        except ValueError:
            continue
        proof = merkle_prove(state.last_receipt_leaves, idx)
        try:
            ledger.refresh_claim_proof(state.params.channel_id, party_id,
                                       hashlock, (held, proof))
            note("claim_reproved")
        except HubpayError as exc:
            note("claim_reprove_failed", code=exc.code)


def finalize_when_due(ledger: Ledger, state: ChannelState, now: int, note: Note) -> bool:
    """Submit the settlement of a disputed channel once its window has
    passed. Returns True when it submitted, so the caller submits once."""
    channel_id = state.params.channel_id
    contract = ledger.contracts.get(channel_id)
    if (contract is None or contract.status != STATUS_CLOSING
            or not contract.window_passed(now)):
        return False
    try:
        ledger.finalize_settlement(channel_id)
        note("finalized", channel=channel_id)
    except HubpayError as exc:
        note("finalize_failed", channel=channel_id, code=exc.code)
    return True


def tend_revealed(ledger: Ledger | None, state: ChannelState, party_id: str, now: int, *,
                  margin: int, closing: bool, resend_every: int | None,
                  payment_of: Callable[[bytes], str | None],
                  note: Note) -> list[SecretMessage]:
    """The rule for each incoming promise whose secret this party revealed
    and no receipt covers yet, run once per tick. Claim it on-chain, once
    (a refused claim is not tried again), when the channel is closing (a
    dispute is booked, or ``closing``) or ``expiry - now <= margin``.
    Otherwise send the secret again, so the payer answers with its latest
    receipt: every ``resend_every`` ticks (None: never), and once as the
    promise comes within ``2 * margin`` of expiry. Returns the secrets to
    send. ``ledger`` None books claims without submitting them (journal
    replay); ``payment_of`` names a promise's payment in the notes."""
    claims: list[bytes] = []
    resends: list[bytes] = []
    for hashlock, sent_at in state.revealed_unreceipted.items():
        expiry = state.pending_in[hashlock].expiry
        if sent_at is None or now >= expiry:
            continue
        if closing or state.disputed or expiry - now <= margin:
            claims.append(hashlock)
        elif ((resend_every is not None and now - sent_at >= resend_every)
              or sent_at < expiry - 2 * margin <= now):
            resends.append(hashlock)
    for hashlock in claims:
        state.revealed_unreceipted[hashlock] = None
        if ledger is None:
            continue
        promise = state.pending_in[hashlock]
        # the claim carries an inclusion proof once the dispute holds a
        # receipt from the promise's sender
        contract = ledger.contracts.get(state.params.channel_id)
        proof = (state.inclusion_proof(hashlock) if contract is not None
                 and contract.dispute is not None
                 and contract.dispute.receipts.get(promise.sender) else None)
        try:
            ledger.claim_promise(state.params.channel_id, party_id, promise,
                                 state.secrets[hashlock], proof)
            note("claimed_onchain", payment=payment_of(hashlock))
        except HubpayError as exc:
            note("claim_failed", payment=payment_of(hashlock), code=exc.code)
    return [state.reveal_secret(hashlock, now) for hashlock in resends]
