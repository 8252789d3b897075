"""Deterministic single-writer mock ledger.

The ledger holds plain accounts, a logical tick clock, and contract
instances that understand exactly three things: signature verification,
hashlocks, and timelocks. The ledger is event-sourced: each mutating method
only validates its input and builds an event, and ``apply_event`` is the one
place that changes accounts and contracts. The hosted ledger, a wallet's
replica (``server.RemoteLedger``), ``replay_events`` and
``Ledger.from_snapshot`` all apply the same append-only event stream, so any
reader can audit a channel and any replay reaches bit-identical state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import codec, crypto
from .crypto import MerkleProof, hash_commit, merkle_verify
from .errors import (
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
from .messages import (MODE_SERIALIZED, ChannelParams, ClosingRecord, Promise, Receipt,
                       authentic_batch)
from .crypto import Signature

STATUS_OPEN = "OPEN"
STATUS_CLOSING = "CLOSING"
STATUS_CLOSED = "CLOSED"

EV_DEPLOYED = "DEPLOYED"
EV_DEPOSITED = "DEPOSITED"
EV_CLAIMED = "CLAIMED"
EV_DISPUTE_OPENED = "DISPUTE_OPENED"
EV_RECEIPT_SUBMITTED = "RECEIPT_SUBMITTED"
EV_CLOSED = "CLOSED"


@dataclass(frozen=True)
class LedgerEvent:
    seq: int
    at: int
    kind: str
    payload: dict

    def to_jsonable(self) -> dict:
        return {"seq": self.seq, "at": self.at, "kind": self.kind, "payload": self.payload}

    @classmethod
    def from_jsonable(cls, obj: dict) -> "LedgerEvent":
        return cls(int(obj["seq"]), int(obj["at"]), obj["kind"], obj["payload"])


@dataclass
class ClaimRecord:
    claimant: str
    sender: str
    amount: int
    promise_index: int
    hashlock: bytes
    promise_digest: bytes
    # Receipt index the inclusion proof was checked against; None when the
    # claim was accepted with no receipt on record for its direction.
    basis_index: int | None

    def to_jsonable(self) -> dict:
        return {
            "claimant": self.claimant,
            "sender": self.sender,
            "amount": self.amount,
            "promise_index": self.promise_index,
            "hashlock": self.hashlock.hex(),
            "promise_digest": self.promise_digest.hex(),
            "basis_index": self.basis_index,
        }


@dataclass
class DisputeRecord:
    opened_at: int
    opened_by: str
    # direction key = receipt issuer; value = (receipt, submitter)
    receipts: dict[str, tuple[Receipt, str]] = field(default_factory=dict)
    misbehaving: set[str] = field(default_factory=set)


@dataclass
class ContractInstance:
    params: ChannelParams
    deposits: dict[str, int]
    claimed: dict[bytes, ClaimRecord] = field(default_factory=dict)
    dispute: DisputeRecord | None = None
    status: str = STATUS_OPEN
    settlement: dict[str, int] | None = None

    def parties(self) -> tuple[str, str]:
        return self.params.client_id, self.params.hub_id

    def window_passed(self, now: int) -> bool:
        """True once a dispute is open and its window has elapsed at ``now``."""
        return (self.dispute is not None
                and now >= self.dispute.opened_at + self.params.dispute_window)

    def public_view(self, now: int) -> dict:
        """On-ledger state only; carries no per-payment off-chain amounts."""
        return {
            "channel_id": self.params.channel_id,
            "params": self.params.to_jsonable(),
            "deposits": dict(self.deposits),
            "claimed": [c.to_jsonable() for c in self.claimed.values()],
            "dispute": None if self.dispute is None else {
                "opened_at": self.dispute.opened_at,
                "opened_by": self.dispute.opened_by,
                "receipts": {k: {"receipt": r.to_jsonable(), "submitter": s}
                             for k, (r, s) in sorted(self.dispute.receipts.items())},
                "misbehaving": sorted(self.dispute.misbehaving),
            },
            "status": self.status,
            "settlement": dict(self.settlement) if self.settlement else None,
            "finalizable": self.status == STATUS_CLOSING and self.window_passed(now),
        }


class Ledger:
    """One mock ledger: accounts, a tick clock, contracts, and an event log."""

    def __init__(self, ledger_id: str, scheme: str, genesis_balances: dict[str, int]):
        self.ledger_id = ledger_id
        self.scheme = scheme
        self.genesis_balances = dict(genesis_balances)
        self.accounts: dict[str, int] = dict(genesis_balances)
        self.contracts: dict[str, ContractInstance] = {}
        self.events: list[LedgerEvent] = []
        self.now = 0

    # -- plumbing -------------------------------------------------------------

    def _emit(self, kind: str, payload: dict) -> LedgerEvent:
        event = LedgerEvent(seq=len(self.events), at=self.now, kind=kind, payload=payload)
        apply_event(self, event)
        return event

    def _contract(self, channel_id: str) -> ContractInstance:
        contract = self.contracts.get(channel_id)
        if contract is None:
            raise NotFound(f"channel {channel_id}")
        return contract

    def balance(self, account: str) -> int:
        return self.accounts.get(account, 0)

    def total_value(self) -> int:
        """Account funds plus funds locked in unsettled contracts."""
        locked = sum(sum(c.deposits.values()) for c in self.contracts.values()
                     if c.status != STATUS_CLOSED)
        return sum(self.accounts.values()) + locked

    # -- lifecycle ------------------------------------------------------------

    def deploy_contract(self, params: ChannelParams, deployer: str) -> str:
        if params.channel_id in self.contracts:
            raise AlreadyExists(params.channel_id)
        if deployer != params.hub_id:
            raise BadSignature("contracts are deployed by the hub account")
        if params.ledger_id != self.ledger_id or params.scheme != self.scheme:
            raise BadStatus("params bound to a different ledger")
        self._emit(EV_DEPLOYED, {"channel_id": params.channel_id,
                                 "params": params.to_jsonable(),
                                 "deployer": deployer})
        return params.channel_id

    def deposit(self, channel_id: str, party: str, amount: int) -> ContractInstance:
        contract = self._contract(channel_id)
        if contract.status != STATUS_OPEN:
            raise BadStatus(contract.status)
        if party not in contract.deposits:
            raise NotFound(f"{party} is not a channel member")
        if amount <= 0:
            raise InvalidAmount(str(amount))
        if self.accounts.get(party, 0) < amount:
            raise InsufficientFunds(f"{party} holds {self.accounts.get(party, 0)} < {amount}")
        self._emit(EV_DEPOSITED, {"channel_id": channel_id, "party": party, "amount": amount})
        return contract

    # -- claims ----------------------------------------------------------------

    def _recorded_receipt(self, contract: ContractInstance, direction: str) -> Receipt | None:
        if contract.dispute is None:
            return None
        entry = contract.dispute.receipts.get(direction)
        return entry[0] if entry else None

    def _check_receipt(self, contract: ContractInstance, receipt: Receipt) -> None:
        params = contract.params
        if receipt.channel_id != params.channel_id:
            raise BadSignature("receipt bound to another channel")
        if receipt.issuer not in contract.deposits:
            raise BadSignature("receipt issuer is not a channel member")
        if receipt.issuer_sig is None or not crypto.verify(
                params.party_pk(receipt.issuer), receipt.signing_bytes, receipt.issuer_sig):
            raise BadSignature("receipt signature invalid")

    def claim_promise(self, channel_id: str, claimant: str, promise: Promise,
                      preimage: bytes,
                      proof: tuple[Receipt, MerkleProof] | None = None) -> ContractInstance:
        contract = self._contract(channel_id)
        params = contract.params
        if contract.status == STATUS_CLOSED:
            raise BadStatus(contract.status)
        if contract.window_passed(self.now):
            raise BadStatus("dispute window elapsed")
        if promise.channel_id != channel_id or promise.sender not in contract.deposits:
            raise BadSignature("promise bound to another channel")
        if claimant != params.other_party(promise.sender):
            raise BadSignature("only the counterparty may claim a promise")
        if self.now >= promise.expiry:
            raise Expired(f"expiry {promise.expiry}, now {self.now}")
        if authentic_batch(params.party_pk(promise.sender), promise) is None:
            raise BadSignature("promise signature invalid")
        if hash_commit(preimage) != promise.hashlock:
            raise BadPreimage(promise.hashlock.hex())
        if promise.hashlock in contract.claimed:
            raise AlreadyClaimed(promise.hashlock.hex())

        recorded = self._recorded_receipt(contract, promise.sender)
        basis_index: int | None = None
        if recorded is not None:
            if params.mode == MODE_SERIALIZED:
                if promise.index <= recorded.index:
                    raise AlreadyClaimed(
                        f"promise {promise.index} covered by receipt {recorded.index}")
                basis_index = recorded.index
            else:
                if proof is None:
                    raise ProofRequired("a receipt is on record for this direction")
                receipt, mproof = proof
                # a fresher receipt may ride in with the claim; it is
                # recorded only once the whole claim is valid
                fresher = receipt.signing_bytes != recorded.signing_bytes
                if fresher:
                    self._check_receipt(contract, receipt)
                    if receipt.issuer != promise.sender or receipt.index <= recorded.index:
                        raise ProofRequired("proof receipt does not match the record")
                if not merkle_verify(receipt.pending_root, promise.digest, mproof):
                    raise ProofRequired("promise not in the receipt's pending set")
                if fresher:
                    self._record_receipt(contract, claimant, receipt)
                basis_index = receipt.index
        self._emit(EV_CLAIMED, {
            "channel_id": channel_id,
            "claimant": claimant,
            "sender": promise.sender,
            "amount": promise.amount,
            "promise_index": promise.index,
            "hashlock": promise.hashlock.hex(),
            "promise_digest": promise.digest.hex(),
            "preimage": preimage.hex(),
            "expiry": promise.expiry,
            "basis_index": basis_index,
        })
        return contract

    def refresh_claim_proof(self, channel_id: str, claimant: str, hashlock: bytes,
                            proof: tuple[Receipt, MerkleProof]) -> ContractInstance:
        """Re-prove a recorded claim against a newer submitted receipt.

        Needed in CONCURRENT mode when a counterparty submits a fresher
        receipt after the claim landed; an unproven claim is treated as
        covered at settlement.
        """
        contract = self._contract(channel_id)
        if contract.status != STATUS_CLOSING or contract.dispute is None:
            raise BadStatus(contract.status)
        if contract.window_passed(self.now):
            raise WindowClosed(str(self.now))
        record = contract.claimed.get(hashlock)
        if record is None or record.claimant != claimant:
            raise NotFound(hashlock.hex())
        recorded = self._recorded_receipt(contract, record.sender)
        if recorded is None:
            raise NotFound("no receipt on record for this direction")
        receipt, mproof = proof
        if receipt.signing_bytes != recorded.signing_bytes:
            raise ProofRequired("proof must target the recorded receipt")
        if not merkle_verify(recorded.pending_root, record.promise_digest, mproof):
            raise ProofRequired("invalid inclusion proof")
        self._emit(EV_CLAIMED, {
            "channel_id": channel_id,
            "claimant": claimant,
            "hashlock": hashlock.hex(),
            "refresh": True,
            "basis_index": recorded.index,
        })
        return contract

    # -- closing ----------------------------------------------------------------

    def cooperative_close(self, channel_id: str, record: ClosingRecord,
                          signatures: dict[str, Signature]) -> dict[str, int]:
        contract = self._contract(channel_id)
        params = contract.params
        if contract.status != STATUS_OPEN:
            raise BadStatus(contract.status)
        if record.channel_id != channel_id:
            raise BadSignature("closing record bound to another channel")
        balances = record.balance_map
        if set(balances) != set(contract.deposits):
            raise BadSignature("closing record must name both parties")
        for party in contract.deposits:
            sig = signatures.get(party)
            if sig is None or not crypto.verify(params.party_pk(party),
                                                record.signing_bytes, sig):
                raise BadSignature(f"missing or invalid signature from {party}")
        if sum(balances.values()) != sum(contract.deposits.values()):
            raise ConservationViolation(
                f"payouts {sum(balances.values())} != deposits {sum(contract.deposits.values())}")
        if any(v < 0 for v in balances.values()):
            raise ConservationViolation("negative payout")
        self._emit(EV_CLOSED, {"channel_id": channel_id, "cooperative": True,
                               "settlement": dict(sorted(balances.items())),
                               "penalties": {}})
        return dict(balances)

    def initiate_dispute(self, channel_id: str, party: str,
                         receipt: Receipt | None = None) -> ContractInstance:
        contract = self._contract(channel_id)
        if contract.status != STATUS_OPEN:
            raise BadStatus(contract.status)
        if party not in contract.deposits:
            raise NotFound(f"{party} is not a channel member")
        if receipt is not None:
            self._check_receipt(contract, receipt)
        self._emit(EV_DISPUTE_OPENED, {
            "channel_id": channel_id,
            "party": party,
            "receipt": receipt.to_jsonable() if receipt else None,
        })
        return contract

    def _record_receipt(self, contract: ContractInstance, party: str,
                        receipt: Receipt) -> None:
        old_receipt = self._recorded_receipt(contract, receipt.issuer)
        if old_receipt is not None and receipt.index <= old_receipt.index:
            raise StaleReceipt(f"index {receipt.index} <= recorded {old_receipt.index}")
        self._emit(EV_RECEIPT_SUBMITTED, {
            "channel_id": contract.params.channel_id,
            "party": party,
            "receipt": receipt.to_jsonable(),
        })

    def respond_dispute(self, channel_id: str, party: str, receipt: Receipt) -> ContractInstance:
        contract = self._contract(channel_id)
        if contract.status != STATUS_CLOSING or contract.dispute is None:
            raise BadStatus(contract.status)
        if party not in contract.deposits:
            raise NotFound(f"{party} is not a channel member")
        if contract.window_passed(self.now):
            raise WindowClosed(str(self.now))
        self._check_receipt(contract, receipt)
        self._record_receipt(contract, party, receipt)
        return contract

    def _claim_counted(self, contract: ContractInstance, record: ClaimRecord) -> bool:
        """A claim pays out unless the finally-recorded receipt for its
        direction already covers the same amount."""
        recorded = self._recorded_receipt(contract, record.sender)
        if recorded is None:
            return True
        if contract.params.mode == MODE_SERIALIZED:
            return record.promise_index > recorded.index
        return record.basis_index == recorded.index

    def finalize_settlement(self, channel_id: str) -> dict[str, int]:
        contract = self._contract(channel_id)
        params = contract.params
        if contract.status != STATUS_CLOSING or contract.dispute is None:
            raise BadStatus(contract.status)
        if not contract.window_passed(self.now):
            raise WindowOpen(str(self.now))
        client, hub = contract.parties()
        total = sum(contract.deposits.values())

        def credit_for(party: str) -> int:
            other = params.other_party(party)
            recorded = self._recorded_receipt(contract, other)
            return recorded.cumulative_credit if recorded else 0

        claims = {client: 0, hub: 0}
        for record in contract.claimed.values():
            if self._claim_counted(contract, record):
                claims[record.claimant] += record.amount

        raw_client = (contract.deposits[client] + credit_for(client) - credit_for(hub)
                      + claims[client] - claims[hub])
        raw_client = max(0, min(total, raw_client))
        balances = {client: raw_client, hub: total - raw_client}

        penalties: dict[str, int] = {}
        for party in sorted(contract.dispute.misbehaving):
            other = params.other_party(party)
            pen = balances[party] * params.penalty_bps // 10000
            balances[party] -= pen
            balances[other] += pen
            penalties[party] = pen

        self._emit(EV_CLOSED, {"channel_id": channel_id, "cooperative": False,
                               "settlement": dict(sorted(balances.items())),
                               "penalties": penalties})
        return dict(balances)

    # -- time and reads ----------------------------------------------------------

    def advance_time(self, ticks: int) -> list[LedgerEvent]:
        if ticks < 1:
            raise InvalidAmount(f"ticks must be >= 1, got {ticks}")
        self.now += ticks
        return []

    def read_state(self, channel_id: str) -> dict:
        contract = self._contract(channel_id)
        view = contract.public_view(self.now)
        view["events"] = [e.to_jsonable() for e in self.events
                          if e.payload.get("channel_id") == channel_id]
        view["now"] = self.now
        return view

    def events_since(self, seq: int) -> list[LedgerEvent]:
        return self.events[seq:]

    # -- export / snapshot / replay ------------------------------------------------

    def export_events_jsonl(self) -> str:
        return "\n".join(
            codec.canonical_json(e.to_jsonable()).decode("ascii") for e in self.events)

    def snapshot(self) -> dict:
        return {
            "ledger_id": self.ledger_id,
            "scheme": self.scheme,
            "genesis_balances": dict(sorted(self.genesis_balances.items())),
            "now": self.now,
            "accounts": dict(sorted(self.accounts.items())),
            "events": [e.to_jsonable() for e in self.events],
        }

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Ledger":
        ledger = replay_events(snap["ledger_id"], snap["scheme"], snap["genesis_balances"],
                               [LedgerEvent.from_jsonable(e) for e in snap["events"]])
        ledger.now = int(snap["now"])
        return ledger

    def full_state(self) -> dict:
        """Accounts plus derived contract state, for determinism checks."""
        return {
            "now": self.now,
            "accounts": dict(sorted(self.accounts.items())),
            "contracts": {cid: c.public_view(self.now)
                          for cid, c in sorted(self.contracts.items())},
            "n_events": len(self.events),
        }

    def state_digest(self) -> bytes:
        """Digest of the full ledger state, for replay-determinism checks."""
        return crypto.sha256(codec.canonical_json(self.full_state()))


def apply_event(ledger: Ledger, event: LedgerEvent) -> None:
    """Apply one event's effect to ledger state and append it to the log.

    The only code that changes accounts or contracts. The ``Ledger`` methods
    validate before they emit; a replay applies a log that a ledger already
    validated, so nothing is checked again here."""
    ledger.now = max(ledger.now, event.at)
    payload = event.payload
    contract = ledger.contracts.get(payload["channel_id"])
    if event.kind == EV_DEPLOYED:
        params = ChannelParams.from_jsonable(payload["params"])
        ledger.contracts[params.channel_id] = ContractInstance(
            params=params, deposits={params.client_id: 0, params.hub_id: 0})
    elif event.kind == EV_DEPOSITED:
        party, amount = payload["party"], int(payload["amount"])
        ledger.accounts[party] = ledger.accounts.get(party, 0) - amount
        contract.deposits[party] += amount
    elif event.kind == EV_CLAIMED:
        hashlock = bytes.fromhex(payload["hashlock"])
        if payload.get("refresh"):
            contract.claimed[hashlock].basis_index = payload["basis_index"]
        else:
            contract.claimed[hashlock] = ClaimRecord(
                claimant=payload["claimant"],
                sender=payload["sender"],
                amount=int(payload["amount"]),
                promise_index=int(payload["promise_index"]),
                hashlock=hashlock,
                promise_digest=bytes.fromhex(payload["promise_digest"]),
                basis_index=payload["basis_index"],
            )
    elif event.kind == EV_DISPUTE_OPENED:
        contract.status = STATUS_CLOSING
        contract.dispute = DisputeRecord(opened_at=event.at, opened_by=payload["party"])
        if payload.get("receipt"):
            receipt = Receipt.from_jsonable(payload["receipt"])
            contract.dispute.receipts[receipt.issuer] = (receipt, payload["party"])
    elif event.kind == EV_RECEIPT_SUBMITTED:
        receipt = Receipt.from_jsonable(payload["receipt"])
        dispute = contract.dispute
        existing = dispute.receipts.get(receipt.issuer)
        if existing is not None:
            # A party that submitted its own stale issuance and is overridden
            # by the counterparty is provably misbehaving.
            old_receipt, old_submitter = existing
            if old_submitter != payload["party"] and old_receipt.issuer == old_submitter:
                dispute.misbehaving.add(old_submitter)
        dispute.receipts[receipt.issuer] = (receipt, payload["party"])
    elif event.kind == EV_CLOSED:
        contract.status = STATUS_CLOSED
        contract.settlement = {k: int(v) for k, v in payload["settlement"].items()}
        for party, amount in contract.settlement.items():
            ledger.accounts[party] = ledger.accounts.get(party, 0) + amount
    ledger.events.append(event)


def replay_events(ledger_id: str, scheme: str, genesis: dict[str, int],
                  events: list[LedgerEvent]) -> Ledger:
    """Rebuild ledger state by applying event effects from genesis."""
    ledger = Ledger(ledger_id, scheme, {k: int(v) for k, v in genesis.items()})
    for event in events:
        apply_event(ledger, event)
    return ledger
