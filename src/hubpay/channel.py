"""Per-party channel state machine for off-chain conditional payments.

Each party keeps one ChannelState per channel: its deposits, cumulative
credits, unresolved promises in both directions, and the receipts that prove
those credits. All transitions are synchronous functions of the state; the
caller owns serialization across channels.

Direction conventions. "Outgoing" promises are signed by this state's owner;
the owner also issues the receipts that resolve them once it receives the
matching secret (credit_sent grows). "Incoming" promises are the peer's;
they resolve for the owner when the peer's receipt arrives (credit_received
grows) or when the owner claims them on a ledger.

SERIALIZED mode keeps one payment in flight per direction with lockstep
promise/receipt indices. CONCURRENT mode allows many, protected by the
pending-promise Merkle root carried in every receipt.

A sender books a promise unsigned and seals it later, with every other
unsealed promise of the direction, under one signature over the batch's
Merkle root (``seal_pending``); each promise on the wire carries its audit
path. The sender's books keep no paths; the receiver keeps each incoming
promise with its path, which an on-chain claim needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from . import codec, crypto
from .crypto import (MerkleProof, PrivateKey, hash_commit, merkle_paths, merkle_prove,
                     merkle_root_of_leaf_hashes, new_preimage)
from .errors import (
    REJECT_BAD_PENDING_ROOT,
    REJECT_BAD_SIGNATURE,
    REJECT_CREDIT_MISMATCH,
    REJECT_DUPLICATE_HASHLOCK,
    REJECT_EXPIRY_TOO_SOON,
    REJECT_INSUFFICIENT_CAPACITY,
    REJECT_STALE_INDEX,
    BadPreimage,
    ChannelBusy,
    Expired,
    ExpiredProposal,
    InsufficientCapacity,
    InvalidAmount,
    UnknownPromise,
)
from .messages import (
    MODE_SERIALIZED,
    ChannelParams,
    PaymentProposal,
    Promise,
    PromiseBatch,
    Receipt,
    SecretMessage,
    authentic_batch,
)


def close_balances(state: "ChannelState") -> dict[str, int]:
    """Final balances a party proposes when closing cooperatively: deposits
    adjusted by net receipted credit and by on-chain claims either way.
    Mirrored honest books produce the identical record on both sides."""
    total = state.my_deposit + state.peer_deposit
    mine = (state.my_deposit + state.credit_received - state.credit_sent
            + sum(state.claimed_in.values()) - sum(state.claimed_out.values()))
    mine = max(0, min(total, mine))
    return {state.owner: mine, state.params.other_party(state.owner): total - mine}


def seal_promises(batch: list[Promise], sk: PrivateKey, signer=crypto) -> list[Promise]:
    """Sign ``batch`` with one signature over the Merkle root of its leaf
    hashes; each returned promise carries its audit path to that root, and
    a batch of one carries none. ``signer`` makes the signature (see
    ``ChannelState.signer``)."""
    if len(batch) == 1:
        [promise] = batch
        return [promise.with_sig(signer.sign(sk, codec.TAG_PROMISE_BATCH + promise.leaf_hash))]
    leaves = [p.leaf_hash for p in batch]
    sig = signer.sign(sk, codec.TAG_PROMISE_BATCH + merkle_root_of_leaf_hashes(leaves))
    return [p.with_sig(sig, path) for p, path in zip(batch, merkle_paths(leaves))]


class PendingPromises(dict):
    """One direction's unresolved promises by hashlock, with the running sum
    of their amounts in ``total``, so a capacity check costs O(1) however
    many promises are pending. The sum is derived and never persisted.
    Change the map only by item assignment, ``del`` and ``pop``."""

    __slots__ = ("total",)

    def __init__(self):
        super().__init__()
        self.total = 0

    def __setitem__(self, hashlock: bytes, promise: Promise) -> None:
        old = self.get(hashlock)
        self.total += promise.amount - (old.amount if old is not None else 0)
        super().__setitem__(hashlock, promise)

    def __delitem__(self, hashlock: bytes) -> None:
        self.total -= self[hashlock].amount
        super().__delitem__(hashlock)

    def pop(self, hashlock: bytes, *default):
        if hashlock not in self:
            return super().pop(hashlock, *default)
        promise = super().pop(hashlock)
        self.total -= promise.amount
        return promise


@dataclass
class ChannelState:
    params: ChannelParams
    owner: str
    my_deposit: int = 0
    peer_deposit: int = 0
    credit_sent: int = 0
    credit_received: int = 0
    pending_out: PendingPromises = field(default_factory=PendingPromises)
    pending_in: PendingPromises = field(default_factory=PendingPromises)
    last_receipt_sent: Receipt | None = None
    last_receipt_received: Receipt | None = None
    # Leaf set committed by last_receipt_received.pending_root, kept so the
    # owner can later build on-chain inclusion proofs against that receipt.
    last_receipt_leaves: list[bytes] = field(default_factory=list)
    secrets: dict[bytes, bytes] = field(default_factory=dict)
    # Hashlocks of incoming promises whose secret the owner revealed and for
    # which no receipt has arrived yet, in reveal order: an insertion-ordered
    # dict, so adding and removing one costs O(1). Each maps to the tick the
    # secret was last sent, or to None once the owner submitted a claim on
    # the promise (see ``watchdog.tend_revealed``).
    revealed_unreceipted: dict[bytes, int | None] = field(default_factory=dict)
    next_out_index: int = 1
    next_receipt_index: int = 1
    highest_in_index: int = 0
    claimed_out: dict[bytes, int] = field(default_factory=dict)
    claimed_in: dict[bytes, int] = field(default_factory=dict)
    resolved_out: set[bytes] = field(default_factory=set)
    resolved_in: set[bytes] = field(default_factory=set)
    out_frozen: bool = False
    in_frozen: bool = False
    # a dispute was opened on the channel's contract (booked from its events)
    disputed: bool = False
    # the last incoming batch whose signature verified; not persisted, so a
    # restarted party verifies each batch once more
    verified_batch: PromiseBatch | None = field(default=None, repr=False, compare=False)
    # Where the state's signatures and signature checks go: anything with
    # the ``sign(sk, message)`` and ``verify(pk, message, sig)`` of the
    # crypto module, which is the default. The hub passes its journal's
    # recorder (``hub.StepCrypto``). Not persisted.
    signer: object = field(default=crypto, repr=False, compare=False)

    # -- accounting ---------------------------------------------------------

    @property
    def peer(self) -> str:
        return self.params.other_party(self.owner)

    def available_balance(self) -> int:
        """Spendable units: deposit plus net credit minus everything in flight.

        On-chain claims against the owner's promises are deducted as well,
        since those amounts are already owed at settlement.
        """
        claimed = sum(self.claimed_out.values())
        return (self.my_deposit + self.credit_received - self.credit_sent
                - self.pending_out.total - claimed)

    def peer_spendable(self) -> int:
        """The counterparty's capacity as tracked from this side's books."""
        claimed = sum(self.claimed_in.values())
        return (self.peer_deposit + self.credit_sent - self.credit_received
                - self.pending_in.total - claimed)

    # The pending maps stay index-ordered by construction: promise indices
    # only ever increase on a live direction (verify_promise enforces this on
    # arrival), the single SERIALIZED slot is trivially ordered, and removal
    # never reorders an insertion-ordered dict.

    def pending_in_leaves(self, exclude: set[bytes] | None = None) -> list[bytes]:
        if not exclude:
            return [p.digest for p in self.pending_in.values()]
        return [p.digest for h, p in self.pending_in.items() if h not in exclude]

    def _pending_out_root(self) -> bytes:
        return merkle_root_of_leaf_hashes(
            [p.leaf_hash for p in self.pending_out.values()])

    def _pending_in_root(self, exclude: set[bytes]) -> bytes:
        return merkle_root_of_leaf_hashes(
            [p.leaf_hash for h, p in self.pending_in.items() if h not in exclude])

    # -- payee side: proposals and secrets ----------------------------------

    def make_proposal(self, proposal_id: str, amount: int, expiry: int, now: int,
                      rng: Random) -> tuple[PaymentProposal, bytes]:
        if amount <= 0:
            raise InvalidAmount(f"amount {amount}")
        if expiry <= now:
            raise ExpiredProposal(f"expiry {expiry} <= now {now}")
        preimage = new_preimage(rng)
        hashlock = hash_commit(preimage)
        self.secrets[hashlock] = preimage
        proposal = PaymentProposal(proposal_id, amount, hashlock, expiry, self.owner)
        return proposal, preimage

    def reveal_secret(self, hashlock: bytes, now: int = 0) -> SecretMessage:
        """The secret of an incoming promise, booked as sent at ``now``. A
        second reveal keeps the first one's place, and a claim's mark."""
        if hashlock not in self.pending_in:
            raise UnknownPromise(hashlock.hex())
        preimage = self.secrets[hashlock]
        if self.revealed_unreceipted.get(hashlock, now) is not None:
            self.revealed_unreceipted[hashlock] = now
        return SecretMessage(self.params.channel_id, hashlock, preimage)

    # -- payer side: promises ------------------------------------------------

    def make_promise(self, proposal: PaymentProposal, sk: PrivateKey, now: int) -> Promise:
        """Sender-side: promise the proposal's amount against its hashlock,
        sealed at once as a batch of one."""
        promise = self.promise_raw(proposal.amount, proposal.hashlock, proposal.expiry, now)
        return self._seal([promise], sk)[0]

    def promise_raw(self, amount: int, hashlock: bytes, expiry: int, now: int) -> Promise:
        """Book an unsealed promise; ``seal_pending`` signs it with its batch."""
        if amount <= 0:
            raise InvalidAmount(f"amount {amount}")
        if expiry <= now:
            raise ExpiredProposal(f"expiry {expiry} <= now {now}")
        if self.out_frozen:
            raise ChannelBusy("direction closed by an on-chain claim")
        if self.params.mode == MODE_SERIALIZED and self.pending_out:
            raise ChannelBusy("serialized channel already has an unresolved promise")
        if amount > self.available_balance():
            raise InsufficientCapacity(f"amount {amount} > available {self.available_balance()}")
        if (hashlock in self.pending_out or hashlock in self.claimed_out
                or hashlock in self.resolved_out):
            raise InvalidAmount("hashlock already used on this direction")
        promise = Promise(
            channel_id=self.params.channel_id,
            sender=self.owner,
            index=self.next_out_index,
            amount=amount,
            hashlock=hashlock,
            expiry=expiry,
        )
        self.pending_out[promise.hashlock] = promise
        self.next_out_index += 1
        return promise

    def holds_unsealed(self) -> bool:
        """True while a booked outgoing promise awaits ``seal_pending``. A
        batch is sealed whole and indices only grow, so the newest promise
        is unsealed whenever any is."""
        return (bool(self.pending_out)
                and next(reversed(self.pending_out.values())).sender_sig is None)

    def seal_pending(self, sk: PrivateKey) -> list[Promise]:
        """Seal every unsealed outgoing promise as one batch, in index
        order; returns them as they go on the wire, with their paths."""
        return self._seal([p for p in self.pending_out.values() if p.sender_sig is None], sk)

    def _seal(self, batch: list[Promise], sk: PrivateKey) -> list[Promise]:
        if not batch:
            return []
        sealed = seal_promises(batch, sk, self.signer)
        for promise in sealed:
            # the books keep the signature but not the path
            self.pending_out[promise.hashlock] = (
                promise if promise.path is None else promise.with_sig(promise.sender_sig))
        return sealed

    def verify_promise(self, p: Promise, now: int, min_margin: int = 0) -> str | None:
        """None when acceptable, otherwise a reject reason string."""
        if p.channel_id != self.params.channel_id or p.sender != self.peer:
            return REJECT_BAD_SIGNATURE
        batch = authentic_batch(self.params.party_pk(p.sender), p, self.verified_batch,
                                self.signer)
        if batch is None:
            return REJECT_BAD_SIGNATURE
        self.verified_batch = batch
        if p.expiry <= now + min_margin:
            return REJECT_EXPIRY_TOO_SOON
        if self.in_frozen:
            return REJECT_STALE_INDEX
        if p.amount <= 0 or p.amount > self.peer_spendable():
            return REJECT_INSUFFICIENT_CAPACITY
        if self.params.mode == MODE_SERIALIZED:
            expected = (self.last_receipt_received.index + 1
                        if self.last_receipt_received else 1)
            if self.pending_in or p.index != expected:
                return REJECT_STALE_INDEX
        else:
            if p.index <= self.highest_in_index:
                return REJECT_STALE_INDEX
        if (p.hashlock in self.pending_in or p.hashlock in self.claimed_in
                or p.hashlock in self.resolved_in):
            return REJECT_DUPLICATE_HASHLOCK
        return None

    def accept_promise(self, p: Promise) -> None:
        self.pending_in[p.hashlock] = p
        if p.index > self.highest_in_index:
            self.highest_in_index = p.index

    # -- secret acceptance and receipts --------------------------------------

    def accept_secret(self, s: SecretMessage, sk: PrivateKey, now: int) -> Receipt:
        """Resolve one of the owner's promises with the revealed secret and
        sign the receipt for it at once.

        SERIALIZED directions always do this: one receipt per promise, with
        the promise's index. A CONCURRENT driver that batches deliveries
        calls ``resolve_secret`` per secret and ``issue_receipt`` once per
        batch instead.
        """
        promise = self.resolve_secret(s, now)
        return self.issue_receipt(sk, promise.index)

    def resolve_secret(self, s: SecretMessage, now: int) -> Promise:
        """Resolve one of the owner's promises with the revealed secret: book
        the credit and keep the preimage. The credit is acknowledged by the
        next ``issue_receipt``, which may cover several resolutions."""
        promise = self.pending_out.get(s.hashlock)
        if promise is None or s.channel_id != self.params.channel_id:
            raise UnknownPromise(s.hashlock.hex())
        if hash_commit(s.preimage) != s.hashlock:
            raise BadPreimage(s.hashlock.hex())
        if now >= promise.expiry:
            raise Expired(f"promise expired at {promise.expiry}, now {now}")
        del self.pending_out[s.hashlock]
        self.credit_sent += promise.amount
        self.resolved_out.add(s.hashlock)
        self.secrets[s.hashlock] = s.preimage
        return promise

    def receipt_owed(self) -> bool:
        """True while resolved credit exceeds what the last receipt signed."""
        signed = self.last_receipt_sent.cumulative_credit if self.last_receipt_sent else 0
        return self.credit_sent > signed

    def issue_receipt(self, sk: PrivateKey, promise_index: int | None = None) -> Receipt:
        """Sign the receipt acknowledging the current cumulative credit.

        A CONCURRENT receipt takes the next receipt index and its root
        commits to the promises still pending, so one receipt acknowledges
        every secret resolved since the last one. A SERIALIZED receipt takes
        ``promise_index``, the index of the one promise it resolves.
        """
        if self.params.mode == MODE_SERIALIZED:
            if promise_index is None:
                raise ValueError("a SERIALIZED receipt needs the index of its promise")
            index = promise_index
            root = crypto.ZERO_DIGEST
        else:
            index = self.next_receipt_index
            self.next_receipt_index += 1
            root = self._pending_out_root()
        receipt = Receipt(
            channel_id=self.params.channel_id,
            issuer=self.owner,
            index=index,
            cumulative_credit=self.credit_sent,
            pending_root=root,
        )
        receipt = receipt.with_sig(self.signer.sign(sk, receipt.signing_bytes))
        self.last_receipt_sent = receipt
        return receipt

    def is_last_receipt(self, r: Receipt) -> bool:
        """True when ``r`` is byte for byte the last receipt applied: a
        re-sent copy, which changes nothing."""
        last = self.last_receipt_received
        return (last is not None and r.issuer_sig == last.issuer_sig
                and r.signing_bytes == last.signing_bytes)

    def verify_receipt(self, r: Receipt) -> str | None:
        """None when acceptable, otherwise a reject reason string."""
        if r.channel_id != self.params.channel_id or r.issuer != self.peer:
            return REJECT_BAD_SIGNATURE
        if r.issuer_sig is None or not self.signer.verify(
                self.params.party_pk(r.issuer), r.signing_bytes, r.issuer_sig):
            return REJECT_BAD_SIGNATURE
        last_index = self.last_receipt_received.index if self.last_receipt_received else 0
        if r.index <= last_index or r.cumulative_credit <= self.credit_received:
            return REJECT_STALE_INDEX
        covered = self._covered_prefix(r.cumulative_credit)
        if covered is None:
            return REJECT_CREDIT_MISMATCH
        if self.params.mode == MODE_SERIALIZED:
            if r.pending_root != crypto.ZERO_DIGEST:
                return REJECT_BAD_PENDING_ROOT
        else:
            expected = self._pending_in_root(set(covered))
            if r.pending_root != expected:
                return REJECT_BAD_PENDING_ROOT
        return None

    def _covered_prefix(self, cumulative: int) -> list[bytes] | None:
        """Reveal-order prefix of unreceipted hashlocks a receipt resolves.

        Returns the hashlocks whose amounts bring credit_received up to
        ``cumulative`` exactly, or None when no prefix matches.
        """
        total = self.credit_received
        covered: list[bytes] = []
        if cumulative == total:
            return covered
        for hashlock in self.revealed_unreceipted:
            total += self.pending_in[hashlock].amount
            covered.append(hashlock)
            if total == cumulative:
                return covered
            if total > cumulative:
                return None
        return None

    def apply_receipt(self, r: Receipt) -> list[bytes]:
        """Record a verified receipt; returns the hashlocks it resolved."""
        covered = self._covered_prefix(r.cumulative_credit)
        assert covered is not None, "apply_receipt requires a verified receipt"
        for hashlock in covered:
            self.pending_in.pop(hashlock, None)
            del self.revealed_unreceipted[hashlock]
            self.resolved_in.add(hashlock)
        self.credit_received = r.cumulative_credit
        self.last_receipt_received = r
        self.last_receipt_leaves = self.pending_in_leaves()
        return covered

    def inclusion_proof(self, hashlock: bytes) -> tuple[Receipt, MerkleProof] | None:
        """Proof that an unresolved incoming promise is committed by the
        latest held receipt, for on-chain claims in CONCURRENT mode."""
        if self.last_receipt_received is None:
            return None
        promise = self.pending_in.get(hashlock)
        if promise is None:
            return None
        try:
            index = self.last_receipt_leaves.index(promise.digest)
        except ValueError:
            return None
        return self.last_receipt_received, merkle_prove(self.last_receipt_leaves, index)

    # -- expiry and on-chain resolution --------------------------------------

    def drop_promise(self, hashlock: bytes) -> Promise:
        """Forget an outgoing promise that can no longer be paid off-chain
        (it expired, or the hub refused it); its capacity returns to the
        owner."""
        promise = self.pending_out.pop(hashlock)
        if self.params.mode == MODE_SERIALIZED and not self.out_frozen:
            # the slot index is reusable; the promise incurred no liability
            self.next_out_index = promise.index
        return promise

    def expire_pending(self, now: int) -> list[Promise]:
        """Drop every pending promise with expiry <= now; capacity returns
        to the sender automatically."""
        expired = [h for h, p in self.pending_out.items() if p.expiry <= now]
        dropped = [self.drop_promise(h) for h in expired]
        for hashlock in [h for h, p in self.pending_in.items() if p.expiry <= now]:
            promise = self.pending_in.pop(hashlock)
            dropped.append(promise)
            self.revealed_unreceipted.pop(hashlock, None)
        return dropped

    def note_peer_claimed(self, hashlock: bytes, amount: int) -> None:
        """A promise of ours was claimed on-chain; the amount is owed at
        settlement and the direction stops accepting new promises."""
        if hashlock in self.claimed_out:
            return
        self.pending_out.pop(hashlock, None)
        # a promise already acknowledged by a receipt is in credit_sent;
        # recording the claim amount again would double-charge the books
        self.claimed_out[hashlock] = 0 if hashlock in self.resolved_out else amount
        self.out_frozen = True

    def note_self_claimed(self, hashlock: bytes, amount: int) -> None:
        """The owner claimed an incoming promise on-chain instead of waiting
        for a receipt."""
        if hashlock in self.claimed_in:
            return
        self.pending_in.pop(hashlock, None)
        self.claimed_in[hashlock] = 0 if hashlock in self.resolved_in else amount
        self.revealed_unreceipted.pop(hashlock, None)
        self.in_frozen = True

    # -- serialization --------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "params": self.params.to_jsonable(),
            "owner": self.owner,
            "my_deposit": self.my_deposit,
            "peer_deposit": self.peer_deposit,
            "credit_sent": self.credit_sent,
            "credit_received": self.credit_received,
            "pending_out": [p.to_jsonable() for p in self.pending_out.values()],
            "pending_in": [p.to_jsonable() for p in self.pending_in.values()],
            "last_receipt_sent": self.last_receipt_sent.to_jsonable() if self.last_receipt_sent else None,
            "last_receipt_received": (self.last_receipt_received.to_jsonable()
                                      if self.last_receipt_received else None),
            "last_receipt_leaves": [leaf.hex() for leaf in self.last_receipt_leaves],
            "secrets": {h.hex(): s.hex() for h, s in self.secrets.items()},
            "revealed_unreceipted": [[h.hex(), t]
                                     for h, t in self.revealed_unreceipted.items()],
            "next_out_index": self.next_out_index,
            "next_receipt_index": self.next_receipt_index,
            "highest_in_index": self.highest_in_index,
            "claimed_out": {h.hex(): a for h, a in self.claimed_out.items()},
            "claimed_in": {h.hex(): a for h, a in self.claimed_in.items()},
            "resolved_out": sorted(h.hex() for h in self.resolved_out),
            "resolved_in": sorted(h.hex() for h in self.resolved_in),
            "out_frozen": self.out_frozen,
            "in_frozen": self.in_frozen,
            "disputed": self.disputed,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ChannelState":
        state = cls(params=ChannelParams.from_jsonable(obj["params"]), owner=obj["owner"])
        state.my_deposit = int(obj["my_deposit"])
        state.peer_deposit = int(obj["peer_deposit"])
        state.credit_sent = int(obj["credit_sent"])
        state.credit_received = int(obj["credit_received"])
        for entry in obj["pending_out"]:
            promise = Promise.from_jsonable(entry)
            state.pending_out[promise.hashlock] = promise
        for entry in obj["pending_in"]:
            promise = Promise.from_jsonable(entry)
            state.pending_in[promise.hashlock] = promise
        if obj["last_receipt_sent"]:
            state.last_receipt_sent = Receipt.from_jsonable(obj["last_receipt_sent"])
        if obj["last_receipt_received"]:
            state.last_receipt_received = Receipt.from_jsonable(obj["last_receipt_received"])
        state.last_receipt_leaves = [bytes.fromhex(s) for s in obj["last_receipt_leaves"]]
        state.secrets = {bytes.fromhex(h): bytes.fromhex(s) for h, s in obj["secrets"].items()}
        state.revealed_unreceipted = {bytes.fromhex(h): None if t is None else int(t)
                                      for h, t in obj["revealed_unreceipted"]}
        state.next_out_index = int(obj["next_out_index"])
        state.next_receipt_index = int(obj["next_receipt_index"])
        state.highest_in_index = int(obj["highest_in_index"])
        state.claimed_out = {bytes.fromhex(h): int(a) for h, a in obj["claimed_out"].items()}
        state.claimed_in = {bytes.fromhex(h): int(a) for h, a in obj["claimed_in"].items()}
        state.resolved_out = {bytes.fromhex(h) for h in obj["resolved_out"]}
        state.resolved_in = {bytes.fromhex(h) for h in obj["resolved_in"]}
        state.out_frozen = bool(obj["out_frozen"])
        state.in_frozen = bool(obj["in_frozen"])
        state.disputed = bool(obj["disputed"])
        return state
