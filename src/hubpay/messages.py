"""Off-chain protocol message types.

A payment is negotiated with four messages: the payee's PaymentProposal
(the invoice carrying a hash commitment), the payer's signed Promise
(conditional on the secret, before an expiry tick), the payee's
SecretMessage revealing the preimage, and the payer's signed Receipt
acknowledging the new cumulative credit. Signatures cover the message's
canonical encoding, never an ad-hoc serialization; promises are signed in
batches, one signature over the Merkle root of their canonical digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import codec, crypto
from .crypto import DIGEST_LEN, MerkleProof, PublicKey, Signature

MODE_SERIALIZED = "SERIALIZED"
MODE_CONCURRENT = "CONCURRENT"
MODES = (MODE_SERIALIZED, MODE_CONCURRENT)


class cached_property:
    """A value computed on first access and kept in the instance's
    ``__dict__``, where later lookups find it before this descriptor.

    ``functools.cached_property`` does the same under a lock (through
    Python 3.11), which every thread shares. The values here depend only
    on frozen fields, so two threads racing on a first access compute and
    store the same value, and no lock is needed."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class ChannelParams:
    """Contract parameters fixed at deployment for one client-hub channel."""

    channel_id: str
    ledger_id: str
    client_id: str
    hub_id: str
    client_pk: PublicKey
    hub_pk: PublicKey
    scheme: str
    mode: str
    claim_margin_delta: int
    dispute_window: int
    penalty_bps: int = 1000

    def __post_init__(self):
        if self.claim_margin_delta < 1:
            raise ValueError("claim_margin_delta must be >= 1")
        if self.dispute_window < 1:
            raise ValueError("dispute_window must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode}")
        if self.client_pk.scheme != self.scheme or self.hub_pk.scheme != self.scheme:
            raise ValueError("channel keys must use the channel scheme")

    def party_pk(self, party: str) -> PublicKey:
        if party == self.client_id:
            return self.client_pk
        if party == self.hub_id:
            return self.hub_pk
        raise KeyError(f"{party} is not a member of channel {self.channel_id}")

    def other_party(self, party: str) -> str:
        if party == self.client_id:
            return self.hub_id
        if party == self.hub_id:
            return self.client_id
        raise KeyError(f"{party} is not a member of channel {self.channel_id}")

    @cached_property
    def canonical_bytes(self) -> bytes:
        return codec.canonical_encode(codec.TAG_PARAMS, self.to_jsonable())

    def to_jsonable(self) -> dict:
        return {
            "channel_id": self.channel_id,
            "ledger_id": self.ledger_id,
            "client_id": self.client_id,
            "hub_id": self.hub_id,
            "client_pk": self.client_pk.data.hex(),
            "hub_pk": self.hub_pk.data.hex(),
            "scheme": self.scheme,
            "mode": self.mode,
            "claim_margin_delta": self.claim_margin_delta,
            "dispute_window": self.dispute_window,
            "penalty_bps": self.penalty_bps,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ChannelParams":
        scheme = obj["scheme"]
        return cls(
            channel_id=obj["channel_id"],
            ledger_id=obj["ledger_id"],
            client_id=obj["client_id"],
            hub_id=obj["hub_id"],
            client_pk=PublicKey(scheme, bytes.fromhex(obj["client_pk"])),
            hub_pk=PublicKey(scheme, bytes.fromhex(obj["hub_pk"])),
            scheme=scheme,
            mode=obj["mode"],
            claim_margin_delta=int(obj["claim_margin_delta"]),
            dispute_window=int(obj["dispute_window"]),
            penalty_bps=int(obj["penalty_bps"]),
        )


@dataclass(frozen=True)
class PaymentProposal:
    """Invoice from payee to payer; the hashlock commits to the payee's secret."""

    proposal_id: str
    amount: int
    hashlock: bytes
    expiry: int
    payee_route: str

    def __post_init__(self):
        if len(self.hashlock) != DIGEST_LEN:
            raise ValueError("hashlock must be a 32-byte digest")

    @cached_property
    def canonical_bytes(self) -> bytes:
        return codec.canonical_encode(codec.TAG_PROPOSAL, self.to_jsonable())

    def to_jsonable(self) -> dict:
        return {
            "proposal_id": self.proposal_id,
            "amount": self.amount,
            "hashlock": self.hashlock.hex(),
            "expiry": self.expiry,
            "payee_route": self.payee_route,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "PaymentProposal":
        return cls(
            proposal_id=obj["proposal_id"],
            amount=int(obj["amount"]),
            hashlock=bytes.fromhex(obj["hashlock"]),
            expiry=int(obj["expiry"]),
            payee_route=obj["payee_route"],
        )


@dataclass(frozen=True)
class Promise:
    """Conditional payment on one channel direction.

    A sender signs its promises in batches: ``sender_sig`` covers
    ``TAG_PROMISE_BATCH || root``, where ``root`` is the Merkle root over the
    batch's leaf hashes, and ``path`` is this promise's audit path to it. A
    batch of one has no path (its root is its own leaf hash). A promise the
    sender has booked but not yet sealed has no signature.
    """

    channel_id: str
    sender: str
    index: int
    amount: int
    hashlock: bytes
    expiry: int
    sender_sig: Signature | None = field(default=None, compare=False)
    path: MerkleProof | None = field(default=None, compare=False)

    @cached_property
    def signing_bytes(self) -> bytes:
        """The promise's canonical content: every field but the signature
        and the path. Its hash is the promise's leaf."""
        return codec.canonical_encode(
            codec.TAG_PROMISE,
            {
                "channel_id": self.channel_id,
                "sender": self.sender,
                "index": self.index,
                "amount": self.amount,
                "hashlock": self.hashlock.hex(),
                "expiry": self.expiry,
            },
        )

    @cached_property
    def digest(self) -> bytes:
        """Leaf digest used by the pending-promise accumulator."""
        return crypto.sha256(self.signing_bytes)

    @cached_property
    def leaf_hash(self) -> bytes:
        return crypto.sha256(b"\x00" + self.digest)

    def batch_root(self) -> bytes | None:
        """The root the signature must cover: the leaf hash folded up
        through the path, or None when the path is malformed."""
        if self.path is None:
            return self.leaf_hash
        return crypto.merkle_fold(self.leaf_hash, self.path)

    def with_sig(self, sig: Signature, path: MerkleProof | None = None) -> "Promise":
        signed = Promise(self.channel_id, self.sender, self.index, self.amount,
                         self.hashlock, self.expiry, sig, path)
        # identical fields, so the canonical caches carry over
        for key in ("signing_bytes", "digest", "leaf_hash"):
            if key in self.__dict__:
                signed.__dict__[key] = self.__dict__[key]
        return signed

    def to_jsonable(self) -> dict:
        obj = {
            "channel_id": self.channel_id,
            "sender": self.sender,
            "index": self.index,
            "amount": self.amount,
            "hashlock": self.hashlock.hex(),
            "expiry": self.expiry,
            "sig": self.sender_sig.data.hex() if self.sender_sig else None,
            "sig_scheme": self.sender_sig.scheme if self.sender_sig else None,
        }
        if self.path is not None:
            obj["path"] = self.path.to_jsonable()
        return obj

    @classmethod
    def from_jsonable(cls, obj: dict) -> "Promise":
        sig = None
        if obj.get("sig"):
            sig = Signature(obj["sig_scheme"], bytes.fromhex(obj["sig"]))
        path = obj.get("path")
        return cls(
            channel_id=obj["channel_id"],
            sender=obj["sender"],
            index=int(obj["index"]),
            amount=int(obj["amount"]),
            hashlock=bytes.fromhex(obj["hashlock"]),
            expiry=int(obj["expiry"]),
            sender_sig=sig,
            path=MerkleProof.from_jsonable(path) if path is not None else None,
        )


PromiseBatch = tuple[bytes, Signature]  # (root, signature) of one sealed batch


def authentic_batch(pk: PublicKey, promise: Promise, known: PromiseBatch | None = None,
                    signer=crypto) -> PromiseBatch | None:
    """The one rule for a promise's signature: it must verify under ``pk``
    over ``TAG_PROMISE_BATCH || root``, where ``root`` is the promise's leaf
    folded up through its path. Returns the (root, signature) pair that
    makes the promise authentic, or None. ``known`` is a pair this check
    already accepted under the same key; a promise of that batch costs no
    second signature check. ``signer.verify`` makes the check (see
    ``ChannelState.signer``)."""
    if promise.sender_sig is None:
        return None
    root = promise.batch_root()
    if root is None:
        return None
    batch = (root, promise.sender_sig)
    if batch == known or signer.verify(pk, codec.TAG_PROMISE_BATCH + root, promise.sender_sig):
        return batch
    return None


@dataclass(frozen=True)
class SecretMessage:
    """Reveals the preimage that unlocks one promised payment."""

    channel_id: str
    hashlock: bytes
    preimage: bytes

    @cached_property
    def canonical_bytes(self) -> bytes:
        return codec.canonical_encode(codec.TAG_SECRET, self.to_jsonable())

    def to_jsonable(self) -> dict:
        return {
            "channel_id": self.channel_id,
            "hashlock": self.hashlock.hex(),
            "preimage": self.preimage.hex(),
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "SecretMessage":
        return cls(
            channel_id=obj["channel_id"],
            hashlock=bytes.fromhex(obj["hashlock"]),
            preimage=bytes.fromhex(obj["preimage"]),
        )


@dataclass(frozen=True)
class Receipt:
    """Signed cumulative-credit acknowledgment, issued by the promise sender.

    ``cumulative_credit`` is the total the issuer now owes on this direction.
    In CONCURRENT mode ``pending_root`` commits to the issuer's still
    unresolved outgoing promises; SERIALIZED receipts carry the zero root.
    """

    channel_id: str
    issuer: str
    index: int
    cumulative_credit: int
    pending_root: bytes
    issuer_sig: Signature | None = field(default=None, compare=False)

    @cached_property
    def signing_bytes(self) -> bytes:
        return codec.canonical_encode(
            codec.TAG_RECEIPT,
            {
                "channel_id": self.channel_id,
                "issuer": self.issuer,
                "index": self.index,
                "cumulative_credit": self.cumulative_credit,
                "pending_root": self.pending_root.hex(),
            },
        )

    def with_sig(self, sig: Signature) -> "Receipt":
        signed = Receipt(self.channel_id, self.issuer, self.index,
                         self.cumulative_credit, self.pending_root, sig)
        if "signing_bytes" in self.__dict__:
            signed.__dict__["signing_bytes"] = self.__dict__["signing_bytes"]
        return signed

    def to_jsonable(self) -> dict:
        return {
            "channel_id": self.channel_id,
            "issuer": self.issuer,
            "index": self.index,
            "cumulative_credit": self.cumulative_credit,
            "pending_root": self.pending_root.hex(),
            "sig": self.issuer_sig.data.hex() if self.issuer_sig else None,
            "sig_scheme": self.issuer_sig.scheme if self.issuer_sig else None,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "Receipt":
        sig = None
        if obj.get("sig"):
            sig = Signature(obj["sig_scheme"], bytes.fromhex(obj["sig"]))
        return cls(
            channel_id=obj["channel_id"],
            issuer=obj["issuer"],
            index=int(obj["index"]),
            cumulative_credit=int(obj["cumulative_credit"]),
            pending_root=bytes.fromhex(obj["pending_root"]),
            issuer_sig=sig,
        )


@dataclass(frozen=True)
class ClosingRecord:
    """Final balances both parties co-sign for a cooperative close."""

    channel_id: str
    balances: tuple[tuple[str, int], ...]  # ((party, amount), ...) sorted by party

    @staticmethod
    def make(channel_id: str, balances: dict[str, int]) -> "ClosingRecord":
        return ClosingRecord(channel_id, tuple(sorted(balances.items())))

    @property
    def balance_map(self) -> dict[str, int]:
        return dict(self.balances)

    @cached_property
    def signing_bytes(self) -> bytes:
        return codec.canonical_encode(
            codec.TAG_CLOSING,
            {"channel_id": self.channel_id, "balances": dict(self.balances)},
        )

    def to_jsonable(self) -> dict:
        return {"channel_id": self.channel_id, "balances": dict(self.balances)}

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ClosingRecord":
        return cls.make(obj["channel_id"], {k: int(v) for k, v in obj["balances"].items()})
