"""Golden-vector message set and the script that freezes it.

Run ``python tests/golden.py`` from the repo root to (re)write the files
under ``vectors/``. The committed files are the contract: test_codec checks
every encoding against them byte for byte, so regenerating after an encoding
change is a deliberate, reviewable act.

``promise.txt`` is a promise's canonical content, the leaf of its batch;
``promise_batch.txt`` holds, one ``label hex`` line each, the bytes a sender
signs for a batch of three such promises and each promise's audit path.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hubpay import codec  # noqa: E402
from hubpay.crypto import merkle_paths, merkle_root_of_leaf_hashes  # noqa: E402
from hubpay.messages import (  # noqa: E402
    ClosingRecord,
    PaymentProposal,
    Promise,
    Receipt,
    SecretMessage,
)

VECTOR_DIR = Path(__file__).resolve().parents[1] / "vectors"


def golden_messages() -> list[tuple[str, bytes]]:
    """(file stem, canonical bytes) for a fully specified message of each kind."""
    hashlock = bytes(range(32))
    preimage = bytes(range(32, 64))
    root = bytes(range(64, 96))
    proposal = PaymentProposal(
        proposal_id="inv-0007", amount=125, hashlock=hashlock, expiry=480,
        payee_route="bob")
    promise = Promise(
        channel_id="ch-1-alice", sender="alice", index=3, amount=125,
        hashlock=hashlock, expiry=480)
    secret = SecretMessage(channel_id="ch-1-alice", hashlock=hashlock, preimage=preimage)
    receipt = Receipt(
        channel_id="ch-1-alice", issuer="alice", index=3, cumulative_credit=300,
        pending_root=root)
    closing = ClosingRecord.make("ch-1-alice", {"alice": 80, "hub": 120})
    return [
        ("proposal", proposal.canonical_bytes),
        ("promise", promise.signing_bytes),
        ("secret", secret.canonical_bytes),
        ("receipt", receipt.signing_bytes),
        ("closing", closing.signing_bytes),
    ]


def golden_promise_batch() -> list[tuple[str, bytes]]:
    """(label, bytes) for a batch of three promises: the signed bytes
    ``TAG_PROMISE_BATCH || root``, then each promise's audit path as
    canonical JSON."""
    first = Promise(
        channel_id="ch-1-alice", sender="alice", index=3, amount=125,
        hashlock=bytes(range(32)), expiry=480)
    batch = [first,
             replace(first, index=4, amount=50, hashlock=bytes(range(1, 33))),
             replace(first, index=5, amount=7, hashlock=bytes(range(2, 34)))]
    leaves = [p.leaf_hash for p in batch]
    lines = [("signed", codec.TAG_PROMISE_BATCH + merkle_root_of_leaf_hashes(leaves))]
    for i, path in enumerate(merkle_paths(leaves)):
        lines.append((f"path-{i}", codec.canonical_json(path.to_jsonable())))
    return lines


def write_vectors() -> None:
    VECTOR_DIR.mkdir(exist_ok=True)
    for stem, blob in golden_messages():
        digest = hashlib.sha256(blob).hexdigest()
        (VECTOR_DIR / f"{stem}.txt").write_text(f"{blob.hex()} {digest}\n")
    (VECTOR_DIR / "promise_batch.txt").write_text(
        "".join(f"{label} {blob.hex()}\n" for label, blob in golden_promise_batch()))
    print(f"wrote {len(golden_messages()) + 1} vector files to {VECTOR_DIR}")


if __name__ == "__main__":
    write_vectors()
