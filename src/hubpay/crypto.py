"""Hash commitments, signature schemes, and the pending-promise Merkle tree.

Two concrete signature schemes are exposed behind one interface so that
channels on different ledgers can use different algorithms. Both chosen
schemes sign deterministically, which keeps full simulation runs
bit-reproducible. SHA-256 is the single hash everywhere: a hashlock written
on one ledger must verify with the same preimage on any other.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed448, ed25519

from .errors import SchemeError

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN

SCHEME_A = "SCHEME_A"  # Ed25519
SCHEME_B = "SCHEME_B"  # Ed448
SCHEMES = (SCHEME_A, SCHEME_B)

_SEED_LEN = {SCHEME_A: 32, SCHEME_B: 57}
_SIG_LEN = {SCHEME_A: 64, SCHEME_B: 114}


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hash_commit(preimage: bytes) -> bytes:
    """SHA-256 commitment to a 32-byte secret preimage."""
    if len(preimage) != DIGEST_LEN:
        raise ValueError(f"preimage must be {DIGEST_LEN} bytes, got {len(preimage)}")
    return sha256(preimage)


def new_preimage(rng: Random) -> bytes:
    """Fresh 32-byte secret drawn from a (seeded) RNG."""
    return rng.randbytes(DIGEST_LEN)


@dataclass(frozen=True)
class PublicKey:
    scheme: str
    data: bytes


@dataclass(frozen=True)
class PrivateKey:
    scheme: str
    data: bytes  # raw private bytes (RFC 8032 seed)


@dataclass(frozen=True)
class Signature:
    scheme: str
    data: bytes


def generate_keypair(scheme: str, seed: bytes) -> tuple[PrivateKey, PublicKey]:
    """Derive a keypair deterministically from an arbitrary-length seed."""
    if scheme not in SCHEMES:
        raise SchemeError(f"unknown scheme {scheme}")
    material = b""
    counter = 0
    while len(material) < _SEED_LEN[scheme]:
        material += sha256(seed + scheme.encode() + bytes([counter]))
        counter += 1
    raw = material[: _SEED_LEN[scheme]]
    sk = PrivateKey(scheme, raw)
    pk = PublicKey(scheme, _native_public_bytes(scheme, raw))
    return sk, pk


@lru_cache(maxsize=4096)
def _native_private(scheme: str, raw: bytes):
    if scheme == SCHEME_A:
        return ed25519.Ed25519PrivateKey.from_private_bytes(raw)
    return ed448.Ed448PrivateKey.from_private_bytes(raw)


def _native_public_bytes(scheme: str, raw_private: bytes) -> bytes:
    pub = _native_private(scheme, raw_private).public_key()
    return pub.public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)


@lru_cache(maxsize=4096)
def _native_public(scheme: str, raw: bytes):
    if scheme == SCHEME_A:
        return ed25519.Ed25519PublicKey.from_public_bytes(raw)
    return ed448.Ed448PublicKey.from_public_bytes(raw)


def sign(key: PrivateKey, message: bytes) -> Signature:
    if key.scheme not in SCHEMES:
        raise SchemeError(f"unknown scheme {key.scheme}")
    native = _native_private(key.scheme, key.data)
    return Signature(key.scheme, native.sign(message))


def verify(pk: PublicKey, message: bytes, sig: Signature) -> bool:
    """True iff ``sig`` was produced over exactly ``message`` under ``pk``.

    Malformed or cross-scheme input returns False rather than raising.
    """
    if sig.scheme != pk.scheme or pk.scheme not in SCHEMES:
        return False
    if len(sig.data) != _SIG_LEN[pk.scheme]:
        return False
    try:
        native = _native_public(pk.scheme, pk.data)
        native.verify(sig.data, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# ---------------------------------------------------------------------------
# Merkle accumulator over pending promises
# ---------------------------------------------------------------------------
# Leaves and internal nodes hash under distinct prefixes (0x00 / 0x01) so a
# leaf payload can never collide with a serialized node, and an odd level
# duplicates its last node.

def _leaf_hash(leaf: bytes) -> bytes:
    return sha256(b"\x00" + leaf)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(b"\x01" + left + right)


@dataclass(frozen=True)
class MerkleProof:
    leaf_index: int
    siblings: tuple[bytes, ...]

    def to_jsonable(self) -> dict:
        return {"leaf_index": self.leaf_index, "siblings": [s.hex() for s in self.siblings]}

    @classmethod
    def from_jsonable(cls, obj: dict) -> "MerkleProof":
        return cls(int(obj["leaf_index"]), tuple(bytes.fromhex(s) for s in obj["siblings"]))


def merkle_root(leaves: list[bytes]) -> bytes:
    """Root of the accumulator; the empty set maps to an all-zero sentinel."""
    if not leaves:
        return ZERO_DIGEST
    sha = hashlib.sha256
    return merkle_root_of_leaf_hashes([sha(b"\x00" + leaf).digest() for leaf in leaves])


def merkle_root_of_leaf_hashes(level: list[bytes]) -> bytes:
    """Root from already-prefixed leaf hashes; lets callers cache the leaf
    level when the same promises appear under many successive roots."""
    if not level:
        return ZERO_DIGEST
    level = list(level)
    sha = hashlib.sha256
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        pairs = iter(level)
        level = [sha(b"\x01" + left + right).digest() for left, right in zip(pairs, pairs)]
    return level[0]


def merkle_paths(leaf_hashes: list[bytes]) -> list[MerkleProof]:
    """The audit path of every leaf, from already-prefixed leaf hashes, in
    one pass over the tree (RFC 6962 section 2.1.1)."""
    siblings: list[list[bytes]] = [[] for _ in leaf_hashes]
    level = list(leaf_hashes)
    # positions[i]: where leaf i's ancestor sits on the current level
    positions = list(range(len(leaf_hashes)))
    sha = hashlib.sha256
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        for path, pos in zip(siblings, positions):
            path.append(level[pos ^ 1])
        pairs = iter(level)
        level = [sha(b"\x01" + left + right).digest() for left, right in zip(pairs, pairs)]
        positions = [pos // 2 for pos in positions]
    return [MerkleProof(i, tuple(path)) for i, path in enumerate(siblings)]


def merkle_prove(leaves: list[bytes], index: int) -> MerkleProof:
    if not 0 <= index < len(leaves):
        raise IndexError(f"leaf index {index} out of range for {len(leaves)} leaves")
    return merkle_paths([_leaf_hash(leaf) for leaf in leaves])[index]


def merkle_fold(leaf_hash: bytes, proof: MerkleProof) -> bytes | None:
    """The root reached by folding a prefixed leaf hash up through
    ``proof``, or None when the proof is malformed."""
    if proof.leaf_index < 0:
        return None
    node = leaf_hash
    pos = proof.leaf_index
    for sibling in proof.siblings:
        if len(sibling) != DIGEST_LEN:
            return None
        if pos % 2 == 1:
            node = _node_hash(sibling, node)
        else:
            node = _node_hash(node, sibling)
        pos //= 2
    if pos != 0:
        return None
    return node


def merkle_verify(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """Fold ``leaf`` upward through ``proof``; True iff it reproduces ``root``."""
    return merkle_fold(_leaf_hash(leaf), proof) == root
