"""Canonical encoding: determinism, injectivity, and frozen golden vectors."""

import hashlib
import sys
import threading

import pytest

from hubpay import codec, crypto
from hubpay.errors import EncodingError
from hubpay.messages import PaymentProposal, Promise

from golden import VECTOR_DIR, golden_messages, golden_promise_batch


def test_golden_vectors_frozen():
    for stem, blob in golden_messages():
        path = VECTOR_DIR / f"{stem}.txt"
        assert path.exists(), f"missing vector file {path}; run tests/golden.py"
        recorded_hex, recorded_digest = path.read_text().split()
        assert blob.hex() == recorded_hex, f"{stem} encoding drifted from golden file"
        assert hashlib.sha256(blob).hexdigest() == recorded_digest


def test_promise_batch_vector_frozen():
    path = VECTOR_DIR / "promise_batch.txt"
    assert path.exists(), f"missing vector file {path}; run tests/golden.py"
    recorded = [tuple(line.split()) for line in path.read_text().splitlines()]
    assert recorded == [(label, blob.hex()) for label, blob in golden_promise_batch()]
    # 36 signed bytes: the tag, then the root
    assert [label for label, _ in recorded] == ["signed", "path-0", "path-1", "path-2"]
    assert len(bytes.fromhex(recorded[0][1])) == 36


def test_identical_promises_encode_identically():
    h = b"\xab" * 32
    a = Promise("ch", "alice", 1, 5, h, 100)
    b = Promise("ch", "alice", 1, 5, h, 100)
    assert a.signing_bytes == b.signing_bytes


def test_differing_amounts_encode_differently():
    h = b"\xab" * 32
    a = Promise("ch", "alice", 1, 5, h, 100)
    b = Promise("ch", "alice", 1, 6, h, 100)
    assert a.signing_bytes != b.signing_bytes


def test_canonical_caches_take_no_lock_yet_agree_across_threads():
    # threads race on each promise's first access; every one must read the
    # value its fields give, and a signed copy must keep the cached values
    def fresh():
        return [Promise("ch", "alice", i, 5, i.to_bytes(32, "big"), 100) for i in range(300)]

    expected = [crypto.sha256(b"\x00" + crypto.sha256(p.signing_bytes))
                for p in fresh()]
    shared = fresh()
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: seen.append([p.leaf_hash for p in shared]))
                   for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [expected] * 6
    signed = shared[0].with_sig(crypto.Signature(crypto.SCHEME_A, b"\x01" * 64))
    assert {k: signed.__dict__[k] for k in ("signing_bytes", "digest", "leaf_hash")} == {
        k: shared[0].__dict__[k] for k in ("signing_bytes", "digest", "leaf_hash")}


def test_field_order_cannot_change_output():
    one = codec.canonical_encode(codec.TAG_PROMISE, {"a": 1, "b": 2, "c": "x"})
    two = codec.canonical_encode(codec.TAG_PROMISE, {"c": "x", "b": 2, "a": 1})
    assert one == two


def test_tag_prefixes_output():
    blob = PaymentProposal("p", 1, b"\x00" * 32, 10, "bob").canonical_bytes
    assert blob[:4] == codec.TAG_PROPOSAL


def test_unknown_tag_rejected():
    with pytest.raises(EncodingError):
        codec.canonical_encode(b"XXXX", {"a": 1})


def test_unsupported_value_rejected():
    with pytest.raises(EncodingError):
        codec.canonical_encode(codec.TAG_PROMISE, {"a": object()})


def test_decode_round_trip():
    fields = {"amount": 5, "hashlock": b"\x01" * 32, "name": "x"}
    blob = codec.canonical_encode(codec.TAG_SECRET, fields)
    tag, decoded = codec.canonical_decode(blob)
    assert tag == codec.TAG_SECRET
    assert decoded["amount"] == 5
    assert decoded["hashlock"] == "01" * 32


def test_decode_garbage_rejected():
    with pytest.raises(EncodingError):
        codec.canonical_decode(b"PR")
    with pytest.raises(EncodingError):
        codec.canonical_decode(codec.TAG_PROMISE + b"not json")
    with pytest.raises(EncodingError):
        codec.canonical_decode(codec.TAG_PROMISE + b"[1,2]")


@pytest.mark.parametrize("number", ["1e999", "1.5", "1e3", "NaN", "Infinity", "-Infinity"])
def test_decode_refuses_every_non_integer_number(number):
    blob = codec.TAG_WIRE + b'{"body":{"amount":%s},"kind":"PROMISE"}' % number.encode()
    with pytest.raises(EncodingError, match="non-integer number"):
        codec.canonical_decode(blob)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_encode_refuses_nan_and_infinity(value):
    with pytest.raises(ValueError):
        codec.canonical_json({"amount": value})
