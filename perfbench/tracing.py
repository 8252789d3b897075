"""Span tracing from outside the program.

``Tracer.install()`` replaces the public entry points of each hubpay layer
with wrappers that record one span per call: (name, start_ns, end_ns,
parent index, extra). Functions are replaced in every hubpay module that
holds a reference to them, so names imported with ``from .crypto import``
are traced too. ``uninstall()`` puts the originals back. Spans stay in
memory while the benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from hubpay import channel, codec, crypto, hub, ledger, messages, server, simnet, wallet, wire

# (layer, module, function names)
FUNCTIONS = [
    ("crypto", crypto, ["sign", "verify", "hash_commit", "generate_keypair", "merkle_root",
                        "merkle_root_of_leaf_hashes", "merkle_prove", "merkle_verify"]),
    ("codec", codec, ["canonical_encode", "canonical_decode"]),
    ("wire", wire, ["encode_frame", "decode_frames"]),
]

# (layer, class, method names)
METHODS = [
    ("codec", messages.ChannelParams, ["to_jsonable", "from_jsonable"]),
    ("codec", messages.PaymentProposal, ["to_jsonable", "from_jsonable"]),
    ("codec", messages.Promise, ["to_jsonable", "from_jsonable"]),
    ("codec", messages.SecretMessage, ["to_jsonable", "from_jsonable"]),
    ("codec", messages.Receipt, ["to_jsonable", "from_jsonable"]),
    ("codec", messages.ClosingRecord, ["to_jsonable", "from_jsonable"]),
    ("codec", crypto.MerkleProof, ["to_jsonable", "from_jsonable"]),
    ("codec", ledger.LedgerEvent, ["to_jsonable", "from_jsonable"]),
    ("channel", channel.ChannelState, [
        "make_proposal", "reveal_secret", "make_promise", "promise_raw", "verify_promise",
        "accept_promise", "accept_secret", "verify_receipt", "apply_receipt",
        "inclusion_proof", "expire_pending", "available_balance", "peer_spendable",
        "note_peer_claimed", "note_self_claimed"]),
    ("hub", hub.HubCore, ["handle_message", "hub_tick", "initiate_close"]),
    ("wallet", wallet.WalletCore, ["handle_message", "client_tick", "issue_proposal",
                                   "start_payment_with_proposal", "start_payment",
                                   "start_close", "deposit"]),
    ("ledger", ledger.Ledger, [
        "deploy_contract", "deposit", "claim_promise", "refresh_claim_proof",
        "cooperative_close", "initiate_dispute", "respond_dispute",
        "finalize_settlement", "advance_time", "read_state", "events_since"]),
    ("simnet", simnet.World, ["step", "send"]),
    ("server", server.RemoteLedger, [
        "refresh", "deposit", "claim_promise", "initiate_dispute", "respond_dispute",
        "finalize_settlement", "refresh_claim_proof", "cooperative_close"]),
]


# The one per-call detail a layer metric needs, keyed by span name.
EXTRACTORS = {
    "crypto.sign": lambda args, result: args[0].scheme,
    "crypto.verify": lambda args, result: args[0].scheme,
    "crypto.merkle_root_of_leaf_hashes": lambda args, result: len(args[0]),
    "channel.ChannelState.verify_promise": lambda args, result: result,
    "channel.ChannelState.verify_receipt": lambda args, result: result,
    "wire.encode_frame": lambda args, result: len(result),
    # (bytes consumed, frames decoded)
    "wire.decode_frames": lambda args, result: (len(args[0]) - len(result[1]),
                                                len(result[0])),
}


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, extra)
        self.spans: list[tuple] = []
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- patching --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self
        extract = EXTRACTORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = failed = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                extra = extract(args, result) if extract and not failed else None
                spans[index] = (name, start, end, parent, extra)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hubpay" or n.startswith("hubpay.")]
        for layer, module, names in FUNCTIONS:
            for fname in names:
                original = getattr(module, fname)
                traced = self._wrap(f"{layer}.{fname}", original)
                # rebind every module-level reference, including the names
                # other modules imported directly
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, traced)
        for layer, cls, names in METHODS:
            for mname in names:
                original = cls.__dict__[mname]
                label = f"{layer}.{cls.__name__}.{mname}"
                if isinstance(original, classmethod):
                    traced = classmethod(self._wrap(label, original.__func__))
                else:
                    traced = self._wrap(label, original)
                self._undo.append((cls, mname, original))
                setattr(cls, mname, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.active = False

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class SpanStats:
    """Per-name call counts, total and self time, and extras, for spans
    recorded between two indices of a tracer's span list."""

    def __init__(self, spans: list[tuple], first: int = 0, last: int | None = None):
        window = spans[first:last]
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in window:
            if parent >= first:
                child_ns[parent] += end - start
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.extras = defaultdict(list)
        self.durations_ns = defaultdict(list)
        for offset, (name, start, end, parent, extra) in enumerate(window):
            duration = end - start
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - child_ns[first + offset]
            self.durations_ns[name].append(duration)
            if extra is not None:
                self.extras[name].append(extra)

    def layer_self_ns(self, layer: str) -> int:
        prefix = layer + "."
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(prefix))
