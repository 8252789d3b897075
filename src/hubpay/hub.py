"""The routing hub: registry, channel pairing, promise relay, persistence.

The hub is trusted for availability only. Every promise it relays is checked
against the sender's channel capacity, every outgoing promise expires one
safety margin before its incoming counterpart, and a background tick tends
each revealed, unreceipted incoming promise by the watchdog's rule
(``watchdog.tend_revealed``), claiming it on-chain before it can be lost.
All ledger-derived state transitions are driven by observed ledger events,
never by the submission call itself, so crash recovery replays to the same
state the live hub reached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from . import crypto, watchdog
from .channel import ChannelState, close_balances
from .crypto import PrivateKey, PublicKey, Signature, generate_keypair
from .errors import DECODE_ERRORS, HubpayError, RecoveryError
from .ledger import EV_CLOSED, STATUS_OPEN, Ledger
from .messages import (
    MODE_CONCURRENT,
    MODES,
    ChannelParams,
    ClosingRecord,
    Promise,
    Receipt,
    SecretMessage,
)
from .wire import (
    K_CLOSE_OK,
    K_CLOSE_REQUEST,
    K_PROMISE,
    K_PROPOSAL_RELAY,
    K_RECEIPT,
    K_REGISTER,
    K_REGISTER_OK,
    K_SECRET,
    WireMessage,
    error_message,
    receipt_message,
)

ROUTE_AWAIT_SECRET = "AWAIT_SECRET"
ROUTE_SECRET_HELD = "SECRET_HELD"
ROUTE_SETTLED_OUT = "SETTLED_OUT"   # incoming leg recovered on-chain
ROUTE_SETTLED_IN = "SETTLED_IN"     # incoming leg settled off-chain
ROUTE_EXPIRED = "EXPIRED"

TERMINAL_ROUTES = {ROUTE_SETTLED_OUT, ROUTE_SETTLED_IN, ROUTE_EXPIRED}

# The journal is checkpointed once it holds this many entries, or one per
# route if that is more, so the checkpoint's O(state) cost per entry stays
# constant however long the hub runs
CHECKPOINT_FLOOR = 1024

# The message kinds whose handlers can change hub state, and so are
# journaled; a proposal relay only passes its body on
JOURNALED_KINDS = frozenset({K_REGISTER, K_PROMISE, K_SECRET, K_RECEIPT, K_CLOSE_REQUEST})


@dataclass
class HubConfig:
    hub_id: str = "hub"
    fee_bps: int = 0
    claim_margin_delta: int = 50
    dispute_window: int = 100
    penalty_bps: int = 1000
    channel_float: int = 1_000_000
    key_seed: bytes = b"hub-key-seed"


@dataclass
class Registration:
    client_id: str
    ledger_id: str
    mode: str
    channel_id: str

    def to_jsonable(self) -> dict:
        return {"client_id": self.client_id, "ledger_id": self.ledger_id,
                "mode": self.mode, "channel_id": self.channel_id}


@dataclass
class RouteContext:
    """One payment routed through the hub: the incoming promise on
    ``in_channel`` and the hub's forwarded promise on ``out_channel``,
    both under ``hashlock``. The route keeps only the amounts and expiries
    it reads; each promise itself is kept once, on its channel's books
    (``pending_in`` and ``pending_out``) while it is unresolved, and the
    preimage once, in the incoming channel's ``secrets``."""

    payment_id: str
    hashlock: bytes
    in_channel: str
    out_channel: str
    in_amount: int
    in_expiry: int
    out_amount: int
    out_expiry: int
    state: str = ROUTE_AWAIT_SECRET

    def to_jsonable(self) -> dict:
        return dict(vars(self), hashlock=self.hashlock.hex())

    @classmethod
    def from_jsonable(cls, obj: dict) -> "RouteContext":
        return cls(**dict(obj, hashlock=bytes.fromhex(obj["hashlock"])))


class HubStore:
    """Persistence backend: latest snapshot plus the journal since it.

    The hub checkpoints into it by itself (see ``HubCore._step``), so the
    journal never holds more than ``max(CHECKPOINT_FLOOR, routes)`` entries.

    An entry is one step of the hub: ``{"t": "msg", "now", "src", "kind",
    "body"}`` for a message of a kind in ``JOURNALED_KINDS``, ``{"t":
    "tick", "now"}`` or ``{"t": "flush", "now"}``. It also holds what the
    step's signature calls returned (see ``StepCrypto``): under ``"sigs"``
    every signature the hub made, as hex in call order, and under ``"bad"``
    the ordinal within the step of every signature check that failed. A
    tick also holds what replay cannot learn from the ledgers' final logs:
    under ``"polled"`` how many events it took from each ledger, and under
    ``"finalized"`` the channels whose settlement it submitted. Each of
    these keys is left out when empty.
    """

    def __init__(self):
        self.snapshot: dict | None = None
        self.journal: list[dict] = []

    def append(self, entry: dict) -> None:
        self.journal.append(entry)

    def set_snapshot(self, snap: dict) -> None:
        self.snapshot = snap
        self.journal = []


class StepCrypto:
    """The signer of the hub's channels (``ChannelState.signer``): it keeps
    the crypto results of each journaled step in the step's entry, so that
    replay repeats no signature and no check.

    Live, ``sign`` calls ``crypto.sign`` and appends the signature to the
    entry's ``"sigs"``; ``verify`` calls ``crypto.verify`` and appends the
    ordinal of a check that fails to ``"bad"``. Replaying the entry hands
    back its signatures in order and fails exactly its ``"bad"`` checks,
    calling no crypto. A replay that does not use each recorded signature
    exactly once, or never reaches a recorded failure, raises
    ``RecoveryError``. Outside a step (a scripted hub's attacks) calls go
    straight to crypto.

    A recovered hub has no cached batch (``ChannelState.verified_batch``),
    so replay may check a promise the live hub passed on its cache. That
    check passes, and as a step checks one signature at most, the ordinals
    of failed checks still match.
    """

    __slots__ = ("entry", "replaying", "signed", "checked")

    def __init__(self):
        self.entry: dict | None = None
        self.replaying = False
        self.signed = self.checked = 0

    def begin(self, entry: dict, replaying: bool) -> None:
        self.entry, self.replaying = entry, replaying
        self.signed = self.checked = 0

    def abort(self) -> None:
        self.entry = None

    def end(self) -> None:
        entry, self.entry = self.entry, None
        if not self.replaying:
            return
        recorded = len(entry.get("sigs", ()))
        if self.signed != recorded:
            raise RecoveryError(f"{_step_name(entry)} recorded {recorded} signatures, "
                                f"replay made {self.signed}")
        if any(ordinal >= self.checked for ordinal in entry.get("bad", ())):
            raise RecoveryError(f"{_step_name(entry)} recorded a failed check "
                                f"that replay never made")

    def sign(self, sk: PrivateKey, message: bytes) -> Signature:
        entry = self.entry
        if entry is None:
            return crypto.sign(sk, message)
        if self.replaying:
            # past the recorded signatures, replay has diverged: ``end`` says
            # so, as an error raised here could be taken for a refused frame
            sigs = entry.get("sigs", ())
            data = bytes.fromhex(sigs[self.signed]) if self.signed < len(sigs) else b""
            sig = Signature(sk.scheme, data)
        else:
            sig = crypto.sign(sk, message)
            entry.setdefault("sigs", []).append(sig.data.hex())
        self.signed += 1
        return sig

    def verify(self, pk: PublicKey, message: bytes, sig: Signature) -> bool:
        entry = self.entry
        if entry is None:
            return crypto.verify(pk, message, sig)
        ordinal = self.checked
        self.checked += 1
        if self.replaying:
            return ordinal not in entry.get("bad", ())
        if crypto.verify(pk, message, sig):
            return True
        entry.setdefault("bad", []).append(ordinal)
        return False


def _step_name(entry: dict) -> str:
    kind = f" {entry['kind']}" if entry["t"] == "msg" else ""
    return f"journal entry {entry['t']}{kind} at {entry['now']}"


class HubCore:
    """Transport-independent hub logic.

    ``handle_message``/``hub_tick``/``flush_receipts`` return an outbox of
    (client_id, message) pairs; the caller (simulation bus or socket server)
    delivers them. A CONCURRENT channel gets one promise signature and one
    receipt per delivery batch, so the caller ends every batch with
    ``hub_tick`` or ``flush_receipts``.
    """

    def __init__(self, config: HubConfig, ledgers: dict[str, Ledger],
                 store: HubStore | None = None):
        self.config = config
        self.ledgers = ledgers
        self.store = store or HubStore()
        self.keys: dict[str, tuple[PrivateKey, PublicKey]] = {}
        for ledger_id, ledger in sorted(ledgers.items()):
            self.keys[ledger_id] = generate_keypair(
                ledger.scheme, config.key_seed + ledger_id.encode())
        self.registry: dict[str, Registration] = {}
        self.channels: dict[str, ChannelState] = {}
        self.routes: dict[bytes, RouteContext] = {}
        # non-terminal route keys, so per-tick sweeps stay O(in-flight)
        self.active_routes: set[bytes] = set()
        self.cursors: dict[str, int] = {lid: 0 for lid in sorted(ledgers)}
        self.channel_counter = 0
        self.fees_accrued = 0
        self.closed_channels: dict[str, dict] = {}
        self.finalize_submitted: set[str] = set()
        # CONCURRENT channels holding credit that no receipt acknowledges
        # yet; derived from the channel books, and rebuilt from them on load
        self.receipts_owed: set[str] = set()
        # CONCURRENT channels holding forwarded promises not yet sealed;
        # derived from the books (``holds_unsealed``) on load
        self.promises_unsealed: set[str] = set()
        self.trace: list[dict] = []
        self.replaying = False
        self.signer = StepCrypto()
        self._tick_outbox: list[tuple[str, WireMessage]] = []
        self._handlers = {
            K_REGISTER: self._on_register,
            K_PROPOSAL_RELAY: self._on_proposal_relay,
            K_PROMISE: self._on_promise,
            K_SECRET: self._on_secret,
            K_RECEIPT: self._on_receipt,
            K_CLOSE_REQUEST: self._on_close_request,
        }

    # -- helpers ---------------------------------------------------------------

    def _note(self, action: str, **info) -> None:
        entry = {"action": action}
        entry.update(info)
        self.trace.append(entry)

    def sk_for(self, ledger_id: str) -> PrivateKey:
        return self.keys[ledger_id][0]

    def pk_for(self, ledger_id: str) -> PublicKey:
        return self.keys[ledger_id][1]

    def channel_of(self, client_id: str) -> ChannelState | None:
        reg = self.registry.get(client_id)
        if reg is None:
            return None
        return self.channels.get(reg.channel_id)

    def _step(self, entry: dict) -> list[tuple[str, WireMessage]]:
        """Run one journaled step. Live, its entry is logged before the step
        changes any state, and collects the step's signatures and failed
        checks; replay passes in the logged entry, whose records stand in
        for crypto. A full journal is first checkpointed, so the snapshot
        holds exactly the state after the entries it replaces."""
        if not self.replaying:
            if len(self.store.journal) >= max(CHECKPOINT_FLOOR, len(self.routes)):
                self.snapshot_now()
            self.store.append(entry)
        self.signer.begin(entry, self.replaying)
        try:
            step = entry["t"]
            if step == "msg":
                outbox = self._answer(entry["src"], entry["kind"], entry["body"],
                                      entry["now"])
            elif step == "tick":
                outbox = self._tick(entry)
            elif step == "flush":
                outbox = self._end_batch()
            else:
                raise RecoveryError(f"unknown journal entry {entry!r}")
        except BaseException:
            self.signer.abort()
            raise
        self.signer.end()
        return outbox

    def _ledger_call(self, fn, *args, **kwargs):
        """Submit a ledger operation unless replaying the journal (the live
        run already wrote it; state converges via event polling)."""
        if self.replaying:
            return None
        return fn(*args, **kwargs)

    # -- message handling ---------------------------------------------------------

    def handle_message(self, src: str, msg: WireMessage, now: int) -> list[tuple[str, WireMessage]]:
        if msg.kind not in JOURNALED_KINDS:
            return self._answer(src, msg.kind, msg.body, now)
        return self._step({"t": "msg", "now": now, "src": src,
                           "kind": msg.kind, "body": msg.body})

    def _answer(self, src: str, kind: str, body: dict,
                now: int) -> list[tuple[str, WireMessage]]:
        handler = self._handlers.get(kind)
        if handler is None:
            return [(src, error_message("EncodingError", f"unhandled kind {kind}"))]
        try:
            return handler(src, body, now)
        except HubpayError as exc:
            code, detail = exc.code, exc.detail
        except DECODE_ERRORS as exc:
            # a malformed body; replaying its journal entry answers the same
            code, detail = "EncodingError", f"malformed {kind}: {exc!r}"
        return [(src, error_message(code, detail, payment_id=body.get("payment_id")))]

    def _on_register(self, src: str, body: dict, now: int) -> list[tuple[str, WireMessage]]:
        client_id = body["client_id"]
        ledger_id = body["ledger_id"]
        mode = body.get("mode", "SERIALIZED")
        if client_id in self.registry:
            return [(src, error_message("AlreadyRegistered", client_id))]
        ledger = self.ledgers.get(ledger_id)
        if ledger is None:
            return [(src, error_message("NotFound", f"ledger {ledger_id}"))]
        if body["scheme"] != ledger.scheme:
            return [(src, error_message("SchemeError",
                                        f"{body['scheme']} != ledger scheme {ledger.scheme}"))]
        if mode not in MODES:
            return [(src, error_message("EncodingError", f"unknown mode {mode}"))]
        client_pk = PublicKey(body["scheme"], bytes.fromhex(body["pk"]))
        self.channel_counter += 1
        channel_id = f"ch-{self.channel_counter:04d}-{client_id}"
        params = ChannelParams(
            channel_id=channel_id,
            ledger_id=ledger_id,
            client_id=client_id,
            hub_id=self.config.hub_id,
            client_pk=client_pk,
            hub_pk=self.pk_for(ledger_id),
            scheme=ledger.scheme,
            mode=mode,
            claim_margin_delta=self.config.claim_margin_delta,
            dispute_window=self.config.dispute_window,
            penalty_bps=self.config.penalty_bps,
        )
        self._ledger_call(ledger.deploy_contract, params, self.config.hub_id)
        if self.config.channel_float > 0:
            self._ledger_call(ledger.deposit, channel_id, self.config.hub_id,
                              self.config.channel_float)
        self.registry[client_id] = Registration(client_id, ledger_id, mode, channel_id)
        self.channels[channel_id] = ChannelState(params=params, owner=self.config.hub_id,
                                                 signer=self.signer)
        self._note("register", client=client_id, channel=channel_id)
        return [(src, WireMessage(K_REGISTER_OK, {
            "channel_id": channel_id,
            "params": params.to_jsonable(),
            "fee_bps": self.config.fee_bps,
        }))]

    def _on_proposal_relay(self, src: str, body: dict, now: int) -> list[tuple[str, WireMessage]]:
        target = body.get("to")
        if target not in self.registry:
            return [(src, error_message("NoRoute", f"unknown client {target}",
                                        payment_id=body.get("payment_id")))]
        return [(target, WireMessage(K_PROPOSAL_RELAY, {**body, "from": src}))]

    def _on_promise(self, src: str, body: dict, now: int) -> list[tuple[str, WireMessage]]:
        payment_id = body.get("payment_id")
        promise = Promise.from_jsonable(body["promise"])
        payee = body.get("payee")
        in_state = self.channel_of(src)
        if (in_state is None or in_state.params.channel_id != promise.channel_id
                or in_state.params.channel_id in self.closed_channels):
            return [(src, error_message("NoRoute", "unknown or closed sender channel",
                                        payment_id=payment_id))]
        delta = self.config.claim_margin_delta
        reason = in_state.verify_promise(promise, now, min_margin=2 * delta)
        if reason is not None:
            self._note("promise_rejected", payment=payment_id, reason=reason, sender=src)
            return [(src, error_message(reason, "promise rejected", payment_id=payment_id))]
        out_state = self.channel_of(payee)
        if out_state is None or out_state.params.channel_id in self.closed_channels:
            return [(src, error_message("NoRoute", f"no open channel for {payee}",
                                        payment_id=payment_id))]
        fee = promise.amount * self.config.fee_bps // 10000
        out_amount = promise.amount - fee
        if out_amount < 1:
            return [(src, error_message("InvalidAmount", "amount too small after fees",
                                        payment_id=payment_id))]
        if promise.hashlock in self.routes:
            return [(src, error_message("DuplicateHashlock", "route exists",
                                        payment_id=payment_id))]
        if out_amount > out_state.available_balance():
            self._note("liquidity_exhausted", payment=payment_id, payee=payee)
            return [(src, error_message("HubLiquidityExhausted", "payee channel underfunded",
                                        payment_id=payment_id))]
        try:
            outgoing = self._forward_promise(out_state, promise, out_amount,
                                             promise.expiry - delta, now)
        except HubpayError as exc:
            return [(src, error_message(exc.code, exc.detail, payment_id=payment_id))]
        in_state.accept_promise(promise)
        ctx = RouteContext(
            payment_id=payment_id or promise.hashlock.hex()[:12],
            hashlock=promise.hashlock,
            in_channel=in_state.params.channel_id,
            out_channel=out_state.params.channel_id,
            in_amount=promise.amount,
            in_expiry=promise.expiry,
            out_amount=outgoing.amount,
            out_expiry=outgoing.expiry,
        )
        self.routes[promise.hashlock] = ctx
        self.active_routes.add(promise.hashlock)
        self._note("routed", payment=payment_id, sender=src, payee=payee,
                   amount=promise.amount, fee=fee)
        if outgoing.sender_sig is None:
            # sealed with the rest of its channel's batch when the batch ends
            self.promises_unsealed.add(ctx.out_channel)
            return []
        return [self._promise_message(ctx, outgoing)]

    def _promise_message(self, ctx: RouteContext, outgoing: Promise) -> tuple[str, WireMessage]:
        payee = self.channels[ctx.out_channel].params.client_id
        return (payee, WireMessage(K_PROMISE, {
            "payment_id": ctx.payment_id,
            "promise": outgoing.to_jsonable(),
        }))

    # Hooks a scripted adversary overrides (see adversaries.py); each
    # returns the honest answer here.

    def _forward_promise(self, out_state: ChannelState, incoming: Promise,
                         amount: int, expiry: int, now: int) -> Promise:
        """The promise to the payee. A CONCURRENT one is left unsealed for
        the end of the batch; a SERIALIZED direction holds one promise at a
        time, so its batch is always one and is sealed (and sent) at once."""
        outgoing = out_state.promise_raw(amount, incoming.hashlock, expiry, now)
        if out_state.params.mode == MODE_CONCURRENT:
            return outgoing
        return out_state.seal_pending(self.sk_for(out_state.params.ledger_id))[0]

    def _should_send_receipt(self) -> bool:
        return True

    def _should_forward_secret(self, ctx: RouteContext) -> bool:
        return True

    def _accept_close(self, src: str, state: ChannelState,
                      balances: dict[str, int], now: int) -> bool:
        channel_id = state.params.channel_id
        busy = any(ctx.state not in TERMINAL_ROUTES
                   and channel_id in (ctx.in_channel, ctx.out_channel)
                   for ctx in self.routes.values())
        if busy or balances != close_balances(state):
            self._note("close_refused", channel=channel_id)
            return False
        return True

    def _initiate_receipt_choice(self, state: ChannelState) -> Receipt | None:
        return state.last_receipt_received

    def _on_secret(self, src: str, body: dict, now: int) -> list[tuple[str, WireMessage]]:
        payment_id = body.get("payment_id")
        secret = SecretMessage.from_jsonable(body["secret"])
        ctx = self.routes.get(secret.hashlock)
        if ctx is None:
            return [(src, error_message("UnknownPromise", "no route for hashlock",
                                        payment_id=payment_id))]
        out_state = self.channels[ctx.out_channel]
        if out_state.params.client_id != src:
            return [(src, error_message("UnknownPromise", "secret from wrong party",
                                        payment_id=payment_id))]
        outbox: list[tuple[str, WireMessage]] = []
        if ctx.state == ROUTE_EXPIRED:
            return [(src, error_message("Expired", "route expired",
                                        payment_id=payment_id))]
        if ctx.state == ROUTE_AWAIT_SECRET:
            if now >= ctx.out_expiry:
                return [(src, error_message("Expired", "outgoing promise expired",
                                            payment_id=payment_id))]
            resolved = SecretMessage(ctx.out_channel, secret.hashlock, secret.preimage)
            if out_state.params.mode == MODE_CONCURRENT:
                # receipted at the end of the delivery batch
                out_state.resolve_secret(resolved, now)
                self.receipts_owed.add(ctx.out_channel)
            else:
                out_state.accept_secret(resolved, self.sk_for(out_state.params.ledger_id), now)
            ctx.state = ROUTE_SECRET_HELD
            self.channels[ctx.in_channel].secrets[ctx.hashlock] = secret.preimage
            self._note("secret_accepted", payment=ctx.payment_id)
        if ctx.state in (ROUTE_SECRET_HELD, ROUTE_SETTLED_IN, ROUTE_SETTLED_OUT):
            # idempotent: a retransmitted secret re-triggers the same replies.
            # The latest receipt covers this credit; while one is owed, it
            # goes out at the end of the batch instead
            receipt = out_state.last_receipt_sent
            if (ctx.hashlock in out_state.resolved_out and not out_state.receipt_owed()
                    and self._should_send_receipt()):
                outbox.append((src, receipt_message(receipt, ctx.payment_id)))
            if ctx.state == ROUTE_SECRET_HELD:
                outbox += self._forward_secret(ctx, now)
        return outbox

    def flush_receipts(self, now: int) -> list[tuple[str, WireMessage]]:
        """End of a delivery batch: seal each channel's forwarded promises
        under one signature, then sign one receipt per channel whose
        resolved credit no receipt acknowledges yet (CONCURRENT channels
        defer both to here). ``hub_tick`` ends with this step; a transport
        that delivers between ticks calls it after each batch.
        """
        if not self.receipts_owed and not self.promises_unsealed:
            return []
        return self._step({"t": "flush", "now": now})

    def _end_batch(self) -> list[tuple[str, WireMessage]]:
        """The batch's sealed promises go out before its receipts, whose
        pending roots commit to them."""
        outbox: list[tuple[str, WireMessage]] = []
        for channel_id in sorted(self.promises_unsealed):
            state = self.channels[channel_id]
            for outgoing in state.seal_pending(self.sk_for(state.params.ledger_id)):
                outbox.append(self._promise_message(self.routes[outgoing.hashlock], outgoing))
        self.promises_unsealed.clear()
        for channel_id in sorted(self.receipts_owed):
            state = self.channels[channel_id]
            receipt = state.issue_receipt(self.sk_for(state.params.ledger_id))
            if self._should_send_receipt():
                outbox.append((state.params.client_id, receipt_message(receipt)))
        self.receipts_owed.clear()
        return outbox

    def _forward_secret(self, ctx: RouteContext, now: int) -> list[tuple[str, WireMessage]]:
        """Reveal the held preimage to the sender. The books count it as
        revealed even when the hook withholds it, so the watchdog's rule
        claims the incoming promise if no receipt covers it."""
        in_state = self.channels[ctx.in_channel]
        if ctx.hashlock not in in_state.pending_in:
            return []
        return self._secret_messages(in_state, [in_state.reveal_secret(ctx.hashlock, now)])

    def _secret_messages(self, in_state: ChannelState,
                         secrets: list[SecretMessage]) -> list[tuple[str, WireMessage]]:
        outbox = []
        for secret in secrets:
            ctx = self.routes[secret.hashlock]
            if self._should_forward_secret(ctx):
                outbox.append((in_state.params.client_id, WireMessage(K_SECRET, {
                    "payment_id": ctx.payment_id,
                    "secret": secret.to_jsonable(),
                })))
        return outbox

    def _on_receipt(self, src: str, body: dict, now: int) -> list[tuple[str, WireMessage]]:
        receipt = Receipt.from_jsonable(body["receipt"])
        state = self.channel_of(src)
        if state is None or state.params.channel_id != receipt.channel_id:
            return [(src, error_message("NoRoute", "unknown channel"))]
        if state.is_last_receipt(receipt):
            self._note("receipt_duplicate", sender=src)
            return []
        reason = state.verify_receipt(receipt)
        if reason is not None:
            self._note("receipt_rejected", sender=src, reason=reason)
            return [(src, error_message(reason, "receipt rejected"))]
        resolved = state.apply_receipt(receipt)
        for hashlock in resolved:
            ctx = self.routes.get(hashlock)
            if ctx is not None and ctx.state == ROUTE_SECRET_HELD:
                self._route_done(ctx, ROUTE_SETTLED_IN)
                self.fees_accrued += ctx.in_amount - ctx.out_amount
                self._note("settled_in", payment=ctx.payment_id)
        return []

    def _on_close_request(self, src: str, body: dict, now: int) -> list[tuple[str, WireMessage]]:
        channel_id = body["channel_id"]
        state = self.channels.get(channel_id)
        reg = self.registry.get(src)
        if state is None or reg is None or reg.channel_id != channel_id:
            return [(src, error_message("NotFound", channel_id))]
        record = ClosingRecord.from_jsonable(body["record"])
        client_sig = Signature(state.params.scheme, bytes.fromhex(body["sig"]))
        if not self.signer.verify(state.params.client_pk, record.signing_bytes, client_sig):
            return [(src, error_message("BadSignature", "closing record signature"))]
        if not self._accept_close(src, state, record.balance_map, now):
            return [(src, error_message("ParamsMismatch", "balance disagreement"))]
        ledger = self.ledgers[state.params.ledger_id]
        hub_sig = self.signer.sign(self.sk_for(state.params.ledger_id), record.signing_bytes)
        try:
            settlement = self._ledger_call(
                ledger.cooperative_close, channel_id, record,
                {src: client_sig, self.config.hub_id: hub_sig})
        except HubpayError as exc:
            return [(src, error_message(exc.code, exc.detail))]
        self._note("cooperative_close", channel=channel_id)
        return [(src, WireMessage(K_CLOSE_OK, {
            "channel_id": channel_id,
            "settlement": settlement if settlement else record.balance_map,
        }))]

    # -- background event handler -----------------------------------------------------

    def hub_tick(self, now: int) -> list[tuple[str, WireMessage]]:
        """Background handler, run once per tick: react to ledger events,
        tend held secrets, expire promises, progress disputes, and
        last, seal the promises and sign the receipts the tick's delivery
        batch left. The receipts' roots then omit the promises this tick
        expired, as the payees' books will when the receipts arrive."""
        return self._step({"t": "tick", "now": now})

    def _tick(self, entry: dict) -> list[tuple[str, WireMessage]]:
        now = entry["now"]
        self._tick_outbox: list[tuple[str, WireMessage]] = []
        self._poll_ledgers(entry)
        self._tend_secrets(now)
        self._sweep_expired(now)
        self._progress_disputes(entry)
        if self.receipts_owed or self.promises_unsealed:
            self._tick_outbox.extend(self._end_batch())
        return self._tick_outbox

    def _poll_ledgers(self, entry: dict) -> None:
        """React to each ledger's events up to the current tick. The tick's
        own submissions (claims, dispute answers, settlements) add events
        at the same tick, which the live hub sees at its next poll; so the
        entry records under ``"polled"`` how many events the live poll took
        from each ledger, and replay, which reads the whole log, takes as
        many."""
        now = entry["now"]
        for ledger_id in sorted(self.ledgers):
            ledger = self.ledgers[ledger_id]
            events = ledger.events_since(self.cursors[ledger_id])
            if self.replaying:
                take = entry.get("polled", {}).get(ledger_id, 0)
                if take > len(events):
                    raise RecoveryError(f"{_step_name(entry)} polled {take} events "
                                        f"of {ledger_id}, the log holds {len(events)}")
            else:
                take = 0
                for event in events:
                    if event.at > now:
                        break
                    take += 1
                if take:
                    entry.setdefault("polled", {})[ledger_id] = take
            events = events[:take]
            self.cursors[ledger_id] += take
            for event in events:
                self._react(ledger, event, now)

    def _react(self, ledger: Ledger, event, now: int) -> None:
        payload = event.payload
        channel_id = payload.get("channel_id")
        state = self.channels.get(channel_id)
        if state is None:
            return
        hub_id = self.config.hub_id
        claimed = watchdog.book_event(state, hub_id, event)
        if not self.replaying:
            # replay only re-learns the books; the live run already answered
            watchdog.answer_event(ledger, state, hub_id, event,
                                  partial(self._note, channel=channel_id))
        if claimed is not None:
            ctx = self.routes.get(claimed)
            if ctx is None:
                return
            if payload["claimant"] == hub_id:
                if ctx.state == ROUTE_SECRET_HELD:
                    self._route_done(ctx, ROUTE_SETTLED_OUT)
                    self.fees_accrued += ctx.in_amount - ctx.out_amount
                    self._note("settled_onchain", payment=ctx.payment_id)
            elif ctx.out_channel == channel_id and ctx.state == ROUTE_AWAIT_SECRET:
                # the payee claimed our outgoing promise on-chain and
                # published the preimage; collect the incoming leg
                ctx.state = ROUTE_SECRET_HELD
                self.channels[ctx.in_channel].secrets[claimed] = bytes.fromhex(payload["preimage"])
                self._note("preimage_harvested", payment=ctx.payment_id)
                self._tick_outbox += self._forward_secret(ctx, now)
        elif event.kind == EV_CLOSED:
            self.closed_channels[channel_id] = payload["settlement"]
            self._note("channel_closed", channel=channel_id,
                       settlement=payload["settlement"])
            for hashlock in sorted(self.active_routes):
                ctx = self.routes[hashlock]
                if ctx.state == ROUTE_SECRET_HELD and ctx.in_channel == channel_id:
                    # closed before a receipt or a claim paid the hub
                    self._route_done(ctx, ROUTE_EXPIRED)
                    self._note("route_lost", payment=ctx.payment_id)
                elif ctx.state == ROUTE_AWAIT_SECRET and channel_id in (ctx.in_channel,
                                                                        ctx.out_channel):
                    self._route_done(ctx, ROUTE_EXPIRED)

    def _route_done(self, ctx: RouteContext, state: str) -> None:
        ctx.state = state
        self.active_routes.discard(ctx.hashlock)

    def _tend_secrets(self, now: int) -> None:
        """Run the watchdog's rule on each channel. The hub re-sends a
        secret only once, as its promise comes within two margins of
        expiry: a busy payer can leave many promises unreceipted for a
        while, and re-sending each every few ticks would flood it."""
        for channel_id in sorted(self.channels):
            state = self.channels[channel_id]
            if not state.revealed_unreceipted:
                continue
            ledger = None if self.replaying else self.ledgers[state.params.ledger_id]
            secrets = watchdog.tend_revealed(
                ledger, state, self.config.hub_id, now,
                margin=self.config.claim_margin_delta, closing=False, resend_every=None,
                payment_of=lambda hashlock: self.routes[hashlock].payment_id,
                note=partial(self._note, channel=channel_id))
            self._tick_outbox += self._secret_messages(state, secrets)

    def _sweep_expired(self, now: int) -> None:
        for channel_id in sorted(self.channels):
            self.channels[channel_id].expire_pending(now)
        for hashlock in sorted(self.active_routes):
            ctx = self.routes[hashlock]
            if ctx.state == ROUTE_AWAIT_SECRET and now >= ctx.out_expiry:
                self._route_done(ctx, ROUTE_EXPIRED)
                self._note("route_expired", payment=ctx.payment_id)
            elif ctx.state == ROUTE_SECRET_HELD and now >= ctx.in_expiry:
                self._route_done(ctx, ROUTE_EXPIRED)
                self._note("route_lost", payment=ctx.payment_id)

    def _progress_disputes(self, entry: dict) -> None:
        """Settle each disputed channel whose window has passed. Replay
        suppresses the ledger call, so the entry names the channels the
        live hub settled under ``"finalized"``."""
        if self.replaying:
            self.finalize_submitted.update(entry.get("finalized", ()))
            return
        for channel_id in sorted(self.channels):
            if channel_id in self.finalize_submitted:
                continue
            state = self.channels[channel_id]
            if watchdog.finalize_when_due(self.ledgers[state.params.ledger_id], state,
                                          entry["now"], self._note):
                self.finalize_submitted.add(channel_id)
                entry.setdefault("finalized", []).append(channel_id)

    def initiate_close(self, client_id: str, now: int) -> None:
        """Hub-initiated unilateral close of a client channel."""
        reg = self.registry.get(client_id)
        if reg is None:
            return
        state = self.channels[reg.channel_id]
        ledger = self.ledgers[state.params.ledger_id]
        contract = ledger.contracts.get(reg.channel_id)
        if contract is None or contract.status != STATUS_OPEN:
            return
        try:
            self._ledger_call(ledger.initiate_dispute, reg.channel_id,
                              self.config.hub_id, self._initiate_receipt_choice(state))
            self._note("dispute_opened", channel=reg.channel_id)
        except HubpayError as exc:
            self._note("dispute_open_failed", channel=reg.channel_id, code=exc.code)

    # -- persistence ---------------------------------------------------------------

    def persist_state(self) -> dict:
        return {
            "registry": {cid: r.to_jsonable() for cid, r in sorted(self.registry.items())},
            "channels": {cid: s.to_jsonable() for cid, s in sorted(self.channels.items())},
            "routes": {h.hex(): c.to_jsonable() for h, c in sorted(self.routes.items())},
            "cursors": dict(sorted(self.cursors.items())),
            "channel_counter": self.channel_counter,
            "fees_accrued": self.fees_accrued,
            "closed_channels": dict(sorted(self.closed_channels.items())),
            "finalize_submitted": sorted(self.finalize_submitted),
        }

    def persist_json(self) -> str:
        return json.dumps(self.persist_state(), sort_keys=True, separators=(",", ":"))

    def snapshot_now(self) -> dict:
        snap = self.persist_state()
        self.store.set_snapshot(snap)
        return snap

    def _load_state(self, snap: dict) -> None:
        try:
            self.registry = {cid: Registration(**r) for cid, r in snap["registry"].items()}
            self.channels = {cid: ChannelState.from_jsonable(s)
                             for cid, s in snap["channels"].items()}
            for state in self.channels.values():
                state.signer = self.signer
            self.routes = {bytes.fromhex(h): RouteContext.from_jsonable(c)
                           for h, c in snap["routes"].items()}
            self.active_routes = {h for h, c in self.routes.items()
                                  if c.state not in TERMINAL_ROUTES}
            self.cursors = {lid: int(v) for lid, v in snap["cursors"].items()}
            self.channel_counter = int(snap["channel_counter"])
            self.fees_accrued = int(snap["fees_accrued"])
            self.closed_channels = dict(snap["closed_channels"])
            self.finalize_submitted = set(snap["finalize_submitted"])
            self.receipts_owed = {cid for cid, state in self.channels.items()
                                  if state.receipt_owed()}
            self.promises_unsealed = {cid for cid, state in self.channels.items()
                                      if state.holds_unsealed()}
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise RecoveryError(f"corrupt snapshot: {exc}") from exc

    @classmethod
    def recover(cls, config: HubConfig, ledgers: dict[str, Ledger],
                store: HubStore, **init) -> "HubCore":
        """Rebuild a hub from its snapshot plus the journal written since.
        The live hub checkpoints whenever its journal reaches
        ``max(CHECKPOINT_FLOOR, len(routes))`` entries, so recovery is a
        snapshot load plus at most that many replayed entries.

        Journal replay re-runs the original steps with ledger submissions
        and outbox delivery suppressed; ledger-derived state is re-learned by
        polling the (already written) event log. Replay makes no signature
        and checks none: each entry hands back the signatures and the failed
        checks of its live step (see ``StepCrypto``). So the journal is
        trusted as the snapshot is, whose signatures are not checked again
        either, and a frame the live hub refused is refused again.
        ``init`` goes to the constructor of ``cls``.
        """
        hub = cls(config, ledgers, store=store, **init)
        if store.snapshot is not None:
            hub._load_state(store.snapshot)
        hub.replaying = True
        try:
            for entry in store.journal:
                hub._step(entry)
        except HubpayError:
            raise
        except Exception as exc:
            raise RecoveryError(f"journal replay failed: {exc}") from exc
        finally:
            hub.replaying = False
        hub.trace.clear()
        return hub
