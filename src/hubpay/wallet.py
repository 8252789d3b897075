"""Wallet-side agent: payment orchestration and the background event handler.

A wallet owns exactly one channel with the hub. Sending follows the payer
leg (promise out, secret in, receipt out) and receiving follows the payee
leg (proposal out, promise in, secret out, receipt in). The tick handler
deletes expired promises, re-sends unanswered secrets and claims promises
on-chain by the watchdog's rule (``watchdog.tend_revealed``), answers
disputes, and drives channel closure down the cooperative path first and the
dispute path on timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from . import crypto, watchdog
from .channel import ChannelState, close_balances
from .crypto import generate_keypair
from .errors import HubpayError
from .ledger import EV_CLOSED, EV_DISPUTE_OPENED, STATUS_CLOSING, STATUS_OPEN, Ledger
from .messages import (
    MODE_CONCURRENT,
    MODE_SERIALIZED,
    ChannelParams,
    ClosingRecord,
    PaymentProposal,
    Promise,
    Receipt,
    SecretMessage,
)
from .wire import (
    K_CLOSE_OK,
    K_CLOSE_REQUEST,
    K_ERROR,
    K_PROMISE,
    K_PROPOSAL_RELAY,
    K_RECEIPT,
    K_REGISTER,
    K_REGISTER_OK,
    K_SECRET,
    WireMessage,
    receipt_message,
)

# sender flow states
S_REQUESTED = "REQUESTED"
S_PROMISED = "PROMISED"
# payee flow states
P_INVOICED = "INVOICED"
P_AWAIT_RECEIPT = "AWAIT_RECEIPT"

OUT_PAID = "PAID"
OUT_RECEIVED = "RECEIVED"
OUT_FAILED = "FAILED"
OUT_CLAIMED = "CLAIM_ON_CHAIN"


@dataclass
class PaymentFlow:
    payment_id: str
    role: str                     # "sender" | "payee"
    counterparty: str
    amount: int
    expiry_delta: int
    state: str
    created_at: int
    proposal: PaymentProposal | None = None
    promise: Promise | None = None
    outcome: str | None = None
    reason: str | None = None


@dataclass
class WalletConfig:
    client_id: str
    ledger_id: str
    mode: str = MODE_SERIALIZED
    claim_threshold: int = 5
    poll_interval: int = 2
    close_timeout: int = 20
    key_seed: bytes = b""

    def __post_init__(self):
        if self.claim_threshold < 1:
            raise ValueError("claim_threshold must be >= 1")
        if not self.key_seed:
            self.key_seed = f"wallet-{self.client_id}".encode()


class WalletCore:
    """Transport-independent wallet logic; outbox messages address the hub."""

    def __init__(self, config: WalletConfig, ledger: Ledger, rng: Random | None = None):
        self.config = config
        self.ledger = ledger
        self.rng = rng or Random(config.key_seed)
        self.sk, self.pk = generate_keypair(ledger.scheme, config.key_seed)
        self.state: ChannelState | None = None
        self.channel_id: str | None = None
        self.verified = False
        self.verify_failure: str | None = None
        self.fee_bps = 0
        self.flows: dict[str, PaymentFlow] = {}
        self.open_flows: set[str] = set()
        self.flow_by_hashlock: dict[bytes, str] = {}
        self.payment_log: list[dict] = []
        self.cursor = 0
        self.closing = False
        self.close_requested_at: int | None = None
        self.coop_sent_at: int | None = None
        self.coop_refused = False
        self.dispute_initiated = False
        self.finalize_submitted = False
        self.settlement: dict | None = None
        self.open_invoices: list[dict] = []
        self.auto_accept_invoices = True
        self.trace: list[dict] = []

    @property
    def client_id(self) -> str:
        return self.config.client_id

    def _note(self, action: str, **info) -> None:
        entry = {"action": action}
        entry.update(info)
        self.trace.append(entry)

    def _finish(self, flow: PaymentFlow, outcome: str, reason: str | None = None) -> None:
        if flow.outcome is not None:
            return
        flow.outcome = outcome
        flow.reason = reason
        self.open_flows.discard(flow.payment_id)
        self.payment_log.append({
            "payment_id": flow.payment_id,
            "direction": "out" if flow.role == "sender" else "in",
            "amount": flow.amount,
            "outcome": outcome,
            "reason": reason,
        })
        self._note("payment_done", payment=flow.payment_id, outcome=outcome, reason=reason)

    def net_of_fees(self, amount: int) -> int:
        return amount - amount * self.fee_bps // 10000

    # -- registration -------------------------------------------------------------

    def start_register(self) -> list[tuple[str, WireMessage]]:
        return [("hub", WireMessage(K_REGISTER, {
            "client_id": self.client_id,
            "scheme": self.pk.scheme,
            "pk": self.pk.data.hex(),
            "ledger_id": self.config.ledger_id,
            "mode": self.config.mode,
        }))]

    def verify_deployment(self, view: dict, expected: ChannelParams) -> tuple[bool, str | None]:
        """Check the on-ledger contract against what was agreed off-chain."""
        if view is None:
            return False, "NotFound"
        params = ChannelParams.from_jsonable(view["params"])
        if view["status"] != STATUS_OPEN:
            return False, "ParamsMismatch"
        if params.canonical_bytes != expected.canonical_bytes:
            return False, "ParamsMismatch"
        if params.client_pk != self.pk or params.client_id != self.client_id:
            return False, "ParamsMismatch"
        if params.mode != self.config.mode or params.ledger_id != self.config.ledger_id:
            return False, "ParamsMismatch"
        if params.claim_margin_delta <= self.config.claim_threshold:
            # not enough slack left to claim a near-expiry promise on-chain
            return False, "ParamsMismatch"
        return True, None

    def _on_register_ok(self, body: dict, now: int) -> None:
        params = ChannelParams.from_jsonable(body["params"])
        self.channel_id = body["channel_id"]
        self.fee_bps = int(body.get("fee_bps", 0))
        try:
            view = self.ledger.read_state(self.channel_id)
        except HubpayError:
            view = None
        ok, reason = self.verify_deployment(view, params)
        if not ok:
            self.verify_failure = reason
            self._note("deployment_rejected", reason=reason)
            return
        self.state = ChannelState(params=params, owner=self.client_id)
        self.verified = True
        self._note("registered", channel=self.channel_id)

    # -- user actions ----------------------------------------------------------------

    def deposit(self, amount: int) -> None:
        from .errors import BadStatus

        if not self.verified or self.channel_id is None:
            raise BadStatus("deposit before verified registration")
        self.ledger.deposit(self.channel_id, self.client_id, amount)

    def start_payment(self, payment_id: str, payee: str, amount: int,
                      expiry_delta: int, now: int) -> list[tuple[str, WireMessage]]:
        flow = PaymentFlow(payment_id, "sender", payee, amount, expiry_delta,
                           S_REQUESTED, now)
        self.flows[payment_id] = flow
        self.open_flows.add(payment_id)
        if not self.verified or self.state is None:
            self._finish(flow, OUT_FAILED, "NotRegistered")
            return []
        return [("hub", WireMessage(K_PROPOSAL_RELAY, {
            "payment_id": payment_id,
            "to": payee,
            "amount": amount,
            "expiry_delta": expiry_delta,
        }))]

    def open_invoice(self, payment_id: str, amount: int, expiry_delta: int,
                     payer: str | None = None) -> None:
        """Pre-authorize one incoming payment (CLI surface); simulation
        wallets accept any request when auto_accept_invoices is set."""
        self.open_invoices.append({"payment_id": payment_id, "amount": amount,
                                   "expiry_delta": expiry_delta, "payer": payer})

    def issue_proposal(self, payment_id: str, payer: str, amount: int,
                       expiry_delta: int, now: int) -> PaymentProposal:
        """Out-of-band invoice (the point-of-sale path): hand the proposal to
        the payer directly instead of relaying it through the hub."""
        assert self.state is not None
        proposal, _ = self.state.make_proposal(
            f"prop-{payment_id}", amount, now + expiry_delta, now, self.rng)
        flow = PaymentFlow(payment_id, "payee", payer, amount, expiry_delta,
                           P_INVOICED, now, proposal=proposal)
        self.flows[payment_id] = flow
        self.open_flows.add(payment_id)
        self.flow_by_hashlock[proposal.hashlock] = payment_id
        return proposal

    def start_payment_with_proposal(self, payment_id: str, payee: str,
                                    proposal: PaymentProposal,
                                    now: int) -> list[tuple[str, WireMessage]]:
        """Sender path for an out-of-band proposal: skip the relay round trip
        and promise immediately."""
        flow = PaymentFlow(payment_id, "sender", payee, proposal.amount,
                           proposal.expiry - now, S_REQUESTED, now)
        self.flows[payment_id] = flow
        self.open_flows.add(payment_id)
        if not self.verified or self.state is None:
            self._finish(flow, OUT_FAILED, "NotRegistered")
            return []
        return self._promise(flow, proposal, now)

    def _promise(self, flow: PaymentFlow, proposal: PaymentProposal,
                 now: int) -> list[tuple[str, WireMessage]]:
        """The payer's one promise path: book the promise unsealed, and seal
        and send it at once when no earlier promise is unresolved. Otherwise
        it is held until the call that ends the batch (``_send_held``)."""
        flow.proposal = proposal
        if not self._contract_open():
            self._finish(flow, OUT_FAILED, "ChannelClosed")
            return []
        try:
            promise = self.state.promise_raw(proposal.amount, proposal.hashlock,
                                             proposal.expiry, now)
        except HubpayError as exc:
            self._finish(flow, OUT_FAILED, exc.code)
            return []
        flow.promise = promise
        flow.state = S_PROMISED
        self.flow_by_hashlock[promise.hashlock] = flow.payment_id
        return self._send_held(now) if len(self.state.pending_out) == 1 else []

    def _send_held(self, now: int) -> list[tuple[str, WireMessage]]:
        """Seal every held promise as one batch and send them in index
        order. A held promise that has expired, or whose channel is no
        longer open, is dropped instead and its flow fails."""
        state = self.state
        if state is None or not state.holds_unsealed():
            return []
        is_open = self._contract_open()
        for hashlock, promise in list(state.pending_out.items()):
            if promise.sender_sig is None and (promise.expiry <= now or not is_open):
                state.drop_promise(hashlock)
                self._finish(self.flows[self.flow_by_hashlock[hashlock]], OUT_FAILED,
                             "Timeout" if is_open else "ChannelClosed")
        outbox = []
        for promise in state.seal_pending(self.sk):
            flow = self.flows[self.flow_by_hashlock[promise.hashlock]]
            flow.promise = promise
            outbox.append(("hub", WireMessage(K_PROMISE, {
                "payment_id": flow.payment_id,
                "payee": flow.counterparty,
                "promise": promise.to_jsonable(),
            })))
        return outbox

    def start_close(self, now: int) -> None:
        self.closing = True
        if self.close_requested_at is None:
            self.close_requested_at = now

    # -- inbound messages ----------------------------------------------------------------

    def handle_message(self, src: str, msg: WireMessage, now: int) -> list[tuple[str, WireMessage]]:
        """Answer one message from the hub, then send the promises held
        while an earlier one was unresolved: this message may be the
        answer to it."""
        return self._answer(msg, now) + self._send_held(now)

    def _answer(self, msg: WireMessage, now: int) -> list[tuple[str, WireMessage]]:
        if msg.kind == K_REGISTER_OK:
            self._on_register_ok(msg.body, now)
            return []
        if msg.kind == K_PROPOSAL_RELAY:
            return self._on_proposal_relay(msg.body, now)
        if msg.kind == K_PROMISE:
            return self._on_promise(msg.body, now)
        if msg.kind == K_SECRET:
            return self._on_secret(msg.body, now)
        if msg.kind == K_RECEIPT:
            return self._on_receipt(msg.body, now)
        if msg.kind == K_CLOSE_OK:
            self._note("close_accepted", channel=msg.body.get("channel_id"))
            return []
        if msg.kind == K_ERROR:
            return self._on_error(msg.body, now)
        return []

    def _on_error(self, body: dict, now: int) -> list[tuple[str, WireMessage]]:
        payment_id = body.get("payment_id")
        code = body.get("code", "Error")
        if payment_id and payment_id in self.flows:
            flow = self.flows[payment_id]
            if flow.outcome is None and flow.state in (S_REQUESTED, S_PROMISED, P_INVOICED):
                if flow.state == S_PROMISED and flow.promise.hashlock in self.state.pending_out:
                    # the hub refused the promise; later receipts' roots must
                    # not commit to it
                    self.state.drop_promise(flow.promise.hashlock)
                self._finish(flow, OUT_FAILED, code)
        elif code in ("ParamsMismatch", "BadSignature", "NotFound") and self.closing:
            self.coop_refused = True
            self._note("close_refused", code=code)
        else:
            self._note("hub_error", code=code, detail=body.get("detail"))
        return []

    def _accept_invoice_request(self, body: dict) -> bool:
        if self.auto_accept_invoices:
            return True
        for i, inv in enumerate(self.open_invoices):
            if inv["amount"] == body["amount"] and inv["payer"] in (None, body["from"]):
                self.open_invoices.pop(i)
                return True
        return False

    def _contract_open(self) -> bool:
        if self.channel_id is None:
            return False
        contract = self.ledger.contracts.get(self.channel_id)
        return contract is not None and contract.status == STATUS_OPEN

    def _on_proposal_relay(self, body: dict, now: int) -> list[tuple[str, WireMessage]]:
        if body.get("proposal") is None:
            # payer asks for an invoice
            if (self.state is None or not self._contract_open()
                    or not self._accept_invoice_request(body)):
                return []
            payment_id = body["payment_id"]
            expiry = now + int(body["expiry_delta"])
            try:
                proposal, _ = self.state.make_proposal(
                    f"prop-{payment_id}", int(body["amount"]), expiry, now, self.rng)
            except HubpayError as exc:
                self._note("invoice_failed", payment=payment_id, code=exc.code)
                return []
            flow = PaymentFlow(payment_id, "payee", body["from"], int(body["amount"]),
                               int(body["expiry_delta"]), P_INVOICED, now,
                               proposal=proposal)
            self.flows[payment_id] = flow
            self.open_flows.add(payment_id)
            self.flow_by_hashlock[proposal.hashlock] = payment_id
            return [("hub", WireMessage(K_PROPOSAL_RELAY, {
                "payment_id": payment_id,
                "to": body["from"],
                "amount": int(body["amount"]),
                "proposal": proposal.to_jsonable(),
            }))]
        # proposal delivery back to the payer
        flow = self.flows.get(body.get("payment_id"))
        if flow is None or flow.role != "sender" or flow.state != S_REQUESTED:
            return []
        proposal = PaymentProposal.from_jsonable(body["proposal"])
        if proposal.amount != flow.amount or proposal.expiry <= now:
            self._finish(flow, OUT_FAILED, "BadProposal")
            return []
        return self._promise(flow, proposal, now)

    # Hooks a scripted adversary overrides (see adversaries.py); each
    # returns the honest answer here.

    def _should_reveal_secret(self, flow: PaymentFlow) -> bool:
        return True

    def _should_send_receipt(self, flow: PaymentFlow) -> bool:
        return True

    def _on_promise(self, body: dict, now: int) -> list[tuple[str, WireMessage]]:
        flow = self.flows.get(body.get("payment_id"))
        if (flow is None or flow.role != "payee" or flow.state != P_INVOICED
                or flow.outcome is not None):
            return []
        assert self.state is not None and flow.proposal is not None
        promise = Promise.from_jsonable(body["promise"])
        if promise.hashlock != flow.proposal.hashlock:
            self._note("promise_mismatch", payment=flow.payment_id)
            return []
        if not self._contract_open():
            # never reveal a secret against a contract that cannot pay out
            self._finish(flow, OUT_FAILED, "ChannelClosed")
            return []
        if promise.amount < self.net_of_fees(flow.amount):
            self._finish(flow, OUT_FAILED, "InvalidAmount")
            return []
        reason = self.state.verify_promise(promise, now,
                                           min_margin=self.config.claim_threshold)
        if reason is not None:
            self._finish(flow, OUT_FAILED, reason)
            return []
        self.state.accept_promise(promise)
        flow.promise = promise
        if not self._should_reveal_secret(flow):
            self._note("secret_withheld", payment=flow.payment_id)
            flow.state = P_AWAIT_RECEIPT  # never reveals; promise will expire
            return []
        flow.state = P_AWAIT_RECEIPT
        return [self._secret_message(self.state.reveal_secret(promise.hashlock, now))]

    def _secret_message(self, secret: SecretMessage) -> tuple[str, WireMessage]:
        return ("hub", WireMessage(K_SECRET, {
            "payment_id": self.flow_by_hashlock.get(secret.hashlock),
            "secret": secret.to_jsonable(),
        }))

    def _on_secret(self, body: dict, now: int) -> list[tuple[str, WireMessage]]:
        secret = SecretMessage.from_jsonable(body["secret"])
        payment_id = self.flow_by_hashlock.get(secret.hashlock)
        flow = self.flows.get(payment_id) if payment_id else None
        if flow is None or flow.role != "sender":
            return []
        assert self.state is not None and flow.proposal is not None
        if crypto.hash_commit(secret.preimage) != flow.proposal.hashlock:
            self._note("bad_preimage", payment=flow.payment_id)
            return []
        if not self._should_send_receipt(flow):
            self._note("receipt_withheld", payment=flow.payment_id)
            return []
        if flow.outcome is not None or flow.state != S_PROMISED:
            # duplicate forward after settlement: re-send the latest receipt
            # so a hub that lost the first copy need not claim on-chain; an
            # owed receipt goes out at the end of the batch instead
            receipt = self.state.last_receipt_sent
            if receipt is not None and not self.state.receipt_owed():
                return [("hub", receipt_message(receipt, flow.payment_id))]
            return []
        try:
            promise = self.state.resolve_secret(secret, now)
        except HubpayError as exc:
            self._note("secret_rejected", payment=flow.payment_id, code=exc.code)
            return []
        self._finish(flow, OUT_PAID)
        if self.state.params.mode == MODE_CONCURRENT:
            # one receipt for the whole delivery batch: the caller ends each
            # batch with client_tick or flush_receipts, which sign it
            return []
        receipt = self.state.issue_receipt(self.sk, promise.index)
        return [("hub", receipt_message(receipt, flow.payment_id))]

    def flush_receipts(self, now: int) -> list[tuple[str, WireMessage]]:
        """End of a delivery batch: send the held promises (``_send_held``),
        then one receipt for every secret resolved since the last receipt,
        or none when none is owed. The promises go first, since the
        receipt's pending root commits to them."""
        outbox = self._send_held(now)
        if self.state is not None and self.state.receipt_owed():
            outbox.append(("hub", receipt_message(self.state.issue_receipt(self.sk))))
        return outbox

    def _on_receipt(self, body: dict, now: int) -> list[tuple[str, WireMessage]]:
        if self.state is None:
            return []
        receipt = Receipt.from_jsonable(body["receipt"])
        if self.state.is_last_receipt(receipt):
            self._note("receipt_duplicate")
            return []
        reason = self.state.verify_receipt(receipt)
        if reason is not None:
            self._note("receipt_rejected", reason=reason)
            return []
        resolved = self.state.apply_receipt(receipt)
        for hashlock in resolved:
            payment_id = self.flow_by_hashlock.get(hashlock)
            if payment_id and payment_id in self.flows:
                flow = self.flows[payment_id]
                if flow.role == "payee":
                    self._finish(flow, OUT_RECEIVED)
        return []

    # -- background event handler -----------------------------------------------------------

    def client_tick(self, now: int) -> list[tuple[str, WireMessage]]:
        """Background handler, run once per tick. It ends a batch
        (``flush_receipts``) after expiry, so held promises that expired
        stay unsent and the receipts' roots omit them, and before closing,
        so the hub's books match the close request."""
        outbox: list[tuple[str, WireMessage]] = []
        self._poll_events(now)
        if self.state is None:
            return outbox
        self._expire(now)
        outbox.extend(self.flush_receipts(now))
        if self.state.revealed_unreceipted:
            for secret in watchdog.tend_revealed(
                    self.ledger, self.state, self.client_id, now,
                    margin=self.config.claim_threshold, closing=self.closing,
                    resend_every=self.config.poll_interval,
                    payment_of=self.flow_by_hashlock.get, note=self._note):
                outbox.append(self._secret_message(secret))
        outbox.extend(self.close_messages(now))
        return outbox

    def _poll_events(self, now: int) -> None:
        if self.state is None:
            # hold the cursor until the channel exists; earlier events
            # (deployment, the hub's float deposit) replay after verification
            return
        events = self.ledger.events_since(self.cursor)
        self.cursor += len(events)
        for event in events:
            payload = event.payload
            if payload.get("channel_id") != self.channel_id:
                continue
            claimed = watchdog.book_event(self.state, self.client_id, event)
            watchdog.answer_event(self.ledger, self.state, self.client_id, event, self._note)
            if claimed is not None:
                flow = self.flows.get(self.flow_by_hashlock.get(claimed))
                if flow is None:
                    continue
                if payload["claimant"] == self.client_id:
                    self._finish(flow, OUT_CLAIMED)
                elif flow.role == "sender":
                    # hub collected on-chain; the payment went through
                    self._finish(flow, OUT_PAID, "onchain")
            elif event.kind == EV_DISPUTE_OPENED:
                self.closing = True
            elif event.kind == EV_CLOSED:
                self.settlement = payload["settlement"]
                self._note("settled", settlement=self.settlement)
                for payment_id in sorted(self.open_flows):
                    self._finish(self.flows[payment_id], OUT_FAILED, "ChannelClosed")

    def _expire(self, now: int) -> None:
        assert self.state is not None
        self.state.expire_pending(now)
        for payment_id in sorted(self.open_flows):
            flow = self.flows[payment_id]
            if flow.role == "sender" and flow.state == S_REQUESTED:
                if now - flow.created_at >= flow.expiry_delta:
                    self._finish(flow, OUT_FAILED, "Timeout")
            elif flow.role == "sender" and flow.state == S_PROMISED:
                if flow.promise is not None and now >= flow.promise.expiry:
                    self._finish(flow, OUT_FAILED, "Timeout")
            elif flow.role == "payee":
                promise_dead = flow.promise is not None and now >= flow.promise.expiry
                invoice_dead = (flow.promise is None and flow.proposal is not None
                                and now >= flow.proposal.expiry)
                if promise_dead or invoice_dead:
                    self._finish(flow, OUT_FAILED, "Timeout")

    def close_messages(self, now: int) -> list[tuple[str, WireMessage]]:
        """Cooperative-close attempt and dispute escalation; called each tick."""
        if not self.closing or self.state is None or self.settlement is not None:
            return []
        contract = self.ledger.contracts.get(self.channel_id)
        if contract is None:
            return []
        if contract.status == STATUS_OPEN:
            return self._close_open_channel(now)
        if contract.status == STATUS_CLOSING and not self.finalize_submitted:
            self.finalize_submitted = watchdog.finalize_when_due(
                self.ledger, self.state, now, self._note)
        return []

    def _close_open_channel(self, now: int) -> list[tuple[str, WireMessage]]:
        """Close an OPEN channel (a hook, like those above): ask the hub to
        close cooperatively once nothing is in flight, and open a dispute
        when it refuses or times out."""
        assert self.state is not None
        if self.coop_sent_at is None:
            if self.open_flows:
                return []
            record = ClosingRecord.make(self.channel_id, close_balances(self.state))
            sig = crypto.sign(self.sk, record.signing_bytes)
            self.coop_sent_at = now
            return [("hub", WireMessage(K_CLOSE_REQUEST, {
                "channel_id": self.channel_id,
                "record": record.to_jsonable(),
                "sig": sig.data.hex(),
            }))]
        if not self.dispute_initiated and (
                self.coop_refused or now - self.coop_sent_at >= self.config.close_timeout):
            self.dispute_initiated = True
            try:
                self.ledger.initiate_dispute(self.channel_id, self.client_id,
                                             self.state.last_receipt_received)
                self._note("dispute_opened", channel=self.channel_id)
            except HubpayError as exc:
                self._note("dispute_open_failed", code=exc.code)
        return []
