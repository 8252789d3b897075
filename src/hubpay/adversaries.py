"""Scripted adversaries: a hub and a wallet that deviate on command.

``HubCore`` and ``WalletCore`` are honest only. Every scripted behaviour
lives here, in subclasses that override the cores' named hooks (forward a
promise, send a receipt, reveal or forward a secret, accept or open a
close) and add ``attack``, a per-tick pass that forges or replays whole
messages and on-chain claims. The simulation builds these classes for every
actor and turns behaviours on through ``behaviors``, at start or mid-run;
with none set each class answers every hook as the honest core does. Every
active attack is one-shot and records its outcome in the actor's trace.
"""

from __future__ import annotations

from .channel import ChannelState, seal_promises
from .crypto import hash_commit, new_preimage
from .errors import HubpayError
from .hub import ROUTE_SETTLED_IN, HubCore, RouteContext
from .ledger import STATUS_CLOSING, STATUS_OPEN, Ledger
from .messages import Promise, Receipt
from .wallet import OUT_PAID, OUT_RECEIVED, PaymentFlow, WalletCore
from .wire import K_PROMISE, WireMessage

Outbox = list[tuple[str, WireMessage]]


class ScriptedHub(HubCore):
    """A hub that misbehaves as its ``behaviors`` direct."""

    def __init__(self, *args, behaviors=(), **kwargs):
        super().__init__(*args, **kwargs)
        # given here too, so a recovered hub replays its journal as it ran
        self.behaviors: set[str] = set(behaviors)
        self.attacks_done: set[str] = set()
        # the first receipt this hub issued on each channel, by channel id,
        # and the (incoming, outgoing) promises of each route, by hashlock,
        # while an attack needs them; a restarted hub starts with none
        self.first_receipts: dict[str, Receipt] = {}
        self.route_promises: dict[bytes, tuple[Promise, Promise]] = {}

    def _forward_promise(self, out_state: ChannelState, incoming: Promise,
                         amount: int, expiry: int, now: int) -> Promise:
        if "OVERSPEND_PROMISE" not in self.behaviors:
            return super()._forward_promise(out_state, incoming, amount, expiry, now)
        # seal a forwarded promise far beyond the route's backing, as a
        # batch of one that goes out at once, bypassing the hub's own
        # capacity accounting
        amount = out_state.available_balance() + incoming.amount + 1_000
        outgoing = Promise(out_state.params.channel_id, self.config.hub_id,
                           out_state.next_out_index, amount, incoming.hashlock, expiry)
        out_state.next_out_index += 1
        return seal_promises([outgoing], self.sk_for(out_state.params.ledger_id),
                             self.signer)[0]

    def _should_send_receipt(self) -> bool:
        return "WITHHOLD_RECEIPT" not in self.behaviors

    def _should_forward_secret(self, ctx: RouteContext) -> bool:
        return "WITHHOLD_SECRET" not in self.behaviors

    def _accept_close(self, src: str, state: ChannelState,
                      balances: dict[str, int], now: int) -> bool:
        if "STALE_RECEIPT_DISPUTE" in self.behaviors:
            # race the client to the contract with an understated receipt
            self.initiate_close(src, now)
            return False
        if self.behaviors:
            # a misbehaving hub stonewalls cooperative closes
            self._note("close_refused", channel=state.params.channel_id)
            return False
        return super()._accept_close(src, state, balances, now)

    def _initiate_receipt_choice(self, state: ChannelState) -> Receipt | None:
        first = self.first_receipts.get(state.params.channel_id)
        if "STALE_RECEIPT_DISPUTE" in self.behaviors and first:
            # understate the counterparty's credit with an old self-issued receipt
            return first
        return super()._initiate_receipt_choice(state)

    def attack(self, now: int) -> Outbox:
        """Run the active attacks the behaviours demand; the caller sends
        the returned outbox. Runs every tick, so it also keeps the first
        receipt issued on each channel for a later stale dispute and, while
        a replay or a double claim is wanted, the promises of each route
        before its books drop them."""
        for channel_id, state in self.channels.items():
            if channel_id not in self.first_receipts and state.last_receipt_sent:
                self.first_receipts[channel_id] = state.last_receipt_sent
        if self.behaviors & {"REPLAY_PROMISE", "DOUBLE_CLAIM"}:
            for hashlock in self.active_routes - self.route_promises.keys():
                ctx = self.routes[hashlock]
                incoming = self.channels[ctx.in_channel].pending_in.get(hashlock)
                outgoing = self.channels[ctx.out_channel].pending_out.get(hashlock)
                if incoming is not None and outgoing is not None:
                    self.route_promises[hashlock] = (incoming, outgoing)
        outbox: Outbox = []
        if "REPLAY_PROMISE" in self.behaviors and "replay" not in self.attacks_done:
            outbox += self._replay()
        if "DOUBLE_CLAIM" in self.behaviors and "double_claim" not in self.attacks_done:
            self._double_claim()
        return outbox

    def _replay(self) -> Outbox:
        for hashlock in sorted(self.route_promises):
            ctx = self.routes[hashlock]
            if ctx.state == ROUTE_SETTLED_IN:
                self.attacks_done.add("replay")
                payee = self.channels[ctx.out_channel].params.client_id
                self._note("attack_replay", payment=ctx.payment_id)
                return [(payee, WireMessage(K_PROMISE, {
                    "payment_id": ctx.payment_id,
                    "promise": self.route_promises[hashlock][1].to_jsonable(),
                }))]
        return []

    def _double_claim(self) -> None:
        """The hub's incoming credit is already receipted; submit that
        receipt in a dispute and then claim the covered incoming promise."""
        for hashlock in sorted(self.route_promises):
            ctx = self.routes[hashlock]
            state = self.channels[ctx.in_channel]
            if ctx.state == ROUTE_SETTLED_IN and hashlock in state.secrets:
                _claim_covered_promise(self, self.ledgers[state.params.ledger_id], state,
                                       self.config.hub_id, self.route_promises[hashlock][0],
                                       state.secrets[hashlock], ctx.payment_id)
                return


class ScriptedWallet(WalletCore):
    """A wallet that misbehaves as its ``behaviors`` direct."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.behaviors: set[str] = set()
        self.attacks_done: set[str] = set()
        # the client an overspending promise is addressed to
        self.overspend_payee: str | None = None
        # the first receipt this wallet issued
        self.first_receipt: Receipt | None = None

    def _should_reveal_secret(self, flow: PaymentFlow) -> bool:
        return "WITHHOLD_SECRET" not in self.behaviors

    def _should_send_receipt(self, flow: PaymentFlow) -> bool:
        return "WITHHOLD_RECEIPT" not in self.behaviors

    def _close_open_channel(self, now: int) -> Outbox:
        if "STALE_RECEIPT_DISPUTE" not in self.behaviors:
            return super()._close_open_channel(now)
        if not self.dispute_initiated:
            # skip cooperation; open the dispute with an old self-issued
            # receipt that understates this wallet's own debt
            self.dispute_initiated = True
            try:
                self.ledger.initiate_dispute(self.channel_id, self.client_id,
                                             self.first_receipt)
                self._note("dispute_opened_stale", channel=self.channel_id)
            except HubpayError as exc:
                self._note("dispute_open_failed", code=exc.code)
        return []

    def attack(self, now: int) -> Outbox:
        """Run the active attacks the behaviours demand; the caller sends
        the returned outbox. Runs every tick, so it also keeps the first
        receipt this wallet issued for a later stale dispute."""
        if self.first_receipt is None and self.state is not None:
            self.first_receipt = self.state.last_receipt_sent
        outbox: Outbox = []
        if "OVERSPEND_PROMISE" in self.behaviors and "overspend" not in self.attacks_done:
            outbox += self._overspend(now)
        if "REPLAY_PROMISE" in self.behaviors and "replay" not in self.attacks_done:
            outbox += self._replay()
        if "DOUBLE_CLAIM" in self.behaviors and "double_claim" not in self.attacks_done:
            self._double_claim()
        return outbox

    def _overspend(self, now: int) -> Outbox:
        state = self.state
        if state is None or self.overspend_payee is None or state.my_deposit == 0:
            return []
        self.attacks_done.add("overspend")
        amount = state.available_balance() + 10_000
        hashlock = hash_commit(new_preimage(self.rng))
        promise = Promise(state.params.channel_id, self.client_id,
                          state.next_out_index, amount, hashlock, now + 40)
        [promise] = seal_promises([promise], self.sk)
        self._note("attack_overspend", amount=amount)
        return [("hub", WireMessage(K_PROMISE, {
            "payment_id": f"atk-over-{self.client_id}",
            "payee": self.overspend_payee,
            "promise": promise.to_jsonable(),
        }))]

    def _replay(self) -> Outbox:
        for flow in self.flows.values():
            if flow.role == "sender" and flow.outcome == OUT_PAID and flow.promise is not None:
                self.attacks_done.add("replay")
                self._note("attack_replay", payment=flow.payment_id)
                return [("hub", WireMessage(K_PROMISE, {
                    "payment_id": flow.payment_id,
                    "payee": flow.counterparty,
                    "promise": flow.promise.to_jsonable(),
                }))]
        return []

    def _double_claim(self) -> None:
        """The covered-claim attack: submit the newest receipt (whose
        cumulative credit already includes a resolved promise), then claim
        that promise."""
        if self.state is None:
            return
        for flow in self.flows.values():
            if flow.role == "payee" and flow.outcome == OUT_RECEIVED and flow.promise is not None:
                _claim_covered_promise(self, self.ledger, self.state, self.client_id,
                                       flow.promise, self.state.secrets.get(flow.promise.hashlock),
                                       flow.payment_id)
                return


def _claim_covered_promise(core: ScriptedHub | ScriptedWallet, ledger: Ledger,
                           state: ChannelState, party_id: str, promise: Promise,
                           preimage: bytes | None, payment_id: str) -> None:
    """Open a dispute with the latest receipt held, whose credit covers
    ``promise``; once the channel is closing, claim the promise anyway."""
    channel_id = state.params.channel_id
    contract = ledger.contracts.get(channel_id)
    if contract is None:
        return
    if contract.status == STATUS_OPEN:
        if "double_claim_dispute" not in core.attacks_done:
            core.attacks_done.add("double_claim_dispute")
            try:
                ledger.initiate_dispute(channel_id, party_id, state.last_receipt_received)
                core._note("attack_double_claim_dispute")
            except HubpayError as exc:
                core._note("attack_dispute_failed", code=exc.code)
        return
    if contract.status != STATUS_CLOSING:
        return
    core.attacks_done.add("double_claim")
    if preimage is None:
        return
    try:
        ledger.claim_promise(channel_id, party_id, promise, preimage,
                             state.inclusion_proof(promise.hashlock))
        core._note("attack_double_claim_succeeded", payment=payment_id)
    except HubpayError as exc:
        core._note("attack_double_claim_rejected", code=exc.code, payment=payment_id)
