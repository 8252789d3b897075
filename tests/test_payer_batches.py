"""The payer's hold rule: a promise is sealed and sent at once while no
earlier one is unresolved; otherwise it is held, and the next wallet call
that answers a message or ends a batch seals every held promise under one
signature. The hub verifies such a batch once and keeps each promise's
audit path on its books, where a claim and a recovery read it."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from hubpay import crypto
from hubpay.channel import close_balances
from hubpay.hub import HubCore, HubStore
from hubpay.ledger import EV_CLAIMED
from hubpay.messages import Promise
from hubpay.scenarios import base_two_clients
from hubpay.simnet import World
from hubpay.wire import K_PROMISE, K_SECRET, WireMessage

AMOUNT = 10


def ready_world(channel_float: int = 5000) -> World:
    """alice and bob on CONCURRENT channels, registered and funded, with
    every deposit seen by the hub and by both wallets."""
    scenario = base_two_clients(mode="CONCURRENT")
    scenario["hub"]["channel_float"] = channel_float
    scenario["horizon"] = 400
    world = World(scenario)
    while world.tick < 5:
        world.step()
    return world


def pay(world: World, pid: str, amount: int = AMOUNT, expiry_delta: int = 60):
    """Start one payment alice -> bob on an out-of-band proposal; returns
    alice's outbox."""
    proposal = world.wallets["bob"].issue_proposal(pid, "alice", amount, expiry_delta,
                                                  world.tick)
    return world.wallets["alice"].start_payment_with_proposal(pid, "bob", proposal,
                                                              world.tick)


def promises_in(outbox) -> list[Promise]:
    return [Promise.from_jsonable(m.body["promise"]) for _, m in outbox if m.kind == K_PROMISE]


def secret_for_alice(world: World, promise_msg: WireMessage) -> WireMessage:
    """Route alice's promise through the hub to bob and bob's secret back:
    the SECRET that answers the promise."""
    hub, bob, now = world.hub, world.wallets["bob"], world.tick
    assert hub.handle_message("alice", promise_msg, now) == []
    [(_, forwarded)] = hub.flush_receipts(now)
    [(_, secret)] = bob.handle_message("hub", forwarded, now)
    [(dst, answer)] = hub.handle_message("bob", secret, now)
    assert (dst, answer.kind) == ("alice", K_SECRET)
    return answer


def run_until_done(world: World, outbox, limit: int = 200) -> None:
    world._send_all("alice", outbox)
    for _ in range(limit):
        world.step()
        if not world.wallets["alice"].open_flows and not world.bus:
            return
    raise AssertionError("payments still open")


def count_verifies(monkeypatch) -> list:
    calls = []
    verify = crypto.verify

    def counting(*args):
        calls.append(args)
        return verify(*args)
    monkeypatch.setattr(crypto, "verify", counting)
    return calls


def test_a_lone_payment_is_sealed_and_sent_at_once():
    world = ready_world()
    [promise] = promises_in(pay(world, "p0"))
    assert promise.sender_sig is not None and promise.path is None
    assert not world.wallets["alice"].state.holds_unsealed()


def test_held_promises_go_out_as_one_batch_that_the_hub_verifies_once(monkeypatch):
    world = ready_world()
    alice = world.wallets["alice"]
    [(_, first)] = pay(world, "p0")
    assert [pay(world, f"p{i}") for i in (1, 2, 3)] == [[], [], []]
    assert alice.state.holds_unsealed()
    outbox = alice.handle_message("hub", secret_for_alice(world, first), world.tick)
    batch = promises_in(outbox)
    assert [p.index for p in batch] == [2, 3, 4]
    assert len({p.sender_sig.data for p in batch}) == 1
    assert all(p.path is not None for p in batch)
    assert not alice.state.holds_unsealed()
    verifies = count_verifies(monkeypatch)
    for _, msg in outbox:
        assert world.hub.handle_message("alice", msg, world.tick) == []
    assert len(verifies) == 1
    books = world.hub.channel_of("alice").pending_in
    assert all(books[p.hashlock].path == p.path for p in batch)


def test_a_held_promise_that_expires_is_never_sent():
    world = ready_world()
    alice = world.wallets["alice"]
    pay(world, "p0")
    assert pay(world, "p1", expiry_delta=3) == []
    assert promises_in(alice.client_tick(world.tick + 3)) == []
    flow = alice.flows["p1"]
    assert (flow.outcome, flow.reason) == ("FAILED", "Timeout")
    assert not alice.state.holds_unsealed()


def test_a_held_promise_whose_channel_closes_is_never_sent():
    world = ready_world()
    alice = world.wallets["alice"]
    pay(world, "p0")
    assert pay(world, "p1") == []
    world.hub.initiate_close("alice", world.tick)  # the contract leaves OPEN
    assert promises_in(alice.flush_receipts(world.tick)) == []
    flow = alice.flows["p1"]
    assert (flow.outcome, flow.reason) == ("FAILED", "ChannelClosed")
    assert flow.promise.hashlock not in alice.state.pending_out


def test_a_batch_end_sends_held_promises_before_the_receipt_that_commits_to_them():
    world = ready_world()
    hub, alice = world.hub, world.wallets["alice"]
    [(_, first)] = pay(world, "p0")
    assert pay(world, "p1") == []
    [(_, second)] = alice.handle_message("hub", secret_for_alice(world, first), world.tick)
    hub.handle_message("alice", second, world.tick)
    # p0 is resolved and owes a receipt; p2 is held behind the unresolved p1
    assert pay(world, "p2") == []
    outbox = alice.flush_receipts(world.tick)
    assert [m.kind for _, m in outbox] == [K_PROMISE, "RECEIPT"]
    for _, msg in outbox:
        assert hub.handle_message("alice", msg, world.tick) == []
    assert hub.channel_of("alice").last_receipt_received == alice.state.last_receipt_sent


def test_the_hub_refuses_one_promise_of_a_batch_and_routes_the_rest():
    # the hub floats 60 on bob's channel: 10 + 10 + 10 fit, the 45 does not
    world = ready_world(channel_float=60)
    outbox = pay(world, "p0")
    for pid, amount in (("p1", 10), ("p2", 45), ("p3", 10)):
        assert pay(world, pid, amount) == []
    run_until_done(world, outbox)
    alice = world.wallets["alice"]
    outcomes = {pid: (f.outcome, f.reason) for pid, f in alice.flows.items()}
    assert outcomes == {"p0": ("PAID", None), "p1": ("PAID", None),
                        "p2": ("FAILED", "HubLiquidityExhausted"), "p3": ("PAID", None)}
    # every receipt alice signed matched the hub's books
    hub_books = world.hub.channel_of("alice")
    assert hub_books.credit_received == alice.state.credit_sent == 30
    assert hub_books.last_receipt_received == alice.state.last_receipt_sent
    assert not [e for e in world.trace if e.get("action") == "receipt_rejected"]


def test_the_hub_claims_a_withheld_batch_on_chain_with_its_paths():
    world = ready_world()
    alice = world.wallets["alice"]
    alice.behaviors.add("WITHHOLD_RECEIPT")
    outbox = pay(world, "p0")
    assert [pay(world, f"p{i}") for i in (1, 2, 3)] == [[], [], []]
    run_until_done(world, outbox)
    claims = [e.payload for e in world.ledgers["L1"].events if e.kind == EV_CLAIMED]
    assert sorted(c["promise_index"] for c in claims if c["claimant"] == "hub") == [1, 2, 3, 4]
    assert {(f.outcome, f.reason) for f in alice.flows.values()} == {("PAID", "onchain")}


def test_recovery_equals_the_live_hub_with_batch_sealed_promises():
    world = ready_world()
    hub, alice = world.hub, world.wallets["alice"]
    [(_, first)] = pay(world, "p0")
    for i in (1, 2, 3):
        pay(world, f"p{i}")
    batch = alice.handle_message("hub", secret_for_alice(world, first), world.tick)
    hub.handle_message("alice", batch[0][1], world.tick)
    entries = list(hub.store.journal)
    # a checkpoint between two promises of one batch: replay starts with no
    # batch verified
    hub.snapshot_now()
    for _, msg in batch[1:]:
        hub.handle_message("alice", msg, world.tick)
    hub.flush_receipts(world.tick)
    entries += hub.store.journal
    whole = HubStore()
    whole.journal = entries
    for store in (whole, hub.store):
        recovered = HubCore.recover(hub.config, hub.ledgers, store)
        assert recovered.persist_json() == hub.persist_json()
    assert json.loads(hub.persist_json())["routes"]  # the routes were recovered too


# -- property: random interleavings on one CONCURRENT pair -----------------------------

OPS = st.lists(st.one_of(st.just(("pay",)), st.just(("tick",)),
                         st.tuples(st.just("deliver"), st.integers(0, 3))),
               max_size=60)


class PairRun:
    """The pair's actors with a bus of FIFO links, one per (src, dst), and
    a record of every promise alice sends."""

    def __init__(self):
        self.world = ready_world()
        self.alice = self.world.wallets["alice"]
        self.links: dict[tuple[str, str], list[WireMessage]] = {}
        self.sent: list[int] = []
        self.paid = 0

    def queue(self, src: str, outbox) -> None:
        for dst, msg in outbox:
            self.links.setdefault((src, dst), []).append(msg)
            if src == "alice" and msg.kind == K_PROMISE:
                self.sent.append(msg.body["promise"]["index"])

    def call(self, actor: str, outbox) -> None:
        self.queue(actor, outbox)
        if actor == "alice":
            state = self.alice.state
            # nothing is held unless an earlier promise is unresolved
            assert not state.holds_unsealed() or any(
                p.sender_sig is not None for p in state.pending_out.values())

    def deliver(self, which: int) -> bool:
        busy = sorted(link for link, queue in self.links.items() if queue)
        if not busy:
            return False
        src, dst = busy[which % len(busy)]
        msg = self.links[(src, dst)].pop(0)
        world = self.world
        core = world.hub if dst == "hub" else world.wallets[dst]
        self.call(dst, core.handle_message(src, msg, world.tick))
        return True

    def tick(self) -> None:
        world = self.world
        for ledger in world.ledgers.values():
            ledger.advance_time(1)
        world.tick += 1
        self.call("hub", world.hub.hub_tick(world.tick))
        for cid in sorted(world.wallets):
            self.call(cid, world.wallets[cid].client_tick(world.tick))

    def run(self, ops) -> None:
        for op in ops:
            if op[0] == "pay":
                self.paid += 1
                self.call("alice", pay(self.world, f"q{self.paid}"))
            elif op[0] == "tick":
                self.tick()
            else:
                self.deliver(op[1])
        # drain: deliver everything, ticking until every flow has ended,
        # then once more for the receipts the last secrets left owed
        for _ in range(200):
            while self.deliver(0):
                pass
            if not self.alice.open_flows and not self.world.wallets["bob"].open_flows:
                break
            self.tick()
        self.tick()
        while self.deliver(0):
            pass


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(OPS)
def test_random_interleavings_send_each_promise_once_and_conserve_value(ops):
    pair = PairRun()
    pair.run(ops)
    alice, bob, hub = pair.alice, pair.world.wallets["bob"], pair.world.hub
    # every booked promise that was sealed went out exactly once
    sealed = sorted(f.promise.index for f in alice.flows.values()
                    if f.promise is not None and f.promise.sender_sig is not None)
    assert sorted(pair.sent) == sealed
    assert not alice.state.holds_unsealed()
    # the hub took every promise and every receipt alice sent
    assert not [n for n in hub.trace if n["action"].endswith("_rejected")]
    # conservation: what alice paid, bob was paid, and both ends of each
    # channel would close it on the same balances
    paid = sum(f.amount for f in alice.flows.values() if f.outcome == "PAID")
    received = sum(f.amount for f in bob.flows.values()
                   if f.outcome in ("RECEIVED", "CLAIM_ON_CHAIN"))
    assert paid == received
    assert alice.state.available_balance() == 500 - paid
    for wallet in (alice, bob):
        assert close_balances(wallet.state) == close_balances(hub.channel_of(wallet.client_id))
