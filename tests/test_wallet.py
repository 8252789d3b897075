"""Wallet agent: deployment verification, payment outcomes, event handler."""

from hubpay.ledger import Ledger
from hubpay.messages import ChannelParams
from hubpay.scenarios import base_two_clients
from hubpay.simnet import World
from hubpay.wallet import WalletConfig, WalletCore


def world_with(script, horizon=200, **kwargs):
    scenario = base_two_clients(**kwargs)
    scenario["script"] += script
    scenario["horizon"] = horizon
    return World(scenario)


# -- deployment verification -----------------------------------------------------

def test_verify_deployment_accepts_matching_contract():
    world = world_with([])
    report = world.run()
    assert world.wallets["alice"].verified
    assert world.wallets["bob"].verified


def _registered_wallet():
    ledger = Ledger("L1", "SCHEME_A", {"carol": 100, "hub": 1000})
    config = WalletConfig(client_id="carol", ledger_id="L1", claim_threshold=2)
    return WalletCore(config, ledger), ledger


def test_verify_deployment_rejects_wrong_client_key():
    wallet, ledger = _registered_wallet()
    from hubpay.crypto import generate_keypair

    _, other_pk = generate_keypair("SCHEME_A", b"not-carol")
    _, hub_pk = generate_keypair("SCHEME_A", b"the-hub")
    params = ChannelParams("ch-x", "L1", "carol", "hub", other_pk, hub_pk,
                           "SCHEME_A", "SERIALIZED", 4, 10)
    ledger.deploy_contract(params, "hub")
    ok, reason = wallet.verify_deployment(ledger.read_state("ch-x"), params)
    assert not ok and reason == "ParamsMismatch"


def test_verify_deployment_rejects_missing_contract():
    wallet, _ = _registered_wallet()
    ok, reason = wallet.verify_deployment(None, None)
    assert not ok and reason == "NotFound"


def test_verify_deployment_accepts_own_params():
    wallet, ledger = _registered_wallet()
    from hubpay.crypto import generate_keypair

    _, hub_pk = generate_keypair("SCHEME_A", b"the-hub")
    params = ChannelParams("ch-x", "L1", "carol", "hub", wallet.pk, hub_pk,
                           "SCHEME_A", "SERIALIZED", 4, 10)
    ledger.deploy_contract(params, "hub")
    ok, reason = wallet.verify_deployment(ledger.read_state("ch-x"), params)
    assert ok, reason


# -- send_payment outcomes ---------------------------------------------------------

def test_send_payment_cooperative_flow_paid():
    world = world_with([
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 60, "expiry_delta": 30},
    ])
    world.run()
    alice = world.wallets["alice"]
    flow = alice.flows["pmt-00001"]
    assert flow.outcome == "PAID"
    assert alice.state.credit_sent == 60
    assert alice.payment_log[-1]["outcome"] == "PAID"


def test_send_payment_fails_when_payee_never_reveals():
    scenario = base_two_clients()
    scenario["clients"][1]["behaviors"] = ["WITHHOLD_SECRET"]
    scenario["script"] += [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 60, "expiry_delta": 20},
    ]
    scenario["horizon"] = 120
    world = World(scenario)
    world.run()
    alice = world.wallets["alice"]
    assert alice.flows["pmt-00001"].outcome == "FAILED"
    assert alice.state.credit_sent == 0
    assert alice.state.available_balance() == 500  # liability evaporated


def test_send_payment_insufficient_capacity_fails_locally():
    world = world_with([
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 501, "expiry_delta": 30},
    ])
    world.run()
    flow = world.wallets["alice"].flows["pmt-00001"]
    assert flow.outcome == "FAILED" and flow.reason == "InsufficientCapacity"
    assert world.wallets["alice"].state.credit_sent == 0


def test_promise_refused_by_hub_leaves_later_receipts_valid():
    # the hub's 60-unit float on bob's channel routes one 50-unit payment and
    # refuses the second; the refused promise must leave alice's books, or
    # every later receipt commits to a pending root the hub cannot match
    scenario = base_two_clients(mode="CONCURRENT")
    scenario["hub"]["channel_float"] = 60
    scenario["script"] += [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 50, "expiry_delta": 30},
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 50, "expiry_delta": 30},
        {"at": 12, "action": "pay", "from": "alice", "to": "bob",
         "amount": 5, "expiry_delta": 30},
    ]
    scenario["horizon"] = 200
    world = World(scenario)
    report = world.run()
    notes = [e for e in report.trace if e["ev"] == "note"]
    assert [n["payment"] for n in notes
            if n["action"] == "liquidity_exhausted"] == ["pmt-00002"]
    alice = world.wallets["alice"]
    assert alice.flows["pmt-00002"].outcome == "FAILED"
    assert not alice.state.pending_out
    assert not [n for n in notes if n["action"] == "receipt_rejected"]
    assert not [e for e in report.trace if e["ev"] == "ledger" and e["kind"] == "CLAIMED"]
    # both paid payments settled off-chain with alice's receipts
    settled = {n["payment"] for n in notes if n["action"] == "settled_in"}
    assert settled == {"pmt-00001", "pmt-00003"}
    assert world.hub.channel_of("alice").credit_received == 55


# -- receive_payment outcomes ----------------------------------------------------------

def test_receive_payment_cooperative_flow():
    world = world_with([
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 45, "expiry_delta": 30},
    ])
    world.run()
    bob = world.wallets["bob"]
    flow = bob.flows["pmt-00001"]
    assert flow.outcome == "RECEIVED"
    assert bob.state.credit_received == 45


def test_receive_payment_claims_onchain_when_receipt_withheld():
    scenario = base_two_clients()
    scenario["hub"]["behaviors"] = ["WITHHOLD_RECEIPT"]
    scenario["script"] += [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 45, "expiry_delta": 24},
        {"at": 60, "action": "close", "actor": "bob"},
    ]
    scenario["horizon"] = 160
    world = World(scenario)
    report = world.run()
    bob = world.wallets["bob"]
    assert bob.flows["pmt-00001"].outcome == "CLAIM_ON_CHAIN"
    claims = [e for e in report.trace if e["ev"] == "ledger" and e["kind"] == "CLAIMED"
              and e["payload"]["claimant"] == "bob"]
    assert len(claims) == 1
    # the payee still ends whole after settlement
    assert sum(l.balance("bob") for l in world.ledgers.values()) == 1000 + 45


def test_closing_claims_all_unreceipted_promises_first():
    # two revealed-but-unreceipted promises at close time: the handler goes
    # on-chain for both before the channel settles
    scenario = base_two_clients(mode="CONCURRENT")
    scenario["hub"]["behaviors"] = ["WITHHOLD_RECEIPT"]
    scenario["script"] += [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 40, "expiry_delta": 60},
        {"at": 6, "action": "pay", "from": "alice", "to": "bob",
         "amount": 25, "expiry_delta": 60},
        {"at": 20, "action": "close", "actor": "bob"},
    ]
    scenario["horizon"] = 160
    world = World(scenario)
    report = world.run()
    bob_claims = [e for e in report.trace
                  if e["ev"] == "ledger" and e["kind"] == "CLAIMED"
                  and e["payload"]["claimant"] == "bob"]
    assert len(bob_claims) == 2
    bob_channel = world.wallets["bob"].channel_id
    close_tick = min(e["t"] for e in report.trace
                     if e["ev"] == "ledger" and e["kind"] == "CLOSED"
                     and e["payload"]["channel_id"] == bob_channel)
    assert all(e["t"] < close_tick for e in bob_claims)
    assert sum(l.balance("bob") for l in world.ledgers.values()) == 1000 + 65


def test_client_tick_no_action_when_receipt_timely():
    world = world_with([
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 10, "expiry_delta": 30},
    ])
    report = world.run()
    assert not [e for e in report.trace
                if e["ev"] == "ledger" and e["kind"] == "CLAIMED"]


# -- close_channel paths ------------------------------------------------------------------

def test_close_cooperative_single_onchain_tx():
    world = world_with([
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 30, "expiry_delta": 30},
        {"at": 20, "action": "close", "actor": "alice"},
    ], horizon=120)
    report = world.run()
    ledger = world.ledgers["L1"]
    alice_channel = world.wallets["alice"].channel_id
    closes = [e for e in ledger.events
              if e.kind == "CLOSED" and e.payload["channel_id"] == alice_channel]
    assert len(closes) == 1 and closes[0].payload["cooperative"]
    assert world.wallets["alice"].settlement == {"alice": 470, "hub": 5030}


def test_close_unresponsive_hub_falls_back_to_dispute():
    scenario = base_two_clients()
    scenario["script"] += [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 30, "expiry_delta": 30},
        {"at": 20, "action": "crash", "actor": "hub"},
        {"at": 24, "action": "close", "actor": "alice"},
    ]
    scenario["horizon"] = 160
    world = World(scenario)
    world.run()
    alice = world.wallets["alice"]
    assert alice.settlement is not None
    # the dead hub never submits the receipt proving alice's 30-unit debt,
    # so the contract returns her full deposit; availability is the hub's job
    assert alice.settlement["alice"] == 500
    contract = world.ledgers["L1"].contracts[alice.channel_id]
    assert contract.status == "CLOSED" and contract.dispute is not None


def test_secret_hygiene_no_reveal_without_verified_promise():
    # a wallet only ever reveals after accepting a promise covering the
    # proposal amount: scan every trace for reveals without prior promises
    world = world_with([
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 25, "expiry_delta": 30},
        {"at": 16, "action": "pay", "from": "bob", "to": "alice",
         "amount": 15, "expiry_delta": 30},
    ])
    report = world.run()
    promised = set()
    for entry in report.trace:
        if entry["ev"] != "msg" or entry.get("dropped"):
            continue
        if entry["kind"] == "PROMISE":
            promised.add((entry["dst"], entry["hashlock"]))
        elif entry["kind"] == "SECRET" and entry["src"] != "hub":
            assert (entry["src"], entry["hashlock"]) in promised, \
                f"{entry['src']} revealed a secret without holding a promise"


def test_payment_log_reaches_terminal_outcomes():
    scenario = base_two_clients()
    scenario["clients"][1]["behaviors"] = ["WITHHOLD_SECRET"]
    scenario["script"] += [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 10, "expiry_delta": 20},
        {"at": 16, "action": "pay", "from": "bob", "to": "alice",
         "amount": 5, "expiry_delta": 20},
    ]
    scenario["horizon"] = 150
    world = World(scenario)
    world.run()
    for wallet in world.wallets.values():
        for flow in wallet.flows.values():
            assert flow.outcome in ("PAID", "RECEIVED", "FAILED", "CLAIM_ON_CHAIN")
        assert len(wallet.payment_log) == len(wallet.flows)
