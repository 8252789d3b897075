"""Scenario builders: happy paths, the adversary corpus, and randomized runs.

Each builder returns a plain scenario dict consumable by
``simnet.run_scenario`` (and serializable to the JSON scenario file format).
The adversary corpus applies every scripted misbehavior to the hub and to a
client in turn; safety criteria are asserted over these runs by the tests.
"""

from __future__ import annotations

from random import Random

from .simnet import BEHAVIORS

DIRECTIVES = sorted(BEHAVIORS)


def base_two_clients(seed: int = 1, mode: str = "SERIALIZED",
                     fee_bps: int = 0) -> dict:
    return {
        "name": "two-clients",
        "seed": seed,
        "ledgers": [{"ledger_id": "L1", "scheme": "SCHEME_A",
                     "genesis": {"alice": 1000, "bob": 1000, "hub": 50_000}}],
        "hub": {"fee_bps": fee_bps, "claim_margin_delta": 4, "dispute_window": 10,
                "channel_float": 5000},
        "clients": [
            {"id": "alice", "ledger": "L1", "mode": mode},
            {"id": "bob", "ledger": "L1", "mode": mode},
        ],
        "script": [
            {"at": 0, "action": "register", "actor": "alice"},
            {"at": 0, "action": "register", "actor": "bob"},
            {"at": 2, "action": "deposit", "actor": "alice", "amount": 500},
            {"at": 2, "action": "deposit", "actor": "bob", "amount": 400},
        ],
        "expectations": [],
    }


def happy_path(seed: int = 1, mode: str = "SERIALIZED") -> dict:
    scenario = base_two_clients(seed=seed, mode=mode)
    scenario["name"] = f"happy-{mode.lower()}"
    scenario["script"] += [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 40, "expiry_delta": 30},
        {"at": 16, "action": "pay", "from": "bob", "to": "alice",
         "amount": 25, "expiry_delta": 30},
        {"at": 28, "action": "pay", "from": "alice", "to": "bob",
         "amount": 30, "expiry_delta": 30},
        {"at": 44, "action": "close", "actor": "alice"},
        {"at": 46, "action": "close", "actor": "bob"},
    ]
    scenario["horizon"] = 170
    scenario["expectations"] = [
        {"kind": "payments-paid", "equals": 3},
        {"kind": "exact-balance", "actor": "alice", "value": 1000 - 40 - 30 + 25},
        {"kind": "exact-balance", "actor": "bob", "value": 1000 + 40 + 30 - 25},
        {"kind": "event-count", "event": "CLAIMED", "equals": 0},
        {"kind": "event-absence", "event": "DISPUTE_OPENED"},
    ]
    return scenario


def adversary_scenario(directive: str, target: str, seed: int = 3,
                       mode: str = "SERIALIZED") -> dict:
    """One corpus entry: ``directive`` applied to the hub or to client bob."""
    assert directive in BEHAVIORS, directive
    assert target in ("hub", "client"), target
    scenario = base_two_clients(seed=seed, mode=mode)
    scenario["name"] = f"adv-{target}-{directive.lower()}"
    # both parties send twice so every role has receipt history to abuse
    scenario["script"] += [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 40, "expiry_delta": 30},
        {"at": 16, "action": "pay", "from": "bob", "to": "alice",
         "amount": 25, "expiry_delta": 30},
        {"at": 28, "action": "pay", "from": "bob", "to": "alice",
         "amount": 20, "expiry_delta": 30},
        {"at": 40, "action": "pay", "from": "alice", "to": "bob",
         "amount": 30, "expiry_delta": 30},
        {"at": 72, "action": "close", "actor": "alice"},
        {"at": 74, "action": "close", "actor": "bob"},
    ]
    scenario["horizon"] = 260
    if directive == "CRASH":
        scenario["script"].append(
            {"at": 20, "action": "crash", "actor": "hub" if target == "hub" else "bob"})
        if target == "client":
            # the hub reclaims the dead client's channel unilaterally
            scenario["script"].append({"at": 90, "action": "hub_close", "client": "bob"})
    elif target == "hub":
        scenario["hub"]["behaviors"] = [directive]
    else:
        scenario["clients"][1]["behaviors"] = [directive]
    return scenario


def cross_ledger(seed: int = 5, mode: str = "SERIALIZED") -> dict:
    """Sender and payee live on different ledgers with different signature
    schemes; the hub bridges them with one hashlock."""
    return {
        "name": "cross-ledger",
        "seed": seed,
        "horizon": 170,
        "ledgers": [
            {"ledger_id": "LA", "scheme": "SCHEME_A",
             "genesis": {"alice": 1000, "hub": 50_000}},
            {"ledger_id": "LB", "scheme": "SCHEME_B",
             "genesis": {"bob": 1000, "hub": 50_000}},
        ],
        "hub": {"fee_bps": 0, "claim_margin_delta": 4, "dispute_window": 10,
                "channel_float": 5000},
        "clients": [
            {"id": "alice", "ledger": "LA", "mode": mode},
            {"id": "bob", "ledger": "LB", "mode": mode},
        ],
        "script": [
            {"at": 0, "action": "register", "actor": "alice"},
            {"at": 0, "action": "register", "actor": "bob"},
            {"at": 2, "action": "deposit", "actor": "alice", "amount": 500},
            {"at": 2, "action": "deposit", "actor": "bob", "amount": 300},
            {"at": 4, "action": "pay", "from": "alice", "to": "bob",
             "amount": 70, "expiry_delta": 30},
            {"at": 16, "action": "pay", "from": "bob", "to": "alice",
             "amount": 20, "expiry_delta": 30},
            {"at": 32, "action": "close", "actor": "alice"},
            {"at": 34, "action": "close", "actor": "bob"},
        ],
        "expectations": [
            {"kind": "payments-paid", "equals": 2},
            {"kind": "exact-balance", "actor": "alice", "value": 1000 - 70 + 20},
            {"kind": "exact-balance", "actor": "bob", "value": 1000 + 70 - 20},
        ],
    }


def crash_recovery(seed: int = 9, crash_at: int = 10, restart_at: int = 14) -> dict:
    """Hub dies after routing the promise but before the secret arrives; the
    payee's retransmission completes the payment after recovery."""
    scenario = base_two_clients(seed=seed)
    scenario["name"] = "crash-recovery"
    scenario["script"] += [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 40, "expiry_delta": 40},
        {"at": crash_at, "action": "crash", "actor": "hub"},
        {"at": restart_at, "action": "restart", "actor": "hub"},
        {"at": 40, "action": "close", "actor": "alice"},
        {"at": 42, "action": "close", "actor": "bob"},
    ]
    scenario["horizon"] = 200
    scenario["expectations"] = [
        {"kind": "payments-paid", "equals": 1},
        {"kind": "exact-balance", "actor": "alice", "value": 960},
        {"kind": "exact-balance", "actor": "bob", "value": 1040},
    ]
    return scenario


def random_scenario(seed: int) -> dict:
    """Randomized payments, modes, and an occasional adversary; used for the
    settlement-oracle and conservation sweeps."""
    rng = Random(seed)
    mode = rng.choice(["SERIALIZED", "CONCURRENT"])
    scenario = base_two_clients(seed=seed, mode=mode,
                                fee_bps=rng.choice([0, 0, 0, 25, 100]))
    scenario["name"] = f"random-{seed}"
    at = 4
    n_payments = rng.randint(1, 6)
    for i in range(n_payments):
        payer, payee = rng.choice([("alice", "bob"), ("bob", "alice")])
        scenario["script"].append({
            "at": at, "action": "pay", "from": payer, "to": payee,
            "amount": rng.randint(5, 50), "expiry_delta": 30,
        })
        at += rng.choice([10, 12, 14])
    if rng.random() < 0.35:
        directive = rng.choice([d for d in DIRECTIVES if d != "CRASH"])
        target = rng.choice(["hub", "client"])
        if target == "hub":
            scenario["hub"]["behaviors"] = [directive]
        else:
            scenario["clients"][1]["behaviors"] = [directive]
        scenario["name"] += f"-{target}-{directive.lower()}"
    close_at = at + 20
    scenario["script"].append({"at": close_at, "action": "close", "actor": "alice"})
    scenario["script"].append({"at": close_at + 2, "action": "close", "actor": "bob"})
    scenario["horizon"] = close_at + 150
    return scenario
