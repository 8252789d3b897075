"""Runs that reach the claim rule (``watchdog.tend_revealed``) through the
honest hub: the payer-side dispute probe and the hub crash sweep. They join
the deterministic corpus of ``report_digests.py``; ``test_claim_rule.py``
checks them."""

from __future__ import annotations

from hubpay.messages import MODES
from hubpay.scenarios import base_two_clients, happy_path

DISPUTE_TICKS = (12, 14, 16, 20)
CRASH_TICKS = range(5, 34)
RESTART_DELAY = 3


def payer_dispute(close_at: int, mode: str = "SERIALIZED") -> dict:
    """The payer alice takes the secret of her payment, withholds the
    receipt and opens a stale dispute at ``close_at``, long before the
    hub's claim margin falls due: the honest hub is paid only if it claims
    at once."""
    scenario = base_two_clients(mode=mode)
    scenario["name"] = f"payer-dispute-{close_at}"
    scenario["clients"][0]["behaviors"] = ["WITHHOLD_RECEIPT", "STALE_RECEIPT_DISPUTE"]
    scenario["script"] += [
        {"at": 4, "action": "pay", "from": "alice", "to": "bob",
         "amount": 40, "expiry_delta": 40},
        {"at": close_at, "action": "close", "actor": "alice"},
        {"at": close_at + 2, "action": "close", "actor": "bob"},
    ]
    scenario["horizon"] = 200
    scenario["expectations"] = [
        {"kind": "payments-paid", "equals": 1},
        {"kind": "exact-balance", "actor": "alice", "value": 960},
        {"kind": "exact-balance", "actor": "bob", "value": 1040},
        {"kind": "exact-balance", "actor": "hub", "value": 50_000},
    ]
    return scenario


def hub_crash(crash_at: int, mode: str = "SERIALIZED") -> dict:
    """``happy_path`` with the hub crashed at ``crash_at`` and restarted
    ``RESTART_DELAY`` ticks later."""
    scenario = happy_path(mode=mode)
    scenario["name"] = f"hub-crash-{crash_at}-{mode.lower()}"
    scenario["script"] += [
        {"at": crash_at, "action": "crash", "actor": "hub"},
        {"at": crash_at + RESTART_DELAY, "action": "restart", "actor": "hub"},
    ]
    return scenario


def dispute_probes():
    """(name, scenario) for the payer-side dispute probe in both modes."""
    for mode in sorted(MODES):
        for close_at in DISPUTE_TICKS:
            yield f"payer-dispute-{close_at}-{mode}", payer_dispute(close_at, mode)


def crash_sweep():
    """(name, scenario) for every hub crash tick, in both modes."""
    for mode in sorted(MODES):
        for crash_at in CRASH_TICKS:
            yield f"hub-crash-{crash_at}-{mode}", hub_crash(crash_at, mode)
