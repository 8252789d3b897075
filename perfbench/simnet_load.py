"""Simnet workloads: payments driven through ``World`` in rounds.

One round builds a fresh World, runs setup until the hub and every wallet
have observed every deposit, runs a closed-loop payment phase of a fixed
number of payments, times ``HubCore.recover`` on the store the phase left
behind, closes every channel cooperatively and checks the outcome. The
World is driven only through ``World.send``, ``World.step``,
``WalletCore.issue_proposal`` and ``WalletCore.start_payment_with_proposal``.
"""

from __future__ import annotations

import gc
import itertools
import resource
import time
from dataclasses import dataclass, field

from hubpay.crypto import SCHEME_A, SCHEME_B
from hubpay.hub import TERMINAL_ROUTES, HubCore
from hubpay.ledger import STATUS_CLOSED
from hubpay.messages import MODE_CONCURRENT, MODE_SERIALIZED
from hubpay.simnet import World

from metrics import Outcome, layer_metrics, median, percentile
from tracing import SpanStats, Tracer

AMOUNT = 10
EXPIRY_DELTA = 60
PAYEE_DEPOSIT = 100
SETUP_TICKS = 50
CLOSE_TICKS = 200
MIN_ROUNDS = 3
SETUPS_PER_ROUND = 4   # extra set-ups after each round, for a steadier setup_s median
TRACE_BASE_ROUNDS = 2  # untraced rounds the traced round is compared with


@dataclass(frozen=True)
class SimSpec:
    name: str
    ledgers: tuple[tuple[str, str], ...]      # (ledger_id, scheme)
    payers: tuple[tuple[str, str], ...]       # (client_id, ledger_id)
    payee: tuple[str, str]
    mode: str
    window: int                               # payments in flight per payer
    payments: int                             # per round, all payers together


SPECS = {
    "pair-concurrent": SimSpec(
        "pair-concurrent", (("L1", SCHEME_A),), (("alice", "L1"),), ("bob", "L1"),
        MODE_CONCURRENT, window=16, payments=1000),
    "fanin-merchant": SimSpec(
        "fanin-merchant", (("L1", SCHEME_A),),
        tuple((f"payer{i:02d}", "L1") for i in range(32)), ("merchant", "L1"),
        MODE_CONCURRENT, window=8, payments=1024),
    "pair-serialized-xledger": SimSpec(
        "pair-serialized-xledger", (("LA", SCHEME_A), ("LB", SCHEME_B)),
        (("alice", "LA"),), ("bob", "LB"), MODE_SERIALIZED, window=1, payments=1000),
}


@dataclass
class RoundResult:
    setup_s: float = 0.0
    phase_s: float = 0.0
    recovery_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)
    onchain_tx: int = 0
    channels: int = 0
    errors: list[str] = field(default_factory=list)
    # phase counters for the traced run
    phase_ticks: int = 0
    phase_msgs: int = 0
    phase_trace: int = 0
    journal_entries: int = 0
    phase_journal: int = 0
    snapshot_growth: int = 0
    # span index range of the payment phase, when traced
    span_range: tuple[int, int] = (0, 0)


def scenario(spec: SimSpec, seed: int, payments: int) -> dict:
    quota = payments // len(spec.payers)
    float_ = AMOUNT * payments + 1000
    clients = list(spec.payers) + [spec.payee]
    genesis: dict[str, dict[str, int]] = {lid: {} for lid, _ in spec.ledgers}
    for client_id, lid in spec.payers:
        genesis[lid][client_id] = AMOUNT * quota + 1000
    genesis[spec.payee[1]][spec.payee[0]] = 1000
    for lid in genesis:
        on_ledger = sum(1 for _, l in clients if l == lid)
        genesis[lid]["hub"] = float_ * on_ledger + 1000
    script = [{"at": 0, "action": "register", "actor": cid} for cid, _ in clients]
    script += [{"at": 2, "action": "deposit", "actor": cid, "amount": AMOUNT * quota + 100}
               for cid, _ in spec.payers]
    script.append({"at": 2, "action": "deposit", "actor": spec.payee[0],
                   "amount": PAYEE_DEPOSIT})
    return {
        "name": spec.name,
        "seed": seed,
        "message_delay": 1,
        "horizon": 10**9,
        "ledgers": [{"ledger_id": lid, "scheme": scheme, "genesis": genesis[lid]}
                    for lid, scheme in spec.ledgers],
        "hub": {"claim_margin_delta": 4, "dispute_window": 10, "channel_float": float_},
        "clients": [{"id": cid, "ledger": lid, "mode": spec.mode} for cid, lid in clients],
        "script": script,
    }


def expected_accounts(scen: dict, paid: dict[str, int], payee: str,
                      ledger_of: dict[str, str], delta: int) -> dict[str, dict[str, int]]:
    """Final on-ledger accounts after every channel closed: each payment
    moves AMOUNT from payer to hub on the payer's ledger and from hub to
    payee on the payee's ledger. ``delta`` is added to the payee's expected
    balance, so a nonzero value must make the check fail."""
    expected = {l["ledger_id"]: dict(l["genesis"]) for l in scen["ledgers"]}
    for payer, n in paid.items():
        expected[ledger_of[payer]][payer] -= AMOUNT * n
        expected[ledger_of[payer]]["hub"] += AMOUNT * n
        expected[ledger_of[payee]]["hub"] -= AMOUNT * n
        expected[ledger_of[payee]][payee] += AMOUNT * n
    expected[ledger_of[payee]][payee] += delta
    return expected


def _deposits_seen(world: World, deposit_of: dict[str, int], float_: int) -> bool:
    for client_id, amount in deposit_of.items():
        state = world.hub.channel_of(client_id)
        wallet_state = world.wallets[client_id].state
        if (state is None or wallet_state is None or state.peer_deposit != amount
                or state.my_deposit != float_ or wallet_state.my_deposit != amount):
            return False
    return True


def set_up(scen: dict) -> tuple[World | None, float]:
    """Build the World and step it until the hub and every wallet have
    observed every deposit; returns (world or None on failure, seconds)."""
    float_ = scen["hub"]["channel_float"]
    deposit_of = {s["actor"]: s["amount"] for s in scen["script"] if s["action"] == "deposit"}
    # the previous World is garbage; collect it here rather than inside the
    # next timed phase. The collector stays on for the rest of the round.
    gc.collect()
    started = time.perf_counter()
    world = World(scen)
    while not _deposits_seen(world, deposit_of, float_):
        if world.tick > SETUP_TICKS:
            return None, 0.0
        world.step()
    return world, time.perf_counter() - started


def run_round(spec: SimSpec, seed: int, payments: int, tracer=None,
              balance_delta: int = 0) -> RoundResult:
    res = RoundResult()
    scen = scenario(spec, seed, payments)
    quota = payments // len(spec.payers)
    payee_id = spec.payee[0]
    ledger_of = dict(spec.payers)
    ledger_of[payee_id] = spec.payee[1]
    world, res.setup_s = set_up(scen)
    if world is None:
        res.errors.append("setup: deposits not observed")
        return res

    # -- payment phase: closed loop, ends when every flow on both sides and
    # every message on the bus has been handled ----------------------------
    payee = world.wallets[payee_id]
    payers = [(cid, world.wallets[cid]) for cid, _ in spec.payers]
    issued = {cid: 0 for cid, _ in payers}
    in_flight: dict[str, dict[str, float]] = {cid: {} for cid, _ in payers}
    tick0, trace0 = world.tick, len(world.trace)
    journal0 = len(world.hub_store.journal)
    snapshot0 = len(world.hub.persist_json())
    tick_limit = world.tick + 40 * payments + 200
    if tracer is not None:
        tracer.active = True
        span0 = len(tracer.spans)
    phase_start = time.perf_counter()
    while True:
        for cid, wallet in payers:
            flying = in_flight[cid]
            while len(flying) < spec.window and issued[cid] < quota:
                issued[cid] += 1
                pid = f"{cid}-{issued[cid]:06d}"
                proposal = payee.issue_proposal(pid, cid, AMOUNT, EXPIRY_DELTA, world.tick)
                for dst, msg in wallet.start_payment_with_proposal(
                        pid, payee_id, proposal, world.tick):
                    world.send(cid, dst, msg)
                flying[pid] = time.perf_counter()
        world.step()
        now = time.perf_counter()
        busy = False
        for cid, wallet in payers:
            flying = in_flight[cid]
            for pid in [p for p in flying
                        if p not in wallet.open_flows and p not in payee.open_flows]:
                res.latencies_s.append(now - flying.pop(pid))
            busy = busy or bool(flying) or issued[cid] < quota
        if not busy and not world.bus:
            break
        if world.tick > tick_limit:
            res.errors.append("payment phase did not finish")
            break
    res.phase_s = time.perf_counter() - phase_start
    if tracer is not None:
        tracer.active = False
        res.span_range = (span0, len(tracer.spans))
    res.phase_ticks = world.tick - tick0
    res.phase_msgs = sum(1 for e in world.trace[trace0:] if e["ev"] == "msg")
    res.phase_trace = len(world.trace) - trace0
    res.journal_entries = len(world.hub_store.journal)
    res.phase_journal = res.journal_entries - journal0
    live_json = world.hub.persist_json()
    res.snapshot_growth = len(live_json) - snapshot0

    paid: dict[str, int] = {}
    for cid, wallet in payers:
        paid[cid] = 0
        for k in range(1, quota + 1):
            pid = f"{cid}-{k:06d}"
            res.attempted += 1
            if (wallet.flows[pid].outcome == "PAID"
                    and payee.flows[pid].outcome == "RECEIVED"):
                paid[cid] += 1
            else:
                res.failed += 1
    if any(ctx.state not in TERMINAL_ROUTES for ctx in world.hub.routes.values()):
        res.errors.append("hub has unresolved routes after the phase")

    # -- recovery from the store the phase left behind ---------------------------
    rec_start = time.perf_counter()
    recovered = HubCore.recover(world.hub_config, world.ledgers, world.hub_store)
    res.recovery_s = time.perf_counter() - rec_start
    if recovered.persist_json() != live_json:
        res.errors.append("recovered hub state differs from the live hub")

    # -- cooperative close and settlement checks -------------------------------------
    for wallet in world.wallets.values():
        wallet.start_close(world.tick)
    close_limit = world.tick + CLOSE_TICKS
    while world.tick < close_limit and not all(
            c.status == STATUS_CLOSED for l in world.ledgers.values()
            for c in l.contracts.values()):
        world.step()
    world.step()
    res.channels = sum(len(l.contracts) for l in world.ledgers.values())
    res.onchain_tx = sum(len(l.events) for l in world.ledgers.values())
    if res.onchain_tx != 4 * res.channels:
        res.errors.append(f"onchain_tx {res.onchain_tx} != 4 x {res.channels} channels")
    expected = expected_accounts(scen, paid, payee_id, ledger_of, balance_delta)
    for spec_l in scen["ledgers"]:
        lid = spec_l["ledger_id"]
        ledger = world.ledgers[lid]
        if any(c.status != STATUS_CLOSED for c in ledger.contracts.values()):
            res.errors.append(f"{lid}: a channel did not close")
        if ledger.total_value() != sum(spec_l["genesis"].values()):
            res.errors.append(f"{lid}: value not conserved")
        for account, want in expected[lid].items():
            if ledger.balance(account) != want:
                res.errors.append(
                    f"{lid}: {account} holds {ledger.balance(account)}, expected {want}")
    return res


def run(spec: SimSpec, seed: int, seconds: float, trace: bool, payments: int,
        balance_delta: int, outdir) -> Outcome:
    """Untraced: rounds until ``seconds`` have passed (at least MIN_ROUNDS),
    each followed by SETUPS_PER_ROUND extra set-ups. Traced: TRACE_BASE_ROUNDS untraced
    rounds, then one traced round of the same size for the layer metrics."""
    out = Outcome()
    rounds: list[RoundResult] = []
    setups: list[float] = []
    tracer = None
    # every World of the run gets its own seed, so no set-up reuses cached keys
    world_seeds = itertools.count(seed * 100_000)
    started = time.perf_counter()
    while True:
        r = len(rounds)
        if trace and r == TRACE_BASE_ROUNDS:
            tracer = Tracer()
            tracer.install()
        try:
            res = run_round(spec, next(world_seeds), payments, tracer, balance_delta)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rounds.append(res)
        setups.append(res.setup_s)
        out.attempted += res.attempted
        out.failed += res.failed
        out.errors += [f"round {r}: {e}" for e in res.errors]
        if out.errors:
            return out
        if trace:
            if tracer is not None:
                break
            continue
        for _ in range(SETUPS_PER_ROUND):
            world, setup_s = set_up(scenario(spec, next(world_seeds), payments))
            if world is None:
                out.errors.append("setup: deposits not observed")
                return out
            setups.append(setup_s)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - started >= seconds:
            break
    if tracer is not None:
        out.metrics = _layer_metrics(spec, rounds, tracer, payments)
        tracer.write(outdir / f"spans-{spec.name}-{seed}.jsonl")
        return out

    out.metrics = {
        # all rounds' payments over all rounds' phase time: a slow stretch of
        # the host moves this in proportion to its length, not all or nothing
        "payments_per_s": payments * len(rounds) / sum(res.phase_s for res in rounds),
        # per-round percentiles averaged over rounds: a slow stretch of the
        # host moves them in proportion to its length instead of flipping a
        # pooled percentile between modes. p90 rather than p99: on a shared
        # host, stalls of a few ms hit about 1% of payments at random, so a
        # p99 measures the host more than the program
        "payment_p50_ms": sum(percentile(res.latencies_s, 50) for res in rounds)
        / len(rounds) * 1e3,
        "payment_p90_ms": sum(percentile(res.latencies_s, 90) for res in rounds)
        / len(rounds) * 1e3,
        "paid_ratio": (out.attempted - out.failed) / out.attempted,
        "setup_s": median(setups),
        "recovery_s": sum(res.recovery_s for res in rounds) / len(rounds),
        "onchain_tx": median([res.onchain_tx for res in rounds]),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p99 = sum(percentile(res.latencies_s, 99) for res in rounds) / len(rounds) * 1e3
    out.notes.append(f"{len(rounds)} rounds of {payments} payments, one latency sample "
                     f"each; p99 averaged over rounds {p99:.3f} ms; {len(setups)} set-ups")
    return out


def _layer_metrics(spec: SimSpec, rounds: list[RoundResult], tracer: Tracer,
                   payments: int) -> dict[str, float]:
    traced = rounds[-1]
    stats = SpanStats(tracer.spans, *traced.span_range)
    wall_ns = traced.phase_s * 1e9
    hub_msgs = stats.calls.get("hub.HubCore.handle_message", 0)
    metrics = layer_metrics(stats, payments, wall_ns)
    metrics.update({
        "hub.msg_self_us": stats.self_ns["hub.HubCore.handle_message"] / hub_msgs / 1e3,
        "hub.tick_us": stats.total_ns["hub.HubCore.hub_tick"]
        / stats.calls["hub.HubCore.hub_tick"] / 1e3,
        "hub.busy_share": stats.layer_self_ns("hub") / wall_ns,
        "hub.journal_per_payment": traced.phase_journal / payments,
        "hub.recover_us_per_entry": traced.recovery_s / traced.journal_entries * 1e6,
        "hub.snapshot_bytes_per_payment": traced.snapshot_growth / payments,
        "simnet.msgs_per_payment": traced.phase_msgs / payments,
        "simnet.trace_per_payment": traced.phase_trace / payments,
        "simnet.ticks_per_payment": traced.phase_ticks / payments,
        "simnet.self_us_per_msg": stats.layer_self_ns("simnet") / traced.phase_msgs / 1e3,
        "simnet.busy_share": stats.layer_self_ns("simnet") / wall_ns,
        "trace.overhead_share":
            traced.phase_s / median([res.phase_s for res in rounds[:-1]]) - 1.0,
    })
    return metrics
