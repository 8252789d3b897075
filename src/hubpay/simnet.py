"""Deterministic scenario harness.

One single-threaded loop owns everything: ledgers advance one tick per
iteration, queued messages deliver after a fixed per-edge delay, and the hub
and every wallet run their background handlers in a fixed order. All
randomness (secret preimages) flows from the scenario seed, so the same
(seed, scenario) pair produces a byte-identical run report.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from random import Random

from . import codec
from .adversaries import ScriptedHub, ScriptedWallet
from .errors import HubpayError, ScenarioError
from .hub import HubConfig, HubStore
from .ledger import Ledger
from .messages import MODE_SERIALIZED, MODES
from .wallet import WalletConfig
from .wire import K_PROMISE, K_RECEIPT, K_SECRET, WireMessage

BEHAVIORS = {
    "WITHHOLD_SECRET",
    "WITHHOLD_RECEIPT",
    "STALE_RECEIPT_DISPUTE",
    "DOUBLE_CLAIM",
    "OVERSPEND_PROMISE",
    "REPLAY_PROMISE",
    "CRASH",
}

ACTIONS = {"register", "deposit", "pay", "invoice", "close", "hub_close",
           "adversary", "crash", "restart", "advance", "advance_time"}


@dataclass
class RunReport:
    name: str
    seed: int
    trace: list[dict]
    metrics: dict
    final_balances: dict[str, int]
    assertion_results: list[dict]
    elapsed_wall_ms: float
    payments_per_second: float

    def ok(self) -> bool:
        return all(r["ok"] for r in self.assertion_results)

    def deterministic_view(self) -> dict:
        """Everything except wall-clock timing, which cannot reproduce."""
        return {
            "name": self.name,
            "seed": self.seed,
            "trace": self.trace,
            "metrics": self.metrics,
            "final_balances": self.final_balances,
            "assertion_results": self.assertion_results,
        }

    def canonical_bytes(self) -> bytes:
        return codec.canonical_json(self.deterministic_view())

    def to_jsonable(self) -> dict:
        view = self.deterministic_view()
        view["metrics"] = dict(view["metrics"])
        view["metrics"]["elapsed_wall_ms"] = self.elapsed_wall_ms
        view["payments_per_second"] = self.payments_per_second
        return view


def _validate_scenario(scenario: dict) -> None:
    if "seed" not in scenario:
        raise ScenarioError("scenario needs a seed")
    if not scenario.get("ledgers"):
        raise ScenarioError("scenario needs at least one ledger")
    ledger_ids = {l["ledger_id"] for l in scenario["ledgers"]}
    client_ids = {c["id"] for c in scenario.get("clients", [])}
    if "hub" in client_ids:
        raise ScenarioError("'hub' is a reserved actor id")
    for client in scenario.get("clients", []):
        if client["ledger"] not in ledger_ids:
            raise ScenarioError(f"client {client['id']} references unknown ledger")
        for b in client.get("behaviors", []):
            if b not in BEHAVIORS:
                raise ScenarioError(f"unknown behavior {b}")
    for b in scenario.get("hub", {}).get("behaviors", []):
        if b not in BEHAVIORS:
            raise ScenarioError(f"unknown behavior {b}")
    actors = client_ids | {"hub"}
    for step in scenario.get("script", []):
        action = step.get("action")
        if action not in ACTIONS:
            raise ScenarioError(f"unknown action {action!r}")
        if int(step.get("at", -1)) < 0:
            raise ScenarioError(f"action {action} needs a non-negative 'at'")
        for key in ("actor", "from", "to"):
            if key in step and step[key] not in actors:
                raise ScenarioError(f"action {action} references unknown actor {step[key]}")
        if action == "hub_close" and step.get("client") not in client_ids:
            raise ScenarioError("hub_close needs a known client")


class World:
    """All actors, ledgers, and the message bus for one scenario run."""

    def __init__(self, scenario: dict):
        _validate_scenario(scenario)
        self.scenario = scenario
        self.seed = int(scenario["seed"])
        self.name = scenario.get("name", "scenario")
        self.delay = int(scenario.get("message_delay", 1))
        if self.delay < 1:
            raise ScenarioError("message_delay must be >= 1")
        self.horizon = int(scenario.get("horizon", 0)) or self._default_horizon()
        self.ledgers: dict[str, Ledger] = {}
        for spec in scenario["ledgers"]:
            self.ledgers[spec["ledger_id"]] = Ledger(
                spec["ledger_id"], spec.get("scheme", "SCHEME_A"),
                {k: int(v) for k, v in spec["genesis"].items()})
        hub_cfg = scenario.get("hub", {})
        self.hub_config = HubConfig(
            hub_id="hub",
            fee_bps=int(hub_cfg.get("fee_bps", 0)),
            claim_margin_delta=int(hub_cfg.get("claim_margin_delta", 4)),
            dispute_window=int(hub_cfg.get("dispute_window", 10)),
            penalty_bps=int(hub_cfg.get("penalty_bps", 1000)),
            channel_float=int(hub_cfg.get("channel_float", 100_000)),
            key_seed=f"hub-{self.seed}".encode(),
        )
        self.hub_store = HubStore()
        # scripted actors, so behaviours can also be turned on mid-run
        self.hub: ScriptedHub | None = ScriptedHub(self.hub_config, self.ledgers,
                                                   self.hub_store,
                                                   behaviors=hub_cfg.get("behaviors", []))
        self.wallets: dict[str, ScriptedWallet] = {}
        for client in scenario.get("clients", []):
            config = WalletConfig(
                client_id=client["id"],
                ledger_id=client["ledger"],
                mode=client.get("mode", MODE_SERIALIZED),
                claim_threshold=int(client.get("claim_threshold", 2)),
                poll_interval=int(client.get("poll_interval", 2)),
                close_timeout=int(client.get("close_timeout", 8)),
                key_seed=f"wallet-{client['id']}-{self.seed}".encode(),
            )
            if config.mode not in MODES:
                raise ScenarioError(f"unknown mode {config.mode}")
            wallet = ScriptedWallet(config, self.ledgers[client["ledger"]],
                                    rng=Random(f"{self.seed}:{client['id']}"))
            wallet.behaviors.update(client.get("behaviors", []))
            self.wallets[client["id"]] = wallet
        for client_id, wallet in self.wallets.items():
            wallet.overspend_payee = min((c for c in self.wallets if c != client_id),
                                         default=None)
        self.crashed: set[str] = set()
        self.bus: list[tuple[int, int, str, str, WireMessage]] = []
        self._bus_seq = 0
        self.trace: list[dict] = []
        self.tick = 0
        self.payment_seq = 0
        self.payments_attempted = 0
        self._ledger_trace_cursor: dict[str, int] = {lid: 0 for lid in self.ledgers}
        self._script_by_tick: dict[int, list[dict]] = {}
        for step in scenario.get("script", []):
            self._script_by_tick.setdefault(int(step["at"]), []).append(step)

    def _default_horizon(self) -> int:
        last = max((int(s["at"]) for s in self.scenario.get("script", [])), default=0)
        return last + 120

    # -- bus ------------------------------------------------------------------------

    def send(self, src: str, dst: str, msg: WireMessage) -> None:
        self._bus_seq += 1
        self.bus.append((self.tick + self.delay, self._bus_seq, src, dst, msg))

    def _send_all(self, src: str, outbox: list[tuple[str, WireMessage]]) -> None:
        for dst, msg in outbox:
            self.send(src, dst, msg)

    def _due_messages(self) -> list[tuple[int, int, str, str, WireMessage]]:
        due = sorted(m for m in self.bus if m[0] <= self.tick)
        self.bus = [m for m in self.bus if m[0] > self.tick]
        return due

    # -- tracing ----------------------------------------------------------------------

    def _trace_msg(self, src: str, dst: str, msg: WireMessage, dropped: bool) -> None:
        entry: dict = {"t": self.tick, "ev": "msg", "src": src, "dst": dst,
                       "kind": msg.kind}
        body = msg.body
        if "payment_id" in body and body["payment_id"]:
            entry["pid"] = body["payment_id"]
        if msg.kind == K_PROMISE and body.get("promise"):
            p = body["promise"]
            entry.update(channel=p["channel_id"], amount=p["amount"],
                         index=p["index"], hashlock=p["hashlock"][:16],
                         expiry=p["expiry"], sender=p["sender"])
        elif msg.kind == K_RECEIPT and body.get("receipt"):
            r = body["receipt"]
            entry.update(channel=r["channel_id"], issuer=r["issuer"],
                         index=r["index"], cumulative=r["cumulative_credit"])
        elif msg.kind == K_SECRET and body.get("secret"):
            entry.update(channel=body["secret"]["channel_id"],
                         hashlock=body["secret"]["hashlock"][:16])
        elif msg.kind == "ERROR":
            entry["code"] = body.get("code")
        if dropped:
            entry["dropped"] = True
        self.trace.append(entry)

    def _drain_actor_trace(self, actor_id: str, core) -> None:
        for note in core.trace:
            entry = {"t": self.tick, "ev": "note", "actor": actor_id}
            entry.update(note)
            self.trace.append(entry)
        core.trace.clear()

    def _trace_ledger_events(self) -> None:
        for ledger_id in sorted(self.ledgers):
            ledger = self.ledgers[ledger_id]
            start = self._ledger_trace_cursor[ledger_id]
            for event in ledger.events[start:]:
                entry = {"t": self.tick, "ev": "ledger", "ledger": ledger_id}
                entry.update(event.to_jsonable())
                self.trace.append(entry)
            self._ledger_trace_cursor[ledger_id] = len(ledger.events)

    # -- script actions ---------------------------------------------------------------

    def _apply_action(self, step: dict) -> None:
        action = step["action"]
        self.trace.append({"t": self.tick, "ev": "action", **step})
        if action == "register":
            wallet = self.wallets[step["actor"]]
            self._send_all(wallet.client_id, wallet.start_register())
        elif action == "deposit":
            wallet = self.wallets[step["actor"]]
            try:
                wallet.deposit(int(step["amount"]))
            except HubpayError as exc:
                self.trace.append({"t": self.tick, "ev": "note",
                                   "actor": wallet.client_id,
                                   "action": "deposit_failed", "code": exc.code})
        elif action == "pay":
            self.payment_seq += 1
            self.payments_attempted += 1
            payment_id = step.get("payment_id", f"pmt-{self.payment_seq:05d}")
            wallet = self.wallets[step["from"]]
            self._send_all(wallet.client_id, wallet.start_payment(
                payment_id, step["to"], int(step["amount"]),
                int(step.get("expiry_delta", 30)), self.tick))
        elif action == "invoice":
            wallet = self.wallets[step["actor"]]
            wallet.open_invoice(step.get("payment_id", f"inv-{self.payment_seq:05d}"),
                                int(step["amount"]), int(step.get("expiry_delta", 30)),
                                step.get("payer"))
        elif action == "close":
            self.wallets[step["actor"]].start_close(self.tick)
        elif action == "hub_close":
            if self.hub is not None and "hub" not in self.crashed:
                self.hub.initiate_close(step["client"], self.tick)
        elif action == "adversary":
            actor = step["actor"]
            behavior = step["behavior"]
            if behavior not in BEHAVIORS:
                raise ScenarioError(f"unknown behavior {behavior}")
            if behavior == "CRASH":
                self._crash(actor)
            elif actor == "hub":
                if self.hub is not None:
                    self.hub.behaviors.add(behavior)
            else:
                self.wallets[actor].behaviors.add(behavior)
        elif action == "crash":
            self._crash(step["actor"])
        elif action == "restart":
            self._restart(step["actor"])
        elif action in ("advance", "advance_time"):
            # ticks advance by themselves; this is a scripted no-op marker
            pass

    def _crash(self, actor: str) -> None:
        self.crashed.add(actor)
        if actor == "hub":
            self.hub = None  # in-memory state is gone; the store survives
        self.trace.append({"t": self.tick, "ev": "note", "actor": actor,
                           "action": "crashed"})

    def _restart(self, actor: str) -> None:
        if actor != "hub":
            raise ScenarioError("only the hub supports restart")
        if "hub" not in self.crashed:
            return
        self.hub = ScriptedHub.recover(
            self.hub_config, self.ledgers, self.hub_store,
            behaviors=self.scenario.get("hub", {}).get("behaviors", []))
        self.crashed.discard("hub")
        self.trace.append({"t": self.tick, "ev": "note", "actor": "hub",
                           "action": "recovered"})

    # -- main loop -------------------------------------------------------------------------

    def _handle_delivery(self, src: str, dst: str, msg: WireMessage) -> None:
        if dst == "hub":
            if self.hub is None or "hub" in self.crashed:
                return
            self._send_all("hub", self.hub.handle_message(src, msg, self.tick))
            self._drain_actor_trace("hub", self.hub)
        else:
            wallet = self.wallets.get(dst)
            if wallet is None or dst in self.crashed:
                return
            self._send_all(dst, wallet.handle_message(src, msg, self.tick))
            self._drain_actor_trace(dst, wallet)

    def step(self) -> None:
        for _, _, src, dst, msg in self._due_messages():
            dropped = (dst == "hub" and (self.hub is None or "hub" in self.crashed)) \
                or (dst != "hub" and dst in self.crashed)
            self._trace_msg(src, dst, msg, dropped)
            if not dropped:
                self._handle_delivery(src, dst, msg)
        for step in self._script_by_tick.get(self.tick, []):
            self._apply_action(step)
        if self.hub is not None and "hub" not in self.crashed:
            self._send_all("hub", self.hub.hub_tick(self.tick))
            self._send_all("hub", self.hub.attack(self.tick))
            self._drain_actor_trace("hub", self.hub)
        for client_id in sorted(self.wallets):
            if client_id in self.crashed:
                continue
            wallet = self.wallets[client_id]
            self._send_all(client_id, wallet.client_tick(self.tick))
            self._send_all(client_id, wallet.attack(self.tick))
            self._drain_actor_trace(client_id, wallet)
        self._trace_ledger_events()
        for ledger_id in sorted(self.ledgers):
            self.ledgers[ledger_id].advance_time(1)
        self.tick += 1

    def _quiet(self) -> bool:
        if self.bus:
            return False
        if self.tick <= max(self._script_by_tick, default=0):
            return False
        for client_id, wallet in self.wallets.items():
            if wallet.open_flows:
                return False
            if (wallet.closing and client_id not in self.crashed
                    and wallet.channel_id is not None):
                contract = wallet.ledger.contracts.get(wallet.channel_id)
                if contract is not None and contract.status != "CLOSED":
                    return False
        for ledger in self.ledgers.values():
            if any(c.status == "CLOSING" for c in ledger.contracts.values()):
                return False
        return True

    def run(self) -> RunReport:
        started = time.perf_counter()
        while self.tick < self.horizon:
            self.step()
            if self._quiet():
                # two grace ticks allow trailing event observation
                self.step()
                self.step()
                break
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return self._report(elapsed_ms)

    # -- reporting -----------------------------------------------------------------------

    def final_balances(self) -> dict[str, int]:
        actors = sorted(self.wallets) + ["hub"]
        balances = {}
        for actor in actors:
            balances[actor] = sum(l.balance(actor) for l in self.ledgers.values())
        return balances

    def _metrics(self) -> dict:
        paid = 0
        for wallet in self.wallets.values():
            for flow in wallet.flows.values():
                if flow.role == "sender" and flow.outcome == "PAID":
                    paid += 1
        return {
            "payments_attempted": self.payments_attempted,
            "payments_paid": paid,
            "onchain_tx_count": sum(len(l.events) for l in self.ledgers.values()),
            "offchain_msg_count": sum(1 for e in self.trace if e["ev"] == "msg"
                                      and not e.get("dropped")),
            "ticks": self.tick,
        }

    def _report(self, elapsed_ms: float) -> RunReport:
        metrics = self._metrics()
        pps = (metrics["payments_paid"] / (elapsed_ms / 1000.0)) if elapsed_ms > 0 else 0.0
        report = RunReport(
            name=self.name,
            seed=self.seed,
            trace=self.trace,
            metrics=metrics,
            final_balances=self.final_balances(),
            assertion_results=[],
            elapsed_wall_ms=elapsed_ms,
            payments_per_second=pps,
        )
        report.assertion_results.extend(
            _evaluate_expectations(self, self.scenario.get("expectations", [])))
        return report


def _evaluate_expectations(world: World, expectations: list[dict]) -> list[dict]:
    results = []
    balances = world.final_balances()
    for exp in expectations:
        kind = exp.get("kind")
        name = exp.get("name", kind)
        ok, detail = False, ""
        if kind == "exact-balance":
            actual = balances.get(exp["actor"])
            ok = actual == int(exp["value"])
            detail = f"{exp['actor']}={actual}, want {exp['value']}"
        elif kind == "balance-bound":
            actual = balances.get(exp["actor"], 0)
            lo = int(exp.get("min", -10**18))
            hi = int(exp.get("max", 10**18))
            ok = lo <= actual <= hi
            detail = f"{exp['actor']}={actual}, want [{lo},{hi}]"
        elif kind == "event-count":
            count = _count_events(world, exp)
            ok = True
            if "equals" in exp:
                ok = ok and count == int(exp["equals"])
            if "min" in exp:
                ok = ok and count >= int(exp["min"])
            if "max" in exp:
                ok = ok and count <= int(exp["max"])
            detail = f"{exp.get('event', 'any')}={count}"
        elif kind == "event-absence":
            count = _count_events(world, exp)
            ok = count == 0
            detail = f"{exp.get('event', 'any')}={count}, want 0"
        elif kind == "payment-outcome":
            outcome = None
            for wallet in world.wallets.values():
                flow = wallet.flows.get(exp["payment_id"])
                if flow is not None and flow.role == exp.get("role", "sender"):
                    outcome = flow.outcome
            ok = outcome == exp["outcome"]
            detail = f"{exp['payment_id']}={outcome}, want {exp['outcome']}"
        elif kind == "payments-paid":
            paid = world._metrics()["payments_paid"]
            ok = paid == int(exp["equals"])
            detail = f"paid={paid}, want {exp['equals']}"
        else:
            detail = f"unknown expectation kind {kind!r}"
        results.append({"name": name, "kind": kind, "ok": bool(ok), "detail": detail})
    return results


def _count_events(world: World, exp: dict) -> int:
    kind = exp.get("event")
    count = 0
    for ledger_id, ledger in world.ledgers.items():
        if exp.get("ledger") and exp["ledger"] != ledger_id:
            continue
        for event in ledger.events:
            if kind is None or event.kind == kind:
                count += 1
    return count


def run_scenario(scenario: dict) -> RunReport:
    """Execute one scripted scenario on a fresh deterministic world."""
    return World(scenario).run()


# ---------------------------------------------------------------------------
# Throughput benchmark
# ---------------------------------------------------------------------------

def throughput_bench(n: int, mode: str = "CONCURRENT", window: int = 16,
                     seed: int = 7) -> RunReport:
    """Run ``n`` payments between two funded clients; payments are issued as
    fast as the mode allows (a window of in-flight payments in CONCURRENT
    mode, strictly one in SERIALIZED mode)."""
    if n < 1:
        raise ScenarioError("n must be >= 1")
    if mode not in MODES:
        raise ScenarioError(f"unknown mode {mode}")
    if mode == MODE_SERIALIZED:
        window = 1
    scenario = {
        "name": f"bench-{mode.lower()}-{n}",
        "seed": seed,
        "horizon": 40 * n + 200,
        "ledgers": [{"ledger_id": "L1", "scheme": "SCHEME_A",
                     "genesis": {"alice": 10 * n + 1000, "bob": 1000,
                                 "hub": 40 * n + 10_000}}],
        "hub": {"claim_margin_delta": 4, "dispute_window": 10,
                "channel_float": 20 * n + 1000},
        "clients": [
            {"id": "alice", "ledger": "L1", "mode": mode},
            {"id": "bob", "ledger": "L1", "mode": mode},
        ],
        "script": [
            {"at": 0, "action": "register", "actor": "alice"},
            {"at": 0, "action": "register", "actor": "bob"},
            {"at": 2, "action": "deposit", "actor": "alice", "amount": 10 * n + 100},
            {"at": 2, "action": "deposit", "actor": "bob", "amount": 100},
        ],
    }
    world = World(scenario)
    alice = world.wallets["alice"]
    bob = world.wallets["bob"]
    issued = 0
    payment_window = 60
    gc_was_enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    payments_started: float | None = None
    payments_done: float | None = None
    while world.tick < world.horizon:
        if world.tick >= 4 and issued < n:
            if payments_started is None:
                payments_started = time.perf_counter()
            outstanding = len(alice.open_flows)
            burst = min(window - outstanding, n - issued)
            for _ in range(max(0, burst)):
                issued += 1
                world.payments_attempted += 1
                # the invoice travels out of band, point-of-sale style
                pid = f"pmt-{issued:06d}"
                proposal = bob.issue_proposal(pid, "alice", 10,
                                              payment_window, world.tick)
                world._send_all("alice", alice.start_payment_with_proposal(
                    pid, "bob", proposal, world.tick))
        world.step()
        if issued == n and not alice.open_flows:
            payments_done = time.perf_counter()
            break
    # close both channels cooperatively, outside the off-chain phase
    for actor in ("alice", "bob"):
        world.wallets[actor].start_close(world.tick)
    settle_deadline = world.tick + 100
    while world.tick < settle_deadline:
        world.step()
        if all(c.status == "CLOSED" for l in world.ledgers.values()
               for c in l.contracts.values()):
            world.step()
            break
    finished = time.perf_counter()
    elapsed_ms = (finished - started) * 1000.0
    if gc_was_enabled:
        gc.enable()
    report = world._report(elapsed_ms)
    # off-chain throughput is measured over the payment phase; the channel
    # open and close ceremony is the amortized on-chain part
    span = ((payments_done or finished) - (payments_started or started))
    if span > 0:
        report.payments_per_second = report.metrics["payments_paid"] / span
    return report


# ---------------------------------------------------------------------------
# Scenario file I/O
# ---------------------------------------------------------------------------

def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"bad scenario file {path}: {exc}") from exc
