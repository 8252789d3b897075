"""Socket workload: the ``hub start`` daemon over loopback.

The daemon runs as a subprocess on 127.0.0.1 with an ephemeral port and one
Ed25519 ledger. One generator thread drives two long-lived CONCURRENT
wallets (alice pays bob), each a ``WalletCore`` over a ``RemoteLedger`` on
its own connection; admin queries ride on alice's connection.

Phase B runs first: a closed loop with ``WINDOW`` payments in flight, which
gives throughput. Phase A is an open loop at ``RATE`` payments/s; each
payment's latency runs from the moment it was due until both the payer
(PAID) and the payee (RECEIVED) resolved it. ``recovery_s`` times
``HubCore.recover`` from the daemon's snapshot taken after phase B.
"""

from __future__ import annotations

import gc
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hubpay.hub import HubCore, HubStore
from hubpay.ledger import STATUS_CLOSED, Ledger
from hubpay.messages import MODE_CONCURRENT
from hubpay.server import RemoteLedger, build_hub_config
from hubpay.wallet import WalletConfig, WalletCore
from hubpay.wire import K_ADMIN, K_ADMIN_RESULT, K_REGISTER_OK, FrameStream, WireMessage

from metrics import Outcome, layer_metrics, median, percentile
from tracing import SpanStats, Tracer

AMOUNT = 10
RATE = 100            # phase A offered load, payments/s
PHASE_A = 1000        # phase A payments: at least 10 samples beyond p99
WINDOW = 16           # phase B payments in flight
PHASE_B = 1200        # phase B payments
EXPIRY_DELTA = 600    # ticks; the daemon ticks every 50 ms
# how often each wallet polls its ledger and runs its tick in phase B; a
# refresh blocks the single generator thread for a round trip, so phase A
# (open loop) runs without ticks, which an honest run does not need
WALLET_TICK_S = 1.0
CHUNK_A = 100         # phase A payments between two blocks of recoveries
# Untraced runs time recoveries of the snapshot taken after phase B in blocks
# spread over the whole run, and report the fastest. The host's other
# tenants slow all its CPU work by up to 2x for seconds to minutes, so the
# mean or median of a stretch measures the host; the best of a run is the
# recovery's own cost
RECOVERY_BLOCK_S = 0.6
STALL_S = 20.0        # a phase fails when no payment resolves for this long
SETUPS = 9            # daemon launches per untraced run; setup_s is their median
DAEMON_MAIN = "import sys; from hubpay.cli import hub_main; sys.exit(hub_main())"


def daemon_config(seed: int, payments: int) -> dict:
    float_ = AMOUNT * payments + 1000
    return {
        "host": "127.0.0.1",
        "port": 0,
        "key_seed": f"bench-hub-{seed}",
        "channel_float": float_,
        "ledgers": [{"ledger_id": "L1", "scheme": "SCHEME_A",
                     "genesis": {"alice": AMOUNT * payments + 1000, "bob": 1000,
                                 "hub": 2 * float_ + 1000}}],
    }


class Daemon:
    """``hub start`` in a subprocess with its own pipes; stop() kills and
    reaps it."""

    def __init__(self, root: Path, outdir: Path, config: dict, tag: str):
        self.config_path = outdir / f"hub-{tag}.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.log = open(outdir / f"hub-{tag}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", DAEMON_MAIN, "start", "--config", str(self.config_path)],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self.log, start_new_session=True)
        try:
            self.address = self._await_listening(30.0)
        except BaseException:
            self.stop()
            raise

    def _await_listening(self, timeout: float) -> tuple[str, int]:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(timeout):
                raise RuntimeError("hub daemon did not report its address")
        finally:
            sel.close()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"hub daemon exited with {self.proc.wait()}")
        host, port = json.loads(line)["listening"]
        return host, int(port)

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        # utime and stime are fields 14 and 15 of the stat line
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Client:
    """One wallet on its own connection, pumped without blocking."""

    def __init__(self, address, client_id: str, seed: int):
        self.stream = FrameStream(socket.create_connection(address, timeout=10))
        self.remote = RemoteLedger(self.stream, "L1")
        self.wallet = WalletCore(
            WalletConfig(client_id=client_id, ledger_id="L1", mode=MODE_CONCURRENT,
                         claim_threshold=5, poll_interval=40, close_timeout=200,
                         key_seed=f"bench-{client_id}-{seed}".encode()),
            self.remote)
        self.admin_results: list[dict] = []

    def send_all(self, outbox) -> None:
        for _, msg in outbox:
            self.stream.send(msg)

    def handle(self, msg: WireMessage) -> None:
        if msg.kind == K_ADMIN_RESULT:
            self.admin_results.append(msg.body)
            return
        if msg.kind == K_REGISTER_OK:
            # the deployment must be in the replica before it is verified
            self.remote.refresh()
        self.send_all(self.wallet.handle_message("hub", msg, self.remote.now))

    def pump(self) -> None:
        """Handle every frame already received, without waiting."""
        while True:
            while self.remote.pushback:
                self.handle(self.remote.pushback.pop(0))
            try:
                msg = self.stream.recv(timeout=0)
            except (BlockingIOError, TimeoutError):
                break
            finally:
                self.stream.sock.settimeout(10)
            if msg is None:
                raise ConnectionError("hub closed the connection")
            self.handle(msg)

    def tick(self) -> None:
        self.remote.refresh()
        self.pump()
        self.send_all(self.wallet.client_tick(self.remote.now))

    def admin(self, cmd: str) -> dict:
        self.stream.send(WireMessage(K_ADMIN, {"cmd": cmd}))
        deadline = time.monotonic() + 10
        while not self.admin_results:
            if time.monotonic() > deadline:
                raise TimeoutError(f"no reply to ADMIN {cmd}")
            while self.remote.pushback:
                self.handle(self.remote.pushback.pop(0))
            if self.admin_results:
                break
            msg = self.stream.recv(timeout=10)
            if msg is None:
                raise ConnectionError("hub closed the connection")
            self.handle(msg)
        return self.admin_results.pop(0)

    def close(self) -> None:
        self.stream.close()


@dataclass
class Phase:
    seconds: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    server_cpu_s: float = 0.0
    generator_cpu_s: float = 0.0
    last_progress: float = 0.0


class Recovery:
    """Timed ``HubCore.recover`` runs from one daemon snapshot, each checked
    against the live state the snapshot holds."""

    def __init__(self, snap: dict, daemon_config_: dict):
        self.hub_state = snap["hub"]
        self.live_json = json.dumps(snap["hub"], sort_keys=True, separators=(",", ":"))
        # a snapshot-only recovery replays no journal, so it reads but never
        # changes the ledgers, and one set of them serves every repetition
        self.ledgers = {lid: Ledger.from_snapshot(s) for lid, s in snap["ledgers"].items()}
        self.config = build_hub_config(daemon_config_)
        self.times: list[float] = []
        self.errors: list[str] = []

    def block(self, seconds: float) -> None:
        """Recover repeatedly for ``seconds``, at least once."""
        # the generator's own heap (both wallets' flows) is frozen out of the
        # collector, and each repetition starts from a collected heap, so the
        # collections timed are those of the recovery's own allocations
        gc.collect()
        gc.freeze()
        try:
            until = time.perf_counter() + seconds
            while True:
                store = HubStore()
                store.set_snapshot(self.hub_state)
                hub = None
                gc.collect()
                start = time.perf_counter()
                hub = HubCore.recover(self.config, self.ledgers, store)
                self.times.append(time.perf_counter() - start)
                if time.perf_counter() >= until:
                    break
        finally:
            gc.unfreeze()
        if hub.persist_json() != self.live_json and not self.errors:
            self.errors.append("recovered hub state differs from the daemon's snapshot")


class Session:
    """A launched daemon with both wallets registered and funded."""

    def __init__(self, root: Path, outdir: Path, seed: int, tag: str, payments: int):
        self.config = daemon_config(seed, payments)
        self.payments = payments
        self.issued = 0
        self.started = time.perf_counter()
        self.daemon = Daemon(root, outdir, self.config, tag)
        self.clients: list[Client] = []
        try:
            self.alice = Client(self.daemon.address, "alice", seed)
            self.clients.append(self.alice)
            self.bob = Client(self.daemon.address, "bob", seed)
            self.clients.append(self.bob)
            self._setup()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.started
        self.sel = selectors.DefaultSelector()
        for c in self.clients:
            self.sel.register(c.stream.sock, selectors.EVENT_READ)
        self.next_tick = time.perf_counter() + WALLET_TICK_S

    def _setup(self) -> None:
        for c in self.clients:
            c.send_all(c.wallet.start_register())
        for c in self.clients:
            while not (c.wallet.verified or c.wallet.verify_failure):
                msg = c.stream.recv(timeout=10)
                if msg is None:
                    raise ConnectionError("hub closed the connection")
                c.handle(msg)
        if not all(c.wallet.verified for c in self.clients):
            raise RuntimeError("registration failed")
        deposits = {"alice": AMOUNT * self.payments + 100, "bob": 100}
        for c in self.clients:
            c.wallet.deposit(deposits[c.wallet.client_id])
        # setup ends when the hub itself reports every deposit
        deadline = time.monotonic() + 10
        while True:
            for c in self.clients:
                c.tick()
            rows = {r["client"]: r for r in self.alice.admin("channels")["channels"]}
            if all(rows.get(cid, {}).get("client_deposit") == amount
                   and rows[cid]["hub_deposit"] == self.config["channel_float"]
                   for cid, amount in deposits.items()) and all(
                    c.wallet.state.my_deposit == deposits[c.wallet.client_id]
                    for c in self.clients):
                return
            if time.monotonic() > deadline:
                raise TimeoutError("hub did not observe the deposits")
            time.sleep(0.01)

    # -- payments --------------------------------------------------------------------

    def _issue(self) -> str:
        self.issued += 1
        pid = f"pay-{self.issued:06d}"
        proposal = self.bob.wallet.issue_proposal(pid, "alice", AMOUNT, EXPIRY_DELTA,
                                                  self.bob.remote.now)
        self.alice.send_all(self.alice.wallet.start_payment_with_proposal(
            pid, "bob", proposal, self.alice.remote.now))
        return pid

    def _resolved(self, pid: str) -> bool:
        return (pid not in self.alice.wallet.open_flows
                and pid not in self.bob.wallet.open_flows)

    def _service(self, timeout: float, ticks: bool = True) -> None:
        """Wait up to ``timeout`` for frames, handle them, run due ticks."""
        now = time.perf_counter()
        if not ticks:
            self.next_tick = now + WALLET_TICK_S
        elif now >= self.next_tick:
            for c in self.clients:
                c.tick()
            self.next_tick = max(self.next_tick + WALLET_TICK_S, now)
        timeout = max(0.0, min(timeout, self.next_tick - now))
        if timeout > 0:
            self.sel.select(timeout)
        for c in self.clients:
            c.pump()

    def _phase(self, run) -> Phase:
        phase = Phase()
        cpu0, gen0 = self.daemon.cpu_s(), time.process_time()
        start = phase.last_progress = time.perf_counter()
        run(phase, start)
        phase.seconds = time.perf_counter() - start
        phase.server_cpu_s = self.daemon.cpu_s() - cpu0
        phase.generator_cpu_s = time.process_time() - gen0
        return phase

    def open_loop(self, count: int, rate: float) -> Phase:
        def run(phase: Phase, start: float) -> None:
            pending: dict[str, float] = {}
            sent = 0
            while sent < count or pending:
                now = time.perf_counter()
                while sent < count and start + sent / rate <= now:
                    due = start + sent / rate
                    pid = self._issue()
                    phase.late_s.append(time.perf_counter() - due)
                    pending[pid] = due
                    sent += 1
                self._settle(pending, phase)
                next_due = start + sent / rate if sent < count else now + 0.05
                self._service(next_due - time.perf_counter(), ticks=sent >= count)
                self._settle(pending, phase)
        return self._phase(run)

    def closed_loop(self, count: int, window: int) -> Phase:
        def run(phase: Phase, start: float) -> None:
            pending: dict[str, float] = {}
            sent = 0
            while sent < count or pending:
                while sent < count and len(pending) < window:
                    pending[self._issue()] = time.perf_counter()
                    sent += 1
                self._service(0.05)
                self._settle(pending, phase)
        return self._phase(run)

    def _settle(self, pending: dict[str, float], phase: Phase) -> None:
        now = time.perf_counter()
        done = [p for p in pending if self._resolved(p)]
        for pid in done:
            phase.latencies_s.append(now - pending.pop(pid))
        if done or not pending:
            phase.last_progress = now
        elif now - phase.last_progress > STALL_S:
            raise TimeoutError(f"no payment resolved for {STALL_S:.0f} s")

    # -- after the phases ----------------------------------------------------------------

    def outcomes(self) -> tuple[int, int]:
        """(payments PAID at alice and RECEIVED at bob, payments attempted)."""
        ok = sum(1 for k in range(1, self.issued + 1)
                 if self.alice.wallet.flows[f"pay-{k:06d}"].outcome == "PAID"
                 and self.bob.wallet.flows[f"pay-{k:06d}"].outcome == "RECEIVED")
        return ok, self.issued

    def check_credits(self, paid: int) -> list[str]:
        """ADMIN channels must show the paid total credited on both channels."""
        deadline = time.monotonic() + 10
        while True:
            rows = {r["client"]: r for r in self.alice.admin("channels")["channels"]}
            got = (rows["alice"]["credit_to_hub"], rows["bob"]["credit_to_client"])
            if got == (AMOUNT * paid, AMOUNT * paid):
                return []
            if time.monotonic() > deadline:
                return [f"ADMIN channels credits {got}, expected {AMOUNT * paid} each"]
            self._service(0.02)

    def snapshot(self) -> dict:
        """The daemon's ``ADMIN snapshot``: its hub state and ledgers."""
        return self.alice.admin("snapshot")["snapshot"]

    def close_and_check(self, paid: int, balance_delta: int) -> tuple[int, list[str]]:
        """Cooperatively close both channels; returns (ledger events, errors)."""
        for c in self.clients:
            c.wallet.start_close(c.remote.now)
        deadline = time.monotonic() + 30
        while not all(c.wallet.settlement is not None for c in self.clients):
            if time.monotonic() > deadline:
                return 0, ["channels did not close"]
            for c in self.clients:
                c.tick()
            self._service(0.05)
        replica = self.alice.remote
        replica.refresh()
        ledger = replica.local
        genesis = self.config["ledgers"][0]["genesis"]
        expected = dict(genesis)
        expected["alice"] -= AMOUNT * paid
        expected["bob"] += AMOUNT * paid + balance_delta
        errors = []
        for account, want in expected.items():
            if ledger.balance(account) != want:
                errors.append(f"{account} holds {ledger.balance(account)}, expected {want}")
        if ledger.total_value() != sum(genesis.values()):
            errors.append("value not conserved")
        if any(c.status != STATUS_CLOSED for c in ledger.contracts.values()):
            errors.append("a channel did not close")
        events = len(ledger.events)
        if events != 4 * len(ledger.contracts):
            errors.append(f"onchain_tx {events} != 4 x {len(ledger.contracts)} channels")
        return events, errors

    def stop(self) -> None:
        for c in self.clients:
            c.close()
        if getattr(self, "sel", None) is not None:
            self.sel.close()
        self.daemon.stop()


def run(root: Path, seed: int, seconds: float, trace: bool, payments: int | None,
        balance_delta: int, outdir: Path) -> Outcome:
    """Untraced: a daemon launch, phase B, phase A in chunks of CHUNK_A
    payments, then SETUPS - 1 more launches. Recoveries of the snapshot taken
    after phase B run in blocks between the chunks and the launches, and then
    until ``seconds`` have passed. Traced: one launch, phases B and A, then
    phase B again with spans on."""
    out = Outcome()
    deadline = time.perf_counter() + seconds
    count_a = min(PHASE_A, payments) if payments else PHASE_A
    count_b = min(PHASE_B, payments) if payments else PHASE_B
    total = count_a + count_b * (2 if trace else 1)
    session = Session(root, outdir, seed * 100, f"{seed}-main", total)
    setups = [session.setup_s]
    tracer = None
    try:
        phase_b = session.closed_loop(count_b, WINDOW)
        recovery = Recovery(session.snapshot(), session.config)
        # read before phase A: memory the snapshot freed makes the daemon's
        # later peak depend on how phase A's allocations reuse it
        peak_rss_mb = session.daemon.peak_rss_mb()
        if trace:
            recovery.block(0.0)
            phase_a = session.open_loop(count_a, RATE)
            tracer = Tracer()
            tracer.install()
            tracer.active = True
            try:
                traced = session.closed_loop(count_b, WINDOW)
            finally:
                tracer.uninstall()
        else:
            phase_a = Phase()
            for sent in range(0, count_a, CHUNK_A):
                chunk = session.open_loop(min(CHUNK_A, count_a - sent), RATE)
                phase_a.latencies_s += chunk.latencies_s
                phase_a.late_s += chunk.late_s
                recovery.block(RECOVERY_BLOCK_S)
        ok, out.attempted = session.outcomes()
        out.failed = out.attempted - ok
        out.errors += session.check_credits(ok)
        onchain_tx, errors = session.close_and_check(ok, balance_delta)
        out.errors += errors
    finally:
        session.stop()
    if not trace:
        for k in range(1, SETUPS):
            extra = Session(root, outdir, seed * 100 + k, f"{seed}-{k}", total)
            setups.append(extra.setup_s)
            extra.stop()
            recovery.block(RECOVERY_BLOCK_S)
        recovery.block(deadline - time.perf_counter())
    out.errors += recovery.errors
    snapshot_bytes = len(recovery.live_json)
    if tracer is not None:
        stats = SpanStats(tracer.spans)
        tracer.write(outdir / f"spans-socket-loopback-{seed}.jsonl")
        frames = sum(n for _, n in stats.extras["wire.decode_frames"])
        wire_bytes = (sum(stats.extras["wire.encode_frame"])
                      + sum(b for b, _ in stats.extras["wire.decode_frames"]))
        refresh_ns = stats.durations_ns["server.RemoteLedger.refresh"]
        out.metrics = layer_metrics(stats, count_b, traced.seconds * 1e9)
        out.metrics.update({
            "hub.snapshot_bytes_per_payment": snapshot_bytes / count_b,
            "wire.encode_us": (stats.total_ns["wire.encode_frame"]
                               / stats.calls["wire.encode_frame"] / 1e3),
            "wire.decode_us": stats.total_ns["wire.decode_frames"] / frames / 1e3,
            "wire.bytes_per_payment": wire_bytes / count_b,
            "server.cpu_ms_per_payment": phase_b.server_cpu_s / count_b * 1e3,
            "server.cpu_busy_share": phase_b.server_cpu_s / phase_b.seconds,
            "server.ledger_op_rtt_ms": median(refresh_ns) / 1e6 if refresh_ns else 0.0,
            "generator.late_p99_ms": percentile(phase_a.late_s, 99) * 1e3,
            "generator.cpu_ms_per_payment": phase_b.generator_cpu_s / count_b * 1e3,
            "trace.overhead_share": traced.seconds / phase_b.seconds - 1.0,
        })
        return out
    out.metrics = {
        "payments_per_s": count_b / phase_b.seconds,
        "payment_p50_ms": percentile(phase_a.latencies_s, 50) * 1e3,
        "payment_p90_ms": percentile(phase_a.latencies_s, 90) * 1e3,
        "paid_ratio": ok / out.attempted,
        "setup_s": median(setups),
        "recovery_s": min(recovery.times),
        "peak_rss_mb": peak_rss_mb,
        "onchain_tx": float(onchain_tx),
    }
    out.notes.append(
        f"phase A: {len(phase_a.latencies_s)} latency samples at {RATE}/s offered, "
        f"p99 {percentile(phase_a.latencies_s, 99) * 1e3:.3f} ms, "
        f"generator late p99 {percentile(phase_a.late_s, 99) * 1e3:.2f} ms; "
        f"phase B: {count_b} payments, window {WINDOW}; {len(setups)} daemon set-ups; "
        f"{len(recovery.times)} recoveries of a {snapshot_bytes}-byte snapshot, "
        f"median {median(recovery.times) * 1e3:.2f} ms")
    return out
