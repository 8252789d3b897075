"""Command-line entry points: ``hub``, ``wallet``, and ``simnet``.

Every wallet command prints one JSON result record on stdout and exits
nonzero on a FAILED outcome, so the commands compose in shell scripts.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from pathlib import Path

from .errors import HubpayError
from .server import HubServer, RemoteLedger, build_hub_config, build_ledgers
from .simnet import load_scenario, run_scenario, throughput_bench
from .wallet import WalletConfig, WalletCore
from .wire import K_ADMIN, K_OK, FrameStream, WireMessage


def _emit(record: dict, ok: bool = True) -> int:
    print(json.dumps(record, sort_keys=True))
    return 0 if ok else 1


def _connect(addr: str) -> FrameStream:
    host, _, port = addr.rpartition(":")
    sock = socket.create_connection((host or "127.0.0.1", int(port)), timeout=10)
    return FrameStream(sock)


# ---------------------------------------------------------------------------
# hub
# ---------------------------------------------------------------------------

def hub_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hub", description="Payment hub daemon")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_start = sub.add_parser("start", help="run the hub with hosted ledgers")
    p_start.add_argument("--config", required=True)
    p_snap = sub.add_parser("snapshot", help="persist hub + ledger state")
    p_snap.add_argument("--addr", required=True)
    p_ch = sub.add_parser("channels", help="channel administration")
    p_ch.add_argument("action", choices=["list"])
    p_ch.add_argument("--addr", required=True)
    p_close = sub.add_parser("close", help="unilaterally close a channel")
    p_close.add_argument("channel_id")
    p_close.add_argument("--addr", required=True)
    args = parser.parse_args(argv)

    if args.cmd == "start":
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        server = HubServer(
            build_hub_config(config),
            build_ledgers(config),
            host=config.get("host", "127.0.0.1"),
            port=int(config.get("port", 9030)),
            tick_seconds=float(config.get("tick_ms", 50)) / 1000.0,
            snapshot_path=config.get("snapshot_path"),
        )
        print(json.dumps({"listening": list(server.address)}), flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            server.shutdown()
        return 0

    stream = _connect(args.addr)
    try:
        if args.cmd == "snapshot":
            stream.send(WireMessage(K_ADMIN, {"cmd": "snapshot"}))
        elif args.cmd == "channels":
            stream.send(WireMessage(K_ADMIN, {"cmd": "channels"}))
        else:
            stream.send(WireMessage(K_ADMIN, {"cmd": "close",
                                              "channel_id": args.channel_id}))
        reply = stream.recv(timeout=10)
        body = reply.body if reply else {"ok": False, "error": "NoReply"}
        return _emit(body, ok=bool(body.get("ok")))
    finally:
        stream.close()


# ---------------------------------------------------------------------------
# wallet
# ---------------------------------------------------------------------------

def _load_wallet(path: Path, remote: RemoteLedger) -> WalletCore:
    with open(path, "r", encoding="utf-8") as fh:
        saved = json.load(fh)
    config = WalletConfig(
        client_id=saved["config"]["client_id"],
        ledger_id=saved["config"]["ledger_id"],
        mode=saved["config"]["mode"],
        claim_threshold=saved["config"]["claim_threshold"],
        poll_interval=saved["config"]["poll_interval"],
        close_timeout=saved["config"]["close_timeout"],
        key_seed=bytes.fromhex(saved["config"]["key_seed"]),
    )
    wallet = WalletCore(config, remote)
    state = saved["rng_state"]
    wallet.rng.setstate((state[0], tuple(state[1]), state[2]))
    wallet.channel_id = saved["channel_id"]
    wallet.verified = saved["verified"]
    wallet.fee_bps = saved["fee_bps"]
    wallet.cursor = saved["cursor"]
    wallet.payment_log = saved["payment_log"]
    wallet.payment_seq = saved.get("payment_seq", 0)
    wallet.closing = saved.get("closing", False)
    wallet.auto_accept_invoices = False
    if saved["channel"] is not None:
        from .channel import ChannelState

        wallet.state = ChannelState.from_jsonable(saved["channel"])
    return wallet


def _save_wallet(path: Path, wallet: WalletCore) -> None:
    state = wallet.rng.getstate()
    saved = {
        "config": {
            "client_id": wallet.config.client_id,
            "ledger_id": wallet.config.ledger_id,
            "mode": wallet.config.mode,
            "claim_threshold": wallet.config.claim_threshold,
            "poll_interval": wallet.config.poll_interval,
            "close_timeout": wallet.config.close_timeout,
            "key_seed": wallet.config.key_seed.hex(),
        },
        "rng_state": [state[0], list(state[1]), state[2]],
        "channel_id": wallet.channel_id,
        "verified": wallet.verified,
        "fee_bps": wallet.fee_bps,
        "cursor": wallet.cursor,
        "payment_log": wallet.payment_log,
        "payment_seq": getattr(wallet, "payment_seq", 0),
        "closing": wallet.closing,
        "channel": wallet.state.to_jsonable() if wallet.state else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(saved, fh, sort_keys=True)


class WalletSession:
    """One CLI command's connection: wallet core wired to a remote hub."""

    def __init__(self, args, need_state: bool = True):
        self.path = Path(args.state)
        self.stream = _connect(args.hub)
        self.remote: RemoteLedger | None = None
        self.wallet: WalletCore | None = None
        if need_state:
            with open(self.path, "r", encoding="utf-8") as fh:
                ledger_id = json.load(fh)["config"]["ledger_id"]
            self.remote = RemoteLedger(self.stream, ledger_id)
            self.wallet = _load_wallet(self.path, self.remote)
            self.stream.send(WireMessage(K_OK, {"client_id": self.wallet.client_id}))

    def send_all(self, outbox) -> None:
        for _, msg in outbox:
            self.stream.send(msg)

    def pump(self, done, timeout_s: float = 30.0, tick_every: float = 0.05) -> bool:
        """Feed frames and ticks into the wallet until ``done()`` or timeout."""
        deadline = time.monotonic() + timeout_s
        last_tick = 0.0
        while time.monotonic() < deadline:
            if done():
                return True
            while self.remote.pushback:
                msg = self.remote.pushback.pop(0)
                self.send_all(self.wallet.handle_message("hub", msg, self.remote.now))
            try:
                msg = self.stream.recv(timeout=tick_every)
            except (TimeoutError, socket.timeout):
                msg = False
            if msg is None:
                return done()
            while msg:
                self.send_all(self.wallet.handle_message("hub", msg, self.remote.now))
                # the rest of the same read joins this delivery batch
                msg = self.stream.recv() if self.stream.buffered() else None
            if time.monotonic() - last_tick >= tick_every:
                last_tick = time.monotonic()
                self.remote.refresh()
                self.send_all(self.wallet.client_tick(self.remote.now))
            self.send_all(self.wallet.flush_receipts())
        return done()

    def finish(self) -> None:
        if self.wallet is not None:
            try:
                # a receipt still owed goes out now; without it the hub
                # would have to claim the payment on-chain
                self.send_all(self.wallet.flush_receipts())
            except OSError:
                pass
            _save_wallet(self.path, self.wallet)
        self.stream.close()


def wallet_main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(add_help=False)
    top.add_argument("--hub", default="127.0.0.1:9030")
    top.add_argument("--state", default="wallet.json")
    # the per-subcommand copies must not clobber values parsed at top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hub", default=argparse.SUPPRESS)
    common.add_argument("--state", default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(prog="wallet", description="Channel wallet",
                                     parents=[top])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_reg = sub.add_parser("register", parents=[common])
    p_reg.add_argument("--id", required=True)
    p_reg.add_argument("--ledger", required=True)
    p_reg.add_argument("--mode", default="SERIALIZED",
                       choices=["SERIALIZED", "CONCURRENT"])
    p_dep = sub.add_parser("deposit", parents=[common])
    p_dep.add_argument("amount", type=int)
    p_pay = sub.add_parser("pay", parents=[common])
    p_pay.add_argument("payee")
    p_pay.add_argument("amount", type=int)
    p_pay.add_argument("--expiry-delta", type=int, default=600)
    p_pay.add_argument("--timeout", type=float, default=30.0)
    p_inv = sub.add_parser("invoice", parents=[common])
    p_inv.add_argument("amount", type=int)
    p_inv.add_argument("--expiry-delta", type=int, default=600)
    p_inv.add_argument("--timeout", type=float, default=60.0)
    sub.add_parser("balance", parents=[common])
    p_close = sub.add_parser("close", parents=[common])
    p_close.add_argument("--timeout", type=float, default=60.0)
    p_log = sub.add_parser("log", parents=[common])
    p_log.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    try:
        return _wallet_dispatch(args)
    except (HubpayError, OSError, FileNotFoundError) as exc:
        return _emit({"outcome": "FAILED", "error": str(exc)}, ok=False)


def _wallet_dispatch(args) -> int:
    if args.cmd == "log":
        with open(args.state, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
        return _emit({"payments": saved["payment_log"]})

    if args.cmd == "register":
        stream = _connect(args.hub)
        try:
            remote = RemoteLedger(stream, args.ledger)
            config = WalletConfig(client_id=args.id, ledger_id=args.ledger,
                                  mode=args.mode)
            wallet = WalletCore(config, remote)
            wallet.auto_accept_invoices = False
            for _, msg in wallet.start_register():
                stream.send(msg)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and not wallet.verified \
                    and wallet.verify_failure is None:
                reply = stream.recv(timeout=1.0)
                if reply is None:
                    break
                remote.refresh()
                wallet.handle_message("hub", reply, remote.now)
                if reply.kind == "ERROR":
                    return _emit({"outcome": "FAILED",
                                  "error": reply.body.get("code")}, ok=False)
            _save_wallet(Path(args.state), wallet)
            if wallet.verified:
                return _emit({"outcome": "REGISTERED",
                              "channel_id": wallet.channel_id})
            return _emit({"outcome": "FAILED",
                          "error": wallet.verify_failure or "Timeout"}, ok=False)
        finally:
            stream.close()

    session = WalletSession(args)
    wallet = session.wallet
    try:
        if args.cmd == "deposit":
            target = wallet.state.my_deposit + args.amount
            wallet.deposit(args.amount)
            session.pump(lambda: wallet.state.my_deposit >= target, timeout_s=5)
            return _emit({"outcome": "DEPOSITED", "amount": args.amount,
                          "channel_deposit": wallet.state.my_deposit})
        if args.cmd == "balance":
            session.remote.refresh()
            session.send_all(wallet.client_tick(session.remote.now))
            state = wallet.state
            return _emit({
                "account": session.remote.balance(wallet.client_id),
                "channel_deposit": state.my_deposit if state else 0,
                "available": state.available_balance() if state else 0,
                "credit_received": state.credit_received if state else 0,
                "credit_sent": state.credit_sent if state else 0,
            })
        if args.cmd == "pay":
            wallet.payment_seq = getattr(wallet, "payment_seq", 0) + 1
            pid = f"{wallet.client_id}-pay-{wallet.payment_seq:05d}"
            session.send_all(wallet.start_payment(
                pid, args.payee, args.amount, args.expiry_delta,
                session.remote.now))
            session.pump(lambda: wallet.flows[pid].outcome is not None,
                         timeout_s=args.timeout)
            flow = wallet.flows[pid]
            outcome = flow.outcome or "FAILED"
            return _emit({"payment_id": pid, "outcome": outcome,
                          "reason": flow.reason},
                         ok=outcome == "PAID")
        if args.cmd == "invoice":
            wallet.payment_seq = getattr(wallet, "payment_seq", 0) + 1
            pid = f"{wallet.client_id}-inv-{wallet.payment_seq:05d}"
            wallet.open_invoice(pid, args.amount, args.expiry_delta)
            done = lambda: any(
                f.role == "payee" and f.amount == args.amount and f.outcome
                for f in wallet.flows.values())
            session.pump(done, timeout_s=args.timeout)
            flows = [f for f in wallet.flows.values()
                     if f.role == "payee" and f.outcome]
            outcome = flows[-1].outcome if flows else "FAILED"
            return _emit({"outcome": outcome,
                          "credit_received": wallet.state.credit_received},
                         ok=outcome in ("RECEIVED", "CLAIM_ON_CHAIN"))
        if args.cmd == "close":
            wallet.start_close(session.remote.now)
            session.pump(lambda: wallet.settlement is not None,
                         timeout_s=args.timeout)
            ok = wallet.settlement is not None
            return _emit({"outcome": "CLOSED" if ok else "FAILED",
                          "settlement": wallet.settlement}, ok=ok)
        raise HubpayError(f"unknown command {args.cmd}")
    finally:
        session.finish()


# ---------------------------------------------------------------------------
# simnet
# ---------------------------------------------------------------------------

def simnet_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="simnet",
                                     description="Deterministic scenario harness")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--trace")
    p_run.add_argument("--report")
    p_bench = sub.add_parser("bench", help="two-client throughput benchmark")
    p_bench.add_argument("--n", type=int, default=10_000)
    p_bench.add_argument("--mode", default="CONCURRENT",
                         choices=["SERIALIZED", "CONCURRENT",
                                  "serialized", "concurrent"])
    p_bench.add_argument("--window", type=int, default=16)
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--report")
    args = parser.parse_args(argv)

    if args.cmd == "run":
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario["seed"] = args.seed
        report = run_scenario(scenario)
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                for entry in report.trace:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report.to_jsonable(), fh, sort_keys=True, indent=1)
        summary = {
            "name": report.name,
            "seed": report.seed,
            "metrics": report.metrics,
            "final_balances": report.final_balances,
            "expectations": report.assertion_results,
        }
        print(json.dumps(summary, sort_keys=True, indent=1))
        return 0 if report.ok() else 1

    report = throughput_bench(args.n, args.mode.upper(), window=args.window,
                              seed=args.seed)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_jsonable(), fh, sort_keys=True, indent=1)
    print(json.dumps({
        "mode": args.mode.upper(),
        "n": args.n,
        "payments_paid": report.metrics["payments_paid"],
        "onchain_tx_count": report.metrics["onchain_tx_count"],
        "payments_per_second": round(report.payments_per_second, 1),
        "elapsed_wall_ms": round(report.elapsed_wall_ms, 1),
        "ticks": report.metrics["ticks"],
    }, sort_keys=True))
    ok = report.metrics["payments_paid"] == args.n
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(simnet_main())
