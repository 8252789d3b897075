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
from dataclasses import asdict
from pathlib import Path

from .channel import ChannelState
from .errors import HubpayError
from .server import HubServer, SocketWallet, build_hub_config, build_ledgers
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

def _restore_wallet(wallet: WalletCore, saved: dict) -> None:
    state = saved["rng_state"]
    wallet.rng.setstate((state[0], tuple(state[1]), state[2]))
    wallet.channel_id = saved["channel_id"]
    wallet.verified = saved["verified"]
    wallet.fee_bps = saved["fee_bps"]
    wallet.cursor = saved["cursor"]
    wallet.payment_log = saved["payment_log"]
    wallet.closing = saved.get("closing", False)
    if saved["channel"] is not None:
        wallet.state = ChannelState.from_jsonable(saved["channel"])


def _save_wallet(path: Path, wallet: WalletCore, payment_seq: int) -> None:
    state = wallet.rng.getstate()
    saved = {
        "config": {**asdict(wallet.config), "key_seed": wallet.config.key_seed.hex()},
        "rng_state": [state[0], list(state[1]), state[2]],
        "channel_id": wallet.channel_id,
        "verified": wallet.verified,
        "fee_bps": wallet.fee_bps,
        "cursor": wallet.cursor,
        "payment_log": wallet.payment_log,
        "payment_seq": payment_seq,
        "closing": wallet.closing,
        "channel": wallet.state.to_jsonable() if wallet.state else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(saved, fh, sort_keys=True)


class WalletSession:
    """One CLI command's connection: the wallet kept in ``path``, driven over
    the hub socket. Given a ``config`` it starts a new wallet, which
    registers; otherwise it loads the saved wallet, which says hello."""

    def __init__(self, path: Path, hub: str, config: WalletConfig | None = None):
        self.path = path
        self.save = True
        self.payment_seq = 0
        saved = None
        if config is None:
            with open(path, "r", encoding="utf-8") as fh:
                saved = json.load(fh)
            config = WalletConfig(**{**saved["config"], "key_seed":
                                     bytes.fromhex(saved["config"]["key_seed"])})
        stream = _connect(hub)
        try:
            self.peer = SocketWallet(stream, config)
            self.wallet = self.peer.wallet
            self.wallet.auto_accept_invoices = False
            if saved is None:
                self.peer.send_all(self.wallet.start_register())
            else:
                _restore_wallet(self.wallet, saved)
                self.payment_seq = saved.get("payment_seq", 0)
                stream.send(WireMessage(K_OK, {"client_id": config.client_id}))
        except BaseException:
            stream.close()
            raise

    def next_payment_id(self, kind: str) -> str:
        self.payment_seq += 1
        return f"{self.wallet.client_id}-{kind}-{self.payment_seq:05d}"

    def pump(self, done, timeout_s: float = 30.0, tick_every: float = 0.05) -> bool:
        """Feed frames and ticks into the wallet until ``done()`` or timeout."""
        deadline = time.monotonic() + timeout_s
        last_tick = 0.0
        while time.monotonic() < deadline and not done():
            if not self.peer.pump(tick_every):
                break
            if time.monotonic() - last_tick >= tick_every:
                last_tick = time.monotonic()
                self.peer.tick()
        return done()

    def finish(self) -> None:
        try:
            # a receipt still owed goes out now; without it the hub
            # would have to claim the payment on-chain
            self.peer.send_all(self.wallet.flush_receipts(self.peer.remote.now))
        except OSError:
            pass
        if self.save:
            _save_wallet(self.path, self.wallet, self.payment_seq)
        self.peer.stream.close()


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


def _hub_error(wallet: WalletCore) -> str | None:
    """The code of the first ERROR the hub sent that names no payment."""
    return next((n["code"] for n in wallet.trace if n["action"] == "hub_error"), None)


def _wallet_dispatch(args) -> int:
    if args.cmd == "log":
        with open(args.state, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
        return _emit({"payments": saved["payment_log"]})

    config = None
    if args.cmd == "register":
        config = WalletConfig(client_id=args.id, ledger_id=args.ledger, mode=args.mode)
    session = WalletSession(Path(args.state), args.hub, config)
    wallet = session.wallet
    try:
        if args.cmd == "register":
            session.pump(lambda: wallet.verified or wallet.verify_failure is not None
                         or _hub_error(wallet) is not None, timeout_s=15)
            error = _hub_error(wallet)
            if error is not None:
                session.save = False  # a refused registration keeps the old file
                return _emit({"outcome": "FAILED", "error": error}, ok=False)
            if wallet.verified:
                return _emit({"outcome": "REGISTERED", "channel_id": wallet.channel_id})
            return _emit({"outcome": "FAILED",
                          "error": wallet.verify_failure or "Timeout"}, ok=False)
        if args.cmd == "deposit":
            target = wallet.state.my_deposit + args.amount
            wallet.deposit(args.amount)
            session.pump(lambda: wallet.state.my_deposit >= target, timeout_s=5)
            return _emit({"outcome": "DEPOSITED", "amount": args.amount,
                          "channel_deposit": wallet.state.my_deposit})
        if args.cmd == "balance":
            session.peer.tick()
            state = wallet.state
            return _emit({
                "account": session.peer.remote.balance(wallet.client_id),
                "channel_deposit": state.my_deposit if state else 0,
                "available": state.available_balance() if state else 0,
                "credit_received": state.credit_received if state else 0,
                "credit_sent": state.credit_sent if state else 0,
            })
        if args.cmd == "pay":
            pid = session.next_payment_id("pay")
            session.peer.send_all(wallet.start_payment(
                pid, args.payee, args.amount, args.expiry_delta, session.peer.remote.now))
            session.pump(lambda: wallet.flows[pid].outcome is not None,
                         timeout_s=args.timeout)
            flow = wallet.flows[pid]
            outcome = flow.outcome or "FAILED"
            return _emit({"payment_id": pid, "outcome": outcome,
                          "reason": flow.reason},
                         ok=outcome == "PAID")
        if args.cmd == "invoice":
            pid = session.next_payment_id("inv")
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
            wallet.start_close(session.peer.remote.now)
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
