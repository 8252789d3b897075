"""Socket deployment of the hub: framed transport, hosted ledgers, admin ops.

One process owns the hub core plus its mock ledgers. Every connection is
served by a thread, but all state mutations funnel through a single lock, so
the ledger keeps its single-writer guarantee. A ticker thread advances the
logical clock and runs the hub's background handler. Wallets reach their
ledger through LEDGER_OP frames and mirror it locally from the event log.
"""

from __future__ import annotations

import json
import socket
import threading
from collections import Counter
from dataclasses import fields

from .crypto import MerkleProof
from .errors import HubpayError, NotFound
from .hub import HubConfig, HubCore, HubStore
from .ledger import Ledger, LedgerEvent, apply_event
from .messages import ClosingRecord, Promise, Receipt
from .wire import (
    K_ADMIN,
    K_ADMIN_RESULT,
    K_LEDGER_OP,
    K_LEDGER_RESULT,
    K_OK,
    K_REGISTER,
    FrameStream,
    WireMessage,
    error_message,
)


def _deserialize_proof(args: dict) -> tuple[Receipt, MerkleProof] | None:
    if not args.get("proof"):
        return None
    receipt = Receipt.from_jsonable(args["proof"]["receipt"])
    proof = MerkleProof.from_jsonable(args["proof"]["merkle"])
    return receipt, proof


class HubServer:
    """Serves one HubCore over TCP with hosted ledgers."""

    def __init__(self, config: HubConfig, ledgers: dict[str, Ledger],
                 host: str = "127.0.0.1", port: int = 0,
                 tick_seconds: float = 0.05, snapshot_path: str | None = None):
        self.config = config
        self.ledgers = ledgers
        self.hub = HubCore(config, ledgers, HubStore())
        # the hub's notes, tallied per action, so its trace stays empty
        self.note_counts: Counter[str] = Counter()
        self.lock = threading.Lock()
        self.tick_seconds = tick_seconds
        self.snapshot_path = snapshot_path
        self.connections: dict[str, FrameStream] = {}
        self._stop = threading.Event()
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, port))
        self.sock.listen(32)
        self.address = self.sock.getsockname()

    # -- lifecycle ---------------------------------------------------------------

    def serve_forever(self) -> None:
        ticker = threading.Thread(target=self._tick_loop, daemon=True)
        ticker.start()
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self.sock.accept()
                except OSError:
                    break
                thread = threading.Thread(target=self._serve_connection,
                                          args=(conn,), daemon=True)
                thread.start()
        finally:
            self.sock.close()

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        self._stop.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()

    def _tick_loop(self) -> None:
        while not self._stop.wait(self.tick_seconds):
            with self.lock:
                for ledger_id in sorted(self.ledgers):
                    self.ledgers[ledger_id].advance_time(1)
                streams = self._enqueue(self.hub.hub_tick(self._now()))
                self._count_notes()
            self._flush(streams)

    def _now(self) -> int:
        return max(l.now for l in self.ledgers.values())

    def _count_notes(self) -> None:
        """Tally and clear the hub's notes; called under the lock."""
        self.note_counts.update(note["action"] for note in self.hub.trace)
        self.hub.trace.clear()

    def _enqueue(self, outbox) -> set[FrameStream]:
        """Queue an outbox on its destinations' streams; called under the
        lock, so every client receives frames in the order the hub made
        them. Returns the streams to flush once the lock is released."""
        streams = set()
        for dst, msg in outbox:
            stream = self.connections.get(dst)
            if stream is not None:
                stream.enqueue(msg)
                streams.add(stream)
        return streams

    def _flush(self, streams: set[FrameStream]) -> None:
        for stream in streams:
            try:
                stream.flush()
            except OSError:
                for client_id, bound in list(self.connections.items()):
                    if bound is stream:
                        self.connections.pop(client_id, None)

    # -- per-connection loop --------------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = FrameStream(conn)
        bound: str | None = None
        try:
            while not self._stop.is_set():
                msg = stream.recv()
                if msg is None:
                    break
                src = None
                if msg.kind == K_LEDGER_OP:
                    stream.send(self._ledger_op(msg.body))
                elif msg.kind == K_ADMIN:
                    stream.send(self._admin(msg.body))
                elif msg.kind == K_OK:
                    # session hello: bind this connection to a client id
                    bound = msg.body.get("client_id", bound)
                    if bound is not None:
                        self.connections[bound] = stream
                else:
                    src = msg.body.get("client_id") or msg.body.get("from") or bound
                    if msg.kind == K_REGISTER or bound is None:
                        bound = src
                    if bound is not None:
                        self.connections[bound] = stream
                    if src is None:
                        stream.send(error_message("NoRoute", "unidentified sender"))
                end_of_batch = not stream.buffered()
                if src is None and not end_of_batch:
                    continue  # nothing for the hub core until the batch ends
                with self.lock:
                    now = self._now()
                    outbox = self.hub.handle_message(src, msg, now) if src is not None else []
                    if end_of_batch:
                        # every frame of the last read is handled
                        outbox += self.hub.flush_receipts(now)
                    streams = self._enqueue(outbox)
                    self._count_notes()
                self._flush(streams)
        except OSError:
            pass
        finally:
            if bound is not None and self.connections.get(bound) is stream:
                self.connections.pop(bound, None)
            stream.close()

    # -- wallet-facing ledger access ---------------------------------------------------

    def _ledger_op(self, body: dict) -> WireMessage:
        ledger = self.ledgers.get(body.get("ledger_id"))
        if ledger is None:
            return WireMessage(K_LEDGER_RESULT,
                               {"ok": False, "error": "NotFound", "detail": "ledger"})
        op = body.get("op")
        args = body.get("args", {})
        try:
            with self.lock:
                result = self._run_ledger_op(ledger, op, args)
            return WireMessage(K_LEDGER_RESULT, {"ok": True, "result": result})
        except HubpayError as exc:
            return WireMessage(K_LEDGER_RESULT,
                               {"ok": False, "error": exc.code, "detail": exc.detail})

    def _run_ledger_op(self, ledger: Ledger, op: str, args: dict):
        if op == "meta":
            return {"ledger_id": ledger.ledger_id, "scheme": ledger.scheme,
                    "genesis": ledger.genesis_balances, "now": ledger.now}
        if op == "events_since":
            return {"events": [e.to_jsonable()
                               for e in ledger.events_since(int(args["seq"]))],
                    "now": ledger.now}
        if op == "deposit":
            ledger.deposit(args["channel_id"], args["party"], int(args["amount"]))
            return {}
        if op == "claim_promise":
            ledger.claim_promise(args["channel_id"], args["claimant"],
                                 Promise.from_jsonable(args["promise"]),
                                 bytes.fromhex(args["preimage"]),
                                 _deserialize_proof(args))
            return {}
        if op == "initiate_dispute":
            receipt = Receipt.from_jsonable(args["receipt"]) if args.get("receipt") else None
            ledger.initiate_dispute(args["channel_id"], args["party"], receipt)
            return {}
        if op == "respond_dispute":
            ledger.respond_dispute(args["channel_id"], args["party"],
                                   Receipt.from_jsonable(args["receipt"]))
            return {}
        if op == "finalize_settlement":
            return {"settlement": ledger.finalize_settlement(args["channel_id"])}
        if op == "refresh_claim_proof":
            ledger.refresh_claim_proof(args["channel_id"], args["claimant"],
                                       bytes.fromhex(args["hashlock"]),
                                       _deserialize_proof(args))
            return {}
        if op == "cooperative_close":
            from . import crypto

            record = ClosingRecord.from_jsonable(args["record"])
            sigs = {party: crypto.Signature(s["scheme"], bytes.fromhex(s["data"]))
                    for party, s in args["signatures"].items()}
            return {"settlement": ledger.cooperative_close(args["channel_id"],
                                                           record, sigs)}
        raise NotFound(f"ledger op {op}")

    # -- administration ------------------------------------------------------------------

    def _admin(self, body: dict) -> WireMessage:
        cmd = body.get("cmd")
        try:
            with self.lock:
                if cmd == "snapshot":
                    snap = {
                        "hub": self.hub.snapshot_now(),
                        "ledgers": {lid: l.snapshot()
                                    for lid, l in sorted(self.ledgers.items())},
                    }
                    if self.snapshot_path:
                        with open(self.snapshot_path, "w", encoding="utf-8") as fh:
                            json.dump(snap, fh, sort_keys=True)
                        return WireMessage(K_ADMIN_RESULT,
                                           {"ok": True, "path": self.snapshot_path})
                    return WireMessage(K_ADMIN_RESULT, {"ok": True, "snapshot": snap})
                if cmd == "channels":
                    rows = []
                    for cid, state in sorted(self.hub.channels.items()):
                        ledger = self.ledgers[state.params.ledger_id]
                        contract = ledger.contracts.get(cid)
                        rows.append({
                            "channel_id": cid,
                            "client": state.params.client_id,
                            "ledger": state.params.ledger_id,
                            "mode": state.params.mode,
                            "status": contract.status if contract else "UNKNOWN",
                            "client_deposit": state.peer_deposit,
                            "hub_deposit": state.my_deposit,
                            "credit_to_client": state.credit_sent,
                            "credit_to_hub": state.credit_received,
                        })
                    return WireMessage(K_ADMIN_RESULT, {"ok": True, "channels": rows})
                if cmd == "close":
                    client = None
                    for reg in self.hub.registry.values():
                        if reg.channel_id == body.get("channel_id"):
                            client = reg.client_id
                    if client is None:
                        return WireMessage(K_ADMIN_RESULT,
                                           {"ok": False, "error": "NotFound"})
                    self.hub.initiate_close(client, self._now())
                    return WireMessage(K_ADMIN_RESULT, {"ok": True})
            return WireMessage(K_ADMIN_RESULT, {"ok": False, "error": "NotFound",
                                                "detail": f"admin cmd {cmd}"})
        except HubpayError as exc:
            return WireMessage(K_ADMIN_RESULT, {"ok": False, "error": exc.code,
                                                "detail": exc.detail})


class RemoteLedger:
    """Wallet-side ledger handle over LEDGER_OP frames.

    Keeps a local replica rebuilt from the event log, so reads are ordinary
    Ledger reads while mutations round-trip to the hosting process.
    """

    def __init__(self, stream: FrameStream, ledger_id: str):
        self.stream = stream
        self.ledger_id = ledger_id
        # protocol frames that arrive while waiting for a ledger result;
        # the wallet loop drains these before reading the stream again
        self.pushback: list[WireMessage] = []
        meta = self._call("meta", {})
        self.local = Ledger(meta["ledger_id"], meta["scheme"],
                            {k: int(v) for k, v in meta["genesis"].items()})
        self.refresh()

    def _call(self, op: str, args: dict) -> dict:
        self.stream.send(WireMessage(K_LEDGER_OP, {
            "ledger_id": self.ledger_id, "op": op, "args": args}))
        while True:
            msg = self.stream.recv(timeout=10.0)
            if msg is None:
                raise HubpayError("hub connection closed")
            if msg.kind != K_LEDGER_RESULT:
                self.pushback.append(msg)
                continue
            if not msg.body.get("ok"):
                exc = HubpayError(msg.body.get("detail", ""))
                exc.code = msg.body.get("error", "HubpayError")
                raise exc
            return msg.body.get("result", {})

    def refresh(self) -> None:
        result = self._call("events_since", {"seq": len(self.local.events)})
        for obj in result["events"]:
            apply_event(self.local, LedgerEvent.from_jsonable(obj))
        self.local.now = int(result["now"])

    # reads hit the replica
    @property
    def scheme(self) -> str:
        return self.local.scheme

    @property
    def now(self) -> int:
        return self.local.now

    @property
    def contracts(self):
        return self.local.contracts

    def balance(self, account: str) -> int:
        return self.local.balance(account)

    def read_state(self, channel_id: str) -> dict:
        return self.local.read_state(channel_id)

    def events_since(self, seq: int):
        return self.local.events_since(seq)

    # mutations go to the host, then re-sync
    def deposit(self, channel_id: str, party: str, amount: int) -> None:
        self._call("deposit", {"channel_id": channel_id, "party": party,
                               "amount": amount})
        self.refresh()

    def claim_promise(self, channel_id: str, claimant: str, promise: Promise,
                      preimage: bytes, proof=None) -> None:
        args = {"channel_id": channel_id, "claimant": claimant,
                "promise": promise.to_jsonable(), "preimage": preimage.hex()}
        if proof is not None:
            args["proof"] = {"receipt": proof[0].to_jsonable(),
                             "merkle": proof[1].to_jsonable()}
        self._call("claim_promise", args)
        self.refresh()

    def initiate_dispute(self, channel_id: str, party: str, receipt=None) -> None:
        self._call("initiate_dispute", {
            "channel_id": channel_id, "party": party,
            "receipt": receipt.to_jsonable() if receipt else None})
        self.refresh()

    def respond_dispute(self, channel_id: str, party: str, receipt) -> None:
        self._call("respond_dispute", {"channel_id": channel_id, "party": party,
                                       "receipt": receipt.to_jsonable()})
        self.refresh()

    def finalize_settlement(self, channel_id: str) -> dict:
        result = self._call("finalize_settlement", {"channel_id": channel_id})
        self.refresh()
        return result["settlement"]

    def refresh_claim_proof(self, channel_id: str, claimant: str,
                            hashlock: bytes, proof) -> None:
        self._call("refresh_claim_proof", {
            "channel_id": channel_id, "claimant": claimant,
            "hashlock": hashlock.hex(),
            "proof": {"receipt": proof[0].to_jsonable(),
                      "merkle": proof[1].to_jsonable()}})
        self.refresh()

    def cooperative_close(self, channel_id: str, record: ClosingRecord,
                          signatures: dict) -> dict:
        args = {"channel_id": channel_id, "record": record.to_jsonable(),
                "signatures": {p: {"scheme": s.scheme, "data": s.data.hex()}
                               for p, s in signatures.items()}}
        result = self._call("cooperative_close", args)
        self.refresh()
        return result["settlement"]


def build_ledgers(config: dict) -> dict[str, Ledger]:
    ledgers = {}
    for spec in config["ledgers"]:
        ledgers[spec["ledger_id"]] = Ledger(
            spec["ledger_id"], spec.get("scheme", "SCHEME_A"),
            {k: int(v) for k, v in spec["genesis"].items()})
    return ledgers


def build_hub_config(config: dict) -> HubConfig:
    """The hub settings a daemon config sets; ``HubConfig`` holds the
    defaults for the rest."""
    convert = {"hub_id": str, "key_seed": str.encode}
    return HubConfig(**{f.name: convert.get(f.name, int)(config[f.name])
                        for f in fields(HubConfig) if f.name in config})
