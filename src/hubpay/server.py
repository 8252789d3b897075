"""Socket deployment of the hub: framed transport, hosted ledgers, admin ops.

One process owns the hub core plus its mock ledgers. Every connection is
served by a thread, but all state mutations funnel through a single lock, so
the ledger keeps its single-writer guarantee. A ticker thread advances the
logical clock and runs the hub's background handler. The first hello on a
connection binds it to one client, and every later protocol frame on it is
that client's. Wallets reach their ledger through LEDGER_OP frames, whose
arguments ``LEDGER_OPS`` declares once, and mirror it locally from the event
log; ``SocketWallet`` is the one loop that drives a wallet over a socket.
Every connection, on both ends, is a ``FrameStream``, which turns Nagle's
algorithm off, so a small frame leaves at once instead of waiting for the
peer's delayed acknowledgement.
"""

from __future__ import annotations

import json
import socket
import threading
from collections import Counter
from dataclasses import fields

from .crypto import MerkleProof, Signature
from .errors import DECODE_ERRORS, EncodingError, HubpayError, NotFound
from .hub import HubConfig, HubCore, HubStore
from .ledger import Ledger, LedgerEvent, apply_event
from .messages import ClosingRecord, Promise, Receipt
from .wallet import WalletConfig, WalletCore
from .wire import (
    K_ADMIN,
    K_ADMIN_RESULT,
    K_LEDGER_OP,
    K_LEDGER_RESULT,
    K_OK,
    K_REGISTER,
    K_REGISTER_OK,
    FrameStream,
    WireMessage,
    error_message,
)

REPLY_TIMEOUT_S = 10.0  # how long a wallet waits on the hub for a ledger result


# -- ledger ops: one wire form per argument ---------------------------------------

def _encode_arg(value):
    """The wire form of a ledger-op argument."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, Signature):
        return {"scheme": value.scheme, "data": value.data.hex()}
    if isinstance(value, tuple):
        return [_encode_arg(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode_arg(v) for k, v in value.items()}
    if hasattr(value, "to_jsonable"):
        return value.to_jsonable()
    return value


def _optional(decode):
    return lambda obj: None if obj is None else decode(obj)


def _proof(obj) -> tuple[Receipt, MerkleProof]:
    receipt, merkle = obj
    return Receipt.from_jsonable(receipt), MerkleProof.from_jsonable(merkle)


def _signatures(obj) -> dict[str, Signature]:
    return {party: Signature(s["scheme"], bytes.fromhex(s["data"]))
            for party, s in obj.items()}


# The ledger ops a wallet submits, each with one decoder per argument in
# ``Ledger`` call order; ``RemoteLedger`` encodes every argument with
# ``_encode_arg``.
LEDGER_OPS = {
    "deposit": (str, str, int),
    "claim_promise": (str, str, Promise.from_jsonable, bytes.fromhex, _optional(_proof)),
    "initiate_dispute": (str, str, _optional(Receipt.from_jsonable)),
    "respond_dispute": (str, str, Receipt.from_jsonable),
    "finalize_settlement": (str,),
    "refresh_claim_proof": (str, str, bytes.fromhex, _proof),
    "cooperative_close": (str, ClosingRecord.from_jsonable, _signatures),
}


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
        # the connection's client, named once by its first hello (an OK or
        # a REGISTER); every later protocol frame on it comes from this client
        client: str | None = None
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
                else:
                    named = msg.body.get("client_id")
                    if client is None and msg.kind in (K_OK, K_REGISTER) \
                            and isinstance(named, str):
                        client = named
                    if client is not None:
                        self.connections[client] = stream
                    if msg.kind == K_OK:
                        pass  # a hello only binds
                    elif client is not None and (msg.kind != K_REGISTER or named == client):
                        src = client
                    else:
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
        except (OSError, EncodingError):
            pass  # the peer left, or sent bytes that are not frames
        finally:
            if client is not None and self.connections.get(client) is stream:
                self.connections.pop(client, None)
            stream.close()

    # -- wallet-facing ledger access ---------------------------------------------------

    def _ledger_op(self, body: dict) -> WireMessage:
        try:
            with self.lock:
                result = self._run_ledger_op(body)
            return WireMessage(K_LEDGER_RESULT, {"ok": True, "result": result})
        except DECODE_ERRORS as exc:
            # every Ledger method validates before it emits, so a malformed
            # op leaves the ledger as it was
            error = EncodingError(f"malformed ledger op: {exc!r}")
        except HubpayError as exc:
            error = exc
        return WireMessage(K_LEDGER_RESULT,
                           {"ok": False, "error": error.code, "detail": error.detail})

    def _run_ledger_op(self, body: dict):
        ledger = self.ledgers.get(body.get("ledger_id"))
        if ledger is None:
            raise NotFound("ledger")
        op, args = body.get("op"), body.get("args")
        if op == "meta":
            return {"ledger_id": ledger.ledger_id, "scheme": ledger.scheme,
                    "genesis": ledger.genesis_balances, "now": ledger.now}
        if op == "events_since":
            return {"events": [e.to_jsonable()
                               for e in ledger.events_since(int(args["seq"]))],
                    "now": ledger.now}
        decoders = LEDGER_OPS.get(op)
        if decoders is None:
            raise NotFound(f"ledger op {op}")
        if len(args) != len(decoders):
            raise EncodingError(f"ledger op {op} takes {len(decoders)} arguments")
        result = getattr(ledger, op)(*(decode(arg) for decode, arg in zip(decoders, args)))
        # the settlement, from the two ops that return one
        return result if isinstance(result, dict) else None

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

    def _call(self, op: str, args):
        self.stream.send(WireMessage(K_LEDGER_OP, {
            "ledger_id": self.ledger_id, "op": op, "args": args}))
        while True:
            msg = self.stream.recv(timeout=REPLY_TIMEOUT_S)
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

    def _submit(self, op: str, *args):
        """Run one of ``LEDGER_OPS`` on the host, then re-sync the replica."""
        result = self._call(op, [_encode_arg(arg) for arg in args])
        self.refresh()
        return result

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

    # mutations go to the host
    def deposit(self, channel_id: str, party: str, amount: int) -> None:
        self._submit("deposit", channel_id, party, amount)

    def claim_promise(self, channel_id: str, claimant: str, promise: Promise,
                      preimage: bytes, proof=None) -> None:
        self._submit("claim_promise", channel_id, claimant, promise, preimage, proof)

    def initiate_dispute(self, channel_id: str, party: str, receipt=None) -> None:
        self._submit("initiate_dispute", channel_id, party, receipt)

    def respond_dispute(self, channel_id: str, party: str, receipt) -> None:
        self._submit("respond_dispute", channel_id, party, receipt)

    def finalize_settlement(self, channel_id: str) -> dict:
        return self._submit("finalize_settlement", channel_id)

    def refresh_claim_proof(self, channel_id: str, claimant: str,
                            hashlock: bytes, proof) -> None:
        self._submit("refresh_claim_proof", channel_id, claimant, hashlock, proof)

    def cooperative_close(self, channel_id: str, record: ClosingRecord,
                          signatures: dict) -> dict:
        return self._submit("cooperative_close", channel_id, record, signatures)


class SocketWallet:
    """A ``WalletCore`` driven over its own hub connection: the stream, the
    ledger replica and the loop that feeds the wallet its frames. Each
    ``pump`` is one delivery batch and ends it with ``flush_receipts``."""

    def __init__(self, stream: FrameStream, config: WalletConfig):
        self.stream = stream
        self.remote = RemoteLedger(stream, config.ledger_id)
        self.wallet = WalletCore(config, self.remote)

    def send_all(self, outbox) -> None:
        for _, msg in outbox:
            self.stream.send(msg)

    def handle(self, msg: WireMessage) -> None:
        if msg.kind == K_REGISTER_OK:
            # the deployment must be in the replica before it is verified
            self.remote.refresh()
        self.send_all(self.wallet.handle_message("hub", msg, self.remote.now))

    def pump(self, timeout: float = 0.0) -> bool:
        """Handle the frames set aside during ledger calls, then every frame
        of one read, waiting up to ``timeout`` seconds for it, as one
        delivery batch. False once the hub has closed the connection."""
        while self.remote.pushback:
            self.handle(self.remote.pushback.pop(0))
        try:
            msg = self.stream.recv(timeout=timeout)
        except (BlockingIOError, TimeoutError):
            msg = False  # nothing arrived
        finally:
            self.stream.sock.settimeout(REPLY_TIMEOUT_S)
        if msg is None:
            return False
        while msg:
            self.handle(msg)
            # the rest of the same read joins this batch
            msg = self.stream.recv() if self.stream.buffered() else None
        self.send_all(self.wallet.flush_receipts())
        return True

    def tick(self) -> None:
        """Refresh the replica and run the wallet's background handler."""
        self.remote.refresh()
        self.send_all(self.wallet.client_tick(self.remote.now))


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
