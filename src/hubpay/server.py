"""Socket deployment of the hub: framed transport, hosted ledgers, admin ops.

One process owns the hub core plus its mock ledgers, and one thread serves
them: a ``selectors`` loop whose every pass accepts, reads each ready
connection once, hands the hub all whole frames in arrival order and ends
the delivery batch once for all connections; the same thread ticks. The
ledgers thus keep their single writer. The sockets are non-blocking; what
a peer does not read waits in its connection's backlog, and a peer whose
backlog outgrows ``MAX_BACKLOG`` is dropped. An unexpected error while
handling one connection's frames drops that connection only; one while
ending a batch or ticking is logged, and the loop goes on. The first hello
on a connection binds it to one client, and every later protocol frame on
it is that client's. Wallets reach their ledger through LEDGER_OP frames,
whose arguments ``LEDGER_OPS`` declares once, and mirror it locally from the
event log; ``SocketWallet`` is the one loop that drives a wallet over a
socket.
Every connection, on both ends, is a ``FrameStream``, which turns Nagle's
algorithm off, so a small frame leaves at once instead of waiting for the
peer's delayed acknowledgement.
"""

from __future__ import annotations

import json
import logging
import os
import selectors
import socket
import threading
import time
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
    MAX_FRAME,
    FrameStream,
    WireMessage,
    error_message,
)

REPLY_TIMEOUT_S = 10.0  # how long a wallet waits on the hub for a ledger result
# bytes a connection may leave unread before the daemon drops it: one whole
# frame of the largest size, so a snapshot reply always fits
MAX_BACKLOG = 4 + MAX_FRAME

_log = logging.getLogger(__name__)


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
    """Serves one HubCore over TCP with hosted ledgers, from one thread."""

    def __init__(self, config: HubConfig, ledgers: dict[str, Ledger],
                 host: str = "127.0.0.1", port: int = 0,
                 tick_seconds: float = 0.05, snapshot_path: str | None = None):
        self.config = config
        self.ledgers = ledgers
        self.hub = HubCore(config, ledgers, HubStore())
        # the hub's notes, tallied per action, so its trace stays empty
        self.note_counts: Counter[str] = Counter()
        # held by the loop for each pass; other threads take it to read the
        # state or to run ``tick``
        self.lock = threading.Lock()
        self.tick_seconds = tick_seconds
        self.snapshot_path = snapshot_path
        self.connections: dict[str, FrameStream] = {}
        # every open connection, with the client its first hello (an OK or a
        # REGISTER) named; every later protocol frame on it is that client's
        self._clients: dict[FrameStream, str | None] = {}
        # connections holding frames to write when the pass ends
        self._unwritten: set[FrameStream] = set()
        self._stop = threading.Event()
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, port))
        self.sock.listen(32)
        self.sock.setblocking(False)
        self.address = self.sock.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.sock, selectors.EVENT_READ)

    # -- lifecycle ---------------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve every connection from this thread until ``shutdown``. Each
        pass accepts, reads every ready connection once and hands the hub
        its whole frames in arrival order, ends the batch once for all of
        them and writes each client's frames in one write; then it ticks,
        when a tick is due."""
        next_tick = time.monotonic() + self.tick_seconds
        try:
            while not self._stop.is_set():
                ready = self._selector.select(next_tick - time.monotonic())
                with self.lock:
                    now = self._now()
                    for key, events in ready:
                        if key.data is None:
                            self._accept()
                        # unless a ``tick`` on another thread dropped it since
                        elif key.data in self._clients:
                            if events & selectors.EVENT_WRITE:
                                self._unwritten.add(key.data)
                            if events & selectors.EVENT_READ:
                                self._read(key.data, now)
                    try:
                        self._deliver(self.hub.flush_receipts(now))
                    except Exception:
                        _log.exception("ending the delivery batch failed")
                    self._send()
                if time.monotonic() >= next_tick:
                    try:
                        self.tick()
                    except Exception:
                        _log.exception("tick failed")
                    next_tick = time.monotonic() + self.tick_seconds
        finally:
            with self.lock:
                for stream in list(self._clients):
                    self._drop(stream)
            self._selector.close()
            self.sock.close()

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop the loop, which closes every connection as it ends."""
        self._stop.set()
        try:
            # wakes the loop: the listening socket reads as ready
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def tick(self) -> None:
        """One logical tick: advance the hosted ledgers' clocks, then run
        the hub's background handler and send what it answers."""
        with self.lock:
            for ledger_id in sorted(self.ledgers):
                self.ledgers[ledger_id].advance_time(1)
            self._deliver(self.hub.hub_tick(self._now()))
            self._send()

    def _now(self) -> int:
        return max(l.now for l in self.ledgers.values())

    # -- connections ------------------------------------------------------------------

    def _accept(self) -> None:
        try:
            conn, _ = self.sock.accept()
            conn.setblocking(False)
            stream = FrameStream(conn)
        except OSError:
            return  # shut down, or the peer left before it was accepted
        self._clients[stream] = None
        self._selector.register(conn, selectors.EVENT_READ, stream)

    def _read(self, stream: FrameStream, now: int) -> None:
        """Handle every whole frame of one read from ``stream``."""
        try:
            messages = stream.read()
            for msg in messages or []:
                if msg.kind == K_LEDGER_OP:
                    self._reply(stream, self._ledger_op(msg.body))
                elif msg.kind == K_ADMIN:
                    self._reply(stream, self._admin(msg.body))
                else:
                    self._handle(stream, msg, now)
        except BlockingIOError:
            return
        except (OSError, EncodingError):
            # the peer left, sent bytes that are not frames, or drew an
            # answer too large for one
            messages = None
        except Exception:
            # a fault while handling one peer's frames ends its connection,
            # not the daemon
            _log.exception("dropping a connection after an unexpected error")
            messages = None
        if messages is None:
            self._drop(stream)

    def _handle(self, stream: FrameStream, msg: WireMessage, now: int) -> None:
        """Bind the connection at its first hello, and hand the hub every
        protocol frame as its client's."""
        client = self._clients[stream]
        named = msg.body.get("client_id")
        if client is None and msg.kind in (K_OK, K_REGISTER) and isinstance(named, str):
            client = self._clients[stream] = named
        if client is not None:
            self.connections[client] = stream
        if msg.kind == K_OK:
            pass  # a hello only binds
        elif client is not None and (msg.kind != K_REGISTER or named == client):
            self._deliver(self.hub.handle_message(client, msg, now))
        else:
            self._reply(stream, error_message("NoRoute", "unidentified sender"))

    def _reply(self, stream: FrameStream, msg: WireMessage) -> None:
        stream.enqueue(msg)
        self._unwritten.add(stream)

    def _deliver(self, outbox) -> None:
        """Queue an outbox on its destinations' connections, in the order
        the hub made it."""
        for dst, msg in outbox:
            stream = self.connections.get(dst)
            if stream is not None:
                self._reply(stream, msg)

    def _send(self) -> None:
        """Tally and clear the hub's notes, then write each connection's
        queued frames. What a socket does not take waits for it to drain;
        a peer that leaves more than ``MAX_BACKLOG`` unread is dropped."""
        self.note_counts.update(note["action"] for note in self.hub.trace)
        self.hub.trace.clear()
        unwritten, self._unwritten = self._unwritten, set()
        for stream in unwritten:
            try:
                backlog = stream.write()
            except OSError:
                backlog = None  # the peer left
            if backlog is None or backlog > MAX_BACKLOG:
                self._drop(stream)
                continue
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if backlog else 0)
            if self._selector.get_key(stream.sock).events != events:
                self._selector.modify(stream.sock, events, stream)

    def _drop(self, stream: FrameStream) -> None:
        """Close a connection and unbind its client."""
        client = self._clients.pop(stream)
        if client is not None and self.connections.get(client) is stream:
            del self.connections[client]
        self._unwritten.discard(stream)
        self._selector.unregister(stream.sock)
        stream.close()

    # -- wallet-facing ledger access ---------------------------------------------------

    def _ledger_op(self, body: dict) -> WireMessage:
        try:
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
            if cmd == "snapshot":
                snap = {
                    "hub": self.hub.snapshot_now(),
                    "ledgers": {lid: l.snapshot()
                                for lid, l in sorted(self.ledgers.items())},
                }
                if self.snapshot_path:
                    _write_durably(self.snapshot_path, snap)
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
        except OSError as exc:  # the snapshot file could not be written
            return WireMessage(K_ADMIN_RESULT, {"ok": False, "error": "IOError",
                                                "detail": str(exc)})


def _write_durably(path: str, obj: dict) -> None:
    """Write ``obj`` as JSON to a temporary file, sync it and rename it over
    ``path``, so a crash mid-write leaves the previous file whole."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


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
