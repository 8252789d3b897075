"""Framed wire protocol: 4-byte big-endian length, then a canonical payload.

The same envelope rides the in-memory simulation bus and the socket
transport, so protocol behavior cannot diverge between the two. Kinds
REGISTER, PROPOSAL_RELAY, PROMISE, SECRET, RECEIPT, CLOSE_REQUEST and ERROR
carry the payment protocol itself; the remaining kinds are deployment
plumbing (responses, ledger access for wallets, and hub administration).
"""

from __future__ import annotations

import socket
import struct
from collections import deque
from dataclasses import dataclass, field

from . import codec
from .errors import EncodingError

K_REGISTER = "REGISTER"
K_REGISTER_OK = "REGISTER_OK"
K_PROPOSAL_RELAY = "PROPOSAL_RELAY"
K_PROMISE = "PROMISE"
K_SECRET = "SECRET"
K_RECEIPT = "RECEIPT"
K_CLOSE_REQUEST = "CLOSE_REQUEST"
K_CLOSE_OK = "CLOSE_OK"
K_ERROR = "ERROR"
K_OK = "OK"
K_LEDGER_OP = "LEDGER_OP"
K_LEDGER_RESULT = "LEDGER_RESULT"
K_ADMIN = "ADMIN"
K_ADMIN_RESULT = "ADMIN_RESULT"

KINDS = {
    K_REGISTER, K_REGISTER_OK, K_PROPOSAL_RELAY, K_PROMISE, K_SECRET,
    K_RECEIPT, K_CLOSE_REQUEST, K_CLOSE_OK, K_ERROR, K_OK,
    K_LEDGER_OP, K_LEDGER_RESULT, K_ADMIN, K_ADMIN_RESULT,
}

MAX_FRAME = 1 << 24  # 16 MiB guardrail


class FrameError(EncodingError):
    """A frame that is not canonical, or whose length is over the limit.
    ``frames`` holds the whole frames decoded before it, which a reader
    still handles before it drops the connection."""

    def __init__(self, detail: str, frames: list["WireMessage"]):
        super().__init__(detail)
        self.frames = frames


@dataclass(frozen=True)
class WireMessage:
    kind: str
    body: dict = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        if self.kind not in KINDS:
            raise EncodingError(f"unknown message kind {self.kind}")
        return codec.canonical_encode(codec.TAG_WIRE, {"kind": self.kind, "body": self.body})

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WireMessage":
        tag, fields = codec.canonical_decode(blob)
        if tag != codec.TAG_WIRE:
            raise EncodingError(f"expected wire tag, got {tag!r}")
        kind = fields.get("kind")
        if kind not in KINDS:
            raise EncodingError(f"unknown message kind {kind!r}")
        body = fields.get("body") or {}
        if not isinstance(body, dict):
            raise EncodingError(f"{kind} body is not an object")
        return cls(kind, body)


def error_message(code: str, detail: str = "", **extra) -> WireMessage:
    body = {"code": code, "detail": detail}
    body.update(extra)
    return WireMessage(K_ERROR, body)


def receipt_message(receipt, payment_id: str | None = None) -> WireMessage:
    """A RECEIPT; a receipt acknowledging one payment names it."""
    body = {"receipt": receipt.to_jsonable()}
    if payment_id is not None:
        body["payment_id"] = payment_id
    return WireMessage(K_RECEIPT, body)


def encode_frame(msg: WireMessage) -> bytes:
    payload = msg.to_bytes()
    if len(payload) > MAX_FRAME:
        raise EncodingError(f"frame too large: {len(payload)}")
    return struct.pack(">I", len(payload)) + payload


def decode_frames(buffer: bytes) -> tuple[list[WireMessage], bytes]:
    """Pull every complete frame from ``buffer``; returns (messages, rest).
    A bad frame raises ``FrameError``, which carries the frames before it."""
    messages = []
    offset = 0  # bytes consumed; the rest is copied once, at the end
    while len(buffer) - offset >= 4:
        (length,) = struct.unpack_from(">I", buffer, offset)
        if length > MAX_FRAME:
            raise FrameError(f"frame length {length} exceeds limit", messages)
        end = offset + 4 + length
        if len(buffer) < end:
            break
        try:
            messages.append(WireMessage.from_bytes(buffer[offset + 4:end]))
        except EncodingError as exc:
            raise FrameError(exc.detail, messages) from exc
        offset = end
    return messages, buffer[offset:]


class FrameStream:
    """Frame reader/writer over a connected socket.

    ``read`` and ``write`` are one socket call each, so a loop over a
    non-blocking socket can drive them; ``recv`` and ``flush`` are their
    blocking forms. Frames leave in the order they are queued. Received
    bytes are collected as they arrive and decoded once the first frame is
    whole, so a large frame costs time linear in its size.

    On a TCP socket Nagle's algorithm is off (``TCP_NODELAY``): the protocol
    is request/response in small frames, and Nagle would hold each one back
    until the peer's delayed acknowledgement. Other sockets are used as given.
    """

    def __init__(self, sock: socket.socket):
        if getattr(sock, "family", None) in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        # bytes received and not yet decoded, one chunk per read
        self._chunks: list[bytes] = []
        self._size = 0
        self._pending: deque[WireMessage] = deque()
        # encoded frames queued and not yet taken by the socket
        self._unsent = bytearray()

    def send(self, msg: WireMessage) -> None:
        self.enqueue(msg)
        self.flush()

    def enqueue(self, msg: WireMessage) -> None:
        self._unsent += encode_frame(msg)

    def flush(self) -> None:
        """Send every queued frame in one write: with Nagle off each write is
        a segment of its own, so one write per flush keeps the system calls
        and packets to one per batch of frames."""
        if self._unsent:
            data, self._unsent = self._unsent, bytearray()
            self.sock.sendall(data)

    def write(self) -> int:
        """Offer every queued byte to the socket in one write and return how
        many it left queued, for a later write; a non-blocking socket takes
        what fits in its buffer."""
        if self._unsent:
            try:
                sent = self.sock.send(self._unsent)
            except BlockingIOError:
                sent = 0
            del self._unsent[:sent]
        return len(self._unsent)

    def buffered(self) -> bool:
        """True while frames from the last read remain to be returned."""
        return bool(self._pending)

    def recv(self, timeout: float | None = None) -> WireMessage | None:
        """Next frame, or None once the peer closes the stream."""
        if not self._pending:
            self.sock.settimeout(timeout)
            while not self._pending:
                messages = self.read()
                if messages is None:
                    return None
                self._pending.extend(messages)
        return self._pending.popleft()

    def read(self) -> list[WireMessage] | None:
        """One read from the socket: the frames it completes, in order, or
        None once the peer has closed the stream. A bad frame raises
        ``FrameError`` with the frames before it."""
        chunk = self.sock.recv(65536)
        if not chunk:
            return None
        self._chunks.append(chunk)
        self._size += len(chunk)
        if self._size < self._first_frame_end():
            return []
        messages, rest = decode_frames(b"".join(self._chunks))
        self._chunks = [rest] if rest else []
        self._size = len(rest)
        return messages

    def _first_frame_end(self) -> int:
        """How many received bytes complete the first frame. An oversize
        length counts as complete at once, so ``decode_frames`` refuses it."""
        if self._size < 4:
            return 4
        if len(self._chunks[0]) < 4:
            self._chunks = [b"".join(self._chunks)]
        (length,) = struct.unpack_from(">I", self._chunks[0])
        return 4 if length > MAX_FRAME else 4 + length

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
