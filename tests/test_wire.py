"""Wire protocol framing plus the socket deployment of hub and wallet."""

import json
import os
import socket
import struct
import threading
import time
from dataclasses import replace

import pytest

from hubpay import cli, codec, hub, wire
from hubpay.channel import ChannelState, close_balances
from hubpay.errors import EncodingError
from hubpay.hub import HubConfig, HubCore
from hubpay.server import (
    MAX_BACKLOG,
    HubServer,
    SocketWallet,
    build_hub_config,
    build_ledgers,
)
from hubpay.wallet import WalletConfig
from hubpay.wire import (
    KINDS,
    FrameError,
    FrameStream,
    WireMessage,
    decode_frames,
    encode_frame,
    error_message,
)


# -- framing ------------------------------------------------------------------------

def test_frame_round_trip():
    msg = WireMessage("PROMISE", {"payment_id": "p1", "promise": {"amount": 5}})
    frames, rest = decode_frames(encode_frame(msg))
    assert rest == b""
    assert frames == [msg]


def test_partial_frames_wait_for_more_bytes():
    msg = WireMessage("SECRET", {"secret": {"hashlock": "ab" * 32}})
    blob = encode_frame(msg)
    frames, rest = decode_frames(blob[:7])
    assert frames == [] and rest == blob[:7]
    frames, rest = decode_frames(blob + blob[:3])
    assert len(frames) == 1 and rest == blob[:3]


def test_multiple_frames_in_one_buffer():
    one = encode_frame(WireMessage("OK", {"client_id": "alice"}))
    two = encode_frame(error_message("NoRoute", "x"))
    frames, rest = decode_frames(one + two)
    assert [f.kind for f in frames] == ["OK", "ERROR"]
    assert rest == b""


def test_unknown_kind_rejected():
    with pytest.raises(EncodingError):
        WireMessage("GOSSIP", {}).to_bytes()
    blob = encode_frame(WireMessage("OK", {}))
    tampered = blob.replace(b'"kind":"OK"', b'"kind":"NO"')
    with pytest.raises(EncodingError):
        decode_frames(tampered)


def test_body_that_is_not_an_object_rejected():
    payload = codec.canonical_encode(codec.TAG_WIRE, {"kind": "PROMISE", "body": [1]})
    with pytest.raises(EncodingError):
        decode_frames(struct.pack(">I", len(payload)) + payload)


def test_spec_protocol_kinds_all_present():
    required = {"REGISTER", "PROPOSAL_RELAY", "PROMISE", "SECRET", "RECEIPT",
                "CLOSE_REQUEST", "ERROR"}
    assert required <= KINDS


def test_oversize_frame_rejected():
    with pytest.raises(EncodingError):
        decode_frames(struct.pack(">I", 1 << 25) + b"x")


def test_a_bad_frame_carries_the_frames_before_it():
    good = WireMessage("OK", {"n": 1})
    bad = codec.TAG_WIRE + b'{"body":{"n":1e999},"kind":"OK"}'
    with pytest.raises(FrameError) as caught:
        decode_frames(encode_frame(good) + struct.pack(">I", len(bad)) + bad + encode_frame(good))
    assert caught.value.frames == [good]


class ScriptedSocket:
    """A socket stand-in: ``recv`` hands out ``incoming`` in pieces of at
    most ``piece`` bytes, and ``sendall`` records each write."""

    def __init__(self, incoming: bytes = b"", piece: int = 65536):
        self.incoming = incoming
        self.piece = piece
        self.writes: list[bytes] = []

    def settimeout(self, timeout):
        pass

    def recv(self, limit: int) -> bytes:
        chunk = self.incoming[:min(limit, self.piece)]
        self.incoming = self.incoming[len(chunk):]
        return chunk

    def sendall(self, data: bytes) -> None:
        self.writes.append(data)


def test_frame_split_over_many_reads_is_decoded_once(monkeypatch):
    from hubpay import wire

    big = WireMessage("ADMIN_RESULT", {"ok": True, "blob": "ab" * 5000})
    small = WireMessage("OK", {"client_id": "alice"})
    decodes = []

    def counting_decode(buffer):
        decodes.append(len(buffer))
        return decode_frames(buffer)

    monkeypatch.setattr(wire, "decode_frames", counting_decode)
    sock = ScriptedSocket(encode_frame(big) + encode_frame(small), piece=7)
    stream = FrameStream(sock)
    assert stream.recv() == big
    # one decode, made by the read that completed the first frame
    assert len(decodes) == 1
    assert 0 <= decodes[0] - len(encode_frame(big)) < sock.piece
    assert stream.recv() == small
    assert len(decodes) == 2
    assert stream.recv() is None  # the peer closed


def test_oversize_frame_refused_from_its_header():
    sock = ScriptedSocket(struct.pack(">I", 1 << 25) + b"x" * 100, piece=3)
    with pytest.raises(EncodingError):
        FrameStream(sock).recv()
    assert len(sock.incoming) > 90  # refused before reading the body


def test_frames_queued_together_leave_in_one_write():
    sock = ScriptedSocket()
    stream = FrameStream(sock)
    frames = [WireMessage("OK", {"n": i}) for i in range(5)]
    for msg in frames:
        stream.enqueue(msg)
    stream.flush()
    assert sock.writes == [b"".join(encode_frame(m) for m in frames)]
    stream.send(frames[0])
    assert sock.writes[1:] == [encode_frame(frames[0])]


# -- socket deployment -------------------------------------------------------------------

def new_hub(tick_seconds: float = 0.01, snapshot_path: str | None = None,
            **overrides) -> HubServer:
    """A daemon, not yet serving, on a free loopback port hosting one
    ledger; ``overrides`` replace keys of its config."""
    config = {
        "ledgers": [{"ledger_id": "L1", "scheme": "SCHEME_A",
                     "genesis": {"alice": 1000, "bob": 1000, "hub": 100_000}}],
        "fee_bps": 0, "claim_margin_delta": 40, "dispute_window": 60,
        "channel_float": 5000, **overrides,
    }
    return HubServer(build_hub_config(config), build_ledgers(config), port=0,
                     tick_seconds=tick_seconds, snapshot_path=snapshot_path)


def start_hub(**kwargs) -> HubServer:
    """``new_hub``, serving from a background thread."""
    server = new_hub(**kwargs)
    server.start_background()
    return server


@pytest.fixture()
def live_hub():
    server = start_hub()
    yield server, f"127.0.0.1:{server.address[1]}"
    server.shutdown()


def test_daemon_config_overrides_only_the_keys_it_sets():
    assert build_hub_config({}) == HubConfig()
    assert build_hub_config({"ledgers": [], "dispute_window": "7", "key_seed": "k"}) == \
        replace(HubConfig(), dispute_window=7, key_seed=b"k")


def hub_channels(addr, capsys) -> dict:
    capsys.readouterr()
    assert cli.hub_main(["channels", "list", "--addr", addr]) == 0
    return {row["client"]: row for row in json.loads(capsys.readouterr().out)["channels"]}


def await_credit_to_hub(addr, capsys, client: str, amount: int) -> int:
    deadline = time.monotonic() + 5
    while True:
        credit = hub_channels(addr, capsys)[client]["credit_to_hub"]
        if credit == amount or time.monotonic() > deadline:
            return credit
        time.sleep(0.02)


def onchain_claims(server) -> list:
    with server.lock:
        return [e for e in server.ledgers["L1"].events if e.kind == "CLAIMED"]


def test_wallet_cli_full_lifecycle(live_hub, tmp_path, capsys):
    server, addr = live_hub
    a_state = str(tmp_path / "alice.json")
    b_state = str(tmp_path / "bob.json")

    assert cli.wallet_main(["--hub", addr, "--state", a_state, "register",
                            "--id", "alice", "--ledger", "L1"]) == 0
    assert cli.wallet_main(["--hub", addr, "--state", b_state, "register",
                            "--id", "bob", "--ledger", "L1"]) == 0
    assert cli.wallet_main(["--hub", addr, "--state", a_state,
                            "deposit", "500"]) == 0

    results = {}

    def run_invoice():
        results["rc"] = cli.wallet_main(["--hub", addr, "--state", b_state,
                                         "invoice", "75", "--timeout", "20"])

    listener = threading.Thread(target=run_invoice)
    listener.start()
    time.sleep(0.3)
    assert cli.wallet_main(["--hub", addr, "--state", a_state, "pay", "bob",
                            "75", "--timeout", "20"]) == 0
    listener.join(timeout=25)
    assert results["rc"] == 0
    # the payer's receipt reached the hub: the credit is booked off-chain
    assert await_credit_to_hub(addr, capsys, "alice", 75) == 75
    assert onchain_claims(server) == []

    capsys.readouterr()
    assert cli.wallet_main(["--hub", addr, "--state", a_state, "balance"]) == 0
    balance = json.loads(capsys.readouterr().out)
    assert balance["credit_sent"] == 75 and balance["available"] == 425

    assert cli.wallet_main(["--hub", addr, "--state", a_state,
                            "log", "--json"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["payments"][0]["outcome"] == "PAID"

    assert cli.wallet_main(["--hub", addr, "--state", a_state, "close",
                            "--timeout", "30"]) == 0
    close = json.loads(capsys.readouterr().out)
    assert close["settlement"] == {"alice": 425, "hub": 5075}
    assert onchain_claims(server) == []


def test_wallet_cli_concurrent_payments_receipted_off_chain(live_hub, tmp_path, capsys):
    # CONCURRENT wallets sign one receipt per delivery batch; the payer's
    # session still sends it before it exits
    server, addr = live_hub
    a_state = str(tmp_path / "alice.json")
    b_state = str(tmp_path / "bob.json")
    for state, client in ((a_state, "alice"), (b_state, "bob")):
        assert cli.wallet_main(["--hub", addr, "--state", state, "register", "--id",
                                client, "--ledger", "L1", "--mode", "CONCURRENT"]) == 0
    assert cli.wallet_main(["--hub", addr, "--state", a_state, "deposit", "500"]) == 0
    for amount in (30, 45):
        results = {}
        listener = threading.Thread(target=lambda: results.update(rc=cli.wallet_main(
            ["--hub", addr, "--state", b_state, "invoice", str(amount),
             "--timeout", "20"])))
        listener.start()
        time.sleep(0.3)
        assert cli.wallet_main(["--hub", addr, "--state", a_state, "pay", "bob",
                                str(amount), "--timeout", "20"]) == 0
        with open(a_state, "r", encoding="utf-8") as fh:
            assert not ChannelState.from_jsonable(json.load(fh)["channel"]).receipt_owed()
        listener.join(timeout=25)
        assert results["rc"] == 0
    assert await_credit_to_hub(addr, capsys, "alice", 75) == 75
    assert hub_channels(addr, capsys)["bob"]["credit_to_client"] == 75
    assert onchain_claims(server) == []


def test_wallet_pay_without_listener_fails_nonzero(live_hub, tmp_path, capsys):
    _, addr = live_hub
    a_state = str(tmp_path / "a.json")
    assert cli.wallet_main(["--hub", addr, "--state", a_state, "register",
                            "--id", "alice", "--ledger", "L1"]) == 0
    assert cli.wallet_main(["--hub", addr, "--state", a_state,
                            "deposit", "100"]) == 0
    capsys.readouterr()
    rc = cli.wallet_main(["--hub", addr, "--state", a_state, "pay", "ghost",
                          "10", "--timeout", "3"])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "FAILED"


def test_refused_registration_keeps_the_state_file(live_hub, tmp_path, capsys):
    _, addr = live_hub
    state = tmp_path / "alice.json"
    assert cli.wallet_main(["--hub", addr, "--state", str(state), "register",
                            "--id", "alice", "--ledger", "L1"]) == 0
    saved = state.read_text()
    capsys.readouterr()
    assert cli.wallet_main(["--hub", addr, "--state", str(state), "register",
                            "--id", "alice", "--ledger", "L1"]) == 1
    assert json.loads(capsys.readouterr().out) == {"outcome": "FAILED",
                                                   "error": "AlreadyRegistered"}
    assert state.read_text() == saved


def test_admin_channels_and_snapshot(live_hub, tmp_path, capsys):
    server, addr = live_hub
    a_state = str(tmp_path / "a.json")
    assert cli.wallet_main(["--hub", addr, "--state", a_state, "register",
                            "--id", "alice", "--ledger", "L1"]) == 0
    capsys.readouterr()
    assert cli.hub_main(["channels", "list", "--addr", addr]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert listing["channels"][0]["client"] == "alice"

    assert cli.hub_main(["snapshot", "--addr", addr]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert "hub" in snap["snapshot"] and "ledgers" in snap["snapshot"]


def test_admin_close_forces_dispute(live_hub, tmp_path, capsys):
    server, addr = live_hub
    a_state = str(tmp_path / "a.json")
    assert cli.wallet_main(["--hub", addr, "--state", a_state, "register",
                            "--id", "alice", "--ledger", "L1"]) == 0
    with open(a_state, "r", encoding="utf-8") as fh:
        channel_id = json.load(fh)["channel_id"]
    capsys.readouterr()
    assert cli.hub_main(["close", channel_id, "--addr", addr]) == 0
    deadline = time.monotonic() + 2
    while time.monotonic() < deadline:
        with server.lock:
            status = server.ledgers["L1"].contracts[channel_id].status
        if status == "CLOSING":
            break
        time.sleep(0.02)
    assert status == "CLOSING"


def test_simnet_cli_run_and_bench(tmp_path, capsys):
    from hubpay.scenarios import happy_path

    scenario_path = tmp_path / "happy.json"
    scenario_path.write_text(json.dumps(happy_path()))
    trace_path = tmp_path / "trace.jsonl"
    report_path = tmp_path / "report.json"
    rc = cli.simnet_main(["run", str(scenario_path), "--trace", str(trace_path),
                          "--report", str(report_path)])
    assert rc == 0
    capsys.readouterr()
    assert trace_path.exists() and report_path.exists()
    lines = trace_path.read_text().splitlines()
    assert all(json.loads(line) for line in lines)

    rc = cli.simnet_main(["bench", "--n", "25", "--mode", "concurrent"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["payments_paid"] == 25


def test_simnet_cli_fails_on_unmet_expectation(tmp_path, capsys):
    from hubpay.scenarios import happy_path

    scenario = happy_path()
    scenario["expectations"] = [{"kind": "exact-balance", "actor": "alice",
                                 "value": 1}]
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(scenario))
    assert cli.simnet_main(["run", str(path)]) == 1
    capsys.readouterr()


def live_peer(address, client_id: str) -> SocketWallet:
    """A registered CONCURRENT wallet on its own connection."""
    stream = FrameStream(socket.create_connection(address, timeout=10))
    peer = SocketWallet(stream, WalletConfig(client_id=client_id, ledger_id="L1",
                                             mode="CONCURRENT", poll_interval=40))
    peer.send_all(peer.wallet.start_register())
    deadline = time.monotonic() + 10
    while not peer.wallet.verified:
        assert time.monotonic() < deadline, f"{client_id} not registered"
        assert peer.pump(0.1), "hub closed the connection"
    return peer


def funded_peers(server: HubServer, tick) -> dict[str, SocketWallet]:
    """alice and bob, registered, each with 500 deposited and seen by both
    ends; ``tick`` moves the hub on while they wait."""
    peers = {cid: live_peer(server.address, cid) for cid in ("alice", "bob")}
    for peer in peers.values():
        peer.wallet.deposit(500)
    deadline = time.monotonic() + 5
    while not all(server.hub.channel_of(cid).peer_deposit == 500
                  and peer.wallet.state.my_deposit == 500
                  for cid, peer in peers.items()):
        assert time.monotonic() < deadline, "deposits not observed"
        tick()
        for peer in peers.values():
            peer.pump()
            peer.tick()
    return peers


def pay(peers: dict[str, SocketWallet], payer: str, payee: str, count: int,
        amount: int, window: int = 8) -> None:
    """``count`` payments, up to ``window`` in flight, all PAID and RECEIVED."""
    src, dst = peers[payer], peers[payee]
    issued, open_ids = 0, set()
    deadline = time.monotonic() + 30
    while issued < count or open_ids:
        assert time.monotonic() < deadline, f"{len(open_ids)} payments unresolved"
        while issued < count and len(open_ids) < window:
            issued += 1
            pid = f"{payer}-{issued:03d}"
            proposal = dst.wallet.issue_proposal(pid, payer, amount, 400, dst.remote.now)
            src.send_all(src.wallet.start_payment_with_proposal(
                pid, payee, proposal, src.remote.now))
            open_ids.add(pid)
        for peer in (src, dst):
            peer.pump(0.01)
        open_ids = {pid for pid in open_ids
                    if pid in src.wallet.open_flows or pid in dst.wallet.open_flows}
    assert all(src.wallet.flows[f"{payer}-{k:03d}"].outcome == "PAID"
               and dst.wallet.flows[f"{payer}-{k:03d}"].outcome == "RECEIVED"
               for k in range(1, count + 1))


def test_relayed_proposal_names_the_connections_client(live_hub):
    server, _ = live_hub
    alice, bob = (live_peer(server.address, cid) for cid in ("alice", "bob"))
    alice.stream.send(WireMessage("PROPOSAL_RELAY", {
        "payment_id": "p1", "from": "carol", "to": "bob", "amount": 5,
        "expiry_delta": 100}))
    relayed = bob.stream.recv(timeout=5)
    assert relayed.kind == "PROPOSAL_RELAY"
    assert relayed.body["from"] == "alice"
    for peer in (alice, bob):
        peer.stream.close()


@pytest.mark.parametrize("hello", ["OK", "REGISTER"])
def test_second_hello_does_not_rebind_the_connection(live_hub, hello):
    server, _ = live_hub
    alice, bob = (live_peer(server.address, cid) for cid in ("alice", "bob"))
    alice.stream.send(WireMessage(hello, {"client_id": "bob"}))
    alice.stream.send(WireMessage("PROPOSAL_RELAY", {
        "payment_id": "p1", "to": "bob", "amount": 5, "expiry_delta": 100}))
    relayed = bob.stream.recv(timeout=5)
    assert (relayed.kind, relayed.body["from"]) == ("PROPOSAL_RELAY", "alice")
    assert server.connections["bob"] is not server.connections["alice"]
    for peer in (alice, bob):
        peer.stream.close()


def test_malformed_ledger_op_leaves_the_connection_open(live_hub):
    server, _ = live_hub
    stream = FrameStream(socket.create_connection(server.address, timeout=10))
    stream.send(WireMessage("LEDGER_OP", {"ledger_id": "L1", "op": "deposit"}))
    reply = stream.recv(timeout=5)
    assert reply.kind == "LEDGER_RESULT"
    assert (reply.body["ok"], reply.body["error"]) == (False, "EncodingError")
    stream.send(WireMessage("LEDGER_OP", {"ledger_id": "L1", "op": "meta", "args": {}}))
    reply = stream.recv(timeout=5)
    assert reply.body["ok"] and reply.body["result"]["ledger_id"] == "L1"
    stream.close()


def test_daemon_orders_receipts_after_the_promises_they_commit_to(live_hub):
    # both wallets pay each other with many payments in flight, so one pass
    # of the daemon's loop can route promises to a client from one
    # connection and receipt that client's secrets from the other
    server, _ = live_hub
    peers = funded_peers(server, lambda: time.sleep(0.02))
    per_direction, window, amount = 60, 8, 5
    issued = {"alice": 0, "bob": 0}
    open_ids: set[str] = set()
    deadline = time.monotonic() + 30
    while open_ids or min(issued.values()) < per_direction:
        assert time.monotonic() < deadline, f"{len(open_ids)} payments unresolved"
        for payer, payee in (("alice", "bob"), ("bob", "alice")):
            src, dst = peers[payer], peers[payee]
            while (issued[payer] < per_direction
                   and sum(p.startswith(payer) for p in open_ids) < window):
                issued[payer] += 1
                pid = f"{payer}-{issued[payer]:03d}"
                proposal = dst.wallet.issue_proposal(pid, payer, amount, 400,
                                                     dst.remote.now)
                src.send_all(src.wallet.start_payment_with_proposal(
                    pid, payee, proposal, src.remote.now))
                open_ids.add(pid)
        for peer in peers.values():
            peer.pump()
        open_ids = {pid for pid in open_ids
                    if any(pid in peer.wallet.open_flows for peer in peers.values())}
    total = per_direction * amount
    deadline = time.monotonic() + 5
    while not all(server.hub.channel_of(cid).credit_received == total for cid in peers):
        assert time.monotonic() < deadline, "final receipts not booked"
        for peer in peers.values():
            peer.pump()
        time.sleep(0.01)
    with server.lock:
        hub_rejected = server.note_counts["receipt_rejected"]
        # every hub note is tallied, and none is kept
        assert server.note_counts["secret_accepted"] == 2 * per_direction
        assert server.hub.trace == []
    rejected = []
    for peer in peers.values():
        rejected += [n for n in peer.wallet.trace if n["action"] == "receipt_rejected"]
        assert all(f.outcome in ("PAID", "RECEIVED") for f in peer.wallet.flows.values())
        peer.stream.close()
    assert hub_rejected == 0
    assert rejected == []
    assert onchain_claims(server) == []


def nodelay(sock: socket.socket) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def test_both_ends_of_a_daemon_connection_send_without_nagle(live_hub):
    server, _ = live_hub
    alice = live_peer(server.address, "alice")  # after its hello
    assert nodelay(alice.stream.sock)
    assert nodelay(server.connections["alice"].sock)
    alice.stream.close()


def test_frame_stream_over_a_local_socket_pair():
    left, right = (FrameStream(s) for s in socket.socketpair())
    msg = WireMessage("OK", {"client_id": "alice"})
    left.send(msg)
    assert right.recv(timeout=5) == msg
    right.send(error_message("Nope", "refused"))
    assert left.recv(timeout=5) == error_message("Nope", "refused")
    left.close()
    assert right.recv(timeout=5) is None
    right.close()


# -- one thread serves every connection ---------------------------------------------

def test_connections_add_no_threads_and_shutdown_ends_everything():
    server = new_hub(tick_seconds=3600)
    thread = server.start_background()
    peers = []
    try:
        # threads other tests leave may end meanwhile, but none may start
        threads = set(threading.enumerate())
        for cid in ("alice", "bob", "carol", "dave", "erin"):
            peers.append(live_peer(server.address, cid))
        assert set(threading.enumerate()) <= threads
    finally:
        server.shutdown()
    thread.join(timeout=2)
    assert not thread.is_alive()
    for peer in peers:
        assert peer.stream.recv(timeout=2) is None
        peer.stream.close()


def ledger_now(stream: FrameStream, timeout: float) -> int:
    """The hosted ledger's clock, read through one LEDGER_OP."""
    stream.send(WireMessage("LEDGER_OP", {"ledger_id": "L1", "op": "meta", "args": {}}))
    reply = stream.recv(timeout=timeout)
    assert reply.kind == "LEDGER_RESULT"
    return reply.body["result"]["now"]


def test_a_peer_that_stops_reading_does_not_stall_the_daemon():
    server = start_hub()
    try:
        alice, bob = (live_peer(server.address, cid) for cid in ("alice", "bob"))
        # bob reads nothing more, and alice sends him more than the daemon
        # keeps for a peer, on top of what the sockets' buffers hold
        padding = "x" * 200_000
        for n in range(MAX_BACKLOG // len(padding) + 40):
            alice.stream.send(WireMessage("PROPOSAL_RELAY", {
                "payment_id": f"p{n}", "to": "bob", "amount": 5,
                "expiry_delta": 100, "padding": padding}))
        carol = FrameStream(socket.create_connection(server.address, timeout=10))
        before = ledger_now(carol, timeout=1)
        time.sleep(0.2)
        assert ledger_now(carol, timeout=1) > before  # the ticks go on
        ledger_now(alice.stream, timeout=5)
        with server.lock:
            assert "bob" not in server.connections
        for stream in (alice.stream, bob.stream, carol):
            stream.close()
    finally:
        server.shutdown()


@pytest.mark.parametrize("frame", [
    WireMessage("LEDGER_OP", {"ledger_id": "L1", "op": "events_since",
                              "args": {"seq": 1_000_000}}),
    WireMessage("PROMISE", {"payment_id": "p1", "promise": {}}),
], ids=["ledger-op", "protocol"])
def test_an_unexpected_error_drops_only_the_connection_that_drew_it(frame, monkeypatch):
    server = new_hub()
    # an error no decoder expects, in the daemon's own ledger-op code and in
    # the hub core, drawn by this frame alone
    run_ledger_op, handle_message = server._run_ledger_op, server.hub.handle_message

    def failing(answer, body_of):
        def call(*args):
            if body_of(*args) == frame.body:
                raise RuntimeError("unexpected")
            return answer(*args)
        return call
    monkeypatch.setattr(server, "_run_ledger_op", failing(run_ledger_op, lambda body: body))
    monkeypatch.setattr(server.hub, "handle_message",
                        failing(handle_message, lambda src, msg, now: msg.body))
    server.start_background()
    try:
        alice, bob = (live_peer(server.address, cid) for cid in ("alice", "bob"))
        alice.stream.send(frame)
        assert alice.stream.recv(timeout=5) is None
        before = ledger_now(bob.stream, timeout=5)
        time.sleep(0.2)
        assert ledger_now(bob.stream, timeout=5) > before  # the ticks go on
        for peer in (alice, bob):
            peer.stream.close()
    finally:
        server.shutdown()


def test_non_integer_numbers_are_refused_and_recovery_equals_live():
    server = start_hub()
    try:
        alice, bob = (live_peer(server.address, cid) for cid in ("alice", "bob"))
        # what json made of 1e999 before the codec refused it, where it
        # reaches the daemon's ledger-op code without a frame
        with server.lock:
            reply = server._ledger_op({"ledger_id": "L1", "op": "events_since",
                                       "args": {"seq": float("inf")}})
        assert (reply.body["ok"], reply.body["error"]) == (False, "EncodingError")
        # over the wire, the frame decoder refuses the number before the hub
        # sees it, as it refuses any frame that is not canonical
        carol = FrameStream(socket.create_connection(server.address, timeout=10))
        for stream, kind, body in (
                (carol, b"LEDGER_OP",
                 b'{"ledger_id":"L1","op":"events_since","args":{"seq":1e999}}'),
                (alice.stream, b"PROMISE", b'{"payment_id":"p1","promise":{"amount":1e999}}')):
            payload = codec.TAG_WIRE + b'{"body":%s,"kind":"%s"}' % (body, kind)
            stream.sock.sendall(struct.pack(">I", len(payload)) + payload)
            assert stream.recv(timeout=5) is None
        ledger_now(bob.stream, timeout=5)
        with server.lock:
            assert all(e.get("kind") != "PROMISE" for e in server.hub.store.journal)
            recovered = HubCore.recover(server.config, server.ledgers, server.hub.store)
            assert recovered.persist_json() == server.hub.persist_json()
        for stream in (alice.stream, bob.stream, carol):
            stream.close()
    finally:
        server.shutdown()


def test_frames_before_a_bad_one_count_and_then_the_connection_drops(live_hub):
    server, _ = live_hub
    alice, bob = (live_peer(server.address, cid) for cid in ("alice", "bob"))
    relay = encode_frame(WireMessage("PROPOSAL_RELAY", {
        "payment_id": "p1", "to": "bob", "amount": 5, "expiry_delta": 100}))
    bad = codec.TAG_WIRE + b'{"body":{"payment_id":"p2","promise":{"amount":1e999}},' \
                           b'"kind":"PROMISE"}'
    # one write: a good frame, then one that is not canonical
    alice.stream.sock.sendall(relay + struct.pack(">I", len(bad)) + bad)
    relayed = bob.stream.recv(timeout=5)
    assert (relayed.kind, relayed.body["payment_id"]) == ("PROPOSAL_RELAY", "p1")
    assert alice.stream.recv(timeout=5) is None
    for peer in (alice, bob):
        peer.stream.close()


def test_a_failing_batch_end_or_tick_does_not_end_the_daemon(monkeypatch):
    server = new_hub()

    def broken(*args):
        raise RuntimeError("broken")
    monkeypatch.setattr(server.hub, "flush_receipts", broken)
    monkeypatch.setattr(server.hub, "hub_tick", broken)
    thread = server.start_background()
    try:
        alice = live_peer(server.address, "alice")
        before = ledger_now(alice.stream, timeout=5)
        time.sleep(0.2)
        assert ledger_now(alice.stream, timeout=5) > before
        assert thread.is_alive()
        alice.stream.close()
    finally:
        server.shutdown()


def test_an_answer_too_large_for_a_frame_drops_only_its_sender(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME", 4096)
    server = start_hub()
    try:
        alice, bob = (live_peer(server.address, cid) for cid in ("alice", "bob"))
        relay = {"payment_id": "p1", "to": "bob", "amount": 5, "expiry_delta": 100,
                 "padding": ""}
        # a whole frame, which the relay's "from" makes too large for one
        relay["padding"] = "x" * (wire.MAX_FRAME
                                  - len(WireMessage("PROPOSAL_RELAY", relay).to_bytes()))
        alice.stream.send(WireMessage("PROPOSAL_RELAY", relay))
        assert alice.stream.recv(timeout=5) is None
        ledger_now(bob.stream, timeout=5)
        for peer in (alice, bob):
            peer.stream.close()
    finally:
        server.shutdown()


# -- persistence and disputes over sockets -------------------------------------------

def test_daemon_journal_is_checkpointed_and_recovers(monkeypatch):
    monkeypatch.setattr(hub, "CHECKPOINT_FLOOR", 8)
    server = start_hub()
    try:
        store = server.hub.store
        excess, append = [], store.append

        def measured_append(entry):
            # called under the server's lock
            append(entry)
            threshold = max(hub.CHECKPOINT_FLOOR, len(server.hub.routes))
            excess.append(len(store.journal) - threshold)
        store.append = measured_append
        peers = funded_peers(server, lambda: time.sleep(0.02))
        pay(peers, "alice", "bob", 50, 5)
        with server.lock:
            assert max(excess) <= 0
            assert store.snapshot is not None
            recovered = HubCore.recover(server.config, server.ledgers, store)
            assert recovered.persist_json() == server.hub.persist_json()
        for peer in peers.values():
            peer.stream.close()
    finally:
        server.shutdown()


def admin(server: HubServer, body: dict) -> dict | None:
    """The body of the daemon's answer to one ADMIN frame; None if it
    drops the connection instead."""
    stream = FrameStream(socket.create_connection(server.address, timeout=10))
    stream.send(WireMessage("ADMIN", body))
    reply = stream.recv(timeout=5)
    stream.close()
    return reply.body if reply is not None else None


def test_admin_snapshot_file_is_replaced_whole(tmp_path, monkeypatch):
    path = tmp_path / "hub-snapshot.json"
    path.write_text("the last snapshot")
    # no ticks, so the state stays put between snapshots
    server = start_hub(tick_seconds=3600, snapshot_path=str(path))
    try:
        live_peer(server.address, "alice").stream.close()
        assert admin(server, {"cmd": "snapshot"}) == {"ok": True, "path": str(path)}
        written = json.loads(path.read_text())
        assert os.listdir(tmp_path) == ["hub-snapshot.json"]
        assert "alice" in written["hub"]["registry"]

        # a write cut short leaves the previous file whole
        def torn_dump(obj, fh, **kwargs):
            fh.write('{"hub": {')
            raise OSError("no space left on device")
        with monkeypatch.context() as patch:
            patch.setattr(json, "dump", torn_dump)
            assert admin(server, {"cmd": "snapshot"}) == {
                "ok": False, "error": "IOError", "detail": "no space left on device"}
        assert json.loads(path.read_text()) == written
        # and no partial temporary file is left behind
        assert os.listdir(tmp_path) == ["hub-snapshot.json"]

        server.snapshot_path = None
        assert admin(server, {"cmd": "snapshot"})["snapshot"] == written
    finally:
        server.shutdown()


def test_disputes_settle_through_remote_ledgers():
    # the test is the ticker, so each step below happens at a chosen time
    server = start_hub(tick_seconds=3600, dispute_window=10)
    try:
        peers = funded_peers(server, server.tick)
        alice, bob = peers["alice"], peers["bob"]
        pay(peers, "alice", "bob", 3, 20)
        pay(peers, "bob", "alice", 2, 15)
        # each party holds a receipt from the hub, and the hub one from each
        assert alice.wallet.state.last_receipt_received is not None
        assert bob.wallet.state.last_receipt_received is not None
        ledger = server.ledgers["L1"]
        a_channel, b_channel = alice.wallet.channel_id, bob.wallet.channel_id

        # alice opens a dispute with her latest receipt, and the hub answers
        # with hers; the hub opens one on bob's channel, and bob answers
        alice.remote.initiate_dispute(a_channel, "alice",
                                      alice.wallet.state.last_receipt_received)
        assert admin(server, {"cmd": "close", "channel_id": b_channel}) == {"ok": True}
        server.tick()
        for peer in peers.values():
            peer.tick()
        with server.lock:
            # the receipts each dispute holds, by issuer
            disputes = {cid: ledger.contracts[cid].dispute.receipts
                        for cid in (a_channel, b_channel)}
        assert set(disputes[a_channel]) == {"alice", "hub"}
        assert set(disputes[b_channel]) == {"bob", "hub"}
        assert [n["action"] for n in bob.wallet.trace].count("dispute_response") == 1

        # past the window, each wallet settles its own channel before the hub
        # ticks again
        with server.lock:
            ledger.advance_time(server.config.dispute_window)
        for peer in peers.values():
            peer.tick()
        server.tick()
        for peer in peers.values():
            peer.tick()
            assert peer.wallet.settlement == close_balances(peer.wallet.state)
            assert [n["action"] for n in peer.wallet.trace].count("finalized") == 1
            peer.stream.close()
        with server.lock:
            assert server.note_counts["finalized"] == 0
            assert {cid: c.status for cid, c in ledger.contracts.items()} == \
                {a_channel: "CLOSED", b_channel: "CLOSED"}
            assert ledger.total_value() == 1000 + 1000 + 100_000
            assert ledger.balance("alice") == 1000 - 3 * 20 + 2 * 15
            assert ledger.balance("bob") == 1000 + 3 * 20 - 2 * 15
    finally:
        server.shutdown()
