"""Scenario harness: determinism, validation, expectations, benchmark."""

import json

import pytest

from hubpay import hub, simnet
from hubpay.errors import ScenarioError
from hubpay.hub import HubCore
from hubpay.scenarios import base_two_clients, cross_ledger, happy_path
from hubpay.simnet import World, load_scenario, run_scenario, throughput_bench
from hubpay.wire import receipt_message

from corpus_checks import accounts_equal_genesis


def test_happy_path_counts_onchain_transactions():
    report = run_scenario(happy_path())
    assert report.ok(), report.assertion_results
    # 2 deploys + 2 hub floats + 2 client deposits + 2 cooperative closes
    assert report.metrics["onchain_tx_count"] == 8
    assert report.metrics["payments_paid"] == 3


def test_reports_are_byte_identical_across_runs():
    blobs = {run_scenario(happy_path()).canonical_bytes() for _ in range(3)}
    assert len(blobs) == 1


def test_different_seeds_same_balances():
    # only the secret preimages differ between seeds
    one = run_scenario(happy_path(seed=1))
    two = run_scenario(happy_path(seed=2))
    assert one.canonical_bytes() != two.canonical_bytes()
    assert one.final_balances == two.final_balances
    assert one.metrics == two.metrics


def test_cross_ledger_shares_one_hashlock_across_schemes():
    scenario = cross_ledger()
    world = World(scenario)
    report = world.run()
    assert report.ok(), report.assertion_results
    assert world.ledgers["LA"].scheme == "SCHEME_A"
    assert world.ledgers["LB"].scheme == "SCHEME_B"
    by_pid = {}
    for entry in report.trace:
        if entry["ev"] == "msg" and entry["kind"] == "PROMISE":
            by_pid.setdefault(entry["pid"], []).append(entry)
    for pid, promises in by_pid.items():
        channels = {p["channel"] for p in promises}
        hashlocks = {p["hashlock"] for p in promises}
        assert len(channels) == 2, f"{pid} did not cross both channels"
        assert len(hashlocks) == 1, f"{pid} used differing hashlocks"
    assert accounts_equal_genesis(world, scenario)


def test_scenario_validation_rejects_malformed_scripts():
    scenario = happy_path()
    scenario["script"].append({"at": 3, "action": "teleport", "actor": "alice"})
    with pytest.raises(ScenarioError):
        World(scenario)
    scenario = happy_path()
    scenario["script"].append({"at": 3, "action": "pay", "from": "alice",
                               "to": "nobody", "amount": 1})
    with pytest.raises(ScenarioError):
        World(scenario)
    scenario = happy_path()
    del scenario["seed"]
    with pytest.raises(ScenarioError):
        World(scenario)


def test_expectation_kinds_evaluate():
    scenario = happy_path()
    scenario["expectations"] = [
        {"kind": "exact-balance", "actor": "alice", "value": 955},
        {"kind": "balance-bound", "actor": "bob", "min": 1000},
        {"kind": "event-count", "event": "DEPOSITED", "equals": 4},
        {"kind": "event-absence", "event": "DISPUTE_OPENED"},
        {"kind": "payments-paid", "equals": 3},
        {"kind": "payment-outcome", "payment_id": "pmt-00001", "outcome": "PAID"},
    ]
    report = run_scenario(scenario)
    assert report.ok(), report.assertion_results


def test_failed_expectation_reported_not_raised():
    scenario = happy_path()
    scenario["expectations"] = [
        {"kind": "exact-balance", "actor": "alice", "value": 1}]
    report = run_scenario(scenario)
    assert not report.ok()
    assert report.assertion_results[0]["ok"] is False


def test_scenario_files_load_and_run(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(happy_path()))
    report = run_scenario(load_scenario(str(path)))
    assert report.ok()


def test_bad_scenario_file_raises(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


def test_trace_recomputes_metrics():
    report = run_scenario(happy_path())
    msg_count = sum(1 for e in report.trace
                    if e["ev"] == "msg" and not e.get("dropped"))
    ledger_count = sum(1 for e in report.trace if e["ev"] == "ledger")
    assert msg_count == report.metrics["offchain_msg_count"]
    assert ledger_count == report.metrics["onchain_tx_count"]


def test_bench_serialized_single_inflight():
    report = throughput_bench(30, "SERIALIZED")
    assert report.metrics["payments_paid"] == 30
    assert report.metrics["onchain_tx_count"] <= 8


def test_bench_one_payment():
    report = throughput_bench(1, "CONCURRENT")
    assert report.metrics["payments_paid"] == 1


def test_bench_concurrent_fewer_rounds_same_balances():
    serialized = throughput_bench(40, "SERIALIZED", seed=3)
    concurrent = throughput_bench(40, "CONCURRENT", window=8, seed=3)
    assert serialized.final_balances == concurrent.final_balances
    assert concurrent.metrics["ticks"] < serialized.metrics["ticks"]


def test_bench_rejects_bad_args():
    with pytest.raises(ScenarioError):
        throughput_bench(0, "CONCURRENT")
    with pytest.raises(ScenarioError):
        throughput_bench(5, "TURBO")


def test_message_delay_must_be_positive():
    scenario = base_two_clients()
    scenario["message_delay"] = 0
    with pytest.raises(ScenarioError):
        World(scenario)


def test_hub_crash_before_the_batch_ends_still_pays_the_payee():
    # alice's promise reaches the hub at tick 9; the hub forwards it unsealed
    # and crashes before the tick's batch ends, so nothing reaches bob
    scenario = load_scenario("scenarios/hub_crash_recovery.json")
    for client in scenario["clients"]:
        client["mode"] = "CONCURRENT"
    for step in scenario["script"]:
        if step["action"] == "crash":
            step["at"] = 9
        elif step["action"] == "restart":
            step["at"] = 12
    world = World(scenario)
    report = world.run()
    assert report.ok(), report.assertion_results
    promises = [(e["t"], e["src"], e["dst"]) for e in report.trace
                if e["ev"] == "msg" and e["kind"] == "PROMISE"]
    assert promises[0] == (9, "alice", "hub")
    # the recovered hub seals the forward at its first batch end
    assert promises[1:] == [(13, "hub", "bob")]
    assert world.wallets["bob"].flows["pmt-00001"].outcome == "RECEIVED"
    assert world.wallets["alice"].flows["pmt-00001"].outcome == "PAID"


@pytest.mark.parametrize("mode", ["SERIALIZED", "CONCURRENT"])
def test_redelivered_last_receipt_changes_nothing(mode):
    scenario = happy_path()
    for client in scenario["clients"]:
        client["mode"] = mode
    world = World(scenario)
    world.run()
    hub = world.hub
    bob = world.wallets["bob"]
    # the hub's last receipt to bob, and alice's last receipt to the hub
    to_bob = bob.state.last_receipt_received
    to_hub = hub.channel_of("alice").last_receipt_received
    assert to_bob is not None and to_hub is not None
    wallet_before, hub_before = json.dumps(bob.state.to_jsonable()), hub.persist_json()
    assert bob.handle_message("hub", receipt_message(to_bob), world.tick) == []
    assert hub.handle_message("alice", receipt_message(to_hub), world.tick) == []
    assert json.dumps(bob.state.to_jsonable()) == wallet_before
    assert hub.persist_json() == hub_before
    assert [n["action"] for n in bob.trace] == ["receipt_duplicate"]
    assert [n["action"] for n in hub.trace] == ["receipt_duplicate"]


def crash_mid_payments(mode: str) -> dict:
    """Three payments; the hub is down while the first is in flight."""
    scenario = happy_path(mode=mode)
    scenario["script"] += [{"at": 10, "action": "crash", "actor": "hub"},
                           {"at": 13, "action": "restart", "actor": "hub"}]
    return scenario


CRASH_RUNS = {
    "hub_crash_recovery": lambda: load_scenario("scenarios/hub_crash_recovery.json"),
    "serialized": lambda: crash_mid_payments("SERIALIZED"),
    "concurrent": lambda: crash_mid_payments("CONCURRENT"),
}


@pytest.mark.parametrize("run", sorted(CRASH_RUNS))
def test_checkpoint_before_every_entry_changes_no_report(monkeypatch, run):
    at_default = World(CRASH_RUNS[run]())
    expected = at_default.run()
    assert expected.ok(), expected.assertion_results
    # too short a run to reach the default floor: recovery replays it all
    assert at_default.hub_store.snapshot is None
    monkeypatch.setattr(hub, "CHECKPOINT_FLOOR", 1)
    world = World(CRASH_RUNS[run]())
    report = world.run()
    # one entry per route at most, as routes outnumber the floor
    assert world.hub_store.snapshot is not None
    assert len(world.hub_store.journal) <= max(1, len(world.hub.routes))
    assert report.canonical_bytes() == expected.canonical_bytes()


def test_hub_journal_stays_bounded_through_a_long_bench(monkeypatch):
    worlds, longest = [], []

    class KeptWorld(World):
        def __init__(self, scenario):
            super().__init__(scenario)
            worlds.append(self)
            store, append = self.hub_store, self.hub_store.append

            def measured_append(entry):
                append(entry)
                longest.append(len(store.journal))
            store.append = measured_append

    monkeypatch.setattr(simnet, "World", KeptWorld)
    payments = 1200  # past the floor: about 2 journal entries per payment
    assert throughput_bench(payments).metrics["payments_paid"] == payments
    (world,) = worlds
    assert world.hub_store.snapshot is not None
    # routes only grow, so the final threshold is the largest there was
    assert max(longest) <= max(hub.CHECKPOINT_FLOOR, len(world.hub.routes))
    recovered = HubCore.recover(world.hub_config, world.ledgers, world.hub_store)
    # a bare bool: pytest's diff of two megabyte strings would take minutes
    same = recovered.persist_json() == world.hub.persist_json()
    assert same, "recovered hub state differs from the live hub"
