"""Summary statistics and the per-layer metrics derived from spans."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

from hubpay.crypto import SCHEME_A, SCHEME_B

from tracing import SpanStats


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: with 1000 samples, p99 leaves 10 above it."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


@dataclass
class Outcome:
    """What one benchmark run found: correctness, counts and metrics."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0 and self.attempted > 0


def _mean_ns(stats: SpanStats, name: str) -> float:
    calls = stats.calls.get(name, 0)
    return stats.total_ns[name] / calls if calls else 0.0


def _median_us(durations_ns: list[int]) -> float:
    return median(durations_ns) / 1e3 if durations_ns else 0.0


def _by_scheme(stats: SpanStats, name: str, scheme: str) -> list[int]:
    return [d for d, s in zip(stats.durations_ns[name], stats.extras[name]) if s == scheme]


def layer_metrics(stats: SpanStats, payments: int, wall_ns: int) -> dict[str, float]:
    """Per-layer metrics every traced process yields: crypto, codec, channel,
    wallet and ledger work per payment and their shares of the phase."""
    jsonable = [n for n in stats.calls if n.endswith((".to_jsonable", ".from_jsonable"))]
    merkle = "crypto.merkle_root_of_leaf_hashes"
    leaves = stats.extras[merkle]
    rejects = sum(1 for n in ("channel.ChannelState.verify_promise",
                              "channel.ChannelState.verify_receipt")
                  for reason in stats.extras[n] if reason is not None)
    wallet_msgs = stats.calls.get("wallet.WalletCore.handle_message", 0)
    return {
        "crypto.sign_per_payment": stats.calls.get("crypto.sign", 0) / payments,
        "crypto.verify_per_payment": stats.calls.get("crypto.verify", 0) / payments,
        "crypto.ed25519.sign_us": _median_us(_by_scheme(stats, "crypto.sign", SCHEME_A)),
        "crypto.ed25519.verify_us": _median_us(_by_scheme(stats, "crypto.verify", SCHEME_A)),
        "crypto.ed448.sign_us": _median_us(_by_scheme(stats, "crypto.sign", SCHEME_B)),
        "crypto.ed448.verify_us": _median_us(_by_scheme(stats, "crypto.verify", SCHEME_B)),
        "crypto.busy_share": stats.layer_self_ns("crypto") / wall_ns,
        "crypto.merkle_root_per_payment": stats.calls.get(merkle, 0) / payments,
        "crypto.merkle_root_us": _mean_ns(stats, merkle) / 1e3,
        "crypto.merkle_leaves_mean": sum(leaves) / len(leaves) if leaves else 0.0,
        "codec.encode_per_payment": stats.calls.get("codec.canonical_encode", 0) / payments,
        "codec.encode_us": _mean_ns(stats, "codec.canonical_encode") / 1e3,
        "codec.jsonable_per_payment": sum(stats.calls[n] for n in jsonable) / payments,
        "codec.jsonable_us_per_payment":
            sum(stats.self_ns[n] for n in jsonable) / payments / 1e3,
        "codec.busy_share": stats.layer_self_ns("codec") / wall_ns,
        "channel.self_us_per_payment": stats.layer_self_ns("channel") / payments / 1e3,
        "channel.busy_share": stats.layer_self_ns("channel") / wall_ns,
        "channel.rejects": float(rejects),
        "wallet.msg_self_us": (stats.self_ns["wallet.WalletCore.handle_message"] / wallet_msgs
                               / 1e3 if wallet_msgs else 0.0),
        "wallet.tick_us": _mean_ns(stats, "wallet.WalletCore.client_tick") / 1e3,
        "wallet.busy_share": stats.layer_self_ns("wallet") / wall_ns,
        "ledger.busy_share": stats.layer_self_ns("ledger") / wall_ns,
    }
