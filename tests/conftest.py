import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hubpay.channel import ChannelState, seal_promises
from hubpay.crypto import SCHEME_A, PrivateKey, generate_keypair
from hubpay.messages import MODE_SERIALIZED, ChannelParams, Promise


@dataclass
class ChannelPair:
    """Two linked views of one channel plus the parties' signing keys."""

    params: ChannelParams
    client: ChannelState
    hub: ChannelState
    client_sk: PrivateKey
    hub_sk: PrivateKey

    def state_of(self, party: str) -> ChannelState:
        return self.client if party == self.params.client_id else self.hub

    def key_of(self, party: str) -> PrivateKey:
        return self.client_sk if party == self.params.client_id else self.hub_sk


def sealed(promise: Promise, sk: PrivateKey) -> Promise:
    """A hand-built promise signed as a batch of one, the way a payer seals."""
    return seal_promises([promise], sk)[0]


def make_pair(mode: str = MODE_SERIALIZED, scheme: str = SCHEME_A,
              client_deposit: int = 1000, hub_deposit: int = 1000,
              delta: int = 50, window: int = 100,
              channel_id: str = "ch-1", client_id: str = "alice") -> ChannelPair:
    client_sk, client_pk = generate_keypair(scheme, f"{client_id}-seed".encode())
    hub_sk, hub_pk = generate_keypair(scheme, b"hub-seed")
    params = ChannelParams(
        channel_id=channel_id, ledger_id="L1", client_id=client_id, hub_id="hub",
        client_pk=client_pk, hub_pk=hub_pk, scheme=scheme, mode=mode,
        claim_margin_delta=delta, dispute_window=window)
    client = ChannelState(params=params, owner=client_id,
                          my_deposit=client_deposit, peer_deposit=hub_deposit)
    hub = ChannelState(params=params, owner="hub",
                       my_deposit=hub_deposit, peer_deposit=client_deposit)
    return ChannelPair(params, client, hub, client_sk, hub_sk)


def run_payment(pair: ChannelPair, payer: str, amount: int, now: int = 0,
                expiry: int | None = None, rng=None, proposal_id: str = "p-1"):
    """Drive one full payment across the pair; returns the final receipt."""
    from random import Random

    rng = rng or Random(proposal_id)
    payee = pair.params.other_party(payer)
    payer_state, payee_state = pair.state_of(payer), pair.state_of(payee)
    expiry = expiry if expiry is not None else now + 1000
    proposal, _ = payee_state.make_proposal(proposal_id, amount, expiry, now, rng)
    promise = payer_state.make_promise(proposal, pair.key_of(payer), now)
    assert payee_state.verify_promise(promise, now) is None
    payee_state.accept_promise(promise)
    secret = payee_state.reveal_secret(promise.hashlock)
    receipt = payer_state.accept_secret(secret, pair.key_of(payer), now)
    assert payee_state.verify_receipt(receipt) is None
    payee_state.apply_receipt(receipt)
    return receipt
