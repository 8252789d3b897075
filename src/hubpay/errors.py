"""Error types shared across the package.

Every error carries a stable ``code`` string that is used verbatim in wire
ERROR frames and in simulation traces, so tests can match on it.
"""

from __future__ import annotations


class HubpayError(Exception):
    """Base class; ``code`` defaults to the class name."""

    code = "HubpayError"

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(f"{self.code}: {detail}" if detail else self.code)


# codec / crypto

class EncodingError(HubpayError):
    code = "EncodingError"


class SchemeError(HubpayError):
    code = "SchemeError"


# channel state machine

class InvalidAmount(HubpayError):
    code = "InvalidAmount"


class ExpiredProposal(HubpayError):
    code = "ExpiredProposal"


class InsufficientCapacity(HubpayError):
    code = "InsufficientCapacity"


class ChannelBusy(HubpayError):
    code = "ChannelBusy"


class UnknownPromise(HubpayError):
    code = "UnknownPromise"


class BadPreimage(HubpayError):
    code = "BadPreimage"


class Expired(HubpayError):
    code = "Expired"


# ledger / contract

class AlreadyExists(HubpayError):
    code = "AlreadyExists"


class InsufficientFunds(HubpayError):
    code = "InsufficientFunds"


class BadStatus(HubpayError):
    code = "BadStatus"


class BadSignature(HubpayError):
    code = "BadSignature"


class AlreadyClaimed(HubpayError):
    code = "AlreadyClaimed"


class ProofRequired(HubpayError):
    code = "ProofRequired"


class ConservationViolation(HubpayError):
    code = "ConservationViolation"


class WindowClosed(HubpayError):
    code = "WindowClosed"


class StaleReceipt(HubpayError):
    code = "StaleReceipt"


class WindowOpen(HubpayError):
    code = "WindowOpen"


class NotFound(HubpayError):
    code = "NotFound"


# hub / client

class AlreadyRegistered(HubpayError):
    code = "AlreadyRegistered"


class NoRoute(HubpayError):
    code = "NoRoute"


class HubLiquidityExhausted(HubpayError):
    code = "HubLiquidityExhausted"


class ExpiryTooSoon(HubpayError):
    code = "ExpiryTooSoon"


class ParamsMismatch(HubpayError):
    code = "ParamsMismatch"


class RecoveryError(HubpayError):
    code = "RecoveryError"


# simnet

class ScenarioError(HubpayError):
    code = "ScenarioError"


# What decoding a malformed wire body raises: a missing key or index, a
# wrong type, a bad number or hex string, a number too large to convert.
# The hub and its daemon answer a body that raises one of these with an
# EncodingError.
DECODE_ERRORS = (KeyError, IndexError, TypeError, ValueError, AttributeError,
                 OverflowError)


# Reject reasons returned (not raised) by the verify_* operations.
REJECT_BAD_SIGNATURE = "BadSignature"
REJECT_INSUFFICIENT_CAPACITY = "InsufficientCapacity"
REJECT_EXPIRY_TOO_SOON = "ExpiryTooSoon"
REJECT_STALE_INDEX = "StaleIndex"
REJECT_DUPLICATE_HASHLOCK = "DuplicateHashlock"
REJECT_CREDIT_MISMATCH = "CreditMismatch"
REJECT_BAD_PENDING_ROOT = "BadPendingRoot"
