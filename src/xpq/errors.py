"""Domain errors shared by every module in the package.

All of these derive from XpqError so callers (and the CLI) can tell a
mathematical domain violation apart from a programming mistake.
check_range is the one wording of a range refusal.
"""


class XpqError(Exception):
    """Base class for domain errors raised by this package."""


class NonInvertible(XpqError):
    """A multiplicative inverse was requested modulo a non-coprime modulus."""


class OutOfRange(XpqError):
    """A numeric argument lies outside the documented domain (e.g. p < 2)."""


class NotCoprime(XpqError):
    """A denominator shares a factor with p*q where coprimality is required."""


class IdentityElement(XpqError):
    """The operation is undefined for (an element acting as) the identity."""


class DependentParams(XpqError):
    """p and q are multiplicatively dependent where independence is required."""


class ParamsMismatch(XpqError):
    """Two objects built over different (p, q) systems were combined."""


class RangeTooSmall(XpqError):
    """A sequence is too short for the requested consistency check."""


class IncompatibleMap(XpqError):
    """A matrix does not define a homomorphism between the given groups."""


class FactorizationTooHard(XpqError):
    """An integer resisted trial division and is too large for Pollard rho."""


def int_text(n: int) -> str:
    """n in decimal, or "about 2^k" ("about -2^k" for n < 0) from 4096 bits
    on, where str() may refuse it."""
    return str(n) if n.bit_length() < 4096 else f"about {'-' * (n < 0)}2^{n.bit_length() - 1}"


def check_range(name: str, value: int, lo: int, hi: int | None = None) -> None:
    """Refuse value outside lo <= value <= hi (no upper bound when hi is
    None) with OutOfRange naming the field, its value and the bounds."""
    if value < lo or hi is not None and value > hi:
        upper = "" if hi is None else f" <= {hi}"
        raise OutOfRange(f"{name} = {int_text(value)} out of range; expected {lo} <= {name}{upper}")
