"""Domain errors shared by every module in the package.

All of these derive from XpqError so callers (and the CLI) can tell a
mathematical domain violation apart from a programming mistake.
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
