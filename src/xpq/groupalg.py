"""The group G = Z[1/pq] x| Z^2 and its rational group algebra.

Elements are triples (x, m, n) with x in Z[1/pq]; the Z^2 part acts on
the normal subgroup by (m, n): x -> p^m q^n x, so

    (x1, m1, n1) (x2, m2, n2) = (x1 + p^m1 q^n1 x2, m1 + m2, n1 + n2).

For multiplicatively independent p, q every nontrivial conjugacy class
is infinite; icc_witness produces arbitrarily many distinct conjugates
from the two closed-form families used to see that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dynamics import SystemParams
from .errors import DependentParams, IdentityElement, OutOfRange, ParamsMismatch
from .exact import PqRational


@dataclass(frozen=True, slots=True)
class GroupElement:
    x: PqRational
    m: int
    n: int

    @classmethod
    def identity(cls) -> GroupElement:
        return cls(PqRational(0, 0, 0), 0, 0)

    def is_identity(self) -> bool:
        return self.x.is_zero() and self.m == 0 and self.n == 0

    def sort_key(self):
        return (self.x.num, self.x.a, self.x.b, self.m, self.n)


def alpha_apply(params: SystemParams, mn: tuple[int, int], x: PqRational) -> PqRational:
    """The Z^2-action on Z[1/pq]: (m, n) sends x to p^m q^n x."""
    m, n = mn
    v = x.to_fraction(params.p, params.q)
    v *= Fraction(params.p) ** m * Fraction(params.q) ** n
    return PqRational.from_fraction(v, params.p, params.q)


def group_mul(params: SystemParams, g: GroupElement, h: GroupElement) -> GroupElement:
    xf = g.x.to_fraction(params.p, params.q)
    xf += h.x.to_fraction(params.p, params.q) * (
        Fraction(params.p) ** g.m * Fraction(params.q) ** g.n
    )
    return GroupElement(
        PqRational.from_fraction(xf, params.p, params.q), g.m + h.m, g.n + h.n
    )


def group_inv(params: SystemParams, g: GroupElement) -> GroupElement:
    xf = -g.x.to_fraction(params.p, params.q)
    xf *= Fraction(params.p) ** -g.m * Fraction(params.q) ** -g.n
    return GroupElement(PqRational.from_fraction(xf, params.p, params.q), -g.m, -g.n)


def conjugated(params: SystemParams, h: GroupElement, g: GroupElement) -> GroupElement:
    """h g h^(-1)."""
    return group_mul(params, group_mul(params, h, g), group_inv(params, h))


def icc_witness(params: SystemParams, g: GroupElement, count: int) -> list[GroupElement]:
    """count pairwise distinct conjugates of a nontrivial element.

    For x != 0, conjugating by (0, k, 0) scales the ring part: the
    conjugates are (p^k x, m, n).  For x = 0 and (m, n) != 0,
    conjugating by (k, 0, 0) gives ((1 - p^m q^n) k, m, n); this needs
    p^m q^n != 1, which multiplicative independence guarantees.
    """
    if count < 0:
        raise OutOfRange(f"count {count} out of range; expected count >= 0")
    if g.is_identity():
        raise IdentityElement("the identity has a one-element conjugacy class")
    out = []
    if not g.x.is_zero():
        for k in range(1, count + 1):
            out.append(GroupElement(alpha_apply(params, (k, 0), g.x), g.m, g.n))
        return out
    factor = 1 - Fraction(params.p) ** g.m * Fraction(params.q) ** g.n
    if factor == 0:
        raise DependentParams(
            f"p^{g.m} q^{g.n} = 1: the conjugates by (k, 0, 0) collapse; "
            "this cannot happen for multiplicatively independent p, q"
        )
    for k in range(1, count + 1):
        out.append(
            GroupElement(
                PqRational.from_fraction(factor * k, params.p, params.q), g.m, g.n
            )
        )
    return out


@dataclass(frozen=True, slots=True)
class GroupAlgebraElement:
    """Finitely supported rational combination sum c_g u_g in Q[G].

    terms is kept sorted with nonzero coefficients, so equal elements
    compare equal structurally.  Build through unit / from_terms or the
    arithmetic operators.
    """

    params: SystemParams
    terms: tuple[tuple[GroupElement, Fraction], ...]

    @classmethod
    def from_terms(cls, params: SystemParams, terms) -> GroupAlgebraElement:
        acc: dict[GroupElement, Fraction] = {}
        for g, c in terms:
            c = Fraction(c)
            if c:
                s = acc.get(g, Fraction(0)) + c
                if s:
                    acc[g] = s
                else:
                    acc.pop(g, None)
        ordered = tuple(sorted(acc.items(), key=lambda t: t[0].sort_key()))
        return cls(params, ordered)

    @classmethod
    def unit(cls, params: SystemParams, g: GroupElement) -> GroupAlgebraElement:
        return cls(params, ((g, Fraction(1)),))

    @classmethod
    def zero(cls, params: SystemParams) -> GroupAlgebraElement:
        return cls(params, ())

    def coefficient(self, g: GroupElement) -> Fraction:
        for h, c in self.terms:
            if h == g:
                return c
        return Fraction(0)

    def support_size(self) -> int:
        return len(self.terms)

    def _check_params(self, other: GroupAlgebraElement) -> None:
        if self.params != other.params:
            raise ParamsMismatch(
                f"cannot combine elements over ({self.params.p}, {self.params.q}) "
                f"and ({other.params.p}, {other.params.q})"
            )

    def __add__(self, other: GroupAlgebraElement) -> GroupAlgebraElement:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_params(other)
        return self.from_terms(self.params, list(self.terms) + list(other.terms))

    def __neg__(self) -> GroupAlgebraElement:
        return GroupAlgebraElement(self.params, tuple((g, -c) for g, c in self.terms))

    def __sub__(self, other: GroupAlgebraElement) -> GroupAlgebraElement:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_params(other)
        acc: dict[GroupElement, Fraction] = {}
        for g1, c1 in self.terms:
            for g2, c2 in other.terms:
                g = group_mul(self.params, g1, g2)
                s = acc.get(g, Fraction(0)) + c1 * c2
                if s:
                    acc[g] = s
                else:
                    acc.pop(g, None)
        return self.from_terms(self.params, acc.items())

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c) -> GroupAlgebraElement:
        c = Fraction(c)
        if not c:
            return self.zero(self.params)
        return GroupAlgebraElement(self.params, tuple((g, k * c) for g, k in self.terms))

    def star(self) -> GroupAlgebraElement:
        """The adjoint: sum conj(c_g) u_(g^-1); rational conjugation is trivial."""
        return self.from_terms(
            self.params, ((group_inv(self.params, g), c) for g, c in self.terms)
        )
