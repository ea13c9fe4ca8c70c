"""The group G = Z[1/pq] x| Z^2 and its rational group algebra.

Elements are triples (x, m, n) with x in Z[1/pq]; the Z^2 part acts on
the normal subgroup by (m, n): x -> p^m q^n x, so

    (x1, m1, n1) (x2, m2, n2) = (x1 + p^m1 q^n1 x2, m1 + m2, n1 + n2).

Ring parts are computed in integers: both summands are written over one
denominator p^a q^b (a negative power of p or q multiplies the numerator
instead), the numerators are added, and PqRational.canonical brings the
sum to canonical form by gcd steps, so neither p nor q is ever factored.
A group element is its integer row (num, a, b, m, n), x = num / p^a q^b
in canonical form: GroupElement stores that one tuple and builds x on
access.  An element of Q[G] holds integer numerators over one denominator,
as Cyclotomic does, each keyed by its group element's row
(GroupAlgebraElement).  Sums, negation, scaling, star and products work on
those integers alone, and terms hands out the stored rows wrapped as
GroupElements, with no copy and no PqRational.  A product writes the ring parts
of all its pairs over one p^A q^B and runs the gcd steps once per distinct
gcd of a numerator with p^A q^B, not once per term (its __mul__).

For multiplicatively independent p, q every nontrivial conjugacy class
is infinite; icc_witness produces arbitrarily many distinct conjugates
from the two closed-form families used to see that.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .dynamics import SystemParams, str_digit_limit
from .errors import DependentParams, IdentityElement, OutOfRange, ParamsMismatch, check_range
from .exact import PqRational, Record, _den_form, as_fraction

# Most conjugates icc_witness lists.  The k-th conjugate of (x, m, n) with
# x != 0 is (p^k x, m, n), so the listing grows quadratically with count.
MAX_CONJUGATES = 1000


class GroupElement(Record):
    """(x, m, n) in G, stored as its row (num, a, b, m, n) with
    x = num / p^a q^b: elements compare, hash and sort by the row alone,
    and x is a PqRational built on each access."""

    __slots__ = ("row",)

    def __init__(self, x: PqRational, m: int, n: int):
        _set_row(self, (x.num, x.a, x.b, m, n))

    @classmethod
    def identity(cls) -> GroupElement:
        return cls(PqRational(0, 0, 0), 0, 0)

    @property
    def x(self) -> PqRational:
        return PqRational(*self.row[:3])

    m = property(lambda self: self.row[3])
    n = property(lambda self: self.row[4])

    def is_identity(self) -> bool:
        num, _, _, m, n = self.row
        return num == 0 and m == 0 and n == 0


(_set_row,) = GroupElement._setters


def _times_pq(params: SystemParams, num: int, a: int, b: int, m: int, n: int) -> tuple[int, int, int]:
    # (num / p^a q^b) p^m q^n as (num, a, b) meaning num / (p^a q^b) with
    # a, b >= 0, not yet canonical; a negative exponent multiplies num
    # instead of dividing
    a -= m
    b -= n
    if a < 0:
        num *= params.p**-a
        a = 0
    if b < 0:
        num *= params.q**-b
        b = 0
    return num, a, b


def _canonical(params: SystemParams, num: int, a: int, b: int) -> PqRational:
    p, q = params.p, params.q
    return PqRational.canonical(num, p**a * q**b, p, q)


def alpha_apply(params: SystemParams, mn: tuple[int, int], x: PqRational) -> PqRational:
    """The Z^2-action on Z[1/pq]: (m, n) sends x to p^m q^n x."""
    return _canonical(params, *_times_pq(params, x.num, x.a, x.b, *mn))


def group_mul(params: SystemParams, g: GroupElement, h: GroupElement) -> GroupElement:
    # the ring part x1 + p^m1 q^n1 x2, both summands over p^a q^b
    p, q = params.p, params.q
    num1, a1, b1, m1, n1 = g.row
    num2, a2, b2, m2, n2 = h.row
    num2, a2, b2 = _times_pq(params, num2, a2, b2, m1, n1)
    a, b = max(a1, a2), max(b1, b2)
    num = num1 * p ** (a - a1) * q ** (b - b1) + num2 * p ** (a - a2) * q ** (b - b2)
    return GroupElement(_canonical(params, num, a, b), m1 + m2, n1 + n2)


def group_inv(params: SystemParams, g: GroupElement) -> GroupElement:
    num, a, b, m, n = g.row
    return GroupElement(_canonical(params, *_times_pq(params, -num, a, b, -m, -n)), -m, -n)


def icc_witness(params: SystemParams, g: GroupElement, count: int) -> list[GroupElement]:
    """count pairwise distinct conjugates of a nontrivial element.

    For x != 0, conjugating by (0, k, 0) scales the ring part: the
    conjugates are (p^k x, m, n).  For x = 0 and (m, n) != 0,
    conjugating by (k, 0, 0) gives ((1 - p^m q^n) k, m, n); this needs
    p^m q^n != 1, which multiplicative independence guarantees.  The listing
    stops with OutOfRange at the first numerator too long to print, so no
    conjugate is built much past that length.
    """
    check_range("count", count, 0, MAX_CONJUGATES)
    if g.is_identity():
        raise IdentityElement("the identity has a one-element conjugacy class")
    num, _, _, m, n = g.row
    if num:
        def nth(k: int) -> PqRational:
            return alpha_apply(params, (k, 0), g.x)
    else:
        # p^m q^n = top / den, so the factor 1 - p^m q^n is (den - top) / den
        top, ea, eb = _times_pq(params, 1, 0, 0, m, n)
        den = params.p**ea * params.q**eb
        if top == den:
            raise DependentParams(
                f"p^{m} q^{n} = 1: the conjugates by (k, 0, 0) collapse; "
                "this cannot happen for multiplicatively independent p, q"
            )

        def nth(k: int) -> PqRational:
            return PqRational.canonical((den - top) * k, den, params.p, params.q)

    digits, limit = str_digit_limit()
    out = []
    for k in range(1, count + 1):
        x = nth(k)
        if limit and abs(x.num) >= limit:
            raise OutOfRange(
                f"count = {count}: conjugate {k} has a numerator of more than {digits} decimal "
                "digits, the limit for printing an integer (sys.get_int_max_str_digits())"
            )
        out.append(GroupElement(x, m, n))
    return out


class GroupAlgebraElement(Record):
    """Finitely supported rational combination sum c_g u_g in Q[G].

    Stored as integer numerators over one denominator: c_g = k_g / den
    for (row, k_g) in nums, where row = (num, a, b, m, n) is g.row.  nums
    is sorted by row with no zero numerator, and gcd(den, k_g...) = 1 with
    den >= 1, so equal elements compare and hash equal structurally.
    from_terms and unit take GroupElements in by their rows, terms wraps
    the stored rows with Fraction coefficients, and coefficient looks one
    up.  Build through unit / zero / from_terms or the arithmetic
    operators.
    """

    __slots__ = ("params", "den", "nums")

    @classmethod
    def _normalised(cls, params: SystemParams, den: int, nums) -> GroupAlgebraElement:
        # from (row, k) pairs with distinct rows over den >= 1: drop k = 0,
        # sort by row, and divide den and every k by their gcd
        nums = sorted(filter(itemgetter(1), nums), key=itemgetter(0))
        c = gcd(den, *(k for _, k in nums))
        if c > 1:
            den //= c
            nums = [(row, k // c) for row, k in nums]
        return cls(params, den, tuple(nums))

    @classmethod
    def _over(cls, params: SystemParams, A: int, B: int, den: int, nums) -> GroupAlgebraElement:
        # from ((num, m, n), k) pairs over den whose ring parts num / p^A q^B
        # are all over one p^A q^B, so distinct keys are distinct group
        # elements: num / p^A q^B is (num / g) f / p^a q^b with
        # g = gcd(num, p^A q^B) and (f, a, b) the canonical form of
        # 1 / (p^A q^B / g), found once per g
        p, q = params.p, params.q
        D = p**A * q**B
        forms: dict[int, tuple[int, int, int]] = {}
        rows = []
        for (num, m, n), k in nums:
            g = gcd(num, D)
            f, a, b = forms.get(g) or forms.setdefault(g, _den_form(D // g, p, q))
            rows.append(((num // g * f, a, b, m, n), k))
        return cls._normalised(params, den, rows)

    @classmethod
    def from_terms(cls, params: SystemParams, terms) -> GroupAlgebraElement:
        """sum c u_g over (g, c) in terms, with c an int or a Fraction;
        repeated group elements add up."""
        terms = [(g.row, as_fraction(c)) for g, c in terms]
        den = lcm(*(c.denominator for _, c in terms))
        acc: dict[tuple, int] = {}
        for row, c in terms:
            acc[row] = acc.get(row, 0) + c.numerator * (den // c.denominator)
        return cls._normalised(params, den, acc.items())

    @classmethod
    def unit(cls, params: SystemParams, g: GroupElement) -> GroupAlgebraElement:
        return cls(params, 1, ((g.row, 1),))

    @classmethod
    def zero(cls, params: SystemParams) -> GroupAlgebraElement:
        return cls(params, 1, ())

    @property
    def terms(self) -> tuple[tuple[GroupElement, Fraction], ...]:
        """The (g, c_g) pairs in row order, c_g a nonzero Fraction; each g
        wraps its stored row, and terms with one numerator share one
        Fraction."""
        fractions = {k: Fraction(k, self.den) for k in {k for _, k in self.nums}}
        out, new, set_row = [], object.__new__, _set_row
        for row, k in self.nums:
            g = new(GroupElement)
            set_row(g, row)
            out.append((g, fractions[k]))
        return tuple(out)

    def coefficient(self, g: GroupElement) -> Fraction:
        nums, row = self.nums, g.row
        i = bisect_left(nums, (row,))  # (row,) sorts before (row, k)
        if i < len(nums) and nums[i][0] == row:
            return Fraction(nums[i][1], self.den)
        return Fraction(0)

    def support_size(self) -> int:
        return len(self.nums)

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
        den = lcm(self.den, other.den)
        acc = {row: k * (den // self.den) for row, k in self.nums}
        for row, k in other.nums:
            acc[row] = acc.get(row, 0) + k * (den // other.den)
        return self._normalised(self.params, den, acc.items())

    def __neg__(self) -> GroupAlgebraElement:
        return GroupAlgebraElement(self.params, self.den, tuple((row, -k) for row, k in self.nums))

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
        params, left, right = self.params, self.nums, other.nums
        if not (left and right):
            return self.zero(params)
        p, q = params.p, params.q
        # Every ring part x1 + p^m1 q^n1 x2 goes over one p^A q^B:
        # x1 = n1 / p^a1 q^b1 and p^m1 q^n1 x2 = n2 p^(m1 - a2) q^(n1 - b2)
        # need A >= a1 and A >= a2 - m1 for every pair, and likewise B.
        a2 = max(row[1] for row, _ in right)
        b2 = max(row[2] for row, _ in right)
        A = max(max(row[1] for row, _ in left), a2 - min(row[3] for row, _ in left), 0)
        B = max(max(row[2] for row, _ in left), b2 - min(row[4] for row, _ in left), 0)
        # the right numerators over p^a2 q^b2 with the largest a2, b2 there;
        # per left term, its numerator over p^A q^B and the factor that
        # lifts the right ones there
        right = [(num * p ** (a2 - a) * q ** (b2 - b), m, n, k) for (num, a, b, m, n), k in right]
        acc: dict[tuple[int, int, int], int] = {}
        for (num1, a1, b1, m1, n1), k1 in left:
            num1 *= p ** (A - a1) * q ** (B - b1)
            lift = p ** (A - a2 + m1) * q ** (B - b2 + n1)
            for num2, m2, n2, k2 in right:
                key = (num1 + lift * num2, m1 + m2, n1 + n2)
                acc[key] = acc.get(key, 0) + k1 * k2
        return self._over(params, A, B, self.den * other.den, acc.items())

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c) -> GroupAlgebraElement:
        """c times self, for c an int or a Fraction."""
        c = as_fraction(c)
        return self._normalised(
            self.params, self.den * c.denominator, ((row, k * c.numerator) for row, k in self.nums)
        )

    def star(self) -> GroupAlgebraElement:
        """The adjoint: sum conj(c_g) u_(g^-1); rational conjugation is trivial.
        g -> g^-1 is injective, so no terms merge and den stays."""
        # group_inv on each row: g^-1 = (-p^-m q^-n x, -m, -n), whose ring
        # part -num / p^(a + m) q^(b + n) goes over one p^A q^B
        p, q, nums = self.params.p, self.params.q, self.nums
        A = max([a + m for (_, a, _, m, _), _ in nums] + [0])
        B = max([b + n for (_, _, b, _, n), _ in nums] + [0])
        inverses = (((-num * p ** (A - a - m) * q ** (B - b - n), -m, -n), k) for (num, a, b, m, n), k in nums)
        return self._over(self.params, A, B, self.den, inverses)
