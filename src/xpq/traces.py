"""Extreme tracial states of the group algebra, evaluated exactly.

Three families are representable:

* ``FiniteOrbitTrace(orbit, chi)``: supported on a finite orbit B with
  stabilizer lattice L and a character chi of L.  On a unitary
  u_(y, m, n) the value is 0 unless (m, n) lies in L, and otherwise

      chi(m, n) * (1/|B|) * sum over z in B of e^(2 pi i <z, y>),

  where <a/r, y> pairs a solenoid point with a ring element through the
  inverse of p^alpha q^beta mod r.  Values live in Q(zeta_lcm(r, k)) for
  chi of level k, so everything stays exact (see trace_eval).

* ``CanonicalTrace(params)``: u_e -> 1 and u_g -> 0 for g != e; this is
  the trace of the left regular representation.

* ``OrbitMeasureTrace(orbit)``: integration against the uniform measure
  on a finite orbit; kills every unitary with (m, n) != (0, 0).

Characters here carry rational coordinates (t1, t2) in the Hermite basis
of the lattice; irrational characters exist mathematically but are not
representable in exact arithmetic, which is why "all representable
specs" below always means rational character data.

The finite-orbit and orbit-measure traces are never faithful
(nonfaithful_witness).  Whether the canonical trace is the unique
faithful extreme trace overall is equivalent to the times-p, times-q
measure rigidity conjecture of Furstenberg; among the traces
representable here it is the only faithful one, and the acceptance
suite checks exactly that.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd, lcm
from operator import add, mul

from .dynamics import Character, OrbitData, SystemParams
from .errors import OutOfRange, ParamsMismatch, RangeTooSmall, check_range, int_text
from .exact import Cyclotomic, PqRational, QmodZ, Record, check_level, euler_phi, factorize, twisted_level
from .groupalg import GroupAlgebraElement, GroupElement

# Largest n_max moments accepts.
MAX_MOMENT_RANGE = 1000
# Most coefficients a moment sequence may write.  Its JSON lists 2 n_max + 1
# values with phi(r) coefficients each, r the orbit denominator (1 for the
# canonical trace), so the limit caps the time and the written JSON: at
# r = 10007 and n_max = 1000 that would be 2 * 10^7 coefficients and 150 MB.
# The limit admits n_max = 49 at r = 10007; moments states what memory holds.
MAX_MOMENT_COEFFICIENTS = 10**6


class FiniteOrbitTrace(Record):
    __slots__ = ("orbit", "chi")

    def __init__(self, orbit: OrbitData, chi: Character):
        orbit.require_character(chi)
        super().__init__(orbit, chi)

    @property
    def params(self) -> SystemParams:
        return self.orbit.params


class CanonicalTrace(Record):
    __slots__ = ("params",)


class OrbitMeasureTrace(Record):
    __slots__ = ("orbit",)

    @property
    def params(self) -> SystemParams:
        return self.orbit.params


TraceSpec = FiniteOrbitTrace | CanonicalTrace | OrbitMeasureTrace


def _pair_mult(params: SystemParams, r: int, num: int, a: int, b: int) -> int:
    # the factor w with <z/r, y> = z*w/r for y = num / p^a q^b; r is coprime
    # to pq by contract
    base = pow(params.p, a, r) * pow(params.q, b, r) % r
    return num * pow(base, -1, r) % r


def _orbit_mean(orbit: OrbitData, w: int) -> Cyclotomic:
    """(1/|B|) sum over the numerators a of zeta_r^(w a), exact at level r.

    This is a Gaussian period, so it depends only on the <p, q>-orbit of w
    in Z/r (Gauss, Disquisitiones art. 343 ff.): with g = gcd(w, r) and
    s = r / g, w <p, q> is g times a coset of <p, q> in the units mod s.
    The period of w is the least positive member of that orbit (r for
    w = 0); _periods computes it, and equal periods give equal means.
    When the orbit is every unit mod r the mean is the Ramanujan sum
    c_r(w) / phi(r) = mu(s) / phi(s) (Ramanujan, Trans. Cambridge Phil.
    Soc. 22, 1918); any other orbit is summed point by point.
    """
    r = orbit.denominator
    check_level(r)
    if orbit.size == euler_phi(r):
        s = r // gcd(w, r)
        pairs = factorize(s)
        mu = 0 if any(e > 1 for _, e in pairs) else (-1) ** len(pairs)
        return Cyclotomic(r, [mu], euler_phi(s))
    counts = [0] * r
    for a in orbit.numerators:
        counts[w * a % r] += 1
    return Cyclotomic(r, counts, orbit.size)


def _periods(orbit: OrbitData) -> Callable[[int], int]:
    # w -> its period (see _orbit_mean) for 0 <= w < r.  For an orbit of
    # every unit that is gcd(w, r).  Else the orbit of w is w H, H = <p, q>
    # mod r being the numerators over the first one; each orbit met is
    # labelled with its least member once, in a table that lives as long as
    # the function: O(|B|) per orbit met, at most phi(r) for the orbits of
    # one gcd(w, r).  Nothing of size r is built, so the level is not checked.
    r = orbit.denominator
    if orbit.size == euler_phi(r):
        return partial(gcd, r)
    least: dict[int, int] = {}
    inv = pow(orbit.numerators[0], -1, r)

    def period(w: int) -> int:
        low = least.get(w)
        if low is None:
            x = w * inv % r
            members = {x * a % r for a in orbit.numerators}
            low = min(members) or r  # the orbit {0} is labelled r
            least.update(dict.fromkeys(members, low))
        return low

    return period


def _mean_sum(orbit: OrbitData, K: int, sums: dict[tuple[int, int], int], den: int) -> Cyclotomic:
    """The sum over keys (w, e) of (k / den) zeta_K^e times the mean at w
    (_orbit_mean), as one integer vector at the lcm L of the levels the
    summands have alone, zero sums included: r untwisted, and
    exact.twisted_level for a twist.  No keys give 0 at level 1.

    Keys of equal (period, e) add their k first.  Each period's mean is
    built at most once per call, only for a key whose k is not 0 or whose
    twist needs the mean's rationality for its level, and none is kept
    across calls.  Each summand keeps its mean's den and trimmed vec only, so
    memory does not grow as keys x phi(r).
    """
    r = orbit.denominator
    period, keyed = _periods(orbit), {}
    for (w, e), k in sums.items():
        key = (period(w), e)
        keyed[key] = keyed.get(key, 0) + k
    means: dict[int, Cyclotomic] = {}
    parts, D, L = [], 1, 1
    for (w, e), k in keyed.items():
        d = K // gcd(e, K)  # the order of the twist e/K
        if k or d > 1:  # else the level is r and nothing is added
            mean = means.get(w)
            if mean is None:
                mean = means[w] = _orbit_mean(orbit, w)
        check_level(d)
        level = r if d == 1 else twisted_level(d, mean)
        check_level(level)
        L = lcm(L, level)  # in the order the summands would be added
        check_level(L)
        if k and mean.vec:  # a zero sum or a zero mean adds nothing
            parts.append((mean.den, mean.vec, e, d, k))
            D = lcm(D, mean.den)
    # zeta_r^i is zeta_L^(i step + shift) for the twist zeta_L^shift; a
    # rational mean has only i = 0, even when r does not divide L.  The twist
    # -1 is a sign, as L may be odd.  The indices rise with i until they reach
    # L at i = top and wrap once, so each vec is added by two strided slices;
    # acc grows to the largest index written, so rational sums stay short.
    step = max(L // r, 1)
    acc = []
    for mean_den, vec, e, d, k in parts:
        c = k * (D // mean_den) * (-1 if d == 2 else 1)
        shift = e * L // K if d > 2 else 0
        acc += [0] * (min(L, (len(vec) - 1) * step + shift + 1) - len(acc))
        top = (L - shift + step - 1) // step
        for s, part in ((shift, vec[:top]), (top * step + shift - L, vec[top:])):
            t = s + len(part) * step
            acc[s:t:step] = map(add, acc[s:t:step], map(mul, part, repeat(c)))
    return Cyclotomic(L, acc, D * den)


def trace_eval(spec: TraceSpec, a: GroupAlgebraElement) -> Cyclotomic:
    """Evaluate the trace on an algebra element, exactly.

    Terms with equal pairing factor w and twist chi(m, n) = e/K mod 1
    (K the lcm of the character's denominators) add their numerators into
    one key (w, e), and _mean_sum adds up the keys' orbit means.  The
    result's level divides lcm(r, character level), r the orbit denominator.
    """
    params = spec.params
    if params != a.params:
        raise ParamsMismatch(
            f"trace over ({params.p}, {params.q}) applied to an element over "
            f"({a.params.p}, {a.params.q})"
        )
    if isinstance(spec, CanonicalTrace):
        return Cyclotomic.from_fraction(a.coefficient(GroupElement.identity()))
    orbit = spec.orbit
    r = orbit.denominator
    finite = isinstance(spec, FiniteOrbitTrace)
    K, e1, e2 = 1, 0, 0  # the orbit measure is untwisted
    if finite:
        t1, t2 = spec.chi.t1, spec.chi.t2
        K = lcm(t1.den, t2.den)
        e1, e2 = t1.num * (K // t1.den), t2.num * (K // t2.den)
        (ba, bb), (_, bc) = orbit.stabilizer.basis
    factors: dict[tuple[int, int], int] = {}  # (a, b) -> _pair_mult of 1 / p^a q^b
    sums: dict[tuple[int, int], int] = {}
    for (num, ya, yb, m, n), k in a.nums:
        if finite:  # the coordinates of (m, n), as StabilizerLattice.coords
            if m % ba:
                continue
            c1 = m // ba
            rest = n - c1 * bb
            if rest % bc:
                continue
            e = (e1 * c1 + e2 * (rest // bc)) % K
        elif m or n:
            continue
        else:
            e = 0
        f = factors.get((ya, yb))
        if f is None:
            f = factors[ya, yb] = _pair_mult(params, r, 1, ya, yb)
        key = (num * f % r, e)
        sums[key] = sums.get(key, 0) + k
    return _mean_sum(orbit, K, sums, a.den)


class MomentSequence(Record):
    """Exact moment data value(n) = tau(u_(n,0,0)) for |n| <= n_max.

    For an orbit trace these are the moments of the invariant measure
    behind it: value(n) = integral of z^n.  Always value(0) = 1 and
    value(-n) = conj(value(n)).
    """

    __slots__ = ("spec", "n_max", "values")

    def value(self, n: int) -> Cyclotomic:
        check_range("n", n, -self.n_max, self.n_max)
        return self.values[n + self.n_max]

    def items(self):
        return ((i - self.n_max, v) for i, v in enumerate(self.values))


def moments(spec: TraceSpec, n_max: int) -> MomentSequence:
    """The moments tau(u_(n,0,0)) for |n| <= n_max, read without building
    the units.  A unit with (m, n) = (0, 0) has character value 1 and pairing
    factor n mod r, so an orbit trace gives the orbit mean at n mod r, as
    trace_eval does on that unit, and values of equal period (see
    _orbit_mean) are one shared Cyclotomic, so memory holds one value per
    distinct period; the canonical trace gives 1 at n = 0 and 0 elsewhere.  Both limits, MAX_MOMENT_RANGE and
    MAX_MOMENT_COEFFICIENTS, are checked before any value is computed.
    """
    check_range("n_max", n_max, 0, MAX_MOMENT_RANGE)
    r = 1 if isinstance(spec, CanonicalTrace) else spec.orbit.denominator
    check_level(r)
    if (size := (2 * n_max + 1) * euler_phi(r)) > MAX_MOMENT_COEFFICIENTS:
        raise OutOfRange(
            f"n_max = {n_max} at r = {r} asks for (2 n_max + 1) phi(r) = {size} coefficients; "
            f"the limit is {MAX_MOMENT_COEFFICIENTS}"
        )
    indices = range(-n_max, n_max + 1)
    if isinstance(spec, CanonicalTrace):
        vals = [Cyclotomic.from_fraction(int(n == 0)) for n in indices]
    else:
        period = _periods(spec.orbit)
        keys = [period(n % r) for n in indices]
        means = {w: _orbit_mean(spec.orbit, w) for w in set(keys)}
        vals = [means[w] for w in keys]
    return MomentSequence(spec, n_max, tuple(vals))


def check_pq_invariance(seq: MomentSequence, params: SystemParams) -> bool:
    """Whether the moment data is invariant under both multiplication maps:
    value(p n) = value(n) = value(q n) whenever both indices are in range.

    Raises RangeTooSmall when the range cannot exercise a single nonzero
    index, which would make the check vacuous.
    """
    if seq.n_max < max(params.p, params.q):
        raise RangeTooSmall(
            f"range {seq.n_max} cannot test invariance for p = {int_text(params.p)}, q = {int_text(params.q)}"
        )
    for n in range(-seq.n_max, seq.n_max + 1):
        for k in (params.p, params.q):
            if abs(k * n) <= seq.n_max and seq.value(k * n) != seq.value(n):
                return False
    return True


def average_over_character_level(orbit: OrbitData, k: int, a: GroupAlgebraElement) -> Cyclotomic:
    """Average the finite-orbit traces over the full level-k character grid:
    (1/k^2) * sum of trace values over (t1, t2) in {0, 1/k, ..., (k-1)/k}^2.

    The grid sums collapse character values to divisibility indicators,
    so the average equals the trace that keeps exactly the unitaries
    whose (m, n) lies in k * L and agrees there with the trivial-character
    trace.  The function computes the average honestly; the collapse is a
    theorem the tests verify.
    """
    check_range("k", k, 1)
    total = Cyclotomic.zero()
    for i in range(k):
        for j in range(k):
            chi = Character(orbit.stabilizer, QmodZ(i, k), QmodZ(j, k))
            total = total + trace_eval(FiniteOrbitTrace(orbit, chi), a)
    return total.scaled(Fraction(1, k * k))


def nonfaithful_witness(orbit: OrbitData) -> GroupAlgebraElement:
    """A nonzero element a with tau(a* a) = 0 for every trace carried by
    the orbit: a = u_(r, 0, 0) - u_e, r the orbit denominator.

    The pairing <z, r> vanishes for every z in the orbit, so u_(r,0,0)
    evaluates like u_e under the orbit's traces; the canonical trace
    gives tau(a* a) = 2 on the same element.
    """
    params = orbit.params
    u_r = GroupAlgebraElement.unit(
        params, GroupElement(PqRational(orbit.denominator, 0, 0), 0, 0)
    )
    u_e = GroupAlgebraElement.unit(params, GroupElement.identity())
    return u_r - u_e
