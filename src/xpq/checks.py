"""Self-contained property suites behind the `check` CLI command.

Each suite re-verifies a slice of the library against brute force or
against algebraic laws, using only the standard library, a seeded RNG,
and configurable bounds.  They are smoke tests for an installed copy,
not a replacement for the test suite; every suite is deterministic for
a fixed seed.  A suite yields one (ok, label) verdict per property it
tests, and run_checks tallies each suite's verdicts into a CheckResult.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import attrgetter

from .dynamics import (
    MAX_ORBIT_DENOMINATOR,
    Character,
    SolenoidPoint,
    SystemParams,
    beta_apply,
    census,
    enumerate_minimal_sets,
    fixed_points,
    lift_sequence,
)
from .errors import check_range
from .exact import (
    Cyclotomic,
    PqRational,
    QmodZ,
    Record,
    multiplicative_order,
    root_of_unity,
)
from .groupalg import GroupAlgebraElement, GroupElement, group_inv, group_mul, icc_witness
from .ktheory import k_theory_of_group, mult_map_ker_coker, smith_normal_form
from .primspace import (
    ALL,
    ESCAPING,
    INFINITY,
    OrbitCharPoint,
    SequenceDesc,
    closed_intersection,
    closed_union,
    closure,
    limit_set,
    specializes,
)
from .traces import (
    CanonicalTrace,
    FiniteOrbitTrace,
    OrbitMeasureTrace,
    check_pq_invariance,
    moments,
    nonfaithful_witness,
    trace_eval,
)

_TOL = 1e-9

# Most trials run_checks runs per suite; `check all --trials 1000` takes about
# a second.
MAX_TRIALS = 1000


class CheckResult(Record):
    """One suite's tally: the verdicts that passed, those that failed, and
    the labels of the first 20 failures, in the order the suite gave them."""

    __slots__ = ("suite", "passed", "failed", "failures")

    @property
    def ok(self) -> bool:
        return self.failed == 0


Verdicts = Iterator[tuple[bool, str]]


def _random_qmodz(rng: random.Random) -> QmodZ:
    den = rng.randint(1, 60)
    return QmodZ(rng.randint(-60, 60), den)


def _random_group_element(rng: random.Random, params: SystemParams) -> GroupElement:
    x = PqRational.from_fraction(
        Fraction(rng.randint(-20, 20), params.p ** rng.randint(0, 2) * params.q ** rng.randint(0, 2)),
        params.p,
        params.q,
    )
    return GroupElement(x, rng.randint(-3, 3), rng.randint(-3, 3))


def _random_algebra_element(rng: random.Random, params: SystemParams) -> GroupAlgebraElement:
    terms = [
        (_random_group_element(rng, params), Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 3))
    ]
    return GroupAlgebraElement.from_terms(params, terms)


def _coprime_denominators(params: SystemParams, bound: int):
    return [r for r in range(1, bound + 1) if gcd(r, params.pq) == 1]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _check_exact(params: SystemParams, rng: random.Random, bound: int, trials: int) -> Verdicts:
    for _ in range(trials):
        x, y, z = (_random_qmodz(rng) for _ in range(3))
        yield (x + y) + z == x + (y + z), f"assoc {x} {y} {z}"
        yield x + (-x) == QmodZ(0, 1), f"inverse {x}"
        yield x + y == y + x, f"comm {x} {y}"
    for _ in range(trials):
        f = Fraction(rng.randint(-50, 50), params.p ** rng.randint(0, 3) * params.q ** rng.randint(0, 3))
        back = PqRational.from_fraction(f, params.p, params.q).to_fraction(params.p, params.q)
        yield back == f, f"round-trip {f}"
    for r in _coprime_denominators(params, min(bound, 40)):
        if r == 1:
            continue
        for base in (params.p, params.q):
            d = multiplicative_order(base, r)
            naive, acc = 1, base % r
            while acc != 1:
                acc = acc * base % r
                naive += 1
            yield d == naive, f"order({base}, {r})"
    for _ in range(trials):
        t = _random_qmodz(rng)
        yield root_of_unity(t) ** t.den == Cyclotomic.one(), f"zeta^den {t}"


def _check_dynamics(params: SystemParams, rng: random.Random, bound: int, trials: int) -> Verdicts:
    for r, orbits in groupby(census(params, bound)[1], key=attrgetter("denominator")):
        seen: set[int] = set()
        for orbit in orbits:
            s = set(orbit.numerators)
            yield orbit.size == orbit.stabilizer.index, f"size mod {r}"
            yield ({a * params.p % r for a in s} == s and {a * params.q % r for a in s} == s,
                   f"invariance mod {r}")
            yield seen.isdisjoint(orbit.numerators), f"disjoint mod {r}"
            seen.update(orbit.numerators)
        want = {a for a in range(r) if gcd(a, r) == 1} if r > 1 else {0}
        yield seen == want, f"cover mod {r}"
    denominators = _coprime_denominators(params, bound)
    for _ in range(trials):
        r = rng.choice(denominators)
        x = SolenoidPoint(QmodZ(rng.randrange(r), r))
        g1 = (rng.randint(-4, 4), rng.randint(-4, 4))
        g2 = (rng.randint(-4, 4), rng.randint(-4, 4))
        lhs = beta_apply(params, (g1[0] + g2[0], g1[1] + g2[1]), x)
        rhs = beta_apply(params, g1, beta_apply(params, g2, x))
        yield lhs == rhs, f"action law {g1} {g2} {x}"
        lifted = lift_sequence(params, x, 3)
        yield (
            all(b.coord.mul_int(params.pq) == a.coord for a, b in zip(lifted, lifted[1:])),
            f"lift {x}",
        )
    for mn in ((1, 1), (2, 1), (1, 2)):
        fix = fixed_points(params, mn, max_denominator=bound)
        yield (
            all(beta_apply(params, mn, pt) == pt for pt in fix.sample),
            f"fixed points {mn}",
        )


def _check_groupalg(params: SystemParams, rng: random.Random, bound: int, trials: int) -> Verdicts:
    for _ in range(trials):
        g, h, k = (_random_group_element(rng, params) for _ in range(3))
        yield (
            group_mul(params, group_mul(params, g, h), k)
            == group_mul(params, g, group_mul(params, h, k)),
            "assoc",
        )
        yield group_mul(params, g, group_inv(params, g)).is_identity(), "inverse"
    if params.mult_indep:
        for _ in range(trials):
            g = _random_group_element(rng, params)
            if g.is_identity():
                continue
            found = icc_witness(params, g, 6)
            yield len(set(found)) == 6, f"icc {g}"
    for _ in range(trials):
        a = _random_algebra_element(rng, params)
        b = _random_algebra_element(rng, params)
        c = _random_algebra_element(rng, params)
        yield a * (b + c) == a * b + a * c, "distributive"
        yield (a * b).star() == b.star() * a.star(), "star anti-multiplicative"


def _check_traces(params: SystemParams, rng: random.Random, bound: int, trials: int) -> Verdicts:
    orbits = enumerate_minimal_sets(params, min(bound, 15))
    unit = GroupAlgebraElement.unit(params, GroupElement.identity())
    specs = [CanonicalTrace(params)]
    for orbit in orbits:
        specs.append(OrbitMeasureTrace(orbit))
        lat = orbit.stabilizer
        specs.append(FiniteOrbitTrace(orbit, Character(lat, QmodZ(1, 4), QmodZ(0, 1))))
    for spec in specs:
        yield trace_eval(spec, unit) == Cyclotomic.one(), "normalization"
        for _ in range(max(1, trials // 4)):
            a = _random_algebra_element(rng, params)
            v = trace_eval(spec, a.star() * a).approx()
            yield v.real >= -_TOL and abs(v.imag) <= _TOL, "positivity"
            yield trace_eval(spec, a.star()) == trace_eval(spec, a).conj(), "hermitian"
        seq = moments(spec, max(params.p, params.q) + 2)
        yield check_pq_invariance(seq, params), "moment invariance"
    for orbit in orbits:
        if orbit.denominator == 1:
            continue
        w = nonfaithful_witness(orbit)
        spec = OrbitMeasureTrace(orbit)
        yield trace_eval(spec, w.star() * w).is_zero(), f"witness mod {orbit.denominator}"
        canon = trace_eval(CanonicalTrace(params), w.star() * w)
        yield canon == Cyclotomic.from_fraction(2), "witness canonical"


def _int_det(matrix) -> int:
    # Bareiss: fraction-free Gaussian elimination
    A = [list(row) for row in matrix]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[-1][-1]


def _check_ktheory(params: SystemParams, rng: random.Random, bound: int, trials: int) -> Verdicts:
    for _ in range(trials):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(M)
        prod = [
            [
                sum(snf.U[i][a] * M[a][b] * snf.V[b][j] for a in range(m) for b in range(n))
                for j in range(n)
            ]
            for i in range(m)
        ]
        yield prod == [list(row) for row in snf.D], "U A V = D"
        yield abs(_int_det(snf.U)) == 1 and abs(_int_det(snf.V)) == 1, "unimodular"
        diag = snf.diagonal()
        chain = all(
            diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1) if diag[i]
        ) and all(d >= 0 for d in diag)
        yield chain, "divisibility chain"
    for _ in range(trials):
        mm = rng.randint(1, 40)
        nn = rng.randint(1, 40)
        ker, cok = mult_map_ker_coker(mm, nn)
        g = gcd(mm, nn)
        want = (0, ()) if g == 1 or nn == 1 else (0, (g,))
        yield (ker.rank, ker.torsion) == want, f"kernel x{mm} on Z/{nn}"
        yield (cok.rank, cok.torsion) == want, f"cokernel x{mm} on Z/{nn}"
    for p in range(2, 8):
        for q in range(2, 8):
            r = k_theory_of_group(p, q)
            yield r.matches and r.K0 == r.K1, f"K-theory ({p}, {q})"


def _check_primspace(params: SystemParams, rng: random.Random, bound: int, trials: int) -> Verdicts:
    orbits = enumerate_minimal_sets(params, min(bound, 25))
    points = [INFINITY]
    for orbit in orbits:
        (a, _), (_, c) = orbit.stabilizer.basis
        yield a > 0 and c > 0, f"rank-2 stabilizer mod {orbit.denominator}"
        points.append(OrbitCharPoint(orbit, Character.trivial(orbit.stabilizer)))
        points.append(OrbitCharPoint(orbit, Character(orbit.stabilizer, QmodZ(1, 2), QmodZ(1, 3))))
    for pt in points:
        yield specializes(INFINITY, pt), "infinity is dense"
        if not isinstance(pt, OrbitCharPoint):
            continue
        yield not specializes(pt, INFINITY), "closed points stay closed"
        single = closure([pt])
        yield single == limit_set(SequenceDesc(pt)), "limit matches closure"
    yield limit_set(SequenceDesc(ESCAPING)) == ALL, "escaping limit"
    yield closure([INFINITY]) == ALL, "dense point closure"
    finite_pts = [pt for pt in points if isinstance(pt, OrbitCharPoint)]
    for _ in range(trials):
        xs = rng.sample(finite_pts, min(3, len(finite_pts)))
        ys = rng.sample(finite_pts, min(2, len(finite_pts)))
        a, b = closure(xs), closure(ys)
        yield closed_union(a, a) == a, "union idempotent"
        yield closed_intersection(a, closed_union(a, b)) == a, "absorption"
        yield closed_union(a, b) == closed_union(b, a), "union commutes"
        yield closed_intersection(ALL, a) == a, "top element"
        yield closure(xs + ys) == closed_union(a, b), "closure additive"


_SUITES = {
    "exact": _check_exact,
    "dynamics": _check_dynamics,
    "groupalg": _check_groupalg,
    "traces": _check_traces,
    "ktheory": _check_ktheory,
    "primspace": _check_primspace,
}


def run_checks(
    suite: str,
    params: SystemParams,
    seed: int = 0,
    max_denominator: int = 30,
    trials: int = 25,
) -> list[CheckResult]:
    """Run one named suite, or all of them; deterministic for a fixed seed.
    A suite name that is neither "all" nor a key of _SUITES is a ValueError;
    the name, trials and max_denominator are checked before any suite runs."""
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected all or one of {', '.join(_SUITES)}")
    check_range("trials", trials, 0, MAX_TRIALS)
    check_range("max_denominator", max_denominator, 1, MAX_ORBIT_DENOMINATOR)
    names = list(_SUITES) if suite == "all" else [suite]
    return [_tally(name, _SUITES[name](params, random.Random(f"{seed}:{name}"), max_denominator, trials))
            for name in names]


def _tally(suite: str, verdicts: Verdicts) -> CheckResult:
    passed = failed = 0
    failures = []
    for ok, label in verdicts:
        if ok:
            passed += 1
        else:
            failed += 1
            if failed <= 20:
                failures.append(label)
    return CheckResult(suite, passed, failed, tuple(failures))
