"""Acceptance suite: one test per advertised guarantee.

Every test prints a single PASS/FAIL line with its elapsed time, checks
exact values (tolerances appear only where floating point is itself the
subject, pinned at 1e-9), and enforces the stated runtime budget.
"""

import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
from sympy import divisors

from helpers import naive_orbit, random_algebra_element, random_group_element
from xpq import (
    ALL,
    ESCAPING,
    INFINITY,
    CanonicalTrace,
    Character,
    Cyclotomic,
    FgAbGroup,
    FiniteOrbitTrace,
    FinitePoints,
    FiniteUnion,
    GroupAlgebraElement,
    GroupElement,
    OrbitCharPoint,
    OrbitMeasureTrace,
    PqRational,
    QmodZ,
    SequenceDesc,
    SolenoidPoint,
    SystemParams,
    average_over_character_level,
    check_pq_invariance,
    closed_union,
    closure,
    contains_point,
    enumerate_minimal_sets,
    euler_phi,
    fixed_points,
    icc_witness,
    k_theory_of_group,
    limit_set,
    moments,
    mult_map_ker_coker,
    nonfaithful_witness,
    orbit_of,
    specializes,
    stabilizer_lattice,
    trace_eval,
)

P23 = SystemParams(2, 3)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(num: int, label: str, ok: bool, elapsed: float, budget: float | None = None):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {verdict}  {label}  [{elapsed:.2f}s]")
    assert ok, f"criterion {num:02d} failed: {label}"
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num:02d} took {elapsed:.2f}s, budget {budget}s"
        )


def unit(params, g) -> GroupAlgebraElement:
    return GroupAlgebraElement.unit(params, g)


def test_criterion_01_k_theory_values():
    with _Timer() as t:
        res = k_theory_of_group(2, 3)
        ok = res.K0 == FgAbGroup(2) and res.K1 == FgAbGroup(2)
        res = k_theory_of_group(3, 5)
        want = FgAbGroup(2, (2,))
        ok = ok and res.K0 == want and res.K1 == want
        for p in range(2, 31):
            for q in range(2, 31):
                r = k_theory_of_group(p, q)
                g = gcd(p - 1, q - 1)
                closed = FgAbGroup(2, (g,) if g >= 2 else ())
                ok = ok and r.K0 == closed and r.K1 == closed and r.matches
    report(1, "assembled K-theory matches the closed form for 2<=p,q<=30", ok, t.elapsed, 5.0)


def test_criterion_02_kernel_cokernel_on_cyclic_groups():
    with _Timer() as t:
        ok = True
        for n in range(1, 61):
            for m in range(1, n + 1):
                ker, coker = mult_map_ker_coker(m, n)
                g = gcd(m, n)
                kernel = {x for x in range(n) if m * x % n == 0}
                image = {m * x % n for x in range(n)}
                want = FgAbGroup.cyclic(g)
                ok = ok and ker == want and coker == want
                ok = ok and len(kernel) == g and len(image) == n // g
                # the kernel really is the cyclic subgroup generated by n/g
                ok = ok and kernel == {n // g * j % n for j in range(g)}
    report(2, "kernel/cokernel of xm on Z/n match enumeration for n<=60", ok, t.elapsed, 5.0)


def test_criterion_03_stabilizer_indices_to_500():
    with _Timer() as t:
        ok = True
        for p, q in ((2, 3), (3, 5), (2, 5)):
            params = SystemParams(p, q)
            for r in range(1, 501):
                if gcd(r, p * q) != 1:
                    continue
                lat = stabilizer_lattice(params, r)
                ok = ok and lat.index == len(naive_orbit(p, q, r, 1))
                (a, b), (z, c) = lat.basis
                ok = ok and z == 0 and a > 0 and c > 0 and 0 <= b < c
                ok = ok and pow(p, a, r) * pow(q, b, r) % r == 1 % r
                ok = ok and pow(q, c, r) == 1 % r
                if not ok:
                    break
    report(3, "stabilizer index equals brute orbit size for r<=500, three parameter pairs", ok, t.elapsed, 30.0)


def test_criterion_04_fixed_point_counts():
    with _Timer() as t:
        # flat arrays of all lowest-terms points a/d with d <= 5000 coprime to 6
        ds = [d for d in range(1, 5001) if gcd(d, 6) == 1]
        alist, dlist = [0], [1]
        for d in ds[1:]:
            coprime = [a for a in range(1, d) if gcd(a, d) == 1]
            alist.extend(coprime)
            dlist.extend([d] * len(coprime))
        A = np.array(alist, dtype=np.int64)
        D = np.array(dlist, dtype=np.int64)
        phi = {d: euler_phi(d) for d in ds}

        ok = True
        for m in range(-5, 6):
            for n in range(-5, 6):
                if (m, n) == (0, 0):
                    continue
                tcount = fixed_points(P23, (m, n)).count
                u = abs((Fraction(2) ** m * Fraction(3) ** n - 1).numerator)
                # count fixed points per denominator sector
                mask = (u * A) % D == 0
                per_d = np.bincount(D[mask], minlength=5001)
                want = np.zeros(5001, dtype=np.int64)
                for d in divisors(u):
                    if d <= 5000 and gcd(d, 6) == 1:
                        want[d] = phi[d]
                ok = ok and bool((per_d == want).all())
                # the formula count is the full divisor sum of the pq-free part
                ok = ok and sum(euler_phi(d) for d in divisors(tcount)) == tcount
                ok = ok and tcount == sum(
                    euler_phi(d) for d in divisors(u) if gcd(d, 6) == 1
                )

        fp = fixed_points(P23, (1, 1))
        ok = ok and fp.count == 5
        ok = ok and [pt.coord for pt in fp.sample] == [
            QmodZ(0, 1), QmodZ(1, 5), QmodZ(2, 5), QmodZ(3, 5), QmodZ(4, 5),
        ]
    report(4, "fixed-point counts match brute force over denominators <= 5000", ok, t.elapsed, 60.0)


def _acceptance_orbits(rs):
    return [orbit_of(P23, SolenoidPoint.of(1 % r, r)) for r in rs]


def _specs_for(orbit, rng):
    lat = orbit.stabilizer
    twisted = Character(
        lat, QmodZ(rng.randrange(6), 6), QmodZ(rng.randrange(4), 4)
    )
    return {
        "finite_orbit": FiniteOrbitTrace(orbit, twisted),
        "orbit_measure": OrbitMeasureTrace(orbit),
        "canonical": CanonicalTrace(orbit.params),
    }


def test_criterion_05_trace_laws_exact():
    with _Timer() as t:
        rng = random.Random("acceptance:5")
        orbits = _acceptance_orbits((1, 5, 7, 11, 13))
        ok = True
        e = GroupElement.identity()
        for kind in ("finite_orbit", "orbit_measure", "canonical"):
            pairs_done = 0
            while pairs_done < 500:
                orbit = orbits[pairs_done % len(orbits)]
                spec = _specs_for(orbit, rng)[kind]
                ok = ok and trace_eval(spec, unit(P23, e)) == Cyclotomic.one()
                a = random_algebra_element(rng, P23)
                b = random_algebra_element(rng, P23)
                ok = ok and trace_eval(spec, a * b) == trace_eval(spec, b * a)
                ok = ok and trace_eval(spec, a.star()) == trace_eval(spec, a).conj()
                pairs_done += 1
            if not ok:
                break
        orbit5 = orbits[1]
        spec = FiniteOrbitTrace(orbit5, Character.trivial(orbit5.stabilizer))
        val = trace_eval(spec, unit(P23, GroupElement(PqRational(1, 0, 0), 0, 0)))
        ok = ok and val == Cyclotomic.from_fraction(Fraction(-1, 4))
        ok = ok and val.level == 5
    report(5, "tracial, normalized, hermitian on 500 seeded pairs per kind; u_1 moment is -1/4", ok, t.elapsed, 60.0)


def test_criterion_06_positivity_numerical():
    with _Timer() as t:
        rng = random.Random("acceptance:6")
        orbits = _acceptance_orbits((1, 5, 7, 11, 13))
        ok = True
        for kind in ("finite_orbit", "orbit_measure", "canonical"):
            for i in range(500):
                orbit = orbits[i % len(orbits)]
                spec = _specs_for(orbit, rng)[kind]
                a = random_algebra_element(rng, P23)
                v = trace_eval(spec, a.star() * a).approx()
                ok = ok and v.real >= -1e-9 and abs(v.imag) <= 1e-9
            if not ok:
                break
    report(6, "tau(a* a) numerically positive (Re >= -1e-9, |Im| <= 1e-9), 500 per kind", ok, t.elapsed, 60.0)


def test_criterion_07_nonfaithfulness_witness():
    with _Timer() as t:
        ok = True
        quarters = [QmodZ(j, 4) for j in range(4)]
        for orbit in enumerate_minimal_sets(P23, 50):
            w = nonfaithful_witness(orbit)
            ok = ok and w.support_size() > 0
            ww = w.star() * w
            for t1 in quarters:
                for t2 in quarters:
                    chi = Character(orbit.stabilizer, t1, t2)
                    ok = ok and trace_eval(FiniteOrbitTrace(orbit, chi), ww).is_zero()
            ok = ok and trace_eval(OrbitMeasureTrace(orbit), ww).is_zero()
            ok = ok and trace_eval(CanonicalTrace(P23), ww) == Cyclotomic.from_fraction(2)
            if not ok:
                break
    report(7, "witness with tau(a* a) = 0 for every orbit trace, r <= 50; canonical sees 2", ok, t.elapsed, 60.0)


def test_criterion_08_moment_invariance():
    with _Timer() as t:
        ok = True
        specs = [CanonicalTrace(P23)]
        for orbit in enumerate_minimal_sets(P23, 100):
            specs.append(FiniteOrbitTrace(orbit, Character.trivial(orbit.stabilizer)))
            specs.append(OrbitMeasureTrace(orbit))
        for spec in specs:
            seq = moments(spec, 200)
            ok = ok and check_pq_invariance(seq, P23)
            if not ok:
                break
    report(8, "moment sequences x2- and x3-invariant at n_max = 200 for all orbits r <= 100", ok, t.elapsed, 60.0)


def test_criterion_09_character_averaging():
    with _Timer() as t:
        rng = random.Random("acceptance:9")
        ok = True
        for r in (5, 7, 13):
            orbit = orbit_of(P23, SolenoidPoint.of(1, r))
            lat = orbit.stabilizer
            trivial = FiniteOrbitTrace(orbit, Character.trivial(lat))
            unitaries = [random_group_element(rng, P23) for _ in range(200)]
            for k in range(1, 7):
                for g in unitaries:
                    avg = average_over_character_level(orbit, k, unit(P23, g))
                    coords = lat.coords(g.m, g.n)
                    if coords is None or coords[0] % k or coords[1] % k:
                        ok = ok and avg.is_zero()
                    else:
                        ok = ok and avg == trace_eval(trivial, unit(P23, g))
                if not ok:
                    break
    report(9, "character-grid averages obey the exact kill/keep rule, 200 unitaries, k <= 6", ok, t.elapsed, 60.0)


def test_criterion_10_ideal_space_topology():
    with _Timer() as t:
        ok = True
        orbits = enumerate_minimal_sets(P23, 50)
        points = []
        for i, orbit in enumerate(orbits):
            points.append(OrbitCharPoint(orbit, Character.trivial(orbit.stabilizer)))
            points.append(OrbitCharPoint(orbit, Character(orbit.stabilizer, QmodZ(1, 4), QmodZ(i % 3, 3))))

        # infinity is dense; its closure is everything
        ok = ok and closure([INFINITY]) == ALL
        ok = ok and all(contains_point(ALL, x) for x in points)
        ok = ok and all(specializes(INFINITY, x) for x in points)

        # orbit-character points are closed and T0-separated, but not T1
        for x in points:
            c = closure([x])
            ok = ok and c == FiniteUnion(((x.orbit, FinitePoints((x.chi,))),))
            ok = ok and contains_point(c, x) and not contains_point(c, INFINITY)
            ok = ok and not specializes(x, INFINITY)

        # closure laws: extensive, idempotent, monotone
        for k in (1, 3, 7):
            sample = points[::k]
            c = closure(sample)
            ok = ok and all(contains_point(c, x) for x in sample)
            ok = ok and closed_union(c, c) == c
            bigger = closure(sample + points[:2])
            ok = ok and closed_union(c, bigger) == bigger

        # limit rules
        ok = ok and limit_set(SequenceDesc(ESCAPING)) == ALL
        for x in points[:20]:
            got = limit_set(SequenceDesc(x))
            ok = ok and got == closure([x])
    report(10, "closure/specialization/limit laws hold exactly over orbits r <= 50", ok, t.elapsed, 60.0)


def test_criterion_11_infinite_conjugacy():
    with _Timer() as t:
        rng = random.Random("acceptance:11")
        ok = True
        produced = 0
        while produced < 100:
            g = random_group_element(rng, P23, span=4)
            if g.is_identity():
                continue
            conjs = icc_witness(P23, g, 50)
            ok = ok and len(conjs) == 50 and len(set(conjs)) == 50
            ok = ok and all(c.m == g.m and c.n == g.n for c in conjs)
            produced += 1
            if not ok:
                break
    report(11, "50 pairwise-distinct conjugates for 100 seeded non-identity elements", ok, t.elapsed, 60.0)


def test_criterion_12_unique_faithful_trace():
    with _Timer() as t:
        rng = random.Random("acceptance:12")
        ok = True
        # every finite-orbit and orbit-measure spec fails faithfulness
        for orbit in enumerate_minimal_sets(P23, 30):
            w = nonfaithful_witness(orbit)
            ww = w.star() * w
            ok = ok and w.support_size() > 0
            for t1 in range(4):
                for t2 in range(4):
                    chi = Character(orbit.stabilizer, QmodZ(t1, 4), QmodZ(t2, 4))
                    ok = ok and trace_eval(FiniteOrbitTrace(orbit, chi), ww).is_zero()
            ok = ok and trace_eval(OrbitMeasureTrace(orbit), ww).is_zero()
        # the canonical trace is exactly faithful on the rational group algebra:
        # tau(a* a) is the sum of squared coefficients
        for _ in range(200):
            a = random_algebra_element(rng, P23, support=3)
            got = trace_eval(CanonicalTrace(P23), a.star() * a)
            want = sum((c * c for _, c in a.terms), start=Fraction(0))
            ok = ok and got == Cyclotomic.from_fraction(want)
            ok = ok and (want > 0) == (a.support_size() > 0)
    report(12, "canonical trace is the unique faithful kind; orbit traces all have witnesses", ok, t.elapsed, 60.0)
