"""JSON views of the library's values.

Every *_to_json function returns plain dict/list/str data ready for
json.dumps; every *_from_json re-parses it, validating as it goes.
Structural problems (wrong shape, corrupt orbit lists, characters that
do not parse) raise ValueError; domain violations discovered while
rebuilding (bases below 2, denominators sharing a factor with pq, ...)
surface as the usual library exceptions.  Orbits and canonical forms
are validated by recomputation, not trusted: a parsed OrbitData is the
library's own orbit of the least listed point, compared against the
claimed point set and stabilizer.

Big integers ride as strings ("num") so consumers that read JSON with
53-bit floats cannot corrupt them silently; small structural integers
(exponents, lattice entries) stay bare.
"""

from __future__ import annotations

from fractions import Fraction

from .dynamics import OrbitData, SolenoidPoint, SystemParams, orbit_of
from .errors import OutOfRange, ParamsMismatch
from .exact import Cyclotomic, PqRational, QmodZ
from .groupalg import GroupAlgebraElement, GroupElement
from .ktheory import FgAbGroup, KTheoryResult
from .primspace import (
    ALL,
    AllClosedSet,
    ClosedSetDesc,
    ConstantOrbitTail,
    EscapingTail,
    FinitePoints,
    FiniteUnion,
    FullTorus,
    InfinityPoint,
    OrbitCharPoint,
    PrimPoint,
    SequenceDesc,
    T2Closed,
)
from .traces import (
    CanonicalTrace,
    Character,
    FiniteOrbitTrace,
    MomentSequence,
    OrbitMeasureTrace,
    TraceSpec,
)


def _need(data, key, kind=None):
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing key {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"key {key!r} has type {type(value).__name__}")
    return value


def _int_field(data, key) -> int:
    value = _need(data, key)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"key {key!r} is not an integer")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"key {key!r} is not an integer") from None


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


def pq_rational_to_json(x: PqRational) -> dict:
    return {"num": str(x.num), "a": x.a, "b": x.b}


def pq_rational_from_json(data, params: SystemParams) -> PqRational:
    num = _int_field(data, "num")
    a = _int_field(data, "a")
    b = _int_field(data, "b")
    if a < 0 or b < 0:
        raise ValueError(f"exponents ({a}, {b}) must be nonnegative")
    value = Fraction(num, params.p**a * params.q**b)
    canon = PqRational.from_fraction(value, params.p, params.q)
    if (canon.num, canon.a, canon.b) != (num, a, b):
        raise ValueError(
            f"{num}/({params.p}^{a} {params.q}^{b}) is not in canonical form"
        )
    return canon


def cyclotomic_to_json(value: Cyclotomic) -> dict:
    z = value.approx()
    return {
        "level": value.level,
        "coeffs": [str(c) for c in value.coeffs],
        "approx": {"re": z.real, "im": z.imag},
    }


def evaluation_to_json(value: Cyclotomic) -> dict:
    z = value.approx()
    return {"exact": cyclotomic_to_json(value), "approx": {"re": z.real, "im": z.imag}}


def _qmodz_from_str(text) -> QmodZ:
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    try:
        return QmodZ.parse(text)
    except (ValueError, OutOfRange):
        raise ValueError(f"bad rational {text!r}") from None


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def orbit_to_json(orbit: OrbitData) -> dict:
    (a, b), (z, c) = orbit.stabilizer.basis
    return {
        "p": orbit.params.p,
        "q": orbit.params.q,
        "r": orbit.denominator,
        "orbit": [str(pt.coord) for pt in orbit.points],
        "stabilizer": {"basis": [[a, b], [z, c]], "index": orbit.stabilizer.index},
    }


def orbit_from_json(data) -> OrbitData:
    params = SystemParams(_int_field(data, "p"), _int_field(data, "q"))
    r = _int_field(data, "r")
    listed = _need(data, "orbit", list)
    if not listed:
        raise ValueError("empty orbit list")
    nums = []
    for text in listed:
        pt = _qmodz_from_str(text)
        if pt.den != r:
            raise ValueError(f"{text!r} is not a lowest-terms point with denominator {r}")
        nums.append(pt.num)
    if len(set(nums)) != len(nums):
        raise ValueError("orbit list has duplicates")
    orbit = orbit_of(params, SolenoidPoint(QmodZ(min(nums), r)))
    if set(orbit.numerators()) != set(nums):
        raise ValueError(f"listed points are not one orbit mod {r}")
    stab = _need(data, "stabilizer", dict)
    (a, b), (z, c) = orbit.stabilizer.basis
    if _need(stab, "basis") != [[a, b], [z, c]] or _int_field(stab, "index") != orbit.stabilizer.index:
        raise ValueError(f"stabilizer data does not match the lattice mod {r}")
    return orbit


# ---------------------------------------------------------------------------
# group algebra
# ---------------------------------------------------------------------------


def group_element_to_json(g: GroupElement) -> dict:
    return {"x": pq_rational_to_json(g.x), "m": g.m, "n": g.n}


def group_element_from_json(data, params: SystemParams) -> GroupElement:
    return GroupElement(
        pq_rational_from_json(_need(data, "x", dict), params),
        _int_field(data, "m"),
        _int_field(data, "n"),
    )


def algebra_element_to_json(a: GroupAlgebraElement) -> dict:
    return {
        "terms": [
            {"g": group_element_to_json(g), "c": str(c)} for g, c in a.terms
        ]
    }


def algebra_element_from_json(data, params: SystemParams) -> GroupAlgebraElement:
    terms = []
    for entry in _need(data, "terms", list):
        g = group_element_from_json(_need(entry, "g", dict), params)
        text = _need(entry, "c", str)
        try:
            c = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coefficient {text!r}") from None
        terms.append((g, c))
    return GroupAlgebraElement.from_terms(params, terms)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def _chi_to_json(t1: QmodZ, t2: QmodZ) -> dict:
    return {"t1": str(t1), "t2": str(t2)}


def _chi_from_json(data) -> tuple[QmodZ, QmodZ]:
    return (_qmodz_from_str(_need(data, "t1")), _qmodz_from_str(_need(data, "t2")))


def trace_spec_to_json(spec: TraceSpec) -> dict:
    if isinstance(spec, FiniteOrbitTrace):
        return {
            "kind": "finite_orbit",
            "orbit": orbit_to_json(spec.orbit),
            "chi": _chi_to_json(spec.chi.t1, spec.chi.t2),
        }
    if isinstance(spec, CanonicalTrace):
        return {"kind": "canonical"}
    if isinstance(spec, OrbitMeasureTrace):
        return {"kind": "orbit_measure", "orbit": orbit_to_json(spec.orbit)}
    raise ValueError(f"unknown trace spec {type(spec).__name__}")


def trace_spec_from_json(data, params: SystemParams | None = None) -> TraceSpec:
    kind = _need(data, "kind", str)
    if kind == "canonical":
        if params is None:
            raise ValueError("a canonical trace needs explicit system parameters")
        return CanonicalTrace(params)
    if kind in ("finite_orbit", "orbit_measure"):
        orbit = orbit_from_json(_need(data, "orbit", dict))
        if params is not None and orbit.params != params:
            raise ParamsMismatch(
                f"orbit is for ({orbit.params.p}, {orbit.params.q}), "
                f"not ({params.p}, {params.q})"
            )
        if kind == "orbit_measure":
            return OrbitMeasureTrace(orbit)
        t1, t2 = _chi_from_json(_need(data, "chi", dict))
        return FiniteOrbitTrace(orbit, Character(orbit.stabilizer, t1, t2))
    raise ValueError(f"unknown trace kind {kind!r}")


def moments_to_json(seq: MomentSequence) -> dict:
    return {
        "trace": trace_spec_to_json(seq.spec),
        "n_max": seq.n_max,
        "values": [{"n": n, **evaluation_to_json(v)} for n, v in seq.items()],
    }


# ---------------------------------------------------------------------------
# K-theory
# ---------------------------------------------------------------------------


def fg_ab_group_to_json(group: FgAbGroup) -> dict:
    return {"rank": group.rank, "torsion": list(group.torsion)}


def fg_ab_group_from_json(data) -> FgAbGroup:
    torsion = _need(data, "torsion", list)
    try:
        return FgAbGroup(_int_field(data, "rank"), tuple(int(d) for d in torsion))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad group data: {exc}") from None


def ktheory_result_to_json(result: KTheoryResult) -> dict:
    return {
        "K0": fg_ab_group_to_json(result.K0),
        "K1": fg_ab_group_to_json(result.K1),
        "closed_form": fg_ab_group_to_json(result.closed_form),
        "torsion_gcd": result.torsion_gcd,
        "matches": result.matches,
    }


# ---------------------------------------------------------------------------
# primitive ideal space
# ---------------------------------------------------------------------------


def _part_to_json(part: T2Closed):
    if isinstance(part, FullTorus):
        return "full"
    return [[str(t1), str(t2)] for t1, t2 in part.points]


def _part_from_json(data) -> T2Closed:
    if data == "full":
        return FullTorus()
    if not isinstance(data, list):
        raise ValueError("part must be \"full\" or a list of character pairs")
    points = []
    for pair in data:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"bad character pair {pair!r}")
        points.append((_qmodz_from_str(pair[0]), _qmodz_from_str(pair[1])))
    return FinitePoints(tuple(points))


def closed_set_to_json(desc: ClosedSetDesc) -> dict:
    if isinstance(desc, AllClosedSet):
        return {"kind": "all"}
    return {
        "kind": "union",
        "parts": [
            {"orbit": orbit_to_json(orbit), "part": _part_to_json(part)}
            for orbit, part in desc.parts
        ],
    }


def closed_set_from_json(data) -> ClosedSetDesc:
    kind = _need(data, "kind", str)
    if kind == "all":
        return ALL
    if kind != "union":
        raise ValueError(f"unknown closed-set kind {kind!r}")
    parts = []
    for entry in _need(data, "parts", list):
        orbit = orbit_from_json(_need(entry, "orbit", dict))
        parts.append((orbit, _part_from_json(_need(entry, "part"))))
    return FiniteUnion(tuple(parts))


def prim_point_to_json(pt: PrimPoint) -> dict:
    if isinstance(pt, InfinityPoint):
        return {"kind": "infinity"}
    return {
        "kind": "orbit_char",
        "orbit": orbit_to_json(pt.orbit),
        "chi": _chi_to_json(*pt.chi),
    }


def prim_point_from_json(data) -> PrimPoint:
    kind = _need(data, "kind", str)
    if kind == "infinity":
        return InfinityPoint()
    if kind != "orbit_char":
        raise ValueError(f"unknown point kind {kind!r}")
    orbit = orbit_from_json(_need(data, "orbit", dict))
    return OrbitCharPoint(orbit, _chi_from_json(_need(data, "chi", dict)))


def sequence_desc_to_json(seq: SequenceDesc) -> dict:
    tail = seq.tail
    if isinstance(tail, EscapingTail):
        tail_data = {"kind": "escaping"}
    else:
        tail_data = {
            "kind": "constant_orbit",
            "orbit": orbit_to_json(tail.orbit),
            "chi_limit": _chi_to_json(*tail.chi_limit),
        }
    return {
        "prefix": [prim_point_to_json(pt) for pt in seq.prefix],
        "tail": tail_data,
    }


def sequence_desc_from_json(data) -> SequenceDesc:
    tail_data = _need(data, "tail", dict)
    kind = _need(tail_data, "kind", str)
    if kind == "escaping":
        tail = EscapingTail()
    elif kind == "constant_orbit":
        orbit = orbit_from_json(_need(tail_data, "orbit", dict))
        tail = ConstantOrbitTail(orbit, _chi_from_json(_need(tail_data, "chi_limit", dict)))
    else:
        raise ValueError(f"unknown tail kind {kind!r}")
    entries = _need(data, "prefix", list) if "prefix" in data else []
    prefix = tuple(prim_point_from_json(entry) for entry in entries)
    return SequenceDesc(tail, prefix)
