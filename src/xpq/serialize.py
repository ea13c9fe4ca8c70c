"""JSON views of the library's values.

Every *_to_json function returns plain dict/list/str data ready for
json.dumps; every *_from_json parses such data, validating as it goes.
Structural problems (wrong shape, corrupt orbit lists, characters that
do not parse) raise ValueError; domain violations discovered while
rebuilding (bases below 2, denominators sharing a factor with pq, ...)
surface as the usual library exceptions.  Orbits and canonical forms
are validated by recomputation, not trusted (see orbit_from_json).

Big integers ride as strings ("num") so consumers that read JSON with
53-bit floats cannot corrupt them silently; small structural integers
(exponents, lattice entries) stay bare.

Modules load as the xpq package docstring states: a function that builds
or recognises a group-algebra, trace, K-theory or ideal-space value
imports that module itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .dynamics import MAX_EXPONENT, Character, OrbitData, SystemParams, _build_orbit, stabilizer_lattice
from .errors import OutOfRange, ParamsMismatch, check_range, int_text
from .exact import Cyclotomic, PqRational, QmodZ, euler_phi

if TYPE_CHECKING:
    from .groupalg import GroupAlgebraElement, GroupElement
    from .ktheory import FgAbGroup, KTheoryResult
    from .primspace import ClosedSetDesc, PrimPoint, SequenceDesc
    from .traces import MomentSequence, TraceSpec


# Largest |exponent| of a decimal coefficient such as "25e-3": Fraction
# builds 10**exponent, so "1e999999999" would not finish.
MAX_COEFFICIENT_EXPONENT = 1000


def _need(data, key, kind=None):
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing key {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"key {key!r} has type {type(value).__name__}")
    return value


def _int_field(data, key) -> int:
    """data[key] as an int: a JSON integer, or ASCII digits after an optional
    "-" (int() alone takes floats, other scripts' digits, "_" and spaces)."""
    value = _need(data, key)
    if type(value) is int or isinstance(value, str) and not value.strip("-0123456789"):
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"key {key!r} is not an integer")


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


def pq_rational_from_json(data, params: SystemParams) -> PqRational:
    num = _int_field(data, "num")
    a = _int_field(data, "a")
    b = _int_field(data, "b")
    if a < 0 or b < 0:
        raise ValueError(f"exponents ({a}, {b}) must be nonnegative")
    check_range("a", a, 0, MAX_EXPONENT)
    check_range("b", b, 0, MAX_EXPONENT)
    canon = PqRational.canonical(num, params.p**a * params.q**b, params.p, params.q)
    if (canon.num, canon.a, canon.b) != (num, a, b):
        raise ValueError(
            f"{int_text(num)}/({int_text(params.p)}^{a} {int_text(params.q)}^{b}) is not in canonical form"
        )
    return canon


def cyclotomic_to_json(value: Cyclotomic) -> dict:
    # the same strings as str(c) for c in value.coeffs, without a Fraction per zero
    z = value.approx()
    den, vec = value.den, value.vec
    return {
        "level": value.level,
        "coeffs": [str(Fraction(c, den)) if c else "0" for c in vec] + ["0"] * (euler_phi(value.level) - len(vec)),
        "approx": {"re": z.real, "im": z.imag},
    }


def evaluation_to_json(value: Cyclotomic) -> dict:
    exact = cyclotomic_to_json(value)
    return {"exact": exact, "approx": dict(exact["approx"])}


def _qmodz_from_str(text) -> QmodZ:
    """QmodZ.parse of a JSON string; any other value, or b <= 0, is a ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    try:
        return QmodZ.parse(text)
    except OutOfRange:  # b <= 0; parse refuses other text as "bad rational" itself
        raise ValueError(f"bad rational {text!r}") from None


def _coord_from_json(text, field: str) -> QmodZ:
    """A character coordinate in the text str(QmodZ) writes, "a/b" with
    0 <= a < b in lowest terms, or zero as "0"; any other value, such as
    "6/5", "-4/5", "2/10" or "1", is a ValueError naming the field."""
    try:
        x = _qmodz_from_str(text)
    except ValueError:
        x = None
    if x is None or text not in (str(x), "0"):
        raise ValueError(f"{field} = {text!r} is not written a/b with 0 <= a < b in lowest terms")
    return x


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def orbit_to_json(orbit: OrbitData) -> dict:
    (a, b), (z, c) = orbit.stabilizer.basis
    return {
        "p": orbit.params.p,
        "q": orbit.params.q,
        "r": orbit.denominator,
        "orbit": list(map(f"{{}}/{orbit.denominator}".format, orbit.numerators)),
        "stabilizer": {"basis": [[a, b], [z, c]], "index": orbit.stabilizer.index},
    }


def orbit_from_json(data) -> OrbitData:
    """The orbit listed in data.  Only the first point is parsed, by
    _qmodz_from_str, and its denominator must be r.  The list must have
    index(L_r) entries, checked against the stabilizer lattice before any
    point is built; the orbit is then rebuilt from the first point, and the
    list must hold each of its point texts as orbit_to_json writes them,
    once, in any order, and the stabilizer must be its own."""
    params = SystemParams(_int_field(data, "p"), _int_field(data, "q"))
    r = _int_field(data, "r")
    listed = _need(data, "orbit", list)
    if not listed:
        raise ValueError("empty orbit list")
    x = _qmodz_from_str(listed[0])
    if x.den != r:
        raise ValueError(f"{listed[0]!r} is not a point with denominator {r}")
    lattice = stabilizer_lattice(params, r)
    if len(listed) != lattice.index:
        raise ValueError(f"the orbit list mod {r} has {len(listed)} entries, not index(L_r) = {lattice.index}")
    orbit = _build_orbit(params, x, lattice)
    own = orbit_to_json(orbit)
    texts = own["orbit"]
    left = set(texts)
    try:  # the lengths are equal, so a list holding every text holds each once
        left.difference_update(listed)
    except TypeError:  # an unhashable entry: fewer entries than texts are removed
        pass
    if left:  # walk the list to name its first bad text
        left = set(texts)
        for text in listed:
            if not isinstance(text, str) or text not in left:
                raise ValueError(f"{text!r} is listed twice in the orbit list mod {r}" if text in texts
                                 else f"{text!r} is not a point of the orbit of {x}, written a/{r}")
            left.remove(text)
    stab = _need(data, "stabilizer", dict)
    if _need(stab, "basis") != own["stabilizer"]["basis"] or _int_field(stab, "index") != orbit.stabilizer.index:
        raise ValueError(f"stabilizer data does not match the lattice mod {r}")
    return orbit


# ---------------------------------------------------------------------------
# group algebra
# ---------------------------------------------------------------------------


def group_element_to_json(g: GroupElement) -> dict:
    num, a, b, m, n = g.row  # x as pq_rational_from_json reads it
    return {"x": {"num": str(num), "a": a, "b": b}, "m": m, "n": n}


def group_element_from_json(data, params: SystemParams) -> GroupElement:
    from .groupalg import GroupElement

    m = _int_field(data, "m")
    n = _int_field(data, "n")
    check_range("m", m, -MAX_EXPONENT, MAX_EXPONENT)
    check_range("n", n, -MAX_EXPONENT, MAX_EXPONENT)
    return GroupElement(pq_rational_from_json(_need(data, "x", dict), params), m, n)


def algebra_element_to_json(a: GroupAlgebraElement) -> dict:
    return {
        "terms": [
            {"g": group_element_to_json(g), "c": str(c)} for g, c in a.terms
        ]
    }


def algebra_element_from_json(data, params: SystemParams) -> GroupAlgebraElement:
    from .groupalg import GroupAlgebraElement

    terms = []
    for entry in _need(data, "terms", list):
        g = group_element_from_json(_need(entry, "g", dict), params)
        text = _need(entry, "c", str)
        exponent = text.lower().partition("e")[2]
        try:
            if (not text.isascii() or "_" in text or text.split() != [text]
                    or exponent and abs(int(exponent)) > MAX_COEFFICIENT_EXPONENT):
                raise ValueError
            c = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coefficient {text!r}") from None
        terms.append((g, c))
    return GroupAlgebraElement.from_terms(params, terms)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def _chi_from_json(data, key: str, orbit: OrbitData) -> Character:
    """The character data[key] of the stabilizer lattice of an orbit already decoded."""
    chi = _need(data, key, dict)
    return Character(orbit.stabilizer, *(_coord_from_json(_need(chi, t), t) for t in ("t1", "t2")))


def trace_spec_to_json(spec: TraceSpec) -> dict:
    from .traces import CanonicalTrace, FiniteOrbitTrace, OrbitMeasureTrace

    if isinstance(spec, FiniteOrbitTrace):
        chi = {"t1": str(spec.chi.t1), "t2": str(spec.chi.t2)}
        return {"kind": "finite_orbit", "orbit": orbit_to_json(spec.orbit), "chi": chi}
    if isinstance(spec, CanonicalTrace):
        return {"kind": "canonical"}
    if isinstance(spec, OrbitMeasureTrace):
        return {"kind": "orbit_measure", "orbit": orbit_to_json(spec.orbit)}
    raise ValueError(f"unknown trace spec {type(spec).__name__}")


def trace_spec_from_json(data, params: SystemParams) -> TraceSpec:
    from .traces import CanonicalTrace, FiniteOrbitTrace, OrbitMeasureTrace

    kind = _need(data, "kind", str)
    if kind == "canonical":
        return CanonicalTrace(params)
    if kind in ("finite_orbit", "orbit_measure"):
        orbit = orbit_from_json(_need(data, "orbit", dict))
        if orbit.params != params:
            raise ParamsMismatch(
                f"orbit is for ({orbit.params.p}, {orbit.params.q}), "
                f"not ({params.p}, {params.q})"
            )
        if kind == "orbit_measure":
            return OrbitMeasureTrace(orbit)
        return FiniteOrbitTrace(orbit, _chi_from_json(data, "chi", orbit))
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


def closed_set_to_json(desc: ClosedSetDesc) -> dict:
    from .primspace import AllClosedSet, FullTorus

    if isinstance(desc, AllClosedSet):
        return {"kind": "all"}
    return {
        "kind": "union",
        "parts": [
            {
                "orbit": orbit_to_json(orbit),
                "part": "full" if isinstance(part, FullTorus)
                else [[str(chi.t1), str(chi.t2)] for chi in part.points],
            }
            for orbit, part in desc.parts
        ],
    }


def prim_point_from_json(data) -> PrimPoint:
    from .primspace import INFINITY, OrbitCharPoint

    kind = _need(data, "kind", str)
    if kind == "infinity":
        return INFINITY
    if kind != "orbit_char":
        raise ValueError(f"unknown point kind {kind!r}")
    orbit = orbit_from_json(_need(data, "orbit", dict))
    return OrbitCharPoint(orbit, _chi_from_json(data, "chi", orbit))


def sequence_desc_from_json(data) -> SequenceDesc:
    from .primspace import ESCAPING, OrbitCharPoint, SequenceDesc

    tail_data = _need(data, "tail", dict)
    kind = _need(tail_data, "kind", str)
    if kind == "escaping":
        tail = ESCAPING
    elif kind == "constant_orbit":
        orbit = orbit_from_json(_need(tail_data, "orbit", dict))
        tail = OrbitCharPoint(orbit, _chi_from_json(tail_data, "chi_limit", orbit))
    else:
        raise ValueError(f"unknown tail kind {kind!r}")
    entries = _need(data, "prefix", list) if "prefix" in data else []
    prefix = tuple(prim_point_from_json(entry) for entry in entries)
    return SequenceDesc(tail, prefix)
