"""The primitive ideal space of C*(Z[1/pq] x| Z^2) as a finite calculus.

With p and q multiplicatively independent the primitive ideals split
into two camps: one ideal (0), which is a dense point we write as
infinity, and for every finite orbit B and character chi of its
stabilizer lattice the kernel of the induced representation, a closed
point (B, chi).  In the hull-kernel topology the proper closed sets are
exactly the finite unions

    {B_1} x F_1  u  ...  u  {B_k} x F_k

with F_j a closed set of characters of the stabilizer of B_j.  This
module works with the finitely describable closed sets (F either the
full character torus or a finite set of rational characters) and makes
the convergence dichotomy for sequences of closed points explicit:

  * if the orbits escape every finite collection, the sequence
    converges to every point of the space;
  * if the orbit is eventually a fixed B, the sequence converges to
    (B, chi) exactly when the characters converge to chi.

Everything here is a pure function over immutable descriptions.
"""

from __future__ import annotations

from .dynamics import Character, OrbitData
from .errors import ParamsMismatch
from .exact import Record


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


class InfinityPoint(Record):
    """The zero ideal; its closure is the whole space."""

    __slots__ = ()


class OrbitCharPoint(Record):
    """A closed point: a finite orbit together with a character of its
    stabilizer lattice, written in the Hermite basis coordinates."""

    __slots__ = ("orbit", "chi")

    def __init__(self, orbit: OrbitData, chi: Character):
        orbit.require_character(chi)
        super().__init__(orbit, chi)


PrimPoint = InfinityPoint | OrbitCharPoint

INFINITY = InfinityPoint()


# ---------------------------------------------------------------------------
# closed sets
# ---------------------------------------------------------------------------


class AllClosedSet(Record):
    """The whole space."""

    __slots__ = ()


class FullTorus(Record):
    """Every character of one orbit's stabilizer."""

    __slots__ = ()


class FinitePoints(Record):
    """A finite set of characters, kept sorted and duplicate-free."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[Character, ...]):
        canon = sorted(set(points), key=lambda chi: (chi.t1.to_fraction(), chi.t2.to_fraction()))
        super().__init__(tuple(canon))


T2Closed = FullTorus | FinitePoints

FULL = FullTorus()


class FiniteUnion(Record):
    """A finite union of per-orbit closed sets; the empty union is the
    empty set.  Orbits are pairwise distinct, every part is nonempty, and
    every listed character is one of its orbit's stabilizer lattice."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[OrbitData, T2Closed], ...]):
        parts = tuple(sorted(parts, key=lambda part: (part[0].denominator, part[0].numerators[0])))
        seen = set()
        params = None
        for orbit, chunk in parts:
            if orbit in seen:
                raise ValueError(f"orbit mod {orbit.denominator} listed twice")
            seen.add(orbit)
            if params is None:
                params = orbit.params
            elif orbit.params != params:
                raise ParamsMismatch(
                    f"orbits from ({params.p}, {params.q}) and "
                    f"({orbit.params.p}, {orbit.params.q}) in one closed set"
                )
            if isinstance(chunk, FinitePoints):
                if not chunk.points:
                    raise ValueError("empty part in a finite union")
                for chi in chunk.points:
                    orbit.require_character(chi)
        super().__init__(parts)


ClosedSetDesc = AllClosedSet | FiniteUnion

ALL = AllClosedSet()


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


class EscapingTail(Record):
    """The orbits leave every finite collection."""

    __slots__ = ()


ESCAPING = EscapingTail()


class SequenceDesc(Record):
    """A sequence of closed points, described by its tail behaviour: ESCAPING,
    or the point (B, chi) when the orbit is eventually B and the characters
    converge to chi.  The finite prefix never affects the limit set."""

    __slots__ = ("tail", "prefix")

    def __init__(self, tail: EscapingTail | OrbitCharPoint, prefix: tuple[PrimPoint, ...] = ()):
        super().__init__(tail, prefix)


# ---------------------------------------------------------------------------
# the topology
# ---------------------------------------------------------------------------


def closure(points) -> ClosedSetDesc:
    """Smallest closed set containing the given points: the whole space
    if infinity, a dense point, is among them, else their finite union."""
    pts = tuple(points)
    if any(isinstance(pt, InfinityPoint) for pt in pts):
        return ALL
    by_orbit: dict[OrbitData, set[Character]] = {}
    for pt in pts:
        by_orbit.setdefault(pt.orbit, set()).add(pt.chi)
    return FiniteUnion(
        tuple((orbit, FinitePoints(tuple(chis))) for orbit, chis in by_orbit.items())
    )


def specializes(x: PrimPoint, y: PrimPoint) -> bool:
    """Whether y lies in the closure of {x}.

    >>> specializes(INFINITY, INFINITY)
    True
    """
    if isinstance(x, InfinityPoint):
        return True
    return x == y


def contains_point(desc: ClosedSetDesc, pt: PrimPoint) -> bool:
    if isinstance(desc, AllClosedSet):
        return True
    if isinstance(pt, InfinityPoint):
        return False
    for orbit, chunk in desc.parts:
        if orbit == pt.orbit:
            return isinstance(chunk, FullTorus) or pt.chi in chunk.points
    return False


def limit_set(seq: SequenceDesc) -> ClosedSetDesc:
    """All points the sequence converges to, by the dichotomy in the
    module docstring."""
    return ALL if isinstance(seq.tail, EscapingTail) else closure([seq.tail])


def closed_union(a: ClosedSetDesc, b: ClosedSetDesc) -> ClosedSetDesc:
    if isinstance(a, AllClosedSet) or isinstance(b, AllClosedSet):
        return ALL
    merged: dict[OrbitData, T2Closed] = dict(a.parts)
    for orbit, chunk in b.parts:
        prev = merged.get(orbit)
        if prev is None or isinstance(chunk, FullTorus):
            merged[orbit] = chunk
        elif isinstance(prev, FullTorus):
            pass
        else:
            merged[orbit] = FinitePoints(prev.points + chunk.points)
    return FiniteUnion(tuple(merged.items()))


def closed_intersection(a: ClosedSetDesc, b: ClosedSetDesc) -> ClosedSetDesc:
    if isinstance(a, AllClosedSet):
        return b
    if isinstance(b, AllClosedSet):
        return a
    other = dict(b.parts)
    parts = []
    for orbit, chunk in a.parts:
        match = other.get(orbit)
        if match is None:
            continue
        if isinstance(chunk, FullTorus):
            parts.append((orbit, match))
        elif isinstance(match, FullTorus):
            parts.append((orbit, chunk))
        else:
            common = set(chunk.points) & set(match.points)
            if common:
                parts.append((orbit, FinitePoints(tuple(common))))
    return FiniteUnion(tuple(parts))
