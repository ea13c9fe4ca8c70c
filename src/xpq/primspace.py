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

from dataclasses import dataclass, field

from .dynamics import OrbitData
from .errors import ParamsMismatch
from .exact import QmodZ

Chi = tuple[QmodZ, QmodZ]


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class InfinityPoint:
    """The zero ideal; its closure is the whole space."""


@dataclass(frozen=True, slots=True)
class OrbitCharPoint:
    """A closed point: a finite orbit together with a character of its
    stabilizer lattice, written in the Hermite basis coordinates."""

    orbit: OrbitData
    chi: Chi


PrimPoint = InfinityPoint | OrbitCharPoint

INFINITY = InfinityPoint()


# ---------------------------------------------------------------------------
# closed sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AllClosedSet:
    """The whole space."""


@dataclass(frozen=True, slots=True)
class FullTorus:
    """Every character of one orbit's stabilizer."""


def _chi_key(chi: Chi):
    return (chi[0].to_fraction(), chi[1].to_fraction())


@dataclass(frozen=True, slots=True)
class FinitePoints:
    """A finite set of characters, kept sorted and duplicate-free."""

    points: tuple[Chi, ...]

    def __post_init__(self):
        canon = tuple(sorted(set(self.points), key=_chi_key))
        object.__setattr__(self, "points", canon)

    def is_empty(self) -> bool:
        return not self.points


T2Closed = FullTorus | FinitePoints

FULL = FullTorus()


def _orbit_key(orbit: OrbitData):
    return (orbit.denominator, min(orbit.numerators()))


@dataclass(frozen=True, slots=True)
class FiniteUnion:
    """A finite union of per-orbit closed sets; the empty union is the
    empty set.  Orbits are pairwise distinct and every part is nonempty."""

    parts: tuple[tuple[OrbitData, T2Closed], ...]

    def __post_init__(self):
        parts = tuple(sorted(self.parts, key=lambda part: _orbit_key(part[0])))
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
            if isinstance(chunk, FinitePoints) and chunk.is_empty():
                raise ValueError("empty part in a finite union")
        object.__setattr__(self, "parts", parts)

    def is_empty(self) -> bool:
        return not self.parts


ClosedSetDesc = AllClosedSet | FiniteUnion

ALL = AllClosedSet()

EMPTY = FiniteUnion(())


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EscapingTail:
    """The orbits leave every finite collection."""


@dataclass(frozen=True, slots=True)
class ConstantOrbitTail:
    """The orbit is eventually B and the characters converge to chi_limit."""

    orbit: OrbitData
    chi_limit: Chi


ESCAPING = EscapingTail()


@dataclass(frozen=True, slots=True)
class SequenceDesc:
    """A sequence of closed points, described by its tail behaviour; the
    finite prefix never affects the limit set."""

    tail: EscapingTail | ConstantOrbitTail
    prefix: tuple[PrimPoint, ...] = field(default=())


# ---------------------------------------------------------------------------
# the topology
# ---------------------------------------------------------------------------


def closure(points) -> ClosedSetDesc:
    """Smallest closed set containing the given points.

    Infinity is dense, so any occurrence forces the whole space; the
    orbit-character points are closed, so without infinity the closure
    is just the finite union of what was given.
    """
    pts = tuple(points)
    if any(isinstance(pt, InfinityPoint) for pt in pts):
        return ALL
    by_orbit: dict[OrbitData, set[Chi]] = {}
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
    """All points the sequence converges to.

    An escaping sequence converges to every point of the space at once;
    a sequence with eventually constant orbit converges exactly to that
    orbit paired with the character limit.
    """
    tail = seq.tail
    if isinstance(tail, EscapingTail):
        return ALL
    return FiniteUnion(((tail.orbit, FinitePoints((tail.chi_limit,))),))


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
