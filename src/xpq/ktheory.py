"""Finitely generated abelian groups, Smith normal form, and the K-theory
of the group C*-algebra of Z[1/pq] x| Z^2.

Groups are recorded by isomorphism type (free rank plus an ascending
divisibility chain of torsion orders); maps are integer matrices on the
standard generators, free generators first.  Kernels and cokernels are
computed through integer presentation matrices and Smith normal form
over arbitrary-precision integers (map_cokernel, map_kernel), so no
generator words survive; the isomorphism type is the contract.  No
integer is ever factored.

The crossed-product K-theory is assembled from the Pimsner-Voiculescu
sequence of the outer Z-action on the coefficient algebra, which is the
group C*-algebra of the solvable Baumslag-Solitar group BS(1, pq):

    K_0 = Z (the class of the unit),  K_1 = Z (+) Z/(pq-1)Z,

with the action inducing the identity on K_0 and (x, y) -> (x, p*y) on
K_1.  Both connecting sequences split here, so

    K_i ( C*(Z[1/pq] x| Z^2) ) = Z^2 (+) Z/gcd(p-1, q-1)Z,   i = 0, 1,

and k_theory_of_group reports the assembled answer next to that closed
form as an independent cross-check.

>>> str(k_theory_of_group(3, 5).K0)
'Z^2 + Z/2'
"""

from __future__ import annotations

import operator
from math import gcd

from .errors import IncompatibleMap, check_range
from .exact import Record, check_bases

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class SNFResult(Record):
    """U * A * V = D with U, V unimodular and D = diag(d_1 | d_2 | ...),
    entries nonnegative."""

    __slots__ = ("U", "D", "V")

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i][i] for i in range(min(len(self.D), len(self.V))))


def _entry(x) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"matrix entry {x!r} is not an integer") from None


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # (g, x, y) with g = gcd(a, b) = x*a + y*b
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - k * x1, y0 - k * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form by extended-gcd elimination over big integers.

    >>> smith_normal_form([[2, 4], [6, 8]]).diagonal()
    (2, 4)
    """
    A = [[_entry(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def rows(i, k, a, b, c, d):
        # (row i, row k) <- (a row i + b row k, c row i + d row k), ad - bc = +-1
        for M in (A, U):
            Mi, Mk = M[i], M[k]
            for j, (x, y) in enumerate(zip(Mi, Mk)):
                Mi[j], Mk[j] = a * x + b * y, c * x + d * y

    def cols(j, k, a, b, c, d):
        for M in (A, V):
            for row in M:
                x, y = row[j], row[k]
                row[j], row[k] = a * x + b * y, c * x + d * y

    def pair(p, e):
        # the 2x2 unimodular step that sends (p, e) to (gcd, 0)
        if e % p == 0:
            return 1, 0, -(e // p), 1
        g, x, y = _xgcd(p, e)
        return x, y, -(e // g), p // g

    for t in range(min(m, n)):
        entries = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            rows(t, pi, 0, 1, 1, 0)
        if pj != t:
            cols(t, pj, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, m):
                if A[i][t]:
                    rows(t, i, *pair(A[t][t], A[i][t]))
            for j in range(t + 1, n):
                if A[t][j]:
                    cols(t, j, *pair(A[t][t], A[t][j]))
            if any(A[i][t] for i in range(t + 1, m)):
                continue  # a column step refilled column t
            d = A[t][t]
            offender = next(
                (i for i in range(t + 1, m) if any(A[i][j] % d for j in range(t + 1, n))), -1
            )
            if offender < 0:
                break
            rows(t, offender, 1, 1, 0, 1)  # pull the offending row into the pivot row
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]

    freeze = lambda M: tuple(tuple(r) for r in M)
    return SNFResult(freeze(U), freeze(A), freeze(V))


# ---------------------------------------------------------------------------
# finitely generated abelian groups and maps
# ---------------------------------------------------------------------------


class FgAbGroup(Record):
    """Isomorphism type Z^rank (+) Z/d_1 (+) ... with d_1 | d_2 | ..., d_i >= 2."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        if rank < 0:
            raise ValueError(f"rank {rank} negative")
        prev = 1
        for d in torsion:
            if d < 2 or d % prev:
                raise ValueError(f"torsion {torsion} is not a divisibility chain")
            prev = d
        super().__init__(rank, torsion)

    @classmethod
    def cyclic(cls, n: int) -> FgAbGroup:
        if n == 0:
            return cls(1, ())
        n = abs(n)
        return cls(0, ()) if n == 1 else cls(0, (n,))

    def direct_sum(self, other: FgAbGroup) -> FgAbGroup:
        # the invariant factors of diag(torsion) merge the two chains
        torsion = self.torsion + other.torsion
        D = [[d if i == j else 0 for j in range(len(torsion))] for i, d in enumerate(torsion)]
        chain = tuple(d for d in smith_normal_form(D).diagonal() if d > 1)
        return FgAbGroup(self.rank + other.rank, chain)

    def gen_orders(self) -> tuple[int, ...]:
        """Orders of the standard generators; 0 marks a free generator."""
        return (0,) * self.rank + self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class FgAbMap(Record):
    """Homomorphism given on standard generators; column j is the image of
    the j-th source generator in target coordinates."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: Matrix):
        s = len(source.gen_orders())
        t = len(target.gen_orders())
        if len(matrix) != t or any(len(row) != s for row in matrix):
            raise ValueError(f"matrix shape {len(matrix)}x? does not match {t}x{s}")
        for j, dj in enumerate(source.gen_orders()):
            if dj == 0:
                continue
            for i, di in enumerate(target.gen_orders()):
                e = matrix[i][j] * dj
                if (di == 0 and e != 0) or (di != 0 and e % di):
                    raise IncompatibleMap(
                        f"column {j} of order {dj} maps outside the target relations"
                    )
        super().__init__(source, target, matrix)

    @classmethod
    def identity(cls, group: FgAbGroup) -> FgAbMap:
        k = len(group.gen_orders())
        return cls(group, group, tuple(tuple(int(i == j) for j in range(k)) for i in range(k)))

    def id_minus(self) -> FgAbMap:
        """The endomorphism id - f; defined when source == target."""
        if self.source != self.target:
            raise ValueError("id - f needs an endomorphism")
        k = len(self.source.gen_orders())
        rows = tuple(
            tuple(int(i == j) - self.matrix[i][j] for j in range(k)) for i in range(k)
        )
        return FgAbMap(self.source, self.target, rows)


def _presentation_matrix(f: FgAbMap) -> list[list[int]]:
    """P = [matrix | target relation columns]; its cokernel is coker(f)."""
    orders = f.target.gen_orders()
    torsion = [k for k, d in enumerate(orders) if d]
    return [
        list(row) + [orders[i] if i == k else 0 for k in torsion]
        for i, row in enumerate(f.matrix)
    ]


def _presentation_group(diag, gens: int) -> FgAbGroup:
    nonzero = [d for d in diag if d]
    torsion = tuple(d for d in nonzero if d > 1)
    return FgAbGroup(gens - len(nonzero), torsion)


def map_cokernel(f: FgAbMap) -> FgAbGroup:
    """target / image(f), by SNF of [matrix | target relations]."""
    P = _presentation_matrix(f)
    return _presentation_group(smith_normal_form(P).diagonal(), len(f.target.gen_orders()))


def map_kernel(f: FgAbMap) -> FgAbGroup:
    """The kernel of f, as an abstract group: ker P / im Psi.

    A point (x, y) of ker P, P = [matrix | target relations], is a
    source vector x with matrix*x = -(target relations)*y, and y is
    determined by x, so ker P is the lattice of source vectors that die
    in the target.  Psi sends each source relation column r to (r, y)
    with y_i = -(matrix*r)_i / d_i over the torsion generators i of the
    target.  ker P is saturated, hence a direct summand of Z^N, so the
    torsion of ker P / im Psi is that of Z^N / im Psi and the kernel is
    _presentation_group(SNF(Psi).diagonal(), nullity(P)).
    """
    P = _presentation_matrix(f)
    t_orders = f.target.gen_orders()
    s = len(f.source.gen_orders())
    cols = []
    for j, d in enumerate(f.source.gen_orders()):
        if d:
            cols.append(
                [d if k == j else 0 for k in range(s)]
                + [-(f.matrix[i][j] * d // e) for i, e in enumerate(t_orders) if e]
            )
    n = s + sum(1 for e in t_orders if e)
    psi = [[col[i] for col in cols] for i in range(n)]
    nullity = n - sum(1 for d in smith_normal_form(P).diagonal() if d)
    return _presentation_group(smith_normal_form(psi).diagonal(), nullity)


def mult_map_ker_coker(m: int, n: int) -> tuple[FgAbGroup, FgAbGroup]:
    """Kernel and cokernel of multiplication by m on Z/nZ; both are
    Z/gcd(m, n)Z, computed through the SNF pipeline rather than asserted.

    >>> mult_map_ker_coker(4, 6)
    (FgAbGroup(rank=0, torsion=(2,)), FgAbGroup(rank=0, torsion=(2,)))
    """
    check_range("n", n, 1)
    if n == 1:
        return FgAbGroup(0), FgAbGroup(0)
    G = FgAbGroup.cyclic(n)
    f = FgAbMap(G, G, ((m % n,),))
    return map_kernel(f), map_cokernel(f)


# ---------------------------------------------------------------------------
# Pimsner-Voiculescu assembly
# ---------------------------------------------------------------------------


def pv_assemble(
    k0: FgAbGroup,
    k1: FgAbGroup,
    alpha0: FgAbMap,
    alpha1: FgAbMap,
) -> tuple[FgAbGroup, FgAbGroup]:
    """K-theory of a crossed product by Z from the coefficient data,
    assuming both boundary sequences split (they do for the group
    algebra assembled below):

        K_0 = coker(id - alpha_0) (+) ker(id - alpha_1)
        K_1 = coker(id - alpha_1) (+) ker(id - alpha_0)
    """
    if alpha0.source != k0 or alpha0.target != k0:
        raise ValueError("alpha0 is not an endomorphism of k0")
    if alpha1.source != k1 or alpha1.target != k1:
        raise ValueError("alpha1 is not an endomorphism of k1")
    d0 = alpha0.id_minus()
    d1 = alpha1.id_minus()
    K0 = map_cokernel(d0).direct_sum(map_kernel(d1))
    K1 = map_cokernel(d1).direct_sum(map_kernel(d0))
    return K0, K1


class KTheoryResult(Record):
    __slots__ = ("K0", "K1", "closed_form", "torsion_gcd", "matches")


def k_theory_of_group(p: int, q: int) -> KTheoryResult:
    """K-theory of C*(Z[1/pq] x| Z^2), assembled by pv_assemble from the
    coefficient data in the module docstring and cross-checked against the
    closed form, which comes out because gcd(p-1, pq-1) = gcd(p-1, q-1).

    >>> str(k_theory_of_group(2, 3).K0)
    'Z^2'
    """
    check_bases(p, q)
    k0 = FgAbGroup(1)
    alpha0 = FgAbMap.identity(k0)
    k1 = FgAbGroup(1, (p * q - 1,))
    alpha1 = FgAbMap(k1, k1, ((1, 0), (0, p)))
    K0, K1 = pv_assemble(k0, k1, alpha0, alpha1)
    g = gcd(p - 1, q - 1)
    closed = FgAbGroup(2, (g,) if g >= 2 else ())
    return KTheoryResult(K0, K1, closed, g, K0 == closed and K1 == closed)
