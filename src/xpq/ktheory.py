"""Finitely generated abelian groups, Smith normal form, and the K-theory
of the group C*-algebra of Z[1/pq] x| Z^2.

Groups are recorded by isomorphism type (free rank plus an ascending
divisibility chain of torsion orders); maps are integer matrices on the
standard generators, free generators first.  Kernels and cokernels are
computed through integer presentation matrices and Smith normal form
over arbitrary-precision integers, so no generator words survive; the
isomorphism type is the contract.

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

from dataclasses import dataclass
from math import gcd

from .errors import IncompatibleMap, OutOfRange
from .exact import factorize

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SNFResult:
    """U * A * V = D with U, V unimodular and D = diag(d_1 | d_2 | ...),
    entries nonnegative."""

    U: Matrix
    D: Matrix
    V: Matrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i][i] for i in range(min(len(self.D), len(self.V))))


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form by naive Euclidean reduction over big integers.

    >>> smith_normal_form([[2, 4], [6, 8]]).diagonal()
    (2, 4)
    """
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(i, k, f):
        Ai, Ak, Ui, Uk = A[i], A[k], U[i], U[k]
        for j in range(n):
            Ai[j] -= f * Ak[j]
        for j in range(m):
            Ui[j] -= f * Uk[j]

    def col_sub(j, k, f):
        for i in range(m):
            A[i][j] -= f * A[i][k]
        for i in range(n):
            V[i][j] -= f * V[i][k]

    def row_swap(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        for i in range(m):
            A[i][j], A[i][k] = A[i][k], A[i][j]
        for i in range(n):
            V[i][j], V[i][k] = V[i][k], V[i][j]

    for t in range(min(m, n)):
        best = None
        pi = pj = -1
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            break
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    f = A[i][t] // A[t][t]
                    row_sub(i, t, f)
                    if A[i][t]:  # nonzero remainder becomes the smaller pivot
                        row_swap(i, t)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    f = A[t][j] // A[t][t]
                    col_sub(j, t, f)
                    if A[t][j]:
                        col_swap(j, t)
                        dirty = True
            if dirty:
                continue
            d = A[t][t]
            offender = -1
            for i in range(t + 1, m):
                if any(A[i][j] % d for j in range(t + 1, n)):
                    offender = i
                    break
            if offender < 0:
                break
            row_sub(t, offender, -1)  # pull the offending row into the pivot row
        if A[t][t] < 0:
            for j in range(n):
                A[t][j] = -A[t][j]
            for j in range(m):
                U[t][j] = -U[t][j]

    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return SNFResult(freeze(U), freeze(A), freeze(V))


# ---------------------------------------------------------------------------
# finitely generated abelian groups and maps
# ---------------------------------------------------------------------------


def _chain_from_divisors(divs) -> tuple[int, ...]:
    # merge arbitrary cyclic orders into an ascending divisibility chain
    by_prime: dict[int, list[int]] = {}
    for d in divs:
        for p, e in factorize(d).pairs:
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    depth = max(len(v) for v in by_prime.values())
    for v in by_prime.values():
        v.sort(reverse=True)
        v.extend([0] * (depth - len(v)))
    factors = []
    for j in range(depth):
        d = 1
        for p, exps in by_prime.items():
            d *= p ** exps[j]
        factors.append(d)
    factors.reverse()
    return tuple(factors)


@dataclass(frozen=True, slots=True)
class FgAbGroup:
    """Isomorphism type Z^rank (+) Z/d_1 (+) ... with d_1 | d_2 | ..., d_i >= 2."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"rank {self.rank} negative")
        prev = 1
        for d in self.torsion:
            if d < 2 or d % prev:
                raise ValueError(f"torsion {self.torsion} is not a divisibility chain")
            prev = d

    @classmethod
    def free(cls, rank: int) -> FgAbGroup:
        return cls(rank, ())

    @classmethod
    def trivial(cls) -> FgAbGroup:
        return cls(0, ())

    @classmethod
    def cyclic(cls, n: int) -> FgAbGroup:
        if n == 0:
            return cls(1, ())
        n = abs(n)
        return cls(0, ()) if n == 1 else cls(0, (n,))

    def direct_sum(self, other: FgAbGroup) -> FgAbGroup:
        return FgAbGroup(
            self.rank + other.rank,
            _chain_from_divisors(list(self.torsion) + list(other.torsion)),
        )

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Number of elements, or None for infinite."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

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


@dataclass(frozen=True, slots=True)
class FgAbMap:
    """Homomorphism given on standard generators; column j is the image of
    the j-th source generator in target coordinates."""

    source: FgAbGroup
    target: FgAbGroup
    matrix: Matrix

    def __post_init__(self):
        s = len(self.source.gen_orders())
        t = len(self.target.gen_orders())
        if len(self.matrix) != t or any(len(row) != s for row in self.matrix):
            raise ValueError(f"matrix shape {len(self.matrix)}x? does not match {t}x{s}")
        for j, dj in enumerate(self.source.gen_orders()):
            if dj == 0:
                continue
            for i, di in enumerate(self.target.gen_orders()):
                e = self.matrix[i][j] * dj
                if (di == 0 and e != 0) or (di != 0 and e % di):
                    raise IncompatibleMap(
                        f"column {j} of order {dj} maps outside the target relations"
                    )

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


def _relation_columns(group: FgAbGroup) -> list[list[int]]:
    orders = group.gen_orders()
    k = len(orders)
    cols = []
    for i, d in enumerate(orders):
        if d:
            col = [0] * k
            col[i] = d
            cols.append(col)
    return cols


def _presentation_group(diag, gens: int) -> FgAbGroup:
    nonzero = [d for d in diag if d]
    torsion = tuple(d for d in nonzero if d > 1)
    return FgAbGroup(gens - len(nonzero), torsion)


def map_cokernel(f: FgAbMap) -> FgAbGroup:
    """target / image(f), by SNF of [matrix | target relations]."""
    t = len(f.target.gen_orders())
    if t == 0:
        return FgAbGroup.trivial()
    cols = [list(col) for col in zip(*f.matrix)] if f.matrix and f.matrix[0] else []
    cols += _relation_columns(f.target)
    if not cols:
        return FgAbGroup.free(t)
    P = [[col[i] for col in cols] for i in range(t)]
    return _presentation_group(smith_normal_form(P).diagonal(), t)


def _integer_kernel_basis(rows: list[list[int]]) -> list[list[int]]:
    # basis of the integer kernel lattice of a matrix with >= 1 rows
    res = smith_normal_form(rows)
    n = len(res.V)
    rank = sum(1 for d in res.diagonal() if d)
    return [[res.V[i][j] for i in range(n)] for j in range(rank, n)]


def _column_lattice_basis(cols: list[list[int]], dim: int) -> list[list[int]]:
    # nonzero columns of G*V form a basis of the column lattice of G
    if not cols:
        return []
    G = [[col[i] for col in cols] for i in range(dim)]
    V = smith_normal_form(G).V
    k = len(cols)
    out = []
    for j in range(k):
        vec = [sum(G[i][l] * V[l][j] for l in range(k)) for i in range(dim)]
        if any(vec):
            out.append(vec)
    return out


def _solve_in_lattice(basis: list[list[int]], v: list[int]) -> list[int]:
    # integer c with B c = v, where B has the basis vectors as columns
    if not basis:
        if any(v):
            raise IncompatibleMap("no integral solution")
        return []
    dim = len(v)
    B = [[col[i] for col in basis] for i in range(dim)]
    res = smith_normal_form(B)
    k = len(basis)
    w = [sum(res.U[i][j] * v[j] for j in range(dim)) for i in range(dim)]
    y = [0] * k
    diag = res.diagonal()
    for i in range(dim):
        if i < k and i < len(diag) and diag[i]:
            if w[i] % diag[i]:
                raise IncompatibleMap("no integral solution")
            y[i] = w[i] // diag[i]
        elif w[i]:
            raise IncompatibleMap("no integral solution")
    return [sum(res.V[i][j] * y[j] for j in range(k)) for i in range(k)]


def map_kernel(f: FgAbMap) -> FgAbGroup:
    """The kernel of f, as an abstract group.

    Solving F x = R_target y picks out the sublattice K of source
    coordinates that die in the target; the kernel is K modulo the
    source relations, presented in the basis of K and read off by SNF.
    """
    s = len(f.source.gen_orders())
    t = len(f.target.gen_orders())
    if s == 0:
        return FgAbGroup.trivial()
    if t == 0:
        return FgAbGroup(f.source.rank, f.source.torsion)
    cols = [list(col) for col in zip(*f.matrix)]
    cols += _relation_columns(f.target)
    A = [[col[i] for col in cols] for i in range(t)]
    kb = _integer_kernel_basis(A)
    basis = _column_lattice_basis([vec[:s] for vec in kb], s)
    rels = _relation_columns(f.source)
    k = len(basis)
    if k == 0:
        return FgAbGroup.trivial()
    if not rels:
        return FgAbGroup.free(k)
    C = [_solve_in_lattice(basis, rel) for rel in rels]  # one column per relation
    P = [[C[j][i] for j in range(len(C))] for i in range(k)]
    return _presentation_group(smith_normal_form(P).diagonal(), k)


def mult_map_ker_coker(m: int, n: int) -> tuple[FgAbGroup, FgAbGroup]:
    """Kernel and cokernel of multiplication by m on Z/nZ; both are
    Z/gcd(m, n)Z, computed through the SNF pipeline rather than asserted.

    >>> mult_map_ker_coker(4, 6)
    (FgAbGroup(rank=0, torsion=(2,)), FgAbGroup(rank=0, torsion=(2,)))
    """
    if n < 1:
        raise OutOfRange(f"modulus {n} out of range; expected n >= 1")
    if n == 1:
        return FgAbGroup.trivial(), FgAbGroup.trivial()
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


@dataclass(frozen=True, slots=True)
class KTheoryResult:
    K0: FgAbGroup
    K1: FgAbGroup
    closed_form: FgAbGroup
    torsion_gcd: int
    matches: bool


def k_theory_of_group(p: int, q: int) -> KTheoryResult:
    """K-theory of C*(Z[1/pq] x| Z^2), assembled and cross-checked.

    The coefficient algebra of the outer Z-action is C*(BS(1, pq)) with
    K_0 = Z and K_1 = Z (+) Z/(pq-1)Z; the action is the identity on K_0
    and fixes the free part of K_1 while multiplying the torsion part by
    p.  The closed form Z^2 (+) Z/gcd(p-1, q-1)Z comes out because
    gcd(p-1, pq-1) = gcd(p-1, q-1).

    >>> str(k_theory_of_group(2, 3).K0)
    'Z^2'
    """
    if p < 2 or q < 2:
        raise OutOfRange(f"bases ({p}, {q}) out of range; expected both >= 2")
    k0 = FgAbGroup.free(1)
    alpha0 = FgAbMap.identity(k0)
    k1 = FgAbGroup(1, (p * q - 1,))
    alpha1 = FgAbMap(k1, k1, ((1, 0), (0, p)))
    K0, K1 = pv_assemble(k0, k1, alpha0, alpha1)
    g = gcd(p - 1, q - 1)
    closed = FgAbGroup(2, (g,) if g >= 2 else ())
    return KTheoryResult(K0, K1, closed, g, K0 == closed and K1 == closed)
