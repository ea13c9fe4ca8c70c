"""The four benchmark workloads: seeded inputs, one op each, and oracles.

Every workload is a closed loop with one caller.  Inputs come in blocks:
block b of a run with seed s is a pure function of (s, b), and each block
is a stratified sample of the workload's input distribution, so runs with
different seeds carry the same load while no two seeds share inputs.
Where a workload rotates pairs or specs over blocks, ROUND blocks make
one full rotation; runs are whole rounds.

The oracles below use only the standard library and the op's own output,
never the library's internals: totients, orbits and Hermite bases are
recomputed here from first principles.  Where an oracle needs exact
cyclotomic arithmetic it calls public ``Cyclotomic`` methods.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

BLOCK = 20  # ops per block for the in-process workloads

# Character denominators.  A character of level k puts trace values at
# level lcm(r, k); the first use of a composite level in the thousands
# builds its cyclotomic polynomial by repeated exact division, which took
# 9 s for one op at level 7161 = lcm(93, 11, 7) on a 2-core x86 host.
# Keeping k | 12 keeps every level at most 12 r.
CHI_DENS = (1, 2, 3, 4, 6, 12)


# ---------------------------------------------------------------------------
# number theory for inputs and oracles, independent of xpq
# ---------------------------------------------------------------------------


def totients(n: int) -> list[int]:
    phi = list(range(n + 1))
    for k in range(2, n + 1):
        if phi[k] == k:
            for m in range(k, n + 1, k):
                phi[m] -= phi[m] // k
    return phi


def orbit_numerators(p: int, q: int, r: int, a0: int) -> list[int]:
    """Sorted numerators of the orbit of a0/r under multiplication by p, q."""
    if r == 1:
        return [0]
    seen = {a0 % r}
    todo = [a0 % r]
    while todo:
        a = todo.pop()
        for b in (a * p % r, a * q % r):
            if b not in seen:
                seen.add(b)
                todo.append(b)
    return sorted(seen)


def order_mod(k: int, r: int) -> int:
    if r == 1:
        return 1
    e, v = 1, k % r
    while v != 1:
        v = v * k % r
        e += 1
    return e


def hermite_basis(p: int, q: int, r: int) -> tuple[int, int, int]:
    """(a, b, c) with {(m, n): p^m q^n = 1 mod r} = <(a, b), (0, c)>."""
    if r == 1:
        return 1, 0, 1
    c = order_mod(q, r)
    qlog = {pow(q, j, r): j for j in range(c)}
    a, pa = 1, p % r
    while pa not in qlog:
        a += 1
        pa = pa * p % r
    return a, (c - qlog[pa]) % c, c


def orbit_json(p: int, q: int, r: int, a0: int) -> dict:
    a, b, c = hermite_basis(p, q, r)
    return {
        "p": p,
        "q": q,
        "r": r,
        "orbit": [f"{x}/{r}" for x in orbit_numerators(p, q, r, a0)],
        "stabilizer": {"basis": [[a, b], [0, c]], "index": a * c},
    }


def _prime_exponents(n: int) -> dict[int, int]:
    out, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, int(n**0.5) + 1))


def full_orbit_primes(p: int, q: int, centre: float, rel: float) -> list[int]:
    """The primes r within rel of centre on which p and q generate all of
    (Z/rZ)^*, widening rel until there is one.  They do unless both are
    ell-th powers for a prime ell dividing r - 1."""
    while True:
        found = [
            r for r in range(int(centre * (1 - rel)), int(centre * (1 + rel)) + 1)
            if r > max(p, q) and is_prime(r) and all(
                pow(p, (r - 1) // ell, r) != 1 or pow(q, (r - 1) // ell, r) != 1
                for ell in _prime_exponents(r - 1)
            )
        ]
        if found:
            return found
        rel *= 2


def independent(p: int, q: int) -> bool:
    ep, eq = _prime_exponents(p), _prime_exponents(q)
    if set(ep) != set(eq):
        return True
    ratios = {Fraction(ep[k], eq[k]) for k in ep}
    return len(ratios) > 1


def coprime_in(rng: random.Random, lo: int, hi: int, pq: int) -> int:
    while True:
        r = rng.randrange(lo, hi)
        if gcd(r, pq) == 1:
            return r


def unit_mod(rng: random.Random, r: int) -> int:
    if r == 1:
        return 0
    while True:
        a = rng.randrange(1, r)
        if gcd(a, r) == 1:
            return a


def rational_mod1(rng: random.Random, dens) -> str:
    den = rng.choice(dens)
    num = rng.randrange(den)
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def canonical_x(rng: random.Random, p: int, q: int) -> tuple[int, int, int]:
    """(num, a, b) of num / (p^a q^b) in canonical form, for coprime p, q."""
    while True:
        num, a, b = rng.randint(-12, 12), rng.randint(0, 2), rng.randint(0, 2)
        if num == 0:
            return 0, 0, 0
        if (a and num % p == 0) or (b and num % q == 0):
            continue
        return num, a, b


def random_terms(rng: random.Random, p: int, q: int, count: int):
    """count distinct group elements (num, a, b, m, n) with coefficients."""
    keys = set()
    while len(keys) < count:
        keys.add(canonical_x(rng, p, q) + (rng.randint(-2, 2), rng.randint(-2, 2)))
    return [(key, Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)))
            for key in sorted(keys)]


def terms_json(terms) -> dict:
    return {
        "terms": [
            {"g": {"x": {"num": str(num), "a": a, "b": b}, "m": m, "n": n}, "c": str(c)}
            for (num, a, b, m, n), c in terms
        ]
    }


def _qz(text: str) -> Fraction:
    return Fraction(text) % 1


class Outcome:
    """What one op returned: its output bytes plus data for the oracle."""

    __slots__ = ("stdout", "info")

    def __init__(self, stdout: bytes, info: dict):
        self.stdout = stdout
        self.info = info


def _block_rng(seed: int, name: str, b: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{b}")


# ---------------------------------------------------------------------------
# orbit_census: `xpq orbits` in-process
# ---------------------------------------------------------------------------


class OrbitCensus:
    """`xpq orbits -p P -q Q --max-den N` through xpq.cli.main, stdout captured.

    N is log-uniform on [100, 1500]: a block holds one draw from the middle
    half of each of its BLOCK strata.  The pair cycles through PAIRS so
    that every five consecutive blocks give each stratum every pair.
    """

    name = "orbit_census"
    PAIRS = ((2, 3), (2, 5), (3, 4), (5, 7), (6, 10))
    ROUND = len(PAIRS)
    MAX_DEN = 1500

    def __init__(self, seed: int):
        self.seed = seed
        self.offset = random.Random(f"{self.name}:{seed}").randrange(len(self.PAIRS))
        self.phi = totients(self.MAX_DEN)

    def block(self, b: int) -> list:
        rng = _block_rng(self.seed, self.name, b)
        ops = []
        for k in range(BLOCK):
            u = (k + 0.25 + 0.5 * rng.random()) / BLOCK
            bound = round(100 * (self.MAX_DEN / 100) ** u)
            p, q = self.PAIRS[(b + k + self.offset) % len(self.PAIRS)]
            ops.append({"p": p, "q": q, "max_den": bound})
        rng.shuffle(ops)
        return ops

    def run(self, op, traced: bool) -> Outcome:
        import xpq.cli

        argv = ["orbits", "-p", str(op["p"]), "-q", str(op["q"]), "--max-den", str(op["max_den"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = xpq.cli.main(argv)
        return Outcome(out.getvalue().encode(), {"code": code, "stderr": err.getvalue()})

    def check(self, op, res: Outcome) -> str | None:
        if res.info["code"] != 0 or res.info["stderr"]:
            return f"exit {res.info['code']}: {res.info['stderr'][:200]}"
        p, q, bound = op["p"], op["q"], op["max_den"]
        data = json.loads(res.stdout)
        if (data["p"], data["q"], data["max_denominator"]) != (p, q, bound):
            return "echoed parameters differ"
        orbits = data["orbits"]
        if data["count"] != len(orbits):
            return "count differs from the orbit list"
        total = 0
        for orbit in orbits:
            r, points = orbit["r"], orbit["orbit"]
            (a, b), (z, c) = orbit["stabilizer"]["basis"]
            if gcd(r, p * q) != 1 or r > bound:
                return f"denominator {r} outside the census"
            if len(points) != orbit["stabilizer"]["index"] or a * c != len(points):
                return f"orbit mod {r}: size {len(points)} is not the stabilizer index"
            if len(set(points)) != len(points):
                return f"orbit mod {r} repeats a point"
            if z != 0 or pow(p, a, r) * pow(q, b, r) % r != 1 % r or pow(q, c, r) != 1 % r:
                return f"orbit mod {r}: basis {orbit['stabilizer']['basis']} is not in the stabilizer"
            total += len(points)
        expected = sum(self.phi[r] for r in range(1, bound + 1) if gcd(r, p * q) == 1)
        if total != expected:
            return f"orbit sizes sum to {total}, totients to {expected}"
        return None


# ---------------------------------------------------------------------------
# trace_moments: decode a finite_orbit spec, moments, invariance, encode
# ---------------------------------------------------------------------------


class TraceMoments:
    """Decode a `finite_orbit` trace spec from JSON (as `xpq moments --trace
    @file` does), then moments, check_pq_invariance and moments_to_json.

    The spec pool has ENTRIES entries for each of BLOCK strata of a
    log-uniform r on [30, 10^4]: a prime within 5% of the stratum's
    centre on which the pair generates every unit, so the orbit has r - 1
    points, and r = 10007 for the top stratum's first entry.  Block b
    takes entry (b + k + offset) % ENTRIES of stratum k, so the first
    ENTRIES blocks meet every entry cold and later blocks repeat them with
    warm caches.  The pair and n_max rotate over the entries of a stratum,
    so every block holds the same mix of them.

    The cost of an op follows r, the orbit size and n_max, and the top
    decile of ops decides latency_p90_ms, so these are pinned and only
    the exact prime, the character and the rotation offset vary with the
    seed.  r is prime because the cost of a composite level swings with
    its factorization: the first use of one in the thousands computes its
    cyclotomic polynomial by repeated exact division, up to ten seconds
    for one op on a 2-core x86 host.  A few such draws would decide a
    run's figures; algebra_positivity exercises small composite levels.
    """

    name = "trace_moments"
    PAIRS = ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7))
    ENTRIES = ROUND = 4
    R_LO, R_HI, N_MIN, N_MAX = 30, 10_000, 8, 12

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.offset = rng.randrange(self.ENTRIES)
        self.pool = []
        for k in range(BLOCK):
            centre = self.R_LO * (self.R_HI / self.R_LO) ** ((k + 0.5) / BLOCK)
            entries = []
            for j in range(self.ENTRIES):
                p, q = self.PAIRS[(k + j + self.offset) % len(self.PAIRS)]
                if k == BLOCK - 1 and j == 0:
                    r = 10007
                else:
                    r = rng.choice(full_orbit_primes(p, q, centre, 0.05))
                a0 = unit_mod(rng, r)
                chi = {"t1": rational_mod1(rng, CHI_DENS), "t2": rational_mod1(rng, CHI_DENS)}
                orbit = orbit_json(p, q, r, a0)
                spec = {"kind": "finite_orbit", "orbit": orbit, "chi": chi}
                entries.append({
                    "p": p,
                    "q": q,
                    "r": r,
                    "n_max": self.N_MIN + (j + k) % self.ENTRIES * (self.N_MAX - self.N_MIN) // (self.ENTRIES - 1),
                    "spec": json.dumps(spec),
                    "nums": [int(s.partition("/")[0]) for s in orbit["orbit"]],
                })
            self.pool.append(entries)

    def block(self, b: int) -> list:
        ops = [entries[(b + k + self.offset) % self.ENTRIES] for k, entries in enumerate(self.pool)]
        _block_rng(self.seed, self.name, b).shuffle(ops)
        return ops

    def run(self, op, traced: bool) -> Outcome:
        from xpq import (
            SystemParams,
            check_pq_invariance,
            moments,
            moments_to_json,
            trace_spec_from_json,
        )

        params = SystemParams(op["p"], op["q"])
        spec = trace_spec_from_json(json.loads(op["spec"]), params)
        seq = moments(spec, op["n_max"])
        invariant = check_pq_invariance(seq, params)
        text = json.dumps(moments_to_json(seq), sort_keys=True, indent=2) + "\n"
        return Outcome(text.encode(), {"seq": seq, "invariant": invariant})

    def check(self, op, res: Outcome) -> str | None:
        seq, n_max = res.info["seq"], op["n_max"]
        if res.info["invariant"] is not True:
            return "check_pq_invariance is not True"
        if seq.value(0) != 1:
            return "value(0) != 1"
        for n in range(1, n_max + 1):
            if seq.value(-n) != seq.value(n).conj():
                return f"value(-{n}) != conj(value({n}))"
        # the emitted approximations against the orbit average, in floats;
        # negative indices are covered by the exact conjugate check above
        nums, r = op["nums"], op["r"]
        values = json.loads(res.stdout)["values"]
        if [v["n"] for v in values] != list(range(-n_max, n_max + 1)):
            return "moment indices differ"
        for v in values[n_max:]:
            n = v["n"]
            mean = sum(cmath.exp(2j * cmath.pi * (a * n % r) / r) for a in nums) / len(nums)
            if abs(complex(v["approx"]["re"], v["approx"]["im"]) - mean) > 1e-6:
                return f"moment {n} is not the orbit average of z^{n}"
        return None


# ---------------------------------------------------------------------------
# algebra_positivity: tau(a* a) under three traces, plus the witness
# ---------------------------------------------------------------------------


class AlgebraPositivity:
    """Build a of 10 to 20 terms, form a.star() * a and evaluate it under
    the canonical trace, an OrbitMeasureTrace and a FiniteOrbitTrace with a
    random rational character over an orbit with r <= 100; evaluate the
    orbit's nonfaithful_witness w as w.star() * w the same way."""

    name = "algebra_positivity"
    PAIRS = ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7))
    ROUND = len(PAIRS)

    def __init__(self, seed: int):
        self.seed = seed

    def block(self, b: int) -> list:
        rng = _block_rng(self.seed, self.name, b)
        ops = []
        for k in range(BLOCK):
            p, q = self.PAIRS[(b + k) % len(self.PAIRS)]
            r = coprime_in(rng, 2, 101, p * q)
            ops.append({
                "p": p,
                "q": q,
                "terms": random_terms(rng, p, q, 10 + k % 11),
                "r": r,
                "a0": unit_mod(rng, r),
                "chi": (rational_mod1(rng, CHI_DENS), rational_mod1(rng, CHI_DENS)),
            })
        rng.shuffle(ops)
        return ops

    def run(self, op, traced: bool) -> Outcome:
        from xpq import (
            CanonicalTrace,
            Character,
            FiniteOrbitTrace,
            GroupAlgebraElement,
            GroupElement,
            OrbitMeasureTrace,
            PqRational,
            QmodZ,
            SolenoidPoint,
            SystemParams,
            nonfaithful_witness,
            orbit_of,
            trace_eval,
        )

        params = SystemParams(op["p"], op["q"])
        a = GroupAlgebraElement.from_terms(
            params,
            [(GroupElement(PqRational(num, ea, eb), m, n), c) for (num, ea, eb, m, n), c in op["terms"]],
        )
        product = a.star() * a
        orbit = orbit_of(params, SolenoidPoint.of(op["a0"], op["r"]))
        t1, t2 = (QmodZ.parse(t) for t in op["chi"])
        specs = (
            CanonicalTrace(params),
            OrbitMeasureTrace(orbit),
            FiniteOrbitTrace(orbit, Character(orbit.stabilizer, t1, t2)),
        )
        w = nonfaithful_witness(orbit)
        witness = w.star() * w
        values = [trace_eval(s, product) for s in specs] + [trace_eval(s, witness) for s in specs]
        text = f"{len(product.terms)}\n" + "".join(f"{v}\n" for v in values)
        return Outcome(text.encode(), {"values": values})

    def check(self, op, res: Outcome) -> str | None:
        canon, measure, finite, w_canon, w_measure, w_finite = res.info["values"]
        expected = sum(c * c for _, c in op["terms"])
        if not canon.is_rational() or canon.to_fraction() != expected:
            return f"canonical tau(a* a) = {canon}, not the sum of squares {expected}"
        for label, v in (("orbit measure", measure), ("finite orbit", finite)):
            if v != v.conj():
                return f"{label} tau(a* a) is not real"
            if v.approx().real < -1e-9:
                return f"{label} tau(a* a) is negative"
        if not (w_measure.is_zero() and w_finite.is_zero()):
            return "orbit traces do not vanish on w* w"
        if w_canon != 2:
            return "canonical trace of w* w is not 2"
        return None


# ---------------------------------------------------------------------------
# cli_session: short `xpq` subprocess calls, one at a time
# ---------------------------------------------------------------------------

CLI_ENTRY = "import sys; from xpq.cli import main; sys.exit(main())"
INDEPENDENT_PAIRS = ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7), (3, 4), (5, 6))

# refusals: malformed argv or JSON that must end with exit 1 or 2, empty
# stdout and no traceback.  The first two are defects observed in the
# seed commit (a traceback, and exit 0 with a negative count).
REFUSALS = (
    ["prim-limit", "--sequence", '{"tail":{"kind":"escaping"},"prefix":5}'],
    ["icc-witness", "-p", "2", "-q", "3", "--element", '{"x":{"num":"1","a":0,"b":0},"m":1,"n":0}', "--count", "-5"],
    ["stabilizer", "-p", "2", "-q", "3", "-r", "6"],
    ["lemma36", "-m", "3", "-n", "0"],
    ["orbits", "-p", "2", "-q", "3"],
    ["moments", "-p", "2", "-q", "3", "--trace", "{"],
    ["frobnicate"],
)


class CliSession:
    """A fixed mix of `xpq` subcommands, each a fresh subprocess, with
    seeded arguments and known answers, plus the refusals above."""

    name = "cli_session"
    ROUND = 1

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.src = os.path.join(root, "src")
        self.here = os.path.dirname(os.path.abspath(__file__))
        env = {k: v for k, v in os.environ.items() if not k.startswith("XPQ_")}
        env["PYTHONPATH"] = self.src
        self.env = env

    def block(self, b: int) -> list:
        rng = _block_rng(self.seed, self.name, b)
        ops = [gen(rng) for gen in _CLI_GENERATORS]
        ops += [{"kind": "refuse", "argv": list(argv)} for argv in REFUSALS]
        rng.shuffle(ops)
        return ops

    def run(self, op, traced: bool) -> Outcome:
        env = self.env
        if traced:
            read_fd, write_fd = os.pipe()
            env = dict(env, BENCH_TRACE_FD=str(write_fd))
            argv = [sys.executable, os.path.join(self.here, "traced_cli.py")] + op["argv"]
            pass_fds = (write_fd,)
        else:
            argv = [sys.executable, "-c", CLI_ENTRY] + op["argv"]
            pass_fds = ()
        try:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    env=env, pass_fds=pass_fds)
        finally:
            if traced:
                os.close(write_fd)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        info = {"code": proc.returncode, "stderr": err.decode(errors="replace")}
        if traced:
            with os.fdopen(read_fd) as fh:
                text = fh.read()
            info["trace"] = json.loads(text) if text else {}
        return Outcome(out, info)

    def check(self, op, res: Outcome) -> str | None:
        code, err = res.info["code"], res.info["stderr"]
        if "Traceback" in err:
            return f"traceback: {err.strip().splitlines()[-1][:200]}"
        if op["kind"] == "refuse":
            if code not in (1, 2) or res.stdout:
                return f"{op['argv'][0]}: expected a refusal (exit 1 or 2), got exit {code}"
            return None
        if code != 0:
            return f"{op['kind']}: exit {code}: {err.strip()[:200]}"
        return _CLI_CHECKS[op["kind"]](op, json.loads(res.stdout))


def _pair(rng):
    return rng.choice(INDEPENDENT_PAIRS)


def _torsion(g: int) -> list[int]:
    return [g] if g > 1 else []


def _gen_ktheory(rng):
    while True:
        p, q = rng.randint(2, 40), rng.randint(2, 40)
        if independent(p, q):
            return {"kind": "ktheory", "p": p, "q": q, "argv": ["ktheory", "-p", str(p), "-q", str(q)]}


def _check_ktheory(op, data):
    g = gcd(op["p"] - 1, op["q"] - 1)
    want = {"rank": 2, "torsion": _torsion(g)}
    if not (data["K0"] == data["K1"] == data["closed_form"] == want):
        return f"K-theory of ({op['p']}, {op['q']}) is not Z^2 + Z/{g}"
    if data["torsion_gcd"] != g or data["matches"] is not True:
        return "torsion_gcd or matches is wrong"
    return None


def _gen_lemma36(rng):
    m, n = rng.randint(1, 10**6), rng.randint(1, 10**6)
    return {"kind": "lemma36", "m": m, "n": n, "argv": ["lemma36", "-m", str(m), "-n", str(n)]}


def _check_lemma36(op, data):
    want = {"rank": 0, "torsion": _torsion(gcd(op["m"], op["n"]))}
    if data["kernel"] != want or data["cokernel"] != want:
        return f"lemma36 {op['m']} {op['n']}: not Z/gcd(m, n)"
    return None


def _gen_stabilizer(rng):
    p, q = _pair(rng)
    r = coprime_in(rng, 2, 20_000, p * q)
    return {"kind": "stabilizer", "p": p, "q": q, "r": r,
            "argv": ["stabilizer", "-p", str(p), "-q", str(q), "-r", str(r)]}


def _check_stabilizer(op, data):
    p, q, r = op["p"], op["q"], op["r"]
    (a, b), (z, c) = data["basis"]
    if z != 0 or a <= 0 or not 0 <= b < c:
        return "basis is not in Hermite form"
    if pow(p, a, r) * pow(q, b, r) % r != 1 or pow(q, c, r) != 1:
        return f"basis vectors are not in the stabilizer mod {r}"
    if c != order_mod(q, r) or data["index"] != a * c or a * c != len(orbit_numerators(p, q, r, 1)):
        return f"index {data['index']} is not |<p, q>| mod {r}"
    return None


def _gen_fix(rng):
    p, q = _pair(rng)
    m, n = 0, 0
    while (m, n) == (0, 0):
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
    bound = rng.randint(10, 60)
    return {"kind": "fix", "p": p, "q": q, "m": m, "n": n, "bound": bound,
            "argv": ["fix", "-p", str(p), "-q", str(q), "-m", str(m), "-n", str(n), "--max-den", str(bound)]}


def _check_fix(op, data):
    p, q = op["p"], op["q"]
    t = abs((Fraction(p) ** op["m"] * Fraction(q) ** op["n"] - 1).numerator)
    while gcd(t, p * q) > 1:
        t //= gcd(t, p * q)
    want = sorted(
        (Fraction(a, d) for d in range(1, op["bound"] + 1) if t % d == 0
         for a in range(d) if gcd(a, d) == 1)
    )
    if data["count"] != t:
        return f"|Fix| = {data['count']}, expected {t}"
    if sorted(_qz(s) for s in data["points"]) != want or data["complete"] != (len(want) == t):
        return "listed fixed points differ"
    return None


def _gen_lift(rng):
    p, q = _pair(rng)
    r = coprime_in(rng, 2, 500, p * q)
    a = unit_mod(rng, r)
    depth = rng.randint(1, 8)
    return {"kind": "lift", "p": p, "q": q, "point": f"{a}/{r}", "depth": depth,
            "argv": ["lift", "-p", str(p), "-q", str(q), "--point", f"{a}/{r}", "--depth", str(depth)]}


def _check_lift(op, data):
    lifts = [Fraction(s) for s in data["lifts"]]
    if len(lifts) != op["depth"] + 1 or lifts[0] != Fraction(op["point"]):
        return "lift sequence has the wrong start or length"
    pq = op["p"] * op["q"]
    den = Fraction(op["point"]).denominator
    for x, y in zip(lifts, lifts[1:]):
        if (pq * y - x).denominator != 1 or y.denominator != den:
            return "pq * x_(i+1) != x_i on the circle"
    return None


def _gen_mult_indep(rng):
    if rng.random() < 0.5:
        p, q = _pair(rng)
        return {"kind": "mult_indep", "p": p, "q": q, "witness": None,
                "argv": ["mult-indep", "-p", str(p), "-q", str(q)]}
    base = rng.choice((2, 3, 5, 6))
    i, j = rng.sample(range(1, 5), 2)
    g = gcd(i, j)
    p, q = base**i, base**j
    return {"kind": "mult_indep", "p": p, "q": q, "witness": {"r": j // g, "s": i // g},
            "argv": ["mult-indep", "-p", str(p), "-q", str(q)]}


def _check_mult_indep(op, data):
    if data["independent"] != (op["witness"] is None) or data["witness"] != op["witness"]:
        return f"mult-indep ({op['p']}, {op['q']}) is wrong"
    return None


def _gen_trace_eval(rng):
    p, q = rng.choice(((2, 3), (2, 5), (3, 5), (2, 7)))
    terms = random_terms(rng, p, q, rng.randint(3, 8))
    if rng.random() < 0.5:
        terms = [t for t in terms if t[0] != (0, 0, 0, 0, 0)] + [((0, 0, 0, 0, 0), Fraction(rng.randint(1, 9), 7))]
    unit = sum((c for key, c in terms if key == (0, 0, 0, 0, 0)), Fraction(0))
    return {"kind": "trace_eval", "value": unit,
            "argv": ["trace-eval", "-p", str(p), "-q", str(q), "--trace", '{"kind":"canonical"}',
                     "--element", json.dumps(terms_json(terms))]}


def _check_trace_eval(op, data):
    coeffs = [Fraction(c) for c in data["value"]["exact"]["coeffs"]]
    if coeffs[0] != op["value"] or any(coeffs[1:]):
        return "canonical trace is not the identity coefficient"
    return None


def _orbit_points(rng, p, q, count):
    """count orbit_char points on distinct small orbits, with their chis."""
    rs = set()
    while len(rs) < count:
        rs.add(coprime_in(rng, 2, 60, p * q))
    out = []
    for r in sorted(rs):
        orbit = orbit_json(p, q, r, unit_mod(rng, r))
        chis = {(rational_mod1(rng, CHI_DENS), rational_mod1(rng, CHI_DENS)) for _ in range(rng.randint(1, 3))}
        out.append((orbit, sorted(chis)))
    return out


def _gen_prim_closure(rng):
    p, q = _pair(rng)
    groups = _orbit_points(rng, p, q, rng.randint(1, 3))
    points = [{"kind": "orbit_char", "orbit": orbit, "chi": {"t1": t1, "t2": t2}}
              for orbit, chis in groups for t1, t2 in chis]
    with_infinity = rng.random() < 0.25
    if with_infinity:
        points.append({"kind": "infinity"})
    rng.shuffle(points)
    return {"kind": "prim_closure", "groups": None if with_infinity else groups,
            "argv": ["prim-closure", "--points", json.dumps(points)]}


def _same_parts(data, groups):
    if groups is None:
        return data == {"kind": "all"}
    if data.get("kind") != "union" or len(data["parts"]) != len(groups):
        return False
    want = {
        (orbit["r"], frozenset(orbit["orbit"])): {(_qz(t1), _qz(t2)) for t1, t2 in chis}
        for orbit, chis in groups
    }
    got = {
        (part["orbit"]["r"], frozenset(part["orbit"]["orbit"])): {(_qz(t1), _qz(t2)) for t1, t2 in part["part"]}
        for part in data["parts"]
    }
    return got == want


def _check_prim_closure(op, data):
    return None if _same_parts(data, op["groups"]) else "closure differs from the given points"


def _gen_prim_limit(rng):
    p, q = _pair(rng)
    if rng.random() < 0.25:
        seq = {"tail": {"kind": "escaping"}, "prefix": []}
        groups = None
    else:
        (orbit, chis), = _orbit_points(rng, p, q, 1)
        t1, t2 = chis[0]
        seq = {
            "tail": {"kind": "constant_orbit", "orbit": orbit, "chi_limit": {"t1": t1, "t2": t2}},
            "prefix": [{"kind": "orbit_char", "orbit": orbit, "chi": {"t1": t2, "t2": t1}}],
        }
        groups = [(orbit, [(t1, t2)])]
    return {"kind": "prim_limit", "groups": groups, "argv": ["prim-limit", "--sequence", json.dumps(seq)]}


def _check_prim_limit(op, data):
    return None if _same_parts(data, op["groups"]) else "limit set differs from the tail"


def _gen_icc_witness(rng):
    p, q = _pair(rng)
    if rng.random() < 0.5:
        num, a, b = 0, 0, 0
        while num == 0:
            num, a, b = canonical_x(rng, p, q)
        m, n = rng.randint(-2, 2), rng.randint(-2, 2)
    else:
        num, a, b = 0, 0, 0
        m, n = 0, 0
        while (m, n) == (0, 0):
            m, n = rng.randint(-2, 2), rng.randint(-2, 2)
    count = rng.randint(1, 30)
    element = {"x": {"num": str(num), "a": a, "b": b}, "m": m, "n": n}
    return {"kind": "icc_witness", "count": count,
            "argv": ["icc-witness", "-p", str(p), "-q", str(q), "--element", json.dumps(element),
                     "--count", str(count)]}


def _check_icc_witness(op, data):
    keys = {json.dumps(g, sort_keys=True) for g in data["conjugates"]}
    if len(data["conjugates"]) != op["count"] or len(keys) != op["count"] or data["distinct"] is not True:
        return f"icc-witness did not give {op['count']} distinct conjugates"
    return None


def _gen_check(rng):
    seed = rng.randrange(10**6)
    return {"kind": "check", "argv": ["check", "all", "--trials", "2", "--max-den", "8", "--seed", str(seed)]}


def _check_check(op, data):
    return None if data["ok"] is True else "check suite reported failures"


# three commands come twice, so a block holds 21 ops and 5 blocks pass 100
_CLI_GENERATORS = (
    _gen_ktheory, _gen_lemma36, _gen_stabilizer, _gen_fix, _gen_lift, _gen_mult_indep,
    _gen_trace_eval, _gen_prim_closure, _gen_prim_limit, _gen_icc_witness, _gen_check,
    _gen_ktheory, _gen_stabilizer, _gen_lift,
)
_CLI_CHECKS = {
    "ktheory": _check_ktheory,
    "lemma36": _check_lemma36,
    "stabilizer": _check_stabilizer,
    "fix": _check_fix,
    "lift": _check_lift,
    "mult_indep": _check_mult_indep,
    "trace_eval": _check_trace_eval,
    "prim_closure": _check_prim_closure,
    "prim_limit": _check_prim_limit,
    "icc_witness": _check_icc_witness,
    "check": _check_check,
}


def make(name: str, seed: int, root: str):
    if name == "orbit_census":
        return OrbitCensus(seed)
    if name == "trace_moments":
        return TraceMoments(seed)
    if name == "algebra_positivity":
        return AlgebraPositivity(seed)
    if name == "cli_session":
        return CliSession(seed, root)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("orbit_census", "trace_moments", "algebra_positivity", "cli_session")
