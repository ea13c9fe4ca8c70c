"""Command-line interface.  README.md "Command line" states its
subcommands, formats and exit codes.  Output goes to stdout, warnings and
errors to stderr; for a fixed argv the stdout bytes are identical run to
run.

JSON payloads passed to --trace/--element/--points/--sequence may be
given inline or as @path to read a file.  Modules load as the xpq package
docstring states.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .errors import OutOfRange, XpqError, int_text

ENV_MAX_DENOMINATOR = "XPQ_MAX_DENOMINATOR"


def _one_line(message: str) -> str:
    """message on one line, each unprintable character such as a newline
    escaped, and cut to its first 200 characters and its length when
    longer.  Refusals echo the caller's text whole: argparse a value such as
    -r 10^4300 (4301 digits) and unrecognized arguments raw, QmodZ.parse a
    bad rational."""
    message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)
    return message if len(message) <= 200 else f"{message[:200]}... ({len(message)} characters)"


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1 here, not argparse's 2, and one line:
    # the usage block is left to -h
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {_one_line(message)}\n")


_SCALARS = {str, int, float, bool, type(None)}


def _dumps(value, indent: str = "") -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, each
    line after the first shifted right by indent; dict keys must be str.

    json's C encoder runs only without indent, so this lays out the dicts
    and lists and hands every key and scalar, and each list of scalars as
    a whole, to json.dumps.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{json.dumps(k)}: {_dumps(v, inner)}" for k, v in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) <= _SCALARS:
            body = json.dumps(value, separators=(",\n" + inner, ": "))[1:-1]
        else:
            body = (",\n" + inner).join([_dumps(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(value)


def _emit_json(payload):
    """Write payload as _dumps lays it out, and a newline."""
    sys.stdout.write(_dumps(payload) + "\n")


def _load_json(text: str):
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {text[1:]}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc}") from None


def _params(args):
    from .dynamics import SystemParams
    from .exact import multiplicative_dependence_witness

    params = SystemParams(args.p, args.q)
    if not params.mult_indep:
        w = multiplicative_dependence_witness(args.p, args.q)
        print(
            f"warning: {args.p} and {args.q} are multiplicatively dependent "
            f"({args.p}^{w[0]} = {args.q}^{w[1]}); simplicity, trace and "
            "ideal-space statements need independence",
            file=sys.stderr,
        )
    return params


def _max_den(args, required: bool = True) -> int | None:
    """--max-den, else XPQ_MAX_DENOMINATOR; the command's own library call
    checks the range."""
    if args.max_den is not None:
        return args.max_den
    text = os.environ.get(ENV_MAX_DENOMINATOR)
    if text is None:
        if not required:
            return None
        raise ValueError(f"no denominator bound: pass --max-den or set {ENV_MAX_DENOMINATOR}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{ENV_MAX_DENOMINATOR}={text!r} is not an integer") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_orbits(args) -> int:
    from operator import itemgetter

    from .dynamics import census

    params = _params(args)
    bound = _max_den(args)
    count, orbits = census(params, bound)
    # each orbit's points are one join of its numerators' text from one table
    # (each is below r <= bound), the separator closing one point and opening the next
    text = [str(k) for k in range(bound)]

    def points(nums: tuple[int, ...], sep: str) -> str:
        # itemgetter of a single index returns the bare str, which join would split
        return sep.join(itemgetter(*nums)(text)) if len(nums) > 1 else text[nums[0]]

    out = sys.stdout
    if args.format == "csv":
        # what csv.writer writes: no field needs quoting
        out.write("r,size,index,basis_a,basis_b,basis_c,points\n")
        for orbit in orbits:
            r = orbit.denominator
            (a, b), (_, c) = orbit.stabilizer.basis
            pts = points(orbit.numerators, f"/{r} ")
            out.write(f"{r},{orbit.size},{orbit.stabilizer.index},{a},{b},{c},{pts}/{r}\n")
    elif args.format == "pretty":
        out.write(f"minimal invariant sets for p={params.p}, q={params.q}, r <= {bound}:\n")
        for orbit in orbits:
            r = orbit.denominator
            pts = points(orbit.numerators, f"/{r}, ")
            out.write(f"  r={r}  size={orbit.size}  {{{pts}/{r}}}\n")
        out.write(f"total: {count}\n")
    else:
        # the document _emit_json would write for {"count", "max_denominator",
        # "orbits", "p", "q"}, each orbit laid out as _dumps(orbit_to_json(orbit),
        # "    ") does; the r = 1 orbit is always there, so the list is never empty
        out.write(f'{{\n  "count": {count},\n  "max_denominator": {bound},\n  "orbits": [')
        sep = "\n    "
        for orbit in orbits:
            r = orbit.denominator
            (a, b), (z, c) = orbit.stabilizer.basis
            pts = points(orbit.numerators, f'/{r}",\n        "')
            out.write(
                f'{sep}{{\n      "orbit": [\n        "{pts}/{r}"\n      ],'
                f'\n      "p": {params.p},\n      "q": {params.q},\n      "r": {r},'
                f'\n      "stabilizer": {{\n        "basis": [\n          [\n            {a},'
                f'\n            {b}\n          ],\n          [\n            {z},\n            {c}'
                f'\n          ]\n        ],\n        "index": {orbit.stabilizer.index}\n      }}\n    }}'
            )
            sep = ",\n    "
        out.write(f'\n  ],\n  "p": {params.p},\n  "q": {params.q}\n}}\n')
    return 0


def _cmd_stabilizer(args) -> int:
    from .dynamics import stabilizer_lattice

    params = _params(args)
    lat = stabilizer_lattice(params, args.r)
    (a, b), (z, c) = lat.basis
    if args.format == "pretty":
        print(f"stabilizer of denominator {args.r}: basis ({a}, {b}), (0, {c}); index {lat.index}")
    else:
        _emit_json(
            {
                "p": params.p,
                "q": params.q,
                "r": args.r,
                "basis": [[a, b], [z, c]],
                "index": lat.index,
            }
        )
    return 0


def _cmd_fix(args) -> int:
    from .dynamics import fixed_points, str_digit_limit

    params = _params(args)
    bound = _max_den(args, required=False)
    fix = fixed_points(params, (args.m, args.n), max_denominator=bound)
    digits, limit = str_digit_limit()
    if limit and fix.count >= limit:
        raise OutOfRange(
            f"|Fix({args.m}, {args.n})| = {int_text(fix.count)} has more than {digits} "
            "decimal digits, the limit for printing an integer (sys.get_int_max_str_digits())"
        )
    listed = [str(pt.coord) for pt in fix.sample]
    if args.format == "pretty":
        print(f"|Fix({args.m}, {args.n})| = {fix.count}")
        print(f"points: {', '.join(listed) if listed else '(none listed)'}")
    else:
        _emit_json(
            {
                "p": params.p,
                "q": params.q,
                "m": args.m,
                "n": args.n,
                "count": fix.count,
                "points": listed,
                "complete": len(listed) == fix.count,
            }
        )
    return 0


def _cmd_lift(args) -> int:
    from .dynamics import SolenoidPoint, lift_sequence
    from .exact import QmodZ

    params = _params(args)
    x = SolenoidPoint(QmodZ.parse(args.point))
    seq = lift_sequence(params, x, args.depth)
    listed = [str(pt.coord) for pt in seq]
    if args.format == "pretty":
        print(" -> ".join(listed))
    else:
        _emit_json({"p": params.p, "q": params.q, "point": listed[0], "depth": args.depth, "lifts": listed})
    return 0


def _cmd_trace_eval(args) -> int:
    from .serialize import (
        algebra_element_from_json,
        algebra_element_to_json,
        evaluation_to_json,
        trace_spec_from_json,
        trace_spec_to_json,
    )
    from .traces import trace_eval

    params = _params(args)
    spec = trace_spec_from_json(_load_json(args.trace), params)
    element = algebra_element_from_json(_load_json(args.element), params)
    value = trace_eval(spec, element)
    if args.format == "pretty":
        z = value.approx()
        print(f"trace value: {value}  (~ {z.real:+.6f}{z.imag:+.6f}i)")
    else:
        _emit_json(
            {
                "trace": trace_spec_to_json(spec),
                "element": algebra_element_to_json(element),
                "value": evaluation_to_json(value),
            }
        )
    return 0


def _cmd_moments(args) -> int:
    from .serialize import evaluation_to_json, trace_spec_from_json, trace_spec_to_json
    from .traces import moments

    params = _params(args)
    spec = trace_spec_from_json(_load_json(args.trace), params)
    seq = moments(spec, args.n_max)
    # values of equal period are one shared Cyclotomic (traces.moments), so
    # each object is encoded once, keyed by id while seq holds it: the call
    # holds one encoding per distinct period
    distinct = {id(v): v for v in seq.values}
    out = sys.stdout
    if args.format == "csv":
        # what csv.writer writes: no field needs quoting
        rows = {key: "{0.real!r},{0.imag!r},{1}".format(v.approx(), v) for key, v in distinct.items()}
        out.write("n,re,im,exact\n")
        for n, v in seq.items():
            out.write(f"{n},{rows[id(v)]}\n")
    elif args.format == "pretty":
        rows = {key: "{0.real:+.6f}{0.imag:+.6f}i  ({1})".format(v.approx(), v) for key, v in distinct.items()}
        print(f"moments up to +-{seq.n_max}:")
        for n, v in seq.items():
            print(f"  n={n:+d}  {rows[id(v)]}")
    else:
        # the document _emit_json(serialize.moments_to_json(seq)) would write,
        # one value's text at a time: "values" is its last key and never empty,
        # and "n", the last key of a value, ends it, so each distinct value's
        # text before "n" is laid out once
        end = "\n    }"
        heads = {key: _dumps(evaluation_to_json(v), "    ").removesuffix(end) for key, v in distinct.items()}
        out.write(f'{{\n  "n_max": {seq.n_max},\n  "trace": {_dumps(trace_spec_to_json(spec), "  ")},\n  "values": [')
        sep = "\n    "
        for n, v in seq.items():
            out.write(f'{sep}{heads[id(v)]},\n      "n": {n}{end}')
            sep = ",\n    "
        out.write("\n  ]\n}\n")
    return 0


def _cmd_invariance(args) -> int:
    from .serialize import trace_spec_from_json, trace_spec_to_json
    from .traces import check_pq_invariance, moments

    params = _params(args)
    spec = trace_spec_from_json(_load_json(args.trace), params)
    seq = moments(spec, args.n_max)
    ok = check_pq_invariance(seq, params)
    if args.format == "pretty":
        verdict = "invariant" if ok else "NOT invariant"
        print(f"moment data is {verdict} under x{params.p} and x{params.q}")
    else:
        _emit_json({"invariant": ok, "n_max": args.n_max, "trace": trace_spec_to_json(spec)})
    return 0


def _cmd_ktheory(args) -> int:
    from .ktheory import k_theory_of_group
    from .serialize import ktheory_result_to_json

    params = _params(args)
    result = k_theory_of_group(params.p, params.q)
    if args.format == "pretty":
        print(f"K0 = {result.K0}")
        print(f"K1 = {result.K1}")
        print(f"closed form = {result.closed_form}  (gcd = {result.torsion_gcd})")
        print(f"match: {result.matches}")
    else:
        _emit_json({"p": params.p, "q": params.q, **ktheory_result_to_json(result)})
    return 0


def _cmd_lemma36(args) -> int:
    from .ktheory import mult_map_ker_coker
    from .serialize import fg_ab_group_to_json

    ker, cok = mult_map_ker_coker(args.m, args.n)
    if args.format == "pretty":
        print(f"x{args.m} on Z/{args.n}: kernel {ker}, cokernel {cok}")
    else:
        _emit_json(
            {
                "m": args.m,
                "n": args.n,
                "kernel": fg_ab_group_to_json(ker),
                "cokernel": fg_ab_group_to_json(cok),
            }
        )
    return 0


def _cmd_prim_closure(args) -> int:
    from .primspace import closure
    from .serialize import prim_point_from_json

    data = _load_json(args.points)
    if not isinstance(data, list):
        raise ValueError("--points expects a JSON list of points")
    pts = [prim_point_from_json(entry) for entry in data]
    _emit_closed(args, closure(pts))
    return 0


def _cmd_prim_limit(args) -> int:
    from .primspace import limit_set
    from .serialize import sequence_desc_from_json

    seq = sequence_desc_from_json(_load_json(args.sequence))
    _emit_closed(args, limit_set(seq))
    return 0


def _emit_closed(args, desc):
    from .serialize import closed_set_to_json

    payload = closed_set_to_json(desc)
    if args.format == "pretty":
        if payload["kind"] == "all":
            print("the whole space")
        elif not payload["parts"]:
            print("empty set")
        else:
            for part in payload["parts"]:
                chunk = part["part"]
                shown = "full torus" if chunk == "full" else ", ".join(
                    f"({t1}, {t2})" for t1, t2 in chunk
                )
                print(f"  orbit mod {part['orbit']['r']}: {shown}")
    else:
        _emit_json(payload)


def _cmd_icc_witness(args) -> int:
    from .groupalg import icc_witness
    from .serialize import group_element_from_json, group_element_to_json

    params = _params(args)
    g = group_element_from_json(_load_json(args.element), params)
    found = icc_witness(params, g, args.count)
    if args.format == "pretty":
        print(f"{len(found)} distinct conjugates of (x={g.x.to_fraction(params.p, params.q)}, m={g.m}, n={g.n})")
    else:
        _emit_json(
            {
                "element": group_element_to_json(g),
                "count": args.count,
                "conjugates": [group_element_to_json(h) for h in found],
                "distinct": len(set(found)) == len(found),
            }
        )
    return 0


def _cmd_mult_indep(args) -> int:
    from .exact import multiplicative_dependence_witness

    witness = multiplicative_dependence_witness(args.p, args.q)
    if args.format == "pretty":
        if witness is None:
            print(f"{args.p} and {args.q} are multiplicatively independent")
        else:
            print(f"{args.p}^{witness[0]} = {args.q}^{witness[1]}")
    else:
        payload = {"independent": witness is None}
        payload["witness"] = None if witness is None else {"r": witness[0], "s": witness[1]}
        _emit_json(payload)
    return 0


def _cmd_check(args) -> int:
    from .checks import run_checks

    params = _params(args)
    results = run_checks(
        args.suite, params, seed=args.seed, max_denominator=args.max_den, trials=args.trials
    )
    ok = all(r.ok for r in results)
    if args.format == "pretty":
        for r in results:
            print(f"{r.suite}: {r.passed} passed, {r.failed} failed")
            for msg in r.failures:
                print(f"    FAIL {msg}")
        print("ok" if ok else "FAILED")
    else:
        suites = [{"suite": r.suite, "passed": r.passed, "failed": r.failed, "failures": r.failures}
                  for r in results]
        _emit_json({"ok": ok, "suites": suites})
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


@cache
def build_parser() -> _Parser:
    """The xpq parser, built once per process: parse_args keeps no state
    between calls, so main reuses it."""
    pq = argparse.ArgumentParser(add_help=False)
    pq.add_argument("-p", type=int, required=True)
    pq.add_argument("-q", type=int, required=True)

    parser = _Parser(prog="xpq", description="exact computations for the xp, xq system")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, parents, help_, formats=("json", "pretty")):
        sp = sub.add_parser(name, parents=parents, help=help_)
        sp.add_argument("--format", choices=formats, default="json")
        sp.set_defaults(func=func)
        return sp

    # csv only where the result is a table
    tables = ("json", "csv", "pretty")

    sp = add("orbits", _cmd_orbits, [pq], "enumerate finite minimal invariant sets", tables)
    sp.add_argument("--max-den", type=int, default=None, help=f"denominator bound (default ${ENV_MAX_DENOMINATOR})")

    sp = add("stabilizer", _cmd_stabilizer, [pq], "stabilizer lattice of a denominator")
    sp.add_argument("-r", type=int, required=True)

    sp = add("fix", _cmd_fix, [pq], "fixed points of one group element")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--max-den", type=int, default=None, help=f"bound for the listed points (default ${ENV_MAX_DENOMINATOR})")

    sp = add("lift", _cmd_lift, [pq], "backward orbit under division by pq")
    sp.add_argument("--point", required=True, help='rational point "a/r", r coprime to pq')
    sp.add_argument("--depth", type=int, default=5)

    sp = add("trace-eval", _cmd_trace_eval, [pq], "evaluate a trace on an element")
    sp.add_argument("--trace", required=True, help="TraceSpec JSON (inline or @file)")
    sp.add_argument("--element", required=True, help="group algebra element JSON")

    sp = add("moments", _cmd_moments, [pq], "moment sequence of a trace", tables)
    sp.add_argument("--trace", required=True, help="TraceSpec JSON (inline or @file)")
    sp.add_argument("--n-max", type=int, default=10)

    sp = add("invariance", _cmd_invariance, [pq], "check xp/xq-invariance of moments")
    sp.add_argument("--trace", required=True, help="TraceSpec JSON (inline or @file)")
    sp.add_argument("--n-max", type=int, default=10)

    add("ktheory", _cmd_ktheory, [pq], "K-theory of the group algebra")

    sp = add("lemma36", _cmd_lemma36, [], "kernel/cokernel of xm on Z/nZ")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)

    sp = add("prim-closure", _cmd_prim_closure, [], "closure of points in the ideal space")
    sp.add_argument("--points", required=True, help="JSON list of points (inline or @file)")

    sp = add("prim-limit", _cmd_prim_limit, [], "limit set of a described sequence")
    sp.add_argument("--sequence", required=True, help="sequence JSON (inline or @file)")

    sp = add("icc-witness", _cmd_icc_witness, [pq], "distinct conjugates of an element")
    sp.add_argument("--element", required=True, help="group element JSON")
    sp.add_argument("--count", type=int, default=10)

    add("mult-indep", _cmd_mult_indep, [pq], "multiplicative dependence test")

    sp = add("check", _cmd_check, [], "run property suites against the library")
    sp.add_argument("suite", nargs="?", default="all", help="one suite of xpq.checks, or all (the default)")
    sp.add_argument("-p", type=int, default=2)
    sp.add_argument("-q", type=int, default=3)
    sp.add_argument("--max-den", type=int, default=30)
    sp.add_argument("--trials", type=int, default=25)
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized suites")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if sys.stdout is None:  # started with file descriptor 1 closed
        print("error: cannot write output: stdout is closed", file=sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except XpqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 2
    except OverflowError:
        # an exact value whose float approximation is beyond the float range
        print(f"error: a value is outside the float range in {args.command}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {_one_line(str(exc))}", file=sys.stderr)
        return 1
    except OSError as exc:
        # only writes are left to fail here: _load_json turns read errors
        # into ValueError.  Once the reader has quit, any output still
        # buffered could fail again in the flush at interpreter shutdown,
        # so stdout is pointed at the null device.
        if isinstance(exc, BrokenPipeError):
            _discard_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


def _discard_stdout() -> None:
    """Point the stdout file descriptor at os.devnull, if stdout has one."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # a StringIO in place of stdout
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
