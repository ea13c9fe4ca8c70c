"""The programs the CI workflow runs besides pytest, one task each.

    PYTHONPATH=src python tests/sweeps.py [NAME ...]

runs the named tasks in the order given, or every check when no name is
given, and stops at the first that fails: a check exits 1 with its message,
an unknown name exits 2, and output that cannot be written, as when the
reader quits first, exits 1 with one line.  Run it from anywhere; paths are
read from the repository root.  There is no option, so no run can change a
bound.

The checks are the reference sweeps of SWEEPS, which compare the library
with the oracles of tests/helpers.py (they need the test dependencies), the
Cyclotomic sweep, the size report and the unused-import lint.  The other
tasks are writers: they print, on stdout, the JSON inputs of the
bounded-memory steps, which keep their ulimit in the shell.
"""

import ast
import json
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# task: (mismatch function of tests/helpers.py, (p, q) pairs, its arguments
# after SystemParams(p, q), failure message given the first ten mismatches)
SWEEPS = {
    "census-lattices": ("census_mismatches", ((2, 3), (5, 7), (4, 6), (6, 10), (2, 4), (9, 25)), (5000,),
                        "census at ({p}, {q}) differs from the reference at r = {bad}"),
    "census-orbits": ("orbit_mismatches", ((2, 3), (5, 7), (12, 23), (2, 4), (9, 25)), (2000,),
                      "census orbits at ({p}, {q}) differ from the BFS partition at r = {bad}"),
    "orbit-means": ("orbit_mean_mismatches", ((2, 3), (5, 7), (2, 5), (4, 6)), (400,),
                    "orbit means at ({p}, {q}) differ from the point loop at (r, numerator, w) = {bad}"),
    "trace-sums": ("trace_mismatches", ((2, 3), (5, 7), (2, 5), (4, 6)), (200, 4),
                   "trace_eval at ({p}, {q}) differs from the reference at (r, numerator, trace, element) = {bad}"),
    "moments": ("moment_mismatches", ((2, 3), (5, 7), (2, 5), (4, 6)), (200,),
                "moments at ({p}, {q}) differ from the unit evaluations at (trace, r, numerator, n) = {bad}"),
    "algebra": ("algebra_mismatches", ((2, 3), (5, 7), (4, 6), (6, 10), (2, 4)), (2000,),
                "Q[G] operations at ({p}, {q}) differ from the reference at (i, operation) = {bad}"),
}


def sweep(helper: str, pairs, args, message: str) -> None:
    import helpers
    from xpq import SystemParams

    for p, q in pairs:
        if bad := getattr(helpers, helper)(SystemParams(p, q), *args):
            sys.exit(message.format(p=p, q=q, bad=bad[:10]))


def cyclotomic() -> None:
    from helpers import cyclotomic_mismatches

    if bad := cyclotomic_mismatches(range(1, 301)):
        sys.exit(f"Cyclotomic differs from the dense reference at (level, check) = {bad[:10]}")


def code_lines(text: str) -> int:
    """The lines of a Python source that are not blank, a comment or part of
    a module, class or function docstring."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = {i for node in ast.walk(ast.parse(text)) if isinstance(node, kinds) and ast.get_docstring(node) is not None
            for i in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docs)


def size() -> None:
    """The lines and code lines of src/xpq, then of each of its modules, then
    the lines of README.md."""
    counts = {}
    for path in sorted((ROOT / "src/xpq").glob("*.py")):
        text = path.read_text()
        counts[path.stem] = len(text.splitlines()), code_lines(text)
    total, code = map(sum, zip(*counts.values()))
    print(f"src/xpq: {total} lines, {code} code lines (not blank, comment or docstring)")
    for module, (module_total, module_code) in counts.items():
        print(f"{module}: {module_total} lines, {module_code} code lines")
    print(f"README.md: {len((ROOT / 'README.md').read_text(encoding='utf-8').splitlines())} lines")


def unused_imports() -> None:
    """Every name imported in src/xpq and tests is read; imports from
    __future__ and lines marked noqa F401 are exempt."""
    bad = []
    for path in sorted([*(ROOT / "src/xpq").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                    and "# noqa: F401" not in lines[node.lineno - 1]):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
                bad += [f"{path.relative_to(ROOT)}:{node.lineno}: {name} is imported and never read"
                        for name in names if name != "*" and name not in read]
    if bad:
        sys.exit("\n".join(bad))


def orbit_spec() -> None:
    """The orbit_measure spec of the last orbit of an `xpq orbits` JSON
    document read on stdin."""
    json.dump({"kind": "orbit_measure", "orbit": json.load(sys.stdin)["orbits"][-1]}, sys.stdout)


def measure(q: int, r: int) -> None:
    """The spec of the orbit measure of 1/r at (2, q)."""
    from xpq import OrbitMeasureTrace, SolenoidPoint, SystemParams, orbit_of, trace_spec_to_json

    json.dump(trace_spec_to_json(OrbitMeasureTrace(orbit_of(SystemParams(2, q), SolenoidPoint.of(1, r)))), sys.stdout)


def units() -> None:
    """The sum of the units u_(w, 0, 0), w = 1..1000, at (2, 3)."""
    from xpq import GroupAlgebraElement, GroupElement, PqRational, SystemParams, algebra_element_to_json

    terms = [(GroupElement(PqRational(w, 0, 0), 0, 0), 1) for w in range(1, 1001)]
    json.dump(algebra_element_to_json(GroupAlgebraElement.from_terms(SystemParams(2, 3), terms)), sys.stdout)


CHECKS = {
    "size": size,
    "unused-imports": unused_imports,
    **{name: partial(sweep, *row) for name, row in SWEEPS.items()},
    "cyclotomic": cyclotomic,
}
TASKS = {
    **CHECKS,
    "orbit-spec": orbit_spec,
    "measure-2-5-10007": partial(measure, 5, 10007),
    "measure-2-3-10007": partial(measure, 3, 10007),
    "measure-2-3-20011": partial(measure, 3, 20011),
    "units-1000": units,
}


def main(argv: list[str]) -> int:
    if unknown := [name for name in argv if name not in TASKS]:
        print(f"unknown task {unknown[0]!r}; expected any of {', '.join(TASKS)}", file=sys.stderr)
        return 2
    for name in argv or CHECKS:
        TASKS[name]()
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError as exc:  # the reader quit first: one line, as from xpq
        from xpq.cli import _discard_stdout

        _discard_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)
