import contextlib
import importlib
import io
import json
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from golden import (
    GOLDEN,
    GOLDEN_ELEMENT,
    GOLDEN_GROUP_ELEMENT,
    GOLDEN_MEASURE7,
    GOLDEN_POINTS,
    GOLDEN_SEQUENCE,
    GOLDEN_SPEC5,
    GOLDEN_UNIT11,
    stdout_digest,
)
import xpq.checks
import xpq.cli as cli
from xpq import (
    CheckResult,
    OrbitMeasureTrace,
    OutOfRange,
    SolenoidPoint,
    SystemParams,
    closed_set_to_json,
    closure,
    moments,
    moments_to_json,
    orbit_from_json,
    orbit_of,
    prim_point_from_json,
    run_checks,
    trace_spec_from_json,
    trace_spec_to_json,
)

BASE = [sys.executable, "-m", "xpq.cli"]


def run(*args, env=None, inp=None):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, input=inp
    )


def run_json(*args, **kw):
    proc = run(*args, **kw)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestExitCodes:
    def test_success(self):
        assert run("ktheory", "-p", "2", "-q", "3").returncode == 0

    def test_usage_errors(self):
        def refused(*args):
            # exit 1 and one line on stderr; the usage block is left to -h
            proc = run(*args)
            assert proc.returncode == 1 and len(proc.stderr.splitlines()) == 1, (args, proc.stderr)
            return proc

        refused("ktheory", "-p", "2")  # missing -q
        refused("no-such-command")
        refused("ktheory", "-p", "x", "-q", "3")
        proc = refused("orbits", "-p", "2", "-q", "x")
        assert proc.stderr == "xpq orbits: error: argument -q: invalid int value: 'x'\n"
        refused("trace-eval", "-p", "2", "-q", "3", "--trace", "{bad json", "--element", "{}")
        refused("orbits", "-p", "2", "-q", "3", "--max-den", "7", "--format", "nope")
        # int() reads at most 4300 digits; the refused value is not echoed whole
        proc = refused("stabilizer", "-p", "2", "-q", "3", "-r", "1" + "0" * 4300)
        assert proc.stderr.startswith("xpq stabilizer: error: argument -r: invalid int value: '1000")
        assert proc.stderr.endswith("... (4335 characters)\n") and len(proc.stderr.encode()) < 300
        # an orbit point that is not a string, after the first, is refused as input
        spec = ('{"kind":"orbit_measure","orbit":{"p":2,"q":3,"r":5,"orbit":["1/5","2/5",null,"4/5"],'
                '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}}}')
        proc = refused("trace-eval", "-p", "2", "-q", "3", "--trace", spec, "--element",
                       '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":0,"n":0},"c":"1"}]}')
        assert proc.stdout == "" and proc.stderr == "error: None is not a point of the orbit of 1/5, written a/5\n"
        proc = refused("prim-limit", "--sequence", '{"tail":{"kind":"escaping"},"prefix":5}')
        assert "prefix" in proc.stderr and "Traceback" not in proc.stderr
        # coefficients whose decimal exponent would expand to 10^400000 digits and more
        for c in ("1e400000", "1e999999999"):
            element = '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":0,"n":0},"c":"%s"}]}' % c
            proc = refused("trace-eval", "-p", "2", "-q", "3", "--trace", '{"kind":"canonical"}',
                           "--element", element)
            assert proc.stdout == ""
            assert f"bad coefficient '{c}'" in proc.stderr and "Traceback" not in proc.stderr

    def test_huge_integers_are_named_in_a_short_line(self, capsys):
        # 10^4299 has 4300 digits, the most int() reads and str() writes
        big = 10**4299
        for argv, code, error in (
            (["fix", "-p", "2", "-q", "3", "-m", str(big), "-n", "0"], 2,
             "m = about 2^14280 out of range; expected -10000 <= m <= 10000"),
            (["stabilizer", "-p", "2", "-q", "3", "-r", str(big)], 2,
             "denominator about 2^14280 shares a factor with pq = 6"),
            (["stabilizer", "-p", "2", "-q", "3", "-r", str(big + 1)], 2,
             "cofactor about 2^14271 exceeds 2^64 after trial division"),
        ):
            assert cli.main(argv) == code
            assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_domain_errors(self):
        # r shares a factor with pq
        proc = run("stabilizer", "-p", "2", "-q", "3", "-r", "6")
        assert proc.returncode == 2
        assert "factor" in proc.stderr
        # p out of range
        assert run("ktheory", "-p", "1", "-q", "3").returncode == 2
        # fixed points of the identity
        assert run("fix", "-p", "2", "-q", "3", "-m", "0", "-n", "0").returncode == 2
        # negative conjugate count
        g = '{"x":{"num":"1","a":0,"b":0},"m":1,"n":0}'
        proc = run("icc-witness", "-p", "2", "-q", "3", "--element", g, "--count", "-5")
        assert proc.returncode == 2
        assert "count" in proc.stderr and proc.stdout == ""
        # exponents beyond the limit are refused before any power is computed
        big = ('{"terms":[{"g":{"x":{"num":"1","a":1000000000,"b":0},"m":0,"n":0},'
               '"c":"1"}]}')
        for argv, field, lo in (
            (["trace-eval", "-p", "2", "-q", "3", "--trace", '{"kind":"canonical"}',
              "--element", big], "a", 0),
            (["fix", "-p", "2", "-q", "3", "-m", "1000000000", "-n", "0"], "m", -10000),
        ):
            proc = run(*argv)
            assert proc.returncode == 2
            assert f"{field} = 1000000000 out of range; expected {lo} <= {field} <= 10000" in proc.stderr
            assert "10000" in proc.stderr and "Traceback" not in proc.stderr
        # an unbounded listing of ~1.3e31 fixed points is refused
        proc = run("fix", "-p", "2", "-q", "3", "-m", "40", "-n", "40")
        assert proc.returncode == 2
        assert "13367494538843734067838845976575" in proc.stderr
        assert "100000" in proc.stderr and "--max-den" in proc.stderr
        assert "Traceback" not in proc.stderr
        # a bound scanning 10**12 denominators is refused before the scan
        proc = run("fix", "-p", "2", "-q", "3", "-m", "40", "-n", "40", "--max-den", str(10**12))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "max_denominator" in proc.stderr and "1000000" in proc.stderr
        assert "Traceback" not in proc.stderr
        # sizes beyond their limits are refused before work
        chi_level = ('{"kind":"finite_orbit","orbit":{"p":2,"q":3,"r":5,'
                     '"orbit":["1/5","2/5","3/5","4/5"],'
                     '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
                     '"chi":{"t1":"1/1000000007","t2":"0"}}')
        unit = '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":4,"n":0},"c":"1"}]}'
        # 2001 moments of phi(1001) = 720 coefficients each
        measure1001 = (
            '{"kind":"orbit_measure","orbit":{"p":2,"q":3,"r":1001,"orbit":['
            + ",".join(f'"{a}/1001"' for a in sorted({pow(2, i, 1001) * pow(3, j, 1001) % 1001
                                                      for i in range(60) for j in range(30)}))
            + '],"stabilizer":{"basis":[[12,6],[0,30]],"index":360}}}'
        )
        for argv, field, limit in (
            (["orbits", "-p", "2", "-q", "3", "--max-den", "20000"], "max_denominator", "5000"),
            (["check", "dynamics", "--max-den", "20000"], "max_denominator", "5000"),
            (["lift", "-p", "2", "-q", "3", "--point", "1/5", "--depth", "100000000"], "depth", "1000000"),
            (["moments", "-p", "2", "-q", "3", "--trace", '{"kind":"canonical"}',
              "--n-max", "100000000"], "n_max = 100000000", "1000"),
            (["invariance", "-p", "2", "-q", "3", "--trace", '{"kind":"canonical"}',
              "--n-max", "100000000"], "n_max = 100000000", "1000"),
            (["icc-witness", "-p", "2", "-q", "3", "--element", g, "--count", "100000000"],
             "count = 100000000", "1000"),
            (["check", "all", "--trials", "100000000", "--max-den", "8"], "trials = 100000000", "1000"),
            (["trace-eval", "-p", "2", "-q", "3", "--trace", chi_level, "--element", unit],
             "cyclotomic level = 1000000007", "1000000"),
            (["moments", "-p", "2", "-q", "3", "--trace", measure1001, "--n-max", "1000"],
             "n_max = 1000 at r = 1001", "1000000"),
        ):
            proc = run(*argv)
            assert proc.returncode == 2 and proc.stdout == ""
            assert field in proc.stderr and limit in proc.stderr
            assert "Traceback" not in proc.stderr
        # ord_r(3) = 5000000009 at the prime r = 10000000019: refused before
        # the powers of q are built
        t = time.perf_counter()
        proc = run("stabilizer", "-p", "2", "-q", "3", "-r", "10000000019")
        assert time.perf_counter() - t < 5
        assert proc.returncode == 2 and proc.stdout == ""
        assert "10000000019" in proc.stderr and "5000000009" in proc.stderr
        assert "1000000" in proc.stderr and "Traceback" not in proc.stderr
        # a count of 25850 bits has too many digits to print
        for fmt in ("json", "pretty"):
            proc = run("fix", "-p", "2", "-q", "3", "-m", "10000", "-n", "10000",
                       "--max-den", "5", "--format", fmt)
            assert proc.returncode == 2 and proc.stdout == ""
            assert "4300" in proc.stderr and "about 2^" in proc.stderr
            assert "Traceback" not in proc.stderr
        # conjugates 43 to 50 of x = 1 have too many digits to print: exit 2
        # at conjugate 43, not exit 1 while printing
        proc = run("icc-witness", "-p", str(10**100 + 1), "-q", "3", "--element", g, "--count", "50")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "count = 50: conjugate 43" in proc.stderr and "4300" in proc.stderr
        assert "sys.get_int_max_str_digits()" in proc.stderr and "Traceback" not in proc.stderr

    def test_orbit_bound_refused_before_work(self, capsys):
        t = time.perf_counter()
        assert cli.main(["orbits", "-p", "2", "-q", "3", "--max-den", "20000"]) == 2
        assert time.perf_counter() - t < 0.5
        out, err = capsys.readouterr()
        assert out == "" and "max_denominator = 20000" in err

    def test_orbit_bound_builds_no_lattice(self, monkeypatch, capsys):
        import xpq.dynamics

        def no_lattice(params, r):
            raise AssertionError(f"lattice built for r = {r}")

        monkeypatch.setattr(xpq.dynamics, "stabilizer_lattice", no_lattice)
        assert cli.main(["orbits", "-p", "5", "-q", "7", "--max-den", "5001"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "max_denominator = 5001" in err and "5000" in err

    def test_check_bound_refused_before_any_suite(self, monkeypatch, capsys):
        def entered(*args):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(xpq.checks, "_SUITES", dict.fromkeys(xpq.checks._SUITES, entered))
        for argv, bound in ((["check", "all", "--max-den", "0", "--trials", "1000"], 0),
                            (["check", "exact", "--max-den", "0"], 0),
                            (["check", "ktheory", "--max-den", "-7"], -7),
                            (["check", "primspace", "--max-den", "5001"], 5001)):
            assert cli.main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and f"max_denominator = {bound} out of range" in err and "5000" in err

    def test_composite_stabilizer_limit_names_r(self, monkeypatch, capsys):
        # r = 35 is the meet of L_5 and L_7, each within the lowered limit;
        # the meet is not, and the refusal names 35 in stabilizer and in the
        # census, where p and q hold every prime below 35 but 5 and 7
        import xpq.dynamics

        for limit, argv, message in (
            (6, ["stabilizer", "-p", "2", "-q", "3", "-r", "35"], "ord_r(q) = 12 exceeds the stabilizer limit 6"),
            (5, ["orbits", "-p", "1716", "-q", "126894749", "--max-den", "35"],
             "ord_r(q) = 6 exceeds the stabilizer limit 5"),
            (5, ["stabilizer", "-p", "858", "-q", "6678671", "-r", "35"],
             "no p^m with m <= 5 lies in <q> (ord_r(q) = 2); 5 is the stabilizer limit"),
            (5, ["orbits", "-p", "858", "-q", "6678671", "--max-den", "35"],
             "no p^m with m <= 5 lies in <q> (ord_r(q) = 2); 5 is the stabilizer limit"),
        ):
            monkeypatch.setattr(xpq.dynamics, "MAX_STABILIZER_ORDER", limit)
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", f"error: denominator 35: {message}\n"), argv
            monkeypatch.setattr(xpq.dynamics, "MAX_STABILIZER_ORDER", limit + 7)
            assert cli.main(argv) == 0, argv
            capsys.readouterr()

    def test_out_of_memory_is_one_line(self, monkeypatch, capsys):
        import xpq.traces

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(xpq.traces, "moments", exhausted)
        assert cli.main(["moments", "-p", "2", "-q", "3", "--trace", '{"kind": "canonical"}']) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: out of memory in moments\n"
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    @pytest.mark.parametrize("c", ["1e400", "1e-400"])
    def test_value_outside_the_float_range_is_one_line(self, capsys, c, fmt):
        # both coefficients are within the decimal exponent limit, but 10^400
        # is no float, so neither is the approximation of the value
        element = '{"terms":[{"g":{"x":{"num":"0","a":0,"b":0},"m":0,"n":0},"c":"%s"}]}' % c
        argv = ["trace-eval", "-p", "2", "-q", "3", "--format", fmt, "--trace", '{"kind":"canonical"}',
                "--element", element]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: a value is outside the float range in trace-eval\n")

    @pytest.mark.parametrize("c, approx", [("1e-310", 1e-310), ("1." + "0" * 399 + "1", 1.0)])
    def test_float_value_over_a_den_past_the_float_range(self, capsys, c, approx):
        # 10^310 and 10^400 are no floats, but each value is one: its
        # approximation is the exact quotient, correctly rounded
        element = '{"terms":[{"g":{"x":{"num":"0","a":0,"b":0},"m":0,"n":0},"c":"%s"}]}' % c
        argv = ["trace-eval", "-p", "2", "-q", "3", "--trace", '{"kind":"canonical"}', "--element", element]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["value"]["approx"] == {"re": approx, "im": 0.0}
        assert cli.main([*argv, "--format", "pretty"]) == 0
        assert capsys.readouterr().err == ""

    def test_character_text_refused(self, capsys):
        # a character coordinate has one text, a/b with 0 <= a < b in lowest terms
        spec = GOLDEN_SPEC5.replace('"t2":"1/4"', '"t2":"6/5"')
        assert cli.main(["trace-eval", "-p", "2", "-q", "3", "--trace", spec, "--element", GOLDEN_UNIT11]) == 1
        assert capsys.readouterr() == ("", "error: t2 = '6/5' is not written a/b with 0 <= a < b in lowest terms\n")

    def test_missing_bound_is_usage_error(self):
        proc = run("orbits", "-p", "2", "-q", "3")
        assert proc.returncode == 1
        assert "max-den" in proc.stderr or "XPQ_MAX_DENOMINATOR" in proc.stderr

    def test_check_failure_returns_3(self, monkeypatch, capsys):
        failing = CheckResult("exact", passed=1, failed=2, failures=("a", "b"))
        monkeypatch.setattr(xpq.checks, "run_checks", lambda *a, **k: [failing])
        rc = cli.main(["check", "exact"])
        assert rc == 3
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["suites"][0]["failures"] == ["a", "b"]

    def test_check_lists_the_first_20_failures(self, monkeypatch, capsys):
        def suite(params, rng, bound, trials):
            for i in range(25):
                yield True, f"pass {i}"
                yield False, f"fail {i}"

        monkeypatch.setitem(xpq.checks._SUITES, "exact", suite)
        first = tuple(f"fail {i}" for i in range(20))
        assert run_checks("exact", SystemParams(2, 3)) == [CheckResult("exact", 25, 25, first)]
        assert cli.main(["check", "exact"]) == 3
        data = json.loads(capsys.readouterr().out)
        assert data == {"ok": False, "suites": [{"suite": "exact", "passed": 25, "failed": 25, "failures": list(first)}]}
        assert cli.main(["check", "exact", "--format", "pretty"]) == 3
        fails = "".join(f"    FAIL {label}\n" for label in first)
        assert capsys.readouterr() == ("exact: 25 passed, 25 failed\n" + fails + "FAILED\n", "")

    def test_unknown_suite_names_the_suites(self, capsys):
        # refused before the trials and the bound, which are out of range too
        message = "unknown suite 'nope'; expected all or one of exact, dynamics, groupalg, traces, ktheory, primspace"
        with pytest.raises(ValueError) as info:
            run_checks("nope", SystemParams(2, 3), max_denominator=0, trials=-1)
        assert str(info.value) == message
        assert cli.main(["check", "nope", "--trials", "-1"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["orbits", "-p", "2", "-q", "3"],
                                      ["fix", "-p", "2", "-q", "3", "-m", "1", "-n", "1"]])
    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_orbit_bound_below_1_is_out_of_range(self, argv, bound, monkeypatch, capsys):
        # from --max-den and from the environment alike: exit 2, naming the field
        assert cli.main([*argv, "--max-den", bound]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: max_denominator = {bound} out of range")
        monkeypatch.setenv(cli.ENV_MAX_DENOMINATOR, bound)
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (out, err)

    def test_input_refusals_and_pretty_lines(self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["moments", "-p", "2", "-q", "3", "--trace", f"@{missing}"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot read {missing}: ")
        assert cli.main(["prim-closure", "--points", "{}"]) == 1
        assert capsys.readouterr() == ("", "error: --points expects a JSON list of points\n")
        assert cli.main(["prim-closure", "--points", "[]", "--format", "pretty"]) == 0
        assert capsys.readouterr() == ("empty set\n", "")
        assert cli.main(["mult-indep", "-p", "4", "-q", "8", "--format", "pretty"]) == 0
        assert capsys.readouterr() == ("4^3 = 8^2\n", "")
        monkeypatch.setenv(cli.ENV_MAX_DENOMINATOR, "abc")
        assert cli.main(["orbits", "-p", "2", "-q", "3"]) == 1
        assert capsys.readouterr() == ("", "error: XPQ_MAX_DENOMINATOR='abc' is not an integer\n")

    def test_trials_limit(self):
        from xpq.checks import MAX_TRIALS

        with pytest.raises(OutOfRange, match=f"trials = {MAX_TRIALS + 1} .* {MAX_TRIALS}"):
            run_checks("exact", SystemParams(2, 3), trials=MAX_TRIALS + 1)
        (result,) = run_checks("exact", SystemParams(2, 3), max_denominator=8, trials=MAX_TRIALS)
        assert result.ok and result.passed > MAX_TRIALS

    def test_closed_or_full_stdout(self):
        # a reader that quits after 64 bytes, a device that takes no bytes,
        # and no stdout at all: one error line, never a traceback
        argv = BASE + ["orbits", "-p", "2", "-q", "3", "--max-den", "2000"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            assert len(proc.stdout.read(64)) == 64
            proc.stdout.close()
            err = proc.stderr.read()
            rc = proc.wait(timeout=60)
        results = [(rc, err)]
        if os.path.exists("/dev/full"):
            with open("/dev/full", "w") as full:
                done = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
            results.append((done.returncode, done.stderr))
        if shutil.which("sh"):
            done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], stderr=subprocess.PIPE,
                                  text=True, timeout=60)
            results.append((done.returncode, done.stderr))
        for rc, err in results:
            assert rc in (0, 1, 2, 3)
            assert "Traceback" not in err and len(err.splitlines()) <= 1, err

    def test_check_success_in_process(self, capsys):
        rc = cli.main(["check", "exact", "--trials", "4", "--max-den", "12"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert all(s["failed"] == 0 for s in data["suites"])


SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_modules(*argv):
    """Exit code of `xpq ARGV...` run in-process by a fresh interpreter, and the
    xpq modules it loaded, with dataclasses and inspect among them if it loaded
    those and the bare interpreter had not; with no argv only `import xpq.cli` runs."""
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import json\n"
        "from xpq.cli import main\n"
        "rc = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "names = [m for m in sys.modules if m.split('.')[0] == 'xpq' or m in {'dataclasses', 'inspect'} - bare]\n"
        "print(rc, json.dumps(sorted(names)), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    rc, _, names = proc.stderr.splitlines()[-1].partition(" ")
    return int(rc), set(json.loads(names))


class TestLimitsTable:
    def test_readme_table_matches_constants(self):
        # one row per MAX_* constant defined in src/xpq, with its module and value
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(MAX_\w+)` \| `(\w+)` \| (\d+) \| .+ \|$", readme, re.MULTILINE)
        defined = {
            (name, path.stem)
            for path in (SRC / "xpq").glob("*.py")
            for name in re.findall(r"^(MAX_\w+) =", path.read_text(encoding="utf-8"), re.MULTILINE)
        }
        assert sorted((name, module) for name, module, _ in rows) == sorted(defined)
        for name, module, value in rows:
            assert getattr(importlib.import_module(f"xpq.{module}"), name) == int(value), name


def _removed_names() -> list[tuple[str, str]]:
    """(owner, name) for each bullet of README "Removed names", whose first
    text is `owner.name`: a submodule of xpq, or a class the package exports."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Removed names\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* (.*)", section, re.MULTILINE)
    names = [re.match(r"`(\w+)\.(\w+)`: ", bullet) for bullet in bullets]
    assert all(names), [b for b, m in zip(bullets, names) if not m]
    return [m.groups() for m in names]


class TestRemovedNames:
    @pytest.mark.parametrize("owner, name", [pytest.param(*pair, id=".".join(pair)) for pair in _removed_names()])
    def test_name_is_gone(self, owner, name):
        import xpq

        holder = getattr(xpq, owner) if owner in xpq.__all__ else importlib.import_module(f"xpq.{owner}")
        assert not hasattr(holder, name)
        assert name not in xpq.__all__


class TestStdlibOnly:
    def test_imports_without_site_packages(self):
        # -S drops site-packages, so any third-party import fails here; every
        # exported name is resolved, which imports every submodule
        code = "import xpq, xpq.cli\nfor name in xpq.__all__:\n    getattr(xpq, name)"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr


class TestLazyImports:
    BASE = {"xpq", "xpq.cli", "xpq.errors"}

    def test_package_names(self, monkeypatch):
        import xpq

        assert set(xpq.__all__) <= set(dir(xpq))
        assert xpq.trace_eval is xpq.traces.trace_eval
        # resolved on every access: a rebinding in the submodule shows through
        monkeypatch.setattr(xpq.traces, "trace_eval", len)
        assert xpq.trace_eval is len
        with pytest.raises(AttributeError, match="no_such_name"):
            xpq.no_such_name
        with pytest.raises(ImportError):
            from xpq import no_such_name  # noqa: F401

    def test_modules_loaded_per_command(self):
        # the sets compared hold dataclasses or inspect when a command loads
        # them, so every command below loads neither
        assert loaded_modules() == (0, self.BASE)
        assert loaded_modules("frobnicate") == (1, self.BASE)  # argparse refusal
        assert loaded_modules("mult-indep", "-p", "2", "-q", "3") == (0, self.BASE | {"xpq.exact"})
        # none of these loads xpq.traces, xpq.groupalg or xpq.checks, and only the
        # prim-* commands load xpq.primspace
        core = self.BASE | {"xpq.exact", "xpq.dynamics"}
        algebra = {"xpq.serialize", "xpq.traces", "xpq.groupalg"}
        for argv, extra in (
            (["lemma36", "-m", "4", "-n", "6"], {"xpq.ktheory", "xpq.serialize"}),
            (["ktheory", "-p", "2", "-q", "3"], {"xpq.ktheory", "xpq.serialize"}),
            (["stabilizer", "-p", "2", "-q", "3", "-r", "5"], set()),
            (["fix", "-p", "2", "-q", "3", "-m", "1", "-n", "1"], set()),
            (["lift", "-p", "2", "-q", "3", "--point", "1/5"], set()),
            (["prim-closure", "--points", GOLDEN_POINTS], {"xpq.primspace", "xpq.serialize"}),
            (["prim-limit", "--sequence", GOLDEN_SEQUENCE], {"xpq.primspace", "xpq.serialize"}),
            (["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5, "--element", GOLDEN_ELEMENT], algebra),
            (["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5, "--n-max", "4"], algebra),
            (["check", "all", "--trials", "2", "--max-den", "8"],
             algebra - {"xpq.serialize"} | {"xpq.checks", "xpq.ktheory", "xpq.primspace"}),
        ):
            assert loaded_modules(*argv) == (0, core | extra), argv


# JSON values as _dumps meets them: str keys, and scalars that exercise the
# encoder's escaping and float spelling
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
    st.text(),
    st.sampled_from(['"', "\\", "\n", 'a"b\\c\nd', "\u00e9\u2028\U0001f600", "\x00\x7f"]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner, max_size=5),
    max_leaves=30,
)


class TestRenderer:
    @given(_json_values)
    @example({"b": [], "a": {}, "c": [1, "x", None, True, -0.0], "d": [[1], {"k": [2.5]}]})
    @example([[], {}, [[]], [{}]])
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, value):
        expected = json.dumps(value, sort_keys=True, indent=2)
        assert cli._dumps(value) == expected
        # raw newlines in the output are all layout, since strings escape theirs
        assert cli._dumps(value, "    ") == expected.replace("\n", "\n    ")


def _members(value, path=()):
    """The path of every member of a JSON value: object keys and list indices."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, member in items:
        yield path + (key,)
        yield from _members(member, path + (key,))


def _edited(payload: str):
    """payload with one member dropped, or its value replaced by a drawn JSON
    value, a small integer or another member's value."""

    def edit(path, drop, replacement):
        doc = json.loads(payload)
        *head, last = path
        parent = reduce(operator.getitem, head, doc)
        if drop:
            del parent[last]
        else:
            parent[last] = replacement
        return doc

    doc = json.loads(payload)
    paths = list(_members(doc))
    values = [reduce(operator.getitem, path, doc) for path in paths]
    replacements = _json_values | st.integers(-2, 40) | st.sampled_from(values)
    return st.builds(edit, st.sampled_from(paths), st.booleans(), replacements)


# each JSON option of the CLI: the rest of a valid argv, the option and a
# valid small payload for it
_JSON_INPUTS = [
    (["trace-eval", "-p", "2", "-q", "3", "--element", GOLDEN_ELEMENT], "--trace", GOLDEN_SPEC5),
    (["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5], "--element", GOLDEN_ELEMENT),
    (["moments", "-p", "2", "-q", "3", "--n-max", "3"], "--trace", GOLDEN_MEASURE7),
    (["invariance", "-p", "2", "-q", "3", "--n-max", "3"], "--trace", GOLDEN_SPEC5),
    (["icc-witness", "-p", "2", "-q", "3", "--count", "3"], "--element", GOLDEN_GROUP_ELEMENT),
    (["prim-closure"], "--points", GOLDEN_POINTS),
    (["prim-limit"], "--sequence", GOLDEN_SEQUENCE),
]


class TestDecoderFuzz:
    @pytest.mark.parametrize("argv, option, payload", _JSON_INPUTS,
                             ids=[f"{argv[0]}:{option[2:]}" for argv, option, _ in _JSON_INPUTS])
    def test_json_input_ends_in_an_exit_code_and_one_line(self, argv, option, payload):
        @given(_json_values | _edited(payload))
        @settings(max_examples=60, deadline=None)
        def check(value):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # "--option=text", so a payload such as -1e+300 is not read as an option
                code = cli.main([*argv, f"{option}={json.dumps(value)}"])
            out, err = out.getvalue(), err.getvalue()
            if code == 0:
                assert err == "" and out.endswith("\n"), (code, out, err)
            else:
                assert code in (1, 2) and out == "", (code, out, err)
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            assert "Traceback" not in err

        check()


def _int_options():
    """Each subcommand with integer options: the rest of a valid argv, and
    each option with the texts of the values it is drawn from.  Every option
    takes -1, 0, small values, 2^64, 10^4299 (the most digits int() reads)
    and 10^4300; an option with a MAX_* limit also takes the limit + 1, and
    the limit itself unless reaching it takes a second or more: orbits and
    check --max-den 5000, check --trials 1000, lift --depth 10^6, fix
    --max-den 10^6 over a large count and fix -m 10000 -n 10000.

    Two inputs that take seconds before any limit is checked are left out
    too.  fix builds p^m q^n whole, so it draws p and q from the small
    values alone: at p = 2^64, -m 10000 --max-den 100001 takes 16 s, and at
    p = 10^4299, -m 10000 over two minutes.  stabilizer -r 10^4299 with p, q
    prime to 10 takes 4 s to order q mod 5^4299 before the stabilizer limit
    refuses it, so -r does not take 10^4299."""
    from xpq.checks import MAX_TRIALS
    from xpq.dynamics import (
        MAX_DENOMINATOR_SCAN, MAX_EXPONENT, MAX_FIXED_LISTING, MAX_LIFT_DEPTH, MAX_ORBIT_DENOMINATOR,
        MAX_STABILIZER_ORDER,
    )
    from xpq.groupalg import MAX_CONJUGATES
    from xpq.traces import MAX_MOMENT_RANGE

    # str() writes at most 4300 digits, so the powers of 10 are spelled out
    small, big = ("-1", "0", "1", "2", "3", "5", "7"), "1" + "0" * 4299
    common = (*small, str(2**64), big, big + "0")

    def past(*limits):
        return (*common, *[str(limit + 1) for limit in limits])

    def up_to(limit):
        return (*past(limit), str(limit))

    pq = {"-p": common, "-q": common}
    canonical = ["--trace", '{"kind":"canonical"}']
    return {
        "orbits": ([], {**pq, "--max-den": past(MAX_ORBIT_DENOMINATOR)}),
        "stabilizer": ([], {**pq, "-r": tuple(r for r in past(MAX_STABILIZER_ORDER) if r != big)}),
        "fix": ([], {"-p": small, "-q": small, "-m": up_to(MAX_EXPONENT), "-n": up_to(MAX_EXPONENT),
                     "--max-den": past(MAX_FIXED_LISTING, MAX_DENOMINATOR_SCAN)}),
        "lift": (["--point", "1/5"], {**pq, "--depth": past(MAX_LIFT_DEPTH)}),
        "trace-eval": ([*canonical, "--element", GOLDEN_ELEMENT], pq),
        "moments": (canonical, {**pq, "--n-max": up_to(MAX_MOMENT_RANGE)}),
        "invariance": (canonical, {**pq, "--n-max": up_to(MAX_MOMENT_RANGE)}),
        "ktheory": ([], pq),
        "lemma36": ([], {"-m": common, "-n": common}),
        "icc-witness": (["--element", GOLDEN_GROUP_ELEMENT], {**pq, "--count": up_to(MAX_CONJUGATES)}),
        "mult-indep": ([], pq),
        "check": ([], {**pq, "--max-den": past(MAX_ORBIT_DENOMINATOR), "--trials": past(MAX_TRIALS),
                       "--seed": common}),
    }


class TestIntegerOptionFuzz:
    def test_integer_options_end_in_an_exit_code_and_one_line(self):
        commands = _int_options()
        # the one stderr line a run may add ahead of its result or error
        warning = re.compile(r"warning: \d+ and \d+ are multiplicatively dependent \(.*\); .*")

        @given(st.data())
        @settings(max_examples=600, deadline=3000)
        def check(data):
            command = data.draw(st.sampled_from(sorted(commands)))
            rest, options = commands[command]
            values = {option: data.draw(st.sampled_from(pool), label=option) for option, pool in options.items()}
            assume(command != "fix" or (values["-m"], values["-n"]) != ("10000", "10000"))
            argv = [command, *rest, *[token for item in values.items() for token in item]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 1, 2, 3) and "Traceback" not in err, (code, err)
            lines = [line for line in err.splitlines() if not warning.fullmatch(line)]
            if code in (0, 3):
                assert lines == [] and out.endswith("\n"), (code, err)
            else:
                assert out == "" and len(lines) == 1 and err.endswith("\n"), (code, err)
                assert lines[0].startswith(("error: ", f"xpq {command}: error: ")) and len(lines[0]) < 300, err

        check()


class TestDeterminism:
    def test_byte_identical_runs(self):
        a = run("orbits", "-p", "2", "-q", "3", "--max-den", "30")
        b = run("orbits", "-p", "2", "-q", "3", "--max-den", "30")
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")

    def test_sorted_keys(self):
        out = run("ktheory", "-p", "3", "-q", "5").stdout
        data = json.loads(out)
        assert list(data) == sorted(data)


class TestOrbitsCommand:
    def test_json_round_trip(self):
        data = run_json("orbits", "-p", "2", "-q", "3", "--max-den", "7")
        assert [entry["r"] for entry in data["orbits"]] == [1, 5, 7]
        for entry in data["orbits"]:
            orbit = orbit_from_json(entry)
            assert orbit.denominator == entry["r"]

    def test_env_var_bound(self, tmp_path):
        import os

        env = dict(os.environ, XPQ_MAX_DENOMINATOR="7")
        data = json.loads(run("orbits", "-p", "2", "-q", "3", env=env).stdout)
        assert [e["r"] for e in data["orbits"]] == [1, 5, 7]
        # explicit flag wins over the environment
        data = json.loads(
            run("orbits", "-p", "2", "-q", "3", "--max-den", "5", env=env).stdout
        )
        assert [e["r"] for e in data["orbits"]] == [1, 5]

    def test_csv(self):
        proc = run("orbits", "-p", "2", "-q", "3", "--max-den", "7", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("r,")
        assert len(lines) == 4

    def test_pretty(self):
        proc = run("orbits", "-p", "2", "-q", "3", "--max-den", "7", "--format", "pretty")
        assert proc.returncode == 0 and "1/5" in proc.stdout

    @pytest.mark.parametrize(
        "p, q", [(2, 3), (5, 7), (6, 10), (4, 6), (2, 4), (1000000007, 998244353), (12, 23)]
    )
    def test_streamed_output_matches_generic_writers(self, p, q, capsys):
        # the per-orbit templates against _dumps(orbit_to_json(orbit)) (inside
        # the whole document), csv.writer and the per-orbit pretty line; at
        # (12, 23) the orbits mod 11 are the single points 1/11, ..., 10/11
        import csv
        import io

        from xpq import enumerate_minimal_sets, orbit_to_json

        # bounds 1 and 2: only the r = 1 orbit, whose numerator is 0
        for bound in (1, 2, 300):
            orbits = enumerate_minimal_sets(SystemParams(p, q), bound)
            doc = {"count": len(orbits), "max_denominator": bound,
                   "orbits": [orbit_to_json(o) for o in orbits], "p": p, "q": q}
            table = io.StringIO()
            w = csv.writer(table, lineterminator="\n")
            w.writerow(["r", "size", "index", "basis_a", "basis_b", "basis_c", "points"])
            pretty = [f"minimal invariant sets for p={p}, q={q}, r <= {bound}:"]
            for o in orbits:
                (a, b), (_, c) = o.stabilizer.basis
                pts = [f"{num}/{o.denominator}" for num in o.numerators]
                w.writerow([o.denominator, o.size, o.stabilizer.index, a, b, c, " ".join(pts)])
                pretty.append(f"  r={o.denominator}  size={o.size}  {{{', '.join(pts)}}}")
            pretty.append(f"total: {len(orbits)}")
            expected = {
                "json": cli._dumps(doc) + "\n",
                "csv": table.getvalue(),
                "pretty": "\n".join(pretty) + "\n",
            }
            for fmt, text in expected.items():
                argv = ["orbits", "-p", str(p), "-q", str(q), "--max-den", str(bound), "--format", fmt]
                assert cli.main(argv) == 0
                assert capsys.readouterr().out == text, (bound, fmt)

    @pytest.mark.parametrize("p, q", [(2, 3), (5, 7), (6, 10), (4, 6), (2, 4)])
    def test_streamed_json_decodes_to_census(self, p, q, capsys):
        # the decoder compares each point with the text orbit_to_json writes,
        # so a writer that drifts from it would have xpq refuse its own output
        from xpq.dynamics import census

        for bound in (1, 2, 300):
            assert cli.main(["orbits", "-p", str(p), "-q", str(q), "--max-den", str(bound)]) == 0
            entries = json.loads(capsys.readouterr().out)["orbits"]
            expected = list(census(SystemParams(p, q), bound)[1])
            assert [orbit_from_json(entry) for entry in entries] == expected, bound

    def test_dependence_warning_on_stderr(self):
        proc = run("orbits", "-p", "2", "-q", "4", "--max-den", "5")
        assert proc.returncode == 0
        assert "dependent" in proc.stderr.lower()
        clean = run("orbits", "-p", "2", "-q", "3", "--max-den", "5")
        assert clean.stderr == ""


class TestStabilizerAndFix:
    def test_stabilizer(self):
        data = run_json("stabilizer", "-p", "2", "-q", "3", "-r", "5")
        assert data["basis"] == [[1, 1], [0, 4]]
        assert data["index"] == 4

    def test_fix(self):
        data = run_json("fix", "-p", "2", "-q", "3", "-m", "1", "-n", "1")
        assert data["count"] == 5
        assert data["complete"] is True
        assert data["points"] == ["0/1", "1/5", "2/5", "3/5", "4/5"]

    def test_fix_bounded(self):
        data = run_json(
            "fix", "-p", "2", "-q", "3", "-m", "1", "-n", "1", "--max-den", "1"
        )
        assert data["count"] == 5
        assert data["complete"] is False
        assert data["points"] == ["0/1"]

    def test_fix_huge_bound_scans_only_to_count(self):
        data = run_json(
            "fix", "-p", "2", "-q", "3", "-m", "1", "-n", "1", "--max-den", str(10**12)
        )
        assert data["count"] == 5
        assert data["complete"] is True
        assert data["points"] == ["0/1", "1/5", "2/5", "3/5", "4/5"]

    def test_fix_listing_limit_builds_no_point_past_it(self, capsys):
        # 2^19 - 1 = 524287 is prime, so one denominator holds 524286 points;
        # listed in full before the limit was checked, they peaked at 63.6 MB
        tracemalloc.start()
        try:
            code = cli.main(["fix", "-p", "2", "-q", "3", "-m", "19", "-n", "0", "--max-den", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = ("error: more than 100000 fixed points have a denominator <= 1000000, "
                   "the listing limit; lower max_denominator\n")
        assert (code, capsys.readouterr()) == (2, ("", message))
        assert peak < 20_000_000


class TestLift:
    def test_lift(self):
        data = run_json("lift", "-p", "2", "-q", "3", "--point", "3/7", "--depth", "4")
        seq = data["lifts"]
        assert len(seq) == 5 and seq[0] == "3/7"
        # each level multiplies back by pq
        from xpq import QmodZ

        for cur, nxt in zip(seq, seq[1:]):
            assert QmodZ.parse(nxt).mul_int(6) == QmodZ.parse(cur)

    def test_malformed_point(self):
        # int() alone reads "+1/1_1" as 1/11 and " ١/٥" as 1/5
        for text in ("1/", " ١/٥", "+1/1_1", "abc"):
            proc = run("lift", "-p", "2", "-q", "3", "--point", text, "--depth", "1")
            assert proc.returncode == 1 and proc.stdout == "", text
            assert proc.stderr == f"error: bad rational {text!r}\n"
        proc = run("lift", "-p", "2", "-q", "3", "--point", "1/0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: denominator = 0 out of range; expected 1 <= denominator\n"


class TestTraceCommands:
    SPEC5 = (
        '{"kind":"finite_orbit","orbit":{"p":2,"q":3,"r":5,'
        '"orbit":["1/5","2/5","3/5","4/5"],'
        '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
        '"chi":{"t1":"0/1","t2":"0/1"}}'
    )
    U1 = '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":0,"n":0},"c":"1"}]}'

    def test_trace_eval_worked(self):
        data = run_json(
            "trace-eval", "-p", "2", "-q", "3",
            "--trace", self.SPEC5, "--element", self.U1,
        )
        exact = data["value"]["exact"]
        assert exact["level"] == 5
        assert exact["coeffs"] == ["-1/4", "0", "0", "0"]
        assert abs(data["value"]["approx"]["re"] + 0.25) < 1e-12
        assert abs(data["value"]["approx"]["im"]) < 1e-12

    def test_trace_eval_from_file(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(self.SPEC5)
        data = run_json(
            "trace-eval", "-p", "2", "-q", "3",
            "--trace", f"@{spec_file}", "--element", self.U1,
        )
        assert data["value"]["exact"]["coeffs"] == ["-1/4", "0", "0", "0"]

    def test_trace_spec_params_mismatch_is_domain_error(self):
        proc = run(
            "trace-eval", "-p", "3", "-q", "5",
            "--trace", self.SPEC5, "--element", self.U1,
        )
        assert proc.returncode == 2

    def test_moments_json_and_csv(self):
        data = run_json(
            "moments", "-p", "2", "-q", "3", "--trace", self.SPEC5, "--n-max", "6"
        )
        values = {row["n"]: row for row in data["values"]}
        assert values[0]["exact"]["coeffs"] == ["1", "0", "0", "0"]
        assert values[1]["exact"]["coeffs"] == ["-1/4", "0", "0", "0"]
        assert values[5]["exact"]["coeffs"] == ["1", "0", "0", "0"]
        assert values[0]["exact"]["level"] == 5

        proc = run(
            "moments", "-p", "2", "-q", "3", "--trace", self.SPEC5,
            "--n-max", "6", "--format", "csv",
        )
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "n,re,im,exact"
        assert len(lines) == 14
        row5 = dict(zip(lines[0].split(","), lines[12].split(",")))
        assert row5["n"] == "5" and float(row5["re"]) == 1.0

    def test_moments_json_is_the_library_document(self, capsys):
        P = SystemParams(2, 3)
        for spec, n_max in (('{"kind":"canonical"}', 0), (self.SPEC5, 6), (GOLDEN_MEASURE7, 3)):
            assert cli.main(["moments", "-p", "2", "-q", "3", "--trace", spec, "--n-max", str(n_max)]) == 0
            seq = moments(trace_spec_from_json(json.loads(spec), P), n_max)
            assert capsys.readouterr().out == cli._dumps(moments_to_json(seq)) + "\n"

    def test_moments_json_holds_one_value_text_at_a_time(self, tmp_path, monkeypatch):
        # 99 values of 10006 coefficients each, 15.1 MB of JSON; the whole
        # document as one string peaked at 54.4 MB
        orbit = orbit_of(SystemParams(2, 5), SolenoidPoint.of(1, 10007))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(trace_spec_to_json(OrbitMeasureTrace(orbit))))
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                code = cli.main(["moments", "-p", "2", "-q", "5", "--trace", f"@{spec}", "--n-max", "49"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0 and peak < 10_000_000

    def test_moments_json_encodes_each_distinct_value_once(self, monkeypatch, capsys):
        # at (2, 3) the 99 moments of the orbit measure of 1/10007 fall in 3
        # periods, so they are 3 shared values
        import xpq.serialize

        encode, calls = xpq.serialize.evaluation_to_json, []
        monkeypatch.setattr(xpq.serialize, "evaluation_to_json", lambda v: calls.append(v) or encode(v))
        orbit = orbit_of(SystemParams(2, 3), SolenoidPoint.of(1, 10007))
        spec = json.dumps(trace_spec_to_json(OrbitMeasureTrace(orbit)))
        assert cli.main(["moments", "-p", "2", "-q", "3", "--trace", spec, "--n-max", "49"]) == 0
        assert len(json.loads(capsys.readouterr().out)["values"]) == 99
        assert len(calls) == 3

    def test_orbit_list_is_counted_before_the_orbit_is_built(self, capsys):
        # at (2, 3) r = 37119307289 has lattice ((1718, 463860), (0, 900232)),
        # each entry under the stabilizer limit but of index 1,546,598,576;
        # built before the list was counted, the orbit ran out of memory
        orbit = ('{"p":2,"q":3,"r":37119307289,"orbit":["1/37119307289"],'
                 '"stabilizer":{"basis":[[1718,463860],[0,900232]],"index":1546598576}}')
        spec = f'{{"kind":"orbit_measure","orbit":{orbit}}}'
        points = f'[{{"kind":"orbit_char","orbit":{orbit},"chi":{{"t1":"0/1","t2":"0/1"}}}}]'
        message = "error: the orbit list mod 37119307289 has 1 entries, not index(L_r) = 1546598576\n"
        for argv in (["trace-eval", "-p", "2", "-q", "3", "--trace", spec, "--element", self.U1],
                     ["prim-closure", "--points", points]):
            start = time.perf_counter()
            tracemalloc.start()
            try:
                code = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, capsys.readouterr()) == (1, ("", message))
            assert time.perf_counter() - start < 1 and peak < 5_000_000

    def test_invariance(self):
        data = run_json(
            "invariance", "-p", "2", "-q", "3", "--trace", self.SPEC5, "--n-max", "12"
        )
        assert data["invariant"] is True

    def test_canonical_spec_needs_no_orbit(self):
        data = run_json(
            "trace-eval", "-p", "2", "-q", "3",
            "--trace", '{"kind":"canonical"}', "--element", self.U1,
        )
        assert data["value"]["exact"]["coeffs"] == ["0"]

    def test_csv_rejected_elsewhere(self):
        proc = run(
            "trace-eval", "-p", "2", "-q", "3", "--trace", '{"kind":"canonical"}',
            "--element", self.U1, "--format", "csv",
        )
        assert proc.returncode == 1


class TestKTheoryCommand:
    def test_worked(self):
        data = run_json("ktheory", "-p", "2", "-q", "3")
        assert data["K0"] == {"rank": 2, "torsion": []}
        assert data["K1"] == {"rank": 2, "torsion": []}
        assert data["matches"] is True
        data = run_json("ktheory", "-p", "3", "-q", "5")
        assert data["K0"] == {"rank": 2, "torsion": [2]}
        p, q = "9444732970618373275928", "18889465941236746551855"
        data = run_json("ktheory", "-p", p, "-q", q)
        g = 68719476767 * 137438953481
        assert data["K0"] == data["K1"] == {"rank": 2, "torsion": [g]}
        assert data["matches"] is True
        # trial division leaves a cofactor of p past 2^64; K_* needs only
        # gcd(p - 1, q - 1) = gcd(3^200 + 1, 4) = 2
        data = run_json("ktheory", "-p", str(3**200 + 2), "-q", "5")
        assert data["K0"] == data["K1"] == {"rank": 2, "torsion": [2]}
        assert data["matches"] is True

    def test_lemma36(self):
        data = run_json("lemma36", "-m", "2", "-n", "4")
        assert data["kernel"] == {"rank": 0, "torsion": [2]}
        assert data["cokernel"] == {"rank": 0, "torsion": [2]}


class TestPrimCommands:
    POINTS = (
        '[{"kind":"orbit_char","orbit":{"p":2,"q":3,"r":5,'
        '"orbit":["1/5","2/5","3/5","4/5"],'
        '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
        '"chi":{"t1":"0/1","t2":"1/4"}}]'
    )

    def test_closure_round_trip(self):
        data = run_json("prim-closure", "--points", self.POINTS)
        assert data == closed_set_to_json(closure(map(prim_point_from_json, json.loads(self.POINTS))))
        assert data["parts"][0]["part"] == [["0/1", "1/4"]]

    def test_closure_of_infinity(self):
        data = run_json("prim-closure", "--points", '[{"kind":"infinity"}]')
        assert data == {"kind": "all"}

    def test_limit_escaping(self):
        data = run_json("prim-limit", "--sequence", '{"tail":{"kind":"escaping"}}')
        assert data == {"kind": "all"}

    def test_limit_constant_orbit(self):
        seq = (
            '{"tail":{"kind":"constant_orbit","orbit":{"p":2,"q":3,"r":5,'
            '"orbit":["1/5","2/5","3/5","4/5"],'
            '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
            '"chi_limit":{"t1":"0/1","t2":"0/1"}}}'
        )
        data = run_json("prim-limit", "--sequence", seq)
        assert data["kind"] == "union"
        assert data["parts"][0]["part"] == [["0/1", "0/1"]]


class TestMiscCommands:
    def test_icc_witness(self):
        g = '{"x":{"num":"1","a":0,"b":0},"m":0,"n":0}'
        data = run_json("icc-witness", "-p", "2", "-q", "3", "--element", g,
                        "--count", "12")
        texts = [json.dumps(e, sort_keys=True) for e in data["conjugates"]]
        assert len(texts) == len(set(texts)) == 12

    def test_icc_identity_is_domain_error(self):
        g = '{"x":{"num":"0","a":0,"b":0},"m":0,"n":0}'
        proc = run("icc-witness", "-p", "2", "-q", "3", "--element", g)
        assert proc.returncode == 2

    def test_mult_indep(self):
        data = run_json("mult-indep", "-p", "4", "-q", "8")
        assert data == {"independent": False, "witness": {"r": 3, "s": 2}}
        data = run_json("mult-indep", "-p", "2", "-q", "3")
        assert data == {"independent": True, "witness": None}
        data = run_json("mult-indep", "-p", str(3**200 + 2), "-q", "5")
        assert data == {"independent": True, "witness": None}
        data = run_json("mult-indep", "-p", str(6**35), "-q", str(6**21))
        assert data == {"independent": False, "witness": {"r": 3, "s": 5}}

    def test_mult_indep_no_warning(self):
        proc = run("mult-indep", "-p", "4", "-q", "8")
        assert proc.stderr == ""

    def test_check_all_small(self):
        proc = run("check", "all", "--trials", "3", "--max-den", "12")
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is True
        assert {s["suite"] for s in data["suites"]} == {
            "exact", "dynamics", "groupalg", "traces", "ktheory", "primspace"
        }
        assert all(s["failed"] == 0 for s in data["suites"])

    def test_check_unknown_suite(self):
        proc = run("check", "nope")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: unknown suite 'nope'; expected all or one of exact, ")

    def test_help(self):
        proc = run("--help")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: xpq ")
        for name in ("orbits", "stabilizer", "fix", "lift", "trace-eval", "moments",
                     "invariance", "ktheory", "lemma36", "prim-closure", "prim-limit",
                     "icc-witness", "mult-indep", "check"):
            assert name in proc.stdout


class TestGoldenCorpus:
    @pytest.mark.parametrize(
        "argv, digest", GOLDEN, ids=[f"{i:02d}-{argv[0]}" for i, (argv, _) in enumerate(GOLDEN)]
    )
    def test_stdout_digest(self, argv, digest):
        assert stdout_digest(argv) == (0, digest)

    def test_parser_reused_across_calls(self, capsys):
        # main reuses one parser per process: a second pass over the corpus,
        # after a refused subcommand, prints what the first printed
        def one_pass():
            results = []
            for argv, _ in GOLDEN:
                code = cli.main(argv)
                results.append((code, *capsys.readouterr()))
            return results

        first = one_pass()
        assert cli.main(["frobnicate"]) == 1
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
        assert one_pass() == first
        assert cli.build_parser() is cli.build_parser()
