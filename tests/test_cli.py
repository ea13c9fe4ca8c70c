import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xpq.checks
import xpq.cli as cli
from xpq import (
    CheckResult,
    OutOfRange,
    SystemParams,
    closed_set_from_json,
    orbit_from_json,
    run_checks,
    trace_spec_from_json,
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
        assert run("ktheory", "-p", "2").returncode == 1  # missing -q
        assert run("no-such-command").returncode == 1
        assert run("ktheory", "-p", "x", "-q", "3").returncode == 1
        assert run("trace-eval", "-p", "2", "-q", "3", "--trace", "{bad json",
                   "--element", "{}").returncode == 1
        assert run("orbits", "-p", "2", "-q", "3", "--max-den", "7",
                   "--format", "nope").returncode == 1
        proc = run("prim-limit", "--sequence", '{"tail":{"kind":"escaping"},"prefix":5}')
        assert proc.returncode == 1
        assert "prefix" in proc.stderr and "Traceback" not in proc.stderr
        # coefficients whose decimal exponent would expand to 10^400000 digits and more
        for c in ("1e400000", "1e999999999"):
            element = '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":0,"n":0},"c":"%s"}]}' % c
            proc = run("trace-eval", "-p", "2", "-q", "3", "--trace", '{"kind":"canonical"}',
                       "--element", element)
            assert proc.returncode == 1 and proc.stdout == ""
            assert f"bad coefficient '{c}'" in proc.stderr and "Traceback" not in proc.stderr

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
        for argv, field in (
            (["trace-eval", "-p", "2", "-q", "3", "--trace", '{"kind":"canonical"}',
              "--element", big], "a"),
            (["fix", "-p", "2", "-q", "3", "-m", "1000000000", "-n", "0"], "m"),
        ):
            proc = run(*argv)
            assert proc.returncode == 2
            assert f"exponent {field} = 1000000000" in proc.stderr
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
             "cyclotomic level 1000000007", "1000000"),
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

    def test_missing_bound_is_usage_error(self):
        proc = run("orbits", "-p", "2", "-q", "3")
        assert proc.returncode == 1
        assert "max-den" in proc.stderr or "XPQ_MAX_DENOMINATOR" in proc.stderr

    def test_check_failure_returns_3(self, monkeypatch, capsys):
        failing = CheckResult("exact", passed=1, failed=2, failures=["a", "b"])
        monkeypatch.setattr(xpq.checks, "run_checks", lambda *a, **k: [failing])
        rc = cli.main(["check", "exact"])
        assert rc == 3
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["suites"][0]["failures"] == ["a", "b"]

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
    xpq modules it loaded; with no argv only `import xpq.cli` runs."""
    code = (
        "import json, sys\n"
        "from xpq.cli import main\n"
        "rc = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(rc, json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'xpq')), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    rc, _, names = proc.stderr.splitlines()[-1].partition(" ")
    return int(rc), set(json.loads(names))


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
        assert loaded_modules() == (0, self.BASE)
        assert loaded_modules("frobnicate") == (1, self.BASE)  # argparse refusal
        assert loaded_modules("mult-indep", "-p", "2", "-q", "3") == (0, self.BASE | {"xpq.exact"})
        # none of these loads xpq.traces, xpq.groupalg or xpq.checks, and only the
        # prim-* commands load xpq.primspace
        core = self.BASE | {"xpq.exact", "xpq.dynamics"}
        for argv, extra in (
            (["lemma36", "-m", "4", "-n", "6"], {"xpq.ktheory", "xpq.serialize"}),
            (["ktheory", "-p", "2", "-q", "3"], {"xpq.ktheory", "xpq.serialize"}),
            (["stabilizer", "-p", "2", "-q", "3", "-r", "5"], set()),
            (["fix", "-p", "2", "-q", "3", "-m", "1", "-n", "1"], set()),
            (["lift", "-p", "2", "-q", "3", "--point", "1/5"], set()),
            (["prim-closure", "--points", GOLDEN_POINTS], {"xpq.primspace", "xpq.serialize"}),
            (["prim-limit", "--sequence", GOLDEN_SEQUENCE], {"xpq.primspace", "xpq.serialize"}),
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
        "p, q", [(2, 3), (5, 7), (6, 10), (4, 6), (2, 4), (1000000007, 998244353)]
    )
    def test_streamed_output_matches_generic_writers(self, p, q, capsys):
        # the per-orbit templates against _dumps(orbit_to_json(orbit)) (inside
        # the whole document), csv.writer and the per-orbit pretty line
        import csv
        import io

        from xpq import enumerate_minimal_sets, orbit_to_json

        bound = 300
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
            assert capsys.readouterr().out == text, fmt

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


class TestLift:
    def test_lift(self):
        data = run_json("lift", "-p", "2", "-q", "3", "--point", "3/7", "--depth", "4")
        seq = data["lifts"]
        assert len(seq) == 5 and seq[0] == "3/7"
        # each level multiplies back by pq
        from xpq import QmodZ

        for cur, nxt in zip(seq, seq[1:]):
            assert QmodZ.parse(nxt).mul_int(6) == QmodZ.parse(cur)


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
        desc = closed_set_from_json(data)
        assert not desc.is_empty()
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
        assert run("check", "nope").returncode == 1

    def test_help(self):
        proc = run("--help")
        assert proc.returncode == 0
        for name in ("orbits", "stabilizer", "fix", "lift", "trace-eval", "moments",
                     "invariance", "ktheory", "lemma36", "prim-closure", "prim-limit",
                     "icc-witness", "mult-indep", "check"):
            assert name in proc.stdout


# A fixed corpus of argv, covering every subcommand in every --format it
# accepts, with the sha256 of the stdout each one printed before the CLI
# and dynamics refactors.  Internal cleanups must leave these bytes alone.
GOLDEN_SPEC5 = (
    '{"kind":"finite_orbit","orbit":{"p":2,"q":3,"r":5,'
    '"orbit":["1/5","2/5","3/5","4/5"],'
    '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
    '"chi":{"t1":"0/1","t2":"1/4"}}'
)
GOLDEN_MEASURE7 = (
    '{"kind":"orbit_measure","orbit":{"p":2,"q":3,"r":7,'
    '"orbit":["1/7","2/7","3/7","4/7","5/7","6/7"],'
    '"stabilizer":{"basis":[[1,4],[0,6]],"index":6}}}'
)
GOLDEN_ELEMENT = (
    '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":0,"n":0},"c":"1"},'
    '{"g":{"x":{"num":"0","a":0,"b":0},"m":1,"n":-1},"c":"-2/3"},'
    '{"g":{"x":{"num":"5","a":1,"b":2},"m":4,"n":0},"c":"7"}]}'
)
GOLDEN_POINTS = (
    '[{"kind":"orbit_char","orbit":{"p":2,"q":3,"r":5,'
    '"orbit":["1/5","2/5","3/5","4/5"],'
    '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
    '"chi":{"t1":"0/1","t2":"1/4"}},{"kind":"orbit_char","orbit":{"p":2,"q":3,"r":1,'
    '"orbit":["0/1"],"stabilizer":{"basis":[[1,0],[0,1]],"index":1}},'
    '"chi":{"t1":"1/2","t2":"0/1"}}]'
)
GOLDEN_SEQUENCE = (
    '{"prefix":[{"kind":"infinity"}],"tail":{"kind":"constant_orbit","orbit":{"p":2,"q":3,"r":5,'
    '"orbit":["1/5","2/5","3/5","4/5"],'
    '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
    '"chi_limit":{"t1":"0/1","t2":"1/2"}}}'
)
GOLDEN_GROUP_ELEMENT = '{"x":{"num":"1","a":0,"b":0},"m":1,"n":0}'
# one orbit of all 24 units mod 35, and one of the two orbits mod 95
GOLDEN_ORBIT35 = (
    '{"p":2,"q":3,"r":35,"orbit":["1/35","2/35","3/35","4/35","6/35","8/35","9/35","11/35",'
    '"12/35","13/35","16/35","17/35","18/35","19/35","22/35","23/35","24/35","26/35","27/35",'
    '"29/35","31/35","32/35","33/35","34/35"],"stabilizer":{"basis":[[2,2],[0,12]],"index":24}}'
)
GOLDEN_ORBIT95 = (
    '{"p":2,"q":3,"r":95,"orbit":["7/95","14/95","17/95","21/95","23/95","28/95","29/95",'
    '"31/95","34/95","41/95","42/95","43/95","46/95","47/95","51/95","56/95","58/95","59/95",'
    '"62/95","63/95","68/95","69/95","71/95","73/95","77/95","79/95","82/95","83/95","84/95",'
    '"86/95","87/95","89/95","91/95","92/95","93/95","94/95"],'
    '"stabilizer":{"basis":[[1,29],[0,36]],"index":36}}'
)
GOLDEN_SPEC35 = '{"kind":"finite_orbit","orbit":' + GOLDEN_ORBIT35 + ',"chi":{"t1":"1/3","t2":"1/4"}}'
GOLDEN_MEASURE35 = '{"kind":"orbit_measure","orbit":' + GOLDEN_ORBIT35 + '}'
GOLDEN_SPEC95 = '{"kind":"finite_orbit","orbit":' + GOLDEN_ORBIT95 + ',"chi":{"t1":"1/3","t2":"1/4"}}'
# every term lies in the r = 35 stabilizer lattice, so the character shows
GOLDEN_LATTICE_ELEMENT = (
    '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":2,"n":2},"c":"3/5"},'
    '{"g":{"x":{"num":"-5","a":1,"b":0},"m":0,"n":12},"c":"-2"},'
    '{"g":{"x":{"num":"0","a":0,"b":0},"m":2,"n":14},"c":"1"}]}'
)
# shared-prime pairs, where the canonical form of Z[1/pq] picks minimal b
# first, then minimal a; the r = 7 orbit of (4, 6) and an element whose
# terms are canonical there
GOLDEN_ORBIT7_46 = (
    '{"p":4,"q":6,"r":7,"orbit":["1/7","2/7","3/7","4/7","5/7","6/7"],'
    '"stabilizer":{"basis":[[3,0],[0,2]],"index":6}}'
)
GOLDEN_SPEC7_46 = '{"kind":"finite_orbit","orbit":' + GOLDEN_ORBIT7_46 + ',"chi":{"t1":"1/3","t2":"1/2"}}'
GOLDEN_MEASURE7_46 = '{"kind":"orbit_measure","orbit":' + GOLDEN_ORBIT7_46 + '}'
GOLDEN_ELEMENT_46 = (
    '{"terms":[{"g":{"x":{"num":"5","a":2,"b":1},"m":3,"n":0},"c":"2/3"},'
    '{"g":{"x":{"num":"-7","a":0,"b":2},"m":0,"n":2},"c":"-1"},'
    '{"g":{"x":{"num":"6","a":2,"b":0},"m":3,"n":4},"c":"5"},'
    '{"g":{"x":{"num":"11","a":0,"b":1},"m":1,"n":0},"c":"1"}]}'
)
# composite cyclotomic levels: the r = 385 = 5 7 11 orbit of 1/385 with a
# level-12 character (level 4620 = 2^2 3 5 7 11), an element with three
# terms in its stabilizer lattice, and the r = 5 orbit with t1 = 1/30030
GOLDEN_ORBIT385 = (
    '{"p":2,"q":3,"r":385,"orbit":['
    + ",".join(f'"{a}/385"' for a in sorted({pow(2, i, 385) * pow(3, j, 385) % 385
                                             for i in range(60) for j in range(60)}))
    + '],"stabilizer":{"basis":[[2,26],[0,60]],"index":120}}'
)
GOLDEN_SPEC385 = '{"kind":"finite_orbit","orbit":' + GOLDEN_ORBIT385 + ',"chi":{"t1":"1/12","t2":"1/4"}}'
GOLDEN_ELEMENT385 = (
    '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":2,"n":26},"c":"3/5"},'
    '{"g":{"x":{"num":"-5","a":1,"b":0},"m":0,"n":60},"c":"-2"},'
    '{"g":{"x":{"num":"7","a":0,"b":2},"m":4,"n":112},"c":"1"},'
    '{"g":{"x":{"num":"1","a":0,"b":0},"m":1,"n":0},"c":"4"}]}'
)
GOLDEN_SPEC5_30030 = (
    '{"kind":"finite_orbit","orbit":{"p":2,"q":3,"r":5,'
    '"orbit":["1/5","2/5","3/5","4/5"],'
    '"stabilizer":{"basis":[[1,1],[0,4]],"index":4}},'
    '"chi":{"t1":"1/30030","t2":"0"}}'
)
GOLDEN_UNIT11 = '{"terms":[{"g":{"x":{"num":"1","a":0,"b":0},"m":1,"n":1},"c":"1"}]}'
# one group element given twice with 1/6 and 1/3, which merge to 1/2, and
# another given with 1/4 and -1/4, which cancel
GOLDEN_MERGING_46 = (
    '{"terms":[{"g":{"x":{"num":"5","a":1,"b":1},"m":3,"n":2},"c":"1/6"},'
    '{"g":{"x":{"num":"-7","a":0,"b":2},"m":0,"n":2},"c":"1/4"},'
    '{"g":{"x":{"num":"5","a":1,"b":1},"m":3,"n":2},"c":"1/3"},'
    '{"g":{"x":{"num":"0","a":0,"b":0},"m":0,"n":0},"c":"2"},'
    '{"g":{"x":{"num":"-7","a":0,"b":2},"m":0,"n":2},"c":"-1/4"}]}'
)
GOLDEN = [
    (
        ["orbits", "-p", "2", "-q", "3", "--max-den", "40"],
        "40b0ea954e166b60535081d95ee0e4688c277979b324c6b9f98e6b9168112131",
    ),
    (
        ["orbits", "-p", "2", "-q", "3", "--max-den", "40", "--format", "pretty"],
        "f8517c7311d24a97eeee45c7af1129dea906b494a24bb1283a2024c987b42c5a",
    ),
    (
        ["orbits", "-p", "2", "-q", "3", "--max-den", "40", "--format", "csv"],
        "daad981de941663449888fc80e528676f2102e9774facd941466a1fbc5aa87cf",
    ),
    (
        ["orbits", "-p", "2", "-q", "4", "--max-den", "9", "--format", "json"],
        "46d6730faebf0975a94383f587190e671b6906958e3c5f632682f80b341632ca",
    ),
    (
        ["orbits", "-p", "3", "-q", "5", "--max-den", "1"],
        "39f2fa10d1fb0ba25421530b1dfae1c7bf668bdb8a23ce421bf2b471b8163aba",
    ),
    (
        ["stabilizer", "-p", "2", "-q", "3", "-r", "35"],
        "ca4c7b0e29b4897ac3a452be94269445e23ca4c7df4c250d79488c4313dbc520",
    ),
    (
        ["stabilizer", "-p", "2", "-q", "3", "-r", "1", "--format", "pretty"],
        "b5b92e3fec786d21ba4fc76ca38719ae8a658dac324964882b074c87f6128508",
    ),
    (
        ["fix", "-p", "2", "-q", "3", "-m", "2", "-n", "1"],
        "ab648eb0971acf22913ad9386582abc5989aa166c159946d36d76a9ef7b9a0ba",
    ),
    (
        ["fix", "-p", "2", "-q", "3", "-m", "1", "-n", "1", "--max-den", "5", "--format", "pretty"],
        "894813e27a68dd5088d19ebebe09bb5b69549f627e104954f591bedd0b2df9b1",
    ),
    (
        ["lift", "-p", "2", "-q", "3", "--point", "3/7", "--depth", "6"],
        "bbfc82b1736e6624ac4ab2b509002e04589ef31a66635e8db7d13a58f850fa2d",
    ),
    (
        ["lift", "-p", "2", "-q", "5", "--point", "1/9", "--format", "pretty"],
        "cfaa9cec542ccd13ca11c07d2aa43e2a095b432e9baad996834c1040ab382d2e",
    ),
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5, "--element", GOLDEN_ELEMENT],
        "1c1e15d66a3a250e3d4e79f825fb068e2a8dfa6b1adf26e38ff9206b41c593ac",
    ),
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_MEASURE7, "--element", GOLDEN_ELEMENT, "--format", "pretty"],
        "46e4e9d6e26674ee138aebd63019f810b6ff859bd9f4e2b424bfae68de21ec5a",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5, "--n-max", "8"],
        "c25705681f74c0fcddc8f30e604f794de8611a7f14ced9ddddcf4064401d8e55",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_MEASURE7, "--n-max", "8", "--format", "pretty"],
        "6de50b84e4bd2a90943b2d94641f3f66619b66bdb780b33846d1408eca812710",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5, "--n-max", "8", "--format", "csv"],
        "acc48ecc5e7e59702fd48c88f89b3614831b499485ec3c914824f9e6e5cb50cc",
    ),
    (
        ["invariance", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5, "--n-max", "12"],
        "de2766fe872a62744acbd509c7b074a2d12d0fa2bf57163184bfb901a7e3f22a",
    ),
    (
        ["invariance", "-p", "2", "-q", "3", "--trace", '{"kind":"canonical"}', "--format", "pretty"],
        "ac8bbfe70e834536cd0a2e8a1ca806a05c000165e335a94f9b6799c9273ab4b4",
    ),
    (
        ["ktheory", "-p", "3", "-q", "5"],
        "b83f4e03c1f537d485545fc8835aaba5a31cae3bdc05a3b2f1589aa61d979e5c",
    ),
    (
        ["ktheory", "-p", "4", "-q", "6", "--format", "pretty"],
        "3d897e23f292da32c46d8c04479b6ae8b30a30cd0a0675621275f1fe4b3f3182",
    ),
    (
        ["lemma36", "-m", "6", "-n", "20"],
        "d9231755ea7e09f388ca17713f8cad5fb22a252e5ea453275b1bbc9999f1f10e",
    ),
    (
        ["lemma36", "-m", "2", "-n", "4", "--format", "pretty"],
        "88e35b9f477944fcebbf009ddde9962337e0ca7538f61fcb503a04b3e5b74706",
    ),
    (
        ["prim-closure", "--points", GOLDEN_POINTS],
        "4a927a245c06def941e21340601f1cca4f8daa2367c9b907d1ebbca8d3739612",
    ),
    (
        ["prim-closure", "--points", GOLDEN_POINTS, "--format", "pretty"],
        "1aa1cc018bec22f65ee339544c66498060f9f2fba672e94035760656c3679761",
    ),
    (
        ["prim-limit", "--sequence", GOLDEN_SEQUENCE],
        "83f79a2350d7638ad5f1d2a3e8f2fe2786a8d9fb2d03c23c743dfd86c319d860",
    ),
    (
        ["prim-limit", "--sequence", '{"tail":{"kind":"escaping"}}', "--format", "pretty"],
        "8f17ebadd525dc0a11baaac8c619fdf2500e35c1cb47dc7fd96489b8e933fb32",
    ),
    (
        ["icc-witness", "-p", "2", "-q", "3", "--element", GOLDEN_GROUP_ELEMENT, "--count", "5"],
        "43ef92b44f8ebba984fc45f5d7053a603b094cee4fed4bfcd0e98148e1b15dd6",
    ),
    (
        ["icc-witness", "-p", "2", "-q", "3", "--element", GOLDEN_GROUP_ELEMENT, "--format", "pretty"],
        "9e4bb7c4f682ef8dbc64bc26b4ac807be0e4e70edfae5ea7536903464bc888ea",
    ),
    (
        ["mult-indep", "-p", "4", "-q", "8"],
        "aa2c87380681f4d90948e2b61ea32caec17f30bebeeff0b6195b51e596437ea8",
    ),
    (
        ["mult-indep", "-p", "2", "-q", "3", "--format", "pretty"],
        "78c48a1cc9dbfb750a8b4bc8dc4c118bb8d0d642d56c1c8ca4bfee0ff6dc7f7e",
    ),
    (
        ["check", "all", "--trials", "3", "--max-den", "10", "--seed", "5"],
        "19bd4efab975a8eb29d0619c1c0688ffb188ee50ac751f88aba824b36524e7b5",
    ),
    (
        ["check", "dynamics", "--trials", "3", "--seed", "11", "--format", "pretty"],
        "07421e2e7f58c0b52f34b3476700de447cc841b7e80c5c3a48c1bb0ed693669b",
    ),
    # the two below were recorded before orbits became integer numerators
    (
        ["orbits", "-p", "2", "-q", "4", "--max-den", "150", "--format", "csv"],
        "1d4dd0cd8a4271f587280d5ac14429dd6cd029c286857da1d98ccbb06ba5a898",
    ),
    (
        ["orbits", "-p", "5", "-q", "7", "--max-den", "200"],
        "42a81cbdace50118b79d76918e970d79c11f3238650cfb27cf2913b3b67e668a",
    ),
    # the five below were recorded before trace values were encoded from
    # their integer vectors: dens > 1, negative entries, composite levels
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC35, "--n-max", "6"],
        "da1f6d242fada69c161b9f305e4c66572bccc3e99285c5534bcf8ad19cf17473",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC35, "--n-max", "6", "--format", "csv"],
        "2ba577edf0aa65ba0360318b22ef242ebfd4740dba42f4ece1c478807177d50e",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC95, "--n-max", "4"],
        "0c4016015a548abeb7a92796568cf5a841302adae9e9006e0bcd2fc09264dff7",
    ),
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_MEASURE35, "--element", GOLDEN_ELEMENT],
        "d8007c2671260e4c830aab7ad3a24d38f43951ce5ab29bdb1dd1ae6293258842",
    ),
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC35, "--element", GOLDEN_LATTICE_ELEMENT],
        "d11bbcfb3a8640969bcf86913a850527e3269027a601746578fe129d5c382b43",
    ),
    # the six below were recorded before Z[1/pq] arithmetic moved from
    # Fraction and factoring to integer gcd steps
    (
        ["icc-witness", "-p", "6", "-q", "10", "--element", '{"x":{"num":"7","a":1,"b":1},"m":1,"n":-1}', "--count", "6"],
        "4a4521817e982ab8aa987b160bbbadc2ba80abd39a7d8f722007df7deea85090",
    ),
    (
        ["icc-witness", "-p", "6", "-q", "10", "--element", '{"x":{"num":"0","a":0,"b":0},"m":1,"n":-1}', "--count", "5"],
        "81eefa0f1065cd853dc10f66af07147e370335796d04cb30c66190748aa7e8cb",
    ),
    (
        ["trace-eval", "-p", "4", "-q", "6", "--trace", GOLDEN_SPEC7_46, "--element", GOLDEN_ELEMENT_46],
        "890f4807b710238fb4dd1a346a65eaf38e4670211a8e7784a56952ac6c00e19b",
    ),
    (
        ["trace-eval", "-p", "4", "-q", "6", "--trace", GOLDEN_MEASURE7_46, "--element", GOLDEN_ELEMENT_46, "--format", "pretty"],
        "4b2a168d6313f274a534cccf69b2209f6184c5895d8dada9bef92b92e9cc54a3",
    ),
    (
        ["check", "groupalg", "-p", "6", "-q", "10", "--trials", "4", "--seed", "7"],
        "c5d3ced10f68fbbb8bdda559a3e786be98c6833bb2e2d00579afbf7b3e553cb3",
    ),
    (
        ["check", "exact", "-p", "4", "-q", "6", "--trials", "6", "--seed", "3", "--max-den", "12"],
        "c55177dc9c0e7c1d2638b4fa94486aaebeea52a6b35be52421cd3169ec719885",
    ),
    # the three below were recorded before orbits were built as cosets of
    # <p, q> and the JSON census was written orbit by orbit
    (
        ["orbits", "-p", "6", "-q", "10", "--max-den", "400"],
        "c03055cc434c5d2dc9c1b4a730b93b1a9111e6a797d51ca14ad22920da7ec80b",
    ),
    (
        ["orbits", "-p", "3", "-q", "4", "--max-den", "300", "--format", "pretty"],
        "666e9d0424940d95312da77596617dd204c15fb6a2d9ddc7540bf2506cc046e1",
    ),
    (
        ["orbits", "-p", "5", "-q", "7", "--max-den", "600", "--format", "csv"],
        "acba2651af130b78ee0fd4df442e747e275d7df4517b9e312befa962f63ff81e",
    ),
    # the three below were recorded before Phi_N and the reduction mod Phi_N
    # were computed from the binomials (1 - x^d)
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC385, "--element", GOLDEN_ELEMENT385],
        "ad8acffed743f083a7da4c26badc2203398c5e0826eb38d385f0864486d4a098",
    ),
    (
        ["moments", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC385, "--n-max", "8"],
        "c2f63239e96d375458900694ce4ca71bd2e5a2c25c3319470413a22cbe5accc2",
    ),
    (
        ["trace-eval", "-p", "2", "-q", "3", "--trace", GOLDEN_SPEC5_30030, "--element", GOLDEN_UNIT11],
        "7bbb95ebd824ce1286be77cdfa981c47d906664e947f0a29f25efaf2c64d7b31",
    ),
    # the three below were recorded before the orbits census was streamed
    # r by r with its count taken from phi(r) / index
    (
        ["orbits", "-p", "2", "-q", "3", "--max-den", "1500"],
        "7a215b2f9158557155411a4402c639d85f16e578de0147cc633e3f44e8f16c41",
    ),
    (
        ["orbits", "-p", "5", "-q", "7", "--max-den", "800", "--format", "pretty"],
        "3d7087f6b23a26af8a76a47a7105cc70f22e3c2827d02793b8f1dd1d21dc7c94",
    ),
    (
        ["orbits", "-p", "1000000007", "-q", "998244353", "--max-den", "200", "--format", "csv"],
        "3055b061a07f9f43acf9d63e824b4bd7296fe59dbe763b9910a05bd59ae79874",
    ),
    # recorded before Q[G] elements were stored as integer numerators over
    # one denominator
    (
        ["trace-eval", "-p", "4", "-q", "6", "--trace", GOLDEN_SPEC7_46, "--element", GOLDEN_MERGING_46],
        "195d6ded4af8c7423c086f8536efc352b98cfa733b49b1b95524e5bf85b5582c",
    ),
]


class TestGoldenCorpus:
    @pytest.mark.parametrize(
        "argv, digest", GOLDEN, ids=[f"{i:02d}-{argv[0]}" for i, (argv, _) in enumerate(GOLDEN)]
    )
    def test_stdout_digest(self, argv, digest, capsys):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
