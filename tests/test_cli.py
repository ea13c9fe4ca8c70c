import hashlib
import json
import subprocess
import sys

import pytest

import xpq.cli as cli
from xpq import (
    CheckResult,
    SystemParams,
    closed_set_from_json,
    orbit_from_json,
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

    def test_missing_bound_is_usage_error(self):
        proc = run("orbits", "-p", "2", "-q", "3")
        assert proc.returncode == 1
        assert "max-den" in proc.stderr or "XPQ_MAX_DENOMINATOR" in proc.stderr

    def test_check_failure_returns_3(self, monkeypatch, capsys):
        failing = CheckResult("exact", passed=1, failed=2, failures=["a", "b"])
        monkeypatch.setattr(cli, "run_checks", lambda *a, **k: [failing])
        rc = cli.main(["check", "exact"])
        assert rc == 3
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["suites"][0]["failures"] == ["a", "b"]

    def test_check_success_in_process(self, capsys):
        rc = cli.main(["check", "exact", "--trials", "4", "--max-den", "12"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert all(s["failed"] == 0 for s in data["suites"])


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
]


class TestGoldenCorpus:
    @pytest.mark.parametrize(
        "argv, digest", GOLDEN, ids=[f"{i:02d}-{argv[0]}" for i, (argv, _) in enumerate(GOLDEN)]
    )
    def test_stdout_digest(self, argv, digest, capsys):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
