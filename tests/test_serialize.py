import json
import random
from fractions import Fraction

import pytest

from helpers import random_algebra_element, random_group_element, reference_point_numerator
from xpq import (
    ALL,
    ESCAPING,
    FULL,
    INFINITY,
    CanonicalTrace,
    Character,
    Cyclotomic,
    FinitePoints,
    FiniteUnion,
    FiniteOrbitTrace,
    GroupElement,
    OrbitCharPoint,
    OrbitMeasureTrace,
    ParamsMismatch,
    PqRational,
    QmodZ,
    SequenceDesc,
    SolenoidPoint,
    SystemParams,
    algebra_element_from_json,
    algebra_element_to_json,
    closed_set_to_json,
    cyclotomic_to_json,
    evaluation_to_json,
    group_element_from_json,
    group_element_to_json,
    k_theory_of_group,
    ktheory_result_to_json,
    moments,
    moments_to_json,
    orbit_from_json,
    orbit_of,
    orbit_to_json,
    pq_rational_from_json,
    prim_point_from_json,
    root_of_unity,
    sequence_desc_from_json,
    trace_spec_from_json,
    trace_spec_to_json,
)
from xpq.dynamics import MAX_EXPONENT
from xpq.errors import OutOfRange
from xpq.serialize import MAX_COEFFICIENT_EXPONENT

P23 = SystemParams(2, 3)
ORBIT5 = orbit_of(P23, SolenoidPoint.of(1, 5))
ORBIT7 = orbit_of(P23, SolenoidPoint.of(1, 7))


def round_trips_as_json(payload) -> bool:
    return json.loads(json.dumps(payload)) == payload


class TestPqRational:
    def test_shape(self):
        x = PqRational(5, 1, 2)
        data = group_element_to_json(GroupElement(x, 0, 0))["x"]
        assert data == {"num": "5", "a": 1, "b": 2}
        assert round_trips_as_json(data)
        assert pq_rational_from_json(data, P23) == x

    def test_round_trip_seeded(self):
        rng = random.Random(71)
        for _ in range(100):
            g = random_group_element(rng, P23)
            assert pq_rational_from_json(group_element_to_json(g)["x"], P23) == g.x

    def test_big_numerator_as_string(self):
        x = PqRational(10**40 + 1, 3, 0)
        data = group_element_to_json(GroupElement(x, 0, 0))["x"]
        assert data["num"] == str(10**40 + 1)
        assert pq_rational_from_json(data, P23) == x

    def test_validation(self):
        with pytest.raises(ValueError):
            pq_rational_from_json({"num": "1", "a": -1, "b": 0}, P23)
        with pytest.raises(ValueError):
            pq_rational_from_json({"num": "x", "a": 0, "b": 0}, P23)
        # integer strings are ASCII digits after an optional "-"; int() alone
        # reads "١_٢" as 12
        for bad in ("١_٢", "1_2", " 12", "12\n", "+12", "１２", 12.0, True):
            with pytest.raises(ValueError, match="key 'num' is not an integer"):
                pq_rational_from_json({"num": bad, "a": 0, "b": 0}, P23)
        with pytest.raises(ValueError):
            pq_rational_from_json({"num": "1", "a": 0}, P23)
        # 2/2^1 is not in canonical form: the numerator carries a p-factor
        with pytest.raises(ValueError):
            pq_rational_from_json({"num": "2", "a": 1, "b": 0}, P23)
        with pytest.raises(ValueError):
            pq_rational_from_json({"num": "0", "a": 1, "b": 0}, P23)
        # exponents beyond the limit are refused before any power is computed
        for key in ("a", "b"):
            data = {"num": "1", "a": 0, "b": 0, key: 10**9}
            with pytest.raises(OutOfRange, match=f"^{key} = {10**9} out of range; expected 0 <= {key} <= {MAX_EXPONENT}$"):
                pq_rational_from_json(data, P23)
        x = PqRational(1, MAX_EXPONENT, 0)
        assert pq_rational_from_json({"num": "1", "a": MAX_EXPONENT, "b": 0}, P23) == x


class TestCyclotomic:
    def test_shape(self):
        z = root_of_unity(QmodZ(1, 4))
        data = cyclotomic_to_json(z)
        assert data["level"] == 4
        assert data["coeffs"] == ["0", "1"]
        assert abs(data["approx"]["im"] - 1.0) < 1e-12
        assert round_trips_as_json(data)

    def test_evaluation_wrapper(self):
        val = root_of_unity(QmodZ(1, 3)).scaled(Fraction(1, 2))
        data = evaluation_to_json(val)
        assert set(data) == {"exact", "approx"}
        assert data["exact"]["level"] == 3
        assert abs(data["approx"]["re"] + 0.25) < 1e-12

    def test_coeffs_match_fraction_oracle(self):
        # seeded values with zero and negative entries over dens > 1,
        # at prime, prime-power and composite levels
        rng = random.Random(4)
        for level in (1, 2, 4, 7, 9, 12, 15, 35, 95, 420):
            for _ in range(6):
                vec = [rng.choice((0, 0, 0, rng.randint(-40, 40))) for _ in range(level)]
                v = Cyclotomic(level, vec, rng.randint(1, 60))
                data = cyclotomic_to_json(v)
                assert data["level"] == v.level
                assert data["coeffs"] == [str(c) for c in v.coeffs]
                z = v.approx()
                wrapped = evaluation_to_json(v)
                for approx in (data["approx"], wrapped["exact"]["approx"], wrapped["approx"]):
                    assert approx == {"re": z.real, "im": z.imag}


class TestOrbit:
    def test_shape_and_round_trip(self):
        data = orbit_to_json(ORBIT5)
        assert data == {
            "p": 2,
            "q": 3,
            "r": 5,
            "orbit": ["1/5", "2/5", "3/5", "4/5"],
            "stabilizer": {"basis": [[1, 1], [0, 4]], "index": 4},
        }
        assert round_trips_as_json(data)
        assert orbit_from_json(data) == ORBIT5

    def test_round_trip_many(self):
        for p, q, rmax in ((2, 3, 40), (3, 5, 30)):
            params = SystemParams(p, q)
            from xpq import enumerate_minimal_sets

            for orbit in enumerate_minimal_sets(params, rmax):
                assert orbit_from_json(orbit_to_json(orbit)) == orbit

    def test_rejects_corruption(self):
        base = orbit_to_json(ORBIT5)

        with pytest.raises(ValueError, match="^empty orbit list$"):
            orbit_from_json(dict(base, orbit=[]))

        data = json.loads(json.dumps(base))
        data["orbit"] = ["1/5", "2/5", "3/5"]  # dropped a point
        with pytest.raises(ValueError, match=r"^the orbit list mod 5 has 3 entries, not index\(L_r\) = 4$"):
            orbit_from_json(data)
        data["orbit"] = ["1/5", "2/5", "3/5", "4/5", "4/5"]  # one entry too many
        with pytest.raises(ValueError, match=r"^the orbit list mod 5 has 5 entries, not index\(L_r\) = 4$"):
            orbit_from_json(data)

        data = json.loads(json.dumps(base))
        data["orbit"] = ["1/5", "2/5", "3/5", "8/10"]  # not lowest terms
        with pytest.raises(ValueError, match="'8/10' is not a point of the orbit of 1/5"):
            orbit_from_json(data)

        # text that reduces to the orbit's points is not the orbit's own text
        data = json.loads(json.dumps(base))
        data["orbit"] = ["2/10", "4/10", "6/10", "8/10"]
        with pytest.raises(ValueError, match="'2/10' is not a point of the orbit of 1/5"):
            orbit_from_json(data)

        # any order is accepted
        data = json.loads(json.dumps(base))
        data["orbit"] = ["3/5", "1/5", "4/5", "2/5"]
        assert orbit_from_json(data) == ORBIT5

        # a value that is not a string, after the first point, is refused
        # without a TypeError, even when it cannot be hashed
        for bad in (5, None, [1]):
            data = json.loads(json.dumps(base))
            data["orbit"][2] = bad
            with pytest.raises(ValueError, match="is not a point of the orbit of 1/5") as info:
                orbit_from_json(data)
            assert repr(bad) in str(info.value)

        data = json.loads(json.dumps(base))
        data["orbit"] = ["1/5", "2/5", "3/5", "3/5"]  # duplicate
        with pytest.raises(ValueError, match="'3/5' is listed twice in the orbit list mod 5"):
            orbit_from_json(data)

        data = json.loads(json.dumps(base))
        data["stabilizer"]["index"] = 2
        with pytest.raises(ValueError):
            orbit_from_json(data)

        data = json.loads(json.dumps(base))
        data["stabilizer"]["basis"] = [[1, 0], [0, 4]]
        with pytest.raises(ValueError):
            orbit_from_json(data)

        data = json.loads(json.dumps(base))
        data["r"] = 7
        with pytest.raises(ValueError):
            orbit_from_json(data)

        # points are ASCII "a/b"; int() alone reads " ١/٥" as 1/5
        for bad in (" ١/٥", "1/5 ", "1_0/5", "+1/5", "1/", "1/-5", "/5", "1/2/3"):
            data = json.loads(json.dumps(base))
            data["orbit"][0] = bad
            with pytest.raises(ValueError, match="bad rational"):
                orbit_from_json(data)

    def test_list_checked_as_a_set_still_names_the_first_bad_text(self):
        # the whole list is checked in one set operation; a list that fails
        # it is walked, so the message names the first entry that is bad
        base = orbit_to_json(ORBIT5)
        for listed, message in (
            (["1/5", "2/5", "3/5", [1]], "[1] is not a point"),
            (["1/5", "2/5", "3/5", {"a": 1}], "{'a': 1} is not a point"),
            (["1/5", "1/5", [1], "9/5"], "'1/5' is listed twice"),
            (["1/5", "2/5", "7/5", "2/5"], "'7/5' is not a point"),
            (["1/5", "2/5", "4/5", "2/5"], "'2/5' is listed twice"),
        ):
            with pytest.raises(ValueError) as info:
                orbit_from_json(dict(base, orbit=listed))
            assert str(info.value).startswith(message)
        assert orbit_from_json(dict(base, orbit=["4/5", "3/5", "2/5", "1/5"])) == ORBIT5

    def test_point_decoder_matches_reference(self):
        # 6 and 11 are 1 mod 5, so each a/5 is an orbit by itself
        base = orbit_to_json(orbit_of(SystemParams(6, 11), SolenoidPoint.of(1, 5)))
        corpus = ["1/5", "6/5", "-4/5", "2/10", "0/1", "1/0", "1/-5", "/5", "", "1/", "--1/5",
                  "1/2/3", "+1/5", "1_0/5", " ١/٥", "1/5 ", "1" * 5000 + "/5", 5, None]
        for text in corpus:
            data = dict(base, orbit=[text])
            try:
                expected = reference_point_numerator(text, 5)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    orbit_from_json(data)
                assert type(info.value) is type(exc) and str(info.value) == str(exc), text
            else:
                assert orbit_from_json(data).numerators == (expected,), text

    def test_parses_one_point_per_payload(self, monkeypatch):
        # the list is compared with the rebuilt orbit's own text, not parsed
        data = orbit_to_json(orbit_of(SystemParams(2, 5), SolenoidPoint.of(1, 10007)))
        assert len(data["orbit"]) == 10006
        calls = []
        parse = QmodZ.parse

        def counted(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(QmodZ, "parse", counted)
        assert orbit_from_json(data).size == 10006
        assert calls == ["1/10007"]

    def test_rejects_union_of_two_orbits(self):
        # 1/20 and 1/5 generate different orbits mod 20... use a modulus
        # where the unit group splits: mod 35, orbit of 1 misses some units
        params = SystemParams(2, 3)
        from xpq import enumerate_minimal_sets

        orbits35 = [o for o in enumerate_minimal_sets(params, 35) if o.denominator == 35]
        if len(orbits35) > 1:
            merged = orbit_to_json(orbits35[0])
            merged["orbit"] = sorted(
                merged["orbit"] + orbit_to_json(orbits35[1])["orbit"],
                key=lambda s: int(s.split("/")[0]),
            )
            with pytest.raises(ValueError):
                orbit_from_json(merged)


class TestGroupElements:
    def test_shape(self):
        g = random_group_element(random.Random(3), P23)
        data = group_element_to_json(g)
        assert set(data) == {"x", "m", "n"}
        assert group_element_from_json(data, P23) == g
        assert round_trips_as_json(data)

    def test_exponent_limit(self):
        for key in ("m", "n"):
            data = {"x": {"num": "1", "a": 0, "b": 0}, "m": 0, "n": 0, key: -(10**9)}
            with pytest.raises(
                OutOfRange, match=f"^{key} = {-(10**9)} out of range; expected {-MAX_EXPONENT} <= {key} <= {MAX_EXPONENT}$"
            ):
                group_element_from_json(data, P23)

    def test_algebra_round_trip(self):
        rng = random.Random(73)
        for _ in range(50):
            a = random_algebra_element(rng, P23)
            data = algebra_element_to_json(a)
            assert algebra_element_from_json(data, P23) == a
            assert round_trips_as_json(data)

    def test_coefficients_are_exact_strings(self):
        from xpq import GroupAlgebraElement, GroupElement

        a = GroupAlgebraElement.from_terms(
            P23, [(GroupElement.identity(), Fraction(1, 3))]
        )
        data = algebra_element_to_json(a)
        assert data["terms"][0]["c"] == "1/3"

    def test_bad_coefficient(self):
        good = {"g": {"x": {"num": "0", "a": 0, "b": 0}, "m": 0, "n": 0}}
        # no non-ASCII character, "_" or whitespace, which Fraction() accepts
        for bad in ("x", "1/0", "", " 1/3", "1/3\n", "1 / 3", "1_000", "١/٣", "0.2_5"):
            data = {"terms": [dict(good, c=bad)]}
            with pytest.raises(ValueError):
                algebra_element_from_json(data, P23)
        # a decimal exponent is bounded before Fraction builds 10**exponent
        for bad in ("1e400000", "1e999999999", f"1e-{MAX_COEFFICIENT_EXPONENT + 1}", "1e" + "9" * 5000):
            data = {"terms": [dict(good, c=bad)]}
            with pytest.raises(ValueError, match="bad coefficient"):
                algebra_element_from_json(data, P23)
        data = {"terms": [dict(good, c=f"1E{MAX_COEFFICIENT_EXPONENT}")]}
        assert algebra_element_from_json(data, P23).terms[0][1] == 10**MAX_COEFFICIENT_EXPONENT
        # exact decimal strings are accepted leniently on input
        data = {"terms": [dict(good, c="0.5")]}
        a = algebra_element_from_json(data, P23)
        assert a.terms[0][1] == Fraction(1, 2)
        for text, value in (("1/3", Fraction(1, 3)), ("-2", -2), ("0.25", Fraction(1, 4)),
                            ("25e-3", Fraction(1, 40))):
            data = {"terms": [dict(good, c=text)]}
            assert algebra_element_from_json(data, P23).terms[0][1] == value


class TestTraceSpecs:
    def test_finite_orbit_round_trip(self):
        chi = Character(ORBIT5.stabilizer, QmodZ(1, 3), QmodZ(1, 4))
        spec = FiniteOrbitTrace(ORBIT5, chi)
        data = trace_spec_to_json(spec)
        assert data["kind"] == "finite_orbit"
        assert data["chi"] == {"t1": "1/3", "t2": "1/4"}
        assert trace_spec_from_json(data, P23) == spec
        assert trace_spec_from_json(data, P23).chi.lattice == ORBIT5.stabilizer

    def test_orbit_measure_round_trip(self):
        spec = OrbitMeasureTrace(ORBIT7)
        data = trace_spec_to_json(spec)
        assert data["kind"] == "orbit_measure" and "chi" not in data
        assert trace_spec_from_json(data, P23) == spec

    def test_canonical_needs_params(self):
        data = trace_spec_to_json(CanonicalTrace(P23))
        assert data == {"kind": "canonical"}
        assert trace_spec_from_json(data, P23) == CanonicalTrace(P23)

    def test_params_mismatch(self):
        data = trace_spec_to_json(OrbitMeasureTrace(ORBIT5))
        with pytest.raises(ParamsMismatch):
            trace_spec_from_json(data, SystemParams(2, 5))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            trace_spec_from_json({"kind": "mystery"}, P23)

    def test_moments_shape(self):
        seq = moments(CanonicalTrace(P23), 3)
        data = moments_to_json(seq)
        assert data["n_max"] == 3
        assert [row["n"] for row in data["values"]] == [-3, -2, -1, 0, 1, 2, 3]
        middle = data["values"][3]
        assert middle["exact"]["coeffs"] == ["1"]
        assert round_trips_as_json(data)


class TestCharacterCoordinates:
    # t1 and t2 have the one text str(QmodZ) writes, a/b with 0 <= a < b in
    # lowest terms, with zero also as "0"; text that only reduces to such a
    # point is refused, naming the field, in every payload with a character
    REFUSED = ("6/5", "-4/5", "2/10", "1", "0/5", "-0", "1/4 ", "", 5, None)
    ACCEPTED = {"0/1": QmodZ(0, 1), "1/4": QmodZ(1, 4), "0": QmodZ(0, 1), "3/4": QmodZ(3, 4)}

    @staticmethod
    def decoders(t1, t2):
        orbit = orbit_to_json(ORBIT5)
        chi = {"t1": t1, "t2": t2}
        return (
            lambda: trace_spec_from_json({"kind": "finite_orbit", "orbit": orbit, "chi": chi}, P23).chi,
            lambda: prim_point_from_json({"kind": "orbit_char", "orbit": orbit, "chi": chi}).chi,
            lambda: sequence_desc_from_json(
                {"prefix": [], "tail": {"kind": "constant_orbit", "orbit": orbit, "chi_limit": chi}}
            ).tail.chi,
        )

    def test_refused(self):
        for text in self.REFUSED:
            for field, pair in (("t1", (text, "0/1")), ("t2", ("1/4", text))):
                for decode in self.decoders(*pair):
                    with pytest.raises(ValueError, match=f"^{field} = .* is not written a/b with 0 <= a < b"):
                        decode()

    def test_accepted(self):
        for text, value in self.ACCEPTED.items():
            for decode in self.decoders(text, "1/2"):
                chi = decode()
                assert (chi.t1, chi.t2) == (value, QmodZ(1, 2)), text


class TestKTheory:
    def test_result_shape(self):
        data = ktheory_result_to_json(k_theory_of_group(3, 5))
        assert data["K0"] == {"rank": 2, "torsion": [2]}
        assert data["K1"] == {"rank": 2, "torsion": [2]}
        assert data["closed_form"] == {"rank": 2, "torsion": [2]}
        assert data["torsion_gcd"] == 2
        assert data["matches"] is True
        assert round_trips_as_json(data)


class TestPrimSpace:
    def test_closed_set_shapes(self):
        assert closed_set_to_json(ALL) == {"kind": "all"}
        data = closed_set_to_json(FiniteUnion(((ORBIT5, FULL),)))
        assert data["kind"] == "union"
        assert data["parts"][0]["part"] == "full"
        assert closed_set_to_json(FiniteUnion(())) == {"kind": "union", "parts": []}
        chi = Character(ORBIT5.stabilizer, QmodZ(0, 1), QmodZ(1, 4))
        data = closed_set_to_json(FiniteUnion(((ORBIT5, FinitePoints((chi,))), (ORBIT7, FULL))))
        assert [part["part"] for part in data["parts"]] == [[["0/1", "1/4"]], "full"]
        assert round_trips_as_json(data)
        # the decoders hand back the module's markers, not new instances
        assert prim_point_from_json({"kind": "infinity"}) is INFINITY
        assert sequence_desc_from_json({"tail": {"kind": "escaping"}}).tail is ESCAPING

    def test_prim_point_round_trip(self):
        pt = OrbitCharPoint(ORBIT5, Character(ORBIT5.stabilizer, QmodZ(1, 4), QmodZ(1, 2)))
        data = {"kind": "orbit_char", "orbit": orbit_to_json(ORBIT5), "chi": {"t1": "1/4", "t2": "1/2"}}
        assert prim_point_from_json(data) == pt
        assert prim_point_from_json(data).chi.lattice == ORBIT5.stabilizer
        assert prim_point_from_json({"kind": "infinity"}) == INFINITY

    def test_sequence_round_trip(self):
        seqs = [
            (SequenceDesc(ESCAPING), {"prefix": [], "tail": {"kind": "escaping"}}),
            (
                SequenceDesc(
                    OrbitCharPoint(ORBIT5, Character(ORBIT5.stabilizer, QmodZ(0, 1), QmodZ(1, 4))),
                    prefix=(INFINITY, OrbitCharPoint(ORBIT7, Character.trivial(ORBIT7.stabilizer))),
                ),
                {
                    "prefix": [
                        {"kind": "infinity"},
                        {"kind": "orbit_char", "orbit": orbit_to_json(ORBIT7), "chi": {"t1": "0/1", "t2": "0/1"}},
                    ],
                    "tail": {"kind": "constant_orbit", "orbit": orbit_to_json(ORBIT5),
                             "chi_limit": {"t1": "0/1", "t2": "1/4"}},
                },
            ),
        ]
        for seq, data in seqs:
            assert sequence_desc_from_json(data) == seq
        back = sequence_desc_from_json(seqs[1][1])
        assert back.tail.chi.lattice == ORBIT5.stabilizer
        assert back.prefix[1].chi.lattice == ORBIT7.stabilizer

    def test_unknown_kinds(self):
        with pytest.raises(ValueError, match="^unknown point kind 'cusp'$"):
            prim_point_from_json({"kind": "cusp"})
        with pytest.raises(ValueError, match="^unknown tail kind 'spiral'$"):
            sequence_desc_from_json({"tail": {"kind": "spiral"}})


class TestOrbitCharacterPayloads:
    # a finite-orbit trace, a closed point (B, chi) and a constant-orbit tail
    # carry one payload: the orbit, and the character under chi or chi_limit
    CHI = Character(ORBIT5.stabilizer, QmodZ(1, 3), QmodZ(1, 4))
    WRITTEN = {"orbit": orbit_to_json(ORBIT5), "chi": {"t1": "1/3", "t2": "1/4"}}

    def payloads(self):
        orbit, chi = self.WRITTEN["orbit"], self.WRITTEN["chi"]
        return (
            ("finite_orbit", "chi", {"kind": "finite_orbit", "orbit": orbit, "chi": dict(chi)},
             lambda data: trace_spec_from_json(data, P23)),
            ("orbit_char", "chi", {"kind": "orbit_char", "orbit": orbit, "chi": dict(chi)}, prim_point_from_json),
            ("constant_orbit", "chi_limit", {"kind": "constant_orbit", "orbit": orbit, "chi_limit": dict(chi)},
             lambda data: sequence_desc_from_json({"tail": data})),
        )

    def test_one_payload(self):
        assert trace_spec_to_json(FiniteOrbitTrace(ORBIT5, self.CHI)) == {"kind": "finite_orbit", **self.WRITTEN}

    def test_orbit_decoded_once_and_first(self, monkeypatch):
        import xpq.serialize

        calls = []
        for name in ("stabilizer_lattice", "_build_orbit"):
            f = getattr(xpq.serialize, name)
            monkeypatch.setattr(xpq.serialize, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
        for kind, key, data, decode in self.payloads():
            calls.clear()
            decode(data)
            assert calls == ["stabilizer_lattice", "_build_orbit"], kind
            # a corrupt orbit is reported before a missing character
            bad = dict(data, orbit=dict(data["orbit"], r=7))
            del bad[key]
            with pytest.raises(ValueError, match="is not a point with denominator 7"):
                decode(bad)
            del data[key]
            with pytest.raises(ValueError, match=f"^missing key {key!r}$"):
                decode(data)

    def test_params_checked_before_the_character(self):
        data = trace_spec_to_json(FiniteOrbitTrace(ORBIT5, self.CHI))
        data["chi"]["t1"] = "6/5"
        with pytest.raises(ParamsMismatch):
            trace_spec_from_json(data, SystemParams(2, 5))
        with pytest.raises(ValueError, match="^t1 = '6/5'"):
            trace_spec_from_json(data, P23)
