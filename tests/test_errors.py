"""The one wording of a range refusal, check_range, and the integers every
refusal names: in decimal below 4096 bits, else as "about 2^k", so no
message runs into the limit str() puts on an int's digits."""

import re
from pathlib import Path

import pytest

from xpq import (
    CanonicalTrace,
    FactorizationTooHard,
    GroupAlgebraElement,
    GroupElement,
    NotCoprime,
    OutOfRange,
    PqRational,
    QmodZ,
    SolenoidPoint,
    SystemParams,
    orbit_of,
)
from xpq import dynamics
from xpq.checks import run_checks
from xpq.dynamics import census, fixed_points, lift_sequence, stabilizer_lattice
from xpq.errors import check_range, int_text
from xpq.exact import Cyclotomic, check_bases, factorize, multiplicative_order
from xpq.groupalg import icc_witness
from xpq.ktheory import mult_map_ker_coker
from xpq.serialize import group_element_from_json, pq_rational_from_json
from xpq.traces import average_over_character_level, moments

P23 = SystemParams(2, 3)
BIG = 2**20000
SRC = Path(__file__).resolve().parent.parent / "src" / "xpq"


class TestCheckRange:
    def test_both_bounds(self):
        for value in (0, 3, 5):
            check_range("x", value, 0, 5)
        for value in (-1, 6):
            with pytest.raises(OutOfRange) as err:
                check_range("x", value, 0, 5)
            assert str(err.value) == f"x = {value} out of range; expected 0 <= x <= 5"

    def test_no_upper_bound(self):
        check_range("r", 10**100, 1)
        with pytest.raises(OutOfRange) as err:
            check_range("r", 0, 1)
        assert str(err.value) == "r = 0 out of range; expected 1 <= r"

    def test_huge_value_as_a_power_of_two(self):
        # 10^4300 has 4301 digits, one more than str() writes
        for value, text in ((10**4300, "about 2^14284"), (-(10**4300), "about -2^14284")):
            with pytest.raises(OutOfRange) as err:
                check_range("n", value, 0, 10)
            assert str(err.value) == f"n = {text} out of range; expected 0 <= n <= 10"

    def test_int_text_switches_at_4096_bits(self):
        assert int_text(2**4095 - 1) == str(2**4095 - 1)
        assert int_text(1 - 2**4095) == str(1 - 2**4095)
        assert int_text(2**4095) == "about 2^4095"
        assert int_text(-(2**4095)) == "about -2^4095"

    def test_only_errors_words_a_range_refusal(self):
        holders = sorted(path.name for path in SRC.glob("*.py") if "out of range" in path.read_text(encoding="utf-8"))
        assert holders == ["errors.py"]


def _sites():
    """(id, call of one argument, values) for each range check in the
    library: the values are those of +-2^20000 outside its range."""
    x5 = SolenoidPoint(QmodZ(1, 5))
    orbit5 = orbit_of(P23, x5)
    seq = moments(CanonicalTrace(P23), 3)
    g = GroupElement(PqRational(1, 0, 0), 1, 0)
    unit = GroupAlgebraElement.unit(P23, GroupElement.identity())
    element = {"x": {"num": "1", "a": 0, "b": 0}, "m": 0, "n": 0}
    both, low = (BIG, -BIG), (-BIG,)
    return [
        ("fixed_points m", lambda v: fixed_points(P23, (v, 0)), both),
        ("fixed_points n", lambda v: fixed_points(P23, (1, v)), both),
        ("fixed_points max_denominator", lambda v: fixed_points(P23, (1, 1), v), low),
        ("census max_denominator", lambda v: census(P23, v), both),
        ("run_checks max_denominator", lambda v: run_checks("all", P23, max_denominator=v), both),
        ("run_checks trials", lambda v: run_checks("all", P23, trials=v), both),
        ("stabilizer_lattice r", lambda v: stabilizer_lattice(P23, v), low),
        ("lift_sequence depth", lambda v: lift_sequence(P23, x5, v), both),
        ("pq_rational_from_json a", lambda v: pq_rational_from_json({"num": "1", "a": v, "b": 0}, P23), (BIG,)),
        ("pq_rational_from_json b", lambda v: pq_rational_from_json({"num": "1", "a": 0, "b": v}, P23), (BIG,)),
        ("group_element_from_json m", lambda v: group_element_from_json({**element, "m": v}, P23), both),
        ("group_element_from_json n", lambda v: group_element_from_json({**element, "n": v}, P23), both),
        ("factorize n", factorize, low),
        ("multiplicative_order r", lambda v: multiplicative_order(2, v), low),
        ("QmodZ den", lambda v: QmodZ(1, v), low),
        ("check_level", lambda v: Cyclotomic(v, [1]), both),
        ("check_bases p", lambda v: check_bases(v, 3), low),
        ("check_bases q", lambda v: check_bases(3, v), low),
        ("icc_witness count", lambda v: icc_witness(P23, g, v), both),
        ("mult_map_ker_coker n", lambda v: mult_map_ker_coker(2, v), low),
        ("moments n_max", lambda v: moments(CanonicalTrace(P23), v), both),
        ("MomentSequence.value n", seq.value, both),
        ("average_over_character_level k", lambda v: average_over_character_level(orbit5, v, unit), low),
    ]


@pytest.mark.parametrize("call, values", [pytest.param(call, values, id=name) for name, call, values in _sites()])
def test_every_range_check_names_a_huge_value(call, values):
    for value in values:
        with pytest.raises(OutOfRange) as err:
            call(value)
        sign = "-" if value < 0 else ""
        wording = rf"(.+) = about {sign}2\^20000 out of range; expected -?\d+ <= \1( <= \d+)?"
        assert re.fullmatch(wording, str(err.value)), err.value


class TestHugeIntegersInOtherRefusals:
    # each names a caller's integer of more than 4300 digits, which str() refuses
    def test_not_coprime(self):
        with pytest.raises(NotCoprime, match="^denominator about 2\\^14616 shares a factor with pq = 6$"):
            stabilizer_lattice(P23, 10**4400)

    def test_factorization_cofactor(self):
        with pytest.raises(FactorizationTooHard) as err:
            factorize(10**5000 + 1)
        assert str(err.value).startswith("cofactor about 2^") and len(str(err.value)) < 100

    def test_not_in_z_1_pq(self):
        with pytest.raises(OutOfRange) as err:
            PqRational.canonical(1, 5**7000, 2, 3)
        assert str(err.value) == "1/about 2^16253 is not an element of Z[1/6]"

    def test_stabilizer_limit(self):
        # stabilizer_lattice(P23, 5**7000) meets this refusal, with
        # c = ord(3) = 4 5^6999, after about 20 s of powers mod 5^7000
        with pytest.raises(OutOfRange) as err:
            dynamics._check_stabilizer_limit(5**7000, 4 * 5**6999)
        assert str(err.value) == (
            "denominator about 2^16253: ord_r(q) = about 2^16253 exceeds the stabilizer limit 1000000"
        )
