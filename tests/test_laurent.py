import re

import pytest

from vassiliev.laurent import IntegerLaurentPoly as P


def test_zero_and_one():
    assert P.zero().is_zero()
    assert not P.one().is_zero()
    assert P.one() == 1
    assert P.zero() == 0
    assert str(P.zero()) == "0"
    assert str(P.one()) == "1"


def test_z_and_shift():
    z = P.z()
    assert str(z) == "z"
    assert z.shifted(2) == P.z(3)
    assert P.one().shifted(-1) == P.z(-1)
    assert str(P.z(-1)) == "z^-1"


def test_arithmetic():
    z = P.z()
    p = 1 + z * z
    assert p.coefficient(0) == 1
    assert p.coefficient(2) == 1
    assert p.coefficient(1) == 0
    q = p - z * z
    assert q == 1
    assert (p - p).is_zero()
    assert -p == P.from_dict({0: -1, 2: -1})
    assert 2 * z == z + z
    assert z * 0 == P.zero()


def test_product():
    z = P.z()
    a = 1 + z
    b = 1 - z
    assert a * b == 1 - z * z
    assert (a * a) == P.from_dict({0: 1, 1: 2, 2: 1})


def test_degrees_and_support():
    p = P.from_dict({-1: 3, 4: -2})
    assert p.min_degree() == -1
    assert p.max_degree() == 4
    assert p.support == (-1, 4)
    assert P.zero().min_degree() is None
    assert P.zero().max_degree() is None


def test_str_rendering():
    z = P.z()
    assert str(1 + z * z) == "1 + z^2"
    assert str(1 - z * z) == "1 - z^2"
    assert str(-z) == "-z"
    assert str(P.from_dict({1: 2})) == "2z"
    assert str(P.from_dict({2: -3, 0: 1})) == "1 - 3z^2"


def test_eq_hash_dict_roundtrip():
    p = P.from_dict({0: 1, 2: 1})
    q = 1 + P.z(2)
    assert p == q and hash(p) == hash(q)
    as_dict = p.to_dict()
    assert as_dict == {"0": 1, "2": 1}
    assert P.from_dict({int(k): v for k, v in as_dict.items()}) == p
    assert P.from_dict(as_dict) == p
    assert P.from_dict((-p * P.z(-11)).to_dict()) == -p * P.z(-11)


def test_constants_hash_as_their_ints():
    # A constant polynomial == its int, so sets and dicts must treat
    # the two as one key.
    for n in (0, 1, -3):
        c = P.from_dict({0: n}) if n else P.zero()
        assert c == n and hash(c) == hash(n)
        assert len({n, c}) == 1
        assert {n: "int"}.get(c) == "int"
        assert {c: "poly"}.get(n) == "poly"
        assert c in {n} and n in {c}
    assert len({0, 1, -3, P.zero(), P.one(), P.from_dict({0: -3})}) == 3
    assert P.z() not in {0, 1, -3} and P.z() in {P.z(), 0}


def test_type_strictness():
    for coeffs in ({0: 1.5}, {0.5: 1}):
        with pytest.raises(TypeError, match="exponents and coefficients must be int"):
            P(coeffs)
    with pytest.raises(TypeError):
        P.from_dict({0: 1.5})
    # exponents: ints or the decimal strings to_dict writes, each once
    for exps, error, fragment in [
        ({0.5: 1}, TypeError, "exponent 0.5 is not an integer"),
        ({1.9: 3}, TypeError, "exponent 1.9 is not an integer"),
        ({None: 1}, TypeError, "exponent None is not an integer"),
        ({"0.5": 1}, ValueError, "exponent '0.5' is not a decimal integer"),
        ({"01": 1}, ValueError, "exponent '01' is not a decimal integer"),
        ({"-0": 1}, ValueError, "exponent '-0' is not a decimal integer"),
        ({" 1": 1}, ValueError, "exponent ' 1' is not a decimal integer"),
        ({"\u0663": 1}, ValueError, "is not a decimal integer"),
        ({"0": 1, 0: 2}, ValueError, "exponent 0 is given twice"),
        ({-2: 1, "-2": 1}, ValueError, "exponent -2 is given twice"),
    ]:
        with pytest.raises(error, match=re.escape(fragment)):
            P.from_dict(exps)
    with pytest.raises(TypeError):
        P.one() + 1.5
    with pytest.raises(TypeError):
        P.one() * 2.0


def test_equality_with_another_type_is_not_implemented():
    # an int compares as the constant polynomial; nothing else compares
    for other in (None, 1.0, "1", (1,), {0: 1}):
        assert P.one().__eq__(other) is NotImplemented, other
        assert P.one() != other, other
    assert P.one() == 1 and P.one().__eq__(1) is True
