import pytest

from vassiliev.laurent import IntegerLaurentPoly as P


def test_zero_and_one():
    assert not P.zero()
    assert P.one()
    assert P.one() == 1
    assert P.zero() == 0
    assert str(P.zero()) == "0"
    assert str(P.one()) == "1"


def test_z_and_shift():
    z = P.z()
    assert str(z) == "z"
    assert z * P.z(2) == P.z(3)
    assert P.one() * P.z(-1) == P.z(-1)
    assert str(P.z(-1)) == "z^-1"


def test_arithmetic():
    z = P.z()
    p = 1 + z * z
    assert p.coefficient(0) == 1
    assert p.coefficient(2) == 1
    assert p.coefficient(1) == 0
    q = p - z * z
    assert q == 1
    assert not p - p
    assert -p == P({0: -1, 2: -1})
    assert 2 * z == z + z
    assert z * 0 == P.zero()


def test_product():
    z = P.z()
    a = 1 + z
    b = 1 - z
    assert a * b == 1 - z * z
    assert (a * a) == P({0: 1, 1: 2, 2: 1})


def test_str_rendering():
    z = P.z()
    assert str(1 + z * z) == "1 + z^2"
    assert str(1 - z * z) == "1 - z^2"
    assert str(-z) == "-z"
    assert str(P({1: 2})) == "2z"
    assert str(P({2: -3, 0: 1})) == "1 - 3z^2"


def test_eq_hash_dict_roundtrip():
    p = P({0: 1, 2: 1})
    q = 1 + P.z(2)
    assert p == q and hash(p) == hash(q)
    as_dict = p.to_dict()
    assert as_dict == {"0": 1, "2": 1}
    assert P({int(k): v for k, v in as_dict.items()}) == p
    assert (-p * P.z(-11)).to_dict() == {"-11": -1, "-9": -1}


def test_constants_hash_as_their_ints():
    # A constant polynomial == its int, so sets and dicts must treat
    # the two as one key.
    for n in (0, 1, -3):
        c = P({0: n})
        assert c == n and hash(c) == hash(n)
        assert len({n, c}) == 1
        assert {n: "int"}.get(c) == "int"
        assert {c: "poly"}.get(n) == "poly"
        assert c in {n} and n in {c}
    assert len({0, 1, -3, P.zero(), P.one(), P({0: -3})}) == 3
    assert P.z() not in {0, 1, -3} and P.z() in {P.z(), 0}


def test_type_strictness():
    for coeffs in ({0: 1.5}, {0.5: 1}):
        with pytest.raises(TypeError, match="exponents and coefficients must be int"):
            P(coeffs)
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
