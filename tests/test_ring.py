import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pmicert.ring import ExtRational, RadicandMismatch, parse_ext_rational


def test_construction_normalizes_perfect_squares():
    assert ExtRational(0, 1, 4) == ExtRational(2)
    assert ExtRational(1, 2, 9) == ExtRational(7)
    assert ExtRational(0, 1, 0) == ExtRational(0)
    assert ExtRational(3, 0, 5).radicand == 0  # b == 0 drops the radicand


def test_field_operations():
    a = ExtRational(Fraction(1, 2), Fraction(1, 3), 2)
    b = ExtRational(Fraction(-2, 5), Fraction(1, 7), 2)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == ExtRational(1)
    assert (ExtRational(1, 1, 2) * ExtRational(1, -1, 2)) == ExtRational(-1)


def test_power_including_negative():
    v = ExtRational(1, 1, 2)  # 1 + sqrt 2
    assert v**0 == ExtRational(1)
    assert v**3 == v * v * v
    assert v**-2 == (v * v).inverse()


def test_sign_is_exact():
    s2 = ExtRational.sqrt(2)
    assert (ExtRational(3) - 2 * s2).sign() > 0      # 3 > 2.828
    assert (ExtRational(Fraction(141, 100)) - s2).sign() < 0  # 1.41 < sqrt 2
    assert (ExtRational(Fraction(1415, 1000)) - s2).sign() > 0
    assert ExtRational(0).sign() == 0
    assert (-s2).sign() < 0
    assert (ExtRational(-5, 1, 2)).sign() < 0
    assert (ExtRational(-1, 1, 2)).sign() > 0        # sqrt 2 - 1 > 0


def test_comparisons_and_abs():
    s3 = ExtRational.sqrt(3)
    assert ExtRational(1) < s3 < ExtRational(2)
    assert abs(ExtRational(1) - s3) == s3 - 1


def test_mixed_radicands_rejected():
    with pytest.raises(RadicandMismatch):
        ExtRational.sqrt(2) + ExtRational.sqrt(3)
    # rationals coerce into any radicand
    assert ExtRational.sqrt(2) * ExtRational(2) == ExtRational(0, 2, 2)


def test_float_conversion():
    v = ExtRational(Fraction(1, 2), Fraction(1, 3), 5)
    assert math.isclose(float(v), 0.5 + math.sqrt(5) / 3)


def test_text_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        v = ExtRational(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
            rng.choice([0, 2, 3, 5, 7]),
        )
        assert parse_ext_rational(str(v)) == v


def test_parse_plain_and_sqrt_only():
    assert parse_ext_rational("3") == ExtRational(3)
    assert parse_ext_rational("-2/7") == ExtRational(Fraction(-2, 7))
    assert parse_ext_rational("1/3*sqrt(7)") == ExtRational(0, Fraction(1, 3), 7)
    assert parse_ext_rational("-1/3*sqrt(7)") == ExtRational(0, Fraction(-1, 3), 7)
    with pytest.raises(ValueError):
        parse_ext_rational("")
    with pytest.raises(ValueError):
        parse_ext_rational("1/2+1/3*sqrt(2")


def test_unknown_operand_defers_to_reflected_method():
    from pmicert.algebra import Polynomial

    x = Polynomial.variable(1, 0)
    two = ExtRational(2)
    assert two * x == x * two == Polynomial(1, {(1,): 2})
    assert two + x == x + two == Polynomial(1, {(0,): 2, (1,): 1})
    assert two - x == -(x - two)
    for op in (
        lambda: two * object(),
        lambda: two + object(),
        lambda: two - object(),
        lambda: two / object(),
    ):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ExtRational(1) / ExtRational(0)


@pytest.mark.parametrize(
    "text, value",
    [
        ("1.25", ExtRational(Fraction(5, 4))),
        ("-.5", ExtRational(Fraction(-1, 2))),
        ("+3", ExtRational(3)),
        ("2/4", ExtRational(Fraction(1, 2))),
        ("0.5-1.5*sqrt(3)", ExtRational(Fraction(1, 2), Fraction(-3, 2), 3)),
        (" 1 / 2 + 1 / 3 * sqrt( 5 ) ", ExtRational(Fraction(1, 2), Fraction(1, 3), 5)),
        ("1/2+1/2*sqrt(4)", ExtRational(Fraction(3, 2))),
    ],
)
def test_parse_accepts_documented_forms(text, value):
    assert parse_ext_rational(text) == value


@pytest.mark.parametrize(
    "text, reason",
    [
        ("1/0", "zero denominator"),
        ("0/0", "zero denominator"),
        ("1/0+1/2*sqrt(2)", "zero denominator"),
        ("1/2-1/0*sqrt(2)", "zero denominator"),
        ("1e5", "malformed"),
        ("1E-3", "malformed"),
        ("1e999999999", "malformed"),
        ("1/2+1e999999999*sqrt(2)", "malformed"),
        ("1_000", "malformed"),
        ("1/1_0", "malformed"),
        ("1/2*sqrt(-2)", "negative radicand"),
        ("1/2+1/3*sqrt(-3)", "negative radicand"),
        ("1/2*sqrt(2.5)", "malformed"),
        ("sqrt(2)", "malformed"),
        ("1/2+-1/3*sqrt(2)", "malformed"),
        ("1/-2", "malformed"),
        (".", "malformed"),
        ("inf", "malformed"),
        ("nan", "malformed"),
    ],
)
def test_parse_rejects_with_value_error(text, reason):
    with pytest.raises(ValueError, match=reason):
        parse_ext_rational(text)


def test_hash_agrees_with_equality_across_types():
    cases = [
        (ExtRational(1), 1),
        (ExtRational(-7), -7),
        (ExtRational(0), 0),
        (ExtRational(Fraction(1, 2)), Fraction(1, 2)),
        (ExtRational(Fraction(-5, 3)), Fraction(-5, 3)),
        (ExtRational(0, 1, 4), 2),                      # sqrt(4) collapses
        (ExtRational(Fraction(1, 2), Fraction(0), 7), Fraction(1, 2)),
    ]
    for ext, plain in cases:
        assert ext == plain and plain == ext
        assert hash(ext) == hash(plain)
        assert hash(ext) == hash(ExtRational.coerce(plain))
    assert len({ExtRational(1), 1, Fraction(1), ExtRational(Fraction(2, 2))}) == 1
    s2 = ExtRational.sqrt(2)
    assert hash(s2) == hash(ExtRational(0, Fraction(2, 2), 2))
    assert s2 != ExtRational.sqrt(3)


# -- properties against a reference over Fraction pairs ----------------------
#
# A reference value is a pair (a, b) of Fractions meaning a + b*sqrt(r), with
# the arithmetic of Q[sqrt(r)] written out and the sign decided by integer
# square roots, independently of ExtRational.

RADICANDS = [0, 2, 3, 5, 12]
_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=30)


@st.composite
def _values(draw, count):
    """A radicand from RADICANDS and `count` reference pairs over it."""
    r = draw(st.sampled_from(RADICANDS))
    pairs = []
    for _ in range(count):
        a = draw(_fractions)
        b = draw(_fractions) if r else Fraction(0)
        pairs.append((a, b))
    return r, pairs


def _ref_mul(x, y, r):
    return (x[0] * y[0] + x[1] * y[1] * r, x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x, r):
    den = x[0] * x[0] - x[1] * x[1] * r
    return (x[0] / den, -x[1] / den)


def _ref_sign(x, r):
    den = x[0].denominator * x[1].denominator
    A, B = int(x[0] * den), int(x[1] * den)
    if B == 0:
        return (A > 0) - (A < 0)
    s = math.isqrt(B * B * r)   # s < |B| sqrt(r) < s + 1 for non-square r
    if B > 0:
        return 1 if -A <= s else -1
    return 1 if A >= s + 1 else -1


def _assert_canonical(v: ExtRational):
    p, q, d, r = v._p, v._q, v._d, v._r
    assert d > 0
    assert math.gcd(p, q, d) == 1
    if q == 0:
        assert r == 0
    else:
        assert math.isqrt(r) ** 2 != r


def _assert_matches(v: ExtRational, ref, r):
    _assert_canonical(v)
    assert (v.a, v.b) == ref
    assert v.radicand == (r if ref[1] else 0)


@given(_values(2))
def test_operations_match_reference(data):
    r, (x, y) = data
    ex, ey = ExtRational(x[0], x[1], r), ExtRational(y[0], y[1], r)
    _assert_matches(ex, x, r)
    _assert_matches(ex + ey, (x[0] + y[0], x[1] + y[1]), r)
    _assert_matches(ex - ey, (x[0] - y[0], x[1] - y[1]), r)
    _assert_matches(-ex, (-x[0], -x[1]), r)
    _assert_matches(ex * ey, _ref_mul(x, y, r), r)
    _assert_matches(ex * y[0], (x[0] * y[0], x[1] * y[0]), r)
    _assert_matches(ex + y[0], (x[0] + y[0], x[1]), r)
    _assert_matches(ex**3, _ref_mul(_ref_mul(x, x, r), x, r), r)
    if ey:
        _assert_matches(ey.inverse(), _ref_inverse(y, r), r)
        _assert_matches(ex / ey, _ref_mul(x, _ref_inverse(y, r), r), r)
    else:
        with pytest.raises(ZeroDivisionError):
            ey.inverse()
    assert math.isclose(float(ex), float(x[0]) + float(x[1]) * math.sqrt(r),
                        rel_tol=1e-12, abs_tol=1e-12)


@given(_values(3))
def test_field_axioms(data):
    r, pairs = data
    x, y, z = (ExtRational(a, b, r) for a, b in pairs)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x * 0 == 0
    assert x - x == 0 and (x - y) + y == x
    if x:
        assert x * x.inverse() == 1
        assert (y / x) * x == y


@given(_values(2))
def test_sign_and_ordering_match_reference(data):
    r, (x, y) = data
    ex, ey = ExtRational(x[0], x[1], r), ExtRational(y[0], y[1], r)
    assert ex.sign() == _ref_sign(x, r)
    diff = _ref_sign((x[0] - y[0], x[1] - y[1]), r)
    assert (ex < ey) == (diff < 0)
    assert (ex <= ey) == (diff <= 0)
    assert (ex > ey) == (diff > 0)
    assert (ex >= ey) == (diff >= 0)
    assert (ex == ey) == (diff == 0 and x == y)
    assert abs(ex).sign() == abs(_ref_sign(x, r))


@given(_values(1))
def test_text_round_trip_and_hash(data):
    r, [(a, b)] = data
    v = ExtRational(a, b, r)
    assert parse_ext_rational(str(v)) == v
    assert str(parse_ext_rational(str(v))) == str(v)
    if b == 0:
        assert hash(v) == hash(a) and v == a
    assert hash(v) == hash(ExtRational(a, b, r))
