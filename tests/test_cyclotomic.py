"""Exact arithmetic in Q(zeta_p): reduction, field axioms, Galois maps."""

import json
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeplane.cyclotomic import (
    CycNum,
    check_prime,
    format_value,
    is_prime,
    parse_value,
    root_of_unity,
)
from reference import basis_coeffs, cycnum_from_json, cycnum_to_json, galois

PRIMES = (2, 3, 5, 7)


def from_exponent_vector(p, acc):
    """Reduce coefficients of 1, zeta, ..., zeta^(p-1) (length p) to the
    basis by 1 + zeta + ... + zeta^(p-1) = 0."""
    top = acc[p - 1]
    return CycNum(p, [c - top for c in acc[:p - 1]])


def conjugate(x):
    """Complex conjugation, i.e. zeta -> zeta^(p-1)."""
    return galois(x, x.p - 1)


def cycnums(p):
    coeff = st.integers(-4, 4) | st.fractions(max_denominator=6)
    return st.lists(coeff, min_size=p - 1, max_size=p - 1).map(lambda cs: CycNum(p, cs))


def test_primality():
    assert [n for n in range(2, 40) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    with pytest.raises(ValueError):
        check_prime(9)
    with pytest.raises(ValueError):
        root_of_unity(4, 1)


def test_root_identity_case():
    assert root_of_unity(5, 0) == CycNum.one(5)


def test_full_character_sum_vanishes():
    for p in PRIMES:
        total = CycNum.zero(p)
        for k in range(p):
            total = total + root_of_unity(p, k)
        assert total.is_zero()


def test_reduction_by_minimal_polynomial():
    # zeta^2 = -1 - zeta at p=3
    assert basis_coeffs(root_of_unity(3, 2)) == (-1, -1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_times_root_is_the_product_by_a_root(p):
    rng = random.Random(300 + p)
    for _ in range(100):
        x = CycNum(p, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(p - 1)])
        for k in (rng.randint(-3 * p, -1), rng.randrange(p), rng.randint(p, 3 * p), 0, -p):
            assert x.times_root(k) == x * root_of_unity(p, k % p), (x, k)
    assert CycNum.zero(p).times_root(1) == CycNum.zero(p)


def test_exponent_addition():
    for p in (3, 5, 7):
        for a in range(p):
            for b in range(p):
                assert root_of_unity(p, a) * root_of_unity(p, b) == \
                    root_of_unity(p, (a + b) % p)


def test_product_collapses_to_rational():
    z = [root_of_unity(5, k) for k in range(5)]
    lhs = (z[1] + z[4]) * (z[2] + z[3])
    assert lhs == CycNum.from_rational(5, -1)


def test_root_power_p_is_one():
    for p in PRIMES:
        for k in range(p):
            power = CycNum.one(p)
            for _ in range(p):
                power = power * root_of_unity(p, k)
            assert power == CycNum.one(p)


def test_conjugate_examples():
    z = root_of_unity(5, 1)
    assert conjugate(z) == root_of_unity(5, 4)
    assert conjugate(CycNum.from_rational(5, Fraction(3, 7))) == Fraction(3, 7)
    x = CycNum.one(5) + z
    assert x * conjugate(x) == CycNum.one(5) * 2 + z + root_of_unity(5, 4)


def test_galois_examples():
    z = root_of_unity(5, 1)
    x = CycNum.one(5) + z
    assert galois(x, 1) == x
    y = z + root_of_unity(5, 2) * 2
    assert galois(y, 2) == root_of_unity(5, 2) + root_of_unity(5, 4) * 2
    with pytest.raises(ValueError):
        galois(z, 0)
    with pytest.raises(ValueError):
        galois(z, 5)


def test_galois_composition_and_bijection():
    p = 7
    x = root_of_unity(p, 1) + root_of_unity(p, 3) * 2 - CycNum.from_rational(p, 5)
    for i in range(1, p):
        for j in range(1, p):
            assert galois(galois(x, i), j) == galois(x, (i * j) % p)
    images = {galois(x, j) for j in range(1, p)}
    assert len(images) == 6  # all distinct for this x
    assert galois(CycNum.from_rational(p, Fraction(2, 3)), 3) == Fraction(2, 3)


def test_zero_tests():
    p = 5
    total = CycNum.zero(p)
    for k in range(p):
        total = total + root_of_unity(p, k)
    assert total.is_zero()
    for k in range(p):
        assert not root_of_unity(p, k).is_zero()
    assert galois(CycNum.zero(p), 3).is_zero()


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        root_of_unity(3, 1) + root_of_unity(5, 1)
    with pytest.raises(ValueError):
        root_of_unity(3, 1) * root_of_unity(5, 1)


@settings(max_examples=60, deadline=None)
@given(cycnums(5), cycnums(5), cycnums(5))
def test_ring_axioms_p5(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a + a * -1 == CycNum.zero(5)


@settings(max_examples=40, deadline=None)
@given(cycnums(3), st.integers(1, 2))
def test_galois_linearity_and_zero_p3(a, j):
    assert galois(a, j).is_zero() == a.is_zero()
    assert galois(a + a, j) == galois(a, j) * 2


def test_equality_agrees_with_subtraction():
    p = 5
    a = root_of_unity(p, 2) * Fraction(1, 3) + CycNum.one(p)
    b = root_of_unity(p, 2) * Fraction(2, 6) + CycNum.from_rational(p, 1)
    assert a == b
    assert (a - b).is_zero()
    assert hash(a) == hash(b)


def test_canonical_reduction_is_idempotent():
    p = 5
    acc = [1, 2, 3, 4, 5]
    x = from_exponent_vector(p, acc)
    again = from_exponent_vector(p, list(basis_coeffs(x)) + [0])
    assert x == again


def test_rational_accessors():
    x = CycNum.from_rational(7, Fraction(3, 4))
    assert x.is_rational()
    assert x.rational_value() == Fraction(3, 4)
    with pytest.raises(ValueError):
        (x + root_of_unity(7, 1)).rational_value()


def test_scalar_division():
    # division by a rational is the product by its reciprocal
    z = root_of_unity(5, 1)
    assert (z * 6) * Fraction(1, 3) == z * 2
    assert (z * Fraction(-4, 3)) * Fraction(-3, 4) == z


def test_json_round_trip():
    x = root_of_unity(5, 2) * Fraction(3, 2) - CycNum.one(5)
    blob = json.dumps(cycnum_to_json(x))
    assert cycnum_from_json(json.loads(blob)) == x
    assert cycnum_to_json(x)["coeffs"][0] == "-1/1"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 23])
def test_rational_values_hash_as_their_fractions(p):
    for r in (0, 1, -3, 10**25, Fraction(1, 2), Fraction(-7, 3), Fraction(10**25 + 1, 6)):
        x = CycNum.from_rational(p, r)
        assert hash(x) == hash(x.rational_value()) == hash(Fraction(r))
        assert len({x, x.rational_value()}) == 1
    assert len({CycNum.one(p), 1, CycNum.zero(p), 0}) == 2
    if p > 2:
        # an irrational value keeps its hash
        z = root_of_unity(p, 1) * Fraction(3, 2)
        assert hash(z) == hash((z.p, z.num, z.den))



def test_equality_across_fields_is_transitive():
    # Q(zeta_p) and Q(zeta_q) meet in Q: rational values compare across
    # fields as their Fractions, and irrational ones only within a field
    one3, one5 = CycNum.one(3), CycNum.one(5)
    assert one3 == 1 == one5 and one3 == one5 and not one3 != one5
    assert len({1, one3, one5}) == len({one3, one5, 1}) == 1
    assert CycNum.zero(3) == CycNum.zero(5) == CycNum.zero(2) == 0
    assert len({CycNum.zero(3), CycNum.zero(5), 0}) == len({0, CycNum.zero(5), CycNum.zero(3)}) == 1
    half = Fraction(1, 2)
    assert CycNum.from_rational(3, half) == CycNum.from_rational(7, half) == half
    assert CycNum.from_rational(3, half) != CycNum.from_rational(7, Fraction(1, 3))
    z3, z5 = root_of_unity(3, 1), root_of_unity(5, 1)
    assert z3 != z5 and z5 != z3 and z3 != 1 and len({z3, z5}) == 2
    assert z3 != CycNum.one(5) and CycNum.one(5) != z3


def test_pickle_round_trip():
    p = 7
    values = [
        CycNum.zero(p),
        CycNum.from_rational(p, Fraction(-5, 6)),
        root_of_unity(p, 3) * Fraction(2, 9) - Fraction(1, 4),
        root_of_unity(p, 2) * (10**25 + 1) + CycNum.one(p),
    ]
    for x in values:
        again = pickle.loads(pickle.dumps(x))
        assert type(again) is CycNum
        assert (again.p, again.num, again.den) == (x.p, x.num, x.den)
        assert again == x and hash(again) == hash(x)


def test_literal_round_trip():
    p = 5
    for text in ("0", "2", "-1/3", "z", "z^2", "1+z^2", "-z+3/2*z^4-2"):
        v = parse_value(text, p)
        assert parse_value(format_value(v), p) == v
    assert parse_value("1+z+z^2+z^3+z^4", p).is_zero()
    with pytest.raises(ValueError):
        parse_value("z^", p)
    with pytest.raises(ValueError):
        parse_value("", p)
    with pytest.raises(ValueError):
        parse_value("q+1", p)


def test_p2_field_is_rational_with_zeta_minus_one():
    assert root_of_unity(2, 1) == CycNum.from_rational(2, -1)
    assert conjugate(root_of_unity(2, 1)) == root_of_unity(2, 1)


# -- against a Fraction-backed reference -------------------------------------------


class RefCyc:
    """Reference arithmetic in Q(zeta_p): one Fraction per basis coefficient,
    as CycNum computed before it kept integer numerators over one denominator."""

    def __init__(self, p, coeffs):
        self.p = p
        self.vals = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def reduce(cls, p, acc):
        top = acc[p - 1]
        return cls(p, [c - top for c in acc[: p - 1]])

    @property
    def coeffs(self):
        return tuple(int(c) if c.denominator == 1 else c for c in self.vals)

    def __add__(self, other):
        return RefCyc(self.p, [a + b for a, b in zip(self.vals, other.vals)])

    def __sub__(self, other):
        return RefCyc(self.p, [a - b for a, b in zip(self.vals, other.vals)])

    def __neg__(self):
        return RefCyc(self.p, [-a for a in self.vals])

    def __mul__(self, other):
        p = self.p
        if isinstance(other, RefCyc):
            acc = [Fraction(0)] * p
            for i, a in enumerate(self.vals):
                for j, b in enumerate(other.vals):
                    acc[(i + j) % p] += a * b
            return RefCyc.reduce(p, acc)
        return RefCyc(p, [a * other for a in self.vals])

    def galois(self, j):
        acc = [Fraction(0)] * self.p
        for t, c in enumerate(self.vals):
            acc[(j * t) % self.p] += c
        return RefCyc.reduce(self.p, acc)

    def to_json(self):
        return {"p": self.p, "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.vals]}


def reference_format(x):
    """format_value as it was written on Fraction coefficients: reads only
    x.coeffs, so it formats a RefCyc as well as a CycNum."""
    parts = []
    for k, c in enumerate(x.coeffs):
        if not c:
            continue
        f = Fraction(c)
        sign = "-" if f < 0 else "+"
        mag = abs(f)
        if k == 0:
            body = str(mag)
        else:
            zpow = "z" if k == 1 else f"z^{k}"
            body = zpow if mag == 1 else f"{mag}*{zpow}"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


def assert_lowest_terms(x):
    assert type(x.den) is int and all(type(c) is int for c in x.num)
    assert len(x.num) == x.p - 1
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert any(x.num) or x.den == 1


def assert_same(x, ref):
    assert_lowest_terms(x)
    assert basis_coeffs(x) == ref.coeffs
    assert [type(c) for c in basis_coeffs(x)] == [type(c) for c in ref.coeffs]
    assert x == CycNum(x.p, ref.coeffs) and hash(x) == hash(CycNum(x.p, ref.coeffs))
    assert cycnum_to_json(x) == ref.to_json()
    assert format_value(x) == reference_format(ref)
    assert x.is_zero() == (not any(ref.vals)) == (not x)
    rational = not any(ref.vals[1:])
    assert x.is_rational() == rational
    if rational:
        assert x.rational_value() == ref.vals[0] and x == ref.vals[0]
    else:
        with pytest.raises(ValueError):
            x.rational_value()


COEFF = st.integers(-6, 6) | st.fractions(min_value=-6, max_value=6, max_denominator=12)
SCALAR = COEFF.filter(lambda r: r != 0)


@st.composite
def reference_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    vectors = st.lists(COEFF, min_size=p - 1, max_size=p - 1)
    a = draw(vectors)
    b = draw(st.just(list(a)) | vectors)
    return p, a, b, draw(SCALAR), draw(st.integers(1, p - 1))


@settings(max_examples=300, deadline=None)
@given(reference_cases())
def test_integer_numerators_match_the_fraction_reference(case):
    p, a_coeffs, b_coeffs, r, j = case
    a, b = CycNum(p, a_coeffs), CycNum(p, b_coeffs)
    ra, rb = RefCyc(p, a_coeffs), RefCyc(p, b_coeffs)
    assert_same(a, ra)
    assert_same(b, rb)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a * b, ra * rb)
    assert_same(a * -1, -ra)
    assert_same(a * r, ra * r)
    assert_same(r * a, ra * r)
    assert_same(a * (1 / Fraction(r)), ra * (1 / Fraction(r)))
    assert_same(a + r, ra + RefCyc(p, [r] + [0] * (p - 2)))
    assert_same(CycNum.from_rational(p, r) - a, RefCyc(p, [r] + [0] * (p - 2)) - ra)
    assert_same(galois(a, j), ra.galois(j))
    assert_same(conjugate(a), ra.galois(p - 1))
    assert (a == b) == (ra.coeffs == rb.coeffs)
    assert cycnum_from_json(json.loads(json.dumps(cycnum_to_json(a)))) == a
    assert parse_value(format_value(a), p) == a


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError):
        CycNum(4, [0, 0, 0])
    with pytest.raises(ValueError):
        CycNum(5, [1, 2])
    with pytest.raises(TypeError):
        CycNum(3, [True, 0])
    with pytest.raises(TypeError):
        CycNum(3, [0.5, 0])
    x = CycNum(5, [Fraction(2, 4), 0, Fraction(-3, 6), Fraction(4, 2)])
    assert (x.num, x.den) == ((1, 0, -1, 4), 2)
    assert basis_coeffs(x) == (Fraction(1, 2), 0, Fraction(-1, 2), 2)
    assert type(basis_coeffs(x)[3]) is int
    zero = CycNum(3, [Fraction(0, 5), 0])
    assert (zero.num, zero.den) == ((0, 0), 1)
