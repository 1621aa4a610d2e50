"""Exact arithmetic in prime-order cyclotomic fields Q(zeta_p).

A value is stored by its coordinates in the power basis
{1, zeta, ..., zeta^(p-2)}, where zeta is a fixed primitive p-th root of
unity.  The defining relation 1 + zeta + ... + zeta^(p-1) = 0 rewrites
zeta^(p-1) back into the basis, so the representation is canonical:
equality and zero-testing are exact coefficient comparisons.  Floating
point is banned from this module; a value's coefficients are Python int
numerators over one common positive int denominator, kept in lowest
terms, and are read back as ints and fractions.Fraction values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, floordiv, mul, sub
from typing import Sequence, Tuple, Union

Rational = Union[int, Fraction]

# Indices, exponents and basis sizes must stay machine-sized.
MAX_PRIME = 2**31 - 1

_TERM_RE = re.compile(r"[+-]?[^+-]+")


def is_prime(n: int) -> bool:
    """Trial-division primality check, adequate for the small primes used here."""
    if n < 2:
        return False
    for d in (2, 3):
        if n % d == 0:
            return n == d
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def check_prime(p: int) -> int:
    """Validate that p is a usable prime and return it."""
    if not isinstance(p, int) or isinstance(p, bool) or p > MAX_PRIME or not is_prime(p):
        raise ValueError(f"expected a prime in [2, {MAX_PRIME}], got {p!r}")
    return p


def _as_coeff(value) -> Rational:
    if isinstance(value, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__}")


def _is_rational(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


class CycNum:
    """An element of Q(zeta_p), kept reduced in the power basis.

    The coefficients are stored as integer numerators ``num`` over one
    positive denominator ``den``, in lowest terms: gcd(den, *num) == 1, so
    zero has den == 1.  Instances are immutable and hashable, a rational
    value hashing as its Fraction, and pickle as (p, num, den); arithmetic
    is closed over the field, runs on ints only and always returns reduced
    values.
    """

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, coeffs: Sequence[Rational]):
        check_prime(p)
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} basis coefficients for p={p}, got {len(coeffs)}")
        cs = [_as_coeff(c) for c in coeffs]
        den = lcm(1, *(c.denominator for c in cs if isinstance(c, Fraction)))
        # over the lcm of lowest-terms denominators the numerators are coprime to it
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "num", tuple(c.numerator * (den // c.denominator) for c in cs))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycNum":
        return _make(check_prime(p), (0,) * (p - 1), 1)

    @classmethod
    def one(cls, p: int) -> "CycNum":
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, value: Rational) -> "CycNum":
        check_prime(p)
        value = _as_coeff(value)
        return _make(p, (value.numerator,) + (0,) * (p - 2), value.denominator)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.p != self.p:
                raise ValueError(f"mixed cyclotomic orders {self.p} and {other.p}")
            return other
        if _is_rational(other):
            return CycNum.from_rational(self.p, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, add)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, sub)

    def __mul__(self, other):
        if isinstance(other, CycNum):
            if other.p != self.p:
                raise ValueError(f"mixed cyclotomic orders {self.p} and {other.p}")
            p = self.p
            right = [(j, b) for j, b in enumerate(other.num) if b]
            acc = [0] * p
            for i, a in enumerate(self.num):
                if a:
                    for j, b in right:
                        s = i + j
                        acc[s - p if s >= p else s] += a * b
            return _reduced_over(p, acc, self.den * other.den)
        if _is_rational(other):
            return _make(self.p, tuple(map(mul, self.num, repeat(other.numerator))),
                         self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def times_root(self, k: int) -> "CycNum":
        """x * zeta^k for any int k: the coefficients of 1, zeta, ...,
        zeta^(p-1) (the last one 0) rotate k places, then one reduction."""
        k %= self.p
        if not k:
            return self
        acc = self.num + (0,)
        return _reduced_over(self.p, acc[-k:] + acc[:-k], self.den)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        # Q(zeta_p) meets Q(zeta_q) in Q, so across fields only rationals are equal
        if isinstance(other, CycNum) and other.p != self.p and other.is_rational():
            other = other.rational_value()
        if _is_rational(other):
            return self.is_rational() and self.rational_value() == other
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.p == other.p and self.den == other.den and self.num == other.num

    def __hash__(self):
        # a rational value equals its Fraction, so it hashes as one
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.p, self.num, self.den))

    def __reduce__(self):
        return _make, (self.p, self.num, self.den)

    # -- output ---------------------------------------------------------------

    def __repr__(self):
        return f"CycNum({self.p}, {format_value(self)!r})"


_new = object.__new__
_set_p = CycNum.p.__set__
_set_num = CycNum.num.__set__
_set_den = CycNum.den.__set__


def _make(p: int, num: Tuple[int, ...], den: int) -> CycNum:
    """Trusted constructor: p - 1 int numerators over den > 0, reduced by
    their gcd.  Callers have already checked p and the length."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(map(floordiv, num, repeat(g)))
            den //= g
    x = _new(CycNum)
    _set_p(x, p)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _combine(x: CycNum, y: CycNum, op) -> CycNum:
    """x + y or x - y for op add or sub, over the lcm of the two denominators."""
    a, b = x.den, y.den
    if a == b:
        return _make(x.p, tuple(map(op, x.num, y.num)), a)
    g = gcd(a, b)
    mx, my = b // g, a // g
    return _make(x.p, tuple(map(op, map(mul, x.num, repeat(mx)), map(mul, y.num, repeat(my)))),
                 a * mx)


def _reduced_over(p: int, acc: Sequence[int], den: int) -> CycNum:
    """The value sum_k acc[k] zeta^k / den for p int exponent coefficients,
    rewritten into the basis by 1 + zeta + ... + zeta^(p-1) = 0 and reduced."""
    top = acc[p - 1]
    if top:
        return _make(p, tuple(map(sub, acc[: p - 1], repeat(top))), den)
    return _make(p, tuple(acc[: p - 1]), den)


def root_of_unity(p: int, k: int) -> CycNum:
    """zeta_p^k as a reduced basis element; root_of_unity(p, 0) is 1."""
    check_prime(p)
    if not isinstance(k, int) or not 0 <= k < p:
        raise ValueError(f"exponent must satisfy 0 <= k < p, got {k!r}")
    acc = [0] * p
    acc[k] = 1
    return _reduced_over(p, acc, 1)


def format_value(x: CycNum) -> str:
    """Render a value in the CLI grammar: rationals and z^k terms joined by +/-.
    Each term is its numerator over den, reduced by one gcd."""
    den = x.den
    out = []
    for k, c in enumerate(x.num):
        if not c:
            continue
        g = gcd(c, den)
        mag = str(abs(c) // g) if den == g else f"{abs(c) // g}/{den // g}"
        if k:
            zpow = "z" if k == 1 else f"z^{k}"
            mag = zpow if mag == "1" else f"{mag}*{zpow}"
        out.append(("-" if c < 0 else "+" if out else "") + mag)
    return "".join(out) or "0"


def parse_value(text: str, p: int) -> CycNum:
    """Parse the CLI value grammar: e.g. '2', '-1/3', 'z^2', '1+z-2*z^3'."""
    check_prime(p)
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty value literal")
    terms = _TERM_RE.findall(s)
    if "".join(terms) != s:
        raise ValueError(f"malformed value literal {text!r}")
    total = CycNum.zero(p)
    for term in terms:
        sign = 1
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign = -1
            term = term[1:]
        if not term:
            raise ValueError(f"malformed value literal {text!r}")
        try:
            if "z" in term:
                head, _, tail = term.partition("z")
                coef = Fraction(1) if head in ("", "*") else Fraction(head.rstrip("*"))
                if tail == "":
                    k = 1
                elif tail.startswith("^"):
                    k = int(tail[1:])
                    if k < 0:
                        raise ValueError
                else:
                    raise ValueError
                total = total + root_of_unity(p, k % p) * (sign * coef)
            else:
                total = total + CycNum.from_rational(p, sign * Fraction(term))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed value literal {text!r}") from exc
    return total
