"""Exact arithmetic in prime-order cyclotomic fields Q(zeta_p).

A value is stored by its coordinates in the power basis
{1, zeta, ..., zeta^(p-2)}, where zeta is a fixed primitive p-th root of
unity.  The defining relation 1 + zeta + ... + zeta^(p-1) = 0 rewrites
zeta^(p-1) back into the basis, so the representation is canonical:
equality and zero-testing are exact coefficient comparisons.  Floating
point is banned from this module; coefficients are Python ints and
fractions.Fraction values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence, Union

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


class CycNum:
    """An element of Q(zeta_p), kept reduced in the power basis.

    Instances are immutable and hashable; arithmetic is closed over the
    field and always returns reduced values.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[Rational]):
        check_prime(p)
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} basis coefficients for p={p}, got {len(coeffs)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(_as_coeff(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycNum":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> "CycNum":
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, value: Rational) -> "CycNum":
        check_prime(p)
        return cls(p, (_as_coeff(value),) + (0,) * (p - 2))

    @classmethod
    def from_exponent_vector(cls, p: int, acc: Sequence[Rational]) -> "CycNum":
        """Reduce coefficients of 1, zeta, ..., zeta^(p-1) (length p) to the basis."""
        check_prime(p)
        if len(acc) != p:
            raise ValueError(f"need {p} exponent coefficients, got {len(acc)}")
        top = acc[p - 1]
        if top:
            return cls(p, tuple(c - top for c in acc[: p - 1]))
        return cls(p, tuple(acc[: p - 1]))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.p != self.p:
                raise ValueError(f"mixed cyclotomic orders {self.p} and {other.p}")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return CycNum.from_rational(self.p, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNum(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNum(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycNum(self.p, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, CycNum):
            if other.p != self.p:
                raise ValueError(f"mixed cyclotomic orders {self.p} and {other.p}")
            p = self.p
            acc = [0] * p
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            acc[(i + j) % p] += a * b
            return CycNum.from_exponent_vector(p, acc)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if not other:
                return CycNum.zero(self.p)
            return CycNum(self.p, tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int) -> "CycNum":
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = CycNum.one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- field automorphisms ------------------------------------------------

    def galois(self, j: int) -> "CycNum":
        """Apply the automorphism zeta -> zeta^j; j must be a unit mod p."""
        p = self.p
        j %= p
        if j == 0:
            raise ValueError("Galois exponent must be a unit modulo p")
        if j == 1:
            return self
        acc = [0] * p
        for t, c in enumerate(self.coeffs):
            if c:
                acc[(j * t) % p] += c
        return CycNum.from_exponent_vector(p, acc)

    def conjugate(self) -> "CycNum":
        """Complex conjugation, i.e. zeta -> zeta^(p-1)."""
        return self.galois(self.p - 1)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.coeffs[0])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = CycNum.from_rational(self.p, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    # -- output ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "coeffs": [fraction_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "CycNum":
        return cls(obj["p"], [Fraction(c) for c in obj["coeffs"]])

    def __repr__(self):
        return f"CycNum({self.p}, {format_value(self)!r})"

    def __str__(self):
        return format_value(self)


def root_of_unity(p: int, k: int) -> CycNum:
    """zeta_p^k as a reduced basis element; root_of_unity(p, 0) is 1."""
    check_prime(p)
    if not isinstance(k, int) or not 0 <= k < p:
        raise ValueError(f"exponent must satisfy 0 <= k < p, got {k!r}")
    acc = [0] * p
    acc[k] = 1
    return CycNum.from_exponent_vector(p, acc)


def fraction_str(value: Rational) -> str:
    """Exact 'num/den' rendering used by the JSON serialization."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def format_value(x: CycNum) -> str:
    """Render a value in the CLI grammar: rationals and z^k terms joined by +/-."""
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
