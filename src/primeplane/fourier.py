"""Exact Fourier analysis on F_p and F_p^2 with values in Q(zeta_p).

Normalization: hat(f)(w) = (1/|G|) * sum_g f(g) * conj(chi_w(g)), with
inversion f(g) = sum_w hat(f)(w) * chi_w(g).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, islice, product, repeat
from math import lcm
from operator import itemgetter, lshift, or_
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .cyclotomic import (
    CycNum,
    _as_coeff,
    _make,
    _reduced_over,
    check_prime,
    format_value,
    parse_value,
)
from .plane import (
    DUAL,
    PRIMAL,
    LineSubgroup,
    Point,
    PointSet,
    check_side,
    opposite_side,
    tables,
)

ValueLike = Union[CycNum, int, Fraction]


@lru_cache(maxsize=None)
def pair_exponents(p: int, rank: int) -> Tuple[Tuple[int, ...], ...]:
    """exponents[w][g] = <w, g> mod p for the rank-1 or rank-2 pairing,
    read as a*(g // p) + b*g for w = a*p + b (a = 0 at rank 1), as in twist."""
    check_prime(p)
    if rank not in (1, 2):
        raise ValueError("rank must be 1 or 2")
    n = p**rank
    return tuple(tuple((w // p * (g // p) + w * g) % p for g in range(n)) for w in range(n))


class GFunc:
    """A dense Q(zeta_p)-valued function on F_p (rank 1) or F_p^2 (rank 2),
    on either the primal or the dual side.

    A transform keeps its outputs packed (_Packed) until they are read:
    `values` decodes them all once, value() and restrict_to_coset decode
    one output each, and the support mask decodes none."""

    __slots__ = ("p", "rank", "side", "_values", "_packed")

    def __init__(self, p: int, rank: int, side: str, values: Sequence[ValueLike]):
        check_prime(p)
        if rank not in (1, 2):
            raise ValueError("rank must be 1 or 2")
        check_side(side)
        n = p**rank
        zeros = (0,) * (p - 2)
        vals = []
        for v in values:
            if isinstance(v, CycNum):
                if v.p != p:
                    raise ValueError(f"value field order {v.p} does not match p={p}")
                vals.append(v)
            else:
                v = _as_coeff(v)
                vals.append(_make(p, (v.numerator,) + zeros, v.denominator))
        if len(vals) != n:
            raise ValueError(f"need {n} values, got {len(vals)}")
        _fill(self, p, rank, side, tuple(vals), None)

    def __setattr__(self, name, value):
        raise AttributeError("GFunc is immutable")

    def __reduce__(self):
        # a packed transform pickles as its decoded values
        return _gfunc, (self.p, self.rank, self.side, self.values)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_literal(cls, text: str) -> "GFunc":
        """Parse the literal 'p; rank; v0,v1,...' with cyclotomic value terms
        as a primal function."""
        parts = text.split(";")
        if len(parts) != 3:
            raise ValueError(f"malformed function literal {text!r}")
        try:
            p = int(parts[0].strip())
            rank = int(parts[1].strip())
        except ValueError as exc:
            raise ValueError(f"malformed function literal {text!r}") from exc
        check_prime(p)
        if rank not in (1, 2):
            raise ValueError("rank must be 1 or 2")
        values = [parse_value(s, p) for s in parts[2].split(",")]
        return cls(p, rank, PRIMAL, values)

    def to_literal(self) -> str:
        return f"{self.p}; {self.rank}; " + ",".join(format_value(v) for v in self.values)

    # -- access ------------------------------------------------------------

    @property
    def values(self) -> Tuple[CycNum, ...]:
        values = self._values
        if values is None:
            values = tuple(self._packed.values())
            object.__setattr__(self, "_values", values)
            object.__setattr__(self, "_packed", None)
        return values

    def _at(self, g: int) -> CycNum:
        """The value at point index g, decoding that output alone."""
        values = self._values
        return self._packed.value(g) if values is None else values[g]

    def value(self, point: Point) -> CycNum:
        if self.rank != 2:
            raise ValueError("point access requires rank 2")
        if point.p != self.p or point.side != self.side:
            raise ValueError("point does not match the function's p and side")
        return self._at(point.index)

    @property
    def support_mask(self) -> int:
        values = self._values
        if values is None:
            return self._packed.mask
        return sum(compress(_point_bits(len(values)), values))

    @property
    def support_size(self) -> int:
        return self.support_mask.bit_count()

    def support(self) -> PointSet:
        if self.rank != 2:
            raise ValueError("PointSet support requires rank 2")
        return PointSet(self.p, self.side, self.support_mask)

    def is_zero_function(self) -> bool:
        return not self.support_mask

    def is_rational_valued(self) -> bool:
        return all(v.is_rational() for v in self.values)

    # -- pointwise algebra ---------------------------------------------------

    def _require_like(self, other: "GFunc"):
        if not isinstance(other, GFunc):
            raise TypeError("expected a GFunc")
        if (other.p, other.rank, other.side) != (self.p, self.rank, self.side):
            raise ValueError("functions must share p, rank and side")

    def __add__(self, other: "GFunc") -> "GFunc":
        self._require_like(other)
        return GFunc(self.p, self.rank, self.side,
                     tuple(a + b for a, b in zip(self.values, other.values)))

    def __eq__(self, other):
        if not isinstance(other, GFunc):
            return NotImplemented
        return (self.p, self.rank, self.side, self.values) == \
            (other.p, other.rank, other.side, other.values)

    def __hash__(self):
        return hash((self.p, self.rank, self.side, self.values))

    def __repr__(self):
        return f"GFunc({self.side}, {self.to_literal()!r})"


def _fill(f: GFunc, p: int, rank: int, side: str, values: Optional[Tuple[CycNum, ...]],
          packed: Optional["_Packed"]) -> None:
    object.__setattr__(f, "p", p)
    object.__setattr__(f, "rank", rank)
    object.__setattr__(f, "side", side)
    object.__setattr__(f, "_values", values)
    object.__setattr__(f, "_packed", packed)


def _gfunc(p: int, rank: int, side: str, values: Optional[Tuple[CycNum, ...]],
           packed: Optional["_Packed"] = None) -> GFunc:
    """Trusted constructor for the functions this package builds: `values`
    is a tuple of p**rank CycNums of field p, or None and `packed` the
    transform that decodes them.  Callers have checked p, rank and side."""
    f = object.__new__(GFunc)
    _fill(f, p, rank, side, values, packed)
    return f


def twist(f: GFunc, chi: int) -> GFunc:
    """The pointwise product g -> f(g) * zeta^<chi, g>, for chi the index of
    a point on the other side; the result stays on f's side.  With
    chi = a*p + b (a = 0 at rank 1) and g = x*p + y, <chi, g> = a*x + b*y,
    which is a*(g // p) + b*g mod p, so no pairing table is built."""
    p, n = f.p, len(f.values)
    if not 0 <= chi < n:
        raise ValueError(f"character index must lie in [0, {n}), got {chi!r}")
    a, b = divmod(chi, p)
    return _gfunc(p, f.rank, f.side, tuple([v.times_root(a * (g // p) + b * g)
                                            for g, v in enumerate(f.values)]))


# -- transforms ----------------------------------------------------------------


def _scaled_int_coeffs(values: Sequence[CycNum]) -> Tuple[List[Tuple[int, ...]], int]:
    """Coefficient vectors scaled by the common denominator, as exact ints.

    The hot loops below then run in plain integer arithmetic; the single
    denominator is divided back out when the results are reduced.
    """
    den = lcm(*{v.den for v in values})
    if den == 1:
        return [v.num for v in values], 1
    return [v.num if v.den == den else tuple(c * (den // v.den) for c in v.num)
            for v in values], den


@lru_cache(maxsize=None, typed=True)
def _line_table(p: int, rank: int) -> Tuple[Tuple[tuple, tuple], ...]:
    """(line_of, points) for each direction d of the plane.  line_of is
    plane.tables(p).coset_id[d], which is <w_d, g> mod p for w_d = (-d, 1),
    or (1, 0) at d = p, and points[t] is the index of the multiple t*w_d.
    The pairing is symmetric, so the same table serves either side.  Rank
    1 has the one direction w = 1, whose lines are single points.

    Raises ValueError unless p is a usable prime and rank is 1 or 2, so a
    cached table vouches for both; the cache is typed, so that 3.0 never
    finds the entry of 3."""
    check_prime(p)
    if rank not in (1, 2):
        raise ValueError("rank must be 1 or 2")
    if rank == 1:
        ids = tuple(range(p))
        return ((ids, ids),)
    out = []
    for d, line_of in enumerate(tables(p).coset_id):
        a, b = (1, 0) if d == p else (-d % p, 1)
        out.append((line_of, tuple((t * a) % p * p + (t * b) % p for t in range(p))))
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def _line_getters(p: int, rank: int) -> Tuple[tuple, ...]:
    """(first, rest, mask) for each direction of _line_table, for the
    integer kernels alone: first and rest pick the values on line 0 and on
    lines 1..p-1, so sum(getter(values)) is one line's sum, and mask has
    the bits of the p - 1 nonzero multiples of the direction.  At rank 1
    each line is one point, picked as a one-item slice so that the sum
    applies there too.  O(p^3) references at rank 2, which the exact
    transform does not pay for."""
    table = _line_table(p, rank)  # validates p and rank
    indices = tuple(range(p**rank))  # one int object per point, shared by the getters
    out = []
    for line_of, points in table:
        if rank == 1:
            getters = [itemgetter(slice(g, g + 1)) for g in indices]
        else:
            lines: List[List[int]] = [[] for _ in range(p)]
            for g, j in zip(indices, line_of):
                lines[j].append(g)
            getters = [itemgetter(*members) for members in lines]
        out.append((getters[0], tuple(getters[1:]), sum(1 << w for w in points[1:])))
    return tuple(out)


@lru_cache(maxsize=None)
def _slice_picks(p: int) -> Tuple[Optional[itemgetter], ...]:
    """pick[t] for t = 1..p-1 (row 0 unused), taking the output at t*d from
    the p line sums L_d(k) of its direction d when the values are rational:
    output exponent j is L_d(k) for -t*k = j mod p."""
    return (None,) + tuple(itemgetter(*[j * pow(-t, -1, p) % p for j in range(p)])
                           for t in range(1, p))


@lru_cache(maxsize=16)
def _packing(p: int, width: int) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...], itemgetter]:
    """(slots, shifts, cut) for exponent vectors packed `width` bytes a
    slot, W = 8 * width bits: slots[e] = e*W places coefficient e;
    shifts[t][k] = ((-t*k) mod p)*W multiplies line k's sum by
    zeta^(-t*k) before the fold (row 0 unused); cut takes the p slots of a
    big-endian p*width-byte string, slot 0 first.  O(p^2) ints per entry."""
    bits = 8 * width
    shifts = ((),) + tuple(tuple((-t * k) % p * bits for k in range(p)) for t in range(1, p))
    cut = itemgetter(*[slice((p - 1 - e) * width, (p - e) * width) for e in range(p)])
    return tuple(range(0, p * bits, bits)), shifts, cut


class _Packed:
    """The outputs of _transform, kept packed, with the transform's support
    mask.  Output 0 is `total`, the summed numerators.  rows[d] holds
    direction d of _line_table: on the rational branch (width None) its p
    line sums, and on the cyclotomic one its folded output ints, at
    rows[d][t] for the output at points[t].  An output is decoded, by the
    same _reduced_over call either way, only when it is read; each output
    is numerators over `divisor`."""

    __slots__ = ("p", "rank", "divisor", "total", "rows", "width", "mask")

    def __init__(self, p: int, rank: int, divisor: int, total: Tuple[int, ...], rows: list,
                 width: Optional[int], mask: int):
        self.p, self.rank, self.divisor, self.total = p, rank, divisor, total
        self.rows, self.width, self.mask = rows, width, mask

    def value(self, v: int) -> CycNum:
        """Output v.  v = (x, y) is points[t] of direction d: t = y and
        d = -x/y mod p for y != 0, else t = x and d = p (rank 1 has x = 0
        and the one direction 0)."""
        p, width = self.p, self.width
        if not v:
            return _make(p, self.total, self.divisor)
        x, y = divmod(v, p)
        d, t = (-x * pow(y, -1, p) % p, y) if y else (p, x)
        if width is None:
            return _reduced_over(p, _slice_picks(p)[t](self.rows[d]), self.divisor)
        parts = _packing(p, width)[2](self.rows[d][t].to_bytes(p * width, "big"))
        return _reduced_over(p, list(map(int.from_bytes, parts, repeat("big", p))), self.divisor)

    def values(self) -> List[CycNum]:
        return [self.value(v) for v in range(self.p**self.rank)]


def _transform(values: Sequence[CycNum], p: int, rank: int, scale: int) -> _Packed:
    """out[v] = (1/scale) * sum_u values[u] * zeta^(-<v, u>), by line sums,
    packed, with the support mask of out.

    For v = t*d, with d one of the directions of _line_table,
    sum_u values[u] zeta^(-t*<d, u>) = sum_k L_d(k) zeta^(-t*k),
    where L_d(k) sums the values on the line <d, u> = k: the discrete
    projection-slice theorem (the finite Radon transform).  The values are
    summed along the p lines of each direction once, and each of the p - 1
    outputs on that direction combines those p sums by t; v = 0 takes the
    total.  The sums with zeta^(+<v, u>) are these read at -v
    (_at_multiple), so one routine serves both directions.

    An output sum_e a_e zeta^e over the p exponents is zero iff all p a_e
    are equal, because 1 + zeta + ... + zeta^(p-1) = 0 is the only
    rational relation among the p-th roots of unity; so the support is
    found with no output decoded.  Rational values sum their one
    coefficient, and the p - 1 outputs of a direction, _slice_picks'
    permutations of its p line sums, are all zero iff those sums are
    equal.  Cyclotomic values are packed, one int per value, by cyclic
    Kronecker substitution: slot e of W bits holds the coefficient of
    zeta^e plus a bias B = max |coefficient|, so every slot is
    nonnegative, and W is the whole bytes that hold 2*B*p^rank, the
    largest slot of an output.  A line's sum starts from p^(rank-1)
    biases in every slot, as if each of its points carried one, and adds
    one int per support point; multiplying by zeta^m is a shift by m*W
    bits, and one fold at p*W bits wraps the exponents >= p.  So output t
    is one C-level shifted sum, and it is zero iff its p slots are equal:
    x == (x & slot) * ones, for the all-ones slot pattern.  Decoding cuts
    its bytes into the p slots, and _reduced_over cancels the bias, which
    every slot carries p^rank times.  Either way that is O(p^3) big-int
    operations at rank 2, and no table beyond O(p^2) is kept.
    """
    scaled, den = _scaled_int_coeffs(values)
    support = [(u, c) for u, c in enumerate(scaled) if any(c)]
    total = tuple(map(sum, zip(*(c for _, c in support)))) if support else (0,) * (p - 1)
    bits = _point_bits(len(values))
    mask = 1 if any(total) else 0
    rows = []
    if not any(any(c[1:]) for _, c in support):
        for line_of, points in _line_table(p, rank):
            sums = [0] * p
            for u, c in support:
                sums[line_of[u]] += c[0]
            if sums.count(sums[0]) != p:
                mask |= sum(map(bits.__getitem__, points[1:]))
            rows.append(sums)
        return _Packed(p, rank, den * scale, total, rows, None, mask)
    bias = max(map(abs, chain.from_iterable(c for _, c in support)))
    width = ((2 * bias * p**rank).bit_length() + 7) // 8
    slots, shifts, _ = _packing(p, width)
    fold = 8 * width * p
    slot = (1 << 8 * width) - 1
    low = (1 << fold) - 1
    ones = low // slot
    start = p ** (rank - 1) * bias * ones
    packed = [(u, sum(map(lshift, c, slots))) for u, c in support]
    for line_of, points in _line_table(p, rank):
        sums = [start] * p
        for u, x in packed:
            sums[line_of[u]] += x
        row = [None]
        for t in range(1, p):
            x = sum(map(lshift, sums, shifts[t]))
            x = (x & low) + (x >> fold)
            if x != (x & slot) * ones:
                mask |= bits[points[t]]
            row.append(x)
        rows.append(row)
    return _Packed(p, rank, den * scale, total, rows, width, mask)


def _at_multiple(values: Sequence, p: int, j: int) -> list:
    """The values read at j*g: index x*p + y (x = 0 at rank 1) gets (j*x, j*y)'s."""
    return [values[j * (g // p) % p * p + j * g % p] for g in range(len(values))]


def fourier_transform(f: GFunc) -> GFunc:
    """Exact transform; the result lives on the opposite side, and its
    outputs stay packed until they are read."""
    return _gfunc(f.p, f.rank, opposite_side(f.side), None,
                  _transform(f.values, f.p, f.rank, len(f.values)))


def inverse_transform(u: GFunc) -> GFunc:
    """Inversion f(g) = sum_w u(w) chi_w(g), the forward sums read at -g."""
    if u.side != DUAL:
        raise ValueError("inverse transform expects a dual-side function")
    out = _transform(u.values, u.p, u.rank, 1).values()
    return _gfunc(u.p, u.rank, PRIMAL, tuple(_at_multiple(out, u.p, -1)))


def double_transform(f: GFunc) -> GFunc:
    """The transform taken twice, in O(|G|): by inversion it is
    g -> f(-g)/|G|, on f's own side."""
    scale = Fraction(1, len(f.values))
    return _gfunc(f.p, f.rank, f.side, tuple([v * scale for v in _at_multiple(f.values, f.p, -1)]))


@lru_cache(maxsize=None)
def _point_bits(n: int) -> Tuple[int, ...]:
    """bits[g] = 1 << g: compress(bits, values) yields the support's bits."""
    return tuple(1 << g for g in range(n))


def int_support_masks(p: int, rank: int, values: Sequence[int]) -> Tuple[int, int]:
    """Support masks (function, transform) for an integer-valued function.

    The transform value at w collects the integer values by the exponent
    -<w, g> mod p; it vanishes exactly when all p collected coefficients
    coincide, because 1 + zeta + ... + zeta^(p-1) = 0 is the only rational
    relation among the p-th roots of unity.  At w = 0 every value lands on
    exponent 0, so w is in the support iff the value sum is nonzero.  For
    w = t*d with t != 0 the coefficients are the p line sums of f across
    the direction d (the level sets of <d, g>), permuted by t, so the whole
    punctured line through d is in the support or out of it together: the
    Galois closure of a rational function's transform support.

    Each line sum is one C-level sum over a cached itemgetter of the line's
    p points.  The p sums of a direction add up to the value sum, so they
    are all equal only if the first is that total over p: a direction
    whose first sum is not is in the support after one sum.  Otherwise
    it stops at the first sum that differs from its first line's, and
    only one outside the support costs all p, so the work is at most
    (p + 1) * p^2 integer additions at rank 2, however large the support.  The test
    suite checks this route against one pass over the support per
    direction, against one pass per character, and against the transform;
    in turn it is the oracle of int_support_stream, at every ordinal.
    """
    lines = _line_getters(p, rank)  # validates p and rank
    n = p**rank
    if len(values) != n:
        raise ValueError(f"need {n} values, got {len(values)}")
    s_mask = sum(compress(_point_bits(n), values))
    total = sum(values)
    x_mask = 1 if total else 0
    for first, rest, mask in lines:
        line = sum(first(values))
        if line * p != total:
            x_mask |= mask
            continue
        for other in rest:
            if sum(other(values)) != line:
                x_mask |= mask
                break
    return s_mask, x_mask


def exact_support_masks(p: int, rank: int, values: Sequence[CycNum]) -> Tuple[int, int]:
    """Support masks (function, transform) for CycNum values of field p,
    the transform's by _transform's packed zero test: no output is decoded
    and no GFunc is built.  (0, 0) for the zero function."""
    s_mask = sum(compress(_point_bits(len(values)), values))
    return s_mask, s_mask and _transform(values, p, rank, 1).mask


#: the most assignments a low block of int_support_stream holds
_LOW_BLOCK = 1024


def _line_keys(lines, values: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """For each direction of _line_getters, the p line sums of `values`
    less the sum on line 0: the key is all zeros iff the direction is out
    of the transform's support, and it is linear in the values."""
    for first, rest, _ in lines:
        base = sum(first(values))
        yield tuple([sum(line(values)) - base for line in rest])


def _low_block(lines, ints: Sequence[int], r: int, n: int):
    """(s_masks, by_total, by_key) over the assignments of `ints` to
    points 0..r-1, numbered with point 0 fastest: each one's support
    mask, its indices grouped by value total, and per direction grouped
    by _line_keys."""
    s_masks: List[int] = []
    by_total: Dict[int, List[int]] = {}
    by_key: List[Dict[tuple, List[int]]] = [{} for _ in lines]
    pad = (0,) * (n - r)
    bits = _point_bits(n)
    for index, low in enumerate(product(ints, repeat=r)):
        values = low[::-1] + pad
        s_masks.append(sum(compress(bits, values)))
        by_total.setdefault(sum(values), []).append(index)
        for groups, key in zip(by_key, _line_keys(lines, values)):
            groups.setdefault(key, []).append(index)
    return s_masks, by_total, by_key


def int_support_stream(p: int, rank: int, ints: Sequence[int], start: int,
                       stop: int) -> Iterator[Tuple[int, int, int]]:
    """(ordinal, s_mask, x_mask) for each nonzero candidate with
    start <= ordinal < stop of the exhaustive space over `ints`, in
    ordinal order: candidate o takes ints[digit i of o in base len(ints)]
    at point i, so point 0 varies fastest.  The masks are those of
    int_support_masks, decided a block of candidates at a time.

    The points split into a low block 0..r-1, with r the largest r <= n
    for which B**r <= _LOW_BLOCK (B = len(ints)), and a high block, so
    that ordinal = h * B**r + l.  Line sums are linear in the values, so
    a candidate's line sums are its low assignment's plus its high one's:
    direction d is out of the transform's support iff the low key of d
    (_line_keys) is the negated high key, and w = 0 iff the low total is
    the negated high total.  The low keys are grouped once; per high
    assignment a row of B**r masks starts full, and only the low
    assignments found under the negated keys lose a bit, so the Python
    work per high assignment is O((p + 1) * p) sums plus one step per bit
    cleared.  Memory is the low block's tables, O(B**r * (p + 1)), and
    one row.
    """
    lines = _line_getters(p, rank)  # validates p and rank
    n, base = p**rank, len(ints)
    r = 0
    while r < n and base ** (r + 1) <= _LOW_BLOCK:
        r += 1
    width = base**r
    if start >= stop:
        return
    s_low, by_total, by_key = _low_block(lines, ints, r, n)
    clears = [(groups, ~mask) for groups, (_, _, mask) in zip(by_key, lines)]
    full, head, bits = (1 << n) - 1, (0,) * r, _point_bits(n)
    # the high block's values are negated, so that its keys and total are
    # the ones a low assignment must have for the sum to cancel
    negated = tuple(-v for v in ints)
    first_high = start // width
    highs = islice(product(negated, repeat=n - r), first_high, -(-stop // width))
    for h, high in enumerate(highs, first_high):
        values = head + high[::-1]
        x_row = [full] * width
        for index in by_total.get(sum(values), ()):
            x_row[index] &= ~1
        for (groups, keep), key in zip(clears, _line_keys(lines, values)):
            for index in groups.get(key, ()):
                x_row[index] &= keep
        first = h * width
        lo, hi = max(start - first, 0), min(stop - first, width)
        s_row = list(map(or_, repeat(sum(compress(bits, values))), s_low[lo:hi]))
        # a zero S mask is the zero candidate, the one that is skipped
        yield from compress(zip(range(first + lo, first + hi), s_row, x_row[lo:hi]), s_row)


# -- coset restriction ----------------------------------------------------------


def line_sums(hat: GFunc, chi: Point, direction: int) -> List[CycNum]:
    """R[a] = sum_t hat(chi + t*gen) zeta^(t*a) for a = 0..p-1, gen the
    generator of the direction's line subgroup on hat's side: the rank-1
    inverse transform of hat's slice through chi.  The orthogonal-subgroup
    sum behind coset restriction and the two-line decompositions,
    sum_{psi = t*gen} hat(chi psi) psi(g), is R[<gen, g>] for every g.
    R[a] is the forward sum read at -a: the one routine of
    fourier_transform, at rank 1, with no table of its own."""
    line = restrict_to_coset(hat, chi, LineSubgroup(hat.p, direction, hat.side))
    return _at_multiple(_transform(line.values, hat.p, 1, 1).values(), hat.p, -1)


def restrict_to_coset(f: GFunc, g: Point, H: LineSubgroup) -> GFunc:
    """The rank-1 slice t -> f(g + t * gen(H)) along the generator of H,
    for a rank-2 f on either side with g and H on that side."""
    p = f.p
    if f.rank != 2 or (g.p, g.side) != (p, f.side) or (H.p, H.side) != (p, f.side):
        raise ValueError("restriction needs a rank-2 function with g and H on its side")
    gen, at = H.generator, f._at
    return _gfunc(p, 1, f.side, tuple([at((g.x + t * gen.x) % p * p + (g.y + t * gen.y) % p)
                                       for t in range(p)]))
