"""The affine plane over F_p: the rank-2 group and its dual as planes.

The p+1 order-p subgroups are the "directions", their cosets the
"lines".  Both the group and its dual are represented by the same Point
type with a side tag; the pairing <(a,b),(x,y)> = ax + by labels the
character (a,b) acting on (x,y) by zeta^(ax+by), which makes dual-side
lines literal lines.  Point sets are bitmaps over the p^2 point indices
(index = x*p + y), so the line-cover searches run on integer masks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import and_, attrgetter, methodcaller
from typing import FrozenSet, Iterable, NamedTuple, Optional, Tuple

from .cyclotomic import check_prime

PRIMAL = "primal"
DUAL = "dual"
_SIDES = (PRIMAL, DUAL)

_PAIR_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def check_side(side: str) -> str:
    if side not in _SIDES:
        raise ValueError(f"side must be 'primal' or 'dual', got {side!r}")
    return side


def opposite_side(side: str) -> str:
    check_side(side)
    return DUAL if side == PRIMAL else PRIMAL


_setfield = object.__setattr__


class _Record:
    """Equality, repr and pickling for a class whose `_fields` name its
    __init__ arguments in order and whose `_values` reads them as a tuple:
    two records are equal when they are of one class with equal fields,
    repr shows the fields as keywords, and unpickling calls the class on
    the fields again."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values


class _Frozen(_Record):
    """An immutable _Record, hashed by its fields: __init__ sets each field
    once through _setfield, and any later assignment raises."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Point(_Frozen):
    """A point of F_p^2 or of its dual, tagged by side.

    A dual point (a, b) labels the character sending a primal point
    (x, y) to zeta^(ax + by).
    """

    __slots__ = _fields = ("p", "x", "y", "side")
    _values = property(attrgetter(*_fields))

    def __init__(self, p: int, x: int, y: int, side: str = PRIMAL):
        check_prime(p)
        check_side(side)
        if not (0 <= x < p and 0 <= y < p):
            raise ValueError(f"coordinates out of range mod {p}: ({x}, {y})")
        _setfield(self, "p", p)
        _setfield(self, "x", x)
        _setfield(self, "y", y)
        _setfield(self, "side", side)

    @classmethod
    def of(cls, p: int, x: int, y: int, side: str = PRIMAL) -> "Point":
        return cls(p, x % p, y % p, side)

    @property
    def index(self) -> int:
        return self.x * self.p + self.y

    def is_origin(self) -> bool:
        return self.x == 0 and self.y == 0

    def scaled(self, t: int) -> "Point":
        return Point.of(self.p, t * self.x, t * self.y, self.side)

    def pair(self, other: "Point") -> int:
        """<chi, g> mod p for one dual and one primal point, in either order."""
        if not isinstance(other, Point) or other.p != self.p or other.side == self.side:
            raise ValueError("pairing requires one primal and one dual point")
        return (self.x * other.x + self.y * other.y) % self.p


def orthogonal_direction(p: int, d: int) -> int:
    """Direction index of the orthogonal subgroup under the pairing ax + by."""
    check_prime(p)
    if not 0 <= d <= p:
        raise ValueError(f"direction must lie in [0, {p}], got {d}")
    if d == 0:
        return p
    if d == p:
        return 0
    return (-pow(d, p - 2, p)) % p


@lru_cache(maxsize=None)
def orthogonal_directions(p: int) -> Tuple[int, ...]:
    """orthogonal_directions(p)[d] == orthogonal_direction(p, d) for every
    direction d, for loops that would otherwise validate p at each call."""
    return tuple(orthogonal_direction(p, d) for d in range(p + 1))


class LineSubgroup(_Frozen):
    """One of the p+1 order-p subgroups: slope d for d < p (generated by
    (1, d)); direction index p is the vertical subgroup generated by (0, 1)."""

    __slots__ = _fields = ("p", "direction", "side")
    _values = property(attrgetter(*_fields))

    def __init__(self, p: int, direction: int, side: str = PRIMAL):
        check_prime(p)
        check_side(side)
        if not 0 <= direction <= p:
            raise ValueError(f"direction must lie in [0, {p}], got {direction}")
        _setfield(self, "p", p)
        _setfield(self, "direction", direction)
        _setfield(self, "side", side)

    @property
    def generator(self) -> Point:
        if self.direction == self.p:
            return Point(self.p, 0, 1, self.side)
        return Point(self.p, 1, self.direction, self.side)

    def members(self) -> Tuple[Point, ...]:
        g = self.generator
        return tuple(g.scaled(t) for t in range(self.p))


def line_rep(p: int, direction: int, coset_id: int, side: str = PRIMAL) -> Point:
    """The least point of the line of `direction` that tables(p).coset_id
    numbers `coset_id`: (coset_id, 0) for the vertical direction p, and
    (0, coset_id) otherwise."""
    if direction == p:
        return Point(p, coset_id, 0, side)
    return Point(p, 0, coset_id, side)


class PointSet(_Frozen):
    """A subset of the p^2 points of one side, stored as a bitmap."""

    _fields = ("p", "side", "mask")
    __slots__ = _fields + ("__dict__",)  # the instance dict holds the line census
    _values = property(attrgetter(*_fields))

    def __init__(self, p: int, side: str, mask: int):
        check_prime(p)
        check_side(side)
        if not 0 <= mask < (1 << (p * p)):
            raise ValueError("mask out of range for this plane")
        _setfield(self, "p", p)
        _setfield(self, "side", side)
        _setfield(self, "mask", mask)

    @classmethod
    def from_pairs(cls, p: int, pairs: Iterable[Tuple[int, int]]) -> "PointSet":
        """The primal set of the given (x, y) points, repeats allowed, built in a
        bytearray and read as one int: linear in the pairs and the p^2 bits."""
        buf = bytearray((check_prime(p) * p + 7) // 8)
        for x, y in pairs:
            if not (0 <= x < p and 0 <= y < p):
                raise ValueError(f"coordinates out of range mod {p}: ({x}, {y})")
            idx = x * p + y
            buf[idx >> 3] |= 1 << (idx & 7)
        return cls(p, PRIMAL, int.from_bytes(buf, "little"))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __getattr__(self, name: str):
        """line_counts and line_profile, counted together on the first read
        of either and kept in the instance dict, where later reads find them
        without a call.

        line_counts[d][j] is the number of points of the set on line j of
        direction d (coset ids as in tables); every structural query
        on a set's lines reads this one census.  line_profile is (least,
        empty): least[d] is the fewest points on a line of direction d that
        meets the set (0 for the empty set) and empty[d] the number of lines
        of direction d that miss it."""
        if name not in ("line_counts", "line_profile"):
            raise AttributeError(f"'PointSet' object has no attribute {name!r}")
        counts = map(int.bit_count, map(and_, tables(self.p).line_masks, repeat(self.mask)))
        rows = tuple(zip(*[counts] * self.p))
        empty = tuple(map(methodcaller("count", 0), rows))
        if any(empty):
            least = tuple(min(filter(None, row), default=0) for row in rows)
        else:
            least = tuple(map(min, rows))
        self.__dict__.update(line_counts=rows, line_profile=(least, empty))
        return self.__dict__[name]

    def with_profile(self, profile: tuple) -> "PointSet":
        """The set, its line_profile `profile` (counted by the caller) unless
        already counted; line_counts is still counted on its first read."""
        self.__dict__.setdefault("line_profile", profile)
        return self

    def indices(self) -> Tuple[int, ...]:
        """The point indices in increasing order, read from the mask's binary
        digits by str.find in C: O(p^2) steps, where a shift per bit is O(p^4)."""
        bits = bin(self.mask)[:1:-1]
        out = []
        i = bits.find("1")
        while i >= 0:
            out.append(i)
            i = bits.find("1", i + 1)
        return tuple(out)

    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((i // self.p, i % self.p) for i in self.indices())

    def literal(self) -> str:
        body = ",".join(f"({x},{y})" for x, y in self.pairs())
        return f"{self.p}; {body}" if body else f"{self.p};"


def parse_pointset(text: str) -> PointSet:
    """Parse the literal 'p; (x1,y1),(x2,y2),...' as a primal set."""
    head, sep, body = text.partition(";")
    if not sep:
        raise ValueError(f"malformed point-set literal {text!r}")
    try:
        p = int(head.strip())
    except ValueError as exc:
        raise ValueError(f"malformed point-set literal {text!r}") from exc
    check_prime(p)
    pairs = [(int(a), int(b)) for a, b in _PAIR_RE.findall(body)]
    leftover = _PAIR_RE.sub("", body).replace(",", "").strip()
    if leftover:
        raise ValueError(f"malformed point-set literal {text!r}")
    return PointSet.from_pairs(p, pairs)


# -- precomputed line tables -------------------------------------------------


class _Tables:
    """The plane's one line table.  coset_masks[d][j] is the mask of line j
    of direction d, line_masks the same masks flattened direction by
    direction, and coset_id[d][idx] the id of the line of direction d
    through point idx, so the p + 1 lines through idx are
    coset_masks[d][coset_id[d][idx]]."""

    __slots__ = ("p", "coset_masks", "line_masks", "coset_id")

    def __init__(self, p, coset_masks, coset_id):
        self.p = p
        self.coset_masks = coset_masks
        self.line_masks = tuple(m for masks in coset_masks for m in masks)
        self.coset_id = coset_id


@lru_cache(maxsize=None)
def tables(p: int) -> _Tables:
    """Per-prime line tables shared by every search in this module and by
    the transforms of `fourier`.  The coset id of (x, y) in direction d is
    <w_d, (x, y)> = (y - d*x) mod p for w_d = (-d, 1), and x for w_p = (1, 0).

    Point (x, y) has index x*p + y, so row x holds p consecutive bits.  For
    d < p, line 0 meets row x at y = d*x mod p, line c + 1 is line c moved
    one step along y, cyclically inside each row, and row x of the ids
    counts up from -d*x mod p; each mask is built from the one before by
    whole-integer shifts."""
    check_prime(p)
    last = (((1 << p * p) - 1) // ((1 << p) - 1)) << (p - 1)  # the points with y = p - 1
    ramp = tuple(range(p)) * 2
    coset_masks = []
    coset_id = []
    for d in range(p):
        line = 0
        ids = []
        for x in range(p):
            line |= 1 << (x * p + d * x % p)
            c = -d * x % p
            ids += ramp[c:c + p]
        masks = [line]
        for _ in range(p - 1):
            line = (line & ~last) << 1 | (line & last) >> (p - 1)
            masks.append(line)
        coset_masks.append(tuple(masks))
        coset_id.append(tuple(ids))
    rows = []
    ids = []
    for x in range(p):
        rows.append(((1 << p) - 1) << (x * p))
        ids += (x,) * p
    coset_masks.append(tuple(rows))
    coset_id.append(tuple(ids))
    return _Tables(p, tuple(coset_masks), tuple(coset_id))


# -- directions determined by a point set ------------------------------------


def _direction_of_indices(p: int, i: int, j: int) -> int:
    dx = (j // p - i // p) % p
    dy = (j % p - i % p) % p
    if dx == 0:
        return p
    return (dy * pow(dx, p - 2, p)) % p


def directions_determined(P: PointSet) -> FrozenSet[int]:
    """The directions of lines through two distinct points of P."""
    if P.size < 2:
        raise ValueError("need at least two points to determine a direction")
    return frozenset(d for d, counts in enumerate(P.line_counts) if max(counts) >= 2)


# -- blocking sets ------------------------------------------------------------


def min_blocking_size(p: int) -> Tuple[int, PointSet]:
    """The minimum size of a blocking set, 2p - 1, with the lines x = 0 and
    y = 0 as the witness.

    The two axes block every line: the line y = dx + c meets x = 0 at
    (0, c), and the line x = c meets y = 0 at (c, 0).  Nothing smaller
    blocks by Jamison (1977) and Brouwer-Schrijver (1978).  The witness
    mask is built by doubling, in time linear in its p^2 bits, with no
    line table."""
    full = (1 << check_prime(p) * p) - 1
    column, count = 1, 1  # the points (x, 0) with x < count
    while count < p:
        column |= column << count * p
        count *= 2
    return 2 * p - 1, PointSet(p, PRIMAL, column & full | (1 << p) - 1)


class PencilReport(NamedTuple):
    """Stability data for an almost-blocking set.

    k counts the directions with at least one unblocked line, m is the
    largest number of unblocked lines within one such pencil, and the
    bound is 2p - k - m (the Jamison floor 2p - 1 when P blocks
    everything, in which case k = m = 0)."""

    size: int
    k: int
    m: int
    bound: int
    holds: bool
    is_blocking: bool


def pencil_stability(P: PointSet) -> PencilReport:
    p = P.p
    unblocked = list(filter(None, P.line_profile[1]))
    k, m = len(unblocked), max(unblocked, default=0)
    bound = 2 * p - 1 if k == 0 else 2 * p - k - m
    return PencilReport(size=P.size, k=k, m=m, bound=bound,
                        holds=P.size >= bound, is_blocking=(k == 0))


# -- direction lemmas ----------------------------------------------------------


def bounded_line_direction(P: PointSet) -> Optional[int]:
    """A determined direction whose lines all carry fewer than
    sqrt(|P|) + max(1, |P|/2p) points of P, or None if no direction works.

    The comparison is exact: with r the rational slack term, a count c
    qualifies iff c - r < 0 or (c - r)^2 < |P|.
    """
    p = P.p
    size = P.size
    if not 2 <= size <= 4 * p:
        raise ValueError(f"need 2 <= |P| <= 4p, got |P|={size}")
    slack = max(Fraction(1), Fraction(size, 2 * p))
    for d in sorted(directions_determined(P)):
        worst = max(P.line_counts[d])
        excess = worst - slack
        if excess < 0 or excess * excess < size:
            return d
    return None


def rich_direction_search(P: PointSet) -> Optional[int]:
    """A direction with some line carrying >= 3 points of P while every
    line in it carries at most (p+5)/2, for (3p+7)/2 <= |P| <= 2p+7 and
    P not inside a union of two lines."""
    p = P.p
    if p < 3:
        raise ValueError("defined for p >= 3")
    size = P.size
    if not (3 * p + 7 <= 2 * size and size <= 2 * p + 7):
        raise ValueError(f"need (3p+7)/2 <= |P| <= 2p+7, got |P|={size}")
    if covered_by_lines(P, 2):
        raise ValueError("P must not be contained in a union of two lines")
    for d, counts in enumerate(P.line_counts):
        worst = max(counts)
        if worst >= 3 and 2 * worst <= p + 5:
            return d
    return None


# -- line covers ---------------------------------------------------------------


def canonical_two_line_pair(P: PointSet) -> Optional[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Canonical pair of (direction, coset-id) lines covering P, with
    both lines meeting P; parallel covers are preferred, then lexicographic
    order.  Returns None if no two lines cover P."""
    if P.size == 0:
        return None
    p = P.p
    T = tables(p)
    x0 = (P.mask & -P.mask).bit_length() - 1
    pairs = set()
    for d1, (masks, ids) in enumerate(zip(T.coset_masks, T.coset_id)):
        j1 = ids[x0]
        rest = P.mask & ~masks[j1]
        if rest == 0:
            continue
        if rest.bit_count() == 1:
            y = (rest & -rest).bit_length() - 1
            for d2, ids2 in enumerate(T.coset_id):
                j2 = ids2[y]
                if (d1, j1) != (d2, j2):
                    pairs.add(tuple(sorted(((d1, j1), (d2, j2)))))
        else:
            y1 = (rest & -rest).bit_length() - 1
            rest2 = rest & ~(1 << y1)
            y2 = (rest2 & -rest2).bit_length() - 1
            d2 = _direction_of_indices(p, y1, y2)
            j2 = T.coset_id[d2][y1]
            if not (rest & ~T.coset_masks[d2][j2]):
                pairs.add(tuple(sorted(((d1, j1), (d2, j2)))))
    if not pairs:
        return None
    parallel = [q for q in pairs if q[0][0] == q[1][0]]
    return min(parallel) if parallel else min(pairs)


def line_intersection(p: int, side: str, l1: Tuple[int, int], l2: Tuple[int, int]) -> Point:
    """The unique common point of two nonparallel (direction, coset-id) lines."""
    (d1, j1), (d2, j2) = l1, l2
    if d1 == p:
        x = j1
        y = (j2 + d2 * x) % p
    elif d2 == p:
        x = j2
        y = (j1 + d1 * x) % p
    else:
        x = ((j2 - j1) * pow(d1 - d2, p - 2, p)) % p
        y = (j1 + d1 * x) % p
    return Point(p, x, y, side)


NODE_BUDGET = 1_000_000
"""Nodes the exact minimum line cover search may visit before it gives up
with SearchBudgetExceeded."""


class SearchBudgetExceeded(Exception):
    """The minimum line cover search used up NODE_BUDGET nodes."""


class _Nodes:
    """The node count of one minimum line cover search, up to NODE_BUDGET."""

    __slots__ = ("left", "what")

    def __init__(self, what: str):
        self.left = NODE_BUDGET
        self.what = what

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise SearchBudgetExceeded(f"{self.what} gave up after {NODE_BUDGET} nodes")


def _cover_search(p: int, mask: int, budget: int, T: _Tables,
                  nodes: Optional[_Nodes] = None) -> bool:
    if nodes is not None:
        nodes.spend()
    if mask == 0:
        return True
    if budget <= 0:
        return False
    size = mask.bit_count()
    if size > budget * p:
        return False
    # Two distinct lines share at most one point, so `budget` lines other
    # than L cover at most `budget` points of L.  A line holding more than
    # `budget` points of the set is therefore in every cover by `budget`
    # lines: take it without branching.  Once no line holds that many,
    # `budget` lines cover at most budget^2 points of the set.
    for line in T.line_masks:
        if (line & mask).bit_count() > budget:
            return _cover_search(p, mask & ~line, budget - 1, T, nodes)
    if size > budget * budget:
        return False
    idx = (mask & -mask).bit_length() - 1
    # the p + 1 lines through idx, richest first, ties by direction
    options = sorted([masks[ids[idx]] for masks, ids in zip(T.coset_masks, T.coset_id)],
                     key=lambda line: -(line & mask).bit_count())
    for line in options:
        if _cover_search(p, mask & ~line, budget - 1, T, nodes):
            return True
    return False


def covered_by_lines(P: PointSet, count: int) -> bool:
    """True iff some `count` lines (any directions) cover P."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _cover_search(P.p, P.mask, count, tables(P.p))


def min_line_cover(P: PointSet) -> int:
    """Exact minimum number of lines covering P; the p parallel lines of
    one direction cover any set, so the search stops by m = p.  Raises
    SearchBudgetExceeded once the searches for m = 0, 1, ... have visited
    NODE_BUDGET nodes together."""
    T = tables(P.p)
    nodes = _Nodes(f"minimum line cover search at p = {P.p} ({P.size} points)")
    return next(m for m in range(P.p + 1) if _cover_search(P.p, P.mask, m, T, nodes))
