"""The line census `PointSet.line_counts` and its summary
`PointSet.line_profile` against mask scans.

Every structural predicate in `bounds` and every geometry query in
`plane` reads the census of a point set.  The reference_* functions
below are the mask-scanning routes those predicates replaced: each
rescans the p(p+1) line masks of `plane.tables`.  The hypothesis tests
compare both routes at p = 2, 3, 5, 7 on random masks and on the sets
that line predicates turn on, which random masks almost never hit.
"""

import inspect
from fractions import Fraction
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeplane import bounds
from primeplane.bounds import (
    SupportPair,
    _coset_pair_exception,
    _full_line_split,
    _line_direction_containing,
    _orthogonal_coset_pair,
    _periodic_directions,
)
from primeplane.plane import (
    DUAL,
    PRIMAL,
    LineSubgroup,
    Point,
    PointSet,
    bounded_line_direction,
    covered_by_lines,
    directions_determined,
    orthogonal_direction,
    pencil_stability,
    tables,
)
from reference import line_id, point_at

PRIMES = (2, 3, 5, 7)


# -- the mask-scanning routes --------------------------------------------------------


def reference_line_counts(P: PointSet) -> Tuple[Tuple[int, ...], ...]:
    """The census as one comprehension over the line masks."""
    return tuple(tuple((m & P.mask).bit_count() for m in masks)
                 for masks in tables(P.p).coset_masks)


def reference_line_profile(P: PointSet) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(least, empty) recounted from the comprehension's census."""
    rows = reference_line_counts(P)
    return (tuple(min([c for c in row if c] or [0]) for row in rows),
            tuple(sum(1 for c in row if c == 0) for row in rows))


def reference_support_profile(S: PointSet, X: PointSet) -> List[Tuple[int, int, int, int]]:
    """(n_S, K_S, n_X, K_X) per primal direction."""
    p = S.p
    T = tables(p)
    out = []
    for d in range(p + 1):
        od = orthogonal_direction(p, d)
        s_counts = [(m & S.mask).bit_count() for m in T.coset_masks[d]]
        x_counts = [(m & X.mask).bit_count() for m in T.coset_masks[od]]
        out.append((min(c for c in s_counts if c), sum(1 for c in s_counts if c),
                    min(c for c in x_counts if c), sum(1 for c in x_counts if c)))
    return out


def reference_line_count(S: PointSet, g: Point, direction: int) -> int:
    T = tables(S.p)
    line = T.coset_masks[direction][T.coset_id[direction][g.index]]
    return (line & S.mask).bit_count()


def reference_isolated_count(X: PointSet, direction: int) -> int:
    od = orthogonal_direction(X.p, direction)
    return sum(1 for m in tables(X.p).coset_masks[od] if (m & X.mask).bit_count() == 1)


def reference_line_direction_containing(P: PointSet) -> Optional[int]:
    T = tables(P.p)
    for d in range(P.p + 1):
        for m in T.coset_masks[d]:
            if not (P.mask & ~m):
                return d
    return None


def reference_full_line_split(P: PointSet, direction: int) -> List[int]:
    T = tables(P.p)
    ids = []
    union = 0
    for j, m in enumerate(T.coset_masks[direction]):
        if m & P.mask:
            ids.append(j)
            union |= m
    if union != P.mask:
        raise RuntimeError("support is not a union of full lines as the lemma requires")
    return ids


def reference_periodic_directions(p: int, X: PointSet) -> List[int]:
    T = tables(p)
    out = []
    for d in range(p + 1):
        sub_mask = T.coset_masks[orthogonal_direction(p, d)][0]
        if not (X.mask & ~sub_mask):
            out.append(d)
    return out


def reference_orthogonal_coset_pair(p: int, S: PointSet, X: PointSet) -> Optional[Tuple[int, int]]:
    T = tables(p)
    for d in range(p + 1):
        if S.mask in T.coset_masks[d]:
            od = orthogonal_direction(p, d)
            if X.mask in T.coset_masks[od]:
                return d, od
    return None


def reference_near_coset_pair(p: int, small: PointSet, large: PointSet) -> Optional[dict]:
    if small.size < p - 1:
        return None
    T = tables(p)
    for d in range(p + 1):
        for line in T.coset_masks[d]:
            if small.mask & ~line:
                continue
            od = orthogonal_direction(p, d)
            ids = []
            union = 0
            for j, m in enumerate(T.coset_masks[od]):
                if large.mask & m:
                    ids.append(j)
                    union |= m
            if len(ids) <= 2 and union == large.mask:
                return {"small_direction": d, "large_direction": od, "large_cosets": ids}
    return None


def reference_coset_pair_exception(p: int, S: PointSet, X: PointSet) -> Optional[dict]:
    if S.size <= X.size:
        found = reference_near_coset_pair(p, S, X)
        if found is None and S.size == X.size:
            found = reference_near_coset_pair(p, X, S)
        return found
    return reference_near_coset_pair(p, X, S)


def reference_directions_determined(P: PointSet) -> frozenset:
    T = tables(P.p)
    return frozenset(d for d in range(P.p + 1)
                     if any((m & P.mask).bit_count() >= 2 for m in T.coset_masks[d]))


def reference_pencil_stability(P: PointSet) -> Tuple[int, int]:
    """(k, m): directions with an unblocked line, most unblocked lines in one."""
    k = m = 0
    for masks in tables(P.p).coset_masks:
        u = sum(1 for mask in masks if not (mask & P.mask))
        if u:
            k += 1
            m = max(m, u)
    return k, m


def reference_bounded_line_direction(P: PointSet) -> Optional[int]:
    slack = max(Fraction(1), Fraction(P.size, 2 * P.p))
    T = tables(P.p)
    for d in sorted(reference_directions_determined(P)):
        excess = max((mask & P.mask).bit_count() for mask in T.coset_masks[d]) - slack
        if excess < 0 or excess * excess < P.size:
            return d
    return None


def reference_is_blocking_set(P: PointSet) -> bool:
    return all(m & P.mask for m in tables(P.p).line_masks)


def reference_one_line_cover(P: PointSet) -> bool:
    """The line through the set's first two points must hold all of it."""
    if P.size <= 1:
        return True
    p = P.p
    i, j = P.indices()[:2]
    dx, dy = (j // p - i // p) % p, (j % p - i % p) % p
    d = p if dx == 0 else (dy * pow(dx, p - 2, p)) % p
    T = tables(p)
    return not (P.mask & ~T.coset_masks[d][T.coset_id[d][i]])


# -- strategies ------------------------------------------------------------------------


KINDS = ("point", "line", "line-minus-one", "two-parallel", "two-crossing", "random")


@st.composite
def point_sets(draw, p: int, side: str = PRIMAL, direction: Optional[int] = None) -> PointSet:
    """A random mask, or one of: a single point, a full line, a line minus
    one point, two parallel or two crossing lines; the structured sets
    sometimes gain a stray point.  Lines favour `direction` when given."""
    masks = tables(p).coset_masks
    kind = draw(st.sampled_from(KINDS))
    if kind == "random":
        return PointSet(p, side, draw(st.integers(1, (1 << (p * p)) - 1)))
    if direction is not None and draw(st.booleans()):
        d = direction
    else:
        d = draw(st.integers(0, p))
    j = draw(st.integers(0, p - 1))
    line = masks[d][j]
    if kind == "point":
        mask = 1 << draw(st.integers(0, p * p - 1))
    elif kind == "line":
        mask = line
    elif kind == "line-minus-one":
        members = [i for i in range(p * p) if line >> i & 1]
        mask = line & ~(1 << draw(st.sampled_from(members)))
    elif kind == "two-parallel":
        mask = line | masks[d][(j + draw(st.integers(1, p - 1))) % p]
    else:
        d2 = (d + draw(st.integers(1, p))) % (p + 1)
        mask = line | masks[d2][draw(st.integers(0, p - 1))]
    if draw(st.booleans()):
        mask |= 1 << draw(st.integers(0, p * p - 1))
    return PointSet(p, side, mask)


def split_or_raise(split, P: PointSet, d: int):
    try:
        return split(P, d)
    except RuntimeError:
        return "raises"


# -- census against the scans ----------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES + (11, 13))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_line_counts_match_the_comprehension(p, data):
    for P in (PointSet(p, PRIMAL, 0), PointSet(p, PRIMAL, (1 << p * p) - 1),
              data.draw(point_sets(p))):
        assert P.line_counts == reference_line_counts(P)
        assert P.size == P.mask.bit_count()


def sparse_set(data, p: int, side: str) -> PointSet:
    """At most p points, too few to block every line: some line is empty."""
    points = data.draw(st.lists(st.integers(0, p * p - 1), min_size=1, max_size=p))
    return PointSet(p, side, sum(1 << i for i in set(points)))


@pytest.mark.parametrize("p", PRIMES + (11, 13))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_line_profile_matches_a_recount(p, data):
    side = data.draw(st.sampled_from((PRIMAL, DUAL)))
    drawn = (data.draw(point_sets(p, side)), sparse_set(data, p, side),
             PointSet(p, side, data.draw(st.integers(0, (1 << (p * p)) - 1))))
    for P in drawn:
        assert P.line_profile == reference_line_profile(P)
    assert any(drawn[1].line_profile[1])


@pytest.mark.parametrize("p", PRIMES + (11, 13))
@pytest.mark.parametrize("side", (PRIMAL, DUAL))
def test_line_profile_of_fixed_sets(p, side):
    empty, full = PointSet(p, side, 0), PointSet(p, side, (1 << p * p) - 1)
    assert empty.line_profile == ((0,) * (p + 1), (p,) * (p + 1))
    assert full.line_profile == ((p,) * (p + 1), (0,) * (p + 1))
    for i in range(p * p):
        point = PointSet(p, side, 1 << i)
        assert point.line_profile == ((1,) * (p + 1), (p - 1,) * (p + 1))
    for d, masks in enumerate(tables(p).coset_masks):
        for line in masks:
            # p points on a line of direction d, one on every other line
            least, empty_lines = PointSet(p, side, line).line_profile
            assert least == tuple(p if e == d else 1 for e in range(p + 1))
            assert empty_lines == tuple(p - 1 if e == d else 0 for e in range(p + 1))


def test_support_pairs_share_their_point_sets():
    # the sets of a pair come from one bounded cache keyed by (p, side, mask)
    first = SupportPair.from_masks(5, 2, 7, 9, True)
    again = SupportPair.from_masks(5, 2, 7, 11, False)
    assert again.S is first.S
    assert SupportPair.from_masks(5, 2, 3, 9, True).X is first.X
    assert SupportPair.from_masks(5, 2, 9, 7, True).S is not first.X
    assert SupportPair.from_masks(7, 2, 7, 9, True).S is not first.S


def test_point_set_cache_is_a_module_constant():
    assert bounds._POINT_SETS == 16
    assert bounds._point_set.cache_info().maxsize == bounds._POINT_SETS
    assert list(inspect.signature(SupportPair.from_masks).parameters) == \
        ["p", "rank", "s_mask", "x_mask", "rational"]
    # a pair builds its sets only when a check reads them
    bounds._point_set.cache_clear()
    pairs = [SupportPair.from_masks(5, 2, mask, mask, True) for mask in range(1, 100)]
    assert bounds._point_set.cache_info().currsize == 0
    for pair in pairs:
        assert (pair.S.mask, pair.X.mask) == (pair.s_mask, pair.x_mask)
    assert bounds._point_set.cache_info().currsize == bounds._POINT_SETS


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_plane_queries_match_mask_scans(p, data):
    P = data.draw(point_sets(p))
    assert (not any(P.line_profile[1])) == reference_is_blocking_set(P)
    assert covered_by_lines(P, 1) == reference_one_line_cover(P)
    report = pencil_stability(P)
    assert (report.k, report.m) == reference_pencil_stability(P)
    if P.size >= 2:
        assert directions_determined(P) == reference_directions_determined(P)
    if 2 <= P.size <= 4 * p:
        assert bounded_line_direction(P) == reference_bounded_line_direction(P)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_single_set_predicates_match_mask_scans(p, data):
    P = data.draw(point_sets(p))
    assert _line_direction_containing(P) == reference_line_direction_containing(P)
    for d in range(p + 1):
        assert split_or_raise(_full_line_split, P, d) == \
            split_or_raise(reference_full_line_split, P, d)
    X = PointSet(p, DUAL, P.mask)
    assert _periodic_directions(p, X) == reference_periodic_directions(p, X)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_support_pair_predicates_match_mask_scans(p, data):
    d = data.draw(st.integers(0, p))
    S = data.draw(point_sets(p, PRIMAL, d))
    X = data.draw(point_sets(p, DUAL, orthogonal_direction(p, d)))
    pair = SupportPair.from_masks(p, 2, S.mask, X.mask, True)
    profile = reference_support_profile(S, X)
    (n_S, z_S), (n_X, z_X) = pair.S.line_profile, pair.X.line_profile
    for e in range(p + 1):
        o = orthogonal_direction(p, e)
        assert (n_S[e], p - z_S[e], n_X[o], p - z_X[o]) == profile[e]
        assert pair.X.line_counts[o].count(1) == reference_isolated_count(X, e)
    g = point_at(p, data.draw(st.integers(0, p * p - 1)))
    assert pair.S.line_counts[d][line_id(LineSubgroup(p, d), g)] == \
        reference_line_count(S, g, d)
    assert _orthogonal_coset_pair(p, S, X) == reference_orthogonal_coset_pair(p, S, X)
    assert _coset_pair_exception(p, S, X) == reference_coset_pair_exception(p, S, X)
