"""Plane geometry: directions, lines, blocking sets, covers."""

import itertools
import random

import pytest

from primeplane import plane
from primeplane.plane import (
    DUAL,
    PRIMAL,
    LineSubgroup,
    Point,
    PointSet,
    SearchBudgetExceeded,
    _direction_of_indices,
    bounded_line_direction,
    covered_by_lines,
    directions_determined,
    line_rep,
    min_blocking_size,
    min_line_cover,
    orthogonal_direction,
    orthogonal_directions,
    parse_pointset,
    pencil_stability,
    rich_direction_search,
    tables,
)
from primeplane.search import _candidates, make_space
from reference import line_points, orthogonal, point_at


def test_subgroup_count_and_partition():
    for p in (2, 3, 5, 7):
        subs = [LineSubgroup(p, d) for d in range(p + 1)]
        assert len(subs) == p + 1
        seen = {}
        for sub in subs:
            for pt in sub.members():
                if pt.is_origin():
                    continue
                assert pt not in seen, "nonzero point in two subgroups"
                seen[pt] = sub.direction
        assert len(seen) == (p + 1) * (p - 1)


def test_p5_generators_up_to_scaling():
    gens = [LineSubgroup(5, d).generator for d in range(6)]
    expected = [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (0, 1)]
    assert [(g.x, g.y) for g in gens] == expected


def test_orthogonal_involution_and_size():
    for p in (3, 5, 7):
        for sub in [LineSubgroup(p, d) for d in range(p + 1)]:
            perp = orthogonal(sub)
            assert perp.side == DUAL
            assert orthogonal(perp) == sub
            assert len(perp.members()) == p
            # every pairing between the subgroup and its orthogonal vanishes
            for h in sub.members():
                for chi in perp.members():
                    assert chi.pair(h) == 0


def test_orthogonal_of_horizontal_is_vertical():
    H = LineSubgroup(5, 0)
    assert orthogonal(H).generator == Point(5, 0, 1, DUAL)


def test_lines_partition_plane():
    for p in (3, 5):
        for sub in [LineSubgroup(p, d) for d in range(p + 1)]:
            lines = [line_rep(p, sub.direction, j) for j in range(p)]
            assert len(lines) == p
            seen = set()
            for rep in lines:
                members = line_points(sub, rep)
                assert len(members) == p
                seen.update(members)
            assert len(seen) == p * p


def plain_tables(p):
    """Reference route for tables(p): one pass over the points per
    direction, setting each point's bit in its line's mask."""
    coset_masks, coset_id = [], []
    for d in range(p + 1):
        masks = [0] * p
        ids = [0] * (p * p)
        for x in range(p):
            for y in range(p):
                idx = x * p + y
                c = x if d == p else (y - d * x) % p
                masks[c] |= 1 << idx
                ids[idx] = c
        coset_masks.append(tuple(masks))
        coset_id.append(tuple(ids))
    return tuple(coset_masks), tuple(coset_id)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_tables_match_plain_loop(p):
    T = tables(p)
    assert (T.coset_masks, T.coset_id) == plain_tables(p)
    assert T.line_masks == tuple(m for masks in T.coset_masks for m in masks)


def test_two_points_share_exactly_one_line():
    p = 3
    T = tables(p)
    pts = [point_at(p, i) for i in range(p * p)]
    for a, b in itertools.combinations(pts, 2):
        shared = [
            (d, j)
            for d, masks in enumerate(T.coset_masks)
            for j, m in enumerate(masks)
            if (m >> a.index & 1) and (m >> b.index & 1)
        ]
        assert len(shared) == 1
        assert shared[0][0] == _direction_of_indices(p, a.index, b.index)


def test_coset_of_example():
    got = line_points(LineSubgroup(3, 0), Point(3, 1, 2))
    assert set(got) == {Point(3, 0, 2), Point(3, 1, 2), Point(3, 2, 2)}
    assert got[0] == line_rep(3, 0, 2) == Point(3, 0, 2)
    assert line_rep(3, 3, 1, DUAL) == Point(3, 1, 0, DUAL)


def test_from_pairs_matches_the_or_loop():
    rng = random.Random(23)
    for p in (2, 3, 5, 11, 13):
        for size in (0, 1, 5, 3 * p * p):
            pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(size)]
            pairs += pairs[: size // 3]  # repeats
            mask = 0
            for x, y in pairs:
                mask |= 1 << (x * p + y)
            assert PointSet.from_pairs(p, pairs).mask == mask, (p, size)
    assert PointSet.from_pairs(5, []) == PointSet(5, PRIMAL, 0)
    for bad in [(5, 0), (0, -1)]:
        with pytest.raises(ValueError):
            PointSet.from_pairs(5, [(0, 0), bad])


def test_parse_pointset_reads_the_p3001_axes_witness():
    _, witness = min_blocking_size(3001)
    assert parse_pointset(witness.literal()) == witness


def test_point_count_per_line():
    # each point lies on exactly p+1 lines
    for p in (3, 5):
        T = tables(p)
        for idx in range(p * p):
            through = [masks[ids[idx]] for masks, ids in zip(T.coset_masks, T.coset_id)]
            assert len(through) == p + 1
            for mask in through:
                assert mask >> idx & 1


def test_directions_determined_examples():
    P = PointSet.from_pairs(3, [(0, 0), (1, 0)])
    assert directions_determined(P) == frozenset({0})
    with pytest.raises(ValueError):
        directions_determined(PointSet.from_pairs(3, [(0, 0)]))
    # any set with more than p points determines every direction
    big = PointSet.from_pairs(5, [(x, y) for x in range(3) for y in range(2)])
    assert directions_determined(big) == frozenset(range(6))


def blocks(P):
    """Whether P meets every line: no direction has a line that misses it."""
    return not any(P.line_profile[1])


def test_blocking_examples():
    for p in (2, 3, 5):
        two_lines = PointSet(p, PRIMAL,
                             tables(p).coset_masks[0][0] | tables(p).coset_masks[p][0])
        assert two_lines.size == 2 * p - 1
        assert blocks(two_lines)
        one_line = PointSet(p, PRIMAL, tables(p).coset_masks[0][0])
        assert not blocks(one_line)


def test_min_blocking_small():
    for p in (2, 3):
        size, witness = min_blocking_size(p)
        assert size == 2 * p - 1
        assert witness.size == size
        assert blocks(witness)


def lines_through(T, idx):
    """The line masks holding point idx, found by testing every mask's bit
    rather than through the coset ids the searches read."""
    return [m for m in T.line_masks if m >> idx & 1]


def plain_blocking_search(p, seed_mask):
    """The smallest blocking set below the blocking set seed_mask, or the
    seed, as (size, mask): branch over every point of the first unmet line
    at every depth, pruning only by ceil(unmet / (p + 1))."""
    T = tables(p)
    line_masks = T.line_masks
    best = [seed_mask.bit_count(), seed_mask]

    def dfs(chosen, count):
        unmet = [m for m in line_masks if not (m & chosen)]
        if not unmet:
            if count < best[0]:
                best[:] = [count, chosen]
            return
        if count + -(-len(unmet) // (p + 1)) >= best[0]:
            return

        def gain(i):
            return sum(1 for lm in lines_through(T, i) if not (lm & chosen))

        pts = [i for i in range(p * p) if unmet[0] >> i & 1]
        for i in sorted(pts, key=lambda i: (-gain(i), i)):
            dfs(chosen | (1 << i), count + 1)

    dfs(0, 0)
    return tuple(best)


def test_blocking_search_matches_plain_search():
    # seeded with the whole plane, so the search proves the theorem's 2p - 1
    # by computation rather than inheriting it from a two-line seed
    for p in (2, 3, 5):
        full = (1 << p * p) - 1
        size, mask = plain_blocking_search(p, full)
        assert size == 2 * p - 1 == mask.bit_count(), p
        assert blocks(PointSet(p, PRIMAL, mask)), p
        theorem, witness = min_blocking_size(p)
        assert theorem == size == witness.size, p
        assert blocks(witness), p


def test_min_line_cover_stops_at_the_node_budget(monkeypatch):
    monkeypatch.setattr(plane, "NODE_BUDGET", 10)
    with pytest.raises(SearchBudgetExceeded, match="line cover search at p = 7"):
        min_line_cover(PointSet(7, PRIMAL, (1 << 7 * 7) - 1))
    full = PointSet(7, PRIMAL, (1 << 49) - 1)
    assert covered_by_lines(full, 7)  # the bounded test has no budget
    assert not issubclass(SearchBudgetExceeded, RuntimeError)


def test_pencil_stability_full_line():
    p = 3
    P = PointSet(p, PRIMAL, tables(p).coset_masks[0][0])
    rep = pencil_stability(P)
    assert (rep.k, rep.m) == (1, 2)
    assert rep.bound == 2 * p - rep.k - rep.m == 3 == P.size
    assert rep.holds


def test_pencil_blocking_branch():
    p = 3
    blocking = PointSet(p, PRIMAL, tables(p).coset_masks[0][0] | tables(p).coset_masks[p][0])
    rep = pencil_stability(blocking)
    assert rep.is_blocking and (rep.k, rep.m) == (0, 0)
    assert rep.bound == 2 * p - 1
    assert rep.holds


def test_pencil_exhaustive_p3():
    p = 3
    for mask in range(1 << 9):
        assert pencil_stability(PointSet(p, PRIMAL, mask)).holds


def test_bounded_line_direction_examples():
    p = 5
    two = PointSet(p, PRIMAL, tables(p).coset_masks[0][0] | tables(p).coset_masks[p][0])
    assert two.size == 9
    d = bounded_line_direction(two)
    assert d is not None and d not in (0, p)
    counts = [
        (m & two.mask).bit_count() for m in tables(p).coset_masks[d]
    ]
    assert max(counts) < 4  # sqrt(9) + max(1, 9/10) = 4

    pair = PointSet.from_pairs(5, [(0, 0), (1, 1)])
    assert bounded_line_direction(pair) == 1

    with pytest.raises(ValueError):
        bounded_line_direction(PointSet.from_pairs(5, [(0, 0)]))


def test_bounded_line_direction_exhaustive_p3():
    # over all non-collinear P with 2 <= |P| <= 4p a witness direction exists
    p = 3
    for mask in range(1, 1 << 9):
        P = PointSet(p, PRIMAL, mask)
        if not 2 <= P.size <= 4 * p:
            continue
        if covered_by_lines(P, 1):
            continue
        assert bounded_line_direction(P) is not None


def test_rich_direction_exhaustive_p3():
    p = 3
    full = (1 << 9) - 1
    candidates = [full] + [full & ~(1 << i) for i in range(9)]
    for mask in candidates:
        P = PointSet(p, PRIMAL, mask)
        d = rich_direction_search(P)
        assert d is not None
        counts = [(m & P.mask).bit_count() for m in tables(p).coset_masks[d]]
        assert max(counts) >= 3 and 2 * max(counts) <= p + 5


def test_rich_direction_preconditions():
    p = 5
    small = PointSet.from_pairs(p, [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValueError):
        rich_direction_search(small)
    # (3p+7)/2 = 11 points inside two lines -> precondition error
    two_lines = tables(p).coset_masks[0][0] | tables(p).coset_masks[p][0]
    extra = PointSet.from_pairs(p, [(1, 1), (2, 2)])
    P = PointSet(p, PRIMAL, two_lines | extra.mask)
    assert P.size == 11
    if covered_by_lines(P, 2):
        with pytest.raises(ValueError):
            rich_direction_search(P)


def test_line_covers():
    p = 3
    assert covered_by_lines(PointSet.from_pairs(p, [(0, 0), (1, 1)]), 1)
    assert covered_by_lines(PointSet.from_pairs(p, [(0, 0), (1, 1)]), 2)
    assert not covered_by_lines(PointSet(p, PRIMAL, (1 << p * p) - 1), 2)
    parallel = PointSet(p, PRIMAL, tables(p).coset_masks[0][0] | tables(p).coset_masks[0][1])
    assert covered_by_lines(parallel, 2)
    assert min_line_cover(parallel) == 2
    assert min_line_cover(PointSet(p, PRIMAL, (1 << p * p) - 1)) == p
    assert min_line_cover(PointSet(p, PRIMAL, 0)) == 0
    assert covered_by_lines(PointSet(p, PRIMAL, (1 << p * p) - 1), p)
    assert not covered_by_lines(PointSet(p, PRIMAL, (1 << p * p) - 1), p - 1)


def test_min_line_cover_three_subgroups():
    p = 5
    mask = 0
    for d in (0, 1, 2):
        mask |= tables(p).coset_masks[d][0]
    P = PointSet(p, PRIMAL, mask)
    assert min_line_cover(P) == 3


def plain_cover_search(p, mask, budget, T):
    """Reference route for covered_by_lines: branch over the p + 1 lines
    through the lowest remaining point, pruning only by |P| > budget * p."""
    if mask == 0:
        return True
    if budget <= 0 or mask.bit_count() > budget * p:
        return False
    idx = (mask & -mask).bit_length() - 1
    return any(plain_cover_search(p, mask & ~line, budget - 1, T)
               for line in lines_through(T, idx))


def cover_inputs(p, rng):
    """Empty, single-point and full sets, random sets across densities, and
    unions of 1..p lines with up to three points toggled."""
    T = tables(p)
    n = p * p
    out = [0, 1, 1 << (n - 1), PointSet(p, PRIMAL, (1 << p * p) - 1).mask]
    for _ in range(12):
        density = rng.random()
        out.append(sum(1 << i for i in range(n) if rng.random() < density))
    for count in range(1, p + 1):
        for _ in range(3):
            mask = 0
            for line in rng.sample(T.line_masks, count):
                mask |= line
            for i in rng.sample(range(n), rng.randint(0, 3)):
                mask ^= 1 << i
            out.append(mask)
    return out


def test_cover_search_matches_plain_search():
    rng = random.Random(2024)
    for p in (2, 3, 5, 7):
        T = tables(p)
        masks = cover_inputs(p, rng)
        if p == 7:
            space = make_space(7, mode="random", seed=0, budget=20)
            for _, s_mask, x_mask in _candidates(space, 0, 20):
                masks += [s_mask, x_mask]
        for mask in masks:
            P = PointSet(p, PRIMAL, mask)
            plain = [plain_cover_search(p, mask, b, T) for b in range(p + 2)]
            assert [covered_by_lines(P, b) for b in range(p + 2)] == plain, (p, mask)
            assert min_line_cover(P) == plain.index(True), (p, mask)


def test_pointset_literal_round_trip():
    P = PointSet.from_pairs(5, [(0, 1), (3, 2), (4, 4)])
    assert parse_pointset(P.literal()) == P
    assert parse_pointset("3; (0,0),(2,1)").size == 2
    assert parse_pointset("3;").size == 0
    with pytest.raises(ValueError):
        parse_pointset("nonsense")
    with pytest.raises(ValueError):
        parse_pointset("3; (0,0),(5,1)")
    with pytest.raises(ValueError):
        parse_pointset("3; (0,0) junk")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31])
def test_indices_match_plain_loop(p):
    rng = random.Random(p)
    n = p * p
    masks = [0, (1 << n) - 1, 1, 1 << (n - 1)]
    masks += [rng.getrandbits(n) for _ in range(20)]
    masks += [sum(1 << i for i in rng.sample(range(n), rng.randint(1, p))) for _ in range(20)]
    for mask in masks:
        P = PointSet(p, DUAL, mask)
        plain = tuple(i for i in range(n) if mask >> i & 1)
        assert P.indices() == plain, (p, mask)
        assert P.pairs() == tuple((i // p, i % p) for i in plain)


def test_orthogonal_direction_involution():
    for p in (3, 5, 7, 11):
        for d in range(p + 1):
            assert orthogonal_direction(p, orthogonal_direction(p, d)) == d
        assert orthogonal_directions(p) == tuple(orthogonal_direction(p, d)
                                                 for d in range(p + 1))


def test_line_intersection_cardinalities():
    # p(p+1) lines; distinct lines meet in exactly one point iff nonparallel
    for p in (3, 5):
        T = tables(p)
        lines = [(d, m) for d, masks in enumerate(T.coset_masks) for m in masks]
        assert len(lines) == p * (p + 1)
        for i, (d1, m1) in enumerate(lines):
            for d2, m2 in lines[i + 1:]:
                common = (m1 & m2).bit_count()
                assert common == (0 if d1 == d2 else 1)
