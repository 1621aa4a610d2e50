"""The integer decisions against the Fraction evaluators they replaced.

Each check's decide makes its verdict from integer comparisons, and
`bounds.evaluate` builds its report around that verdict.  The
reference_* functions below are the earlier evaluators, which decided by
comparing Fraction values and built the report on the way; they are the
oracle for both.  The only change to them is the roots report, which
takes the squared comparison whenever t = (p+1)^2 - |S| - |X| >= 0.
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeplane import bounds, search
from primeplane.bounds import (
    CHECKS,
    EQUALITY,
    EXCEPTION,
    HOLDS,
    VIOLATED,
    BoundReport,
    SupportPair,
    _coset_pair_exception,
    _orthogonal_coset_pair,
    _periodic_directions,
    decide_coset_counts,
    evaluate,
)
from primeplane.cli import EXIT_OK, main
from primeplane.plane import (
    DUAL,
    PRIMAL,
    LineSubgroup,
    min_line_cover,
    orthogonal_directions,
    tables,
)
from primeplane.search import hunt, make_space, sweep
from reference import decide

# -- the reference evaluators ------------------------------------------------------


def reference_verdict(lhs, rhs) -> str:
    if lhs == rhs:
        return EQUALITY
    return HOLDS if lhs > rhs else VIOLATED


def reference_product(pair, param=None):
    lhs = Fraction(pair.s_size * pair.x_size)
    rhs = Fraction(pair.p**pair.rank)
    return BoundReport("product", reference_verdict(lhs, rhs), lhs, rhs)


def reference_birotao(pair, param=None):
    lhs = Fraction(pair.s_size + pair.x_size)
    rhs = Fraction(pair.p + 1)
    return BoundReport("birotao", reference_verdict(lhs, rhs), lhs, rhs)


def reference_meshulam(pair, param=None):
    lo, hi = min(pair.s_size, pair.x_size), max(pair.s_size, pair.x_size)
    lhs = lo + Fraction(hi, pair.p)
    rhs = Fraction(pair.p + 1)
    return BoundReport("meshulam", reference_verdict(lhs, rhs), lhs, rhs)


def reference_rational(pair, param=None):
    p, S, X = pair.p, pair.S, pair.X
    if not pair.rational:
        raise ValueError("the rational bound requires a rational-valued function")
    lo, hi = min(S.size, X.size), max(S.size, X.size)
    lhs = Fraction(lo, 2) + Fraction(hi, p - 1)
    rhs = Fraction(p + 1)
    periodic = _periodic_directions(p, X)
    if periodic:
        if X.mask == 1:
            matches = True
            note = "constant function; transform support is the principal character"
        elif X.mask & 1:
            matches = X.size == p
            note = "nonzero value sum; expected the full orthogonal subgroup"
        else:
            matches = X.size == p - 1
            note = "zero value sum; expected the punctured orthogonal subgroup"
        return BoundReport("rational", EXCEPTION, lhs, rhs, details={
            "periodic_directions": periodic,
            "stated_support_matches": matches,
            "note": note,
        })
    return BoundReport("rational", reference_verdict(lhs, rhs), lhs, rhs)


def reference_kp1(pair, param=None):
    p, S, X = pair.p, pair.S, pair.X
    lo, hi = min(S.size, X.size), max(S.size, X.size)
    lhs = Fraction(lo, p - 1) + Fraction(hi, 2)
    rhs = Fraction(p + 1)
    directions = _orthogonal_coset_pair(p, S, X)
    if directions is not None:
        return BoundReport("kp1", EXCEPTION, lhs, rhs,
                           details={"orthogonal_pair_directions": list(directions)})
    return BoundReport("kp1", reference_verdict(lhs, rhs), lhs, rhs)


def reference_kp2(pair, param=None):
    p, S, X = pair.p, pair.S, pair.X
    lo, hi = min(S.size, X.size), max(S.size, X.size)
    lhs = Fraction(lo, p - 2) + Fraction(hi, 3)
    rhs = Fraction(p + 1)
    alt_lhs = Fraction(lo)
    alt_rhs = Fraction(3 * (p - 1), 2)
    structure = _coset_pair_exception(p, S, X)
    if structure is not None:
        return BoundReport("kp2", EXCEPTION, lhs, rhs, details={"structure": structure})
    primary = reference_verdict(lhs, rhs)
    details = {"min_branch_lhs": alt_lhs, "min_branch_rhs": alt_rhs}
    if primary != VIOLATED:
        return BoundReport("kp2", primary, lhs, rhs, details=details)
    alt = reference_verdict(alt_lhs, alt_rhs)
    if alt != VIOLATED:
        return BoundReport("kp2", alt, alt_lhs, alt_rhs, details=details)
    return BoundReport("kp2", VIOLATED, lhs, rhs, details=details)


def reference_product3(pair, param=None):
    p, S, X = pair.p, pair.S, pair.X
    lhs = Fraction(S.size * X.size)
    rhs = Fraction(3 * p * (p - 2))
    details = {}
    if p == 3:
        details["advisory"] = "stated for p > 3; at p = 3 the bound equals p^2"
    if min(S.size, X.size) <= 2:
        details["reason"] = "min support size at most 2"
        return BoundReport("product3", EXCEPTION, lhs, rhs, details=details)
    structure = _coset_pair_exception(p, S, X)
    if structure is not None:
        details["structure"] = structure
        return BoundReport("product3", EXCEPTION, lhs, rhs, details=details)
    return BoundReport("product3", reference_verdict(lhs, rhs), lhs, rhs, details=details)


def reference_conjecture(pair, k):
    p = pair.p
    lo, hi = min(pair.s_size, pair.x_size), max(pair.s_size, pair.x_size)
    lhs = Fraction(lo, k) + Fraction(hi, p + 1 - k)
    rhs = Fraction(p + 1)
    threshold = min(k, p + 1 - k)
    clause = pair.covered(PRIMAL, threshold - 1) or pair.covered(DUAL, threshold - 1)
    details = {"k": k, "cover_threshold": threshold, "cover_clause_applies": clause}
    verdict = reference_verdict(lhs, rhs)
    if verdict == VIOLATED and clause:
        verdict = EXCEPTION
    return BoundReport("conjecture", verdict, lhs, rhs, details=details)


def reference_sqrt_sum_ge(a, b, c):
    """Exact (holds, equality) for sqrt(a) + sqrt(b) >= c, a, b, c >= 0."""
    t = c * c - a - b
    if t < 0:
        return True, False
    if t == 0:
        return True, a * b == 0
    lhs = 4 * a * b
    return lhs >= t * t, lhs == t * t


def reference_roots(pair, param=None):
    p, a, b = pair.p, pair.s_size, pair.x_size
    c = p + 1
    holds, equal = reference_sqrt_sum_ge(a, b, c)
    t = c * c - a - b
    if t >= 0:
        lhs, rhs = Fraction(4 * a * b), Fraction(t * t)
    else:
        lhs, rhs = Fraction(a + b), Fraction(c * c)
    limit = (p - 1) // 2
    clause = pair.covered(PRIMAL, limit) or pair.covered(DUAL, limit)
    details = {"S_size": a, "X_size": b, "cover_clause_applies": clause,
               "squared_compare": t >= 0}
    if equal:
        verdict = EQUALITY
    elif holds:
        verdict = HOLDS
    elif clause:
        verdict = EXCEPTION
    else:
        verdict = VIOLATED
    return BoundReport("roots", verdict, lhs, rhs, details=details)


def reference_asym(name, pair, eps, coefficient, power_num, power_den, scale, cover_lines,
                   advisory_below: Optional[int]):
    p = pair.p
    lo, hi = min(pair.s_size, pair.x_size), max(pair.s_size, pair.x_size)
    details = {"epsilon": eps}
    if advisory_below is not None and p < advisory_below:
        details["advisory"] = f"stated for p >= {advisory_below}"
    b1_lhs = Fraction(lo)
    b1_rhs = coefficient * (1 - eps) * p
    for side, size in ((PRIMAL, pair.s_size), (DUAL, pair.x_size)):
        if size == lo and pair.covered(side, cover_lines):
            details["reason"] = f"min-side support within {cover_lines} line(s)"
            return BoundReport(name, EXCEPTION, b1_lhs, b1_rhs, details=details)
    b2_lhs = Fraction(hi) ** power_den
    b2_rhs = (scale * eps) ** power_den * Fraction(p) ** power_num
    details["branch2_lhs"] = b2_lhs
    details["branch2_rhs"] = b2_rhs
    b1 = reference_verdict(b1_lhs, b1_rhs)
    b2 = reference_verdict(b2_lhs, b2_rhs)
    if b1 != VIOLATED:
        return BoundReport(name, b1, b1_lhs, b1_rhs, details=details)
    if b2 != VIOLATED:
        return BoundReport(name, b2, b2_lhs, b2_rhs, details=details)
    return BoundReport(name, VIOLATED, b1_lhs, b1_rhs, details=details)


def reference_asym2(pair, eps):
    return reference_asym("asym2", pair, eps, 2, 3, 2, Fraction(1), 1, 31)


def reference_asym3(pair, eps):
    return reference_asym("asym3", pair, eps, 3, 4, 3, Fraction(1, 6), 2, None)


def recount_stats(pair, d):
    """(n_S, K_S, n_X, K_X) in direction d, recounted from the line masks."""
    masks = tables(pair.p).coset_masks
    s_counts = [(m & pair.S.mask).bit_count() for m in masks[d]]
    x_counts = [(m & pair.X.mask).bit_count() for m in masks[orthogonal_directions(pair.p)[d]]]
    return (min(c for c in s_counts if c), sum(1 for c in s_counts if c),
            min(c for c in x_counts if c), sum(1 for c in x_counts if c))


def reference_coset_counts(pair, H=None):
    p, s_size, x_size = pair.p, pair.s_size, pair.x_size
    rows = []
    tightest = None
    for d in (range(p + 1) if H is None else [H.direction]):
        n_S, K_S, n_X, K_X = recount_stats(pair, d)
        for label, lhs, rhs in (("K_X", K_X, p + 1 - n_S), ("X", x_size, n_X * (p + 1 - n_S)),
                                ("K_S", K_S, p + 1 - n_X), ("S", s_size, n_S * (p + 1 - n_X))):
            slack = lhs - rhs
            if tightest is None or slack < tightest[0]:
                tightest = (slack, lhs, rhs)
            rows.append({"direction": d, "quantity": label, "lhs": lhs, "rhs": rhs,
                         "ok": slack >= 0})
    slack, lhs, rhs = tightest
    verdict = VIOLATED if slack < 0 else EQUALITY if slack == 0 else HOLDS
    return BoundReport("coset-counts", verdict, Fraction(lhs), Fraction(rhs),
                       details={"inequalities": rows})


REFERENCE = {
    "product": reference_product,
    "birotao": reference_birotao,
    "meshulam": reference_meshulam,
    "rational": reference_rational,
    "kp1": reference_kp1,
    "kp2": reference_kp2,
    "product3": reference_product3,
    "conjecture": reference_conjecture,
    "roots": reference_roots,
    "asym2": reference_asym2,
    "asym3": reference_asym3,
    "coset-counts": reference_coset_counts,
}


def test_every_check_has_a_reference():
    assert sorted(REFERENCE) == sorted(CHECKS)


# -- the oracle test -----------------------------------------------------------------

# the small primes, where equalities are frequent, are drawn more often
PRIMES = [2, 3, 3, 5, 5, 7, 11, 13]
EPSILONS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]


def params(name, p):
    """Every parameter value the oracle test decides the check with."""
    spec = CHECKS[name]
    if spec.param == "k":
        return list(range(1, p + 1))
    if spec.param == "eps":
        return EPSILONS
    if spec.param == "H":
        return [None] + [LineSubgroup(p, d, PRIMAL) for d in range(p + 1)]
    return [None]


def drop_points(draw, mask, most):
    """mask with up to `most` of its points removed, never all of them."""
    for _ in range(draw(st.integers(0, most))):
        bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
        if len(bits) > 1:
            mask &= ~(1 << draw(st.sampled_from(bits)))
    return mask


@st.composite
def point_masks(draw, p):
    """A nonzero mask of the plane: random, or built from lines."""
    n, lines = p * p, tables(p).line_masks

    def line(d=None):
        d = draw(st.integers(0, p)) if d is None else d
        return lines[d * p + draw(st.integers(0, p - 1))]

    kind = draw(st.sampled_from(["dense", "sized", "line", "two-lines", "origin",
                                 "subgroup"]))
    if kind == "dense":
        return draw(st.integers(1, (1 << n) - 1))
    if kind == "sized":
        # a uniform size, so that the sizes the bounds meet with equality recur
        points = draw(st.randoms(use_true_random=False)).sample(range(n), draw(st.integers(1, n)))
        return sum(1 << i for i in points)
    if kind == "line":
        # a line, or a line minus a point or two
        return drop_points(draw, line(), 2)
    if kind == "two-lines":
        # two parallel or two crossing lines, with a point or two dropped
        d1 = draw(st.integers(0, p))
        d2 = draw(st.sampled_from([d1, (d1 + 1) % (p + 1)]))
        return drop_points(draw, line(d1) | line(d2), 2)
    if kind == "origin":
        return 1
    # a subgroup (the orthogonal subgroup of some direction), full or punctured
    mask = lines[draw(st.integers(0, p)) * p]
    return mask & ~1 if draw(st.booleans()) else mask


@st.composite
def support_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    rational = draw(st.booleans())
    if draw(st.integers(0, 5)) == 0:
        # rank 1: only the sizes are read
        masks = [draw(st.integers(1, (1 << p) - 1)) for _ in range(2)]
        return SupportPair.from_masks(p, 1, *masks, rational)
    if draw(st.booleans()):
        s_mask, x_mask = draw(point_masks(p)), draw(point_masks(p))
    else:
        # near-coset and orthogonal coset pairs: a line (perhaps missing a
        # point) against one or two full lines of the orthogonal direction
        lines = tables(p).line_masks
        d = draw(st.integers(0, p))
        small = drop_points(draw, lines[d * p + draw(st.integers(0, p - 1))], 1)
        od = orthogonal_directions(p)[d]
        ids = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2, unique=True))
        large = sum(lines[od * p + j] for j in ids)
        s_mask, x_mask = (small, large) if draw(st.booleans()) else (large, small)
    return SupportPair.from_masks(p, 2, s_mask, x_mask, rational)


@settings(max_examples=500, deadline=None)
@given(support_pairs())
def test_decide_and_reports_match_the_fraction_evaluators(pair):
    check_against_reference(pair)


def check_against_reference(pair):
    for name, spec in CHECKS.items():
        if pair.rank not in spec.ranks or pair.p < spec.min_p:
            continue
        for param in params(name, pair.p):
            if spec.rational and not pair.rational:
                with pytest.raises(ValueError):
                    decide(name, pair, param)
                with pytest.raises(ValueError):
                    evaluate(name, pair, param)
                with pytest.raises(ValueError):
                    REFERENCE[name](pair, param)
                continue
            expected = REFERENCE[name](pair, param)
            assert decide(name, pair, param) == expected.verdict, (name, param)
            assert evaluate(name, pair, param).to_json() == expected.to_json(), (name, param)


@settings(max_examples=200, deadline=None)
@given(support_pairs().filter(lambda pair: pair.rank == 2 and pair.p <= 7))
def test_exact_covers_answer_as_the_bounded_search(pair):
    # verify hands the checks a pair that carries its exact covers
    exact = pair._replace(covers=(min_line_cover(pair.S), min_line_cover(pair.X)))
    for side in (PRIMAL, DUAL):
        assert [exact.covered(side, b) for b in range(pair.p + 1)] == \
            [pair.covered(side, b) for b in range(pair.p + 1)], side
    for name in ("conjecture", "roots", "asym2", "asym3"):
        for param in params(name, pair.p):
            assert evaluate(name, exact, param).to_json() == \
                evaluate(name, pair, param).to_json(), (name, param)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_decide_matches_the_fraction_evaluators_at_every_size_pair(p):
    # a bound met with equality needs exact sizes, which random sets rarely
    # have; here every (|S|, |X|) occurs, on prefixes of two fixed orders
    n = p * p
    rng = random.Random(p)
    s_order, x_order = rng.sample(range(n), n), rng.sample(range(n), n)
    for s in range(1, n + 1):
        for x in range(1, n + 1):
            s_mask = sum(1 << i for i in s_order[:s])
            x_mask = sum(1 << i for i in x_order[:x])
            check_against_reference(SupportPair.from_masks(p, 2, s_mask, x_mask, True))


# -- the sweep's row against the per-check oracle ---------------------------------------


def sized(draw, base, size, n):
    """A mask of min(size, n) points: some of base's, or all of them and others."""
    size = min(size, n)
    rng = draw(st.randoms(use_true_random=False))
    inside = [i for i in range(n) if base >> i & 1]
    outside = [i for i in range(n) if not base >> i & 1]
    points = rng.sample(inside, size) if size <= len(inside) else \
        inside + rng.sample(outside, size - len(inside))
    return sum(1 << i for i in points)


@st.composite
def gate_edges(draw):
    """(p, rank, s_mask, x_mask) at the edges of the checks' size gates:
    |X| in {p - 1, p, p + 1} on an orthogonal subgroup (rational's periodic
    X); |S| = |X| = p, on a line and its orthogonal lines or anywhere
    (kp1); the smaller side of size 2, 3, p - 2, p - 1, p or p + 1 on a
    line, against one or two orthogonal lines (the near cosets of kp2 and
    product3); and two small sides, where the cover-clause inequalities
    fail."""
    p = draw(st.sampled_from(PRIMES))
    n = p * p
    if draw(st.integers(0, 5)) == 0:
        return p, 1, draw(st.integers(1, (1 << p) - 1)), draw(st.integers(1, (1 << p) - 1))
    lines = tables(p).line_masks
    d = draw(st.integers(0, p))
    od = orthogonal_directions(p)[d]
    line = lines[d * p + draw(st.integers(0, p - 1))]
    ids = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2, unique=True))
    orth_lines = sum(lines[od * p + j] for j in ids)
    kind = draw(st.sampled_from(["periodic", "coset-pair", "near-coset", "clause"]))
    if kind == "periodic":
        s_mask = draw(point_masks(p))
        x_mask = sized(draw, lines[od * p], draw(st.sampled_from([p - 1, p, p + 1])), n)
    elif kind == "coset-pair":
        s_mask = line if draw(st.booleans()) else sized(draw, 0, p, n)
        x_mask = lines[od * p + ids[0]] if draw(st.booleans()) else sized(draw, 0, p, n)
    elif kind == "near-coset":
        m = draw(st.sampled_from([m for m in (2, 3, p - 2, p - 1, p, p + 1) if m >= 1]))
        s_mask = sized(draw, line, m, n)
        x_mask = sized(draw, orth_lines, orth_lines.bit_count() + draw(st.integers(-1, 1)), n)
    else:
        s_mask = sized(draw, line | orth_lines, draw(st.integers(1, 2 * p)), n)
        x_mask = sized(draw, lines[draw(st.integers(0, len(lines) - 1))],
                       draw(st.integers(1, 2 * p)), n)
    if draw(st.booleans()):
        s_mask, x_mask = x_mask, s_mask
    return p, 2, s_mask, x_mask


@settings(max_examples=300, deadline=None)
@given(gate_edges(), st.booleans())
def test_sweep_row_matches_the_per_check_oracle(case, rational_letters):
    # search._outcomes resolves each check's decide once per run; here it
    # decides one pair, fed in place of a space's candidates, with every
    # check and parameter, and each verdict must be the oracle's
    p, rank, s_mask, x_mask = case
    space = make_space(p, alphabet=(-1, 0, 1) if rational_letters else (0, 1, "z"),
                       rank=rank, mode="random", budget=2)
    rational = space.all_rational()
    items = [(name, name, param) for name, spec in CHECKS.items()
             if rank in spec.ranks and p >= spec.min_p and (rational or not spec.rational)
             for param in params(name, p)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_candidates",
                      lambda *_: iter([(0, s_mask, x_mask), (1, s_mask, x_mask)]))
        (_, row), (_, again) = search._outcomes(space, items, 0, 2)
    assert again is row
    pair = SupportPair.from_masks(p, rank, s_mask, x_mask, rational)
    for (name, _, param), verdict in zip(items, row):
        assert verdict == decide(name, pair, param), (name, param)


def test_every_structure_window_fires_on_the_binary_p3_space(capsys):
    # the exceptions of rational, kp1, kp2 and product3 all occur among the
    # 511 nonzero {0, 1} functions at p = 3; the digest is CI's
    assert main(["sweep", "--p", "3", "--mode", "exhaustive", "--alphabet=0,1",
                 "--theorem", "rational", "--theorem", "kp1", "--theorem", "kp2",
                 "--theorem", "product3", "--theorem", "coset-counts"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6493066a2b627a015759dc76b486a64eb0f695f873780821add9d1c29340b941"
    counts = json.loads(out)["sweep"]["counts"]
    assert {name: c.get(EXCEPTION, 0) for name, c in counts.items()} == \
        {"rational": 25, "kp1": 12, "kp2": 24, "product3": 70, "coset-counts": 0}


# -- coset counts on either branch of the line profile ---------------------------------


@st.composite
def dense_or_sparse_pairs(draw):
    """(sparse sides, pair): a dense side misses fewer than p points, so it
    meets every line; a sparse side has at most p points, too few to block
    every line, so some line of it is empty."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = p * p
    sparse = draw(st.sampled_from([(), ("S",), ("X",), ("S", "X")]))

    def side_mask(name):
        if name in sparse:
            return sum(1 << i for i in draw(st.lists(st.integers(0, n - 1), min_size=1,
                                                     max_size=p, unique=True)))
        missing = draw(st.lists(st.integers(0, n - 1), max_size=p - 1, unique=True))
        return (1 << n) - 1 - sum(1 << i for i in missing)

    s_mask, x_mask = side_mask("S"), side_mask("X")
    return sparse, SupportPair.from_masks(p, 2, s_mask, x_mask, draw(st.booleans()))


def check_coset_counts(pair):
    for d in range(pair.p + 1):
        assert pair.stats(d) == (d, *recount_stats(pair, d))
    for H in params("coset-counts", pair.p):
        expected = reference_coset_counts(pair, H)
        assert decide_coset_counts(pair, H) == expected.verdict, H
        assert evaluate("coset-counts", pair, H).to_json() == expected.to_json(), H


@settings(max_examples=300, deadline=None)
@given(dense_or_sparse_pairs())
def test_coset_counts_on_dense_and_sparse_pairs(case):
    sparse, pair = case
    assert any(pair.S.line_profile[1]) == ("S" in sparse)
    assert any(pair.X.line_profile[1]) == ("X" in sparse)
    check_coset_counts(pair)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_coset_counts_hold_with_equality_at_slack_zero(p):
    # a point or a line against the full plane: n_S - z_X - 1 = 0 in the
    # directions where the small side has one point per line, and
    # n_X - z_S - 1 = 0 in the line's own direction
    full = (1 << p * p) - 1
    small_sets = [1, 1 << p * p - 1] + [masks[p // 2] for masks in tables(p).coset_masks]
    for small in small_sets:
        for s_mask, x_mask in ((small, full), (full, small)):
            pair = SupportPair.from_masks(p, 2, s_mask, x_mask, True)
            for H in params("coset-counts", p):
                assert decide_coset_counts(pair, H) == EQUALITY, (small, H)
            check_coset_counts(pair)


# -- reports -------------------------------------------------------------------------


def test_roots_report_takes_the_squared_comparison_at_t_zero(capsys):
    # |S| = 7, |X| = 9: t = 16 - 7 - 9 = 0, so the report reads 4ab = 252 >= 0
    assert main(["verify", "--function", "3; 2; 0,0,-1,-1,-1,-1,-1,-1,-1",
                 "--theorem", "roots"]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"lhs": "252"' in out and '"rhs": "0"' in out and '"squared_compare": true' in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "19496fc4d0c107e789327f2e94ed2c5f5de9cf5db78d38154b6ea46536d6993e"


# -- the sweep route stays lean ------------------------------------------------------


ALL_CHECKS = ["product", "meshulam", "rational", "kp1", "kp2", "product3",
              "conjecture", "roots", "asym2", "asym3", "coset-counts"]


def test_sweep_and_hunt_build_no_reports(monkeypatch):
    made = Counter()

    class CountingReport(BoundReport):
        def __init__(self, *args, **kwargs):
            made["reports"] += 1
            super().__init__(*args, **kwargs)

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made["fractions"] += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(bounds, "BoundReport", CountingReport)
    monkeypatch.setattr(bounds, "Fraction", CountingFraction)
    space = make_space(5, mode="random", seed=1, budget=300)
    result = sweep(space, ALL_CHECKS, k=2, eps="1/2")
    assert result.n_nonzero > 0
    # the only Fractions are the epsilon admissions of asym2 and asym3
    assert made["fractions"] == 2
    assert not hunt("roots", make_space(3)).found
    assert made["reports"] == 0 and made["fractions"] == 2
    # the patched class is the one the report route builds
    assert isinstance(evaluate("product", SupportPair.from_masks(5, 2, 1, 2, True)),
                      CountingReport)


def test_cover_search_runs_only_where_the_inequality_fails(monkeypatch):
    calls = Counter()
    covered = bounds.covered_by_lines

    def counting(P, b):
        calls["covered_by_lines"] += 1
        return covered(P, b)

    monkeypatch.setattr(bounds, "covered_by_lines", counting)
    space = make_space(7, mode="random", seed=0, budget=400)
    result = sweep(space, ["conjecture", "roots"], k=2)
    # every candidate holds both inequalities here
    assert all(set(c) <= {HOLDS, EQUALITY} for c in result.counts.values())
    assert calls["covered_by_lines"] == 0
    # a failing inequality still runs the clause
    assert hunt("roots", make_space(3)).clause_count > 0
    assert calls["covered_by_lines"] > 0
