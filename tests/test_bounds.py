"""Bound evaluators, support profiles and the exception classifier."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeplane.bounds import (
    EQUALITY,
    EXCEPTION,
    HOLDS,
    VIOLATED,
    SupportPair,
    check,
    classify_exception,
)
from primeplane.cyclotomic import CycNum, root_of_unity
from primeplane.fourier import GFunc, fourier_transform
from primeplane.plane import (
    DUAL,
    PRIMAL,
    Coset,
    LineSubgroup,
    Point,
    PointSet,
    covered_by_lines,
    orthogonal_direction,
)
from primeplane.search import character_coset, diff_of_subgroups, pm_two_cosets, triple_subgroups
from reference import (
    character_on_cosets,
    characters_on_one_coset,
    constant,
    contains,
    coset_indicator,
    delta,
    detail,
    orthogonal,
    quasicharacter,
    single_coset_character,
    two_nonparallel_lines,
    two_parallel_lines,
)


def subgroup_indicator(p, d=0):
    return coset_indicator(Coset.through(Point(p, 0, 0), LineSubgroup(p, d)))


def profile(f):
    """The support pair of a nonzero rank-2 primal function."""
    return SupportPair.from_masks(f.p, 2, f.support_mask, fourier_transform(f).support_mask,
                                  f.is_rational_valued())


def line_count(pair, g, direction):
    """Number of support points on the direction-d line through g, read
    from the census of S."""
    line = Coset.through(g, LineSubgroup(pair.p, direction, PRIMAL))
    return pair.S.line_counts[direction][line.coset_id]


def profile_at(pair, d):
    """(n_S, K_S, n_X, K_X) in primal direction d, read from the line
    profiles of S and of X in the orthogonal dual direction."""
    (n_S, z_S), (n_X, z_X) = pair.S.line_profile, pair.X.line_profile
    e = orthogonal_direction(pair.p, d)
    return n_S[d], pair.p - z_S[d], n_X[e], pair.p - z_X[e]


def isolated_count(pair, direction):
    """Number of dual lines orthogonal to the given primal direction that
    contain exactly one point of the transform support, read from the
    census of X."""
    return pair.X.line_counts[orthogonal_direction(pair.p, direction)].count(1)


# -- profile -------------------------------------------------------------------


def test_profile_of_subgroup_indicator():
    p = 5
    f = subgroup_indicator(p, 0)
    prof = profile(f)
    assert profile_at(prof, 0) == (p, 1, p, 1)


def test_profile_of_delta():
    p = 3
    prof = profile(delta(p, 2, 0))
    assert prof.X.size == p * p
    for d in range(p + 1):
        assert profile_at(prof, d) == (1, 1, p, p)


def test_profile_diff_sizes():
    for p in (3, 5):
        f = diff_of_subgroups(p).func
        prof = profile(f)
        assert prof.S.size == prof.X.size == 2 * (p - 1)


def test_profile_consistency_invariants():
    rng = random.Random(3)
    p = 5
    from primeplane.plane import tables

    for _ in range(10):
        vals = [rng.choice([-1, 0, 0, 1]) for _ in range(p * p)]
        if not any(vals):
            continue
        f = GFunc(p, 2, PRIMAL, vals)
        prof = profile(f)
        T = tables(p)
        for d in range(p + 1):
            n_S, K_S, _, K_X = profile_at(prof, d)
            counts = [(m & prof.S.mask).bit_count() for m in T.coset_masks[d]]
            assert sum(counts) == prof.S.size
            assert n_S >= 1
            assert K_S * p >= prof.S.size
            assert Fraction(n_S) <= Fraction(prof.S.size, K_S) <= prof.S.size
            assert isolated_count(prof, d) <= K_X


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2**25 - 1))
def test_profile_invariants_hypothesis_p5(s_mask):
    from primeplane.plane import tables

    p = 5
    S = PointSet(p, PRIMAL, s_mask)
    # any nonempty dual set works for the profile
    prof = SupportPair.from_masks(p, 2, s_mask, s_mask, True)
    T = tables(p)
    for d in range(p + 1):
        n_S, K_S, _, K_X = profile_at(prof, d)
        counts = [(m & S.mask).bit_count() for m in T.coset_masks[d]]
        assert sum(counts) == S.size
        assert 1 <= n_S <= min(c for c in counts if c)
        assert K_S * p >= S.size
        assert Fraction(n_S) <= Fraction(S.size, K_S)
        assert isolated_count(prof, d) <= K_X


def test_profile_line_count_and_isolated():
    p = 3
    f = subgroup_indicator(p, 0)
    prof = profile(f)
    assert line_count(prof, Point(p, 1, 0), 0) == p
    assert line_count(prof, Point(p, 0, 1), 0) == 0
    # X is one full orthogonal line: no isolated characters for d=0
    assert isolated_count(prof, 0) == 0


# -- elementary bounds -----------------------------------------------------------


def test_product_bound_rank1_example():
    p = 5
    f = GFunc(p, 1, PRIMAL, [1, 1, 0, 0, 0])
    fh = fourier_transform(f)
    assert fh.support_size == p  # (1 + zeta^-a)/5 never vanishes for odd p
    rep = check("birotao", f)
    assert rep.verdict == HOLDS and rep.lhs == 7 and rep.rhs == 6


def test_product_equality_for_character_coset():
    p = 5
    rep = check("product", single_coset_character(p, 1, (0, 0), (2, 3), 1))
    assert rep.verdict == EQUALITY
    assert rep.lhs == p * p


def test_meshulam_examples():
    p = 3
    rep = check("meshulam", subgroup_indicator(p))
    assert rep.verdict == EQUALITY  # 3 + 3/3 = 4
    rep2 = check("meshulam", delta(p, 2, 0))
    assert rep2.verdict == EQUALITY  # 1 + 9/3 = 4


def test_rational_equality_example():
    p = 3
    rep = check("rational", diff_of_subgroups(p).func)
    assert rep.verdict == EQUALITY
    assert rep.lhs == rep.rhs == p + 1


def test_rational_exception_branches():
    p = 5
    rep = check("rational", subgroup_indicator(p))
    assert rep.verdict == EXCEPTION
    assert rep.details["stated_support_matches"]
    assert "nonzero value sum" in rep.details["note"]

    # zero-sum periodic function: X is the punctured orthogonal subgroup
    sub = LineSubgroup(p, 0)
    f = coset_indicator(Coset.through(Point(p, 0, 0), sub)) - \
        coset_indicator(Coset.through(Point(p, 0, 1), sub))
    rep2 = check("rational", f)
    assert rep2.verdict == EXCEPTION
    assert rep2.details["stated_support_matches"]
    assert "zero value sum" in rep2.details["note"]

    rep3 = check("rational", constant(p, 2, 2, PRIMAL))
    assert rep3.verdict == EXCEPTION
    assert rep3.details["stated_support_matches"]
    assert "constant" in rep3.details["note"]


def test_rational_rejects_nonrational():
    p = 3
    vals = [CycNum.zero(p)] * 9
    vals[0] = root_of_unity(p, 1)
    with pytest.raises(ValueError):
        check("rational", GFunc(p, 2, PRIMAL, vals))


def test_kp1_equality_and_exception():
    p = 5
    rep = check("kp1", pm_two_cosets(p).func)
    assert rep.verdict == EQUALITY
    assert rep.lhs == rep.rhs == p + 1

    rep2 = check("kp1", single_coset_character(p, 0, (0, 0), (1, 2), 1))
    assert rep2.verdict == EXCEPTION
    assert rep2.exception is not None
    assert rep2.exception.kind == "single-coset-character"


def test_kp2_and_product3_exceptions():
    p = 5
    sub = LineSubgroup(p, 0)
    chi = Point(p, 1, 2, DUAL)
    # one character on two parallel cosets: near-coset structure
    f = character_on_cosets(p, 0, [(0, 0), (0, 1)], (1, 2), [1, 2])
    rep = check("kp2", f)
    assert rep.verdict == EXCEPTION
    assert rep.details["structure"]["large_cosets"]
    rep2 = check("product3", f)
    assert rep2.verdict == EXCEPTION

    rep3 = check("product3", delta(p, 2, 0))
    assert rep3.verdict == EXCEPTION
    assert rep3.details["reason"] == "min support size at most 2"


def test_kp2_min_branch():
    # a function with both supports large: min >= 3(p-1)/2 branch applies
    p = 3
    f = GFunc(p, 2, PRIMAL, [1, 1, 1, 1, -1, 0, 0, 1, -1])
    rep = check("kp2", f)
    assert rep.verdict in (HOLDS, EQUALITY)


def test_product3_bound_values():
    p = 5
    f = triple_subgroups(p).func
    rep = check("product3", f)
    assert rep.verdict in (HOLDS, EQUALITY)
    assert rep.lhs == (3 * (p - 1)) ** 2
    assert rep.rhs == 3 * p * (p - 2)


def test_conjecture_reduces_to_meshulam_at_k1():
    rng = random.Random(9)
    p = 3
    for _ in range(10):
        vals = [rng.choice([-1, 0, 1]) for _ in range(9)]
        if not any(vals):
            continue
        f = GFunc(p, 2, PRIMAL, vals)
        r1 = check("conjecture", f, 1)
        r2 = check("meshulam", f)
        assert r1.lhs == r2.lhs and r1.rhs == r2.rhs


def test_conjecture_implication_low_to_high_k():
    # holds at k < p/2 forces holds at p+1-k on the same function
    rng = random.Random(13)
    p = 5
    for _ in range(30):
        vals = [rng.choice([-1, 0, 0, 1]) for _ in range(25)]
        if not any(vals):
            continue
        f = GFunc(p, 2, PRIMAL, vals)
        for k in range(1, (p + 1) // 2):
            rk = check("conjecture", f, k)
            if rk.verdict in (HOLDS, EQUALITY):
                rmirror = check("conjecture", f, p + 1 - k)
                assert rmirror.verdict in (HOLDS, EQUALITY)


def test_conjecture_implication_upper_range():
    # for k > p/2, holding at k forces holding at k+1 on the same function
    rng = random.Random(15)
    p = 5
    for _ in range(30):
        vals = [rng.choice([-1, 0, 0, 1]) for _ in range(25)]
        if not any(vals):
            continue
        f = GFunc(p, 2, PRIMAL, vals)
        for k in range((p + 1) // 2 + 1, p):
            rk = check("conjecture", f, k)
            if rk.verdict in (HOLDS, EQUALITY):
                rnext = check("conjecture", f, k + 1)
                assert rnext.verdict in (HOLDS, EQUALITY)


def test_conjecture_cover_details_and_k_validation():
    p = 5
    f = character_coset(p).func
    rep = check("conjecture", f, 2)
    assert rep.details["cover_S"] == 1
    assert rep.details["cover_X"] == 1
    assert rep.details["cover_clause_applies"]
    assert rep.verdict in (EXCEPTION, HOLDS, EQUALITY)
    # a bool is an int in Python, but not a k
    for k in (0, p + 1, True):
        with pytest.raises(ValueError):
            check("conjecture", f, k)


def test_conjecture_lattice_witnesses():
    from primeplane.search import sharp_pair_2d

    p = 5
    for m, n in ((1, 1), (2, 3), (4, 2)):
        c = sharp_pair_2d(p, m, n)
        f = c.func
        fh = fourier_transform(f)
        assert (f.support_size, fh.support_size) == c.expected


def test_roots_verdicts():
    p = 3
    # delta attains equality: sqrt(1) + sqrt(9) = 4 = p+1
    rep = check("roots", delta(p, 2, 0))
    assert rep.verdict == EQUALITY
    # subgroup indicator fails the inequality but sits on one line
    rep2 = check("roots", subgroup_indicator(p))
    assert rep2.verdict == EXCEPTION
    assert rep2.details["cover_clause_applies"]
    # full plane holds comfortably
    rep3 = check("roots", constant(p, 1, 2, PRIMAL))
    assert rep3.verdict in (HOLDS, EQUALITY)


def test_asym2_remark_and_exception():
    p = 5
    f = diff_of_subgroups(p).func
    # 2(p-1) < 2p shows the constant 2 is unreachable
    assert min(f.support_size, fourier_transform(f).support_size) == 2 * (p - 1) < 2 * p
    rep = check("asym2", f, Fraction(1, 2))
    assert rep.verdict in (HOLDS, EQUALITY)
    assert "advisory" in rep.details  # p < 31

    rep2 = check("asym2", character_coset(p).func, Fraction(1, 2))
    assert rep2.verdict == EXCEPTION

    with pytest.raises(ValueError):
        check("asym2", f, Fraction(3, 2))
    with pytest.raises(ValueError):
        check("asym2", f, 0)


def test_asym2_tight_at_eps_one_over_p():
    # min = 2(p-1) = 2(1 - 1/p)p: the coefficient 2 cannot be improved
    for p in (5, 13, 31):
        f = diff_of_subgroups(p).func
        rep = check("asym2", f, Fraction(1, p))
        assert rep.verdict == EQUALITY
        assert rep.lhs == 2 * (p - 1)


def test_asym3_remark_and_exception():
    p = 5
    f = triple_subgroups(p).func
    fh = fourier_transform(f)
    assert f.support_size == fh.support_size == 3 * (p - 1) < 3 * p
    rep = check("asym3", f, Fraction(1, 2))
    assert rep.verdict in (HOLDS, EQUALITY)

    two_lines = character_on_cosets(p, 0, [(0, 0), (0, 1)], (0, 0), [1, 1])
    rep2 = check("asym3", two_lines, Fraction(1, 2))
    assert rep2.verdict == EXCEPTION


def test_coset_counts_exhaustive_p3():
    # the four counting inequalities hold for every {-1,0,1}-valued f
    from primeplane.search import make_space, sweep

    result = sweep(make_space(3, alphabet=(-1, 0, 1)), ["coset-counts"])
    assert result.violations == []
    assert VIOLATED not in result.counts["coset-counts"]
    assert sum(result.counts["coset-counts"].values()) == 19682


def test_coset_counts_lemma():
    p = 3
    rng = random.Random(17)
    for _ in range(40):
        vals = [rng.choice([-1, 0, 1]) for _ in range(9)]
        if not any(vals):
            continue
        rep = check("coset-counts", GFunc(p, 2, PRIMAL, vals))
        assert rep.verdict != VIOLATED
    # subgroup indicator at its own direction: K_X = 1 >= p+1-p
    f = subgroup_indicator(p, 0)
    rep = check("coset-counts", f, LineSubgroup(p, 0))
    assert rep.verdict != VIOLATED
    rows = rep.details["inequalities"]
    kx = [r for r in rows if r["quantity"] == "K_X"][0]
    assert kx["lhs"] == 1 and kx["rhs"] == 1


@pytest.mark.parametrize("H, admitted", [
    (None, True),
    (LineSubgroup(3, 1), True),
    (LineSubgroup(5, 4), False),
    (LineSubgroup(3, 1, DUAL), False),
    ("0", False),
])
def test_coset_counts_admits_only_a_primal_subgroup_of_the_plane(H, admitted):
    f = subgroup_indicator(3, 0)
    if admitted:
        assert check("coset-counts", f, H).verdict != VIOLATED
    else:
        with pytest.raises(ValueError, match="H must be None or a primal LineSubgroup"):
            check("coset-counts", f, H)


def test_coset_counts_on_gallery_families():
    for p in (5, 7):
        for func in (diff_of_subgroups(p).func, pm_two_cosets(p).func,
                     triple_subgroups(p).func):
            rep = check("coset-counts", func)
            assert rep.verdict != VIOLATED


def test_zero_function_rejected():
    with pytest.raises(ValueError):
        check("product", GFunc.zero(3, 2, PRIMAL))


def test_rank1_rejected_by_plane_checks():
    h = GFunc(5, 1, PRIMAL, [1, 0, 0, 0, 0])
    for name in ("meshulam", "rational", "kp1", "kp2", "product3", "roots", "coset-counts"):
        with pytest.raises(ValueError):
            check(name, h)
    with pytest.raises(ValueError):
        check("conjecture", h, 2)
    with pytest.raises(ValueError):
        check("asym2", h, Fraction(1, 2))
    # while the rank-agnostic product bound accepts rank 1
    assert check("product", h).verdict in (HOLDS, EQUALITY)


# -- classifier ------------------------------------------------------------------


def test_classify_coset_characters_round_trip():
    rng = random.Random(19)
    p = 5
    for k in (1, 2, 3):
        for _ in range(5):
            d = rng.randrange(p + 1)
            offset = (rng.randrange(p), rng.randrange(p))
            perp_dir = orthogonal(LineSubgroup(p, d)).direction
            # pick characters in distinct orthogonal cosets
            chis = []
            seen = set()
            while len(chis) < k:
                chi = (rng.randrange(p), rng.randrange(p))
                rep = Coset.through(Point(p, *chi, side=DUAL),
                                    LineSubgroup(p, perp_dir, DUAL)).rep
                if rep not in seen:
                    seen.add(rep)
                    chis.append(chi)
            coeffs = [rng.choice([1, 2, -1]) for _ in range(k)]
            f = characters_on_one_coset(p, d, offset, chis, coeffs)
            desc = classify_exception(f)
            assert desc is not None
            if k == 1 and contains(orthogonal(LineSubgroup(p, d)),
                    Point(p, *chis[0], side=DUAL)):
                # the transform line passes through the origin, so the
                # periodicity branch wins
                expected_kind = "H-periodic"
            else:
                expected_kind = {1: "single-coset-character",
                                 2: "two-characters-one-coset"}.get(
                    k, "characters-on-one-coset")
            assert desc.kind == expected_kind
            assert desc.direction == d
            assert desc.reconstruct() == f


def test_classify_character_cosets_round_trip():
    rng = random.Random(23)
    p = 5
    for k in (2, 3):
        for _ in range(5):
            d = rng.randrange(p + 1)
            offsets = []
            seen = set()
            while len(offsets) < k:
                g = (rng.randrange(p), rng.randrange(p))
                rep = Coset.through(Point(p, *g), LineSubgroup(p, d)).rep
                if rep not in seen:
                    seen.add(rep)
                    offsets.append(g)
            chi = (rng.randrange(p), rng.randrange(p))
            coeffs = [rng.choice([1, -2, 3]) for _ in range(k)]
            f = character_on_cosets(p, d, offsets, chi, coeffs)
            desc = classify_exception(f)
            assert desc is not None
            if chi == (0, 0):
                assert desc.kind == "H-periodic"
            else:
                assert desc.kind in ("H-periodic", "one-character-two-cosets",
                                     "character-on-cosets")
            assert desc.reconstruct() == f


def test_classify_h_periodic():
    p = 3
    sub = LineSubgroup(p, 1)
    f = coset_indicator(Coset.through(Point(p, 0, 0), sub)) * 2 - \
        coset_indicator(Coset.through(Point(p, 0, 1), sub))
    desc = classify_exception(f)
    assert desc.kind == "H-periodic"
    assert desc.direction == 1
    assert desc.reconstruct() == f


def test_classify_two_parallel_round_trip_and_sandwich():
    rng = random.Random(29)
    p = 5
    for _ in range(8):
        d = rng.randrange(p + 1)
        perp_dir = orthogonal(LineSubgroup(p, d)).direction
        while True:
            c1 = (rng.randrange(p), rng.randrange(p))
            c2 = (rng.randrange(p), rng.randrange(p))
            r1 = Coset.through(Point(p, *c1, side=DUAL), LineSubgroup(p, perp_dir, DUAL)).rep
            r2 = Coset.through(Point(p, *c2, side=DUAL), LineSubgroup(p, perp_dir, DUAL)).rep
            if r1 != r2:
                break
        vals1 = [rng.choice([0, 1, 2]) for _ in range(p)]
        vals2 = [rng.choice([0, 1, -1]) for _ in range(p)]
        if not any(vals1) or not any(vals2):
            continue
        f = two_parallel_lines(p, d, c1, c2, vals1, vals2)
        desc = classify_exception(f)
        assert desc is not None
        assert desc.kind in ("two-parallel-lines", "single-coset-character",
                             "two-characters-one-coset", "H-periodic",
                             "one-character-two-cosets", "character-on-cosets",
                             "characters-on-one-coset")
        assert desc.reconstruct() == f
        if desc.kind == "two-parallel-lines":
            n_union = detail(desc, "support_union")
            s = detail(desc, "support_size")
            assert n_union * (p - 1) <= s * p and s <= n_union


def test_classify_two_nonparallel_round_trip_and_sandwich():
    rng = random.Random(31)
    p = 5
    found_sandwich = False
    for _ in range(12):
        d1, d2 = rng.sample(range(p + 1), 2)
        chi = (rng.randrange(p), rng.randrange(p))
        vals1 = [0] * p
        vals2 = [0] * p
        for idx in rng.sample(range(p), 2):
            vals1[idx] = rng.choice([1, 2])
        vals2[rng.randrange(p)] = rng.choice([1, -1])
        f = two_nonparallel_lines(p, d1, d2, chi, vals1, vals2)
        if f.is_zero_function():
            continue
        desc = classify_exception(f)
        assert desc is not None
        assert desc.reconstruct() == f
        if desc.kind == "two-nonparallel-lines" and detail(desc, "component_supports"):
            n1, n2 = detail(desc, "component_supports")
            s = detail(desc, "support_size")
            assert s <= p * n1 + p * n2
            assert Fraction(p * n1 + p * n2) <= s + Fraction(2 * s * s, p * p)
            found_sandwich = True
    assert found_sandwich


def test_classify_primal_side_cover():
    # support on two nonparallel primal lines with generic values
    p = 5
    vals = [CycNum.zero(p)] * (p * p)
    coords = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1), (0, 2), (0, 3)]
    for i, (x, y) in enumerate(coords):
        vals[x * p + y] = CycNum.from_rational(p, i + 1)
    f = GFunc(p, 2, PRIMAL, vals)
    desc = classify_exception(f)
    assert desc is not None
    assert desc.cover_side == PRIMAL
    assert desc.reconstruct() == f


def test_classify_returns_none_for_spread_function():
    p = 3
    f = GFunc(p, 2, PRIMAL, [1, 1, 0, 1, -1, 1, 0, 1, 1])
    fh = fourier_transform(f)
    if not covered_by_lines(f.support(), 2) and not covered_by_lines(
            PointSet(p, DUAL, fh.support_mask), 2):
        assert classify_exception(f) is None


def test_classifier_total_on_p3_slice():
    # classification never errors and always reconstructs, across a
    # deterministic stride through the whole {-1,0,1} space at p=3
    from primeplane.search import make_space

    space = make_space(3, alphabet=(-1, 0, 1))
    structured = 0
    for ordinal in range(0, space.candidate_count, 7):
        f = space.gfunc_at(ordinal)
        if f.is_zero_function():
            continue
        desc = classify_exception(f)
        if desc is not None:
            structured += 1
            assert desc.reconstruct() == f
    assert structured > 1000


def test_classifier_rejects_zero_and_rank1():
    with pytest.raises(ValueError):
        classify_exception(GFunc.zero(3, 2, PRIMAL))
    with pytest.raises(ValueError):
        classify_exception(GFunc(3, 1, PRIMAL, [1, 0, 0]))


# -- rank-1 lemmas ------------------------------------------------------------------


def test_quasicharacter_scaled_character():
    p = 7
    chi_vals = [root_of_unity(p, (3 * x) % p) * 2 for x in range(p)]
    h = GFunc(p, 1, PRIMAL, chi_vals)
    A = range(5)  # |A| = 5 > 14/3
    assert quasicharacter(h, A) == (True, 1)


def test_quasicharacter_character_on_A_noise_off():
    p = 7
    vals = [root_of_unity(p, (2 * x) % p) for x in range(p)]
    vals[6] = CycNum.from_rational(p, 5)  # off A, arbitrary
    h = GFunc(p, 1, PRIMAL, vals)
    hypothesis, x = quasicharacter(h, range(6))
    assert hypothesis
    assert x == 1 or x >= 6


def test_quasicharacter_hypothesis_failure():
    p = 7
    h = GFunc(p, 1, PRIMAL, [1, 2, 4, 1, 1, 1, 1])
    hypothesis, _ = quasicharacter(h, range(5))
    assert not hypothesis


def test_exhaustive_quasicharacter_p5():
    # every {0,1,2}-valued h on F_5 with hypothesis holding obeys the bound
    p = 5
    A = range(4)  # |A| = 4 > 10/3
    for counter in range(1, 3**p):
        vals = [(counter // 3**i) % 3 for i in range(p)]
        if not any(vals):
            continue
        hypothesis, x = quasicharacter(GFunc(p, 1, PRIMAL, vals), A)
        assert not hypothesis or x == 1 or x >= len(A), vals
