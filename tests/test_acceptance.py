"""Acceptance suite: one test per criterion, each printing a PASS line.

The bounds under test are universally quantified, so they are verified
at desk scale: exhaustive sweeps where the candidate space is small,
seeded randomized sweeps where it is not, and exact reproduction of
every stated extremal value.  All comparisons are exact.
"""

import itertools
import random
import zlib
from fractions import Fraction

from primeplane.bounds import (
    EQUALITY,
    HOLDS,
    VIOLATED,
    check,
    classify_exception,
)
from primeplane.cyclotomic import CycNum, root_of_unity
from primeplane.fourier import GFunc, fourier_transform, inverse_transform
from primeplane.plane import (
    DUAL,
    PRIMAL,
    Coset,
    LineSubgroup,
    Point,
    PointSet,
    bounded_line_direction,
    covered_by_lines,
    directions_determined,
    min_blocking_size,
    pencil_stability,
    rich_direction_search,
)
from primeplane.search import (
    diff_of_subgroups,
    frontier,
    make_space,
    pm_two_cosets,
    sweep,
    triple_subgroups,
)
from reference import (
    character_on_cosets,
    characters_on_one_coset,
    convolve,
    coset_indicator,
    coset_restriction_transform,
    contains,
    coset_sum_identity,
    detail,
    orthogonal,
    rational_support_closure,
    two_nonparallel_lines,
    two_parallel_lines,
)

_SWEEP_CACHE = {}


def exhaustive_p3_sweep():
    if "p3" not in _SWEEP_CACHE:
        space = make_space(3, alphabet=(-1, 0, 1))
        _SWEEP_CACHE["p3"] = (space, sweep(
            space,
            ["product", "meshulam", "rational", "kp1", "kp2", "product3"],
            collect_exceptions=True,
        ))
    return _SWEEP_CACHE["p3"]


def test_c01_exhaustive_p3_sweep_no_violations_and_all_exceptions_classified():
    space, result = exhaustive_p3_sweep()
    assert result.n_candidates == 3**9 == 19683
    assert result.n_nonzero == 19682
    assert result.violations == [], result.violations
    for name in ("product", "meshulam", "rational", "kp1", "kp2", "product3"):
        assert VIOLATED not in result.counts[name]
    exceptional = set()
    for ords in result.exception_ordinals.values():
        exceptional.update(ords)
    for ordinal in sorted(exceptional):
        f = space.gfunc_at(ordinal)
        desc = classify_exception(f)
        assert desc is not None, f.to_literal()
        assert desc.reconstruct() == f
    print(f"\nACCEPTANCE C1 PASS - 19683-function exhaustive sweep at p=3: "
          f"zero violations across 6 bounds; all {len(exceptional)} exceptional "
          f"functions classified and reconstructed exactly")


def test_c02_rank1_additive_bound_minimum_is_exact():
    for p in (2, 3, 5):
        space = make_space(p, alphabet=(0, 1, 2), rank=1)
        best = None
        for (s, x) in frontier(space).attained:
            total = s + x
            if best is None or total < best:
                best = total
        assert best == p + 1, (p, best)
    print("\nACCEPTANCE C2 PASS - rank-1 exhaustive alphabets {0,1,2} at "
          "p in {2,3,5}: min over nonzero f of |S|+|X| equals p+1 exactly")


def test_c03_construction_gallery_exact_sizes():
    for p in (3, 5, 7, 11, 13):
        for c in (diff_of_subgroups(p), pm_two_cosets(p), triple_subgroups(p)):
            fh = fourier_transform(c.func)
            got = (c.func.support_size, fh.support_size)
            assert got == c.expected, (p, c.name, got, c.expected)
    print("\nACCEPTANCE C3 PASS - gallery at p in {3,5,7,11,13}: "
          "diff-of-subgroups (2(p-1), 2(p-1)), pm-two-cosets (2p, p-1), "
          "triple-subgroups (3(p-1), 3(p-1)) all exact")


def test_c04_equality_harvesting_at_p3():
    space, result = exhaustive_p3_sweep()
    for name in ("rational", "kp1"):
        assert name in result.equality_witnesses, result.equality_witnesses
        ordinal, literal = result.equality_witnesses[name]
        rep = check(name, GFunc.from_literal(literal))
        assert rep.verdict == EQUALITY
    print("\nACCEPTANCE C4 PASS - p=3 sweep harvests holds-with-equality "
          "witnesses for both the rational and the k=p-1 bounds")


def test_c05_minimum_blocking_sets():
    size3, witness3 = min_blocking_size(3)
    assert size3 == 5 and witness3.size == 5
    size5, witness5 = min_blocking_size(5)
    assert size5 == 9 and witness5.size == 9
    # a set blocks iff no direction has a line that misses it
    assert not any(witness3.line_profile[1]) and not any(witness5.line_profile[1])
    # no 4 of the 9 points of AG(2, 3) block, so neither does any smaller set
    assert all(any(PointSet.from_pairs(3, [divmod(i, 3) for i in combo]).line_profile[1])
               for combo in itertools.combinations(range(9), 4))
    print("\nACCEPTANCE C5 PASS - exact minimum blocking sets: "
          "min(3) = 5 and min(5) = 9, matching 2p-1")


def test_c06_determined_directions_floor_p5():
    p = 5
    checked = 0
    for size in (3, 4, 5):
        for combo in itertools.combinations(range(p * p), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            P = PointSet(p, PRIMAL, mask)
            if covered_by_lines(P, 1):
                continue
            checked += 1
            d = len(directions_determined(P))
            assert 2 * d >= size + 3, (combo, d)
    assert checked > 60000
    print(f"\nACCEPTANCE C6 PASS - all {checked} non-collinear P in F_5^2 with "
          f"|P| <= 5 determine at least (|P|+3)/2 directions")


def test_c07_line_lemmas_exhaustive_p3_and_randomized_p5_p7():
    # exhaustive p = 3
    pencil_checked = 0
    for mask in range(1 << 9):
        assert pencil_stability(PointSet(3, PRIMAL, mask)).holds
        pencil_checked += 1
    bounded_checked = 0
    for mask in range(1, 1 << 9):
        P = PointSet(3, PRIMAL, mask)
        if not 2 <= P.size <= 12 or covered_by_lines(P, 1):
            continue
        assert bounded_line_direction(P) is not None
        bounded_checked += 1
    rich_checked = 0
    full = (1 << 9) - 1
    for mask in [full] + [full & ~(1 << i) for i in range(9)]:
        P = PointSet(3, PRIMAL, mask)
        assert rich_direction_search(P) is not None
        rich_checked += 1

    # seeded random sampling at p = 5, 7 (100k samples total)
    hits = {"pencil": 0, "bounded": 0, "rich": 0}
    for p in (5, 7):
        rng = random.Random(1000 + p)
        n = p * p
        for _ in range(50000):
            size = rng.randrange(2, min(4 * p, n) + 1)
            mask = 0
            for i in rng.sample(range(n), size):
                mask |= 1 << i
            P = PointSet(p, PRIMAL, mask)
            assert pencil_stability(P).holds
            hits["pencil"] += 1
            if 2 <= size <= 4 * p and not covered_by_lines(P, 1):
                assert bounded_line_direction(P) is not None
                hits["bounded"] += 1
            if 3 * p + 7 <= 2 * size and size <= 2 * p + 7 and not covered_by_lines(P, 2):
                assert rich_direction_search(P) is not None
                hits["rich"] += 1
    assert hits["pencil"] == 100000
    assert hits["bounded"] > 50000
    assert hits["rich"] > 1000
    print(f"\nACCEPTANCE C7 PASS - pencil/bounded-direction/rich-direction lemmas: "
          f"exhaustive at p=3 ({pencil_checked}/{bounded_checked}/{rich_checked} sets), "
          f"100000 random sets at p=5,7 "
          f"({hits['bounded']} bounded, {hits['rich']} rich applications), zero violations")


def _random_sparse(p, rng, cyclotomic):
    n = p * p
    size = rng.randrange(1, p + 3)
    vals = [CycNum.zero(p)] * n
    for idx in rng.sample(range(n), size):
        if cyclotomic:
            vals[idx] = CycNum.from_rational(p, rng.choice([-2, -1, 1, 2])) * \
                root_of_unity(p, rng.randrange(p))
        else:
            vals[idx] = CycNum.from_rational(p, rng.choice([-2, -1, 1, 2, Fraction(1, 2)]))
    return GFunc(p, 2, PRIMAL, vals)


def test_c08_identity_suite_1000_functions_per_prime():
    for p in (3, 5, 7):
        rng = random.Random(8000 + p)
        prev = _random_sparse(p, rng, False)
        prev_hat = fourier_transform(prev)
        rational_seen = 0
        for i in range(1000):
            f = _random_sparse(p, rng, i % 2 == 0)
            fh = fourier_transform(f)
            assert inverse_transform(fh) == f
            assert f.support_size * fh.support_size >= p * p
            assert fourier_transform(convolve(f, prev, True)) == fh * prev_hat
            assert fourier_transform(f * prev) == convolve(fh, prev_hat, False)
            g = Point.from_index(p, rng.randrange(p * p))
            H = LineSubgroup(p, rng.randrange(p + 1))
            chi = Point.from_index(p, rng.randrange(p * p), DUAL)
            direct = fourier_transform(f * coset_indicator(Coset.through(g, H)))
            assert coset_restriction_transform(f, g, H, fh) == direct
            assert coset_sum_identity(f, g, H, chi, fh)
            if f.is_rational_valued():
                assert rational_support_closure(f)
                rational_seen += 1
            prev, prev_hat = f, fh
        assert rational_seen >= 400
    print("\nACCEPTANCE C8 PASS - 1000 random functions at each p in {3,5,7}: "
          "inversion, both convolution identities, both coset-restriction "
          "identities and Galois closure hold exactly")


def _rand_distinct_cosets(p, direction, count, rng, side=PRIMAL):
    picks = []
    seen = set()
    while len(picks) < count:
        pt = (rng.randrange(p), rng.randrange(p))
        rep = Coset.through(Point(p, *pt, side=side),
                            LineSubgroup(p, direction, side)).rep
        if rep not in seen:
            seen.add(rep)
            picks.append(pt)
    return picks


def test_c09_classifier_round_trips_1000_per_form():
    primes = (3, 5, 7)
    nonparallel_kind = 0
    for form in ("coset-characters", "character-cosets", "two-parallel", "two-nonparallel"):
        # a stable seed: str hashes are salted per process
        rng = random.Random(zlib.crc32(form.encode()))
        for i in range(1000):
            p = primes[i % 3]
            d = rng.randrange(p + 1)
            if form == "coset-characters":
                k = rng.choice([1, 2]) if p == 3 else rng.choice([1, 2, 3])
                perp_dir = orthogonal(LineSubgroup(p, d)).direction
                chis = _rand_distinct_cosets(p, perp_dir, k, rng, side=DUAL)
                coeffs = [rng.choice([1, 2, -1, -2]) for _ in range(k)]
                f = characters_on_one_coset(p, d, (rng.randrange(p), rng.randrange(p)),
                                            chis, coeffs)
                desc = classify_exception(f)
                if k == 1 and contains(orthogonal(LineSubgroup(p, d)),
                        Point(p, *chis[0], side=DUAL)):
                    expected = "H-periodic"
                else:
                    expected = {1: "single-coset-character",
                                2: "two-characters-one-coset"}.get(
                        k, "characters-on-one-coset")
                assert desc is not None and desc.kind == expected
                assert desc.direction == d
            elif form == "character-cosets":
                k = 2 if p == 3 else rng.choice([2, 3])
                offsets = _rand_distinct_cosets(p, d, k, rng)
                chi = (rng.randrange(p), rng.randrange(p))
                coeffs = [rng.choice([1, 2, -1, -2]) for _ in range(k)]
                f = character_on_cosets(p, d, offsets, chi, coeffs)
                desc = classify_exception(f)
                assert desc is not None
                in_perp = contains(orthogonal(LineSubgroup(p, d)),
                    Point(p, *chi, side=DUAL))
                if in_perp:
                    assert desc.kind == "H-periodic"
                else:
                    assert desc.kind == ("one-character-two-cosets" if k == 2
                                         else "character-on-cosets")
                assert desc.direction == d
            elif form == "two-parallel":
                perp_dir = orthogonal(LineSubgroup(p, d)).direction
                chis = _rand_distinct_cosets(p, perp_dir, 2, rng, side=DUAL)
                vals1 = [0] * p
                vals2 = [0] * p
                vals1[rng.randrange(p)] = rng.choice([1, 2])
                vals2[rng.randrange(p)] = rng.choice([1, -1])
                # the union support must span two cosets, so the function
                # overflows any single line and the parallel branch fires
                occupied = {j for j in range(p) if vals1[j] or vals2[j]}
                if len(occupied) < 2:
                    vals1[(next(iter(occupied)) + 1) % p] = 3
                f = two_parallel_lines(p, d, chis[0], chis[1], vals1, vals2)
                desc = classify_exception(f)
                assert desc is not None
                assert desc.kind == "two-parallel-lines"
                assert desc.direction == d
                n_union = detail(desc, "support_union")
                s = detail(desc, "support_size")
                assert n_union * (p - 1) <= s * p and s <= n_union
            else:
                d2 = rng.randrange(p + 1)
                while d2 == d:
                    d2 = rng.randrange(p + 1)
                chi = (rng.randrange(p), rng.randrange(p))
                vals1 = [0] * p
                vals2 = [0] * p
                for idx in rng.sample(range(p), 2):
                    vals1[idx] = rng.choice([1, 2, 3])
                vals2[rng.randrange(p)] = rng.choice([1, -1, 2])
                f = two_nonparallel_lines(p, d, d2, chi, vals1, vals2)
                desc = classify_exception(f)
                assert desc is not None
                if desc.kind == "two-nonparallel-lines":
                    nonparallel_kind += 1
                    if detail(desc, "component_supports"):
                        n1, n2 = detail(desc, "component_supports")
                        s = detail(desc, "support_size")
                        assert s <= p * n1 + p * n2
                        assert Fraction(p * n1 + p * n2) <= s + Fraction(2 * s * s, p * p)
            assert desc.reconstruct() == f
    assert nonparallel_kind >= 500
    print("\nACCEPTANCE C9 PASS - 1000 random descriptors per structural form "
          "reconstruct exactly; both support sandwiches verified "
          f"({nonparallel_kind} nonparallel-kind cases)")


def test_c10_asymptotic_statements_gallery_and_p3_sweep():
    # the gallery families show the constants 2 and 3 are not improvable
    for p in (5, 7, 11, 13):
        f2 = diff_of_subgroups(p).func
        min2 = min(f2.support_size, fourier_transform(f2).support_size)
        assert min2 == 2 * (p - 1) < 2 * p
        f3 = triple_subgroups(p).func
        min3 = min(f3.support_size, fourier_transform(f3).support_size)
        assert min3 == 3 * (p - 1) < 3 * p
        assert check("asym2", f2, Fraction(1, 2)).verdict in (HOLDS, EQUALITY)
        assert check("asym3", f3, Fraction(1, 2)).verdict in (HOLDS, EQUALITY)
    # exhaustive p=3 sweep of the three-line statement at two epsilons
    space = make_space(3, alphabet=(-1, 0, 1))
    for eps in (Fraction(1, 4), Fraction(1, 2)):
        result = sweep(space, ["asym3"], eps=eps)
        assert result.violations == []
        label = f"asym3[eps={eps}]"
        assert VIOLATED not in result.counts[label]
    print("\nACCEPTANCE C10 PASS - 2(p-1)/3(p-1) families confirm the "
          "unimprovable constants at p in {5,7,11,13}; exhaustive p=3 sweep of "
          "the two-branch eps-bound at eps in {1/4, 1/2} finds zero violations")
