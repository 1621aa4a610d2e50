"""Transforms, convolution, coset-restriction identities, Galois action."""

import copy
import gc
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeplane import fourier
from primeplane.cyclotomic import CycNum, format_value, root_of_unity
from primeplane.fourier import (
    GFunc,
    double_transform,
    exact_support_masks,
    fourier_transform,
    int_support_masks,
    inverse_transform,
    line_sums,
    pair_exponents,
    restrict_to_coset,
    twist,
)
from primeplane.plane import (
    DUAL,
    PRIMAL,
    Coset,
    LineSubgroup,
    Point,
    opposite_side,
    tables,
)
from primeplane.search import diff_of_subgroups, pm_two_cosets, triple_subgroups
from reference import (
    constant,
    contains,
    convolve,
    coset_indicator,
    coset_restriction_transform,
    coset_sum_identity,
    delta,
    galois,
    galois_twist,
    gfunc_from_json,
    gfunc_to_json,
    orthogonal,
    rational_support_closure,
)


def random_sparse(p, rank, rng, max_support=None, cyclotomic=False):
    n = p**rank
    size = rng.randrange(1, (max_support or n) + 1)
    vals = [CycNum.zero(p)] * n
    for idx in rng.sample(range(n), min(size, n)):
        if cyclotomic:
            vals[idx] = CycNum.from_rational(p, rng.choice([-2, -1, 1, 2])) * \
                root_of_unity(p, rng.randrange(p))
        else:
            vals[idx] = CycNum.from_rational(p, rng.choice([-2, -1, 1, 2, Fraction(1, 2)]))
    return GFunc(p, rank, PRIMAL, vals)


def test_delta_transforms_to_constant():
    for p in (3, 5):
        f = delta(p, 2, 0)
        fh = fourier_transform(f)
        assert all(v == Fraction(1, p * p) for v in fh.values)
        assert fh.support_size == p * p


def test_subgroup_indicator_closed_form():
    for p in (3, 5):
        for H in [LineSubgroup(p, d) for d in range(p + 1)]:
            f = coset_indicator(Coset.through(Point(p, 0, 0), H))
            fh = fourier_transform(f)
            perp = set(orthogonal(H).members())
            for w in range(p * p):
                chi = Point.from_index(p, w, DUAL)
                expected = Fraction(1, p) if chi in perp else 0
                assert fh.values[w] == CycNum.from_rational(p, expected)


def test_coset_indicator_closed_form():
    p = 5
    H = LineSubgroup(p, 2)
    g = Point(p, 1, 3)
    f = coset_indicator(Coset.through(g, H))
    fh = fourier_transform(f)
    for w in range(p * p):
        chi = Point.from_index(p, w, DUAL)
        if contains(orthogonal(H), chi):
            expected = root_of_unity(p, (p - chi.pair(g)) % p) * Fraction(1, p)
        else:
            expected = CycNum.zero(p)
        assert fh.values[w] == expected


def test_character_coset_transform_is_evaluation_on_dual_coset():
    # f = c * psi restricted to g+H  <=>  transform supported on psi*H^perp
    # with values (c/p) * conj(chi)(g) evaluated along the coset
    p = 5
    H = LineSubgroup(p, 2)
    g = Point(p, 1, 4)
    psi = Point(p, 2, 1, DUAL)
    c = CycNum.from_rational(p, 3)
    vals = [CycNum.zero(p)] * (p * p)
    for z in Coset.through(g, H).members():
        vals[z.index] = c * root_of_unity(p, psi.pair(z))
    f = GFunc(p, 2, PRIMAL, vals)
    fh = fourier_transform(f)
    perp = orthogonal(H)
    for w in range(p * p):
        chi = Point.from_index(p, w, DUAL)
        shifted = Point.of(p, chi.x - psi.x, chi.y - psi.y, DUAL)
        if contains(perp, shifted):
            # the transform evaluates the conjugate of chi*psi^-1 at g
            expected = c * root_of_unity(p, (p - shifted.pair(g)) % p) * Fraction(1, p)
            assert fh.values[w] == expected
        else:
            assert fh.values[w].is_zero()
    assert fh.support_size == p


def test_coset_restriction_of_constant_function():
    # restricting the all-ones function to g+H gives the closed-form
    # transform of the line indicator
    p = 5
    f = constant(p, 1, 2, PRIMAL)
    for d in (0, 2, p):
        H = LineSubgroup(p, d)
        g = Point(p, 2, 3)
        got = coset_restriction_transform(f, g, H)
        perp = orthogonal(H)
        for w in range(p * p):
            chi = Point.from_index(p, w, DUAL)
            if contains(perp, chi):
                assert got.values[w] == root_of_unity(p, (p - chi.pair(g)) % p) * \
                    Fraction(1, p)
            else:
                assert got.values[w].is_zero()


def test_inversion_round_trip():
    rng = random.Random(11)
    for p in (3, 5):
        for _ in range(10):
            f = random_sparse(p, 2, rng, cyclotomic=True)
            assert inverse_transform(fourier_transform(f)) == f
    # rank 1 round trip
    f1 = GFunc(3, 1, PRIMAL, [1, -1, 2])
    assert inverse_transform(fourier_transform(f1)) == f1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_double_transform_is_the_transform_taken_twice(p):
    rng = random.Random(2000 + p)
    for rank in (1, 2):
        for cyclotomic in (False, True):
            f = random_sparse(p, rank, rng, cyclotomic=cyclotomic)
            for g in (f, GFunc(p, rank, DUAL, f.values)):
                assert double_transform(g) == fourier_transform(fourier_transform(g)), \
                    g.to_literal()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_twist_is_the_pointwise_character_product(p):
    rng = random.Random(700 + p)
    for rank in (1, 2):
        exps = pair_exponents(p, rank)
        for cyclotomic in (False, True):
            f = random_sparse(p, rank, rng, cyclotomic=cyclotomic)
            for g in (f, GFunc(p, rank, DUAL, f.values)):
                for chi in range(p**rank):
                    want = [v * root_of_unity(p, exps[chi][u]) for u, v in enumerate(g.values)]
                    assert twist(g, chi) == GFunc(p, rank, g.side, want), (g.to_literal(), chi)
    with pytest.raises(ValueError):
        twist(GFunc.zero(p), p * p)


def _reference_sum(f, sign, scale):
    """One pass over the support per output: out[v] = (1/scale) *
    sum_u f(u) zeta^(sign * <v, u>), in Fraction arithmetic."""
    p, n = f.p, len(f.values)
    exps = pair_exponents(p, f.rank)
    support = [(u, v.coeffs) for u, v in enumerate(f.values) if not v.is_zero()]
    out = []
    for w in range(n):
        acc = [Fraction(0)] * p
        for u, coeffs in support:
            e = sign * exps[w][u] % p
            for t, c in enumerate(coeffs):
                acc[(t + e) % p] += c
        # reduced to the basis by 1 + zeta + ... + zeta^(p-1) = 0
        out.append(CycNum(p, [(c - acc[p - 1]) / scale for c in acc[:p - 1]]))
    return out


def reference_transform(f):
    """The double-loop transform the line-sum route replaced."""
    return GFunc(f.p, f.rank, opposite_side(f.side), _reference_sum(f, -1, len(f.values)))


def reference_inverse(u):
    """The double-loop inverse transform the line-sum route replaced."""
    assert u.side == DUAL
    return GFunc(u.p, u.rank, PRIMAL, _reference_sum(u, 1, 1))


def value_strategy(p, kind):
    if kind == "integer":
        return st.integers(-3, 3)
    if kind == "half":
        return st.integers(-3, 3).map(lambda k: Fraction(k, 2))
    coeff = st.integers(-2, 2) | st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])
    return st.lists(coeff, min_size=p - 1, max_size=p - 1).map(lambda cs: CycNum(p, cs))


@st.composite
def transform_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    rank = draw(st.sampled_from([1, 2]))
    side = draw(st.sampled_from([PRIMAL, DUAL]))
    kind = draw(st.sampled_from(["integer", "half", "cyclotomic"]))
    n = p**rank
    support = draw(st.dictionaries(st.integers(0, n - 1), value_strategy(p, kind),
                                   max_size=min(n, 40)))
    return GFunc(p, rank, side, [support.get(u, 0) for u in range(n)])


@settings(max_examples=150, deadline=None)
@given(transform_inputs())
def test_line_sum_transforms_match_the_double_loop(f):
    fh = fourier_transform(f)
    assert fh == reference_transform(f), f.to_literal()
    if f.side == DUAL:
        assert inverse_transform(f) == reference_inverse(f), f.to_literal()
        assert fourier_transform(inverse_transform(f)) == f
    else:
        assert inverse_transform(fh) == f


def packed_inputs(p, rank, rng, size, big=False):
    """A function on `size` random points with cyclotomic values over mixed
    denominators; with big, every value has a coefficient of at least 2^70,
    so the packed slots are wider than 64 bits."""
    n = p**rank
    values = [0] * n
    for u in rng.sample(range(n), min(size, n)):
        coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])) for _ in range(p - 1)]
        if big:
            coeffs[rng.randrange(p - 1)] = rng.choice([-1, 1]) * rng.randint(2**70, 2**90)
        values[u] = CycNum(p, coeffs)
    return values


def assert_packed_route_matches_the_double_loop(values, p, rank):
    for side in (PRIMAL, DUAL):
        f = GFunc(p, rank, side, values)
        assert fourier_transform(f) == reference_transform(f), f.to_literal()
        if side == DUAL:
            assert inverse_transform(f) == reference_inverse(f), f.to_literal()


@pytest.mark.parametrize("p", [3, 5, 7, 23])
@pytest.mark.parametrize("rank", [1, 2])
def test_packed_transform_matches_the_double_loop(p, rank):
    rng = random.Random(31 * p + rank)
    for size, big in [(1, False), (3, False), (9, False), (4, True), (7, True)]:
        assert_packed_route_matches_the_double_loop(packed_inputs(p, rank, rng, size, big),
                                                    p, rank)
    if rank == 2 and p < 23:
        # every single point, so each output sums one packed value
        for u in range(p * p):
            values = [0] * (p * p)
            values[u] = CycNum(p, [Fraction(-2, 3)] + [0] * (p - 3) + [5])
            assert_packed_route_matches_the_double_loop(values, p, rank)


@pytest.mark.parametrize("p", [3, 5, 7, 23])
def test_packed_transform_of_lines_that_sum_to_zero(p):
    # v and -v on two points of each line of direction d: every line sum of
    # d is zero, so the p - 1 outputs on d are 0, and only the bias is left
    rng = random.Random(90 + p)
    line_of = tables(p).coset_id
    for d in (1, p):
        values = [0] * (p * p)
        for k in range(p):
            u, w = rng.sample([g for g in range(p * p) if line_of[d][g] == k], 2)
            v = CycNum(p, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(p - 1)])
            values[u], values[w] = v + 2**70, -v - 2**70
        f = GFunc(p, 2, PRIMAL, values)
        fh = fourier_transform(f)
        assert fh == reference_transform(f)
        *_, points = fourier._line_table(p, 2)[d]
        assert all(fh.values[points[t]].is_zero() for t in range(p))


def decoded_mask(values):
    """The support mask read off decoded CycNums."""
    return sum(1 << w for w, v in enumerate(values) if not v.is_zero())


def zero_test_inputs(p, rank, rng):
    """Rational and cyclotomic value vectors for the packed zero test: sparse
    and dense, fractional, past 2^70, constant (every line sum is equal),
    constant on the lines of one direction (every other direction's line
    sums are then equal), and with every line of one direction summing to
    zero."""
    n = p**rank

    def rational(big=False):
        v = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
        return CycNum.from_rational(p, v + rng.choice([-1, 1]) * 2**75 if big else v)

    def cyclotomic(big=False):
        coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(p - 1)]
        coeffs[0] = rng.choice([-1, 1]) * (2**75 if big else rng.randint(1, 9))
        coeffs[-1] += 0 if p == 2 else rng.choice([-1, 1])
        return CycNum(p, coeffs)

    out = [[CycNum.zero(p)] * n]
    for size, big in [(1, False), (3, False), (n, False), (4, True), (n, True)]:
        out.append([v if isinstance(v, CycNum) else CycNum.from_rational(p, v)
                    for v in packed_inputs(p, rank, rng, size, big)])
        support = rng.sample(range(n), min(size, n))
        out.append([rational(big) if u in support else CycNum.zero(p) for u in range(n)])
    line_of = tables(p).coset_id if rank == 2 else [list(range(p))]
    for d in {0, len(line_of) - 1}:
        for make in (rational, cyclotomic):
            out.append([make(big=True)] * n)
            on_line = [make() for _ in range(p)]
            out.append([on_line[line_of[d][g]] for g in range(n)])
            values = [CycNum.zero(p)] * n
            for k in range(p):
                members = [g for g in range(n) if line_of[d][g] == k]
                if len(members) > 1:
                    u, w = rng.sample(members, 2)
                    v = make(big=True)
                    values[u], values[w] = v, -v
            out.append(values)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 23])
@pytest.mark.parametrize("rank", [1, 2])
def test_packed_zero_test_matches_the_decoded_outputs(p, rank):
    # the support mask comes from the packed outputs (all p slots equal, or
    # all p line sums equal); decoding every output must give the same mask
    rng = random.Random(400 + 10 * p + rank)
    branches = set()
    for values in zero_test_inputs(p, rank, rng):
        n = len(values)
        packed = fourier._transform(values, p, rank, n)
        branches.add(packed.width is None)
        decoded = packed.values()
        assert packed.mask == decoded_mask(decoded), [format_value(v) for v in values]
        if p <= 7:
            f = GFunc(p, rank, PRIMAL, values)
            assert decoded == list(reference_transform(f).values)
        assert exact_support_masks(p, rank, values) == \
            (decoded_mask(values), packed.mask if any(values) else 0)
    # both branches ran, except at p = 2, where every value is rational
    assert branches == ({True} if p == 2 else {True, False})


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lazy_transform_read_in_part_equals_the_eager_decode(p):
    rng = random.Random(500 + p)
    for rank in (1, 2):
        inputs = [packed_inputs(p, rank, rng, p + 1, big) for big in (False, True)] + \
            [[rng.choice([-1, 0, 1, Fraction(1, 2)]) for _ in range(p**rank)]]
        for values in inputs:
            f = GFunc(p, rank, PRIMAL, values)
            eager = reference_transform(f)
            fh = fourier_transform(f)
            assert fh.support_mask == eager.support_mask
            assert fh.is_zero_function() == eager.is_zero_function()
            if rank == 2:
                for g in rng.sample(range(p * p), 5):
                    point = Point.from_index(p, g, DUAL)
                    assert fh.value(point) == eager.value(point)
                chi = Point.from_index(p, rng.randrange(p * p), DUAL)
                d = rng.randrange(p + 1)
                H = LineSubgroup(p, d, DUAL)
                assert restrict_to_coset(fh, chi, H) == restrict_to_coset(eager, chi, H)
                assert line_sums(fh, chi, d) == line_sums(eager, chi, d)
            # nothing read so far decoded the whole transform
            assert fh._values is None
            assert fh == eager and hash(fh) == hash(eager)
            assert repr(fh) == repr(eager) and fh.to_literal() == eager.to_literal()
            assert fh._packed is None and fh.values == eager.values
            # an unread transform compares as its values, from either side
            assert eager == fourier_transform(f) and hash(fourier_transform(f)) == hash(eager)
            assert fourier_transform(f).to_literal() == eager.to_literal()


def test_gfunc_pickles_as_its_values():
    f = GFunc.from_literal("3; 2; 1,z,0,0,1,0,0,0,2")
    eager = reference_transform(f)
    partly = fourier_transform(f)
    assert partly.value(Point(3, 1, 2, DUAL)) == eager.value(Point(3, 1, 2, DUAL))
    assert partly.support_mask == eager.support_mask
    for func, want in [(f, f), (fourier_transform(f), eager), (partly, eager),
                       (twist(f, 4), twist(f, 4))]:
        again = pickle.loads(pickle.dumps(func))
        assert again == want and hash(again) == hash(want)
        assert (again.p, again.rank, again.side) == (want.p, want.rank, want.side)
        assert again.to_literal() == want.to_literal()
        assert copy.deepcopy(func) == want
    with pytest.raises(AttributeError):
        partly.values = ()


@pytest.mark.parametrize("p", [3, 5, 7, 23])
def test_line_sums_and_galois_twist_read_the_packed_sums(p):
    rng = random.Random(170 + p)
    for big in (False, True):
        values = packed_inputs(p, 2, rng, p + 1, big)
        for side in (PRIMAL, DUAL):
            hat = GFunc(p, 2, side, values)
            for d in (0, p - 1, p):
                chi = Point.from_index(p, rng.randrange(p * p), side)
                line = restrict_to_coset(hat, chi, LineSubgroup(p, d, side))
                assert line_sums(hat, chi, d) == \
                    list(reference_inverse(GFunc(p, 1, DUAL, line.values)).values)
        f = GFunc(p, 2, PRIMAL, values)
        fh = fourier_transform(f)
        for j in (2, p - 1):
            # sigma_j(fhat(w)) is the transform of sigma_j(f) at j*w
            conjugated = GFunc(p, 2, PRIMAL, [galois(v, j) for v in f.values])
            assert galois_twist(fh, j) == reference_transform(conjugated)


def test_cyclotomic_transform_keeps_no_gather_table():
    # the packed route caches O(p^2) shift amounts per slot width, where a
    # gather table of p*p*(p-1) indices, one per prime whatever the rank,
    # would stay behind at about 39 MB; a rank-1 transform reads the same
    # caches and runs in milliseconds under tracemalloc
    p = 101
    for cached in vars(fourier).values():
        if getattr(cached, "__module__", None) == fourier.__name__ and \
                hasattr(cached, "cache_clear"):
            cached.cache_clear()
    f = GFunc(p, 1, PRIMAL, [1, root_of_unity(p, 1)] + [0] * (p - 3) + [Fraction(1, 3)])
    fourier_transform(GFunc(p, 1, PRIMAL, [1] + [0] * (p - 1)))  # the rational picks
    gc.collect()
    tracemalloc.start()
    try:
        fh = fourier_transform(f)
        assert fh == reference_transform(f)
        del fh
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 5 * 2**20


def test_inverse_of_constant_dual():
    p = 3
    u = constant(p, Fraction(2, 3), 2, DUAL)
    f = inverse_transform(u)
    assert f.values[0] == Fraction(2, 3) * p * p
    assert all(v.is_zero() for v in f.values[1:])


def test_inverse_of_principal_indicator():
    p = 3
    u = delta(p, 2, 0, DUAL)
    f = inverse_transform(u)
    assert all(v == CycNum.one(p) for v in f.values)


def test_convolution_theorem_both_directions():
    rng = random.Random(5)
    p = 3
    for rank in (2, 1):
        for _ in range(8):
            f1 = random_sparse(p, rank, rng, cyclotomic=True)
            f2 = random_sparse(p, rank, rng)
            lhs = fourier_transform(convolve(f1, f2, True))
            rhs = fourier_transform(f1) * fourier_transform(f2)
            assert lhs == rhs
            lhs2 = fourier_transform(f1 * f2)
            rhs2 = convolve(fourier_transform(f1), fourier_transform(f2), False)
            assert lhs2 == rhs2


def test_convolution_identity_element():
    p = 3
    e = delta(p, 2, 0) * (p * p)
    rng = random.Random(1)
    f = random_sparse(p, 2, rng)
    assert convolve(e, f, True) == f


def test_subgroup_self_convolution():
    for p in (3, 5):
        H = LineSubgroup(p, 1)
        f = coset_indicator(Coset.through(Point(p, 0, 0), H))
        expected = f * Fraction(1, p)
        assert convolve(f, f, True) == expected


def test_coset_restriction_matches_direct_route():
    rng = random.Random(23)
    p = 3
    for _ in range(4):
        f = random_sparse(p, 2, rng, cyclotomic=True)
        fh = fourier_transform(f)
        for H in [LineSubgroup(p, d) for d in range(p + 1)]:
            for gi in range(p * p):
                g = Point.from_index(p, gi)
                via_sum = coset_restriction_transform(f, g, H, fh)
                direct = fourier_transform(f * coset_indicator(Coset.through(g, H)))
                assert via_sum == direct


def test_coset_restriction_of_supported_function_is_identity():
    p = 5
    H = LineSubgroup(p, 3)
    g = Point(p, 2, 1)
    vals = [CycNum.zero(p)] * (p * p)
    for z in Coset.through(g, H).members():
        vals[z.index] = root_of_unity(p, z.x)
    f = GFunc(p, 2, PRIMAL, vals)
    assert coset_restriction_transform(f, g, H) == fourier_transform(f)


def test_coset_sum_identity_exhaustive_p3():
    # every (g, H, chi) triple, for a handful of random functions
    rng = random.Random(29)
    p = 3
    for _ in range(3):
        f = random_sparse(p, 2, rng, cyclotomic=True)
        fh = fourier_transform(f)
        for H in [LineSubgroup(p, d) for d in range(p + 1)]:
            for gi in range(p * p):
                g = Point.from_index(p, gi)
                for wi in range(p * p):
                    chi = Point.from_index(p, wi, DUAL)
                    assert coset_sum_identity(f, g, H, chi, fh)


def test_coset_sum_identity_random_and_edge():
    rng = random.Random(37)
    for p in (3, 5):
        for _ in range(4):
            f = random_sparse(p, 2, rng, cyclotomic=True)
            fh = fourier_transform(f)
            H = LineSubgroup(p, rng.randrange(p + 1))
            g = Point.from_index(p, rng.randrange(p * p))
            chi = Point.from_index(p, rng.randrange(p * p), DUAL)
            assert coset_sum_identity(f, g, H, chi, fh)
    zero = GFunc.zero(3, 2, PRIMAL)
    assert coset_sum_identity(zero, Point(3, 1, 1), LineSubgroup(3, 0), Point(3, 0, 0, DUAL))


def test_restriction_slice():
    rng = random.Random(41)
    p = 5
    f = random_sparse(p, 2, rng)
    H = LineSubgroup(p, 2)
    g = Point(p, 1, 4)
    sliced = restrict_to_coset(f, g, H)
    assert sliced.rank == 1
    coset_pts = Coset.through(g, H).members()
    assert sliced.support_size == sum(1 for z in coset_pts if not f.value(z).is_zero())
    # zero away from the coset: slicing from a point off the support coset
    empty = restrict_to_coset(GFunc.zero(p, 2, PRIMAL), g, H)
    assert empty.is_zero_function()


def test_restrict_to_coset_walks_a_line_on_either_side():
    rng = random.Random(53)
    p = 5
    f = random_sparse(p, 2, rng, cyclotomic=True)
    for side in (PRIMAL, DUAL):
        h = GFunc(p, 2, side, f.values)
        for d in range(p + 1):
            H = LineSubgroup(p, d, side)
            for gi in range(p * p):
                g = Point.from_index(p, gi, side)
                want = [h.value(g + H.generator.scaled(t)) for t in range(p)]
                assert restrict_to_coset(h, g, H) == GFunc(p, 1, side, want)
    g, H = Point(p, 1, 2), LineSubgroup(p, 1)
    mismatched = [(GFunc(p, 2, DUAL, f.values), g, H), (f, Point(p, 1, 2, DUAL), H),
                  (f, g, LineSubgroup(p, 1, DUAL)), (f, Point(3, 1, 2), H),
                  (f, g, LineSubgroup(3, 1)), (GFunc.zero(p, 1), g, H)]
    for args in mismatched:
        with pytest.raises(ValueError):
            restrict_to_coset(*args)


def character_sum(hat, chi, psis, g):
    """sum_{psi in psis} hat(chi psi) psi(g), one term at a time: the
    per-term route that line_sums replaced."""
    total = CycNum.zero(hat.p)
    for psi in psis:
        val = hat.value(chi + psi)
        if not val.is_zero():
            total = total + val.times_root(psi.pair(g))
    return total


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_line_sums_match_the_per_term_character_sum(p):
    rng = random.Random(1500 + p)
    for cyclotomic in (False, True):
        # a sparse support, so that most terms of each sum are zero
        f = random_sparse(p, 2, rng, max_support=2 * p, cyclotomic=cyclotomic)
        for hat in (f, GFunc(p, 2, DUAL, f.values)):
            other = opposite_side(hat.side)
            for d in range(p + 1):
                H = LineSubgroup(p, d, hat.side)
                psis = H.members()
                # <gen, g_a> = a for the generator (1, d), or (0, 1) at d = p
                g_of = [Point(p, 0, a, other) if d == p else Point(p, a, 0, other)
                        for a in range(p)]
                for c in range(p * p):
                    chi = Point.from_index(p, c, hat.side)
                    sums = line_sums(hat, chi, d)
                    assert sums == [character_sum(hat, chi, psis, g) for g in g_of], \
                        (hat, chi, d)


def test_restriction_transform_relation():
    # conj(chi)(g) * hat(f_g)(chi|_H) equals the orthogonal-subgroup sum
    rng = random.Random(43)
    p = 5
    f = random_sparse(p, 2, rng, cyclotomic=True)
    fh = fourier_transform(f)
    H = LineSubgroup(p, 1)
    g = Point(p, 3, 2)
    sliced = restrict_to_coset(f, g, H)
    sliced_hat = fourier_transform(sliced)
    gen = H.generator
    for w in range(p * p):
        chi = Point.from_index(p, w, DUAL)
        restriction_label = chi.pair(gen)
        lhs = sliced_hat.values[restriction_label] * \
            root_of_unity(p, (p - chi.pair(g)) % p)
        total = CycNum.zero(p)
        for psi in orthogonal(H).members():
            val = fh.value(chi + psi)
            if not val.is_zero():
                total = total + val * root_of_unity(p, psi.pair(g))
        assert lhs == total * Fraction(1, p)


def test_galois_twist_fixes_rational_transforms():
    rng = random.Random(47)
    for p in (3, 5):
        for rank in (2, 1):
            f = random_sparse(p, rank, rng)
            fh = fourier_transform(f)
            for j in range(1, p):
                assert galois_twist(fh, j) == fh
            assert rational_support_closure(f)


def test_rational_closure_example_and_rejection():
    p = 5
    from primeplane.search import diff_of_subgroups

    f = diff_of_subgroups(p).func
    fh = fourier_transform(f)
    mask = fh.support_mask
    for w in range(p * p):
        if mask >> w & 1:
            a, b = divmod(w, p)
            for j in range(1, p):
                tw = ((j * a) % p) * p + (j * b) % p
                assert mask >> tw & 1
    assert rational_support_closure(f)

    # zeta at the origin transforms to zeta/p^2 everywhere, which no twist fixes
    vals = [CycNum.zero(p)] * (p * p)
    vals[0] = root_of_unity(p, 1)
    assert not rational_support_closure(GFunc(p, 2, PRIMAL, vals))


def line_diff_convolution(f, H, g, g0):
    """f convolved with f restricted to the difference of two parallel
    lines: f * (f . (1_{g+H} - 1_{g0+H}))."""
    ind = coset_indicator(Coset.through(g, H)) - coset_indicator(Coset.through(g0, H))
    return convolve(f, f * ind, True)


def shifted_line_diff(f, H, gamma, g):
    """f restricted to the difference of a line and its gamma-shift:
    f . (1_{g+gamma+H} - 1_{g+H}); gamma must lie outside H."""
    if contains(H, gamma):
        raise ValueError("gamma must lie outside the subgroup")
    ind = coset_indicator(Coset.through(g + gamma, H)) - coset_indicator(Coset.through(g, H))
    return f * ind


def quad_diff_convolution(f, H, gamma, g1, g2, g3, g4):
    """f * (F_{g1} * F_{g2} - F_{g3} * F_{g4}) for the shifted line
    differences F_g; requires g1 + g2 = g3 + g4."""
    if g1 + g2 != g3 + g4:
        raise ValueError("requires g1 + g2 = g3 + g4")
    F1, F2, F3, F4 = (shifted_line_diff(f, H, gamma, g) for g in (g1, g2, g3, g4))
    return convolve(f, convolve(F1, F2, True) - convolve(F3, F4, True), True)


def test_line_diff_probe():
    rng = random.Random(53)
    p = 3
    f = random_sparse(p, 2, rng)
    fh = fourier_transform(f)
    H = LineSubgroup(p, 1)
    g0 = Point(p, 0, 0)
    assert line_diff_convolution(f, H, g0, g0).is_zero_function()
    for gi in range(p * p):
        g = Point.from_index(p, gi)
        probe = line_diff_convolution(f, H, g, g0)
        probe_hat = fourier_transform(probe)
        assert probe_hat.support_mask & ~fh.support_mask == 0
        # transform factorization through the orthogonal-subgroup sum
        for w in range(p * p):
            chi = Point.from_index(p, w, DUAL)
            total = CycNum.zero(p)
            for psi in orthogonal(H).members():
                val = fh.value(chi + psi)
                if not val.is_zero():
                    diff = root_of_unity(p, psi.pair(g)) - root_of_unity(p, psi.pair(g0))
                    total = total + val * diff
            expected = fh.values[w] * total * Fraction(1, p)
            assert probe_hat.values[w] == expected


def test_shifted_line_diff_probe():
    rng = random.Random(59)
    p = 3
    f = random_sparse(p, 2, rng)
    fh = fourier_transform(f)
    H = LineSubgroup(p, 0)
    gamma = Point(p, 0, 1)
    with pytest.raises(ValueError):
        shifted_line_diff(f, H, Point(p, 1, 0), Point(p, 0, 0))
    g = Point(p, 2, 1)
    F = shifted_line_diff(f, H, gamma, g)
    F_hat = fourier_transform(F)
    for w in range(p * p):
        chi = Point.from_index(p, w, DUAL)
        total = CycNum.zero(p)
        for psi in orthogonal(H).members():
            val = fh.value(chi + psi)
            if not val.is_zero():
                factor = root_of_unity(p, psi.pair(gamma)) - CycNum.one(p)
                total = total + val * factor * root_of_unity(p, psi.pair(g))
        assert F_hat.values[w] == total * Fraction(1, p)


def test_quad_diff_probe():
    rng = random.Random(61)
    p = 3
    f = random_sparse(p, 2, rng)
    fh = fourier_transform(f)
    H = LineSubgroup(p, 0)
    gamma = Point(p, 0, 1)
    g1, g2 = Point(p, 1, 0), Point(p, 2, 2)
    g3, g4 = Point(p, 2, 0), Point(p, 1, 2)
    assert g1 + g2 == g3 + g4
    probe = quad_diff_convolution(f, H, gamma, g1, g2, g3, g4)
    probe_hat = fourier_transform(probe)
    hats = [fourier_transform(shifted_line_diff(f, H, gamma, g)) for g in (g1, g2, g3, g4)]
    for w in range(p * p):
        expected = fh.values[w] * (
            hats[0].values[w] * hats[1].values[w] - hats[2].values[w] * hats[3].values[w]
        )
        assert probe_hat.values[w] == expected
    assert probe_hat.support_mask & ~fh.support_mask == 0
    with pytest.raises(ValueError):
        quad_diff_convolution(f, H, gamma, g1, g2, g3, Point(p, 0, 0))


def test_uncertainty_floor_on_samples():
    rng = random.Random(67)
    for p in (3, 5):
        for _ in range(20):
            f = random_sparse(p, 2, rng, cyclotomic=True)
            fh = fourier_transform(f)
            assert f.support_size * fh.support_size >= p * p


def test_int_kernel_matches_exact_transform():
    rng = random.Random(71)
    for p, rank in ((3, 2), (5, 2), (5, 1), (7, 1)):
        n = p**rank
        for _ in range(15):
            vals = [rng.choice([-2, -1, 0, 0, 1, 2]) for _ in range(n)]
            s_mask, x_mask = int_support_masks(p, rank, vals)
            f = GFunc(p, rank, PRIMAL, vals)
            assert s_mask == f.support_mask
            assert x_mask == fourier_transform(f).support_mask


def per_character_support_masks(p, rank, values):
    """Reference route for int_support_masks: one pass over the support per
    character, collecting the values by the exponent -<w, g> mod p."""
    exps = pair_exponents(p, rank)
    support = [(g, v) for g, v in enumerate(values) if v]
    s_mask = sum(1 << g for g, _ in support)
    x_mask = 0
    for w in range(p**rank):
        counts = [0] * p
        for g, v in support:
            counts[(p - exps[w][g]) % p] += v
        if any(c != counts[0] for c in counts):
            x_mask |= 1 << w
    return s_mask, x_mask


def per_direction_support_masks(p, rank, values):
    """Reference route for int_support_masks: one pass over the support per
    direction, summing each value into its line, then comparing all p sums."""
    support = [(g, v) for g, v in enumerate(values) if v]
    s_mask = sum(1 << g for g, _ in support)
    x_mask = 1 if sum(values) else 0
    # the dual direction d = (a, b) at rank 2; at rank 1 the one direction 1
    directions = [(0, 1)] + [(1, m) for m in range(p)] if rank == 2 else [(0, 1)]
    for a, b in directions:
        sums = [0] * p
        for g, v in support:
            sums[(a * (g // p) + b * (g % p)) % p if rank == 2 else g] += v
        if sums.count(sums[0]) != p:
            # the punctured dual line through d
            x_mask |= sum(1 << ((t * a % p) * p + t * b % p if rank == 2 else t)
                          for t in range(1, p))
    return s_mask, x_mask


def kernel_inputs(p, rank, rng):
    """Random integer functions with values up to 1000 in size, and
    structured ones whose transforms vanish on whole dual directions."""
    n = p**rank
    out = [[5] * n, [0] * (n - 1) + [-3], [1000] + [0] * (n - 1)]
    for _ in range(8):
        density = rng.random()
        out.append([rng.randint(-1000, 1000) if rng.random() < density else 0
                    for _ in range(n)])
    for vals in out[3:7]:
        zero_sum = list(vals)
        zero_sum[rng.randrange(n)] -= sum(vals)
        out.append(zero_sum)
    if rank == 1:
        return out
    coset_id = tables(p).coset_id
    for d in range(p + 1):
        # constant on the lines of direction d, then also summing to zero,
        # then plus a function constant on the lines of another direction
        line_values = [rng.randint(-3, 3) for _ in range(p)]
        out.append([line_values[coset_id[d][g]] for g in range(n)])
        line_values[0] -= sum(line_values)
        out.append([line_values[coset_id[d][g]] for g in range(n)])
        e = (d + 1) % (p + 1)
        other = [rng.randint(-3, 3) for _ in range(p)]
        out.append([line_values[coset_id[d][g]] + other[coset_id[e][g]] for g in range(n)])
    for build in (diff_of_subgroups, triple_subgroups, pm_two_cosets):
        out.append([int(v.rational_value()) for v in build(p).func.values])
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_int_kernel_matches_per_character_route_and_transform(p):
    rng = random.Random(1000 + p)
    for rank in (1, 2):
        for vals in kernel_inputs(p, rank, rng):
            masks = int_support_masks(p, rank, vals)
            assert masks == per_direction_support_masks(p, rank, vals), (rank, vals)
            assert masks == per_character_support_masks(p, rank, vals), (rank, vals)
            f = GFunc(p, rank, PRIMAL, vals)
            assert masks == (f.support_mask, fourier_transform(f).support_mask), (rank, vals)
    with pytest.raises(ValueError):
        int_support_masks(p, 3, [1] * p**3)
    with pytest.raises(ValueError):
        int_support_masks(p, 2, [1] * p)
    # p's cached line table must not vouch for a float equal to p
    with pytest.raises(ValueError):
        int_support_masks(float(p), 2, [1] * p**2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_line_sums_run_on_the_plane_lines(p):
    # the transform's lines are the plane's own: direction d's line ids are
    # tables(p).coset_id[d], and points[t] is the character pairing to t
    # times that id
    coset_id = tables(p).coset_id
    exps = pair_exponents(p, 2)
    line_tables = fourier._line_table(p, 2)
    assert len(line_tables) == p + 1
    for d, ((line_of, points), (_, _, mask)) in enumerate(zip(line_tables,
                                                              fourier._line_getters(p, 2))):
        assert line_of is coset_id[d]
        assert mask == sum(1 << w for w in points[1:])
        for t in range(p):
            assert all(exps[points[t]][g] == t * coset_id[d][g] % p
                       for g in range(p * p)), (d, t)


def test_gfunc_literal_and_json_round_trip():
    f = GFunc.from_literal("3; 2; 1,0,-1,z,0,0,1+z^2,0,2/3")
    assert GFunc.from_literal(f.to_literal()) == f
    assert gfunc_from_json(gfunc_to_json(f)) == f
    with pytest.raises(ValueError):
        GFunc.from_literal("3; 2; 1,0")
    with pytest.raises(ValueError):
        GFunc.from_literal("4; 2; " + ",".join(["0"] * 16))
    with pytest.raises(ValueError):
        GFunc.from_literal("no semicolons here")


def test_gfunc_validation():
    with pytest.raises(ValueError):
        GFunc(3, 2, PRIMAL, [0] * 8)
    with pytest.raises(ValueError):
        GFunc(3, 3, PRIMAL, [0] * 27)
    with pytest.raises(ValueError):
        GFunc(3, 2, PRIMAL, [root_of_unity(5, 1)] + [0] * 8)
    with pytest.raises(ValueError):
        inverse_transform(GFunc.zero(3, 2, PRIMAL))
