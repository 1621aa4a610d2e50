"""Gallery constructions, candidate spaces, sweeps, frontier and hunts."""

import concurrent.futures
import inspect
import json
import os
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from primeplane import search
from primeplane.bounds import EQUALITY, EXCEPTION, VIOLATED
from primeplane.cyclotomic import CycNum, root_of_unity
from primeplane.fourier import (
    GFunc,
    fourier_transform,
    int_support_masks,
    int_support_stream,
    pair_exponents,
    twist,
)
from primeplane.plane import (
    DUAL,
    PRIMAL,
    Coset,
    LineSubgroup,
    Point,
    PointSet,
    coset_from_id,
    parse_pointset,
)
from primeplane.search import (
    attainable_lattice,
    character_coset,
    construct,
    diff_of_subgroups,
    frontier,
    hunt,
    make_space,
    pm_two_cosets,
    sharp_pair_1d,
    sweep,
    triple_subgroups,
)
from reference import (
    character_on_cosets,
    characters_on_one_coset,
    orthogonal,
    single_coset_character,
    two_nonparallel_lines,
    two_parallel_lines,
)


def verify_expected(c):
    fh = fourier_transform(c.func)
    assert (c.func.support_size, fh.support_size) == c.expected


def test_gallery_small_primes():
    for p in (3, 5):
        verify_expected(diff_of_subgroups(p))
        verify_expected(pm_two_cosets(p))
        verify_expected(triple_subgroups(p))
        verify_expected(construct("character-coset", p))
        for m in range(1, p + 1):
            verify_expected(sharp_pair_1d(p, m))


def test_gallery_degenerate_parameters():
    with pytest.raises(ValueError):
        construct("no-such-family", 5)
    with pytest.raises(ValueError):
        sharp_pair_1d(5, 0)


def test_gallery_builders_and_literal_parsers_take_no_options():
    for name, builder in search.GALLERY.items():
        assert set(inspect.signature(builder).parameters) <= {"p", "m", "n"}, name
    for parse in (GFunc.from_literal, parse_pointset):
        assert list(inspect.signature(parse).parameters) == ["text"], parse
    assert list(inspect.signature(PointSet.from_pairs).parameters) == ["p", "pairs"]
    # make_space is the one constructor, so the space has no defaults of its own
    assert search.SearchSpace._field_defaults == {}


def test_attainable_lattice():
    dots = attainable_lattice(3)
    assert (3, 3) in dots  # m = n = 1
    assert (1, 9) in dots  # m = 1, n = p
    assert all(1 <= s <= 9 and 1 <= x <= 9 for s, x in dots)


def test_space_validation():
    with pytest.raises(ValueError):
        make_space(3, alphabet=())
    with pytest.raises(ValueError):
        make_space(3, alphabet=(0, 1, 1))
    with pytest.raises(ValueError):
        make_space(3, alphabet=(0, 1), ceiling=100)  # 2^9 = 512 > 100
    with pytest.raises(ValueError):
        make_space(3, mode="random", budget=0)
    with pytest.raises(ValueError):
        make_space(3, mode="nope")


def test_mixed_radix_decoding_is_canonical():
    space = make_space(3, alphabet=(0, 1), rank=1)
    # counter 5 = binary 101 -> point 0 gets digit 1, point 2 gets digit 1
    values = space.values_at(5)
    assert [v.rational_value() for v in values] == [1, 0, 1]
    with pytest.raises(ValueError):
        space.values_at(8)


def test_sweep_determinism_and_counts():
    space = make_space(3, alphabet=(0, 1))
    r1 = sweep(space, ["product", "meshulam"])
    r2 = sweep(space, ["product", "meshulam"])
    assert r1.to_json() == r2.to_json()
    assert r1.n_candidates == 512
    assert r1.n_nonzero == 511
    assert not r1.violations
    total = sum(r1.counts["product"].values())
    assert total == r1.n_nonzero


def test_sweep_random_mode_reproducible():
    space = make_space(5, alphabet=(-1, 0, 1), mode="random", seed=11, budget=300)
    r1 = sweep(space, ["product", "meshulam", "kp1"])
    r2 = sweep(space, ["product", "meshulam", "kp1"])
    assert r1.to_json() == r2.to_json()
    other = make_space(5, alphabet=(-1, 0, 1), mode="random", seed=12, budget=300)
    r3 = sweep(other, ["product"])
    assert r3.counts != r1.counts or r3.space != r1.space


def test_sweep_parallel_merge_matches_serial():
    space = make_space(3, alphabet=(-1, 0, 1))
    serial = sweep(space, ["product", "kp1"])
    parallel = sweep(space, ["product", "kp1"], jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_sweep_parallel_random_mode_partition_independent():
    # per-sample seeding makes random draws independent of the partition
    space = make_space(3, alphabet=(-1, 0, 1), mode="random", seed=5, budget=6000)
    serial = sweep(space, ["meshulam"])
    parallel = sweep(space, ["meshulam"], jobs=3)
    assert serial.to_json() == parallel.to_json()


def test_sweep_starts_at_most_one_worker_per_cpu(monkeypatch):
    # no process is started: the executor records its size and maps in-process
    started, chunks = [], []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            args = list(zip(*iterables))
            chunks.append(len(args))
            return (fn(*a) for a in args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    space = make_space(3, alphabet=(-1, 0, 1))
    serial = sweep(space, ["product", "kp1"]).to_json()
    for jobs in (2, 3, 1000):
        assert sweep(space, ["product", "kp1"], jobs=jobs).to_json() == serial
    assert started == [2, 3, 3] and chunks == [2, 3, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sweep(space, ["product", "kp1"], jobs=1000).to_json() == serial
    assert started == [2, 3, 3]
    # 64 chunks of 308 ordinals: the first equalities of kp1 (ordinal 377)
    # and rational (1121) lie in later chunks, so the merge must keep them
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    checks = ["product", "kp1", "rational"]
    serial = sweep(space, checks).to_json()
    assert {label: w["ordinal"] for label, w in serial["equality_witnesses"].items()} == \
        {"product": 0, "kp1": 377, "rational": 1121}
    assert json.dumps(sweep(space, checks, jobs=64).to_json()) == json.dumps(serial)
    assert started == [2, 3, 3, 64] and chunks == [2, 3, 3, 64]


def test_sweep_requires_rational_alphabet_for_rational_check():
    space = make_space(3, alphabet=("z", "0", "1"))
    with pytest.raises(ValueError):
        sweep(space, ["rational"])


def test_sweep_rank1():
    space = make_space(5, alphabet=(0, 1, 2), rank=1)
    res = sweep(space, ["product", "birotao"])
    assert not res.violations
    with pytest.raises(ValueError):
        sweep(space, ["meshulam"])


def test_char_twist_space():
    space = make_space(3, alphabet=(0, 1), rank=2, char_twist=True)
    assert space.candidate_count == 512 * 9
    # twisted candidates are plain candidates scaled by a character
    plain = make_space(3, alphabet=(0, 1), rank=2).gfunc_at(5)
    assert space.values_at(3 * 512 + 5) == twist(plain, 3).values
    res = sweep(make_space(3, alphabet=(0, 1), rank=1, char_twist=True),
                ["product", "birotao"])
    assert not res.violations


def test_frontier_examples():
    space = make_space(3, alphabet=(0, 1))
    fm = frontier(space)
    assert (3, 3) in fm.attained  # subgroup indicator
    assert (1, 9) in fm.attained  # delta
    # every recorded witness re-verifies
    for (s, x), (_, literal) in fm.attained.items():
        f = GFunc.from_literal(literal)
        assert f.support_size == s
        assert fourier_transform(f).support_size == x
    csv = fm.to_csv()
    assert csv.splitlines()[0] == "S_size,X_size,witness_literal"


def int_values_at(space, ordinal, ints):
    """Candidate `ordinal` untwisted, over `ints` (the scaled alphabet)."""
    return tuple(ints[d] for d in space._decode(ordinal)[0])


def test_kernel_route_matches_exact_route_in_sweep():
    # the integer kernel and the CycNum transform agree candidate by candidate
    space = make_space(3, alphabet=(-1, 0, 1))
    ints = space.int_alphabet()
    assert ints == (-1, 0, 1)
    rng = random.Random(99)
    for _ in range(50):
        ordinal = rng.randrange(space.candidate_count)
        int_vals = int_values_at(space, ordinal, ints)
        f = space.gfunc_at(ordinal)
        s_mask, x_mask = int_support_masks(3, 2, int_vals)
        assert s_mask == f.support_mask
        assert x_mask == fourier_transform(f).support_mask


def test_hunt_unconditional_bounds_find_nothing():
    space = make_space(3, alphabet=(0, 1))
    assert not hunt("product", space).found
    assert not hunt("meshulam", space).found


def test_hunt_roots_reports_only_cover_clause_cases():
    space = make_space(3, alphabet=(-1, 0, 1))
    result = hunt("roots", space)
    assert not result.found
    assert result.clause_count > 0
    from primeplane.plane import covered_by_lines

    limit = (3 - 1) // 2
    for ordinal in result.clause_ordinals[:20]:
        f = space.gfunc_at(ordinal)
        S = f.support()
        X = fourier_transform(f).support()
        assert covered_by_lines(S, limit) or covered_by_lines(X, limit)


def test_hunt_conjecture_includes_cover_stats():
    space = make_space(3, alphabet=(0, 1))
    result = hunt("conjecture", space, k=2)
    assert not result.found
    assert result.check == "conjecture[k=2]"


def test_space_pickle_round_trip():
    # --jobs workers receive the space pickled; its CycNums reduce to _make
    spaces = [
        make_space(5, alphabet=("-1", "0", "1", "z"), mode="random", seed=3, budget=50),
        make_space(3, alphabet=("0", "1/2", "z^2"), mode="random", seed=4, budget=40,
                   char_twist=True),
        make_space(3, alphabet=(0, 1), budget=7, ceiling=600),
    ]
    for space in spaces:
        again = pickle.loads(pickle.dumps(space))
        assert again == space and hash(again) == hash(space)
        assert again.describe() == space.describe()
        assert [space.values_at(i) for i in range(5)] == [again.values_at(i) for i in range(5)]


# -- the support-pair memo against a plain per-candidate loop ---------------------

ALL_CHECKS = ["product", "meshulam", "rational", "kp1", "kp2", "product3",
              "conjecture", "roots", "asym2", "asym3", "coset-counts"]


def oracle_rows(space, items):
    """(ordinal, ((verdict, cover_clause_applies), ...)) per nonzero candidate,
    through the exact transform and one bounds.evaluate call per candidate
    and check."""
    rows = []
    for ordinal in range(space.candidate_count):
        f = space.gfunc_at(ordinal)
        if f.is_zero_function():
            continue
        pair = search.bounds.SupportPair.from_masks(
            space.p, space.rank, f.support_mask, fourier_transform(f).support_mask,
            f.is_rational_valued())
        reports = [search.bounds.evaluate(name, pair, param) for _, name, param in items]
        rows.append((ordinal, tuple((r.verdict, bool(r.details.get("cover_clause_applies")))
                                    for r in reports)))
    return rows


def oracle_sweep(space, items, rows):
    labels = [label for label, _, _ in items]
    counts = {label: {} for label in labels}
    violations, equalities = [], {}
    exceptions = {label: [] for label in labels}
    for ordinal, outcomes in rows:
        for label, (verdict, _) in zip(labels, outcomes):
            counts[label][verdict] = counts[label].get(verdict, 0) + 1
            if verdict == VIOLATED:
                violations.append({"check": label, "ordinal": ordinal,
                                   "witness": space.literal_at(ordinal)})
            elif verdict == EQUALITY and label not in equalities:
                equalities[label] = {"ordinal": ordinal, "witness": space.literal_at(ordinal)}
            elif verdict == EXCEPTION:
                exceptions[label].append(ordinal)
    return {"space": space.describe(), "checks": labels, "counts": counts,
            "violations": violations, "equality_witnesses": equalities,
            "candidates": space.candidate_count, "nonzero": len(rows),
            "exception_ordinals": exceptions}


def oracle_hunt(space, label, index, rows, clause_cap=100):
    counts, clause_ordinals, clause_count = {}, [], 0
    witness = None
    for checked, (ordinal, outcomes) in enumerate(rows, 1):
        verdict, clause = outcomes[index]
        counts[verdict] = counts.get(verdict, 0) + 1
        if verdict == EXCEPTION and clause:
            clause_count += 1
            if len(clause_ordinals) < clause_cap:
                clause_ordinals.append(ordinal)
        if verdict == VIOLATED:
            witness = {"ordinal": ordinal, "literal": space.literal_at(ordinal)}
            break
    return {"check": label, "witness": witness, "checked": checked, "counts": counts,
            "cover_clause_cases": clause_count, "cover_clause_ordinals": clause_ordinals}


@pytest.mark.parametrize("space, checks, hunted", [
    # every check at p = 3, integer kernel route
    (make_space(3, alphabet=(-1, 0, 1)), ALL_CHECKS, ["product", "conjecture", "roots"]),
    # an irrational alphabet takes the exact CycNum route
    (make_space(5, alphabet=("-1", "0", "1", "z"), mode="random", seed=4, budget=300),
     [c for c in ALL_CHECKS if c != "rational"], ["roots", "coset-counts"]),
    # the twist makes some candidates rational-valued and others not
    (make_space(3, alphabet=(0, 1), char_twist=True),
     [c for c in ALL_CHECKS if c != "rational"], ["roots"]),
    (make_space(5, alphabet=(-1, 0, 1, 2), rank=1), ["product", "birotao"],
     ["product", "birotao"]),
], ids=["p3-exhaustive", "p5-random-exact", "p3-twist", "rank1"])
def test_memoized_runs_match_per_candidate_oracle(space, checks, hunted):
    items = search._check_items(space, checks, 2, "1/2")
    rows = oracle_rows(space, items)
    result = sweep(space, checks, k=2, eps="1/2", collect_exceptions=True)
    assert result.to_json() == oracle_sweep(space, items, rows)
    labels = [label for label, _, _ in items]
    for name in hunted:
        index = checks.index(name)
        expected = oracle_hunt(space, labels[index], index, rows)
        assert hunt(name, space, k=2, eps="1/2").to_json() == expected
    if space.char_twist:
        assert len({space.gfunc_at(o).is_rational_valued() for o, _ in rows}) == 2


def test_memo_evaluates_once_per_check_per_support_pair(monkeypatch):
    checks = ["product", "meshulam", "kp1", "roots"]
    calls = []

    def counting(name, decide):
        def decide_counted(pair, param):
            calls.append(name)
            return decide(pair, param)
        return decide_counted

    # a sweep resolves each check's decide from the registry once per run
    for name in checks:
        spec = search.bounds.CHECKS[name]
        monkeypatch.setitem(search.bounds.CHECKS, name,
                            spec._replace(decide=counting(name, spec.decide)))
    # {0, 1}: a function is its own support, so every pair is distinct;
    # {-1, 1}: S is always the whole plane, so pairs recur
    for alphabet in [(0, 1), (-1, 1)]:
        space = make_space(3, alphabet=alphabet)
        calls.clear()
        result = sweep(space, checks)
        pairs = {int_support_masks(3, 2, int_values_at(space, o, alphabet))
                 for o in range(space.candidate_count) if any(int_values_at(space, o, alphabet))}
        assert len(calls) == len(checks) * len(pairs)
        assert (len(pairs) < result.n_nonzero) == (alphabet == (-1, 1))
        assert all(sum(c.values()) == result.n_nonzero for c in result.counts.values())


def test_sweep_parallel_every_check_matches_serial():
    space = make_space(3, alphabet=(-1, 0, 1))
    kwargs = dict(k=2, eps="1/2", collect_exceptions=True)
    assert sweep(space, ALL_CHECKS, jobs=2, **kwargs).to_json() == \
        sweep(space, ALL_CHECKS, **kwargs).to_json()


@pytest.mark.parametrize("space", [
    make_space(3, alphabet=("0", "1", "z")),
    make_space(3, alphabet=(0, 1), char_twist=True),
], ids=["irrational", "twisted"])
def test_sweep_parallel_exact_route_matches_serial(space):
    # the irrational space takes the exact CycNum route, the twisted one
    # the block stream with translated X masks; both lie above the 4,096
    # serial cutoff, so jobs=2 ships the pickled space to a pool
    assert space.candidate_count in (19683, 4608)
    checks = ["product", "meshulam", "roots"]
    assert sweep(space, checks, jobs=2).to_json() == sweep(space, checks, jobs=1).to_json()


# -- gallery builders against their reference loops ------------------------------
#
# character_coset and the descriptor builders of reference.py go through
# bounds.ExceptionDescriptor.reconstruct; the reference_* functions build
# the same forms with their own loops, a route independent of the descriptor.


def _cyc(p, v):
    return v if isinstance(v, CycNum) else CycNum.from_rational(p, v)


def reference_character_coset(p, direction, offset, character, coefficient):
    chi = Point.of(p, *character, side=DUAL)
    vals = [CycNum.zero(p)] * (p * p)
    for z in Coset.through(Point.of(p, *offset), LineSubgroup(p, direction, PRIMAL)).members():
        vals[z.index] = _cyc(p, coefficient) * root_of_unity(p, chi.pair(z))
    return GFunc(p, 2, PRIMAL, vals)


def reference_coset_characters(p, direction, offset, characters, coefficients):
    chis = [Point.of(p, *c, side=DUAL) for c in characters]
    vals = [CycNum.zero(p)] * (p * p)
    for z in Coset.through(Point.of(p, *offset), LineSubgroup(p, direction, PRIMAL)).members():
        total = CycNum.zero(p)
        for chi, c in zip(chis, coefficients):
            total = total + _cyc(p, c) * root_of_unity(p, chi.pair(z))
        vals[z.index] = total
    return GFunc(p, 2, PRIMAL, vals)


def reference_character_cosets(p, direction, offsets, character, coefficients):
    chi = Point.of(p, *character, side=DUAL)
    sub = LineSubgroup(p, direction, PRIMAL)
    vals = [CycNum.zero(p)] * (p * p)
    for g, c in zip(offsets, coefficients):
        for z in Coset.through(Point.of(p, *g), sub).members():
            vals[z.index] = _cyc(p, c) * root_of_unity(p, chi.pair(z))
    return GFunc(p, 2, PRIMAL, vals)


def reference_two_parallel(p, direction, char1, char2, coset_values1, coset_values2):
    chi1 = Point.of(p, *char1, side=DUAL)
    chi2 = Point.of(p, *char2, side=DUAL)
    vals = [CycNum.zero(p)] * (p * p)
    for j in range(p):
        for z in coset_from_id(p, direction, j).members():
            vals[z.index] = _cyc(p, coset_values1[j]) * root_of_unity(p, chi1.pair(z)) + \
                _cyc(p, coset_values2[j]) * root_of_unity(p, chi2.pair(z))
    return GFunc(p, 2, PRIMAL, vals)


def reference_two_nonparallel(p, d1, d2, character, values1, values2):
    chi = Point.of(p, *character, side=DUAL)
    gen1 = LineSubgroup(p, d1, PRIMAL).generator
    gen2 = LineSubgroup(p, d2, PRIMAL).generator
    vals = [CycNum.zero(p)] * (p * p)
    for t1 in range(p):
        for t2 in range(p):
            g = gen1.scaled(t1) + gen2.scaled(t2)
            vals[g.index] = (_cyc(p, values1[t1]) + _cyc(p, values2[t2])) * \
                root_of_unity(p, chi.pair(g))
    return GFunc(p, 2, PRIMAL, vals)


def random_value(rng, p, kind, nonzero=False):
    """An integer, a half-integer or a cyclotomic value."""
    while True:
        if kind == "int":
            v = rng.randint(-3, 3)
        elif kind == "half":
            v = Fraction(rng.randint(-3, 3), 2)
        else:
            v = CycNum.zero(p)
            for t in range(p):
                v = v + rng.randint(-2, 2) * root_of_unity(p, t)
        if not nonzero or v != 0:
            return v


def point_on(rng, p, direction, coset_id, side=PRIMAL):
    """A random point of the given line."""
    pt = coset_from_id(p, direction, coset_id, side).members()[rng.randrange(p)]
    return (pt.x, pt.y)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("kind", ["int", "half", "cyclotomic"])
def test_builders_match_reference_loops(p, kind):
    # the gallery's fixed forms
    subgroup = [reference_character_cosets(p, d, [(0, 0)], (0, 0), [1]).values
                for d in (0, 1, 2)]
    assert character_coset(p).func == reference_character_coset(p, 0, (0, 0), (1, 1), 1)
    assert diff_of_subgroups(p).func.values == tuple(a - b for a, b in zip(*subgroup[:2]))
    assert pm_two_cosets(p).func == \
        reference_character_cosets(p, 0, [(0, 0), (0, 1)], (0, 0), [1, -1])
    assert triple_subgroups(p).func.values == \
        tuple(a + b - 2 * c for a, b, c in zip(*subgroup))

    rng = random.Random(1000 * p + len(kind))
    for _ in range(6):
        d = rng.randrange(p + 1)
        perp = orthogonal(LineSubgroup(p, d, PRIMAL)).direction
        offset = (rng.randrange(p), rng.randrange(p))
        character = (rng.randrange(p), rng.randrange(p))
        c = random_value(rng, p, kind, nonzero=True)
        assert single_coset_character(p, d, offset, character, c) == \
            reference_character_coset(p, d, offset, character, c)

        n = rng.randint(1, p)
        chis = [point_on(rng, p, perp, j, DUAL) for j in rng.sample(range(p), n)]
        coeffs = [random_value(rng, p, kind, nonzero=True) for _ in chis]
        assert characters_on_one_coset(p, d, offset, chis, coeffs) == \
            reference_coset_characters(p, d, offset, chis, coeffs)

        offsets = [point_on(rng, p, d, j) for j in rng.sample(range(p), n)]
        assert character_on_cosets(p, d, offsets, character, coeffs) == \
            reference_character_cosets(p, d, offsets, character, coeffs)

        char1, char2 = (point_on(rng, p, perp, j, DUAL) for j in rng.sample(range(p), 2))
        vals1 = [random_value(rng, p, kind) for _ in range(p)]
        vals2 = [random_value(rng, p, kind) for _ in range(p)]
        assert two_parallel_lines(p, d, char1, char2, vals1, vals2) == \
            reference_two_parallel(p, d, char1, char2, vals1, vals2)

        d2 = rng.choice([e for e in range(p + 1) if e != d])
        assert two_nonparallel_lines(p, d, d2, character, vals1, vals2) == \
            reference_two_nonparallel(p, d, d2, character, vals1, vals2)


def test_random_digits_consume_the_randrange_stream():
    # the batched decoder reads randrange's own words, so a draw after it agrees too
    for base in [*range(1, 10), 255, 256, 300]:
        for seed in range(50):
            for n in (1, 9, 25, 121):
                batched, plain = random.Random(seed), random.Random(seed)
                digits = search._random_digits(batched, base, n)
                assert list(digits) == [plain.randrange(base) for _ in range(n)], (base, seed, n)
                assert batched.randrange(n) == plain.randrange(n), (base, seed, n)


def pointwise_twist(space, digits, chi_index):
    """The alphabet values of `digits` times the character chi_index,
    pointwise through the pairing table."""
    exps = pair_exponents(space.p, space.rank)[chi_index]
    return tuple(space.alphabet[d] * root_of_unity(space.p, exps[g])
                 for g, d in enumerate(digits))


def randrange_values(space, ordinal):
    """Reference random-mode decoding: one randrange call per point, then
    one for the twisting character."""
    rng = random.Random((space.seed << 32) ^ ordinal)
    digits = [rng.randrange(len(space.alphabet)) for _ in range(space.n_points)]
    if space.char_twist:
        return pointwise_twist(space, digits, rng.randrange(space.n_points))
    return tuple(space.alphabet[d] for d in digits)


def power_values(space, ordinal):
    """Reference exhaustive decoding: digit i of the base counter is
    (counter // base**i) % base, below the character index."""
    base = len(space.alphabet)
    chi_index, counter = divmod(ordinal, space.base_count) if space.char_twist \
        else (0, ordinal)
    digits = [(counter // base**i) % base for i in range(space.n_points)]
    if space.char_twist:
        return pointwise_twist(space, digits, chi_index)
    return tuple(space.alphabet[d] for d in digits)


@pytest.mark.parametrize("mode", ["random", "exhaustive"])
def test_decoding_matches_reference_routes(mode):
    rng = random.Random(5)
    reference = randrange_values if mode == "random" else power_values
    for p, rank, alphabet, twisted in [(2, 2, (0, 1), True), (3, 2, (-1, 0, 1), False),
                                        (3, 1, (0, 1, "z", 2, "1/2"), True),
                                        (5, 2, (-2, -1, 0, 1, 2), False), (5, 1, (7,), False)]:
        space = make_space(p, alphabet=alphabet, rank=rank, mode=mode, seed=rng.randrange(99),
                           budget=200, char_twist=twisted, ceiling=10**18)
        ints = space.int_alphabet()
        count = space.candidate_count
        for ordinal in sorted(rng.sample(range(count), min(20, count))):
            values = space.values_at(ordinal)
            assert values == reference(space, ordinal), (p, rank, alphabet, twisted, ordinal)
            if ints is not None:
                # the kernel reads the untwisted ints; the twist is put back here
                plain = GFunc(p, rank, PRIMAL, int_values_at(space, ordinal, ints))
                assert twist(plain, space._decode(ordinal)[1]).values == values


STREAM_SPACES = [
    pytest.param(p, rank, (0, 1, -1, 2)[:base], id=f"{p}-{rank}-{base}")
    for p, rank, base in [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 2), (3, 2, 3),
                          (5, 1, 2), (5, 1, 3), (5, 1, 4)]
] + [
    pytest.param(p, rank, alphabet, id=f"{p}-{rank}-[{','.join(map(str, alphabet))}]")
    for p, rank in [(2, 2), (3, 2), (5, 1), (7, 1), (11, 1)]
    for alphabet in [(-1, 0, 1), (0, 1, 2, -3), (1, 2), (5,), (0,)]
    if len(alphabet) ** p**rank <= 4**9
]


@pytest.mark.parametrize("p, rank, alphabet", STREAM_SPACES)
def test_exhaustive_stream_matches_per_ordinal_decode(p, rank, alphabet):
    # the block stream against the per-candidate kernel, at every ordinal
    space = make_space(p, alphabet=alphabet, rank=rank)
    count, n = space.candidate_count, p**rank
    full = [(o, *int_support_masks(p, rank, values)) for o in range(count)
            for values in [int_values_at(space, o, alphabet)] if any(values)]
    assert list(int_support_stream(p, rank, alphabet, 0, count)) == full
    assert list(search._candidates(space, 0, count)) == full
    # chunks that start or end inside a low block, span several, or are empty
    width = max(len(alphabet) ** r for r in range(n + 1) if len(alphabet) ** r <= 1024)
    for a, b in [(1, count), (width - 1, width + 1), (width // 2, 3 * width + 5),
                 (count // 3, count // 2), (count - 1, count), (5, 5), (count, count)]:
        a, b = min(a, count), min(b, count)
        expected = [c for c in full if a <= c[0] < b]
        assert list(int_support_stream(p, rank, alphabet, a, b)) == expected, (a, b)
        assert list(search._candidates(space, a, b)) == expected, (a, b)


def test_exhaustive_stream_memory_is_bounded():
    # the low block's tables and one row of masks at a time: nothing is
    # kept per high assignment or per key
    p = 11
    int_support_masks(p, 1, (1,) * p)  # the cached line getters
    tracemalloc.start()
    try:
        nonzero = sum(1 for _ in int_support_stream(p, 1, (-1, 0, 1), 0, 3**p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nonzero == 3**p - 1
    assert peak < 2 * 2**20


def test_sweep_memo_is_capped():
    # over {0, 1} a function is its own support, so every support pair of
    # the p = 5 rank-2 space is distinct and an uncapped memo grows with the
    # slice: 2^17 ordinals peaked at 10.5 MB uncapped, 5.4 MB capped
    space = make_space(5, alphabet=(0, 1), rank=2)
    items = search._check_items(space, ["product", "meshulam"], None, None)
    assert search._MEMO_LIMIT == 2**16
    search._run_range(space, items, 0, 100, False)  # the cached tables
    tracemalloc.start()
    try:
        tally, _, _ = search._run_range(space, items, 0, 2**17, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(count for count, _, _ in tally.values()) == 2**17 - 1
    assert peak < 8 * 2**20


def test_point_set_cache_keeps_sweep_memory_flat(monkeypatch):
    # no support set recurs among these p = 23 candidates; SupportPair.from_masks
    # keeps at most 16 point sets with their censuses, so with the memo held
    # small the peak stays flat as the chunk grows: 0.11 MB at 150 and at 600
    # candidates, where an unbounded cache of sets peaked at 0.81 and 2.8 MB
    monkeypatch.setattr(search, "_MEMO_LIMIT", 64)
    checks = ["product", "meshulam", "rational", "kp1", "kp2", "product3", "coset-counts"]
    peaks = []
    for budget in (150, 600):
        space = make_space(23, alphabet=(-1, 0, 1), mode="random", seed=1, budget=budget)
        items = search._check_items(space, checks, None, None)
        search._run_range(space, items, 0, 20, False)  # the cached tables
        tracemalloc.start()
        try:
            tally, _, _ = search._run_range(space, items, 0, budget, False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sum(count for count, _, _ in tally.values()) == budget
    assert max(peaks) < 2**19


def test_capped_memo_changes_no_output(monkeypatch):
    space = make_space(5, alphabet=(0, 1), rank=2)
    checks = ["product", "meshulam", "rational", "kp1", "kp2", "product3", "coset-counts"]
    items = search._check_items(space, checks, None, None)
    monkeypatch.setattr(search, "_MEMO_LIMIT", 2**30)
    uncapped = search._run_range(space, items, 0, 2**14, True)
    monkeypatch.setattr(search, "_MEMO_LIMIT", 64)
    assert search._run_range(space, items, 0, 2**14, True) == uncapped
    tally, _, exceptions = uncapped
    assert len(tally) > 1 and any(exceptions.values())


@pytest.mark.parametrize("p, rank, alphabet, twist", [
    (3, 1, (0, 1, "z"), False), (5, 1, ("1/2", "z", 0), False), (3, 2, (0, "z"), False),
    (3, 2, ("z", "1/2"), False), (2, 2, (0, 1, "z"), True), (2, 2, (1, "1/2"), True),
    (3, 1, (0, "z", 2), True), (3, 1, (1, "1/2"), True),
])
def test_exact_stream_matches_per_ordinal_route(p, rank, alphabet, twist):
    space = make_space(p, alphabet=alphabet, rank=rank, char_twist=twist)
    # a twisted rational alphabet takes the integer kernel and translates X;
    # at p = 2, z = -1 is rational
    assert (space.int_alphabet() is None) == ("z" in alphabet and p > 2)
    count, base = space.candidate_count, space.base_count
    full = []
    for ordinal in range(count):
        values = space.values_at(ordinal)
        if all(v.is_zero() for v in values):
            continue
        f = GFunc(p, rank, PRIMAL, values)
        full.append((ordinal, f.support_mask, decoded_x_mask(f)))
    assert list(search._candidates(space, 0, count)) == full
    # chunks that cross a character, span several, or are empty
    for a, b in [(1, count), (base - 1, base + 1), (base // 2, 2 * base + 3),
                 (count // 3, count // 2), (count - 1, count), (5, 5)]:
        a, b = min(a, count), min(b, count)
        assert list(search._candidates(space, a, b)) == \
            [c for c in full if a <= c[0] < b], (a, b)


def decoded_x_mask(f):
    """The transform's support read off its decoded CycNums."""
    return sum(1 << w for w, v in enumerate(fourier_transform(f).values) if v)


@pytest.mark.parametrize("p, mode, twisted", [
    (2, "exhaustive", False), (2, "exhaustive", True), (3, "exhaustive", False),
    (3, "exhaustive", True), (5, "random", False), (5, "random", True), (7, "random", False),
    (7, "random", True),
])
def test_exact_masks_match_the_transform_at_every_ordinal(p, mode, twisted):
    # the packed zero test the sweep reads against the transform's support
    # mask and its decoded values, at every ordinal of the 0,1,z spaces
    space = make_space(p, alphabet=("0", "1", "z") if mode == "exhaustive" else
                       ("-1", "0", "1", "z"), mode=mode, seed=11, budget=150,
                       char_twist=twisted)
    count, base = space.candidate_count, space.base_count
    if p == 3 and twisted:
        # 177,147 ordinals: each character's row is the untwisted one
        # translated, bit by bit here; the twisted transform itself is
        # taken at a sample of ordinals
        untwisted = {}
        for counter in range(base):
            f = GFunc(p, 2, PRIMAL, space.values_at(counter))
            if f.support_mask:
                untwisted[counter] = f.support_mask, decoded_x_mask(f)
        expected = []
        for ordinal in range(count):
            chi, counter = divmod(ordinal, base)
            if counter in untwisted:
                s_mask, x_mask = untwisted[counter]
                cx, cy = divmod(chi, p)
                moved = sum(1 << (w // p + cx) % p * p + (w + cy) % p
                            for w in range(p * p) if x_mask >> w & 1)
                expected.append((ordinal, s_mask, moved))
        masks = {ordinal: (s_mask, x_mask) for ordinal, s_mask, x_mask in expected}
        for ordinal in random.Random(12).sample(range(count), 300):
            f = space.gfunc_at(ordinal)
            assert masks.get(ordinal, (0, 0)) == \
                ((f.support_mask, decoded_x_mask(f)) if f.support_mask else (0, 0)), ordinal
    else:
        expected = []
        for ordinal in range(count):
            f = space.gfunc_at(ordinal)
            if f.support_mask:
                x_mask = fourier_transform(f).support_mask
                assert x_mask == decoded_x_mask(f), ordinal
                expected.append((ordinal, f.support_mask, x_mask))
    assert list(search._candidates(space, 0, count)) == expected


@pytest.mark.parametrize("p, rank, mode, alphabet", [
    (2, 1, "exhaustive", (-1, "1/2")), (2, 2, "exhaustive", (0, 1, "-1/3")),
    (3, 1, "exhaustive", (0, "1/2", 2)), (3, 2, "exhaustive", (1, "-1/2")),
    (5, 1, "exhaustive", ("1/2", 0, -1)), (5, 1, "exhaustive", (1, 2)),
    (2, 2, "random", (0, "1/2")), (3, 2, "random", (-1, 0, 1)), (5, 1, "random", (1, "-1/3")),
    (5, 2, "random", (0, 1, "1/2")), (5, 2, "random", (-1, "z", 1)),
])
def test_twisted_candidates_translate_the_untwisted_masks(p, rank, mode, alphabet):
    # _candidates decides each candidate untwisted and translates X by chi;
    # the reference transforms the twisted function itself
    space = make_space(p, alphabet=alphabet, rank=rank, mode=mode, seed=7, budget=300,
                       char_twist=True)
    assert (space.int_alphabet() is None) == ("z" in alphabet)
    count = space.candidate_count
    full = []
    for ordinal in range(count):
        f = space.gfunc_at(ordinal)
        if f.support_mask:
            full.append((ordinal, f.support_mask, decoded_x_mask(f)))
    assert list(search._candidates(space, 0, count)) == full
    # chunks that cross a character, span several, or are empty
    base = space.base_count if mode == "exhaustive" else 100
    for a, b in [(1, count), (base - 1, base + 1), (base // 2, 2 * base + 3),
                 (count // 3, count // 2), (count - 1, count), (5, 5)]:
        a, b = min(a, count), min(b, count)
        assert list(search._candidates(space, a, b)) == \
            [c for c in full if a <= c[0] < b], (a, b)


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_translate_matches_a_per_bit_translate(p, rank):
    n = p**rank
    rng = random.Random(10 * p + rank)
    masks = [0, 1, 1 << n - 1, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
    for chi in range(n):
        cx, cy = divmod(chi, p)
        for mask in masks:
            moved = sum(1 << (w // p + cx) % p * p + (w + cy) % p
                        for w in range(n) if mask >> w & 1)
            assert search._translate(p, rank, mask, chi) == moved, (chi, mask)


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("p, rank, alphabet, ints", [
    (2, 2, ("-1/2", 0, "1/3"), (-3, 0, 2)), (7, 1, ("-1/2", 0, "1/3"), (-3, 0, 2)),
    (3, 2, ("1/2", "3/4"), (2, 3)), (11, 1, ("1/2", "3/4"), (2, 3)),
])
def test_fractional_alphabet_takes_the_integer_kernel(p, rank, alphabet, ints, mode):
    # the alphabet times the lcm of its denominators has the same supports
    space = make_space(p, alphabet=alphabet, rank=rank, mode=mode, seed=3, budget=300)
    assert space.int_alphabet() == ints
    count = space.candidate_count
    full = []
    for ordinal in range(count):
        values = space.values_at(ordinal)
        if all(v.is_zero() for v in values):
            continue
        f = GFunc(p, rank, PRIMAL, values)
        full.append((ordinal, f.support_mask, fourier_transform(f).support_mask))
    assert list(search._candidates(space, 0, count)) == full
    # chunks that start or end inside a block, span several, or are empty
    for a, b in [(1, count), (700, 800), (count // 3, count // 2), (count - 1, count), (5, 5)]:
        a, b = min(a, count), min(b, count)
        assert list(search._candidates(space, a, b)) == \
            [c for c in full if a <= c[0] < b], (a, b)
    # witnesses print the unscaled letters
    letters = set()
    for ordinal, literal in frontier(space).attained.values():
        values = GFunc.from_literal(literal).values
        assert values == space.values_at(ordinal)
        letters.update(values)
    assert letters <= set(space.alphabet)
    assert any(v.rational_value().denominator > 1 for v in letters)


@pytest.mark.parametrize("collect", [True, False])
def test_row_tally_lists_violations_by_ordinal_then_label(monkeypatch, collect):
    # no check is violated at p = 3, so a patched decide plants violations:
    # one support pair violates two labels, a second pair a third label
    space = make_space(3, alphabet=(-1, 1))
    checks = ["product", "meshulam", "rational", "kp1", "coset-counts"]
    items = search._check_items(space, checks, None, None)
    pair_of = [int_support_masks(3, 2, int_values_at(space, o, (-1, 1)))
               for o in range(space.candidate_count)]
    planted = {pair_of[7]: {"product", "kp1"}, pair_of[13]: {"meshulam"}}
    assert len(planted) == 2
    rows = [(ordinal, tuple((VIOLATED, False) if label in planted.get(pair_of[ordinal], ())
                            else outcome for label, outcome in zip(checks, outcomes)))
            for ordinal, outcomes in oracle_rows(space, items)]

    def planting(name, decide):
        def decide_planted(pair, param):
            if name in planted.get((pair.s_mask, pair.x_mask), ()):
                return VIOLATED
            return decide(pair, param)
        return decide_planted

    for name in checks:
        spec = search.bounds.CHECKS[name]
        monkeypatch.setitem(search.bounds.CHECKS, name,
                            spec._replace(decide=planting(name, spec.decide)))
    expected = oracle_sweep(space, items, rows)
    if collect:
        assert expected["exception_ordinals"]["rational"]
    else:
        del expected["exception_ordinals"]
    assert sweep(space, checks, collect_exceptions=collect).to_json() == expected
    # each planted pair first holds at its own ordinal, and both recur
    found = [(v["ordinal"], v["check"]) for v in expected["violations"]]
    assert found[:3] == [(7, "product"), (7, "kp1"), (13, "meshulam")]
    assert len({o for o, _ in found}) > 2
