"""Construction gallery for the extremal families, exhaustive and seeded
random sweeps over small value alphabets, violation hunting, and the
attained (|S|, |X|) frontier with witnesses.

Candidates are enumerated by a mixed-radix counter over the point index
(point 0 is the least significant digit), so witness identities are
reproducible and the lexicographically least witness is always found
first.  A twisted candidate is decided untwisted, its X then translated.
Sweeps over all-rational alphabets, scaled to integers by the lcm of
their denominators, use the integer support kernel from the fourier
module, which decides an exhaustive space a block of candidates at a
time; other alphabets take the packed zero test of the exact transform,
which decodes no value.  Sweeps and hunts run their checks once per
distinct support pair, and a sweep tallies each distinct row of verdicts
once.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from functools import lru_cache
from itertools import islice, product, repeat
from math import lcm
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .cyclotomic import CycNum, check_prime, format_value, parse_value
from .fourier import (GFunc, exact_support_masks, int_support_masks, int_support_stream,
                      twist)
from .plane import DUAL, PRIMAL, LineSubgroup, Point
from . import bounds
from .bounds import EQUALITY, EXCEPTION, VIOLATED

DEFAULT_CEILING = 10**8

_REVERSED = itemgetter(slice(None, None, -1))


# -- construction gallery ------------------------------------------------------


class Construction(NamedTuple):
    """A gallery function together with its expected support sizes, when
    the family has a known exact (|S|, |X|) value."""

    name: str
    func: GFunc
    expected: Optional[Tuple[int, int]] = None


def _subgroup_indicator(p: int, direction: int) -> List[int]:
    vals = [0] * (p * p)
    for pt in LineSubgroup(p, direction, PRIMAL).members():
        vals[pt.index] = 1
    return vals


def character_coset(p: int) -> Construction:
    """The character (1, 1) on the line y = 0; both supports have size p."""
    check_prime(p)
    desc = bounds.ExceptionDescriptor(
        kind=bounds.KIND_SINGLE_COSET_CHARACTER, p=p, direction=0, offsets=(Point(p, 0, 0),),
        characters=(Point(p, 1, 1, DUAL),), coefficients=(CycNum.one(p),))
    return Construction("character-coset", desc.reconstruct(), (p, p))


def diff_of_subgroups(p: int) -> Construction:
    """1_{H0} - 1_{H1} for the subgroups of directions 0 and 1; |S| = |X| = 2(p-1)."""
    check_prime(p)
    vals = [a - b for a, b in zip(_subgroup_indicator(p, 0), _subgroup_indicator(p, 1))]
    return Construction("diff-of-subgroups", GFunc(p, 2, PRIMAL, vals),
                        (2 * (p - 1), 2 * (p - 1)))


def pm_two_cosets(p: int) -> Construction:
    """+1 on the line y = 0, -1 on the line y = 1; |S| = 2p, |X| = p - 1."""
    check_prime(p)
    vals = [0] * (p * p)
    for x in range(p):
        vals[x * p] = 1
        vals[x * p + 1] = -1
    return Construction("pm-two-cosets", GFunc(p, 2, PRIMAL, vals), (2 * p, p - 1))


def triple_subgroups(p: int) -> Construction:
    """1_{H0} + 1_{H1} - 2 * 1_{H2} for the subgroups of directions 0, 1 and 2;
    both supports 3(p-1)."""
    check_prime(p)
    i1, i2, i3 = (_subgroup_indicator(p, d) for d in (0, 1, 2))
    vals = [a + b - 2 * c for a, b, c in zip(i1, i2, i3)]
    return Construction("triple-subgroups", GFunc(p, 2, PRIMAL, vals),
                        (3 * (p - 1), 3 * (p - 1)))


def sharp_pair_1d(p: int, m: int) -> Construction:
    """A rank-1 function with |S| = m and |X| = p + 1 - m exactly.

    The values are the coefficients of prod_{j=1..m-1} (w - zeta^(-j)),
    so the transform is that polynomial evaluated at zeta^(-b): it
    vanishes exactly for b in {1, ..., m-1}.  All m coefficients are
    nonzero because the elementary symmetric functions of distinct
    p-th roots with fewer than p factors never vanish.
    """
    check_prime(p)
    if not 1 <= m <= p:
        raise ValueError(f"need 1 <= m <= p, got {m}")
    coeffs = [CycNum.one(p)]
    for j in range(1, m):
        nxt = [CycNum.zero(p)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c.times_root(-j)
        coeffs = nxt
    vals = coeffs + [CycNum.zero(p)] * (p - len(coeffs))
    return Construction("sharp1d", GFunc(p, 1, PRIMAL, vals), (m, p + 1 - m))


def sharp_pair_2d(p: int, m: int, n: int) -> Construction:
    """Tensor of two rank-1 sharp pairs: lands exactly on the lattice
    point (m(p+1-n), n(p+1-m))."""
    check_prime(p)
    if not (1 <= m <= p and 1 <= n <= p):
        raise ValueError("need 1 <= m, n <= p")
    f1 = sharp_pair_1d(p, m).func
    f2 = sharp_pair_1d(p, p + 1 - n).func
    vals = [CycNum.zero(p)] * (p * p)
    for x in range(p):
        for y in range(p):
            vals[x * p + y] = f1.values[x] * f2.values[y]
    return Construction("sharp2d", GFunc(p, 2, PRIMAL, vals),
                        (m * (p + 1 - n), n * (p + 1 - m)))


GALLERY = {
    "character-coset": character_coset,
    "diff-of-subgroups": diff_of_subgroups,
    "pm-two-cosets": pm_two_cosets,
    "triple-subgroups": triple_subgroups,
    "sharp1d": sharp_pair_1d,
    "sharp2d": sharp_pair_2d,
}


def construct(name: str, p: int, **params) -> Construction:
    """Build a named gallery function."""
    if name not in GALLERY:
        raise ValueError(f"unknown construction {name!r}; choose from {sorted(GALLERY)}")
    return GALLERY[name](p, **params)


def attainable_lattice(p: int) -> Tuple[Tuple[int, int], ...]:
    """The lattice of support-size pairs (m(p+1-n), n(p+1-m)), 1 <= m, n <= p."""
    check_prime(p)
    out = {(m * (p + 1 - n), n * (p + 1 - m))
           for m in range(1, p + 1) for n in range(1, p + 1)}
    return tuple(sorted(out))


# -- candidate spaces -----------------------------------------------------------


@lru_cache(maxsize=None)
def _top_byte_tables(base: int) -> Tuple[bytes, bytes]:
    """(table, reject) for bytes.translate: table maps a word's top byte
    to its top base.bit_length() bits, and reject lists the top bytes
    whose bits reach base."""
    shift = 8 - base.bit_length()
    return (bytes(b >> shift for b in range(256)),
            bytes(b for b in range(256) if b >> shift >= base))


def _random_digits(rng: random.Random, base: int, n: int) -> Sequence[int]:
    """[rng.randrange(base) for _ in range(n)], read from whole 32-bit words.

    randrange(base) keeps the top base.bit_length() bits of one word and
    draws again while they reach base.  For base < 256 those bits lie in
    the word's top byte, so each round draws one word per digit still
    missing and decodes them all in C; no word is drawn that the n calls
    would not draw, and the generator ends in the same state.
    """
    if base >= 256:
        return [rng.randrange(base) for _ in range(n)]
    table, reject = _top_byte_tables(base)
    digits = b""
    while len(digits) < n:
        m = n - len(digits)
        # byte 4i + 3 of the little-endian draw is the top byte of word i
        digits += rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4].translate(table, reject)
    return digits


class SearchSpace(NamedTuple):
    """A finite family of candidate functions over a value alphabet, built
    and checked by make_space.

    Exhaustive mode enumerates alphabet^(p^rank) functions (times the
    number of characters when char_twist is set); random mode draws
    `budget` reproducible samples from the same family, derived from the
    seed and the sample ordinal only.
    """

    p: int
    rank: int
    alphabet: Tuple[CycNum, ...]
    mode: str
    seed: int
    budget: int
    char_twist: bool

    @property
    def n_points(self) -> int:
        return self.p**self.rank

    @property
    def base_count(self) -> int:
        return len(self.alphabet) ** self.n_points

    @property
    def candidate_count(self) -> int:
        if self.mode == "random":
            return self.budget
        return self.base_count * (self.n_points if self.char_twist else 1)

    def int_alphabet(self) -> Optional[Tuple[int, ...]]:
        """The alphabet times the lcm of its denominators, as plain ints,
        when every letter is rational, twist or not; None otherwise.  Scaling
        a function scales its transform, so neither support changes."""
        if not all(v.is_rational() for v in self.alphabet):
            return None
        values = [v.rational_value() for v in self.alphabet]
        scale = lcm(*(r.denominator for r in values))
        return tuple(int(r * scale) for r in values)

    def all_rational(self) -> bool:
        return not self.char_twist and all(v.is_rational() for v in self.alphabet)

    def _decode(self, ordinal: int,
                rng: Optional[random.Random] = None) -> Tuple[Sequence[int], int]:
        """(digits, chi_index) of candidate `ordinal`: one alphabet index per
        point, and the twisting character's index (0 without a twist).  A
        random space seeds `rng` by the ordinal, which leaves it in the state
        random.Random(seed) starts from, so a range can reuse one generator."""
        n, base = self.n_points, len(self.alphabet)
        if self.mode == "random":
            if rng is None:
                rng = random.Random()
            rng.seed((self.seed << 32) ^ ordinal)
            digits = _random_digits(rng, base, n)
            return digits, rng.randrange(n) if self.char_twist else 0
        chi_index, counter = divmod(ordinal, self.base_count)
        digits = [0] * n
        for i in range(n):
            counter, digits[i] = divmod(counter, base)
        return digits, chi_index

    def values_at(self, ordinal: int) -> Tuple[CycNum, ...]:
        """Decode candidate `ordinal` into its value vector."""
        if not 0 <= ordinal < self.candidate_count:
            raise ValueError("candidate ordinal out of range")
        digits, chi_index = self._decode(ordinal)
        values = tuple(map(self.alphabet.__getitem__, digits))
        if self.char_twist:
            return twist(GFunc(self.p, self.rank, PRIMAL, values), chi_index).values
        return values

    def gfunc_at(self, ordinal: int) -> GFunc:
        return GFunc(self.p, self.rank, PRIMAL, self.values_at(ordinal))

    def literal_at(self, ordinal: int) -> str:
        return self.gfunc_at(ordinal).to_literal()

    def describe(self) -> dict:
        return {
            "p": self.p,
            "rank": self.rank,
            "alphabet": [format_value(v) for v in self.alphabet],
            "mode": self.mode,
            "seed": self.seed,
            "budget": self.budget if self.mode == "random" else None,
            "char_twist": self.char_twist,
            "candidates": self.candidate_count,
        }


def make_space(p: int, alphabet: Iterable = (-1, 0, 1), rank: int = 2,
               mode: str = "exhaustive", seed: int = 0, budget: int = 10000,
               char_twist: bool = False, ceiling: int = DEFAULT_CEILING) -> SearchSpace:
    """The space over an alphabet of ints, Fractions, value literals or
    CycNums, each value checked here once."""
    check_prime(p)
    entries = []
    for item in alphabet:
        if isinstance(item, CycNum):
            entries.append(item)
        elif isinstance(item, str):
            entries.append(parse_value(item, p))
        else:
            entries.append(CycNum.from_rational(p, item))
    if rank not in (1, 2):
        raise ValueError("rank must be 1 or 2")
    if not entries:
        raise ValueError("alphabet must be nonempty")
    if len(set(entries)) != len(entries):
        raise ValueError("alphabet entries must be distinct")
    if any(v.p != p for v in entries):
        raise ValueError("alphabet entries must be CycNum values with matching p")
    if mode not in ("exhaustive", "random"):
        raise ValueError("mode must be 'exhaustive' or 'random'")
    if mode == "random" and budget < 1:
        raise ValueError("random mode needs a positive budget")
    space = SearchSpace(p, rank, tuple(entries), mode, seed, budget, char_twist)
    if mode == "exhaustive" and space.candidate_count > ceiling:
        raise ValueError(f"exhaustive space of {space.candidate_count} candidates exceeds the "
                         f"ceiling {ceiling}")
    return space


# -- sweeps -----------------------------------------------------------------------


def _check_items(space: SearchSpace, checks: Sequence[str],
                 k: Optional[int], eps) -> List[Tuple[str, str, object]]:
    """(label, name, param) per named check.  Each check is admitted here,
    once for the space's p and rank, so a bad k or epsilon fails even when
    the space holds no nonzero candidate."""
    items = []
    for name in checks:
        spec = bounds.spec_for(name, space.rank)
        value = spec.admit(space.p, {"k": k, "eps": eps}.get(spec.param))
        if spec.rational and not space.all_rational():
            need = "an untwisted space" if space.char_twist else "an all-rational alphabet"
            raise ValueError(f"the {name} check needs {need}")
        if value is None:
            items.append((name, name, None))
        else:
            items.append((f"{name}[{spec.param}={value}]", name, value))
    return items


class SweepResult(NamedTuple):
    space: dict
    checks: Tuple[str, ...]
    counts: Dict[str, Dict[str, int]]
    violations: List[Tuple[str, int, str]]
    equality_witnesses: Dict[str, Tuple[int, str]]
    exception_ordinals: Optional[Dict[str, List[int]]]
    n_candidates: int
    n_nonzero: int

    def to_json(self) -> dict:
        out = {
            "space": self.space,
            "checks": list(self.checks),
            "counts": {k: dict(v) for k, v in self.counts.items()},
            "violations": [
                {"check": c, "ordinal": o, "witness": w} for c, o, w in self.violations
            ],
            "equality_witnesses": {
                k: {"ordinal": o, "witness": w}
                for k, (o, w) in self.equality_witnesses.items()
            },
            "candidates": self.n_candidates,
            "nonzero": self.n_nonzero,
        }
        if self.exception_ordinals is not None:
            out["exception_ordinals"] = {k: list(v) for k, v in self.exception_ordinals.items()}
        return out


def _translate(p: int, rank: int, mask: int, chi: int) -> int:
    """`mask` moved by the character chi = cx*p + cy (cx = 0 at rank 1):
    bit x*p + y goes to ((x + cx) % p)*p + (y + cy) % p.  Each p-bit row
    rotates by cy, then the rows rotate by cx."""
    n, (cx, cy) = p**rank, divmod(chi, p)
    full = (1 << n) - 1
    stay = full // ((1 << p) - 1) * ((1 << p - cy) - 1)  # the bits that do not wrap in their row
    mask = (mask & stay) << cy | (mask & ~stay) >> p - cy
    return (mask << cx * p | mask >> n - cx * p) & full


def _candidates(space: SearchSpace, start: int, stop: int):
    """Yield (ordinal, s_mask, x_mask) for each nonzero candidate with
    start <= ordinal < stop, in ordinal order.

    f twisted by chi has transform w -> hat f(w - chi): f's S, and f's X
    translated by chi (_translate, skipped for chi = 0).  So f is decided
    untwisted, by the integer kernel over int_alphabet or else
    fourier.exact_support_masks.  A random space decodes each ordinal to
    (digits, chi); an exhaustive one runs one stream per character, by
    fourier.int_support_stream or over itertools.product's tuples (last
    position fastest, so tuple k reversed is counter k).
    """
    p, rank = space.p, space.rank
    ints = space.int_alphabet()
    if space.mode == "random":
        letters, masks = (ints, int_support_masks) if ints else \
            (space.alphabet, exact_support_masks)
        rng = random.Random()
        for ordinal in range(start, stop):
            digits, chi = space._decode(ordinal, rng)
            s_mask, x_mask = masks(p, rank, [letters[d] for d in digits])
            if s_mask:
                yield ordinal, s_mask, _translate(p, rank, x_mask, chi) if chi else x_mask
        return
    count = space.base_count
    for chi in range(start // count, -(-stop // count)):
        first = chi * count
        lo, hi = max(start - first, 0), min(stop - first, count)
        if ints is None:
            rows = map(_REVERSED, islice(product(space.alphabet, repeat=space.n_points), lo, hi))
            stream = filter(itemgetter(1), ((counter, *exact_support_masks(p, rank, values))
                                            for counter, values in enumerate(rows, lo)))
        else:
            stream = int_support_stream(p, rank, ints, lo, hi)
        if chi:
            stream = ((first + counter, s_mask, _translate(p, rank, x_mask, chi))
                      for counter, s_mask, x_mask in stream)
        yield from stream


#: the most support pairs the memo of _outcomes holds before it is cleared
_MEMO_LIMIT = 2**16


def _outcomes(space: SearchSpace, items: Sequence[Tuple[str, str, object]],
              start: int, stop: int):
    """Yield (ordinal, verdicts) for each nonzero candidate, one verdict per
    check item, each from its check's decide; no BoundReport is built.

    Each item resolves to its (decide, param) once per run.  Every verdict
    is a function of the two supports alone, so the checks run once per
    distinct support pair, all on one SupportPair, which builds a point set
    only when a check reads it.  Only the rational check reads
    rationality, and _check_items admits it only for all-rational spaces,
    so the space answers for every candidate.  The memo keeps one int key
    and one interned tuple per pair, and it is cleared when it holds
    _MEMO_LIMIT pairs, so memory does not grow with the space where pairs
    do not recur; a verdict row is a function of its key, so clearing
    changes no output.
    """
    p, rank, n = space.p, space.rank, space.n_points
    rational = space.all_rational()
    row = [(bounds.CHECKS[name].decide, param) for _, name, param in items]
    memo: Dict[int, tuple] = {}
    interned: Dict[tuple, tuple] = {}
    for ordinal, s_mask, x_mask in _candidates(space, start, stop):
        key = (s_mask << n) | x_mask
        value = memo.get(key)
        if value is None:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            pair = bounds.SupportPair.from_masks(p, rank, s_mask, x_mask, rational)
            value = tuple([decide(pair, param) for decide, param in row])
            value = memo[key] = interned.setdefault(value, value)
        yield ordinal, value


def _run_range(space: SearchSpace, items: Sequence[Tuple[str, str, object]],
               start: int, stop: int, collect_exceptions: bool):
    """(tally, violations, exceptions) over one ordinal range.  The tally
    maps each distinct verdict row, in order of first ordinal, to [count,
    first ordinal, listed]; only listed rows, those with a violation or
    with an exception when those are collected, are read label by label
    per candidate."""
    labels = [label for label, _, _ in items]
    listed = {VIOLATED, EXCEPTION} if collect_exceptions else {VIOLATED}
    tally: Dict[tuple, list] = {}
    violations: List[Tuple[str, int, str]] = []
    exceptions: Dict[str, List[int]] = {label: [] for label in labels} \
        if collect_exceptions else {}
    for ordinal, row in _outcomes(space, items, start, stop):
        entry = tally.get(row)
        if entry is None:
            entry = tally[row] = [0, ordinal, not listed.isdisjoint(row)]
        entry[0] += 1
        if entry[2]:
            for label, verdict in zip(labels, row):
                if verdict == VIOLATED:
                    violations.append((label, ordinal, space.literal_at(ordinal)))
                elif verdict == EXCEPTION and collect_exceptions:
                    exceptions[label].append(ordinal)
    return tally, violations, exceptions


def sweep(space: SearchSpace, checks: Sequence[str], *, k: Optional[int] = None,
          eps=None, jobs: int = 1, collect_exceptions: bool = False) -> SweepResult:
    """Evaluate the named checks over every candidate in the space.

    Deterministic for a fixed space: counts, violation witnesses and the
    first equality witness per check do not depend on the job count.
    """
    items = _check_items(space, checks, k, eps)
    total = space.candidate_count
    # one chunk per worker, and no more workers than CPUs
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1 or total < 4096:
        parts = [_run_range(space, items, 0, total, collect_exceptions)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunk = -(-total // workers)
        starts = range(0, total, chunk)
        stops = [min(a + chunk, total) for a in starts]
        # the space pickles as it is: its alphabet's CycNums reduce to _make
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_range, repeat(space), repeat(items), starts, stops,
                                  repeat(collect_exceptions)))
    labels = [label for label, _, _ in items]
    # the parts run in ordinal order, so merged rows keep first-ordinal order
    tally: Dict[tuple, list] = {}
    violations: List[Tuple[str, int, str]] = []
    exceptions: Dict[str, List[int]] = {label: [] for label in labels}
    for part_tally, part_viol, part_exc in parts:
        for row, (count, first, listed) in part_tally.items():
            tally.setdefault(row, [0, first, listed])[0] += count
        violations.extend(part_viol)
        for label, ords in part_exc.items():
            exceptions[label].extend(ords)
    counts = {label: Counter() for label in labels}
    first_equality: Dict[str, int] = {}
    for row, (count, first, _) in tally.items():
        for label, verdict in zip(labels, row):
            counts[label][verdict] += count
            if verdict == EQUALITY:
                first_equality.setdefault(label, first)
    return SweepResult(
        space=space.describe(),
        checks=tuple(labels),
        counts={label: dict(c) for label, c in counts.items()},
        violations=violations,
        equality_witnesses={label: (ordinal, space.literal_at(ordinal))
                            for label, ordinal in first_equality.items()},
        exception_ordinals=exceptions if collect_exceptions else None,
        n_candidates=total,
        n_nonzero=sum(count for count, _, _ in tally.values()),
    )


# -- frontier ---------------------------------------------------------------------


class FrontierMap(NamedTuple):
    """The attained (|S|, |X|) pairs of a space, each with its first witness."""

    space: dict
    attained: Dict[Tuple[int, int], Tuple[int, str]]

    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self.attained))

    def to_csv(self) -> str:
        lines = ["S_size,X_size,witness_literal"]
        for (s, x) in self.pairs():
            _, literal = self.attained[(s, x)]
            lines.append(f'{s},{x},"{literal}"')
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "space": self.space,
            "attained": [
                {"S_size": s, "X_size": x, "ordinal": o, "witness": w}
                for (s, x), (o, w) in sorted(self.attained.items())
            ],
        }


def frontier(space: SearchSpace) -> FrontierMap:
    """Map every attained (|S|, |X|) pair, keeping the first witness found."""
    attained: Dict[Tuple[int, int], Tuple[int, str]] = {}
    for ordinal, s_mask, x_mask in _candidates(space, 0, space.candidate_count):
        key = (s_mask.bit_count(), x_mask.bit_count())
        if key not in attained:
            attained[key] = (ordinal, space.literal_at(ordinal))
    return FrontierMap(space=space.describe(), attained=attained)


# -- hunting -----------------------------------------------------------------------


class HuntResult(NamedTuple):
    check: str
    witness_ordinal: Optional[int]
    witness_literal: Optional[str]
    n_checked: int
    counts: Dict[str, int]
    clause_count: int
    clause_ordinals: List[int]

    @property
    def found(self) -> bool:
        return self.witness_ordinal is not None

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "witness": None if not self.found else
            {"ordinal": self.witness_ordinal, "literal": self.witness_literal},
            "checked": self.n_checked,
            "counts": dict(self.counts),
            "cover_clause_cases": self.clause_count,
            "cover_clause_ordinals": self.clause_ordinals,
        }


#: the most cover-clause ordinals a hunt lists; it counts the rest
CLAUSE_CAP = 100


def hunt(name: str, space: SearchSpace, *, k: Optional[int] = None, eps=None) -> HuntResult:
    """Scan the space for the first genuine violation of one check.

    For the checks with a cover clause (conjecture and roots) the
    escape-clause cases, whose supports are coverable by few lines, are
    counted separately and never claimed as violations: there every
    exception is a clause case.
    """
    items = _check_items(space, [name], k, eps)
    label = items[0][0]
    cover_clause = bounds.CHECKS[name].cover_clause
    counts: Counter = Counter()
    clause_ordinals: List[int] = []
    clause_count = 0
    n_checked = 0
    for ordinal, (verdict,) in _outcomes(space, items, 0, space.candidate_count):
        n_checked += 1
        counts[verdict] += 1
        if verdict == EXCEPTION and cover_clause:
            clause_count += 1
            if len(clause_ordinals) < CLAUSE_CAP:
                clause_ordinals.append(ordinal)
        if verdict == VIOLATED:
            return HuntResult(label, ordinal, space.literal_at(ordinal), n_checked,
                              dict(counts), clause_count, clause_ordinals)
    return HuntResult(label, None, None, n_checked, dict(counts),
                      clause_count, clause_ordinals)
