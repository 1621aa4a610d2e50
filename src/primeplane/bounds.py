"""Support pairs, the support-size bound evaluators with their
exception detection, and the structure classifier that recovers the
explicit shape of every exceptional function.

All verdicts come from integer comparisons: a fractional bound is
compared by cross-multiplying, and the irrational ones (square roots,
p^(3/2), p^(4/3)) by comparing integer powers.  Each check decides its
verdict in one place, its `decide`; the Fraction values of a BoundReport
are built around that verdict, only where a report is printed.  A check
never reports "violated" for a function falling in the stated exception
class of its bound: the structural test runs first.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .cyclotomic import CycNum, format_value
from .fourier import (
    GFunc,
    double_transform,
    fourier_transform,
    inverse_transform,
    line_sums,
    twist,
)
from .plane import (
    DUAL,
    PRIMAL,
    Coset,
    LineSubgroup,
    Point,
    PointSet,
    _Record,
    canonical_two_line_pair,
    coset_from_id,
    covered_by_lines,
    line_intersection,
    min_line_cover,
    orthogonal_directions,
)

HOLDS = "holds"
EQUALITY = "holds-with-equality"
EXCEPTION = "exception"
VIOLATED = "violated"


# -- support pair ------------------------------------------------------------


#: the most point sets SupportPair.from_masks keeps with their censuses
_POINT_SETS = 16
_point_set = lru_cache(maxsize=_POINT_SETS)(PointSet)


class SupportPair(NamedTuple):
    """The pair (supp f, supp of the transform) that every check decides from.

    A pair holds the two masks and their sizes, and each check reads the
    sizes first: an exception can hold only in a narrow window of sizes,
    so most candidates are decided without a point set.  S and X are
    built only when a check reads them, as rank-2 PointSets (None at rank
    1, where checks read only the sizes), and taken from a cache of the
    _POINT_SETS most recently used sets, so a transform support that
    recurs across candidates keeps its line census.  A set counts its
    lines once, on its first read of `PointSet.line_counts` or
    `PointSet.line_profile`.  `covers` holds the exact minimum line covers
    of S and X where a caller has computed them.
    """

    p: int
    rank: int
    s_mask: int
    x_mask: int
    s_size: int
    x_size: int
    rational: bool
    covers: Optional[Tuple[int, int]] = None

    @classmethod
    def from_masks(cls, p: int, rank: int, s_mask: int, x_mask: int,
                   rational: bool) -> "SupportPair":
        return cls(p, rank, s_mask, x_mask, s_mask.bit_count(), x_mask.bit_count(), rational)

    @property
    def S(self) -> Optional[PointSet]:
        return _point_set(self.p, PRIMAL, self.s_mask) if self.rank == 2 else None

    @property
    def X(self) -> Optional[PointSet]:
        return _point_set(self.p, DUAL, self.x_mask) if self.rank == 2 else None

    def covered(self, side: str, b: int) -> bool:
        """True iff b lines cover S (primal) or X (dual): read from the
        exact covers when they are known, and otherwise decided by the
        search bounded at b lines, which costs far less than finding the
        minimum cover."""
        if self.covers is not None:
            return self.covers[side == DUAL] <= b
        return covered_by_lines(self.S if side == PRIMAL else self.X, b)


# -- reports -----------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, CycNum):
        return format_value(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(_jsonable(v) for v in obj)
    return obj


class BoundReport(_Record):
    """One check's verdict on one function, with the two sides of its
    inequality; verify sets the witness or the exception structure after
    the verdict, and adds to `details`, which defaults to a new dict."""

    __slots__ = _fields = ("theorem", "verdict", "lhs", "rhs", "exception", "witness",
                           "details")
    _values = property(attrgetter(*_fields))

    def __init__(self, theorem: str, verdict: str, lhs: Fraction, rhs: Fraction,
                 exception: Optional["ExceptionDescriptor"] = None,
                 witness: Optional[GFunc] = None, details: Optional[dict] = None):
        self.theorem = theorem
        self.verdict = verdict
        self.lhs = lhs
        self.rhs = rhs
        self.exception = exception
        self.witness = witness
        self.details = {} if details is None else details

    def to_json(self) -> dict:
        out = {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }
        if self.exception is not None:
            out["exception"] = self.exception.to_json()
        if self.witness is not None:
            out["witness"] = self.witness.to_literal()
        if self.details:
            out["details"] = _jsonable(self.details)
        return out


def _ineq_verdict(lhs, rhs, den=1) -> str:
    if lhs == rhs:
        return EQUALITY
    return HOLDS if lhs > rhs else VIOLATED


# -- exception structure -------------------------------------------------------


KIND_SINGLE_COSET_CHARACTER = "single-coset-character"
KIND_TWO_CHARACTERS_ONE_COSET = "two-characters-one-coset"
KIND_CHARACTERS_ON_ONE_COSET = "characters-on-one-coset"
KIND_H_PERIODIC = "H-periodic"
KIND_ONE_CHARACTER_TWO_COSETS = "one-character-two-cosets"
KIND_CHARACTER_ON_COSETS = "character-on-cosets"
KIND_TWO_PARALLEL = "two-parallel-lines"
KIND_TWO_NONPARALLEL = "two-nonparallel-lines"


class ExceptionDescriptor(NamedTuple):
    """Explicit structure of a function whose support or transform
    support is covered by at most two lines.

    cover_side records where the line cover lives: "dual" means the
    lines cover the transform support (the descriptor rebuilds f
    directly), "primal" means they cover supp f (the descriptor rebuilds
    the transform, and reconstruction inverts it).
    """

    kind: str
    p: int
    cover_side: str = DUAL
    direction: Optional[int] = None
    directions: Tuple[int, ...] = ()
    offsets: Tuple[Point, ...] = ()
    characters: Tuple[Point, ...] = ()
    coefficients: Tuple[CycNum, ...] = ()
    components: Tuple[GFunc, ...] = ()
    details: Tuple[Tuple[str, object], ...] = ()

    def reconstruct(self) -> GFunc:
        p = self.p
        if self.kind in (KIND_TWO_PARALLEL, KIND_TWO_NONPARALLEL):
            if self.kind == KIND_TWO_PARALLEL:
                (comp1, comp2), (chi1, chi2) = self.components, self.characters
                func = twist(comp1, chi1.index) + twist(comp2, chi2.index)
            else:
                func = twist(_two_line_sum(p, self.directions, *self.components),
                             self.characters[0].index)
            return inverse_transform(func) if self.cover_side == PRIMAL else func
        if self.kind in (KIND_SINGLE_COSET_CHARACTER, KIND_TWO_CHARACTERS_ONE_COSET,
                         KIND_CHARACTERS_ON_ONE_COSET):
            # one coset carrying several characters
            triples = [(self.offsets[0], chi, c)
                       for chi, c in zip(self.characters, self.coefficients)]
        elif self.kind in (KIND_H_PERIODIC, KIND_ONE_CHARACTER_TWO_COSETS,
                           KIND_CHARACTER_ON_COSETS):
            # one character on several cosets; an H-periodic function is
            # the principal character on its cosets
            chi = self.characters[0] if self.characters else Point(p, 0, 0, DUAL)
            triples = [(g, chi, c) for g, c in zip(self.offsets, self.coefficients)]
        else:
            raise ValueError(f"unknown descriptor kind {self.kind!r}")
        out = [CycNum.zero(p)] * (p * p)
        sub = LineSubgroup(p, self.direction, PRIMAL)
        for g, chi, c in triples:
            for z in Coset.through(g, sub).members():
                out[z.index] = out[z.index] + c.times_root(chi.pair(z))
        return GFunc(p, 2, PRIMAL, out)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "p": self.p, "cover_side": self.cover_side}
        if self.direction is not None:
            out["direction"] = self.direction
        if self.directions:
            out["directions"] = list(self.directions)
        if self.offsets:
            out["offsets"] = [[g.x, g.y] for g in self.offsets]
        if self.characters:
            out["characters"] = [[c.x, c.y] for c in self.characters]
        if self.coefficients:
            out["coefficients"] = [format_value(c) for c in self.coefficients]
        if self.components:
            out["components"] = [comp.to_literal() for comp in self.components]
        if self.details:
            out["details"] = _jsonable(dict(self.details))
        return out


def _two_line_sum(p: int, directions: Tuple[int, ...], f1: GFunc, f2: GFunc) -> GFunc:
    """The rank-2 function t1*gen1 + t2*gen2 -> f1(t1) + f2(t2) on the side
    of the rank-1 f1 and f2, gen_i generating the line subgroup of the i-th
    direction; the two directions differ, so each point is hit once."""
    (x1, y1), (x2, y2) = ((g.x, g.y) for g in
                          (LineSubgroup(p, d, f1.side).generator for d in directions))
    vals = [None] * (p * p)
    for t1, v1 in enumerate(f1.values):
        for t2, v2 in enumerate(f2.values):
            vals[(t1 * x1 + t2 * x2) % p * p + (t1 * y1 + t2 * y2) % p] = v1 + v2
    return GFunc(p, 2, f1.side, vals)


def _line_direction_containing(P: PointSet) -> Optional[int]:
    """Least direction whose single line contains P, or None."""
    return next((d for d, counts in enumerate(P.line_counts) if P.size in counts), None)


def _full_lines(P: PointSet, direction: int) -> Optional[List[int]]:
    """Coset ids of the direction's lines when P is exactly a union of
    full lines in that direction, else None."""
    ids = [j for j, c in enumerate(P.line_counts[direction]) if c == P.p]
    return ids if len(ids) * P.p == P.size else None


def _full_line_split(P: PointSet, direction: int) -> List[int]:
    """Coset ids of the direction's lines meeting P; raises if P is not
    an exact union of full lines (which the coset lemmas guarantee)."""
    ids = _full_lines(P, direction)
    if ids is None:
        raise RuntimeError("support is not a union of full lines as the lemma requires")
    return ids


def _classify_one_primal_line(f: GFunc, fhat: GFunc, S: PointSet, X: PointSet,
                              d: int) -> ExceptionDescriptor:
    p = f.p
    g0 = Point.from_index(p, (S.mask & -S.mask).bit_length() - 1)
    coset = Coset.through(g0, LineSubgroup(p, d, PRIMAL))
    od = orthogonal_directions(p)[d]
    ids = _full_line_split(X, od)
    chars = tuple(coset_from_id(p, od, j, DUAL).rep for j in ids)
    coeffs = tuple(fhat.value(chi) * p for chi in chars)
    if any(c.is_zero() for c in coeffs):
        raise RuntimeError("vanishing coefficient in a coset-character recovery")
    kind = {1: KIND_SINGLE_COSET_CHARACTER, 2: KIND_TWO_CHARACTERS_ONE_COSET}.get(
        len(chars), KIND_CHARACTERS_ON_ONE_COSET)
    return ExceptionDescriptor(kind=kind, p=p, cover_side=DUAL, direction=d,
                               offsets=(coset.rep,), characters=chars, coefficients=coeffs)


def _classify_one_dual_line(f: GFunc, S: PointSet, X: PointSet, e: int) -> ExceptionDescriptor:
    p = f.p
    chi = coset_from_id(p, e, X.line_counts[e].index(X.size), DUAL).rep
    d = orthogonal_directions(p)[e]
    ids = _full_line_split(S, d)
    offsets = tuple(coset_from_id(p, d, j, PRIMAL).rep for j in ids)
    if chi.is_origin():
        coeffs = tuple(f.value(g) for g in offsets)
        return ExceptionDescriptor(kind=KIND_H_PERIODIC, p=p, cover_side=DUAL, direction=d,
                                   offsets=offsets, coefficients=coeffs)
    coeffs = tuple(f.value(g).times_root(-chi.pair(g)) for g in offsets)
    kind = KIND_ONE_CHARACTER_TWO_COSETS if len(offsets) == 2 else KIND_CHARACTER_ON_COSETS
    return ExceptionDescriptor(kind=kind, p=p, cover_side=DUAL, direction=d,
                               offsets=offsets, characters=(chi,), coefficients=coeffs)


def _classify_two_lines(func: GFunc, hat: GFunc, Xs: PointSet,
                        cover_side: str) -> Optional[ExceptionDescriptor]:
    """Structure of `func` whose transform support is covered by two lines;
    `hat` must be the transform of `func` and `Xs` its support.  The
    descriptor is not rebuilt here: classify_exception checks it once."""
    p = func.p
    pair = canonical_two_line_pair(Xs)
    if pair is None:
        return None
    (d1, j1), (d2, j2) = pair
    hat_side, func_side = hat.side, func.side
    if d1 == d2:
        prim_dir = orthogonal_directions(p)[d1]
        chi1 = coset_from_id(p, d1, j1, hat_side).rep
        chi2 = coset_from_id(p, d2, j2, hat_side).rep
        # <gen, g> is constant on the lines of prim_dir; read it as in twist
        a, b = divmod(LineSubgroup(p, d1, hat_side).generator.index, p)
        comps = []
        for chi in (chi1, chi2):
            sums = line_sums(hat, chi, d1)
            comps.append(GFunc(p, 2, func_side,
                               [sums[(a * (g // p) + b * g) % p] for g in range(p * p)]))
        n_union = (comps[0].support_mask | comps[1].support_mask).bit_count()
        s = func.support_size
        if not (n_union * (p - 1) <= s * p and s <= n_union):
            raise RuntimeError("two-parallel support sandwich failed")
        return ExceptionDescriptor(kind=KIND_TWO_PARALLEL, p=p, cover_side=cover_side,
                                   direction=prim_dir, characters=(chi1, chi2),
                                   components=tuple(comps),
                                   details=(("support_union", n_union),
                                            ("support_size", s)))
    # nonparallel pair
    chi0 = line_intersection(p, hat_side, (d1, j1), (d2, j2))
    orth = orthogonal_directions(p)
    dir1, dir2 = orth[d1], orth[d2]
    gen1 = LineSubgroup(p, dir1, func_side).generator
    gen2 = LineSubgroup(p, dir2, func_side).generator
    c1 = LineSubgroup(p, d2, hat_side).generator.pair(gen1)
    c2 = LineSubgroup(p, d1, hat_side).generator.pair(gen2)
    sums1, sums2 = line_sums(hat, chi0, d1), line_sums(hat, chi0, d2)
    # chi0 itself is summed once, into the second component
    h0 = hat.value(chi0)
    f1_vals = [sums2[t * c1 % p] - h0 for t in range(p)]
    f2_vals = [sums1[t * c2 % p] for t in range(p)]
    s = func.support_size
    details: List[Tuple[str, object]] = []
    if 2 * s < p * p:
        # the most frequent value, ties broken by first occurrence
        shift = Counter(f1_vals).most_common(1)[0][0]
        f1_vals = [v - shift for v in f1_vals]
        f2_vals = [v + shift for v in f2_vals]
        # zero must be among the most frequent values of the second component
        counts = Counter(f2_vals)
        if counts[CycNum.zero(p)] != counts.most_common(1)[0][1]:
            raise RuntimeError("nonparallel translation did not zero the frequent value")
        n1 = sum(1 for v in f1_vals if not v.is_zero())
        n2 = sum(1 for v in f2_vals if not v.is_zero())
        middle = p * n1 + p * n2
        if not (s <= middle and Fraction(middle) <= s + Fraction(2 * s * s, p * p)):
            raise RuntimeError("two-nonparallel support sandwich failed")
        details = [("component_supports", (n1, n2)), ("support_size", s)]
    comps = (GFunc(p, 1, func_side, f1_vals), GFunc(p, 1, func_side, f2_vals))
    return ExceptionDescriptor(kind=KIND_TWO_NONPARALLEL, p=p, cover_side=cover_side,
                               directions=(dir1, dir2), characters=(chi0,),
                               components=comps, details=tuple(details))


def classify_exception(f: GFunc, fhat: Optional[GFunc] = None,
                       pair: Optional[SupportPair] = None) -> Optional[ExceptionDescriptor]:
    """Recover the explicit structure of f when supp f or supp of the
    transform fits in one line or in a union of two lines; None otherwise.

    Priorities: one-line covers first, then two parallel lines, then two
    nonparallel ones; transform-side covers are preferred to function-side
    covers.  The returned descriptor always reconstructs f exactly; an
    internal invariant failure raises RuntimeError naming f's literal.
    `fhat`, when given, must be f's transform; otherwise it is taken here.
    `pair`, when given, must be the SupportPair of f and fhat, whose point
    sets (and their line census) are then reused rather than rebuilt.
    """
    if f.rank != 2 or f.side != PRIMAL:
        raise ValueError("classification requires a rank-2 primal function")
    if f.is_zero_function():
        raise ValueError("zero function cannot be classified")
    try:
        if fhat is None:
            fhat = fourier_transform(f)
        S, X = (f.support(), fhat.support()) if pair is None else (pair.S, pair.X)
        desc = _classify(f, fhat, S, X)
        if desc is not None:
            _verify_reconstruction(desc, f)
        return desc
    except RuntimeError as exc:
        raise RuntimeError(f"{exc} (function {f.to_literal()})") from exc


def _classify(f: GFunc, fhat: GFunc, S: PointSet, X: PointSet) -> Optional[ExceptionDescriptor]:
    # periodicity first: the transform support sits on a dual line through
    # the origin exactly when f is constant on the cosets of one direction
    e = _line_direction_containing(X)
    if e is not None and X.line_counts[e][0] == X.size:
        return _classify_one_dual_line(f, S, X, e)
    d = _line_direction_containing(S)
    if d is not None:
        return _classify_one_primal_line(f, fhat, S, X, d)
    if e is not None:
        return _classify_one_dual_line(f, S, X, e)
    desc = _classify_two_lines(f, fhat, X, cover_side=DUAL)
    if desc is None:
        ffhat = double_transform(f)
        desc = _classify_two_lines(fhat, ffhat, ffhat.support(), cover_side=PRIMAL)
    return desc


def _verify_reconstruction(desc: ExceptionDescriptor, f: GFunc):
    if desc.reconstruct() != f:
        raise RuntimeError(f"descriptor {desc.kind} failed to reconstruct the function")


# -- structural predicates shared by the evaluators ------------------------------


def _periodic_directions(p: int, X: PointSet) -> List[int]:
    """Primal directions d whose orthogonal dual subgroup contains X,
    i.e. the function is constant on the d-direction cosets."""
    size, counts = X.size, X.line_counts
    return [d for d, od in enumerate(orthogonal_directions(p)) if counts[od][0] == size]


def _orthogonal_coset_pair(p: int, S: PointSet, X: PointSet) -> Optional[Tuple[int, int]]:
    """(d, orth(d)) when S is exactly one d-line and X exactly one line
    in the orthogonal direction."""
    if S.size != p or X.size != p:
        return None
    s_counts, x_counts = S.line_counts, X.line_counts
    for d, od in enumerate(orthogonal_directions(p)):
        if p in s_counts[d] and p in x_counts[od]:
            return d, od
    return None


def _near_coset_pair(p: int, small: PointSet, large: PointSet) -> Optional[dict]:
    """small sits inside one line with at most one point missing, and
    large is exactly a union of one or two lines in the orthogonal
    direction.  A set of more than p points lies in no line."""
    size = small.size
    if not p - 1 <= size <= p:
        return None
    for d, (counts, od) in enumerate(zip(small.line_counts, orthogonal_directions(p))):
        if size in counts:
            ids = _full_lines(large, od)
            if ids is not None and len(ids) <= 2:
                return {"small_direction": d, "large_direction": od, "large_cosets": ids}
    return None


def _coset_pair_exception(p: int, S: PointSet, X: PointSet) -> Optional[dict]:
    """The near-coset structure for whichever of S, X is smallest; on a
    tie both assignments are tried."""
    if S.size <= X.size:
        found = _near_coset_pair(p, S, X)
        if found is None and S.size == X.size:
            found = _near_coset_pair(p, X, S)
        return found
    return _near_coset_pair(p, X, S)


# -- decisions and reports -----------------------------------------------------------
# Each check states its inequality once, as an integer triple (lhs, rhs, den)
# with den > 0: its decide(pair, param) compares lhs with rhs, and its
# report(pair, param, verdict) prints lhs/den and rhs/den in verify's
# BoundReport around that verdict.  k and eps arrive admitted by
# CheckSpec.admit below.


def _fractions(ineq: Tuple[int, int, int]) -> Tuple[Fraction, Fraction]:
    lhs, rhs, den = ineq
    return Fraction(lhs, den), Fraction(rhs, den)


def _report(name: str, verdict: str, ineq: Tuple[int, int, int], **details) -> BoundReport:
    return BoundReport(name, verdict, *_fractions(ineq), details=details)


def _either_covered(pair: SupportPair, b: int) -> bool:
    """The cover clause: S or X is covered by b lines."""
    return pair.covered(PRIMAL, b) or pair.covered(DUAL, b)


def _product(pair: SupportPair, n: int) -> Tuple[int, int, int]:
    """|S||X| >= n."""
    return pair.s_size * pair.x_size, n, 1


def _linear(pair: SupportPair, k: int) -> Tuple[int, int, int]:
    """The paper's family lo/k + hi/(p+1-k) >= p + 1, times k(p+1-k).  The
    named checks take k = 1 (meshulam), 2 (rational), p-2 (kp2), p-1 (kp1)."""
    p, lo, hi = pair.p, pair.s_size, pair.x_size
    if lo > hi:
        lo, hi = hi, lo
    j = p + 1 - k
    return lo * j + hi * k, (p + 1) * k * j, k * j


def _birotao(pair: SupportPair) -> Tuple[int, int, int]:
    """|S| + |X| >= p + 1."""
    return pair.s_size + pair.x_size, pair.p + 1, 1


def _roots(pair: SupportPair) -> Tuple[int, int, int]:
    """sqrt|S| + sqrt|X| >= p + 1: with t = (p+1)^2 - |S| - |X| >= 0 that is
    4|S||X| >= t^2, and for t < 0 it holds as |S| + |X| > (p+1)^2."""
    a, b, c = pair.s_size, pair.x_size, pair.p + 1
    t = c * c - a - b
    return (4 * a * b, t * t, 1) if t >= 0 else (a + b, c * c, 1)


def _kp2_min(pair: SupportPair) -> Tuple[int, int, int]:
    """kp2's min branch: lo >= 3(p-1)/2."""
    return 2 * min(pair.s_size, pair.x_size), 3 * (pair.p - 1), 2


def decide_product(pair: SupportPair, param=None) -> str:
    return _ineq_verdict(*_product(pair, pair.p**pair.rank))


def decide_birotao(pair: SupportPair, param=None) -> str:
    return _ineq_verdict(*_birotao(pair))


def decide_meshulam(pair: SupportPair, param=None) -> str:
    return _ineq_verdict(*_linear(pair, 1))


def decide_rational(pair: SupportPair, param=None) -> str:
    # k = 2, except H-periodic f
    if not pair.rational:
        raise ValueError("the rational bound requires a rational-valued function")
    # a periodic X lies in one line: at most p points
    if pair.x_size <= pair.p and _periodic_directions(pair.p, pair.X):
        return EXCEPTION
    return _ineq_verdict(*_linear(pair, 2))


def report_rational(pair: SupportPair, param, verdict: str) -> BoundReport:
    p, X, ineq = pair.p, pair.X, _linear(pair, 2)
    if verdict != EXCEPTION:
        return _report("rational", verdict, ineq)
    # X lies in the orthogonal subgroup, so its size tells which part it is
    if X.mask == 1:
        matches = True
        note = "constant function; transform support is the principal character"
    elif X.mask & 1:
        matches = X.size == p
        note = "nonzero value sum; expected the full orthogonal subgroup"
    else:
        matches = X.size == p - 1
        note = "zero value sum; expected the punctured orthogonal subgroup"
    return _report("rational", EXCEPTION, ineq, periodic_directions=_periodic_directions(p, X),
                   stated_support_matches=matches, note=note)


def decide_kp1(pair: SupportPair, param=None) -> str:
    # k = p - 1, except orthogonal coset pairs, whose sides are lines
    p = pair.p
    if pair.s_size == pair.x_size == p and _orthogonal_coset_pair(p, pair.S, pair.X) is not None:
        return EXCEPTION
    return _ineq_verdict(*_linear(pair, p - 1))


def report_kp1(pair: SupportPair, param, verdict: str) -> BoundReport:
    ineq = _linear(pair, pair.p - 1)
    if verdict != EXCEPTION:
        return _report("kp1", verdict, ineq)
    directions = _orthogonal_coset_pair(pair.p, pair.S, pair.X)
    return _report("kp1", EXCEPTION, ineq, orthogonal_pair_directions=list(directions))


def _near_coset(pair: SupportPair) -> bool:
    """The near-coset exception of kp2 and product3; its smaller side lies
    in one line with at most one point missing, so p - 1 <= min <= p."""
    p = pair.p
    return p - 1 <= min(pair.s_size, pair.x_size) <= p and \
        _coset_pair_exception(p, pair.S, pair.X) is not None


def decide_kp2(pair: SupportPair, param=None) -> str:
    # k = p - 2, else the min branch, except near-coset structure
    if _near_coset(pair):
        return EXCEPTION
    primary = _ineq_verdict(*_linear(pair, pair.p - 2))
    return primary if primary != VIOLATED else _ineq_verdict(*_kp2_min(pair))


def report_kp2(pair: SupportPair, param, verdict: str) -> BoundReport:
    ineq = _linear(pair, pair.p - 2)
    if verdict == EXCEPTION:
        return _report("kp2", EXCEPTION, ineq,
                       structure=_coset_pair_exception(pair.p, pair.S, pair.X))
    alt = _kp2_min(pair)
    details = dict(zip(("min_branch_lhs", "min_branch_rhs"), _fractions(alt)))
    if verdict != VIOLATED and ineq[0] < ineq[1]:
        # the min branch decided
        ineq = alt
    return _report("kp2", verdict, ineq, **details)


def decide_product3(pair: SupportPair, param=None) -> str:
    # |S||X| >= 3p(p-2), except m <= 2 or near-coset structure
    if min(pair.s_size, pair.x_size) <= 2 or _near_coset(pair):
        return EXCEPTION
    p = pair.p
    return _ineq_verdict(*_product(pair, 3 * p * (p - 2)))


def report_product3(pair: SupportPair, param, verdict: str) -> BoundReport:
    p = pair.p
    details = {}
    if p == 3:
        details["advisory"] = "stated for p > 3; at p = 3 the bound equals p^2"
    if verdict == EXCEPTION:
        if min(pair.s_size, pair.x_size) <= 2:
            details["reason"] = "min support size at most 2"
        else:
            details["structure"] = _coset_pair_exception(p, pair.S, pair.X)
    return _report("product3", verdict, _product(pair, 3 * p * (p - 2)), **details)


def decide_conjecture(pair: SupportPair, k: int) -> str:
    # any k, except a support covered by fewer than min(k, p+1-k) lines,
    # searched only when the inequality fails
    verdict = _ineq_verdict(*_linear(pair, k))
    if verdict == VIOLATED and _either_covered(pair, min(k, pair.p + 1 - k) - 1):
        return EXCEPTION
    return verdict


def report_conjecture(pair: SupportPair, k: int, verdict: str) -> BoundReport:
    threshold = min(k, pair.p + 1 - k)
    return _report("conjecture", verdict, _linear(pair, k), k=k, cover_threshold=threshold,
                   cover_clause_applies=_either_covered(pair, threshold - 1))


def decide_roots(pair: SupportPair, param=None) -> str:
    verdict = _ineq_verdict(*_roots(pair))
    if verdict == VIOLATED and _either_covered(pair, (pair.p - 1) // 2):
        return EXCEPTION
    return verdict


def report_roots(pair: SupportPair, param, verdict: str) -> BoundReport:
    a, b = pair.s_size, pair.x_size
    return _report("roots", verdict, _roots(pair), S_size=a, X_size=b,
                   cover_clause_applies=_either_covered(pair, (pair.p - 1) // 2),
                   squared_compare=a + b <= (pair.p + 1)**2)


class _Asym(NamedTuple):
    """min >= coefficient (1-eps) p or max >= (eps/divisor) p^(num/den),
    except when the min-side support sits inside cover_lines lines."""

    name: str
    coefficient: int
    num: int
    den: int
    divisor: int
    cover_lines: int
    advisory_below: Optional[int]

    def branches(self, pair: SupportPair, eps: Fraction) -> Tuple[tuple, tuple]:
        p, (lo, hi) = pair.p, sorted((pair.s_size, pair.x_size))
        a, b = eps.numerator, eps.denominator
        # hi >= (a / c) p^(num/den)  <=>  (hi c)^den >= a^den p^num, c = b divisor
        c = b * self.divisor
        return ((lo * b, self.coefficient * (b - a) * p, b),
                ((hi * c)**self.den, a**self.den * p**self.num, c**self.den))

    def decide(self, pair: SupportPair, eps: Fraction) -> str:
        # the exception outranks the inequality, so its cover test comes first
        lo = min(pair.s_size, pair.x_size)
        for side, size in ((PRIMAL, pair.s_size), (DUAL, pair.x_size)):
            if size == lo and pair.covered(side, self.cover_lines):
                return EXCEPTION
        first, second = self.branches(pair, eps)
        verdict = _ineq_verdict(*first)
        return verdict if verdict != VIOLATED else _ineq_verdict(*second)

    def report(self, pair: SupportPair, eps: Fraction, verdict: str) -> BoundReport:
        details = {"epsilon": eps}
        if self.advisory_below is not None and pair.p < self.advisory_below:
            details["advisory"] = f"stated for p >= {self.advisory_below}"
        ineq, second = self.branches(pair, eps)
        if verdict == EXCEPTION:
            details["reason"] = f"min-side support within {self.cover_lines} line(s)"
            return _report(self.name, EXCEPTION, ineq, **details)
        details["branch2_lhs"], details["branch2_rhs"] = _fractions(second)
        if verdict != VIOLATED and ineq[0] < ineq[1]:
            # the max branch decided
            ineq = second
        return _report(self.name, verdict, ineq, **details)


ASYM2 = _Asym("asym2", coefficient=2, num=3, den=2, divisor=1, cover_lines=1, advisory_below=31)
ASYM3 = _Asym("asym3", coefficient=3, num=4, den=3, divisor=6, cover_lines=2,
              advisory_below=None)


def decide_coset_counts(pair: SupportPair, H: Optional[LineSubgroup] = None) -> str:
    """The four met-line counting inequalities per direction (H's alone when
    given): K_X >= p+1-n_S, |X| >= n_X (p+1-n_S), and their mirrored forms.
    All hold exactly when the tightest does.  As |X| >= n_X K_X, the |X|
    inequality holds, strictly, wherever the K_X one does, strictly (and
    |S| likewise with K_S), so the tightest slack has the sign of the least
    K slack.  With z_S, z_X the lines that S and X miss (K = p - z), the K
    slacks are n_S - z_X - 1 and n_X - z_S - 1, read from the two sets'
    `line_profile`s."""
    dirs = range(pair.p + 1) if H is None else (H.direction,)
    orth = orthogonal_directions(pair.p)
    (n_S, z_S), (n_X, z_X) = pair.S.line_profile, pair.X.line_profile
    return _ineq_verdict(min(min(n_S[d] - z_X[orth[d]], n_X[orth[d]] - z_S[d]) for d in dirs), 1)


def report_coset_counts(pair: SupportPair, H: Optional[LineSubgroup], verdict: str) -> BoundReport:
    p, s_size, x_size = pair.p, pair.s_size, pair.x_size
    orth = orthogonal_directions(p)
    (least_S, empty_S), (least_X, empty_X) = pair.S.line_profile, pair.X.line_profile
    rows = []
    tightest = None
    for d in (range(p + 1) if H is None else (H.direction,)):
        n_S, K_S, n_X, K_X = least_S[d], p - empty_S[d], least_X[orth[d]], p - empty_X[orth[d]]
        for label, lhs, rhs in (("K_X", K_X, p + 1 - n_S), ("X", x_size, n_X * (p + 1 - n_S)),
                                ("K_S", K_S, p + 1 - n_X), ("S", s_size, n_S * (p + 1 - n_X))):
            slack = lhs - rhs
            if tightest is None or slack < tightest[0]:
                tightest = (slack, lhs, rhs)
            rows.append({"direction": d, "quantity": label, "lhs": lhs, "rhs": rhs,
                         "ok": slack >= 0})
    _, lhs, rhs = tightest
    return _report("coset-counts", verdict, (lhs, rhs, 1), inequalities=rows)


# -- the check registry ------------------------------------------------------------


def _grid_curve(label: str, p: int, x_of) -> Iterator[Tuple[str, int, str]]:
    """emit-curves rows (label, s, x) for x = x_of(s) >= 0 on 1 <= s <= p^2,
    one at a time."""
    for s in range(1, p * p + 1):
        x = x_of(s)
        if x >= 0:
            yield label, s, str(x)


def _linear_curve(label: str, p: int, k: int) -> Iterator[Tuple[str, int, str]]:
    """emit-curves rows of the family at k, x = (p+1-k)(p+1-s/k); none
    outside 1 <= k <= p."""
    if 1 <= k <= p:
        yield from _grid_curve(label, p, lambda s: (p + 1 - k) * (p + 1 - Fraction(s, k)))


class CheckSpec(NamedTuple):
    """One named support-size check.

    `decide(pair, param)` gives its verdict, in integer arithmetic, from a
    SupportPair and the admitted value of its one parameter, which `param`
    names: "k", "eps", "H" (an optional primal LineSubgroup) or None.
    `report(pair, param, verdict)` builds the BoundReport of that verdict.
    `rational` marks a check that needs a rational-valued function,
    `cover_clause` marks a check whose exception is a cover clause (verify
    then reports the exact covers, and hunt counts its exceptions), and
    `curve(p)` yields its emit-curves rows.  Verify's default run holds the
    checks with neither a parameter nor a cover clause, wherever rank, p
    and rationality allow.
    """

    name: str
    ranks: Tuple[int, ...]
    decide: Callable[[SupportPair, object], str]
    report: Callable[[SupportPair, object, str], BoundReport]
    min_p: int = 2
    param: Optional[str] = None
    rational: bool = False
    cover_clause: bool = False
    curve: Optional[Callable[[int], Iterator[Tuple[str, int, str]]]] = None

    def admit(self, p: int, value):
        """The check's parameter parsed from `value` and range-checked for
        prime p, or `value` itself for a check without one; raises
        ValueError when the check is not stated at p or lacks its parameter."""
        if p < self.min_p:
            raise ValueError(f"the {self.name} check is stated for p >= {self.min_p}")
        if self.param == "H":
            if value is None or (isinstance(value, LineSubgroup) and value.side == PRIMAL
                                 and value.p == p):
                return value
            raise ValueError(f"H must be None or a primal LineSubgroup at p = {p}, got {value!r}")
        if self.param is None:
            return value
        if value is None:
            raise ValueError(f"the {self.name} check requires {self.param}")
        if self.param == "k":
            if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= p:
                raise ValueError(f"k must be an integer in [1, {p}], got {value!r}")
            return value
        try:
            eps = Fraction(value)
        except ZeroDivisionError as exc:
            raise ValueError(f"epsilon {value!r} has a zero denominator") from exc
        if not 0 < eps < 1:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        return eps


#: every named check, in emit-curves order
CHECKS: Dict[str, CheckSpec] = {spec.name: spec for spec in (
    CheckSpec("product", (1, 2), decide_product,
              lambda pair, _, v: _report("product", v, _product(pair, pair.p**pair.rank)),
              curve=lambda p: _grid_curve("product", p, lambda s: Fraction(p * p, s))),
    CheckSpec("birotao", (1,), decide_birotao,
              lambda pair, _, v: _report("birotao", v, _birotao(pair))),
    CheckSpec("meshulam", (2,), decide_meshulam,
              lambda pair, _, v: _report("meshulam", v, _linear(pair, 1)),
              curve=lambda p: _linear_curve("meshulam", p, 1)),
    CheckSpec("rational", (2,), decide_rational, report_rational, min_p=3, rational=True,
              curve=lambda p: _linear_curve("rational", p, 2)),
    CheckSpec("kp1", (2,), decide_kp1, report_kp1, min_p=3,
              curve=lambda p: _linear_curve("kp1", p, p - 1)),
    CheckSpec("kp2", (2,), decide_kp2, report_kp2, min_p=3,
              curve=lambda p: _linear_curve("kp2", p, p - 2)),
    CheckSpec("product3", (2,), decide_product3, report_product3, min_p=3,
              curve=lambda p: _grid_curve("product3", p,
                                          lambda s: Fraction(3 * p * (p - 2), s))),
    # (p + 1 - sqrt(s))^2 as a float; s <= p^2 keeps the root positive
    CheckSpec("roots", (2,), decide_roots, report_roots, cover_clause=True,
              curve=lambda p: _grid_curve("roots", p,
                                          lambda s: (p + 1 - s**0.5) * (p + 1 - s**0.5))),
    CheckSpec("conjecture", (2,), decide_conjecture, report_conjecture, param="k",
              cover_clause=True,
              curve=lambda p: (row for k in range(1, p + 1)
                               for row in _linear_curve(f"conjecture_k={k}", p, k))),
    CheckSpec("asym2", (2,), ASYM2.decide, ASYM2.report, param="eps"),
    CheckSpec("asym3", (2,), ASYM3.decide, ASYM3.report, param="eps"),
    # H, when given, restricts coset-counts to one direction
    CheckSpec("coset-counts", (2,), decide_coset_counts, report_coset_counts, param="H"),
)}


def spec_for(name: str, rank: int) -> CheckSpec:
    """The registered check, or ValueError when there is none at this rank."""
    spec = CHECKS.get(name)
    if spec is None or rank not in spec.ranks:
        raise ValueError(f"check {name!r} is not available at rank {rank}")
    return spec


def evaluate(name: str, pair: SupportPair, param=None) -> BoundReport:
    """The report of a named check on one support pair, around its
    verdict; `param` must already have passed the check's `admit`."""
    spec = spec_for(name, pair.rank)
    return spec.report(pair, param, spec.decide(pair, param))


# -- function-level route ------------------------------------------------------------


def verify(f: GFunc, checks: Sequence[Tuple[str, object]]) -> List[BoundReport]:
    """Decide each (name, param) check on one nonzero primal function, with
    one transform and at most one classification: every check reads one
    SupportPair.  Violations carry f as witness, rank-2 exceptions the
    classified structure (None when a cover-clause exception needs three or
    more lines), and cover-clause reports the exact covers cover_S and
    cover_X.  `param` is k, epsilon, or coset-counts' optional LineSubgroup.
    """
    if f.is_zero_function():
        raise ValueError("bounds are stated for nonzero functions")
    if f.side != PRIMAL:
        raise ValueError("bounds are stated for primal functions")
    specs = [(spec_for(name, f.rank), param) for name, param in checks]
    admitted = [(spec, spec.admit(f.p, param)) for spec, param in specs]
    fhat = fourier_transform(f)
    pair = SupportPair.from_masks(f.p, f.rank, f.support_mask, fhat.support_mask,
                                  f.is_rational_valued())
    if any(spec.cover_clause for spec, _ in admitted):
        # the reports print the exact covers, so every clause reads them
        pair = pair._replace(covers=(min_line_cover(pair.S), min_line_cover(pair.X)))
    reports = [spec.report(pair, param, spec.decide(pair, param)) for spec, param in admitted]
    structure = None
    if f.rank == 2 and any(r.verdict == EXCEPTION for r in reports):
        structure = classify_exception(f, fhat, pair)
    for (spec, _), report in zip(admitted, reports):
        if report.verdict == VIOLATED:
            report.witness = f
        elif report.verdict == EXCEPTION:
            report.exception = structure
        if spec.cover_clause:
            report.details.update(cover_S=pair.covers[0], cover_X=pair.covers[1])
    return reports


def check(name: str, f: GFunc, param=None) -> BoundReport:
    """verify() with one check: the function route of every named check,
    e.g. check("conjecture", f, 2) or check("asym2", f, Fraction(1, 2))."""
    return verify(f, [(name, param)])[0]
