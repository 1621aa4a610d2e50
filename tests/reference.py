"""Plain oracles for the tests: the proof's tools that the program itself
never runs, and the methods it never calls, written out once here so
that the tests can check the package's live routes through them.

They assume valid input and check none of it.  The transform is
normalized as in the package, hat(f)(w) = (1/|G|) sum_g f(g) conj(chi_w(g)).
The dual-side convolution deliberately carries no 1/|G| factor, while
the primal-side one does, so that hat(f1 * f2) = hat(f1) hat(f2) and
hat(f1 f2) = hat(f1) * hat(f2) hold with no rescaling.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from primeplane.bounds import (
    EXCEPTION,
    KIND_CHARACTER_ON_COSETS,
    KIND_CHARACTERS_ON_ONE_COSET,
    KIND_SINGLE_COSET_CHARACTER,
    KIND_TWO_NONPARALLEL,
    KIND_TWO_PARALLEL,
    ExceptionDescriptor,
    _coset_pair_exception,
    _orthogonal_coset_pair,
    _periodic_directions,
    spec_for,
)
from primeplane.cyclotomic import CycNum, _reduced_over
from primeplane.fourier import (
    GFunc,
    _at_multiple,
    _scaled_int_coeffs,
    fourier_transform,
    line_sums,
)
from primeplane.plane import (
    DUAL,
    PRIMAL,
    LineSubgroup,
    Point,
    PointSet,
    coset_from_id,
    opposite_side,
    orthogonal_direction,
    tables,
)


# -- methods the program never calls, written as functions ------------------------------


def galois(x, j):
    """x under the automorphism zeta -> zeta^j; j must be a unit mod p."""
    p = x.p
    j %= p
    if j == 0:
        raise ValueError("Galois exponent must be a unit modulo p")
    if j == 1:
        return x
    acc = [0] * p
    for t, c in enumerate(x.num):
        if c:
            acc[(j * t) % p] += c
    return _reduced_over(p, acc, x.den)


def cycnum_to_json(x):
    """Each coefficient as an exact 'num/den' string in lowest terms."""
    coeffs = []
    for c in x.num:
        g = gcd(c, x.den)
        coeffs.append(f"{c // g}/{x.den // g}")
    return {"p": x.p, "coeffs": coeffs}


def cycnum_from_json(obj):
    """The inverse of cycnum_to_json."""
    return CycNum(obj["p"], [Fraction(c) for c in obj["coeffs"]])


def gfunc_to_json(f):
    return {"p": f.p, "rank": f.rank, "side": f.side,
            "values": [cycnum_to_json(v) for v in f.values]}


def gfunc_from_json(obj):
    """The inverse of gfunc_to_json."""
    return GFunc(obj["p"], obj["rank"], obj["side"], [cycnum_from_json(v) for v in obj["values"]])


def delta(p, rank=2, at=0, side=PRIMAL):
    """1 at index `at`, 0 elsewhere."""
    values = [0] * p**rank
    values[at] = 1
    return GFunc(p, rank, side, values)


def constant(p, value, rank=2, side=PRIMAL):
    return GFunc(p, rank, side, (value,) * p**rank)


def orthogonal(H):
    """The subgroup orthogonal to the line subgroup H, on the other side."""
    return LineSubgroup(H.p, orthogonal_direction(H.p, H.direction), opposite_side(H.side))


def contains(H, pt):
    """Whether the line subgroup H holds the point, which must share its p and side."""
    if pt.p != H.p or pt.side != H.side:
        raise ValueError("side or order mismatch")
    if H.direction == H.p:
        return pt.x == 0
    return pt.y == (H.direction * pt.x) % H.p


def detail(desc, key):
    """The value of an ExceptionDescriptor's detail, or None."""
    return dict(desc.details).get(key)


def convolve(f1, f2, normalize):
    """sum over g1 + g2 = g of f1(g1) f2(g2), divided by |G| when
    normalize (the primal side) and not otherwise (the dual side).  The
    products run on the integer coefficient vectors, each function scaled
    by its common denominator."""
    p, n = f1.p, len(f1.values)
    scaled1, den1 = _scaled_int_coeffs(f1.values)
    scaled2, den2 = _scaled_int_coeffs(f2.values)
    supp2 = [(i, c) for i, c in enumerate(scaled2) if any(c)]
    acc = [[0] * p for _ in range(n)]
    for i1, c1 in enumerate(scaled1):
        if not any(c1):
            continue
        for i2, c2 in supp2:
            row = acc[(i1 // p + i2 // p) % p * p + (i1 + i2) % p]
            for t1, a in enumerate(c1):
                if a:
                    for t2, b in enumerate(c2):
                        if b:
                            s = t1 + t2
                            row[s - p if s >= p else s] += a * b
    divisor = den1 * den2 * (n if normalize else 1)
    return GFunc(p, f1.rank, f1.side, [_reduced_over(p, row, divisor) for row in acc])


def coset_indicator(coset):
    mask = coset.mask()
    return GFunc(coset.p, 2, coset.side, [mask >> g & 1 for g in range(coset.p**2)])


def coset_restriction_transform(f, g, H, fhat=None):
    """Transform of f * 1_{g+H} through the orthogonal subgroup:
    (1/|H^perp|) sum_{psi in H^perp} hat(f)(chi psi) psi(g).  At chi =
    rep + s*gen on a line of H^perp's direction that is R[a] zeta^(-s*a)
    for a = <gen, g> and R the line_sums of hat(f) through rep."""
    fhat = fourier_transform(f) if fhat is None else fhat
    p = f.p
    perp = orthogonal(H)
    gen = perp.generator
    a = gen.pair(g)
    vals = [None] * (p * p)
    for j in range(p):
        rep = coset_from_id(p, perp.direction, j, DUAL).rep
        total = line_sums(fhat, rep, perp.direction)[a] * Fraction(1, p)
        for s in range(p):
            vals[(rep.x + s * gen.x) % p * p + (rep.y + s * gen.y) % p] = total.times_root(-s * a)
    return GFunc(p, 2, DUAL, vals)


def coset_sum_identity(f, g, H, chi, fhat=None):
    """Whether the orthogonal-subgroup sum at chi equals the direct coset
    sum: sum_psi hat(f)(chi psi) psi(g) =
    (conj(chi)(g)/|H|) sum_h f(g+h) conj(chi)(h)."""
    fhat = fourier_transform(f) if fhat is None else fhat
    perp = orthogonal(H)
    lhs = line_sums(fhat, chi, perp.direction)[perp.generator.pair(g)]
    rhs = CycNum.zero(f.p)
    for h in H.members():
        rhs = rhs + f.value(g + h).times_root(-chi.pair(h))
    return lhs == rhs.times_root(-chi.pair(g)) * Fraction(1, f.p)


def galois_twist(u, j):
    """The Galois map zeta -> zeta^j on the values of a dual function,
    each character relabeled by its j-th power."""
    p = u.p
    return GFunc(p, u.rank, DUAL, [galois(v, j) for v in _at_multiple(u.values, p, pow(j, -1, p))])


def rational_support_closure(f):
    """Whether every Galois twist fixes the transform of a rational f;
    sigma_j is a field automorphism, so the transform support is then
    closed under chi -> chi^j."""
    fh = fourier_transform(f)
    return all(galois_twist(fh, j) == fh for j in range(2, f.p))


def quasicharacter(h, A):
    """(hypothesis, |supp hat(h)|) for a rank-1 h and residues A: the
    hypothesis is that h(a1) h(a2) depends only on a1 + a2 for a1, a2 in
    A.  When it holds and |A| > 2p/3, the support has size 1 or at least
    |A|."""
    by_sum = {}
    hypothesis = True
    for a1, a2 in combinations_with_replacement(sorted(set(A)), 2):
        product = h.values[a1] * h.values[a2]
        hypothesis = hypothesis and by_sum.setdefault((a1 + a2) % h.p, product) == product
    return hypothesis, fourier_transform(h).support_size


def decide(name, pair, param=None):
    """The verdict of one named check on one support pair, looked up by
    name in the registry on every call: the per-check oracle of the row
    that search._outcomes resolves once per run.  The structural
    exceptions of rational, kp1, kp2 and product3 are tested first, on
    point sets built here whatever the sizes, so a size gate in a check's
    decide that skipped a real exception would show."""
    spec = spec_for(name, pair.rank)
    if pair.rank == 2 and (pair.rational or not spec.rational):
        p = pair.p
        S, X = PointSet(p, PRIMAL, pair.s_mask), PointSet(p, DUAL, pair.x_mask)
        if name == "rational" and _periodic_directions(p, X) or \
                name == "kp1" and _orthogonal_coset_pair(p, S, X) is not None or \
                name in ("kp2", "product3") and _coset_pair_exception(p, S, X) is not None:
            return EXCEPTION
    return spec.decide(pair, param)


# -- the exceptional forms, built by their descriptors ---------------------------------


def _values(p, values):
    return tuple(v if isinstance(v, CycNum) else CycNum.from_rational(p, v) for v in values)


def _characters(p, pairs):
    return tuple(Point.of(p, a, b, DUAL) for a, b in pairs)


def single_coset_character(p, direction, offset, character, coefficient):
    """c chi on the line through offset, by the descriptor the gallery's
    character_coset builds."""
    return ExceptionDescriptor(
        KIND_SINGLE_COSET_CHARACTER, p, direction=direction, offsets=(Point.of(p, *offset),),
        characters=_characters(p, [character]), coefficients=_values(p, [coefficient]),
    ).reconstruct()


def characters_on_one_coset(p, direction, offset, characters, coefficients):
    """sum_i c_i chi_i on the line through offset."""
    return ExceptionDescriptor(
        KIND_CHARACTERS_ON_ONE_COSET, p, direction=direction, offsets=(Point.of(p, *offset),),
        characters=_characters(p, characters), coefficients=_values(p, coefficients),
    ).reconstruct()


def character_on_cosets(p, direction, offsets, character, coefficients):
    """c_i chi on the line through offsets[i], for each i."""
    return ExceptionDescriptor(
        KIND_CHARACTER_ON_COSETS, p, direction=direction,
        offsets=tuple(Point.of(p, *g) for g in offsets),
        characters=_characters(p, [character]), coefficients=_values(p, coefficients),
    ).reconstruct()


def two_parallel_lines(p, direction, char1, char2, coset_values1, coset_values2):
    """chi1 f1 + chi2 f2, with f1 and f2 constant on the direction's lines
    (one value per line, in coset-id order)."""
    ids = tables(p).coset_id[direction]
    components = tuple(GFunc(p, 2, PRIMAL, [values[j] for j in ids])
                       for values in (coset_values1, coset_values2))
    return ExceptionDescriptor(
        KIND_TWO_PARALLEL, p, direction=direction, characters=_characters(p, [char1, char2]),
        components=components,
    ).reconstruct()


def two_nonparallel_lines(p, d1, d2, character, values1, values2):
    """chi(h1 + h2) (f1(h1) + f2(h2)) over the two directions' subgroups."""
    return ExceptionDescriptor(
        KIND_TWO_NONPARALLEL, p, directions=(d1, d2), characters=_characters(p, [character]),
        components=(GFunc(p, 1, PRIMAL, values1), GFunc(p, 1, PRIMAL, values2)),
    ).reconstruct()
