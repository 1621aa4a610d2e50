"""The check registry: the function-level route against bounds.evaluate, and
what the CLI and the search layer derive from bounds.CHECKS."""

import json
import random
from fractions import Fraction

import pytest

from primeplane import cli, search
from primeplane.bounds import CHECKS, HOLDS, BoundReport, CheckSpec, SupportPair, evaluate
from primeplane.cli import EXIT_OK, EXIT_USAGE, main
from primeplane.fourier import GFunc, fourier_transform, int_support_masks
from primeplane.plane import PRIMAL, min_line_cover
from primeplane.search import construct, make_space, sharp_pair_1d, sharp_pair_2d
from reference import check

PARAMS = {"k": 2, "eps": Fraction(1, 2)}


def evaluate_route(name, f, param):
    """bounds.evaluate on supports found the way sweeps find them: the
    integer kernel for integer-valued functions, the exact transform
    otherwise."""
    values = [v.rational_value() if v.is_rational() else None for v in f.values]
    if all(v is not None and v.denominator == 1 for v in values):
        s_mask, x_mask = int_support_masks(f.p, f.rank, [int(v) for v in values])
    else:
        s_mask, x_mask = f.support_mask, fourier_transform(f).support_mask
    pair = SupportPair.from_masks(f.p, f.rank, s_mask, x_mask, f.is_rational_valued())
    return evaluate(name, pair, param)


def route_functions():
    funcs = []
    for p in (3, 5):
        for family in ("character-coset", "diff-of-subgroups", "pm-two-cosets",
                       "triple-subgroups"):
            funcs.append(construct(family, p).func)
        funcs.append(sharp_pair_2d(p, 2, 3).func)
    rng = random.Random(11)
    while len(funcs) < 40:
        vals = [rng.choice((-1, 0, 1)) for _ in range(9)]
        if any(vals):
            funcs.append(GFunc(3, 2, PRIMAL, vals))
    for p in (3, 5):
        funcs.extend(sharp_pair_1d(p, m).func for m in range(1, p + 1))
        funcs.append(GFunc(p, 1, PRIMAL, [rng.choice((0, 1, 2)) + 1 for _ in range(p)]))
    return funcs


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_function_route_matches_evaluate(name):
    spec = CHECKS[name]
    param = PARAMS.get(spec.param)
    compared = 0
    for f in route_functions():
        if f.rank not in spec.ranks or f.p < spec.min_p:
            continue
        if spec.rational and not f.is_rational_valued():
            with pytest.raises(ValueError):
                check(name, f, param)
            with pytest.raises(ValueError):
                evaluate_route(name, f, param)
            continue
        a, b = check(name, f, param), evaluate_route(name, f, param)
        if "cover_clause_applies" in b.details:
            # the function route alone reports the exact minimum covers
            b.details.update(cover_S=min_line_cover(f.support()),
                             cover_X=min_line_cover(fourier_transform(f).support()))
        assert (a.theorem, a.verdict, a.lhs, a.rhs, a.details) == \
            (b.theorem, b.verdict, b.lhs, b.rhs, b.details), (name, f.to_literal())
        compared += 1
    assert compared >= 10


def invalid_choice(option, value, registry):
    """argparse's error line for a value outside an option's choices."""
    choices = ", ".join(map(repr, sorted(registry)))
    return (f"primeplane verify: error: argument {option}: invalid choice: {value!r} "
            f"(choose from {choices})\n")


def test_verify_theorem_choices_are_the_registry(capsys):
    parser = cli.build_parser()
    base = ["verify", "--function", "3; 2; 1,0,0,0,0,0,0,0,0"]
    for name in CHECKS:
        assert parser.parse_args(base + ["--theorem", name]).theorem == [name]
    for name in ("nope", "Product", "product ", "coset_counts"):
        assert main(base + ["--theorem", name]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(invalid_choice("--theorem", name, CHECKS))


def test_family_choices_are_the_gallery(capsys):
    parser = cli.build_parser()
    for sub in ("verify", "classify"):
        for name in search.GALLERY:
            assert parser.parse_args([sub, "--family", name, "--p", "3"]).family == name
    for name in ("nope", "sharp3d"):
        assert main(["verify", "--family", name, "--p", "3"]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(invalid_choice("--family", name, search.GALLERY))


def test_default_checks_derived_from_the_registry():
    rank1 = sharp_pair_1d(5, 2).func
    assert cli._default_checks(rank1) == ["product", "birotao"]
    assert cli._default_checks(GFunc(2, 2, PRIMAL, [1, 0, 0, 1])) == ["product", "meshulam"]
    rational = construct("diff-of-subgroups", 3).func
    assert cli._default_checks(rational) == \
        ["product", "meshulam", "rational", "kp1", "kp2", "product3"]
    irrational = construct("character-coset", 3).func
    assert not irrational.is_rational_valued()
    assert cli._default_checks(irrational) == ["product", "meshulam", "kp1", "kp2", "product3"]


def test_parameters_checked_once_at_item_building():
    space = make_space(3, alphabet=(0,))
    with pytest.raises(ValueError, match="k must be"):
        search._check_items(space, ["conjecture"], 99, None)
    with pytest.raises(ValueError, match="epsilon"):
        search._check_items(space, ["asym2"], None, "1/0")
    with pytest.raises(ValueError, match="requires eps"):
        search._check_items(space, ["asym3"], None, None)
    with pytest.raises(ValueError, match="stated for p >= 3"):
        search._check_items(make_space(2, alphabet=(0, 1)), ["kp2"], None, None)
    assert search._check_items(space, ["product", "conjecture", "asym2"], 2, "2/4") == [
        ("product", "product", None),
        ("conjecture[k=2]", "conjecture", 2),
        ("asym2[eps=1/2]", "asym2", Fraction(1, 2)),
    ]


def test_a_new_spec_needs_no_other_edit(monkeypatch, capsys):
    def toy(pair, k, verdict):
        return BoundReport("toy", verdict, Fraction(pair.s_size + pair.x_size), Fraction(k))

    monkeypatch.setitem(CHECKS, "toy", CheckSpec("toy", (2,), lambda pair, k: HOLDS, toy,
                                                 param="k"))
    assert main(["verify", "--family", "diff-of-subgroups", "--p", "3",
                 "--theorem", "toy", "--k", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["reports"][0]["rhs"] == "2"
    assert main(["sweep", "--p", "3", "--alphabet", "0,1", "--theorem", "toy",
                 "--k", "3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["sweep"]["counts"] == {"toy[k=3]": {HOLDS: 511}}
    assert main(["hunt", "--p", "3", "--alphabet", "0,1", "--theorem", "toy",
                 "--k", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["hunt"]["check"] == "toy[k=1]"
    assert main(["sweep", "--p", "3", "--alphabet", "0,1", "--theorem", "toy"]) == EXIT_USAGE
    assert "the toy check requires k" in capsys.readouterr().err
