"""Command-line interface: subcommands, literals, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import primeplane
from primeplane import bounds, cli
from primeplane.cli import (EXIT_BUDGET, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION,
                            main)
from primeplane.cyclotomic import parse_value
from primeplane.plane import DUAL, PRIMAL, PointSet, parse_pointset
from primeplane.search import construct, make_space
from reference import two_nonparallel_lines, two_parallel_lines


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (EXIT_OK, EXIT_VIOLATION), err
    return code, json.loads(out)


def test_verify_diff_family_rational_equality(capsys):
    code, payload = run_json(capsys, "verify", "--family", "diff-of-subgroups",
                             "--p", "3", "--theorem", "rational")
    assert code == EXIT_OK
    report = payload["reports"][0]
    assert report["theorem"] == "rational"
    assert report["verdict"] == "holds-with-equality"
    assert report["lhs"] == "4" and report["rhs"] == "4"
    assert payload["config"]["subcommand"] == "verify"
    assert "version" in payload


def test_verify_literal_default_checks(capsys):
    literal = "3; 2; 1,0,0,0,0,0,0,0,0"
    code, payload = run_json(capsys, "verify", "--function", literal)
    assert code == EXIT_OK
    names = {r["theorem"] for r in payload["reports"]}
    assert {"product", "meshulam"} <= names


def test_verify_from_file(capsys, tmp_path):
    path = tmp_path / "func.txt"
    path.write_text("3; 1; 1,1,0\n", encoding="utf-8")
    code, payload = run_json(capsys, "verify", "--file", str(path),
                             "--theorem", "birotao")
    assert code == EXIT_OK
    assert payload["reports"][0]["verdict"] in ("holds", "holds-with-equality")


def test_verify_rejects_bad_literal(capsys):
    code, out, err = run_cli(capsys, "verify", "--function", "3; 2; 1,0")
    assert code == EXIT_USAGE
    assert "error" in err


def test_verify_requires_one_source(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == EXIT_USAGE


def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "verify", "--badflag")
    assert code == EXIT_USAGE
    code2, _, _ = run_cli(capsys, "nonsense-subcommand")
    assert code2 == EXIT_USAGE


def test_geometry_blocking_min(capsys):
    code, payload = run_json(capsys, "geometry", "--query", "blocking-min", "--p", "3")
    assert code == EXIT_OK
    assert payload["result"]["minimum"] == 5


def test_blocking_min_prints_the_theorem_value(capsys):
    # from p = 7 on the branch-and-bound search this replaced ran out of its
    # node budget and exited 75
    for p, minimum in ((7, 13), (11, 21), (13, 25)):
        code, payload = run_json(capsys, "geometry", "--query", "blocking-min", "--p", str(p))
        assert code == EXIT_OK
        assert payload["result"]["minimum"] == minimum == 2 * p - 1
        witness = parse_pointset(payload["result"]["witness"])
        assert witness.p == p and witness.size == minimum
        assert not any(witness.line_profile[1])  # no line misses it


def test_geometry_directions_and_pencil(capsys):
    code, payload = run_json(capsys, "geometry", "--query", "directions",
                             "--points", "3; (0,0),(1,0),(1,1)")
    assert code == EXIT_OK
    assert payload["result"]["directions"] == [0, 1, 3]

    code2, payload2 = run_json(capsys, "geometry", "--query", "pencil",
                               "--points", "3; (0,0),(1,0),(2,0)")
    assert code2 == EXIT_OK
    assert payload2["result"]["k"] == 1 and payload2["result"]["m"] == 2
    assert payload2["result"]["holds"]


def test_geometry_rich_direction(capsys):
    pts = ",".join(f"({x},{y})" for x in range(3) for y in range(3) if (x, y) != (2, 2))
    code, payload = run_json(capsys, "geometry", "--query", "rich-direction",
                             "--points", f"3; {pts}")
    assert code == EXIT_OK
    assert payload["result"]["direction"] is not None


def test_classify_character_coset(capsys):
    code, payload = run_json(capsys, "classify", "--family", "character-coset", "--p", "5")
    assert code == EXIT_OK
    assert payload["classification"]["kind"] == "single-coset-character"


def test_classify_spread_function_returns_null(capsys):
    literal = "3; 2; 1,1,0,1,-1,1,0,1,1"
    code, payload = run_json(capsys, "classify", "--function", literal)
    assert code == EXIT_OK
    # classification may be null for functions with no two-line structure
    assert "classification" in payload


def test_sweep_small_space(capsys):
    code, payload = run_json(capsys, "sweep", "--p", "2", "--alphabet", "0,1",
                             "--theorem", "product", "--theorem", "meshulam")
    assert code == EXIT_OK
    assert payload["sweep"]["violations"] == []
    assert payload["sweep"]["candidates"] == 16


def test_sweep_requires_theorem(capsys):
    code, out, err = run_cli(capsys, "sweep", "--p", "2", "--alphabet", "0,1")
    assert code == EXIT_USAGE


def test_sweep_ceiling_exceeded(capsys):
    code, out, err = run_cli(capsys, "sweep", "--p", "5", "--alphabet", "0,1,2",
                             "--theorem", "product", "--ceiling", "1000")
    assert code == EXIT_USAGE
    assert "ceiling" in err


def test_ceiling_zero_is_a_ceiling(capsys):
    code, out, err = run_cli(capsys, "frontier", "--p", "3", "--alphabet=0,1",
                             "--ceiling", "0")
    assert code == EXIT_USAGE
    assert "ceiling" in err


def test_ceiling_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PRIMEPLANE_CEILING", "10")
    code, out, err = run_cli(capsys, "sweep", "--p", "2", "--alphabet", "0,1",
                             "--theorem", "product")
    assert code == EXIT_USAGE
    monkeypatch.setenv("PRIMEPLANE_CEILING", "100000")
    code2, _, _ = run_cli(capsys, "sweep", "--p", "2", "--alphabet", "0,1",
                          "--theorem", "product")
    assert code2 == EXIT_OK


def test_hunt_output(capsys):
    code, payload = run_json(capsys, "hunt", "--p", "3", "--alphabet", "0,1",
                             "--theorem", "meshulam")
    assert code == EXIT_OK
    assert payload["hunt"]["witness"] is None
    assert payload["hunt"]["checked"] == 511


def test_frontier_csv(capsys):
    code, out, err = run_cli(capsys, "frontier", "--p", "3", "--alphabet", "0,1")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    pairs = {(int(r["S_size"]), int(r["X_size"])) for r in rows}
    assert (3, 3) in pairs and (1, 9) in pairs
    for row in rows[:5]:
        assert row["witness_literal"].startswith("3; 2;")


def test_emit_curves_product_rows_exact(capsys):
    code, out, err = run_cli(capsys, "emit-curves", "--p", "11")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    product_rows = [r for r in rows if r["curve"] == "product"]
    assert len(product_rows) == 121
    for r in product_rows:
        assert int(r["s"]) * Fraction(r["x"]) == 121
    curves = {r["curve"] for r in rows}
    assert {"meshulam", "rational", "kp1", "kp2", "product3", "roots",
            "conjecture_k=1", "conjecture_k=11", "lattice"} <= curves
    # the four named linear checks are the conjecture family at fixed k
    for name, k in (("meshulam", 1), ("rational", 2), ("kp1", 10), ("kp2", 9)):
        named = {r["s"]: r["x"] for r in rows if r["curve"] == name}
        family = {r["s"]: r["x"] for r in rows if r["curve"] == f"conjecture_k={k}"}
        assert named == family, name


CURVE_SHA256 = {
    2: "4445d829e488d4911f8dd20175c0af0aa681d32a14d5f7f2799cda67752e5fc3",
    3: "9c8a6b798ac843854825f4b47e6d6aee6b7f0c4044f1fe852506db25160f2d3d",
    # from p = 5 on, the k of meshulam, rational, kp2 and kp1 all differ
    5: "11e313642f524c33ef74786699b0a0889ffab7cc65abfea242984565e15da9a4",
    7: "098849ebb1988ebcffa16f3ebbac75575625b5fbeeb6d6edc5569ca371d71eeb",
}


def test_emit_curves_order_and_bytes_at_p2_p3(capsys):
    orders = {}
    for p, digest in CURVE_SHA256.items():
        code, out, err = run_cli(capsys, "emit-curves", "--p", str(p))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        names = [r["curve"] for r in csv.DictReader(io.StringIO(out))]
        orders[p] = [n for i, n in enumerate(names) if i == 0 or names[i - 1] != n]
    assert orders[2] == ["product", "meshulam", "rational", "kp1", "product3", "roots",
                         "conjecture_k=1", "conjecture_k=2", "lattice"]
    assert orders[3] == ["product", "meshulam", "rational", "kp1", "kp2", "product3", "roots",
                         "conjecture_k=1", "conjecture_k=2", "conjecture_k=3", "lattice"]


def test_emit_curves_streams_its_rows(tmp_path):
    # the 9,569 rows at p = 23 are written as they are computed; joined into
    # one string first they peaked at 2.2 MB here, and at p = 101 ran out of
    # a 64 MiB address-space cap
    out = tmp_path / "curves.csv"
    cli.build_parser()  # the parser is built once per process, outside the measurement
    tracemalloc.start()
    try:
        assert main(["emit-curves", "--p", "23", "--out", str(out)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "a72d44b0c437d6411b41da3195d8922e87b9458c8277fa64b1527f65f173042e"


def test_emit_curves_above_its_largest_p_is_a_usage_error(capsys, tmp_path):
    # the output grows as p^3; above p = 211 the command writes nothing,
    # not even to --out, and says why in one line
    assert cli.EMIT_CURVES_MAX_P == 211
    out = tmp_path / "curves.csv"
    for p in ("223", "2147483647"):
        code, stdout, err = run_cli(capsys, "emit-curves", "--p", p, "--out", str(out))
        assert (code, stdout) == (EXIT_USAGE, "")
        assert err == f"primeplane: error: emit-curves takes p <= 211, got {p}\n"
        assert not out.exists()
    code, _, err = run_cli(capsys, "emit-curves", "--p", "221")
    assert code == EXIT_USAGE and "prime" in err


# stdout digests of `verify --theorem conjecture --theorem roots --k 2`, whose
# reports print the exact minimum line covers cover_S and cover_X
COVER_VERIFY_SHA256 = {
    ("diff-of-subgroups", 5): "4f3b0f5d08daa70421dcb5fe826076e6b3c75e6779b2bbda187cd1ef5c3ac335",
    ("pm-two-cosets", 5): "fc0581df95f581d159a066c0e1c8bb1318ee8e7c79297af5b143f86cfe7cd0a5",
    ("triple-subgroups", 5): "2c3094e58863e79fc862d0062fd14577d9f8026c9d690a1f89e5a1d61a89024b",
    ("character-coset", 5): "65cb77ad5ff8cb217b1681ceb2faed2ec68bf20be9e69639f2b7011c890ed199",
    ("diff-of-subgroups", 7): "b401f6ce4c8204c193b2e724a9575e2bac941295a1c9e7ca80d6ba415cf20b4b",
    ("pm-two-cosets", 7): "be70af01b12f538d10f6da8daf653dc073b2e3dafbadef6c18384fe628b48908",
    ("triple-subgroups", 7): "377c1c81314cc9082aace453206f449f1edafe09094db95c473e7c9f62e92a24",
    ("character-coset", 7): "10e67e24a79b5c42cf5da66e6d723dceb412ea544c933dd4fcc2c3f11961f9fd",
}


def test_verify_cover_values_bytes(capsys, monkeypatch):
    # the cover clauses read the exact covers the reports print, so no
    # bounded cover search runs beside them
    counts = Counter()
    counting(monkeypatch, bounds, "min_line_cover", counts)
    counting(monkeypatch, bounds, "covered_by_lines", counts)
    for (family, p), digest in COVER_VERIFY_SHA256.items():
        counts.clear()
        code, out, err = run_cli(capsys, "verify", "--family", family, "--p", str(p),
                                 "--theorem", "conjecture", "--theorem", "roots", "--k", "2")
        assert code in (EXIT_OK, EXIT_VIOLATION), err
        assert "cover_S" in out and "cover_X" in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (family, p)
        assert counts == {"min_line_cover": 2}, (family, p)


# stdout digests of random sweeps that decode through the paths the p = 11
# benchmark sweep does not: a character twist, irrational and fractional
# values (the exact transform), five-letter alphabets (digits drawn with
# rejection) and two-letter ones (none rejected)
RANDOM_SWEEP_SHA256 = {
    ("5", "3", "300", "--char-twist", "product", "meshulam"):
        "176c053f645430f7e364a8e2399da766c2059f250e0cef9b1082bccff2efaf8d",
    ("5", "3", "300", "--alphabet=0,1/2,z", "product", "meshulam"):
        "4875b733959856f0171ff11f28d351a409bef62dd67d86b3821ca59ba3130c7e",
    ("7", "5", "500", "--alphabet=-2,-1,0,1,2", "product", "kp2"):
        "76532ed4a4bbdd1dfdebabf92baa0ab25e51aa6c7129d446fb95964671996f37",
    ("7", "5", "500", "--alphabet=0,1", "product", "kp2"):
        "daed4d0118578371dacd3011590aec16bde38f048f4fac460142fcf132f6bdaf",
}


def test_random_sweep_bytes(capsys):
    for (p, seed, budget, space, *checks), digest in RANDOM_SWEEP_SHA256.items():
        theorems = [arg for name in [*checks, "coset-counts"] for arg in ("--theorem", name)]
        code, out, err = run_cli(capsys, "sweep", "--p", p, "--mode", "random", "--seed", seed,
                                 "--budget", budget, space, *theorems)
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (p, space)


GALLERY_FAMILIES = {"diff-of-subgroups": {}, "pm-two-cosets": {}, "triple-subgroups": {},
                    "character-coset": {}, "sharp2d": {"m": 2, "n": 3}}


def family_argv(family, p):
    params = GALLERY_FAMILIES[family]
    return ("--family", family, "--p", str(p),
            *(arg for key, value in params.items() for arg in (f"--{key}", str(value))))


# stdout digests of `verify` with the default checks and of `classify`
DEFAULT_VERIFY_SHA256 = {
    ("diff-of-subgroups", 5): "eaf19cd5e02e9dde6b272bbe85ae434cc69d5a745ae45b68db5321eab902f99e",
    ("pm-two-cosets", 5): "6a51b649d00f0a4036e4e9396ac7d499e743f32bb037f79890e802e000a6cb42",
    ("triple-subgroups", 5): "5b13fabfb6595728e0744709ec79767fa399409f2f50c2a53deb58a31c32d1c3",
    ("character-coset", 5): "db93ce72bddeba8c798a274e4dfebd8675d84be104bf050224b8346948acad84",
    ("sharp2d", 5): "a541d7cb520a2c4979629b7ea4dee34aac342e0b859ea9d923be9e6f3fb1de3d",
    ("diff-of-subgroups", 7): "f620c9f894f326c04fb8bf4738cd10d532212a5bcff13e0988d3f21045811b51",
    ("pm-two-cosets", 7): "247991d7a871753c549efea37b6cd3f473b1b6fee592a9c5083c5e0b3d71246b",
    ("triple-subgroups", 7): "25bba28956ec9cec6b23afd8cc7230292201b237e1af06eb106dc73cb1212e66",
    ("character-coset", 7): "06ec01fa56ccbdb67ee13af0af9d3dbe88198d88ff8a3640e1c58cf02c44eb87",
    ("sharp2d", 7): "06721155655c0c49ded64a98cd09eed5e74a96a62f091c031d33dcec7b75c0bb",
}
CLASSIFY_SHA256 = {
    ("diff-of-subgroups", 5): "8ab7455f3bd40530647133205446c86d90b3ec53bc4501170e54429490cbf999",
    ("pm-two-cosets", 5): "1629dbc097e77c9a823468efbd20da9bfd1bb5aa093cae269026e63b3ac79611",
    ("triple-subgroups", 5): "5b409e057b248fbd3d9d7f8f30c385d68811f5637866512e404938eb5aa108e2",
    ("character-coset", 5): "b916e799aa62d1fa777bedf9ddc2e3eee6218bca910f7a5aa686108709ec36fb",
    ("sharp2d", 5): "091e6efdd4957c40649dcfcab323343f4ed6e3573b30661c17d9514e39219e41",
    ("diff-of-subgroups", 7): "23839b6298b7dd3e2aa47563196adb980a61e7eef0b6df0fa077739cd3b89b9a",
    ("pm-two-cosets", 7): "aa9279ab15c5d65c36ef9925ed5a43cec87c4f812e4d2bfca0124193242e7552",
    ("triple-subgroups", 7): "f97478125ead1516455dabb36cca4c3877558e530b5910950437bb2fc010085b",
    ("character-coset", 7): "e2ba630b7322f0eca40b7031eaa8d9671bc187f2523e8ef7595a01705a2b9857",
    ("sharp2d", 7): "5d8f0cfe3fdf4de3890348129778c9b47ea969638888d3163883bf25608222be",
}


def test_default_verify_and_classify_bytes(capsys):
    for (family, p), digest in DEFAULT_VERIFY_SHA256.items():
        argv = family_argv(family, p)
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, ("verify", family, p)
        code, out, err = run_cli(capsys, "classify", *argv)
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_SHA256[family, p], \
            ("classify", family, p)


def two_line_literals():
    """Functions whose classification is a two-line descriptor with pinned
    component values: a primal-cover nonparallel pair, and cyclotomic
    dual-cover parallel and nonparallel pairs."""
    z = parse_value("z", 7)
    parallel = two_parallel_lines(7, 2, (1, 3), (4, 0), [1, 0, 0, 2, 0, z, 0],
                                  [0, -1, 0, 0, 0, 0, 3])
    nonparallel = two_nonparallel_lines(7, 1, 4, (2, 5), [0, 1, 0, z, 0, 0, 2],
                                        [3, 0, 0, 0, -1, 0, 0])
    return {
        "5; 2; 1,6,7,8,0,2,0,0,0,0,3,0,0,0,0,4,0,0,0,0,5,0,0,0,0":
            "b359d490eda6eba262db0f26148898c257adfbf8847ab2170df8710d52b6d837",
        parallel.to_literal():
            "fd1d5861bec5325bf7e7341695839741267764ef243f6b92394d1cac8ce75201",
        nonparallel.to_literal():
            "e771faf062521f215d9c2cec89342d73d70d2b3748ad8144f91f9f3e9168333e",
    }


def test_classify_two_line_components_bytes(capsys):
    kinds = []
    for literal, digest in two_line_literals().items():
        code, out, err = run_cli(capsys, "classify", "--function", literal)
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, literal
        desc = json.loads(out)["classification"]
        kinds.append((desc["kind"], desc["cover_side"]))
    assert kinds == [("two-nonparallel-lines", PRIMAL), ("two-parallel-lines", DUAL),
                     ("two-nonparallel-lines", DUAL)]


def counting(monkeypatch, owner, name, counts):
    """Count the calls made through `owner.name`."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_verify_transforms_once_and_classifies_at_most_once(capsys, monkeypatch):
    counts = Counter()
    counting(monkeypatch, bounds, "fourier_transform", counts)
    counting(monkeypatch, bounds, "classify_exception", counts)
    counting(monkeypatch, bounds, "min_line_cover", counts)
    rank2 = [name for name, spec in bounds.CHECKS.items() if 2 in spec.ranks]
    for p in (5, 7):
        for family, params in GALLERY_FAMILIES.items():
            argv = family_argv(family, p)
            rational = construct(family, p, **params).func.is_rational_valued()
            every = [arg for name in rank2 if rational or name != "rational"
                     for arg in ("--theorem", name)] + ["--k", "2"]
            for theorems in ([], every):
                counts.clear()
                code, payload = run_json(capsys, "verify", *argv, *theorems)
                assert len(payload["reports"]) > 1
                assert counts["fourier_transform"] == 1, (family, p, theorems)
                exceptional = any(r["verdict"] == "exception" for r in payload["reports"])
                assert counts["classify_exception"] == exceptional, (family, p, theorems)
                # conjecture and roots share one exact cover per side
                assert counts["min_line_cover"] == (2 if theorems else 0), (family, p, theorems)
            counts.clear()
            code, payload = run_json(capsys, "classify", *argv)
            assert counts["fourier_transform"] == 1, (family, p)


def test_verify_counts_each_support_census_once(capsys, monkeypatch):
    # an exceptional report's classification reads verify's own S and X;
    # a set counts its lines on the first read of line_counts or
    # line_profile, which PointSet.__getattr__ answers for both
    census = PointSet.__getattr__
    builds = Counter()

    def counted(self, name):
        if name in ("line_counts", "line_profile"):
            builds[self.side] += 1
        return census(self, name)

    monkeypatch.setattr(PointSet, "__getattr__", counted)
    for family in ("pm-two-cosets", "character-coset", "triple-subgroups"):
        builds.clear()
        code, payload = run_json(capsys, "verify", "--family", family, "--p", "11")
        assert code == EXIT_OK
        exceptional = any(r["verdict"] == "exception" for r in payload["reports"])
        assert exceptional == (family != "triple-subgroups")
        # triple-subgroups has |S| = |X| = 3(p - 1) > p: every check's size
        # gate rules its exception out, so neither set is counted
        want = {} if family == "triple-subgroups" else {PRIMAL: 1, DUAL: 1}
        assert builds == want, family


def test_sweep_decides_cover_clauses_without_exact_covers(capsys, monkeypatch):
    counts = Counter()
    counting(monkeypatch, bounds, "min_line_cover", counts)
    counting(monkeypatch, bounds, "covered_by_lines", counts)
    code, out, err = run_cli(capsys, "sweep", "--p", "7", "--mode", "random", "--seed", "0",
                             "--budget", "400", "--alphabet=-1,0,1", "--rank", "2",
                             "--jobs", "1", "--theorem", "conjecture", "--theorem", "roots",
                             "--theorem", "asym3", "--k", "2", "--epsilon", "1/2")
    assert code == EXIT_OK, err
    # the digest the cover-search CI step pins
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d349f0e7f6262eff1d60383bd3d5c6a2805713f6e17ae65e783f0fd194839aa3"
    assert counts["min_line_cover"] == 0
    # the smaller side of every candidate here has more than 2p points, so
    # each cover clause is decided by its size, with no search
    assert counts["covered_by_lines"] == 0
    counts.clear()
    code, out, err = run_cli(capsys, "sweep", "--p", "3", "--alphabet=-1,0,1",
                             "--theorem", "conjecture", "--theorem", "roots",
                             "--theorem", "asym3", "--k", "2", "--epsilon", "1/2")
    assert code == EXIT_OK, err
    assert counts["min_line_cover"] == 0
    assert counts["covered_by_lines"] > 0


def child(*argv, preexec_fn=None, cwd=None, timeout=60):
    """The CLI in a child process, so that a hang becomes a timeout failure
    (after `timeout` seconds) and an uncaught exception shows as a
    traceback on stderr.  preexec_fn runs in the child before the CLI
    starts; cwd is its working directory."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(primeplane.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "primeplane.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=preexec_fn)


def address_space_cap(limit):
    """A preexec_fn for child() that caps the child's address space at
    `limit` bytes; skips the test where the platform has no such limit."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("resource.RLIMIT_AS is not available on this platform")
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_child(*argv):
    done = child(*argv)
    assert done.returncode == EXIT_OK, done.stderr
    return json.loads(done.stdout)


def test_p11_cover_checks_finish():
    # a single p = 11 function under these checks once ran for minutes in the
    # exact line-cover search
    report = run_child("sweep", "--p", "11", "--mode", "random", "--seed", "0",
                       "--budget", "5", "--alphabet=-1,0,1", "--theorem", "conjecture",
                       "--k", "6", "--theorem", "roots")["sweep"]
    assert report["checks"] == ["conjecture[k=6]", "roots"]
    for name in report["checks"]:
        assert sum(report["counts"][name].values()) == report["nonzero"] > 0


def test_p13_cover_clauses_decided_by_bounded_search():
    # finding the exact minimum covers of these dense p = 13 supports took
    # over a minute; the clauses need only "covered by 6 lines?"
    space = ["--p", "13", "--mode", "random", "--seed", "0", "--budget", "10",
             "--alphabet=0,1"]
    report = run_child("sweep", *space, "--theorem", "conjecture", "--k", "7",
                       "--theorem", "roots")["sweep"]
    assert report["checks"] == ["conjecture[k=7]", "roots"]
    for name in report["checks"]:
        assert sum(report["counts"][name].values()) == report["nonzero"] > 0
    hunted = run_child("hunt", *space, "--theorem", "conjecture", "--k", "7")["hunt"]
    assert hunted["witness"] is None
    assert sum(hunted["counts"].values()) == hunted["checked"] == report["nonzero"]


def assert_budget_exit(done, search):
    assert done.returncode == EXIT_BUDGET, (done.returncode, done.stderr)
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert done.stderr.startswith(f"primeplane: error: {search} search at p = ")


def test_exact_cover_of_a_dense_p13_support_stops_at_the_node_budget():
    # verify computes the exact minimum covers; for this support the search
    # ran past 20 s before it had a node budget
    literal = make_space(13, alphabet=(0, 1), mode="random", seed=0, budget=10).literal_at(0)
    assert_budget_exit(child("verify", "--function", literal, "--theorem", "conjecture",
                             "--k", "7"), "minimum line cover")


@pytest.mark.parametrize("argv, digest", [
    # At p = 101 the line table once kept the p + 1 lines through every
    # point as tuples (64 MB), and under this limit tables() ended in a
    # MemoryError traceback.
    (("classify", "--family", "diff-of-subgroups", "--p", "101"),
     "81d4f94d206fd396cf9abaeb1469c3ec47cac9cc00c3a7b4a4efea1653a3b9aa"),
    # The character twist once read a p^4-entry pairing table, which ended
    # in a MemoryError traceback at p = 71 under this limit.
    (("sweep", "--p", "71", "--mode", "random", "--budget", "1", "--char-twist",
      "--theorem", "product"),
     "c43aac17d42587ad899c640b6af516ed24fe10153d04d3c3111e1c9e7d9347d6"),
], ids=["classify-p101", "char-twist-p71"])
def test_large_p_classify_within_128_mb(argv, digest):
    # each digest is that of an unlimited run
    done = child(*argv, preexec_fn=address_space_cap(128 << 20))
    assert done.returncode == EXIT_OK, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest


def test_random_sweep_at_p101_within_256_mb():
    # blocks of 102 candidates, each point's column 306 bytes; the digest
    # is that of the per-candidate route this block route replaced, which
    # peaked near 56 MB
    done = child("sweep", "--p", "101", "--mode", "random", "--budget", "50",
                 "--theorem", "coset-counts", "--theorem", "product",
                 preexec_fn=address_space_cap(256 << 20))
    assert done.returncode == EXIT_OK, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == \
        "c131b748942a1a1147cc8b4765ef0b1eb42551e6b384ed4a5b19b145fcb10cbf"


def three_point_literal(p):
    """1 at index 0, z at index 1 and 1 at index p: a support in two
    parallel lines but in no one line, so classify takes the primal-cover
    route (the transform, line_sums, then the inverse transform)."""
    values = ["0"] * (p * p)
    values[0], values[1], values[p] = "1", "z", "1"
    return f"{p}; 2; " + ",".join(values)


def test_primal_cover_classify_bytes(capsys):
    code, out, err = run_cli(capsys, "classify", "--function", three_point_literal(23))
    assert code == EXIT_OK, err
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "9dc122dc2114daf4ad536ec51f17f59c832eca8747f4b8b86e8e73089f9baa33"
    desc = json.loads(out)["classification"]
    assert (desc["kind"], desc["cover_side"]) == ("two-parallel-lines", PRIMAL)


def test_primal_cover_classify_within_144_mb(tmp_path):
    # The forward and the inverse transform once built a gather table of
    # p*p*(p-1) indices each, and under this limit the run exited 64 out
    # of memory.  The digest is that of an unlimited run; the file name is
    # relative because config echoes it.
    (tmp_path / "three_point.txt").write_text(three_point_literal(101))
    done = child("classify", "--file", "three_point.txt", cwd=tmp_path,
                 preexec_fn=address_space_cap(144 << 20))
    assert done.returncode == EXIT_OK, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == \
        "ffb0d52460f5ff88af222fbec64f04b50bf33d18dc42d8fc3c076b1c8630a0bf"


@pytest.mark.parametrize("argv", [
    ("sweep", "--p", "2147483647", "--mode", "random", "--budget", "1",
     "--theorem", "product"),
    ("geometry", "--query", "blocking-min", "--p", "2147483647"),
], ids=["sweep", "blocking-min"])
def test_out_of_memory_is_a_usage_error(argv):
    # neither the plane tables (sweep) nor one mask of p^2 bits (blocking-min)
    # fits in 1 GB at this p; run only under the cap
    done = child(*argv, preexec_fn=address_space_cap(1 << 30))
    assert done.returncode == EXIT_USAGE, (done.returncode, done.stderr)
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert done.stderr.startswith("primeplane: error: out of memory")


def test_blocking_min_p1009_within_256_mb():
    # The witness is the two axes, 2017 of the 1,018,081 points.  A line
    # table at this p would hold about 127 GB, and listing the witness by
    # one whole-mask shift per point took about 30 s.
    done = child("geometry", "--query", "blocking-min", "--p", "1009",
                 preexec_fn=address_space_cap(256 << 20), timeout=20)
    assert done.returncode == EXIT_OK, done.stderr
    result = json.loads(done.stdout)["result"]
    assert result["minimum"] == 2017
    witness = parse_pointset(result["witness"])
    assert witness.size == 2017
    assert all(x == 0 or y == 0 for x, y in witness.pairs())


def test_zero_denominator_epsilon_is_a_usage_error(capsys):
    for argv in (["verify", "--family", "diff-of-subgroups", "--p", "3"],
                 ["sweep", "--p", "3", "--alphabet", "0,1"]):
        code, out, err = run_cli(capsys, *argv, "--theorem", "asym2", "--epsilon", "1/0")
        assert code == EXIT_USAGE
        assert "Traceback" not in err
        assert err.startswith("primeplane: error: ") and "1/0" in err



def test_rational_check_under_a_twist_names_the_twist(capsys):
    # {0, 1} is rational, but a character twist makes the values irrational
    argv = ("sweep", "--p", "3", "--alphabet=0,1", "--theorem", "rational")
    code, out, err = run_cli(capsys, *argv, "--char-twist")
    assert code == EXIT_USAGE and out == ""
    assert err == "primeplane: error: the rational check needs an untwisted space\n"
    code, out, err = run_cli(capsys, *argv[:3], "--alphabet=0,z", *argv[4:])
    assert code == EXIT_USAGE
    assert err == "primeplane: error: the rational check needs an all-rational alphabet\n"
    assert run_cli(capsys, *argv)[0] == EXIT_OK


def test_bad_parameters_rejected_on_an_empty_space(capsys):
    # alphabet {0}: no nonzero candidate, so nothing is ever evaluated
    empty = ("sweep", "--p", "3", "--alphabet", "0")
    code, payload = run_json(capsys, *empty, "--theorem", "conjecture", "--k", "2")
    assert payload["sweep"]["nonzero"] == 0
    code, out, err = run_cli(capsys, *empty, "--theorem", "conjecture", "--k", "99")
    assert code == EXIT_USAGE and "k must be an integer in [1, 3]" in err
    code, out, err = run_cli(capsys, *empty, "--theorem", "asym2", "--epsilon", "2")
    assert code == EXIT_USAGE and "epsilon must lie strictly between 0 and 1" in err


def test_negative_seed_is_a_usage_error(capsys):
    # random.seed drops the sign of an int, so seed -s would draw seed s's
    # candidates
    for argv in (["sweep", "--theorem", "product"], ["hunt", "--theorem", "product"],
                 ["frontier"]):
        code, out, err = run_cli(capsys, argv[0], "--p", "3", "--mode", "random",
                                 "--seed", "-1", *argv[1:])
        assert code == EXIT_USAGE, argv
        assert out == "" and err == "primeplane: error: seed must be nonnegative, got -1\n"


def test_jobs_below_one_is_a_usage_error(capsys):
    for argv in (["sweep", "--theorem", "product"], ["hunt", "--theorem", "product"],
                 ["frontier"]):
        for jobs in ("0", "-2"):
            code, out, err = run_cli(capsys, argv[0], "--p", "3", *argv[1:], "--jobs", jobs)
            assert code == EXIT_USAGE, (argv, jobs)
            assert out == "" and err == f"primeplane: error: --jobs must be at least 1, " \
                f"got {jobs}\n"


def test_jobs_above_one_only_on_sweep(capsys):
    # hunt and frontier run serially, so a worker count they would ignore
    # is a usage error; --jobs 1 stays accepted
    for argv in (["hunt", "--theorem", "product"], ["frontier"]):
        code, out, err = run_cli(capsys, argv[0], "--p", "2", *argv[1:], "--jobs", "2")
        assert code == EXIT_USAGE, argv
        assert out == "" and err == f"primeplane: error: {argv[0]} runs serially; " \
            f"--jobs must be 1, got 2\n"
        code, out, err = run_cli(capsys, argv[0], "--p", "2", *argv[1:], "--jobs", "1")
        assert code == EXIT_OK and out, (argv, err)


# stdout digests of the report envelopes that no benchmark command covers:
# the four --points geometry queries, a rank-1 verify (whose config still
# echoes the space defaults) and a classify from a literal
ENVELOPE_SHA256 = {
    ("geometry", "--query", "directions", "--points", "3; (0,0),(1,0),(1,1)"):
        "29e83f5bc92d32e09c3dae85a43c76b05b5a69f3ba2fc0cd10be10fd926cf317",
    ("geometry", "--query", "pencil", "--points", "3; (0,0),(1,0),(2,0)"):
        "f8adba2576eddb15f04fa01a09a276e71258a70278682c323e2adeaee45050ea",
    ("geometry", "--query", "rich-direction",
     "--points", "3; (0,0),(0,1),(0,2),(1,0),(1,1),(1,2),(2,0),(2,1)"):
        "74be3ef585a819577f1b90ee7553f95c7ed1c96011320f489d3982be22ca23e2",
    ("geometry", "--query", "bounded-direction", "--points", "5; (0,0),(1,2),(3,3)"):
        "1ea62555150010b1384d8c9aac970cb68926ee4bd38f90642d66288464fb1f4a",
    ("verify", "--function", "5; 1; 1,1,0,0,0"):
        "47a40dc03b26283c80fe51feb8d189b3a83c3365b3a154e30b8ee9b169773c36",
    ("classify", "--function", "3; 2; 1,1,1,0,0,0,0,0,0"):
        "171148e5fdcf66edc7307ee703ce2d6ad38c9cceedab2624b45b3f45f28a36fb",
}


def test_envelope_bytes(capsys):
    for argv, digest in ENVELOPE_SHA256.items():
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# stdout digests over fractional alphabets, recorded when they took the
# exact CycNum transform; they now take the integer kernel
FRACTIONAL_SHA256 = {
    ("sweep", "--p", "3", "--mode", "exhaustive", "--alphabet=-1/2,0,1",
     "--theorem", "product", "--theorem", "meshulam"):
        "3a6124ba18be853fbcd9c79a20d09e425397cff88104b5e9376fbe0c6f6c17c8",
    ("frontier", "--p", "7", "--rank", "1", "--mode", "exhaustive",
     "--alphabet=1/2,0,-1/3", "--format", "json"):
        "3bd3979f46e1fe133ffcc362d79d8f29e5d7405b5b67323fbb40c77821d1de86",
    ("sweep", "--p", "5", "--mode", "random", "--seed", "2", "--budget", "300",
     "--alphabet=-1/2,0,1,3/4", "--theorem", "product", "--theorem", "kp1",
     "--theorem", "coset-counts"):
        "c0b58fb0a89d6f7a6e550d23d5397f76adffd757e1faacab61ddc794252f1e17",
}


def test_fractional_alphabet_bytes(capsys):
    for argv, digest in FRACTIONAL_SHA256.items():
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_byte_identical_reruns(capsys):
    args = ("sweep", "--p", "3", "--alphabet", "-1,0,1", "--theorem", "kp1",
            "--mode", "random", "--seed", "7", "--budget", "200")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, curves1, _ = run_cli(capsys, "emit-curves", "--p", "5")
    _, curves2, _ = run_cli(capsys, "emit-curves", "--p", "5")
    assert curves1 == curves2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--family", "pm-two-cosets",
                             "--p", "3", "--theorem", "kp1", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["reports"][0]["verdict"] == "holds-with-equality"


def test_unreadable_file_and_unwritable_out_are_usage_errors(tmp_path):
    missing = tmp_path / "no-such-dir"
    for argv in (["verify", "--file", str(missing / "f.txt")],
                 ["verify", "--family", "pm-two-cosets", "--p", "3",
                  "--out", str(missing / "report.json")]):
        done = child(*argv)
        assert done.returncode == EXIT_USAGE, (argv, done.stderr)
        assert done.stderr.startswith("primeplane: error: "), argv
        assert "Traceback" not in done.stderr, argv
        assert done.stdout == ""
    assert not missing.exists()


def test_format_only_on_frontier(capsys):
    for argv in (["verify", "--family", "diff-of-subgroups", "--p", "5", "--format", "csv"],
                 ["emit-curves", "--p", "2", "--format", "json"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "--format" in err and out == ""
    code, out, err = run_cli(capsys, "frontier", "--p", "3", "--mode", "exhaustive",
                             "--alphabet=-1,0,1", "--rank", "2", "--jobs", "1",
                             "--format", "json")
    assert code == EXIT_OK, err
    # the p3-exhaustive frontier digest in perfbench/expected.json
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "21b8daccaf18c715ae33d748cb0329cb6c8304d949d8a0d47374656c774ec9d1"


#: the recorded gallery-exact calls, "verify:<family>:p<p>" and "classify:...",
#: with their exit codes and stdout digests
GALLERY_EXACT = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)["gallery-exact"]["commands"]


def test_gallery_exact_records_every_family_and_prime():
    assert len(GALLERY_EXACT) == 70


@pytest.mark.parametrize("call", sorted(GALLERY_EXACT))
def test_gallery_exact_digest(capsys, call):
    sub, family, p = call.split(":")
    argv = [sub, "--family", family, "--p", p[1:]]
    if family == "sharp2d":
        argv += ["--m", "2", "--n", "3"]
    code, out, err = run_cli(capsys, *argv)
    expected = GALLERY_EXACT[call]["any"]
    assert code == expected["exit"], err
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


def test_verify_conjecture_requires_k(capsys):
    code, out, err = run_cli(capsys, "verify", "--family", "diff-of-subgroups",
                             "--p", "3", "--theorem", "conjecture")
    assert code == EXIT_USAGE
    code2, payload = run_json(capsys, "verify", "--family", "diff-of-subgroups",
                              "--p", "3", "--theorem", "conjecture", "--k", "2")
    assert code2 == EXIT_OK


def test_verify_sharp_families(capsys):
    code, payload = run_json(capsys, "verify", "--family", "sharp2d", "--p", "5",
                             "--m", "2", "--n", "3", "--theorem", "product")
    assert code == EXIT_OK

    code2, out, err = run_cli(capsys, "verify", "--family", "sharp1d", "--p", "5",
                              "--theorem", "birotao")
    assert code2 == EXIT_USAGE  # missing --m


def test_violation_exit_code_mapping():
    # no implemented bound admits a true violation, so exercise the mapping
    # directly on a synthetic report list
    from primeplane.bounds import VIOLATED, BoundReport
    from primeplane.cli import EXIT_VIOLATION

    reports = [BoundReport("product", VIOLATED, Fraction(1), Fraction(9))]
    assert EXIT_VIOLATION == 2
    assert any(r.verdict == VIOLATED for r in reports)


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(func):
        raise RuntimeError("two-parallel support sandwich failed")

    monkeypatch.setattr(cli, "classify_exception", broken)
    code, out, err = run_cli(capsys, "classify", "--family", "character-coset", "--p", "3")
    assert code == EXIT_INTERNAL == 70
    assert "primeplane: internal error: two-parallel support sandwich failed" in err
    assert "Traceback" not in err
    assert out == ""


def test_internal_error_names_the_classified_function(capsys, monkeypatch):
    from primeplane import bounds, search

    def broken(desc, f):
        raise RuntimeError(f"descriptor {desc.kind} failed to reconstruct the function")

    monkeypatch.setattr(bounds, "_verify_reconstruction", broken)
    literal = search.construct("character-coset", 3).func.to_literal()
    code, out, err = run_cli(capsys, "classify", "--family", "character-coset", "--p", "3")
    assert code == EXIT_INTERNAL
    assert "primeplane: internal error: descriptor " in err
    assert err.rstrip().endswith(f"failed to reconstruct the function (function {literal})")
    assert "Traceback" not in err
    assert out == ""
