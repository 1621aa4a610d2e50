"""The package holds what the command line runs, function by function.

A child interpreter runs CALLS through cli.main under sys.setprofile and
records each code object of src/primeplane that it enters.  Every `def` of
the package that the run never enters must be in UNENTERED, with its
reason.  A fresh child means that no cache another test filled can hide a
call.  A function is keyed by its file and first line, counted from its
first decorator, as its code object's co_firstlineno is; Python 3.10 has
no co_qualname.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import primeplane

PACKAGE = Path(primeplane.__file__).parent
SRC = PACKAGE.parent

#: the defs no CLI call enters, by (module, qualified name), with the reason
UNENTERED = {
    ("bounds", "evaluate"): "perfbench/worker.py wraps it to count check calls",
    ("fourier", "pair_exponents"): "perfbench/worker.py reads its cache statistics",
    ("cli", "__getattr__"): "PEP 562: reads cli's lazy names from outside, before a handler",
    ("cyclotomic", "CycNum.__init__"): "the public constructor; perfbench/worker.py wraps it",
    ("cyclotomic", "CycNum.__setattr__"): "immutability: runs only when a caller assigns",
    ("cyclotomic", "CycNum.__reduce__"): "pickling, for sweep --jobs workers",
    ("cyclotomic", "CycNum.__repr__"): "the object model: repr() of a value",
    ("fourier", "GFunc.__setattr__"): "immutability: runs only when a caller assigns",
    ("fourier", "GFunc.__reduce__"): "pickling",
    ("fourier", "GFunc.__hash__"): "the object model: hash() of a function",
    ("fourier", "GFunc.__repr__"): "the object model: repr() of a function",
    ("plane", "_Record.__eq__"): "the object model: == between records",
    ("plane", "_Record.__repr__"): "the object model: repr() of a record",
    ("plane", "_Record.__reduce__"): "pickling",
    ("plane", "_Frozen.__hash__"): "the object model: hash() of a point, subgroup or set",
    ("plane", "_Frozen.__setattr__"): "immutability: runs only when a caller assigns",
    ("plane", "_Frozen.__delattr__"): "immutability: runs only when a caller deletes",
}

#: a nonparallel primal-cover, a parallel dual-cover and a nonparallel
#: dual-cover two-line classification at p = 5
TWO_LINE_LITERALS = [
    "5; 2; 1,6,7,8,0,2,0,0,0,0,3,0,0,0,0,4,0,0,0,0,5,0,0,0,0",
    "5; 2; 1,-1,0,1,3,z^2,-3-3*z-3*z^2-3*z^3,z^2,1+z+z^2+z^3,0,-z^3,0,-1-z-z^2-z^3,3*z^3,"
    "-1-z-z^2-z^3,3*z^2,z,-z^2,0,z,0,z^3,3*z,z^3,-z",
    "5; 2; 3,z^2,z^2,0,1+z+z^2+z^3,-z^2+z^3,4*z^3,0,0,0,-1-z-z^2-z^3,-1,3*z,0,-1-z-z^2-z^3,"
    "0,0,-z^3,-2-3*z-3*z^2-3*z^3,1,0,0,z,0,3*z^2",
]


def _theorems(*names):
    return [arg for name in names for arg in ("--theorem", name)]


RANK2_CHECKS = ["product", "meshulam", "rational", "kp1", "kp2", "product3", "roots",
                "conjecture", "asym2", "asym3", "coset-counts"]


def cli_calls(tmp: Path):
    """(argv, exit code) of every subcommand, every geometry query, both
    ranks, every candidate route (integer stream and kernel, exact masks,
    twisted), every check and every classifier branch."""
    literal = tmp / "f.txt"
    literal.write_text("3; 1; 1,1,0\n", encoding="utf-8")
    families = [["character-coset"], ["diff-of-subgroups"], ["pm-two-cosets"],
                ["triple-subgroups"], ["sharp2d", "--m", "2", "--n", "3"]]
    calls = []
    for family in families:
        argv = ["--family", family[0], "--p", "5", *family[1:]]
        calls += [(["verify", *argv], 0), (["classify", *argv], 0)]
    calls += [
        (["verify", "--family", "pm-two-cosets", "--p", "5", *_theorems(*RANK2_CHECKS),
          "--k", "2"], 0),
        (["verify", "--family", "sharp1d", "--p", "5", "--m", "2",
          *_theorems("product", "birotao")], 0),
        (["verify", "--file", str(literal), "--out", str(tmp / "out.json")], 0),
        (["classify", "--function", "3; 2; 1,1,0,1,-1,1,0,1,1"], 0),
        (["classify", "--function", "5; 2; 1,z,0,0,0,1" + ",0" * 19], 0),
        *[(["classify", "--function", text], 0) for text in TWO_LINE_LITERALS],
        (["geometry", "--query", "blocking-min", "--p", "5"], 0),
        *[(["geometry", "--query", query, "--points",
            "5; (0,1),(0,2),(0,3),(0,4),(1,1),(1,2),(1,3),(2,2),(2,4),(3,0),(3,3),(3,4)"], 0)
          for query in ("directions", "pencil", "rich-direction", "bounded-direction")],
        (["sweep", "--p", "3", "--alphabet=-1,0,1", *_theorems(*RANK2_CHECKS),
          "--k", "2", "--epsilon", "1/2"], 0),
        (["sweep", "--p", "3", "--alphabet=0,z", "--theorem", "product"], 0),
        (["sweep", "--p", "2", "--alphabet=0,1", "--char-twist", "--theorem", "product"], 0),
        (["sweep", "--p", "5", "--mode", "random", "--budget", "40", "--alphabet=0,1/2",
          *_theorems("meshulam", "coset-counts")], 0),
        (["sweep", "--p", "5", "--mode", "random", "--budget", "20", "--alphabet=0,1,z",
          "--char-twist", "--theorem", "asym2", "--epsilon", "1/3"], 0),
        (["sweep", "--p", "5", "--rank", "1", "--alphabet=0,1", *_theorems("birotao")], 0),
        (["hunt", "--p", "3", "--alphabet=-1,0,1", "--theorem", "roots"], 0),
        (["frontier", "--p", "3", "--alphabet=0,1", "--format", "json"], 0),
        (["frontier", "--p", "3", "--alphabet=0,1"], 0),
        (["emit-curves", "--p", "3"], 0),
        (["verify", "--theorem", "no-such-check"], 64),
    ]
    return calls


_CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


calls = json.load(sys.stdin)
sys.setprofile(record)
from primeplane import cli

codes = []
for argv in calls:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def definitions():
    """{(module, first line): qualified name} for every def of the package."""
    out = {}

    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[module, first] = prefix + child.name
                walk(module, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(module, child, f"{prefix}{child.name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(path.stem, ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def unentered(calls):
    """(exit codes, {(module, qualified name)} of the defs the calls never enter)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(calls),
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    entered = {(Path(name).stem, line) for name, line in result["entered"]
               if Path(name).parent == PACKAGE}
    return result["codes"], {(key[0], name) for key, name in definitions().items()
                             if key not in entered}


def test_every_definition_is_reachable_from_the_cli(tmp_path):
    calls = cli_calls(tmp_path)
    codes, missed = unentered([argv for argv, _ in calls])
    assert codes == [code for _, code in calls]
    assert missed == set(UNENTERED)
