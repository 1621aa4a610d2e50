"""A launch loads only what its subcommand runs: each case starts a fresh
interpreter and reads the modules it has loaded when the command is done."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import primeplane

SRC = Path(primeplane.__file__).resolve().parent.parent

#: the package's exports and modules, as `from primeplane import *` binds them
STAR_NAMES = {
    "CycNum", "format_value", "is_prime", "parse_value", "root_of_unity",
    "DUAL", "PRIMAL", "LineSubgroup", "Point", "PointSet", "SearchBudgetExceeded",
    "bounded_line_direction", "covered_by_lines", "directions_determined",
    "min_blocking_size", "min_line_cover", "parse_pointset", "pencil_stability",
    "rich_direction_search",
    "GFunc", "fourier_transform", "inverse_transform", "restrict_to_coset", "twist",
    "BoundReport", "ExceptionDescriptor", "SupportPair", "classify_exception",
    "Construction", "FrontierMap", "SearchSpace", "attainable_lattice", "construct",
    "frontier", "hunt", "make_space", "sweep",
    "cyclotomic", "plane", "fourier", "bounds", "search",
}

# `python -m primeplane.cli ARGV`, and the console script's `from primeplane.cli
# import main`; each prints the loaded module names to stderr on its last line
MODULE_ROUTE = """
import runpy, sys
sys.argv = ["primeplane", *sys.argv[1:]]
try:
    runpy.run_module("primeplane.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""
SCRIPT_ROUTE = """
import sys
from primeplane.cli import main
sys.argv = ["primeplane", *sys.argv[1:]]
main()
print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""


def run_child(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_by(route, *argv):
    return set(run_child(route, *argv).stderr.splitlines()[-1].split())


@pytest.mark.parametrize("route", [MODULE_ROUTE, SCRIPT_ROUTE], ids=["module", "script"])
@pytest.mark.parametrize("argv", [["--version"], ["geometry", "--query", "blocking-min",
                                                  "--p", "5"]])
def test_version_and_geometry_load_no_search_layers(route, argv):
    loaded = loaded_by(route, *argv)
    assert "primeplane.plane" in loaded
    assert not loaded & {"primeplane.bounds", "primeplane.fourier", "primeplane.search",
                         "dataclasses"}


def test_a_sweep_loads_no_dataclasses():
    loaded = loaded_by(MODULE_ROUTE, "sweep", "--p", "3", "--alphabet=0,1",
                       "--theorem", "product", "--theorem", "asym2", "--epsilon", "1/2")
    assert "primeplane.search" in loaded
    assert "dataclasses" not in loaded


def test_star_import_binds_every_export_and_module():
    out = run_child("from primeplane import *\n"
                    "print(' '.join(n for n in dir() if not n.startswith('_')))").stdout
    assert set(out.split()) == STAR_NAMES
    from primeplane import bounds, search
    assert primeplane.sweep is search.sweep and primeplane.SupportPair is bounds.SupportPair
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        primeplane.nope
