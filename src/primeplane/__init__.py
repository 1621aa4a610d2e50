"""Exact Fourier analysis and support-uncertainty bounds on prime planes.

The package computes Fourier transforms of Q(zeta_p)-valued functions on
F_p and F_p^2 in exact cyclotomic arithmetic, evaluates the family of
support-size inequalities with their classified exceptional structures,
and searches small candidate spaces exhaustively for extremal witnesses.

Importing the package loads none of its modules: each export, and each
module, is imported on its first access (PEP 562), so a command line
launch loads only the modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the exports, by the module that defines them
_EXPORTS = {
    "cyclotomic": ("CycNum", "format_value", "is_prime", "parse_value", "root_of_unity"),
    "plane": ("DUAL", "PRIMAL", "LineSubgroup", "Point", "PointSet",
              "SearchBudgetExceeded", "bounded_line_direction", "covered_by_lines",
              "directions_determined", "min_blocking_size", "min_line_cover",
              "parse_pointset", "pencil_stability", "rich_direction_search"),
    "fourier": ("GFunc", "fourier_transform", "inverse_transform", "restrict_to_coset",
                "twist"),
    "bounds": ("BoundReport", "ExceptionDescriptor", "SupportPair", "classify_exception"),
    "search": ("Construction", "FrontierMap", "SearchSpace", "attainable_lattice",
               "construct", "frontier", "hunt", "make_space", "sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
