"""Exact Fourier analysis and support-uncertainty bounds on prime planes.

The package computes Fourier transforms of Q(zeta_p)-valued functions on
F_p and F_p^2 in exact cyclotomic arithmetic, evaluates the family of
support-size inequalities with their classified exceptional structures,
and searches small candidate spaces exhaustively for extremal witnesses.
"""

__version__ = "0.1.0"

from .cyclotomic import CycNum, format_value, is_prime, parse_value, root_of_unity
from .plane import (
    DUAL,
    PRIMAL,
    Coset,
    LineSubgroup,
    Point,
    PointSet,
    SearchBudgetExceeded,
    bounded_line_direction,
    covered_by_lines,
    directions_determined,
    min_blocking_size,
    min_line_cover,
    parse_pointset,
    pencil_stability,
    rich_direction_search,
)
from .fourier import (
    GFunc,
    fourier_transform,
    inverse_transform,
    restrict_to_coset,
    twist,
)
from .bounds import (
    BoundReport,
    ExceptionDescriptor,
    SupportPair,
    check,
    classify_exception,
)
from .search import (
    Construction,
    FrontierMap,
    SearchSpace,
    attainable_lattice,
    construct,
    frontier,
    hunt,
    make_space,
    sweep,
)
