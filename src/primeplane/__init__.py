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
    all_subgroups,
    bounded_line_direction,
    covered_by_lines,
    directions_determined,
    is_blocking_set,
    min_blocking_size,
    min_line_cover,
    one_line_cover,
    parse_pointset,
    pencil_stability,
    rich_direction_search,
)
from .fourier import (
    GFunc,
    convolution,
    coset_indicator,
    coset_restriction_transform,
    coset_sum_identity,
    dual_convolution,
    fourier_transform,
    galois_twist,
    inverse_transform,
    rational_support_closure,
    restrict_to_coset,
    twist,
)
from .bounds import (
    BoundReport,
    ExceptionDescriptor,
    SupportPair,
    check,
    check_quasicharacter,
    classify_exception,
    profile,
    sumset_size,
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
