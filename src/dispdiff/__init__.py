"""Dispersive and diffusive maps on fixed-width binary words.

Construct linear maps where one flipped input bit flips exactly half the
output bits (dispersive), and permutations where each output bit flips
for exactly half of all single-bit input changes (diffusive), then prove
both properties by exhaustive enumeration, exactly, in integers.
"""

from .bitword import (
    DEFAULT_PAIR_BUDGET,
    MAX_WIDTH,
    BitWord,
    BudgetExceededError,
    pair_count,
)
from .dispersive import (
    DispersionReport,
    build_dispersive,
    even_weight_obstruction_check,
    format_dispersion_report,
    min_output_dim,
    semi_weight_generators,
    verify_dispersive,
)
from .diffusive import (
    DecomposedSums,
    DiffusionReport,
    column_diffusive,
    decompose_sums,
    extend_output,
    format_diffusion_report,
    g_table,
    quadruple_sum_check,
    verify_diffusive,
)
from .explorer import SearchOutcome, search_linear_k_dispersive
from .f2linear import (
    LinearMap,
    TruthTableMap,
    parse_generator_matrix,
    parse_map_file,
    parse_truth_table,
    rank,
    serialize_generator_matrix,
    serialize_truth_table,
    tabulate,
    transpose,
)

__all__ = [
    "DEFAULT_PAIR_BUDGET",
    "MAX_WIDTH",
    "BitWord",
    "BudgetExceededError",
    "pair_count",
    "DispersionReport",
    "build_dispersive",
    "even_weight_obstruction_check",
    "format_dispersion_report",
    "min_output_dim",
    "semi_weight_generators",
    "verify_dispersive",
    "DecomposedSums",
    "DiffusionReport",
    "column_diffusive",
    "decompose_sums",
    "extend_output",
    "format_diffusion_report",
    "g_table",
    "quadruple_sum_check",
    "verify_diffusive",
    "SearchOutcome",
    "search_linear_k_dispersive",
    "LinearMap",
    "TruthTableMap",
    "parse_generator_matrix",
    "parse_map_file",
    "parse_truth_table",
    "rank",
    "serialize_generator_matrix",
    "serialize_truth_table",
    "tabulate",
    "transpose",
]

__version__ = "0.1.0"
