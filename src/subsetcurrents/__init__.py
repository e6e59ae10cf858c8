"""Subset currents on free groups, at desk scale and in exact arithmetic.

Core graphs for finitely generated subgroups, fiber products and the
product N(H, K), round-graphs and cylinder tables, the integral weight
realization algorithm, and rational kernel approximation.
"""

from .errors import (AdmissibilityError, BasisMismatchError,
                     FileFormatError, InfeasibleKernelError,
                     LetterRangeError)
from .words import Word, format_word, parse_word
from .stallings import (CoreGraph, LabeledGraph, Subgroup, basis_of,
                        contains, core_from_generators, finite_index, fold,
                        graph_from_text, graph_to_text, hull_core,
                        label_isomorphic, reduced_rank, subgroup_from_text,
                        subgroup_to_text)
from .fiber import (ProductGraph, component_census, fiber_product,
                    intersection, product_rank, shnc_margin)
from .cylinders import (RationalCurrent, RoundGraph, WeightTable,
                        check_matching, count_round_graphs, cylinder_table,
                        distance, enumerate_round_graphs,
                        round_graph_from_text, round_graph_to_text,
                        table_from_text, table_to_text,
                        validate_round_graph)
from .realize import (SCGraphQuotient, WeightSystem, decompose, realize,
                      verify_realization)
from .approx import (approximate_table, convergence_run, integerize,
                     rational_kernel_point, rationalize, subgroup_Hn)

__version__ = "0.1.0"
