"""girthforge: search and verification for quasi-cyclic (J,K)-regular LDPC
block codes with large girth.

The package builds base matrices (all-ones, Steiner triple systems, or an
existing lifted code), searches voltage assignments whose lifted Tanner graph
reaches a target girth, lifts degree matrices to tailbiting or circulant
parity-check layouts, and certifies girth and minimum distance with
independent oracles.
"""

from .matrices import (BaseMatrix, DegreeMatrix, SparseParityCheck, NO_EDGE,
                       emit_alist, emit_degree_matrix, gf2_rank, parse_alist,
                       parse_degree_matrix)
from .bases import (SteinerTripleSystem, CANONICAL_STS, all_ones_base,
                    base_from_code, shorten_sts_base, sts_base,
                    zero_voltage_mask)
from .lifting import lift_circulant, lift_tailbiting, reorder_to_circulant
from .girth import (GirthSystem, certified_girth, check_assignment_sorted,
                    collect_inequalities, complexity_counts, free_girth,
                    girth_bfs_oracle, grow_trees, reduce_trees)
from .mindist import Distance, min_distance_bruteforce, min_distance_md
from .bounds import (base_girth, d2_bruteforce, distance_cap,
                     theorem2_lower_bound, theorem3_applies)
from .search import (InfeasibleTarget, SearchConfig, SearchResult,
                     TimeBudgetExceeded, exhaustive, extend_column, search)

__version__ = "0.1.0"
