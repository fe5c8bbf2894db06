"""Order-preserving pattern matching on strings, trees, and DAGs.

The pattern is compiled once into PatternTables (one transition test
per automaton state: the offsets of the tight lower and upper bounds and
the failure target of the order-preserving border array); the same
tables drive the string matcher, the tree matcher, and the DAG path
search.  Brute-force counterparts of every matcher live in
``oppm.oracles``.
"""

from .dag import (
    DagValidationError,
    TextDag,
    build_dag,
    build_dasg,
    match_dag,
    match_dag_explored,
    opsm,
)
from .gen import (
    AdversarialInstance,
    gen_adversarial,
    gen_random_dag,
    gen_random_string,
    gen_random_tree,
)
from .pattern import (
    PatternTables,
    build_pattern_tables,
    compute_border_array,
    compute_lmax_lmin,
    op_isomorphic,
)
from .stringmatch import MatchStats, match_string
from .tree import TextTree, TreeValidationError, build_tree
from .treematch import TreeMatchReport, match_tree

__all__ = [
    "AdversarialInstance",
    "DagValidationError",
    "MatchStats",
    "PatternTables",
    "TextDag",
    "TextTree",
    "TreeMatchReport",
    "TreeValidationError",
    "build_dag",
    "build_dasg",
    "build_pattern_tables",
    "build_tree",
    "compute_border_array",
    "compute_lmax_lmin",
    "gen_adversarial",
    "gen_random_dag",
    "gen_random_string",
    "gen_random_tree",
    "match_dag",
    "match_dag_explored",
    "match_string",
    "match_tree",
    "op_isomorphic",
    "opsm",
]
