"""Order-preserving pattern matching on strings, trees, and DAGs.

The pattern is compiled once into PatternTables (one transition test
per automaton state: the offsets of the tight lower and upper bounds and
the failure target of the order-preserving border array); the same
tables drive the string matcher, the tree matcher, and the DAG path
search.  Brute-force counterparts of every matcher live in
``oppm.oracles``.
"""

# Each public name's module, imported on the name's first use (PEP 562), so
# that ``python -m oppm.cli`` loads only the modules the CLI imports.
_MODULES = {
    "AdversarialInstance": "gen",
    "DagValidationError": "dag",
    "MatchStats": "stringmatch",
    "PatternTables": "pattern",
    "TextDag": "dag",
    "TextTree": "tree",
    "TreeMatchReport": "treematch",
    "TreeValidationError": "tree",
    "build_dag": "dag",
    "build_dasg": "dag",
    "build_pattern_tables": "pattern",
    "build_tree": "tree",
    "compute_border_array": "pattern",
    "compute_lmax_lmin": "pattern",
    "gen_adversarial": "gen",
    "gen_random_dag": "gen",
    "gen_random_string": "gen",
    "gen_random_tree": "gen",
    "match_dag": "dag",
    "match_dag_explored": "dag",
    "match_string": "stringmatch",
    "match_tree": "treematch",
    "op_isomorphic": "pattern",
    "opsm": "dag",
}

__all__ = list(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
