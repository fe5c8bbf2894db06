"""Order-preserving matching over a single text string."""

from collections.abc import Sequence
from dataclasses import dataclass

from .pattern import PatternTables


@dataclass
class MatchStats:
    """Automaton transition counts from one matching run."""

    goto_count: int
    fail_count: int


def match_string(
    tables: PatternTables, t: Sequence[int]
) -> tuple[list[int], MatchStats]:
    """Find every window of ``t`` order-isomorphic to the pattern.

    Returns the ascending list of 1-based end positions together with the
    transition counts.  Overlapping occurrences are all reported: after an
    occurrence the automaton leaves the accepting state through its failure
    transition and keeps scanning.  ``goto_count == len(t)`` and
    ``fail_count <= goto_count`` hold on every input.
    """
    m = len(tables.values)
    steps = tables.steps
    restart = tables.border[m - 1]
    out: list[int] = []
    fail = 0
    q = 0
    # Every character ends its failure chain with exactly one goto
    # transition, so the goto count is len(t) without counting.
    for j, c in enumerate(t):
        while True:
            oa, ob, f = steps[q]
            if (oa is None or t[j + oa] < c) == (ob is None or c < t[j + ob]):
                break
            fail += 1
            q = f
        q += 1
        if q == m:
            out.append(j + 1)
            fail += 1  # leave the accepting state via its failure arc
            q = restart
    return out, MatchStats(goto_count=len(t), fail_count=fail)
