"""Order-preserving matching over a single text string."""

from collections.abc import Iterable, Sequence

from ._record import Record
from .pattern import PatternTables


class MatchStats(Record):
    """Automaton transition counts from one matching run."""

    goto_count: int
    fail_count: int


def match_string(
    tables: PatternTables, t: Sequence[int] | Iterable[Sequence[int]]
) -> tuple[list[int], MatchStats]:
    """Find every window of ``t`` order-isomorphic to the pattern.

    ``t`` is a sequence of labels, or an iterable of sequences (chunks)
    whose concatenation is the text; the text is then read one chunk at a
    time, and no more of it is kept than the automaton can look back at.

    Returns the ascending list of 1-based end positions together with the
    transition counts.  Overlapping occurrences are all reported: after an
    occurrence the automaton leaves the accepting state through its failure
    transition and keeps scanning.  ``goto_count`` is the length of the
    text and ``fail_count <= goto_count`` holds on every input.
    """
    m = len(tables.values)
    steps = tables.steps
    restart = tables.border[m - 1]
    out: list[int] = []
    fail = 0
    q = 0
    read = 0  # labels read before the chunk
    buf: Sequence[int] = ()
    # A step in state q reads the new label and offsets in [-q, -1], and a
    # failure transition lowers q, so the state's last q labels are all a
    # chunk needs of the text before it.
    for chunk in (t,) if isinstance(t, Sequence) else t:
        buf = [*buf[len(buf) - q :], *chunk] if q else chunk
        shift = read - q + 1  # buf index + shift = 1-based text position
        # Every character ends its failure chain with exactly one goto
        # transition, so the goto count is the text's length without
        # counting.
        for j, c in enumerate(chunk, q):
            while True:
                oa, ob, f = steps[q]
                if (oa is None or buf[j + oa] < c) == (ob is None or c < buf[j + ob]):
                    break
                fail += 1
                q = f
            q += 1
            if q == m:
                out.append(j + shift)
                fail += 1  # leave the accepting state via its failure arc
                q = restart
        read += len(chunk)
    return out, MatchStats(goto_count=read, fail_count=fail)
