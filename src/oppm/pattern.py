"""Pattern preprocessing for order-preserving matching.

A pattern is a sequence of 64-bit signed integers.  Two equal-length
sequences are order-isomorphic when all pairwise comparisons agree, i.e.
``x[i] <= x[j]`` exactly when ``y[i] <= y[j]``.  A compiled pattern holds
three arrays that together realize a Morris-Pratt style automaton for this
relation:

* ``lmax[k]`` / ``lmin[k]`` point at the previous character that most
  tightly bounds character k+1 from below / above.  They reduce the test
  "does one more character keep the window order-isomorphic" to two
  comparisons.
* ``border[k]`` is the length of the longest proper prefix of the length
  k+1 prefix that is order-isomorphic to a suffix of it; it plays the role
  of the classic failure function.

Index convention: the arrays are ordinary 0-based Python tuples, entry k
describing the prefix of length k+1, but the *entries* of ``lmax`` and
``lmin`` are 1-based character positions where 0 means "no such
character".

The string, tree and DAG matchers read, instead of these arrays, the step
table derived from them: ``steps[q] = (oa, ob, f)`` for automaton state q
(the matched length), one tuple per transition test.

* ``oa = lmax[q] - 1 - q`` and ``ob = lmin[q] - 1 - q``, or None where
  the bound is absent, are offsets relative to the position of the new
  character.  With the new character c at index j of the text, the
  transition test is
  ``(oa is None or t[j + oa] < c) == (ob is None or c < t[j + ob])``.
  A present offset lies in [-q, -1], so ``j + oa`` is at least the
  window's start ``j - q >= 0`` and never wraps around to the end.
* ``f = border[q - 1]`` (0 for q = 0) is the failure target.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field


@dataclass(frozen=True)
class PatternTables:
    """Immutable compiled form of a pattern.

    ``steps`` is derived from the other fields on construction and left
    out of ``__init__``, ``==``, ``hash`` and ``repr``.
    """

    values: tuple[int, ...]
    lmax: tuple[int, ...]
    lmin: tuple[int, ...]
    border: tuple[int, ...]
    steps: tuple[tuple[int | None, int | None, int], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        steps = tuple(
            (
                a - 1 - q if a else None,
                b - 1 - q if b else None,
                self.border[q - 1] if q else 0,
            )
            for q, (a, b) in enumerate(zip(self.lmax, self.lmin))
        )
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.values)


def _tight_lower(p: Sequence[int]) -> list[int]:
    # Entry i is the 1-based position, within p[:i], of the largest value
    # not exceeding p[i] (the rightmost one on ties), or 0.  Positions are
    # deleted from a value-sorted doubly linked list in decreasing position
    # order; the live predecessor at deletion time is the wanted position.
    m = len(p)
    lower = [0] * m
    order = sorted(range(m), key=lambda k: (p[k], k))
    rank = [0] * m
    for r, k in enumerate(order):
        rank[k] = r
    prev_rank = list(range(-1, m - 1))
    next_rank = list(range(1, m + 1))
    for i in range(m - 1, -1, -1):
        r = rank[i]
        pr, nx = prev_rank[r], next_rank[r]
        if pr >= 0:
            lower[i] = order[pr] + 1
            next_rank[pr] = nx
        if nx < m:
            prev_rank[nx] = pr
    return lower


def compute_lmax_lmin(p: Sequence[int]) -> tuple[list[int], list[int]]:
    """Compute the tight-predecessor arrays of ``p`` in O(m log m).

    ``lmax[i]`` is the rightmost position j < i+1 (1-based) whose value is
    the largest one not exceeding ``p[i]``; ``lmin[i]`` symmetrically holds
    the rightmost position of the smallest value not below ``p[i]``.  A 0
    entry means no qualifying position exists.

    ``lmin`` of ``p`` is ``lmax`` of the negated pattern, ties again going
    to the rightmost position, so one routine computes both.
    """
    if len(p) == 0:
        raise ValueError("pattern must be non-empty")
    return _tight_lower(p), _tight_lower([-x for x in p])


def _extend(lmax, lmin, window, i, offset):
    # Window character k (1-based) lives at window[offset + k - 1]; the new
    # character is window[offset + i].  An absent bound counts as satisfied.
    a = lmax[i]
    b = lmin[i]
    c = window[offset + i]
    alpha = a == 0 or window[offset + a - 1] < c
    beta = b == 0 or c < window[offset + b - 1]
    return alpha == beta


def extend_isomorphism(
    tables: PatternTables, window: Sequence[int], i: int, offset: int = 0
) -> bool:
    """Decide in O(1) whether a matched prefix of length ``i`` extends.

    The caller guarantees that the pattern prefix of length ``i`` is
    order-isomorphic to the window's first ``i`` characters, where window
    character k is ``window[offset + k - 1]``.  Returns True iff the
    prefix of length ``i + 1`` is order-isomorphic to the first ``i + 1``
    window characters.
    """
    return _extend(tables.lmax, tables.lmin, window, i, offset)


def op_isomorphic(x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff ``x`` and ``y`` have equal length and the same relative
    character orders."""
    if len(x) != len(y):
        return False
    if len(x) == 0:
        return True
    lmax, lmin = compute_lmax_lmin(x)
    return all(_extend(lmax, lmin, y, i, 0) for i in range(len(x)))


def compute_border_array(
    p: Sequence[int], lmax: Sequence[int], lmin: Sequence[int]
) -> list[int]:
    """Compute the order-preserving border array of ``p`` in O(m).

    ``border[i]`` (for the prefix of length i+1) is the largest j < i+1
    such that the first j characters are order-isomorphic to the last j
    characters of that prefix; ``border[0]`` is 0.  Uses the self-matching
    failure-function recurrence over the O(1) extension test.
    """
    m = len(p)
    border = [0] * m
    for i in range(2, m + 1):
        k = border[i - 2]
        while True:
            if _extend(lmax, lmin, p, k, i - k - 1):
                border[i - 1] = k + 1
                break
            # k == 0 cannot fail: both bound positions are absent there.
            k = border[k - 1]
    return border


def build_pattern_tables(p: Sequence[int]) -> PatternTables:
    """Compile a non-empty pattern into its matching tables."""
    lmax, lmin = compute_lmax_lmin(p)
    border = compute_border_array(p, lmax, lmin)
    return PatternTables(tuple(p), tuple(lmax), tuple(lmin), tuple(border))
