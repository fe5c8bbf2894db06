"""Pattern preprocessing for order-preserving matching.

Two equal-length sequences are order-isomorphic when all pairwise
comparisons agree, i.e. ``x[i] <= x[j]`` exactly when ``y[i] <= y[j]``.
A compiled pattern drives a Morris-Pratt style automaton for this
relation, whose state q is the length of the matched prefix.  It holds
one tuple per state, ``steps[q] = (oa, ob, f)``, and the string, tree and
DAG matchers read nothing else:

* ``oa`` / ``ob`` point at the earlier pattern character that most
  tightly bounds character q from below / above (None where there is
  none), as an offset relative to the new character.  With the new
  character c at index j of the text, one more character keeps the
  window order-isomorphic exactly when
  ``(oa is None or t[j + oa] < c) == (ob is None or c < t[j + ob])``.
  A present offset lies in [-q, -1], so ``j + oa`` is at least the
  window's start ``j - q >= 0`` and never wraps around to the end.
* ``f = border[q - 1]`` (0 for q = 0) is the failure target, where
  ``border[k]`` is the length of the longest proper prefix of the length
  k+1 prefix that is order-isomorphic to a suffix of it.

The bounds come from ``compute_lmax_lmin`` as 1-based positions (0 for
none); ``oa = lmax[q] - 1 - q``.  The border array is computed by the
same loop and the same test as ``match_string``, run on the pattern
itself.

Labels may come from any totally ordered alphabet: compiling a pattern,
``match_string`` and ``match_tree`` only sort labels and compare them
with ``<``.  ``match_dag`` and ``opsm`` take numbers, which the DAG
search's float infinities can bound, and ``build_dasg`` and ``opsm``
hashable ones.  The CLI's files hold signed 64-bit integers.
"""

from collections.abc import Sequence

from ._record import FrozenRecord

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class PatternTables(FrozenRecord):
    """Immutable compiled form of a pattern."""

    values: tuple[int, ...]
    border: tuple[int, ...]
    steps: tuple[tuple[int | None, int | None, int], ...]


def _tight_lower(p: Sequence[int], reverse: bool = False) -> list[int]:
    # Entry i is the 1-based position, within p[:i], of the largest value
    # not exceeding p[i] (the smallest one not below it when ``reverse``),
    # the rightmost one on ties, or 0.  The sort is stable under ``reverse``
    # too, so tied values stay in position order, and that is the nearest
    # position left of i among those sorted before it: one stack pass over
    # the sorted order finds it in O(m), each position pushed and popped at
    # most once.
    lower = [0] * len(p)
    stack: list[int] = []
    for k in sorted(range(len(p)), key=p.__getitem__, reverse=reverse):
        while stack and stack[-1] > k:
            stack.pop()
        if stack:
            lower[k] = stack[-1] + 1
        stack.append(k)
    return lower


def compute_lmax_lmin(p: Sequence[int]) -> tuple[list[int], list[int]]:
    """Compute the tight-predecessor arrays of ``p`` in O(m log m).

    ``lmax[i]`` is the rightmost position j < i+1 (1-based) whose value is
    the largest one not exceeding ``p[i]``; ``lmin[i]`` symmetrically holds
    the rightmost position of the smallest value not below ``p[i]``.  A 0
    entry means no qualifying position exists.

    ``lmin`` is ``lmax`` under the reversed order (ties again go
    rightmost), so one routine computes both: one stable sort, ascending or
    descending, then one O(m) stack pass.  Labels are only compared.
    """
    if len(p) == 0:
        raise ValueError("pattern must be non-empty")
    return _tight_lower(p), _tight_lower(p, reverse=True)


def _offsets(
    lmax: Sequence[int], lmin: Sequence[int]
) -> list[tuple[int | None, int | None]]:
    # 1-based bound positions to offsets from the new character at index q
    return [
        (a - 1 - q if a else None, b - 1 - q if b else None)
        for q, (a, b) in enumerate(zip(lmax, lmin))
    ]


def op_isomorphic(x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff ``x`` and ``y`` have equal length and the same relative
    character orders."""
    if len(x) != len(y):
        return False
    if len(x) == 0:
        return True
    offsets = _offsets(*compute_lmax_lmin(x))
    return all(
        (oa is None or y[j + oa] < c) == (ob is None or c < y[j + ob])
        for j, ((oa, ob), c) in enumerate(zip(offsets, y))
    )


def compute_border_array(
    p: Sequence[int], lmax: Sequence[int], lmin: Sequence[int]
) -> list[int]:
    """Compute the order-preserving border array of ``p`` in O(m).

    ``border[i]`` (for the prefix of length i+1) is the largest j < i+1
    such that the first j characters are order-isomorphic to the last j
    characters of that prefix; ``border[0]`` is 0.  The automaton matches
    ``p[1:]`` against ``p`` itself, reading each state's failure target
    from the entries already filled in.
    """
    offsets = _offsets(lmax, lmin)
    border = [0] * len(p)
    q = 0
    for j in range(1, len(p)):
        c = p[j]
        while True:
            oa, ob = offsets[q]
            if (oa is None or p[j + oa] < c) == (ob is None or c < p[j + ob]):
                break
            q = border[q - 1]  # q = 0 always passes: both bounds are absent
        q += 1
        border[j] = q
    return border


def build_pattern_tables(p: Sequence[int]) -> PatternTables:
    """Compile a non-empty pattern into its matching tables."""
    lmax, lmin = compute_lmax_lmin(p)
    border = compute_border_array(p, lmax, lmin)
    steps = tuple(
        (oa, ob, f) for (oa, ob), f in zip(_offsets(lmax, lmin), [0, *border])
    )
    return PatternTables(tuple(p), tuple(border), steps)
