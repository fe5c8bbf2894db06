"""Brute-force reference implementations, straight from the definitions.

Everything here is deliberately quadratic or exponential.  These functions
share no code with the fast matchers (only the plain tree container is
reused, and of it only the parents and edge labels are read), so agreement
between the two sides is meaningful evidence.  Size guards stop the
exponential ones from being misused in benchmarks.
"""

from collections.abc import Sequence
from itertools import combinations

from .tree import TextTree

# naive_opsm enumerates up to 2^n index subsets of a length-n text
OPSM_TEXT_LIMIT = 20


def naive_isomorphic(x: Sequence[int], y: Sequence[int]) -> bool:
    """Pairwise definition: x[i] <= x[j] iff y[i] <= y[j] for all i, j."""
    if len(x) != len(y):
        return False
    n = len(x)
    for i in range(n):
        for j in range(n):
            if (x[i] <= x[j]) != (y[i] <= y[j]):
                return False
    return True


def naive_lmax_lmin(x: Sequence[int]) -> tuple[list[int], list[int]]:
    """Scan all k < i per position; ties keep the rightmost index.

    Entries are 1-based positions, 0 when no qualifying position exists.
    """
    m = len(x)
    if m == 0:
        raise ValueError("pattern must be non-empty")
    lmax = [0] * m
    lmin = [0] * m
    for i in range(m):
        for k in range(i):
            if x[k] <= x[i] and (lmax[i] == 0 or x[k] >= x[lmax[i] - 1]):
                lmax[i] = k + 1
            if x[k] >= x[i] and (lmin[i] == 0 or x[k] <= x[lmin[i] - 1]):
                lmin[i] = k + 1
    return lmax, lmin


def naive_border(p: Sequence[int]) -> list[int]:
    """border[i-1] = largest j < i with p[1..j] op-matching p[i-j+1..i]."""
    m = len(p)
    out = [0] * m
    for i in range(2, m + 1):
        for j in range(i - 1, 0, -1):
            if naive_isomorphic(p[:j], p[i - j : i]):
                out[i - 1] = j
                break
    return out


def naive_match_string(p: Sequence[int], t: Sequence[int]) -> list[int]:
    """Test every window; returns ascending 1-based end positions."""
    m = len(p)
    return [i for i in range(m, len(t) + 1) if naive_isomorphic(p, t[i - m : i])]


def naive_match_tree(p: Sequence[int], tree: TextTree) -> list[int]:
    """Test the last m root-path labels of every deep-enough node, found
    by walking ``parent`` up from the node."""
    m = len(p)
    out = []
    for v in range(tree.node_count):
        labels = []
        u = v
        while len(labels) < m and tree.parent[u] != -1:
            labels.append(tree.edge_label[u])
            u = tree.parent[u]
        if len(labels) < m:
            continue  # the root is fewer than m edges up
        labels.reverse()
        if naive_isomorphic(p, labels):
            out.append(v)
    return out


def naive_opsm(p: Sequence[int], t: Sequence[int]) -> bool:
    """Enumerate all length-m index subsets of t in increasing order."""
    if len(t) > OPSM_TEXT_LIMIT:
        raise ValueError(
            f"text of length {len(t)} exceeds the enumeration limit "
            f"{OPSM_TEXT_LIMIT}"
        )
    m = len(p)
    if m > len(t):
        return False
    for idx in combinations(range(len(t)), m):
        if naive_isomorphic(p, [t[k] for k in idx]):
            return True
    return False


def is_subsequence(s: Sequence[int], t: Sequence[int]) -> bool:
    """Two-pointer subsequence test, independent of any graph machinery."""
    j = 0
    for c in t:
        if j < len(s) and s[j] == c:
            j += 1
    return j == len(s)
