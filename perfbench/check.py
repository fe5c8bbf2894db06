"""Answer checks written from the definitions; nothing here imports oppm.

Two sequences are order-isomorphic when ``x[i] <= x[j]`` exactly when
``y[i] <= y[j]`` for every pair of positions.  Every check below rests on
that pairwise test, on brute force over small inputs, or on a closed form
the benchmark derives from how it built the input.
"""

import random
from itertools import combinations, product

# windows or nodes not reported by the program that a check re-tests
SAMPLE = 4000


def isomorphic(x, y) -> bool:
    n = len(x)
    if n != len(y):
        return False
    return all((x[i] <= x[j]) == (y[i] <= y[j]) for i in range(n) for j in range(n))


def _sample(rng: random.Random, candidates: range, reported: set) -> list:
    if len(candidates) > SAMPLE:
        candidates = rng.sample(candidates, SAMPLE)
    return [c for c in candidates if c not in reported]


def check_string(p, t, answer, rng: random.Random) -> bool:
    """``answer`` is (1-based end positions, goto, fail).

    Every reported window must match and a sample of the others must not;
    the counters must obey ``fail <= goto <= n``.
    """
    ends, goto, fail = answer
    m, n = len(p), len(t)
    if list(ends) != sorted(set(ends)) or any(not m <= e <= n for e in ends):
        return False
    if not all(isomorphic(p, t[e - m : e]) for e in ends):
        return False
    others = _sample(rng, range(m, n + 1), set(ends))
    if any(isomorphic(p, t[e - m : e]) for e in others):
        return False
    return fail <= goto <= n


class Tree:
    """Parent, edge label and depth of every node, from (parent, child, label)."""

    def __init__(self, edges):
        n = len(edges) + 1
        self.parent = [-1] * n
        self.label = [0] * n
        children = [[] for _ in range(n)]
        for u, v, lab in edges:
            self.parent[v] = u
            self.label[v] = lab
            children[u].append(v)
        self.depth = [0] * n
        order = [0]
        for u in order:
            for v in children[u]:
                self.depth[v] = self.depth[u] + 1
                order.append(v)
        if len(order) != n:
            raise ValueError("benchmark input is not a rooted tree")
        self.height = max(self.depth)

    def window(self, v: int, m: int) -> list:
        """Labels of the last m edges on the root path to v, root side first."""
        out = []
        for _ in range(m):
            out.append(self.label[v])
            v = self.parent[v]
        out.reverse()
        return out


def check_tree(p, tree: Tree, answer, prune: bool, rng: random.Random, expected=None) -> bool:
    """``answer`` is (node ids, goto, fail).

    Every reported node must match and a sample of the others must not, or
    the nodes must equal ``expected`` when the benchmark knows the set in
    closed form.  Counters: ``goto <= N``; with pruning ``fail <= 4(N+m)``.
    """
    nodes, goto, fail = answer
    m, n = len(p), len(tree.depth)
    if expected is not None:
        if list(nodes) != expected:
            return False
    else:
        if list(nodes) != sorted(set(nodes)) or any(not 0 <= v < n for v in nodes):
            return False
        if any(tree.depth[v] < m or not isomorphic(p, tree.window(v, m)) for v in nodes):
            return False
        others = _sample(rng, range(n), set(nodes))
        if any(tree.depth[v] >= m and isomorphic(p, tree.window(v, m)) for v in others):
            return False
    return goto <= n and (not prune or fail <= 4 * (n + m))


def adversarial_matches(tree: Tree, m: int) -> list:
    """Closed form for the adversarial family of height h against the
    increasing pattern of length m: root paths rise strictly down to depth
    h-2 and the deeper labels are 0 or 1, so exactly the nodes at depths
    m .. h-2 match."""
    return [v for v, d in enumerate(tree.depth) if m <= d <= tree.height - 2]


def adversarial_unpruned_floor(tree: Tree, m: int) -> int:
    """The paper's lower bound on unpruned failures, (m-1) * 2^(h-2)."""
    return (m - 1) * 2 ** (tree.height - 2)


def longest_increasing(t) -> int:
    """Length of the longest strictly increasing subsequence (patience sort)."""
    tails = []
    for c in t:
        lo, hi = 0, len(tails)
        while lo < hi:
            mid = (lo + hi) // 2
            if tails[mid] < c:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(tails):
            tails.append(c)
        else:
            tails[lo] = c
    return len(tails)


def brute_opsm(p, t) -> bool:
    """Whether some subsequence of t is order-isomorphic to p, by enumeration."""
    return any(isomorphic(p, [t[i] for i in idx]) for idx in combinations(range(len(t)), len(p)))


def subsequence_witness_ok(p, t, witness) -> bool:
    """A subsequence-graph witness v_0 < ... < v_m spells t[v_1-1], ...,
    t[v_m-1]; those labels must op-match p."""
    if witness is None or len(witness) != len(p) + 1:
        return False
    if any(not a < b for a, b in zip(witness, witness[1:])) or witness[-1] > len(t):
        return False
    return isomorphic(p, [t[v - 1] for v in witness[1:]])


def dag_witness_ok(p, edges, witness) -> bool:
    """The witness must be a path of the (source, target, label) edge list
    along which some choice of edge labels op-matches p."""
    if witness is None or len(witness) != len(p) + 1:
        return False
    labels = {}
    for u, v, lab in edges:
        labels.setdefault((u, v), []).append(lab)
    steps = [labels.get(pair) for pair in zip(witness, witness[1:])]
    if any(s is None for s in steps):
        return False
    return any(isomorphic(p, choice) for choice in product(*steps))
