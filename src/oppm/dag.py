"""Order-preserving matching over edge-labeled DAGs.

Includes the subsequence-graph construction that reduces order-preserving
subsequence matching to DAG path matching.  The path search is a
backtracking DFS: the problem is NP-complete, so exponential worst-case
cost is expected.

The search remembers the subtrees that failed.  The pair (vertex,
matched length) alone is not a sound key: whether a partial path can be
extended depends on labels it has already matched.  But after i labels,
the steps still to come compare only against the labels at the
pattern's frontier A_i = {k < i : some step j >= i reads index k}, so
(vertex, i, labels at A_i) decides the subtree's outcome, and a subtree
that failed under a key fails again wherever the key recurs, from any
start.  Skipping such subtrees keeps the DFS order and so the witness.
A pattern whose frontier is at most w labels wide has at most
V * (m + 1) * sigma^w keys.  The memo holds at most ``_MEMO_CAP`` keys;
past that, failures are no longer recorded, which costs repeated work
and never an answer.
"""

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import getitem, itemgetter, lt
from types import SimpleNamespace

from .pattern import PatternTables, build_pattern_tables

# Most failed-subtree keys one search records: about 50 MB of key tuples
# for a frontier seven labels wide.
_MEMO_CAP = 1 << 18
# stand-ins for a missing bound: every int label lies strictly between them
_BELOW, _ABOVE = float("-inf"), float("inf")


class DagValidationError(ValueError):
    """Raised when an edge list does not describe an acyclic graph.

    ``edge`` is the index, in the input list, of the offending edge.
    """

    def __init__(self, msg: str, edge: int):
        super().__init__(msg)
        self.edge = edge


@dataclass(frozen=True)
class TextDag:
    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]  # (source, label, target), as given
    # Search tables derived by build_dag, left out of ==, hash and repr:
    # out[u] is u's out-edges, the very tuples of ``edges``, sorted by
    # (target, label); longest[u] is the edge count of the longest path
    # leaving u.
    out: list[list[tuple[int, int, int]]] = field(compare=False, repr=False)
    longest: list[int] = field(compare=False, repr=False)


def build_dag(vertex_count: int, edges: Sequence[tuple[int, int, int]]) -> TextDag:
    """Validate (source, label, target) triples and build the search tables.

    The triples are kept as given; parallel edges are allowed.  Raises
    DagValidationError on an out-of-range vertex id or on a cycle, naming
    the first self-loop if there is one, else the first edge in input
    order of one cycle.  When every edge runs forward (source < target),
    as in every subsequence graph and every gen_random_dag output, the
    vertex ids are already a topological order and Kahn's pass is skipped.
    """
    n = vertex_count
    # first allocation: an unallocatable n raises MemoryError here at once,
    # where building n lists one by one would grow until the process dies
    longest = [0] * n
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    forward = True
    for e in edges:
        u, _, v = e
        if not 0 <= u < v < n:
            # edges.index(e) is this edge: an equal earlier one would have raised
            if not 0 <= u < n:
                raise DagValidationError(f"unknown source vertex {u}", edges.index(e))
            if not 0 <= v < n:
                raise DagValidationError(f"unknown target vertex {v}", edges.index(e))
            forward = False
        out[u].append(e)
    order = range(n) if forward else _topological_order(n, edges, out)

    by_target = itemgetter(2, 1)
    for u in reversed(order):
        if out[u]:
            ts = [v for _, _, v in out[u]]
            # strictly rising targets are already in (target, label) order
            if not all(map(lt, ts, islice(ts, 1, None))):
                out[u].sort(key=by_target)
            longest[u] = max(map(longest.__getitem__, ts)) + 1
    return TextDag(n, tuple(edges), out, longest)


def _topological_order(
    n: int, edges: Sequence[tuple[int, int, int]], out: list[list[tuple[int, int, int]]]
) -> list[int]:
    """Kahn's order of the vertices, or DagValidationError naming a cycle."""
    indeg = [0] * n
    for _, _, v in edges:
        indeg[v] += 1
    order = [u for u in range(n) if indeg[u] == 0]
    for u in order:
        for _, _, v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) == n:
        return order
    i = next((i for i, (u, _, v) in enumerate(edges) if u == v), None)
    if i is not None:
        u = edges[i][0]
        raise DagValidationError(f"cycle detected: self-loop at vertex {u}", i)
    # every vertex left out of the order has an in-edge from another one
    # left out, so walking back along such edges must close a cycle
    left = set(range(n)) - set(order)
    into: dict[int, int] = {}
    for i, (u, _, v) in enumerate(edges):
        if u in left and v in left:
            into.setdefault(v, i)
    walk: dict[int, int] = {}  # vertex -> its position in the walk
    u = min(left)
    while u not in walk:
        walk[u] = len(walk)
        u = edges[into[u]][0]
    # u is met twice: the walk from its first visit on went round a cycle
    i = min(into[w] for w in list(walk)[walk[u]:])
    u, _, v = edges[i]
    raise DagValidationError(f"cycle detected through edge {u} -> {v}", i)


def build_dasg(t: Sequence[int]) -> TextDag:
    """Build the subsequence graph of ``t``.

    Vertices are v_0..v_n.  There is an edge (v_i, c, v_j) exactly when
    position j (1-based) is the first occurrence of c after position i,
    so paths from v_0 spell exactly the subsequences of t.  Out-edges of
    any vertex carry pairwise distinct labels, and all in-edges of v_j
    carry t[j].
    """
    n = len(t)
    # One right-to-left pass in O(n + E): before vertex i's turn, nxt maps
    # each label to its first position after i, in descending position
    # order, so i's edges come out by descending target; the final reverse
    # gives sources ascending, then targets ascending.
    nxt: dict[int, int] = {}
    edges: list[tuple[int, int, int]] = []
    for i in range(n, -1, -1):
        edges += zip(repeat(i), nxt, nxt.values())
        if i:
            c = t[i - 1]
            nxt.pop(c, None)  # re-inserted last: i is the smallest position yet
            nxt[c] = i
    edges.reverse()
    return build_dag(n + 1, edges)


def match_dag(tables: PatternTables, dag: TextDag) -> list[int] | None:
    """Find a directed path whose m labels op-match the pattern.

    Returns the path as a vertex sequence of length m+1, or None.  Every
    vertex is considered as a path start; starts are tried in ascending
    order and out-edges in (target, label) order, so the returned witness
    is deterministic.  Vertices whose longest outgoing path is too short
    are skipped; this prunes cost but never answers.
    """
    witness, _ = match_dag_explored(tables, dag)
    return witness


def match_dag_explored(
    tables: PatternTables, dag: TextDag, *, starts: Iterable[int] | None = None
) -> tuple[list[int] | None, int]:
    """Like match_dag, also returning the number of edge extensions attempted.

    ``starts`` are the vertex ids a path may begin at, tried in the given
    order; by default every vertex, in ascending order.  The count is the
    search's cost measure: every edge that survives the longest-path
    prune, an edge into a subtree the memo knows to fail included.
    """
    m = len(tables.values)
    steps = tables.steps
    out, longest = dag.out, dag.longest

    # last[k]: the last step that reads index k (k itself if none does).
    # frontier[i] reads the labels at A_i = {k < i : last[k] >= i} off
    # ``labels``.  Every step i >= 1 has a bound, as p[0] <= p[i] or
    # p[0] >= p[i], so A_i is never empty and itemgetter gets an index.
    last = list(range(m))
    for j, (oa, ob, _) in enumerate(steps):
        if oa is not None:
            last[j + oa] = j
        if ob is not None:
            last[j + ob] = j
    frontier: list[itemgetter | None] = [None] * m
    ks: list[int] = []
    for i in range(1, m):
        ks = [k for k in ks if last[k] >= i]
        if last[i - 1] >= i:
            ks.append(i - 1)
        frontier[i] = itemgetter(*ks)

    labels = [0] * m
    verts = [0] * (m + 1)
    keys: list[tuple | None] = [None] * m  # keys[i]: the memo key of level i >= 1
    dead: set[tuple] = set()
    cap = _MEMO_CAP
    explored = 0
    for s in range(dag.vertex_count) if starts is None else starts:
        if longest[s] < m:
            continue
        verts[0] = s
        stack = [iter(out[s])]
        while stack:
            i = len(stack) - 1  # labels[0..i-1] matched so far
            oa, ob, _ = steps[i]
            lo = _BELOW if oa is None else labels[i + oa]
            hi = _ABOVE if ob is None else labels[i + ob]
            floor = m - i - 1
            for _, c, v in stack[-1]:
                if longest[v] < floor:
                    continue
                explored += 1
                if (lo < c) != (c < hi):
                    continue
                labels[i] = c
                verts[i + 1] = v
                if i + 1 == m:
                    return list(verts), explored
                key = (v, i + 1, frontier[i + 1](labels))
                if key in dead:
                    continue
                keys[i + 1] = key
                stack.append(iter(out[v]))
                break
            else:
                stack.pop()
                if i and len(dead) < cap:
                    dead.add(keys[i])
    return None, explored


class _FirstOccurrences(dict):
    """The out-lists of build_dasg(t), each built on its first read.

    ``self[v]`` is build_dasg(t).out[v]: the edge (v, c, j) for every label
    c that occurs after position v, j its first occurrence there (1-based),
    by ascending j.  Building it bisects the occurrence list of each such
    label, so it costs O(d log n) for its d edges, wherever they lie.
    """

    def __init__(self, t: Sequence[int]):
        super().__init__()
        occurrences: dict[int, list[int]] = {}
        for j, c in enumerate(t, 1):
            occurrences.setdefault(c, []).append(j)
        # by ascending last occurrence, so the labels that occur after v
        # are those from bisect_right(self._lasts, v) on
        self._occurrences = sorted(occurrences.values(), key=itemgetter(-1))
        self._lasts = [js[-1] for js in self._occurrences]
        self._label_at = [None, *t].__getitem__  # the label at position j

    def __missing__(self, v: int) -> list[tuple[int, int, int]]:
        after = self._occurrences[bisect_right(self._lasts, v) :]
        firsts = sorted(map(getitem, after, map(bisect_right, after, repeat(v))))
        out = self[v] = list(zip(repeat(v), map(self._label_at, firsts), firsts))
        return out


def opsm(p: Sequence[int], t: Sequence[int]) -> bool:
    """Decide whether some subsequence of ``t`` op-matches ``p``.

    Reduction: p op-matches a subsequence of t iff p op-matches a path in
    the subsequence graph of t.  The search starts at v_0 only: a path from
    any v_i spells a subsequence of t, and v_0 has a path with the same
    labels (through first occurrences), so the other starts would only
    repeat work when there is no match.  The empty pattern matches
    vacuously.

    The graph is never built whole.  match_dag_explored reads only the
    out-lists and longest-path lengths of the vertices it reaches, so it
    gets the tables of build_dasg(t) with each out-list built on first read
    (``_FirstOccurrences``) and ``longest[v] = n - v``.  The witness and the
    explored count are those of the search on build_dasg(t); the graph's
    other out-lists are never made.
    """
    if len(p) == 0:
        return True
    n = len(t)
    out, longest = _FirstOccurrences(t), list(range(n, -1, -1))
    dasg = SimpleNamespace(vertex_count=n + 1, out=out, longest=longest)
    witness, _ = match_dag_explored(build_pattern_tables(p), dasg, starts=(0,))
    return witness is not None
