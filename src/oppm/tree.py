"""Rooted edge-labeled tree text model, stored as flat per-node arrays.

Node ids are 0..N-1 with node 0 the root.  Each non-root node stores its
parent and the label of the edge from it; every node stores its depth
and the height of its subtree (the length of the longest downward path
to a leaf).  ``preorder`` lists the nodes in depth-first preorder, with
siblings in the order their edges appear in the input: every node comes
after its parent, and a node's subtree is the contiguous run that starts
at it.  ``build_tree`` makes no per-node container: it links each node to
its first child and to its next sibling in two flat arrays and walks
those once.
"""

from dataclasses import dataclass
from itertools import islice


class TreeValidationError(ValueError):
    """Raised when an edge list does not describe a rooted tree.

    ``edge`` is the index, in the input list, of the offending edge.
    """

    def __init__(self, msg: str, edge: int):
        super().__init__(msg)
        self.edge = edge


@dataclass(frozen=True)
class TextTree:
    node_count: int
    parent: tuple[int, ...]  # parent[0] = -1
    edge_label: tuple[int, ...]  # edge_label[v] labels the edge parent[v] -> v
    depth: tuple[int, ...]
    subtree_height: tuple[int, ...]
    max_depth: int
    preorder: tuple[int, ...]  # siblings in input order


def build_tree(edges: list[tuple[int, int, int]]) -> TextTree:
    """Build and validate a TextTree from (parent, child, label) triples.

    The node count is one more than the number of edges; ids must cover
    0..N-1 with node 0 the root.  Raises TreeValidationError naming the
    offending node on a duplicate child, out-of-range ids, or nodes not
    reachable from the root (which covers both disconnection and cycles);
    for an unreachable node the offending edge is the one into it.  When
    an edge list has several faults, the one of the earliest edge wins.
    """
    n = len(edges) + 1
    parent = [-1] * n
    label = [0] * n
    for i, (u, v, lab) in enumerate(edges):
        if not 0 <= u < n:
            raise TreeValidationError(f"unknown parent id {u}", i)
        if not 0 <= v < n:
            raise TreeValidationError(f"unknown child id {v}", i)
        if v == 0:
            raise TreeValidationError("node 0 is the root and cannot be a child", i)
        if parent[v] >= 0:
            raise TreeValidationError(f"duplicate child {v}", i)
        parent[v] = u
        label[v] = lab

    # first[u] is u's first child and after[v] the sibling that follows v,
    # both in input order; 0, the root, is nobody's child and means "none"
    first = [0] * n
    after = [0] * n
    for u, v, _ in reversed(edges):
        after[v] = first[u]
        first[u] = v

    # descend to each node's first child; a sibling still to visit waits on the stack
    preorder = [0]
    stack = [first[0]]
    while stack:
        v = stack.pop()
        while v:
            preorder.append(v)
            if after[v]:
                stack.append(after[v])
            v = first[v]
    if len(preorder) != n:
        reached = set(preorder)
        missing = min(v for v in range(n) if v not in reached)
        edge = next(i for i, (_, v, _) in enumerate(edges) if v == missing)
        raise TreeValidationError(
            f"node {missing} is not reachable from the root", edge
        )

    depth = [0] * n
    for v in islice(preorder, 1, None):
        depth[v] = depth[parent[v]] + 1
    height = [0] * n
    for v in islice(reversed(preorder), n - 1):  # every node but the root
        h = height[v] + 1
        u = parent[v]
        if h > height[u]:
            height[u] = h

    return TextTree(
        node_count=n,
        parent=tuple(parent),
        edge_label=tuple(label),
        depth=tuple(depth),
        subtree_height=tuple(height),
        max_depth=max(depth),
        preorder=tuple(preorder),
    )
