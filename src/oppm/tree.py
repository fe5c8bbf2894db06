"""Rooted edge-labeled tree text model.

Node ids are 0..N-1 with node 0 the root.  Each non-root node stores the
label of the edge from its parent, its depth, and the height of its
subtree (the length of the longest downward path to a leaf).
"""

from dataclasses import dataclass


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
    children: tuple[tuple[int, ...], ...]  # input order preserved
    edge_label: tuple[int, ...]  # edge_label[v] labels the edge parent[v] -> v
    depth: tuple[int, ...]
    subtree_height: tuple[int, ...]
    max_depth: int


def build_tree(edges: list[tuple[int, int, int]]) -> TextTree:
    """Build and validate a TextTree from (parent, child, label) triples.

    The node count is one more than the number of edges; ids must cover
    0..N-1 with node 0 the root.  Raises TreeValidationError naming the
    offending node on duplicate children, out-of-range ids, or nodes not
    reachable from the root (which covers both disconnection and cycles);
    for an unreachable node the offending edge is the one into it.
    """
    n = len(edges) + 1
    parent = [-1] * n
    label = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v, lab) in enumerate(edges):
        if not 0 <= u < n:
            raise TreeValidationError(f"unknown parent id {u}", i)
        if not 0 <= v < n:
            raise TreeValidationError(f"unknown child id {v}", i)
        if v == 0:
            raise TreeValidationError("node 0 is the root and cannot be a child", i)
        if parent[v] != -1:
            raise TreeValidationError(f"duplicate child {v}", i)
        parent[v] = u
        label[v] = lab
        children[u].append(v)

    # BFS from the root; the visit order has every parent before its children.
    order = [0]
    depth = [0] * n
    for u in order:
        for c in children[u]:
            depth[c] = depth[u] + 1
            order.append(c)
    if len(order) != n:
        reached = set(order)
        missing = min(v for v in range(n) if v not in reached)
        edge = next(i for i, e in enumerate(edges) if e[1] == missing)
        raise TreeValidationError(
            f"node {missing} is not reachable from the root", edge
        )

    height = [0] * n
    for u in reversed(order):
        if children[u]:
            height[u] = 1 + max(height[c] for c in children[u])

    return TextTree(
        node_count=n,
        parent=tuple(parent),
        children=tuple(tuple(cs) for cs in children),
        edge_label=tuple(label),
        depth=tuple(depth),
        subtree_height=tuple(height),
        max_depth=max(depth),
    )

