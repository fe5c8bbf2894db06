"""Rooted edge-labeled tree text model, stored as flat arrays.

Node ids are 0..N-1 with node 0 the root.  Each non-root node stores its
parent and the label of the edge from it.  ``preorder`` lists the nodes in
depth-first preorder, with siblings in the order their edges appear in
the input: every node comes after its parent, and a node's subtree is the
contiguous run that starts at it.  The search tables are indexed by
preorder position k, not by node id, so that a pass over the preorder
reads them in order: ``labels[k]``, ``depths[k]`` and ``heights[k]`` are
the edge label, depth and subtree height (the length of the longest
downward path to a leaf) of node ``preorder[k]``.  The parent of position
k is the last position before it at depth ``depths[k] - 1``, so no parent
positions are stored.  ``depth`` gives the depths by node id; it is
derived on first read.

``build_tree`` takes any sized collection of edge triples and makes no
per-node container: as it checks each edge it links the node to its
parent's children in flat arrays, and then walks those once.
"""

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property


class TreeValidationError(ValueError):
    """Raised when an edge list does not describe a rooted tree.

    ``edge`` is the offending edge's index in the input.
    """

    def __init__(self, msg: str, edge: int):
        super().__init__(msg)
        self.edge = edge


@dataclass(frozen=True)
class TextTree:
    node_count: int
    parent: tuple[int, ...]  # parent[0] = -1
    edge_label: tuple[int, ...]  # edge_label[v] labels the edge parent[v] -> v
    max_depth: int
    preorder: tuple[int, ...]  # siblings in input order
    # Search tables by preorder position, derived by build_tree and left out
    # of ==, hash and repr (labels[0] is 0: the root has no edge)
    labels: tuple[int, ...] = field(compare=False, repr=False)
    depths: tuple[int, ...] = field(compare=False, repr=False)
    heights: tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        """Each node's depth, by node id."""
        out = [0] * self.node_count
        for v, d in zip(self.preorder, self.depths):
            out[v] = d
        return tuple(out)


def build_tree(edges: Iterable[tuple[int, int, int]]) -> TextTree:
    """Build and validate a TextTree from (parent, child, label) triples.

    ``edges`` is read once, and again only to name an unreachable node's
    edge; no triple has to outlive its loop step.
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
    # first[u] and last[u] are u's first and last child so far, after[v] the
    # sibling after v; 0, the root, is nobody's child and means "none"
    first = [0] * n
    after = [0] * n
    last = [0] * n
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
        if last[u]:
            after[last[u]] = v
        else:
            first[u] = v
        last[u] = v
    del last

    # descend to each node's first child; a sibling still to visit waits on
    # the stack with its depth
    preorder = [0]
    depths = [0]
    stack = [(first[0], 1)]
    while stack:
        v, d = stack.pop()
        while v:
            preorder.append(v)
            depths.append(d)
            if after[v]:
                stack.append((after[v], d))
            v = first[v]
            d += 1
    del first, after
    if len(preorder) != n:
        reached = set(preorder)
        missing = min(v for v in range(n) if v not in reached)
        edge = next(i for i, (_, v, _) in enumerate(edges) if v == missing)
        raise TreeValidationError(
            f"node {missing} is not reachable from the root", edge
        )

    # In reverse preorder a node comes after all of its descendants, and
    # the depth-(d+1) nodes met since the last depth-d one are its children:
    # tall[d + 1] holds their tallest height plus one.
    max_depth = max(depths)
    tall = [0] * (max_depth + 2)
    heights = [0] * n
    for k in range(n - 1, -1, -1):
        d = depths[k]
        h = tall[d + 1]
        tall[d + 1] = 0
        heights[k] = h
        if h >= tall[d]:
            tall[d] = h + 1

    # each list gives way to its tuple before the next tuple is made
    labels = tuple(map(label.__getitem__, preorder))
    label = tuple(label)
    parent = tuple(parent)
    preorder = tuple(preorder)
    depths = tuple(depths)
    heights = tuple(heights)
    return TextTree(
        node_count=n,
        parent=parent,
        edge_label=label,
        max_depth=max_depth,
        preorder=preorder,
        labels=labels,
        depths=depths,
        heights=heights,
    )
