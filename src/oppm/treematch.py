"""Order-preserving matching over a rooted edge-labeled tree.

One pass over the tree's preorder drives the same automaton used for
string matching.  A node's transition depends only on its parent's state
and the labels on its own root path, so any order that puts parents
first gives the same states, matches and counts.  Preorder is chosen for
the path labels: they sit in one array indexed by depth, and when a node
is reached, the last label written at each shallower depth is that of
its own ancestor, so any window ending at the node is read in O(1).
Each node keeps the state reached on arrival (the accepting state is
replaced by its failure target) for each of its child edges to start from.

With pruning enabled, a child edge is abandoned, chain and descent both,
as soon as the parent's subtree is too shallow for the current candidate
state to ever reach the accepting state; the child's state is set to -1,
and every node below it inherits that mark without a transition.
Pruning never changes the match set, only the failure-transition count.
"""

from dataclasses import dataclass, field
from itertools import islice

from .pattern import PatternTables
from .stringmatch import MatchStats
from .tree import TextTree


@dataclass
class TreeMatchReport:
    """Matched node ids (ascending) plus transition counts."""

    matched_nodes: list[int] = field(default_factory=list)
    stats: MatchStats = field(default_factory=MatchStats)


def match_tree(tables: PatternTables, tree: TextTree, prune: bool = True) -> TreeMatchReport:
    """Report every node whose last m root-path edge labels op-match the pattern.

    The result is independent of ``prune``; disabling it exists to measure
    the failure-transition blowup on adversarial trees.
    """
    m = len(tables.values)
    steps = tables.steps
    restart = tables.border[m - 1]
    parent = tree.parent
    edge_label = tree.edge_label
    depth = tree.depth
    height = tree.subtree_height

    path = [0] * tree.max_depth  # path[d-1] = label of the edge into the depth-d node
    state = [0] * tree.node_count  # -1: pruned, with everything below it
    matched: list[int] = []
    goto = fail = 0

    for v in islice(tree.preorder, 1, None):
        u = parent[v]
        q = state[u]
        if q < 0:
            state[v] = -1
            continue
        c = edge_label[v]
        d = depth[u]
        # no state reachable from a candidate below `floor` can complete a
        # match within u's subtree; the child edge is skipped entirely
        floor = m - height[u] if prune else 0
        while q >= floor:
            oa, ob, f = steps[q]
            if (oa is None or path[d + oa] < c) == (ob is None or c < path[d + ob]):
                break
            fail += 1
            q = f
        else:
            state[v] = -1
            continue
        q += 1
        goto += 1
        if q == m:
            matched.append(v)
            fail += 1  # leave the accepting state before storing
            q = restart
        state[v] = q
        path[d] = c

    matched.sort()
    return TreeMatchReport(
        matched_nodes=matched, stats=MatchStats(goto_count=goto, fail_count=fail)
    )
