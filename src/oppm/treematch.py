"""Order-preserving matching over a rooted edge-labeled tree.

One pass over the tree's preorder positions drives the same automaton
used for string matching.  A node's transition depends only on its
parent's state and the labels on its own root path, and preorder gives
both without any per-node state: when position k is reached, the last
node met at each shallower depth is its own ancestor.  So three arrays
indexed by depth suffice: the path labels, from which any window ending
at the node is read in O(1), and its ancestors' automaton states (the
accepting state is replaced by its failure target) and prune floors.
The tree's labels, depths and heights are read in order, by position.

With pruning enabled, a child edge is abandoned, chain and descent both,
as soon as the parent's subtree is too shallow for the current candidate
state to ever reach the accepting state; the child's state is set to -1,
and every node below it inherits that mark without a transition.
Pruning never changes the match set, only the failure-transition count.
"""

from itertools import islice, repeat

from ._record import Record
from .pattern import PatternTables
from .stringmatch import MatchStats
from .tree import TextTree


class TreeMatchReport(Record):
    """Matched node ids (ascending) plus transition counts."""

    matched_nodes: list[int]
    stats: MatchStats


def match_tree(tables: PatternTables, tree: TextTree, prune: bool = True) -> TreeMatchReport:
    """Report every node whose last m root-path edge labels op-match the pattern.

    The result is independent of ``prune``; disabling it exists to measure
    the failure-transition blowup on adversarial trees.
    """
    m = len(tables.values)
    steps = tables.steps
    restart = tables.border[m - 1]
    # m - heights gives each node's prune floor; without pruning it is 0
    heights = tree.heights if prune else repeat(m)

    path = [0] * (tree.max_depth + 1)  # path[d] = label of the edge into the depth-d node
    # the automaton state (-1: pruned, with everything below it) that a
    # depth-d node starts from, and the floor below which its failure chain
    # is cut: those of the last node met at depth d - 1
    state = [0] * (tree.max_depth + 2)
    floor = state.copy()
    floor[1] = m - tree.heights[0] if prune else 0
    matched: list[int] = []
    goto = fail = 0

    for v, c, d, h in islice(zip(tree.preorder, tree.labels, tree.depths, heights), 1, None):
        q = state[d]
        if q < 0:
            state[d + 1] = -1
            continue
        # no state reachable from a candidate below the floor can complete
        # a match within the parent's subtree; the edge is skipped entirely
        lo = floor[d]
        while q >= lo:
            oa, ob, f = steps[q]
            if (oa is None or path[d + oa] < c) == (ob is None or c < path[d + ob]):
                break
            fail += 1
            q = f
        else:
            state[d + 1] = -1
            continue
        q += 1
        goto += 1
        if q == m:
            matched.append(v)
            fail += 1  # leave the accepting state before storing
            q = restart
        state[d + 1] = q
        floor[d + 1] = m - h
        path[d] = c

    matched.sort()
    return TreeMatchReport(
        matched_nodes=matched, stats=MatchStats(goto_count=goto, fail_count=fail)
    )
