"""Order-preserving matching over a rooted edge-labeled tree.

A DFS drives the same automaton used for string matching.  The labels of
the current root path sit in a stack indexed by depth, giving O(1) access
to any window ending at the current node.  Each visited node stores the
automaton state reached on arrival (the accepting state is replaced by
its failure target) so matching resumes correctly when the DFS returns to
a node and proceeds to its next child.

With pruning enabled, a child edge is abandoned, chain and descent both,
as soon as the parent's subtree is too shallow for the current candidate
state to ever reach the accepting state.  Pruning never changes the match
set, only the failure-transition count.
"""

from dataclasses import dataclass, field

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
    children = tree.children
    edge_label = tree.edge_label
    depth = tree.depth
    height = tree.subtree_height

    path = [0] * tree.max_depth  # path[d-1] = label of the edge into the depth-d node
    state = [0] * tree.node_count
    matched: list[int] = []
    goto = fail = 0

    # frame = [node, index of next child to process]
    frames = [[0, 0]]
    while frames:
        frame = frames[-1]
        u = frame[0]
        slot = frame[1]
        if slot == len(children[u]):
            frames.pop()
            continue
        frame[1] = slot + 1
        v = children[u][slot]
        c = edge_label[v]
        d = depth[u]
        q = state[u]
        pruned = False
        while True:
            if prune and height[u] < m - q:
                # no state reachable from candidate q can complete a match
                # within this subtree; skip the child entirely
                pruned = True
                break
            oa, ob, f = steps[q]
            if (oa is None or path[d + oa] < c) == (ob is None or c < path[d + ob]):
                break
            fail += 1
            q = f
        if pruned:
            continue
        q += 1
        goto += 1
        if q == m:
            matched.append(v)
            fail += 1  # leave the accepting state before storing
            q = restart
        state[v] = q
        path[d] = c
        frames.append([v, 0])

    matched.sort()
    return TreeMatchReport(
        matched_nodes=matched, stats=MatchStats(goto_count=goto, fail_count=fail)
    )

