"""Tree matcher: oracle equivalence, pruning neutrality, counter bounds."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oppm.cli import ORACLE_LIMIT
from oppm.gen import gen_adversarial, gen_random_string, gen_random_tree
from oppm.oracles import naive_isomorphic, naive_match_tree
from oppm.pattern import PatternTables, build_pattern_tables, compute_lmax_lmin
from oppm.stringmatch import MatchStats, match_string
from oppm.tree import TextTree, build_tree
from oppm.treematch import TreeMatchReport, match_tree
from test_dag import increasing_map
from test_tree import children, compute_subtree_heights, permuted_edges, tree_edges

EXAMPLE_EDGES = [(0, 1, 10), (1, 2, 20), (1, 3, 5), (2, 4, 30)]


def match_tree_on_path_equals_string(tables: PatternTables, tree: TextTree) -> bool:
    """Check the tree matcher against the string matcher on a chain tree.

    The chain's edge labels, read from the root, form a string; a node at
    depth d corresponds to end position d.  Returns whether both pruning
    modes of the tree matcher report exactly the string matcher's
    positions.
    """
    kids = children(tree)
    labels = []
    u = 0
    while kids[u]:
        if len(kids[u]) > 1:
            raise ValueError("tree is not a chain")
        u = kids[u][0]
        labels.append(tree.edge_label[u])
    positions, _ = match_string(tables, labels)
    for flag in (True, False):
        report = match_tree(tables, tree, prune=flag)
        if sorted(tree.depth[v] for v in report.matched_nodes) != positions:
            return False
    return True


def reference_match_tree(tables, tree, prune):
    """The DFS automaton on lmax / lmin / border: the reference for
    match_tree's step-table loop."""
    m = len(tables.values)
    lmax, lmin = compute_lmax_lmin(tables.values)
    border = tables.border
    kids = children(tree)
    height = compute_subtree_heights(tree)
    path = [0] * tree.max_depth
    state = [0] * tree.node_count
    matched = []
    goto = fail = 0
    frames = [[0, 0]]
    while frames:
        frame = frames[-1]
        u = frame[0]
        slot = frame[1]
        if slot == len(kids[u]):
            frames.pop()
            continue
        frame[1] = slot + 1
        v = kids[u][slot]
        c = tree.edge_label[v]
        d = tree.depth[u]
        q = state[u]
        pruned = False
        while True:
            if prune and height[u] < m - q:
                pruned = True
                break
            a = lmax[q]
            b = lmin[q]
            alpha = a == 0 or path[d - q + a - 1] < c
            beta = b == 0 or c < path[d - q + b - 1]
            if alpha == beta:
                break
            fail += 1
            q = border[q - 1]
        if pruned:
            continue
        q += 1
        goto += 1
        if q == m:
            matched.append(v)
            fail += 1
            q = border[m - 1]
        state[v] = q
        path[d] = c
        frames.append([v, 0])
    matched.sort()
    return TreeMatchReport(matched, MatchStats(goto_count=goto, fail_count=fail))


@st.composite
def tree_and_pattern(draw):
    sigma = draw(st.sampled_from([2, 5, 100]))
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 10**6))
    p = draw(st.lists(st.integers(1, sigma), min_size=1, max_size=8))
    return gen_random_tree(n, sigma, seed), p


@st.composite
def permuted_tree_and_pattern(draw):
    """A random tree whose ids are renumbered and edges shuffled, so the
    preorder differs from the id order."""
    tree, p = draw(tree_and_pattern())
    rng = random.Random(draw(st.integers(0, 10**6)))
    return build_tree(permuted_edges(tree_edges(tree), rng)), p


class TestMatchTree:
    def test_example_tree(self):
        tree = build_tree(EXAMPLE_EDGES)
        report = match_tree(build_pattern_tables((1, 2)), tree)
        assert report.matched_nodes == [2, 4]

    def test_single_character_matches_every_non_root_node(self):
        tree = build_tree(EXAMPLE_EDGES)
        report = match_tree(build_pattern_tables((42,)), tree)
        assert report.matched_nodes == [1, 2, 3, 4]

    def test_adversarial_small_instance_matches_depth_h_minus_2(self):
        inst = gen_adversarial(5, 3)
        report = match_tree(build_pattern_tables(inst.pattern), inst.tree)
        assert len(report.matched_nodes) == 8
        assert all(inst.tree.depth[v] == 3 for v in report.matched_nodes)
        assert report.matched_nodes == naive_match_tree(inst.pattern, inst.tree)

    def test_matched_nodes_are_ascending_and_deep_enough(self):
        tree = gen_random_tree(200, 2, 7)
        p = (1, 2, 1)
        report = match_tree(build_pattern_tables(p), tree)
        assert report.matched_nodes == sorted(report.matched_nodes)
        assert all(tree.depth[v] >= len(p) for v in report.matched_nodes)

    @given(tree_and_pattern())
    def test_prune_never_changes_matches(self, case):
        tree, p = case
        tables = build_pattern_tables(p)
        pruned = match_tree(tables, tree, prune=True)
        unpruned = match_tree(tables, tree, prune=False)
        assert pruned.matched_nodes == unpruned.matched_nodes

    @given(tree_and_pattern())
    def test_matches_brute_force(self, case):
        tree, p = case
        report = match_tree(build_pattern_tables(p), tree)
        assert report.matched_nodes == naive_match_tree(p, tree)

    @given(permuted_tree_and_pattern())
    def test_permuted_ids_match_brute_force(self, case):
        tree, p = case
        tables = build_pattern_tables(p)
        expected = naive_match_tree(p, tree)
        for prune in (True, False):
            assert match_tree(tables, tree, prune).matched_nodes == expected

    @given(tree_and_pattern())
    def test_goto_bounded_by_node_count(self, case):
        tree, p = case
        for prune in (True, False):
            report = match_tree(build_pattern_tables(p), tree, prune=prune)
            assert report.stats.goto_count <= tree.node_count

    def test_seeded_random_suite(self):
        rng = random.Random(918273)
        for _ in range(150):
            sigma = rng.choice((2, 5, 100))
            n = rng.randint(1, 120)
            tree = gen_random_tree(n, sigma, rng.randrange(2**30))
            m = rng.randint(1, 8)
            p = [rng.randint(1, sigma) for _ in range(m)]
            tables = build_pattern_tables(p)
            pruned = match_tree(tables, tree, prune=True)
            unpruned = match_tree(tables, tree, prune=False)
            expected = naive_match_tree(p, tree)
            assert pruned.matched_nodes == expected
            assert unpruned.matched_nodes == expected
            assert pruned.stats.fail_count <= 4 * (n + m)
            assert pruned.stats.goto_count <= n

    def test_child_order_invariance(self):
        rng = random.Random(5)
        edges = [(rng.randrange(i), i, rng.randint(1, 3)) for i in range(1, 80)]
        p = (1, 2, 2)
        base = match_tree(build_pattern_tables(p), build_tree(edges)).matched_nodes
        for _ in range(5):
            shuffled = edges[:]
            rng.shuffle(shuffled)
            got = match_tree(build_pattern_tables(p), build_tree(shuffled))
            assert got.matched_nodes == base

    def test_monotone_transform_leaves_matches_unchanged(self):
        tree = gen_random_tree(100, 5, 11)
        p = (2, 1, 3)
        base = match_tree(build_pattern_tables(p), tree).matched_nodes
        lifted = build_tree(
            [
                (tree.parent[v], v, 10 * tree.edge_label[v] + 1)
                for v in range(1, tree.node_count)
            ]
        )
        fp = [10 * v + 1 for v in p]
        assert match_tree(build_pattern_tables(fp), lifted).matched_nodes == base

    def test_deep_chain_does_not_overflow(self):
        n = 3000
        labels = gen_random_string(n, 4, 3)
        edges = [(i, i + 1, labels[i]) for i in range(n)]
        tree = build_tree(edges)
        tables = build_pattern_tables((1, 3, 2, 4))
        report = match_tree(tables, tree)
        positions, _ = match_string(tables, labels)
        assert [tree.depth[v] for v in report.matched_nodes] == positions


class TestReferenceLoop:
    def test_random_trees_equal_reference_loop(self):
        rng = random.Random(7002)
        for sigma in (1, 2, 5, 100):
            for m in range(1, 13):
                for _ in range(6):
                    tree = gen_random_tree(rng.randint(1, 200), sigma, rng.randrange(2**30))
                    permuted = build_tree(permuted_edges(tree_edges(tree), rng))
                    tables = build_pattern_tables([rng.randint(1, sigma) for _ in range(m)])
                    for t in (tree, permuted):
                        for prune in (True, False):
                            expected = reference_match_tree(tables, t, prune)
                            assert match_tree(tables, t, prune) == expected

    def test_adversarial_trees_equal_reference_loop(self):
        for h in range(8, 13):
            for m in range(1, h - 1):
                inst = gen_adversarial(h, m)
                tables = build_pattern_tables(inst.pattern)
                for prune in (True, False):
                    expected = reference_match_tree(tables, inst.tree, prune)
                    assert match_tree(tables, inst.tree, prune) == expected


class TestAdversarialCounters:
    def test_pruned_failures_stay_linear(self):
        for h in (5, 6, 8):
            inst = gen_adversarial(h, h - 2)
            report = match_tree(
                build_pattern_tables(inst.pattern), inst.tree, prune=True
            )
            n = inst.tree.node_count
            assert report.stats.fail_count <= 4 * (n + len(inst.pattern))
            assert report.stats.goto_count <= n

    def test_unpruned_failures_blow_up(self):
        for h in (5, 6, 8):
            m = h - 2
            inst = gen_adversarial(h, m)
            report = match_tree(
                build_pattern_tables(inst.pattern), inst.tree, prune=False
            )
            assert report.stats.fail_count >= (m - 1) * 2 ** (h - 2)

    def test_pruning_preserves_matches_on_adversarial_family(self):
        inst = gen_adversarial(7, 4)
        tables = build_pattern_tables(inst.pattern)
        pruned = match_tree(tables, inst.tree, prune=True)
        unpruned = match_tree(tables, inst.tree, prune=False)
        assert pruned.matched_nodes == unpruned.matched_nodes


class TestChainBridge:
    def test_worked_example_chain(self):
        t = (63, 18, 48, 29, 42, 56, 25, 51)
        chain = build_tree([(i, i + 1, lab) for i, lab in enumerate(t)])
        tables = build_pattern_tables((22, 41, 35, 37))
        assert match_tree_on_path_equals_string(tables, chain)
        report = match_tree(tables, chain)
        assert [chain.depth[v] for v in report.matched_nodes] == [5]

    def test_random_chains(self):
        rng = random.Random(44)
        for _ in range(60):
            n = rng.randint(1, 64)
            sigma = rng.choice((2, 5, 100))
            labels = [rng.randint(1, sigma) for _ in range(n)]
            chain = build_tree([(i, i + 1, labels[i]) for i in range(n)])
            m = rng.randint(1, 6)
            p = [rng.randint(1, sigma) for _ in range(m)]
            assert match_tree_on_path_equals_string(build_pattern_tables(p), chain)

    def test_rejects_branching_tree(self):
        tree = build_tree(EXAMPLE_EDGES)
        with pytest.raises(ValueError, match="chain"):
            match_tree_on_path_equals_string(build_pattern_tables((1, 2)), tree)


def window(tree: TextTree, v: int, m: int) -> list[int]:
    """The last ``m`` labels on the root path of ``v``, walked up by parent."""
    labels = []
    for _ in range(m):
        labels.append(tree.edge_label[v])
        v = tree.parent[v]
    return labels[::-1]


class TestPastOracleLimit:
    """Relations that need no oracle, on random trees of 2*10^4 nodes, far
    past ORACLE_LIMIT: the matcher only compares labels."""

    N = 2 * 10**4

    @classmethod
    def cases(cls):
        """(p, tree) with ties in both at small sigma; p is the window of a
        node, so it matches at least once."""
        rng = random.Random(1711)
        for sigma, m in ((2, 3), (3, 5), (100, 4), (100, 7), (10**6, 4)):
            tree = gen_random_tree(cls.N, sigma, rng.randrange(2**30))
            v = rng.choice([v for v in range(cls.N) if tree.depth[v] >= m])
            yield window(tree, v, m), tree

    def test_increasing_map_keeps_matches_and_counters(self):
        rng = random.Random(1712)
        for p, tree in self.cases():
            assert tree.node_count > ORACLE_LIMIT
            f = increasing_map(rng, [*p, *tree.edge_label[1:]])
            assert min(f.values()) == -(2**63) and max(f.values()) == 2**63 - 1
            mapped = build_tree([(u, v, f[c]) for u, v, c in tree_edges(tree)])
            tables = build_pattern_tables(p)
            mapped_tables = build_pattern_tables([f[x] for x in p])
            for prune in (True, False):
                assert match_tree(mapped_tables, mapped, prune) == match_tree(tables, tree, prune)

    def test_negation_keeps_matches(self):
        for p, tree in self.cases():
            negated = build_tree([(u, v, -c) for u, v, c in tree_edges(tree)])
            found = match_tree(build_pattern_tables(p), tree).matched_nodes
            assert match_tree(build_pattern_tables([-x for x in p]), negated).matched_nodes == found

    def test_windows_checked_directly(self):
        rng = random.Random(1713)
        for p, tree in self.cases():
            m = len(p)
            nodes = match_tree(build_pattern_tables(p), tree).matched_nodes
            assert nodes
            assert all(naive_isomorphic(p, window(tree, v, m)) for v in nodes)
            reported = set(nodes)
            others = [v for v in range(tree.node_count) if tree.depth[v] >= m and v not in reported]
            sample = rng.sample(others, 2000)
            assert not any(naive_isomorphic(p, window(tree, v, m)) for v in sample)
