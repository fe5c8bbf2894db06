"""Generators: adversarial family invariants and seeded determinism."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oppm.dag import build_dag
from oppm.gen import (
    gen_adversarial,
    gen_random_dag,
    gen_random_string,
    gen_random_tree,
)
from oppm.oracles import naive_match_tree
from oppm.pattern import build_pattern_tables
from oppm.tree import build_tree
from oppm.treematch import match_tree
from test_tree import children, node_depths


class TestAdversarialFamily:
    def test_size_and_pattern(self):
        for h in range(3, 12):
            for m in range(1, h - 1):
                inst = gen_adversarial(h, m)
                assert inst.tree.node_count == 2 ** (h + 1) - 1
                assert inst.tree.max_depth == h
                assert inst.pattern == tuple(range(2, m + 2))

    def test_shape_invariants(self):
        h = 6
        tree = gen_adversarial(h, 4).tree
        depth = node_depths(tree)
        for v in range(1, tree.node_count):
            d = depth[v]
            lab = tree.edge_label[v]
            parent_lab = tree.edge_label[tree.parent[v]]
            if d <= h - 2:
                assert lab >= 2
                if d >= 2:
                    assert lab > parent_lab  # root paths strictly increase
            elif d == h - 1:
                assert lab in (0, 1)
            else:
                assert lab == 0
        kids = children(tree)
        for v in range(tree.node_count):
            if depth[v] == h - 2:
                labels = sorted(tree.edge_label[c] for c in kids[v])
                assert labels == [0, 1]
        assert sum(1 for v in range(tree.node_count) if depth[v] == h - 2) == 2 ** (h - 2)

    def test_every_branch_point_is_a_match_end(self):
        inst = gen_adversarial(5, 3)
        matched = naive_match_tree(inst.pattern, inst.tree)
        depth = node_depths(inst.tree)
        branch_points = [v for v in range(inst.tree.node_count) if depth[v] == 3]
        assert matched == branch_points

    def test_shorter_pattern_matches_every_deep_enough_level(self):
        inst = gen_adversarial(5, 2)
        matched = naive_match_tree(inst.pattern, inst.tree)
        depth = node_depths(inst.tree)
        expected = [v for v in range(inst.tree.node_count) if 2 <= depth[v] <= 3]
        assert matched == expected

    def test_single_character_pattern(self):
        inst = gen_adversarial(3, 1)
        assert inst.tree.node_count == 15
        report = match_tree(build_pattern_tables(inst.pattern), inst.tree)
        assert report.matched_nodes == list(range(1, 15))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_adversarial(2, 1)
        with pytest.raises(ValueError):
            gen_adversarial(5, 4)
        with pytest.raises(ValueError):
            gen_adversarial(5, 0)

    @pytest.mark.parametrize("h", [25, 100000])
    def test_height_above_cap_refused_before_building(self, h):
        # h = 25 would be 2^26 - 1 nodes; the check runs before any of them
        with pytest.raises(ValueError, match="^height must be at most 24$"):
            gen_adversarial(h, h - 2)

    def test_counter_separation(self):
        for h in (5, 6, 7):
            m = h - 2
            inst = gen_adversarial(h, m)
            tables = build_pattern_tables(inst.pattern)
            pruned = match_tree(tables, inst.tree, prune=True)
            unpruned = match_tree(tables, inst.tree, prune=False)
            n = inst.tree.node_count
            assert pruned.stats.goto_count <= n
            assert pruned.stats.fail_count <= 4 * (n + m)
            assert unpruned.stats.fail_count >= (m - 1) * 2 ** (h - 2)


class TestRandomGenerators:
    def test_string_deterministic_for_seed(self):
        assert gen_random_string(8, 2, 42) == gen_random_string(8, 2, 42)
        assert gen_random_string(50, 5, 1) != gen_random_string(50, 5, 2)

    @given(st.integers(0, 40), st.integers(1, 9), st.integers(0, 10**6))
    def test_string_length_and_range(self, n, sigma, seed):
        s = gen_random_string(n, sigma, seed)
        assert len(s) == n
        assert all(1 <= c <= sigma for c in s)

    @given(st.integers(1, 60), st.integers(0, 10**6))
    def test_tree_node_count_and_single_root(self, n, seed):
        tree = gen_random_tree(n, 3, seed)
        assert tree.node_count == n
        assert tree.parent[0] == -1
        assert all(tree.parent[v] != -1 for v in range(1, n))

    def test_tree_deterministic_for_seed(self):
        a = gen_random_tree(30, 4, 99)
        b = gen_random_tree(30, 4, 99)
        assert a == b

    @given(st.integers(1, 25), st.floats(0.0, 1.0), st.integers(0, 10**6))
    def test_dag_is_validated_acyclic(self, v, density, seed):
        # every edge runs from a lower id to a higher one
        dag = gen_random_dag(v, density, 3, seed)
        assert all(a < b for a, _, b in dag.edges)

    def test_dag_deterministic_for_seed(self):
        assert gen_random_dag(12, 0.4, 3, 5) == gen_random_dag(12, 0.4, 3, 5)

    @pytest.mark.parametrize(
        "gen, args, message",
        [
            (gen_random_string, (-1, 5, 0), "length cannot be negative"),
            (gen_random_string, (-1, 0, 0), "length cannot be negative"),
            (gen_random_string, (0, 0, 0), "alphabet size must be at least 1"),
            (gen_random_string, (5, -2, 0), "alphabet size must be at least 1"),
            (gen_random_string, (5, 2**63, 0), "alphabet size must be at most 9223372036854775807"),
            (gen_random_string, (5, 10**20, 0), "alphabet size must be at most 9223372036854775807"),
            (gen_random_string, (-1, 2**63, 0), "length cannot be negative"),
            (gen_random_tree, (0, 5, 0), "node count must be at least 1"),
            (gen_random_tree, (0, 0, 0), "node count must be at least 1"),
            (gen_random_tree, (1, 0, 0), "alphabet size must be at least 1"),
            (gen_random_tree, (4, 2**63, 0), "alphabet size must be at most 9223372036854775807"),
            (gen_random_tree, (0, 2**63, 0), "node count must be at least 1"),
            (gen_random_dag, (0, 0.5, 5, 0), "vertex count must be at least 1"),
            (gen_random_dag, (0, 2.0, 0, 0), "vertex count must be at least 1"),
            (gen_random_dag, (4097, 0.5, 5, 0), "vertex count must be at most 4096"),
            (gen_random_dag, (10**9, 2.0, 0, 0), "vertex count must be at most 4096"),
            (gen_random_dag, (3, 1.5, 5, 0), "density must lie in [0, 1]"),
            (gen_random_dag, (3, -0.1, 5, 0), "density must lie in [0, 1]"),
            (gen_random_dag, (3, float("nan"), 5, 0), "density must lie in [0, 1]"),
            (gen_random_dag, (3, 1.5, 0, 0), "density must lie in [0, 1]"),
            (gen_random_dag, (3, 1.0, 0, 0), "alphabet size must be at least 1"),
            (gen_random_dag, (3, 0.5, 2**63, 0), "alphabet size must be at most 9223372036854775807"),
            (gen_random_dag, (3, 1.5, 2**63, 0), "density must lie in [0, 1]"),
        ],
        ids=[
            "string-negative-length",
            "string-length-before-alphabet",
            "string-empty-zero-alphabet",
            "string-negative-alphabet",
            "string-alphabet-above-int64",
            "string-alphabet-far-above-int64",
            "string-length-before-alphabet-cap",
            "tree-no-nodes",
            "tree-nodes-before-alphabet",
            "tree-zero-alphabet",
            "tree-alphabet-above-int64",
            "tree-nodes-before-alphabet-cap",
            "dag-no-vertices",
            "dag-vertices-before-density",
            "dag-too-many-vertices",
            "dag-vertex-cap-before-density",
            "dag-density-above-one",
            "dag-density-below-zero",
            "dag-density-nan",
            "dag-density-before-alphabet",
            "dag-zero-alphabet",
            "dag-alphabet-above-int64",
            "dag-density-before-alphabet-cap",
        ],
    )
    def test_bad_argument_raises_with_message(self, gen, args, message):
        with pytest.raises(ValueError) as info:
            gen(*args)
        assert str(info.value) == message


# The generators' earlier bodies, which drew through randint / randrange /
# random.  The generators now take the same draws from getrandbits; these
# tests pin their outputs to the earlier ones, so a change to the stdlib's
# draw rule on some Python version fails here instead of changing outputs.


def _ref_string(n, sigma, seed):
    rng = random.Random(seed)
    return tuple(rng.randint(1, sigma) for _ in range(n))


def _ref_tree(n, sigma, seed):
    rng = random.Random(seed)
    edges = [
        (rng.randrange(i), i, rng.randint(1, sigma)) for i in range(1, n)
    ]
    return build_tree(edges)


def _ref_dag(v, density, sigma, seed):
    rng = random.Random(seed)
    edges = []
    for i in range(v):
        for j in range(i + 1, v):
            if rng.random() < density:
                edges.append((i, rng.randint(1, sigma), j))
    return build_dag(v, edges)


SIGMAS = [1, 2, 3, 5, 100, 1000, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63 - 1]
SEEDS = [0, 7, 2**40 + 3]


class TestSameOutputAsRandintDraws:
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_string(self, sigma, seed):
        for n in (0, 1, 7, 1000):
            assert gen_random_string(n, sigma, seed) == _ref_string(n, sigma, seed)

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tree(self, sigma, seed):
        # == compares node_count, parent, edge_label and the derived shape
        for n in (1, 2, 50, 3000):
            assert gen_random_tree(n, sigma, seed) == _ref_tree(n, sigma, seed)

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dag(self, sigma, seed):
        # == compares the vertex count and the edge tuples in order
        for density in (0.0, 0.3, 1.0):
            assert gen_random_dag(40, density, sigma, seed) == _ref_dag(40, density, sigma, seed)

    @given(
        st.integers(0, 30),
        st.one_of(st.integers(1, 20), st.integers(1, 2**63 - 1)),
        st.integers(0, 2**64),
    )
    def test_small_sizes(self, n, sigma, seed):
        assert gen_random_string(n, sigma, seed) == _ref_string(n, sigma, seed)
        assert gen_random_tree(n + 1, sigma, seed) == _ref_tree(n + 1, sigma, seed)
        density = (seed % 11) / 10
        assert gen_random_dag(n + 1, density, sigma, seed) == _ref_dag(n + 1, density, sigma, seed)
