"""Tree construction, validation, and the height/depth bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oppm.gen import gen_random_tree
from oppm.tree import TextTree, TreeValidationError, build_tree

EXAMPLE_EDGES = [(0, 1, 10), (1, 2, 20), (1, 3, 5), (2, 4, 30)]


def compute_subtree_heights(tree: TextTree) -> tuple[int, ...]:
    """Recompute subtree heights with one traversal (children before parents)."""
    order = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(tree.children[u])
    height = [0] * tree.node_count
    for u in reversed(order):  # reversed preorder: descendants come first
        if tree.children[u]:
            height[u] = 1 + max(height[c] for c in tree.children[u])
    return tuple(height)


class TestBuildTree:
    def test_example_tree(self):
        tree = build_tree(EXAMPLE_EDGES)
        assert tree.node_count == 5
        assert tree.max_depth == 3
        assert tree.depth == (0, 1, 2, 2, 3)
        assert tree.parent == (-1, 0, 1, 1, 2)
        assert tree.edge_label == (0, 10, 20, 5, 30)
        assert tree.children == ((1,), (2, 3), (4,), (), ())

    def test_single_node(self):
        tree = build_tree([])
        assert tree.node_count == 1
        assert tree.subtree_height == (0,)
        assert tree.max_depth == 0

    def test_two_node_chain(self):
        tree = build_tree([(0, 1, 7)])
        assert tree.subtree_height == (1, 0)
        assert tree.edge_label[1] == 7

    def test_duplicate_child_rejected(self):
        with pytest.raises(TreeValidationError, match="duplicate child 1"):
            build_tree([(0, 1, 5), (0, 1, 6), (0, 2, 7)])

    def test_unknown_parent_rejected(self):
        with pytest.raises(TreeValidationError, match="unknown parent id 5"):
            build_tree([(5, 1, 0)])

    def test_root_as_child_rejected(self):
        with pytest.raises(TreeValidationError, match="root"):
            build_tree([(1, 0, 3), (0, 2, 4)])

    def test_cycle_not_reachable_from_root(self):
        with pytest.raises(TreeValidationError, match="not reachable"):
            build_tree([(1, 2, 0), (2, 1, 0)])

    def test_children_preserve_input_order(self):
        tree = build_tree([(0, 2, 1), (0, 1, 1)])
        assert tree.children[0] == (2, 1)


class TestSubtreeHeights:
    def test_example_tree(self):
        tree = build_tree(EXAMPLE_EDGES)
        assert tree.subtree_height == (3, 2, 1, 0, 0)
        assert compute_subtree_heights(tree) == (3, 2, 1, 0, 0)

    def test_star(self):
        tree = build_tree([(0, k, 1) for k in range(1, 6)])
        assert tree.subtree_height == (1, 0, 0, 0, 0, 0)

    def test_chain(self):
        tree = build_tree([(i, i + 1, 1) for i in range(4)])
        assert tree.subtree_height == (4, 3, 2, 1, 0)

    @given(st.integers(1, 80), st.integers(0, 10**6))
    def test_recomputation_agrees_with_stored(self, n, seed):
        tree = gen_random_tree(n, 5, seed)
        assert compute_subtree_heights(tree) == tree.subtree_height


class TestInvariants:
    @given(st.integers(1, 80), st.integers(0, 10**6))
    def test_height_recursion_and_depth_bound(self, n, seed):
        tree = gen_random_tree(n, 5, seed)
        for u in range(tree.node_count):
            assert tree.subtree_height[u] < tree.node_count
            if tree.children[u]:
                best = max(tree.subtree_height[c] for c in tree.children[u])
                assert tree.subtree_height[u] == best + 1
            else:
                assert tree.subtree_height[u] == 0
            assert tree.depth[u] + tree.subtree_height[u] <= tree.max_depth
        # the root always sits on a longest root-to-leaf path
        assert tree.subtree_height[0] == tree.max_depth

    @given(st.integers(1, 80), st.integers(0, 10**6))
    def test_child_depths(self, n, seed):
        tree = gen_random_tree(n, 5, seed)
        for u in range(1, tree.node_count):
            assert tree.depth[u] == tree.depth[tree.parent[u]] + 1
