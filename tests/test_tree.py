"""Tree construction, validation, and the height/depth bookkeeping."""

import random
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oppm.gen import gen_adversarial, gen_random_tree
from oppm.tree import TextTree, TreeValidationError, build_tree
from test_records import TREE_FIELDS

EXAMPLE_EDGES = [(0, 1, 10), (1, 2, 20), (1, 3, 5), (2, 4, 30)]


def reference_build_tree(edges):
    """The per-node-list build that the flat one replaced, verbatim but for
    the container it returns: the reference for fields and errors."""
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

    return dict(
        node_count=n,
        parent=tuple(parent),
        children=tuple(tuple(cs) for cs in children),
        edge_label=tuple(label),
        depth=tuple(depth),
        subtree_height=tuple(height),
        max_depth=max(depth),
    )


def permuted_edges(edges, rng):
    """The same tree with its non-root ids renumbered at random and its
    edge list shuffled, so parents no longer come before their children."""
    ids = list(range(1, len(edges) + 1))
    rng.shuffle(ids)
    new = [0] + ids
    out = [(new[u], new[v], lab) for u, v, lab in edges]
    rng.shuffle(out)
    return out


def tree_edges(tree):
    """The edge list of a built tree, in child-id order."""
    return [(tree.parent[v], v, tree.edge_label[v]) for v in range(1, tree.node_count)]


def children(tree: TextTree) -> list[list[int]]:
    """Each node's children in input order, read off parent and preorder."""
    kids: list[list[int]] = [[] for _ in range(tree.node_count)]
    for v in tree.preorder[1:]:
        kids[tree.parent[v]].append(v)
    return kids


def node_depths(tree: TextTree) -> tuple[int, ...]:
    """Each node's depth, by node id, read off preorder and depths."""
    depth = [0] * tree.node_count
    for v, d in zip(tree.preorder, tree.depths):
        depth[v] = d
    return tuple(depth)


def compute_subtree_heights(tree: TextTree) -> tuple[int, ...]:
    """Recompute subtree heights with one traversal (children before parents)."""
    kids = children(tree)
    order = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(kids[u])
    height = [0] * tree.node_count
    for u in reversed(order):  # reversed preorder: descendants come first
        if kids[u]:
            height[u] = 1 + max(height[c] for c in kids[u])
    return tuple(height)


def in_preorder(tree: TextTree, by_id) -> tuple[int, ...]:
    """A by-id table laid out by preorder position, as the search tables are."""
    return tuple(by_id[v] for v in tree.preorder)


class TestBuildTree:
    def test_example_tree(self):
        tree = build_tree(EXAMPLE_EDGES)
        assert tree.node_count == 5
        assert tree.max_depth == 3
        assert node_depths(tree) == (0, 1, 2, 2, 3)
        assert tree.parent == (-1, 0, 1, 1, 2)
        assert tree.edge_label == (0, 10, 20, 5, 30)
        assert tree.preorder == (0, 1, 2, 4, 3)

    def test_single_node(self):
        tree = build_tree([])
        assert tree.node_count == 1
        assert tree.heights == (0,)
        assert tree.max_depth == 0

    def test_two_node_chain(self):
        tree = build_tree([(0, 1, 7)])
        assert tree.heights == (1, 0)
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
        assert tree.preorder == (0, 2, 1)


class TestSubtreeHeights:
    def test_example_tree(self):
        tree = build_tree(EXAMPLE_EDGES)
        assert tree.heights == in_preorder(tree, (3, 2, 1, 0, 0))
        assert compute_subtree_heights(tree) == (3, 2, 1, 0, 0)

    def test_star(self):
        tree = build_tree([(0, k, 1) for k in range(1, 6)])
        assert tree.heights == (1, 0, 0, 0, 0, 0)

    def test_chain(self):
        tree = build_tree([(i, i + 1, 1) for i in range(4)])
        assert tree.heights == (4, 3, 2, 1, 0)

    @given(st.integers(1, 80), st.integers(0, 10**6))
    def test_recomputation_agrees_with_stored(self, n, seed):
        tree = gen_random_tree(n, 5, seed)
        assert tree.heights == in_preorder(tree, compute_subtree_heights(tree))


class TestInvariants:
    @given(st.integers(1, 80), st.integers(0, 10**6))
    def test_height_recursion_and_depth_bound(self, n, seed):
        tree = gen_random_tree(n, 5, seed)
        kids = children(tree)
        height = dict(zip(tree.preorder, tree.heights))
        depth = node_depths(tree)
        for u in range(tree.node_count):
            assert height[u] < tree.node_count
            if kids[u]:
                best = max(height[c] for c in kids[u])
                assert height[u] == best + 1
            else:
                assert height[u] == 0
            assert depth[u] + height[u] <= tree.max_depth
        # the root always sits on a longest root-to-leaf path
        assert tree.heights[0] == tree.max_depth

    @given(st.integers(1, 80), st.integers(0, 10**6))
    def test_child_depths(self, n, seed):
        tree = gen_random_tree(n, 5, seed)
        depth = node_depths(tree)
        for u in range(1, tree.node_count):
            assert depth[u] == depth[tree.parent[u]] + 1


def assert_same_as_reference(edges):
    tree = build_tree(edges)
    expected = reference_build_tree(edges)
    kids = expected.pop("children")
    height = expected.pop("subtree_height")
    depth = expected.pop("depth")
    assert {name: getattr(tree, name) for name in expected} == expected
    # preorder: each node, then its children's subtrees in input order;
    # with parent it fixes the children and their order
    order = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(reversed(kids[u]))
    assert tree.preorder == tuple(order)
    # the search tables hold the by-id values at each preorder position
    assert tree.labels == tuple(tree.edge_label[v] for v in order)
    assert tree.depths == tuple(depth[v] for v in order)
    assert tree.heights == tuple(height[v] for v in order)


class TestAgainstReferenceBuild:
    def test_seeded_trees_with_permuted_ids(self):
        rng = random.Random(9001)
        for _ in range(200):
            n = rng.choice((1, 2, 3, rng.randint(4, 300)))
            tree = gen_random_tree(n, rng.choice((2, 100)), rng.randrange(2**30))
            assert_same_as_reference(tree_edges(tree))
            assert_same_as_reference(permuted_edges(tree_edges(tree), rng))

    def test_adversarial_trees_with_permuted_ids(self):
        rng = random.Random(9002)
        for h in (3, 6, 9):
            edges = tree_edges(gen_adversarial(h, 1).tree)
            assert_same_as_reference(edges)
            assert_same_as_reference(permuted_edges(edges, rng))

    def test_long_chain(self):
        edges = [(i, i + 1, i % 7) for i in range(10**5 - 1)]
        assert_same_as_reference(edges)
        assert_same_as_reference(permuted_edges(edges, random.Random(9003)))

    def test_wide_star(self):
        edges = [(0, i, i % 5) for i in range(1, 10**5)]
        assert_same_as_reference(edges)
        assert_same_as_reference(permuted_edges(edges, random.Random(9004)))

    def test_single_node(self):
        assert_same_as_reference([])


def corrupt(edges, kind, i, rng):
    """A copy of ``edges`` with one fault of ``kind`` put into edge i."""
    n = len(edges) + 1
    out = list(edges)
    u, v, lab = out[i]
    if kind == "unknown parent":
        out[i] = (rng.choice((n, n + rng.randint(1, 9), -1, -rng.randint(2, 9))), v, lab)
    elif kind == "unknown child":
        out[i] = (u, rng.choice((n, n + rng.randint(1, 9), -1, -rng.randint(2, 9))), lab)
    elif kind == "root as child":
        out[i] = (u, 0, lab)
    elif kind == "duplicate child":
        j = rng.choice([k for k in range(len(out)) if k != i])
        out[i] = (u, out[j][1], lab)
    else:  # detached cycle: v's parent becomes a node of v's own subtree
        parent = {c: p for p, c, _ in out}
        below = [w for w in parent if _has_ancestor(parent, w, v)]
        out[i] = (rng.choice(below), v, lab)
    return out


def _has_ancestor(parent, w, a):
    while w != a and w in parent:
        w = parent[w]
    return w == a


FAULTS = ["unknown parent", "unknown child", "root as child", "duplicate child", "detached cycle"]


class TestValidationAgainstReference:
    def _assert_same_error(self, edges):
        with pytest.raises(TreeValidationError) as expected:
            reference_build_tree(edges)
        with pytest.raises(TreeValidationError) as got:
            build_tree(edges)
        assert (str(got.value), got.value.edge) == (str(expected.value), expected.value.edge)

    @pytest.mark.parametrize("kind", FAULTS)
    def test_one_fault(self, kind):
        rng = random.Random(f"one:{kind}")
        for _ in range(60):
            n = rng.randint(3, 120)
            edges = permuted_edges(tree_edges(gen_random_tree(n, 5, rng.randrange(2**30))), rng)
            self._assert_same_error(corrupt(edges, kind, rng.randrange(n - 1), rng))

    def test_two_faults_of_different_kinds(self):
        """The fault of the earliest edge wins, and within one edge the
        order of the checks decides."""
        rng = random.Random(9005)
        for _ in range(300):
            n = rng.randint(4, 120)
            edges = permuted_edges(tree_edges(gen_random_tree(n, 5, rng.randrange(2**30))), rng)
            # the cycle goes in first: it is read off a list that is still a tree
            first, second = sorted(rng.sample(FAULTS, 2), key="detached cycle".__ne__)
            # one edge in four gets both faults
            i = rng.randrange(n - 1)
            j = i if rng.random() < 0.25 else rng.choice([k for k in range(n - 1) if k != i])
            edges = corrupt(corrupt(edges, first, i, rng), second, j, rng)
            self._assert_same_error(edges)


class FlatTriples:
    """A minimal view of edges over their flat integers: sized, iterable
    again and again, and nothing else.  Every step overwrites the one
    triple it hands out, so a build that keeps a triple past its loop step
    reads the wrong edge."""

    def __init__(self, edges):
        self.flat = tuple(chain.from_iterable(edges))

    def __len__(self):
        return len(self.flat) // 3

    def __iter__(self):
        triple = [0, 0, 0]
        for k in range(len(self)):
            triple[:] = self.flat[3 * k : 3 * k + 3]
            yield triple


FORMS = {"tuple": tuple, "flat view": FlatTriples}


def every_field(tree):
    """All of a TextTree's fields, the tables left out of == included."""
    return {name: getattr(tree, name) for name in TREE_FIELDS}


class TestEdgeCollections:
    """A tuple of the edges and a view over their flat integers build the
    tree, or raise the error, that the list builds."""

    @staticmethod
    def edge_lists():
        rng = random.Random(9006)
        yield []
        for _ in range(40):
            n = rng.choice((2, 3, rng.randint(4, 300)))
            edges = tree_edges(gen_random_tree(n, rng.choice((2, 100)), rng.randrange(2**30)))
            yield edges
            yield permuted_edges(edges, rng)
        for h in (3, 6, 9):
            edges = tree_edges(gen_adversarial(h, 1).tree)
            yield edges
            yield permuted_edges(edges, rng)

    @pytest.mark.parametrize("form", FORMS)
    def test_same_tree(self, form):
        for edges in self.edge_lists():
            expected = every_field(build_tree(list(edges)))
            assert every_field(build_tree(FORMS[form](edges))) == expected

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("kind", FAULTS)
    def test_same_error(self, form, kind):
        rng = random.Random(f"forms:{kind}")
        for _ in range(30):
            n = rng.randint(3, 120)
            edges = permuted_edges(tree_edges(gen_random_tree(n, 5, rng.randrange(2**30))), rng)
            edges = corrupt(edges, kind, rng.randrange(n - 1), rng)
            with pytest.raises(TreeValidationError) as expected:
                build_tree(edges)
            with pytest.raises(TreeValidationError) as got:
                build_tree(FORMS[form](edges))
            assert (str(got.value), got.value.edge) == (str(expected.value), expected.value.edge)


class TestEquality:
    def test_same_edges_build_equal_trees(self):
        edges = tree_edges(gen_random_tree(300, 5, 17))
        a, b = build_tree(edges), build_tree(list(edges))
        assert a == b
        assert hash(a) == hash(b)

    def test_swapped_siblings_build_unequal_trees(self):
        edges = [(0, 1, 4), (0, 2, 4), (1, 3, 2)]
        swapped = [(0, 2, 4), (0, 1, 4), (1, 3, 2)]
        assert build_tree(edges) != build_tree(swapped)
        assert reference_build_tree(edges) != reference_build_tree(swapped)
        # the same siblings in the same input order, wherever their edges sit
        assert build_tree(edges) == build_tree([(0, 1, 4), (1, 3, 2), (0, 2, 4)])

    def test_tables_left_out_of_equality_hash_and_repr(self):
        edges = [(0, 2, 1), (0, 1, 1), (1, 3, 2)]
        a, b = build_tree(edges), build_tree(list(edges))
        assert a == b and hash(a) == hash(b)
        assert node_depths(a) == (0, 1, 1, 2) and a.heights == (2, 0, 1, 0)
        assert repr(a) == (
            "TextTree(node_count=4, parent=(-1, 0, 0, 1), edge_label=(0, 1, 1, 2), "
            "max_depth=2, preorder=(0, 2, 1, 3))"
        )


def unshared_parents(tree: TextTree) -> tuple[int, list[int]]:
    """How many parent ids are past CPython's cached small ints (above 256),
    and those of them that are not the very int object preorder holds for
    that id."""
    held = {v: v for v in tree.preorder}
    big = [u for u in tree.parent if u > 256]
    return len(big), [u for u in big if u is not held[u]]


class TestOneIntPerNode:
    """parent and preorder share one int object per node id: the parent
    column's ints are only looked up, so they go with their triple."""

    def test_list_of_parsed_edges(self):
        tree = gen_random_tree(5000, 100, 31)
        # each int() makes its own object, so the two columns share none
        edges = [tuple(map(int, f"{u} {v} {c}".split())) for u, v, c in tree_edges(tree)]
        random.Random(31).shuffle(edges)
        built = build_tree(edges)
        big, unshared = unshared_parents(built)
        assert big > 1000 and unshared == []
        assert built.parent == tree.parent and built.edge_label == tree.edge_label
