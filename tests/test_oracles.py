"""The brute-force reference implementations, checked on definitional cases."""

import ast
from pathlib import Path

import pytest

from oppm import oracles
from oppm.oracles import (
    is_subsequence,
    naive_border,
    naive_isomorphic,
    naive_lmax_lmin,
    naive_match_string,
    naive_match_tree,
    naive_opsm,
)
from oppm.tree import build_tree
from test_tree import node_depths


def test_oracles_import_no_fast_path_modules():
    """Oracle/fast-path agreement is evidence only if the code is disjoint."""
    source = Path(oracles.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    forbidden = {"pattern", "stringmatch", "treematch", "dag", "cli", "gen"}
    assert not imported & forbidden, imported & forbidden


class TestNaiveIsomorphic:
    def test_worked_example(self):
        assert naive_isomorphic((22, 41, 35, 37), (18, 48, 29, 42))

    def test_reflexive(self):
        assert naive_isomorphic((4, 4, 1), (4, 4, 1))

    def test_tie_disagreement(self):
        assert not naive_isomorphic((1, 1), (1, 2))

    def test_unequal_lengths(self):
        assert not naive_isomorphic((1,), (1, 2))

    def test_empty(self):
        assert naive_isomorphic((), ())


class TestNaiveLmaxLmin:
    def test_single_character(self):
        assert naive_lmax_lmin((7,)) == ([0], [0])

    def test_worked_example(self):
        assert naive_lmax_lmin((22, 41, 35, 37)) == ([0, 1, 1, 3], [0, 0, 2, 2])

    def test_tie_keeps_rightmost(self):
        assert naive_lmax_lmin((1, 1)) == ([0, 1], [0, 1])
        assert naive_lmax_lmin((5, 5, 5)) == ([0, 1, 2], [0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            naive_lmax_lmin(())


class TestNaiveBorder:
    def test_single_character(self):
        assert naive_border((3,)) == [0]

    def test_worked_example(self):
        assert naive_border((22, 41, 35, 37)) == [0, 1, 1, 2]

    def test_strictly_increasing(self):
        assert naive_border((1, 2, 3, 4, 5)) == [0, 1, 2, 3, 4]


class TestNaiveMatchString:
    def test_worked_example(self):
        p = (22, 41, 35, 37)
        t = (63, 18, 48, 29, 42, 56, 25, 51)
        assert naive_match_string(p, t) == [5]

    def test_pattern_longer_than_text(self):
        assert naive_match_string((1, 2, 3), (1, 2)) == []


class TestNaiveMatchTree:
    def test_example_tree(self):
        tree = build_tree([(0, 1, 10), (1, 2, 20), (1, 3, 5), (2, 4, 30)])
        assert naive_match_tree((1, 2), tree) == [2, 4]

    def test_single_character(self):
        tree = build_tree([(0, 1, 10), (1, 2, 20)])
        assert naive_match_tree((9,), tree) == [1, 2]

    def test_chain_agrees_with_string_windows(self):
        labels = (3, 1, 4, 1, 5)
        tree = build_tree([(i, i + 1, lab) for i, lab in enumerate(labels)])
        p = (1, 2)
        positions = naive_match_string(p, labels)
        nodes = naive_match_tree(p, tree)
        depth = node_depths(tree)
        assert [depth[v] for v in nodes] == positions


class TestNaiveOpsm:
    def test_increasing_triple(self):
        assert naive_opsm((1, 2, 3), (5, 2, 1, 4, 3, 6)) is True

    def test_no_increasing_pair(self):
        assert naive_opsm((1, 2), (2, 1)) is False

    def test_pattern_longer_than_text(self):
        assert naive_opsm((1, 2), (7,)) is False

    def test_size_guard(self):
        with pytest.raises(ValueError, match="enumeration limit"):
            naive_opsm((1,), tuple(range(21)))


class TestIsSubsequence:
    def test_basic(self):
        assert is_subsequence((2, 6), (5, 2, 1, 4, 3, 6))
        assert not is_subsequence((6, 2), (5, 2, 1, 4, 3, 6))
        assert is_subsequence((), (1,))
        assert not is_subsequence((1,), ())
