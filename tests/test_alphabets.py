"""Labels from any totally ordered alphabet: the pattern compile,
match_string and match_tree only sort and compare labels, so str, tuple,
Fraction and float labels give what the oracles (which use <= only) give,
and what the same labels' ranks give as ints."""

import random
from fractions import Fraction

import pytest

from oppm.gen import gen_random_string, gen_random_tree
from oppm.oracles import (
    naive_border,
    naive_lmax_lmin,
    naive_match_string,
    naive_match_tree,
)
from oppm.pattern import build_pattern_tables, compute_lmax_lmin
from oppm.stringmatch import match_string
from oppm.tree import build_tree
from oppm.treematch import match_tree
from test_tree import tree_edges


def _str(rng):
    # lowercase words of 1 to 6 letters: "b" < "ba" < "bb" < "c"
    return "".join(rng.choice("abcdefghij") for _ in range(rng.randint(1, 6)))


def _tuple(rng):
    # tuples of different lengths compare by their first differing entry
    return tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))


KINDS = {
    "str": _str,
    "tuple": _tuple,
    "Fraction": lambda rng: Fraction(rng.randint(-1000, 1000), rng.randint(1, 50)),
    "float": lambda rng: rng.uniform(-1e6, 1e6),
}


def alphabet(kind, size, rng):
    """``size`` distinct labels of ``kind``, ascending."""
    values = set()
    while len(values) < size:
        values.add(KINDS[kind](rng))
    return sorted(values)


def relabel(ints, letters):
    """Int labels 1..sigma mapped onto the ascending ``letters``."""
    return [letters[x - 1] for x in ints]


@pytest.mark.parametrize("kind", KINDS)
class TestAgainstOracles:
    def cases(self, kind, seed):
        """(p, t) as ints 1..sigma and as labels of ``kind``, ties included."""
        rng = random.Random(f"{kind}:{seed}")
        for _ in range(150):
            sigma = rng.choice((1, 2, 3, 10, 50))
            letters = alphabet(kind, sigma, rng)
            p = [rng.randint(1, sigma) for _ in range(rng.randint(1, 7))]
            t = [rng.randint(1, sigma) for _ in range(rng.randint(0, 60))]
            yield p, t, relabel(p, letters), relabel(t, letters)

    def test_compile(self, kind):
        for p, _, lp, _ in self.cases(kind, 1):
            tables = build_pattern_tables(lp)
            assert compute_lmax_lmin(lp) == naive_lmax_lmin(lp) == compute_lmax_lmin(p)
            assert list(tables.border) == naive_border(lp)
            assert tables.steps == build_pattern_tables(p).steps
            assert tables.values == tuple(lp)

    def test_match_string(self, kind):
        for p, t, lp, lt in self.cases(kind, 2):
            ends, stats = match_string(build_pattern_tables(lp), lt)
            assert ends == naive_match_string(lp, lt)
            assert (ends, stats) == match_string(build_pattern_tables(p), t)

    def test_match_tree(self, kind):
        rng = random.Random(f"{kind}:tree")
        for _ in range(40):
            sigma = rng.choice((2, 3, 20))
            letters = alphabet(kind, sigma, rng)
            tree = gen_random_tree(rng.randint(1, 120), sigma, rng.randrange(2**30))
            labeled = build_tree([(u, v, letters[c - 1]) for u, v, c in tree_edges(tree)])
            p = [rng.randint(1, sigma) for _ in range(rng.randint(1, 5))]
            lp = relabel(p, letters)
            for prune in (True, False):
                report = match_tree(build_pattern_tables(lp), labeled, prune)
                assert report.matched_nodes == naive_match_tree(lp, labeled)
                assert report == match_tree(build_pattern_tables(p), tree, prune)


class TestStrLabelsPastOracleLimit:
    """An increasing map from ints to strs changes no result, at sizes the
    oracles cannot reach."""

    def test_match_string(self):
        rng = random.Random(1701)
        for sigma, m in ((2, 5), (100, 4), (1000, 9)):
            t = gen_random_string(10**5, sigma, rng.randrange(2**30))
            start = rng.randrange(len(t) - m)
            p = list(t[start : start + m])
            letters = alphabet("str", sigma, rng)
            expected = match_string(build_pattern_tables(p), t)
            assert expected[0]
            got = match_string(build_pattern_tables(relabel(p, letters)), relabel(t, letters))
            assert got == expected

    def test_match_tree(self):
        rng = random.Random(1702)
        for sigma, m in ((2, 3), (100, 4), (1000, 6)):
            tree = gen_random_tree(2 * 10**4, sigma, rng.randrange(2**30))
            letters = alphabet("str", sigma, rng)
            labeled = build_tree([(u, v, letters[c - 1]) for u, v, c in tree_edges(tree)])
            p = [rng.randint(1, sigma) for _ in range(m)]
            tables = build_pattern_tables(p)
            str_tables = build_pattern_tables(relabel(p, letters))
            for prune in (True, False):
                assert match_tree(str_tables, labeled, prune) == match_tree(tables, tree, prune)
