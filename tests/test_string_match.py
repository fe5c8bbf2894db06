"""String matcher against the window-by-window brute force."""

import random

from hypothesis import given
from hypothesis import strategies as st

from oppm.cli import ORACLE_LIMIT
from oppm.gen import gen_random_string
from oppm.oracles import naive_isomorphic, naive_match_string
from oppm.pattern import build_pattern_tables, compute_lmax_lmin
from oppm.stringmatch import MatchStats, match_string
from oppm.tree import build_tree
from oppm.treematch import match_tree
from test_dag import increasing_map


def reference_match_string(tables, t):
    """The automaton loop on lmax / lmin / border, with an explicit goto
    count: the reference for match_string's step-table loop."""
    m = len(tables.values)
    lmax, lmin = compute_lmax_lmin(tables.values)
    border = tables.border
    out = []
    goto = fail = 0
    q = 0
    for j, c in enumerate(t):
        while True:
            a = lmax[q]
            b = lmin[q]
            base = j - q
            alpha = a == 0 or t[base + a - 1] < c
            beta = b == 0 or c < t[base + b - 1]
            if alpha == beta:
                break
            fail += 1
            q = border[q - 1]
        q += 1
        goto += 1
        if q == m:
            out.append(j + 1)
            fail += 1
            q = border[m - 1]
    return out, MatchStats(goto_count=goto, fail_count=fail)


@st.composite
def pattern_and_text(draw):
    sigma = draw(st.sampled_from([2, 5, 100]))
    chars = st.integers(1, sigma)
    p = draw(st.lists(chars, min_size=1, max_size=8))
    t = draw(st.lists(chars, min_size=0, max_size=64))
    return p, t


def test_worked_example():
    tables = build_pattern_tables((22, 41, 35, 37))
    positions, stats = match_string(tables, (63, 18, 48, 29, 42, 56, 25, 51))
    assert positions == [5]
    assert (stats.goto_count, stats.fail_count) == (8, 5)


def test_pattern_longer_than_text():
    tables = build_pattern_tables((1, 2, 3))
    positions, _ = match_string(tables, (1, 2))
    assert positions == []


def test_empty_text():
    positions, stats = match_string(build_pattern_tables((1, 2)), ())
    assert positions == []
    assert stats.goto_count == 0 and stats.fail_count == 0


def test_equal_characters_block_strict_increase():
    positions, _ = match_string(build_pattern_tables((1, 2)), (3, 1, 2, 2))
    assert positions == [3]


def test_overlapping_matches_all_reported():
    positions, _ = match_string(build_pattern_tables((1, 2)), (1, 2, 3, 4))
    assert positions == [2, 3, 4]


def test_single_character_pattern_matches_everywhere():
    positions, _ = match_string(build_pattern_tables((9,)), (4, 4, 4))
    assert positions == [1, 2, 3]


@given(pattern_and_text())
def test_matches_brute_force(case):
    p, t = case
    positions, _ = match_string(build_pattern_tables(p), t)
    assert positions == naive_match_string(p, t)


@given(pattern_and_text())
def test_counter_bounds(case):
    p, t = case
    _, stats = match_string(build_pattern_tables(p), t)
    assert stats.fail_count <= stats.goto_count <= len(t)


@given(pattern_and_text())
def test_monotone_transform_leaves_positions_unchanged(case):
    p, t = case
    base, _ = match_string(build_pattern_tables(p), t)
    f = lambda v: 5 * v - 2  # noqa: E731 - any strictly increasing map works
    fp = [f(v) for v in p]
    ft = [f(v) for v in t]
    for pp, tt in ((fp, t), (p, ft), (fp, ft)):
        positions, _ = match_string(build_pattern_tables(pp), tt)
        assert positions == base


def test_seeded_random_suite_matches_brute_force():
    rng = random.Random(20260819)
    for _ in range(500):
        sigma = rng.choice((2, 5, 100))
        m = rng.randint(1, 8)
        n = rng.randint(0, 64)
        p = [rng.randint(1, sigma) for _ in range(m)]
        t = [rng.randint(1, sigma) for _ in range(n)]
        positions, stats = match_string(build_pattern_tables(p), t)
        assert positions == naive_match_string(p, t)
        assert stats.fail_count <= stats.goto_count <= n


def test_positions_and_counters_equal_reference_loop():
    rng = random.Random(7001)
    for sigma in (1, 2, 5, 100):
        for m in range(1, 13):
            for _ in range(15):
                p = [rng.randint(1, sigma) for _ in range(m)]
                t = [rng.randint(1, sigma) for _ in range(rng.randint(0, 200))]
                tables = build_pattern_tables(p)
                assert match_string(tables, t) == reference_match_string(tables, t), (p, t)


def test_chunked_text_gives_the_sequence_result():
    """The text as an iterable of chunks, cut at random points: the
    positions and both counts of the whole sequence, and the brute force's
    positions.  Each text holds a copy of its pattern, cut inside when
    m > 1; equal points give empty chunks, close ones chunks shorter than
    the pattern."""
    rng = random.Random(2701)
    empty = short = 0  # cases with an empty chunk, with one shorter than m
    for _ in range(3000):
        sigma = rng.randint(2, 50)
        m = rng.randint(1, 8)
        p = [rng.randint(1, sigma) for _ in range(m)]
        t = [rng.randint(1, sigma) for _ in range(rng.randint(0, 80))]
        k = rng.randint(0, len(t))
        t[k:k] = p  # ends at position k + m
        tables = build_pattern_tables(p)
        whole = match_string(tables, t)
        assert whole[0] == naive_match_string(p, t)
        assert k + m in whole[0]
        cuts = [rng.randint(0, len(t)) for _ in range(rng.choice((0, 1, 3, 10, 40)))]
        if m > 1:
            cuts.append(rng.randint(k + 1, k + m - 1))
        ends = [0, *sorted(cuts), len(t)]
        # lists and tuples: a chunk is any sequence
        chunks = [rng.choice((list, tuple))(t[a:b]) for a, b in zip(ends, ends[1:])]
        assert match_string(tables, iter(chunks)) == whole, (p, chunks)
        sizes = [len(chunk) for chunk in chunks]
        empty += 0 in sizes
        short += any(0 < size < m for size in sizes)
    assert empty > 500 and short > 500


class TestPastOracleLimit:
    """Relations that need no oracle, on texts of 10^5 labels, far past
    ORACLE_LIMIT: the matcher only compares labels, a window read
    backwards is a window of the reversed text, and a chain tree's root
    paths are the string's prefixes."""

    N = 10**5

    @classmethod
    def cases(cls):
        """(p, t) with ties in both at small sigma; p is a window of t, so
        it matches at least once."""
        rng = random.Random(1701)
        for sigma, m in ((2, 3), (3, 6), (100, 4), (100, 9), (10**6, 5)):
            t = gen_random_string(cls.N, sigma, rng.randrange(2**30))
            k = rng.randrange(cls.N - m)
            yield t[k : k + m], t

    def test_increasing_map_keeps_positions_and_counters(self):
        rng = random.Random(1702)
        for p, t in self.cases():
            assert len(t) > ORACLE_LIMIT
            found = match_string(build_pattern_tables(p), t)
            f = increasing_map(rng, [*p, *t])
            assert min(f.values()) == -(2**63) and max(f.values()) == 2**63 - 1
            mapped = match_string(build_pattern_tables([f[x] for x in p]), [f[x] for x in t])
            assert mapped == found

    def test_reversal_and_negation_keep_matches(self):
        for p, t in self.cases():
            n, m = len(t), len(p)
            positions, _ = match_string(build_pattern_tables(p), t)
            back, _ = match_string(build_pattern_tables(p[::-1]), t[::-1])
            assert back == sorted(n - e + m for e in positions)
            negated, _ = match_string(build_pattern_tables([-x for x in p]), [-x for x in t])
            assert negated == positions

    def test_chain_tree_gives_positions_as_node_ids(self):
        for p, t in self.cases():
            tables = build_pattern_tables(p)
            positions, stats = match_string(tables, t)
            # node i + 1 ends the root path t[0..i], so its id is the position
            chain = build_tree([(i, i + 1, c) for i, c in enumerate(t)])
            unpruned = match_tree(tables, chain, prune=False)
            assert unpruned.matched_nodes == positions
            assert unpruned.stats == stats
            assert match_tree(tables, chain).matched_nodes == positions

    def test_windows_checked_directly(self):
        rng = random.Random(1703)
        for p, t in self.cases():
            m = len(p)
            positions, _ = match_string(build_pattern_tables(p), t)
            assert positions
            assert all(naive_isomorphic(p, t[e - m : e]) for e in positions)
            reported = set(positions)
            others = [e for e in range(m, len(t) + 1) if e not in reported]
            assert not any(naive_isomorphic(p, t[e - m : e]) for e in rng.sample(others, 2000))
