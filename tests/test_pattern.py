"""Pattern table construction checked against the brute-force definitions."""

import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oppm.oracles import naive_border, naive_isomorphic, naive_lmax_lmin
from oppm.pattern import (
    INT64_MAX,
    INT64_MIN,
    PatternTables,
    build_pattern_tables,
    compute_border_array,
    compute_lmax_lmin,
    op_isomorphic,
)

int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
wide_patterns = st.lists(int64, min_size=1, max_size=10)
# tiny alphabet to force equal characters
tied_patterns = st.lists(st.integers(1, 3), min_size=1, max_size=8)
any_pattern = st.one_of(wide_patterns, tied_patterns)


@st.composite
def equal_length_pair(draw):
    n = draw(st.integers(1, 8))
    sigma = draw(st.sampled_from([2, 100]))
    chars = st.integers(1, sigma)
    x = draw(st.lists(chars, min_size=n, max_size=n))
    y = draw(st.lists(chars, min_size=n, max_size=n))
    return x, y


class TestComputeLmaxLmin:
    def test_worked_example(self):
        assert compute_lmax_lmin((22, 41, 35, 37)) == ([0, 1, 1, 3], [0, 0, 2, 2])

    def test_single_character(self):
        assert compute_lmax_lmin((5,)) == ([0], [0])

    def test_tie_resolves_to_rightmost(self):
        assert compute_lmax_lmin((1, 1)) == ([0, 1], [0, 1])

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            compute_lmax_lmin(())

    @given(any_pattern)
    def test_matches_brute_force(self, p):
        assert compute_lmax_lmin(p) == naive_lmax_lmin(p)

    def test_exhaustive_tiny_alphabet(self):
        for m in range(1, 6):
            for p in product((1, 2, 3), repeat=m):
                lmax, lmin = compute_lmax_lmin(p)
                nlmax, nlmin = naive_lmax_lmin(p)
                assert lmax == nlmax and lmin == nlmin, p

    def test_long_patterns_match_brute_force(self):
        # the hypothesis strategies stop at 10 labels; these run the stack
        # pass at 100-600, where the rising, constant and maximum-first
        # shapes grow the stack to about m and maximum-first then empties it
        # in one run of pops
        rng = random.Random(26)
        extremes = (INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX - 1, INT64_MAX)
        alphabets = [range(1, sigma + 1) for sigma in (1, 2, 3, 1000)]
        patterns = [
            rng.choices(alphabet, k=rng.randint(100, 600))
            for alphabet in [*alphabets, extremes]
            for _ in range(2)
        ]
        m = 600
        patterns += [
            list(range(m)),
            list(range(m, 0, -1)),
            [*range(m // 2), *range(m // 2, 0, -1)],
            [7] * m,
            [m, *range(1, m)],
        ]
        for p in patterns:
            assert compute_lmax_lmin(p) == naive_lmax_lmin(p), p


class TestComputeBorderArray:
    def test_worked_example(self):
        lmax, lmin = compute_lmax_lmin((22, 41, 35, 37))
        assert compute_border_array((22, 41, 35, 37), lmax, lmin) == [0, 1, 1, 2]

    def test_single_character(self):
        assert compute_border_array((9,), *compute_lmax_lmin((9,))) == [0]

    def test_strictly_increasing(self):
        p = (3, 5, 8, 13, 21)
        assert compute_border_array(p, *compute_lmax_lmin(p)) == [0, 1, 2, 3, 4]

    def test_window_inside_larger_text(self):
        # the last four characters, a window inside p, repeat the first four
        p = (22, 41, 35, 37, 18, 48, 29, 42)
        assert compute_border_array(p, *compute_lmax_lmin(p)) == [0, 1, 1, 2, 1, 2, 3, 4]

    @given(any_pattern)
    def test_matches_brute_force(self, p):
        assert compute_border_array(p, *compute_lmax_lmin(p)) == naive_border(p)

    def test_exhaustive_tiny_alphabet(self):
        for m in range(1, 6):
            for p in product((1, 2, 3), repeat=m):
                got = compute_border_array(p, *compute_lmax_lmin(p))
                assert got == naive_border(p), p


class TestTableInvariants:
    @given(any_pattern)
    def test_entries_point_strictly_left(self, p):
        lmax, lmin = compute_lmax_lmin(p)
        border = build_pattern_tables(p).border
        for i in range(len(p)):
            assert 0 <= lmax[i] <= i
            assert 0 <= lmin[i] <= i
            assert 0 <= border[i] <= i

    @given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=10))
    def test_monotone_transform_leaves_tables_unchanged(self, p):
        shifted = [3 * v + 7 for v in p]
        assert compute_lmax_lmin(p) == compute_lmax_lmin(shifted)
        assert build_pattern_tables(p).border == build_pattern_tables(shifted).border


def check_step_table(p):
    """Check every step against the brute-force bounds and border array."""
    tables = build_pattern_tables(p)
    lmax, lmin = naive_lmax_lmin(p)
    border = naive_border(p)
    assert tables.values == tuple(p) and tables.border == tuple(border)
    assert len(tables.steps) == len(p)
    for q, (oa, ob, f) in enumerate(tables.steps):
        assert oa == (lmax[q] - 1 - q if lmax[q] else None)
        assert ob == (lmin[q] - 1 - q if lmin[q] else None)
        assert f == (border[q - 1] if q else 0)
        assert all(-q <= o <= -1 for o in (oa, ob) if o is not None)


class TestStepTable:
    def test_exhaustive_tiny_alphabet(self):
        for m in range(1, 6):
            for p in product((1, 2, 3), repeat=m):
                check_step_table(p)

    @given(any_pattern)
    def test_matches_definition(self, p):
        check_step_table(p)

    def test_worked_example(self):
        tables = build_pattern_tables((22, 41, 35, 37))
        assert tables.steps == ((None, None, 0), (-1, None, 0), (-2, -1, 1), (-1, -2, 1))

    def test_fields_equality_hash_and_repr(self):
        tables = build_pattern_tables((22, 41, 35, 37))
        by_hand = PatternTables(tables.values, tables.border, tables.steps)
        assert by_hand == tables and hash(by_hand) == hash(tables)
        assert repr(tables) == (
            "PatternTables(values=(22, 41, 35, 37), border=(0, 1, 1, 2), "
            "steps=((None, None, 0), (-1, None, 0), (-2, -1, 1), (-1, -2, 1)))"
        )


class TestOpIsomorphic:
    def test_worked_example(self):
        assert op_isomorphic((22, 41, 35, 37), (18, 48, 29, 42))

    def test_tie_structure_must_agree(self):
        assert op_isomorphic((1, 1, 2), (3, 3, 5))
        assert not op_isomorphic((1, 1, 2), (3, 4, 5))

    def test_single_characters_agree(self):
        assert op_isomorphic((7,), (1000,))

    def test_equal_pair_differs_from_increasing_pattern(self):
        assert not op_isomorphic((1, 2), (2, 2))

    def test_unequal_lengths_differ(self):
        assert not op_isomorphic((1, 2), (1, 2, 3))

    def test_empty_sequences_agree(self):
        assert op_isomorphic((), ())

    @given(equal_length_pair())
    def test_matches_brute_force(self, pair):
        x, y = pair
        assert op_isomorphic(x, y) == naive_isomorphic(x, y)

    @given(any_pattern)
    def test_reflexive(self, p):
        assert op_isomorphic(p, p)

    @given(equal_length_pair())
    def test_symmetric(self, pair):
        x, y = pair
        assert op_isomorphic(x, y) == op_isomorphic(y, x)
