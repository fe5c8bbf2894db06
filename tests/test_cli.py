"""CLI subcommands, file formats, and exit codes."""

import argparse
import os
import random
import re
import subprocess
import sys
import tracemalloc
from functools import cached_property
from pathlib import Path

import pytest

import oppm
import oppm.cli as cli
from oppm.cli import (
    ParseError,
    build_parser,
    dag_file_text,
    main,
    parse_dag_file,
    parse_pattern_file,
    parse_tree_file,
    pattern_file_text,
    tree_file_text,
)
from oppm.dag import DagValidationError, build_dag, build_dasg
from oppm.gen import gen_random_string, gen_random_tree
from oppm.tree import TreeValidationError, build_tree

WORKED_PATTERN = "22 41 35 37\n"
WORKED_TEXT = "63 18 48 29 42 56 25 51\n"


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return write


class TestPatternFileParsing:
    def test_worked_example(self, files):
        assert parse_pattern_file(files("p.txt", WORKED_PATTERN)) == (22, 41, 35, 37)

    def test_empty_file(self, files):
        assert parse_pattern_file(files("p.txt", "")) == ()

    def test_signs(self, files):
        assert parse_pattern_file(files("p.txt", "-3 0 7\n")) == (-3, 0, 7)

    def test_int64_bounds_accepted(self, files):
        lo, hi = -(2**63), 2**63 - 1
        assert parse_pattern_file(files("p.txt", f"{lo} {hi}\n")) == (lo, hi)

    def test_overflow_rejected_with_location(self, files):
        path = files("p.txt", f"1 {2**63}\n")
        with pytest.raises(ParseError) as err:
            parse_pattern_file(path)
        assert str(err.value) == f"{path}:1:3: integer out of 64-bit signed range: {2**63}"

    def test_non_integer_rejected_with_column(self, files):
        path = files("p.txt", "1 2 x\n")
        with pytest.raises(ParseError, match=r"p\.txt:1:5: not an integer"):
            parse_pattern_file(path)

    def test_second_content_line_rejected(self, files):
        with pytest.raises(ParseError, match=r":2:1: expected a single line"):
            parse_pattern_file(files("p.txt", "1 2\n3\n"))


class TestTreeFileParsing:
    def test_example_tree(self, files):
        path = files("t.txt", "tree 5\n0 1 10\n1 2 20\n1 3 5\n2 4 30\n")
        tree = parse_tree_file(path)
        assert tree.node_count == 5
        assert tree.depth == (0, 1, 2, 2, 3)

    def test_single_node(self, files):
        tree = parse_tree_file(files("t.txt", "tree 1\n"))
        assert tree.node_count == 1

    def test_missing_header(self, files):
        with pytest.raises(ParseError, match="header"):
            parse_tree_file(files("t.txt", ""))

    def test_bad_header(self, files):
        with pytest.raises(ParseError, match=r":1:1: expected header 'tree N'"):
            parse_tree_file(files("t.txt", "dag 3 1\n0 1 5\n"))

    def test_duplicate_child_names_line(self, files):
        path = files("t.txt", "tree 3\n0 1 5\n0 1 6\n")
        with pytest.raises(ParseError, match=r":3: duplicate child 1"):
            parse_tree_file(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("tree 3\n0 1 5\n7 2 6\n", 3, "unknown parent id 7"),
            ("tree 3\n0 1 5\n1 -2 6\n", 3, "unknown child id -2"),
            ("tree 3\n0 1 5\n1 0 6\n", 3, "node 0 is the root and cannot be a child"),
            ("tree 4\n0 1 5\n0 2 6\n1 2 7\n", 4, "duplicate child 2"),
            ("tree 4\n0 1 5\n2 3 7\n3 2 7\n", 4, "node 2 is not reachable from the root"),
        ],
        ids=["unknown-parent", "unknown-child", "root-as-child", "duplicate-child", "cycle"],
    )
    def test_structural_error_names_edge_line(self, files, text, line, message):
        path = files("t.txt", text)
        with pytest.raises(ParseError) as err:
            parse_tree_file(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_edge_count_mismatch(self, files):
        with pytest.raises(ParseError, match="expected 2 edge lines, found 1"):
            parse_tree_file(files("t.txt", "tree 3\n0 1 5\n"))

    def test_unreachable_node_reported(self, files):
        path = files("t.txt", "tree 3\n1 2 5\n2 1 6\n")
        with pytest.raises(ParseError, match="not reachable"):
            parse_tree_file(path)

    def test_round_trip(self, files):
        tree = gen_random_tree(40, 5, 3)
        path = files("t.txt", tree_file_text(tree))
        assert parse_tree_file(path) == tree


# a tree file whose second edge line repeats child 1: a structural fault
# that the streamed build meets before it has read the lines after it
_DUPLICATE = ["tree 6", "0 1 5", "0 1 6", "1 3 7", "1 4 8", "2 5 9"]


class TestTreeFaultOrder:
    """build_tree reads a tree file's edges as they are converted, so it
    meets a structural fault before the rest of the file is read.  That
    fault is held, and a later edge-count, arity or token fault is raised
    first, as README's order has it.  Read in slices of four characters,
    the later fault lies slices past the structural one."""

    @pytest.mark.parametrize("size", [None, 4], ids=["one-slice", "short-slices"])
    @pytest.mark.parametrize(
        "lines, message",
        [
            (_DUPLICATE, "3: duplicate child 1"),
            (_DUPLICATE[:-1] + ["2 5"], "6:1: expected 'parent child label'"),
            (_DUPLICATE[:-1] + ["2 5 x"], "6:5: not an integer: 'x'"),
            (_DUPLICATE + ["3 6 1"], "1: expected 5 edge lines, found 6"),
            (_DUPLICATE[:-1], "1: expected 5 edge lines, found 4"),
            # 2 -> 3 -> 4 -> 2 is cut off from the root; node 2's edge is
            # named, which build_tree finds by reading the edges again
            (["tree 5", "0 1 5", "3 4 6", "4 2 7", "2 3 8"],
             "4: node 2 is not reachable from the root"),
        ],
        ids=["duplicate", "arity", "bad-token", "line-too-many", "line-too-few", "unreachable"],
    )
    def test_first_fault_in_file_order(self, files, capsys, monkeypatch, size, lines, message):
        if size is not None:
            monkeypatch.setattr(cli, "_SLICE", size)
        path = files("t.txt", "\n".join(lines) + "\n")
        assert main(["match-tree", files("p.txt", "2 1 3\n"), path]) == 2
        assert capsys.readouterr() == ("", f"error: {path}:{message}\n")

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_unreachable_node_far_into_the_file(self, files, end):
        # a chain 0 - 1 - ... whose node k hangs from node k + 5 instead:
        # the file is many slices long, and node k's line is named
        n, k = 5 * 10**4, 4 * 10**4
        edges = [f"{v - 1} {v} {v % 7}" for v in range(1, n)]
        edges[k - 1] = f"{k + 5} {k} 3"
        path = files("t.txt", end.join([f"tree {n}", *edges]) + end)
        with pytest.raises(ParseError) as err:
            parse_tree_file(path)
        assert str(err.value) == f"{path}:{k + 1}: node {k} is not reachable from the root"


class TestDagFileParsing:
    def test_round_trip(self, files):
        dag = build_dasg((5, 2, 1, 4, 3, 6))
        again = parse_dag_file(files("d.txt", dag_file_text(dag)))
        assert again == dag
        assert "dag 7 21" in dag_file_text(dag).splitlines()[0]

    def test_trivial_dag(self, files):
        dag = parse_dag_file(files("d.txt", "dag 1 0\n"))
        assert dag.vertex_count == 1 and dag.edges == ()

    def test_self_loop_is_cycle_error(self, files):
        path = files("d.txt", "dag 2 1\n0 0 5\n")
        with pytest.raises(ParseError, match=r":2: cycle detected"):
            parse_dag_file(path)

    def test_longer_cycle_detected(self, files):
        path = files("d.txt", "dag 3 3\n0 1 1\n1 2 1\n2 0 1\n")
        with pytest.raises(ParseError, match="cycle detected through edge"):
            parse_dag_file(path)

    def test_edge_count_mismatch(self, files):
        with pytest.raises(ParseError, match="expected 2 edge lines, found 1"):
            parse_dag_file(files("d.txt", "dag 3 2\n0 1 1\n"))

    def test_vertex_out_of_range(self, files):
        with pytest.raises(ParseError, match=r":2: unknown target vertex 7"):
            parse_dag_file(files("d.txt", "dag 2 1\n0 7 1\n"))

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("dag 3 2\n0 1 1\n3 2 1\n", 3, "unknown source vertex 3"),
            ("dag 3 2\n0 1 1\n1 -1 1\n", 3, "unknown target vertex -1"),
            ("dag 3 3\n0 1 1\n1 2 1\n2 2 1\n", 4, "cycle detected: self-loop at vertex 2"),
            ("dag 4 4\n0 1 1\n1 2 1\n2 3 1\n3 1 1\n", 3, "cycle detected through edge 1 -> 2"),
            # 1 -> 2 leaves the cycle 0 <-> 1 and must not be named
            ("dag 3 3\n1 2 1\n1 0 1\n0 1 1\n", 3, "cycle detected through edge 1 -> 0"),
        ],
        ids=["unknown-source", "unknown-target", "self-loop", "cycle", "edge-out-of-cycle"],
    )
    def test_structural_error_names_edge_line(self, files, text, line, message):
        path = files("d.txt", text)
        with pytest.raises(ParseError) as err:
            parse_dag_file(path)
        assert str(err.value) == f"{path}:{line}: {message}"


class TestLineAndTokenRules:
    def test_only_cr_and_lf_end_a_line(self, files):
        # str.splitlines() would break at each of these; the reader does not
        text = "1\x0b2\x0c3\x1c4\x1d5\x1e6\x1f7\x858\u20289\u202910\n"
        assert parse_pattern_file(files("p.txt", text)) == tuple(range(1, 11))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends(self, files, end):
        cases = [
            (["tree 3", "0 1 5", "", "1 2 x", ""], "4:5: not an integer: 'x'"),
            # the arity fault comes before the bad token that starts its line
            (["tree 3", "0 1 5", "", " x 1 2 4", ""], "4:2: expected 'parent child label'"),
            (["tree 3", "", "0 1 5", "\t0 1 6"], "4: duplicate child 1"),
        ]
        for lines, message in cases:
            path = files("t.txt", end.join(lines))
            with pytest.raises(ParseError) as err:
                parse_tree_file(path)
            assert str(err.value) == f"{path}:{message}"

    def test_right_token_count_on_wrong_lines(self, files):
        path = files("t.txt", "tree 3\n0 1 5 2\n3 7\n")
        with pytest.raises(ParseError) as err:
            parse_tree_file(path)
        assert str(err.value) == f"{path}:2:1: expected 'parent child label'"

    @pytest.mark.parametrize(
        "token, value",
        [("+5", 5), ("-0", 0), ("007", 7), ("1_000", 1000), ("\u0663", 3)],
    )
    def test_integers_follow_python_int(self, files, token, value):
        assert parse_pattern_file(files("p.txt", f"1 {token}\n")) == (1, value)

    def test_leading_byte_order_mark_is_not_an_integer(self, files):
        path = files("p.txt", "\ufeff1 2\n")
        with pytest.raises(ParseError) as err:
            parse_pattern_file(path)
        assert str(err.value) == f"{path}:1:1: not an integer: '\\ufeff1'"


class TestInt64RangeEdges:
    """The bulk check and the located walk must agree on the last token of
    a long line and on values one past either end of the range."""

    N = 10**5
    LO, HI = -(2**63), 2**63 - 1

    def test_range_ends_accepted_on_long_line(self, files):
        values = (self.LO, self.HI) * (self.N // 2)
        path = files("p.txt", " ".join(map(str, values)) + "\n")
        assert parse_pattern_file(path) == values

    @pytest.mark.parametrize(
        "last, message",
        [
            (str(2**63), f"integer out of 64-bit signed range: {2**63}"),
            (str(-(2**63) - 1), f"integer out of 64-bit signed range: {-(2**63) - 1}"),
            ("1x", "not an integer: '1x'"),
        ],
        ids=["above", "below", "not-an-integer"],
    )
    def test_only_bad_token_ends_a_long_line(self, files, last, message):
        good = f"{self.HI} "
        path = files("p.txt", good * (self.N - 1) + last + "\n")
        col = len(good) * (self.N - 1) + 1
        with pytest.raises(ParseError) as err:
            parse_pattern_file(path)
        assert str(err.value) == f"{path}:1:{col}: {message}"

    def test_first_bad_token_wins_over_a_later_one(self, files):
        # int() fails only on the later token; the range fault comes first
        path = files("p.txt", "1 " * self.N + f"{2**63} x\n")
        with pytest.raises(ParseError) as err:
            parse_pattern_file(path)
        col = 2 * self.N + 1
        assert str(err.value) == f"{path}:1:{col}: integer out of 64-bit signed range: {2**63}"

    @pytest.mark.parametrize("bad", [2**63, -(2**63) - 1], ids=["above", "below"])
    def test_value_outside_range_after_good_edge_lines(self, files, bad):
        lines = self.N // 3
        edges = [f"{v - 1} {v} {self.LO if v % 2 else self.HI}" for v in range(1, lines)]
        edges.append(f"{lines - 1} {lines} {bad}")
        path = files("t.txt", "\n".join([f"tree {lines + 1}", *edges]) + "\n")
        with pytest.raises(ParseError) as err:
            parse_tree_file(path)
        col = len(f"{lines - 1} {lines} ") + 1
        expected = f"{path}:{lines + 1}:{col}: integer out of 64-bit signed range: {bad}"
        assert str(err.value) == expected


class TestLongTokens:
    """int() refuses a literal longer than sys.get_int_max_str_digits() (4300
    by default) for its length alone; such a token is still an integer."""

    DIGITS = 5000

    @pytest.mark.parametrize("sign", ["", "-", "+"], ids=["plain", "minus", "plus"])
    def test_long_token_is_out_of_range(self, files, capsys, sign):
        bad = sign + "9" * self.DIGITS
        path = files("p.txt", f"1 {bad}\n")
        assert main(["match-string", path, path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:1:3: integer out of 64-bit signed range: {bad}\n"

    def test_long_token_in_a_tree_edge_line(self, files):
        bad = "1_" * self.DIGITS + "1"
        path = files("t.txt", f"tree 2\n0 1 {bad}\n")
        with pytest.raises(ParseError) as err:
            parse_tree_file(path)
        assert str(err.value) == f"{path}:2:5: integer out of 64-bit signed range: {bad}"

    def test_leading_zeros_do_not_count_toward_the_value(self, files):
        zeros = "0" * self.DIGITS
        path = files("p.txt", f"{zeros}7 -{zeros}{2**63} +{zeros}\n")
        assert parse_pattern_file(path) == (7, -(2**63), 0)

    @pytest.mark.parametrize(
        "token, value",
        [
            ("\u0660" * DIGITS + "\u0663", 3),
            ("0" * (DIGITS // 2) + "\u0660" * (DIGITS // 2) + "7", 7),
            ("0_" * 3000 + "7", 7),
        ],
        ids=["arabic-indic", "mixed-scripts", "underscores"],
    )
    def test_long_token_in_other_scripts(self, files, token, value):
        path = files("p.txt", f"1 {token}\n")
        values = parse_pattern_file(path)
        assert values == (1, value)
        assert type(values[1]) is int

    def test_long_token_in_another_script_is_out_of_range(self, files):
        bad = "\u0660" * self.DIGITS + str(2**63)
        path = files("p.txt", f"1 {bad}\n")
        with pytest.raises(ParseError) as err:
            parse_pattern_file(path)
        assert str(err.value) == f"{path}:1:3: integer out of 64-bit signed range: {bad}"

    def test_long_header_count(self, files):
        path = files("t.txt", f"tree {'0' * self.DIGITS}2\n0 1 5\n")
        assert parse_tree_file(path).node_count == 2

    @pytest.mark.parametrize("tail", ["x", "_", "__1", "-1"])
    def test_long_non_integer_is_still_rejected(self, files, tail):
        bad = "9" * self.DIGITS + tail
        path = files("p.txt", f"1 {bad}\n")
        with pytest.raises(ParseError) as err:
            parse_pattern_file(path)
        assert str(err.value) == f"{path}:1:3: not an integer: {bad!r}"


# ---------------------------------------------------------------------------
# Differential test of the file parsers against a token-by-token reference:
# the reader the CLI used before it parsed in bulk.  Each content line is
# matched with re's \S+ and every token converted on its own, so the first
# fault in file order is the one raised.


def _ref_content_rows(path):
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            toks = list(re.finditer(r"\S+", line))
            if toks:
                rows.append((lineno, toks))
    return rows


def _ref_int_token(path, lineno, tok):
    text = tok.group()
    col = tok.start() + 1
    try:
        value = int(text)
    except ValueError:
        raise ParseError(path, lineno, f"not an integer: {text!r}", col) from None
    if not -(2**63) <= value <= 2**63 - 1:
        raise ParseError(path, lineno, f"integer out of 64-bit signed range: {text}", col)
    return value


def _ref_parse_pattern(path):
    rows = _ref_content_rows(path)
    if not rows:
        return ()
    if len(rows) > 1:
        lineno, toks = rows[1]
        raise ParseError(path, lineno, "expected a single line of integers", toks[0].start() + 1)
    lineno, toks = rows[0]
    return tuple(_ref_int_token(path, lineno, tok) for tok in toks)


def _ref_parse_tree(path):
    rows = _ref_content_rows(path)
    if not rows:
        raise ParseError(path, 1, "missing 'tree N' header")
    header_line, toks = rows[0]
    if toks[0].group() != "tree" or len(toks) != 2:
        raise ParseError(path, header_line, "expected header 'tree N'", toks[0].start() + 1)
    n = _ref_int_token(path, header_line, toks[1])
    if n < 1:
        raise ParseError(path, header_line, "node count must be at least 1")
    if len(rows) - 1 != n - 1:
        raise ParseError(
            path, header_line, f"expected {n - 1} edge lines, found {len(rows) - 1}"
        )
    edges = []
    for lineno, toks in rows[1:]:
        if len(toks) != 3:
            raise ParseError(path, lineno, "expected 'parent child label'", toks[0].start() + 1)
        edges.append(tuple(_ref_int_token(path, lineno, tok) for tok in toks))
    try:
        return build_tree(edges)
    except TreeValidationError as exc:
        raise ParseError(path, rows[1 + exc.edge][0], str(exc)) from exc


def _ref_parse_dag(path):
    rows = _ref_content_rows(path)
    if not rows:
        raise ParseError(path, 1, "missing 'dag V E' header")
    header_line, toks = rows[0]
    if toks[0].group() != "dag" or len(toks) != 3:
        raise ParseError(path, header_line, "expected header 'dag V E'", toks[0].start() + 1)
    v_count = _ref_int_token(path, header_line, toks[1])
    e_count = _ref_int_token(path, header_line, toks[2])
    if v_count < 1:
        raise ParseError(path, header_line, "vertex count must be at least 1")
    if e_count < 0:
        raise ParseError(path, header_line, "edge count cannot be negative")
    if len(rows) - 1 != e_count:
        raise ParseError(
            path, header_line, f"expected {e_count} edge lines, found {len(rows) - 1}"
        )
    edges = []
    for lineno, toks in rows[1:]:
        if len(toks) != 3:
            raise ParseError(path, lineno, "expected 'source target label'", toks[0].start() + 1)
        u, v, lab = (_ref_int_token(path, lineno, tok) for tok in toks)
        edges.append((u, lab, v))
    try:
        return build_dag(v_count, edges)
    except DagValidationError as exc:
        raise ParseError(path, rows[1 + exc.edge][0], str(exc)) from exc


# characters that separate tokens (never \r or \n, which end a line)
_SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
_LINE_ENDS = ["\n", "\r\n", "\r"]
# other spellings int() reads as the same value
_SPELLINGS = {
    "0": ["-0", "+0", "00"],
    "3": ["\u0663", "+3", "003"],
    "5": ["+5", "005"],
    "7": ["007"],
}
_BAD_TOKENS = [
    "x", "1.5", "\ufeff1", "1__0", "_1", "--1", "0x10", "1e3",
    str(2**63), str(-(2**63) - 1), str(2**64),
]
_GOOD_TOKENS = ["1_000", str(2**63 - 1), str(-(2**63)), "+5", "-0", "\u0663", "007"]


def _base_pattern(rng):
    return [[str(rng.randrange(-3, 10)) for _ in range(rng.randrange(0, 7))]]


def _base_tree(rng):
    n = rng.randrange(1, 7)
    edges = [[str(rng.randrange(v)), str(v), str(rng.randrange(-2, 9))] for v in range(1, n)]
    rng.shuffle(edges)
    return [["tree", str(n)], *edges]


def _base_dag(rng):
    v_count = rng.randrange(1, 6)
    perm = list(range(v_count))
    rng.shuffle(perm)
    edges = []
    for _ in range(rng.randrange(0, 7) if v_count > 1 else 0):
        a, b = sorted(rng.sample(range(v_count), 2))
        edges.append([str(perm[a]), str(perm[b]), str(rng.randrange(-2, 9))])
    return [["dag", str(v_count), str(len(edges))], *edges]


def _mutate(rng, lines, kind):
    """Inject one fault (or a harmless change) into the token lines."""
    if not lines:
        return
    content = [i for i, line in enumerate(lines) if line]
    # weighted towards the structural faults, which random edits rarely make
    op = rng.choices(range(11), weights=[2, 1, 1, 1, 1, 1, 1, 1, 4, 3, 1])[0]
    if op == 0 and content:  # a bad token
        line = lines[rng.choice(content)]
        line[rng.randrange(len(line))] = rng.choice(_BAD_TOKENS)
    elif op == 1 and content:  # a token too few
        line = lines[rng.choice(content)]
        del line[rng.randrange(len(line))]
    elif op == 2:  # a token too many
        line = lines[rng.choice(content)] if content else lines[0]
        line.insert(rng.randrange(len(line) + 1), rng.choice(_GOOD_TOKENS + ["1", "x"]))
    elif op == 3 and content:  # one line split in two
        i = rng.choice(content)
        cut = rng.randrange(len(lines[i]) + 1)
        lines[i : i + 1] = [lines[i][:cut], lines[i][cut:]]
    elif op == 4 and len(lines) > 1:  # two lines joined
        i = rng.randrange(len(lines) - 1)
        lines[i : i + 2] = [lines[i] + lines[i + 1]]
    elif op == 5 and content:  # a line dropped or repeated
        i = rng.choice(content)
        if rng.random() < 0.5:
            del lines[i]
        else:
            lines.insert(i, list(lines[i]))
    elif op == 6 and kind != "pattern" and lines and lines[0]:  # header keyword
        lines[0][0] = rng.choice(["Tree", "tree", "dag", "DAG", "tre", "1"])
    elif op == 7 and kind != "pattern" and len(lines[0]) > 1:  # header count
        j = rng.randrange(1, len(lines[0]))
        lines[0][j] = rng.choice(["0", "-1", "1", "2", "5", str(2**63), "+3", "y"])
    elif op == 8 and kind != "pattern" and len(lines) > 1:  # an end moved
        line = lines[rng.randrange(1, len(lines))]
        if len(line) >= 2:
            line[rng.randrange(2)] = str(rng.randrange(-1, 7))
    elif op == 9 and kind != "pattern" and len(lines) > 1:  # an edge reversed
        line = lines[rng.randrange(1, len(lines))]
        line[:2] = line[1::-1]
    elif op == 10 and len(lines) > 2:  # edges reordered
        body = lines[1:]
        rng.shuffle(body)
        lines[1:] = body


def _render(rng, lines):
    """Tokens to text: random separators, blank lines and line ends, and
    now and then another spelling of a value or no final line end."""
    out = []
    for line in lines:
        while rng.random() < 0.15:
            out.append(rng.choice(["", " ", "\t", "\x0c ", "\u3000"]))
        toks = []
        for tok in line:
            alts = _SPELLINGS.get(tok)
            toks.append(rng.choice(alts) if alts and rng.random() < 0.3 else tok)
        text = "".join(t + rng.choice(_SEPARATORS) for t in toks)
        out.append(rng.choice(["", "", " ", "\xa0"]) + text.rstrip(" "))
    text = "".join(line + rng.choice(_LINE_ENDS) for line in out)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    return text


_PARSERS = {
    "pattern": (_base_pattern, parse_pattern_file, _ref_parse_pattern),
    "tree": (_base_tree, parse_tree_file, _ref_parse_tree),
    "dag": (_base_dag, parse_dag_file, _ref_parse_dag),
}
# every fault message each format must have produced over the cases
_FAULTS = {
    "pattern": ["expected a single line", "not an integer", "out of 64-bit"],
    "tree": [
        "missing 'tree N' header", "expected header", "not an integer", "out of 64-bit",
        "node count must be", "edge lines, found", "expected 'parent child label'",
        "unknown parent", "unknown child", "root and cannot", "duplicate child",
        "not reachable",
    ],
    "dag": [
        "missing 'dag V E' header", "expected header", "not an integer", "out of 64-bit",
        "vertex count must be", "edge count cannot", "edge lines, found",
        "expected 'source target label'", "unknown source", "unknown target",
        "self-loop", "cycle detected through",
    ],
}


def _outcome(parse, path):
    try:
        return "value", parse(path)
    except ParseError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("kind", sorted(_PARSERS))
def test_bulk_parser_agrees_with_token_reference(tmp_path, kind):
    base, parse, reference = _PARSERS[kind]
    path = str(tmp_path / f"{kind}.txt")
    messages = []
    for seed in range(800):
        rng = random.Random(f"{kind}-{seed}")
        lines = base(rng)
        for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
            _mutate(rng, lines, kind)
        if rng.random() < 0.03:
            lines = []
        data = _render(rng, lines).encode("utf-8")
        with open(path, "wb") as f:
            f.write(data)
        got, want = _outcome(parse, path), _outcome(reference, path)
        assert got == want, f"seed {seed}: {data!r}"
        if want[0] == "error":
            messages.append(want[1])
    for fault in _FAULTS[kind]:
        assert any(fault in m for m in messages), fault
    assert 100 < len(messages) < 700


def _case(kind, seed):
    """The file of case ``seed`` in test_bulk_parser_agrees_with_token_reference."""
    rng = random.Random(f"{kind}-{seed}")
    lines = _PARSERS[kind][0](rng)
    for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
        _mutate(rng, lines, kind)
    if rng.random() < 0.03:
        lines = []
    return _render(rng, lines).encode("utf-8")


# read seams the random cases seldom give: a token longer than a read,
# blank lines before a header, and invalid UTF-8 after an earlier fault,
# which is still the error (at the line given)
_SEAM_CASES = {
    "pattern": [
        (("3 " + "0" * 40 + "7 1\r\n").encode(), None),
        (("1 " + "9" * 40 + " 2\n").encode(), None),
        (b"1 x 2\r\n\r\n \xff", 3),
    ],
    "tree": [
        (b"\r\n \n\t\r\r\ntree 3\r\n0 1 5\r\n1 2 6\r\n", None),
        (b"\n\n  \rtree x\n", None),
        (b"tree 2\n0 1 x\n\n\xc3", 4),
    ],
    "dag": [
        (("\n\u3000\n\x0c\r\ndag 3 2\n0 1 5\n1 2 " + "0" * 30 + "6").encode(), None),
        (b"\r\r\r  dag 2 1 1\r0 1 5\r", None),
        (b"dag 2 x\r\n0 1 5\r\n\xff\xfe", 3),
    ],
}


@pytest.mark.parametrize("kind", sorted(_PARSERS))
def test_parser_agrees_with_token_reference_at_every_slice_size(tmp_path, monkeypatch, kind):
    """The same cases and _SEAM_CASES, read and converted in reads and
    slices of 1 to 16 characters: slices end where a token would be cut,
    after \\x85, \\u2028 or \\u3000, at blank lines and at an end of file
    with no line end, and reads end inside tokens and before a header.
    Text mode makes every line end \\n, so no slice ends inside a \\r\\n."""
    _, parse, reference = _PARSERS[kind]
    path = str(tmp_path / f"{kind}.txt")
    cuts = []  # the slices of one parse, in order, and None at the end of the file
    slices = cli._Input._slices

    def spy(self):
        for piece in slices(self):
            cuts.append(piece)
            yield piece
        cuts.append(None)

    monkeypatch.setattr(cli._Input, "_slices", spy)
    seams = set()  # (last character of a slice, first character of the next)
    crs = 0  # cases whose file has a \r
    cases = [(_case(kind, seed), None) for seed in range(800)]
    for i, (data, utf8_line) in enumerate(cases + _SEAM_CASES[kind]):
        crs += b"\r" in data
        with open(path, "wb") as f:
            f.write(data)
        if utf8_line is None:
            want = _outcome(reference, path)
        else:
            want = "error", f"{path}:{utf8_line}: not valid UTF-8"
        for size in range(1, 17):
            monkeypatch.setattr(cli, "_SLICE", size)
            cuts.clear()
            assert _outcome(parse, path) == want, f"case {i}, slice {size}: {data!r}"
            assert not any("\r" in piece for piece in cuts if piece is not None)
            for piece, after in zip(cuts, cuts[1:]):
                if piece is not None:
                    seams.add((piece[-1], after and after[0]))
    assert crs > 100
    ends = {a for a, b in seams if b is not None}
    assert {"\x85", "\u2028", "\u3000"} <= ends
    assert ("\n", "\n") in seams  # a slice starts a blank line
    assert any(b is None and not a.isspace() for a, b in seams)  # no final line end


@pytest.mark.parametrize("size, seam", [(16, 8192), (None, 65536)], ids=["short", "default"])
def test_decoded_chunks_end_anywhere(tmp_path, monkeypatch, size, seam):
    """Text mode decodes a file a chunk of bytes at a time: 8192 bytes for
    short reads, a read's worth at the default size.  A chunk that ends
    inside a \\r\\n, after a lone \\r, inside a multi-byte character or
    before a bad byte changes nothing."""
    if size is not None:
        monkeypatch.setattr(cli, "_SLICE", size)
    path = tmp_path / "t.txt"
    head = b"tree 3\r\n0 1 "
    tree = "value", build_tree([(0, 1, 5), (1, 2, 6)])
    tails = [
        (b"5\r\n1 2 6\r\n", tree),
        (b"5\r1 2 6\r", tree),
        ("5\u3000\n1\u20282 6".encode(), tree),
        (b"5\n1 2\xe3\x80 6\n", ("error", f"{path}:3: not valid UTF-8")),
    ]
    for tail, want in tails:
        for k in range(len(tail) + 1):  # the chunk ends before tail[k]
            path.write_bytes(head + b"0" * (seam - len(head) - k) + tail)
            assert _outcome(parse_tree_file, str(path)) == want, (tail, k)


class TestLargeFiles:
    """Long lines and the parsers' tracemalloc peaks.  The peaks measured on
    Python 3.11: the string file 7.7 MB, and 7.7 MB for the fault at its end
    (8.6 MB for both while the parse held the whole text, 18.7 and 44.9 MB
    while it kept a list of every token and then listed every token of the
    line to find the fault's column); a 10^6-label string file given as a
    tree 6.2 MB for its header fault (8.8 MB while the header read its
    whole first line); the tree file 7.2 MB, with 0.4 MB live as
    build_tree starts, before any integer is converted (7.9 MB in all and
    5.0 MB live while the parse converted the file into one flat tuple and
    a token count per line before build_tree, 8.6 MB and 5.7 MB while it
    also kept the file's text through build_tree, 9.7 and 13.8 MB while it
    zipped its integers into a list of edge tuples, and 16.1 MB for both
    while it kept a list of every token); the 41 547-edge DAG file 5.1 MB
    (5.8 MB while the flat integers lived on through build_dag, 5.3 MB while
    the parse held the whole text, 6.9 MB while it kept the text, the flat
    integers and the line tallies through build_dag)."""

    LABELS = 2 * 10**5
    NODES = 5 * 10**4
    MB = 10**6

    @staticmethod
    def peak(parse, path):
        """The tracemalloc peak of ``parse(path)``, and its ParseError or None."""
        tracemalloc.start()
        try:
            parse(str(path))
        except ParseError as exc:
            return tracemalloc.get_traced_memory()[1], exc
        else:
            return tracemalloc.get_traced_memory()[1], None
        finally:
            tracemalloc.stop()

    def test_fault_ends_a_line_of_a_million_labels(self, files, capsys):
        path = files("s.txt", "7 " * (10**6 - 1) + "x\n")
        assert main(["match-string", files("p.txt", "1 2\n"), path]) == 2
        col = 2 * (10**6 - 1) + 1
        assert capsys.readouterr().err == f"error: {path}:1:{col}: not an integer: 'x'\n"

    def test_match_string_fault_after_the_match_began(self, tmp_path, files, capsys):
        # match-string matches the slices before the fault's; the fault
        # still exits 2 with nothing on stdout
        pattern = files("p.txt", "2 1 3\n")
        path = tmp_path / "s.txt"
        text = pattern_file_text(gen_random_string(self.LABELS, 1000, 1))
        path.write_text(text)
        assert main(["match-string", pattern, str(path)]) == 0
        assert capsys.readouterr().out.count("\n") > 1000
        # the bad token is in the last of more than ten slices
        assert len(text) > 10 * cli._SLICE
        cut = text.rindex(" ") + 1
        faults = [
            (text[:cut] + "x\n", f"1:{cut + 1}: not an integer: 'x'"),
            (text + "5 6\n", "2:1: expected a single line of integers"),
        ]
        for bad, message in faults:
            path.write_text(bad)
            assert main(["match-string", pattern, str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {path}:{message}\n")

    # a CRLF file is also read, through a copy of its text with \n ends
    ENDS = ["\n", "\r\n"]

    def test_string_file(self, tmp_path):
        path = tmp_path / "s.txt"
        text = pattern_file_text(gen_random_string(self.LABELS, 1000, 1))
        cut = text.rindex(" ") + 1
        for end in self.ENDS:
            path.write_bytes(text.replace("\n", end).encode())
            peak, error = self.peak(parse_pattern_file, path)
            assert error is None and peak < 12 * self.MB
            path.write_bytes((text[:cut] + "x" + end).encode())
            peak, error = self.peak(parse_pattern_file, path)
            assert str(error) == f"{path}:1:{cut + 1}: not an integer: 'x'"
            assert peak < 12 * self.MB

    def test_string_file_is_not_held_whole(self, tmp_path):
        # read a slice at a time, the text is not held beside the integers
        path = tmp_path / "s.txt"
        text = pattern_file_text(gen_random_string(self.LABELS, 1000, 1))
        for end in self.ENDS:
            path.write_bytes(text.replace("\n", end).encode())
            peak, error = self.peak(parse_pattern_file, path)
            assert error is None and peak < 8.3 * self.MB

    def test_match_string_does_not_hold_the_text(self, tmp_path, files, capsys):
        # the text goes to the automaton a slice at a time: 4.0 MB, where
        # the tuple of all its integers took 9.7 MB
        path = tmp_path / "s.txt"
        path.write_text(pattern_file_text(gen_random_string(self.LABELS, 1000, 1)))
        argv = ["match-string", files("p.txt", "2 1 3\n"), str(path), "--stats"]
        codes = []
        peak, error = self.peak(lambda _: codes.append(main(argv)), path)
        assert codes == [0] and error is None
        assert peak < 5 * self.MB
        assert f"goto={self.LABELS} " in capsys.readouterr().out

    def test_string_file_as_a_tree(self, tmp_path):
        # the header is refused once its line holds a token too many, not
        # after the whole first line is read
        path = tmp_path / "s.txt"
        path.write_text(pattern_file_text(gen_random_string(10**6, 100, 1)))
        peak, error = self.peak(parse_tree_file, path)
        assert str(error) == f"{path}:1:1: expected header 'tree N'"
        assert peak < 7 * self.MB

    def test_tree_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.txt"
        text = tree_file_text(gen_random_tree(self.NODES, 1000, 1))
        at_build = []

        def build(edges):
            at_build.append(tracemalloc.get_traced_memory())
            return build_tree(edges)

        monkeypatch.setattr(cli, "build_tree", build)
        for end in self.ENDS:
            path.write_bytes(text.replace("\n", end).encode())
            at_build.clear()
            peak, error = self.peak(parse_tree_file, path)
            assert error is None
            # build_tree reads the edges as they are converted: as it starts,
            # only the header and the slice it was read from are in memory
            live, parse_peak = at_build[0]
            assert live < 1 * self.MB
            assert parse_peak < 1 * self.MB
            assert peak < 7.8 * self.MB

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tree 1000000000000\n0 1 5\n", "1: expected 999999999999 edge lines, found 1"),
            ("tree 40000\n" + "1\n" * 39999, "2:1: expected 'parent child label'"),
        ],
        ids=["edge-lines", "arity"],
    )
    def test_tree_file_too_short_for_its_header(self, files, monkeypatch, text, message):
        # a file too short to hold its header's edge lines has a count or
        # arity fault, raised before build_tree would size its arrays by the
        # header's count
        def build(edges):
            raise AssertionError("build_tree called")

        monkeypatch.setattr(cli, "build_tree", build)
        path = files("t.txt", text)
        with pytest.raises(ParseError) as err:
            parse_tree_file(path)
        assert str(err.value) == f"{path}:{message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tree 3\n0 1 5\n1 2 6\n", "1: node count 3 is too large"),
            ("tree 3\n0 1 5\n1 2 6\n2 3 7\n", "1: expected 2 edge lines, found 3"),
        ],
        ids=["backed", "edge-lines"],
    )
    def test_tree_too_large_to_build(self, files, monkeypatch, text, message):
        # a pipe is not sized before the build, which may then run out of
        # memory on the header's count; a count fault still comes first
        def build(edges):
            raise MemoryError

        monkeypatch.setattr(cli, "build_tree", build)
        path = files("t.txt", text)
        with pytest.raises(ParseError) as err:
            parse_tree_file(path)
        assert str(err.value) == f"{path}:{message}"

    def test_dag_file(self, tmp_path):
        path = tmp_path / "d.dag"
        text = dag_file_text(build_dasg(gen_random_string(300, 1000, 5)))
        for end in self.ENDS:
            path.write_bytes(text.replace("\n", end).encode())
            peak, error = self.peak(parse_dag_file, path)
            assert error is None
            assert peak < 5.5 * self.MB


class TestWholeTextReads:
    """A valid file is read once, a slice at a time; only a fault reads its
    whole text (``_Input.text``), to locate itself."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """The path of each whole-text read, in order."""
        reads = []
        text = cli._Input.text

        def spy(self):
            reads.append(self.path)
            return text.func(self)

        spied = cached_property(spy)
        spied.__set_name__(cli._Input, "text")
        monkeypatch.setattr(cli._Input, "text", spied)
        return reads

    def test_valid_files_are_not_read_whole(self, tmp_path, capsys, reads):
        texts = {
            "p.txt": "2 1 3\n",
            # a string and a tree file of several slices each
            "s.txt": pattern_file_text(gen_random_string(10**5, 5, 3)),
            "t.txt": tree_file_text(gen_random_tree(2 * 10**4, 5, 3)),
            "d.txt": dag_file_text(build_dasg(gen_random_string(60, 5, 3))),
        }
        p, s, t, d = (str(tmp_path / name) for name in texts)
        commands = [
            ["match-string", p, s, "--stats"],
            ["match-tree", p, t, "--stats"],
            ["match-dag", p, d, "--witness"],
            ["build-dasg", p],
        ]
        outputs = []
        for end in ["\n", "\r\n", "\r"]:
            for name, text in texts.items():
                (tmp_path / name).write_bytes(text.replace("\n", end).encode())
            assert [main(argv) for argv in commands] == [0] * len(commands)
            outputs.append(capsys.readouterr().out)
        assert reads == []
        assert outputs[0].count("goto=") == 2
        assert outputs[1] == outputs[2] == outputs[0]

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_pattern_file, "1 2\n3\n", "2:1: expected a single line of integers"),
            (parse_pattern_file, "1 2 x\r\n", "1:5: not an integer: 'x'"),
            (parse_tree_file, "\n \n", "1: missing 'tree N' header"),
            (parse_tree_file, "\r\ndag 3 1\n0 1 5\n", "2:1: expected header 'tree N'"),
            (parse_tree_file, "tree 0\n", "1: node count must be at least 1"),
            (parse_tree_file, "tree 3\n0 1 5\n", "1: expected 2 edge lines, found 1"),
            (parse_tree_file, "tree 3\n0 1 5 2\n3 7\n", "2:1: expected 'parent child label'"),
            (parse_tree_file, "tree 3\n0 1 5\n0 1 6\n", "3: duplicate child 1"),
            (parse_tree_file, "tree 4\n0 1 5\n0 1 6\n2 3\n", "4:1: expected 'parent child label'"),
            (parse_tree_file, "tree 4\n0 1 5\n2 3 7\n3 2 7\n",
             "4: node 2 is not reachable from the root"),
            (parse_dag_file, "dag 0 0\n", "1: vertex count must be at least 1"),
            (parse_dag_file, "\rdag 2 -1\r", "2: edge count cannot be negative"),
            (parse_dag_file, "dag 2 1\n0 7 1\n", "2: unknown target vertex 7"),
            (parse_dag_file, f"dag 2 1\n0 1 {2**63}\n",
             f"2:5: integer out of 64-bit signed range: {2**63}"),
        ],
        ids=[
            "single-line", "bad-token", "missing-header", "bad-header", "node-count",
            "edge-lines", "arity", "duplicate-child", "duplicate-then-arity",
            "unreachable", "vertex-count", "edge-count",
            "unknown-vertex", "out-of-range",
        ],
    )
    def test_a_fault_reads_the_text_once(self, files, reads, parse, text, message):
        path = files("f.txt", text)
        assert _outcome(parse, path) == ("error", f"{path}:{message}")
        assert reads == [path]


class TestMatchCommands:
    def test_match_string_worked_example(self, files, capsys):
        code = main(
            ["match-string", files("p.txt", WORKED_PATTERN), files("t.txt", WORKED_TEXT)]
        )
        assert code == 0
        assert capsys.readouterr().out == "5\n"

    def test_match_string_stats_line(self, files, capsys):
        code = main(
            [
                "match-string",
                files("p.txt", WORKED_PATTERN),
                files("t.txt", WORKED_TEXT),
                "--stats",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "5\ngoto=8 fail=5\n"

    def test_match_string_oracle_agrees(self, files, capsys):
        args = [files("p.txt", "1 2\n"), files("t.txt", "3 1 2 2\n")]
        assert main(["match-string", *args]) == 0
        fast = capsys.readouterr().out
        assert main(["match-string", *args, "--oracle"]) == 0
        assert capsys.readouterr().out == fast == "3\n"

    def test_match_string_no_match_exits_zero(self, files, capsys):
        code = main(
            ["match-string", files("p.txt", "1 2 3\n"), files("t.txt", "3 2 1\n")]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_match_tree_example(self, files, capsys):
        tree = files("t.txt", "tree 5\n0 1 10\n1 2 20\n1 3 5\n2 4 30\n")
        assert main(["match-tree", files("p.txt", "1 2\n"), tree]) == 0
        assert capsys.readouterr().out == "2\n4\n"

    def test_match_tree_no_prune_same_output(self, files, capsys):
        tree = files("t.txt", "tree 5\n0 1 10\n1 2 20\n1 3 5\n2 4 30\n")
        pattern = files("p.txt", "1 2\n")
        assert main(["match-tree", pattern, tree, "--no-prune"]) == 0
        assert capsys.readouterr().out == "2\n4\n"
        assert main(["match-tree", pattern, tree, "--oracle"]) == 0
        assert capsys.readouterr().out == "2\n4\n"

    def test_match_tree_stats_line(self, files, capsys):
        tree = files("t.txt", "tree 5\n0 1 10\n1 2 20\n1 3 5\n2 4 30\n")
        assert main(["match-tree", files("p.txt", "1 2\n"), tree, "--stats"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["2", "4"]
        assert out[2].startswith("goto=") and " fail=" in out[2]

    def test_match_dag_yes_with_witness(self, files, capsys):
        dag_path = files("d.txt", dag_file_text(build_dasg((5, 2, 1, 4, 3, 6))))
        assert main(["match-dag", files("p.txt", "1 2 3\n"), dag_path, "--witness"]) == 0
        assert capsys.readouterr().out == "yes\n0 2 4 6\n"

    def test_match_dag_no(self, files, capsys):
        dag_path = files("d.txt", dag_file_text(build_dasg((3, 2, 1))))
        assert main(["match-dag", files("p.txt", "1 2\n"), dag_path]) == 0
        assert capsys.readouterr().out == "no\n"

    def test_build_dasg_round_trip(self, files, capsys, tmp_path):
        out = str(tmp_path / "out.txt")
        assert main(["build-dasg", files("s.txt", "5 2 1 4 3 6\n"), "--out", out]) == 0
        assert parse_dag_file(out) == build_dasg((5, 2, 1, 4, 3, 6))

    def test_opsm_yes_and_no(self, files, capsys):
        t = files("t.txt", "5 2 1 4 3 6\n")
        assert main(["opsm", files("p.txt", "1 2 3\n"), t]) == 0
        assert capsys.readouterr().out == "yes\n"
        assert main(["opsm", files("p2.txt", "1 2\n"), files("t2.txt", "2 1\n")]) == 0
        assert capsys.readouterr().out == "no\n"

    def test_opsm_oracle_path(self, files, capsys):
        t = files("t.txt", "5 2 1 4 3 6\n")
        assert main(["opsm", files("p.txt", "3 2 1\n"), t, "--oracle"]) == 0
        assert capsys.readouterr().out == "yes\n"


class TestGenAndBenchCommands:
    def test_gen_adversarial_files_parse(self, tmp_path, capsys):
        tree_out = str(tmp_path / "tree.txt")
        pattern_out = str(tmp_path / "p.txt")
        code = main(
            [
                "gen",
                "adversarial",
                "--height",
                "5",
                "--pattern-length",
                "3",
                "--tree-out",
                tree_out,
                "--pattern-out",
                pattern_out,
            ]
        )
        assert code == 0
        tree = parse_tree_file(tree_out)
        assert tree.node_count == 63
        assert parse_pattern_file(pattern_out) == (2, 3, 4)

    def test_gen_adversarial_refuses_one_file_for_both_outputs(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to("f")
        args = ["gen", "adversarial", "--height", "4", "--tree-out", "f"]
        for same in ("f", "./f", str(tmp_path / "f"), "link"):
            assert main([*args, "--pattern-out", same]) == 1
            assert capsys.readouterr().err == (
                "usage error: --tree-out and --pattern-out name the same file\n"
            )
        assert not (tmp_path / "f").exists()

    def test_gen_adversarial_rejects_bad_params(self, capsys):
        assert main(["gen", "adversarial", "--height", "2"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, size, parse",
        [
            ("string", "--length", parse_pattern_file),
            ("tree", "--nodes", parse_tree_file),
            ("dag", "--vertices", parse_dag_file),
        ],
        ids=["string", "tree", "dag"],
    )
    def test_gen_random_at_alphabet_cap_parses_back(self, tmp_path, kind, size, parse):
        # labels drawn from 1..2^63-1 are signed 64-bit integers
        out = str(tmp_path / "out.txt")
        args = ["gen", f"random-{kind}", size, "40", "--alphabet", str(2**63 - 1)]
        assert main([*args, "--out", out]) == 0
        parse(out)

    @pytest.mark.parametrize("height", ["25", "100000"])
    def test_gen_adversarial_refuses_height_above_cap(self, tmp_path, capsys, height):
        out = tmp_path / "a.txt"
        assert main(["gen", "adversarial", "--height", height, "--tree-out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: height must be at most 24\n"
        assert captured.out == ""
        assert not out.exists()

    def test_gen_random_string_deterministic(self, capsys):
        args = ["gen", "random-string", "--length", "8", "--alphabet", "2", "--seed", "42"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert len(first.split()) == 8

    def test_gen_random_tree_parses(self, tmp_path, capsys):
        out = str(tmp_path / "tree.txt")
        code = main(
            ["gen", "random-tree", "--nodes", "20", "--alphabet", "3", "--out", out]
        )
        assert code == 0
        assert parse_tree_file(out).node_count == 20

    def test_gen_random_dag_parses(self, tmp_path):
        out = str(tmp_path / "dag.txt")
        args = [
            "gen", "random-dag", "--vertices", "10", "--density", "0.4",
            "--alphabet", "3", "--seed", "2", "--out", out,
        ]
        assert main(args) == 0
        assert parse_dag_file(out).vertex_count == 10

    @pytest.mark.parametrize(
        "args, message",
        [
            (["random-string", "--length", "-1", "--alphabet", "3"],
             "length cannot be negative"),
            (["random-string", "--length", "4", "--alphabet", "0"],
             "alphabet size must be at least 1"),
            (["random-tree", "--nodes", "0", "--alphabet", "3"],
             "node count must be at least 1"),
            (["random-tree", "--nodes", "4", "--alphabet", "0"],
             "alphabet size must be at least 1"),
            (["random-dag", "--vertices", "0", "--alphabet", "3"],
             "vertex count must be at least 1"),
            (["random-dag", "--vertices", "4097", "--alphabet", "3"],
             "vertex count must be at most 4096"),
            (["random-dag", "--vertices", "5", "--density", "2", "--alphabet", "3"],
             "density must lie in [0, 1]"),
            (["random-dag", "--vertices", "5", "--alphabet", "0"],
             "alphabet size must be at least 1"),
            (["random-string", "--length", "4", "--alphabet", str(2**63)],
             "alphabet size must be at most 9223372036854775807"),
            (["random-string", "--length", "4", "--alphabet", str(10**20)],
             "alphabet size must be at most 9223372036854775807"),
            (["random-tree", "--nodes", "4", "--alphabet", str(2**63)],
             "alphabet size must be at most 9223372036854775807"),
            (["random-dag", "--vertices", "5", "--alphabet", str(2**63)],
             "alphabet size must be at most 9223372036854775807"),
        ],
        ids=[
            "string-length",
            "string-alphabet",
            "tree-nodes",
            "tree-alphabet",
            "dag-vertices",
            "dag-vertex-cap",
            "dag-density",
            "dag-alphabet",
            "string-alphabet-cap",
            "string-alphabet-far-past-cap",
            "tree-alphabet-cap",
            "dag-alphabet-cap",
        ],
    )
    def test_gen_random_rejects_bad_params(self, tmp_path, capsys, args, message):
        out = tmp_path / "out.txt"
        assert main(["gen", *args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize(
    "command, out_flag",
    [
        pytest.param(["match-string", "{p}", "{s}", "--stats"], "--out", id="match-string"),
        pytest.param(["match-tree", "{p}", "{tree}"], "--out", id="match-tree"),
        pytest.param(["match-dag", "{p}", "{dag}", "--witness"], "--out", id="match-dag"),
        pytest.param(["build-dasg", "{s}"], "--out", id="build-dasg"),
        pytest.param(["opsm", "{p}", "{s}"], "--out", id="opsm"),
        pytest.param(
            ["gen", "adversarial", "--height", "5"], "--tree-out", id="gen-adversarial"
        ),
        pytest.param(
            ["gen", "random-string", "--length", "30", "--alphabet", "4"],
            "--out",
            id="gen-random-string",
        ),
        pytest.param(
            ["gen", "random-tree", "--nodes", "30", "--alphabet", "4"],
            "--out",
            id="gen-random-tree",
        ),
        pytest.param(
            ["gen", "random-dag", "--vertices", "12", "--alphabet", "3"],
            "--out",
            id="gen-random-dag",
        ),
    ],
)
def test_out_file_gets_exactly_the_stdout_text(files, tmp_path, capsys, command, out_flag):
    inputs = {
        "p": files("p.txt", "1 2\n"),
        "s": files("s.txt", "5 2 1 4 3 6\n"),
        "tree": files("tree.txt", "tree 5\n0 1 10\n1 2 20\n1 3 5\n2 4 30\n"),
        "dag": files("d.txt", dag_file_text(build_dasg((5, 2, 1, 4, 3, 6)))),
    }
    argv = [arg.format(**inputs) for arg in command]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed
    out = tmp_path / "out.txt"
    assert main([*argv, out_flag, str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


class TestExitCodes:
    def test_missing_argument_is_usage_error(self, files, capsys):
        assert main(["match-string", files("p.txt", "1\n")]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "command, text",
        [("match-string", "1\n"), ("match-tree", "tree 1\n")],
        ids=["match-string", "match-tree"],
    )
    def test_stats_with_oracle_is_usage_error(self, files, capsys, command, text):
        args = [files("p.txt", "1\n"), files("t.txt", text), "--stats", "--oracle"]
        assert main([command, *args]) == 1
        assert capsys.readouterr().err == (
            "usage error: argument --oracle: not allowed with argument --stats\n"
        )

    def test_match_dag_oracle_is_usage_error(self, files, capsys):
        dag_path = files("d.txt", dag_file_text(build_dasg((1, 2))))
        assert main(["match-dag", files("p.txt", "1\n"), dag_path, "--oracle"]) == 1
        assert capsys.readouterr().err == (
            "usage error: unrecognized arguments: --oracle\n"
        )

    def test_opsm_oracle_size_guard(self, files, capsys):
        long_text = " ".join(str(v) for v in range(30)) + "\n"
        args = [files("p.txt", "1 2\n"), files("t.txt", long_text), "--oracle"]
        assert main(["opsm", *args]) == 1
        assert (
            capsys.readouterr().err
            == "usage error: --oracle is limited to texts of length <= 20\n"
        )

    def test_parse_error_exit_code_and_location(self, files, capsys):
        path = files("p.txt", "1 2 x\n")
        assert main(["match-string", path, path]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1:5" in err

    def test_validation_error_exit_code(self, files, capsys):
        tree = files("t.txt", "tree 3\n0 1 5\n0 1 6\n")
        assert main(["match-tree", files("p.txt", "1\n"), tree]) == 2

    def test_unallocatable_vertex_count_is_parse_error(self, files, capsys):
        # CPython refuses a list this long before allocating anything; a
        # smaller V that the machine would try to allocate is not tested here
        dag = files("big.dag", "dag 9223372036854775807 0\n")
        assert main(["match-dag", files("p.txt", "1\n"), dag]) == 2
        assert capsys.readouterr().err == (
            f"error: {dag}:1: vertex count 9223372036854775807 is too large\n"
        )
        # the same header on line 3, after a CRLF and a lone CR
        dag = files("late.dag", "\r\n\rdag 9223372036854775807 0\n")
        assert main(["match-dag", files("p.txt", "1\n"), dag]) == 2
        assert capsys.readouterr().err == (
            f"error: {dag}:3: vertex count 9223372036854775807 is too large\n"
        )

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"1 2\n3 \xff\n", 2),
            (b"1\n" * 20000 + b"2 \xc3\n", 20001),
            (b"1 2\r3 \xff\r", 2),
            (b"1\r\n2\r\r\n3 4 \xff", 4),
            (b"1\n2 \xed\xa0\x80\n", 2),
            (b"1\r\xff", 2),
            (b"\xff1\n", 1),
        ],
        ids=[
            "second-line", "past-first-read-chunk", "cr-line-ends", "mixed-line-ends",
            "encoded-surrogate", "after-lone-cr", "first-byte",
        ],
    )
    def test_non_utf8_input_is_parse_error(self, tmp_path, capsys, data, line):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        assert main(["match-string", str(path), str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:{line}: not valid UTF-8\n"

    def test_missing_file_exit_code(self, files, capsys):
        assert main(["match-string", "no-such-file.txt", files("t.txt", "1\n")]) == 2

    def test_empty_pattern_rejected(self, files, capsys):
        args = [files("p.txt", ""), files("t.txt", "1 2\n")]
        assert main(["match-string", *args]) == 2
        assert "pattern must be non-empty" in capsys.readouterr().err


def _child(args, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a child process that imports oppm from where this
    test did, installed or not."""
    path = [str(Path(oppm.__file__).parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        **kwargs,
    )


def test_console_script_entry_point(tmp_path):
    p = tmp_path / "p.txt"
    t = tmp_path / "t.txt"
    p.write_text(WORKED_PATTERN)
    t.write_text(WORKED_TEXT)
    proc = _child(["-m", "oppm.cli", "match-string", str(p), str(t)], text=True)
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


class TestPipedInput:
    """A file that is not a regular one cannot be read again: its faults are
    located in the text kept as it was read, at the regular file's place."""

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"tree 3\n0 1 5\n\n\n1 2 x\n", "5:5: not an integer: 'x'"),
            (b"tree 3\n0 1 5\n0 1 6\n", "3: duplicate child 1"),
            (b"tree 3\n0 1 5\n1 2\n", "3:1: expected 'parent child label'"),
            (b"tree 3 x\n0 1 5\n1 2 \xff\n", "3: not valid UTF-8"),
            (b"tree 3\n0 1 5\n" + b"\n" * 10**5 + b"0 1 6\n",
             "100003: duplicate child 1"),
        ],
        ids=["bad-token", "duplicate-child", "arity", "undecoded-byte", "past-first-read"],
    )
    def test_fault_in_a_pipe(self, files, data, message):
        p = files("p.txt", "2 1 3\n")
        path = files("t.txt", "")
        Path(path).write_bytes(data)
        for name, kwargs in [(path, {}), ("/dev/stdin", {"input": data})]:
            proc = _child(["-m", "oppm.cli", "match-tree", p, name], **kwargs)
            assert proc.returncode == 2
            assert proc.stdout == b""
            assert proc.stderr.decode() == f"error: {name}:{message}\n"

    def test_valid_pipe(self, files):
        p = files("p.txt", "2 1 3\n")
        text = tree_file_text(gen_random_tree(2 * 10**4, 5, 3))
        path = files("t.txt", text)
        args = ["-m", "oppm.cli", "match-tree", p]
        proc = _child([*args, "/dev/stdin", "--stats"], input=text.encode())
        assert proc.returncode == 0
        assert proc.stdout == _child([*args, path, "--stats"]).stdout
        assert proc.stdout.count(b"\n") > 1


def test_cli_start_up_loads_only_what_it_runs():
    """``import oppm.cli`` leaves out the generators, the oracles and the
    standard modules only they or dataclasses would load; the package's
    names are still all there, each imported on first use."""
    held = ["dataclasses", "inspect", "random", "oppm.gen", "oppm.oracles"]
    script = f"import sys, oppm.cli; print(*[m for m in {held!r} if m in sys.modules])"
    proc = _child(["-S", "-c", script], text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
    for name in oppm.__all__:
        value = getattr(oppm, name)
        assert getattr(sys.modules[value.__module__], name) is value
    assert set(oppm.__all__) <= set(dir(oppm))
    with pytest.raises(AttributeError):
        oppm.no_such_name


def _command_paths(parser, prefix=()):
    """Every runnable command of ``parser``, as a tuple of subcommand names."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix}
    return set().union(
        *(_command_paths(p, prefix + (name,)) for name, p in subs[0].choices.items())
    )


def test_readme_synopsis_matches_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.S | re.M)
    documented = set()
    for line in block.group(1).splitlines():
        words = line.split()
        assert words[0] == "oppm", line
        # the command names come before the first file name or option
        names = []
        for word in words[1:]:
            if not re.fullmatch(r"[a-z][a-z-]*", word):
                break
            names.append(word)
        documented.add(tuple(names))
    assert documented == _command_paths(build_parser())


def test_readme_names_every_export():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## What is inside\n(.*?)^## ", readme, re.S | re.M).group(1)
    # the name a code span starts with: `PatternTables.steps` names PatternTables
    named = set(re.findall(r"`([A-Za-z_]\w*)", section))
    assert set(oppm.__all__) - named == set()
