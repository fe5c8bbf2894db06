"""CLI subcommands, file formats, and exit codes."""

import subprocess
import sys

import pytest

from oppm.cli import (
    ParseError,
    dag_file_text,
    main,
    parse_dag_file,
    parse_pattern_file,
    parse_tree_file,
    pattern_file_text,
    tree_file_text,
)
from oppm.dag import build_dasg
from oppm.gen import gen_random_tree

WORKED_PATTERN = "22 41 35 37\n"
WORKED_TEXT = "63 18 48 29 42 56 25 51\n"


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
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

    def test_gen_adversarial_rejects_bad_params(self, capsys):
        assert main(["gen", "adversarial", "--height", "2"]) == 1
        assert "usage error" in capsys.readouterr().err

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

    def test_bench_adversarial_csv(self, capsys):
        assert main(["bench", "adversarial", "--heights", "6,5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "h,N,m,goto,fail_pruned,fail_naive"
        assert len(lines) == 3
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["5", "6"]  # emitted in height order
        for r in rows:
            h, n, m = int(r[0]), int(r[1]), int(r[2])
            goto, fail_pruned, fail_naive = int(r[3]), int(r[4]), int(r[5])
            assert n == 2 ** (h + 1) - 1
            assert goto <= n
            assert fail_pruned <= 4 * (n + m)
            assert fail_naive >= (m - 1) * 2 ** (h - 2)

    def test_bench_dasg_csv(self, capsys):
        assert main(["bench", "dasg", "--sizes", "6,8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,m,explored,matched,seconds"
        first, second = (line.split(",") for line in lines[1:])
        assert int(first[2]) < int(second[2])

    def test_bench_dasg_rejects_odd_sizes(self, capsys):
        assert main(["bench", "dasg", "--sizes", "7"]) == 1


class TestExitCodes:
    def test_missing_argument_is_usage_error(self, files, capsys):
        assert main(["match-string", files("p.txt", "1\n")]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_stats_with_oracle_is_usage_error(self, files, capsys):
        args = [files("p.txt", "1\n"), files("t.txt", "1\n"), "--stats", "--oracle"]
        assert main(["match-string", *args]) == 1

    def test_match_dag_oracle_is_usage_error(self, files, capsys):
        dag_path = files("d.txt", dag_file_text(build_dasg((1, 2))))
        assert main(["match-dag", files("p.txt", "1\n"), dag_path, "--oracle"]) == 1

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

    @pytest.mark.parametrize(
        "data, line",
        [(b"1 2\n3 \xff\n", 2), (b"1\n" * 20000 + b"2 \xc3\n", 20001)],
        ids=["second-line", "past-first-read-chunk"],
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


def test_console_script_entry_point(tmp_path):
    p = tmp_path / "p.txt"
    t = tmp_path / "t.txt"
    p.write_text(WORKED_PATTERN)
    t.write_text(WORKED_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "oppm.cli", "match-string", str(p), str(t)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "5\n"
