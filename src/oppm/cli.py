"""Command-line front end and the plain-text file formats.

Formats:
  pattern / string  one line of whitespace-separated signed 64-bit integers
  tree              header "tree N", then N-1 lines "parent child label"
  dag               header "dag V E", then E lines "source target label"
Only \\n, \\r\\n and a lone \\r end a line; any other whitespace separates
tokens, and a token is an integer when int() accepts it, however many
digits it has.

Exit codes: 0 success (including "no match"), 1 usage error, 2 parse or
validation error.
"""

import argparse
import os
import re
import sys
from itertools import islice

from .dag import (
    DagValidationError,
    TextDag,
    build_dag,
    build_dasg,
    match_dag,
    opsm,
)
from .gen import gen_adversarial, gen_random_dag, gen_random_string, gen_random_tree
from .oracles import OPSM_TEXT_LIMIT, naive_match_string, naive_match_tree, naive_opsm
from .pattern import build_pattern_tables
from .stringmatch import match_string
from .tree import TextTree, TreeValidationError, build_tree
from .treematch import match_tree

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# size caps for --oracle reroutes; the brute-force paths are quadratic
# (strings, trees) or exponential (opsm, capped by OPSM_TEXT_LIMIT)
ORACLE_STRING_LIMIT = 2048
ORACLE_TREE_LIMIT = 2048


class UsageError(Exception):
    """Bad command line or an unusable flag combination."""


class ParseError(ValueError):
    """Input file rejected; the message carries path, line, and column."""

    def __init__(self, path: str, line: int, msg: str, col: int | None = None):
        self.path = path
        self.line = line
        self.col = col
        self.msg = msg
        loc = f"{path}:{line}" if col is None else f"{path}:{line}:{col}"
        super().__init__(f"{loc}: {msg}")


# ---------------------------------------------------------------------------
# file parsing
#
# A file is read and decoded once, and its content lines (the lines with a
# token) are split into tokens; the parsers check those in bulk.  Line and
# column are worked out only for an error, by walking the text again.


def _lines(text: str) -> list[str]:
    """The lines of ``text`` as text-mode file iteration reads them: only
    \\n, \\r\\n and a lone \\r end a line (str.splitlines also breaks at
    \\x0b, \\x85, \\u2028 and others, which here only separate tokens)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


# what int() accepts as a base-10 token: Unicode decimal digits, single
# underscores between them, one optional sign
_INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")


def _long_int(text: str) -> int | None:
    """The value of an integer literal that int() refused only because it
    has more digits than sys.get_int_max_str_digits() allows (leading zeros
    count too), or None if it has more than 19 significant digits and so
    lies outside the 64-bit range anyway.  The process-wide limit is left
    as it is."""
    digits = text.lstrip("+-").replace("_", "")
    # every decimal digit's script has its own zero, 0 to 9 being contiguous
    zeros = "".join({chr(ord(d) - int(d)) for d in set(digits)})
    significant = digits.lstrip(zeros)
    if len(significant) > 19:
        return None
    value = int(significant or "0")
    return -value if text[0] == "-" else value


class _Input:
    """One input file: its text, its tokens in file order, and the token
    count of each content line (a line with at least one token)."""

    def __init__(self, path: str):
        with open(path, "rb") as f:
            data = f.read()
        try:
            self.text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bad byte is on the last line of the valid text before it
            line = len(_lines(data[: exc.start].decode("utf-8")))
            raise ParseError(path, line, "not valid UTF-8") from None
        del data  # not kept alive beside the text while the text is split
        self.path = path
        # Flat, so that no list per line lives on for the garbage collector
        # to scan again and again while the parse allocates.  The first
        # content line's list is kept, not copied: copying touches every
        # token, and a string file is one line of them.
        self.tokens: list[str] = []
        self.counts: list[int] = []
        for line in _lines(self.text):
            row = line.split()
            if row:
                if self.tokens:
                    self.tokens += row
                else:
                    self.tokens = row
                self.counts.append(len(row))

    def error(self, msg: str, row: int, tok: int | None = None) -> ParseError:
        """The error for content line ``row``, at its token ``tok`` if given."""
        content = [
            (lineno, line)
            for lineno, line in enumerate(_lines(self.text), start=1)
            if line.strip()
        ]
        lineno, line = content[row]
        col = None if tok is None else list(re.finditer(r"\S+", line))[tok].start() + 1
        return ParseError(self.path, lineno, msg, col)

    def integer(self, text: str, row: int, tok: int) -> int:
        """``text``, token ``tok`` of content line ``row``, as a signed
        64-bit integer."""
        try:
            value = int(text)
        except ValueError:
            if not _INT_LITERAL.fullmatch(text):
                raise self.error(f"not an integer: {text!r}", row, tok) from None
            value = _long_int(text)
        if value is None or not INT64_MIN <= value <= INT64_MAX:
            raise self.error(f"integer out of 64-bit signed range: {text}", row, tok)
        return value

    def values(
        self, start: int, arity: int | None = None, what: str = ""
    ) -> tuple[int, ...]:
        """The integers of content lines ``start`` on, in file order; with
        ``arity``, every line must hold that many ("expected '{what}'" if not).

        All lines are checked at once; only if that fails are they walked
        one token at a time, to report the first fault in file order.  This
        is the tokens' last reader, so a successful read releases them
        (``error`` reads only the text): the caller's build then runs
        without them."""
        first = sum(self.counts[:start])
        counts = self.counts[start:]
        if arity is None or set(counts) <= {arity}:
            try:
                values = tuple(map(int, islice(self.tokens, first, None)))
            except ValueError:
                pass
            else:
                if not values or INT64_MIN <= min(values) and max(values) <= INT64_MAX:
                    del self.tokens
                    return values
        values = []
        index = first
        for row, count in enumerate(counts, start):
            if arity is not None and count != arity:
                raise self.error(f"expected '{what}'", row, 0)
            for tok in range(count):
                values.append(self.integer(self.tokens[index], row, tok))
                index += 1
        del self.tokens
        return tuple(values)


def parse_pattern_file(path: str) -> tuple[int, ...]:
    """One line of integers; an empty file is the empty sequence."""
    f = _Input(path)
    if len(f.counts) > 1:
        raise f.error("expected a single line of integers", 1, 0)
    return f.values(0)


def parse_tree_file(path: str) -> TextTree:
    """Header 'tree N' and N-1 edge lines; build_tree checks the structure."""
    f = _Input(path)
    if not f.counts:
        raise ParseError(path, 1, "missing 'tree N' header")
    if f.tokens[0] != "tree" or f.counts[0] != 2:
        raise f.error("expected header 'tree N'", 0, 0)
    n = f.integer(f.tokens[1], 0, 1)
    if n < 1:
        raise f.error("node count must be at least 1", 0)
    lines = len(f.counts) - 1
    if lines != n - 1:
        raise f.error(f"expected {n - 1} edge lines, found {lines}", 0)
    values = f.values(1, 3, "parent child label")
    edges = list(zip(values[0::3], values[1::3], values[2::3]))
    try:
        return build_tree(edges)
    except TreeValidationError as exc:
        raise f.error(str(exc), 1 + exc.edge) from exc


def parse_dag_file(path: str) -> TextDag:
    """Header 'dag V E' and E edge lines; build_dag checks the structure."""
    f = _Input(path)
    if not f.counts:
        raise ParseError(path, 1, "missing 'dag V E' header")
    if f.tokens[0] != "dag" or f.counts[0] != 3:
        raise f.error("expected header 'dag V E'", 0, 0)
    v_count = f.integer(f.tokens[1], 0, 1)
    e_count = f.integer(f.tokens[2], 0, 2)
    if v_count < 1:
        raise f.error("vertex count must be at least 1", 0)
    if e_count < 0:
        raise f.error("edge count cannot be negative", 0)
    lines = len(f.counts) - 1
    if lines != e_count:
        raise f.error(f"expected {e_count} edge lines, found {lines}", 0)
    values = f.values(1, 3, "source target label")
    # file lines are 'source target label', DAG edges (source, label, target)
    edges = list(zip(values[0::3], values[2::3], values[1::3]))
    try:
        return build_dag(v_count, edges)
    except DagValidationError as exc:
        raise f.error(str(exc), 1 + exc.edge) from exc
    except MemoryError:
        # the edges are in memory already; what build_dag adds is a table
        # entry per vertex, so it is the header's V that could not be met
        raise f.error(f"vertex count {v_count} is too large", 0) from None


# ---------------------------------------------------------------------------
# file writing


def pattern_file_text(values) -> str:
    return " ".join(str(v) for v in values) + "\n"


def tree_file_text(tree: TextTree) -> str:
    lines = [f"tree {tree.node_count}"]
    for v in range(1, tree.node_count):
        lines.append(f"{tree.parent[v]} {v} {tree.edge_label[v]}")
    return "\n".join(lines) + "\n"


def dag_file_text(dag: TextDag) -> str:
    lines = [f"dag {dag.vertex_count} {len(dag.edges)}"]
    for u, c, v in dag.edges:
        lines.append(f"{u} {v} {c}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers; each takes the Namespace and returns its output text


def _load_pattern(path: str) -> tuple[int, ...]:
    p = parse_pattern_file(path)
    if not p:
        raise ParseError(path, 1, "pattern must be non-empty")
    return p


def _oracle_fits(size: int, limit: int, what: str) -> None:
    """Refuse --oracle on an input over ``limit``; {} in ``what`` is the limit."""
    if size > limit:
        raise UsageError("--oracle is limited to " + what.format(limit))


def _match_lines(ids, stats=None) -> str:
    """One id per line, then ``goto=<n> fail=<n>`` if ``stats`` is given."""
    lines = [str(i) for i in ids]
    if stats is not None:
        lines.append(f"goto={stats.goto_count} fail={stats.fail_count}")
    return "".join(line + "\n" for line in lines)


def _match_string(ns: argparse.Namespace) -> str:
    p = _load_pattern(ns.pattern)
    t = parse_pattern_file(ns.text)
    if ns.oracle:
        _oracle_fits(len(t), ORACLE_STRING_LIMIT, "texts of length <= {}")
        return _match_lines(naive_match_string(p, t))
    positions, stats = match_string(build_pattern_tables(p), t)
    return _match_lines(positions, stats if ns.stats else None)


def _match_tree(ns: argparse.Namespace) -> str:
    p = _load_pattern(ns.pattern)
    tree = parse_tree_file(ns.tree)
    if ns.oracle:
        _oracle_fits(tree.node_count, ORACLE_TREE_LIMIT, "trees with <= {} nodes")
        return _match_lines(naive_match_tree(p, tree))
    report = match_tree(build_pattern_tables(p), tree, prune=ns.prune)
    return _match_lines(report.matched_nodes, report.stats if ns.stats else None)


def _match_dag(ns: argparse.Namespace) -> str:
    p = _load_pattern(ns.pattern)
    dag = parse_dag_file(ns.dag)
    witness = match_dag(build_pattern_tables(p), dag)
    if witness is None:
        return "no\n"
    return "yes\n" + (pattern_file_text(witness) if ns.witness else "")


def _build_dasg(ns: argparse.Namespace) -> str:
    return dag_file_text(build_dasg(parse_pattern_file(ns.text)))


def _opsm(ns: argparse.Namespace) -> str:
    p = parse_pattern_file(ns.pattern)
    t = parse_pattern_file(ns.text)
    if ns.oracle:
        _oracle_fits(len(t), OPSM_TEXT_LIMIT, "texts of length <= {}")
        found = naive_opsm(p, t)
    else:
        found = opsm(p, t)
    return "yes\n" if found else "no\n"


def _generate(gen, *args):
    """``gen(*args)``, with its ValueError for a bad argument as a UsageError."""
    try:
        return gen(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _gen_adversarial(ns: argparse.Namespace) -> str:
    if None not in (ns.output, ns.pattern_out) and (
        os.path.realpath(ns.output) == os.path.realpath(ns.pattern_out)
    ):
        raise UsageError("--tree-out and --pattern-out name the same file")
    h = ns.height
    m = ns.pattern_length if ns.pattern_length is not None else h - 2
    inst = _generate(gen_adversarial, h, m)
    if ns.pattern_out is not None:
        _emit(pattern_file_text(inst.pattern), ns.pattern_out)
    return tree_file_text(inst.tree)


def _gen_random_string(ns: argparse.Namespace) -> str:
    s = _generate(gen_random_string, ns.length, ns.alphabet, ns.seed)
    return pattern_file_text(s)


def _gen_random_tree(ns: argparse.Namespace) -> str:
    return tree_file_text(_generate(gen_random_tree, ns.nodes, ns.alphabet, ns.seed))


def _gen_random_dag(ns: argparse.Namespace) -> str:
    dag = _generate(gen_random_dag, ns.vertices, ns.density, ns.alphabet, ns.seed)
    return dag_file_text(dag)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oppm",
        description="Order-preserving pattern matching on strings, trees, and DAGs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ms = sub.add_parser("match-string", help="find op-matching windows of a string")
    ms.set_defaults(func=_match_string)
    ms.add_argument("pattern", help="pattern file")
    ms.add_argument("text", help="string file")

    mt = sub.add_parser("match-tree", help="find op-matching root-path windows")
    mt.set_defaults(func=_match_tree)
    mt.add_argument("pattern", help="pattern file")
    mt.add_argument("tree", help="tree file")
    mt.add_argument(
        "--no-prune",
        dest="prune",
        action="store_false",
        help="disable subtree-height pruning of failure chains",
    )

    for cmd in (ms, mt):
        mode = cmd.add_mutually_exclusive_group()
        mode.add_argument("--stats", action="store_true", help="append transition counts")
        mode.add_argument("--oracle", action="store_true", help="use the brute-force path")
        cmd.add_argument("--out", dest="output", help="write output to a file")

    md = sub.add_parser("match-dag", help="find an op-matching path in a DAG")
    md.set_defaults(func=_match_dag)
    md.add_argument("pattern", help="pattern file")
    md.add_argument("dag", help="DAG file")
    md.add_argument("--witness", action="store_true", help="print the witness path")
    md.add_argument("--out", dest="output", help="write output to a file")

    bd = sub.add_parser("build-dasg", help="build the subsequence graph of a string")
    bd.set_defaults(func=_build_dasg)
    bd.add_argument("text", help="string file")
    bd.add_argument("--out", dest="output", help="write the DAG file here")

    op = sub.add_parser("opsm", help="order-preserving subsequence decision")
    op.set_defaults(func=_opsm)
    op.add_argument("pattern", help="pattern file")
    op.add_argument("text", help="string file")
    op.add_argument("--oracle", action="store_true", help="use subsequence enumeration")
    op.add_argument("--out", dest="output", help="write output to a file")

    g = sub.add_parser("gen", help="generate instances")
    gsub = g.add_subparsers(dest="gen_command", required=True, parser_class=_Parser)

    ga = gsub.add_parser("adversarial", help="worst-case tree family")
    ga.set_defaults(func=_gen_adversarial)
    ga.add_argument("--height", type=int, required=True)
    ga.add_argument(
        "--pattern-length", type=int, default=None, help="defaults to height - 2"
    )
    ga.add_argument(
        "--tree-out", dest="output", metavar="TREE_OUT", help="tree file (default stdout)"
    )
    ga.add_argument("--pattern-out", default=None, help="also write the pattern file")

    gs = gsub.add_parser("random-string", help="seeded random string")
    gs.set_defaults(func=_gen_random_string)
    gs.add_argument("--length", type=int, required=True)
    gs.add_argument("--alphabet", type=int, required=True)
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("--out", dest="output")

    gt = gsub.add_parser("random-tree", help="seeded random tree")
    gt.set_defaults(func=_gen_random_tree)
    gt.add_argument("--nodes", type=int, required=True)
    gt.add_argument("--alphabet", type=int, required=True)
    gt.add_argument("--seed", type=int, default=0)
    gt.add_argument("--out", dest="output")

    gd = gsub.add_parser("random-dag", help="seeded random DAG")
    gd.set_defaults(func=_gen_random_dag)
    gd.add_argument("--vertices", type=int, required=True)
    gd.add_argument("--density", type=float, default=0.2)
    gd.add_argument("--alphabet", type=int, required=True)
    gd.add_argument("--seed", type=int, default=0)
    gd.add_argument("--out", dest="output")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        _emit(ns.func(ns), ns.output)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, TreeValidationError, DagValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
