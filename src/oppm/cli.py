"""Command-line front end and the plain-text file formats.

Formats:
  pattern / string  one line of whitespace-separated signed 64-bit integers
  tree              header "tree N", then N-1 lines "parent child label"
  dag               header "dag V E", then E lines "source target label"
A line ends at LF, CRLF or a lone CR; any other whitespace separates
tokens, and a token is an integer when int() accepts it, however many
digits it has.

Exit codes: 0 success (including "no match"), 1 usage error, 2 parse or
validation error.
"""

import argparse
import os
import re
import stat
import sys
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import chain, islice

from .dag import DagValidationError, TextDag, build_dag, build_dasg, match_dag, opsm
from .pattern import INT64_MAX, INT64_MIN, build_pattern_tables
from .stringmatch import match_string
from .tree import TextTree, TreeValidationError, build_tree
from .treematch import match_tree

# The generators (with random) and the brute-force oracles are imported by
# the handlers that run them, so no match command's start-up pays for them.
# The layer modules above stay module globals of this one: the benchmark's
# tracing wraps their functions as attributes of oppm.cli.

# size caps for --oracle reroutes; the brute-force paths are quadratic
# (strings, trees) or exponential (opsm, capped by OPSM_TEXT_LIMIT)
ORACLE_LIMIT = 2048


class UsageError(Exception):
    """Bad command line or an unusable flag combination."""


class ParseError(ValueError):
    """Input file rejected; the message carries path, line, and column."""

    def __init__(self, path: str, line: int, msg: str, col: int | None = None):
        loc = f"{path}:{line}" if col is None else f"{path}:{line}:{col}"
        super().__init__(f"{loc}: {msg}")


# ---------------------------------------------------------------------------
# file parsing
#
# A file is read once, in text mode, _SLICE characters at a time; text mode
# decodes UTF-8 and makes every line end \n, across reads too.  A byte that
# is not valid UTF-8 reads as a lone surrogate, and is the file's first
# fault.  The text is cut into slices of about _SLICE characters, each just
# after a whitespace character so that no token is split, and a slice's
# tokens go through int() together.  A tree or DAG header is taken off the
# first slices, and the rest are the body.  A slice is dropped before the
# next one is cut, so neither the whole text nor a list of the file's lines
# or tokens lives beside the result.  Each fault is found in the slice that
# holds it, at a position in the whole text, which is read only to locate a
# fault.  A file that is not a regular one, such as a pipe, cannot be read
# again, so its text is kept.  The body's integers are one view, _Input
# itself, which hands them on a slice at a time: to the automaton for
# match-string, to build_tree three at a time (_TreeEdges), and into one
# tuple for a pattern or a DAG file.

# 16 Ki characters: a slice's list of token strings then stays below
# glibc's 128 KiB mmap threshold, so the slices' lists reuse the heap's
# free blocks instead of raising the process's peak
_SLICE = 1 << 14

_SPACE = re.compile(r"\s")  # the characters str.split() splits at
_TOKEN = re.compile(r"\S+")
# a content line (a line with a token), from its first token to its end
_CONTENT = re.compile(r"\S[^\n]*")
# surrogateescape's stand-ins for bytes that are not valid UTF-8, compiled
# on first use
_UNDECODED = "[\udc80-\udcff]"


# what int() accepts as a base-10 token: Unicode decimal digits, single
# underscores between them, one optional sign
_INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")


def _int64(token: str) -> tuple[int | None, str | None]:
    """``(value, None)`` if ``token`` is a signed 64-bit integer, else
    ``(None, message)`` naming the fault."""
    try:
        value = int(token)
    except ValueError:
        if not _INT_LITERAL.fullmatch(token):
            return None, f"not an integer: {token!r}"
        # int() refused it for its length alone; Decimal reads it, and the
        # range is checked first, as int() takes seconds on 10^6 digits
        from decimal import Decimal

        value = Decimal(token)
    if not INT64_MIN <= value <= INT64_MAX:
        return None, f"integer out of 64-bit signed range: {token}"
    return int(value), None


def _convert(tokens: list[str]) -> list[int] | None:
    """``tokens`` as signed 64-bit integers, or None if one of them is not
    one."""
    try:
        values = list(map(int, tokens))
    except ValueError:
        # int() refuses a literal for its length alone too
        values = [_int64(token)[0] for token in tokens]
        if None in values:
            return None
    if values and not (INT64_MIN <= min(values) and max(values) <= INT64_MAX):
        return None
    return values


class _Input:
    """One input file, read once, a slice of about _SLICE characters at a
    time: ``header`` takes the first content line of a tree or DAG file,
    and ``ints`` sets the line rule for the text after it.  The _Input is
    then the view of that text's integers: iterated, it yields them a
    slice's list at a time, counting its content lines in ``lines`` and
    noting in ``wrong`` the first of them without the rule's number of
    tokens, and its length is the number of integers it has yielded.  Of
    the faults, only a byte that is not valid UTF-8 is raised as it is
    read: ``finish`` reads to the end and raises the first fault under the
    rule.  Every error reads ``text`` to locate its fault."""

    def __init__(self, path: str):
        self.path = path
        self.slices = self._slices()
        self.start = 0  # the text position ``ints`` starts at
        # a regular file's size in bytes; a file that is not a regular one,
        # such as a pipe, has none, and its reads are kept
        self.size: int | None = None
        self.kept: list[str] = []

    def _reads(self):
        """The text in reads of _SLICE characters, or the error at the first
        byte that is not valid UTF-8.  A pipe's reads are kept."""
        with open(self.path, encoding="utf-8", errors="surrogateescape") as f:
            self.file = f  # the rest of a pipe's text is read off it
            st = os.fstat(f.fileno())
            if stat.S_ISREG(st.st_mode):
                self.size = st.st_size
            while read := f.read(_SLICE):
                if self.size is None:
                    self.kept.append(read)
                if not read.isascii() and re.search(_UNDECODED, read):
                    raise self.error("not valid UTF-8", 0)
                yield read

    @cached_property
    def text(self) -> str:
        """The whole text, read again to locate a fault; a pipe's is the
        text kept and the rest of it."""
        if self.size is not None:
            with open(self.path, encoding="utf-8", errors="surrogateescape") as f:
                return f.read()
        if not self.file.closed:
            self.kept.append(self.file.read())
        return "".join(self.kept)

    def _slices(self):
        """The text in slices, each cut just after its first whitespace
        character from index _SLICE on (the last at the end of the file)."""
        buf = ""
        for read in self._reads():
            buf += read
            space = _SPACE.search(buf, max(_SLICE, len(buf) - len(read)))
            while space is not None:
                yield buf[: space.end()]
                buf = buf[space.end() :]
                space = _SPACE.search(buf, _SLICE)
        if buf:
            yield buf

    def error(self, msg: str, pos: int, column: bool = True) -> ParseError:
        """The error at text position ``pos``: on its line, and with
        ``column`` at its column.  A byte that is not valid UTF-8 comes
        before every other fault, on its own line."""
        undecoded = re.search(_UNDECODED, self.text)
        if undecoded is not None:
            msg, pos, column = "not valid UTF-8", undecoded.start(), False
        col = pos - self.text.rfind("\n", 0, pos) if column else None
        return ParseError(self.path, self.text.count("\n", 0, pos) + 1, msg, col)

    def header(self, form: str) -> list[int]:
        """The integers of the first content line, which must read ``form``
        (a keyword, then names for the integers after it); ``head`` is then
        that line's text position."""
        words = form.split()
        need = len(words) + 1  # tokens still wanted: the form's and one past them
        text = ""  # from the first slice with a token on
        for piece in self.slices:
            if not text and piece.isspace():
                self.start += len(piece)
                continue
            text += piece
            need -= len(list(islice(_TOKEN.finditer(piece), need)))
            if not need:
                break
        head = _CONTENT.search(text)
        if head is None:
            raise self.error(f"missing '{form}' header", 0, column=False)
        self.head = self.start + head.start()
        tokens = _TOKEN.finditer(text, head.start(), head.end())
        tokens = list(islice(tokens, len(words) + 1))
        if tokens[0].group() != words[0] or len(tokens) != len(words):
            raise self.error(f"expected header '{form}'", self.head)
        values = []
        for m in tokens[1:]:
            value, fault = _int64(m.group())
            if fault is not None:
                raise self.error(fault, self.start + m.start())
            values.append(value)
        # the text after the header line is the next slice
        self.slices = chain((text[head.end() :],), self.slices)
        self.start += head.end()
        return values

    def ints(self, arity: int | None = None, count: int | None = None, what: str = ""):
        """This view of the integers from text position ``start`` on, under
        the line rule: ``count`` content lines of ``arity`` tokens each,
        which read ``what``, or with no ``count`` at most one line.  The
        first slice with a token that is not a signed 64-bit integer ends
        them, so then they stop short and ``finish`` raises."""
        self.arity, self.count, self.what = arity, count, what
        self.lines = 0
        self.wrong: int | None = None
        self.bad: tuple[int, str] | None = None  # its first bad token's fault
        self.yielded = 0
        self.chunks = self._chunks()
        return self

    def __len__(self) -> int:
        return self.yielded

    def __iter__(self):
        return self.chunks

    def _chunks(self):
        """The integers of each slice, a list at a time; ``lines`` and
        ``wrong`` are complete once the generator is."""
        carry = 0  # tokens so far on the line the last slice ended in
        pos = self.start
        arity = self.arity
        # a line end after the text ends its last line
        for piece in chain(self.slices, ["\n"]):
            tokens = piece.split()
            lines = piece.split("\n")
            if len(lines) == 1:
                tally = [len(tokens)]
            else:
                # one line's split list at a time: kept alive together, the
                # lists would set off the garbage collector again and again
                tally = list(map(len, map(str.split, lines)))
            tally[0] += carry
            carry = tally.pop()
            # the content lines among those the slice ends
            tally = list(filter(None, tally))
            if self.wrong is None and arity is not None and tally.count(arity) < len(tally):
                self.wrong = self.lines + next(i for i, n in enumerate(tally) if n != arity)
            self.lines += len(tally)
            if self.bad is None:
                chunk = _convert(tokens)
                if chunk is None:
                    self.bad = next(
                        (pos + m.start(), msg)
                        for m in _TOKEN.finditer(piece)
                        if (msg := _int64(m.group())[1]) is not None
                    )
            pos += len(piece)
            # the slice's strings go before the next slice is read
            del piece, tokens, lines
            if self.bad is None:
                self.yielded += len(chunk)
                yield chunk

    def row(self, index: int) -> int:
        """The text position of the first token of content line ``index``
        of those that ``ints`` read."""
        lines = _CONTENT.finditer(self.text, self.start)
        return next(islice(lines, index, None)).start()

    def finish(self) -> None:
        """Read the rest of the file and raise its first fault under the
        line rule: a second content line, or other than ``count`` of them;
        else, in file order, a line without ``arity`` tokens ("expected
        '{what}'", reported before the tokens on it) or a token that is not
        a signed 64-bit integer."""
        for _ in self.chunks:
            pass
        if self.count is None and self.lines > 1:
            raise self.error("expected a single line of integers", self.row(1))
        if self.count is not None and self.lines != self.count:
            msg = f"expected {self.count} edge lines, found {self.lines}"
            raise self.error(msg, self.head, column=False)
        fault = self.bad  # (text position, message)
        if self.wrong is not None:
            pos = self.row(self.wrong)
            if fault is None or pos <= fault[0]:
                fault = pos, f"expected '{self.what}'"
        if fault is not None:
            raise self.error(fault[1], fault[0])


def parse_pattern_file(path: str) -> tuple[int, ...]:
    """One line of integers; an empty file is the empty sequence."""
    f = _Input(path)
    values = tuple(chain.from_iterable(f.ints()))
    f.finish()
    return values


class _TreeEdges:
    """A tree file's edge lines as ``(parent, child, label)`` triples, read
    off each slice's integers as they are converted: a zip of one iterator
    with itself, whose tuple lives one loop step.  Its length is the
    header's count, so ``build_tree`` runs while the file is read.  A
    second iteration, by which ``build_tree`` names an unreachable node's
    edge, finishes the file first and then converts the text again, so it
    only ever reads a file with no fault that comes before a structural
    one."""

    def __init__(self, f: _Input, count: int):
        self.f = f.ints(3, count, "parent child label")
        self.read = False

    def __len__(self) -> int:
        return self.f.count

    def __iter__(self):
        if self.read:
            self.f.finish()
            flat = _convert(self.f.text[self.f.start :].split())
        else:
            self.read = True
            flat = chain.from_iterable(self.f)
        it = iter(flat)
        return zip(it, it, it)


def parse_tree_file(path: str) -> TextTree:
    """Header 'tree N' and N-1 edge lines, streamed into build_tree, which
    checks the structure.  Its fault is raised only once the rest of the
    file is read and has no edge-count, arity or token fault."""
    f = _Input(path)
    (n,) = f.header("tree N")
    if n < 1:
        raise f.error("node count must be at least 1", f.head, column=False)
    edges = _TreeEdges(f, n - 1)
    # a header of six characters or more and n - 1 edge lines of five, each
    # line but the last with its end, take at least 6n bytes; a shorter file
    # has a count or arity fault, raised before build_tree sizes its lists
    # by n
    if f.size is not None and f.size < 6 * n:
        f.finish()
    try:
        tree = build_tree(edges)
    except (TreeValidationError, MemoryError) as exc:
        f.finish()
        if isinstance(exc, MemoryError):
            # a pipe is not sized first, so its lines may not back the
            # header's n
            raise f.error(f"node count {n} is too large", f.head, column=False) from None
        raise f.error(str(exc), f.row(exc.edge), column=False) from exc
    f.finish()
    return tree


def parse_dag_file(path: str) -> TextDag:
    """Header 'dag V E' and E edge lines; build_dag checks the structure."""
    f = _Input(path)
    v_count, e_count = f.header("dag V E")
    if v_count < 1:
        raise f.error("vertex count must be at least 1", f.head, column=False)
    if e_count < 0:
        raise f.error("edge count cannot be negative", f.head, column=False)
    # the iterator lets go of the integers once the edges are read off it
    it = iter(tuple(chain.from_iterable(f.ints(3, e_count, "source target label"))))
    f.finish()
    # file lines are 'source target label', DAG edges (source, label, target)
    edges = [(u, c, v) for u, v, c in zip(it, it, it)]
    try:
        return build_dag(v_count, edges)
    except DagValidationError as exc:
        raise f.error(str(exc), f.row(exc.edge), column=False) from exc
    except MemoryError:
        # build_dag adds a table entry per vertex to edges already in
        # memory, so this is the header's V
        msg = f"vertex count {v_count} is too large"
        raise f.error(msg, f.head, column=False) from None


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


def _emit(text: str | Iterable[str], out_path: str | None) -> None:
    """Write ``text``, one str or an iterable of pieces, to stdout or to the
    file ``out_path``, a piece at a time."""
    pieces = (text,) if isinstance(text, str) else text
    if out_path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out_path, "w", encoding="utf-8") as f:
            f.writelines(pieces)


# ---------------------------------------------------------------------------
# subcommand handlers; each takes the Namespace and returns its output text,
# or, for match-string and match-tree, its pieces (_match_lines)


def _load_pattern(path: str) -> tuple[int, ...]:
    p = parse_pattern_file(path)
    if not p:
        raise ParseError(path, 1, "pattern must be non-empty")
    return p


def _oracle_fits(size: int, limit: int, what: str) -> None:
    """Refuse --oracle on an input over ``limit``; {} in ``what`` is the limit."""
    if size > limit:
        raise UsageError("--oracle is limited to " + what.format(limit))


# match ids formatted and written at a time
_BATCH = 1 << 9


def _match_lines(ids, stats=None) -> Iterator[str]:
    """One id per line, then ``goto=<n> fail=<n>`` if ``stats`` is given, as
    pieces of up to _BATCH lines.  A batch is formatted by one % operation,
    so no str is made per id.  The pieces are formatted only as _emit
    writes them, so a handler raises every fault before it returns them."""
    ids = iter(ids)
    while batch := tuple(islice(ids, _BATCH)):
        yield ("%d\n" * len(batch)) % batch
    if stats is not None:
        yield f"goto={stats.goto_count} fail={stats.fail_count}\n"


def _match_string(ns: argparse.Namespace) -> Iterator[str]:
    p = _load_pattern(ns.pattern)
    if ns.oracle:
        from .oracles import naive_match_string

        t = parse_pattern_file(ns.text)
        _oracle_fits(len(t), ORACLE_LIMIT, "texts of length <= {}")
        return _match_lines(naive_match_string(p, t))
    # the text goes to the automaton a slice at a time; a fault in it is
    # raised after the match, and main then writes nothing to stdout
    f = _Input(ns.text)
    positions, stats = match_string(build_pattern_tables(p), f.ints())
    f.finish()
    return _match_lines(positions, stats if ns.stats else None)


def _match_tree(ns: argparse.Namespace) -> Iterator[str]:
    p = _load_pattern(ns.pattern)
    tree = parse_tree_file(ns.tree)
    if ns.oracle:
        from .oracles import naive_match_tree

        _oracle_fits(tree.node_count, ORACLE_LIMIT, "trees with <= {} nodes")
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
        from .oracles import OPSM_TEXT_LIMIT, naive_opsm

        _oracle_fits(len(t), OPSM_TEXT_LIMIT, "texts of length <= {}")
        found = naive_opsm(p, t)
    else:
        found = opsm(p, t)
    return "yes\n" if found else "no\n"


def _generate(name: str, *args):
    """``oppm.gen``'s function ``name`` called with ``args``, with its
    ValueError for a bad argument as a UsageError."""
    from . import gen

    try:
        return getattr(gen, name)(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _gen_adversarial(ns: argparse.Namespace) -> str:
    if None not in (ns.output, ns.pattern_out) and (
        os.path.realpath(ns.output) == os.path.realpath(ns.pattern_out)
    ):
        raise UsageError("--tree-out and --pattern-out name the same file")
    h = ns.height
    m = ns.pattern_length if ns.pattern_length is not None else h - 2
    inst = _generate("gen_adversarial", h, m)
    if ns.pattern_out is not None:
        _emit(pattern_file_text(inst.pattern), ns.pattern_out)
    return tree_file_text(inst.tree)


def _gen_random_string(ns: argparse.Namespace) -> str:
    s = _generate("gen_random_string", ns.length, ns.alphabet, ns.seed)
    return pattern_file_text(s)


def _gen_random_tree(ns: argparse.Namespace) -> str:
    return tree_file_text(_generate("gen_random_tree", ns.nodes, ns.alphabet, ns.seed))


def _gen_random_dag(ns: argparse.Namespace) -> str:
    dag = _generate("gen_random_dag", ns.vertices, ns.density, ns.alphabet, ns.seed)
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

    md = sub.add_parser("match-dag", help="find an op-matching path in a DAG")
    md.set_defaults(func=_match_dag)
    md.add_argument("pattern", help="pattern file")
    md.add_argument("dag", help="DAG file")
    md.add_argument("--witness", action="store_true", help="print the witness path")

    bd = sub.add_parser("build-dasg", help="build the subsequence graph of a string")
    bd.set_defaults(func=_build_dasg)
    bd.add_argument("text", help="string file")

    op = sub.add_parser("opsm", help="order-preserving subsequence decision")
    op.set_defaults(func=_opsm)
    op.add_argument("pattern", help="pattern file")
    op.add_argument("text", help="string file")
    op.add_argument("--oracle", action="store_true", help="use subsequence enumeration")

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

    gt = gsub.add_parser("random-tree", help="seeded random tree")
    gt.set_defaults(func=_gen_random_tree)
    gt.add_argument("--nodes", type=int, required=True)

    gd = gsub.add_parser("random-dag", help="seeded random DAG")
    gd.set_defaults(func=_gen_random_dag)
    gd.add_argument("--vertices", type=int, required=True)
    gd.add_argument("--density", type=float, default=0.2)

    for cmd in (gs, gt, gd):
        cmd.add_argument("--alphabet", type=int, required=True)
        cmd.add_argument("--seed", type=int, default=0)
    for cmd in (ms, mt, md, bd, op, gs, gt, gd):
        cmd.add_argument("--out", dest="output", help="write output to a file")

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
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
