"""Layer spans around one in-process ``oppm.cli.main`` call.

The benchmark wraps the functions that ``oppm.cli`` and ``oppm.dag`` call
through their module attributes, so no file of oppm changes.  Each
wrapper records a span (name, start, end, parent) and reads counters from
the value the function returns.  A layer's time is the self time of its
spans: their duration minus that of their child spans, so the self times
of one call add up to the duration of ``main``.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# wrapped function -> layer
LAYERS = {
    "main": "cli.other",
    "parse_pattern_file": "cli.parse",
    "parse_string_file": "cli.parse",
    "parse_tree_file": "cli.parse",
    "parse_dag_file": "cli.parse",
    "build_pattern_tables": "pattern.compile",
    "build_tree": "tree.build",
    "match_string": "stringmatch.match",
    "match_tree": "treematch.match",
    "build_dasg": "dag.dasg",
    "build_dag": "dag.build",
    "match_dag": "dag.search",
    "match_dag_explored": "dag.search",
}
PARSERS = {name for name, layer in LAYERS.items() if layer == "cli.parse"}


def _ints_parsed(result) -> int:
    """Integers in the file a parser read: a sequence, 'tree N' plus N-1
    edge triples, or 'dag V E' plus E edge triples."""
    if hasattr(result, "node_count"):
        return 1 + 3 * (result.node_count - 1)
    if hasattr(result, "vertex_count"):
        return 2 + 3 * len(result.edges)
    return len(result)


class Trace:
    """Spans and counters of one traced call."""

    def __init__(self):
        self.spans = []  # [name, start, end, index of the parent span or -1]
        self._open = []
        self.counts = Counter()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index][1:3] = start, end
            self._count(name, args, result, parent)
            return result

        return traced

    def _count(self, name, args, result, parent) -> None:
        c = self.counts
        if name in PARSERS:
            # parse_string_file may delegate to parse_pattern_file; count once
            if parent < 0 or self.spans[parent][0] not in PARSERS:
                c["ints"] += _ints_parsed(result)
        elif name == "match_string":
            ends, stats = result
            c["stringmatch.chars"] += len(args[1])
            c["stringmatch.goto"] += stats.goto_count
            c["stringmatch.fail"] += stats.fail_count
            c["stringmatch.matches"] += len(ends)
        elif name == "match_tree":
            c["treematch.goto"] += result.stats.goto_count
            c["treematch.fail"] += result.stats.fail_count
            c["treematch.matches"] += len(result.matched_nodes)
        elif name == "match_dag_explored":
            c["dag.explored"] += result[1]
        elif name == "build_dasg":
            c["dag.dasg_edges"] += len(result.edges)

    @contextmanager
    def _installed(self, modules):
        saved = []
        for module in modules:
            for name in LAYERS:
                fn = getattr(module, name, None)
                if callable(fn) and name != "main":
                    saved.append((module, name, fn))
                    setattr(module, name, self._wrap(name, fn))
        try:
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def call(self, main, argv, modules):
        """Run ``main(argv)`` with every module's layer functions wrapped."""
        with self._installed(modules):
            return self._wrap("main", main)(argv)

    def self_times(self) -> dict:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        layers = defaultdict(float)
        for (name, _, _, _), t in zip(self.spans, own):
            layers[LAYERS[name]] += t
        return dict(layers)

    def main_seconds(self) -> float:
        _, start, end, _ = self.spans[0]
        return end - start
