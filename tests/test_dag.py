"""DAG validation, subsequence-graph construction, and path matching."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oppm.dag
from oppm.dag import (
    DagValidationError,
    TextDag,
    build_dag,
    build_dasg,
    match_dag,
    match_dag_explored,
    opsm,
)
from oppm.gen import gen_random_dag, gen_random_string
from oppm.oracles import OPSM_TEXT_LIMIT, is_subsequence, naive_isomorphic, naive_opsm
from oppm.pattern import build_pattern_tables, compute_lmax_lmin
from oppm.stringmatch import match_string

FIG_TEXT = (5, 2, 1, 4, 3, 6)


def dasg_path_spells(dag, s):
    """Walk from the source; out-labels are distinct, so the walk is forced."""
    step = {}
    for u, c, v in dag.edges:
        step[(u, c)] = v
    u = 0
    for c in s:
        if (u, c) not in step:
            return False
        u = step[(u, c)]
    return True


class TestBuildDag:
    def test_parallel_edges_allowed(self):
        dag = build_dag(2, [(0, 1, 1), (0, 2, 1)])
        assert len(dag.edges) == 2

    def test_unknown_vertex_rejected(self):
        with pytest.raises(DagValidationError, match="unknown target vertex 9"):
            build_dag(2, [(0, 1, 9)])

    def test_cycle_rejected(self):
        with pytest.raises(DagValidationError, match="cycle"):
            build_dag(3, [(0, 1, 1), (1, 1, 2), (2, 1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(DagValidationError, match="cycle"):
            build_dag(1, [(0, 1, 0)])

    def test_topological_order_is_consistent(self):
        # longest path lengths fall along every edge, so they order the
        # vertices topologically
        dag = build_dag(4, [(0, 1, 1), (0, 2, 2), (1, 3, 3), (2, 1, 3)])
        assert dag.longest == [2, 1, 1, 0]
        assert all(dag.longest[u] > dag.longest[v] for u, _, v in dag.edges)


def reference_build_dag(n, edges):
    """The build with Kahn's pass for every graph: the reference for
    build_dag's forward-edge path.  Returns (out, longest)."""
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for i, (u, _, v) in enumerate(edges):
        if not 0 <= u < n:
            raise DagValidationError(f"unknown source vertex {u}", i)
        if not 0 <= v < n:
            raise DagValidationError(f"unknown target vertex {v}", i)
        indeg[v] += 1
        out[u].append(edges[i])
    order = [u for u in range(n) if indeg[u] == 0]
    for u in order:
        for _, _, v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) != n:
        i = next((i for i, (u, _, v) in enumerate(edges) if u == v), None)
        if i is not None:
            raise DagValidationError(f"cycle detected: self-loop at vertex {edges[i][0]}", i)
        left = set(range(n)) - set(order)
        into = {}
        for i, (u, _, v) in enumerate(edges):
            if u in left and v in left:
                into.setdefault(v, i)
        walk = {}
        u = min(left)
        while u not in walk:
            walk[u] = len(walk)
            u = edges[into[u]][0]
        i = min(into[w] for w in list(walk)[walk[u]:])
        u, _, v = edges[i]
        raise DagValidationError(f"cycle detected through edge {u} -> {v}", i)
    longest = [0] * n
    for u in reversed(order):
        out[u].sort(key=lambda e: (e[2], e[1]))
        for _, _, v in out[u]:
            longest[u] = max(longest[u], longest[v] + 1)
    return out, longest


def build_outcome(build, n, edges):
    try:
        return build(n, edges)
    except DagValidationError as exc:
        return str(exc), exc.edge


class TestBuildDagAgainstKahn:
    """build_dag skips Kahn's pass when every edge runs forward; tables,
    errors and error edges must equal a build that always runs it."""

    @staticmethod
    def edge_lists(rng):
        # forward DAGs, with parallel edges; then the same graphs renumbered
        # (backward edges) and with the edge list shuffled
        for k in range(1500):
            n = rng.randint(1, 9)
            edges = list(gen_random_dag(n, rng.random(), 3, rng.randrange(2**30)).edges)
            for e in rng.sample(edges, min(len(edges), rng.randint(0, 2))):
                edges.insert(rng.randint(0, len(edges)), (e[0], rng.randint(1, 3), e[2]))
            if k % 3:
                ids = rng.sample(range(n), n)
                edges = [(ids[u], c, ids[v]) for u, c, v in edges]
            if k % 3 == 2:
                rng.shuffle(edges)
            yield n, edges
        for _ in range(200):
            t = [rng.randint(1, 3) for _ in range(rng.randint(0, 10))]
            yield len(t) + 1, list(build_dasg(t).edges)

    @staticmethod
    def inject_fault(rng, n, edges):
        kind = rng.choice(("source", "target", "self-loop", "cycle"))
        if kind == "source":
            e = (rng.choice((-1, n, n + 5)), 1, rng.randrange(n))
        elif kind == "target":
            e = (rng.randrange(n), 1, rng.choice((-2, n)))
        elif kind == "self-loop":
            u = rng.randrange(n)
            e = (u, 1, u)
        elif edges:
            u, _, v = rng.choice(edges)
            e = (v, 2, u)  # closes a cycle with the chosen edge
        else:
            e = (0, 1, 0)
        edges.insert(rng.randint(0, len(edges)), e)

    def test_tables_and_errors_equal_kahn_build(self):
        rng = random.Random(1301)
        faults = 0
        for n, edges in self.edge_lists(rng):
            if rng.random() < 0.25:
                self.inject_fault(rng, n, edges)
                faults += 1
            expected = build_outcome(reference_build_dag, n, edges)
            got = build_outcome(build_dag, n, edges)
            if isinstance(got, TextDag):
                assert got.edges == tuple(edges)
                got = got.out, got.longest
            assert got == expected
        assert faults > 300


def brute_longest(edges, u):
    return max((1 + brute_longest(edges, v) for w, _, v in edges if w == u), default=0)


class TestSearchTables:
    def test_tables_agree_with_edges(self):
        rng = random.Random(37)
        dags = [gen_random_dag(rng.randint(1, 8), 0.5, 3, rng.randrange(2**30)) for _ in range(100)]
        dags += [build_dasg([rng.randint(1, 3) for _ in range(rng.randint(0, 9))]) for _ in range(50)]
        for dag in dags:
            for u in range(dag.vertex_count):
                by_target = sorted((e for e in dag.edges if e[0] == u), key=lambda e: (e[2], e[1]))
                assert dag.out[u] == by_target
                assert dag.longest[u] == brute_longest(dag.edges, u)

    def test_out_lists_share_the_edge_tuples(self):
        # one tuple per edge: out[u] holds the objects of dag.edges, each once
        rng = random.Random(43)
        dags = []
        for _ in range(50):
            v = rng.randint(1, 8)
            edges = list(gen_random_dag(v, 0.5, 3, rng.randrange(2**30)).edges)
            dag = build_dag(v, edges)
            assert all(a is b for a, b in zip(dag.edges, edges))
            dags.append(dag)
        dags += [build_dasg([rng.randint(1, 3) for _ in range(rng.randint(0, 12))]) for _ in range(50)]
        for dag in dags:
            shared = sorted(id(e) for out in dag.out for e in out)
            assert shared == sorted(id(e) for e in dag.edges)

    def test_tables_left_out_of_equality_hash_and_repr(self):
        edges = [(0, 2, 1), (0, 1, 1), (1, 5, 2)]
        a, b = build_dag(3, edges), build_dag(3, list(edges))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == (
            "TextDag(vertex_count=3, edges=((0, 2, 1), (0, 1, 1), (1, 5, 2)))"
        )
        assert hash(build_dasg(FIG_TEXT)) == hash(build_dasg(list(FIG_TEXT)))


def reference_dasg_edges(t):
    """The subsequence graph's edges by definition, in O(n^2): (i, c, j) when
    position j is the first c after position i; sources ascending, then
    targets ascending."""
    edges = []
    for i in range(len(t) + 1):
        seen = set()
        for j in range(i + 1, len(t) + 1):
            c = t[j - 1]
            if c not in seen:
                seen.add(c)
                edges.append((i, c, j))
    return edges


class TestBuildDasg:
    def test_edges_match_definition_on_all_small_texts(self):
        for sigma in (1, 2, 3):
            for n in range(8):
                for t in product(range(1, sigma + 1), repeat=n):
                    assert list(build_dasg(t).edges) == reference_dasg_edges(t)

    @pytest.mark.parametrize("sigma", [1, 2, 5, 50])
    def test_edges_match_definition_on_random_texts(self, sigma):
        rng = random.Random(sigma)
        for _ in range(100):
            t = [rng.randint(1, sigma) for _ in range(rng.randint(0, 60))]
            assert list(build_dasg(t).edges) == reference_dasg_edges(t)
        for t in ((), (7,) * 60):
            assert list(build_dasg(t).edges) == reference_dasg_edges(t)

    def test_reference_instance_shape(self):
        dag = build_dasg(FIG_TEXT)
        assert dag.vertex_count == 7
        assert len(dag.edges) == 21
        assert sum(1 for e in dag.edges if e[0] == 0) == 6

    def test_empty_text(self):
        dag = build_dasg(())
        assert dag.vertex_count == 1
        assert dag.edges == ()

    def test_repeated_character_blocks_skip_edge(self):
        dag = build_dasg((1, 1))
        assert sorted(dag.edges) == [(0, 1, 1), (1, 1, 2)]

    def test_in_edges_share_one_label_and_out_labels_distinct(self):
        rng = random.Random(3)
        for _ in range(50):
            t = [rng.randint(1, 3) for _ in range(rng.randint(0, 12))]
            dag = build_dasg(t)
            for j in range(1, dag.vertex_count):
                in_labels = {c for u, c, v in dag.edges if v == j}
                assert in_labels == {t[j - 1]}
            for u in range(dag.vertex_count):
                out = [c for uu, c, _ in dag.edges if uu == u]
                assert len(out) == len(set(out))

    def test_edge_count_bounded_by_text_times_alphabet(self):
        rng = random.Random(9)
        for _ in range(50):
            t = [rng.randint(1, 4) for _ in range(rng.randint(0, 12))]
            dag = build_dasg(t)
            assert len(dag.edges) <= len(t) * len(set(t))

    @given(st.lists(st.integers(1, 3), max_size=10), st.lists(st.integers(1, 3), max_size=10))
    def test_paths_from_source_are_exactly_subsequences(self, t, s):
        dag = build_dasg(t)
        assert dasg_path_spells(dag, s) == is_subsequence(s, t)


def organ_pipe(n):
    """The text (2, 1, 4, 3, ..., n, n - 1), whose longest increasing
    subsequence has n / 2 labels, and an increasing pattern one longer."""
    t = []
    for k in range(1, n, 2):
        t.extend((k + 1, k))
    return t, tuple(range(1, n // 2 + 2))


def frontier_width(p):
    """The most indices k < i that steps j >= i still compare against,
    over all i, from lmax / lmin alone."""
    lmax, lmin = compute_lmax_lmin(p)
    reads = [{b - 1 for b in (lmax[j], lmin[j]) if b} for j in range(len(p))]
    return max(
        (len({k for r in reads[i:] for k in r if k < i}) for i in range(1, len(p))),
        default=0,
    )


def seeded_search_cases():
    """Patterns against subsequence graphs and random DAGs, both answers."""
    rng = random.Random(7003)
    for sigma in (1, 2, 5, 100):
        for m in range(1, 13):
            for _ in range(8):
                tables = build_pattern_tables([rng.randint(1, sigma) for _ in range(m)])
                t = [rng.randint(1, sigma) for _ in range(rng.randint(0, 16))]
                v = rng.randint(1, 14)
                random_dag = gen_random_dag(v, 0.4, sigma, rng.randrange(2**30))
                yield tables, build_dasg(t)
                yield tables, random_dag


def reference_match_dag_explored(tables, dag, starts=None):
    """The plain backtracking search on lmax / lmin, with no failure memo:
    the reference for match_dag_explored's step-table test and memo."""
    m = len(tables.values)
    lmax, lmin = compute_lmax_lmin(tables.values)
    out, longest = dag.out, dag.longest
    labels = [0] * m
    verts = [0] * (m + 1)
    explored = 0
    for s in range(dag.vertex_count) if starts is None else starts:
        if longest[s] < m:
            continue
        verts[0] = s
        stack = [iter(out[s])]
        while stack:
            i = len(stack) - 1
            descended = False
            for _, c, v in stack[-1]:
                if longest[v] < m - i - 1:
                    continue
                explored += 1
                a = lmax[i]
                b = lmin[i]
                alpha = a == 0 or labels[a - 1] < c
                beta = b == 0 or c < labels[b - 1]
                if alpha != beta:
                    continue
                labels[i] = c
                verts[i + 1] = v
                if i + 1 == m:
                    return list(verts), explored
                stack.append(iter(out[v]))
                descended = True
                break
            if not descended:
                stack.pop()
    return None, explored


class TestMatchDag:
    def test_increasing_triple_witness(self):
        dag = build_dasg(FIG_TEXT)
        witness = match_dag(build_pattern_tables((1, 2, 3)), dag)
        assert witness == [0, 2, 4, 6]
        labels = [FIG_TEXT[v - 1] for v in witness[1:]]
        assert labels == [2, 4, 6]

    def test_decreasing_triple_witness(self):
        dag = build_dasg(FIG_TEXT)
        witness = match_dag(build_pattern_tables((3, 2, 1)), dag)
        assert witness is not None
        labels = [FIG_TEXT[v - 1] for v in witness[1:]]
        assert naive_isomorphic((3, 2, 1), labels)

    def test_pattern_longer_than_longest_path(self):
        dag = build_dag(3, [(0, 5, 1), (1, 7, 2)])
        assert match_dag(build_pattern_tables((1, 2, 3, 4)), dag) is None

    def test_unanchored_start(self):
        # only a path starting away from vertex 0 matches
        dag = build_dag(4, [(0, 9, 1), (1, 1, 2), (2, 2, 3)])
        witness = match_dag(build_pattern_tables((1, 2)), dag)
        assert witness == [1, 2, 3]

    def test_starts_are_tried_in_the_given_order(self):
        dag = build_dag(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        tables = build_pattern_tables((1, 2))
        assert match_dag_explored(tables, dag, starts=(1, 0))[0] == [1, 2, 3]
        assert match_dag_explored(tables, dag, starts=(2, 0))[0] == [0, 1, 2]
        assert match_dag_explored(tables, dag, starts=(2, 3)) == (None, 0)

    def test_general_dag_with_parallel_edges(self):
        dag = build_dag(3, [(0, 5, 1), (0, 1, 1), (1, 2, 2), (1, 9, 2)])
        witness = match_dag(build_pattern_tables((1, 2)), dag)
        assert witness == [0, 1, 2]

    def test_matches_exhaustive_path_enumeration(self):
        # forward DAGs with parallel edges of other labels inserted; then the
        # same graphs renumbered (ids no longer a topological order) and with
        # the edge list shuffled, so build_dag's Kahn pass and out-list sort
        # are searched too
        rng = random.Random(17)
        for k in range(450):
            v = rng.randint(1, 7)
            edges = list(gen_random_dag(v, 0.5, 3, rng.randrange(2**30)).edges)
            for e in rng.sample(edges, min(len(edges), rng.randint(0, 3))):
                edges.insert(rng.randint(0, len(edges)), (e[0], rng.randint(1, 3), e[2]))
            if k % 3:
                ids = rng.sample(range(v), v)
                edges = [(ids[u], c, ids[w]) for u, c, w in edges]
            if k % 3 == 2:
                rng.shuffle(edges)
            m = rng.randint(1, 4)
            p = [rng.randint(1, 3) for _ in range(m)]
            # starts ascending, out-edges in (target, label) order: the first
            # path found is the witness match_dag documents
            adj = [[] for _ in range(v)]
            for u, c, w in edges:
                adj[u].append((w, c))
            for a in adj:
                a.sort()

            def walk(path, labels):
                if len(labels) == m:
                    return path if naive_isomorphic(p, labels) else None
                for w, c in adj[path[-1]]:
                    found = walk([*path, w], [*labels, c])
                    if found:
                        return found
                return None

            expected = next(filter(None, (walk([s], []) for s in range(v))), None)
            assert match_dag(build_pattern_tables(p), build_dag(v, edges)) == expected

    def test_path_dag_agrees_with_string_matching(self):
        # the path graph of t spells only t's windows, and the search tries
        # starts in ascending order, so it finds the leftmost occurrence
        rng = random.Random(41)
        for _ in range(1000):
            sigma = rng.choice((2, 4, 50))
            t = [rng.randint(1, sigma) for _ in range(rng.randint(0, 14))]
            m = rng.randint(1, 5)
            tables = build_pattern_tables([rng.randint(1, sigma) for _ in range(m)])
            ends, _ = match_string(tables, t)
            dag = build_dag(len(t) + 1, [(i, c, i + 1) for i, c in enumerate(t)])
            witness = match_dag(tables, dag)
            if not ends:
                assert witness is None
            else:
                assert witness == list(range(ends[0] - m, ends[0] + 1))

    def test_explored_count_grows_with_organ_pipe_size(self):
        counts = []
        for n in (6, 8, 10):
            t, p = organ_pipe(n)
            witness, explored = match_dag_explored(
                build_pattern_tables(p), build_dasg(t)
            )
            assert witness is None
            counts.append(explored)
        assert counts[0] < counts[1] < counts[2]

    @staticmethod
    def check_organ_pipe_pins(search, all_starts, from_source):
        # The exact cost of the search.  One label shorter, the pattern
        # matches, and witness and count then pin the order in which
        # out-edges are tried: by target, so label 2 before label 1.
        for n, count in all_starts.items():
            t, p = organ_pipe(n)
            dag = build_dasg(t)
            assert search(build_pattern_tables(p), dag) == (None, count)
            if n in from_source:
                found = search(build_pattern_tables(p), dag, starts=(0,))
                assert found == (None, from_source[n])
            witness = [0, *range(1, n, 2)]
            assert search(build_pattern_tables(p[:-1]), dag) == (witness, n - 1)

    def test_reference_explored_pinned_on_organ_pipe_texts(self):
        # the plain loop: with no match every edge that survives pruning is
        # tried, in whatever order; from vertex 0 alone about half of that
        all_starts = {
            6: 31, 8: 85, 10: 217, 12: 539, 14: 1318, 16: 3202,
            18: 7752, 20: 18740, 22: 45269, 24: 109319, 26: 263951,
        }
        from_source = {24: 57120, 26: 137902}
        self.check_organ_pipe_pins(reference_match_dag_explored, all_starts, from_source)

    def test_explored_count_pinned_on_organ_pipe_texts(self):
        # the memo: each failed (vertex, matched length, frontier label) key
        # is expanded once, across starts too
        all_starts = {
            6: 16, 8: 30, 10: 50, 12: 77, 14: 112, 16: 156,
            18: 210, 20: 275, 22: 352, 24: 442, 26: 546,
        }
        from_source = {20: 230, 24: 376, 26: 468}
        self.check_organ_pipe_pins(match_dag_explored, all_starts, from_source)

    def test_witness_and_explored_equal_reference_loop(self):
        # the memo skips only subtrees that failed before, so the witness is
        # the plain loop's and the count is at most the plain loop's, and
        # within the frontier bound (see the organ-pipe test below)
        saved = 0
        for tables, dag in seeded_search_cases():
            witness, explored = reference_match_dag_explored(tables, dag)
            got = match_dag_explored(tables, dag)
            assert got[0] == witness
            assert got[1] <= explored
            saved += explored - got[1]
            sigma = len({c for _, c, _ in dag.edges})
            bound = dag.vertex_count * (len(tables.values) + 1) * sigma ** frontier_width(tables.values)
            assert got[1] <= bound * max(map(len, dag.out))
        assert saved > 0

    @pytest.mark.parametrize("cap", [0, 5])
    def test_capped_memo_keeps_witness_and_answer(self, monkeypatch, cap):
        # past the cap the memo stops recording; with no room at all the
        # search is the plain loop, count for count
        monkeypatch.setattr(oppm.dag, "_MEMO_CAP", cap)
        cases = list(seeded_search_cases())
        for n in (6, 10, 14):
            t, p = organ_pipe(n)
            cases += [(build_pattern_tables(p), build_dasg(t))]
        for tables, dag in cases:
            witness, explored = reference_match_dag_explored(tables, dag)
            got = match_dag_explored(tables, dag)
            assert got[0] == witness
            assert got[1] == explored if cap == 0 else got[1] <= explored
        t, p = organ_pipe(14)
        assert opsm(p, t) is False and opsm(p[:-1], t) is True

    def test_explored_within_frontier_bound_on_organ_pipes(self):
        # a pattern whose frontier is w labels wide has at most
        # V * (m + 1) * sigma^w keys, each expanded once, so the search
        # tries at most that many times the largest out-degree edges; an
        # increasing pattern has w = 1, so the bound is polynomial
        for n in range(6, 62, 2):
            t, p = organ_pipe(n)
            dag = build_dasg(t)
            w = frontier_width(p)
            assert w == 1
            bound = dag.vertex_count * (len(p) + 1) * len(set(t)) ** w
            bound *= max(map(len, dag.out))
            tables = build_pattern_tables(p)
            for starts in (None, (0,)):
                witness, explored = match_dag_explored(tables, dag, starts=starts)
                assert witness is None
                assert explored <= bound


class TestTiedPatternFamily:
    """A search-cost family that is not monotone: the tied pattern below
    against near-distinct labels, searched from v_0 as opsm does.  The
    memo helps less here than on organ pipes, so a change to the search's
    order or memo shows as a diff of these pins."""

    P = (4, 7, 8, 1, 6, 4, 8)
    SEEDS = (2, 3, 4)
    # explored edges per n, for seeds 2, 3 and 4; every answer is "no"
    EXPLORED = {
        20: (660, 1545, 1252),
        40: (23437, 39537, 45251),
        60: (251894, 359563, 306161),
    }
    REFERENCE = {40: (29907, 58985, 63078), 60: (472054, 686298, 610736)}
    # labels planted at fixed positions so that p op-matches at n = 60
    PLANT = {1: 100, 4: 300, 6: 500, 7: 700, 8: 900}
    POSITIONS = (5, 14, 23, 31, 40, 48, 57)
    PLANTED = {
        2: ([0, 6, 8, 24, 32, 45, 49, 58], 31606),
        3: ([0, 6, 7, 24, 30, 36, 49, 58], 171978),
        4: ([0, 6, 11, 24, 26, 40, 49, 58], 128930),
    }

    def search(self, t):
        tables = build_pattern_tables(self.P)
        dag = build_dasg(t)
        got = match_dag_explored(tables, dag, starts=(0,))
        return got, reference_match_dag_explored(tables, dag, starts=(0,))

    def test_explored_pinned_and_growing_on_no_instances(self):
        for k, s in enumerate(self.SEEDS):
            for n, counts in self.EXPLORED.items():
                t = gen_random_string(n, 1000, s)
                got, (witness, explored) = self.search(t)
                assert got == (None, counts[k])
                assert witness is None
                if n in self.REFERENCE:
                    assert explored == self.REFERENCE[n][k]
                assert opsm(self.P[::-1], t[::-1]) is False
                if n == 20:
                    assert naive_opsm(self.P, t) is False
            assert self.EXPLORED[20][k] < self.EXPLORED[40][k] < self.EXPLORED[60][k]

    def test_planted_match_pinned(self):
        for s, (witness, count) in self.PLANTED.items():
            t = list(gen_random_string(60, 1000, s))
            for i, x in zip(self.POSITIONS, self.P):
                t[i] = self.PLANT[x]
            got, reference = self.search(t)
            assert got == (witness, count)
            assert reference[0] == witness
            labels = [t[v - 1] for v in witness[1:]]
            assert naive_isomorphic(self.P, labels)
            assert is_subsequence(labels, t)
            assert opsm(self.P[::-1], t[::-1]) is True


def layered(n, b):
    """The labels 1..n in decreasing runs of b, each run above the one
    before: layered(9, 3) is 3 2 1 6 5 4 9 8 7."""
    return [v for s in range(0, n, b) for v in range(min(s + b, n), s, -1)]


def contains(seq, shape):
    """Whether ``seq`` has a subsequence order-isomorphic to ``shape``, by
    trying every choice of positions."""
    return any(
        naive_isomorphic(shape, [seq[i] for i in c])
        for c in combinations(range(len(seq)), len(shape))
    )


class TestLayeredFamily:
    """A search-bound family whose "no" answers need no search to prove: a
    layered text avoids 231 and 312 (Bóna, "Combinatorics of
    Permutations"), and each pattern below contains one of them, so no
    subsequence of the text op-matches it.  Searched from v_0 as opsm
    does, on the text and (reversed) on the reversed instance; a change to
    the search's order or memo shows as a diff of these pins."""

    PATTERNS = ((2, 4, 1, 3), (3, 1, 4, 2, 5))
    # explored edges per (n, b), for each pattern: (text, reversed instance)
    EXPLORED = {
        (40, 5): ((8475, 8475), (17503, 19711)),
        (80, 8): ((71792, 71792), (253594, 256053)),
    }
    SMALL = (20, 5)  # checked against naive_opsm

    @staticmethod
    def explored(p, t):
        """opsm's search from v_0, and the same on the reversed instance."""
        return tuple(
            match_dag_explored(build_pattern_tables(q), build_dasg(u), starts=(0,))
            for q, u in ((p, t), (p[::-1], t[::-1]))
        )

    def test_patterns_contain_231_or_312(self):
        for p in self.PATTERNS:
            assert contains(p, (2, 3, 1)) or contains(p, (3, 1, 2))

    def test_layered_text_avoids_231_and_312(self):
        for n, b in (self.SMALL, *self.EXPLORED):
            t = layered(n, b)
            assert sorted(t) == list(range(1, n + 1))
            assert not contains(t, (2, 3, 1)) and not contains(t, (3, 1, 2))

    def test_explored_pinned_and_growing(self):
        for k, p in enumerate(self.PATTERNS):
            counts = [self.explored(p, layered(*self.SMALL))]
            for size, pinned in self.EXPLORED.items():
                got = self.explored(p, layered(*size))
                assert got == tuple((None, c) for c in pinned[k]), size
                counts.append(got)
            for side in (0, 1):
                grows = [c[side][1] for c in counts]
                assert grows == sorted(set(grows)), grows

    def test_no_answers_agree_with_naive_opsm(self):
        t = layered(*self.SMALL)
        for p in self.PATTERNS:
            assert naive_opsm(p, t) is False and opsm(p, t) is False
            assert naive_opsm(p[::-1], t[::-1]) is False and opsm(p[::-1], t[::-1]) is False

    def test_planted_block_gives_yes(self):
        # the fifth run of layered(40, 5), 25..21, rewritten to start with
        # p's shape: the search finds it there, and the reversed instance too
        planted = {(2, 4, 1, 3): 7644, (3, 1, 4, 2, 5): 15755}
        for p, count in planted.items():
            t = layered(40, 5)
            t[20:25] = [20 + x for x in (*p, *range(len(p) + 1, 6))]
            assert sorted(t) == list(range(1, 41))
            (witness, explored), (back, _) = self.explored(p, t)
            assert (witness, explored) == ([0, *range(21, 21 + len(p))], count)
            assert back is not None


class TestOpsm:
    def test_reference_instance(self):
        assert opsm((1, 2, 3), FIG_TEXT) is True

    def test_no_increasing_pair(self):
        assert opsm((1, 2), (2, 1)) is False

    def test_pattern_longer_than_text(self):
        assert opsm((1, 2, 3), (1, 2)) is False

    def test_empty_pattern_matches_vacuously(self):
        assert opsm((), (4, 2)) is True
        assert naive_opsm((), (4, 2)) is True

    def test_witnesses_verify_against_pattern(self):
        rng = random.Random(23)
        for _ in range(200):
            sigma = rng.choice((2, 4, 50))
            t = [rng.randint(1, sigma) for _ in range(rng.randint(0, 12))]
            m = rng.randint(1, 6)
            p = [rng.randint(1, sigma) for _ in range(m)]
            dag = build_dasg(t)
            witness = match_dag(build_pattern_tables(p), dag)
            if witness is None:
                continue
            labels = [t[v - 1] for v in witness[1:]]
            assert naive_isomorphic(p, labels)
            assert is_subsequence(labels, t)

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(29)
        for _ in range(300):
            sigma = rng.choice((2, 4, 50))
            t = [rng.randint(1, sigma) for _ in range(rng.randint(0, 12))]
            m = rng.randint(1, 6)
            p = [rng.randint(1, sigma) for _ in range(m)]
            assert opsm(p, t) == naive_opsm(p, t)

    def test_search_from_source_equals_all_starts_and_oracle(self):
        # opsm searches from vertex 0 only; on a "yes" instance the all-starts
        # search finds its witness from vertex 0 too, at the same cost
        rng = random.Random(1303)
        yes = 0
        for _ in range(1500):
            sigma = rng.choice((2, 3, 6))
            t = [rng.randint(1, sigma) for _ in range(rng.randint(0, 13))]
            p = [rng.randint(1, sigma) for _ in range(rng.randint(1, 6))]
            tables, dag = build_pattern_tables(p), build_dasg(t)
            witness, explored = match_dag_explored(tables, dag, starts=(0,))
            assert (witness is not None) == naive_opsm(p, t) == opsm(p, t)
            if witness is not None:
                yes += 1
                assert match_dag_explored(tables, dag) == (witness, explored)
        assert 300 < yes < 1200

    def test_exhaustive_tiny_instances(self):
        for tn in range(0, 5):
            for t in product((1, 2), repeat=tn):
                for m in range(1, 4):
                    for p in product((1, 2), repeat=m):
                        assert opsm(p, t) == naive_opsm(p, t)

    @staticmethod
    def record_searches(monkeypatch):
        """(out-lists, witness, explored) of each search opsm makes; opsm
        must not build the subsequence graph."""
        searches = []

        def recording(tables, dag, **kwargs):
            found = match_dag_explored(tables, dag, **kwargs)
            searches.append((dag.out, *found))
            return found

        def refuse(t):
            raise AssertionError("opsm built the whole subsequence graph")

        monkeypatch.setattr(oppm.dag, "match_dag_explored", recording)
        monkeypatch.setattr(oppm.dag, "build_dasg", refuse)
        return searches

    def test_out_lists_are_those_of_build_dasg(self):
        rng = random.Random(2501)
        for _ in range(400):
            sigma = rng.choice((1, 2, 3, 8, 1000, 2**70))
            t = [rng.randint(-sigma, sigma) for _ in range(rng.randint(0, 40))]
            out = build_dasg(t).out
            vertices = list(range(len(t) + 1))
            rng.shuffle(vertices)  # any vertex may be read first
            lazy = oppm.dag._FirstOccurrences(t)
            assert [lazy[v] for v in vertices] == [out[v] for v in vertices]

    def test_search_is_the_one_on_build_dasg(self, monkeypatch):
        searches = self.record_searches(monkeypatch)
        rng = random.Random(2503)
        yes = 0
        for _ in range(300):
            sigma = rng.choice((3, 8, 1000))
            t = tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 70)))
            p = [rng.randint(1, 8) for _ in range(rng.randint(1, 9))]
            full = match_dag_explored(build_pattern_tables(p), build_dasg(t), starts=(0,))
            searches.clear()
            assert opsm(p, t) == (full[0] is not None)
            [(_, *found)] = searches
            assert tuple(found) == full
            yes += full[0] is not None
        assert 100 < yes < 200

    def test_match_at_the_start_builds_one_out_list_per_label(self, monkeypatch):
        searches = self.record_searches(monkeypatch)
        rng = random.Random(2502)
        for m in (2, 3, 5, 8, 13):
            t = list(gen_random_string(2000, 1000, m))
            p = rng.sample(range(1, 1001), m)
            t[:m] = p
            searches.clear()
            assert opsm(p, t) is True
            [(out, witness, _)] = searches
            assert witness == list(range(m + 1))
            assert sorted(out) == list(range(m))


def increasing_map(rng, values):
    """A strictly increasing map of ``values`` onto int64, the smallest
    value going to -2^63 and (with two or more values) the largest to
    2^63 - 1."""
    vals = sorted(set(values))
    inner = set()
    while len(inner) < len(vals) - 2:
        inner.add(rng.randrange(-(2**63) + 1, 2**63 - 1))
    image = [-(2**63), *sorted(inner), 2**63 - 1][: len(vals)]
    return dict(zip(vals, image))


class TestSearchPastOracleLimit:
    """Relations that need no oracle, on texts far longer than
    OPSM_TEXT_LIMIT: the search only compares labels, and a subsequence of
    t read backwards is a subsequence of t reversed."""

    @staticmethod
    def opsm_cases():
        """(p, t, f) with n in the hundreds, m <= 8 and f an increasing map."""
        rng = random.Random(1601)
        for k in range(60):
            n = rng.randint(100, 300)
            m = rng.randint(2, 8)
            if k % 3 == 0:
                # m - 1 falling runs: no increasing subsequence of length m
                t = [rng.randint(1, 1000) for _ in range(n)]
                cuts = sorted(rng.sample(range(1, n), m - 2))
                runs = zip([0, *cuts], [*cuts, n])
                t = [x for a, b in runs for x in sorted(t[a:b], reverse=True)]
                p = sorted(rng.sample(range(1, 100), m))
            elif k % 3 == 1:
                t = [rng.randint(1, 3) for _ in range(n)]
                p = [rng.randint(1, 4) for _ in range(m)]
            else:
                # distinct values: a tie in p would need equal labels, which
                # are rare in this text and make the search explore for long
                t = [rng.randint(1, 1000) for _ in range(n)]
                p = rng.sample(range(1, 100), m)
            yield p, t, increasing_map(rng, [*p, *t])

    def test_opsm_relations(self):
        answers = []
        for p, t, f in self.opsm_cases():
            assert len(t) > OPSM_TEXT_LIMIT
            dag = build_dasg(t)
            found = match_dag_explored(build_pattern_tables(p), dag, starts=(0,))
            mapped = match_dag_explored(
                build_pattern_tables([f[x] for x in p]), build_dasg([f[x] for x in t]), starts=(0,)
            )
            assert mapped == found
            witness = found[0]
            assert opsm(p, t) == (witness is not None) == opsm(p[::-1], t[::-1])
            answers.append(witness is not None)
            if witness is not None:
                assert witness[0] == 0
                edges = set(dag.edges)
                assert all((u, t[v - 1], v) in edges for u, v in zip(witness, witness[1:]))
                assert naive_isomorphic(p, [t[v - 1] for v in witness[1:]])
        assert 15 <= answers.count(False) and 15 <= answers.count(True)

    def test_opsm_relations_in_the_thousands(self, monkeypatch):
        # texts too long to build the subsequence graph of in a test: a
        # "yes" is checked by its witness, and the answers of the random
        # families by the relations
        searches = TestOpsm.record_searches(monkeypatch)
        rng = random.Random(2504)
        answers = []
        for k in range(24):
            m = rng.randint(2, 8)
            if k % 4 == 0:
                # m - 1 falling runs: no increasing subsequence of length m;
                # the search explores for long, so the text is shorter
                n = rng.randint(1000, 2000)
                t = [rng.randint(1, 1000) for _ in range(n)]
                cuts = sorted(rng.sample(range(1, n), m - 2))
                t = [x for a, b in zip([0, *cuts], [*cuts, n]) for x in sorted(t[a:b], reverse=True)]
                assert opsm(sorted(rng.sample(range(1, 100), m)), t) is False
                continue
            sigma = 3 if k % 4 == 1 else 1000
            t = [rng.randint(1, sigma) for _ in range(rng.randint(1000, 5000))]
            p = [rng.randint(1, 4) for _ in range(m)] if sigma == 3 else rng.sample(range(1, 1001), m)
            f = increasing_map(rng, [*p, *t])
            searches.clear()
            found = opsm(p, t)
            [(_, witness, _)] = searches
            assert opsm([f[x] for x in p], [f[x] for x in t]) == found == opsm(p[::-1], t[::-1])
            answers.append(found)
            if found:
                assert witness[0] == 0 and witness == sorted(set(witness))
                assert naive_isomorphic(p, [t[v - 1] for v in witness[1:]])
        assert answers.count(False) >= 2 and answers.count(True) >= 10

    def test_random_dag_relations(self):
        rng = random.Random(1602)
        answers = []
        for _ in range(30):
            v = rng.randint(100, 200)
            dag = gen_random_dag(v, 4 / v, rng.choice((3, 1000)), rng.randrange(2**30))
            p = [rng.randint(1, 8) for _ in range(rng.randint(2, 8))]
            found = match_dag_explored(build_pattern_tables(p), dag)
            f = increasing_map(rng, [*p, *(c for _, c, _ in dag.edges)])
            mapped_dag = build_dag(v, [(a, f[c], b) for a, c, b in dag.edges])
            assert match_dag_explored(build_pattern_tables([f[x] for x in p]), mapped_dag) == found
            # with every edge reversed, rev(p) matches exactly when p did
            back = build_dag(v, [(b, c, a) for a, c, b in dag.edges])
            witness = found[0]
            assert (match_dag(build_pattern_tables(p[::-1]), back) is None) == (witness is None)
            answers.append(witness is not None)
            if witness is not None:
                # gen_random_dag makes at most one edge per vertex pair
                label = {(a, b): c for a, c, b in dag.edges}
                steps = list(zip(witness, witness[1:]))
                assert all(step in label for step in steps)
                assert naive_isomorphic(p, [label[step] for step in steps])
        assert answers.count(False) >= 5 and answers.count(True) >= 5
