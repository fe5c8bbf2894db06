"""End-to-end acceptance gate.

Nine checks, each printing one PASS/FAIL line (run with ``pytest -s`` to
see them).  Every check pins exact expected values or explicit counter
and wall-clock budgets; seeds are fixed so reruns are reproducible.
"""

import random
import time
from itertools import product

from oppm.dag import build_dasg, match_dag, match_dag_explored, opsm
from oppm.gen import gen_adversarial, gen_random_tree
from oppm.oracles import (
    is_subsequence,
    naive_border,
    naive_isomorphic,
    naive_lmax_lmin,
    naive_match_string,
    naive_match_tree,
    naive_opsm,
)
from oppm.pattern import build_pattern_tables, compute_border_array, compute_lmax_lmin
from oppm.stringmatch import match_string
from oppm.tree import build_tree
from oppm.treematch import match_tree
from test_tree import node_depths


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{num}/9] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"check {num} failed: {detail}"


def test_1_worked_example_string_match():
    start = time.perf_counter()
    tables = build_pattern_tables((22, 41, 35, 37))
    positions, _ = match_string(tables, (63, 18, 48, 29, 42, 56, 25, 51))
    elapsed = time.perf_counter() - start
    ok = positions == [5] and elapsed < 0.001
    _report(
        1,
        ok,
        f"worked example: positions {positions} (want [5]) in "
        f"{elapsed * 1e6:.0f} us (budget 1 ms)",
    )


def test_2_exhaustive_small_pattern_tables():
    start = time.perf_counter()
    checked = 0
    ok = True
    for m in range(1, 9):
        for p in product((1, 2, 3), repeat=m):
            lmax, lmin = compute_lmax_lmin(p)
            if (lmax, lmin) != naive_lmax_lmin(p):
                ok = False
            if compute_border_array(p, lmax, lmin) != naive_border(p):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(
        2,
        ok,
        f"exhaustive tables: {checked} patterns over {{1,2,3}} up to length 8 "
        f"agree with brute force in {elapsed:.1f}s (budget 30s)",
    )


def test_3_string_matcher_random_equivalence():
    rng = random.Random(1003)
    start = time.perf_counter()
    ok = True
    for i in range(10000):
        sigma = (2, 5, 100)[i % 3]
        m = rng.randint(1, 8)
        n = rng.randint(0, 64)
        p = [rng.randint(1, sigma) for _ in range(m)]
        t = [rng.randint(1, sigma) for _ in range(n)]
        positions, stats = match_string(build_pattern_tables(p), t)
        if positions != naive_match_string(p, t):
            ok = False
        if not stats.fail_count <= stats.goto_count <= n:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(
        3,
        ok,
        f"string matcher: 10000 random cases agree with brute force in "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_4_tree_matcher_random_equivalence():
    rng = random.Random(1004)
    start = time.perf_counter()
    ok = True
    for i in range(500):
        sigma = (2, 5, 100)[i % 3]
        n = rng.randint(1, 500)
        tree = gen_random_tree(n, sigma, rng.randrange(2**30))
        m = rng.randint(1, 8)
        p = [rng.randint(1, sigma) for _ in range(m)]
        tables = build_pattern_tables(p)
        pruned = match_tree(tables, tree, prune=True)
        unpruned = match_tree(tables, tree, prune=False)
        expected = naive_match_tree(p, tree)
        if not pruned.matched_nodes == unpruned.matched_nodes == expected:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(
        4,
        ok,
        f"tree matcher: 500 random trees, pruned = unpruned = brute force in "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_5_pruned_counters_and_wall_clock_scaling():
    ok = True
    details = []
    for h in (8, 10, 12, 14):
        m = h - 2
        inst = gen_adversarial(h, m)
        n = inst.tree.node_count
        report = match_tree(build_pattern_tables(inst.pattern), inst.tree, prune=True)
        if report.stats.fail_count > 4 * (n + m):
            ok = False
        if report.stats.goto_count > n:
            ok = False
        details.append(f"h={h}: fail={report.stats.fail_count}<=4(N+m)={4 * (n + m)}")

    # fixed pattern length, doubled node count, median of 5 timed runs
    medians = []
    for h in (13, 14):
        inst = gen_adversarial(h, 6)
        tables = build_pattern_tables(inst.pattern)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            match_tree(tables, inst.tree, prune=True)
            times.append(time.perf_counter() - start)
        medians.append(sorted(times)[2])
    ratio = medians[1] / medians[0]
    if ratio > 2.2:
        ok = False
    _report(
        5,
        ok,
        "pruned counters within budget at h in {8,10,12,14} "
        f"({'; '.join(details)}); doubling N scales wall clock x{ratio:.2f} "
        f"(budget 2.2)",
    )


def test_6_unpruned_blowup_and_monotone_ratio():
    start = time.perf_counter()
    ok = True
    ratios = []
    for h in (8, 10, 12, 14):
        m = h - 2
        inst = gen_adversarial(h, m)
        tables = build_pattern_tables(inst.pattern)
        pruned = match_tree(tables, inst.tree, prune=True)
        unpruned = match_tree(tables, inst.tree, prune=False)
        if unpruned.stats.fail_count < (m - 1) * 2 ** (h - 2):
            ok = False
        ratios.append(unpruned.stats.fail_count / pruned.stats.fail_count)
    if not all(a < b for a, b in zip(ratios, ratios[1:])):
        ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(
        6,
        ok,
        f"unpruned failure blowup reproduced; naive/pruned ratios "
        f"{['%.2f' % r for r in ratios]} increase with h in {elapsed:.1f}s "
        f"(budget 60s)",
    )


def test_7_subsequence_graph_shape():
    t = (5, 2, 1, 4, 3, 6)
    dag = build_dasg(t)
    out0 = sum(1 for e in dag.edges if e[0] == 0)
    in_label_ok = all(
        {c for u, c, v in dag.edges if v == j} == {t[j - 1]}
        for j in range(1, dag.vertex_count)
    )
    ok = (
        dag.vertex_count == 7
        and len(dag.edges) == 21
        and out0 == 6
        and in_label_ok
    )
    _report(
        7,
        ok,
        f"subsequence graph of {t}: {dag.vertex_count} vertices (want 7), "
        f"{len(dag.edges)} edges (want 21), source out-degree {out0} (want 6), "
        f"in-labels uniform: {in_label_ok}",
    )


def test_8_subsequence_reduction_equivalence_and_witnesses():
    rng = random.Random(1008)
    start = time.perf_counter()
    ok = True
    yes_count = 0
    for i in range(2000):
        sigma = (2, 4, 50)[i % 3]
        tn = rng.randint(0, 12)
        m = rng.randint(1, 6)
        t = [rng.randint(1, sigma) for _ in range(tn)]
        p = [rng.randint(1, sigma) for _ in range(m)]
        found = opsm(p, t)
        if found != naive_opsm(p, t):
            ok = False
        if found:
            yes_count += 1
            witness = match_dag(build_pattern_tables(p), build_dasg(t))
            if witness is None:
                ok = False
            else:
                labels = [t[v - 1] for v in witness[1:]]
                if not naive_isomorphic(p, labels) or not is_subsequence(labels, t):
                    ok = False
    # qualitative cost record: path search on swapped-pair texts
    explored = []
    for n in (6, 8, 10, 12):
        t = []
        for k in range(1, n, 2):
            t.extend((k + 1, k))
        p = tuple(range(1, n // 2 + 2))
        _, count = match_dag_explored(build_pattern_tables(p), build_dasg(t))
        explored.append((n, count))
    if not all(a[1] < b[1] for a, b in zip(explored, explored[1:])):
        ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(
        8,
        ok,
        f"subsequence reduction: 2000 cases agree ({yes_count} yes, all "
        f"witnesses verified); explored counts {explored} grow with text size; "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_9_chain_bridge():
    rng = random.Random(1009)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 64)
        sigma = rng.choice((2, 5, 100))
        labels = [rng.randint(1, sigma) for _ in range(n)]
        chain = build_tree([(i, i + 1, labels[i]) for i in range(n)])
        m = rng.randint(1, 8)
        p = [rng.randint(1, sigma) for _ in range(m)]
        tables = build_pattern_tables(p)
        positions, _ = match_string(tables, labels)
        report = match_tree(tables, chain)
        depth = node_depths(chain)
        if [depth[v] for v in report.matched_nodes] != positions:
            ok = False
    _report(
        9,
        ok,
        "chain bridge: 200 random chains map tree matches exactly onto "
        "string matches",
    )
