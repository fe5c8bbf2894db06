"""The workloads: seeded inputs, each query in its CLI and library form,
and the check of each answer.

A workload function generates its inputs from the seed, writes its files
and returns its queries; ``run.py`` times it as the set-up.  Every check
is deferred to the first answer it sees and remembered per answer, so
set-up time covers generating and writing only.

Patterns use distinct values, so the match density of a random text does
not depend on whether the seed happened to draw ties.  Besides its own
queries, every workload runs one small query on each structure its own
queries leave out, so every layer does measured work in every workload.
"""

import functools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
from oppm import gen
from oppm.dag import build_dag, build_dasg, match_dag, opsm
from oppm.pattern import build_pattern_tables
from oppm.stringmatch import match_string
from oppm.tree import build_tree
from oppm.treematch import match_tree

FULL = dict(
    text=10**6, sigma=100, dense_m=4, sparse_m=12, planted=16,
    tree=200_000, tree_m=4, height=15,
    dasg_text=2000, dasg_sigma=1000, dasg_m=8, organ=26,
    dag_vertices=500, dag_density=0.1, dag_sigma=5, dag_m=5,
    probe_text=5000, probe_tree=2000, probe_opsm=16, probe_m=4,
)
# every workload end to end in about a second, for the benchmark's tests
SMALL = dict(
    FULL, text=5000, planted=4, tree=2000, height=8,
    dasg_text=200, organ=12, dag_vertices=60, dag_density=0.2,
    probe_text=500, probe_tree=200, probe_opsm=10,
)


@dataclass
class Query:
    """One query: its CLI arguments (after ``python -m oppm.cli``), the same
    query through the library, and how either answer is read and checked."""

    label: str
    argv: list
    api: Callable[[], object]
    from_api: Callable[[object], object]
    from_cli: Callable[[str], object]  # raises ValueError on malformed output
    verify: Callable[[object], bool]


def _remembered(verify):
    seen = {}

    def remembered(answer):
        if answer not in seen:
            seen[answer] = verify(answer)
        return seen[answer]

    return remembered


def _write_seq(path: Path, seq) -> str:
    path.write_text(" ".join(map(str, seq)) + "\n")
    return str(path)


def _write_tree(path: Path, edges) -> str:
    lines = "".join(f"{u} {v} {lab}\n" for u, v, lab in edges)
    path.write_text(f"tree {len(edges) + 1}\n{lines}")
    return str(path)


def _write_dag(path: Path, vertices: int, edges) -> str:
    lines = "".join(f"{u} {v} {lab}\n" for u, lab, v in edges)
    path.write_text(f"dag {vertices} {len(edges)}\n{lines}")
    return str(path)


def _tree_edges(tree):
    return [(tree.parent[v], v, tree.edge_label[v]) for v in range(1, tree.node_count)]


def _pattern(rng: random.Random, m: int, sigma: int) -> tuple:
    return tuple(rng.sample(range(1, sigma + 1), m))


def _plant(rng: random.Random, t: list, p, positions, sigma: int) -> None:
    """Overwrite t at the given ascending positions with values that are
    order-isomorphic to the distinct-valued pattern p."""
    values = sorted(rng.sample(range(1, sigma + 1), len(p)))
    for r, i in enumerate(sorted(range(len(p)), key=p.__getitem__)):
        t[positions[i]] = values[r]


# ---------------------------------------------------------------------------
# reading CLI output


def _ids_and_stats(text: str):
    *ids, last = text.splitlines() or [""]
    stats = re.fullmatch(r"goto=(\d+) fail=(\d+)", last)
    if stats is None:
        raise ValueError(f"no stats line: {last!r}")
    return tuple(map(int, ids)), int(stats[1]), int(stats[2])


def _yes_no(text: str) -> bool:
    if text not in ("yes\n", "no\n"):
        raise ValueError(f"not yes or no: {text[:40]!r}")
    return text == "yes\n"


def _dag_answer(text: str):
    lines = text.splitlines()
    if lines == ["no"]:
        return None
    if len(lines) != 2 or lines[0] != "yes":
        raise ValueError(f"not a witness: {text[:40]!r}")
    return tuple(map(int, lines[1].split()))


# ---------------------------------------------------------------------------
# queries


def string_query(label, p, t, pfile, tfile, rng) -> Query:
    def from_api(result):
        ends, stats = result
        return tuple(ends), stats.goto_count, stats.fail_count

    return Query(
        label,
        ["match-string", pfile, tfile, "--stats"],
        lambda: match_string(build_pattern_tables(p), t),
        from_api,
        _ids_and_stats,
        _remembered(lambda answer: check.check_string(p, t, answer, rng)),
    )


def tree_query(label, p, edges, pfile, tfile, rng, checked_tree, prune=True, adversarial=False) -> Query:
    """``checked_tree`` returns the benchmark's own ``check.Tree`` of the edges."""

    def verify(answer):
        tree = checked_tree()
        m = len(p)
        expected = check.adversarial_matches(tree, m) if adversarial else None
        if not check.check_tree(p, tree, answer, prune, rng, expected):
            return False
        return prune or not adversarial or answer[2] >= check.adversarial_unpruned_floor(tree, m)

    def from_api(report):
        return tuple(report.matched_nodes), report.stats.goto_count, report.stats.fail_count

    return Query(
        label,
        ["match-tree", pfile, tfile, "--stats"] + ([] if prune else ["--no-prune"]),
        lambda: match_tree(build_pattern_tables(p), build_tree(edges), prune=prune),
        from_api,
        _ids_and_stats,
        _remembered(verify),
    )


def opsm_query(label, p, t, pfile, tfile, expected, check_witness=False) -> Query:
    """``expected`` returns the benchmark's own answer.  With
    ``check_witness`` a yes must also come with a valid library witness."""

    def verify(found):
        if found != expected():
            return False
        if not (found and check_witness):
            return True
        witness = match_dag(build_pattern_tables(p), build_dasg(t))
        return check.subsequence_witness_ok(p, t, witness)

    return Query(
        label,
        ["opsm", pfile, tfile],
        lambda: opsm(p, t),
        bool,
        _yes_no,
        _remembered(verify),
    )


def dag_query(label, p, vertices, edges, pfile, dfile) -> Query:
    """``edges`` are (source, label, target) and contain a planted path
    whose labels are p, so the answer must be yes."""
    plain = [(u, v, lab) for u, lab, v in edges]
    return Query(
        label,
        ["match-dag", pfile, dfile, "--witness"],
        lambda: match_dag(build_pattern_tables(p), build_dag(vertices, edges)),
        lambda witness: None if witness is None else tuple(witness),
        _dag_answer,
        _remembered(lambda witness: check.dag_witness_ok(p, plain, witness)),
    )


def _probes(kinds, seed: int, z: dict, work: Path) -> list:
    """Small queries on the structures a workload's own queries leave out."""
    rng = random.Random(f"probe:{seed}")
    m, sigma = z["probe_m"], z["sigma"]
    out = []
    if "string" in kinds:
        p = _pattern(rng, m, sigma)
        t = gen.gen_random_string(z["probe_text"], sigma, seed)
        out.append(string_query(
            "probe-string", p, t, _write_seq(work / "probe-string.p", p),
            _write_seq(work / "probe-string.t", t), random.Random(f"probe-string:{seed}"),
        ))
    if "tree" in kinds:
        p = _pattern(rng, m, sigma)
        edges = _tree_edges(gen.gen_random_tree(z["probe_tree"], sigma, seed))
        out.append(tree_query(
            "probe-tree", p, edges, _write_seq(work / "probe-tree.p", p),
            _write_tree(work / "probe-tree.t", edges), random.Random(f"probe-tree:{seed}"),
            functools.cache(lambda: check.Tree(edges)),
        ))
    if "opsm" in kinds:
        p = _pattern(rng, m, sigma)
        t = gen.gen_random_string(z["probe_opsm"], sigma, seed)
        out.append(opsm_query(
            "probe-opsm", p, t, _write_seq(work / "probe-opsm.p", p),
            _write_seq(work / "probe-opsm.t", t), functools.cache(lambda: check.brute_opsm(p, t)),
        ))
    return out


# ---------------------------------------------------------------------------
# workloads


def _string_workload(name, m, planted, seed, z, work):
    rng = random.Random(f"{name}:{seed}")
    sigma = z["sigma"]
    p = _pattern(rng, m, sigma)
    t = list(gen.gen_random_string(z["text"], sigma, seed))
    block = len(t) // max(planted, 1)
    for k in range(planted):
        start = k * block + rng.randrange(block - m)
        _plant(rng, t, p, range(start, start + m), sigma)
    t = tuple(t)
    query = string_query(
        name, p, t, _write_seq(work / "p.txt", p), _write_seq(work / "t.txt", t),
        random.Random(f"{name}-check:{seed}"),
    )
    return [query] + _probes(("tree", "opsm"), seed, z, work)


def string_dense(seed: int, z: dict, work: Path) -> list:
    return _string_workload("string-dense", z["dense_m"], 0, seed, z, work)


def string_sparse(seed: int, z: dict, work: Path) -> list:
    return _string_workload("string-sparse", z["sparse_m"], z["planted"], seed, z, work)


def tree_workload(seed: int, z: dict, work: Path) -> list:
    rng = random.Random(f"tree:{seed}")
    p = _pattern(rng, z["tree_m"], z["sigma"])
    edges = _tree_edges(gen.gen_random_tree(z["tree"], z["sigma"], seed))
    h = z["height"]
    adv = gen.gen_adversarial(h, h - 2)
    adv_edges = _tree_edges(adv.tree)
    adv_tree = functools.cache(lambda: check.Tree(adv_edges))
    pfile, afile = _write_seq(work / "adv.p", adv.pattern), _write_tree(work / "adv.t", adv_edges)
    queries = [
        tree_query(
            "tree-random", p, edges, _write_seq(work / "p.txt", p), _write_tree(work / "t.txt", edges),
            random.Random(f"tree-check:{seed}"), functools.cache(lambda: check.Tree(edges)),
        ),
        tree_query("tree-adversarial", adv.pattern, adv_edges, pfile, afile, None, adv_tree, adversarial=True),
        tree_query(
            "tree-adversarial-unpruned", adv.pattern, adv_edges, pfile, afile, None, adv_tree,
            prune=False, adversarial=True,
        ),
    ]
    return queries + _probes(("string", "opsm"), seed, z, work)


def _planted_walk(rng: random.Random, vertices: int, edges, m: int) -> tuple:
    """Labels along a random directed path of m edges."""
    out = [[] for _ in range(vertices)]
    for u, lab, v in edges:
        out[u].append((v, lab))
    while True:
        u, labels = rng.randrange(vertices), []
        while len(labels) < m and out[u]:
            u, lab = rng.choice(out[u])
            labels.append(lab)
        if len(labels) == m:
            return tuple(labels)


def dag_workload(seed: int, z: dict, work: Path) -> list:
    rng = random.Random(f"dag:{seed}")
    sigma = z["dasg_sigma"]
    p = _pattern(rng, z["dasg_m"], sigma)
    t = list(gen.gen_random_string(z["dasg_text"], sigma, seed))
    # planted at the start, where the depth-first search takes its first
    # path: this query measures building the subsequence graph, and a
    # search whose cost swings with the seed (by 10^4 on some seeds) is
    # the organ-pipe query's job
    _plant(rng, t, p, range(len(p)), sigma)
    t = tuple(t)

    # organ pipe: (2, 1, 4, 3, ...) against an increasing pattern one
    # longer than the text's longest increasing subsequence
    n = z["organ"]
    organ = tuple(x for k in range(1, n, 2) for x in (k + 1, k))
    rising = tuple(range(1, n // 2 + 2))

    def organ_expected():
        if check.longest_increasing(organ) >= len(rising):
            raise RuntimeError("organ-pipe text has a long increasing subsequence")
        return False

    vertices = z["dag_vertices"]
    dag = gen.gen_random_dag(vertices, z["dag_density"], z["dag_sigma"], seed)
    walk = _planted_walk(rng, vertices, dag.edges, z["dag_m"])

    queries = [
        opsm_query(
            "dag-opsm-planted", p, t, _write_seq(work / "p.txt", p), _write_seq(work / "t.txt", t),
            lambda: True, check_witness=True,
        ),
        opsm_query(
            "dag-opsm-organ-pipe", rising, organ, _write_seq(work / "organ.p", rising),
            _write_seq(work / "organ.t", organ), organ_expected,
        ),
        dag_query(
            "dag-random", walk, vertices, list(dag.edges), _write_seq(work / "walk.p", walk),
            _write_dag(work / "random.dag", vertices, dag.edges),
        ),
    ]
    return queries + _probes(("string", "tree"), seed, z, work)


WORKLOADS = {
    "string-dense": string_dense,
    "string-sparse": string_sparse,
    "tree": tree_workload,
    "dag": dag_workload,
}
