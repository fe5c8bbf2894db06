"""Instance generators: the adversarial tree family and seeded random inputs.

The adversarial family is a complete binary tree of height h whose root
paths are strictly increasing down to depth h-2, where every node sprouts
a 0-labeled and a 1-labeled child; leaf edges are labeled 0.  Against the
increasing pattern (2, ..., m+1) every 0/1 edge forces a failure chain,
so the unpruned matcher pays m-1 failures at each of the 2^(h-2) deep
branch points while the pruned matcher cuts each chain after two steps.
"""

import random
from itertools import islice, repeat

from ._record import FrozenRecord
from .dag import TextDag, build_dag
from .pattern import INT64_MAX
from .tree import TextTree, build_tree


class AdversarialInstance(FrozenRecord):
    tree: TextTree
    pattern: tuple[int, ...]


def gen_adversarial(h: int, m: int) -> AdversarialInstance:
    """Build the height-h adversarial tree and the pattern (2, ..., m+1).

    Node ids are heap-ordered (node k's child ids are 2k+1 and 2k+2).  The edge
    into a node at depth d is labeled d+1 for d <= h-2, then 0 (left) or
    1 (right) at depth h-1, then 0 at the leaves.  N = 2^(h+1) - 1.
    Heights above 24 are refused before anything is built: a process's
    peak memory about doubles per level, from 75 MB at h = 17.
    """
    if h < 3:
        raise ValueError("height must be at least 3")
    if h > 24:
        raise ValueError("height must be at most 24")
    if not 1 <= m <= h - 2:
        raise ValueError("pattern length must be between 1 and h - 2")
    n = 2 ** (h + 1) - 1
    edges = []
    for child in range(1, n):
        d = (child + 1).bit_length() - 1  # depth of a heap-ordered node
        if d <= h - 2:
            lab = d + 1
        elif d == h - 1:
            lab = (child - 1) % 2  # an odd id is a left child
        else:
            lab = 0
        edges.append(((child - 1) // 2, child, lab))
    tree = build_tree(edges)
    return AdversarialInstance(tree=tree, pattern=tuple(range(2, m + 2)))


def _check_alphabet(sigma: int) -> None:
    """Labels are drawn from 1..sigma, so sigma must be a signed 64-bit
    integer for the files the generators write to parse back."""
    if sigma < 1:
        raise ValueError("alphabet size must be at least 1")
    if sigma > INT64_MAX:
        raise ValueError(f"alphabet size must be at most {INT64_MAX}")


# The draw rule: on CPython 3.10-3.12, Random.randint(1, sigma) is
# 1 + randrange(sigma), and randrange(b) takes k = b.bit_length() bits from
# getrandbits, drawing again while the draw is >= b.  The generators take
# these draws from the seeded getrandbits themselves, in the same order, so
# a seed gives what randint/randrange calls give it, without three Python
# frames per label.


def gen_random_string(n: int, sigma: int, seed: int) -> tuple[int, ...]:
    """Uniform characters from 1..sigma; deterministic for a fixed seed.

    Each character is 1 + a draw below sigma by the draw rule above, so a
    seed gives the string that ``randint(1, sigma)`` calls give it.
    """
    if n < 0:
        raise ValueError("length cannot be negative")
    _check_alphabet(sigma)
    draws = map(random.Random(seed).getrandbits, repeat(sigma.bit_length()))
    return tuple(map((1).__add__, islice(filter(sigma.__gt__, draws), n)))


def gen_random_tree(n: int, sigma: int, seed: int) -> TextTree:
    """Attach node i to a uniformly chosen earlier node; labels 1..sigma.

    Node i draws its parent below i, then its label below sigma, by the
    draw rule above, so a seed gives the tree that ``randrange(i)`` and
    ``randint(1, sigma)`` calls give it.
    """
    if n < 1:
        raise ValueError("node count must be at least 1")
    _check_alphabet(sigma)
    bits = random.Random(seed).getrandbits
    k = sigma.bit_length()
    edges = []
    for i in range(1, n):
        ki = i.bit_length()
        parent = bits(ki)
        while parent >= i:
            parent = bits(ki)
        lab = bits(k)
        while lab >= sigma:
            lab = bits(k)
        edges.append((parent, i, lab + 1))
    return build_tree(edges)


def gen_random_dag(v: int, density: float, sigma: int, seed: int) -> TextDag:
    """Independent forward edges i -> j (i < j), acyclic by construction.
    A draw per vertex pair makes the work quadratic in v, so vertex counts
    above 4096 are refused before anything is drawn; at 4096 and density
    0.2 the DAG already has about 1.7 million edges.  Each pair draws
    ``random()`` and, below the density, a label by the draw rule above, so
    a seed gives the DAG that ``random()`` and ``randint(1, sigma)`` calls
    give it."""
    if v < 1:
        raise ValueError("vertex count must be at least 1")
    if v > 4096:
        raise ValueError("vertex count must be at most 4096")
    if not 0.0 <= density <= 1.0:  # NaN fails both comparisons
        raise ValueError("density must lie in [0, 1]")
    _check_alphabet(sigma)
    rng = random.Random(seed)
    bits = rng.getrandbits
    draw = rng.random
    k = sigma.bit_length()
    edges = []
    for i in range(v):
        for j in range(i + 1, v):
            if draw() < density:
                lab = bits(k)
                while lab >= sigma:
                    lab = bits(k)
                edges.append((i, lab + 1, j))
    return build_dag(v, edges)
