"""Deterministic random generators and reference oracles shared across
the test modules."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from subsetcurrents import Subgroup, Word
from subsetcurrents.cylinders import RationalCurrent


def random_word(rng: random.Random, rank: int = 2, max_len: int = 5) -> Word:
    length = rng.randint(1, max_len)
    letters: list[int] = []
    while len(letters) < length:
        m = rng.choice([i for i in range(-rank, rank + 1) if i])
        if letters and m == -letters[-1]:
            continue
        letters.append(m)
    return Word(rank, tuple(letters))


def random_subgroup(rng: random.Random, rank: int = 2, max_gens: int = 3,
                    max_len: int = 5) -> Subgroup:
    count = rng.randint(1, max_gens)
    return Subgroup([random_word(rng, rank, max_len) for _ in range(count)],
                    rank)


def random_current(rng: random.Random, rank: int = 2, max_terms: int = 3,
                   max_len: int = 4) -> RationalCurrent:
    terms = [(Fraction(rng.randint(1, 3), rng.randint(1, 3)),
              random_subgroup(rng, rank, max_len=max_len))
             for _ in range(rng.randint(1, max_terms))]
    return RationalCurrent(terms, rank)


# Reference oracles: the fixed-point fold and the layer-per-pass prune
# that `stallings._fold_edges` and `stallings._prune_edges` must match
# output for output.  Quadratic; keep the inputs small.

def reference_fold_edges(num_vertices: int,
                         edges: Sequence[tuple[int, int, int]]
                         ) -> tuple[int, list[tuple[int, int, int]],
                                    list[int]]:
    """Stallings folding by repeated identification; returns the quotient.

    The result is (new_count, new_edges, mapping old vertex -> new vertex).
    """
    parent = list(range(num_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    work = list(edges)
    while True:
        canon = {(find(s), find(d), l) for (s, d, l) in work}
        merged = False
        out: dict[tuple[int, int], int] = {}
        inc: dict[tuple[int, int], int] = {}
        for (s, d, l) in canon:
            if (s, l) in out and find(out[(s, l)]) != find(d):
                union(out[(s, l)], d)
                merged = True
            else:
                out[(s, l)] = d
            if (d, l) in inc and find(inc[(d, l)]) != find(s):
                union(inc[(d, l)], s)
                merged = True
            else:
                inc[(d, l)] = s
        work = list(canon)
        if not merged:
            break
    roots = sorted({find(v) for v in range(num_vertices)})
    new_id = {r: i for i, r in enumerate(roots)}
    mapping = [new_id[find(v)] for v in range(num_vertices)]
    new_edges = sorted({(mapping[s], mapping[d], l) for (s, d, l) in edges})
    return len(roots), new_edges, mapping


def reference_prune_edges(num_vertices: int,
                          edges: Sequence[tuple[int, int, int]],
                          protect: Optional[int]
                          ) -> tuple[int, list[tuple[int, int, int]],
                                     dict[int, int]]:
    """Iteratively delete degree-<=1 vertices (except `protect`)."""
    alive = set(range(num_vertices))
    cur = list(edges)
    while True:
        deg: dict[int, int] = {v: 0 for v in alive}
        for (s, d, _l) in cur:
            deg[s] += 1
            deg[d] += 1
        doomed = {v for v in alive if deg[v] <= 1 and v != protect}
        if not doomed:
            break
        alive -= doomed
        cur = [(s, d, l) for (s, d, l) in cur
               if s not in doomed and d not in doomed]
    new_id = {v: i for i, v in enumerate(sorted(alive))}
    new_edges = sorted((new_id[s], new_id[d], l) for (s, d, l) in cur)
    return len(alive), new_edges, new_id
