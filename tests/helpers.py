"""Deterministic random generators and reference oracles shared across
the test modules."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from hypothesis import strategies as st

from subsetcurrents import (CoreGraph, LabeledGraph, Subgroup, Word,
                            cylinder_table, fold, parse_word)
from subsetcurrents.approx import subgroup_Hn
from subsetcurrents.cylinders import (LensKey, RationalCurrent, RoundGraph,
                                      WeightTable, WordTuple, _traced_words)
from subsetcurrents.errors import (AdmissibilityError, BasisMismatchError,
                                   InfeasibleKernelError, LetterRangeError)
from subsetcurrents.realize import WeightSystem
from subsetcurrents.stallings import WordLike, _as_word, signed_adjacency
from subsetcurrents.words import (ALPHABET, _SIGNED, _check_letters,
                                  _check_rank, free_reduce)


# Words, cores and round-graphs, and the G_n family, that only the tests
# build.

def reduce(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce a raw signed-index sequence into a Word."""
    return Word._stored(rank, free_reduce(_check_letters(letters, rank)))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w as conjugator * core * conjugator^-1 with core cyclically reduced."""
    letters = list(w.letters)
    prefix: list[int] = []
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        prefix.append(letters[0])
        letters = letters[1:-1]
    return Word(w.rank, letters), Word(w.rank, prefix)


def enumerate_reduced_words(rank: int, max_len: int) -> Iterator[Word]:
    """All freely reduced words of length <= max_len, shortest first."""
    yield Word(rank)
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt: list[tuple[int, ...]] = []
        for prefix in frontier:
            last = prefix[-1] if prefix else 0
            for m in _SIGNED[:2 * rank]:
                if m != -last:
                    w = prefix + (m,)
                    nxt.append(w)
                    yield Word(rank, w)
        frontier = nxt


def add_path(g: LabeledGraph, start: int, end: int,
             letters: Sequence[int]) -> None:
    """Attach a path from `start` to `end` reading the signed letters,
    through fresh vertices numbered in reading order; an empty path
    between two vertices raises ValueError, since it cannot be laid."""
    if not letters and start != end:
        raise ValueError(f"no letters to lay from {start} to {end}")
    prev = start
    last = len(letters) - 1
    for i, m in enumerate(letters):
        if i == last:
            nxt = end
        else:
            nxt = g.num_vertices
            g.num_vertices += 1
        g.edges.append((prev, nxt, m) if m > 0 else (nxt, prev, -m))
        prev = nxt


def conjugate(c: CoreGraph, g: WordLike) -> CoreGraph:
    """Basepointed core of g H g^-1: attach a g-path, fold, re-core."""
    if c.basepoint is None:
        raise ValueError("conjugation needs a basepointed core")
    word = _as_word(g, c.rank)
    if not word.letters:
        return c
    raw = LabeledGraph(c.rank, c.num_vertices + 1, c.edges, c.num_vertices)
    add_path(raw, raw.basepoint, c.basepoint, word.letters)
    return fold(raw)


# The reference for `stallings._canonical_key`: one full BFS and one full
# sort per start, and the least encoding over all of them.
def reference_canonical_key(c: CoreGraph) -> tuple:
    """(vertex count, least sorted edge tuple over the relabelings by BFS
    from each start, scanning signed letters x, X, y, Y, ...); the starts
    are the basepoint, or every vertex of a hull-core."""
    if c.num_vertices == 0:
        return (0, ())
    letters = _SIGNED[:2 * c.rank]

    def encoding(start) -> tuple:
        order = {start: 0}
        queue = [start]
        for v in queue:
            for m in letters:
                w = c._step[v].get(m)
                if w is not None and w not in order:
                    order[w] = len(order)
                    queue.append(w)
        return tuple(sorted((order[s], order[d], l) for (s, d, l) in c.edges))

    starts = range(c.num_vertices) if c.basepoint is None else (c.basepoint,)
    return (c.num_vertices, min(map(encoding, starts)))


def canonical_form(c: CoreGraph) -> CoreGraph:
    """Relabel vertices canonically: BFS from the basepoint, or from the
    vertex of least BFS signature for hull-cores."""
    n, edges = reference_canonical_key(c)
    base = 0 if c.basepoint is not None else None
    return CoreGraph(c.rank, n, edges, base)


def restrict(t: RoundGraph, new_radius: int) -> RoundGraph:
    """Vertices of length <= new_radius; always a valid round-graph."""
    if new_radius > t.radius:
        raise ValueError(f"cannot restrict radius {t.radius} to {new_radius}")
    return RoundGraph(t.rank, new_radius,
                      [w for w in t.words if len(w) <= new_radius])


def full_ball(rank: int, radius: int) -> RoundGraph:
    """The whole ball B(id, radius): the round-graph of the full tree."""
    return RoundGraph(rank, radius, _ball_words(rank, radius))


def axis(rank: int, generator: int, radius: int) -> RoundGraph:
    """The axis pattern of a generator: powers g^k, |k| <= radius."""
    words = [()]
    for k in range(1, radius + 1):
        words.append((generator,) * k)
        words.append((-generator,) * k)
    return RoundGraph(rank, radius, words)


@lru_cache(maxsize=None)
def _ball_words(rank: int, radius: int) -> tuple[WordTuple, ...]:
    return tuple(w.letters for w in enumerate_reduced_words(rank, radius))


def realizable_witness(t: RoundGraph) -> CoreGraph:
    """A hull-core whose vertex 0 has local ball exactly t.

    Constructive content of the cylinder definition: the subtree is glued
    into a finite folded graph of minimum degree 2 by chaining its sphere
    leaves through fresh midpoint vertices.  Vertices of depth < radius
    keep exactly their subtree edges, so nothing new enters the root's
    radius-r neighborhood; in the universal cover the chains extend the
    leaves to rays.
    """
    if t.radius == 0 or t.rank == 1:
        # Any loop vertex works at radius 0; rank 1 admits only full balls,
        # which a bare cycle already unrolls to.
        return CoreGraph(t.rank, 1, [(0, 0, 1)], None)
    index = {w: i for i, w in enumerate(t.words)}
    edges: list[tuple[int, int, int]] = []
    # (vertex, signed letter) slots taken: l leaving, -l arriving.
    used: set[tuple[int, int]] = set()

    def occupy(src: int, dst: int, label: int) -> None:
        edges.append((src, dst, label))
        used.add((src, label))
        used.add((dst, -label))

    for w in t.words:
        if not w:
            continue
        parent, child, m = index[w[:-1]], index[w], w[-1]
        if m > 0:
            occupy(parent, child, m)
        else:
            occupy(child, parent, -m)

    leaves = [index[w] for w in t.words if len(w) == t.radius]
    count = len(t.words)
    for i, leaf in enumerate(leaves):
        nxt = leaves[(i + 1) % len(leaves)]
        mid = count
        count += 1
        # Attach mid to each endpoint through any free slot whose mirror
        # slot at mid is still open; mid starts fully free, so at most one
        # endpoint choice is ever blocked.
        for endpoint in (leaf, nxt):
            for label in range(1, t.rank + 1):
                if (endpoint, label) not in used and \
                        (mid, -label) not in used:
                    occupy(endpoint, mid, label)
                    break
                if (endpoint, -label) not in used and \
                        (mid, label) not in used:
                    occupy(mid, endpoint, label)
                    break
            else:
                raise AssertionError("no free slot; cannot happen for rank >= 2")
    return CoreGraph(t.rank, count, edges, None)


def local_ball(hull: CoreGraph, vertex: int, radius: int) -> RoundGraph:
    """Radius-r neighborhood of a hull-core vertex in the unrolled tree.

    Reduced label words of length <= radius traced from the vertex are
    exactly the vertices of g CH_H around the identity for the cosets
    over this quotient vertex.
    """
    if hull.num_vertices == 0:
        raise ValueError("the empty hull has no local balls")
    if hull.basepoint is not None:
        raise ValueError("local balls are read off the hull-core form")
    if not 0 <= vertex < hull.num_vertices:
        raise ValueError(f"vertex {vertex} out of range")
    words, _key = _traced_words(hull, vertex, radius)
    return RoundGraph(hull.rank, radius, words)


def subgroup_Gn(n: int) -> Subgroup:
    """The index-n normal subgroup family: subgroup_Hn's generators plus x."""
    return Subgroup((Word(2, (1,)),) + subgroup_Hn(n).generators, 2)


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


def random_finite_cover(rank: int, degree: int, seed: int) -> CoreGraph:
    """Connected degree-`degree` cover of the rose: one random permutation
    per generator, resampled until connected.  Deterministic per seed."""
    return random_cover(Subgroup.full(rank).core, degree, seed)


def random_cover(c: CoreGraph, degree: int, seed: int) -> CoreGraph:
    """Connected degree-`degree` cover of a basepointed core: one random
    permutation per edge.  Reads off an index-`degree` subgroup of the
    core's subgroup, based at the lift (basepoint, sheet 0)."""
    if c.basepoint is None:
        raise ValueError("covering needs a basepointed core")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    rng = random.Random(seed)
    while True:
        edges = []
        for (s, d, l) in c.edges:
            perm = list(range(degree))
            rng.shuffle(perm)
            edges.extend((s * degree + i, d * degree + perm[i], l)
                         for i in range(degree))
        step = signed_adjacency(c.rank, c.num_vertices * degree, edges)
        if len(connected_components(step)) == 1:
            break
    base = c.basepoint * degree
    n, edges, keep = reference_prune_edges(c.num_vertices * degree, edges,
                                           base)
    return CoreGraph(c.rank, n, edges, keep[base])


def random_current(rng: random.Random, rank: int = 2, max_terms: int = 3,
                   max_len: int = 4) -> RationalCurrent:
    terms = [(Fraction(rng.randint(1, 3), rng.randint(1, 3)),
              random_subgroup(rng, rank, max_len=max_len))
             for _ in range(rng.randint(1, max_terms))]
    return RationalCurrent(terms, rank)


def noised_floats(table: WeightTable, rng: random.Random
                  ) -> dict[RoundGraph, float]:
    """Each weight of an exact table as a float times 1 + a uniform
    relative noise below 1e-6, the way the benchmark's repair items are
    made."""
    return {t: float(v) * (1 + rng.uniform(-1e-6, 1e-6))
            for t, v in table.entries.items()}


# Reference order: the round-graph order spelled on letter pairs
# (|m|, m < 0), independent of the integer letter codes that
# `cylinders` sorts and compares by.

def _letter_key(m: int) -> tuple[int, bool]:
    # Generator before its inverse: x < X < y < Y ...
    return (abs(m), m < 0)


def word_key(w: WordTuple) -> tuple:
    return (len(w), tuple(_letter_key(m) for m in w))


def reference_canonical_words(words) -> tuple[WordTuple, ...]:
    return tuple(sorted(set(words), key=word_key))


def reference_round_graph_key(t: RoundGraph) -> tuple:
    """The sort key round-graphs were once ordered by, which `sorted` on
    RoundGraph (`RoundGraph.__lt__`) must match: word count, then the
    words by `word_key`; rank and radius are not compared."""
    return (len(t.words), tuple(word_key(w) for w in t.words))


# Reference oracle: the lens classes found by walking the ball, which
# `cylinders.lens_keys`, reading them off word prefixes, must match.

@lru_cache(maxsize=None)
def lens_ball(rank: int, radius: int, generator: int) -> frozenset[WordTuple]:
    """Vertices of B(id, r) within distance r of the generator vertex."""
    inverse = (-generator,)
    return frozenset(
        w.letters for w in enumerate_reduced_words(rank, radius)
        if len(free_reduce(inverse + w.letters)) <= radius)


def translate_words(words, letter: int) -> frozenset[WordTuple]:
    """Left-translate a vertex set by a single signed letter."""
    return frozenset(free_reduce((letter,) + w) for w in words)


def reference_lens_keys(t: RoundGraph, generator: int
                        ) -> tuple[Optional[LensKey], Optional[LensKey]]:
    """t meeting the lens L = B(id, r) & B(u, r) if u is in t, and the
    u-translate of t meeting L if u^-1 is in t; None where t lacks the
    letter."""
    lens = lens_ball(t.rank, t.radius, generator)
    out = (reference_canonical_words(set(t.words) & lens)
           if (generator,) in set(t.words) else None)
    inc = (reference_canonical_words(translate_words(t.words, generator)
                                     & lens)
           if (-generator,) in set(t.words) else None)
    return out, inc


# Reference oracle: the character-by-character word parser, checked
# again in `reduce`, that `words.parse_word` must match word for word and
# error for error.  Its letters come from its own table, built from
# `ALPHABET` alone, so a letter the package's tables misread shows.

@lru_cache(maxsize=None)
def reference_letters(rank: int) -> dict[str, int]:
    """The ASCII characters naming a letter at this rank: the rank's
    characters of `ALPHABET` for its generators, their ASCII capitals
    for the inverses."""
    table = {}
    for i, ch in enumerate(ALPHABET[:rank], 1):
        table[ch], table[chr(ord(ch) - 32)] = i, -i
    return table


def reference_parse_word(text: str, rank: int) -> Word:
    """Parse either compact ("xyX") or spaced ("x y x^-1") word syntax.

    Exponents apply to the single preceding letter; "e" alone is the
    identity.  The result is freely reduced.
    """
    letters: list[int] = []
    for token in text.split():
        i = 0
        while i < len(token):
            ch = token[i]
            if ch == "e" or ch == "1":
                i += 1
                continue
            if not ch.isalpha():
                raise LetterRangeError(f"unexpected character {ch!r} in {text!r}")
            m = reference_letters(rank).get(ch)
            if m is None:
                raise LetterRangeError(
                    f"letter {ch!r} is not a generator at rank {rank}")
            i += 1
            power = 1
            if i < len(token) and token[i] == "^":
                i += 1
                sign = 1
                if i < len(token) and token[i] == "-":
                    sign = -1
                    i += 1
                start = i
                while i < len(token) and "0" <= token[i] <= "9":
                    i += 1
                if start == i:
                    raise LetterRangeError(f"missing exponent in {text!r}")
                power = sign * int(token[start:i])
            if power < 0:
                m, power = -m, -power
            letters.extend([m] * power)
    return reduce(letters, rank)


# Reference oracle: the decode of plain word text by one `map` over a
# per-character table, which `words.parse_word`'s byte decode must match
# word for word and error for error.

@lru_cache(maxsize=None)
def _cancelling_pairs(rank: int) -> tuple[str, ...]:
    """The two-character texts of a letter beside its inverse at this
    rank: "xX", "Xx", "yY", ..."""
    table = reference_letters(rank)
    return tuple(a + b for a in table for b in table if table[a] == -table[b])


def map_parse_word(text: str, rank: int) -> Word:
    """`reference_parse_word`, but text without "^" is read whole, spaces
    and identity marks dropped, by one lookup per character in a per-rank
    table, and is reduced only when it holds a letter beside its inverse;
    any other text, or a character the table lacks, goes to
    `reference_parse_word`, which names a bad character."""
    _check_rank(rank)
    table = reference_letters(rank)
    plain = "".join(text.split()).replace("e", "").replace("1", "")
    if "^" not in plain:
        try:
            decoded = tuple(map(table.__getitem__, plain))
        except KeyError:
            pass  # `reference_parse_word` names the offending character
        else:
            if any(map(plain.__contains__, _cancelling_pairs(rank))):
                decoded = free_reduce(decoded)
            return Word._stored(rank, decoded)
    return reference_parse_word(text, rank)


# Reference oracles: the fixed-point fold and the layer-per-pass prune
# that `stallings._fold_rows` (on the rows `_lay` writes) and
# `stallings._prune` must match output for output, and the breadth-first
# component search that `stallings.join_least` must agree with.
# Quadratic; keep the inputs small.

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


def connected_components(step: Sequence[Mapping[int, int]]
                         ) -> tuple[tuple[int, ...], ...]:
    """Sorted vertex tuples of the components of a signed adjacency, in
    order of least vertex."""
    seen = [False] * len(step)
    comps = []
    for v in range(len(step)):
        if seen[v]:
            continue
        seen[v] = True
        comp = [v]
        for u in comp:
            for w in step[u].values():
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


# Reference oracles: the bouquet-of-loops `core_from_generators` and the
# per-vertex `cylinder_table` that `stallings.core_from_generators` and
# `cylinders.cylinder_table` must match output for output.

def reference_core_from_generators(gens: Sequence[WordLike],
                                   rank: int) -> CoreGraph:
    """Basepointed Stallings core of the subgroup the words generate: a
    bouquet of one loop per generator at vertex 0, folded by `fold`."""
    g = LabeledGraph(rank, 1, basepoint=0)
    for w in gens:
        word = parse_word(w, rank) if isinstance(w, str) else w
        if word.rank != rank:
            raise BasisMismatchError(f"word rank {word.rank} vs rank {rank}")
        if word.letters:
            add_path(g, 0, 0, word.letters)
    return fold(g)


def reference_cylinder_table(current: RationalCurrent, radius: int
                             ) -> WeightTable:
    """Exact cylinder weights of a rational current at one radius.

    Each hull-core vertex contributes its coefficient to the entry of its
    local ball; the total mass is the coefficient-weighted sum of hull
    vertex counts, independent of the radius.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    table: dict[RoundGraph, Fraction] = {}
    for coeff, sub in current.terms:
        hull = sub.hull
        for v in range(hull.num_vertices):
            t = local_ball(hull, v, radius)
            table[t] = table.get(t, Fraction(0)) + coeff
    return WeightTable(current.rank, radius, table)


# Reference oracles: the per-generator `check_matching` and the
# per-column row builder of the matching matrix, each grouping the
# matching rows on its own, that `cylinders.check_matching` and
# `approx._matching_matrix` (both read `cylinders.lens_rows`) must match
# row for row and in order.  A violation is (generator, lens, lhs, rhs).

def reference_check_matching(table: WeightTable
                             ) -> list[tuple[int, LensKey, Fraction,
                                             Fraction]]:
    """Verify every per-generator lens balance over the table's support.

    For generator u with lens L = B(id, r) & B(u, r), each lens class J
    must satisfy: the weight of round-graphs containing u and meeting L
    in J equals the weight of those containing u^-1 whose u-translate
    meets L in J.  Rows indexed by lenses outside both supports are 0 = 0
    and need no check.
    """
    violations = []
    for gen in range(1, table.rank + 1):
        lhs: dict[LensKey, Fraction] = {}
        rhs: dict[LensKey, Fraction] = {}
        for t, value in table.entries.items():
            out, inc = reference_lens_keys(t, gen)
            if out is not None:
                lhs[out] = lhs.get(out, Fraction(0)) + value
            if inc is not None:
                rhs[inc] = rhs.get(inc, Fraction(0)) + value
        for key in sorted(set(lhs) | set(rhs)):
            a = lhs.get(key, Fraction(0))
            b = rhs.get(key, Fraction(0))
            if a != b:
                violations.append((gen, key, a, b))
    return violations


def reference_matching_rows(rank: int, columns: Sequence[RoundGraph]
                            ) -> tuple[tuple[tuple[int, LensKey],
                                             dict[int, int]], ...]:
    """The rows of the matching matrix over columns already in sort-key
    order: row (u, J) carries +1 on columns T with u in T and
    T-meet-lens = J, and -1 on columns T with u^-1 in T whose u-translate
    meets the lens in J; zero entries and empty rows are dropped."""
    rows: dict[tuple[int, LensKey], dict[int, int]] = {}
    for j, t in enumerate(columns):
        for gen in range(1, rank + 1):
            for key, sign in zip(reference_lens_keys(t, gen), (1, -1)):
                if key is not None:
                    row = rows.setdefault((gen, key), {})
                    row[j] = row.get(j, 0) + sign
    cleaned = []
    for key in sorted(rows):
        entries = {j: c for j, c in rows[key].items() if c}
        if entries:
            cleaned.append((key, entries))
    return tuple(cleaned)


SMALL_RATIOS = st.builds(Fraction, st.integers(1, 3), st.integers(1, 3))

# The table of eta(<xy, yx>) at radius 2 with its weights redrawn: it
# breaks two rows of each generator, so every property on the order of
# rows within a generator sees an ordering fault on every run.
TWO_ROWS_PER_GENERATOR = WeightTable(2, 2, {
    t: k % 3 + 1 for k, t in enumerate(cylinder_table(
        RationalCurrent.eta(Subgroup(["xy", "yx"], 2)), 2).support())})


def subgroups(rank: int, max_len: int = 4):
    """Subgroups of 1-3 generators of length <= `max_len` at one rank."""
    letter = st.integers(1, rank).flatmap(lambda m: st.sampled_from((m, -m)))
    word = st.lists(letter, min_size=1, max_size=max_len).map(
        lambda letters: reduce(letters, rank))
    return st.lists(word, min_size=1, max_size=3).map(
        lambda words: Subgroup(words, rank))


@st.composite
def current_tables(draw):
    """The cylinder table of a random rational current: ranks 2-3, radii
    1-2, 1-3 terms of 1-3 generators of length <= 4."""
    rank = draw(st.integers(2, 3))
    radius = draw(st.integers(1, 2))
    terms = draw(st.lists(st.tuples(SMALL_RATIOS, subgroups(rank)),
                          min_size=1, max_size=3))
    return cylinder_table(RationalCurrent(terms, rank), radius)


@st.composite
def matching_tables(draw):
    """Tables to check the matching rows on: a `current_tables` table as
    is, scaled by a rational, with one entry dropped or nudged, or with
    every entry redrawn.  Redrawn radius-2 tables break several rows of
    one generator, so the order of rows within a generator is tested."""
    table = draw(current_tables())
    kind = draw(st.sampled_from(("current", "scaled", "dropped", "nudged",
                                 "redrawn")))
    if kind == "current" or not table.support():
        return table
    if kind == "scaled":
        return table.scale(draw(SMALL_RATIOS))
    if kind == "redrawn":
        return WeightTable(table.rank, table.radius, {
            t: draw(st.integers(0, 3)) for t in table.support()})
    entries = dict(table.entries)
    t = draw(st.sampled_from(table.support()))
    if kind == "dropped":
        del entries[t]
    else:
        delta = draw(st.builds(Fraction, st.integers(-3, 3).filter(bool),
                               st.integers(1, 3)))
        entries[t] = max(entries[t] + delta, Fraction(0))
    return WeightTable(table.rank, table.radius, entries)


# A valid file of each text format, as (header lines, body lines).
FILES = {
    "subgroup": (["rank 2"], ["xy", "xY"]),
    "graph": (["rank 2", "vertices 1", "basepoint 0"],
              ["edge 0 0 g1", "edge 0 0 g2"]),
    "table": (["rank 2", "radius 1"], ["e,x,X = 1", "e,y,Y = 1"]),
}

# Header values that are no ASCII integer, though `str.isdigit`, `int`
# or `Fraction` read some of them; only a basepoint may be `none`.
NON_INTEGERS = {"superscript": "\u00b2", "arabic": "\u0662", "plus": "+2",
                "underscore": "1_0", "none": "none"}


def malformed_files(kind: str) -> dict[str, str]:
    """Each malformed header of the valid `kind` file in FILES, by name:
    a missing, repeated, conflicting or misplaced header line, a value
    that is no ASCII integer, or an extra token.  A file cut short in its
    header and a repeat in place of a later name each leave a name out."""
    header, body = FILES[kind]
    first, *rest = header
    name = first.split()[0]
    cases = {
        "truncated": header[:-1],
        "repeated": [first, first] + rest + body,
        "conflicting": [first, f"{name} 3"] + rest + body,
        "after-body": rest + body[:1] + [first] + body[1:],
        "again-after-body": header + body + [f"{name} 3"],
    }
    for i, line in enumerate(header):
        key = line.split()[0]
        cases[f"{key}-missing"] = header[:i] + header[i + 1:] + body
        for label, value in NON_INTEGERS.items():
            if (key, value) == ("basepoint", "none"):
                continue
            cases[f"{key}-{label}"] = (header[:i] + [f"{key} {value}"]
                                       + header[i + 1:] + body)
        cases[f"{key}-extra"] = header[:i] + [f"{line} 0"] + header[i + 1:] \
            + body
    return {case: "\n".join(lines) + "\n" for case, lines in cases.items()}


def edges_by_component(components: Sequence[Sequence],
                       edges: Sequence[tuple]) -> list[list[tuple]]:
    """Each edge in the bucket of its source's component, in one pass;
    a bucket keeps the edges in their given order."""
    comp_of = {v: k for k, comp in enumerate(components) for v in comp}
    buckets: list[list[tuple]] = [[] for _ in components]
    for edge in edges:
        buckets[comp_of[edge[0]]].append(edge)
    return buckets


# Reference oracles: the per-copy `realize` and the per-component
# `decompose` that `realize.realize` and `realize.decompose` must match.
# `reference_realize` must equal the decoded `vertices`, `components` and
# `component_edges` of `realize` bit for bit; the terms of
# `reference_decompose`, one per component, grouped by canonical key,
# must equal the terms of `decompose` with their coefficients.

Realized = tuple[tuple[tuple[RoundGraph, int], ...],
                 tuple[tuple[int, ...], ...],
                 list[list[tuple[int, int, int]]]]


def reference_realize(theta: WeightSystem) -> Realized:
    """Build the quotient SC-graph realizing an admissible weight system,
    one vertex per copy, as (vertices, components, component_edges) in
    the order an `SCGraphQuotient` decodes into.

    Vertices are (T, i) for i = 1..theta(T).  For each generator u and
    lens class J, the vertices whose round-graph contains u and meets the
    lens in J are matched positionally (both sides sorted by canonical
    key, then copy index) with those whose round-graph contains u^-1 and
    whose u-translate meets the lens in J; each matched pair gets a
    u-edge.  The balance equations make the two sides equinumerous, so
    the matching is total; the output is identical across runs.

    At radius 0 the only round-graph is the bare root and carries no
    matching constraints; each copy becomes a single vertex with a loop
    of the first generator, realizing the weight as copies of a cyclic
    subgroup's current.
    """
    table = theta.table
    violations = reference_check_matching(table)
    if violations:
        raise AdmissibilityError(*violations[0])
    vertices: list[tuple[RoundGraph, int]] = []
    for t in table.support():
        for i in range(1, int(table[t]) + 1):
            vertices.append((t, i))
    index = {v: k for k, v in enumerate(vertices)}
    # No vertex of radius 0 reads a letter: each copy gets an x-loop.
    edges = [] if table.radius else [(k, k, 1) for k in range(len(vertices))]
    for gen in range(1, table.rank + 1):
        lens = lens_ball(table.rank, table.radius, gen)
        out_side: dict[LensKey, list[tuple[RoundGraph, int]]] = {}
        in_side: dict[LensKey, list[tuple[RoundGraph, int]]] = {}
        for v in vertices:
            t = v[0]
            if (gen,) in set(t.words):
                key = reference_canonical_words(set(t.words) & lens)
                out_side.setdefault(key, []).append(v)
            if (-gen,) in set(t.words):
                key = reference_canonical_words(
                    translate_words(t.words, gen) & lens)
                in_side.setdefault(key, []).append(v)
        for key in sorted(set(out_side) | set(in_side)):
            sources = out_side.get(key, [])
            targets = in_side.get(key, [])
            if len(sources) != len(targets):
                raise AdmissibilityError(gen, key,
                                         Fraction(len(sources)),
                                         Fraction(len(targets)))
            edges.extend((index[s], index[d], gen)
                         for s, d in zip(sources, targets))
    # The components by breadth-first search over the signed adjacency,
    # which also checks that the graph is folded.
    edges.sort()
    components = connected_components(
        signed_adjacency(table.rank, len(vertices), edges))
    return (tuple(vertices), components,
            edges_by_component(components, edges))


def component_graphs(rank: int, components: Sequence[Sequence[int]],
                     component_edges: Sequence[Sequence[tuple]]
                     ) -> list[CoreGraph]:
    """Each component of a decoded quotient or product as a hull-core
    graph, its vertices numbered in order."""
    graphs = []
    for comp, edges in zip(components, component_edges):
        ids = {v: k for k, v in enumerate(comp)}
        graphs.append(CoreGraph(rank, len(ids), [(ids[s], ids[d], l)
                                                 for (s, d, l) in edges],
                                None))
    return graphs


def reference_decompose(realized: Realized) -> RationalCurrent:
    """One counting current per component of a `reference_realize`
    quotient.

    Each component is a hull-core; its subgroup is read off a
    spanning-tree basis at the vertex of least canonical signature.
    Reading a different basepoint would change the subgroup only within
    its conjugacy class, which counting currents do not see.
    """
    vertices, components, component_edges = realized
    rank = vertices[0][0].rank
    terms = []
    for graph in component_graphs(rank, components, component_edges):
        hull = canonical_form(graph)
        core = CoreGraph(hull.rank, hull.num_vertices, hull.edges, 0)
        terms.append((Fraction(1), Subgroup.from_core(core)))
    return RationalCurrent(terms, rank)


# Reference oracles for the fiber product and the spanning-tree basis:
# the component-by-component BFS that `fiber.fiber_product`'s edge join
# must match field for field and in order, and the basis built through
# `reduce`, which re-checks and re-reduces every word.

Pair = tuple[int, int]


def _product_neighbors(a_graph: CoreGraph, b_graph: CoreGraph,
                       pair: Pair):
    """The pairs one signed letter away, in letter order x, X, y, Y, ..."""
    a, b = pair
    for letter in _SIGNED[:2 * a_graph.rank]:
        a2 = a_graph.step(a, letter)
        if a2 is not None:
            b2 = b_graph.step(b, letter)
            if b2 is not None:
                yield (a2, b2), letter


def reference_fiber_product(a_graph: CoreGraph, b_graph: CoreGraph
                            ) -> tuple[int, tuple, list]:
    """Fiber product of two hull-cores, explored component by component,
    as (rank, components, component_edges) in the order a `ProductGraph`
    decodes into.

    Only vertex pairs incident to at least one matched edge are visited,
    so memory is bounded by the edge-bearing part rather than by
    |V(A)| * |V(B)|.
    """
    if a_graph.rank != b_graph.rank:
        raise BasisMismatchError(
            f"rank {a_graph.rank} vs rank {b_graph.rank}")
    if a_graph.basepoint is not None or b_graph.basepoint is not None:
        raise ValueError("fiber products act on hull-core form")
    # Seeds: sources of matched edge pairs, grouped by label.
    a_by_label: dict[int, list[tuple[int, int]]] = {}
    b_by_label: dict[int, list[tuple[int, int]]] = {}
    for (s, d, l) in a_graph.edges:
        a_by_label.setdefault(l, []).append((s, d))
    for (s, d, l) in b_graph.edges:
        b_by_label.setdefault(l, []).append((s, d))
    seeds: set[Pair] = set()
    for lab, a_edges in a_by_label.items():
        for (sa, _da) in a_edges:
            for (sb, _db) in b_by_label.get(lab, ()):
                seeds.add((sa, sb))
    seen: set[Pair] = set()
    edges: set[tuple[Pair, Pair, int]] = set()
    components = [_reference_product_component(a_graph, b_graph, seed, seen,
                                                edges)
                  for seed in sorted(seeds) if seed not in seen]
    # The canonical order: everything sorted, components by least pair.
    components = tuple(sorted(tuple(sorted(c)) for c in components))
    return (a_graph.rank, components,
            edges_by_component(components, sorted(edges)))


def _reference_product_component(a_graph: CoreGraph, b_graph: CoreGraph,
                                 start: Pair, seen: set[Pair],
                                 edges: set[tuple[Pair, Pair, int]]
                                 ) -> list[Pair]:
    """The fiber-product component of `start` in breadth-first order; adds
    its vertices to `seen` and its edges to `edges`."""
    comp = [start]
    seen.add(start)
    for v in comp:
        for w, letter in _product_neighbors(a_graph, b_graph, v):
            edges.add((v, w, letter) if letter > 0 else (w, v, -letter))
            if w not in seen:
                seen.add(w)
                comp.append(w)
    return comp


def reference_intersection_core(h: Subgroup, k: Subgroup) -> CoreGraph:
    """The core of H intersect K: the basepoints' product component by
    the reference BFS, numbered in visiting order, then pruned."""
    edges: set[tuple[Pair, Pair, int]] = set()
    comp = _reference_product_component(h.core, k.core,
                                        (h.core.basepoint, k.core.basepoint),
                                        set(), edges)
    ids = {v: n for n, v in enumerate(comp)}
    n, core_edges, _ = reference_prune_edges(
        len(comp), sorted((ids[s], ids[d], l) for (s, d, l) in edges), 0)
    return CoreGraph(h.rank, n, core_edges, 0)


def reference_basis_of(c: CoreGraph) -> list[Word]:
    """Spanning-tree free basis: one word per non-tree edge."""
    if c.basepoint is None:
        raise ValueError("basis extraction needs a basepointed core")
    path: dict[int, tuple[int, ...]] = {c.basepoint: ()}
    order = [c.basepoint]
    tree: set[tuple[int, int, int]] = set()
    for v in order:
        for letter in _SIGNED[:2 * c.rank]:
            w = c.step(v, letter)
            if w is not None and w not in path:
                path[w] = path[v] + (letter,)
                order.append(w)
                tree.add((v, w, letter) if letter > 0 else (w, v, -letter))
    words = []
    for (s, d, l) in c.edges:
        if (s, d, l) not in tree:
            letters = path[s] + (l,) + tuple(-m for m in reversed(path[d]))
            words.append(reduce(letters, c.rank))
    return words


# Reference oracle for the exact solve of the kernel projection: the
# Gauss-Jordan elimination over Fraction that `approx._solve_nonsingular`,
# a fraction-free (Bareiss) elimination, must match exactly.

def reference_solve_rational(gram: list[list[Fraction]], rhs: list[Fraction]
                             ) -> list[Fraction]:
    """Gaussian elimination for a square nonsingular rational system."""
    n = len(gram)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(gram)]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


# Reference oracles for the kernel repair: the rounding scan over dense
# Fraction rows, and the orthogonal projection through a Gauss-Jordan
# kernel basis.  The projection onto a subspace does not depend on the
# basis chosen, so `rational_kernel_point` must match both exactly, on
# the sparse rows that `dense_rows` writes out for them.

def dense_rows(rows: Sequence[Mapping[int, int]], width: int
               ) -> list[list[int]]:
    """Sparse rows {column: coefficient} written out over `width`
    columns."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def reference_scan(matrix: Sequence[Sequence[int]],
                   target: Sequence[Fraction], tolerance: Fraction,
                   bound: int) -> Optional[tuple[Fraction, ...]]:
    """The rounding k/q of the target, k_i = floor(q.u_i + 1/2), at the
    least q <= bound where it is nonzero (unless the target is), within
    the tolerance and in the kernel; None when no q passes."""
    for q in range(1, bound + 1):
        v = [Fraction(math.floor(q * x + Fraction(1, 2)), q) for x in target]
        gap = max((abs(x - y) for x, y in zip(target, v)), default=0)
        if ((any(v) or not any(target)) and gap < tolerance
                and all(sum(c * x for c, x in zip(row, v)) == 0
                        for row in matrix)):
            return tuple(v)
    return None


def reference_nullspace(matrix: Sequence[Sequence[int]], width: int
                        ) -> list[list[Fraction]]:
    """A kernel basis by Gauss-Jordan elimination over Fraction, one
    vector per free column."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for k, c in enumerate(pivots):
            vec[c] = -rows[k][f]
        basis.append(vec)
    return basis


def reference_projection(matrix: Sequence[Sequence[int]],
                         target: Sequence[Fraction], tolerance: Fraction
                         ) -> tuple[Fraction, ...]:
    """The orthogonal projection of the target onto the kernel over its
    support; coordinates that come out negative are dropped from the
    support while the target there is below the tolerance, and the
    projection repeated.  Raises InfeasibleKernelError where
    `rational_kernel_point` must."""
    n = len(target)
    support = [i for i in range(n) if target[i] > 0]
    v = [Fraction(0)] * n
    while support:
        basis = reference_nullspace([[row[i] for i in support]
                                     for row in matrix], len(support))
        if not basis:
            raise InfeasibleKernelError("trivial kernel on the support")
        sub = [target[i] for i in support]
        gram = [[sum(a * b for a, b in zip(x, y)) for y in basis]
                for x in basis]
        rhs = [sum(a * b for a, b in zip(x, sub)) for x in basis]
        coeffs = reference_solve_rational(gram, rhs)
        proj = [sum(c * x[k] for c, x in zip(coeffs, basis))
                for k in range(len(support))]
        negatives = [support[k] for k, x in enumerate(proj) if x < 0]
        if not negatives:
            for k, i in enumerate(support):
                v[i] = proj[k]
            break
        drop = [i for i in negatives if target[i] < tolerance]
        if not drop:
            raise InfeasibleKernelError("negative beyond tolerance")
        support = [i for i in support if i not in drop]
    if max((abs(x - y) for x, y in zip(target, v)), default=0) >= tolerance:
        raise InfeasibleKernelError("no kernel point within tolerance")
    return tuple(v)
