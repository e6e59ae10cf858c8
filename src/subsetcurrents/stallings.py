"""Folded core graphs for finitely generated subgroups of a free group.

A core graph is a finite folded connected graph with edges labeled by
generator indices 1..rank.  In basepointed form the loops at the basepoint
spell exactly the subgroup elements; the hull-core form is the basepointed
core with degree-<=1 vertices iteratively pruned (the quotient of the
convex hull of the subgroup's limit set).  The hull-core of the trivial
subgroup is the empty graph.

`_prune` is the one prune, on signed-adjacency rows, of every graph the
package prunes, and `join_least` the one union-find that finds the
components of every graph it builds, each rooted at its least vertex.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, compress
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import BasisMismatchError, FileFormatError
from .words import (Word, format_word, parse_word, _check_rank,
                    _Frozen, _SIGNED)

WordLike = Union[Word, str]


def _as_word(w: WordLike, rank: int) -> Word:
    """Parse text at this rank, or pass a Word of this rank through; any
    other type raises TypeError."""
    if isinstance(w, str):
        word = parse_word(w, rank)
    elif isinstance(w, Word):
        word = w
    else:
        raise TypeError(
            f"expected a Word or a string, got {type(w).__name__}")
    if word.rank != rank:
        raise BasisMismatchError(f"word rank {word.rank} vs rank {rank}")
    return word


def _check_count(n: int) -> None:
    """A vertex count is an int >= 0; anything else raises ValueError."""
    if type(n) is not int:
        raise ValueError(f"vertex count {n!r} is not an int")
    if n < 0:
        raise ValueError(f"vertex count {n} is negative")


def _check_basepoint(base: Optional[int], n: int) -> None:
    """A basepoint is None or an int in 0..n-1; anything else raises
    ValueError."""
    if base is not None and (type(base) is not int or not 0 <= base < n):
        raise ValueError(f"basepoint {base!r} out of range")


class LabeledGraph:
    """A possibly unfolded labeled graph: `fold`'s input, the CLI's export."""

    def __init__(self, rank: int, num_vertices: int = 0,
                 edges: Iterable[tuple[int, int, int]] = (),
                 basepoint: Optional[int] = None):
        _check_count(num_vertices)
        self.rank = rank
        self.num_vertices = num_vertices
        self.edges = list(edges)
        self.basepoint = basepoint


class CoreGraph(_Frozen):
    """Immutable folded connected labeled graph (basepointed or hull-core).

    Vertices are 0..num_vertices-1.  Edges are (src, dst, label) with
    label in 1..rank.  In basepointed form every non-basepoint vertex has
    total degree >= 2; in hull-core form (basepoint None) every vertex
    does, and the graph may be empty.
    """

    __slots__ = ("rank", "num_vertices", "edges", "basepoint", "_step")

    def __init__(self, rank: int, num_vertices: int,
                 edges: Iterable[tuple[int, int, int]],
                 basepoint: Optional[int]):
        edges = tuple(sorted(map(tuple, edges)))
        _check_rank(rank)
        _check_count(num_vertices)
        # Nothing is built per vertex for a graph too sparse to connect.
        if len(edges) < num_vertices - 1:
            raise ValueError("graph is disconnected")
        step = signed_adjacency(rank, num_vertices, edges)
        _check_basepoint(basepoint, num_vertices)
        parent = list(range(num_vertices))
        join_least(parent, [e[0] for e in edges], [e[1] for e in edges])
        if any(parent):
            raise ValueError("graph is disconnected")
        # A folded graph's degree is the number of signed letters read at
        # a vertex; a loop reads two.
        for v in range(num_vertices):
            if v != basepoint and len(step[v]) < 2:
                raise ValueError(f"vertex {v} has degree {len(step[v])} < 2")
        self._set(rank, num_vertices, edges, basepoint, step)

    def __repr__(self) -> str:
        bp = self.basepoint
        return (f"CoreGraph(rank={self.rank}, vertices={self.num_vertices}, "
                f"edges={len(self.edges)}, basepoint={bp})")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def step(self, v: int, letter: int) -> Optional[int]:
        """Follow a signed letter from v; None if no such edge."""
        return self._step[v].get(letter)

    def trace(self, v: int, w: Word) -> Optional[int]:
        """End vertex of the path reading w from v, or None if it leaves."""
        for m in w.letters:
            v = self.step(v, m)
            if v is None:
                return None
        return v


def _checked_edges(rank: int, num_vertices: int,
                   edges: Iterable[tuple[int, int, int]]
                   ) -> Iterator[tuple[int, int, int]]:
    """Each edge in turn, once it joins two of the vertices
    0..num_vertices-1 under a label in 1..rank; any other edge raises
    ValueError."""
    for edge in edges:
        s, d, l = edge
        if not (type(s) is type(d) is int
                and 0 <= s < num_vertices and 0 <= d < num_vertices):
            raise ValueError(f"edge {edge} references a missing vertex")
        if type(l) is not int or not 1 <= l <= rank:
            raise ValueError(f"edge label {l} out of range for rank {rank}")
        yield edge


def signed_adjacency(rank: int, num_vertices: int,
                     edges: Iterable[tuple[int, int, int]]
                     ) -> list[dict[int, int]]:
    """Each vertex's map from signed letter to neighbour: an edge
    (s, d, l) reads l from s to d and -l from d to s.

    Every edge must pass `_checked_edges`, and a graph is folded exactly
    when no vertex reads one signed letter twice; any other graph raises
    ValueError.
    """
    step: list[dict[int, int]] = [{} for _ in range(num_vertices)]
    for (s, d, l) in _checked_edges(rank, num_vertices, edges):
        if l in step[s] or -l in step[d]:
            raise ValueError(f"graph is not folded at edge {(s, d, l)}")
        step[s][l] = d
        step[d][-l] = s
    return step


def find_root(parent, v: int) -> int:
    """v's root in a union-find parent map; each step halves the path."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def join_least(parent, sources: Iterable[int], targets: Iterable[int]
               ) -> Sequence[int]:
    """Join each source to its target in a union-find parent map, and
    return the map's keys in increasing order.

    `parent` is a list over 0..n-1 or a dict over the touched keys, each
    key its own parent.  Both roots are found by halving their paths,
    and the greater root hangs under the lesser, so every parent is less
    than its child and each component's root is its least key.  Then, in
    increasing order, each parent already points at its root, so one
    pass points every key at its root.
    """
    for s, d in zip(sources, targets):
        while s != (p := parent[s]):
            parent[s] = s = parent[p]
        while d != (p := parent[d]):
            parent[d] = d = parent[p]
        if s < d:
            parent[d] = s
        elif d < s:
            parent[s] = d
    order = sorted(parent) if isinstance(parent, dict) else range(len(parent))
    for v in order:
        parent[v] = parent[parent[v]]
    return order


def _lay(rows: list[dict[int, int]], pending: list[tuple[int, int]],
         s: int, d: int, m: int) -> None:
    """Lay the edge reading signed letter m from s to d into rows of each
    vertex's first neighbour per signed letter; a second neighbour is a
    pair that folding must identify, so it goes on the worklist."""
    t = rows[s].setdefault(m, d)
    if t != d:
        pending.append((t, d))
    t = rows[d].setdefault(-m, s)
    if t != s:
        pending.append((t, s))


def _fold_rows(nbrs: list[dict[int, int]], pending: list[tuple[int, int]]
               ) -> tuple[list[dict[int, int]], list[int]]:
    """Stallings folding by a worklist union-find; returns the quotient.

    `nbrs` and `pending` are what `_lay` wrote: each vertex's first
    neighbour per signed letter, and the clashes still to identify.  Each
    class root keeps one such map; merging two classes folds the smaller
    map into the larger, pushing every clash this creates.  A map holds
    at most 2 * rank entries, so each merge costs O(rank) and the fold
    runs in near-linear time.  Classes are numbered in order of their
    least vertex.

    The result is (each class's row, its map from signed label to
    neighbouring class; mapping old vertex -> new vertex).
    """
    parent = list(range(len(nbrs)))
    while pending:
        a, b = pending.pop()
        a, b = find_root(parent, a), find_root(parent, b)
        if a == b:
            continue
        if len(nbrs[a]) < len(nbrs[b]):
            a, b = b, a
        parent[b] = a
        big = nbrs[a]
        for label, w in nbrs[b].items():
            t = big.setdefault(label, w)
            if t != w:
                pending.append((t, w))
        nbrs[b] = {}
    new_id: dict[int, int] = {}
    mapping = [new_id.setdefault(find_root(parent, v), len(new_id))
               for v in range(len(nbrs))]
    rows = [{m: mapping[w] for m, w in nbrs[root].items()} for root in new_id]
    return rows, mapping


def _prune(rows: Sequence[Mapping[int, int]], protect: Optional[int]
           ) -> tuple[list[tuple[int, int, int]], Sequence[Mapping[int, int]],
                      list[int]]:
    """Iteratively delete degree-<=1 vertices (except `protect`) of a
    folded graph given by its rows, each vertex's map from signed letter
    to neighbour; a vertex's degree is its row's size, a loop reading two.

    A queue of degree-<=1 vertices deletes each vertex once and looks at
    each edge twice, so the prune runs in linear time.  Survivors are
    renumbered in increasing order, and their rows are rebuilt only when
    a vertex was deleted: when the queue starts empty, the given rows are
    returned as they are and every new id is the old one.  The result is
    (the survivors' sorted edges, their rows, each old vertex's new id or
    -1 if deleted).
    """
    n = len(rows)
    degree = list(map(len, rows))
    queue = [v for v in range(n) if degree[v] <= 1 and v != protect]
    if queue:
        alive = [True] * n
        while queue:
            v = queue.pop()
            alive[v] = False
            for w in rows[v].values():
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1 and w != protect:
                        queue.append(w)
        new_id = [k - 1 if a else -1 for k, a in zip(accumulate(alive), alive)]
        rows = [{m: d for m, w in rows[v].items() if (d := new_id[w]) >= 0}
                for v in compress(range(n), alive)]
    else:
        new_id = list(range(n))
    return _sorted_edges(rows), rows, new_id


def _sorted_edges(rows: Sequence[Mapping[int, int]]
                  ) -> list[tuple[int, int, int]]:
    """The sorted edges (s, d, l) of a folded graph given by its rows."""
    edges = [(s, d, m) for s, out in enumerate(rows)
             for m, d in out.items() if m > 0]
    edges.sort()
    return edges


def fold(g: LabeledGraph) -> CoreGraph:
    """Fold a labeled graph into core form.

    Identifications never change the set of reduced words read by closed
    paths at the basepoint.  Degree-<=1 vertices other than the basepoint
    are trimmed afterwards so the result satisfies the core invariants;
    such vertices cannot lie on any reduced loop.  An edge end or a
    basepoint that is not an int in 0..num_vertices-1, or an edge label
    outside 1..rank, raises ValueError, even where the prune would drop
    the edge; so does a vertex count that is not an int >= 0.  The
    result passes the checked constructor, since a graph from outside
    need not be connected.
    """
    n, base, rank = g.num_vertices, g.basepoint, g.rank
    _check_count(n)
    _check_basepoint(base, n)
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    pending: list[tuple[int, int]] = []
    for edge in _checked_edges(rank, n, g.edges):
        _lay(rows, pending, *edge)
    rows, mapping = _fold_rows(rows, pending)
    base = mapping[base] if base is not None else None
    # Rebinding `rows` frees the unpruned rows before the checked build.
    edges, rows, new_id = _prune(rows, base)
    base = new_id[base] if base is not None else None
    return CoreGraph(rank, len(rows), edges, base)


def core_from_generators(gens: Sequence[WordLike], rank: int) -> CoreGraph:
    """Basepointed Stallings core of the subgroup the words generate.

    Each generator is a closed path at the basepoint, but only its middle
    gets fresh vertices: its longest prefix readable forward from the
    basepoint in the rows laid so far, then its longest suffix readable
    backward, are followed instead of laid, keeping at least one letter
    to lay.  Folding the full bouquet of loops would merge every skipped
    vertex into the earlier vertex it was read at, so folding the laid
    middles gives the same core, classes still numbered by least vertex.

    `_lay` writes the middles straight into the fold's rows, and the core
    is stored unchecked: every path is laid from the basepoint, so it is
    connected, and `_fold_rows` folds it, its rows the signed adjacency.
    No prune is needed, since every vertex but the basepoint already has
    degree >= 2.  Each laid vertex is an inner vertex of its generator's
    closed path at the basepoint, and every folded vertex is the image of
    a laid one.  Folding maps that path to one reading the same reduced
    word, so at the inner vertex the path arrives by reading some m and
    leaves by reading m' != -m: the vertex reads the two signed letters
    -m and m', and its degree is at least 2.
    """
    _check_rank(rank)
    # First neighbour laid per signed letter; the rows may be unfolded.
    step: list[dict[int, int]] = [{}]
    pending: list[tuple[int, int]] = []
    for w in gens:
        letters = _as_word(w, rank).letters
        if not letters:
            continue
        last = len(letters) - 1
        head, i = 0, 0
        while i < last:
            nxt = step[head].get(letters[i])
            if nxt is None:
                break
            head = nxt
            i += 1
        tail, j = 0, last
        while j > i:
            nxt = step[tail].get(-letters[j])
            if nxt is None:
                break
            tail = nxt
            j -= 1
        # letters[i..j] are laid, through fresh vertices numbered in
        # reading order: at least one, the rest were read.
        for m in letters[i:j]:
            step.append({})
            _lay(step, pending, head, len(step) - 1, m)
            head = len(step) - 1
        _lay(step, pending, head, tail, letters[j])
    # The basepoint is vertex 0, the least of its class, so it stays 0.
    rows, _ = _fold_rows(step, pending)
    return CoreGraph._stored(rank, len(rows), tuple(_sorted_edges(rows)), 0,
                             rows)


def hull_core(c: CoreGraph) -> CoreGraph:
    """Prune degree-<=1 vertices iteratively; the basepoint has no immunity."""
    edges, step, _ = _prune(c._step, None)
    # Deleting leaves keeps a folded core connected and folded.
    return CoreGraph._stored(c.rank, len(step), tuple(edges), None, step)


def contains(c: CoreGraph, w: WordLike) -> bool:
    """True iff w traces a closed path at the basepoint."""
    if c.basepoint is None:
        raise ValueError("membership needs a basepointed core")
    return c.trace(c.basepoint, _as_word(w, c.rank)) == c.basepoint


def reduced_rank(c: CoreGraph) -> int:
    """max(#edges - #vertices, 0): the negative Euler characteristic,
    clamped to 0 for trees and the empty graph."""
    return max(c.num_edges - c.num_vertices, 0)


def finite_index(c: CoreGraph) -> Optional[int]:
    """#vertices if the core is a full cover of the rose, else None.

    A basepointed core covers the rose completely iff every vertex has one
    outgoing and one incoming edge per generator; the subgroup then has
    index #vertices, and infinite index otherwise.
    """
    if c.basepoint is None:
        raise ValueError("index needs a basepointed core")
    if all(len(letters) == 2 * c.rank for letters in c._step):
        return c.num_vertices
    return None


def basis_of(c: CoreGraph) -> list[Word]:
    """Spanning-tree free basis: one word per non-tree edge."""
    if c.basepoint is None:
        raise ValueError("basis extraction needs a basepointed core")
    # Each vertex's first letter and tree parent; the basepoint's letter
    # 0 is no signed letter.
    reach = [0] * c.num_vertices
    parent = [-1] * c.num_vertices
    parent[c.basepoint] = c.basepoint
    order = [c.basepoint]
    letters = _SIGNED[:2 * c.rank]
    for v in order:
        out = c._step[v]
        for letter in letters:
            w = out.get(letter)
            if w is not None and parent[w] < 0:
                reach[w] = letter
                parent[w] = v
                order.append(w)
    return _tree_basis(c.rank, c.edges, reach, parent)


def _tree_basis(rank: int, edges: Iterable[tuple[int, int, int]],
                reach: Sequence[int], parent: Sequence[int]) -> list[Word]:
    """One word per non-tree edge of a folded core's breadth-first tree,
    given each vertex's first letter `reach` (0 at the root) and its tree
    parent: the free basis of the loops at the root.

    In a folded graph an edge (s, d, l) is the only one reading l at s
    and -l at d, so it is a tree edge exactly when l first reached d or
    -l first reached s.  Its word is s's tree path, then l, then d's tree
    path inverted, each path spelled by climbing the parents to the root,
    so nothing is stored per vertex but its letter and parent.  Tree
    paths are reduced, and neither junction can cancel: that would make
    the edge a tree edge.
    """
    def climb(v: int) -> list[int]:
        # The letters of v's tree path, last letter first.
        up = []
        while m := reach[v]:
            up.append(m)
            v = parent[v]
        return up

    return [Word._stored(rank, tuple(climb(s)[::-1] + [l]
                                     + [-m for m in climb(d)]))
            for (s, d, l) in edges if reach[d] != l and reach[s] != -l]


def _canonical_key(c: CoreGraph) -> tuple:
    """(vertex count, least sorted edge tuple over the relabelings by BFS
    from each start, scanning signed letters x, X, y, Y, ...); the starts
    are the basepoint, or every vertex of a hull-core.

    The sorted tuple of one start is its blocks in turn, block i the
    sorted out-edges of the i-th vertex its BFS visits, whose ends are
    numbered once that vertex is scanned.  So all starts advance together,
    one block at a time, and only those whose block is least go on, until
    one is left.  A shorter block compares greater: that start's next edge
    leaves a later vertex.  A shape with a transitive automorphism group
    keeps every start to the end, at V BFS runs of V vertices each, held
    at once."""
    n = c.num_vertices
    if n == 0:
        return (0, ())
    letters = _SIGNED[:2 * c.rank]
    # Edge (i, d, l) of a block is the code d * k + l, so codes sort as
    # the edges do, and n * k closes a block above every code.
    k = c.rank + 1
    scans = [[step[m] for m in letters if m in step] for step in c._step]
    outs = [[(step[l], l) for l in range(1, k) if l in step]
            for step in c._step]
    live = [({s: 0}, [s]) for s in
            (range(n) if c.basepoint is None else (c.basepoint,))]
    for i in range(n):
        if len(live) == 1:
            break
        least, kept = None, []
        for start in live:
            order, queue = start
            v = queue[i]
            for w in scans[v]:
                if w not in order:
                    order[w] = len(order)
                    queue.append(w)
            block = sorted([order[d] * k + l for d, l in outs[v]])
            block.append(n * k)
            if least is None or block < least:
                least, kept = block, [start]
            elif block == least:
                kept.append(start)
        live = kept
    # Every start left gives the least tuple; finish the first one's BFS.
    order, queue = live[0]
    for v in queue:
        for w in scans[v]:
            if w not in order:
                order[w] = len(order)
                queue.append(w)
    return (n, tuple(sorted([(order[s], order[d], l)
                             for (s, d, l) in c.edges])))


def label_isomorphic(a: CoreGraph, b: CoreGraph) -> bool:
    """Label-preserving isomorphism (basepoint-respecting when present)."""
    if a.rank != b.rank:
        return False
    if (a.basepoint is None) != (b.basepoint is None):
        return False
    return _canonical_key(a) == _canonical_key(b)


class Subgroup(_Frozen):
    """A finitely generated subgroup, with lazily derived core and hull."""

    __slots__ = ("generators", "rank", "_core", "_hull")

    def __init__(self, generators: Iterable[WordLike], rank: int):
        _check_rank(rank)
        self._set(tuple(_as_word(w, rank) for w in generators), rank, None,
                  None)

    @classmethod
    def full(cls, rank: int) -> "Subgroup":
        return cls([Word(rank, (i,)) for i in range(1, rank + 1)], rank)

    @classmethod
    def from_core(cls, core: CoreGraph) -> "Subgroup":
        """The subgroup `core` reads; keeps `core`."""
        return cls._stored(tuple(basis_of(core)), core.rank, core, None)

    @property
    def core(self) -> CoreGraph:
        if self._core is None:
            object.__setattr__(self, "_core",
                               core_from_generators(self.generators, self.rank))
        return self._core

    @property
    def hull(self) -> CoreGraph:
        if self._hull is None:
            object.__setattr__(self, "_hull", hull_core(self.core))
        return self._hull

    def contains(self, w: WordLike) -> bool:
        return contains(self.core, w)

    def reduced_rank(self) -> int:
        return reduced_rank(self.core)

    def is_trivial(self) -> bool:
        return self.core.num_edges == 0

    def __repr__(self) -> str:
        gens = ", ".join(format_word(w) for w in self.generators)
        return f"Subgroup(<{gens}>, rank={self.rank})"


# ---------------------------------------------------------------------------
# file formats

def _content_lines(text: str) -> Iterator[str]:
    """The nonblank lines of a text file, '#' comments stripped."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


# Most digits, its decimal exponent included, of a number read: Python's
# limit on int/str conversion, so that every value read can be printed.
DIGIT_CAP = 4300

# ASCII digits only: '²', '٢', '+2' and '1_0' are no integers.
_INTEGER = rf"-?[0-9]{{1,{DIGIT_CAP}}}"

_NUMBER = re.compile(r"([0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE]([-+]?[0-9]+))?")


def _over_digit_cap(text: str) -> bool:
    """Whether a number in `text` spells more than DIGIT_CAP digits, its
    decimal exponent included.  An exponent too long for the cap is
    refused unread, never passed to int()."""
    for mantissa, exponent in _NUMBER.findall(text):
        power = exponent.lstrip("+-").lstrip("0")
        if len(power) > len(str(DIGIT_CAP)) or \
                len(mantissa) + int(power or 0) > DIGIT_CAP:
            return True
    return False


def _plain_number(text: str) -> str:
    """`text`, unless it holds a non-ASCII character or '_', which int()
    and Fraction() would read ('٢', '1_0'), or spells more than DIGIT_CAP
    digits, for which Fraction() would build 10**exponent in full."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    if _over_digit_cap(text):
        raise ValueError(f"a number of more than {DIGIT_CAP} digits")
    return text


def _parse_fraction(text: str) -> Fraction:
    """The rational `text` spells, as `_plain_number` admits it; any
    other text raises ValueError("bad rational ...")."""
    try:
        return Fraction(_plain_number(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}") from exc


def _read_file(text: str, names: Sequence[str]
               ) -> tuple[dict[str, Optional[int]], list[str]]:
    """The header and the body lines of a text file.  The header is one
    line `name value` for each of `names` (`rank` among them), in any
    order; a value is an ASCII integer, or `none` for a basepoint, and the
    rank lies in 1..MAX_RANK.  Any other header raises FileFormatError."""
    lines = list(_content_lines(text))
    header: dict[str, Optional[int]] = {}
    for i, line in enumerate(lines):
        name, *value = line.split()
        is_header = name in names and len(value) == 1
        if is_header != (i < len(names)):
            raise FileFormatError(f"expected one line each of "
                                  f"{', '.join(names)}, then the body; "
                                  f"got {line!r}")
        if is_header:
            if not (re.fullmatch(_INTEGER, value[0])
                    or (name, value[0]) == ("basepoint", "none")):
                raise FileFormatError(f"expected '{name} N', got {line!r}")
            header[name] = None if value[0] == "none" else int(value[0])
    if len(header) < len(names):
        raise FileFormatError(f"missing header; expected {', '.join(names)}")
    try:
        _check_rank(header["rank"])
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
    return header, lines[len(names):]


def subgroup_to_text(sub: Subgroup) -> str:
    lines = [f"rank {sub.rank}"]
    lines.extend(format_word(w) for w in sub.generators)
    return "\n".join(lines) + "\n"


def subgroup_from_text(text: str) -> Subgroup:
    header, body = _read_file(text, ("rank",))
    return Subgroup(body, header["rank"])


def graph_to_text(c: CoreGraph) -> str:
    """Plain edge-list description with labels g1..gN; re-importable."""
    lines = [f"rank {c.rank}", f"vertices {c.num_vertices}"]
    lines.append("basepoint none" if c.basepoint is None
                 else f"basepoint {c.basepoint}")
    lines.extend(f"edge {s} {d} g{l}" for (s, d, l) in c.edges)
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> CoreGraph:
    header, body = _read_file(text, ("rank", "vertices", "basepoint"))
    edges = []
    for line in body:
        match = re.fullmatch(
            rf"edge\s+({_INTEGER})\s+({_INTEGER})\s+g({_INTEGER})", line)
        if match is None:
            raise FileFormatError(f"expected 'edge S D gK', got {line!r}")
        edges.append(tuple(map(int, match.groups())))
    try:
        return CoreGraph(header["rank"], header["vertices"], edges,
                         header["basepoint"])
    except ValueError as exc:
        raise FileFormatError(f"not a valid core graph: {exc}") from exc
