"""Fiber products of core graphs and the subgroup product N(H, K).

The fiber product of two hull-cores over the rose has a vertex for each
pair of vertices and an edge for each pair of same-label edges; its
connected components correspond to double cosets, and summing
max(#E - #V, 0) over components gives N(H, K), the double-coset sum of
reduced ranks.  Vertices incident to no matched edge are never
materialized: they are isolated singletons and contribute nothing.

`fiber_product` builds the product as an edge join costing sum over
labels l of |A_l| * |B_l|, with no BFS, and finds its components with
`stallings.join_least`; `intersection` walks only the basepoint's
component of core x core, recording the walk's spanning tree as each
vertex's first letter and tree parent, prunes it with `stallings._prune`,
the prune that `fold` and `hull_core` run, and reads the basis off the
recorded tree by climbing parents, so no second walk runs and no tree
path is stored per vertex.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, compress, count, repeat
from typing import Union

from .errors import BasisMismatchError
from .stallings import CoreGraph, Subgroup, _prune, _tree_basis, join_least
from .words import _Frozen, _SIGNED

Pair = tuple[int, int]


class ProductGraph(_Frozen):
    """The edge-bearing part of a fiber product in coded form, stored as
    `fiber_product` builds it.  A pair (a, b) is coded a * width + b and
    an edge (s, d, l) of pair codes (s * size + d) * rank + l - 1, with
    width = |V(B)| and size = |V(A)| * |V(B)|, so codes order as tuples.
    `codes` are the pair codes component by component, each component
    sorted and components by least pair, `stats` is (#V, #E) per
    component and `edges` the edge codes in join order.  Each read of
    `vertices`, `components` or `component_edges` decodes them."""

    __slots__ = ("rank", "width", "size", "codes", "stats", "edges")

    def __init__(self, rank: int, width: int, size: int, codes: list,
                 stats: list, edges: list):
        self._set(rank, width, size, codes, stats, edges)

    @property
    def vertices(self) -> tuple[Pair, ...]:
        """Every vertex pair, component by component."""
        return tuple(map(divmod, self.codes, repeat(self.width)))

    @property
    def components(self) -> tuple[tuple[Pair, ...], ...]:
        """Each component's sorted vertex pairs."""
        pairs, ends = self.vertices, list(accumulate(v for v, _ in self.stats))
        return tuple(map(pairs.__getitem__, map(slice, [0] + ends, ends)))

    @property
    def component_edges(self) -> list[list[tuple[Pair, Pair, int]]]:
        """Each component's sorted edges (s, d, l)."""
        where = dict(zip(self.codes, chain.from_iterable(
            map(repeat, count(), [v for v, _ in self.stats]))))
        edges: list[list[tuple[Pair, Pair, int]]] = [[] for _ in self.stats]
        rank, size, width = self.rank, self.size, self.width
        for code in sorted(self.edges):
            sd, l = divmod(code, rank)
            s, d = divmod(sd, size)
            edges[where[s]].append((divmod(s, width), divmod(d, width),
                                    l + 1))
        return edges

    def __repr__(self) -> str:
        return (f"ProductGraph(rank={self.rank}, "
                f"components={len(self.stats)})")

    def component_stats(self) -> list[tuple[int, int]]:
        """(#vertices, #edges) per component, read without decoding."""
        return list(self.stats)


def fiber_product(a_graph: CoreGraph, b_graph: CoreGraph) -> ProductGraph:
    """Fiber product of two hull-cores, built as an edge join with no BFS.

    Each pair of an l-edge of A and an l-edge of B is a product edge, so
    the join costs sum over labels l of |A_l| * |B_l|.  It lists integers
    only: each edge's source, target and edge code (a part from A's edge
    plus a part from B's).  `join_least` joins each edge's ends, so each
    component's root is its least pair, whether that pair is an edge's
    source or only a target; (#V, #E) is counted per root.
    """
    if a_graph.rank != b_graph.rank:
        raise BasisMismatchError(
            f"rank {a_graph.rank} vs rank {b_graph.rank}")
    if a_graph.basepoint is not None or b_graph.basepoint is not None:
        raise ValueError("fiber products act on hull-core form")
    rank, width = a_graph.rank, b_graph.num_vertices
    size = a_graph.num_vertices * width
    b_by_label: dict[int, list[tuple[int, int, int]]] = {}
    for (sb, db, l) in b_graph.edges:
        b_by_label.setdefault(l, []).append((sb, db, (sb * size + db) * rank))
    joined = [(sa * width, da * width, (sa * size + da) * width * rank + l - 1,
               b_by_label.get(l, ())) for (sa, da, l) in a_graph.edges]
    sources = [sw + sb for (sw, _dw, _x, bs) in joined for (sb, _db, _y) in bs]
    targets = [dw + db for (_sw, dw, _x, bs) in joined for (_sb, db, _y) in bs]
    edges = [x + y for (_sw, _dw, x, bs) in joined for (_sb, _db, y) in bs]
    parent = dict(zip(sources, sources))
    parent.update(zip(targets, targets))
    order = join_least(parent, sources, targets)
    sizes = Counter(parent.values())
    per_root = Counter(map(parent.__getitem__, sources))
    # A stable sort by root groups the sorted codes by component.
    return ProductGraph(rank, width, size,
                        sorted(order, key=parent.__getitem__),
                        [(sizes[r], per_root[r]) for r in sorted(sizes)],
                        edges)


HullLike = Union[Subgroup, CoreGraph]


def product_rank(h: HullLike, k: HullLike) -> int:
    """N(H, K): sum of max(#E - #V, 0) over fiber-product components; a
    Subgroup stands for its hull."""
    a, b = (x.hull if isinstance(x, Subgroup) else x for x in (h, k))
    product = fiber_product(a, b)
    return sum(max(e - v, 0) for (v, e) in product.component_stats())


def shnc_margin(h: Subgroup, k: Subgroup) -> tuple[int, int]:
    """(N(H, K), rk(H) * rk(K)); the first never exceeds the second by the
    Friedman-Mineyev theorem."""
    return product_rank(h, k), h.reduced_rank() * k.reduced_rank()


def intersection(h: Subgroup, k: Subgroup) -> Subgroup:
    """The subgroup H intersect K, via the basepointed fiber product.

    The basepoints' component of core x core is walked breadth-first over
    pair codes a * |V(K)| + b, scanning signed letters x, X, y, Y, ...;
    each vertex keeps its row, a map from signed letter to walk id, and
    the walk records its tree: the letter that first reached each vertex
    and the walk id of the vertex it was reached from.  `_prune` runs on
    the rows, and the survivors, renumbered in walk order, give the
    sorted edges and the signed adjacency directly; each survivor's
    parent is renumbered the same way.  The core is stored unchecked:
    the walk reaches one component, the product of two folded cores is
    folded, the prune leaves every vertex but the basepoint with degree
    at least 2, and the edges are sorted.

    The basis is read off the walk's tree by `_tree_basis`, as `basis_of`
    reads it off its own breadth-first tree; the two trees are one,
    because a pruned vertex is never the tree parent of a survivor and
    never discovers one.  Memory is linear in the walk: <x^100> and
    <x^101> meet in <x^10100>, a walk of 10,100 pairs.
    """
    if h.rank != k.rank:
        raise BasisMismatchError(f"rank {h.rank} vs rank {k.rank}")
    a_core, b_core = h.core, k.core
    rank, width = h.rank, b_core.num_vertices
    letters = _SIGNED[:2 * rank]
    # Each vertex of A's letters in scan order, its neighbours pre-scaled.
    a_reads = [[(m, out[m] * width) for m in letters if m in out]
               for out in a_core._step]
    b_step = b_core._step
    start = a_core.basepoint * width + b_core.basepoint
    walk = [start]
    ids = {start: 0}
    rows: list[dict[int, int]] = []
    reach, parent = [0], [0]
    for i, v in enumerate(walk):
        a, b = divmod(v, width)
        b_out = b_step[b]
        row = {}
        for (m, aw) in a_reads[a]:
            if m in b_out:
                code = aw + b_out[m]
                j = ids.get(code)
                if j is None:
                    j = ids[code] = len(walk)
                    walk.append(code)
                    reach.append(m)
                    parent.append(i)
                row[m] = j
        rows.append(row)
    del a_reads, walk, ids
    # Rebinding `rows` frees the walk's rows when the prune rebuilt them.
    edges, rows, new_id = _prune(rows, 0)
    if len(rows) < len(new_id):
        # A survivor's tree parent survives: a tree path is a shortest
        # path from the protected basepoint, and none enters a pruned
        # hanging tree, which it could leave only by the edge it came in.
        kept = [i >= 0 for i in new_id]
        reach = list(compress(reach, kept))
        parent = [new_id[p] for p in compress(parent, kept)]
    return Subgroup._stored(
        tuple(_tree_basis(rank, edges, reach, parent)), rank,
        CoreGraph._stored(rank, len(rows), tuple(edges), 0, rows), None)


def component_census(product: ProductGraph) -> tuple[int, int, int]:
    """(total components, tree components, positive-rank components).

    The remainder (total - tree - positive) are rank-0 cycle components
    with #E = #V.  N(H, K) is recoverable from the positive class alone.
    """
    stats = product.component_stats()
    trees = sum(1 for (v, e) in stats if e == v - 1)
    positive = sum(1 for (v, e) in stats if e > v)
    return len(stats), trees, positive
