"""Fiber products of core graphs and the subgroup product N(H, K).

The fiber product of two hull-cores over the rose has a vertex for each
pair of vertices and an edge for each pair of same-label edges; its
connected components correspond to double cosets, and summing
max(#E - #V, 0) over components gives N(H, K), the double-coset sum of
reduced ranks.  Vertices incident to no matched edge are never
materialized: they are isolated singletons and contribute nothing.

`fiber_product` builds the product as an edge join costing sum over
labels l of |A_l| * |B_l|, with no BFS; `intersection` walks only the
basepoint's component of core x core.
"""

from __future__ import annotations

from itertools import chain
from typing import Union

from .errors import BasisMismatchError
from .stallings import (CoreGraph, Subgroup, find_root, hull_on,
                        _prune_edges)
from .words import _Frozen, _signed_letters

Pair = tuple[int, int]


class ProductGraph(_Frozen):
    """The edge-bearing part of a fiber product, split into components;
    `component_edges[k]` holds the edges of component k.  The fields are
    stored as given, in the order `fiber_product` builds them."""

    __slots__ = ("rank", "components", "component_edges")

    def __init__(self, rank: int, components: tuple, component_edges: list):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "component_edges", component_edges)

    @property
    def vertices(self) -> tuple[Pair, ...]:
        """Every vertex pair, component by component."""
        return tuple(chain.from_iterable(self.components))

    def __repr__(self) -> str:
        return (f"ProductGraph(rank={self.rank}, "
                f"components={len(self.components)})")

    def component_stats(self) -> list[tuple[int, int]]:
        """(#vertices, #edges) per component."""
        return [(len(comp), len(edges))
                for comp, edges in zip(self.components, self.component_edges)]

    def component_core(self, index: int) -> CoreGraph:
        """One component as a hull-core graph (fails on tree components)."""
        return hull_on(self.rank, self.components[index],
                       self.component_edges[index])


def fiber_product(a_graph: CoreGraph, b_graph: CoreGraph) -> ProductGraph:
    """Fiber product of two hull-cores, built as an edge join with no BFS.

    Each pair of an l-edge of A and an l-edge of B is a product edge, so
    the join costs sum over labels l of |A_l| * |B_l|.  A pair (a, b) is
    coded a * |V(B)| + b, which orders codes as pairs, so the sorted codes
    decode straight into the product's final order; union-find joins each
    edge's ends under the least root, the component's least pair.
    """
    if a_graph.rank != b_graph.rank:
        raise BasisMismatchError(
            f"rank {a_graph.rank} vs rank {b_graph.rank}")
    if a_graph.basepoint is not None or b_graph.basepoint is not None:
        raise ValueError("fiber products act on hull-core form")
    width = b_graph.num_vertices
    b_by_label: dict[int, list[tuple[int, int]]] = {}
    for (s, d, l) in b_graph.edges:
        b_by_label.setdefault(l, []).append((s, d))
    coded = sorted((sa * width + sb, da * width + db, l)
                   for (sa, da, l) in a_graph.edges
                   for (sb, db) in b_by_label.get(l, ()))
    parent = {v: v for (s, d, _l) in coded for v in (s, d)}
    for (s, d, _l) in coded:
        rs, rd = find_root(parent, s), find_root(parent, d)
        parent[max(rs, rd)] = min(rs, rd)
    # Parents are less than children: in increasing order each parent
    # already points at its root, and each component starts at its root.
    pair: dict[int, Pair] = {}
    components: dict[int, list[Pair]] = {}
    for v in sorted(parent):
        parent[v] = root = parent[parent[v]]
        pair[v] = p = divmod(v, width)
        components.setdefault(root, []).append(p)
    component_edges: dict[int, list[tuple[Pair, Pair, int]]] = {
        root: [] for root in components}
    for (s, d, l) in coded:
        component_edges[parent[s]].append((pair[s], pair[d], l))
    del coded, parent           # freed before the fields are copied
    return ProductGraph(a_graph.rank, tuple(map(tuple, components.values())),
                        list(component_edges.values()))


def _product_component(a_core: CoreGraph, b_core: CoreGraph
                       ) -> tuple[list[Pair], list[tuple[Pair, Pair, int]]]:
    """The basepoints' product component in breadth-first order over
    signed letters x, X, y, Y, ..., and its edges."""
    a_step, b_step = a_core._step, b_core._step
    comp = [(a_core.basepoint, b_core.basepoint)]
    seen = set(comp)
    edges: list[tuple[Pair, Pair, int]] = []
    for v in comp:
        a_out, b_out = a_step[v[0]], b_step[v[1]]
        for m in _signed_letters(a_core.rank):
            if m in a_out and m in b_out:
                w = (a_out[m], b_out[m])
                if m > 0:           # each edge once, from its source
                    edges.append((v, w, m))
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
    return comp, edges


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
    """The subgroup H intersect K, via the basepointed fiber product."""
    if h.rank != k.rank:
        raise BasisMismatchError(f"rank {h.rank} vs rank {k.rank}")
    comp, edges = _product_component(h.core, k.core)
    # The product of two folded graphs is folded: only the prune is left.
    ids = {v: n for n, v in enumerate(comp)}
    n, core_edges, _ = _prune_edges(
        len(comp), [(ids[s], ids[d], l) for (s, d, l) in edges], 0)
    return Subgroup.from_core(CoreGraph(h.rank, n, core_edges, 0))


def component_census(product: ProductGraph) -> tuple[int, int, int]:
    """(total components, tree components, positive-rank components).

    The remainder (total - tree - positive) are rank-0 cycle components
    with #E = #V.  N(H, K) is recoverable from the positive class alone.
    """
    stats = product.component_stats()
    trees = sum(1 for (v, e) in stats if e == v - 1)
    positive = sum(1 for (v, e) in stats if e > v)
    return len(stats), trees, positive
