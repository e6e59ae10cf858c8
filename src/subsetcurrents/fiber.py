"""Fiber products of core graphs and the subgroup product N(H, K).

The fiber product of two hull-cores over the rose has a vertex for each
pair of vertices and an edge for each pair of same-label edges; its
connected components correspond to double cosets, and summing
max(#E - #V, 0) over components gives N(H, K), the double-coset sum of
reduced ranks.  Vertices incident to no matched edge are never
materialized: they are isolated singletons and contribute nothing.
"""

from __future__ import annotations

from typing import Iterable, Union

from .errors import BasisMismatchError
from .stallings import (CoreGraph, Subgroup, edges_by_component, hull_on,
                        _prune_edges)
from .words import _signed_letters

Pair = tuple[int, int]


class ProductGraph:
    """The edge-bearing part of a fiber product, split into components;
    `component_edges[k]` holds the edges of component k."""

    __slots__ = ("rank", "vertices", "edges", "components", "component_edges")

    def __init__(self, rank: int, vertices: Iterable[Pair],
                 edges: Iterable[tuple[Pair, Pair, int]],
                 components: Iterable[tuple[Pair, ...]]):
        edges = tuple(sorted(edges))
        components = tuple(sorted(tuple(sorted(c)) for c in components))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "vertices", tuple(sorted(vertices)))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "component_edges",
                           edges_by_component(components, edges))

    def __setattr__(self, name, value):
        raise AttributeError("ProductGraph is immutable")

    def __repr__(self) -> str:
        return (f"ProductGraph(rank={self.rank}, vertices={len(self.vertices)}, "
                f"edges={len(self.edges)}, components={len(self.components)})")

    def component_stats(self) -> list[tuple[int, int]]:
        """(#vertices, #edges) per component."""
        return [(len(comp), len(edges))
                for comp, edges in zip(self.components, self.component_edges)]

    def component_core(self, index: int) -> CoreGraph:
        """One component as a hull-core graph (fails on tree components)."""
        return hull_on(self.rank, self.components[index],
                       self.component_edges[index])


def _product_neighbors(a_graph: CoreGraph, b_graph: CoreGraph,
                       pair: Pair) -> Iterable[tuple[Pair, int]]:
    """The pairs one signed letter away, in letter order x, X, y, Y, ..."""
    a, b = pair
    for letter in _signed_letters(a_graph.rank):
        a2 = a_graph.step(a, letter)
        if a2 is not None:
            b2 = b_graph.step(b, letter)
            if b2 is not None:
                yield (a2, b2), letter


def fiber_product(a_graph: CoreGraph, b_graph: CoreGraph) -> ProductGraph:
    """Fiber product of two hull-cores, explored component by component.

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
    components = [_product_component(a_graph, b_graph, seed, seen, edges)
                  for seed in sorted(seeds) if seed not in seen]
    return ProductGraph(a_graph.rank, seen, edges, components)


def _product_component(a_graph: CoreGraph, b_graph: CoreGraph, start: Pair,
                       seen: set[Pair],
                       edges: set[tuple[Pair, Pair, int]]) -> list[Pair]:
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


HullLike = Union[Subgroup, CoreGraph]


def _hull_of(x: HullLike) -> CoreGraph:
    if isinstance(x, Subgroup):
        return x.hull
    if x.basepoint is not None:
        raise ValueError("expected a hull-core or a Subgroup")
    return x


def product_rank(h: HullLike, k: HullLike) -> int:
    """N(H, K): sum of max(#E - #V, 0) over fiber-product components."""
    product = fiber_product(_hull_of(h), _hull_of(k))
    return sum(max(e - v, 0) for (v, e) in product.component_stats())


def shnc_margin(h: Subgroup, k: Subgroup) -> tuple[int, int]:
    """(N(H, K), rk(H) * rk(K)); the first never exceeds the second by the
    Friedman-Mineyev theorem."""
    return product_rank(h, k), h.reduced_rank() * k.reduced_rank()


def intersection(h: Subgroup, k: Subgroup) -> Subgroup:
    """The subgroup H intersect K, via the basepointed fiber product."""
    if h.rank != k.rank:
        raise BasisMismatchError(f"rank {h.rank} vs rank {k.rank}")
    a_graph, b_graph = h.core, k.core
    edges: set[tuple[Pair, Pair, int]] = set()
    comp = _product_component(a_graph, b_graph,
                              (a_graph.basepoint, b_graph.basepoint),
                              set(), edges)
    # The product of two folded graphs is folded: only the prune is left.
    ids = {v: n for n, v in enumerate(comp)}
    n, core_edges, _ = _prune_edges(
        len(comp), sorted((ids[s], ids[d], l) for (s, d, l) in edges), 0)
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
