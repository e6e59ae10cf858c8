"""Integral weight realization: admissible integer tables as SC-graphs.

An admissible weight system assigns a nonnegative integer to every
round-graph at a fixed radius, satisfying the per-generator lens balance
equations.  The realization builds the quotient graph with theta(T)
copies of each round-graph as vertices and, per generator and lens
class, a positional bijection between the side containing the generator
and the side containing its inverse.  Components of the quotient are
hull-cores of subgroups; the sum of their counting currents evaluates on
cylinders to exactly the input weights.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat

from .errors import AdmissibilityError
from .cylinders import (RationalCurrent, RoundGraph, WeightTable,
                        cylinder_table, lens_rows)
from .stallings import (CoreGraph, Subgroup, _canonical_key, find_root,
                        hull_on)
from .words import _Frozen


class WeightSystem(_Frozen):
    """An integer-valued weight table with positive support; `realize`
    checks its matching equations and raises the first violated row."""

    __slots__ = ("table",)

    def __init__(self, table: WeightTable):
        if not table.is_integral():
            raise ValueError("weight system entries must be integers")
        if len(table) == 0:
            raise ValueError("weight system needs at least one positive weight")
        object.__setattr__(self, "table", table)

    @property
    def rank(self) -> int:
        return self.table.rank

    @property
    def radius(self) -> int:
        return self.table.radius

    def weight(self, t: RoundGraph) -> int:
        return int(self.table[t])

    def total(self) -> int:
        return int(self.table.total())

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightSystem) and self.table == other.table

    def __repr__(self) -> str:
        return f"WeightSystem({self.table!r})"


class SCGraphQuotient(_Frozen):
    """Quotient of a realized SC-graph: theta(T) copies of each T, with a
    labeled matching per generator.  Immersed over the rose, minimum
    degree 2.  `components` are sorted vertex tuples in order of least
    vertex, and `component_edges[k]` holds the sorted edges of component
    k.  The fields are stored as given, in the form `realize` builds and
    proves them."""

    __slots__ = ("rank", "radius", "vertices", "components",
                 "component_edges")

    def __init__(self, rank: int, radius: int,
                 vertices: tuple[tuple[RoundGraph, int], ...],
                 components: tuple[tuple[int, ...], ...],
                 component_edges: list[list[tuple[int, int, int]]]):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "component_edges", component_edges)

    def __repr__(self) -> str:
        return (f"SCGraphQuotient(rank={self.rank}, radius={self.radius}, "
                f"{len(self.vertices)} vertices, "
                f"{len(self.components)} components)")

    def component_graph(self, index: int) -> CoreGraph:
        """One component as a hull-core graph."""
        return hull_on(self.rank, self.components[index],
                       self.component_edges[index])


def realize(theta: WeightSystem) -> SCGraphQuotient:
    """Build the quotient SC-graph realizing an admissible weight system.

    Vertices are (T, i) for i = 1..theta(T), numbered consecutively.  For
    each generator u and lens class J, the vertices whose round-graph
    contains u and meets the lens in J are matched positionally (both
    sides in vertex order, each T's copies joining as one range) with
    those whose round-graph contains u^-1 and whose u-translate meets the
    lens in J; each matched pair gets a u-edge.  The balance equations
    make the two sides equinumerous, so the matching is total; the output
    is identical across runs.  Rows are visited in `lens_rows` order, the
    order `check_matching` reports them in, so an unbalanced table raises
    the AdmissibilityError of its first violated row.

    The quotient is built in final form and needs no second check.  A
    copy of T sits in exactly one out-row per letter u in T and one
    in-row per u^-1 in T, and each row pairs its sides one to one, so the
    graph is folded, each copy reads exactly T's letters, and every degree
    is >= 2.  Union-find joins each edge's ends under the least root, so
    components come out sorted, in order of least vertex, and each sorted
    edge is filed under its source's component.

    At radius 0 the only round-graph is the bare root and carries no
    matching constraints; each copy becomes a single vertex with a loop
    of the first generator, realizing the weight as copies of a cyclic
    subgroup's current.
    """
    table = theta.table
    vertices: list[tuple[RoundGraph, int]] = []
    copies: dict[RoundGraph, range] = {}
    for t in table.support():
        start = len(vertices)
        vertices.extend((t, i) for i in range(1, theta.weight(t) + 1))
        copies[t] = range(start, len(vertices))
    # No row meets the bare root of radius 0: each copy gets an x-loop.
    edges = [] if theta.radius else [(k, k, 1) for k in range(len(vertices))]
    for gen, key, outs, ins in lens_rows(table.support(), theta.rank):
        sources: list[int] = []
        targets: list[int] = []
        for t in outs:
            sources.extend(copies[t])
        for t in ins:
            targets.extend(copies[t])
        if len(sources) != len(targets):
            raise AdmissibilityError(gen, key, Fraction(len(sources)),
                                     Fraction(len(targets)))
        edges.extend(zip(sources, targets, repeat(gen)))
    edges.sort()
    parent = list(range(len(vertices)))
    for (s, d, _l) in edges:
        rs, rd = find_root(parent, s), find_root(parent, d)
        parent[max(rs, rd)] = min(rs, rd)
    # Parents are less than children: in increasing order each parent
    # already points at its root, and each component starts at its root.
    components: dict[int, list[int]] = {}
    for v in range(len(parent)):
        parent[v] = root = parent[parent[v]]
        components.setdefault(root, []).append(v)
    component_edges: dict[int, list[tuple[int, int, int]]] = {
        root: [] for root in components}
    for edge in edges:
        component_edges[parent[edge[0]]].append(edge)
    return SCGraphQuotient(theta.rank, theta.radius, tuple(vertices),
                           tuple(map(tuple, components.values())),
                           list(component_edges.values()))


def decompose(quotient: SCGraphQuotient) -> RationalCurrent:
    """One counting current per component shape, its coefficient the
    number of components of that shape, in order of first appearance.

    Each component is a hull-core; components of one canonical key (the
    numbering `canonical_form` stores) share a shape.  One core per shape,
    based at that numbering's vertex 0, the vertex of least canonical
    signature, gives its subgroup by a spanning-tree basis.  Reading a
    different basepoint would change the subgroup only within its
    conjugacy class, which counting currents do not see.
    """
    rank = quotient.rank
    # The shape depends only on the edges up to renumbering, and a realized
    # quotient repeats a few such local forms over many components.
    forms: Counter = Counter()
    for comp, edges in zip(quotient.components, quotient.component_edges):
        ids = {v: k for k, v in enumerate(comp)}
        forms[len(comp), tuple([(ids[s], ids[d], l)
                                for (s, d, l) in edges])] += 1
    shapes: Counter = Counter()
    for (n, edges), count in forms.items():
        shapes[_canonical_key(CoreGraph(rank, n, edges, None))] += count
    terms = [(count, Subgroup.from_core(CoreGraph(rank, n, edges, 0)))
             for (n, edges), count in shapes.items()]
    return RationalCurrent(terms, rank)


def verify_realization(theta: WeightSystem, current: RationalCurrent) -> bool:
    """True iff the current's cylinder table equals theta entrywise."""
    return cylinder_table(current, theta.radius) == theta.table
