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
from typing import Sequence

from .errors import AdmissibilityError
from .cylinders import (RationalCurrent, RoundGraph, WeightTable,
                        cylinder_table, enumerate_round_graphs, lens_rows)
from .stallings import (CoreGraph, Subgroup, canonical_form, find_root,
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


class MatchingSystem(_Frozen):
    """The lens-balance equations as an integer matrix over round-graphs.

    Row (u, J) of `lens_rows` carries +1 on its `outs` columns and -1
    on its `ins` columns; a column on both sides nets to 0, and a row
    left empty is dropped.  Admissible vectors are exactly the
    nonnegative kernel points.

    The columns may be any set of round-graphs, such as a table's
    support: a vector on them lies in the kernel of the full system iff
    it lies in this one's, since the rows not meeting the columns vanish
    on it identically.
    """

    __slots__ = ("rank", "radius", "columns", "column_index", "rows")

    def __init__(self, rank: int, radius: int,
                 columns: Sequence[RoundGraph]):
        columns = tuple(sorted(columns))
        index = {t: j for j, t in enumerate(columns)}
        cleaned = []
        for gen, key, outs, ins in lens_rows(columns, rank):
            signs = dict.fromkeys(map(index.__getitem__, outs), 1)
            for j in map(index.__getitem__, ins):
                signs[j] = signs.get(j, 0) - 1
            entries = {j: c for j, c in sorted(signs.items()) if c}
            if entries:
                cleaned.append(((gen, key), entries))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "column_index", index)
        object.__setattr__(self, "rows", tuple(cleaned))

    def matrix(self) -> list[list[int]]:
        out = []
        for _key, entries in self.rows:
            row = [0] * len(self.columns)
            for j, c in entries.items():
                row[j] = c
            out.append(row)
        return out

    def vector_of(self, table: WeightTable) -> list[Fraction]:
        """The table as a coordinate vector over this system's columns."""
        if any(t not in self.column_index for t in table.support()):
            raise ValueError("table support is not covered by the columns")
        vec = [Fraction(0)] * len(self.columns)
        for t in table.support():
            vec[self.column_index[t]] = table[t]
        return vec

    def residuals(self, table: WeightTable) -> list[Fraction]:
        """Row values A.x for the table's coordinate vector."""
        vec = self.vector_of(table)
        return [sum((c * vec[j] for j, c in entries.items()), Fraction(0))
                for _key, entries in self.rows]

    def __repr__(self) -> str:
        return (f"MatchingSystem(rank={self.rank}, radius={self.radius}, "
                f"{len(self.rows)} rows x {len(self.columns)} columns)")


def matching_system(rank: int, radius: int) -> MatchingSystem:
    """The full system over every round-graph at this radius."""
    columns = list(enumerate_round_graphs(rank, radius))
    return MatchingSystem(rank, radius, columns)


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

    Each component is a hull-core; components of one `canonical_form`
    share a shape.  Its subgroup is read off a spanning-tree basis at the
    vertex of least canonical signature.  Reading a different basepoint
    would change the subgroup only within its conjugacy class, which
    counting currents do not see.
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
        shapes[canonical_form(CoreGraph(rank, n, edges, None))] += count
    terms = [(count, Subgroup.from_core(
                  CoreGraph(rank, hull.num_vertices, hull.edges, 0)))
             for hull, count in shapes.items()]
    return RationalCurrent(terms, rank)


def verify_realization(theta: WeightSystem, current: RationalCurrent) -> bool:
    """True iff the current's cylinder table equals theta entrywise."""
    return cylinder_table(current, theta.radius) == theta.table
