"""Integral weight realization: admissible integer tables as SC-graphs.

An admissible weight system assigns a nonnegative integer to every
round-graph at a fixed radius, satisfying the per-generator lens balance
equations.  The realization is the quotient graph with theta(T) copies
of each round-graph as vertices and, per generator and lens class, a
positional bijection between the side containing the generator and the
side containing its inverse.  Each bijection translates whole blocks of
copies, so `realize` builds the quotient on atoms, the blocks that every
bijection moves as one, and an atom component of length L stands for L
isomorphic components.  Components of the quotient are hull-cores of
subgroups; the sum of their counting currents evaluates on cylinders to
exactly the input weights.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import sub

from .errors import AdmissibilityError
from .cylinders import (RationalCurrent, RoundGraph, WeightTable,
                        cylinder_table, lens_rows)
from .stallings import (CoreGraph, Subgroup, _canonical_key, join_least,
                        signed_adjacency)
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
        self._set(table)

    def __repr__(self) -> str:
        return f"WeightSystem({self.table!r})"


class SCGraphQuotient(_Frozen):
    """Quotient of a realized SC-graph in atom form, stored as `realize`
    builds it.  `weights` holds the (T, theta(T)) pairs, whose copies are
    numbered consecutively; atom k is the `lengths[k]` copies from
    `starts[k]`.  `atom_components` are sorted atom tuples in order of
    least atom, `atom_edges[k]` the sorted edges of atom component k.  An
    atom component of length L stands for L isomorphic components, copy
    j adding j to each atom start; `vertices`, `components` and
    `component_edges` decode them on each read."""

    __slots__ = ("rank", "radius", "weights", "starts", "lengths",
                 "atom_components", "atom_edges")

    def __init__(self, rank: int, radius: int, weights: tuple,
                 starts: list[int], lengths: list[int],
                 atom_components: tuple, atom_edges: list):
        self._set(rank, radius, weights, starts, lengths, atom_components,
                  atom_edges)

    @property
    def vertices(self) -> tuple[tuple[RoundGraph, int], ...]:
        """(T, i) for i = 1..theta(T), one pair per unit of weight."""
        return tuple((t, i) for t, w in self.weights for i in range(1, w + 1))

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Each component's sorted vertices."""
        starts, lengths = self.starts, self.lengths
        return tuple(tuple([starts[a] + j for a in comp])
                     for comp in self.atom_components
                     for j in range(lengths[comp[0]]))

    @property
    def component_edges(self) -> list[list[tuple[int, int, int]]]:
        """Each component's sorted edges (s, d, l)."""
        starts, lengths = self.starts, self.lengths
        return [[(starts[s] + j, starts[d] + j, l) for (s, d, l) in edges]
                for comp, edges in zip(self.atom_components, self.atom_edges)
                for j in range(lengths[comp[0]])]

    def component_count(self) -> int:
        """How many components the quotient has, read without decoding."""
        return sum(self.lengths[comp[0]] for comp in self.atom_components)

    def __repr__(self) -> str:
        return (f"SCGraphQuotient(rank={self.rank}, radius={self.radius}, "
                f"{sum(w for _t, w in self.weights)} vertices, "
                f"{self.component_count()} components)")


def realize(theta: WeightSystem) -> SCGraphQuotient:
    """Build the quotient SC-graph realizing an admissible weight system.

    Vertices are (T, i) for i = 1..theta(T), each T's copies one range of
    consecutive ids.  For each row (u, J) of `lens_rows`, the copies whose
    round-graph contains u and meets the lens in J are matched in vertex
    order with those whose round-graph contains u^-1 and whose u-translate
    meets the lens in J, and each matched pair gets a u-edge.  The sides'
    totals are compared row by row before anything is built, so an
    unbalanced table raises the AdmissibilityError of its first violated
    row, in `check_matching` order.  The output is identical across runs.

    Each row is a piecewise translation, so the quotient is built on
    atoms (the interval-exchange step of the Rips machine).  Rows name
    round-graphs by support position, which indexes every list below.
    A worklist closes the range starts under every row, mapping a cut at
    an offset of T across each row T sits in by bisect over the other
    side's ranges.  The spans between consecutive cuts are the atoms:
    each row pairs its atoms one to one, each with one of equal length.
    The work follows the atoms, not the weight, though the closure can
    cut up to sum(theta) of them.

    A copy of T sits in exactly one out-row per letter u in T and one
    in-row per u^-1 in T, so the graph is folded, each copy reads exactly
    T's letters, and every degree is >= 2, with no second check.
    `join_least` joins each atom edge's ends under the least root, so atom
    components come out sorted, in order of least atom, and each sorted
    atom edge is filed under its source's component.  An atom component
    has one length L, and its L copies have their least vertices in its
    least atom, so they decode in order of least vertex.

    At radius 0 the only round-graph is the bare root and carries no
    matching constraints; each copy becomes a single vertex with a loop
    of the first generator, realizing the weight as copies of a cyclic
    subgroup's current.
    """
    table = theta.table
    weights = tuple((t, int(w)) for t, w in table.entries.items())
    weight = [w for _t, w in weights]
    # Per row side j is on, `seats[j]` holds j's offset and the other side.
    rows = []
    seats: list[list] = [[] for _ in weights]
    for gen, key, outs, ins in lens_rows(table.support(), table.rank):
        sides = [(js, list(accumulate([0] + [weight[j] for j in js])))
                 for js in (outs, ins)]
        (_, lhs), (_, rhs) = sides
        if lhs[-1] != rhs[-1]:
            raise AdmissibilityError(gen, key, Fraction(lhs[-1]),
                                     Fraction(rhs[-1]))
        for (js, offsets), other in zip(sides, reversed(sides)):
            for j, offset in zip(js, offsets):
                seats[j].append((offset, other))
        rows.append((gen, outs, ins))
    cuts = [{0} for _ in weights]
    work = [(j, 0) for j in range(len(weights))]
    while work:
        j, cut = work.pop()
        for offset, (js, offsets) in seats[j]:
            at = offset + cut
            k = bisect_right(offsets, at) - 1
            i, at = js[k], at - offsets[k]
            if at not in cuts[i]:
                cuts[i].add(at)
                work.append((i, at))
    starts, lengths, atoms = [], [], []
    for at_cuts, w in zip(cuts, weight):
        bounds = sorted(at_cuts) + [w]
        begin = starts[-1] + lengths[-1] if starts else 0
        atoms.append(range(len(starts), len(starts) + len(bounds) - 1))
        starts.extend(begin + b for b in bounds[:-1])
        lengths.extend(map(sub, bounds[1:], bounds))
    # No row meets the bare root of radius 0: each atom gets an x-loop.
    edges = [] if table.radius else [(a, a, 1) for a in range(len(starts))]
    for gen, outs, ins in rows:
        edges.extend(zip(chain.from_iterable(map(atoms.__getitem__, outs)),
                         chain.from_iterable(map(atoms.__getitem__, ins)),
                         repeat(gen)))
    edges.sort()
    parent = list(range(len(starts)))
    join_least(parent, [e[0] for e in edges], [e[1] for e in edges])
    # Each component starts at its root, its least atom.
    components: dict[int, list[int]] = {}
    for a, root in enumerate(parent):
        components.setdefault(root, []).append(a)
    component_edges: dict[int, list[tuple[int, int, int]]] = {
        root: [] for root in components}
    for edge in edges:
        component_edges[parent[edge[0]]].append(edge)
    return SCGraphQuotient(table.rank, table.radius, weights, starts,
                           lengths, tuple(map(tuple, components.values())),
                           list(component_edges.values()))


def decompose(quotient: SCGraphQuotient) -> RationalCurrent:
    """One counting current per component shape, its coefficient the
    number of components of that shape, in order of first appearance.

    Each component is a hull-core, and an atom component of length L
    stands for L components of one local form (its edges renumbered in
    vertex order), so each form is keyed once per atom component and
    counted L times.  Forms of one `_canonical_key` share a shape; the key
    drops a start as soon as one of its BFS blocks is not least, so most
    forms are keyed from few starts.  One core per shape, based at that
    key's vertex 0, the vertex of least canonical signature, gives its
    subgroup by a spanning-tree basis.
    Reading a different basepoint would change the subgroup only within
    its conjugacy class, which counting currents do not see.

    Each form and each term's core is stored unchecked, its rows built
    once by `signed_adjacency`: `realize` proved every component folded,
    connected and of degree >= 2, and renumbering its vertices keeps all
    three.  A form's edges stay sorted, since its atoms are renumbered in
    increasing order, and a canonical key's edges come sorted.
    """
    rank, lengths = quotient.rank, quotient.lengths
    # The shape depends only on the edges up to renumbering, and a realized
    # quotient repeats a few such local forms over many components.
    forms: Counter = Counter()
    for comp, edges in zip(quotient.atom_components, quotient.atom_edges):
        ids = {a: k for k, a in enumerate(comp)}
        forms[len(comp), tuple([(ids[s], ids[d], l)
                                for (s, d, l) in edges])] += lengths[comp[0]]
    shapes: Counter = Counter()
    for (n, edges), count in forms.items():
        form = CoreGraph._stored(rank, n, edges, None,
                                 signed_adjacency(rank, n, edges))
        shapes[_canonical_key(form)] += count
    terms = [(count, Subgroup.from_core(CoreGraph._stored(
        rank, n, edges, 0, signed_adjacency(rank, n, edges))))
             for (n, edges), count in shapes.items()]
    return RationalCurrent(terms, rank)


def verify_realization(theta: WeightSystem, current: RationalCurrent) -> bool:
    """True iff the current's cylinder table equals theta entrywise."""
    return cylinder_table(current, theta.table.radius) == theta.table
