import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subsetcurrents import (RationalCurrent, RoundGraph, Subgroup,
                            WeightTable, check_matching, cylinder_table,
                            decompose, enumerate_round_graphs, integerize,
                            label_isomorphic, realize, verify_realization)
from subsetcurrents.approx import _matching_matrix
from subsetcurrents.cylinders import lens_rows
from subsetcurrents.errors import AdmissibilityError
from subsetcurrents.realize import WeightSystem
from subsetcurrents.stallings import (CoreGraph, _canonical_key,
                                      signed_adjacency)

from helpers import (TWO_ROWS_PER_GENERATOR, axis, canonical_form,
                     component_graphs, connected_components, current_tables,
                     full_ball, matching_tables, random_current,
                     reference_canonical_key, reference_check_matching,
                     reference_decompose, reference_matching_rows,
                     reference_realize, subgroups)

X_AXIS = axis(2, 1, 1)
FULL_STAR = full_ball(2, 1)


def system_of(current, radius):
    theta, _scale = integerize(cylinder_table(current, radius))
    return theta


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem(WeightTable(2, 1, {X_AXIS: Fraction(1, 2)}))
    with pytest.raises(ValueError):
        WeightSystem(WeightTable(2, 1, {}))
    # The constructor takes an unbalanced table; realize names its row.
    unbalanced = WeightTable(2, 1, {RoundGraph(2, 1, [(), (1,), (2,)]): 1})
    with pytest.raises(AdmissibilityError) as err:
        realize(WeightSystem(unbalanced))
    assert err.value.generator == 1
    assert err.value.lens == ((), (1,))


def test_realize_reports_the_first_violated_row():
    rng = random.Random(11)
    graphs = list(enumerate_round_graphs(2, 1))
    tables = [WeightTable(2, 1, {RoundGraph(2, 1, [(), (1,), (2,)]): 1})]
    for _ in range(40):
        tables.append(WeightTable(2, 1, {t: rng.randint(1, 3) for t
                                         in rng.sample(graphs, 3)}))
    # At radius 2 a generator has several lens classes: drop one entry of
    # an admissible table so that rows of one generator fail.
    for _ in range(20):
        entries = dict(cylinder_table(random_current(rng), 2)
                       .scale(36).entries)
        del entries[rng.choice(list(entries))]
        tables.append(WeightTable(2, 2, entries))
    for table in tables:
        violations = check_matching(table)
        if not violations:
            continue
        with pytest.raises(AdmissibilityError) as err:
            realize(WeightSystem(table))
        first = violations[0]
        assert (err.value.generator, err.value.lens, err.value.lhs,
                err.value.rhs) == (first.generator, first.lens, first.lhs,
                                   first.rhs)


ROUND_GRAPHS_R1 = list(enumerate_round_graphs(2, 1))


def row_values(matrix, columns, table):
    """Row values A.x for the table as a vector over the columns."""
    vec = [table[t] for t in columns]
    return [sum(c * vec[j] for j, c in row.items()) for row in matrix]


def in_full_kernel_r1(table):
    """True iff the table solves the full radius-1 system and
    `check_matching` finds no violated row."""
    matrix = _matching_matrix(ROUND_GRAPHS_R1, 2)
    return (all(x == 0 for x in row_values(matrix, ROUND_GRAPHS_R1, table))
            and check_matching(table) == [])


def test_matching_system_shape_r1():
    matrix = _matching_matrix(ROUND_GRAPHS_R1, 2)
    assert len(ROUND_GRAPHS_R1) == 11
    assert len(matrix) == 2
    # Row (u, J) is +1 where T holds u, -1 where it holds u^-1, and leaves
    # out T holding both or neither; one lens class per generator at
    # radius 1.
    for gen, row in zip((1, 2), matrix):
        signs = [((gen,) in set(t.words)) - ((-gen,) in set(t.words))
                 for t in ROUND_GRAPHS_R1]
        assert row == {j: c for j, c in enumerate(signs) if c}
    assert [(gen, key) for gen, key, _outs, _ins
            in lens_rows(ROUND_GRAPHS_R1, 2)] == [(1, ((), (1,))),
                                                  (2, ((), (2,)))]


def test_matching_system_kernel_contains_current_tables():
    rng = random.Random(3)
    assert in_full_kernel_r1(WeightTable(2, 1, {}))  # the zero vector
    for _ in range(10):
        assert in_full_kernel_r1(cylinder_table(random_current(rng), 1))


def test_matching_system_unit_axis_vector_in_kernel():
    assert in_full_kernel_r1(WeightTable(2, 1, {X_AXIS: 1}))


def test_support_system_matches_full_system():
    rng = random.Random(5)
    for _ in range(10):
        table = cylinder_table(random_current(rng), 1)
        columns = table.support()
        sub = _matching_matrix(columns, 2)
        assert all(x == 0 for x in row_values(sub, columns, table))
        assert in_full_kernel_r1(table)


def test_realize_axis_weight_gives_x_loop():
    theta = WeightSystem(WeightTable(2, 1, {X_AXIS: 1}))
    quotient = realize(theta)
    assert len(quotient.vertices) == 1
    assert quotient.component_edges == [[(0, 0, 1)]]
    current = decompose(quotient)
    assert len(current.terms) == 1
    assert label_isomorphic(current.terms[0][1].core,
                            Subgroup(["x"], 2).core)
    assert verify_realization(theta, current)


def test_realize_full_star_gives_rose():
    theta = WeightSystem(WeightTable(2, 1, {FULL_STAR: 1}))
    quotient = realize(theta)
    assert len(quotient.vertices) == 1
    assert quotient.component_edges == [[(0, 0, 1), (0, 0, 2)]]
    current = decompose(quotient)
    assert label_isomorphic(current.terms[0][1].core,
                            Subgroup.full(2).core)
    assert verify_realization(theta, current)


def test_realize_doubled_full_table():
    theta = WeightSystem(WeightTable(2, 1, {FULL_STAR: 2}))
    quotient = realize(theta)
    assert len(quotient.vertices) == 2
    assert len(quotient.components) == 2
    current = decompose(quotient)
    assert len(current.terms) == 1  # one shape, two components
    coeff, sub = current.terms[0]
    assert coeff == 2
    assert label_isomorphic(sub.core, Subgroup.full(2).core)
    assert verify_realization(theta, current)


def test_realize_is_deterministic():
    theta = system_of(random_current(random.Random(8)), 2)
    a, b = realize(theta), realize(theta)
    assert a.vertices == b.vertices
    assert a.component_edges == b.component_edges
    assert a.components == b.components


def test_realize_and_check_matching_hash_no_round_graph(monkeypatch):
    # Both read the matching rows by support position, so neither keys a
    # dict or a set by round-graph.
    current = RationalCurrent([(2, Subgroup(["xy", "yxY"], 2)),
                               (Fraction(1, 2), Subgroup(["xxy", "Y"], 2))],
                              2)
    table = cylinder_table(current, 2)
    unbalanced = table + WeightTable(2, 2, {table.support()[0]: 1})
    theta, _scale = integerize(table)
    hashed = []
    real_hash = RoundGraph.__hash__

    def counting_hash(t):
        hashed.append(t)
        return real_hash(t)

    monkeypatch.setattr(RoundGraph, "__hash__", counting_hash)
    assert check_matching(table) == []
    assert check_matching(unbalanced) != []
    realize(theta)
    assert hashed == []
    # The count sees a hash: one per key of a dict built by round-graph.
    dict.fromkeys(table.support())
    assert len(hashed) == len(table) > 1


def test_realize_radius_zero_special_case():
    theta = WeightSystem(WeightTable(2, 0, {RoundGraph(2, 0, [()]): 3}))
    quotient = realize(theta)
    assert len(quotient.vertices) == 3
    assert len(quotient.components) == 3
    assert verify_realization(theta, decompose(quotient))


def test_realize_mass_conservation():
    rng = random.Random(13)
    for _ in range(10):
        theta = system_of(random_current(rng), rng.choice([1, 2]))
        quotient = realize(theta)
        assert len(quotient.vertices) == theta.table.total()
        current = decompose(quotient)
        assert cylinder_table(current, 0).total() == theta.table.total()


def test_realized_components_are_hull_cores():
    # Terms are one per shape: the multiset of component keys must equal
    # the term hulls' keys weighted by their coefficients.
    rng = random.Random(17)
    for _ in range(8):
        theta = system_of(random_current(rng), 2)
        quotient = realize(theta)
        components = Counter(map(_canonical_key, component_graphs(
            quotient.rank, quotient.components, quotient.component_edges)))
        terms = Counter()
        for coeff, sub in decompose(quotient).terms:
            assert coeff.denominator == 1
            terms[_canonical_key(sub.hull)] += int(coeff)
        assert terms == components


def test_round_trip_random_weight_systems():
    rng = random.Random(21)
    for i in range(20):
        theta = system_of(random_current(rng), 1 + (i % 2))
        current = decompose(realize(theta))
        assert verify_realization(theta, current)


def test_verify_realization_detects_mismatch():
    theta = WeightSystem(WeightTable(2, 1, {FULL_STAR: 1}))
    assert verify_realization(theta, RationalCurrent.full(2))
    assert not verify_realization(theta, RationalCurrent.eta(Subgroup(["x"],
                                                                      2)))


def test_round_trip_rank_three():
    rng = random.Random(25)
    from helpers import random_subgroup
    for _ in range(3):
        current = RationalCurrent(
            [(Fraction(1, 2), random_subgroup(rng, rank=3, max_len=3))], 3)
        theta, _scale = integerize(cylinder_table(current, 1))
        assert verify_realization(theta, decompose(realize(theta)))


@st.composite
def weight_systems(draw):
    """Admissible integer tables: the integerized cylinder table of a
    random rational current, ranks 2-3, radii 1-2, times 1-3 so that
    shapes repeat."""
    table = draw(current_tables())
    assume(len(table) > 0)
    theta, _scale = integerize(table.scale(draw(st.integers(1, 3))))
    return theta


@settings(deadline=None, max_examples=60)
@given(weight_systems())
def test_realize_matches_reference(theta):
    quotient = realize(theta)
    vertices, components, component_edges = reference_realize(theta)
    assert quotient.vertices == vertices
    assert quotient.components == components
    assert quotient.component_edges == component_edges


@settings(deadline=None, max_examples=60)
@given(weight_systems())
@example(WeightSystem(WeightTable(2, 0, {RoundGraph(2, 0, [()]): 3})))
def test_realized_quotient_satisfies_its_invariants(theta):
    # The quotient stores what `realize` builds: it must be folded, each
    # copy must read exactly its round-graph's letters, every degree must
    # be >= 2, and the components must partition the copies, sorted and in
    # order of least vertex, each holding both ends of its edges.
    quotient = realize(theta)
    n = len(quotient.vertices)
    step = signed_adjacency(quotient.rank, n,
                            chain(*quotient.component_edges))
    for (t, _copy), letters in zip(quotient.vertices, step):
        if quotient.radius >= 1:
            assert letters.keys() == {w[0] for w in t.words if len(w) == 1}
        assert len(letters) >= 2
    components = quotient.components
    assert sorted(chain(*components)) == list(range(n))
    assert all(comp and list(comp) == sorted(comp) for comp in components)
    assert [comp[0] for comp in components] == \
        sorted(comp[0] for comp in components)
    assert len(quotient.component_edges) == len(components)
    for comp, edges in zip(components, quotient.component_edges):
        members = set(comp)
        assert all(s in members and d in members for (s, d, _l) in edges)
    # Each part is closed under edges, so as many parts as connected
    # components means each part is connected.
    assert len(connected_components(step)) == len(components)


@settings(deadline=None, max_examples=60)
@given(weight_systems())
def test_decompose_groups_reference_terms(theta):
    quotient = realize(theta)
    current = decompose(quotient)
    expected = [_canonical_key(sub.hull) for _c, sub
                in reference_decompose(reference_realize(theta)).terms]
    keys = [_canonical_key(sub.hull) for _c, sub in current.terms]
    assert keys == list(dict.fromkeys(expected))
    assert Counter(expected) == Counter(
        {key: int(c) for key, (c, _sub) in zip(keys, current.terms)})
    assert all(c.denominator == 1 for c, _sub in current.terms)
    assert sum(c for c, _sub in current.terms) == len(quotient.components)
    for _c, sub in current.terms:
        assert sub.hull == canonical_form(sub.hull)
        assert sub.core.basepoint == 0 and sub.core.edges == sub.hull.edges
    assert verify_realization(theta, current)


@settings(deadline=None, max_examples=60)
@given(weight_systems())
def test_decompose_terms_equal_those_of_the_reference_key(theta):
    # Each decoded component keyed by the all-starts reference, counted
    # per shape in order of first appearance, read off at the key's
    # vertex 0: the same coefficients, generators and order.
    quotient = realize(theta)
    shapes = Counter()
    for comp, edges in zip(quotient.components, quotient.component_edges):
        ids = {a: k for k, a in enumerate(comp)}
        shapes[reference_canonical_key(CoreGraph(
            theta.table.rank, len(comp), [(ids[s], ids[d], l)
                                    for (s, d, l) in edges], None))] += 1
    expected = [(count, Subgroup.from_core(
        CoreGraph(theta.table.rank, n, edges, 0)).generators)
        for (n, edges), count in shapes.items()]
    assert [(c, sub.generators) for c, sub in decompose(quotient).terms] \
        == expected


@settings(deadline=None, max_examples=60)
@given(weight_systems())
def test_decompose_stores_each_term_core_as_the_checked_constructor(theta):
    # Each term's core is stored unchecked; the public constructor on its
    # fields must accept them and build the same graph, and its rows are
    # the signed adjacency of its sorted edges.
    for _c, sub in decompose(realize(theta)).terms:
        c = sub.core
        checked = CoreGraph(c.rank, c.num_vertices, c.edges, 0)
        assert c == checked and hash(c) == hash(checked)
        assert c._step == checked._step == signed_adjacency(
            c.rank, c.num_vertices, c.edges)
        assert list(c.edges) == sorted(c.edges) and c.basepoint == 0


@settings(deadline=None, max_examples=150)
@given(matching_tables())
@example(TWO_ROWS_PER_GENERATOR)
def test_support_system_rows_match_reference(table):
    # The rows are sparse and hold no zero coefficient.
    columns = table.support()
    assert _matching_matrix(columns, table.rank) == [
        entries for _key, entries in reference_matching_rows(table.rank,
                                                             columns)]


@settings(deadline=None, max_examples=100)
@given(matching_tables())
@example(TWO_ROWS_PER_GENERATOR)
def test_realize_raises_the_reference_first_violation(table):
    assume(len(table) > 0)
    table = table.scale(lcm(*(v.denominator
                              for v in table.entries.values())))
    expected = reference_check_matching(table)
    if not expected:
        assert realize(WeightSystem(table)).component_edges == \
            reference_realize(WeightSystem(table))[2]
        return
    with pytest.raises(AdmissibilityError) as err:
        realize(WeightSystem(table))
    assert (err.value.generator, err.value.lens, err.value.lhs,
            err.value.rhs) == expected[0]


@st.composite
def atom_weight_systems(draw):
    """Admissible integer tables whose rows cut inside ranges: the
    cylinder table of 2-3 subgroups (generators of length <= 6) at
    distinct integer coefficients up to 50, ranks 2-3, radii 1-2.  The
    sides of a row then split their weight at different offsets, and
    atoms longer than 1 are common."""
    rank = draw(st.integers(2, 3))
    coefficients = draw(st.lists(st.integers(1, 50), min_size=2,
                                 max_size=3, unique=True))
    terms = [(c, draw(subgroups(rank, max_len=6))) for c in coefficients]
    table = cylinder_table(RationalCurrent(terms, rank),
                           draw(st.integers(1, 2)))
    assume(len(table) > 0)
    return WeightSystem(table)


# <xY> at 3 and <xyy> at 5 at radius 1: the closure adds six cuts inside
# ranges, and the longest atom has length 5.
CUT_INSIDE = WeightSystem(cylinder_table(RationalCurrent(
    [(3, Subgroup(["xY"], 2)), (5, Subgroup(["xyy"], 2))], 2), 1))


@settings(deadline=None, max_examples=60)
@given(atom_weight_systems())
@example(CUT_INSIDE)
def test_atoms_tile_the_weight_and_match_the_reference(theta):
    # The atoms tile the copies in order; paired atoms have equal length,
    # so each atom component has one length L and stands for L
    # components, and the L-weighted atom components cover the weight.
    quotient = realize(theta)
    lengths, atom_components = quotient.lengths, quotient.atom_components
    assert quotient.starts == list(accumulate([0] + lengths[:-1]))
    assert sorted(chain(*atom_components)) == list(range(len(lengths)))
    assert all(len({lengths[a] for a in comp}) == 1
               for comp in atom_components)
    assert sum(lengths[comp[0]] * len(comp)
               for comp in atom_components) == theta.table.total()
    vertices, components, component_edges = reference_realize(theta)
    assert quotient.vertices == vertices
    assert quotient.components == components
    assert quotient.component_edges == component_edges
    current = decompose(quotient)
    assert quotient.component_count() == len(components) == \
        sum(c for c, _sub in current.terms)
    assert Counter(_canonical_key(sub.hull) for _c, sub
                   in reference_decompose((vertices, components,
                                           component_edges)).terms) == \
        Counter({_canonical_key(sub.hull): int(c)
                 for c, sub in current.terms})
    assert verify_realization(theta, current)


def test_realize_cost_follows_the_atoms_not_the_weight():
    # theta x 10**6 of a radius-2 table has the atoms of theta, each 10**6
    # times as long; a build of one vertex per copy would hold tens of
    # millions of copies.
    theta = system_of(RationalCurrent(
        [(Fraction(1, 2), Subgroup(["xy", "yx"], 2)),
         (Fraction(1, 3), Subgroup(["xxY", "yxy"], 2))], 2), 2)
    big = WeightSystem(theta.table.scale(10 ** 6))
    start = time.perf_counter()
    assert verify_realization(big, decompose(realize(big)))
    assert time.perf_counter() - start < 1
    tracemalloc.start()
    try:
        quotient = realize(big)
        current = decompose(quotient)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    small = realize(theta)
    assert len(quotient.starts) == len(small.starts)
    assert quotient.lengths == [n * 10 ** 6 for n in small.lengths]
    assert [c for c, _sub in current.terms] == \
        [c * 10 ** 6 for c, _sub in decompose(small).terms]
