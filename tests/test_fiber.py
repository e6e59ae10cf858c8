import random
import tracemalloc
from itertools import chain, product as iter_product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subsetcurrents import (CoreGraph, LabeledGraph, Subgroup, Word,
                            basis_of, component_census, fiber_product,
                            finite_index, fold, hull_core, intersection,
                            label_isomorphic, parse_word, product_rank,
                            shnc_margin)
from subsetcurrents.errors import BasisMismatchError

from helpers import (_reference_product_component, component_graphs,
                     conjugate, random_finite_cover, random_subgroup,
                     random_word, reduce,
                     reference_basis_of, reference_fiber_product,
                     reference_intersection_core)

ROSE_HULL = CoreGraph(2, 1, [(0, 0, 1), (0, 0, 2)], None)
DOUBLE_HULL = CoreGraph(2, 2, [(0, 1, 1), (1, 0, 1), (0, 0, 2), (1, 1, 2)],
                        None)


def dense_product(a, b):
    """Oracle: the full vertex-pair enumeration of the fiber product."""
    vertices = set(iter_product(range(a.num_vertices), range(b.num_vertices)))
    edges = set()
    for (s1, d1, l1) in a.edges:
        for (s2, d2, l2) in b.edges:
            if l1 == l2:
                edges.add(((s1, s2), (d1, d2), l1))
    # components over the edge-bearing part
    touched = {v for (s, d, _l) in edges for v in (s, d)}
    adj = {v: set() for v in touched}
    for (s, d, _l) in edges:
        adj[s].add(d)
        adj[d].add(s)
    comps = []
    seen = set()
    for v in sorted(touched):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return vertices, edges, set(comps)


def test_product_with_rose_is_identity():
    rng = random.Random(2)
    for _ in range(10):
        hull = random_subgroup(rng).hull
        if hull.num_vertices == 0:
            continue
        p = fiber_product(ROSE_HULL, hull)
        assert len(p.components) == 1
        (component,) = component_graphs(p.rank, p.components,
                                        p.component_edges)
        assert label_isomorphic(component, hull)


def test_product_of_disjoint_labels_is_empty():
    x_loop = CoreGraph(2, 1, [(0, 0, 1)], None)
    y_loop = CoreGraph(2, 1, [(0, 0, 2)], None)
    for p in (fiber_product(x_loop, y_loop), fiber_product(y_loop, x_loop)):
        assert p.vertices == () and p.components == ()
        assert p.component_edges == []
        assert component_census(p) == (0, 0, 0)
    # Two 2,000-vertex cycles with no label in common: the join lists no
    # edge, so nothing of size |V(A)|*|V(B)| = 4e6 may be allocated (a
    # table of 4e6 one-byte slots alone would take 4 MB).
    x_cycle, y_cycle = (Subgroup([w], 2).hull for w in ("x^2000", "y^2000"))
    assert x_cycle.num_vertices == y_cycle.num_vertices == 2000
    tracemalloc.start()
    try:
        p = fiber_product(x_cycle, y_cycle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (p.components, p.component_edges) == ((), [])
    assert peak < 10 ** 6


def test_product_with_an_empty_hull_is_empty():
    empty = Subgroup([], 2).hull
    assert empty.num_vertices == 0
    for a, b in ((empty, ROSE_HULL), (ROSE_HULL, empty), (empty, empty)):
        p = fiber_product(a, b)
        assert (p.vertices, p.components, p.component_edges) == \
            ((), (), [])
        assert component_census(p) == (0, 0, 0)
    assert product_rank(Subgroup([], 2), Subgroup.full(2)) == 0


def test_product_rank_rejects_a_basepointed_core():
    with pytest.raises(ValueError):
        product_rank(Subgroup.full(2).core, ROSE_HULL)


def test_double_cover_self_product():
    p = fiber_product(DOUBLE_HULL, DOUBLE_HULL)
    assert sorted(p.component_stats()) == [(2, 4), (2, 4)]
    assert sum(max(e - v, 0) for (v, e) in p.component_stats()) == 4
    assert component_census(p) == (2, 0, 2)


def test_product_matches_dense_oracle():
    rng = random.Random(8)
    for _ in range(25):
        a = random_subgroup(rng).hull
        b = random_subgroup(rng).hull
        if a.num_vertices == 0 or b.num_vertices == 0:
            continue
        p = fiber_product(a, b)
        _vertices, edges, comps = dense_product(a, b)
        assert set(chain(*p.component_edges)) == edges
        assert {frozenset(c) for c in p.components} == comps
        assert len(p.component_edges) == len(p.components)
        for comp, comp_edges in zip(p.components, p.component_edges):
            assert comp_edges == sorted(e for e in edges if e[0] in comp)


def subgroups(rank):
    """Subgroups of the free group of this rank on 1 to 3 random words."""
    letter = st.integers(1, rank).flatmap(lambda m: st.sampled_from((m, -m)))
    word = st.lists(letter, min_size=1, max_size=6).map(
        lambda letters: reduce(letters, rank))
    return st.lists(word, min_size=1, max_size=3).map(
        lambda words: Subgroup(words, rank))


@st.composite
def subgroup_pairs(draw):
    """Two random subgroups of one free group of rank 2 or 3."""
    subgroup = subgroups(draw(st.integers(2, 3)))
    return draw(subgroup), draw(subgroup)


@settings(deadline=None, max_examples=80)
@given(subgroup_pairs())
def test_product_matches_dense_oracle_and_shnc(pair):
    h, k = pair
    if h.hull.num_vertices and k.hull.num_vertices:
        p = fiber_product(h.hull, k.hull)
        _vertices, edges, comps = dense_product(h.hull, k.hull)
        assert set(chain(*p.component_edges)) == edges
        assert {frozenset(c) for c in p.components} == comps
    assert product_rank(h, k) <= h.reduced_rank() * k.reduced_rank()


@st.composite
def hull_pairs(draw):
    """Two subgroups of one free group of rank 2 or 3, the first either a
    random subgroup or a finite-index one, whose product with the second
    has many components."""
    h, k = draw(subgroup_pairs())
    if draw(st.booleans()):
        h = Subgroup.from_core(random_finite_cover(
            h.rank, draw(st.integers(1, 6)), draw(st.integers(0, 10**6))))
    return h, k


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 3), st.integers(1, 5), st.integers(0, 10**6),
       st.data())
def test_product_with_a_cover_has_degree_times_the_reduced_rank(
        rank, degree, seed, data):
    # Each component of the product of a degree-d cover of the rose with
    # H's hull covers that hull, and Euler characteristic multiplies under
    # covers, so N is exactly d times H's reduced rank (Stallings, Invent.
    # Math. 1983): an oracle for the join at any rank, with no second
    # product to compare against.
    cover = hull_core(random_finite_cover(rank, degree, seed))
    h = data.draw(subgroups(rank))
    assert product_rank(cover, h) == degree * h.reduced_rank()


def product_fields(p):
    return p.rank, p.components, p.component_edges


@settings(deadline=None, max_examples=300)
@given(hull_pairs())
def test_fiber_product_equals_reference_in_order(pair):
    h, k = pair
    for a, b in ((h.hull, k.hull), (k.hull, h.hull), (h.hull, h.hull)):
        assert product_fields(fiber_product(a, b)) == \
            reference_fiber_product(a, b)


@settings(deadline=None, max_examples=200)
@given(hull_pairs())
def test_component_stats_count_the_decoded_product(pair):
    # component_stats() is the join's count per union-find root, read
    # without decoding; it must count what the decoded fields hold.
    h, k = pair
    for a, b in ((h.hull, k.hull), (k.hull, h.hull)):
        p = fiber_product(a, b)
        assert p.component_stats() == [
            (len(comp), len(edges))
            for comp, edges in zip(p.components, p.component_edges)]
        assert p.vertices == tuple(chain.from_iterable(p.components))


def test_product_rank_builds_no_tuple_per_pair():
    # N(H, K) reads only the (#V, #E) counts of the coded join.  Decoded,
    # a product of two covers of the rose holds a pair tuple per vertex
    # and an edge tuple per edge, about 490 bytes a pair at rank 2 (two
    # edges a pair); the coded join peaks at about 300 bytes a pair.
    h, k = (Subgroup.from_core(random_finite_cover(2, degree, seed)).hull
            for degree, seed in ((60, 1), (70, 2)))
    pairs = h.num_vertices * k.num_vertices
    tracemalloc.start()
    try:
        n = product_rank(h, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Every component has #E = 2 #V, so N = #E - #V = #V = 4,200.
    assert n == pairs == 4200
    assert peak < 400 * pairs


@settings(deadline=None, max_examples=200)
@given(hull_pairs())
def test_fiber_product_is_built_in_canonical_order(pair):
    # ProductGraph decodes its coded fields in this order, and the join
    # alone decides it.
    h, k = pair
    for a, b in ((h.hull, k.hull), (k.hull, h.hull)):
        p = fiber_product(a, b)
        for seq in p.components + tuple(p.component_edges):
            assert all(x < y for x, y in zip(seq, seq[1:]))
        assert [c[0] for c in p.components] == \
            sorted(c[0] for c in p.components)
        edges = sorted(chain(*p.component_edges))
        comp_of = {v: n for n, c in enumerate(p.components) for v in c}
        assert p.component_edges == [
            [e for e in edges if comp_of[e[0]] == n]
            for n in range(len(p.components))]


@settings(deadline=None, max_examples=200)
@given(hull_pairs())
def test_intersection_equals_reference(pair):
    # The reference walks the product with `CoreGraph.step` and builds each
    # basis word through `reduce`, which checks and reduces it again.
    h, k = pair
    meet = intersection(h, k)
    core = reference_intersection_core(h, k)
    assert meet.core == core
    # `==` ignores the stored adjacency, which the constructor derives.
    assert meet.core._step == CoreGraph(core.rank, core.num_vertices,
                                        meet.core.edges, 0)._step
    assert list(meet.generators) == reference_basis_of(core)
    for c in (h.core, k.core, core):
        basis = basis_of(c)
        assert basis == reference_basis_of(c)
        assert all(Word(w.rank, w.letters) == w and
                   hash(Word(w.rank, w.letters)) == hash(w) for w in basis)


@pytest.mark.parametrize("h, k, walked, kept, basis", [
    (["x", "yxY"], ["xy", "Xyx"], 6, 5, ["XyxYX"]),
    # The pruned pair is walked second, before a survivor.
    (["xy", "yy"], ["xx", "yy"], 3, 2, ["yy"]),
])
def test_intersection_basis_after_the_prune_deletes(h, k, walked, kept,
                                                    basis):
    # No benchmark item prunes its walked component, so the branch that
    # cuts the walk's tree down to the survivors is pinned here.
    h, k = Subgroup(h, 2), Subgroup(k, 2)
    component = _reference_product_component(
        h.core, k.core, (h.core.basepoint, k.core.basepoint), set(), set())
    meet = intersection(h, k)
    core = reference_intersection_core(h, k)
    assert (len(component), core.num_vertices) == (walked, kept)
    assert meet.core == core and meet.core._step == core._step
    assert list(meet.generators) == reference_basis_of(core) == [
        parse_word(w, 2) for w in basis]


@settings(deadline=None, max_examples=150)
@given(subgroup_pairs())
def test_intersection_core_is_the_folded_product(pair):
    # The basepointed product of two folded cores is already folded, so
    # pruning it alone gives what folding it would.
    h, k = pair
    edges = set()
    comp = _reference_product_component(
        h.core, k.core, (h.core.basepoint, k.core.basepoint), set(), edges)
    ids = {v: n for n, v in enumerate(comp)}
    raw = LabeledGraph(h.rank, len(comp),
                       [(ids[s], ids[d], l) for (s, d, l) in edges], 0)
    assert intersection(h, k).core == fold(raw)


def test_product_rank_examples():
    assert product_rank(Subgroup(["x"], 2), Subgroup(["y"], 2)) == 0
    h = Subgroup(["xx", "y"], 2)
    assert product_rank(h, h) == 1
    full = Subgroup.full(2)
    assert product_rank(full, full) == 1


def test_product_rank_full_group_gives_reduced_rank():
    rng = random.Random(14)
    full = Subgroup.full(2)
    for _ in range(30):
        k = random_subgroup(rng)
        assert product_rank(full, k) == k.reduced_rank()


def test_shnc_examples_and_random_pairs():
    assert shnc_margin(Subgroup(["x"], 2), Subgroup(["xyX", "y"], 2)) == (0, 0)
    assert shnc_margin(Subgroup.full(2), Subgroup.full(2)) == (1, 1)
    rng = random.Random(21)
    for _ in range(100):
        h, k = random_subgroup(rng), random_subgroup(rng)
        n, bound = shnc_margin(h, k)
        assert n <= bound


def test_product_rank_symmetry_and_conjugation_invariance():
    rng = random.Random(28)
    for _ in range(30):
        h, k = random_subgroup(rng), random_subgroup(rng)
        assert product_rank(h, k) == product_rank(k, h)
        g = random_word(rng, 2, 4)
        moved = Subgroup.from_core(conjugate(h.core, g))
        assert product_rank(moved, k) == product_rank(h, k)


def test_intersection_examples():
    a = intersection(Subgroup(["x"], 2), Subgroup(["xx"], 2))
    assert label_isomorphic(a.core, Subgroup(["xx"], 2).core)
    k = Subgroup(["xy", "yxY"], 2)
    assert label_isomorphic(intersection(Subgroup.full(2), k).core,
                            k.core)


def test_intersection_membership_cross_check_named_example():
    h = Subgroup(["x", "yxY"], 2)
    k = Subgroup(["y", "xyX"], 2)
    both = intersection(h, k)
    for length in range(7):
        for combo in iter_product([1, -1, 2, -2], repeat=length):
            w = reduce(combo, 2)
            assert both.contains(w) == (h.contains(w) and k.contains(w))


def test_intersection_membership_cross_check_randomized():
    rng = random.Random(33)
    words = [reduce(c, 2) for length in range(6)
             for c in iter_product([1, -1, 2, -2], repeat=length)]
    for _ in range(8):
        h, k = random_subgroup(rng, max_len=4), random_subgroup(rng, max_len=4)
        both = intersection(h, k)
        for w in words:
            assert both.contains(w) == (h.contains(w) and k.contains(w))


def test_intersection_with_trivial_overlap():
    a = Subgroup(["xyXY"], 2)
    b = Subgroup(["yxYX"], 2)
    meet = intersection(a, b)
    # <w> and <w^-1> are the same subgroup.
    assert label_isomorphic(meet.core, a.core)


def test_component_census_matches_product_rank():
    rng = random.Random(44)
    for _ in range(20):
        h, k = random_subgroup(rng), random_subgroup(rng)
        p = fiber_product(h.hull, k.hull)
        total, trees, positive = component_census(p)
        stats = p.component_stats()
        assert total == len(stats)
        assert trees == sum(1 for (v, e) in stats if e == v - 1)
        assert positive == sum(1 for (v, e) in stats if e > v)
        assert total == trees + positive + \
            sum(1 for (v, e) in stats if e == v)


def test_index_pairs_double_count():
    # For an index-k subgroup H' of H, each H-double-coset splits, but
    # N(H', H') against the same group scales by k^2 only in the normal
    # full-cover case; spot-check the normal double cover exactly.
    h = Subgroup.from_core(CoreGraph(2, 2, [(0, 1, 1), (1, 0, 1), (0, 0, 2),
                                            (1, 1, 2)], 0))
    assert h.reduced_rank() == 2
    assert product_rank(h, h) == 4


def test_fiber_product_preconditions():
    with pytest.raises(BasisMismatchError):
        fiber_product(ROSE_HULL, CoreGraph(3, 1, [(0, 0, 1), (0, 0, 2)], None))
    with pytest.raises(ValueError):
        fiber_product(CoreGraph(2, 1, [(0, 0, 1), (0, 0, 2)], 0), ROSE_HULL)


def double_coset_oracle(h, k):
    """N(H, K) straight from the double-coset sum; needs [F:H] finite.

    Right cosets of H are the vertices of its full cover; K acts on them
    by tracing its generators, and each orbit is one double coset HgK
    with g the path word to the orbit representative.
    """
    from subsetcurrents import Word, finite_index
    from helpers import conjugate
    core_h = h.core
    assert finite_index(core_h) is not None
    parent = list(range(core_h.num_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for v in range(core_h.num_vertices):
        for gen in k.generators:
            w = core_h.trace(v, gen)
            ra, rb = find(v), find(w)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    path = {core_h.basepoint: ()}
    queue = [core_h.basepoint]
    i = 0
    while i < len(queue):
        v = queue[i]
        i += 1
        for lab in range(1, core_h.rank + 1):
            for letter in (lab, -lab):
                w = core_h.step(v, letter)
                if w is not None and w not in path:
                    path[w] = path[v] + (letter,)
                    queue.append(w)
    total = 0
    for v in range(core_h.num_vertices):
        if find(v) == v:
            g = Word(core_h.rank, path[v])
            conjugated = Subgroup.from_core(conjugate(k.core, g))
            total += intersection(h, conjugated).reduced_rank()
    return total


def test_product_rank_matches_double_coset_sum():
    rng = random.Random(77)
    for trial in range(10):
        h = Subgroup.from_core(random_finite_cover(2, rng.randint(1, 4),
                                                   seed=trial))
        k = Subgroup.from_core(random_finite_cover(2, rng.randint(1, 4),
                                                   seed=500 + trial))
        assert product_rank(h, k) == double_coset_oracle(h, k)
    for trial in range(10):
        h = Subgroup.from_core(random_finite_cover(2, rng.randint(1, 3),
                                                   seed=trial))
        k = random_subgroup(rng, max_len=4)
        assert product_rank(h, k) == double_coset_oracle(h, k)


def test_rank_three_products():
    rng = random.Random(9)
    full3 = Subgroup.full(3)
    for _ in range(15):
        k = random_subgroup(rng, rank=3, max_len=4)
        n, bound = shnc_margin(k, k)
        assert n <= bound
        assert product_rank(full3, k) == k.reduced_rank()


def test_nested_subgroup_intersection():
    from subsetcurrents import subgroup_Hn
    from helpers import subgroup_Gn
    for n in (2, 3, 4):
        meet = intersection(subgroup_Gn(n), subgroup_Hn(n))
        assert label_isomorphic(meet.core, subgroup_Hn(n).core)


def test_intersection_of_long_cycles_stores_no_tree_path_per_vertex():
    # <x^100> and <x^101> meet in <x^10100>: the walk visits 10,100 pairs,
    # at depths up to 5,050, so one tree path per vertex would hold about
    # 25 million letters.  The walk keeps a letter and a parent instead.
    h, k = Subgroup(["x^100"], 2), Subgroup(["x^101"], 2)
    h.core, k.core
    tracemalloc.start()
    try:
        meet = intersection(h, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert meet.generators == (parse_word("x^10100", 2),)
    assert peak < 16 * 2 ** 20


def test_intersection_core_is_numbered_in_letter_order():
    # The product walk scans x, X, y, Y and the core numbers vertices by
    # first visit, so that order fixes the core exactly, not just up to
    # isomorphism.
    meet = intersection(Subgroup(["xx", "y", "xyX"], 2),
                        Subgroup(["x", "yy"], 2))
    assert meet.core == CoreGraph(2, 4, [(0, 1, 1), (0, 2, 2), (1, 0, 1),
                                         (1, 3, 2), (2, 0, 2), (3, 1, 2)], 0)


def test_intersection_of_random_covers():
    # Intersections of finite-index subgroups have predictable index:
    # H' = H cap K has index dividing [F:H] * [F:K].
    rng = random.Random(50)
    for i in range(10):
        h = Subgroup.from_core(random_finite_cover(2, 2, seed=i))
        k = Subgroup.from_core(random_finite_cover(2, 3, seed=100 + i))
        meet = intersection(h, k)
        idx = finite_index(meet.core)
        assert idx is not None and idx <= 6 and 6 % idx == 0


# The paper's index formulas as oracles, independent of the pair-by-pair
# enumeration behind `dense_product` and `reference_fiber_product`: a
# fiber product with a degree-d cover is a degree-d cover, so vertex
# counts and Euler characteristics multiply by d.

@st.composite
def finite_index_pairs(draw):
    """Two finite-index subgroups J, K of one free group of rank 2 or 3,
    each of index 1 to 7, with their indices."""
    rank = draw(st.integers(2, 3))
    degrees = [draw(st.integers(1, 7)) for _ in range(2)]
    covers = [Subgroup.from_core(random_finite_cover(
        rank, d, draw(st.integers(0, 10 ** 6)))) for d in degrees]
    return covers, degrees


@settings(deadline=None, max_examples=200)
@given(finite_index_pairs())
def test_intersection_index_divides_and_is_bounded(pairs):
    # [F:J cap K] = [F:J][J:J cap K] <= [F:J][F:K], and symmetrically.
    (j, k), (dj, dk) = pairs
    index = finite_index(intersection(j, k).core)
    assert index is not None
    assert index % dj == 0 and index % dk == 0
    assert index <= dj * dk


@settings(deadline=None, max_examples=200)
@given(finite_index_pairs())
def test_product_of_covers_has_every_vertex_pair(pairs):
    (j, k), (dj, dk) = pairs
    assert len(fiber_product(j.hull, k.hull).vertices) == dj * dk


@settings(deadline=None, max_examples=200)
@given(finite_index_pairs(), st.data())
def test_product_rank_with_a_cover_scales_the_reduced_rank(pairs, data):
    # Every component of the product covers H's hull, whose reduced rank
    # is its #E - #V, and the degrees of the components sum to [F:J].
    (j, _k), (dj, _dk) = pairs
    h = data.draw(subgroups(j.rank))
    assume(not h.is_trivial())
    assert product_rank(j, h) == dj * h.reduced_rank()
