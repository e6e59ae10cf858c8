import random
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsetcurrents import (CoreGraph, LabeledGraph, Subgroup, Word, basis_of,
                            contains, core_from_generators, finite_index,
                            fold, graph_from_text, graph_to_text, hull_core,
                            label_isomorphic, parse_word, reduced_rank,
                            subgroup_from_text, subgroup_to_text)
from subsetcurrents.approx import subgroup_Hn
from subsetcurrents.cylinders import table_from_text, table_to_text
from subsetcurrents.errors import BasisMismatchError, FileFormatError
from subsetcurrents.stallings import (_canonical_key, _fold_rows, _lay, _prune,
                                      signed_adjacency)

from helpers import (FILES, add_path, canonical_form, conjugate,
                     current_tables, malformed_files, random_cover, reduce,
                     random_finite_cover, random_subgroup, random_word,
                     reference_canonical_key, reference_core_from_generators,
                     reference_fold_edges, reference_prune_edges, subgroups)

ROSE = core_from_generators(["x", "y"], 2)
DOUBLE_COVER = CoreGraph(2, 2, [(0, 1, 1), (1, 0, 1), (0, 0, 2), (1, 1, 2)], 0)


def brute_fold(num_vertices, edges):
    """Independent folding oracle: rescan and merge one pair at a time.

    Finds any vertex with two same-label edges in the same direction and
    rewrites the whole edge list identifying the two far endpoints.
    """
    edges = set(edges)
    while True:
        outgoing, incoming = {}, {}
        merge = None
        for (s, d, l) in sorted(edges):
            if (s, l) in outgoing and outgoing[(s, l)] != d:
                merge = (outgoing[(s, l)], d)
                break
            outgoing[(s, l)] = d
            if (d, l) in incoming and incoming[(d, l)] != s:
                merge = (incoming[(d, l)], s)
                break
            incoming[(d, l)] = s
        if merge is None:
            return edges
        keep, drop = min(merge), max(merge)
        edges = {(keep if s == drop else s, keep if d == drop else d, l)
                 for (s, d, l) in edges}


def as_core(rank, edges, basepoint):
    vertices = sorted({v for (s, d, _l) in edges for v in (s, d)} | {basepoint})
    ids = {v: i for i, v in enumerate(vertices)}
    return CoreGraph(rank, len(vertices),
                     [(ids[s], ids[d], l) for (s, d, l) in edges],
                     ids[basepoint])


def test_core_examples():
    c = core_from_generators(["x"], 2)
    assert (c.num_vertices, c.num_edges) == (1, 1)
    assert (ROSE.num_vertices, ROSE.num_edges) == (1, 2)
    c = core_from_generators(["xy", "xY"], 2)
    assert (c.num_vertices, c.num_edges) == (2, 3)
    expected = CoreGraph(2, 2, [(0, 1, 1), (1, 0, 2), (0, 1, 2)], 0)
    assert label_isomorphic(c, expected)


def test_core_of_empty_generator_list():
    c = core_from_generators([], 2)
    assert (c.num_vertices, c.num_edges) == (1, 0)
    assert contains(c, "e")
    assert not contains(c, "x")


def test_fold_is_idempotent_on_folded_input():
    refolded = fold(LabeledGraph(2, ROSE.num_vertices, ROSE.edges,
                                 ROSE.basepoint))
    assert refolded == ROSE


def test_fold_merges_parallel_loops():
    g = LabeledGraph(2, 1, [(0, 0, 1), (0, 0, 1)], 0)
    c = fold(g)
    assert (c.num_vertices, c.num_edges) == (1, 1)


def test_fold_agrees_with_brute_oracle():
    rng = random.Random(42)
    for _ in range(60):
        g = LabeledGraph(2, 1, basepoint=0)
        base = g.basepoint
        for _ in range(rng.randint(1, 3)):
            add_path(g, base, base, random_word(rng, 2, 5).letters)
        expected = as_core(2, brute_fold(g.num_vertices, g.edges), base)
        assert label_isomorphic(fold(g), expected)


def test_fold_preserves_basepoint_loop_labels():
    rng = random.Random(53)
    for _ in range(30):
        g = LabeledGraph(2, 1, basepoint=0)
        base = g.basepoint
        words = [random_word(rng, 2, 5) for _ in range(rng.randint(1, 3))]
        for w in words:
            add_path(g, base, base, w.letters)
        folded = fold(g)
        for w in words:
            assert contains(folded, w)


def test_fold_is_confluent_under_edge_order():
    rng = random.Random(7)
    for _ in range(30):
        g = LabeledGraph(2, 1, basepoint=0)
        base = g.basepoint
        for _ in range(rng.randint(1, 3)):
            add_path(g, base, base, random_word(rng, 2, 4).letters)
        reference = fold(g)
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        assert label_isomorphic(fold(LabeledGraph(2, g.num_vertices, shuffled,
                                                  base)), reference)


@st.composite
def raw_graphs(draw, connected=False):
    """(rank, vertex count, edges): loops and parallel edges allowed;
    with `connected`, a random spanning tree is laid first."""
    n = draw(st.integers(1, 40))
    rank = draw(st.integers(1, 3))
    labels = st.integers(1, rank)
    edges = []
    if connected:
        for v in range(1, n):
            u = draw(st.integers(0, v - 1))
            edge = (u, v) if draw(st.booleans()) else (v, u)
            edges.append(edge + (draw(labels),))
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex, labels),
                           max_size=2 * n + 4))
    return rank, n, edges


def laid(n, edges):
    """The rows and worklist that `_lay` writes for `edges`, in order."""
    rows, pending = [{} for _ in range(n)], []
    for edge in edges:
        _lay(rows, pending, *edge)
    return rows, pending


@given(raw_graphs())
def test_fold_edges_matches_reference(graph):
    # The quotient comes back as its rows; they are the signed adjacency
    # of the reference quotient's edges.
    rank, n, edges = graph
    count, folded, mapping = reference_fold_edges(n, edges)
    assert _fold_rows(*laid(n, edges)) == (
        signed_adjacency(rank, count, folded), mapping)


@given(raw_graphs(connected=True), st.data())
def test_fold_maps_the_basepoint_through_the_fold_and_the_prune(graph, data):
    # A graph from outside folds to the reference fold of its edges,
    # pruned with its basepoint, wherever the basepoint sits.
    rank, n, edges = graph
    base = data.draw(st.integers(0, n - 1))
    folded_n, folded, mapping = reference_fold_edges(n, edges)
    count, pruned, new_id = reference_prune_edges(
        folded_n, folded, mapping[base])
    assert fold(LabeledGraph(rank, n, edges, base)) == CoreGraph(
        rank, count, pruned, new_id[mapping[base]])


@given(raw_graphs(), st.data())
def test_prune_edges_matches_reference(graph, data):
    # The prune acts on folded graphs: the reference quotient of a raw one,
    # its rows filled in a drawn edge order.
    rank, n, edges = graph
    n, edges, _ = reference_fold_edges(n, edges)
    protect = data.draw(st.none() | st.integers(0, n - 1))
    rows = signed_adjacency(rank, n, data.draw(st.permutations(edges)))
    count, pruned, new_id = reference_prune_edges(n, edges, protect)
    assert _prune(rows, protect) == (
        pruned, signed_adjacency(rank, count, pruned),
        [new_id.get(v, -1) for v in range(n)])


@example(Subgroup(["yxY"], 2))
@example(Subgroup([], 2))
@given(st.integers(1, 3).flatmap(subgroups))
def test_prune_returns_the_given_rows_when_nothing_is_deleted(sub):
    # A core with its basepoint protected and a hull-core have no vertex
    # to delete, so the rows come back as given with every id kept; a
    # core with a degree-1 basepoint unprotected is pruned and rebuilt.
    # Both branches give the reference prune's edges and rows.
    core, hull = sub.core, sub.hull
    for c, protect in ((core, core.basepoint), (hull, None), (core, None)):
        n = c.num_vertices
        count, pruned, new_id = reference_prune_edges(n, c.edges, protect)
        edges, rows, ids = _prune(c._step, protect)
        assert (edges, rows, ids) == (
            pruned, signed_adjacency(c.rank, count, pruned),
            [new_id.get(v, -1) for v in range(n)])
        assert (rows is c._step) == (count == n)
        assert count == n or (c is core and protect is None)
    if hull.num_vertices == core.num_vertices:
        assert hull._step is core._step


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(subgroups))
def test_hull_core_matches_the_checked_constructor(sub):
    # `hull_core` stores its result unchecked; the public constructor on
    # the reference prune's edges must build the same graph.
    c = sub.core
    n, edges, _ = reference_prune_edges(c.num_vertices, c.edges, None)
    hull, checked = hull_core(c), CoreGraph(c.rank, n, edges, None)
    assert hull == checked and hash(hull) == hash(checked)
    assert (hull.rank, hull.num_vertices, hull.edges, hull.basepoint,
            hull._step) == (checked.rank, checked.num_vertices,
                            checked.edges, checked.basepoint, checked._step)


@given(raw_graphs(connected=True), st.data())
def test_fold_is_equal_under_edge_shuffle(graph, data):
    rank, n, edges = graph
    base = data.draw(st.integers(0, n - 1))
    shuffled = data.draw(st.permutations(edges))
    assert fold(LabeledGraph(rank, n, shuffled, base)) == \
        fold(LabeledGraph(rank, n, edges, base))


@st.composite
def generator_lists(draw):
    """(words, rank), ranks 1-3: generators built from a few base words and
    from earlier generators, so that prefixes and suffixes are shared, with
    repeats, inverses, powers, conjugates and the identity among them."""
    rank = draw(st.integers(1, 3))
    letter = st.integers(1, rank).flatmap(lambda m: st.sampled_from((m, -m)))
    word = st.lists(letter, max_size=6).map(
        lambda letters: reduce(letters, rank))
    pool = draw(st.lists(word, min_size=1, max_size=3))
    gens: list[Word] = []
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.sampled_from(pool + gens))
        b = draw(word)
        kind = draw(st.sampled_from(("repeat", "inverse", "power", "conjugate",
                                     "prefix", "suffix", "identity")))
        if kind == "repeat":
            gens.append(a)
        elif kind == "inverse":
            gens.append(~a)
        elif kind == "power":
            gens.append(reduce(a.letters * draw(st.integers(2, 4)), rank))
        elif kind == "conjugate":
            gens.append(b * a * ~b)
        elif kind == "prefix":
            gens.append(a * b)
        elif kind == "suffix":
            gens.append(b * a)
        else:
            gens.append(Word(rank))
    return gens, rank


@settings(deadline=None, max_examples=300)
@given(generator_lists())
def test_core_from_generators_matches_reference(case):
    gens, rank = case
    assert core_from_generators(gens, rank) == \
        reference_core_from_generators(gens, rank)


@settings(deadline=None, max_examples=300)
@given(generator_lists())
def test_core_from_generators_stores_its_edges_signed_adjacency(case):
    # The core is stored unchecked; its rows are the signed adjacency of
    # its sorted edges, and the checked constructor accepts its fields.
    gens, rank = case
    c = core_from_generators(gens, rank)
    assert c._step == signed_adjacency(rank, c.num_vertices, c.edges)
    assert c == CoreGraph(rank, c.num_vertices, c.edges, c.basepoint)
    assert list(c.edges) == sorted(c.edges) and c.basepoint == 0


@pytest.mark.parametrize("gens, rank, error, message", [
    ([], 0, ValueError, "rank must be between 1 and 25, got 0"),
    ([], 26, ValueError, "rank must be between 1 and 25, got 26"),
    ([Word(3, (3,))], 2, BasisMismatchError, "word rank 3 vs rank 2"),
], ids=["rank-0", "rank-26", "word-of-rank-3"])
def test_core_from_generators_refuses_a_bad_rank(gens, rank, error, message):
    with pytest.raises(error, match=message):
        core_from_generators(gens, rank)


def test_core_from_generators_lays_only_unread_letters(monkeypatch):
    # H_n's core is a y^n cycle with x-loops: once y^n is laid, every
    # y^i x y^-i reads its y-prefix and y-suffix, and lays one x-loop;
    # the merge gets n rows holding 2n - 1 edges, and no clash.
    from subsetcurrents import stallings
    handed = []

    def recording_fold_rows(rows, pending):
        handed.append((len(rows), sum(map(len, rows)) // 2, len(pending)))
        return _fold_rows(rows, pending)

    monkeypatch.setattr(stallings, "_fold_rows", recording_fold_rows)
    for n in (2, 7, 64):
        handed.clear()
        core = subgroup_Hn(n).core
        assert handed == [(n, 2 * n - 1, 0)]
        assert (core.num_vertices, core.num_edges) == (n, 2 * n - 1)


def test_core_of_long_commensurable_powers():
    # <x^1600, x^1601> = <x>: one vertex carrying one x-loop.
    c = core_from_generators(["x" * 1600, "x" * 1601], 1)
    assert c == CoreGraph(1, 1, [(0, 0, 1)], 0)


def test_hull_of_H256_is_the_decorated_cycle():
    hull = subgroup_Hn(256).hull
    assert (hull.num_vertices, hull.num_edges) == (256, 511)


def test_hull_of_long_conjugate_is_one_loop():
    c = core_from_generators(["x" * 4000 + "y" + "X" * 4000], 2)
    assert c.num_vertices == 4001
    assert hull_core(c) == CoreGraph(2, 1, [(0, 0, 2)], None)


def test_hull_core_examples():
    tail = core_from_generators(["xyX"], 2)
    hull = hull_core(tail)
    assert label_isomorphic(hull, CoreGraph(2, 1, [(0, 0, 2)], None))
    assert label_isomorphic(hull_core(ROSE),
                            CoreGraph(2, 1, [(0, 0, 1), (0, 0, 2)], None))
    assert hull_core(core_from_generators([], 2)).num_vertices == 0


def test_hull_core_is_idempotent():
    rng = random.Random(3)
    for _ in range(30):
        h = random_subgroup(rng).hull
        assert hull_core(h) == h


def test_contains_examples():
    cx = core_from_generators(["x"], 2)
    assert contains(cx, "xx")
    assert not contains(cx, "y")
    c = core_from_generators(["xy", "xY"], 2)
    assert contains(c, "xyyX")  # (xy)(xY)^-1


def test_contains_bfs_products_oracle():
    gens = [parse_word(s, 2) for s in ("xy", "xY")]
    elements = {reduce([], 2)}
    for k in range(1, 4):
        for combo in product([1, -1, 2, -2], repeat=k):
            w = reduce([], 2)
            for c in combo:
                g = gens[abs(c) - 1]
                w = w * (g if c > 0 else ~g)
            elements.add(w)
    c = core_from_generators(["xy", "xY"], 2)
    for w in elements:
        assert contains(c, w)


def test_contains_agrees_with_core_isomorphism_oracle():
    # w is in H iff adjoining w to the generators leaves the core unchanged.
    rng = random.Random(11)
    for _ in range(25):
        sub = random_subgroup(rng, max_gens=3, max_len=4)
        for _ in range(6):
            w = random_word(rng, 2, 4)
            enlarged = core_from_generators(list(sub.generators) + [w], 2)
            assert contains(sub.core, w) == label_isomorphic(sub.core,
                                                             enlarged)


def test_contains_accepts_short_generator_products():
    rng = random.Random(16)
    for _ in range(15):
        sub = random_subgroup(rng, max_gens=3, max_len=4)
        gens = sub.generators
        for combo in product(range(-len(gens), len(gens) + 1), repeat=3):
            w = reduce([], 2)
            for c in combo:
                if c:
                    g = gens[abs(c) - 1]
                    w = w * (g if c > 0 else ~g)
            assert sub.contains(w)


def test_reduced_rank_examples():
    assert reduced_rank(ROSE) == 1
    assert reduced_rank(core_from_generators(["x"], 2)) == 0
    assert reduced_rank(core_from_generators([], 2)) == 0
    assert reduced_rank(hull_core(core_from_generators([], 2))) == 0


def test_finite_index_examples():
    assert finite_index(ROSE) == 1
    assert finite_index(core_from_generators(["x"], 2)) is None
    assert finite_index(DOUBLE_COVER) == 2


def test_finite_index_against_coset_enumeration():
    # Count right cosets Hw among all short words, using membership only.
    sub = Subgroup.from_core(DOUBLE_COVER)
    representatives = []
    for length in range(5):
        for combo in product([1, -1, 2, -2], repeat=length):
            w = reduce(combo, 2)
            if all(not sub.contains(w * ~r)
                   for r in representatives):
                representatives.append(w)
    assert len(representatives) == 2


def test_conjugate_examples():
    cy = core_from_generators(["y"], 2)
    assert label_isomorphic(conjugate(cy, "x"),
                            core_from_generators(["xyX"], 2))
    assert conjugate(cy, "e") == cy
    assert label_isomorphic(hull_core(conjugate(cy, "x")), hull_core(cy))


def test_conjugate_hull_invariance_randomized():
    rng = random.Random(19)
    for _ in range(40):
        sub = random_subgroup(rng)
        g = random_word(rng, 2, 4)
        assert label_isomorphic(hull_core(conjugate(sub.core, g)), sub.hull)


def test_conjugate_membership():
    rng = random.Random(23)
    for _ in range(20):
        sub = random_subgroup(rng, max_gens=2, max_len=4)
        g = random_word(rng, 2, 3)
        moved = conjugate(sub.core, g)
        w = random_word(rng, 2, 4)
        assert contains(moved, g * w * ~g) == \
            contains(sub.core, w)


def test_random_finite_cover_examples():
    assert label_isomorphic(random_finite_cover(2, 1, seed=5), ROSE)
    c = random_finite_cover(2, 2, seed=9)
    assert finite_index(c) == 2
    for degree in range(1, 9):
        for rank in (2, 3):
            c = random_finite_cover(rank, degree, seed=degree * 10 + rank)
            assert finite_index(c) == degree
            assert reduced_rank(c) == degree * (rank - 1)


def test_random_finite_cover_is_deterministic():
    assert random_finite_cover(2, 5, seed=77) == random_finite_cover(2, 5,
                                                                     seed=77)


def test_random_finite_cover_golden_edges():
    # Pins the draw order: one shuffle per generator, in label order.
    assert random_finite_cover(2, 5, seed=77).edges == (
        (0, 1, 1), (0, 3, 2), (1, 2, 2), (1, 3, 1), (2, 0, 1), (2, 4, 2),
        (3, 0, 2), (3, 4, 1), (4, 1, 2), (4, 2, 1))


def test_word_arguments_share_one_rank_check():
    wide = Word(3, (3,))
    for call in (lambda: core_from_generators([wide], 2),
                 lambda: contains(ROSE, wide),
                 lambda: conjugate(ROSE, wide),
                 lambda: Subgroup(["x", wide], 2)):
        with pytest.raises(BasisMismatchError, match="word rank 3 vs rank 2"):
            call()
    assert contains(ROSE, "xyX") and Subgroup(["xy"], 2).generators == (
        Word(2, (1, 2)),)


@pytest.mark.parametrize("call, type_name", [
    (lambda: Subgroup([(1, 2)], 2), "tuple"),
    (lambda: Subgroup(["xy"], 2).contains((1, 2)), "tuple"),
    (lambda: Subgroup([12], 2), "int"),
])
def test_word_arguments_of_another_type_raise_a_named_type_error(call,
                                                                 type_name):
    # A word is a `Word` or its text; anything else is refused by name
    # before any attribute of it is read.
    with pytest.raises(TypeError, match=f"expected a Word or a string, "
                                        f"got {type_name}$"):
        call()


def test_random_cover_index_and_membership():
    rng = random.Random(31)
    for i in range(10):
        sub = random_subgroup(rng, max_gens=2, max_len=4)
        cover = random_cover(sub.core, 3, seed=i)
        lifted = Subgroup.from_core(cover)
        # H' is a subgroup of H: every generator word of H' lies in H.
        for w in lifted.generators:
            assert sub.contains(w)


def test_basis_of_examples():
    assert sorted(w.letters for w in basis_of(ROSE)) == [(1,), (2,)]
    assert [w.letters for w in basis_of(core_from_generators(["x"], 2))] == \
        [(1,)]
    words = basis_of(DOUBLE_COVER)
    assert len(words) == 3  # Schreier: 2 * (2 - 1) + 1
    for w in words:
        assert contains(DOUBLE_COVER, w)
    rebuilt = core_from_generators(words, 2)
    assert label_isomorphic(rebuilt, DOUBLE_COVER)


def test_basis_of_a_long_loop_stores_no_tree_path_per_vertex():
    # The core of <x^10000 y> is one loop of 10,001 vertices at depths up
    # to 5,000: one tree path per vertex would hold 25 million letters.
    core = core_from_generators(["x^10000 y"], 2)
    tracemalloc.start()
    try:
        words = basis_of(core)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == [parse_word("x^10000 y", 2)]
    assert peak < 16 * 2 ** 20


def test_basis_of_size_matches_rank():
    rng = random.Random(13)
    for _ in range(30):
        sub = random_subgroup(rng)
        core = sub.core
        words = basis_of(core)
        assert len(words) == core.num_edges - (core.num_vertices - 1)
        assert label_isomorphic(core_from_generators(words, 2), core)


def test_from_core_keeps_the_core():
    rng = random.Random(41)
    cores = [DOUBLE_COVER, ROSE, core_from_generators([], 2)]
    cores += [random_subgroup(rng, rank=rng.choice([2, 3])).core
              for _ in range(30)]
    for c in cores:
        sub = Subgroup.from_core(c)
        assert sub.core is c
        assert label_isomorphic(sub.core,
                                core_from_generators(basis_of(c), c.rank))
        assert sub.hull == hull_core(c)


def test_intersection_core_does_not_fold(monkeypatch):
    from subsetcurrents import intersection, stallings
    calls = []

    def counting_fold_rows(rows, pending):
        calls.append(len(rows))
        return _fold_rows(rows, pending)

    rng = random.Random(43)
    for _ in range(10):
        h, k = random_subgroup(rng), random_subgroup(rng)
        h.core, k.core
        monkeypatch.setattr(stallings, "_fold_rows", counting_fold_rows)
        calls.clear()
        meet = intersection(h, k)
        meet.core
        assert calls == []
        monkeypatch.undo()


def _recounted(graph: LabeledGraph, num_vertices: int) -> LabeledGraph:
    """`graph` with its vertex count set after construction, since the
    constructor refuses a negative count itself."""
    graph.num_vertices = num_vertices
    return graph


@pytest.mark.parametrize("graph, message", [
    (LabeledGraph(2, 2, [(0, 0, 1), (0, 5, 2)], 0), "missing vertex"),
    (LabeledGraph(1, 2, [(0, 0, 1), (0, -1, 1)], 0), "missing vertex"),
    (LabeledGraph(2, 1, [(0, 0, 1)], 3), "basepoint 3 out of range"),
    (LabeledGraph(2, 1, [(0, 0, 1)], -1), "basepoint -1 out of range"),
    (LabeledGraph(2, 2, [(0, 0, 1), (0, 1, 5)], 0),
     "edge label 5 out of range for rank 2"),
    (LabeledGraph(2, 2, [(0, 0, 1), (0, 1, -1)], 0),
     "edge label -1 out of range for rank 2"),
    (LabeledGraph(2, 2, [(0, 0, 1), (0, 1, 0)], 0),
     "edge label 0 out of range for rank 2"),
    (_recounted(LabeledGraph(2), -2), "vertex count -2 is negative"),
], ids=["edge-past-end", "edge-negative", "basepoint-past-end",
        "basepoint-negative", "label-past-rank", "label-negative",
        "label-zero", "vertices-negative"])
def test_fold_rejects_out_of_range_input(graph, message):
    # Neither an index error nor a negative index wrapping round to the
    # last vertex, nor a bad label on an edge the prune would drop (each
    # of the last three graphs would fold to the one-vertex x-loop core):
    # a named ValueError.
    with pytest.raises(ValueError, match=message):
        fold(graph)


def test_core_graph_validation():
    with pytest.raises(ValueError):
        CoreGraph(2, 2, [(0, 0, 1), (0, 1, 1)], 0)  # not folded
    with pytest.raises(ValueError):
        CoreGraph(2, 2, [(0, 0, 1), (1, 1, 2)], 0)  # disconnected
    with pytest.raises(ValueError):
        CoreGraph(2, 2, [(0, 1, 1)], 0)  # dangling non-basepoint vertex
    with pytest.raises(ValueError):
        CoreGraph(2, 1, [(0, 0, 3)], 0)  # label out of range
    # No graph has -3 vertices; counted as one, it had reduced rank 3.
    with pytest.raises(ValueError, match="vertex count -3 is negative"):
        CoreGraph(2, -3, [], None)


@pytest.mark.parametrize("build, message", [
    (lambda: CoreGraph(2, 1.0, [(0, 0, 1), (0, 0, 2)], 0),
     "vertex count 1.0 is not an int"),
    (lambda: CoreGraph(2, True, [(0, 0, 1), (0, 0, 2)], 0),
     "vertex count True is not an int"),
    (lambda: CoreGraph(2, 1, [(0, 0, 1), (0, 0, 2)], 0.0),
     "basepoint 0.0 out of range"),
    (lambda: fold(LabeledGraph(2, 1.0, [(0, 0, 1)], 0)),
     "vertex count 1.0 is not an int"),
    (lambda: fold(LabeledGraph(2, 1, [(0, 0, 1)], 0.0)),
     "basepoint 0.0 out of range"),
], ids=["core-float-count", "core-bool-count", "core-float-basepoint",
        "fold-float-count", "fold-float-basepoint"])
def test_graphs_take_only_int_counts_and_basepoints(build, message):
    # A float or a bool is not a vertex index: a named ValueError, not a
    # TypeError from `range` or a list index, nor a core storing 0.0 or
    # True.
    with pytest.raises(ValueError, match=message):
        build()


def test_core_graph_stores_each_edge_as_a_tuple():
    # A core hashes its fields when asked, so an edge given as a list is
    # stored as a tuple: the core is hashable and equals the tuple form.
    listed = CoreGraph(2, 1, [[0, 0, 1], [0, 0, 2]], 0)
    built = CoreGraph(2, 1, [(0, 0, 2), (0, 0, 1)], 0)
    assert listed.edges == built.edges == ((0, 0, 1), (0, 0, 2))
    assert listed == built and hash(listed) == hash(built)


def test_labeled_graph_refuses_a_negative_vertex_count():
    # Else a path laid on it would number its fresh vertices -2, -1, ...
    with pytest.raises(ValueError, match="vertex count -2 is negative"):
        LabeledGraph(2, -2)


def test_add_path_refuses_a_path_that_cannot_be_laid():
    # No letters join two different vertices; an empty loop lays nothing.
    g = LabeledGraph(2, 2)
    with pytest.raises(ValueError, match="no letters to lay from 0 to 1"):
        add_path(g, 0, 1, [])
    add_path(g, 1, 1, [])
    assert (g.num_vertices, g.edges) == (2, [])


def test_signed_adjacency():
    # x from 0 to 1, a y-loop at 1: the loop reads y and Y at its vertex.
    assert signed_adjacency(2, 2, [(0, 1, 1), (1, 1, 2)]) == \
        [{1: 1}, {-1: 0, 2: 1, -2: 1}]
    with pytest.raises(ValueError, match="not folded"):
        signed_adjacency(2, 2, [(0, 1, 1), (0, 0, 1)])  # two x leave 0
    with pytest.raises(ValueError, match="not folded"):
        signed_adjacency(2, 2, [(0, 1, 1), (1, 1, 1)])  # two x reach 1
    with pytest.raises(ValueError, match="not folded"):
        signed_adjacency(1, 1, [(0, 0, 1), (0, 0, 1)])  # a doubled loop
    for edge in ((0, 2, 1), (2, 0, 1), (-1, 0, 1), (0, -2, 1)):
        with pytest.raises(ValueError, match="missing vertex"):
            signed_adjacency(2, 2, [(0, 1, 2), edge])
    for label in (0, 3, -1):
        with pytest.raises(ValueError, match="out of range for rank 2"):
            signed_adjacency(2, 2, [(0, 1, label)])


def test_canonical_form_stability():
    rng = random.Random(37)
    for _ in range(20):
        sub = random_subgroup(rng)
        canon = canonical_form(sub.core)
        assert label_isomorphic(canon, sub.core)
        assert canonical_form(canon) == canon


@st.composite
def keyed_graphs(draw):
    """Basepointed cores and their hull-cores at ranks 1-3: of random
    subgroups, or random finite covers of the rose of degree 1-8, whose
    hull is the whole cover."""
    rank = draw(st.integers(1, 3))
    if draw(st.booleans()):
        core = draw(subgroups(rank, max_len=6)).core
    else:
        core = random_finite_cover(rank, draw(st.integers(1, 8)),
                                   draw(st.integers(0, 2 ** 32)))
    return hull_core(core) if draw(st.booleans()) else core


@settings(deadline=None, max_examples=300)
@given(keyed_graphs())
def test_canonical_key_equals_the_all_starts_reference(c):
    assert _canonical_key(c) == reference_canonical_key(c)


@settings(deadline=None, max_examples=200)
@given(keyed_graphs(), st.data())
def test_canonical_key_ignores_the_vertex_numbering(c, data):
    perm = data.draw(st.permutations(range(c.num_vertices)))
    renumbered = CoreGraph(
        c.rank, c.num_vertices, [(perm[s], perm[d], l) for s, d, l in c.edges],
        None if c.basepoint is None else perm[c.basepoint])
    assert _canonical_key(renumbered) == _canonical_key(c)


def cyclic_cover(n):
    """The hull of the Z/n cover x: i -> i+1, y: i -> i+3, whose
    automorphisms act transitively: no start drops out before the end."""
    return CoreGraph(2, n, [(i, (i + 1) % n, 1) for i in range(n)]
                     + [(i, (i + 3) % n, 2) for i in range(n)], None)


@pytest.mark.parametrize("n", [1, 2, 100, 300])
def test_canonical_key_of_a_transitive_shape_equals_the_reference(n):
    c = cyclic_cover(n)
    assert _canonical_key(c) == reference_canonical_key(c)


def test_canonical_key_of_a_large_random_cover_drops_starts_early():
    # Comparing every start's whole BFS costs about V^2 steps, seconds at
    # V = 2,000; a random cover tells its starts apart within a few
    # blocks.
    hull = hull_core(random_finite_cover(2, 2000, 5))
    start = time.perf_counter()
    n, edges = _canonical_key(hull)
    assert time.perf_counter() - start < 0.5
    assert n == 2000 and len(edges) == 4000


def test_subgroup_file_roundtrip(tmp_path):
    sub = Subgroup(["xy", "xY"], 2)
    path = tmp_path / "sub.txt"
    path.write_text(subgroup_to_text(sub), encoding="utf-8")
    again = subgroup_from_text(path.read_text(encoding="utf-8"))
    assert again.rank == 2
    assert label_isomorphic(again.core, sub.core)
    text = "# a comment\nrank 2\nxy # trailing\n\nxY\n"
    assert label_isomorphic(subgroup_from_text(text).core, sub.core)
    assert "rank 2" in subgroup_to_text(sub)


def test_subgroup_file_errors():
    with pytest.raises(FileFormatError):
        subgroup_from_text("xy\nxY\n")  # missing header
    with pytest.raises(FileFormatError):
        subgroup_from_text("rank two\nxy\n")


def test_graph_text_roundtrip():
    rng = random.Random(41)
    for _ in range(10):
        core = random_subgroup(rng).core
        again = graph_from_text(graph_to_text(core))
        assert again == core
    hull = random_subgroup(rng).hull
    assert graph_from_text(graph_to_text(hull)) == hull


def test_graph_text_errors():
    with pytest.raises(FileFormatError):
        graph_from_text("vertices 1\n")
    with pytest.raises(FileFormatError):
        graph_from_text("rank 2\nvertices 2\nbasepoint 0\nedge 0 1 q1\n")
    with pytest.raises(FileFormatError):
        graph_from_text("rank 2\nvertices 2\nbasepoint 0\nedge 0 1 g1\n"
                        "edge 0 1 g1\n")
    with pytest.raises(FileFormatError, match="vertex count -1 is negative"):
        graph_from_text("rank 2\nvertices -1\nbasepoint none\n")


def test_a_graph_too_sparse_to_connect_is_refused_before_it_is_built():
    # A connected graph on n vertices has at least n - 1 edges; a 38-byte
    # file that declares a million vertices and no edge must not build an
    # adjacency row per vertex before it is refused.
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match="graph is disconnected"):
            graph_from_text("rank 2\nvertices 1000000\nbasepoint 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


READERS = {"subgroup": subgroup_from_text, "graph": graph_from_text,
           "table": table_from_text}


@pytest.mark.parametrize("kind, text", [
    pytest.param(kind, text, id=f"{kind}-{case}")
    for kind in FILES for case, text in malformed_files(kind).items()])
def test_every_malformed_header_is_a_format_error(kind, text):
    # One reader takes the header of every format: each name exactly
    # once, in any order, before the body, its value an ASCII integer.
    header, body = FILES[kind]
    READERS[kind]("\n".join(header + body))
    with pytest.raises(FileFormatError):
        READERS[kind](text)


@pytest.mark.parametrize("line", [
    "edge 0 0 g1 extra", "edge 0 0 g+1", "edge 0 0 g\u00b2",
    "edge \u0660 0 g1", "edge 0 0 1", "edge 0 0"])
def test_graph_edge_lines_are_read_exactly(line):
    # Read loosely, each line but the last two would add the x-loop.
    with pytest.raises(FileFormatError, match="expected 'edge S D gK'"):
        graph_from_text(f"rank 2\nvertices 1\nbasepoint 0\nedge 0 0 g2\n"
                        f"{line}\n")


@pytest.mark.parametrize("kind, line, template", [
    pytest.param(kind, line, template, id=f"{kind}-{name}")
    for kind, line, template, name in [
        ("subgroup", "rank 2", "rank {}", "rank"),
        ("graph", "rank 2", "rank {}", "rank"),
        ("graph", "vertices 1", "vertices {}", "vertices"),
        ("graph", "basepoint 0", "basepoint {}", "basepoint"),
        ("graph", "edge 0 0 g1", "edge {} 0 g1", "edge-source"),
        ("graph", "edge 0 0 g2", "edge 0 0 g{}", "edge-label"),
        ("table", "rank 2", "rank {}", "rank"),
        ("table", "radius 1", "radius {}", "radius")]])
def test_header_and_edge_numbers_have_at_most_4300_digits(kind, line,
                                                          template):
    # int() converts at most 4,300 digits.  A number of 4,300 is read and
    # judged by its value; one of 4,301 is refused as a malformed line,
    # never by int()'s own ValueError.
    header, body = FILES[kind]
    lines = header + body
    at = lines.index(line)
    malformed = ("expected 'edge S D gK'" if line.startswith("edge")
                 else f"expected '{line.split()[0]} N'")
    for digits in (4300, 4301):
        lines[at] = template.format("1" * digits)
        with pytest.raises(FileFormatError) as info:
            READERS[kind]("\n".join(lines) + "\n")
        assert str(info.value).startswith(malformed) == (digits > 4300)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3).flatmap(subgroups), current_tables(), st.data())
def test_written_files_read_back_under_any_header_order(sub, table, data):
    def shuffled(text, size):
        lines = text.splitlines()
        header = data.draw(st.permutations(lines[:size]))
        return "\n".join(header + lines[size:])

    for text in (subgroup_to_text(sub), shuffled(subgroup_to_text(sub), 1)):
        again = subgroup_from_text(text)
        assert (again.rank, again.generators) == (sub.rank, sub.generators)
    for graph in (sub.core, sub.hull):
        text = graph_to_text(graph)
        assert graph_from_text(text) == graph
        assert graph_from_text(shuffled(text, 3)) == graph
    text = table_to_text(table)
    assert table_from_text(text) == table
    assert table_from_text(shuffled(text, 2)) == table


def test_a_body_word_that_spells_a_header_name_reads_back():
    # At rank 25 'rank' and 'radius' are words; a body line is taken for
    # a misplaced header only in the form `name value`.
    sub = Subgroup(["rank", "radius"], 25)
    again = subgroup_from_text(subgroup_to_text(sub))
    assert again.generators == sub.generators
