import random
import time
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsetcurrents import (CoreGraph, LabeledGraph, RationalCurrent,
                            RoundGraph, Subgroup, WeightTable, Word,
                            check_matching, count_round_graphs,
                            cylinder_table, decompose, distance,
                            enumerate_round_graphs, finite_index, fold,
                            integerize, realize, round_graph_from_text,
                            round_graph_to_text, table_from_text,
                            table_to_text, validate_round_graph)
from subsetcurrents import cylinders
from subsetcurrents.approx import (rational_kernel_point, rationalize,
                                   subgroup_Hn)
from subsetcurrents.cylinders import (_order_key, _traced_words, lens_keys,
                                      lens_rows)
from subsetcurrents.errors import (AdmissibilityError, FileFormatError,
                                   LetterRangeError)
from subsetcurrents.stallings import basis_of

from helpers import (SMALL_RATIOS, TWO_ROWS_PER_GENERATOR, axis, conjugate,
                     enumerate_reduced_words, full_ball, local_ball,
                     matching_tables, random_cover, random_current,
                     random_finite_cover, random_subgroup, random_word,
                     reduce, reference_check_matching,
                     reference_cylinder_table, reference_lens_keys,
                     reference_round_graph_key, restrict, subgroups)

ETA_F = RationalCurrent.full(2)
ETA_X = RationalCurrent.eta(Subgroup(["x"], 2))


def eta(*gens):
    return RationalCurrent.eta(Subgroup(list(gens), 2))


def test_validate_examples():
    assert validate_round_graph([()], 0, 2)
    assert not validate_round_graph([(), (1,)], 1, 2)  # root degree 1
    assert validate_round_graph([(), (1,), (-1,)], 1, 2)
    assert not validate_round_graph([()], 1, 2)
    assert not validate_round_graph([(), (1,), (1, 2)], 1, 2)  # too long
    assert not validate_round_graph([(), (1,), (-1,), (1, 2)], 1, 2)
    assert not validate_round_graph([(), (1, 2)], 2, 2)  # not prefix-closed
    assert not validate_round_graph([(), (1,), (1, -1)], 2, 2)  # unreduced
    assert not validate_round_graph([(), (3,), (-3,)], 1, 2)  # out of range
    assert not validate_round_graph([(), (1.5,), (-1,)], 1, 2)  # not an int
    assert not validate_round_graph([(), (1,), (-1,)], 1.0, 2)
    assert not validate_round_graph([()], 0.0, 2)


def test_enumerate_r0_and_r1():
    assert [t.words for t in enumerate_round_graphs(2, 0)] == [((),)]
    graphs = list(enumerate_round_graphs(2, 1))
    assert len(graphs) == 11
    assert len(set(graphs)) == 11


def test_enumerate_r1_brute_force_oracle():
    sphere = [w.letters for w in enumerate_reduced_words(2, 1)
              if len(w.letters) == 1]
    valid = 0
    for size in range(len(sphere) + 1):
        for combo in combinations(sphere, size):
            if validate_round_graph(set(combo) | {()}, 1, 2):
                valid += 1
    assert valid == 11 == count_round_graphs(2, 1)


def test_enumerate_r2_count_matches_closed_form():
    graphs = list(enumerate_round_graphs(2, 2))
    assert len(graphs) == count_round_graphs(2, 2) == 4067
    assert len(set(graphs)) == 4067


def test_count_round_graphs_other_ranks():
    assert count_round_graphs(3, 1) == 2 ** 6 - 1 - 6
    assert count_round_graphs(2, 0) == 1


@pytest.mark.parametrize("rank", [-1, 0, 26, 99])
def test_round_graph_calls_reject_a_bad_rank(rank):
    for radius in (0, 2, 3):
        with pytest.raises(ValueError, match="rank must be between"):
            count_round_graphs(rank, radius)
        with pytest.raises(ValueError, match="rank must be between"):
            list(enumerate_round_graphs(rank, radius))
    with pytest.raises(ValueError, match="rank must be between"):
        RoundGraph(rank, 0, [()])


INF = float("inf")


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: Word(2, (1.5,)), LetterRangeError,
                 "letter 1.5 out of range", id="word-letter"),
    pytest.param(lambda: Word(2.0, (1,)), ValueError,
                 "rank must be between", id="word-rank"),
    pytest.param(lambda: CoreGraph(2, 1, [(0, 0, 1.5), (0, 0, 2)], 0),
                 ValueError, "edge label 1.5 out of range", id="core-label"),
    pytest.param(lambda: CoreGraph(2, 1, [(0, 0.0, 1), (0, 0, 2)], 0),
                 ValueError, "missing vertex", id="core-end"),
    pytest.param(lambda: fold(LabeledGraph(2, 1, [(0, 0, 1.5)], 0)),
                 ValueError, "edge label 1.5 out of range", id="fold-label"),
    pytest.param(lambda: RoundGraph(2, 1, [(), (1.5,), (-1,)]), ValueError,
                 "not a valid round-graph", id="round-graph-letter"),
    pytest.param(lambda: RoundGraph(2, 1.0, [(), (1,), (-1,)]), ValueError,
                 "not a valid round-graph", id="round-graph-radius"),
    pytest.param(lambda: WeightTable(2, 1.5), ValueError,
                 "radius must be >= 0", id="table-radius"),
    pytest.param(lambda: cylinder_table(ETA_F, 1.0), ValueError,
                 "radius must be >= 0", id="cylinder-table-radius"),
    pytest.param(lambda: next(enumerate_round_graphs(2, 1.0)), ValueError,
                 "radius must be >= 0", id="enumerate-radius"),
    pytest.param(lambda: count_round_graphs(2, 1.0), ValueError,
                 "radius must be >= 0", id="count-radius"),
    pytest.param(lambda: table_from_text("rank 2\nradius -1\n"),
                 FileFormatError, "^radius must be >= 0$",
                 id="table-file-radius"),
    pytest.param(lambda: RationalCurrent([(INF, Subgroup(["x"], 2))], 2),
                 ValueError, "Infinity", id="current-coefficient"),
    pytest.param(lambda: ETA_F.scale(INF), ValueError, "Infinity",
                 id="current-scale"),
    pytest.param(lambda: WeightTable(2, 1, {full_ball(2, 1): 1}).scale(INF),
                 ValueError, "Infinity", id="table-scale"),
])
def test_non_integers_and_infinities_are_refused(build, error, message):
    # A float passes a range check as an int would; each value must be
    # refused by its type first, with the error of an out-of-range value.
    with pytest.raises(error, match=message):
        build()


def test_restrict_examples():
    t = full_ball(2, 2)
    assert restrict(t, 2) == t
    assert restrict(t, 0).words == ((),)
    assert restrict(t, 1) == full_ball(2, 1)
    with pytest.raises(ValueError):
        restrict(t, 3)


def test_restriction_of_enumerated_graphs_is_valid():
    for t in enumerate_round_graphs(2, 2):
        assert restrict(t, 1) in set(enumerate_round_graphs(2, 1))
        break  # one spot check here; the full sweep runs below on samples
    rng = random.Random(4)
    pool = list(enumerate_round_graphs(2, 2))
    universe = set(enumerate_round_graphs(2, 1))
    for t in rng.sample(pool, 200):
        assert restrict(t, 1) in universe


def test_local_ball_examples():
    rose_hull = Subgroup.full(2).hull
    assert local_ball(rose_hull, 0, 2) == full_ball(2, 2)
    x_hull = Subgroup(["x"], 2).hull
    assert local_ball(x_hull, 0, 1) == axis(2, 1, 1)
    double = Subgroup.from_core(
        random_cover(Subgroup.full(2).core, 2, seed=1)).hull
    for v in range(double.num_vertices):
        assert local_ball(double, v, 1) == full_ball(2, 1)


def test_local_ball_errors():
    with pytest.raises(ValueError):
        local_ball(Subgroup([], 2).hull, 0, 1)  # empty hull
    with pytest.raises(ValueError):
        local_ball(Subgroup.full(2).core, 0, 1)  # basepointed form


def test_cylinder_table_examples():
    t = cylinder_table(ETA_F, 1)
    assert t.entries == {full_ball(2, 1): Fraction(1)}
    t = cylinder_table(ETA_X, 1)
    assert t.entries == {axis(2, 1, 1): Fraction(1)}
    t = cylinder_table(eta("xx"), 1)
    assert t.entries == {axis(2, 1, 1): Fraction(2)}  # index 2 in <x>


def test_cylinder_table_total_mass():
    rng = random.Random(6)
    for _ in range(20):
        current = random_current(rng)
        expected = sum((c * s.hull.num_vertices for c, s in current.terms),
                       Fraction(0))
        for r in (0, 1, 2):
            assert cylinder_table(current, r).total() == expected


@st.composite
def currents_with_repeats(draw):
    """(current, radius): 1-5 terms over a pool of 1-3 subgroups of rank 2
    or 3, so subgroups repeat across terms; radius 0-3."""
    rank = draw(st.integers(2, 3))
    letter = st.integers(1, rank).flatmap(lambda m: st.sampled_from((m, -m)))
    word = st.lists(letter, min_size=1, max_size=5).map(
        lambda letters: reduce(letters, rank))
    pool = draw(st.lists(st.lists(word, min_size=1, max_size=3).map(
        lambda words: Subgroup(words, rank)), min_size=1, max_size=3))
    coeff = st.builds(Fraction, st.integers(1, 5), st.integers(1, 5))
    terms = draw(st.lists(st.tuples(coeff, st.sampled_from(pool)),
                          min_size=1, max_size=5))
    return RationalCurrent(terms, rank), draw(st.integers(0, 3))


def traced_table(current, radius):
    """`cylinder_table` with `_traced_words` counted: (table, calls)."""
    with mock.patch.object(cylinders, "_traced_words",
                           wraps=cylinders._traced_words) as traced:
        table = cylinder_table(current, radius)
    return table, traced.call_count


def distinct_balls(current, radius):
    """The number of distinct reference balls, summed over the terms."""
    return sum(len({local_ball(sub.hull, v, radius)
                    for v in range(sub.hull.num_vertices)})
               for _c, sub in current.terms)


@settings(deadline=None, max_examples=150)
@given(currents_with_repeats())
def test_cylinder_table_matches_reference(case):
    # Same entries in the same order, with one ball traced per distinct
    # ball of each term.
    current, radius = case
    table, calls = traced_table(current, radius)
    reference = reference_cylinder_table(current, radius)
    assert table == reference
    assert list(table.entries.items()) == list(reference.entries.items())
    assert calls == distinct_balls(current, radius)


def test_cylinder_table_traces_one_full_ball_per_cover_term():
    # Every ball of a finite cover of the rose is the full ball.
    covers = [Subgroup.from_core(random_finite_cover(2, degree, seed))
              for degree, seed in ((5, 1), (12, 2))]
    current = RationalCurrent([(1, covers[0]), (Fraction(1, 3), covers[1])])
    for radius in (1, 2, 3):
        table, calls = traced_table(current, radius)
        assert calls == 2
        assert table.entries == {full_ball(2, radius): Fraction(9)}


@pytest.mark.parametrize("radius, balls", [(2, 4), (3, 6)])
def test_cylinder_table_traces_the_few_balls_of_H_1024(radius, balls):
    current = RationalCurrent.eta(subgroup_Hn(1024))
    table, calls = traced_table(current, radius)
    assert calls == balls == len(table)
    assert table.total() == 1024


@settings(deadline=None, max_examples=100)
@given(st.integers(2, 3).flatmap(lambda rank: st.lists(
    st.tuples(SMALL_RATIOS, subgroups(rank, max_len=8)),
    min_size=1, max_size=3).map(lambda terms: RationalCurrent(terms, rank))),
    st.integers(0, 4))
# 7 distinct balls at r = 3 but 8 at r = 4; 14 at r = 2 but 15 at r = 3.
@example(RationalCurrent.eta(Subgroup(["xxxxxxxy"], 2)), 4)
@example(RationalCurrent.eta(Subgroup(["xxxxyyyy", "zzzzxxxx"], 3)), 3)
def test_cylinder_table_splits_balls_that_differ_only_deep(current, radius):
    # Long generators give hull vertices with equal letter sets and first
    # levels whose balls differ only at depth r: the ids must split them.
    table, calls = traced_table(current, radius)
    reference = reference_cylinder_table(current, radius)
    assert list(table.entries.items()) == list(reference.entries.items())
    assert calls == distinct_balls(current, radius)
    if radius == 0:
        assert calls == len(current.terms)


def test_cylinder_table_linearity():
    rng = random.Random(9)
    for _ in range(15):
        mu, nu = random_current(rng), random_current(rng)
        a = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        b = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        combo = mu.scale(a) + nu.scale(b)
        for r in (1, 2):
            lhs = cylinder_table(combo, r)
            rhs = cylinder_table(mu, r).scale(a) + \
                cylinder_table(nu, r).scale(b)
            assert lhs == rhs


def test_cylinder_table_index_law():
    rng = random.Random(12)
    for i in range(20):
        sub = random_subgroup(rng, max_len=4)
        k = rng.choice([2, 3])
        lifted = Subgroup.from_core(random_cover(sub.core, k, seed=i))
        for r in (1, 2):
            assert cylinder_table(RationalCurrent.eta(lifted), r) == \
                cylinder_table(RationalCurrent.eta(sub), r).scale(k)


def rank_functional(table: WeightTable) -> Fraction:
    """Sum over T of mu(T) (|T n S_1| / 2 - 1), S_1 the words of length 1:
    each hull vertex counts half its degree less one, so eta_H gives
    edges - vertices, the reduced rank of H, and the sum is linear."""
    return sum((v * (Fraction(sum(len(w) == 1 for w in t.words), 2) - 1)
                for t, v in table.entries.items()), Fraction(0))


def test_the_rank_functional_reads_off_every_table():
    # The reduced rank extends linearly from counting currents to SC(F):
    # on sum c.eta_H it is sum c.rk(H), at every radius from 1.  The
    # currents `integerize`, `realize` and `decompose` read back from M
    # times a table give M times its value.
    rng = random.Random(36)
    for i in range(200):
        mu = random_current(rng, rng.choice([2, 3]))
        ranks = sum(c * sub.reduced_rank() for c, sub in mu.terms)
        for r in (1, 2, 3):
            table = cylinder_table(mu, r)
            assert rank_functional(table) == ranks
            if i % 4 == 0:
                theta, scale = integerize(table)
                back = decompose(realize(theta))
                assert sum(c * sub.reduced_rank()
                           for c, sub in back.terms) == scale * ranks


def test_the_rank_functional_scales_by_the_index():
    # For Gamma of index d in F, eta_Gamma gives [F:Gamma] rk(F) =
    # d (rank - 1), as the functional on SC(Gamma) extended to SC(F).
    for rank in (2, 3):
        for d in (2, 5, 9):
            cover = Subgroup.from_core(random_finite_cover(rank, d, seed=d))
            assert finite_index(cover.core) == d
            for r in (1, 2, 3):
                table = cylinder_table(RationalCurrent.eta(cover), r)
                assert rank_functional(table) == d * (rank - 1)


def test_cylinder_table_conjugation_invariance():
    rng = random.Random(15)
    for _ in range(20):
        sub = random_subgroup(rng)
        g = random_word(rng, 2, 4)
        moved = Subgroup.from_core(conjugate(sub.core, g))
        for r in (1, 2):
            assert cylinder_table(RationalCurrent.eta(moved), r) == \
                cylinder_table(RationalCurrent.eta(sub), r)


def test_cylinder_table_generating_set_independence():
    # The current of a subgroup given through words in another subgroup's
    # basis only depends on the subgroup itself, not the presentation.
    rng = random.Random(18)
    for _ in range(10):
        host = random_subgroup(rng, max_gens=2, max_len=3)
        base = basis_of(host.core)
        if len(base) < 2:
            continue
        # two words in the host's basis, expanded to words over F
        w1 = base[0] * base[1] * ~base[0]
        w2 = base[0] * base[0]
        sub = Subgroup([w1, w2], 2)
        regenerated = Subgroup.from_core(sub.core)
        nielsen = Subgroup([w1 * w2, w2], 2)
        for r in (1, 2):
            reference = cylinder_table(RationalCurrent.eta(sub), r)
            assert cylinder_table(RationalCurrent.eta(regenerated), r) == \
                reference
            assert cylinder_table(RationalCurrent.eta(nielsen), r) == \
                reference


def test_check_matching_passes_on_currents():
    assert check_matching(cylinder_table(ETA_F, 1)) == []
    rng = random.Random(24)
    for _ in range(20):
        current = random_current(rng)
        for r in (0, 1, 2):
            assert check_matching(cylinder_table(current, r)) == []


@settings(deadline=None, max_examples=150)
@given(matching_tables())
@example(TWO_ROWS_PER_GENERATOR)
def test_check_matching_matches_reference(table):
    violations = check_matching(table)
    assert [(v.generator, v.lens, v.lhs, v.rhs) for v in violations] == \
        reference_check_matching(table)
    assert all(isinstance(v, AdmissibilityError) for v in violations)


@settings(deadline=None, max_examples=150)
@given(matching_tables())
@example(TWO_ROWS_PER_GENERATOR)
def test_lens_rows_name_support_positions(table):
    # Each row names its round-graphs by position in the support it was
    # given; read back through the support, the rows are the reference's
    # grouping of the support by lens key, in support order.
    support = table.support()
    rows = list(lens_rows(support, table.rank))
    assert all(type(j) is int and j in range(len(support))
               for _gen, _key, outs, ins in rows for j in outs + ins)
    expected = []
    for gen in range(1, table.rank + 1):
        sides: dict = {}
        for t in support:
            for key, side in zip(reference_lens_keys(t, gen), (0, 1)):
                if key is not None:
                    sides.setdefault(key, ([], []))[side].append(t)
        expected.extend((gen, key) + sides[key] for key in sorted(sides))
    assert [(gen, key, [support[j] for j in outs], [support[j] for j in ins])
            for gen, key, outs, ins in rows] == expected


def test_check_matching_reports_violating_rows():
    bad = WeightTable(2, 1, {RoundGraph(2, 1, [(), (1,), (2,)]): 1})
    violations = check_matching(bad)
    rows = {(v.generator, v.lens, v.lhs, v.rhs) for v in violations}
    assert rows == {
        (1, ((), (1,)), Fraction(1), Fraction(0)),
        (2, ((), (2,)), Fraction(1), Fraction(0)),
    }
    # adding the mirrored graph on one side repairs only that generator
    repaired = WeightTable(2, 1, {
        RoundGraph(2, 1, [(), (1,), (2,)]): 1,
        RoundGraph(2, 1, [(), (-1,), (2,)]): 1,
    })
    violations = check_matching(repaired)
    assert {v.generator for v in violations} == {2}


def test_distance_examples():
    t = cylinder_table(ETA_F, 1)
    assert distance(t, t) == 0
    assert distance(t, t.scale(2)) == 1
    h2 = cylinder_table(RationalCurrent([(Fraction(1, 2), subgroup_Hn(2))], 2),
                        1)
    assert h2.entries == {
        axis(2, 2, 1): Fraction(1, 2),
        full_ball(2, 1): Fraction(1, 2),
    }
    assert distance(h2, t) == Fraction(1, 2)


def test_distance_is_a_pseudometric():
    rng = random.Random(27)
    tables = [cylinder_table(random_current(rng), 1) for _ in range(12)]
    for a in tables:
        assert distance(a, a) == 0
    for a, b in zip(tables, tables[1:]):
        assert distance(a, b) == distance(b, a)
    for a, b, c in zip(tables, tables[1:], tables[2:]):
        assert distance(a, c) <= distance(a, b) + distance(b, c)
    with pytest.raises(ValueError):
        distance(cylinder_table(ETA_F, 1), cylinder_table(ETA_F, 2))


def test_refinement_consistency():
    rng = random.Random(30)
    universe_r1 = set(enumerate_round_graphs(2, 1))
    for _ in range(20):
        current = random_current(rng)
        t1 = cylinder_table(current, 1)
        t2 = cylinder_table(current, 2)
        refined: dict = {}
        for t, v in t2.entries.items():
            key = restrict(t, 1)
            assert key in universe_r1
            refined[key] = refined.get(key, Fraction(0)) + v
        assert WeightTable(2, 1, refined) == t1


def test_round_graph_text_forms():
    assert round_graph_to_text(axis(2, 1, 1)) == "e,x,X"
    assert round_graph_to_text(full_ball(2, 1)) == "e,x,X,y,Y"
    t = round_graph_from_text("e,x,X", 2, 1)
    assert t == axis(2, 1, 1)
    with pytest.raises(ValueError):
        round_graph_from_text("x,X", 2, 1)  # missing root


def test_table_file_roundtrip():
    rng = random.Random(36)
    for _ in range(10):
        table = cylinder_table(random_current(rng), rng.choice([0, 1, 2]))
        assert table_from_text(table_to_text(table)) == table


def test_table_file_accumulates_duplicate_records():
    dup = table_from_text("rank 2\nradius 1\ne,x,X = 1/3\ne,x,X = 1/6\n")
    assert dup[axis(2, 1, 1)] == Fraction(1, 2)


def test_distance_of_empty_tables():
    empty = cylinder_table(RationalCurrent([], 2), 1)
    assert distance(empty, empty) == 0
    assert distance(empty, cylinder_table(ETA_F, 1)) == 1


def test_table_file_errors():
    with pytest.raises(FileFormatError):
        table_from_text("e,x,X = 1\n")  # entries before header
    with pytest.raises(FileFormatError):
        table_from_text("rank 2\nradius 1\ne,x,X 1\n")
    with pytest.raises(FileFormatError):
        table_from_text("rank 2\nradius 1\ne,x,X = 1/0\n")
    for body in ("", "e,x,X = 1\n"):  # a rank outside 1..25
        with pytest.raises(FileFormatError, match="rank must be between"):
            table_from_text(f"rank 99\nradius 1\n{body}")


def test_weight_table_validation():
    with pytest.raises(ValueError):
        WeightTable(2, 1, {full_ball(2, 1): Fraction(-1)})
    with pytest.raises(ValueError):
        WeightTable(2, 2, {full_ball(2, 1): 1})  # radius mismatch
    with pytest.raises(ValueError, match="radius must be >= 0"):
        WeightTable(2, -1)


def number_readers(text):
    """Each reader of a number, in a file or as a value handed to the
    library, set to read `text` as the weight of the full ball."""
    t = full_ball(2, 1)
    return {
        "file": lambda: table_from_text(
            f"rank 2\nradius 1\n{round_graph_to_text(t)} = {text}\n")[t],
        "table": lambda: WeightTable(2, 1, {t: text})[t],
        "table-scale": lambda: WeightTable(2, 1, {t: 1}).scale(text)[t],
        "current": lambda: sum(c for c, _ in RationalCurrent(
            [(text, Subgroup(["x"], 2))], 2).terms),
        "current-scale": lambda: sum(c for c, _ in ETA_X.scale(text).terms),
    }


# Fraction() reads '_' and spaces inside a number and Arabic-Indic or
# full-width digits; the number rule of a file refuses all but the spaces
# around it.
@settings(deadline=None, max_examples=300)
@given(st.text(st.sampled_from("0123456789-+/.e_ \u0661\uff11"),
               max_size=10))
@example("\u0661")
@example("1_0")
@example(" 1/2 ")
@example("+2")
def test_every_reader_reads_a_number_by_one_rule(text):
    # Each reader gives one Fraction, or each refuses the text with a
    # ValueError, FileFormatError from the file.
    results = set()
    for read in number_readers(text).values():
        try:
            results.add(read())
        except ValueError:
            results.add(None)
    assert len(results) == 1
    (value,) = results
    if value is not None:
        assert text.isascii() and "_" not in text
        assert value == Fraction(text)


@pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", "\u0661",
                                  "1_0", "1/0"])
def test_a_number_past_the_rule_is_refused_unread(text):
    # Fraction() would build 10**10000000 in full, read '١' and '1_0' as 1
    # and 10, and raise ZeroDivisionError on '1/0'.  Every reader refuses
    # each at once, by the one message of the file rule.
    readers = dict(number_readers(text),
                   rationalize=lambda: rationalize(text),
                   kernel_target=lambda: rational_kernel_point([], [text], 1),
                   tolerance=lambda: rational_kernel_point([], [1], text))
    for name, read in readers.items():
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^bad rational"):
            read()
        assert time.perf_counter() - start < 0.1, name


R2_ROUND_GRAPHS = list(enumerate_round_graphs(2, 2))


@st.composite
def round_graph_lists(draw):
    """Round-graphs with mixed word counts, shared prefixes and repeats:
    the supports of the r = 1-3 tables of one random current, of rank 2
    or 3, and a sample of the rank-2 radius-2 round-graphs, drawn with
    replacement."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    current = random_current(rng, rank=rng.choice((2, 3)))
    pool = [t for radius in (1, 2, 3)
            for t in cylinder_table(current, radius).support()]
    pool += draw(st.lists(st.sampled_from(R2_ROUND_GRAPHS), max_size=20))
    return draw(st.lists(st.sampled_from(pool), max_size=40))


@settings(deadline=None, max_examples=150)
@given(round_graph_lists())
def test_round_graphs_sort_as_by_the_reference_key(graphs):
    assert sorted(graphs) == sorted(graphs, key=reference_round_graph_key)


def test_round_graph_order_past_255_words_and_letters():
    # Word counts around 255 and words longer than 255 letters, against
    # the reference key: axes of radius 126-128 have 253-257 words, and
    # a three-ray tree of radius 200 has as many words as an axis of
    # radius 300 (601).
    x, y = 1, 2
    three_rays = RoundGraph(2, 200, [()] + [(m,) * k for m in (x, -x, y)
                                           for k in range(1, 201)])
    graphs = [axis(2, g, r) for g in (x, y)
              for r in (126, 127, 128, 254, 255, 256, 300)]
    graphs += [three_rays, full_ball(2, 1), full_ball(2, 3)]
    for shuffle in range(3):
        random.Random(shuffle).shuffle(graphs)
        assert sorted(graphs) == sorted(graphs,
                                        key=reference_round_graph_key)


@st.composite
def hulls(draw, lowest_rank=2):
    """The hull-core of a random nontrivial subgroup of rank
    `lowest_rank`-3: 1-3 generators of 1-5 letters."""
    rank = draw(st.integers(lowest_rank, 3))
    letter = st.integers(1, rank).flatmap(lambda m: st.sampled_from((m, -m)))
    word = st.lists(letter, min_size=1, max_size=5).map(
        lambda letters: reduce(letters, rank))
    sub = draw(st.lists(word, min_size=1, max_size=3).map(
        lambda words: Subgroup(words, rank)).filter(
            lambda s: not s.is_trivial()))
    return sub.hull


@settings(deadline=None, max_examples=100)
@given(hulls(), st.integers(0, 3))
@example(Subgroup.full(2).hull, 5)  # 485 words: the key escapes
def test_traced_balls_equal_the_checked_round_graphs(hull, radius):
    # `cylinder_table` stores each traced ball unchecked, with the key the
    # trace laid out; the public constructor, which validates and sorts,
    # must give the same value, and `_order_key` the same key.
    rank = hull.rank
    for v in range(hull.num_vertices):
        words, key = _traced_words(hull, v, radius)
        assert validate_round_graph(words, radius, rank)
        assert key == _order_key(words)
        traced = RoundGraph._stored(rank, radius, words, key)
        checked = RoundGraph(rank, radius, words)
        assert traced.words == checked.words == words
        assert set(traced.words) == set(checked.words)
        assert hash(traced) == hash(checked)
        assert traced._key == checked._key
        assert traced == checked


def test_lens_keys_match_the_ball_walk_on_every_small_round_graph():
    # Every rank-2 round-graph of radius <= 2, both generators: the keys
    # read off word prefixes equal the lens of the walked ball.
    graphs = [t for r in (0, 1, 2) for t in enumerate_round_graphs(2, r)]
    assert len(graphs) == 1 + 11 + 4067
    for t in graphs:
        for gen in (1, 2):
            assert lens_keys(t, gen) == reference_lens_keys(t, gen), (t, gen)


@settings(deadline=None, max_examples=150)
@given(hulls(lowest_rank=1), st.integers(0, 4))
def test_lens_keys_match_the_ball_walk_on_traced_balls(hull, radius):
    for v in range(hull.num_vertices):
        t = local_ball(hull, v, radius)
        for gen in range(1, hull.rank + 1):
            assert lens_keys(t, gen) == reference_lens_keys(t, gen), (t, gen)


def test_round_graph_canonical_order_is_stable():
    t1 = RoundGraph(2, 1, [(), (1,), (-1,)])
    t2 = RoundGraph(2, 1, [(-1,), (), (1,)])
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1.words == ((), (1,), (-1,))


def test_every_round_graph_is_a_hull_local_ball():
    # Both directions of validity: enumerated graphs validate (soundness,
    # enforced by the constructor) and each is realized by an explicit
    # hull vertex (the existential direction).
    from helpers import realizable_witness
    for r in (0, 1, 2):
        for t in enumerate_round_graphs(2, r):
            assert local_ball(realizable_witness(t), 0, r) == t
    for t in enumerate_round_graphs(3, 1):
        assert local_ball(realizable_witness(t), 0, 1) == t


def test_witness_subgroup_table_has_positive_weight():
    from helpers import realizable_witness
    from subsetcurrents.stallings import CoreGraph, Subgroup
    for t in enumerate_round_graphs(2, 1):
        hull = realizable_witness(t)
        core = CoreGraph(hull.rank, hull.num_vertices, hull.edges, 0)
        table = cylinder_table(RationalCurrent.eta(Subgroup.from_core(core)),
                               1)
        assert table[t] >= 1


def test_trivial_subgroup_gives_zero_measure():
    current = RationalCurrent.eta(Subgroup([], 2))
    assert current.terms == ()
    table = cylinder_table(current, 1)
    assert len(table) == 0 and table.total() == 0
    assert check_matching(table) == []


def test_rank_three_tables():
    rng = random.Random(39)
    full3 = RationalCurrent.full(3)
    assert cylinder_table(full3, 1).entries == {full_ball(3, 1): Fraction(1)}
    for _ in range(10):
        current = random_current(rng, rank=3, max_len=3)
        for r in (1, 2):
            table = cylinder_table(current, r)
            assert check_matching(table) == []
            assert table_from_text(table_to_text(table)) == table


def test_radius_three_tables_and_bound():
    rng = random.Random(43)
    for _ in range(5):
        current = random_current(rng)
        t3 = cylinder_table(current, 3)
        assert check_matching(t3) == []
        refined: dict = {}
        for t, v in t3.entries.items():
            key = restrict(t, 2)
            refined[key] = refined.get(key, Fraction(0)) + v
        assert WeightTable(2, 2, refined) == cylinder_table(current, 2)
    # No radius is refused: radius 4 is one full-ball entry of mass 1.
    assert cylinder_table(ETA_F, 4) == WeightTable(2, 4,
                                                   {full_ball(2, 4): 1})
    assert cylinder_table(ETA_F, 4).total() == 1
