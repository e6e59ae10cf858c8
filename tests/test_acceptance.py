"""Acceptance suite: one test per criterion, exact values, timed budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every comparison below is exact rational arithmetic; the
time budgets are asserted, not aspirational.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from subsetcurrents import (RationalCurrent, Subgroup, WeightTable,
                            check_matching, cylinder_table,
                            count_round_graphs, decompose, distance,
                            enumerate_round_graphs, fold, hull_core,
                            integerize, label_isomorphic, product_rank,
                            realize, reduced_rank, shnc_margin,
                            validate_round_graph, verify_realization)
from subsetcurrents.approx import convergence_run
from subsetcurrents.stallings import LabeledGraph

from helpers import (conjugate, enumerate_reduced_words, random_cover,
                     random_current, random_finite_cover, random_subgroup,
                     random_word, restrict)


def _report(number: int, description: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s"
    print(f"PASS criterion {number}: {description} "
          f"[{elapsed:.2f}s < {budget:.0f}s]")


# --- deterministic case generators shared with criterion 5 ----------------

def _schreier_tables():
    """The 20 index-k current pairs of criterion 2, with their tables."""
    rng = random.Random(202)
    out = []
    for i in range(20):
        sub = random_subgroup(rng, max_len=4)
        k = rng.choice([2, 3])
        lifted = Subgroup.from_core(random_cover(sub.core, k, seed=1000 + i))
        tables = {}
        for r in (1, 2):
            tables[r] = (cylinder_table(RationalCurrent.eta(sub), r),
                         cylinder_table(RationalCurrent.eta(lifted), r))
        out.append((sub, lifted, k, tables))
    return out


def _shnc_pairs():
    rng = random.Random(303)
    pairs = [(random_subgroup(rng, max_len=5), random_subgroup(rng, max_len=5))
             for _ in range(100)]
    singles = [random_subgroup(rng, max_len=5) for _ in range(30)]
    return pairs, singles


def _realization_cases():
    rng = random.Random(404)
    cases = []
    for i in range(20):
        radius = 1 + (i % 2)
        current = random_current(rng, max_terms=3, max_len=4)
        table = cylinder_table(current, radius)
        theta, scale = integerize(table)
        cases.append((current, table, theta, scale))
    return cases


# --- the criteria ----------------------------------------------------------

def test_criterion_1_round_graph_enumeration():
    started = time.monotonic()
    assert len(list(enumerate_round_graphs(2, 0))) == 1
    enumerated = list(enumerate_round_graphs(2, 1))
    assert len(enumerated) == 11
    assert len(set(enumerated)) == 11
    # Independent oracle: filter all sphere subsets by the validity test.
    sphere = [w.letters for w in enumerate_reduced_words(2, 1) if w.letters]
    brute = 0
    for size in range(len(sphere) + 1):
        for combo in combinations(sphere, size):
            if validate_round_graph(set(combo) | {()}, 1, 2):
                brute += 1
    assert brute == 11
    assert count_round_graphs(2, 1) == 11 and count_round_graphs(2, 0) == 1
    _report(1, "round-graph enumeration (r=0: 1, r=1: 11, oracle agrees)",
            started, 1.0)


def test_criterion_2_schreier_and_index_law():
    started = time.monotonic()
    rng = random.Random(101)
    for _ in range(50):
        rank = rng.choice([2, 3])
        degree = rng.randint(1, 8)
        cover = random_finite_cover(rank, degree, seed=rng.randrange(10 ** 6))
        assert reduced_rank(cover) == degree * (rank - 1)
    for sub, lifted, k, tables in _schreier_tables():
        # Schreier for an index-k subgroup of H: E - V scales by k.
        assert lifted.reduced_rank() == k * sub.reduced_rank()
        for r in (1, 2):
            base, lift = tables[r]
            assert lift == base.scale(k)
    _report(2, "Schreier rank on 50 covers; k-index table law on 20 pairs",
            started, 10.0)


def test_criterion_3_shnc():
    started = time.monotonic()
    pairs, singles = _shnc_pairs()
    for h, k in pairs:
        n, bound = shnc_margin(h, k)
        assert n <= bound
    full = Subgroup.full(2)
    for k in singles:
        assert product_rank(full, k) == k.reduced_rank()
    _report(3, "SHNC on 100 random pairs; N(F, K) = rk(K) on 30", started,
            30.0)


def test_criterion_4_realization_round_trip():
    started = time.monotonic()
    for _current, _table, theta, _scale in _realization_cases():
        recovered = decompose(realize(theta))
        assert verify_realization(theta, recovered)
    _report(4, "integral weight realization round-trip on 20 systems",
            started, 60.0)


def test_criterion_5_matching_soundness():
    started = time.monotonic()
    tables = []
    for _sub, _lifted, _k, per_radius in _schreier_tables():
        for base, lift in per_radius.values():
            tables.extend((base, lift))
    pairs, singles = _shnc_pairs()
    for h, k in pairs[:25]:
        tables.append(cylinder_table(RationalCurrent.eta(h), 1))
        tables.append(cylinder_table(RationalCurrent.eta(k), 2))
    for k in singles:
        tables.append(cylinder_table(RationalCurrent.eta(k), 2))
    for _current, table, theta, _scale in _realization_cases():
        tables.append(table)
        tables.append(theta.table)
    assert len(tables) >= 150
    for table in tables:
        assert check_matching(table) == []
    _report(5, f"matching equations hold on {len(tables)} generated tables",
            started, 30.0)


def test_criterion_6_radius_refinement():
    started = time.monotonic()
    rng = random.Random(606)
    for _ in range(20):
        current = random_current(rng)
        fine = cylinder_table(current, 2)
        coarse: dict = {}
        for t, v in fine.entries.items():
            key = restrict(t, 1)
            coarse[key] = coarse.get(key, Fraction(0)) + v
        assert WeightTable(2, 1, coarse) == cylinder_table(current, 1)
    _report(6, "radius-1 tables equal refinement sums of radius-2 tables",
            started, 30.0)


def test_criterion_7_convergence():
    started = time.monotonic()
    ns = [2, 4, 8, 16]
    assert all(d == 0 for _n, d in convergence_run(0, ns))
    for r in (1, 2):
        values = dict(convergence_run(r, ns))
        for smaller, larger in zip(ns, ns[1:]):
            assert values[larger] < values[smaller]
        reference = 2 * values[2]
        for n in ns:
            scaled = n * values[n]
            assert scaled <= 2 * reference and reference <= 2 * scaled
    _report(7, "(1/n) eta_{H_n} -> eta_F: zero at r=0, strictly decreasing "
               "at r=1,2, 1/n scaling", started, 60.0)


def test_criterion_8_invariance_suite():
    started = time.monotonic()
    rng = random.Random(808)
    for i in range(100):
        r = 1 + (i % 2)
        sub = random_subgroup(rng, max_len=4)
        g = random_word(rng, 2, 4)
        moved = Subgroup.from_core(conjugate(sub.core, g))
        assert cylinder_table(RationalCurrent.eta(moved), r) == \
            cylinder_table(RationalCurrent.eta(sub), r)
    for _ in range(100):
        h, k = random_subgroup(rng, max_len=4), random_subgroup(rng, max_len=4)
        g = random_word(rng, 2, 4)
        moved = Subgroup.from_core(conjugate(h.core, g))
        n = product_rank(h, k)
        assert product_rank(moved, k) == n
        assert product_rank(k, h) == n
    for _ in range(100):
        t1 = cylinder_table(random_current(rng, max_len=3), 1)
        t2 = cylinder_table(random_current(rng, max_len=3), 1)
        assert distance(t1, t2) == distance(t2, t1)
    for i in range(100):
        sub = random_subgroup(rng, max_len=4)
        core = sub.core
        refolded = fold(LabeledGraph(2, core.num_vertices, core.edges,
                                     core.basepoint))
        assert refolded == core
        hull = sub.hull
        assert hull_core(hull) == hull
    _report(8, "conjugation/symmetry/idempotence invariants, 100 cases each",
            started, 30.0)
