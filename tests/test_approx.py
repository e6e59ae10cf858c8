import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsetcurrents import (RationalCurrent, Subgroup,
                            approximate_table, check_matching,
                            convergence_run, cylinder_table,
                            enumerate_round_graphs, finite_index,
                            integerize, rational_kernel_point,
                            rationalize, realize,
                            decompose, subgroup_Hn, verify_realization)
from subsetcurrents import approx
from subsetcurrents.approx import _matching_matrix, _nullspace_basis
from subsetcurrents.cylinders import WeightTable, table_from_text
from subsetcurrents.errors import InfeasibleKernelError

from helpers import (axis, dense_rows, full_ball, noised_floats,
                     random_current, reference_projection, reference_scan,
                     reference_solve_rational, subgroup_Gn)


def test_rationalize():
    assert rationalize(0.5) == Fraction(1, 2)
    assert rationalize(1 / 3) == Fraction(1, 3)
    assert rationalize(Fraction(7, 11)) == Fraction(7, 11)
    assert rationalize(2) == 2
    assert rationalize(0.0) == 0


# Values exactly halfway between the two candidates at the bound:
# 1/(2 * 10**6) between 0 and 1/10**6, its negative, and 1 - 1/(2 * 10**6)
# between 1 - 1/10**6 and 1.  limit_denominator keeps the convergent, the
# candidate of smaller denominator.
TIES = (Fraction(1, 2 * 10 ** 6), Fraction(-1, 2 * 10 ** 6),
        Fraction(2 * 10 ** 6 - 1, 2 * 10 ** 6))


@settings(max_examples=400)
@given(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
              min_value=-1e-300, max_value=1e-300),
    st.floats(1e-8, 1e8),
    st.integers(),
    st.fractions(),
    st.fractions(max_denominator=10 ** 15),
    st.from_regex(r"-?[0-9]{1,9}(\.[0-9]{1,12})?(e-?[0-9])?",
                  fullmatch=True)))
@example(TIES[0])
@example(TIES[1])
@example(TIES[2])
@example(5e-324)
@example(-0.0)
def test_rationalize_matches_limit_denominator(value):
    snapped = rationalize(value)
    assert type(snapped) is Fraction
    assert snapped == Fraction(value).limit_denominator(
        approx.FLOAT_DENOMINATOR_BOUND)


def test_rationalize_keeps_the_convergent_on_a_tie():
    # Each tie is 1/(2 * 10**6) from both candidates.
    assert [rationalize(x) for x in TIES] == [
        Fraction(0), Fraction(0), Fraction(1)]


def test_rational_kernel_point_validation():
    with pytest.raises(ValueError, match="outside 0..0"):
        rational_kernel_point([{1: 1}], [1], 1)  # column past the target
    with pytest.raises(ValueError, match="outside 0..1"):
        rational_kernel_point([{-1: 1}], [1, 1], 1)  # negative column
    with pytest.raises(ValueError):
        rational_kernel_point([{0: 1}], [-1], 1)  # negative target
    with pytest.raises(ValueError):
        rational_kernel_point([{0: 1}], [1], 0)  # zero tolerance


@pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                   float("nan")], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call", [
    lambda v: rational_kernel_point([{0: v}], [1], Fraction(1, 10)),
    lambda v: rational_kernel_point([{0: 1}], [v], Fraction(1, 10)),
    lambda v: WeightTable(2, 1, {axis(2, 1, 1): v}),
    rationalize,
], ids=["kernel-row", "kernel-target", "table", "rationalize"])
def test_a_number_that_is_not_finite_is_a_value_error(call, value):
    # int(), Fraction() and float.as_integer_ratio() raise OverflowError
    # on an infinity.
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("row", [{0: 0.9, 1: -0.1}, {0: Fraction(1, 2)},
                                 {0.5: 1}, {0: "1"}])
def test_rational_kernel_point_refuses_a_row_that_is_not_integral(row):
    # Truncated to integers, 0.9.x0 - 0.1.x1 = 0 would become 0 = 0, and
    # the point (1, 1) would be returned as a solution.
    with pytest.raises(ValueError, match="must be integers"):
        rational_kernel_point([row], [1, 1], Fraction(1, 10))


def test_rational_kernel_point_reads_integral_coefficients_as_ints(
        monkeypatch):
    # The scan sees the validated rows: 2.0, Fraction(-2), a column 1.0
    # and a coefficient True are integral, and are stored as ints.
    seen = []
    scan = approx._rounded_kernel_point

    def recording_scan(rows, u, eps):
        seen.extend(rows)
        return scan(rows, u, eps)

    monkeypatch.setattr(approx, "_rounded_kernel_point", recording_scan)
    v = rational_kernel_point([{0: 2.0, 1: Fraction(-2)}, {1.0: True, 0: -1}],
                              [Fraction(1, 2), Fraction(1, 2)],
                              Fraction(1, 10))
    assert v == (Fraction(1, 2), Fraction(1, 2))
    assert seen == [{0: 2, 1: -2}, {1: 1, 0: -1}]
    assert {type(x) for row in seen for pair in row.items()
            for x in pair} == {int}


def test_nullspace_basis_small_cases():
    basis = _nullspace_basis([[1, -1]], 2)
    assert len(basis) == 1 and basis[0][0] == basis[0][1]
    assert _nullspace_basis([[1, 0], [0, 1]], 2) == []
    identity_kernel = _nullspace_basis([], 3)
    assert len(identity_kernel) == 3


def test_kernel_point_passthrough_when_already_in_kernel():
    target = [Fraction(2, 3), Fraction(2, 3), Fraction(1, 5)]
    assert rational_kernel_point([{0: 1, 1: -1}], target,
                                 Fraction(1, 1000)) == tuple(target)


def test_kernel_point_zero_matrix():
    # The least q whose rounding of 1/7 is nonzero and within eps: q = 7
    # at eps = 1/100, but q = 5 at eps = 1/10 (|1/7 - 1/5| = 2/35).
    target = [Fraction(1, 7), Fraction(0)]
    assert rational_kernel_point([], target, Fraction(1, 100)) == \
        (Fraction(1, 7), 0)
    assert rational_kernel_point([], target, Fraction(1, 10)) == \
        (Fraction(1, 5), 0)
    # The least q wins, not the nearest rounding: 1 misses 7/10 by 3/10,
    # and q = 2 would give 1/2, which misses it by only 1/5.
    assert rational_kernel_point([], [Fraction(7, 10)], Fraction(1, 3)) \
        == (1,)


def test_kernel_point_projects_perturbed_current_table():
    # the cylinder vector of eta_<xy> at r=1, nudged off the kernel
    sub = Subgroup(["xy"], 2)
    table = cylinder_table(RationalCurrent.eta(sub), 1)
    matrix = _matching_matrix(table.support(), 2)
    target = list(table.entries.values())
    target[0] += Fraction(1, 10 ** 9)
    # Every rounding misses by exactly 10**-9, so at that tolerance only
    # the projection, which misses by half as much, is near enough.
    eps = Fraction(1, 10 ** 9)
    v = rational_kernel_point(matrix, target, eps)
    for row in matrix:
        assert sum(c * v[j] for j, c in row.items()) == 0
    assert all(x >= 0 for x in v)
    assert max(abs(a - b) for a, b in zip(v, target)) < eps
    assert v[0] == v[1] == 1 + Fraction(1, 2 * 10 ** 9)
    # A wider tolerance takes the rounding at q = 1: the table itself.
    v = rational_kernel_point(matrix, target, Fraction(1, 1000))
    assert v[0] == v[1] == 1
    assert list(v) == list(table.entries.values())


def test_kernel_point_float_derived_mixture():
    # float-derived (1/3) * (eta_F + 2 * eta_<x>) at r = 1
    full = RationalCurrent.full(2)
    ex = RationalCurrent.eta(Subgroup(["x"], 2))
    exact = cylinder_table(full + ex.scale(2), 1).scale(Fraction(1, 3))
    floats = WeightTable(2, 1, {t: rationalize(float(v))
                                for t, v in exact.entries.items()})
    v = rational_kernel_point(_matching_matrix(floats.support(), 2),
                              floats.entries.values(), Fraction(1, 1000))
    assert list(v) == [exact[t] for t in floats.support()]


def test_kernel_point_refuses_the_zero_rounding():
    # Every q <= SCAN_BOUND rounds these weights of 1/1000 to 0, a kernel
    # point within eps; it is no weight system, so the projection answers.
    table = cylinder_table(RationalCurrent.eta(Subgroup(["x"], 2)),
                           1).scale(Fraction(1, 1000))
    theta, scale, exact = approximate_table(table, Fraction(1, 100))
    assert exact == table
    assert scale == 1000 and theta.table == table.scale(1000)


def test_kernel_point_preserves_zero_coordinates():
    v = rational_kernel_point([{0: 1, 1: -1}, {2: 1}],
                              [Fraction(1), Fraction(1), Fraction(0)],
                              Fraction(1, 100))
    assert v[2] == 0


def test_kernel_point_infeasible():
    with pytest.raises(InfeasibleKernelError):
        rational_kernel_point([{0: 1}], [Fraction(1)], Fraction(1, 1000))


def test_kernel_point_rejects_projection_outside_kernel(monkeypatch):
    # A projection that leaves the kernel must raise, also under python -O.
    monkeypatch.setattr(approx, "_project_onto_kernel",
                        lambda basis, target: list(target))
    with pytest.raises(InfeasibleKernelError, match="left the kernel"):
        rational_kernel_point([{0: 1, 1: -1}], [1, 2], 10)


# x0 - x1 - x2 = 0 with x2 small: the projection of (1, 3/2, x2) puts x2
# below 0, and no q <= SCAN_BOUND rounds either target into the kernel.
DROP_ROW = {0: 1, 1: -1, 2: -1}


def test_kernel_point_drops_a_small_negative_coordinate_and_reprojects():
    target = [Fraction(1), Fraction(3, 2), Fraction(1, 100)]
    tolerance = Fraction(1, 2)
    dense = dense_rows([DROP_ROW], 3)
    assert reference_scan(dense, target, tolerance, approx.SCAN_BOUND) is None
    expected = (Fraction(5, 4), Fraction(5, 4), Fraction(0))
    assert reference_projection(dense, target, tolerance) == expected
    assert rational_kernel_point([DROP_ROW], target, tolerance) == expected


def test_kernel_point_refuses_a_large_coordinate_forced_negative():
    # At tolerance 1/10, x2 = 1/5 is no noise to drop.
    target = [Fraction(1), Fraction(3, 2), Fraction(1, 5)]
    tolerance = Fraction(1, 10)
    dense = dense_rows([DROP_ROW], 3)
    assert reference_scan(dense, target, tolerance, approx.SCAN_BOUND) is None
    with pytest.raises(InfeasibleKernelError):
        reference_projection(dense, target, tolerance)
    with pytest.raises(InfeasibleKernelError, match="projection forces a "
                       "coordinate negative beyond tolerance"):
        rational_kernel_point([DROP_ROW], target, tolerance)


def test_kernel_point_projects_on_the_target_support_alone():
    # u_2 = 0 keeps x2 out of the projection, so v_2 = 0: projected over
    # all three columns, (3/2, 1, 0) would go to (4/3, 7/6, 1/6).
    target = [Fraction(3, 2), Fraction(1), Fraction(0)]
    tolerance = Fraction(1, 3)
    dense = dense_rows([DROP_ROW], 3)
    assert reference_scan(dense, target, tolerance, approx.SCAN_BOUND) is None
    expected = (Fraction(5, 4), Fraction(5, 4), Fraction(0))
    assert reference_projection(dense, target, tolerance) == expected
    assert rational_kernel_point([DROP_ROW], target, tolerance) == expected


@pytest.mark.parametrize("row, target, message", [
    # x0 = 0 projects (1, 1) to (0, 1): a coordinate projected to exactly
    # 0 is not forced negative, and the point is refused by its gap.
    ({0: 1}, [1, 1], "no kernel point within 1/2 of the target"),
    # x0 + x1 = 0 projects (1, 1/2) to (1/4, -1/4): a target of exactly
    # the tolerance is no noise to drop.
    ({0: 1, 1: 1}, [1, Fraction(1, 2)],
     "projection forces a coordinate negative beyond tolerance")],
    ids=["zero", "at-tolerance"])
def test_kernel_point_names_the_bound_a_projection_meets(row, target,
                                                          message):
    tolerance = Fraction(1, 2)
    dense = dense_rows([row], 2)
    assert reference_scan(dense, target, tolerance, approx.SCAN_BOUND) is None
    with pytest.raises(InfeasibleKernelError, match=f"^{message}$"):
        rational_kernel_point([row], target, tolerance)


@st.composite
def nudged_kernel_problems(draw):
    """The exact r = 1-2 table of a random rank-2 current as a vector over
    its support system, each coordinate nudged by a small rational."""
    current = random_current(random.Random(draw(st.integers(0, 2 ** 32))))
    radius = draw(st.integers(1, 2))
    table = cylinder_table(current, radius)
    nudge = st.builds(Fraction, st.integers(-9, 9),
                      st.sampled_from((10, 10 ** 3, 10 ** 6)))
    target = [max(x + draw(nudge), Fraction(0))
              for x in table.entries.values()]
    tolerance = draw(st.sampled_from((Fraction(1, 10), Fraction(1, 100),
                                      Fraction(1, 10 ** 4))))
    return _matching_matrix(table.support(), 2), target, tolerance


@settings(deadline=None, max_examples=60)
@given(nudged_kernel_problems())
def test_kernel_point_is_a_nearby_nonnegative_kernel_point(problem):
    matrix, target, tolerance = problem
    try:
        v = rational_kernel_point(matrix, target, tolerance)
    except InfeasibleKernelError:
        return
    assert len(v) == len(target)
    assert all(x >= 0 for x in v)
    for row in matrix:
        assert sum(c * v[j] for j, c in row.items()) == 0
    assert max(abs(a - b) for a, b in zip(target, v)) < tolerance


@settings(deadline=None, max_examples=100)
@given(nudged_kernel_problems())
def test_kernel_point_is_the_rounding_at_the_least_q(problem):
    # The rounding at the least admissible q <= SCAN_BOUND, and the
    # orthogonal projection only when no such q exists; the references
    # read the same rows written out densely.
    matrix, target, tolerance = problem
    dense = dense_rows(matrix, len(target))
    expected = reference_scan(dense, target, tolerance, approx.SCAN_BOUND)
    if expected is None:
        try:
            expected = reference_projection(dense, target, tolerance)
        except InfeasibleKernelError:
            with pytest.raises(InfeasibleKernelError):
                rational_kernel_point(matrix, target, tolerance)
            return
    assert rational_kernel_point(matrix, target, tolerance) == expected


@st.composite
def nonsingular_systems(draw):
    """A random square nonsingular rational system of size 1 to 8: a
    strictly diagonally dominant matrix with its rows shuffled, so that
    the elimination meets zero pivots and swaps rows, and a right side."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(Fraction(0)), st.builds(
        Fraction, st.integers(-10 ** 6, 10 ** 6),
        st.sampled_from((1, 2, 3, 7, 10 ** 9 + 7))))
    matrix = []
    for i in range(n):
        row = draw(st.lists(entry, min_size=n, max_size=n))
        row[i] = draw(st.sampled_from((1, -1))) * (
            1 + sum((abs(x) for j, x in enumerate(row) if j != i),
                    Fraction(0)))
        matrix.append(row)
    return (draw(st.permutations(matrix)),
            draw(st.lists(entry, min_size=n, max_size=n)))


@settings(deadline=None, max_examples=200)
@given(nonsingular_systems())
def test_bareiss_solve_equals_the_gauss_jordan_reference(system):
    matrix, rhs = system
    assert approx._solve_nonsingular(matrix, rhs) == \
        reference_solve_rational(matrix, rhs)


def test_integerize_examples():
    ex = cylinder_table(RationalCurrent.eta(Subgroup(["x"], 2)), 1)
    theta, scale = integerize(ex)
    assert scale == 1 and theta.table is ex  # used as it is, not copied
    half_full = cylinder_table(RationalCurrent.full(2), 1).scale(
        Fraction(1, 2))
    theta, scale = integerize(half_full)
    assert scale == 2
    assert theta.table == cylinder_table(RationalCurrent.full(2), 1)
    mixed = cylinder_table(
        RationalCurrent.full(2).scale(Fraction(1, 3))
        + RationalCurrent.eta(Subgroup(["x"], 2)).scale(Fraction(1, 4)), 1)
    _theta, scale = integerize(mixed)
    assert scale == 12


def test_approximate_table_pipeline():
    text = ("rank 2\nradius 1\n"
            "e,x,Y = 0.3333333333\n"
            "e,X,y = 0.3333333334\n"
            "e,x,X,y,Y = 0.25\n")
    table = table_from_text(text)
    theta, scale, exact = approximate_table(table, Fraction(1, 1000))
    assert check_matching(exact) == []
    assert check_matching(theta.table) == []
    assert theta.table == exact.scale(scale)
    assert verify_realization(theta, decompose(realize(theta)))


@pytest.mark.parametrize("tolerance, message", [
    (0, "tolerance must be positive"),
    (-1, "tolerance must be positive"),
    (float("nan"), "cannot convert NaN to integer ratio"),
    (float("inf"), "cannot convert Infinity to integer ratio"),
    (float("-inf"), "cannot convert Infinity to integer ratio"),
    ("abc", "bad rational 'abc'"),
], ids=["zero", "negative", "nan", "inf", "-inf", "text"])
def test_approximate_table_refuses_a_bad_tolerance(tolerance, message):
    # The tolerance is the one input `approximate_table` checks; each bad
    # one is a plain ValueError, an infinity's OverflowError included.
    table = cylinder_table(RationalCurrent.full(2), 1)
    with pytest.raises(ValueError) as caught:
        approximate_table(table, tolerance)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


@st.composite
def noised_tables(draw):
    """The exact table of a random current of 1-4 subgroups at rank 2-3
    and radius 1-3, each weight times 1 + a relative noise below 1e-6,
    and a tolerance."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rank = draw(st.integers(2, 3))
    radius = draw(st.integers(1, 3))
    current = random_current(rng, rank, max_terms=4, max_len=3)
    exact = cylinder_table(current, radius)
    tolerance = draw(st.sampled_from((Fraction(1, 100), Fraction(1, 10 ** 4),
                                      Fraction(1, 10 ** 7))))
    return WeightTable(rank, radius, noised_floats(exact, rng)), tolerance


@settings(deadline=None, max_examples=60)
@given(noised_tables())
def test_approximate_table_equals_the_checked_kernel_point(problem):
    # `approximate_table` hands its own rows and snapped target to the
    # kernel-point core unchecked; the checked entry, given the same rows
    # and target, returns the same point or refuses the same way.
    table, tolerance = problem
    support = table.support()
    try:
        v = rational_kernel_point(_matching_matrix(support, table.rank),
                                  [rationalize(x) for x in
                                   table.entries.values()], tolerance)
    except InfeasibleKernelError as exc:
        with pytest.raises(InfeasibleKernelError) as caught:
            approximate_table(table, tolerance)
        assert str(caught.value) == str(exc)
        return
    exact = WeightTable(table.rank, table.radius, dict(zip(support, v)))
    theta, scale = integerize(exact)
    got_theta, got_scale, got_exact = approximate_table(table, tolerance)
    assert (got_theta.table, got_scale, got_exact) == (theta.table, scale,
                                                        exact)


def test_approximate_table_accepts_exact_current_tables():
    rng = random.Random(2)
    for _ in range(5):
        table = cylinder_table(random_current(rng), 1)
        theta, scale, exact = approximate_table(table, Fraction(1, 10 ** 6))
        assert exact == table
        assert theta.table == table.scale(scale)


@pytest.mark.parametrize("radius", [2, 3])
def test_noised_integer_table_repairs_to_itself_and_realizes(radius):
    subs = [Subgroup(gens, 2) for gens in (["xy", "yxY"], ["xx", "y"],
                                            ["xyXY"], ["xYxxy"])]
    exact = cylinder_table(RationalCurrent(
        [(Fraction(1), sub) for sub in subs], 2), radius)
    noisy = WeightTable(2, radius, noised_floats(exact, random.Random(radius)))
    theta, scale, repaired = approximate_table(noisy, Fraction(1, 100))
    assert scale == 1 and repaired == exact and theta.table == exact
    assert verify_realization(theta, decompose(realize(theta)))


def test_noised_thirds_repair_at_q_3():
    # (1/3) * (eta_F + 2 * eta_<x>) at r = 2
    current = (RationalCurrent.full(2)
               + RationalCurrent.eta(Subgroup(["x"], 2)).scale(2))
    exact = cylinder_table(current.scale(Fraction(1, 3)), 2)
    noisy = WeightTable(2, 2, noised_floats(exact, random.Random(3)))
    theta, scale, repaired = approximate_table(noisy, Fraction(1, 100))
    assert scale == 3 and repaired == exact
    assert theta.table == exact.scale(3)


def test_subgroup_Hn_structure():
    h2 = subgroup_Hn(2)
    assert [str(w) for w in h2.generators] == ["yy", "yxY"]
    assert h2.reduced_rank() == 1
    assert subgroup_Hn(3).reduced_rank() == 2
    for n in range(2, 9):
        hn = subgroup_Hn(n)
        assert hn.hull.num_vertices == n
        assert hn.reduced_rank() == n - 1
        # y-cycle with x-loops at all vertices but one
        x_loops = sum(1 for (s, d, l) in hn.hull.edges if s == d and l == 1)
        y_edges = sum(1 for (_s, _d, l) in hn.hull.edges if l == 2)
        assert x_loops == n - 1 and y_edges == n
    with pytest.raises(ValueError):
        subgroup_Hn(1)


def test_subgroup_Gn_structure():
    for n in (2, 3, 5):
        gn = subgroup_Gn(n)
        assert finite_index(gn.core) == n
        assert gn.reduced_rank() == n
        for w in subgroup_Hn(n).generators:
            assert gn.contains(w)
    with pytest.raises(ValueError):
        subgroup_Gn(1)


def test_Gn_table_is_n_times_full_ball():
    for n in (2, 3, 4):
        gn = subgroup_Gn(n)
        for r in (0, 1, 2):
            table = cylinder_table(RationalCurrent.eta(gn), r)
            assert table.entries == {full_ball(2, r): Fraction(n)}


def test_convergence_run_values():
    assert [d for _n, d in convergence_run(0, [2, 4, 8, 16])] == [0, 0, 0, 0]
    assert convergence_run(1, [2, 4, 8, 16]) == [
        (2, Fraction(1, 2)), (4, Fraction(1, 4)),
        (8, Fraction(1, 8)), (16, Fraction(1, 16))]
    assert convergence_run(2, [2, 4, 8, 16]) == [
        (2, Fraction(1)), (4, Fraction(3, 4)),
        (8, Fraction(3, 8)), (16, Fraction(3, 16))]


def test_convergence_distance_is_2r_minus_1_over_n():
    # Exact over three decades of n; the identity needs n >= 2r - 1 (at
    # n = 2, r = 2 the distance is 1, not 3/2).
    for r in (1, 2, 3):
        assert convergence_run(r, [5, 32, 1024]) == [
            (n, Fraction(2 * r - 1, n)) for n in (5, 32, 1024)]


def test_convergence_monotone_under_doubling():
    for r in (1, 2):
        values = dict(convergence_run(r, [2, 4, 8, 16]))
        for n in (2, 4, 8):
            assert values[2 * n] < values[n]


def test_convergence_scaling_factor():
    for r in (1, 2):
        values = dict(convergence_run(r, [2, 16]))
        k2 = 2 * values[2]
        k16 = 16 * values[16]
        assert k16 <= 2 * k2 and k2 <= 2 * k16


def test_mass_identity_for_scaled_Hn():
    for n in (2, 5, 9):
        scaled = RationalCurrent([(Fraction(1, n), subgroup_Hn(n))], 2)
        for r in (0, 1):
            assert cylinder_table(scaled, r).total() == 1


def test_integerized_kernel_points_feed_realize():
    rng = random.Random(31)
    for _ in range(5):
        table = cylinder_table(random_current(rng), 1)
        v = rational_kernel_point(_matching_matrix(table.support(), 2),
                                  table.entries.values(), Fraction(1, 1000))
        repaired = WeightTable(2, 1, dict(zip(table.support(), v)))
        theta, _scale = integerize(repaired)
        assert verify_realization(theta, decompose(realize(theta)))


def test_full_matching_system_residuals_at_r2():
    table = cylinder_table(RationalCurrent.eta(Subgroup(["xy", "yxY"], 2)), 2)
    columns = list(enumerate_round_graphs(2, 2))
    vec = [table[t] for t in columns]
    assert all(sum(c * vec[j] for j, c in row.items()) == 0
               for row in _matching_matrix(columns, 2))
    assert check_matching(table) == []
