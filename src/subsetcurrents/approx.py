"""Rational approximation in the matching kernel and the H_n experiment.

The matching equations form an integer homogeneous system; any
nonnegative real solution can be approximated, coordinate support
preserved, by a nonnegative rational solution.  This module finds one
exactly on rows {column: coefficient}, smallest denominators first: for
q = 1, ..., SCAN_BOUND it rounds the target to the nearest multiples of
1/q and keeps the first rounding that is nonzero, within the tolerance
and a solution of every row in plain integers.  Else the orthogonal
projection is the last step: fraction-free elimination of the rows made
dense on the support gives a rational kernel basis, the normal equations
project the target onto it, and coordinates forced negative are zeroed
inductively (they can only be noise below the tolerance).  Scaling by
the least common denominator then gives an admissible integer weight
system, whose scale M divides q when the scan found the point.

The second half builds the rank-2 subgroup family H_n (generated by
y^n and the conjugates y^i x y^-i, 0 < i < n) and measures the cylinder
distance from (1/n) eta_{H_n} to eta_F, which shrinks like 1/n.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import InfeasibleKernelError
from .cylinders import (RationalCurrent, RoundGraph, WeightTable,
                        cylinder_table, distance, lens_rows, _fraction)
from .realize import WeightSystem
from .stallings import Subgroup
from .words import Word

Rational = Union[Fraction, int]

FLOAT_DENOMINATOR_BOUND = 10 ** 6
SCAN_BOUND = 16


def rationalize(value) -> Fraction:
    """Snap a value to the nearest rational of denominator at most
    FLOAT_DENOMINATOR_BOUND: the answer of `Fraction.limit_denominator`,
    found on integers and built as the one Fraction returned.

    A value other than a Fraction is read as `cylinders._fraction` reads
    it, a float exactly.  Past the bound, the continued fraction of n/d
    runs until the next convergent's denominator would pass it.  Of the
    last convergent p1/q1 and the largest semiconvergent
    (p0 + k.p1)/(q0 + k.q1) within it, the nearer n/d wins, p1/q1 on a
    tie.  The two lie 1/(q1.(q0 + k.q1)) apart and p1/q1 lies d'/(q1.d)
    from n/d, d' the last remainder: p1/q1 wins iff 2.d'.(q0 + k.q1) <= d.
    """
    if type(value) is not Fraction:
        value = _fraction(value)
    n, d = value.as_integer_ratio()
    if d <= FLOAT_DENOMINATOR_BOUND:
        return Fraction(n, d)
    denominator = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > FLOAT_DENOMINATOR_BOUND:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (FLOAT_DENOMINATOR_BOUND - q0) // q1
    if 2 * d * (q0 + k * q1) <= denominator:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def _bareiss_echelon(mat: list[list[int]]
                     ) -> tuple[list[list[int]], list[int]]:
    """Fraction-free integer row echelon, in place: rows, pivot columns."""
    m = len(mat)
    n = len(mat[0]) if mat else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                mat[i][j] = (mat[r][c] * mat[i][j]
                             - mat[i][c] * mat[r][j]) // prev
            mat[i][c] = 0
        prev = mat[r][c]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _nullspace_basis(rows: list[list[int]], width: int
                     ) -> list[list[Fraction]]:
    """Rational kernel basis of int rows of `width` entries, one vector
    per free column.  The echelon runs on the rows as given, so the
    caller hands over fresh rows; nothing is copied or checked."""
    echelon, pivots = _bareiss_echelon(rows)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for k in reversed(range(len(pivots))):
            c = pivots[k]
            row = echelon[k]
            s = sum((row[j] * vec[j] for j in range(c + 1, width)
                     if row[j]), Fraction(0))
            vec[c] = -s / row[c]
        basis.append(vec)
    return basis


def _solve_nonsingular(matrix: list[list[Fraction]], rhs: list[Fraction]
                       ) -> list[Fraction]:
    """The solution x of a square nonsingular rational system A.x = b:
    the kernel of [A | -b], its rows cleared of denominators, is spanned
    by (x, 1), the one vector `_nullspace_basis` gives."""
    rows = []
    for row, b in zip(matrix, rhs):
        row = row + [-b]
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    (solution,) = _nullspace_basis(rows, len(rows) + 1)
    return solution[:-1]


def _project_onto_kernel(basis: list[list[Fraction]],
                         target: Sequence[Fraction]) -> list[Fraction]:
    """Orthogonal projection of the target onto the kernel span, exactly."""
    k = len(basis)
    gram = [[sum((basis[a][i] * basis[b][i] for i in range(len(target))
                  if basis[a][i] and basis[b][i]), Fraction(0))
             for b in range(k)] for a in range(k)]
    rhs = [sum((basis[a][i] * target[i] for i in range(len(target))
                if basis[a][i] and target[i]), Fraction(0))
           for a in range(k)]
    coeffs = _solve_nonsingular(gram, rhs)
    return [sum((coeffs[a] * basis[a][i] for a in range(k)
                 if basis[a][i]), Fraction(0))
            for i in range(len(target))]


def _rounded_kernel_point(rows: list[dict[int, int]],
                          u: Sequence[Fraction], eps: Fraction
                          ) -> Optional[tuple[Fraction, ...]]:
    """k/q for the least q <= SCAN_BOUND at which k, the nearest integers
    to q.u, is nonzero (unless u is), within q.eps of q.u in every
    coordinate and a solution of every row {j: c} in integers; None
    when no q passes.  All arithmetic is on integers."""
    pairs = [(x.numerator, x.denominator) for x in u]
    e_num, e_den = eps.numerator, eps.denominator
    nonzero = any(u)
    for q in range(1, SCAN_BOUND + 1):
        ks = []
        for a, b in pairs:
            k = (2 * q * a + b) // (2 * b)
            # |a/b - k/q| < eps  <=>  |q.a - k.b| . e_den < q . e_num . b
            if abs(q * a - k * b) * e_den >= q * e_num * b:
                break
            ks.append(k)
        else:
            if (any(ks) or not nonzero) and all(
                    sum(c * ks[j] for j, c in r.items()) == 0 for r in rows):
                return tuple(Fraction(k, q) for k in ks)
    return None


def rational_kernel_point(rows: Iterable[Mapping[int, Rational]],
                          target: Iterable[Rational], tolerance: Rational
                          ) -> tuple[Fraction, ...]:
    """A nonnegative rational v with A.v = 0 and ||u - v||_inf < eps, for
    the integer matrix A given as rows {column: coefficient}, the
    nonnegative target u and the tolerance eps.  Columns must lie in
    0..len(u) - 1 and coefficients be integral, else ValueError; 2.0 is 2.

    Small denominators come first: for q = 1, ..., SCAN_BOUND, with k the
    nearest integers to q.u, the answer is k/q at the first q where k is
    nonzero (unless u is), every |u_i - k_i/q| < eps and every row sums
    to 0 over k.  That integer row sum is the one kernel check of k/q,
    since c.k = 0 exactly when c.(k/q) = 0.

    When no q passes, v is the orthogonal projection of u onto the
    kernel.  Coordinates of the target equal to 0 stay 0.  Coordinates
    whose projection comes out negative are zeroed and the projection
    repeated, but only while the target there is below the tolerance; a
    coordinate both large and forced negative means the support admits
    no nearby kernel point.  The projection's gap and every row's
    residual are checked last.

    Either way u_i = 0 gives v_i = 0 and u_i >= eps gives v_i > 0, since
    v_i is within eps of u_i: only coordinates below the tolerance can
    leave the support.

    This is the checked entry, for rows and targets from outside the
    package: it reads rows as ints and numbers by `_fraction`, refuses
    what the conditions above refuse, and hands the rest to
    `_kernel_point`, which `approximate_table` calls on rows it builds.
    """
    given = list(rows)
    eps = _positive_tolerance(tolerance)
    u = tuple(map(_fraction, target))
    try:
        rows = [{int(j): int(c) for j, c in row.items()} for row in given]
    except OverflowError as exc:  # an infinity; a NaN raises ValueError
        raise ValueError(str(exc)) from exc
    n = len(u)
    if rows != given:
        raise ValueError("row columns and coefficients must be integers")
    if any(not 0 <= j < n for row in rows for j in row):
        raise ValueError(f"a row has a column outside 0..{n - 1}")
    if any(x.numerator < 0 for x in u):
        raise ValueError("target must be nonnegative")
    return _kernel_point(rows, u, eps)


def _positive_tolerance(tolerance: Rational) -> Fraction:
    """The tolerance as a Fraction, refused unless it is positive."""
    eps = _fraction(tolerance)
    if eps.numerator <= 0:
        raise ValueError("tolerance must be positive")
    return eps


def _kernel_point(rows: list[dict[int, int]], u: Sequence[Fraction],
                  eps: Fraction) -> tuple[Fraction, ...]:
    """The body of `rational_kernel_point`, for rows of int columns in
    0..len(u) - 1 and int coefficients, a nonnegative Fraction target
    and a positive Fraction tolerance, none of which it checks."""
    rounded = _rounded_kernel_point(rows, u, eps)
    if rounded is not None:
        return rounded
    n = len(u)
    support = [i for i in range(n) if u[i] > 0]
    v = [Fraction(0)] * n
    while support:
        cuts = ([row.get(i, 0) for i in support] for row in rows)
        basis = _nullspace_basis([c for c in cuts if any(c)], len(support))
        if not basis:
            raise InfeasibleKernelError(
                "the kernel restricted to the support is trivial")
        proj = _project_onto_kernel(basis, [u[i] for i in support])
        negatives = [k for k in range(len(support)) if proj[k] < 0]
        if not negatives:
            for k, i in enumerate(support):
                v[i] = proj[k]
            break
        drop = [support[k] for k in negatives if u[support[k]] < eps]
        if not drop:
            raise InfeasibleKernelError(
                "projection forces a coordinate negative beyond tolerance")
        support = [i for i in support if i not in drop]
    gap = max((abs(u[i] - v[i]) for i in range(n)), default=Fraction(0))
    if gap >= eps:
        raise InfeasibleKernelError(
            f"no kernel point within {eps} of the target")
    for row in rows:
        residual = sum(c * v[j] for j, c in row.items())
        if residual != 0:
            raise InfeasibleKernelError(
                f"projection left the kernel: a row evaluates to {residual}")
    return tuple(v)


def integerize(table: WeightTable) -> tuple[WeightSystem, int]:
    """Scale an admissible rational table by the least common denominator.

    Returns (theta, M) with theta = M * table entrywise; scaling preserves
    the integer balance equations, so theta is admissible.
    """
    scale = lcm(*(v.denominator for v in table.entries.values()))
    return WeightSystem(table.scale(scale) if scale > 1 else table), scale


def _matching_matrix(columns: Sequence[RoundGraph], rank: int
                     ) -> list[dict[int, int]]:
    """The matching equations over `columns` as rows {j: nonzero
    coefficient}, j a position in `columns` as in `lens_rows`, in
    `lens_rows` order: row (u, J) is +1 on its `outs` and -1 on its
    `ins` (each side lists a column once, and one on both sides is left
    out), and an empty row is dropped.  Admissible vectors over the
    columns are exactly the nonnegative kernel points, since the rows of
    the full system that meet no column vanish on them identically."""
    rows = []
    for _gen, _key, outs, ins in lens_rows(columns, rank):
        row = dict.fromkeys(outs, 1)
        for j in ins:
            if row.pop(j, None) is None:
                row[j] = -1
        if row:
            rows.append(row)
    return rows


def approximate_table(table: WeightTable, tolerance: Rational
                      ) -> tuple[WeightSystem, int, WeightTable]:
    """Full pipeline: rationalize, repair to the kernel, integerize.

    Returns (theta, M, exact) where exact is the nonnegative rational
    kernel table within `tolerance` of the input (sup-norm over
    round-graphs) and theta = M * exact.  Only the tolerance comes from
    the caller, and only it is checked, as `rational_kernel_point` checks
    it: the rows `_matching_matrix` writes and the Fractions `rationalize`
    snaps from a table's nonnegative entries go to `_kernel_point` as
    they are.
    """
    eps = _positive_tolerance(tolerance)
    support = table.support()
    snapped = list(map(rationalize, table.entries.values()))
    v = _kernel_point(_matching_matrix(support, table.rank), snapped, eps)
    exact = WeightTable(table.rank, table.radius, dict(zip(support, v)))
    theta, scale = integerize(exact)
    return theta, scale, exact


# ---------------------------------------------------------------------------
# the rank-2 subgroup families of the convergence experiment

def subgroup_Hn(n: int) -> Subgroup:
    """<y^n, y x y^-1, ..., y^(n-1) x y^-(n-1)>: hull-core is an n-cycle of
    y-edges with x-loops at all vertices but one; reduced rank n - 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    x, y = 1, 2
    gens = [(y,) * n]
    gens.extend((y,) * i + (x,) + (-y,) * i for i in range(1, n))
    return Subgroup([Word(2, g) for g in gens], 2)


def convergence_run(radius: int, ns: Iterable[int]
                    ) -> list[tuple[int, Fraction]]:
    """Exact cylinder distances from (1/n) eta_{H_n} to eta_F."""
    reference = cylinder_table(RationalCurrent.full(2), radius)
    out = []
    for n in ns:
        sub = subgroup_Hn(n)  # refuses n < 2 before 1/n is formed
        scaled = RationalCurrent([(Fraction(1, n), sub)], 2)
        out.append((n, distance(cylinder_table(scaled, radius), reference)))
    return out
