"""Command-line surface: thin adapters over the library operations.

All numeric output is printed in canonical reduced form p/q (plain
integer when the denominator is 1); `converge --decimal` adds a decimal
column for human reading.  Exit codes: 0 success, 1 domain error (the
violated precondition is named), 2 I/O or file-format error.  A command
that prints a table prints its status lines as `# ` comments, so that
its stdout reads back as a table file.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from collections import Counter
from pathlib import Path

from . import approx as approx_mod
from . import cylinders as cyl
from . import fiber
from . import stallings
from .errors import FileFormatError
from .realize import WeightSystem, decompose, realize, verify_realization
from .stallings import DIGIT_CAP, _over_digit_cap
from .words import _check_rank


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subcur",
        description="subset currents on free groups: core graphs, "
                    "cylinder tables, realization")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Subcommand)

    p = sub.add_parser("rank", run=_cmd_rank,
                       help="reduced rank of a subgroup")
    p.add_argument("subgroup", type=Path)

    p = sub.add_parser("index", run=_cmd_index,
                       help="index of a subgroup (or infinite)")
    p.add_argument("subgroup", type=Path)

    p = sub.add_parser("member", run=_cmd_member,
                       help="membership of a word")
    p.add_argument("subgroup", type=Path)
    p.add_argument("--word", required=True)

    p = sub.add_parser("intersect", run=_cmd_intersect,
                       help="fiber product: N, SHNC bound, census")
    p.add_argument("left", type=Path)
    p.add_argument("right", type=Path)
    p.add_argument("--export", type=Path, default=None,
                   help="path prefix for component graph exports")

    p = sub.add_parser("cylinders", run=_cmd_cylinders,
                       help="cylinder table of a rational current")
    p.add_argument("subgroups", nargs="+", type=Path)
    p.add_argument("--radius", type=_integer, required=True)
    p.add_argument("--coeffs", help="comma-separated rational "
                   "coefficients, one per subgroup file (default all 1)")
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("enumerate", run=_cmd_enumerate,
                       help="list every round-graph at a radius")
    p.add_argument("--radius", type=_integer, required=True)
    p.add_argument("--rank", type=_integer, default=2,
                   help="rank of the free group (default 2)")

    p = sub.add_parser("realize", run=_cmd_realize,
                       help="realize an integer weight table and verify")
    p.add_argument("table", type=Path)
    p.add_argument("--outdir", type=Path, default=Path("."))

    p = sub.add_parser("approx", run=_cmd_approx,
                       help="repair a (possibly float) table to an "
                            "admissible integer weight system")
    p.add_argument("table", type=Path)
    p.add_argument("--epsilon", default="1/1000")
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("converge", run=_cmd_converge,
                       help="distance of (1/n) eta_{H_n} from eta_F")
    p.add_argument("--radius", type=_integer, required=True)
    p.add_argument("--ns", default="2,4,8,16")
    p.add_argument("--decimal", action="store_true")

    p = sub.add_parser("export", run=_cmd_export,
                       help="write a subgroup's graph description")
    p.add_argument("subgroup", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--hull", action="store_true",
                   help="export the hull-core instead of the core")
    return parser


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: the arguments it parses carry its handler
    as `run`, and it refuses an argument it does not know itself, so the
    error names the subcommand (the top-level parser names only `subcur`)."""

    def __init__(self, *args, run, **kwargs):
        super().__init__(*args, **kwargs)
        self.set_defaults(run=run)

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


# Most round-graphs `enumerate` lists, most letters one ball
# B(id, radius), one input's words or one H_n of `converge` spell, most
# atoms `realize` may cut (total weight over the weights' gcd), and most
# edges of the fiber product `intersect` joins.
SIZE_CAP = 10 ** 6

def _integer(text: str) -> int:
    if not re.fullmatch(stallings._INTEGER, text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _capped(source, text=None) -> str:
    """The text of file `source` (or `text`, named `source`), refused
    before any parse if its words could spell over SIZE_CAP letters, as
    bounded by its letters plus its exponents, or if a number in it has
    more than DIGIT_CAP digits, its decimal exponent included.  An
    exponent too long for a cap is refused unread, never passed to int()."""
    if text is None:
        text = source.read_text(encoding="utf-8")
    bound = sum(map(str.isalpha, text)) + sum(
        int(e) if len(e) <= len(str(SIZE_CAP)) else SIZE_CAP + 1
        for e in re.findall(r"\^-?([0-9]+)", text))
    if bound > SIZE_CAP:
        raise ValueError(f"refusing {source}: its words could expand "
                         f"above the cap of {SIZE_CAP} letters")
    if _over_digit_cap(text):
        raise ValueError(f"refusing {source}: a number in it spells "
                         f"more than the cap of {DIGIT_CAP} digits")
    return text


def _check_digits(what: str, values) -> None:
    """Refuse, before any output, a computed value whose numerator or
    denominator has more than DIGIT_CAP digits, which str() cannot print."""
    limit = 10 ** DIGIT_CAP
    if any(abs(v.numerator) >= limit or v.denominator >= limit
           for v in values):
        raise ValueError(f"refusing {what}: a value in it has more than "
                         f"the cap of {DIGIT_CAP} digits")


def _cmd_rank(args) -> None:
    sub = stallings.subgroup_from_text(_capped(args.subgroup))
    print(f"reduced_rank = {sub.reduced_rank()}")


def _cmd_index(args) -> None:
    sub = stallings.subgroup_from_text(_capped(args.subgroup))
    idx = stallings.finite_index(sub.core)
    print(f"index = {'infinite' if idx is None else idx}")


def _cmd_member(args) -> None:
    word = _capped("--word", args.word)
    sub = stallings.subgroup_from_text(_capped(args.subgroup))
    print("true" if sub.contains(word) else "false")


def _cmd_intersect(args) -> None:
    left = stallings.subgroup_from_text(_capped(args.left))
    right = stallings.subgroup_from_text(_capped(args.right))
    # The join lists one edge per pair of same-label hull edges.
    per_label = Counter(l for (_s, _d, l) in right.hull.edges)
    pairs = sum(per_label[l] for (_s, _d, l) in left.hull.edges)
    if pairs > SIZE_CAP:
        raise ValueError(f"refusing the fiber product of {pairs} edges "
                         f"above the cap of {SIZE_CAP}")
    product = fiber.fiber_product(left.hull, right.hull)
    n = sum(max(e - v, 0) for (v, e) in product.component_stats())
    bound = left.reduced_rank() * right.reduced_rank()
    total, trees, positive = fiber.component_census(product)
    print(f"N = {n}")
    print(f"bound = {bound}")
    print(f"SHNC: {'ok' if n <= bound else 'violated'}")
    print(f"census: total={total} trees={trees} positive={positive}")
    if args.export is not None:
        for k, (comp, edges) in enumerate(zip(product.components,
                                              product.component_edges)):
            ids = {v: i for i, v in enumerate(comp)}
            graph = stallings.LabeledGraph(product.rank, len(comp), sorted(
                (ids[s], ids[d], l) for (s, d, l) in edges))
            Path(f"{args.export}.{k}.txt").write_text(
                stallings.graph_to_text(graph), encoding="utf-8")
        print(f"exported {len(product.components)} components")


def _check_ball(rank: int, radius: int) -> None:
    """Refuse a radius whose ball B(id, radius) holds more than SIZE_CAP
    letters; the sum stops as soon as it passes the cap."""
    _check_rank(rank)
    letters, words = 0, 2 * rank
    for length in range(1, radius + 1):
        letters += length * words
        if letters > SIZE_CAP:
            raise ValueError(
                f"refusing radius {radius} at rank {rank}: its ball holds "
                f"more than the cap of {SIZE_CAP} letters")
        words *= 2 * rank - 1


def _cmd_enumerate(args) -> None:
    _check_ball(args.rank, args.radius)
    expected = cyl.count_round_graphs(args.rank, args.radius)
    if expected > SIZE_CAP:
        # A long count is shown by its bit length: it would not fit one
        # line, and str() of an int has a digit limit.
        bits = expected.bit_length()
        shown = expected if bits <= 64 else f"over 2^{bits - 1}"
        raise ValueError(
            f"refusing to list {shown} round-graphs at rank {args.rank}, "
            f"radius {args.radius}, above the cap of {SIZE_CAP}; the "
            f"library generator is lazy if you need to stream them")
    graphs = list(cyl.enumerate_round_graphs(args.rank, args.radius))
    print(f"count = {len(graphs)}")
    for t in sorted(graphs):
        print(cyl.round_graph_to_text(t))


def _cmd_cylinders(args) -> None:
    subs = [stallings.subgroup_from_text(_capped(path))
            for path in args.subgroups]
    # The library reads each coefficient's text, as every number value.
    coeffs = ([1] * len(subs) if args.coeffs is None
              else _capped("--coeffs", args.coeffs).split(","))
    if len(coeffs) != len(subs):
        raise ValueError("one coefficient per subgroup file")
    current = cyl.RationalCurrent(list(zip(coeffs, subs)))
    _check_ball(current.rank, args.radius)
    table = cyl.cylinder_table(current, args.radius)
    _check_digits("the cylinder table", table.entries.values())
    text = cyl.table_to_text(table)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    violations = cyl.check_matching(table)
    for line in violations or ["ok"]:
        print(f"# matching: {line}")


def _cmd_realize(args) -> None:
    table = cyl.table_from_text(_capped(args.table))
    _check_ball(table.rank, table.radius)
    theta = WeightSystem(table)
    total = table.total()
    # Every range start, offset and cut of the atom closure is a multiple
    # of the weights' gcd g, so it cuts at most total / g atoms.
    g = math.gcd(*(v.numerator for v in table.entries.values()))
    if total > SIZE_CAP * g:
        # str() has a digit limit, so a long total is named by its digit
        # count, read off its bit length.
        whole = int(total)
        d = int(whole.bit_length() * math.log10(2))
        shown = total if d < 18 else f"of {d + (whole >= 10 ** d)} digits"
        raise ValueError(
            f"refusing to realize total weight {shown} above the cap of "
            f"{SIZE_CAP} times the gcd {g} of its weights; the atom "
            f"closure may cut total / gcd atoms")
    quotient = realize(theta)
    current = decompose(quotient)
    ok = verify_realization(theta, current)
    _check_digits("the realization", [total, *(c for c, _ in current.terms)])
    args.outdir.mkdir(parents=True, exist_ok=True)
    report = [f"vertices = {total}",
              f"components = {quotient.component_count()}",
              f"verified = {'true' if ok else 'false'}",
              f"shapes = {len(current.terms)}"]
    for k, (coeff, sub) in enumerate(current.terms):
        (args.outdir / f"component_{k}.txt").write_text(
            stallings.subgroup_to_text(sub), encoding="utf-8")
        report.append(f"component_{k} = {coeff}")
    text = "".join(f"{line}\n" for line in report)
    (args.outdir / "report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    if not ok:
        raise ValueError("the realization does not verify: the current it "
                         "decomposes into has another table")


def _cmd_approx(args) -> None:
    table = cyl.table_from_text(_capped(args.table))
    _check_ball(table.rank, table.radius)
    theta, scale, _exact = approx_mod.approximate_table(
        table, _capped("--epsilon", args.epsilon))
    _check_digits("the repaired table", [scale, *theta.table.entries.values()])
    text = cyl.table_to_text(theta.table)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(f"# M = {scale}")


def _cmd_converge(args) -> None:
    ns = [_integer(x.strip()) for x in _capped("--ns", args.ns).split(",")
          if x.strip()]
    for n in ns:            # H_n's generators: y^n, y^i x y^-i (0 < i < n)
        if n * n + n - 1 > SIZE_CAP:
            raise ValueError(f"refusing n = {n}: H_n spells {n * n + n - 1} "
                             f"letters, above the cap of {SIZE_CAP} letters")
    _check_ball(2, args.radius)
    for n, dist in approx_mod.convergence_run(args.radius, ns):
        line = f"n={n} distance = {dist}"
        if args.decimal:
            line += f" ({float(dist):.6g})"
        print(line)


def _cmd_export(args) -> None:
    sub = stallings.subgroup_from_text(_capped(args.subgroup))
    graph = sub.hull if args.hull else sub.core
    args.out.write_text(stallings.graph_to_text(graph), encoding="utf-8")
    print(f"wrote {args.out}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (FileFormatError, OSError)) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
