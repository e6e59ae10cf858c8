"""Round-graphs of the Cayley tree and exact cylinder evaluation.

A round-graph of radius r is a finite subtree of the ball B(id, r),
encoded by its vertex set of reduced words; it indexes the cylinder of
boundary subsets whose convex hull meets the ball in exactly that
subtree.  A counting current eta_H gives the cylinder weight

    eta_H(SCyl(T)) = #{vertices v of the hull-core of H whose traced
                       radius-r neighborhood, read as words, equals T}

and finite rational combinations are evaluated entrywise.  Everything in
this module is exact: values are `fractions.Fraction`, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice, product
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import AdmissibilityError, BasisMismatchError, FileFormatError
from .stallings import CoreGraph, Subgroup, _parse_fraction, _read_file
from .words import (format_word, free_reduce, parse_word, _check_radius,
                    _check_rank, _Frozen, _SIGNED)

WordTuple = tuple[int, ...]

# Letter codes in round-graph order, x < X < y < Y ...: each letter's
# place in `_SIGNED` plus 2, which is 2m for a generator m and 1 - 2m for
# its inverse, all below 256.
_CODE = {m: code for code, m in enumerate(_SIGNED, 2)}
# (m, m^-1, m's code as a byte) per signed letter in that order: a rank's
# letters are the first 2.rank.
_CODED_LETTERS = tuple((m, -m, bytes((_CODE[m],))) for m in _SIGNED)


def _order_key(words: tuple[WordTuple, ...]) -> bytes:
    """The round-graph order of canonical words as one byte string: the
    word count, then each word's length and letter codes, so fewer words
    come first, then the first differing word in shortlex order."""
    flat = [len(words)]
    for w in words:
        flat.append(len(w))
        flat.extend(map(_CODE.__getitem__, w))
    # n goes as n // 255 bytes 255, then n % 255: still in order, and one
    # byte n below 255.
    return b"".join(b"\xff" * (n // 255) + bytes((n % 255,)) for n in flat)


def validate_round_graph(words: Iterable[WordTuple], radius: int,
                         rank: int) -> bool:
    """Decide the round-graph conditions for a vertex-word set.

    The set must be the vertex set of a subtree of B(id, radius) that
    contains the root, whose vertices at distance < radius all have
    degree >= 2, and (radius >= 1) with at least two vertices at distance
    exactly radius.  These conditions hold exactly when some closed
    boundary subset's convex hull meets the ball in this subtree: sphere
    leaves extend to rays outward, and interior vertices lie on lines
    between the resulting boundary points.
    """
    ws = set()
    for w in words:
        w = tuple(w)
        if type(radius) is not int or len(w) > radius:
            return False
        if any(type(m) is not int or m == 0 or abs(m) > rank for m in w):
            return False
        if free_reduce(w) != w:
            return False
        ws.add(w)
    if () not in ws:
        return False
    if radius == 0:
        return ws == {()}
    children: dict[WordTuple, int] = {w: 0 for w in ws}
    for w in ws:
        if w and w[:-1] not in ws:
            return False  # not prefix-closed, hence not a subtree
        if w:
            children[w[:-1]] += 1
    for w in ws:
        if len(w) < radius:
            degree = children[w] + (1 if w else 0)
            if degree < 2:
                return False
    if sum(1 for w in ws if len(w) == radius) < 2:
        return False
    return True


class RoundGraph(_Frozen):
    """Canonical rooted subtree of the radius-r ball; hashable table key."""

    __slots__ = ("rank", "radius", "words", "_key")

    def __init__(self, rank: int, radius: int, words: Iterable[WordTuple]):
        _check_rank(rank)
        words = tuple(words)
        if not validate_round_graph(words, radius, rank):
            raise ValueError(
                f"not a valid round-graph at radius {radius}: {words}")
        # Length-then-lexicographic order on letter codes.
        words = tuple(sorted(set(words), key=lambda w: (
            len(w), bytes(map(_CODE.__getitem__, w)))))
        self._set(rank, radius, words, _order_key(words))

    # Tables compare entry by entry, and these beat the base's tuples of
    # parameters: equality reads the fields in place, and the hash the
    # order key, which caches its own.
    def __eq__(self, other) -> bool:
        return (isinstance(other, RoundGraph)
                and self.rank == other.rank
                and self.radius == other.radius
                and self.words == other.words)

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "RoundGraph") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:
        return f"RoundGraph(r={self.radius}, {round_graph_to_text(self)!r})"


def enumerate_round_graphs(rank: int, radius: int) -> Iterator[RoundGraph]:
    """Yield every round-graph rooted at the identity, lazily.

    The count grows super-exponentially in the radius (rank 2: 1, 11,
    4067, ~6.9e10 for r = 0..3; see `count_round_graphs`), so
    materializing beyond r = 2 is not desk-scale; the generator itself is
    cheap per item, and no radius is refused.
    """
    _check_rank(rank)
    _check_radius(radius)
    if radius == 0:
        yield RoundGraph(rank, 0, [()])
        return
    letters = _SIGNED[:2 * rank]

    def expand(done: list[WordTuple], frontier: list[WordTuple],
               depth: int) -> Iterator[list[WordTuple]]:
        if depth == radius:
            yield done + frontier
            return
        # Each frontier vertex picks a nonempty set of reduced extensions.
        options: list[list[tuple[WordTuple, ...]]] = []
        for w in frontier:
            kids = [w + (m,) for m in letters if m != -w[-1]]
            subsets: list[tuple[WordTuple, ...]] = []
            for size in range(1, len(kids) + 1):
                subsets.extend(combinations(kids, size))
            options.append(subsets)
        for chosen in product(*options):
            nxt = [w for group in chosen for w in group]
            yield from expand(done + frontier, nxt, depth + 1)

    for size in range(2, len(letters) + 1):
        for roots in combinations(letters, size):
            frontier = [(m,) for m in roots]
            for words in expand([()], frontier, 1):
                yield RoundGraph(rank, radius, words)


def count_round_graphs(rank: int, radius: int) -> int:
    """Closed-form count of round-graphs at the identity.

    A vertex below the root has 2*rank - 1 reduced extensions and, while
    interior, picks a nonempty subset of them; the root picks >= 2 of its
    2*rank neighbors.
    """
    _check_rank(rank)
    _check_radius(radius)
    if radius == 0:
        return 1
    f = 1
    for _ in range(radius - 1):
        f = (1 + f) ** (2 * rank - 1) - 1
    return (1 + f) ** (2 * rank) - 1 - 2 * rank * f


def _traced_words(hull: CoreGraph, vertex: int, radius: int
                  ) -> tuple[tuple[WordTuple, ...], bytes]:
    """The reduced words of length <= radius traced from a vertex, in
    breadth-first order over the signed letters x, X, y, Y, ..., and their
    `_order_key`; equal balls give equal words.

    The order is canonical, so the key is laid out as the words are
    walked: each word carries its letter codes, its parent's plus one
    byte, and each length's words join into one run of the key.  A ball
    of 255 words or more, the only one with a count or a length past one
    byte, escapes to `_order_key` itself."""
    letters = _CODED_LETTERS[:2 * hull.rank]
    words: list[WordTuple] = [()]
    runs = [b"\x00"]
    # The frontier is words[start:], with each word's codes and end vertex.
    start, codes, ends = 0, [b""], [vertex]
    for depth in range(1, radius + 1):
        frontier = zip(words[start:], codes, ends)
        start, codes, ends = len(words), [], []
        for w, c, v in frontier:
            last = w[-1] if w else 0
            step = hull._step[v]
            for m, inverse, code in letters:
                if inverse != last:
                    nv = step.get(m)
                    if nv is not None:
                        words.append(w + (m,))
                        codes.append(c + code)
                        ends.append(nv)
        if codes and len(words) < 255:
            mark = bytes((depth,))
            runs.append(mark + mark.join(codes))
    ball = tuple(words)
    if len(ball) < 255:
        return ball, bytes((len(ball),)) + b"".join(runs)
    return ball, _order_key(ball)


# ---------------------------------------------------------------------------
# weight tables

RationalLike = Union[Fraction, int, str]


def _fraction(value: RationalLike) -> Fraction:
    """The one reader of a number value: text by `_parse_fraction`, the
    rest by Fraction(), an infinity raising ValueError as a NaN does."""
    if isinstance(value, str):
        return _parse_fraction(value)
    try:
        return Fraction(value)
    except OverflowError as exc:
        raise ValueError(str(exc)) from exc


class WeightTable(_Frozen):
    """Finitely supported map RoundGraph -> nonnegative rational."""

    __slots__ = ("rank", "radius", "entries")

    def __init__(self, rank: int, radius: int,
                 entries: Mapping[RoundGraph, RationalLike] = ()):
        _check_rank(rank)
        _check_radius(radius)
        table: dict[RoundGraph, Fraction] = {}
        for t, value in dict(entries).items():
            if t.rank != rank or t.radius != radius:
                raise ValueError(
                    f"table key has rank {t.rank}, radius {t.radius}; "
                    f"expected {rank}, {radius}")
            if type(value) is not Fraction:
                value = _fraction(value)
            if value.numerator < 0:
                raise ValueError(f"negative weight {value} for {t}")
            if value.numerator:
                table[t] = value
        self._set(rank, radius, {t: table[t] for t in sorted(table)})

    def __getitem__(self, t: RoundGraph) -> Fraction:
        return self.entries.get(t, Fraction(0))

    def __iter__(self) -> Iterator[RoundGraph]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __hash__(self) -> int:
        # The entries parameter is a dict, which has no hash.
        return hash((self.rank, self.radius, tuple(self.entries.items())))

    def __repr__(self) -> str:
        return (f"WeightTable(rank={self.rank}, radius={self.radius}, "
                f"{len(self.entries)} entries, total={self.total()})")

    def support(self) -> tuple[RoundGraph, ...]:
        return tuple(self.entries)

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def scale(self, c: RationalLike) -> "WeightTable":
        c = _fraction(c)
        return WeightTable(self.rank, self.radius,
                           {t: v * c for t, v in self.entries.items()})

    def __add__(self, other: "WeightTable") -> "WeightTable":
        if (self.rank, self.radius) != (other.rank, other.radius):
            raise ValueError("tables live at different rank or radius")
        merged = dict(self.entries)
        for t, v in other.entries.items():
            merged[t] = merged.get(t, Fraction(0)) + v
        return WeightTable(self.rank, self.radius, merged)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.entries.values())


class RationalCurrent(_Frozen):
    """Finite nonnegative-rational combination of counting currents.

    Terms with trivial subgroups are dropped: their counting current is
    the zero measure.
    """

    __slots__ = ("terms", "rank")

    def __init__(self, terms: Iterable[tuple[RationalLike, Subgroup]],
                 rank: Optional[int] = None):
        kept: list[tuple[Fraction, Subgroup]] = []
        for coeff, sub in terms:
            coeff = _fraction(coeff)
            if coeff < 0:
                raise ValueError(f"negative coefficient {coeff}")
            if rank is None:
                rank = sub.rank
            if sub.rank != rank:
                raise BasisMismatchError(
                    f"subgroup rank {sub.rank} vs rank {rank}")
            if coeff and not sub.is_trivial():
                kept.append((coeff, sub))
        if rank is None:
            raise ValueError("rank is required for an empty current")
        _check_rank(rank)
        self._set(tuple(kept), rank)

    @classmethod
    def eta(cls, sub: Subgroup) -> "RationalCurrent":
        return cls([(1, sub)], sub.rank)

    @classmethod
    def full(cls, rank: int) -> "RationalCurrent":
        return cls.eta(Subgroup.full(rank))

    def scale(self, c: RationalLike) -> "RationalCurrent":
        c = _fraction(c)
        return RationalCurrent([(c * a, s) for (a, s) in self.terms], self.rank)

    def __add__(self, other: "RationalCurrent") -> "RationalCurrent":
        if self.rank != other.rank:
            raise BasisMismatchError(f"rank {self.rank} vs rank {other.rank}")
        return RationalCurrent(self.terms + other.terms, self.rank)

    def __repr__(self) -> str:
        body = " + ".join(f"{a}*eta({s!r})" for (a, s) in self.terms)
        return f"RationalCurrent({body or '0'})"


def _ball_ids(hull: CoreGraph, radius: int) -> list[int]:
    """Each hull vertex's radius-r ball as an id: equal ids exactly for
    equal balls, numbered 0, 1, ... in order of first vertex.

    Every vertex starts with id 0, and each of r rounds gives it the
    interned tuple of its neighbours' previous ids, read over x, X, y, Y,
    ... with -1 for a missing letter.  The split is exact: a d-ball is the
    root plus, per letter m, the m-neighbour's (d-1)-ball hung from m
    (less its words starting with m^-1), and each neighbour's (d-1)-ball
    lies in the d-ball.  Each round reads one neighbour column per letter,
    built once, so a vertex's tuple is made at C speed.
    """
    n = hull.num_vertices
    columns = [[step.get(m, n) for step in hull._step]
               for m in _SIGNED[:2 * hull.rank]]
    ids = [0] * n
    for _ in range(radius):
        prev = ids + [-1]
        seen: dict[tuple[int, ...], int] = {}
        ids = [seen.setdefault(key, len(seen)) for key in
               zip(*[map(prev.__getitem__, col) for col in columns])]
    return ids


def cylinder_table(current: RationalCurrent, radius: int) -> WeightTable:
    """Exact cylinder weights of a rational current at one radius.

    Each hull-core vertex contributes its coefficient to the entry of its
    local ball; the total mass is the coefficient-weighted sum of hull
    vertex counts, independent of the radius.  Each term's vertices are
    first split by ball (`_ball_ids`); then one ball per id is traced, at
    the id's first vertex, weighted by the id's multiplicity and stored
    with the words and order key the trace gives; equal balls of several
    terms add up, and `WeightTable` sorts the entries into round-graph
    order.  No radius is refused: the support has at most one entry per
    hull vertex, but each entry's tree grows with the ball, whose size is
    exponential in the radius.
    """
    _check_radius(radius)
    table: dict[RoundGraph, Fraction] = {}
    for coeff, sub in current.terms:
        hull = sub.hull
        ids = _ball_ids(hull, radius)
        first: dict[int, int] = {}
        for v, i in enumerate(ids):
            first.setdefault(i, v)
        counts = [0] * len(first)
        for i in ids:
            counts[i] += 1
        for i, v in first.items():
            # Canonical by the trace, and valid since hull degrees are >= 2.
            t = RoundGraph._stored(hull.rank, radius,
                                   *_traced_words(hull, v, radius))
            value = coeff * counts[i]
            old = table.get(t)
            table[t] = value if old is None else old + value
    return WeightTable(current.rank, radius, table)


# ---------------------------------------------------------------------------
# matching equations and the cylinder pseudo-distance

LensKey = tuple[WordTuple, ...]


def lens_keys(t: RoundGraph, generator: int
              ) -> tuple[Optional[LensKey], Optional[LensKey]]:
    """The lens classes of t for generator u: t meeting the lens if u is
    in t, and the u-translate of t meeting the lens if u^-1 is in t (None
    where t lacks the letter).  Matching pairs equal keys.

    Both are read off word prefixes, with no walk of the ball.  A word w
    of t (|w| <= r) lies in L = B(id, r) & B(u, r) exactly when |w| < r
    or w starts with u.  Its u-translate is w[1:] when w starts with u^-1,
    which always lies in L, and (u,) + w otherwise, which lies in L
    exactly when |w| < r.  t's letters are among its first 2.rank + 1
    words, the root and then the words of length 1 in shortlex order.

    The lens class is a filter of t's canonical words.  The translate is
    built in one pass over them as three canonical lists, which one
    stable sort by length merges: the stripped words whose first letter
    precedes u (the root first), the u-prefixed words, then the other
    stripped words.
    """
    r = t.radius
    u = generator
    letters = t.words[:2 * t.rank + 1]
    # A filter of the canonical t.words is canonical.
    out = (tuple([w for w in t.words if len(w) < r or w[0] == u])
           if (u,) in letters else None)
    inc = None
    if (-u,) in letters:
        # The root's translate is (u,) and u^-1's the root.  No stripped
        # word starts with u, so at each length those whose first letter
        # precedes u come before the u-prefixed words, the rest after.
        below, moved, above = [()], [(u,)], []
        inverse, code = -u, _CODE[u]
        for w in islice(t.words, 1, None):
            if w[0] == inverse:
                if len(w) > 1:
                    (below if _CODE[w[1]] < code else above).append(w[1:])
            elif len(w) < r:
                moved.append((u,) + w)
        below += moved
        below += above
        below.sort(key=len)
        inc = tuple(below)
    return out, inc


def lens_rows(support: Sequence[RoundGraph], rank: int
              ) -> Iterator[tuple[int, LensKey, list[int], list[int]]]:
    """The matching equations over a support, one row (u, J, outs, ins)
    per generator u and lens class J met by the support, generators
    first, then lens classes in sorted order.

    `outs` holds the support positions of the round-graphs containing u
    that meet the lens L = B(id, r) & B(u, r) in J, and `ins` those
    containing u^-1 whose u-translate meets L in J, each increasing.
    Row (u, J) asks that the weights of the two sides be equal; rows for
    lens classes outside the support are 0 = 0 and are not listed.
    """
    for gen in range(1, rank + 1):
        sides: dict[LensKey, tuple[list[int], list[int]]] = {}
        for j, t in enumerate(support):
            out, inc = lens_keys(t, gen)
            if out is not None:
                side = sides.get(out)
                if side is None:
                    side = sides[out] = ([], [])
                side[0].append(j)
            if inc is not None:
                side = sides.get(inc)
                if side is None:
                    side = sides[inc] = ([], [])
                side[1].append(j)
        # The last keys read may be copies of keys `sides` holds; they
        # are not kept while the caller reads the rows.
        out = inc = None
        for key in sorted(sides):
            yield (gen, key) + sides[key]


def check_matching(table: WeightTable) -> list[AdmissibilityError]:
    """Every violated row of `lens_rows` over the table's support, as an
    AdmissibilityError carrying the generator, the lens and the sums of
    the two sides; an admissible table gives []."""
    violations = []
    values = list(table.entries.values())
    for gen, key, outs, ins in lens_rows(table.support(), table.rank):
        lhs = sum(map(values.__getitem__, outs), Fraction(0))
        rhs = sum(map(values.__getitem__, ins), Fraction(0))
        if lhs != rhs:
            violations.append(AdmissibilityError(gen, key, lhs, rhs))
    return violations


def distance(t1: WeightTable, t2: WeightTable) -> Fraction:
    """Sup over round-graphs of |t1 - t2|: the cylinder pseudo-distance.

    Off the union of supports both tables vanish, so the sup is attained
    on the union.
    """
    if (t1.rank, t1.radius) != (t2.rank, t2.radius):
        raise ValueError("tables live at different rank or radius")
    best = Fraction(0)
    for t in set(t1.entries) | set(t2.entries):
        gap = abs(t1[t] - t2[t])
        if gap > best:
            best = gap
    return best


# ---------------------------------------------------------------------------
# text forms

def round_graph_to_text(t: RoundGraph) -> str:
    """Comma-separated compact words, the empty word as 'e'."""
    return ",".join(map(format_word, t.words))


def round_graph_from_text(text: str, rank: int, radius: int) -> RoundGraph:
    words = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise FileFormatError(f"empty word token in {text!r}")
        words.append(parse_word(token, rank).letters)
    return RoundGraph(rank, radius, words)


def table_to_text(table: WeightTable) -> str:
    lines = [f"rank {table.rank}", f"radius {table.radius}"]
    for t, value in table.entries.items():
        lines.append(f"{round_graph_to_text(t)} = {value}")
    return "\n".join(lines) + "\n"


def table_from_text(text: str) -> WeightTable:
    header, body = _read_file(text, ("rank", "radius"))
    rank, radius = header["rank"], header["radius"]
    try:
        _check_radius(radius)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
    entries: dict[RoundGraph, Fraction] = {}
    for line in body:
        if "=" not in line:
            raise FileFormatError(f"malformed table line {line!r}")
        graph_part, value_part = line.split("=", 1)
        try:
            value = _parse_fraction(value_part)
        except ValueError as exc:
            raise FileFormatError(str(exc)) from exc
        try:
            key = round_graph_from_text(graph_part.strip(), rank, radius)
        except ValueError as exc:
            raise FileFormatError(f"bad round-graph {graph_part!r}: {exc}") \
                from exc
        entries[key] = entries.get(key, Fraction(0)) + value
    return WeightTable(rank, radius, entries)
