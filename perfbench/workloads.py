"""The four benchmark workloads: input generation, timed item, output oracle.

Every workload is a pool of items made from the seed, in PARTS parts of
PART_SIZE items that are generated (and timed) one by one.  The items of
a part are spread over the size that drives their cost (a stratified
sample), so that two seeds give pools of the same cost profile while
every item is still random.  Each part is then ordered, and the parts
interleaved, so that any prefix of the pool covers the sizes evenly,
because a timed run may stop part way through a pass.

An item runs through `call(name, fn, *args)`, which the runner either
passes straight to `fn` or records as a span.  A span is named after the
package module that defines the function the harness calls, then the
operation: `stallings.core` is `Subgroup.core`, `realize.decompose` is
`decompose`, and so on.  Checks run after the item, outside its timing.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator

from subsetcurrents import (RationalCurrent, Subgroup, WeightTable, Word,
                            approximate_table, check_matching,
                            component_census, cylinder_table, decompose,
                            distance, fiber_product, format_word, integerize,
                            intersection, parse_word, realize, subgroup_Hn,
                            verify_realization)

RANK = 2
PARTS = 4                         # pool parts, each generated and timed alone
PART_SIZE = 64                    # a power of two, see spread_order
STRATA = 16
LETTERS = (1, -1, 2, -2)


@dataclass
class Item:
    key: tuple                    # plain data only: hashed into the digest
    size: float                   # the stratification size
    data: object = None           # prebuilt inputs derived from the key


@dataclass
class Workload:
    """`check(item, output)` returns (output is correct, per-layer counts,
    per-layer item sizes for the slope fits)."""
    name: str
    make_pool: Callable[[random.Random], list[Item]]
    run: Callable[[Item, Callable], object]
    check: Callable[[Item, object], tuple[bool, dict, dict]]


# ---------------------------------------------------------------------------
# shared generation helpers

def random_word(rng: random.Random, max_len: int) -> Word:
    """A freely reduced word of uniform length 1..max_len."""
    letters = [rng.choice(LETTERS)]
    for _ in range(rng.randint(1, max_len) - 1):
        letters.append(rng.choice([m for m in LETTERS if m != -letters[-1]]))
    return Word(RANK, letters)


def random_subgroup(rng: random.Random, max_gens: int, max_len: int
                    ) -> Subgroup:
    """Up to max_gens random generators, redrawn until the reduced rank
    (free rank minus one) is at least 1."""
    while True:
        gens = [random_word(rng, max_len)
                for _ in range(rng.randint(2, max_gens))]
        sub = Subgroup(gens, RANK)
        if sub.reduced_rank() >= 1:
            return sub


def gen_text(sub: Subgroup) -> tuple[str, ...]:
    return tuple(format_word(w) for w in sub.generators)


def spread_order(items: list[Item]) -> list[Item]:
    """Sort by size, then interleave by bit reversal of the rank: every
    prefix of the result samples the whole size range."""
    ranked = sorted(items, key=lambda it: (it.size, it.key))
    bits = len(items).bit_length() - 1
    rev = [int(format(p, f"0{bits}b")[::-1], 2) for p in range(len(items))]
    return [ranked[j] for j in rev]


def stratified(rng: random.Random, lo: float, hi: float,
               draw: Callable[[random.Random],
                              Iterable[tuple[float, int, Callable[[], Item]]]],
               draws: int, classes: int = 1, count: int = PART_SIZE
               ) -> list[Item]:
    """`count` items, an equal quota in each of STRATA log-spaced size
    bands over [lo, hi) for each of `classes` classes (the radius, where
    the workload draws one), chosen from exactly `draws` calls of `draw`,
    so that set-up does the same work on every seed.  `draw` yields
    (size, class, make) candidates.  Per call, the first candidate that
    lands in a band with room is made; when no band had room, the first
    in-range candidate is kept as a spare.  A band left short at the end
    takes spares from the nearest band of its class."""
    edges = [lo * (hi / lo) ** (i / STRATA) for i in range(STRATA + 1)]
    quota = count // (STRATA * classes)
    bands: dict[tuple[int, int], list[Item]] = {}
    spares: dict[tuple[int, int], list[Callable[[], Item]]] = {}
    for _ in range(draws):
        spare = None
        for size, cls, make in draw(rng):
            if not lo <= size < hi:
                continue
            band = (cls, bisect.bisect_right(edges, size) - 1)
            got = bands.setdefault(band, [])
            if len(got) < quota:
                got.append(make())
                break
            spare = spare or (band, make)
        else:
            if spare:
                spares.setdefault(spare[0], []).append(spare[1])
    kinds = sorted({cls for cls, _ in bands})
    if len(kinds) != classes:
        raise RuntimeError(f"{len(kinds)} of {classes} classes drawn")
    for cls in kinds:
        for b in range(STRATA):
            got = bands.setdefault((cls, b), [])
            for near in sorted(range(STRATA), key=lambda n: abs(n - b)):
                pile = spares.get((cls, near), [])
                while len(got) < quota and pile:
                    got.append(pile.pop()())
            if len(got) < quota:
                raise RuntimeError(f"{quota - len(got)} pool slots unfilled "
                                   f"after {draws} draws")
    return spread_order([it for b in bands.values() for it in b])


def parse_subgroups(texts: Iterable[tuple[str, ...]]) -> list[Subgroup]:
    return [Subgroup([parse_word(g, RANK) for g in gens], RANK)
            for gens in texts]


def fold_cores(subs: list[Subgroup]) -> None:
    for sub in subs:
        sub.core


def prune_hulls(subs: list[Subgroup]) -> None:
    for sub in subs:
        sub.hull


def letters_of(subs: list[Subgroup]) -> int:
    return sum(len(w) for sub in subs for w in sub.generators)


def hull_vertices(subs: list[Subgroup]) -> int:
    return sum(sub.hull.num_vertices for sub in subs)


# ---------------------------------------------------------------------------
# converge: (1/n) eta_{H_n} against eta_F

CONVERGE_N = (16, 96)


def converge_pool(rng: random.Random) -> list[Item]:
    """n on a log-spaced grid shifted by one random offset (a systematic
    sample); within each pair of neighbouring n, one item gets radius 2
    and the other radius 3."""
    lo, hi = CONVERGE_N
    refs = {r: cylinder_table(RationalCurrent.full(RANK), r) for r in (2, 3)}
    offset = rng.random()
    items = []
    for k in range(PART_SIZE):
        if k % 2 == 0:
            radii = rng.sample((2, 3), 2)
        n = round(lo * (hi / lo) ** ((k + offset) / PART_SIZE))
        radius = radii[k % 2]
        gens = gen_text(subgroup_Hn(n))
        items.append(Item(("converge", n, radius, gens), n, refs[radius]))
    return spread_order(items)


def converge_run(item: Item, call) -> tuple:
    _, n, radius, gens = item.key
    (sub,) = call("words.parse", parse_subgroups, [gens])
    call("stallings.core", fold_cores, [sub])
    call("stallings.hull", prune_hulls, [sub])
    table = call("cylinders.table", cylinder_table,
                 RationalCurrent([(Fraction(1, n), sub)], RANK), radius)
    dist = call("cylinders.distance", distance, table, item.data)
    return sub, table, dist


def converge_check(item: Item, out) -> tuple[bool, dict, dict]:
    _, n, radius, _ = item.key
    sub, table, dist = out
    ok = dist == Fraction(2 * radius - 1, n)
    letters = letters_of([sub])
    counts = {"stallings.core.letters": letters,
              "stallings.hull.vertices": hull_vertices([sub]),
              "cylinders.table.balls": hull_vertices([sub]),
              "cylinders.table.support": len(table)}
    return ok, counts, {"stallings.core": letters}


# ---------------------------------------------------------------------------
# roundtrip: table -> integerize -> realize -> decompose -> verify

ROUNDTRIP_VERTICES = (100, 1000)
ROUNDTRIP_DRAWS = 160
SCALES = (5, 10, 20, 40)


def roundtrip_draw(rng: random.Random
                   ) -> Iterator[tuple[float, int, Callable]]:
    radius = rng.choice((1, 2))
    subs = [random_subgroup(rng, 3, 5) for _ in range(rng.randint(1, 3))]
    ratios = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in subs]
    base = cylinder_table(RationalCurrent(list(zip(ratios, subs)), RANK),
                          radius)
    for s in rng.sample(SCALES, len(SCALES)):
        scaled = base.scale(s)
        scale = lcm(*(v.denominator for v in scaled.entries.values()))
        vertices = int(scaled.total() * scale)
        key = ("roundtrip", radius,
               tuple(gen_text(sub) for sub in subs),
               tuple(str(c * s) for c in ratios))
        yield vertices, radius, (lambda key=key, v=vertices: Item(key, v))


def roundtrip_pool(rng: random.Random) -> list[Item]:
    lo, hi = ROUNDTRIP_VERTICES
    return stratified(rng, lo, hi, roundtrip_draw, ROUNDTRIP_DRAWS,
                      classes=2)


def roundtrip_run(item: Item, call) -> tuple:
    _, radius, texts, coeffs = item.key
    subs = call("words.parse", parse_subgroups, texts)
    call("stallings.core", fold_cores, subs)
    call("stallings.hull", prune_hulls, subs)
    current = RationalCurrent(list(zip(map(Fraction, coeffs), subs)), RANK)
    table = call("cylinders.table", cylinder_table, current, radius)
    violations = call("cylinders.matching", check_matching, table)
    theta, scale = call("approx.integerize", integerize, table)
    quotient = call("realize.realize", realize, theta)
    terms = call("realize.decompose", decompose, quotient)
    ok = call("realize.verify", verify_realization, theta, terms)
    return subs, table, violations, quotient, terms, ok


def roundtrip_check(item: Item, out) -> tuple[bool, dict, dict]:
    subs, table, violations, quotient, terms, ok = out
    ok = ok is True and violations == [] \
        and len(quotient.vertices) == item.size
    components = len(quotient.components)
    counts = {"stallings.core.letters": letters_of(subs),
              "stallings.hull.vertices": hull_vertices(subs),
              "cylinders.table.balls": hull_vertices(subs),
              "cylinders.table.support": len(table),
              "realize.quotient.vertices": len(quotient.vertices),
              "realize.components": components,
              "realize.shapes": len({sub.generators
                                     for _c, sub in terms.terms})}
    return ok, counts, {"stallings.core": letters_of(subs),
                        "realize.decompose": components}


# ---------------------------------------------------------------------------
# intersect: fiber product of two covers of one base subgroup

INTERSECT_WORK = (1000, 40000)
INTERSECT_DRAWS = 200


def intersect_draw(rng: random.Random
                   ) -> Iterator[tuple[float, int, Callable]]:
    base = random_subgroup(rng, 3, 5)
    if base.reduced_rank() + 1 != len(base.generators):
        return                    # not a free basis: the index would drop
    degree = rng.randint(5, 25)
    # A cover's hull covers the base hull, so the fiber product visits at
    # most `pairs` vertex pairs; `intersection` works on the product of
    # the two covers' cores, about degree(degree+1) copies of the base
    # core.  In the first benchmarked version of the package a core pair
    # costs about as much as five product pairs.
    side = base.hull.num_vertices
    pairs = degree * (degree + 1) * side * side
    work = pairs + 5 * degree * (degree + 1) * base.core.num_vertices
    seeds = (rng.getrandbits(32), rng.getrandbits(32))

    def make() -> Item:
        gens = tuple(w.letters for w in base.generators)
        texts = tuple(schreier_basis(gens, d, random.Random(s))
                      for d, s in zip((degree, degree + 1), seeds))
        return Item(("intersect", gen_text(base), degree, seeds, texts),
                    work)

    yield work, 0, make


def schreier_basis(gens: tuple[tuple[int, ...], ...], degree: int,
                   rng: random.Random) -> tuple[str, ...]:
    """A free basis, as generator text, of the stabiliser of point 0 under
    a random transitive action of <gens> on `degree` points: a subgroup of
    index `degree` in <gens> when `gens` is a free basis of it.  Built here
    from a breadth-first Schreier transversal rather than from the
    package's graphs, so that the items depend on the seed alone and not on
    how the package numbers vertices or orders edges."""
    while True:
        perms = [rng.sample(range(degree), degree) for _ in gens]
        inverses = [[0] * degree for _ in gens]
        for perm, inv in zip(perms, inverses):
            for p, q in enumerate(perm):
                inv[q] = p
        path: dict[int, tuple[int, ...]] = {0: ()}
        order, tree = [0], set()
        for p in order:
            for j in range(len(gens)):
                for sign, q in ((1, perms[j][p]), (-1, inverses[j][p])):
                    if q not in path:
                        path[q] = path[p] + (sign * (j + 1),)
                        order.append(q)
                        tree.add((p, j) if sign > 0 else (q, j))
        if len(path) == degree:
            break
    texts = []
    for p in range(degree):
        for j in range(len(gens)):
            if (p, j) not in tree:
                q = perms[j][p]
                steps = (path[p] + (j + 1,)
                         + tuple(-s for s in reversed(path[q])))
                letters: list[int] = []
                for s in steps:
                    g = gens[abs(s) - 1]
                    for m in (g if s > 0 else [-m for m in reversed(g)]):
                        if letters and letters[-1] == -m:
                            letters.pop()
                        else:
                            letters.append(m)
                texts.append(format_word(Word(RANK, letters)))
    return tuple(texts)


def intersect_pool(rng: random.Random) -> list[Item]:
    lo, hi = INTERSECT_WORK
    return stratified(rng, lo, hi, intersect_draw, INTERSECT_DRAWS)


def census_of(product) -> tuple[int, tuple[int, int, int]]:
    n = sum(max(e - v, 0) for (v, e) in product.component_stats())
    return n, component_census(product)


def intersect_run(item: Item, call) -> tuple:
    texts = item.key[-1]
    h, k = call("words.parse", parse_subgroups, texts)
    call("stallings.core", fold_cores, [h, k])
    call("stallings.hull", prune_hulls, [h, k])
    product = call("fiber.product", fiber_product, h.hull, k.hull)
    n, census = call("fiber.census", census_of, product)
    bound = call("stallings.rank",
                 lambda: h.reduced_rank() * k.reduced_rank())
    meet = call("fiber.intersection", intersection, h, k)
    return h, k, product, n, census, bound, meet


def intersect_check(item: Item, out) -> tuple[bool, dict, dict]:
    h, k, product, n, census, bound, meet = out
    total, trees, positive = census
    ok = (n <= bound and total == len(product.components)
          and trees + positive <= total
          and all(h.contains(w) and k.contains(w) for w in meet.generators))
    pairs = len(product.vertices)
    counts = {"stallings.core.letters": letters_of([h, k]),
              "stallings.hull.vertices": hull_vertices([h, k]),
              "fiber.product.pairs": pairs,
              "fiber.product.components": len(product.components)}
    return ok, counts, {"stallings.core": letters_of([h, k]),
                        "fiber.product": pairs}


# ---------------------------------------------------------------------------
# repair: float-noised exact table -> rational kernel point -> integers

REPAIR_COLUMNS = (16, 64)
REPAIR_DRAWS = 80
REPAIR_EPSILON = Fraction(1, 100)
REPAIR_NOISE = 1e-6


def repair_draw(rng: random.Random) -> Iterator[tuple[float, int, Callable]]:
    """Eight random subgroups; the candidates are their first k for each k
    in 3..8, at both radii, so that a draw nearly always offers one for a
    band with room."""
    subs = [random_subgroup(rng, 4, 9) for _ in range(8)]
    counts = list(range(3, 9))
    for radius in rng.sample((2, 3), 2):
        exact = WeightTable(RANK, radius)
        prefixes = []
        for sub in subs:
            exact = exact + cylinder_table(RationalCurrent.eta(sub), radius)
            prefixes.append(exact)
        rng.shuffle(counts)
        for k in counts:
            yield (len(prefixes[k - 1]), radius,
                   lambda k=k, radius=radius, exact=prefixes[k - 1]:
                   repair_item(rng, subs[:k], radius, exact))


def repair_item(rng: random.Random, subs: list[Subgroup], radius: int,
                exact: WeightTable) -> Item:
    # entries in an order of the harness's own, so that the noise each
    # round-graph gets does not depend on how the package orders a table
    order = sorted(exact.entries, key=lambda t: sorted(t.words))
    noisy = {t: float(exact[t]) * (1 + rng.uniform(-REPAIR_NOISE,
                                                    REPAIR_NOISE))
             for t in order}
    key = ("repair", radius, tuple(gen_text(s) for s in subs),
           tuple(map(repr, noisy.values())))
    return Item(key, len(exact), WeightTable(RANK, radius, noisy))


def repair_pool(rng: random.Random) -> list[Item]:
    lo, hi = REPAIR_COLUMNS
    return stratified(rng, lo, hi, repair_draw, REPAIR_DRAWS, classes=2)


def repair_run(item: Item, call) -> tuple:
    return call("approx.repair", approximate_table, item.data,
                REPAIR_EPSILON)


def repair_check(item: Item, out) -> tuple[bool, dict, dict]:
    theta, scale, exact = out
    noisy = item.data
    keys = set(noisy.entries) | set(exact.entries)
    gap = max(abs(noisy[t] - exact[t]) for t in keys)
    ok = (check_matching(exact) == [] and gap < REPAIR_EPSILON
          and theta.table == exact.scale(scale))
    columns = len(noisy)
    counts = {"approx.repair.columns": columns,
              "approx.repair.m_digits": len(str(scale))}
    return ok, counts, {"approx.repair": columns}


WORKLOADS = {w.name: w for w in (
    Workload("converge", converge_pool, converge_run, converge_check),
    Workload("roundtrip", roundtrip_pool, roundtrip_run, roundtrip_check),
    Workload("intersect", intersect_pool, intersect_run, intersect_check),
    Workload("repair", repair_pool, repair_run, repair_check),
)}


def digest(items: list[Item]) -> str:
    """SHA-256 over the items' plain-data keys, in pool order."""
    h = hashlib.sha256()
    for it in items:
        h.update(repr(it.key).encode())
        h.update(b"\n")
    return h.hexdigest()


def build_part(workload: Workload, seed: int, part: int) -> list[Item]:
    """Part `part` of the workload's item pool for this seed: PART_SIZE
    items.  The same seed and part give the same items."""
    return workload.make_pool(
        random.Random(f"{workload.name}:{seed}:{part}"))


def interleave(parts: list[list[Item]]) -> list[Item]:
    """The pool: the parts' items taken in turn, so that every prefix of it
    samples every part's size range."""
    return [it for group in zip(*parts) for it in group]
