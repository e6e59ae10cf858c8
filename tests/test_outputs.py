"""Outputs pinned by digest.

One SHA-256 over what the pipeline gives on a fixed draw of currents:
cylinder tables, their realizations and decompositions, kernel repairs of
noised tables and intersections of subgroup pairs.  A change meant to keep
every output bit-equal (a refactor, a speed-up) must leave the digest as
it is.  A change that alters outputs on purpose updates `DIGEST` and says
in CHANGES.md which outputs changed and why.
"""

import hashlib
import random
from fractions import Fraction

from subsetcurrents import (WeightTable, approximate_table, check_matching,
                            cylinder_table, decompose, format_word,
                            integerize, intersection, realize,
                            table_to_text, verify_realization)

from helpers import noised_floats, random_current, random_subgroup

DIGEST = "b3640209e6cb62e5a65de0f530bf829377e4c140602e9f91ddc34fb88ce4c259"


def test_pipeline_outputs_match_the_pinned_digest():
    rng = random.Random(7)
    digest = hashlib.sha256()
    for _ in range(64):
        radius = rng.choice((1, 2))
        table = cylinder_table(random_current(rng, max_len=6), radius)
        assert check_matching(table) == []
        theta, scale = integerize(table)
        quotient = realize(theta)
        terms = decompose(quotient)
        assert verify_realization(theta, terms)
        noisy = WeightTable(2, radius, noised_floats(table, rng))
        repaired, repair_scale, exact = approximate_table(noisy,
                                                          Fraction(1, 100))
        meet = intersection(random_subgroup(rng), random_subgroup(rng))
        basis = " ".join(map(format_word, meet.generators))
        for part in (table_to_text(table), scale, repr(terms.terms),
                     quotient.starts, quotient.lengths,
                     quotient.atom_components, quotient.atom_edges,
                     table_to_text(exact), table_to_text(repaired.table),
                     repair_scale, basis):
            digest.update(f"{part}\n".encode())
    assert digest.hexdigest() == DIGEST
