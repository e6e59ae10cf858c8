import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import subsetcurrents
from subsetcurrents import (CoreGraph, ProductGraph, RationalCurrent,
                            SCGraphQuotient, Subgroup, WeightTable, Word,
                            cylinder_table, decompose, fiber_product,
                            format_word, integerize, intersection,
                            label_isomorphic, parse_word, realize)
from subsetcurrents.approx import subgroup_Hn
from subsetcurrents.errors import BasisMismatchError, LetterRangeError
from subsetcurrents.words import (_DROPPED, ALPHABET, MAX_RANK, _Frozen,
                                  free_reduce)

from helpers import (axis, cyclic_reduce, enumerate_reduced_words,
                     map_parse_word, reduce, reference_parse_word)

letters = st.lists(st.integers(-2, 2).filter(bool), max_size=8)


def words(rank=2):
    return letters.map(lambda ls: reduce(ls, rank))


def test_reduce_examples():
    assert reduce([1, -1], 2).letters == ()
    assert reduce([1, 2, -2, 1], 2).letters == (1, 1)
    assert reduce([-1, 1, 2], 2).letters == (2,)


def test_reduce_rejects_out_of_range():
    with pytest.raises(LetterRangeError):
        reduce([3], 2)
    with pytest.raises(LetterRangeError):
        reduce([0], 2)


def test_reduce_rejects_a_bad_rank():
    for rank in (0, MAX_RANK + 1):
        with pytest.raises(ValueError):
            reduce([], rank)
        with pytest.raises(ValueError):
            reduce([1, -1], rank)


def test_every_ranked_constructor_rejects_a_bad_rank():
    for rank in (-1, 0, MAX_RANK + 1, 99):
        for build in (lambda r: Word(r), lambda r: Subgroup([], r),
                      Subgroup.full, lambda r: CoreGraph(r, 1, [], None),
                      lambda r: next(enumerate_reduced_words(r, 1)),
                      lambda r: WeightTable(r, 1),
                      lambda r: RationalCurrent([], r)):
            with pytest.raises(ValueError, match="rank must be between"):
                build(rank)
    assert Word(MAX_RANK).rank == Subgroup([], MAX_RANK).rank == MAX_RANK


@given(st.integers(1, 4).flatmap(
    lambda rank: st.tuples(st.just(rank), st.lists(
        st.integers(-rank, rank).filter(bool), max_size=12))))
def test_reduce_equals_the_checked_constructor(case):
    # `reduce` builds its Word without `Word.__init__`'s checks; the
    # public constructor must accept the result and agree with it.
    rank, ls = case
    w = reduce(ls, rank)
    checked = Word(rank, free_reduce(ls))
    assert w == checked and hash(w) == hash(checked)
    assert type(w.letters) is tuple and w.rank == rank


def test_concat_examples():
    assert (reduce([1], 2) * reduce([-1], 2)).letters == ()
    assert (Word(2) * reduce([2], 2)).letters == (2,)
    assert (reduce([1, 2], 2) * reduce([-2, -1, 2], 2)).letters == (2,)


def test_concat_rejects_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        Word(2, (1,)) * Word(3, (1,))


def test_invert_examples():
    assert (~reduce([1, 2], 2)).letters == (-2, -1)
    assert (~Word(2)).letters == ()
    assert (~reduce([-1], 2)).letters == (1,)


def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce(reduce([1, 2, -1], 2))
    assert core.letters == (2,) and conj.letters == (1,)
    core, conj = cyclic_reduce(reduce([2], 2))
    assert core.letters == (2,) and conj.letters == ()
    core, conj = cyclic_reduce(Word(2))
    assert core.letters == () and conj.letters == ()


def test_word_constructor_requires_reduced():
    with pytest.raises(ValueError):
        Word(2, (1, -1))


def test_parse_and_format():
    assert parse_word("xyX", 2).letters == (1, 2, -1)
    assert parse_word("x y x^-1", 2).letters == (1, 2, -1)
    assert parse_word("y^2xy^-2", 2).letters == (2, 2, 1, -2, -2)
    assert parse_word("e", 2).letters == ()
    assert format_word(Word(2)) == "e"
    assert format_word(parse_word("xYz", 3)) == "xYz"
    with pytest.raises(LetterRangeError):
        parse_word("z", 2)


@pytest.mark.parametrize("text", ["x^\u00b2", "x^\u0662", "y^-\u00b2",
                                  "x^\uff12"])
def test_parse_word_reads_ascii_exponents_only(text):
    # str.isdigit passes each of these; int() refuses the superscript
    # two and reads the Arabic-Indic and the fullwidth two as 2.
    with pytest.raises(LetterRangeError, match="missing exponent"):
        parse_word(text, 2)


# Pieces of word texts: letters in and out of rank 1-3 (every one is in
# rank at MAX_RANK but 'e'/'E'), the Kelvin sign, which lowercases to the
# ASCII 'k' but names no letter, the identity marks, exponents, digits,
# spaces, punctuation.
PARSE_PIECES = (list("xyzabXYZABkKE\u212ae1^-0123456789 \t,.;*()")
                + ["^2", "^-1", "^-12", "^0", "x^3", "Y^-2"])


@given(st.sampled_from([1, 2, 3, MAX_RANK]),
       st.lists(st.sampled_from(PARSE_PIECES), max_size=16).map("".join))
@example(MAX_RANK, "xy\u212a z")  # no letter, though it folds to one
@example(2, "x X")  # pairs that cancel across a space, e, 1 or a tab
@example(2, "xeX")
@example(2, "x1X")
@example(2, "yxXY")
@example(2, "x e\tX")
@example(2, "xyYX y")
@example(2, "x^2X")  # pairs that cancel only after an exponent
@example(2, "x^-1x")
@example(2, "y^3 Y^2")
@example(2, "x^2 X^2y")
def test_parse_word_matches_the_reference_parser(rank, text):
    # `parse_word` checks each character once, through a per-rank table;
    # its word, or its exception type and message, must be the old
    # parser's.
    assume(not re.search(r"[0-9]{4}", text))
    assert_parses_like_the_reference(text, rank)


def assert_parses_like_the_reference(text, rank,
                                     reference=reference_parse_word):
    def outcome(parse):
        try:
            return parse(text, rank)
        except ValueError as exc:
            return type(exc), str(exc)

    assert outcome(parse_word) == outcome(reference)


# The ASCII characters `str.split()` splits on.
ASCII_SPACES = [chr(c) for c in range(128) if chr(c).isspace()]


@st.composite
def plain_texts(draw):
    """A rank of 1, 2 or 25 and a text over the letters of that rank and
    the next, the identity marks, the ASCII whitespace and four
    non-ASCII characters: an ideographic and a no-break space, 'é' and
    the Kelvin sign, which lowercases to the ASCII 'k'."""
    rank = draw(st.sampled_from([1, 2, MAX_RANK]))
    chars = ALPHABET[:rank + 1]
    pieces = (list(chars + chars.upper()) + ["e", "1"] + ASCII_SPACES
              + ["\u3000", "\xa0", "\xe9", "\u212a"])
    return rank, "".join(draw(st.lists(st.sampled_from(pieces),
                                       max_size=24)))


@given(plain_texts())
@example((2, "x\x1cy\x1fY X"))  # cancels across separators split drops
@example((2, "x\u3000y"))  # whitespace only the token scanner drops
@example((1, "xy"))  # a letter of the next rank
@example((2, "x\ud800"))  # no UTF-8 form: refused as a bad character
@example((MAX_RANK, "x\u212a"))  # the Kelvin sign names no letter
def test_parse_word_decodes_plain_text_like_the_map_decode(case):
    # One `bytes.translate` reads plain ASCII text; its word, or its
    # exception type and message, must be the per-character `map`
    # decode's.
    rank, text = case
    assert_parses_like_the_reference(text, rank, map_parse_word)


def test_plain_text_drops_ascii_whitespace_and_identity_marks():
    assert len(_DROPPED) == 12
    assert set(_DROPPED.decode()) == set(ASCII_SPACES) | {"e", "1"}


def test_the_last_letter_decodes_at_the_top_rank():
    assert MAX_RANK == 25
    assert parse_word("w", 25).letters == (25,)
    assert parse_word("W", 25).letters == (-25,)
    assert parse_word("wWw", 25).letters == (25,)


def test_only_the_ascii_alphabet_and_e_name_letters():
    # Nothing is case-folded: of every alphabetic code point, only the 50
    # ASCII letters of the alphabet and the identity mark parse, and
    # `format_word` spells each letter back as it was read.
    alphas = [c for c in map(chr, range(0x110000)) if c.isalpha()]
    parsed = {}
    for c in alphas:
        try:
            parsed[c] = parse_word(c, MAX_RANK).letters
        except LetterRangeError:
            pass
    signed = [m for i in range(1, MAX_RANK + 1) for m in (i, -i)]
    chars = [c for ch in ALPHABET for c in (ch, ch.upper())]
    assert len(set(chars)) == 50 and all(map(str.isascii, chars))
    assert parsed == {c: (m,) for c, m in zip(chars, signed)} | {"e": ()}
    assert list(map(format_word, zip(signed))) == chars


def test_the_kelvin_sign_is_no_letter():
    # U+212A lowercases to 'k', the 13th generator's letter, yet is refused
    # at every rank, as a letter past the rank is.
    for rank in (12, 13, MAX_RANK):
        with pytest.raises(LetterRangeError,
                           match=f"is not a generator at rank {rank}"):
            parse_word("\u212a", rank)
    with pytest.raises(LetterRangeError, match="is not a generator at rank 2"):
        parse_word("z", 2)
    assert parse_word("K", 13).letters == (-13,)


@pytest.mark.parametrize("letter", [0, MAX_RANK + 1, -MAX_RANK - 1])
def test_format_word_refuses_a_letter_with_no_character(letter):
    with pytest.raises(LetterRangeError, match=f"letter {letter} has no"):
        format_word((letter,))


def test_parse_word_matches_the_reference_on_the_H_n_generators():
    # Long reduced texts: every generator of H_n, up to y^96.
    for n in range(2, 97):
        for w in subgroup_Hn(n).generators:
            assert_parses_like_the_reference(format_word(w), 2)


def test_basis_helpers():
    # The free basis is spelled with Word itself: the identity, one
    # generator per index, and `Subgroup.full` for all of them.
    assert not Word(2).letters
    assert [w.letters for w in Subgroup.full(2).generators] == [(1,), (2,)]
    assert next(enumerate_reduced_words(2, 1)) == Word(2)
    assert parse_word("xy", 2) == Word(2, (1, 2))


def test_enumerate_reduced_words_count():
    ws = list(enumerate_reduced_words(2, 2))
    assert len(ws) == 1 + 4 + 12
    assert len(set(ws)) == len(ws)


@given(letters)
def test_reduce_is_idempotent(ls):
    once = free_reduce(ls)
    assert free_reduce(once) == once


@given(words(), words(), words())
def test_concat_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(words())
def test_identity_is_two_sided(w):
    e = Word(2)
    assert e * w == w == w * e


@given(words())
def test_invert_is_involution(w):
    assert ~~w == w
    assert not (w * ~w).letters


@given(words(), words())
def test_invert_is_antihomomorphism(a, b):
    assert ~(a * b) == ~b * ~a


@given(words())
def test_cyclic_reduce_roundtrip(w):
    core, conj = cyclic_reduce(w)
    assert conj * (core * ~conj) == w
    assert (not core.letters) == (not w.letters)
    if core.letters:
        assert core.letters[0] != -core.letters[-1]


def _value_instances():
    """One instance of each immutable value class of the package, then
    one value from each unchecked build: the tests below check that every
    slot of each is set, and a copy or a pickle rebuilds the value
    through its checked constructor, so each must equal its checked twin
    and, where it is hashable, hash the same."""
    sub = Subgroup(["x", "yxY"], 2)
    table = cylinder_table(RationalCurrent.eta(sub), 1)
    theta, _scale = integerize(table)
    meet = intersection(sub, Subgroup(["xx", "y"], 2))
    checked = [Word(2, (1, 2)), sub.core, sub,
               fiber_product(sub.hull, sub.hull), axis(2, 1, 1), table,
               RationalCurrent.eta(sub), theta, realize(theta)]
    stored = {"hull": sub.hull, "intersection": meet,
              "intersection-core": meet.core, "traced": next(iter(table)),
              "decompose-core": decompose(realize(theta)).terms[0][1].core,
              "parsed": parse_word("xyX", 2)}
    return ([pytest.param(v, id=type(v).__name__) for v in checked]
            + [pytest.param(v, id=f"{type(v).__name__}-{name}")
               for name, v in stored.items()])


@pytest.mark.parametrize("value", _value_instances())
def test_values_refuse_assignment_and_deletion(value):
    cls = type(value)
    assert not hasattr(value, "__dict__")
    slots = [name for c in cls.__mro__ for name in getattr(c, "__slots__", ())]
    assert slots and all(hasattr(value, name) for name in slots)
    message = f"^{cls.__name__} is immutable$"
    for name in slots + ["unknown"]:
        before = getattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
        assert getattr(value, name, None) is before


# The values that hold a list among their constructor's parameters.
UNHASHABLE = (ProductGraph, SCGraphQuotient)


@pytest.mark.parametrize("cls", _Frozen.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_a_store_takes_one_field_per_slot(cls):
    # A short or long field list fails where it is stored, naming the
    # class, not later at the read of a slot left unset.
    n = len(cls.__slots__)
    for count in (n - 1, n + 1):
        with pytest.raises(TypeError, match=f"^{cls.__name__}._stored"):
            cls._stored(*[None] * count)
        with pytest.raises(TypeError, match=f"^{cls.__name__}._set"):
            object.__new__(cls)._set(*[None] * count)


@pytest.mark.parametrize("value", _value_instances())
def test_values_survive_pickle_and_copy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        if not isinstance(value, UNHASHABLE):
            assert hash(twin) == hash(value)
        if isinstance(value, Subgroup):
            # The twin derives its core again from the generators.
            assert label_isomorphic(twin.core, value.core)
        if isinstance(value, ProductGraph):
            # The coded fields are the slots; the rebuilt product must
            # decode into the same pairs and edges, over several
            # components.
            assert len(value.component_stats()) > 1
            assert (twin.components, twin.component_edges) == \
                (value.components, value.component_edges)


def test_values_compare_by_their_constructor_arguments():
    # Equal arguments make equal values, of one class only.  A subgroup
    # compares its generator tuples, so one subgroup spelled by two bases
    # gives two values; `label_isomorphic` of their cores decides the
    # subgroup.
    sub = Subgroup(["x", "yxY"], 2)
    theta, _scale = integerize(cylinder_table(RationalCurrent.eta(sub), 1))
    assert Subgroup(["x"], 2) == Subgroup(["x"], 2)
    assert hash(Subgroup(["x"], 2)) == hash(Subgroup(["x"], 2))
    assert realize(theta) == realize(theta)
    assert fiber_product(sub.hull, sub.hull) == \
        fiber_product(sub.hull, sub.hull)
    assert RationalCurrent.eta(sub) == RationalCurrent([(1, sub)], 2)
    assert Subgroup(["x"], 2) != Subgroup(["X"], 2)
    assert label_isomorphic(Subgroup(["x"], 2).core, Subgroup(["X"], 2).core)
    assert Subgroup(["x"], 2) != Subgroup(["x"], 3)
    assert Word(2, (1,)) != (2, (1,)) and Word(2, (1,)) != Word(3, (1,))
    assert RationalCurrent.eta(sub) != RationalCurrent.eta(sub).scale(2)


@pytest.mark.parametrize("value", [
    p for p in _value_instances() if isinstance(p.values[0], UNHASHABLE)])
def test_values_holding_lists_are_unhashable(value):
    # A fiber product and a realized quotient keep lists as they are
    # built, so they hash as a list does: not at all.
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)


def test_values_unpickled_in_another_process_hash_as_built():
    # A hull's basepoint is None, whose hash differs between processes,
    # so the hash must be recomputed, never carried over.
    sub = Subgroup(["xy", "xY"], 2)
    values = [sub.hull, axis(2, 1, 2)]
    script = (
        "import pickle, sys\n"
        "from subsetcurrents import Subgroup\n"
        "from helpers import axis\n"
        "hull, ball = pickle.loads(sys.stdin.buffer.read())\n"
        "sub = Subgroup(['xy', 'xY'], 2)\n"
        "print(hull in {sub.hull}, ball in {axis(2, 1, 2)})\n")
    src = Path(subsetcurrents.__file__).parents[1]
    path = os.pathsep.join([str(src), str(Path(__file__).parent)])
    run = subprocess.run([sys.executable, "-c", script],
                         input=pickle.dumps(values), capture_output=True,
                         env={**os.environ, "PYTHONPATH": path},
                         check=True)
    assert run.stdout.decode().split() == ["True", "True"]
