"""Free-group word algebra over a ranked basis.

Letters are signed integers: +i is the i-th generator, -i its inverse,
with 1 <= i <= rank.  Words are always kept freely reduced.  The text
syntax maps letters to the alphabet x, y, z, a, b, c, d, f, ... (lowercase
for a generator, uppercase for its inverse); the letter 'e' is reserved
for the identity.  The alphabet is written once, in `_SIGNED`, `_CHAR`
and `_LETTER`, and every reader of letters or their order reads those.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import BasisMismatchError, LetterRangeError

# 'e' is excluded so that it can denote the empty word unambiguously.
ALPHABET = "xyzabcdfghijklmnopqrstuvw"

MAX_RANK = len(ALPHABET)

# The signed letters in scan order, x, X, y, Y, ...: a rank's letters are
# the first 2.rank.
_SIGNED = tuple(m for i in range(1, MAX_RANK + 1) for m in (i, -i))
# Each signed letter's character, lowercase for a generator and uppercase
# for its inverse: the only case mapping in the package, on ASCII alone.
_CHAR = dict(zip(_SIGNED, (c for ch in ALPHABET
                           for c in (ch, ch.upper()))))
# Each character that names a letter, and the identity marks 'e' and '1'
# as 0; no other character names one, whatever its case folds to.
_LETTER = {ch: m for m, ch in _CHAR.items()} | {"e": 0, "1": 0}


def _check_rank(rank: int) -> None:
    if type(rank) is not int or not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {rank}")


def _check_radius(radius: int) -> None:
    if type(radius) is not int or radius < 0:
        raise ValueError("radius must be >= 0")


def _check_letters(letters: Iterable[int], rank: int) -> tuple[int, ...]:
    _check_rank(rank)
    out = tuple(letters)
    for m in out:
        if type(m) is not int or m == 0 or abs(m) > rank:
            raise LetterRangeError(f"letter {m} out of range for rank {rank}")
    return out


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for m in letters:
        if stack and stack[-1] == -m:
            stack.pop()
        else:
            stack.append(m)
    return tuple(stack)


class _Frozen:
    """Base of the package's immutable values, and the one code that
    stores one and decides what it is.  A value class lists its
    constructor's parameters as its first slots, in order, then its
    derived fields.  Each class gets its own `_set(self, *slots)`, which
    fills every slot once, in that order, and `_stored(*slots)`, which
    allocates a value from fields its builder proved, with no check;
    each takes exactly one argument per slot, or raises `TypeError`.
    Afterwards nothing deletes a slot, and only `Subgroup.core` and
    `.hull` assign one: each fills its lazy cache on first read.  A
    constructor checks its input, then calls `_set`.  Two values are
    equal when they have one type and equal parameters, which also give
    the hash, and pickle and copy rebuild a value from them."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # `_set` and `_stored` are written once per class as straight-line
        # code, one call per slot to its descriptor's setter (which passes
        # by the refusing `__setattr__`), the way dataclasses writes
        # `__init__`: a loop over the slots costs three times as much.
        slots = cls.__slots__
        fields = ", ".join(slots)
        stores = "".join(f"\n    _s{i}(self, {name})"
                         for i, name in enumerate(slots))
        scope = {f"_s{i}": cls.__dict__[name].__set__
                 for i, name in enumerate(slots)}
        scope.update(_new=object.__new__, _cls=cls)
        exec(f"def _set(self, {fields}):{stores}\n"
             f"def _stored({fields}):\n    self = _new(_cls){stores}\n"
             f"    return self\n", scope)
        for name in ("_set", "_stored"):
            # A wrong field count's TypeError then names the class.
            scope[name].__qualname__ = f"{cls.__name__}.{name}"
        cls._set = scope["_set"]
        cls._stored = staticmethod(scope["_stored"])
        # `_params()`, a value's first slots: its constructor's parameters,
        # named once per class.  attrgetter gives a tuple only for two
        # names or more, so a one-parameter class wraps its one value.
        code = cls.__init__.__code__
        get = attrgetter(*slots[:code.co_argcount - 1])
        if code.co_argcount == 2:
            cls._params = lambda self: (get(self),)
        else:
            cls._params = lambda self: get(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and \
            self._params() == other._params()

    def __hash__(self) -> int:
        # A value holding a list is unhashable, as the list is.
        return hash(self._params())

    def __reduce__(self):
        # The constructor derives the other slots again.
        return type(self), self._params()


class Word(_Frozen):
    """A freely reduced word over a basis of the given rank.

    Instances are immutable and hashable; `*` concatenates (with free
    reduction) and `~` inverts.
    """

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: Iterable[int] = ()):
        letters = _check_letters(letters, rank)
        if free_reduce(letters) != letters:
            raise ValueError(f"letters {letters} are not freely reduced")
        self._set(rank, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        """Freely reduced product; the bases must agree."""
        if self.rank != other.rank:
            raise BasisMismatchError(f"rank {self.rank} vs rank {other.rank}")
        # Only the junction can cancel: peel matching inverse pairs.
        a, b = list(self.letters), list(other.letters)
        i = 0
        while a and i < len(b) and a[-1] == -b[i]:
            a.pop()
            i += 1
        return Word(self.rank, tuple(a) + tuple(b[i:]))

    def __invert__(self) -> "Word":
        """Reversed sequence with negated signs."""
        return Word(self.rank, tuple(-m for m in reversed(self.letters)))

    def __repr__(self) -> str:
        return f"Word({self.rank}, {format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)


def format_word(w: Iterable[int]) -> str:
    """Compact letter form of a Word or a letter tuple, each letter spelt
    by `_CHAR`; the empty word prints as 'e'.  A letter outside
    +-1..MAX_RANK raises LetterRangeError."""
    try:
        return "".join(map(_CHAR.__getitem__, w)) or "e"
    except KeyError as exc:
        raise LetterRangeError(
            f"letter {exc.args[0]!r} has no character") from None


# The ASCII characters that `str.split()` splits on, and the identity
# marks: plain text drops them all before its letters are read.
_DROPPED = b" \t\n\v\f\r\x1c\x1d\x1e\x1fe1"


@lru_cache(maxsize=None)
def _letter_bytes(rank: int) -> tuple[bytes, tuple[bytes, ...]]:
    """The byte table of plain text at this rank, read off `_CHAR`: each
    character of the rank's letters to its signed letter as a byte, and
    every other byte to 0x80 (no letter); and the two-byte codes of a
    letter beside its inverse, in `_SIGNED` order."""
    table = bytearray(b"\x80" * 256)
    pairs = []
    for m in _SIGNED[:2 * rank]:
        table[ord(_CHAR[m])] = m & 0xFF
        pairs.append(bytes((m & 0xFF, -m & 0xFF)))
    return bytes(table), tuple(pairs)


def parse_word(text: str, rank: int) -> Word:
    """Parse either compact ("xyX") or spaced ("x y x^-1") word syntax.

    Exponents apply to the single preceding letter; "e" alone is the
    identity.  The result is freely reduced.  A letter is exactly one of
    the characters `_CHAR` spells, up to the rank; nothing is case-folded,
    so no other character names one.  ASCII text is first read whole by
    one `bytes.translate`, which drops whitespace and identity marks and
    turns each letter into its signed byte; if every byte left is a
    letter, the word is those bytes, reduced only when they hold a letter
    beside its inverse.  Any other text (an exponent, a character that
    names no letter at this rank, or non-ASCII) goes through the token
    scanner, which reads each character in `_LETTER`, alone reads
    exponents and names a bad character.
    """
    _check_rank(rank)
    if text.isascii():
        table, pairs = _letter_bytes(rank)
        codes = text.encode().translate(table, _DROPPED)
        if b"\x80" not in codes:
            decoded = tuple(array("b", codes))
            if any(map(codes.__contains__, pairs)):
                decoded = free_reduce(decoded)
            return Word._stored(rank, decoded)
    letters: list[int] = []
    for token in text.split():
        i = 0
        while i < len(token):
            ch = token[i]
            i += 1
            m = _LETTER.get(ch)
            if m is None or abs(m) > rank:
                if m is None and not ch.isalpha():
                    raise LetterRangeError(
                        f"unexpected character {ch!r} in {text!r}")
                raise LetterRangeError(
                    f"letter {ch!r} is not a generator at rank {rank}")
            if not m:
                continue
            power = 1
            if i < len(token) and token[i] == "^":
                i += 1
                sign = 1
                if i < len(token) and token[i] == "-":
                    sign = -1
                    i += 1
                start = i
                while i < len(token) and "0" <= token[i] <= "9":
                    i += 1
                if start == i:
                    raise LetterRangeError(f"missing exponent in {text!r}")
                power = sign * int(token[start:i])
            if power < 0:
                m, power = -m, -power
            letters.extend([m] * power)
    return Word._stored(rank, free_reduce(letters))
