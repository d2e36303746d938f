"""Cantor normal form ordinals below omega^omega.

A value is a finite sum ``w^e1.c1 + ... + w^ek.ck`` with strictly
decreasing natural exponents and positive integer coefficients.  This
range covers everything annotation bookkeeping needs: naturals, ``w.k``
offsets and ``w^2``-sized headroom.  Multiplication is deliberately
absent; only comparison, (non-commutative) addition, predecessor-part
extraction and limit/successor classification are meaningful here.

An ``Ordinal`` is the tuple of its (exponent, coefficient) terms, so
equality, hashing and order are the tuple's; it never equals an int.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Tuple

__all__ = [
    "Ordinal",
    "OrdinalKind",
    "NoPredecessor",
    "OrdinalParseError",
    "ZERO",
    "ONE",
    "OMEGA",
]


class NoPredecessor(ValueError):
    """pred() was applied to zero, which has no predecessor part."""


class OrdinalParseError(ValueError):
    """The text is not a canonical ordinal literal."""


class OrdinalKind(enum.Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


class Ordinal(tuple):
    """An ordinal below omega^omega in Cantor normal form.

    The value is the tuple of its (exponent, coefficient) terms,
    exponents strictly decreasing, coefficients >= 1; the empty tuple is
    zero.  Equality, hashing, truth and order are the tuple's own: tuple
    comparison of the terms coincides with ordinal order, since the
    first differing term decides by exponent then coefficient, and a
    proper prefix is the smaller ordinal.  An ordinal is not an int:
    ``Ordinal.natural(3) == 3`` is False, and ``<`` against an int
    raises TypeError.  Addition accepts ints (``OMEGA + 1``, ``1 + OMEGA``).
    """

    __slots__ = ()

    def __new__(cls, terms: Iterable[Tuple[int, int]] = ()) -> "Ordinal":
        terms = tuple((int(e), int(c)) for e, c in terms)
        last_exp = None
        for e, c in terms:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if c < 1:
                raise ValueError(f"coefficient {c} must be positive")
            if last_exp is not None and e >= last_exp:
                raise ValueError("exponents must strictly decrease")
            last_exp = e
        return super().__new__(cls, terms)

    @property
    def terms(self) -> Tuple[Tuple[int, int], ...]:
        """The (exponent, coefficient) terms as a plain tuple."""
        return tuple(self)

    def __mul__(self, other):
        """Multiplication is absent, not the tuple's repetition."""
        return NotImplemented

    __rmul__ = __mul__

    # -- constructors ------------------------------------------------

    @classmethod
    def natural(cls, n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("naturals only")
        return cls(((0, n),)) if n else cls()

    @classmethod
    def single(cls, exponent: int, coefficient: int = 1) -> "Ordinal":
        """The ordinal w^exponent . coefficient."""
        return cls(((exponent, coefficient),))

    @classmethod
    def omega_times(cls, k: int) -> "Ordinal":
        """w.k, the k-th limit ordinal below w^2 (zero for k = 0)."""
        if k < 0:
            raise ValueError("coefficient must be non-negative")
        return cls(((1, k),)) if k else cls()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Ordinal":
        """Ordinal addition (left argument absorbed below the right head)."""
        if isinstance(other, int):
            other = Ordinal.natural(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        if not other:
            return self
        head_exp, head_coeff = other[0]
        kept = tuple(t for t in self if t[0] > head_exp)
        if len(kept) < len(self) and self[len(kept)][0] == head_exp:
            merged = (head_exp, self[len(kept)][1] + head_coeff)
            return Ordinal(kept + (merged,) + other[1:])
        return Ordinal(kept + other.terms)

    def __radd__(self, other) -> "Ordinal":
        if isinstance(other, int):
            return Ordinal.natural(other) + self
        return NotImplemented

    def pred(self) -> "Ordinal":
        """Drop one unit summand: the least b with self = b + w^eta.

        In expanded form (coefficients written as repeated summands)
        this deletes the last summand: the last coefficient decrements,
        and the term disappears at zero.
        """
        if not self:
            raise NoPredecessor("zero has no predecessor part")
        head = self[:-1]
        e, c = self[-1]
        if c > 1:
            return Ordinal(head + ((e, c - 1),))
        return Ordinal(head)

    @property
    def last_exponent(self) -> int:
        """The eta with self = pred(self) + w^eta."""
        if not self:
            raise NoPredecessor("zero has no last term")
        return self[-1][0]

    # -- classification -----------------------------------------------

    def kind(self) -> OrdinalKind:
        if not self:
            return OrdinalKind.ZERO
        if self[-1][0] == 0:
            return OrdinalKind.SUCCESSOR
        return OrdinalKind.LIMIT

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def is_successor(self) -> bool:
        return self.kind() is OrdinalKind.SUCCESSOR

    @property
    def is_limit(self) -> bool:
        return self.kind() is OrdinalKind.LIMIT

    @property
    def is_finite(self) -> bool:
        return not self or (len(self) == 1 and self[0][0] == 0)

    def to_int(self) -> int:
        """The value as a Python int; only finite ordinals qualify."""
        if not self:
            return 0
        if not self.is_finite:
            raise ValueError(f"{self} is infinite")
        return self[0][1]

    # -- text ----------------------------------------------------------

    def __str__(self) -> str:
        if not self:
            return "0"
        return "+".join(_term_text(e, c) for e, c in self)

    def __repr__(self) -> str:
        return f"Ordinal({self})"

    @classmethod
    def parse(cls, text: str) -> "Ordinal":
        """Parse a canonical literal: terms ``w^E.C``/``w.C``/``w``/naturals
        joined by ``+`` with strictly decreasing exponents; ``0`` alone.
        Raises OrdinalParseError on any other text, including a term that
        does not print back as written (``007``, ``w^1``, ``w^0.3``)."""
        s = text.strip()
        if not s:
            raise OrdinalParseError("empty ordinal literal")
        if s == "0":
            return cls()
        terms = []
        for part in s.split("+"):
            part = part.strip()
            if not part:
                raise OrdinalParseError(f"empty term in {text!r}")
            term = _parse_term(part, text)
            if _term_text(*term) != part:
                raise OrdinalParseError(f"non-canonical term {part!r} in {text!r}")
            terms.append(term)
        try:
            return cls(terms)
        except ValueError as exc:
            raise OrdinalParseError(f"{text!r}: {exc}") from None


def _natural(text: str, whole: str) -> Optional[int]:
    """The value of a run of ASCII digits, or None for other text."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # longer than the interpreter converts
        raise OrdinalParseError(f"number too long in {whole!r}") from None


def _term_text(e: int, c: int) -> str:
    if e == 0:
        return str(c)
    head = "w" if e == 1 else f"w^{e}"
    return head if c == 1 else f"{head}.{c}"


def _parse_term(part: str, whole: str) -> Tuple[int, int]:
    n = _natural(part, whole)
    if n is not None:
        if n == 0:
            raise OrdinalParseError(f"zero term inside sum in {whole!r}")
        return (0, n)
    if not part.startswith("w"):
        raise OrdinalParseError(f"bad term {part!r} in {whole!r}")
    rest = part[1:]
    exponent = 1
    if rest.startswith("^"):
        rest = rest[1:]
        dot = rest.find(".")
        exponent = _natural(rest if dot < 0 else rest[:dot], whole)
        if exponent is None:
            raise OrdinalParseError(f"bad exponent in term {part!r} of {whole!r}")
        rest = "" if dot < 0 else rest[dot:]
    if not rest:
        return (exponent, 1)
    coeff = _natural(rest[1:], whole) if rest.startswith(".") else None
    if coeff is not None:
        if coeff == 0:
            raise OrdinalParseError(f"zero coefficient in term {part!r} of {whole!r}")
        return (exponent, coeff)
    raise OrdinalParseError(f"bad term {part!r} in {whole!r}")


ZERO = Ordinal()
ONE = Ordinal.natural(1)
OMEGA = Ordinal.single(1)
