"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element is stored as its unique coefficient vector over the power basis
``1, zeta_N, ..., zeta_N^(phi(N)-1)``, reduced modulo the N-th cyclotomic
polynomial. Because that representation is canonical for a fixed conductor,
zero-testing is plain coefficient comparison and every identity in this
package can be checked with zero numerical tolerance.

Each operation has one exact code path: it embeds the operands at the least
common conductor, combines them there and reduces once modulo Phi_N
(``_reduce``); an inverse is a cofactor over an integer norm, formed on packed
rows within a work bound (dense.inverse_work). Results keep their conductor, except
that values which turn out rational are normalised to conductor 1. A value
is its conductor and coefficients and nothing else: a root of unity is found
and printed from its vector alone. The hot checks run on integer exponent
tables or packed integers instead; this arithmetic is their exact
reference and the cold path. Serialization
descends to the true minimal conductor, one prime at a time, by reading the
subfield coefficients off the power basis, so the textual form is canonical
per value. The reduction, the Galois map (_galois), the root test, that descent
and the text work on coefficient vectors alone, in cyclo_core, which jobs that
build no value load without this module.
"""

import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm, tau

from . import cyclo_core
from .cyclo_core import _galois, _reduce, _scatter
from .errors import check_conductor, quoted


class Cyclotomic:
    """An exact element of Q(zeta_N). Immutable; all operations are pure."""

    __slots__ = ("_conductor", "_coeffs")

    def __init__(self, conductor: int, coeffs: tuple):
        # Internal constructor: coeffs must already be reduced mod Phi_conductor.
        if conductor != 1 and not any(coeffs[1:]):
            # Value is rational; normalise to the trivial conductor.
            conductor, coeffs = 1, (coeffs[0],)
        self._conductor = conductor
        self._coeffs = coeffs

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "Cyclotomic":
        value = Fraction(value)
        return cls(1, (value.numerator if value.denominator == 1 else value,))

    @property
    def conductor(self) -> int:
        return self._conductor

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def is_rational(self) -> bool:
        return not any(self._coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._coeffs[0])

    def root_exponent(self) -> Fraction | None:
        """Exponent q in [0,1) with self == e(q), or None if not a root of
        unity (cyclo_core.root_exponent, at the value's own conductor)."""
        root = cyclo_core.root_exponent(self._conductor, self._coeffs)
        return None if root is None else Fraction(*root)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_values((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self._conductor, tuple(-c for c in self._coeffs))

    def __sub__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # self zeta_m^k d (zeta_m = zeta_n^(n/m)) for each term d zeta_m^k of other at m
        n = lcm(self._conductor, other._conductor)
        raw, sa, sb = [0] * n, n // self._conductor, n // other._conductor
        for k, d in enumerate(other._coeffs):
            if d:
                _scatter(raw, [c * d for c in self._coeffs], sa, k * sb)
        return Cyclotomic(n, _reduce(n, raw))

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate, sigma_(-1); on roots of unity, e(q) -> e(-q)."""
        return Cyclotomic(self._conductor, _galois(self._conductor, self._coeffs, -1))

    def inverse(self) -> "Cyclotomic":
        """c / (content N) for self = content y, y c = N (dense.norm_cofactor), or
        ValidationError if its estimated work (dense.inverse_work) exceeds MAX_DENSE_WORK."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.is_rational():
            return Cyclotomic.from_rational(1 / Fraction(self._coeffs[0]))
        from . import dense  # only Verlinde, fusion weights and division invert

        work, content, y = dense.inverse_work(self)
        dense.bounded("inverse", work)
        cofactor, norm = dense.norm_cofactor(self._conductor, y)
        return Cyclotomic(self._conductor, tuple(c / (content * norm) for c in cofactor))

    def __truediv__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self is other or sum_values((self, -other)).is_zero()

    __hash__ = None  # equality spans conductors; hashing would need reduction

    # -- presentation -------------------------------------------------------

    def approx_complex(self) -> tuple[float, float]:
        """Floating approximation, for display only: no check and no exponent
        is decided from it. Raises OverflowError beyond float range."""
        import cmath  # only show --approx gets here

        total = 0j
        n = self._conductor
        for k, c in enumerate(self._coeffs):
            if c:
                total += float(c) * cmath.exp(1j * tau * k / n)
        if not cmath.isfinite(total):
            raise OverflowError(f"{self!r} is beyond float range")
        return total.real, total.imag

    def minimal(self) -> "Cyclotomic":
        """Equal value at its minimal conductor (cyclo_core.minimal)."""
        if self.is_rational():
            return self
        return Cyclotomic(*cyclo_core.minimal(self._conductor, self._coeffs))

    def __repr__(self) -> str:
        return f"Cyclotomic({self._conductor}, {self._coeffs!r})"

    def __str__(self) -> str:
        return format_value(self)


def _coerce(value) -> Cyclotomic:
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic.from_rational(value)
    return NotImplemented


@lru_cache(maxsize=None)
def root_of_unity(q: Fraction | int) -> Cyclotomic:
    """The exact value e(q) := exp(2 pi i q), q reduced mod 1: one object per q."""
    q = Fraction(q) % 1
    return Cyclotomic(q.denominator, _galois(q.denominator, (1,), 1, q.numerator))


def sum_values(values) -> Cyclotomic:
    """Exact sum of an iterable of Cyclotomic, reducing once at the end."""
    values = list(values)
    n = lcm(*(v._conductor for v in values))
    raw = [0] * n
    for v in values:
        _scatter(raw, v._coeffs, n // v._conductor)
    return Cyclotomic(n, _reduce(n, raw))


def dot(xs, ys) -> Cyclotomic:
    """Exact inner product sum_i xs[i]*ys[i], reduced once."""
    return sum_values(x * y for x, y in zip(xs, ys))


# -- the textual value grammar ---------------------------------------------
#
#   value := term ('+' term)*
#   term  := rat | rat '*' root | root
#   root  := 'e(' rat ')'            meaning exp(2 pi i rat)
#   rat   := '-'? INT ('/' INT)?
#
# Roots print with an explicit denominator ("e(0/1)", "e(1/4)"); rational
# values print bare ("1", "-1", "1/2"). This grammar is shared with the
# document serialization layer; cyclo_core.format_vector writes it.

def format_root(x: Cyclotomic) -> str:
    """Textual form e(a/b) of a root of unity; raises if x is not one."""
    q = x.root_exponent()
    if q is None:
        raise ValueError(f"{x!r} is not a root of unity")
    return f"e({q.numerator}/{q.denominator})"


def format_value(x: Cyclotomic) -> str:
    """Canonical textual form of any value (minimal conductor, fixed term
    order): cyclo_core.format_vector of its coefficients."""
    return cyclo_core.format_vector(x._conductor, x._coeffs)


def format_rows(rows, render=None) -> list[list[str]]:
    """render (format_value if None) of every entry of a matrix, called once
    per distinct object: data built in code or parsed shares one object
    between equal entries (from_lattice, parse_value)."""
    tokens = {id(x): x for row in rows for x in row}
    tokens = {key: (render or format_value)(x) for key, x in tokens.items()}
    return [[tokens[id(x)] for x in row] for row in rows]


@lru_cache(maxsize=1 << 12)
def parse_value(text: str) -> Cyclotomic:
    """Inverse of format_value / format_root. Raises ValueError on bad syntax
    and ValidationError beyond MAX_CONDUCTOR, before building the sum."""
    text = text.strip()
    if not text:
        raise ValueError("empty value")
    terms = []
    for part in text.split("+"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty term in value {quoted(text)}")
        if "*" in part:
            coeff_text, root_text = part.split("*", 1)
            terms.append(_parse_rat(coeff_text) * _parse_root(root_text))
        elif part.startswith("e("):
            terms.append(_parse_root(part))
        else:
            terms.append(Cyclotomic.from_rational(_parse_rat(part)))
    if len(terms) == 1:  # _parse_root bounds a single root, and shares it
        return terms[0]
    check_conductor(x.conductor for x in terms)
    return sum_values(terms)


def _parse_rat(text: str) -> Fraction:
    """Raises ValueError, which names an integer of more decimal digits than
    sys.get_int_max_str_digits() (which int() refuses) without echoing it."""
    text = text.strip()
    parts = text.split("/", 1)
    try:
        return Fraction(*map(int, parts))
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()
        if limit and any(sum(map(str.isdecimal, part)) > limit for part in parts):
            raise ValueError(f"cannot read an integer of more than {limit} digits") from None
        raise ValueError(f"bad rational {quoted(text)}") from exc


@lru_cache(maxsize=1 << 12)
def _parse_root(text: str) -> Cyclotomic:
    # one shared object per token text, so repeated entries compare by identity
    text = text.strip()
    if not (text.startswith("e(") and text.endswith(")")):
        raise ValueError(f"bad root of unity {quoted(text)}")
    q = _parse_rat(text[2:-1]) % 1
    check_conductor((q.denominator,))
    return root_of_unity(q)
