"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element is stored as its unique coefficient vector over the power basis
``1, zeta_N, ..., zeta_N^(phi(N)-1)``, reduced modulo the N-th cyclotomic
polynomial. Because that representation is canonical for a fixed conductor,
zero-testing is plain coefficient comparison and every identity in this
package can be checked with zero numerical tolerance.

Each operation has one exact code path: it embeds the operands at the least
common conductor, combines them there and reduces once modulo Phi_N
(``_reduce``). Results keep that conductor (no aggressive reduction), except
that values which turn out rational are normalised to conductor 1. The one tag
on a value, ``_root``, is the memo of ``root_exponent``: no operation reads
it. The hot checks run on integer exponent tables or packed integers instead;
this arithmetic is their exact reference and the cold path. Serialization
descends to the true minimal conductor, one prime at a time, by reading the
subfield coefficients off the power basis (``_descend``), so the textual form
is canonical per value.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm, tau
from operator import sub

from .errors import ValidationError, check_conductor, quoted


@lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    primes = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return tuple(primes)


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, monic, length phi(n)+1.

    For n > 1, Phi_n = prod over d | n of (1 - x^d)^mu(n/d) (the signs cancel),
    taken as a power series cut after degree phi(n): multiplying by 1 - x^d is
    one descending pass, dividing by it one ascending pass.
    """
    if n == 1:
        return (-1, 1)
    mobius = [(1, 1)]  # (s, mu(s)) for every squarefree s | n
    for p in _prime_divisors(n):
        mobius += [(s * p, -mu) for s, mu in mobius]
    deg = sum(mu * (n // s) for s, mu in mobius)  # phi(n)
    poly = [1] + [0] * deg
    for s, mu in mobius:
        d = n // s
        if mu > 0:
            for i in range(deg, d - 1, -1):
                poly[i] -= poly[i - d]
        else:
            for i in range(d, deg + 1):
                poly[i] += poly[i - d]
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # Degree of Phi_n plus its nonzero sub-leading terms, for synthetic division.
    poly = _cyclotomic_poly(n)
    deg = len(poly) - 1
    return deg, tuple((i, c) for i, c in enumerate(poly[:-1]) if c)


def _reduce(n: int, raw: list) -> tuple:
    """Reduce the coefficients of 1, x, ..., x^(n-1) modulo Phi_n. The p-th roots
    of unity sum to zero (p the least prime of n), so the top 1/p folds first;
    synthetic division by Phi_n reduces the rest."""
    if n == 1:
        return tuple(raw)
    step = n // _prime_divisors(n)[0]
    top = n - step
    folded = []
    for start in range(0, top, step):
        folded.extend(map(sub, raw[start:start + step], raw[top:]))
    deg, tail = _reduction_tail(n)
    for k in range(top - 1, deg - 1, -1):
        c = folded[k]
        if c:
            base = k - deg
            for i, t in tail:
                folded[base + i] -= c * t
    return tuple(folded[:deg])


@lru_cache(maxsize=None)
def _monomial(n: int, k: int) -> tuple[int, ...]:
    """Canonical coefficients of zeta_n^k (0 <= k < n)."""
    raw = [0] * n
    raw[k] = 1
    return _reduce(n, raw)


class Cyclotomic:
    """An exact element of Q(zeta_N). Immutable; all operations are pure."""

    __slots__ = ("_conductor", "_coeffs", "_root")

    def __init__(self, conductor: int, coeffs: tuple):
        # Internal constructor: coeffs must already be reduced mod Phi_conductor.
        if conductor != 1 and not any(coeffs[1:]):
            # Value is rational; normalise to the trivial conductor.
            conductor, coeffs = 1, (coeffs[0],)
        self._conductor = conductor
        self._coeffs = coeffs
        self._root = None  # memo of root_exponent(), when it is a root

    @classmethod
    def from_rational(cls, value: Fraction | int) -> Cyclotomic:
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
        """Exponent q in [0,1) with self == e(q), or None if not a root of unity.

        The roots of unity in Q(zeta_N) are the +-zeta_N^k, and for k < phi(N)
        the canonical coefficients of +-zeta_N^k are +-1 at position k and 0
        elsewhere. So the value is a root exactly when self * zeta_N^(-s) has
        such coefficients for one shift s in 0, phi(N), 2 phi(N), ... below N,
        and then q = (s + k)/N, plus 1/2 for the minus sign: at most
        ceil(N/phi(N)) exact reductions at the value's own conductor N.
        """
        if self._root is not None:
            return self._root
        n, coeffs = self._conductor, self._coeffs
        raw = list(coeffs) + [0] * (n - len(coeffs))
        for s in range(0, n, len(coeffs)):
            support = [(k, c) for k, c in enumerate(_reduce(n, raw[s:] + raw[:s])) if c]
            if len(support) == 1 and support[0][1] in (1, -1):
                k, c = support[0]
                self._root = Fraction(2 * (s + k) + n * (c < 0), 2 * n) % 1
                return self._root
        return None

    # -- arithmetic ---------------------------------------------------------

    def _embed_raw(self, n: int, raw: list) -> None:
        # Scatter this value into a raw length-n buffer at conductor n.
        stride = n // self._conductor
        for j, c in enumerate(self._coeffs):
            if c:
                raw[j * stride] += c

    def __add__(self, other) -> Cyclotomic:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_values((self, other))

    __radd__ = __add__

    def __neg__(self) -> Cyclotomic:
        return Cyclotomic(self._conductor, tuple(-c for c in self._coeffs))

    def __sub__(self, other) -> Cyclotomic:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Cyclotomic:
        return (-self) + other

    def __mul__(self, other) -> Cyclotomic:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = lcm(self._conductor, other._conductor)
        raw = [0] * n
        sa = n // self._conductor
        sb = n // other._conductor
        for j, c in enumerate(self._coeffs):
            if c:
                for k, d in enumerate(other._coeffs):
                    if d:
                        raw[(j * sa + k * sb) % n] += c * d
        return Cyclotomic(n, _reduce(n, raw))

    __rmul__ = __mul__

    def conjugate(self) -> Cyclotomic:
        """Complex conjugate; on roots of unity, e(q) -> e(-q)."""
        if self.is_rational():
            return self
        n = self._conductor
        raw = [0] * n
        for j, c in enumerate(self._coeffs):
            if c:
                raw[(n - j) % n] += c
        return Cyclotomic(n, _reduce(n, raw))

    def inverse(self) -> Cyclotomic:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.is_rational():
            return Cyclotomic.from_rational(1 / Fraction(self._coeffs[0]))
        return _field_inverse(self)

    def __truediv__(self, other) -> Cyclotomic:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> Cyclotomic:
        return _coerce(other) * self.inverse()

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

    def minimal(self) -> Cyclotomic:
        """Equal value at its minimal conductor, by structural descent one
        prime p at a time (Breuer 1997; see _descend). Where p^2 | n the value
        descends when its support is on multiples of p; where p || n, when its
        CRT parts along zeta_p, ..., zeta_p^(p-1) agree. The conductors whose
        field holds the value are closed under gcd, so one pass over the
        primes, each descended as far as it goes, reaches the least one."""
        if self.is_rational():
            return self
        n, coeffs = self._conductor, self._coeffs
        for p in _prime_divisors(n):
            while n % p == 0 and (smaller := _descend(n, coeffs, p)) is not None:
                n, coeffs = n // p, smaller
        return Cyclotomic(n, coeffs)

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


def root_of_unity(q: Fraction | int) -> Cyclotomic:
    """The exact value e(q) := exp(2 pi i q); q is reduced mod 1 first."""
    q = Fraction(q) % 1
    x = Cyclotomic(q.denominator, _monomial(q.denominator, q.numerator))
    x._root = q
    return x


def _field_inverse(x: Cyclotomic) -> Cyclotomic:
    # Extended Euclid over Q[t] against Phi_n; Phi_n is irreducible, so any
    # nonzero residue is invertible and the final remainder is a constant.
    n = x.conductor
    r0 = [Fraction(c) for c in _cyclotomic_poly(n)]
    r1 = [Fraction(c) for c in x._coeffs]
    t0: list[Fraction] = [Fraction(0)]
    t1: list[Fraction] = [Fraction(1)]

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    r0, r1 = trim(r0), trim(r1)
    while len(r1) > 1:
        q = [Fraction(0)] * (len(r0) - len(r1) + 1)
        rem = list(r0)
        for k in range(len(rem) - 1, len(r1) - 2, -1):
            c = rem[k] / r1[-1]
            if c:
                q[k - (len(r1) - 1)] = c
                for i, t in enumerate(r1):
                    rem[k - (len(r1) - 1) + i] -= c * t
        rem = trim(rem)
        new_t = list(t0) + [Fraction(0)] * max(0, len(q) + len(t1) - 1 - len(t0))
        for i, qc in enumerate(q):
            if qc:
                for j, tc in enumerate(t1):
                    new_t[i + j] -= qc * tc
        r0, r1 = r1, rem if rem else [Fraction(0)]
        t0, t1 = t1, trim(new_t) or [Fraction(0)]
    g = r1[0]
    inv = [c / g for c in t1]
    raw = [Fraction(0)] * n
    for i, c in enumerate(inv):
        raw[i % n] += c  # inv may exceed degree phi(n); fold via zeta^n = 1
    return Cyclotomic(n, _reduce(n, raw))


def _descend(n: int, coeffs: tuple, p: int) -> tuple | None:
    """Coefficients of the same value at conductor m = n/p (p a prime factor
    of n), or None if the value is not in Q(zeta_m) (Breuer, "Integral bases
    for subfields of cyclotomic fields", AAECC 8, 1997).

    If p^2 | n, Phi_n(x) = Phi_m(x^p), so the power basis of Q(zeta_m) is
    every p-th one of Q(zeta_n): the value descends exactly when its support
    lies on multiples of p. If p || n, zeta_n^k = zeta_m^(ka) zeta_p^(kb) by
    the CRT, with a = p^-1 mod m and b = m^-1 mod p, which groups the value
    as sum_b y_b zeta_p^b with each y_b in Q(zeta_m). Over Q(zeta_m) the basis
    is 1, zeta_p, ..., zeta_p^(p-2), and zeta_p^(p-1) is minus their sum, so
    the value descends exactly when y_1 = ... = y_(p-1), and is y_0 - y_(p-1).
    """
    m = n // p
    if m % p == 0:
        if any(c for k, c in enumerate(coeffs) if k % p):
            return None
        return coeffs[::p]
    a, b = pow(p, -1, m), pow(m, -1, p)
    raws = [[0] * m for _ in range(p)]
    for k, c in enumerate(coeffs):
        if c:
            raws[k * b % p][k * a % m] += c
    ys = [_reduce(m, raw) for raw in raws]
    if any(y != ys[-1] for y in ys[1:-1]):
        return None
    return tuple(map(sub, ys[0], ys[-1]))


def sum_values(values) -> Cyclotomic:
    """Exact sum of an iterable of Cyclotomic, reducing once at the end."""
    values = list(values)
    n = lcm(*(v._conductor for v in values))
    raw = [0] * n
    for v in values:
        v._embed_raw(n, raw)
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
# document serialization layer.

def format_rational(r: Fraction) -> str:
    """Raises ValidationError for an integer of more decimal digits than
    sys.get_int_max_str_digits(), which str() refuses to convert."""
    r = Fraction(r)
    try:
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
    except ValueError:
        raise ValidationError(f"cannot print an integer of more than "
                              f"{sys.get_int_max_str_digits()} digits") from None


def format_root(x: Cyclotomic) -> str:
    """Textual form e(a/b) of a root of unity; raises if x is not one."""
    q = x.root_exponent()
    if q is None:
        raise ValueError(f"{x!r} is not a root of unity")
    return f"e({q.numerator}/{q.denominator})"


def format_value(x: Cyclotomic) -> str:
    """Canonical textual form of any value (minimal conductor, fixed term order)."""
    if x.is_rational():
        return format_rational(x.as_rational())
    q = x.root_exponent()
    if q is not None:
        return f"e({q.numerator}/{q.denominator})"
    m = x.minimal()
    parts = []
    n = m.conductor
    for k, c in enumerate(m._coeffs):
        if not c:
            continue
        c = Fraction(c)
        if k == 0:
            parts.append(format_rational(c))
            continue
        e = Fraction(k, n)
        root = f"e({e.numerator}/{e.denominator})"
        parts.append(root if c == 1 else f"{format_rational(c)}*{root}")
    return "+".join(parts)


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
