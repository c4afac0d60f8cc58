"""The integer core of Q(zeta_N) on canonical coefficient vectors (_reduce),
for int or Fraction coefficients with no fractions module: sigma_k times zeta^s
(_galois), the root test, the descent to the minimal conductor and the text,
which cyclo, dense and gauss call; pointed show and gauss run it with no cyclo.
"""

import sys
from functools import lru_cache
from math import gcd
from operator import sub

from .errors import ValidationError


@lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return tuple(primes + [n] * (n > 1))


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, length phi(n)+1: for n > 1 the product
    over d | n of (1 - x^d)^mu(n/d), as a power series cut after degree phi(n),
    where multiplying by 1 - x^d is one descending pass and dividing one ascending."""
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


def _scatter(raw: list, coeffs, k: int, s: int = 0) -> list:
    """raw plus sum_j c_j x^(jk + s), with x^n = 1 for n = len(raw)."""
    n = len(raw)
    for j, c in enumerate(coeffs):
        if c:
            raw[(j * k + s) % n] += c
    return raw


def _galois(n: int, coeffs, k: int, s: int = 0) -> tuple:
    """sum_j c_j zeta_n^(jk + s) at n: sigma_k (or for k = n/m and a row at m, its
    value at n) times zeta_n^s. At k = 1, a row longer than n is folded by x^n = 1."""
    return _reduce(n, _scatter([0] * n, coeffs, k, s))


def root_exponent(n: int, coeffs: tuple) -> tuple[int, int] | None:
    """(a, b) in lowest terms, 0 <= a < b, if the value is e(a/b), else None.
    The roots in Q(zeta_n) are the +-zeta_n^k, whose canonical coefficients are
    integers, and for k < phi(n) +-1 at k alone; so the value is a root when its
    product with zeta_n^(-s) is such for a shift s in 0, phi(n), ... below n,
    and then a/b = (s + k)/n, plus 1/2 for the minus sign."""
    if any(c.denominator != 1 for c in coeffs):
        return None
    for s in range(0, n, len(coeffs)):
        support = [(k, c) for k, c in enumerate(_galois(n, coeffs, 1, -s)) if c]
        if len(support) == 1 and support[0][1] in (1, -1):
            k, c = support[0]
            a = (2 * (s + k) + n * (c < 0)) % (2 * n)
            g = gcd(a, 2 * n)
            return a // g, 2 * n // g
    return None


def _descend(n: int, coeffs: tuple, p: int) -> tuple | None:
    """The value at conductor m = n/p (p a prime factor of n), or None if it is
    not in Q(zeta_m) (Breuer, "Integral bases for subfields of cyclotomic
    fields", AAECC 8, 1997). If p^2 | n, Phi_n(x) = Phi_m(x^p): the value
    descends when its support lies on multiples of p. If p || n, zeta_n^k =
    zeta_m^(ka) zeta_p^(kb) (a = p^-1 mod m, b = m^-1 mod p) makes it sum_r y_r zeta_p^r, with
    y_r = zeta_m^(k0 a) sum_j c_(k0+pj) zeta_m^j, k0 = rm mod p (pa = 1 mod m); the zeta_p^r
    sum to 0, so it descends when y_1 = ... = y_(p-1), to y_0 - y_(p-1)."""
    m = n // p
    if m % p == 0:
        if any(c for k, c in enumerate(coeffs) if k % p):
            return None
        return coeffs[::p]
    a = pow(p, -1, m)
    ys = [_galois(m, coeffs[r * m % p::p], 1, r * m % p * a) for r in range(p)]
    if any(y != ys[-1] for y in ys[1:-1]):
        return None
    return tuple(map(sub, ys[0], ys[-1]))


def minimal(n: int, coeffs: tuple) -> tuple[int, tuple]:
    """(m, coefficients) at the minimal conductor m: the conductors whose field
    holds the value are closed under gcd, so one pass over the primes, each
    descended as far as it goes (_descend), reaches the least one."""
    for p in _prime_divisors(n):
        while n % p == 0 and (smaller := _descend(n, coeffs, p)) is not None:
            n, coeffs = n // p, smaller
    return n, coeffs


# -- text, in the value grammar of cyclo -------------------------------------

def format_rational(r) -> str:
    """Text of an int or Fraction; ValidationError past the digits that str()
    converts (sys.get_int_max_str_digits())."""
    try:
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
    except ValueError:
        raise ValidationError(f"cannot print an integer of more than "
                              f"{sys.get_int_max_str_digits()} digits") from None


def format_vector(n: int, coeffs: tuple) -> str:
    """Canonical text of the value: a rational bare, a root as e(a/b), and any
    other value term by term at its minimal conductor."""
    if not any(coeffs[1:]):
        return format_rational(coeffs[0])
    root = root_exponent(n, coeffs)
    if root is not None:
        return "e(%d/%d)" % root
    n, coeffs = minimal(n, coeffs)
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(format_rational(c))
            continue
        g = gcd(k, n)
        root = f"e({k // g}/{n // g})"
        parts.append(root if c == 1 else f"{format_rational(c)}*{root}")
    return "+".join(parts)

