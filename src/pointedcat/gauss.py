"""The Gauss sums of an exponent table on integers, with no Cyclotomic: the
multiplicity of each root e(k/2n) in D^2, p+ and p-, which show prints at the
one conductor 2n (gauss_vectors) and verify tests for p+ p- = D^2
(gauss_identity). Only data with an exponent table loads this module, on
first use.
"""

from .cyclo_core import _reduce, _scatter


def _counts(n: int, s, t) -> list[list[int]]:
    """Entry k of each list is the multiplicity of e(k/2n) in D^2 = sum d_a^2
    and p+- = sum theta_a^(+-1) d_a^2 of the table (n, s, t), where d_a =
    e(s[0][a]/n) and theta_a = e(t[a]/2n)."""
    size = 2 * n
    counts = [[0] * size for _ in range(3)]
    for a, b in zip(t, s[0]):
        for raw, k in zip(counts, (4 * b, 4 * b + a, 4 * b - a)):
            raw[k % size] += 1
    return counts


def gauss_vectors(n: int, s, t) -> tuple:
    """The coefficients of D^2, p+ and p- of the table at conductor 2n."""
    return tuple(_reduce(2 * n, raw) for raw in _counts(n, s, t))


def gauss_identity(n: int, s, t) -> bool:
    """p+ p- = D^2 for the table: the sum over terms x e(j/2n) of p+ of
    x e(j/2n) p- (_scatter), less D^2, reduces to zero modulo Phi_2n."""
    d_squared, p_plus, p_minus = _counts(n, s, t)
    raw = [-count for count in d_squared]
    for j, x in enumerate(p_plus):
        if x:
            _scatter(raw, [x * y for y in p_minus], 1, j)
    return not any(_reduce(2 * n, raw))
