"""The Gauss sums of an exponent table on integer vectors, with no Cyclotomic:
D^2, p+ and p- as coefficient vectors of cyclo_core, and the identity
p+ p- = D^2 on their counts. Only data with an exponent table loads this
module (ModularData._sums and _identity), on first use.
"""

from collections import Counter
from math import gcd, lcm

from .cyclo_core import _reduce


def gauss_sums(n: int, s, t) -> tuple[tuple, tuple]:
    """(vectors, counts) of D^2 = sum d_a^2 and p+- = sum theta_a^(+-1) d_a^2 of
    the table (n, s, t), d_a = e(s[0][a]/n), theta_a = e(t[a]/2n), summed over
    the distinct pairs (t[a], s[0][a]). counts holds each as {k: multiplicity
    of e(k/2n)}; vectors as (conductor, coefficients) at the conductor that
    Cyclotomic arithmetic gives the sum of the values: the lcm of its terms',
    a product's the lcm of its factors', a root's its denominator, 1 for +-1.
    A rational vector is one whatever its conductor: Cyclotomic takes it to
    conductor 1, and cyclo_core.format_vector prints it bare."""
    size = 2 * n

    def root(k):  # the conductor of e(k/2n)
        return 1 if 2 * k % size == 0 else size // gcd(k, size)

    counts, conductors = ({}, {}, {}), [1, 1, 1]
    for (a, b), count in Counter(zip(t, s[0])).items():
        square = root(2 * b) if root(4 * b) > 1 else 1  # d_a^2, formed at d_a's conductor
        for i, k in enumerate((4 * b, 4 * b + a, 4 * b - a)):
            k %= size
            counts[i][k] = counts[i].get(k, 0) + count
            if root(k) > 1:  # d_a^2, or its product with theta_a^(+-1)
                conductors[i] = lcm(conductors[i], square, root(a) if i else 1)
    vectors = []
    for terms, m in zip(counts, conductors):
        raw = [0] * m
        for k, count in terms.items():
            x = k * m // n  # e(k/2n) = e(x/2m): an integer, as the term lies in Q(zeta_m)
            if x % 2:  # then m is odd, and e(x/2m) = -zeta_m^((x - m)/2)
                raw[(x - m) // 2] -= count
            else:
                raw[x // 2] += count
        vectors.append((m, _reduce(m, raw)))
    return tuple(vectors), counts


def gauss_identity(n: int, counts) -> bool:
    """p+ p- = D^2 on the counts of gauss_sums: one cyclic convolution of the
    roots e(k/2n), less D^2, reduces to zero modulo Phi_2n."""
    d_squared, p_plus, p_minus = counts
    size = 2 * n
    raw = [0] * size
    for k, count in d_squared.items():
        raw[k] -= count
    for j, x in p_plus.items():
        for k, y in p_minus.items():
            raw[(j + k) % size] += x * y
    return not any(_reduce(size, raw))
