"""Dense exact checks of any modular data, on Kronecker-packed integers.

Pointed data whose rows form a group under the entrywise product is checked
in moddata through that group law (ModularData._law): the law alone gives
unitarity and D^2 = rank, N_ij^k = delta(k, i.j), C(i) = i^-1, and (S~ T)^3
as a rank^2 integer check on the twists. Every other input comes here: data
that is not all roots of unity, and pointed data whose rows are not distinct
or not closed. S~, conj(S~) and S~T become integer coefficient rows at one
conductor, cached as ModularData._packed, and every check sums products of
rows packed into big integers (cyclo.pack). moddata imports this module on
first use, so commands on pointed data with a group law never compile it.
"""

from __future__ import annotations

import itertools
from math import lcm
from operator import eq, mul

from . import cyclo
from .cyclo import Cyclotomic, from_integers, pack, unpack
from .errors import NonIntegralFusion, NotModular, ValidationError
from .moddata import FusionTensor, ModularData
from .record import record


@record
class Packed:
    """Any data as integers at conductor n: the coefficients of S~_ij, conj(S~_ij) and
    S~_ij theta_j times den, den and den^2; theta_a = e(t[a]/n) shifts by t[a] slots."""

    n: int
    den: int
    s: tuple
    conj: tuple
    st: tuple
    t: tuple[int, ...]

    def diagonal(self, values, scale: int) -> list[list[tuple[int, ...]]]:
        """The diagonal matrix of values times scale, which must make them integral."""
        den, coeffs = cyclo.integer_coefficients(values, self.n)
        zero = (0,) * len(coeffs[0])
        return [[tuple(c * scale // den for c in x) if j == i else zero
                 for j in range(len(values))] for i, x in enumerate(coeffs)]

    def products(self, left, right, shift=False):
        """Row by row, sum_a left[i][a] right[j][a] (times theta_j if shift), reduced.
        The width comes from the column 1-norms, whose products bound every slot;
        each norm counts as at least 1, so the bound covers every input too."""
        norms = ([max(1, *(sum(map(abs, c)) for c in col)) for col in zip(*rows)]
                 for rows in (left, right))
        width = cyclo.slot_width(sum(map(mul, *norms)))
        right = [[pack(c, width) for c in row] for row in right]
        for row in left:
            row = [pack(c, width) for c in row]
            yield [unpack(sum(map(mul, row, r)) << (width * self.t[j] if shift else 0),
                          width, self.n) for j, r in enumerate(right)]


def packed(md: ModularData) -> Packed:
    """S~, conj(S~) and S~T of md as integer coefficient rows (ModularData._packed)."""
    rank = md.rank
    exponents = [t.root_exponent() for t in md.twists]
    values = list(itertools.chain(*md.s_tilde))
    n = lcm(*(x.conductor for x in values), *(q.denominator for q in exponents))
    t = tuple(q.numerator * (n // q.denominator) for q in exponents)
    den, coeffs = cyclo.integer_coefficients(values + [x.conjugate() for x in values], n)
    # S~_ia theta_a: a shift by t[a] slots, then the fold by x^n = 1
    width = cyclo.slot_width(max(sum(map(abs, c)) for c in coeffs))
    coeffs += [tuple(den * c for c in unpack(pack(x, width) << width * t[k % rank], width, n))
               for k, x in enumerate(coeffs[:rank * rank])]
    s, conj, st = (tuple(coeffs[k:k + rank] for k in range(start, start + rank * rank, rank))
                   for start in range(0, 3 * rank * rank, rank * rank))
    return Packed(n, den, s, conj, st, t)


def unitary(md: ModularData) -> bool:
    p = md._packed
    expected = p.diagonal([md._gauss.d_squared] * md.rank, p.den ** 2)
    return all(map(eq, p.products(p.s, p.conj), expected))


def square(md: ModularData) -> tuple[tuple[Cyclotomic, ...], ...]:
    p = md._packed
    return tuple(tuple(from_integers(p.n, x, p.den ** 2) for x in row)
                 for row in p.products(p.s, p.s))


def conjugation(md: ModularData) -> list[int | None]:
    """For each row i, the c with row i of S~^2 equal to D^2 e_c, or None.

    With unitarity, S~ conj(S~) = D^2 I, so that row is D^2 e_c exactly when
    conj(row i) is row c: a lookup, with no product. Otherwise S~^2 is formed.
    """
    p = md._packed
    if md._unitary:
        index = {tuple(row): c for c, row in enumerate(p.s)}
        return [index.get(tuple(row)) for row in p.conj]
    d_squared = md._gauss.d_squared
    perm = []
    for row in square(md):
        hits = [j for j, x in enumerate(row) if not x.is_zero()]
        perm.append(hits[0] if len(hits) == 1 and row[hits[0]] == d_squared else None)
    return perm


def verlinde(md: ModularData) -> FusionTensor:
    rank = md.rank
    dims = md.s_tilde[0]
    if any(d.is_zero() for d in dims):
        raise ValidationError("zero quantum dimension")
    d_squared = md._gauss.d_squared
    if d_squared.is_zero():
        raise NotModular("global dimension is zero")
    p = md._packed
    # X = sum_a s[i][a] s[j][a] conj[k][a] inv[a] = scale N_ij^k D^2, with
    # inv[a] = den_inv / d_a; N_ij^k = m exactly when X = m * scale * D^2.
    den_inv, inv = cyclo.integer_coefficients([d.inverse() for d in dims], p.n)
    scale = p.den ** 3 * den_inv
    norms = ([max(sum(map(abs, c)) for c in col) for col in zip(*rows)]
             for rows in (p.s, p.conj, [inv]))
    width = cyclo.slot_width(sum(a * a * c * v for a, c, v in zip(*norms)))
    s = [[pack(c, width) for c in row] for row in p.s]
    inv = [pack(v, width) for v in inv]
    weights = [[pack(c, width) * v for c, v in zip(row, inv)] for row in p.conj]
    unit = p.diagonal([d_squared], scale)[0][0]
    pivot = next(q for q, c in enumerate(unit) if c)
    table = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            prods = list(map(mul, s[i], s[j]))
            entries = []
            for k in range(rank):
                x = unpack(sum(map(mul, prods, weights[k])), width, p.n)
                m, r = divmod(x[pivot], unit[pivot])
                if r or m < 0 or x != tuple(m * c for c in unit):
                    value = from_integers(p.n, x, scale) / d_squared
                    raise NonIntegralFusion(
                        f"N({i},{j})^{k} = {value} is not a non-negative integer"
                    )
                entries.append(m)
            table[i][j] = table[j][i] = tuple(entries)
    return FusionTensor(tuple(tuple(row) for row in table))


def st_cubed_one_product(md: ModularData) -> bool:
    # S~ T S~ = p+ T^-1 conj(S~) T^-1, times T on the right: (S~ T)^2 =
    # (p+ T^-1) conj(S~). The diagonal factor goes through the same kernel.
    p = md._packed
    left = p.diagonal([md._gauss.p_plus * t.conjugate() for t in md.twists], p.den ** 2)
    return all(map(eq, p.products(p.st, p.s, shift=True), p.products(left, p.conj)))


def st_cubed(md: ModularData) -> bool:
    # (S~ T)^3 compared against p+ D^2 I (= p+ S~^2 C), all exact. S~ is
    # symmetric, so column b of S~T is row b of S~ times theta_b. (S~T)^2 is
    # reduced and packed again, at the width its own coefficients need.
    p = md._packed
    square = list(p.products(p.st, p.s, shift=True))
    cube = p.products(square, p.s, shift=True)
    target = md._gauss.p_plus * md._gauss.d_squared
    return all(map(eq, cube, p.diagonal([target] * md.rank, p.den ** 4)))
