"""Dense exact checks of any modular data, on Kronecker-packed integers.

Pointed data whose rows form a group under the entrywise product is checked
in moddata through that group law (ModularData._law): the law alone gives
unitarity and D^2 = rank, N_ij^k = delta(k, i.j), C(i) = i^-1, and (S~ T)^3
as a rank^2 integer check on the twists. Every other input comes here: data
that is not all roots of unity, and pointed data whose rows are not distinct
or not closed, within errors.MAX_DENSE_WORK. S~ and conj(S~) become integer
rows at the conductor of S~ (ModularData._packed), S~T at the lcm with T's
for the (S~ T)^3 checks only, and every check sums products of rows packed
into big integers (cyclo.pack). moddata imports this module on first use,
so commands on pointed data with a group law never compile it.
"""

from __future__ import annotations

import contextlib
import itertools
from math import lcm
from operator import eq, mul

from . import cyclo
from .cyclo import Cyclotomic, from_integers, pack, unpack
from .errors import MAX_DENSE_WORK, NonIntegralFusion, NotModular, ValidationError
from .moddata import FusionTensor, ModularData
from .record import record


@record
class Packed:
    """Any data as integers at conductor n: the coefficients of S~_ij, conj(S~_ij) and
    S~_ij theta_j times den, den and den^2; theta_a = e(t[a]/n) shifts by t[a] slots.
    Without the twists, n is the conductor of S~ and st and t are empty."""

    n: int
    den: int
    s: tuple
    conj: tuple
    st: tuple = ()
    t: tuple[int, ...] = ()

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


def packed(md: ModularData, twists: bool = False) -> Packed:
    """S~ and conj(S~) of md as integer coefficient rows at the conductor of S~
    (ModularData._packed); with twists, S~T too, all at the lcm of the
    conductors of S~ and T."""
    rank = md.rank
    values = list(itertools.chain(*md.s_tilde))
    exponents = [t.root_exponent() for t in md.twists]
    n_s = lcm(*(x.conductor for x in values))
    n_all = lcm(n_s, *(q.denominator for q in exponents))
    work = rank ** 4 * (n_all + 4)
    if work > MAX_DENSE_WORK:
        raise ValidationError(f"estimated dense work {work} exceeds the bound {MAX_DENSE_WORK}")
    n = n_all if twists else n_s
    t = tuple(q.numerator * (n // q.denominator) for q in exponents) if twists else ()
    conj = {id(x): x.conjugate() for x in values}  # parsed entries share equal values
    den, coeffs = cyclo.integer_coefficients(values + [conj[id(x)] for x in values], n)
    if twists:
        # S~_ia theta_a: a shift by t[a] slots, then the fold by x^n = 1
        width = cyclo.slot_width(max(sum(map(abs, c)) for c in coeffs))
        coeffs += [tuple(den * c for c in unpack(pack(x, width) << width * t[k % rank], width, n))
                   for k, x in enumerate(coeffs[:rank * rank])]
    rows = [tuple(coeffs[k:k + rank]) for k in range(0, len(coeffs), rank)]
    return Packed(n, den, *(tuple(rows[k:k + rank]) for k in range(0, len(rows), rank)), t=t)


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
    if md._unitary:
        return md._duals
    d_squared = md._gauss.d_squared
    perm = []
    for row in square(md):
        hits = [j for j, x in enumerate(row) if not x.is_zero()]
        perm.append(hits[0] if len(hits) == 1 and row[hits[0]] == d_squared else None)
    return perm


def verlinde(md: ModularData) -> FusionTensor:
    """N_ij^k = X_ijk / (scale D^2) with X_ijk = sum_a s[i][a] s[j][a] conj[k][a]
    inv[a] and inv[a] = den_inv / d_a, at the conductor of S~. If conj(row k)
    is row C(k) for every k (ModularData._duals), X_ijk = Y(i, j, C(k)) for Y
    the same sum over s[k], which is symmetric: Y is formed on i <= j <= k
    only. Otherwise, or if some Y is not a multiple, X is formed on i <= j and
    every k, which names the first bad entry in that order.
    """
    rank = md.rank
    dims = md.s_tilde[0]
    if any(d.is_zero() for d in dims):
        raise ValidationError("zero quantum dimension")
    d_squared = md._gauss.d_squared
    if d_squared.is_zero():
        raise NotModular("global dimension is zero")
    duals = md._duals
    p = md._packed
    # each distinct dimension is inverted once (on SU(2)_k, d_a = d_(k-a)); the
    # packed row of d_a is its unique coefficient row at p.n, whatever its conductor
    inverses = {}
    for d, row in zip(dims, p.s[0]):
        if row not in inverses:
            inverses[row] = d.inverse()
    den_inv, inv = cyclo.integer_coefficients([inverses[row] for row in p.s[0]], p.n)
    scale = p.den ** 3 * den_inv
    unit = p.diagonal([d_squared], scale)[0][0]
    pivot = next(q for q, c in enumerate(unit) if c)
    labels = range(rank)

    def tensor(rows, symmetric):
        # weights rows[k][a] inv[a], reduced once, so each product below is 2:1 in
        # length; row 0 (d_a) and inv[a] are nonzero, so each bound covers the inputs
        inv_norms = [sum(map(abs, v)) for v in inv]
        width = cyclo.slot_width(max(sum(map(abs, c)) * v for row in rows
                                     for c, v in zip(row, inv_norms)))
        packed_inv = [pack(v, width) for v in inv]
        weights = [[unpack(pack(c, width) * v, width, p.n) for c, v in zip(row, packed_inv)]
                   for row in rows]
        norms = ([max(sum(map(abs, c)) for c in col) for col in zip(*rows)]
                 for rows in (p.s, weights))
        width = cyclo.slot_width(sum(a * a * w for a, w in zip(*norms)))
        s = [[pack(c, width) for c in row] for row in p.s]
        weights = [[pack(c, width) for c in row] for row in weights]
        found = {}
        for i in labels:
            for j in range(i, rank):
                prods = list(map(mul, s[i], s[j]))
                for k in range(j if symmetric else 0, rank):
                    x = unpack(sum(map(mul, prods, weights[k])), width, p.n)
                    m, r = divmod(x[pivot], unit[pivot])
                    if r or m < 0 or x != tuple(m * c for c in unit):
                        value = from_integers(p.n, x, scale) / d_squared
                        raise NonIntegralFusion(
                            f"N({i},{j})^{k} = {value} is not a non-negative integer")
                    found[i, j, k] = m
        return FusionTensor(tuple(tuple(tuple(
            found[tuple(sorted((i, j, duals[k])))] if symmetric else found[min(i, j), max(i, j), k]
            for k in labels) for j in labels) for i in labels))

    if None not in duals:
        with contextlib.suppress(NonIntegralFusion):
            return tensor(p.s, symmetric=True)
    return tensor(p.conj, symmetric=False)


def st_cubed_one_product(md: ModularData) -> bool:
    # S~ T S~ = p+ T^-1 conj(S~) T^-1, times T on the right: (S~ T)^2 =
    # (p+ T^-1) conj(S~). The diagonal factor goes through the same kernel.
    p = packed(md, twists=True)
    left = p.diagonal([md._gauss.p_plus * t.conjugate() for t in md.twists], p.den ** 2)
    return all(map(eq, p.products(p.st, p.s, shift=True), p.products(left, p.conj)))


def st_cubed(md: ModularData) -> bool:
    # (S~ T)^3 compared against p+ D^2 I (= p+ S~^2 C), all exact. S~ is
    # symmetric, so column b of S~T is row b of S~ times theta_b. (S~T)^2 is
    # reduced and packed again, at the width its own coefficients need.
    p = packed(md, twists=True)
    square = list(p.products(p.st, p.s, shift=True))
    cube = p.products(square, p.s, shift=True)
    target = md._gauss.p_plus * md._gauss.d_squared
    return all(map(eq, cube, p.diagonal([target] * md.rank, p.den ** 4)))
