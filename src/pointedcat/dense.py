"""Dense exact checks of any modular data, on Kronecker-packed integers.

Pointed data whose rows form a group under the entrywise product is checked
in moddata through that group law (ModularData._law): the law alone gives
unitarity and D^2 = rank, N_ij^k = delta(k, i.j), C(i) = i^-1, and (S~ T)^3
as a rank^2 integer check on the twists. Every other input comes here: data
that is not all roots of unity, and exponent tables with no law, because row
0 is not all 1 (only the law reads it) or the rows are not distinct or not
closed, within errors.MAX_DENSE_WORK. S~ and conj(S~) become integer
rows at the conductor of S~, with the row of S~ that each conj row equals
(Packed, the one dense cache of a ModularData), S~ and S~T at the lcm with
T's for the one (S~ T)^3 check only (twisted), and every check sums products
of rows packed into big integers (pack) and compares integer rows. Every
matrix product is symmetric or Hermitian, so only its entries j >= i are
formed, and the Verlinde sum, symmetric in its three rows, is formed once per
sorted triple. moddata imports this module on first use, so commands on
pointed data with a group law never compile it.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import add, eq, mul

from .cyclo import Cyclotomic, _reduce
from .errors import MAX_DENSE_WORK, NotModular, ValidationError
from .moddata import ModularData
from .record import record


# Integer coefficients c_i pack into the integer sum_i c_i 2^(width*i), so a
# sum of polynomial products is one sum of big-integer products. No coefficient
# of sum_t u_t v_t exceeds sum_t |u_t|_1 |v_t|_1 =: bound, so slot_width(bound)
# keeps each in its slot, signed, as it does every input of size at most bound.
# Slots are whole bytes: adding 2^(width-1) to every slot makes the packed
# value a non-negative byte string, so packing and unpacking are one
# int.to_bytes or int.from_bytes each and linear in the length.

def integer_coefficients(values, n: int) -> tuple[int, list[tuple[int, ...]]]:
    """(den, rows): the coefficients of each value at conductor n (which its
    conductor divides), times den, the least common denominator of them all.
    Each distinct value is converted once."""
    keys = [(v._conductor, v._coeffs) for v in values]
    rows = dict.fromkeys(keys)
    for conductor, coeffs in rows:
        row = coeffs
        if conductor != n:
            row = [0] * n
            Cyclotomic(conductor, coeffs)._embed_raw(n, row)
            row = _reduce(n, row)
        rows[conductor, coeffs] = row
    den = lcm(*(c.denominator for row in rows.values() for c in row))
    rows = {key: tuple(c.numerator * (den // c.denominator) for c in row)
            for key, row in rows.items()}
    return den, [rows[key] for key in keys]


def slot_width(bound: int) -> int:
    """Bits per slot for signed coefficients of absolute value at most bound:
    two spare bits, rounded up to whole bytes."""
    return (bound.bit_length() + 9) // 8 * 8


@lru_cache(maxsize=256)
def _bias(slots: int, size: int) -> int:
    # 2^(8 size - 1) in each of `slots` slots of `size` bytes
    return int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")


def pack(coeffs, width: int) -> int:
    """The polynomial with these integer coefficients, evaluated at 2**width,
    where width = slot_width(bound) for a bound on every |c|."""
    size, half = width >> 3, 1 << (width - 1)
    data = b"".join([(c + half).to_bytes(size, "little") for c in coeffs])
    return int.from_bytes(data, "little") - _bias(len(coeffs), size)


def unpack(value: int, width: int, n: int) -> tuple[int, ...]:
    """Integer coefficients modulo Phi_n of a packed polynomial: its signed
    slots, folded by x^n = 1 and reduced once."""
    size, half = width >> 3, 1 << (width - 1)
    slots = value.bit_length() // width + 2  # enough for every signed slot
    data = (value + _bias(slots, size)).to_bytes(slots * size, "little")
    coeffs = [int.from_bytes(data[k:k + size], "little") - half
              for k in range(0, len(data), size)]
    counts = [0] * n
    for start in range(0, slots, n):
        block = coeffs[start:start + n]
        counts[:len(block)] = map(add, counts, block)
    return _reduce(n, counts)


def from_integers(n: int, coeffs, den: int) -> Cyclotomic:
    """The value with coefficients coeffs / den at conductor n (reduced)."""
    return Cyclotomic(n, tuple(Fraction(c, den) for c in coeffs) if den != 1 else coeffs)


@record
class Packed:
    """S~ and conj(S~) as integer coefficient rows at the conductor n of S~,
    times den (ModularData._packed), and for each row i the c with
    conj(row i) = row c, or None (duals)."""

    n: int
    den: int
    s: tuple
    conj: tuple
    duals: list


def diagonal(n: int, values, scale: int) -> list[list[tuple[int, ...]]]:
    """Upper rows (entries j >= i) of the diagonal matrix of values times scale,
    at conductor n; scale must make them integral."""
    den, coeffs = integer_coefficients(values, n)
    zero = (0,) * len(coeffs[0])
    return [[tuple(c * scale // den for c in x)] + [zero] * (len(values) - 1 - i)
            for i, x in enumerate(coeffs)]


def products(n: int, left, right):
    """Upper rows: row i of sum_a left[i][a] right[j][a] for j >= i, reduced at
    conductor n. Every product the checks take is symmetric or Hermitian. The
    width comes from the column 1-norms, whose products bound every slot; each
    norm counts as at least 1, so the bound covers every input too."""
    norms = ([max(1, *(sum(map(abs, c)) for c in col)) for col in zip(*rows)]
             for rows in (left, right))
    width = slot_width(sum(map(mul, *norms)))
    right = [[pack(c, width) for c in row] for row in right]
    for i, row in enumerate(left):
        row = [pack(c, width) for c in row]
        yield [unpack(sum(map(mul, row, r)), width, n) for r in right[i:]]


def mirrored(upper):
    """The symmetric matrix with these upper rows."""
    return [[upper[j][i - j] for j in range(i)] + row for i, row in enumerate(upper)]


def packed(md: ModularData) -> Packed:
    """S~ and conj(S~) of md as integer coefficient rows at the conductor of S~;
    ValidationError if the estimated work of every dense check, the cube check
    at the lcm conductor of S~ and T included, exceeds MAX_DENSE_WORK."""
    rank = md.rank
    values = list(itertools.chain(*md.s_tilde))
    n = lcm(*(x.conductor for x in values))
    n_all = lcm(n, *(t.root_exponent().denominator for t in md.twists))
    conj = {id(x): x for x in values}  # parsed entries share equal values
    conj = {key: x.conjugate() for key, x in conj.items()}
    den, coeffs = integer_coefficients(values + [conj[id(x)] for x in values], n)
    # w: 64-bit words of the largest packed coefficient, den included
    top = max(den, max(map(abs, itertools.chain.from_iterable(coeffs))))
    w = max(1, (top.bit_length() + 63) // 64)
    work = rank ** 4 * (n_all + 4) * w * isqrt(w)
    if work > MAX_DENSE_WORK:
        raise ValidationError(f"estimated dense work {work} exceeds the bound {MAX_DENSE_WORK}")
    rows = [tuple(coeffs[k:k + rank]) for k in range(0, len(coeffs), rank)]
    s, conj = tuple(rows[:rank]), tuple(rows[rank:])
    index = {row: c for c, row in enumerate(s)}
    return Packed(n, den, s, conj, [index.get(row) for row in conj])


def unitary(md: ModularData) -> bool:
    p = md._packed
    expected = diagonal(p.n, [md._gauss.d_squared] * md.rank, p.den ** 2)
    return all(map(eq, products(p.n, p.s, p.conj), expected))


def conjugation(md: ModularData) -> list[int | None]:
    """For each row i, the c with row i of S~^2 equal to D^2 e_c, or None.

    With unitarity, S~ conj(S~) = D^2 I, so that row is D^2 e_c exactly when
    conj(row i) is row c: a lookup, with no product. Otherwise the upper rows
    of S~^2 are formed, mirrored and compared with D^2 as integer rows.
    """
    p = md._packed
    if md._unitary:
        return p.duals
    unit = diagonal(p.n, [md._gauss.d_squared], p.den ** 2)[0][0]
    perm = []
    for row in mirrored(list(products(p.n, p.s, p.s))):
        hits = [j for j, x in enumerate(row) if any(x)]
        perm.append(hits[0] if len(hits) == 1 and row[hits[0]] == unit else None)
    return perm


def verlinde(md: ModularData) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """N_ij^k = X_ijk / (scale D^2) with X_ijk = sum_a s[i][a] s[j][a] conj[k][a]
    inv[a] and inv[a] = den_inv / d_a, at the conductor of S~. Where conj(row k)
    is row c of S~ (Packed.duals), X_ijk = Y(sorted(i, j, c)) for Y the same sum
    over rows of S~, which is symmetric; any other conj row k gets the index
    rank + k. Entries are read in naming order (i <= j, then k), and each Y is
    formed and checked when first read, so the first bad read names the first
    bad entry in that order.
    """
    rank = md.rank
    dims = md.s_tilde[0]
    if any(d.is_zero() for d in dims):
        raise ValidationError("zero quantum dimension")
    d_squared = md._gauss.d_squared
    if d_squared.is_zero():
        raise NotModular("global dimension is zero")
    p = md._packed
    dual = [rank + k if c is None else c for k, c in enumerate(p.duals)]
    # each distinct dimension is inverted once (on SU(2)_k, d_a = d_(k-a)); the
    # packed row of d_a is its unique coefficient row at p.n, whatever its conductor
    inverses = {}
    for d, row in zip(dims, p.s[0]):
        if row not in inverses:
            inverses[row] = d.inverse()
    den_inv, inv = integer_coefficients([inverses[row] for row in p.s[0]], p.n)
    scale = p.den ** 3 * den_inv
    unit = diagonal(p.n, [d_squared], scale)[0][0]
    pivot = next(q for q, c in enumerate(unit) if c)
    # weights conj[k][a] inv[a], reduced once, so each product below is 2:1 in
    # length; row 0 (d_a) and inv[a] are nonzero, so each bound covers the inputs
    inv_norms = [sum(map(abs, v)) for v in inv]
    width = slot_width(max(sum(map(abs, c)) * v for row in p.conj
                           for c, v in zip(row, inv_norms)))
    packed_inv = [pack(v, width) for v in inv]
    weights = [[unpack(pack(c, width) * v, width, p.n) for c, v in zip(row, packed_inv)]
               for row in p.conj]
    norms = ([max(sum(map(abs, c)) for c in col) for col in zip(*rows)]
             for rows in (p.s, weights))
    width = slot_width(sum(a * a * w for a, w in zip(*norms)))
    s = [[pack(c, width) for c in row] for row in p.s]
    weights = [[pack(c, width) for c in row] for row in weights]
    found, fusion = {}, [[None] * rank for _ in range(rank)]
    for i, j in itertools.combinations_with_replacement(range(rank), 2):
        prods = list(map(mul, s[i], s[j]))
        entries = []
        for k, c in enumerate(dual):
            key = tuple(sorted((i, j, c)))
            if key not in found:
                x = unpack(sum(map(mul, prods, weights[k])), width, p.n)
                m, r = divmod(x[pivot], unit[pivot])
                if r or m < 0 or x != tuple(m * u for u in unit):
                    value = from_integers(p.n, x, scale) / d_squared
                    entry = f"N({i},{j})^{k}"
                    try:
                        message = f"{entry} = {value} is not a non-negative integer"
                    except ValidationError as exc:  # too many digits to print
                        message = f"{entry} is not a non-negative integer ({exc})"
                    raise NotModular(message)
                found[key] = m
            entries.append(found[key])
        fusion[i][j] = fusion[j][i] = tuple(entries)
    return tuple(map(tuple, fusion))


def st_cubed(md: ModularData) -> bool:
    """(S~ T)^3 = p+ D^2 I, exactly and for any data. T is invertible, so this
    holds exactly when S~ T S~ T S~ = p+ D^2 T^-1 (Bakalov and Kirillov,
    "Lectures on tensor categories and modular functors", 2001, 3.1). S~ is
    symmetric, so A = S~ T S~ has A_ij = sum_a st[i][a] s[j][a], and
    (A T S~)_ij = sum_a A_ia st[j][a]; both are symmetric and formed on
    j >= i. The comparison stops at the first bad row of A T S~."""
    md._packed  # the work bound, checked before any product
    n, den, s, st = twisted(md)
    a = mirrored(list(products(n, st, s)))
    target = md._gauss.p_plus * md._gauss.d_squared
    # st carries den^2 and s den, so A T S~ carries den^5, and the target's
    # denominator divides den^4
    expected = diagonal(n, [target * t.conjugate() for t in md.twists], den ** 5)
    return all(map(eq, products(n, a, st), expected))


def twisted(md: ModularData):
    """(n, den, s, st): the rows of S~ times den and of S~ T times den^2, as
    integer coefficients at the lcm n of the conductors of S~ and T."""
    rank = md.rank
    values = list(itertools.chain(*md.s_tilde))
    exponents = [t.root_exponent() for t in md.twists]
    n = lcm(*(x.conductor for x in values), *(q.denominator for q in exponents))
    den, coeffs = integer_coefficients(values, n)
    # S~_ia theta_a with theta_a = e(t/n): the coefficients rotated by t places
    # (x^n = 1), then reduced
    t = [q.numerator * (n // q.denominator) for q in exponents]
    st = []
    for k, x in enumerate(coeffs):
        raw, shift = list(x) + [0] * (n - len(x)), t[k % rank]
        st.append(tuple(den * c for c in _reduce(n, raw[-shift:] + raw[:-shift])))
    s, st = ([rows[k:k + rank] for k in range(0, len(rows), rank)] for rows in (coeffs, st))
    return n, den, s, st
