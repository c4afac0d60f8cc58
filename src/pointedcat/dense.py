"""Dense exact checks of any modular data, on Kronecker-packed integers.

Data with no group law (ModularData._law) is checked here, within MAX_DENSE_WORK. S~ is
converted once, to integer rows at its conductor (Packed, the one dense cache of a
ModularData); conj(S~), S~ and S~T at the lcm with T's for (S~ T)^3 (twisted), and its
right side are those rows under sigma_k, then times zeta^s (cyclo_core._galois). Each
check sums products of packed rows (pack), decides each entry on its sum reduced as one
integer (reduced), and forms only the entries j >= i of its symmetric or Hermitian products.
Exact inverses in Q(zeta_n) multiply packed rows too, down a tower of norms (norm_cofactor).
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from .cyclo import Cyclotomic
from .cyclo_core import _cyclotomic_poly, _descend, _galois, _prime_divisors
from .errors import MAX_DENSE_WORK, NotModular, ValidationError
from .record import record


# Coefficients c_i pack into sum_i c_i 2^(width*i), so a sum of polynomial products is
# one sum of big-integer products, f(2^width). For r = f reduced modulo Phi_n, f(2^width)
# = r(2^width) modulo Phi_n(2^width), the symmetric residue once every |r_k| < 2^(width-2)
# (ring), and two such packed values are equal exactly when their slots are. Slots are
# whole bytes (2^(width-1) added to each is a non-negative byte string): pack is linear.

def integer_coefficients(values, n: int) -> tuple[int, list[tuple[int, ...]]]:
    """(den, rows): the coefficients of each value at conductor n (which its
    conductor divides), times den, the least common denominator of them all.
    Each distinct value is converted once."""
    keys = [(v._conductor, v._coeffs) for v in values]
    rows = dict.fromkeys(keys)
    for conductor, coeffs in rows:
        rows[conductor, coeffs] = coeffs if conductor == n else _galois(n, coeffs, n // conductor)
    den = lcm(*(c.denominator for row in rows.values() for c in row))
    rows = {key: tuple(c.numerator * (den // c.denominator) for c in row)
            for key, row in rows.items()}
    return den, [rows[key] for key in keys]


def scaled(n: int, values, scale: int) -> list[tuple[int, ...]]:
    """The coefficient rows at conductor n of values times scale (integral)."""
    den, coeffs = integer_coefficients(values, n)
    return [tuple(c * scale // den for c in x) for x in coeffs]


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


def slots(value: int, width: int, count: int) -> tuple[int, ...]:
    """The first count signed slots (each below 2^(width-1)) of a packed value."""
    size, half = width >> 3, 1 << (width - 1)
    data = (value + _bias(count, size)).to_bytes(count * size, "little")
    return tuple([int.from_bytes(data[k:k + size], "little") - half
                  for k in range(0, len(data), size)])


def _times(n: int, x, y) -> tuple:
    # one big-integer product of rows at conductor n, folded by x^n = 1 and reduced
    width = slot_width(sum(map(abs, x)) * sum(map(abs, y)))
    return _galois(n, slots(pack(x, width) * pack(y, width), width, len(x) + len(y) - 1), 1)


def norm_cofactor(n: int, y) -> tuple[tuple, int]:
    """(c, N) with y c = N, a nonzero integer, for a nonzero integer row y at conductor n.
    For the largest prime p | n and m = n/p, K = Gal(Q(zeta_n)/Q(zeta_m)), the kernel of
    (Z/n)^x -> (Z/m)^x, is cyclic: if p | m, (1 + m)^j = 1 + jm mod n, so g = 1 + m has
    order |K| = p; else (Z/n)^x = (Z/m)^x (Z/p)^x (CRT), and g = 1 mod m, r mod p, for r a
    primitive root mod p, has order p - 1. So for c = P_(|K|-1), P_a = prod_(0<j<=a)
    sigma_(g^j)(y), y c is the norm of y to Q(zeta_m), fixed by K and nonzero: _descend
    writes it at m, where y c c' = N follows (c' embedded by zeta_m = zeta_n^p). By doubling,
    P_2a = P_a sigma_(g^a)(P_a) and P_(2a+1) = P_2a sigma_(g^(2a+1))(y). At n <= 2, y = (N,)."""
    if n <= 2:
        return (1,), y[0]
    p = _prime_divisors(n)[-1]
    m, g, order = n // p, 1 + n // p, p
    if m % p:
        qs = _prime_divisors(p - 1)
        r = next(r for r in range(2, p) if all(pow(r, (p - 1) // q, p) != 1 for q in qs))
        g, order = 1 + m * ((r - 1) * pow(m, -1, p) % p), p - 1
    c, a = _galois(n, y, g), 1  # P_a
    for bit in bin(order - 1)[3:]:
        c, a = _times(n, c, _galois(n, c, pow(g, a, n))), 2 * a
        if bit == "1":
            c, a = _times(n, c, _galois(n, y, pow(g, a + 1, n))), a + 1
    lower, norm = norm_cofactor(m, _descend(n, _times(n, y, c), p))
    return _times(n, c, _galois(n, lower, p)), norm


def inverse_work(x: Cyclotomic) -> tuple[int, Fraction, list[int]]:
    """(work, content, y): x = content y, y a row of coprime integers, and the estimated work
    of x.inverse(): 20 L isqrt(L) for the L = phi(n)^2 b / 64 words of its cofactor and largest
    products, b the bits of |y|_1, fitted at the primes near MAX_CONDUCTOR."""
    num, den = zip(*(c.as_integer_ratio() for c in x._coeffs))
    content = Fraction(gcd(*num), lcm(*den))
    y = [int(c / content) for c in x._coeffs]
    words = len(y) ** 2 * sum(map(abs, y)).bit_length() // 64 + 1
    return 20 * words * isqrt(words), content, y


def bounded(what: str, work: int) -> None:
    if work > MAX_DENSE_WORK:
        raise ValidationError(f"estimated {what} work {work} exceeds the bound {MAX_DENSE_WORK}")


@lru_cache(maxsize=None)
def _largest_monomial(n: int) -> int:
    # the largest |coefficient| of x^k reduced modulo Phi_n, k < n, and at least 1
    phi = _cyclotomic_poly(n)
    row, top = [0] * (len(phi) - 2) + [1], 1
    for _ in range(n - len(phi) + 1):  # x^(k+1) is x x^k less its top times Phi_n
        row = [c - row[-1] * t for c, t in zip([0] + row[:-1], phi)]
        top = max(top, *map(abs, row))
    return top


def ring(n: int, bound: int) -> tuple[int, tuple[int, int, int]]:
    """(width, (Phi_n(2^width), width, n)) for sums of 1-norm at most bound: bound times
    the largest |coefficient| of x^k reduced modulo Phi_n, k < n (x^n = 1, found once
    per n), bounds their reduced coefficients, and is at least each of Phi_n's."""
    phi, top = _cyclotomic_poly(n), _largest_monomial(n)
    width = slot_width(bound * top)
    return width, (pack(phi, width), width, n)


def reduced(value: int, field: tuple[int, int, int]) -> int:
    """A packed sum reduced modulo Phi_n: its symmetric residue modulo Phi_n(2^width).
    Past 3072 + 64 n bits, where CPython's quadratic division was measured to lose,
    it starts from the sum's slots, folded by x^n = 1 and reduced."""
    modulus, width, n = field
    if modulus.bit_length() > 3072 + 64 * n:
        raw = _galois(n, slots(value, width, value.bit_length() // width + 2), 1)
        value = sum(c << width * k for k, c in enumerate(raw))
    return (value + (modulus >> 1)) % modulus - (modulus >> 1)


@record
class Packed:
    """S~ and conj(S~) as integer rows at the conductor n of S~, times den; for each
    row i the c with conj(row i) = row c, or None (duals); the lcm n_t of n and the
    conductors of T, and the twists theta_a = e(t[a]/n_t)."""

    n: int
    den: int
    s: tuple
    conj: tuple
    duals: list
    n_t: int
    t: tuple


def column_norms(rows) -> list[int]:
    """The largest 1-norm in each column, counted as at least 1."""
    return [max(1, *(sum(map(abs, c)) for c in col)) for col in zip(*rows)]


def products(n: int, left, right, *compared):
    """(width, packed, rows): rows yields the upper rows (j >= i) of sum_a left[i][a]
    right[j][a] over coefficient rows at conductor n (each distinct one packed once),
    reduced: an entry is packed[t] exactly when its sum is compared[t] mod Phi_n."""
    bound = sum(map(mul, column_norms(left), column_norms(right)))
    width, field = ring(n, max([bound, *column_norms([compared])]))
    packs = {c: pack(c, width) for c in {*itertools.chain(*left, *right, compared)}}
    left, right = ([list(map(packs.__getitem__, row)) for row in rows] for rows in (left, right))
    return width, list(map(packs.__getitem__, compared)), (
        [reduced(sum(map(mul, row, r)), field) for r in right[i:]] for i, row in enumerate(left))


def mirrored(upper):
    """The symmetric matrix with these upper rows."""
    return [[upper[j][i - j] for j in range(i)] + row for i, row in enumerate(upper)]


def packed(md: "ModularData") -> Packed:
    """S~ of md as integer coefficient rows at the conductor of S~, converted once,
    and conj(S~) as sigma_(-1) of them, once per distinct row; ValidationError if the
    estimated work of every dense check (the cube check at n_t, and Verlinde's
    inverses) exceeds MAX_DENSE_WORK."""
    rank = md.rank
    values = list(itertools.chain(*md.s_tilde))
    n = lcm(*(x.conductor for x in values))
    exponents = [t.root_exponent() for t in md.twists]
    n_t = lcm(n, *(q.denominator for q in exponents))
    den, coeffs = integer_coefficients(values, n)
    conj = {x: _galois(n, x, -1) for x in set(coeffs)}
    # w: 64-bit words of the largest packed coefficient, den included
    top = max(den, max(map(abs, itertools.chain(*coeffs, *conj.values()))))
    w = max(1, (top.bit_length() + 63) // 64)
    bounded("dense", rank ** 4 * (n_t + 4) * w * isqrt(w))
    dims = dict(zip(coeffs[:rank], md.s_tilde[0]))  # as verlinde inverts them
    bounded("inverse", sum(inverse_work(d)[0] for d in dims.values() if not d.is_rational()))
    s = tuple(tuple(coeffs[k:k + rank]) for k in range(0, len(coeffs), rank))
    conj = tuple(tuple(map(conj.__getitem__, row)) for row in s)
    index = {row: c for c, row in enumerate(s)}
    return Packed(n, den, s, conj, [index.get(row) for row in conj], n_t,
                  tuple(q.numerator * (n_t // q.denominator) for q in exponents))


def unitary(md: "ModularData") -> bool:
    p = md._packed
    _, (unit,), rows = products(p.n, p.s, p.conj, *scaled(p.n, [md._gauss.d_squared], p.den ** 2))
    return all(row == [unit] + [0] * (len(row) - 1) for row in rows)


def conjugation(md: "ModularData") -> list[int | None]:
    """For each row i, the c with row i of S~^2 equal to D^2 e_c, or None. With
    unitarity (S~ conj(S~) = D^2 I) it is the row c equal to conj(row i), with no
    product; otherwise S~^2 is formed, mirrored and compared with D^2 packed."""
    p = md._packed
    if md._unitary:
        return p.duals
    _, (unit,), rows = products(p.n, p.s, p.s, *scaled(p.n, [md._gauss.d_squared], p.den ** 2))
    perm = []
    for row in mirrored(list(rows)):
        hits = [j for j, x in enumerate(row) if x]
        perm.append(hits[0] if len(hits) == 1 and row[hits[0]] == unit else None)
    return perm


def verlinde(md: "ModularData") -> tuple[tuple[tuple[int, ...], ...], ...]:
    """N_ij^k = X_ijk / (scale D^2), X_ijk = sum_a s[i][a] s[j][a] conj[k][a] inv[a] and
    inv[a] = den_inv / d_a, at the conductor of S~. Where conj(row k) is row c of S~
    (Packed.duals), X_ijk = Y(sorted(i, j, c)) for Y the same sum over rows of S~, which
    is symmetric; any other conj row k gets the index rank + k. Entries are read in
    naming order (i <= j, then k), each Y formed and checked when first read, so the
    first bad read names the first bad entry. X = m unit (unit = D^2 scale) exactly
    when its reduced sum is m times unit packed and m unit fits the slots (m <= limit):
    one exact division; slots are read only to name a failure."""
    rank, dims = md.rank, md.s_tilde[0]
    if any(d.is_zero() for d in dims):
        raise ValidationError("zero quantum dimension")
    d_squared = md._gauss.d_squared
    if d_squared.is_zero():
        raise NotModular("global dimension is zero")
    p = md._packed
    dual = [rank + k if c is None else c for k, c in enumerate(p.duals)]
    # each distinct dimension is inverted once (on SU(2)_k, d_a = d_(k-a)); the
    # packed row of d_a is its unique coefficient row at p.n, whatever its conductor
    inverses = {row: d.inverse() for row, d in dict(zip(p.s[0], dims)).items()}
    den_inv, inv = integer_coefficients([inverses[row] for row in p.s[0]], p.n)
    scale = p.den ** 3 * den_inv
    unit = scaled(p.n, [d_squared], scale)[0]
    # |X|_1 <= sum_a |s col a|^2 |conj col a| |inv[a]|_1; weights reduced once
    norms = zip(column_norms(p.s), column_norms(p.conj), column_norms([inv]))
    width, field = ring(p.n, max(sum(a * a * c * v for a, c, v in norms), sum(map(abs, unit))))
    limit = ((1 << width - 2) - 1) // max(map(abs, unit))
    unit, inv = pack(unit, width), [pack(v, width) for v in inv]
    packs = {c: pack(c, width) for c in {*itertools.chain(*p.s, *p.conj)}}  # once per distinct row
    weights = [[reduced(packs[c] * v, field) for c, v in zip(row, inv)] for row in p.conj]
    s = [list(map(packs.__getitem__, row)) for row in p.s]
    found, fusion = {}, [[None] * rank for _ in range(rank)]
    for i, j in itertools.combinations_with_replacement(range(rank), 2):
        prods = list(map(mul, s[i], s[j]))
        entries = []
        for k, c in enumerate(dual):
            key = tuple(sorted((i, j, c)))
            if key not in found:
                x = reduced(sum(map(mul, prods, weights[k])), field)
                m, rest = divmod(x, unit)
                if rest or not 0 <= m <= limit:
                    entry = f"N({i},{j})^{k}"
                    try:  # X / (scale D^2), for row / den = 1 / D^2
                        den, (row,) = integer_coefficients([d_squared.inverse()], p.n)
                        x = _times(p.n, slots(x, width, len(row)), row)
                        value = Cyclotomic(p.n, tuple(Fraction(v, scale * den) for v in x))
                        message = f"{entry} = {value} is not a non-negative integer"
                    except ValidationError as exc:  # 1/D^2 beyond its bound, or too many digits
                        message = f"{entry} is not a non-negative integer ({exc})"
                    raise NotModular(message)
                found[key] = m
            entries.append(found[key])
        fusion[i][j] = fusion[j][i] = tuple(entries)
    return tuple(map(tuple, fusion))


def st_cubed(md: "ModularData") -> bool:
    """(S~ T)^3 = p+ D^2 I, exactly and for any data. T is invertible, so this
    holds exactly when S~ T S~ T S~ = p+ D^2 T^-1 (Bakalov and Kirillov,
    "Lectures on tensor categories and modular functors", 2001, 3.1). S~ is
    symmetric, so A = S~ T S~ has A_ij = sum_a st[i][a] s[j][a], and
    (A T S~)_ij = sum_a A_ia st[j][a]; both are symmetric and formed on j >= i.
    A's slots size the second product, which stops at a bad row."""
    n, den, s, st = twisted(md)  # after the work bound, checked in md._packed
    # st carries den^2 and s den, so A T S~ carries den^5, and the target's
    # denominator divides den^4; row a of the right side is target zeta_n^(-t[a])
    (target,) = scaled(n, [md._gauss.p_plus * md._gauss.d_squared], den ** 5)
    expected = [_galois(n, target, 1, -t) for t in md._packed.t]
    width, _, a = products(n, st, s)
    read = lru_cache(maxsize=None)(slots)  # A's entries repeat
    a = mirrored([[read(x, width, len(s[0][0])) for x in row] for row in a])
    _, expected, rows = products(n, a, st, *expected)
    return all(row == [e] + [0] * (len(row) - 1) for row, e in zip(rows, expected))


def twisted(md: "ModularData"):
    """(n, den, s, st): the rows of S~ times den and of S~ T times den^2, as integer
    coefficients at n = Packed.n_t, from the packed rows of S~ by the embedding
    sigma_k, k = n_t / n, times zeta^t[a] in column a of S~ T (_galois), each
    distinct (row, shift) once."""
    p = md._packed
    n, k = p.n_t, p.n_t // p.n
    pairs = {*itertools.chain(*(zip(row, p.t) for row in p.s))}
    s = {x: _galois(n, x, k) for x in {x for x, _ in pairs}}
    st = {(x, t): _galois(n, [p.den * c for c in x], k, t) for x, t in pairs}
    return (n, p.den, [[s[x] for x in row] for row in p.s],
            [[st[pair] for pair in zip(row, p.t)] for row in p.s])
