"""Independent brute-force reference computations used to freeze expected values.

Discriminant-group data is recovered by scanning the (1/|det|)-grid instead
of any matrix decomposition, determinants by cofactor expansion, signatures
by Sylvester inertia of an exact symmetric elimination, corpus counts by
direct enumeration, group laws by one row lookup per pair of labels, Gauss
sums by one sum over the values,
canonical forms by trying every relabeling, cyclotomic polynomials by dense
division, minimal conductors by Fraction Gauss-Jordan
elimination, inverses by the extended Euclid over Q[x] against Phi_n,
packed integers by one shift per coefficient, and Galois conjugates by one
index map per coefficient, reduced by dense division. Of these,
only classify_each and direct_sum call the package under test: the first is
the per-matrix classification loop, which classify's cache per exponent
table must reproduce, and the second validates its block matrix with
check_gram.

The builders at the end make the test data that several test files share
(SU(2)_k, Fibonacci, Deligne products, relabelings and corrupted copies) as
ModularData; they compute no expected value.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from pointedcat import (
    Cyclotomic,
    ModularData,
    canonical_form,
    check_gram,
    from_lattice,
    root_of_unity,
)
from pointedcat.cyclo import format_root, sum_values
from pointedcat.enumeration import ModularClass


def det_cofactor(rows):
    """Determinant by cofactor expansion along the first row (exact ints)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def signature(rows):
    """sigma(B) = (positive - negative eigenvalues) of a nonsingular symmetric
    matrix, by Sylvester's law of inertia: congruences P B P^t in Fractions
    reduce B to a diagonal, whose signs are counted. A zero diagonal pivot is
    made nonzero by adding row and column j to i, which sets b_ii = 2 b_ij."""
    a = [[Fraction(x) for x in row] for row in rows]
    sigma = 0
    while a:
        k = next((i for i in range(len(a)) if a[i][i]), None)
        if k is None:
            k, j = next((i, j) for i in range(len(a)) for j in range(len(a)) if a[i][j])
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        pivot = a[k][k]
        sigma += 1 if pivot > 0 else -1
        a = [[a[r][c] - a[r][k] * a[k][c] / pivot for c in range(len(a)) if c != k]
             for r in range(len(a)) if r != k]
    return sigma


def mat_vec(rows, vec):
    return [sum(rows[i][j] * vec[j] for j in range(len(vec))) for i in range(len(rows))]


def brute_representatives(rows):
    """All classes of B^{-1}Z^n / Z^n as vectors in [0,1)^n, sorted lexicographically.

    Every class has a representative on the (1/|det|)-grid, so a full grid scan
    finds them all without any normal-form machinery.
    """
    return list(_grid_scan(tuple(map(tuple, rows))))


@functools.lru_cache(maxsize=None)
def _grid_scan(rows):
    # several tests scan the same corpus, so each matrix is scanned once
    n = len(rows)
    d = abs(det_cofactor(rows))
    reps = []
    for combo in itertools.product(range(d), repeat=n):
        # B (combo/d) is integral exactly when B combo vanishes mod d
        if all(x % d == 0 for x in mat_vec(rows, combo)):
            reps.append(tuple(Fraction(k, d) for k in combo))
    reps.sort()
    assert len(reps) == d, (rows, len(reps), d)
    return tuple(reps)


def add_mod1(v, w):
    return tuple((a + b) % 1 for a, b in zip(v, w))


def neg_mod1(v):
    return tuple((-a) % 1 for a in v)


def addition_table(reps):
    """table[i][j] = index of reps[i] + reps[j] (componentwise mod 1)."""
    index = {v: i for i, v in enumerate(reps)}
    return [[index[add_mod1(v, w)] for w in reps] for v in reps]


def dual_indices(reps):
    index = {v: i for i, v in enumerate(reps)}
    return [index[neg_mod1(v)] for v in reps]


def group_law_pairs(n, s):
    """The table k = i.j with row_i + row_j = row_k (mod n) of an exponent
    table s, by one row lookup per pair i <= j; None if the rows repeat or a
    sum of two rows is not a row."""
    index = {tuple(row): k for k, row in enumerate(s)}
    if len(index) < len(s):
        return None
    law = [[0] * len(s) for _ in s]
    for i, row in enumerate(s):
        for j in range(i, len(s)):
            k = index.get(tuple((a + b) % n for a, b in zip(row, s[j])))
            if k is None:
                return None
            law[i][j] = law[j][i] = k
    return tuple(map(tuple, law))


def bilinear_fraction(rows, v, w):
    """v^t B w reduced mod 1."""
    bw = mat_vec(rows, list(w))
    return sum((Fraction(a) * b for a, b in zip(v, bw)), Fraction(0)) % 1


def quadratic_fraction(rows, v):
    """v^t B v reduced mod 2."""
    bv = mat_vec(rows, list(v))
    return sum((Fraction(a) * b for a, b in zip(v, bv)), Fraction(0)) % 2


def s_exponents(rows):
    """Hopf-pairing exponent table: entry (i,j) is <v_i, v_j>_B mod 1."""
    reps = brute_representatives(rows)
    images = [mat_vec(rows, list(w)) for w in reps]  # B w, once per column
    return [[sum((Fraction(a) * b for a, b in zip(v, bw)), Fraction(0)) % 1 for bw in images]
            for v in reps]


def twist_exponents(rows):
    """Self-pairing exponents halved: entry i is (v_i^t B v_i mod 2) / 2."""
    reps = brute_representatives(rows)
    return [quadratic_fraction(rows, v) / 2 for v in reps]


def gauss_sums(md):
    """(D^2, p+, p-) of md summed over its values, with d_a row 0 of S~:
    sum d_a^2, sum theta_a d_a^2 and sum conj(theta_a) d_a^2."""
    squares = [(theta, d * d) for theta, d in zip(md.twists, md.s_tilde[0])]
    return (sum_values(d2 for _, d2 in squares),
            sum_values(theta * d2 for theta, d2 in squares),
            sum_values(theta.conjugate() * d2 for theta, d2 in squares))


def canonical_form_exhaustive(twist_tokens, s_tokens):
    """Least string twists:...|s:... over all (rank-1)! relabelings fixing 0.

    Takes the textual token of every twist and matrix entry, so the result is
    byte-comparable with the package's canonical form. Every relabeling is
    tried; one is dropped as soon as its string, built row by row, exceeds
    the best so far on its prefix, which decides the comparison.
    """
    rank = len(twist_tokens)
    best = None
    for tail in itertools.permutations(range(1, rank)):
        perm = (0,) + tail
        candidate = "twists:" + ",".join(twist_tokens[p] for p in perm) + "|s:"
        for i in range(rank):
            if best is not None and candidate > best[:len(candidate)]:
                break
            row = ",".join(s_tokens[perm[i]][perm[j]] for j in range(rank))
            candidate += row if i == rank - 1 else row + ";"
        else:
            if best is None or candidate < best:
                best = candidate
    return best.encode("ascii")


def enumerate_even_symmetric(max_dim, max_entry, max_rank=None):
    """All symmetric, even-diagonal, nonsingular integer matrices in range.

    Ordered by dimension, then lexicographically by row-major entries.
    """
    out = []
    for n in range(1, max_dim + 1):
        positions = [(i, j) for i in range(n) for j in range(i, n)]
        even_bound = max_entry - (max_entry % 2)
        ranges = [
            range(-even_bound, even_bound + 1, 2) if i == j else
            range(-max_entry, max_entry + 1)
            for i, j in positions
        ]
        for combo in itertools.product(*ranges):
            rows = [[0] * n for _ in range(n)]
            for (i, j), val in zip(positions, combo):
                rows[i][j] = val
                rows[j][i] = val
            d = det_cofactor(rows)
            if d == 0:
                continue
            if max_rank is not None and abs(d) > max_rank:
                continue
            out.append(tuple(tuple(r) for r in rows))
    return out


def direct_sum(b1, b2):
    """Block-diagonal join of two Gram matrices, validated by check_gram."""
    n1, n2 = b1.n, b2.n
    rows = [list(row) + [0] * n2 for row in b1.entries]
    rows += [[0] * n1 + list(row) for row in b2.entries]
    return check_gram(rows)


def classify_each(corpus):
    """classify without its cache per exponent table: every matrix gets its
    own from_lattice and canonical_form, and the first matrix of each
    canonical key is its witness."""
    buckets = {}
    for gram in corpus:
        rank, key, twists = _class_of(gram)
        buckets.setdefault(rank, {}).setdefault(key, ModularClass(key, gram, twists))
    return tuple((rank, tuple(bucket[key] for key in sorted(bucket)))
                 for rank, bucket in sorted(buckets.items()))


@functools.lru_cache(maxsize=None)
def _class_of(gram):
    # memoized per matrix, not per table, so a reordered corpus costs no second pass
    md = from_lattice(gram)
    twists = tuple(map(format_root, sorted(md.twists, key=Cyclotomic.root_exponent)))
    return md.rank, canonical_form(md), twists


def prime_divisors(n):
    """Distinct primes of n, ascending, by trial division."""
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Phi_n, ascending integer coefficients: x^n - 1 divided exactly by every
    Phi_d with d | n, d < n, by dense long division."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_poly(d)
            dd = len(den) - 1
            out = [0] * (len(num) - dd)
            for k in range(len(num) - 1, dd - 1, -1):
                c = num[k]
                if c:
                    out[k - dd] = c
                    for i, t in enumerate(den):
                        num[k - dd + i] -= c * t
            assert not any(num), "non-exact polynomial division"
            num = out
    return tuple(num)


def reduce_mod_phi(n, raw):
    """Remainder of sum_k raw[k] x^k modulo Phi_n, as phi(n) coefficients."""
    poly = cyclotomic_poly(n)
    deg = len(poly) - 1
    raw = list(raw)
    for k in range(len(raw) - 1, deg - 1, -1):
        c = raw[k]
        if c:
            for i, t in enumerate(poly):
                raw[k - deg + i] -= c * t
    return tuple(raw[:deg]) + (0,) * (deg - len(raw))


def pack_by_shifts(coeffs, width):
    """sum_i coeffs[i] 2^(width i), one shift and add per coefficient (quadratic)."""
    value = 0
    for c in reversed(coeffs):
        value = (value << width) + c
    return value


def unpack_by_shifts(value, width, n):
    """The signed width-bit digits of value, lowest first, summed by index mod n;
    one mask and shift per digit (quadratic)."""
    counts = [0] * n
    mask, half, i = (1 << width) - 1, 1 << (width - 1), 0
    while value:
        c = value & mask
        if c >= half:
            c -= 1 << width
        counts[i % n] += c
        value = (value - c) >> width
        i += 1
    return counts


def descend(n, coeffs, m):
    """Coefficients at conductor m | n of the value with these coefficients at
    conductor n, or None: Fraction Gauss-Jordan elimination on the system
    sum_j y_j zeta_n^(j n/m) = value, columns reduced mod Phi_n. Entries stay
    ints until a pivot other than 1 divides them."""
    phi_m, phi_n = totient(m), totient(n)
    columns = [reduce_mod_phi(n, [0] * (j * (n // m)) + [1]) for j in range(phi_m)]
    mat = [[columns[j][i] for j in range(phi_m)] + [Fraction(coeffs[i])]
           for i in range(phi_n)]
    pivots = []
    row = 0
    for col in range(phi_m):
        pivot = next((r for r in range(row, phi_n) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        if mat[row][col] != 1:
            inv = 1 / Fraction(mat[row][col])
            mat[row] = [v * inv for v in mat[row]]
        for r in range(phi_n):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
    if any(mat[r][-1] for r in range(row, phi_n)):
        return None
    solution = [Fraction(0)] * phi_m
    for r, col in enumerate(pivots):
        solution[col] = mat[r][-1]
    return tuple(solution)


def minimal_conductor_form(n, coeffs):
    """(conductor, coefficients) of the value at its least conductor: descend
    by any prime that works, and start over until none does."""
    changed = True
    while changed:
        changed = False
        for p in prime_divisors(n):
            smaller = descend(n, coeffs, n // p)
            if smaller is not None:
                n, coeffs, changed = n // p, smaller, True
                break
    return n, tuple(coeffs)


def field_inverse(x):
    """x^-1 for a nonzero x by the extended Euclid over Q[t] against Phi_n, in
    Fractions: Phi_n is irreducible, so any nonzero residue is invertible and
    the final remainder is a constant. Its coefficients blow up with n (36.9 s
    for one value at n = 256), so tests call it at small conductors only."""
    n = x.conductor
    r0 = [Fraction(c) for c in cyclotomic_poly(n)]
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
    return Cyclotomic(n, reduce_mod_phi(n, raw))


def galois_conjugate(md, ell):
    """sigma_ell of every entry and twist, without provenance: at a value's
    conductor m (ell coprime to m), zeta_m^j -> zeta_m^(j ell mod m), reduced
    mod Phi_m; once per distinct object, so equal entries stay shared."""
    images = {}

    def sigma(x):
        if id(x) not in images:
            m = x.conductor
            raw = [0] * m
            for j, c in enumerate(x._coeffs):
                raw[j * ell % m] += c
            images[id(x)] = Cyclotomic(m, reduce_mod_phi(m, raw))
        return images[id(x)]

    return ModularData(rank=md.rank, s_tilde=tuple(tuple(map(sigma, row)) for row in md.s_tilde),
                       twists=tuple(map(sigma, md.twists)))


def least_prime_coprime(n):
    return next(p for p in itertools.count(2) if n % p and all(p % q for q in range(2, p)))


# -- test data ----------------------------------------------------------------

ONE = root_of_unity(0)


def su2(k):
    """SU(2)_k: S~_ij = [(i+1)(j+1)]_q with q = e(1/(2(k+2))) and
    theta_j = e(j(j+2)/(4(k+2))); generic data of rank k+1."""
    period = 2 * (k + 2)
    qint = [sum_values(root_of_unity(Fraction(n - 1 - 2 * m, period)) for m in range(n))
            for n in range(period)]
    rows = tuple(tuple(qint[((i + 1) * (j + 1)) % period] for j in range(k + 1))
                 for i in range(k + 1))
    twists = tuple(root_of_unity(Fraction(j * (j + 2), 4 * (k + 2))) for j in range(k + 1))
    return ModularData(rank=k + 1, s_tilde=rows, twists=twists)


def fibonacci():
    phi = ONE + root_of_unity(Fraction(1, 5)) + root_of_unity(Fraction(4, 5))  # the golden ratio
    return ModularData(rank=2, s_tilde=((ONE, phi), (phi, -ONE)),
                       twists=(ONE, root_of_unity(Fraction(2, 5))))


def deligne(a, b):
    """a ⊠ b: S~ and T as Kronecker products, label (i, x) at i * b.rank + x."""
    s_tilde = tuple(tuple(x * y for x in ai for y in bx) for ai in a.s_tilde for bx in b.s_tilde)
    twists = tuple(t * u for t in a.twists for u in b.twists)
    return ModularData(rank=a.rank * b.rank, s_tilde=s_tilde, twists=twists)


def relabel(md, perm):
    """The data with position i holding old label perm[i], without provenance."""
    s = tuple(tuple(md.s_tilde[perm[i]][perm[j]] for j in range(md.rank))
              for i in range(md.rank))
    return ModularData(rank=md.rank, s_tilde=s, twists=tuple(md.twists[p] for p in perm))


def fresh(md):
    """The same data without provenance or cached values."""
    return ModularData(rank=md.rank, s_tilde=md.s_tilde, twists=md.twists)


def with_twist_one(md):
    """Twist 1 set to 1: unitarity and fusion stay; (S~ T)^3 breaks for most data."""
    twists = (md.twists[0], ONE) + md.twists[2:]
    return ModularData(rank=md.rank, s_tilde=md.s_tilde, twists=twists)


def with_pair_one(md):
    """Entries (1, rank-1) and (rank-1, 1) set to 1: breaks unitarity."""
    rows = [list(row) for row in md.s_tilde]
    last = md.rank - 1
    rows[1][last] = rows[last][1] = ONE
    return ModularData(rank=md.rank, s_tilde=tuple(map(tuple, rows)), twists=md.twists)


def with_row_sign(md):
    """Row and column 1 multiplied by e(1/2): unitary, but d_1 = -1 breaks Verlinde."""
    minus = root_of_unity(Fraction(1, 2))
    rows = tuple(
        tuple(x * minus if (a == 1) != (b == 1) else x for b, x in enumerate(row))
        for a, row in enumerate(md.s_tilde))
    return ModularData(rank=md.rank, s_tilde=rows, twists=md.twists)
