"""Integer-matrix algebra for the lattice construction input.

Validates even symmetric Gram matrices, computes the Smith normal form with
its unimodular column transform over exact big integers, and enumerates
discriminant group representatives, with their bilinear (mod 1) and
quadratic (mod 2) forms from the Gram matrix alone (pairing_exponents). A
class v is stored as its integer numerator u = n*v over the group exponent
n, so both forms are integer arithmetic.
The roots of unity of those forms print from their exponents here, in the
text that cyclo prints for the same values: table_tokens is the one writer of
the twist and S~ tokens of an exponent table, which CLI construct writes with
no moddata, and show prints with no rank^2 values.
"""

import itertools
from collections import namedtuple
from math import gcd, prod
from operator import mul

from .errors import MAX_GRAM_DIM, MAX_RANK, ValidationError


class GramMatrix(namedtuple("GramMatrix", "entries determinant")):
    """Validated symmetric, even, nonsingular integer matrix."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.entries)


def format_gram(gram: GramMatrix) -> str:
    """One-line form: entries joined by spaces, rows by '; '."""
    return "; ".join(" ".join(str(x) for x in row) for row in gram.entries)


def _det_bareiss(rows: list[list[int]]) -> int:
    # Fraction-free Gaussian elimination; exact for arbitrary integer size.
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def check_gram(entries) -> GramMatrix:
    """Validate a square integer matrix as a construction input: ValidationError
    unless it is nonempty, square, of dimension at most MAX_GRAM_DIM, symmetric
    (an asymmetric matrix would give an asymmetric pairing), even on the
    diagonal and nonsingular."""
    rows = [list(map(int, row)) for row in entries]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValidationError("expected a nonempty square integer matrix")
    if n > MAX_GRAM_DIM:
        raise ValidationError(f"dimension {n} exceeds the Gram dimension bound {MAX_GRAM_DIM}")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValidationError(f"entries ({i},{j}) and ({j},{i}) differ")
    for i in range(n):
        if rows[i][i] % 2:
            raise ValidationError(f"diagonal entry ({i},{i}) = {rows[i][i]} is odd")
    det = _det_bareiss(rows)
    if det == 0:
        raise ValidationError("matrix has determinant 0")
    return GramMatrix(tuple(tuple(row) for row in rows), det)


def smith_normal_form(gram: GramMatrix):
    """Exact Smith normal form, pivoting on the minimal nonzero absolute value:
    (v, diag) with U * B * V = diag(d_1, ..., d_n), d_1 | d_2 | ..., for
    unimodular U and V. Only V is formed: the discriminant group reads
    nothing else."""
    n = gram.n
    a = [list(row) for row in gram.entries]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):
        # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_sub(i, j, q):
        # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    for t in range(n):
        while True:
            pivot = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            assert pivot is not None, "nonsingular input cannot have a zero block"
            if pivot[0] != t:
                a[t], a[pivot[0]] = a[pivot[0]], a[t]
            if pivot[1] != t:
                swap_cols(t, pivot[1])
            p = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // p)
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, n):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // p)
                    dirty = dirty or a[t][j] != 0
            if dirty:
                continue
            offender = next(
                ((i, j) for i in range(t + 1, n) for j in range(t + 1, n) if a[i][j] % p),
                None,
            )
            if offender is None:
                break
            row_sub(t, offender[0], -1)  # drag a non-multiple into the work row
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

    return tuple(map(tuple, v)), tuple(a[i][i] for i in range(n))


def check_rank_bound(gram: GramMatrix) -> None:
    """ValidationError when |det B|, the rank of the lattice's data, exceeds MAX_RANK."""
    det = abs(gram.determinant)
    if det > MAX_RANK:  # compared first, so no determinant of thousands of digits is printed
        shown = f"= {det}" if det < 10 ** 40 else "has more than 40 digits and"
        raise ValidationError(f"|det B| {shown} exceeds the rank bound {MAX_RANK}")


def discriminant_group(gram: GramMatrix):
    """(exponent, representatives) of B^{-1}Z^n / Z^n via the Smith form: class
    v as the integer numerator u = exponent * v, entries in [0, exponent), the
    exponent the last invariant factor (1 for the trivial group), sorted with
    the zero vector first; all indices elsewhere in the package refer to this
    order. Raises ValidationError when |det B| exceeds MAX_RANK (check_rank_bound)."""
    check_rank_bound(gram)
    v, diag = smith_normal_form(gram)
    # Class combo is V * (combo_j / d_j)_j mod 1; over the exponent e = d_n
    # (every d_j divides it) each coordinate is one integer numerator.
    e = diag[-1]
    steps = [[x * (e // d) for x, d in zip(row, diag)] for row in v]
    reps = set()
    for combo in itertools.product(*(range(d) for d in diag)):
        reps.add(tuple(sum(map(mul, row, combo)) % e for row in steps))
    assert len(reps) == prod(diag) == abs(gram.determinant)
    return e, tuple(sorted(reps))


def _image(gram: GramMatrix, u, n: int) -> tuple[int, ...]:
    # B*u/n, which is integral exactly when u/n is in B^{-1}Z^n
    image = [sum(map(mul, row, u)) for row in gram.entries]
    if any(x % n for x in image):
        raise ValidationError(f"B*{tuple(u)} is not divisible by {n}")
    return tuple(x // n for x in image)


def quadratic_mod2(gram: GramMatrix, u, n: int) -> int:
    """n * (v^t B v mod 2) for v = u/n, that is u.Bu/n mod 2n: an integer,
    well-defined because B is even and B*u is divisible by n."""
    return sum(map(mul, u, _image(gram, u, n))) % (2 * n)


def pairing_exponents(gram: GramMatrix):
    """Both forms on every pair of representatives of discriminant_group(gram),
    as integers over its exponent n.

    Returns (n, s, t) with <v_i, v_j> = s[i][j]/n mod 1 and
    v_i^t B v_i / 2 = t[i]/(2n) mod 1. Since n*v_i = u_i and B*v_j are
    integral, n <v_i, v_j> = u_i . B v_j is an integer dot product.
    """
    n, us = discriminant_group(gram)
    images = [_image(gram, u, n) for u in us]
    t = tuple(sum(map(mul, u, image)) % (2 * n) for u, image in zip(us, images))
    s = [[0] * len(us) for _ in us]
    for i, u in enumerate(us):
        s[i][i] = t[i] % n
        for j in range(i + 1, len(us)):
            s[i][j] = s[j][i] = sum(map(mul, u, images[j])) % n
    return n, tuple(map(tuple, s)), t


def root_token(k: int, n: int) -> str:
    """e(k/n) for 0 <= k < n as cyclo.format_root prints it: e(a/b) in lowest terms."""
    g = gcd(k, n)
    return f"e({k // g}/{n // g})"


def value_token(k: int, n: int) -> str:
    """e(k/n) for 0 <= k < n as cyclo.format_value prints it: the rational
    roots 1 and -1 bare, every other root as root_token."""
    if k == 0:
        return "1"
    return "-1" if 2 * k == n else root_token(k, n)


def table_tokens(n: int, s, t) -> tuple[list[str], list[list[str]]]:
    """The tokens of an exponent table (n, s, t): the twists e(t[a]/2n) by
    root_token and the S~ rows e(s[i][j]/n) by value_token, each distinct
    S~ exponent printed once."""
    tokens = {k: value_token(k, n) for k in set().union(*s)}
    return [root_token(k, 2 * n) for k in t], [list(map(tokens.__getitem__, row)) for row in s]
