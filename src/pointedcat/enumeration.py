"""Corpus generation and small-rank classification.

Generates every symmetric even-diagonal nonsingular integer matrix within
bounds, constructs the pointed data of each, and groups the results by rank
up to relabeling equivalence (canonical_form). Class counts are emitted as
data; nothing here asserts agreement with any published table.
"""

from __future__ import annotations

import itertools
from operator import mul

from .cyclo import Cyclotomic, format_root
from .errors import MAX_CANDIDATES, MAX_RANK, ValidationError
from .lattice import GramMatrix, discriminant_group, format_gram, pairing_exponents
from .lattice import _det_bareiss
from .moddata import canonical_form, from_lattice
from .record import record


@record
class CorpusSpec:
    """Finite, deterministic generation bounds; ValidationError outside them."""

    max_dim: int
    max_entry: int
    max_rank: int = MAX_RANK

    def __post_init__(self):
        if self.max_dim < 1 or self.max_entry < 1:
            raise ValidationError("bounds must be positive")
        if self.max_rank < 1:
            raise ValidationError("max_rank must be positive when set")
        if self.max_rank > MAX_RANK:
            raise ValidationError(f"max_rank {self.max_rank} exceeds the rank bound {MAX_RANK}")
        # dimension n has (e + 1)^n even diagonals, |d| <= e, and (2 max_entry + 1)
        # choices for each of its n(n-1)/2 off-diagonal entries
        even = self.max_entry - self.max_entry % 2
        candidates = 0
        for n in range(1, self.max_dim + 1):
            candidates += (even + 1) ** n * (2 * self.max_entry + 1) ** (n * (n - 1) // 2)
            if candidates > MAX_CANDIDATES:
                raise ValidationError(f"{candidates} candidate matrices up to dimension {n} "
                                      f"exceed the bound {MAX_CANDIDATES}")


def generate_gram_matrices(spec: CorpusSpec) -> list[GramMatrix]:
    """All valid construction inputs within bounds.

    Ordered by dimension, then lexicographically by row-major entries (which
    coincides with lexicographic order on the upper triangle read row-wise).

    Only the kept matrices are built. Write a candidate of dimension n as
    B = [[B', v], [v^T, f]], with f = B[n-1][n-1]. Cofactor expansion along
    the last row and column gives det B = f det B' - v^T adj(B') v, so once
    det B' and adj(B') are known (once per distinct leading block B'), each
    prefix (every upper-triangle entry but f) fixes c = -v^T adj(B') v, and
    the even f in range with 0 < |det B' f + c| <= max_rank form one interval
    of even integers less the root of det B = 0, solved by exact floor and
    ceiling division. f is the last entry of the row-major upper triangle,
    so ascending f within each prefix keeps the order above. The kept
    matrices are symmetric and even by construction, so need no check_gram.
    """
    even = spec.max_entry - spec.max_entry % 2
    cap = spec.max_rank
    out = []
    for n in range(1, spec.max_dim + 1):
        m = n - 1
        prefix = [(i, j) for i in range(n) for j in range(i, n)][:-1]
        block_at = [k for k, (i, j) in enumerate(prefix) if j < m]
        v_at = [k for k, (i, j) in enumerate(prefix) if j == m]
        ranges = [range(-even, even + 1, 2) if i == j
                  else range(-spec.max_entry, spec.max_entry + 1) for i, j in prefix]
        blocks = {}
        for combo in itertools.product(*ranges):
            key = tuple([combo[k] for k in block_at])
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = _leading_block(key, m)
            rows, det, adj = block
            v = [combo[k] for k in v_at]
            c = -sum([x * sum(map(mul, row, v)) for x, row in zip(v, adj)])
            lo, hi = -even, even
            if not det:
                if not c or abs(c) > cap:
                    continue  # det B = c for every f
            else:
                # -cap <= det f + c <= cap, with the sign of det made positive
                size, shift = (det, c) if det > 0 else (-det, -c)
                lo = max(lo, -((cap + shift) // size))
                hi = min(hi, (cap - shift) // size)
            lo += lo % 2
            if lo > hi:
                continue
            head = tuple([(*row, x) for row, x in zip(rows, v)])
            for f in range(lo, hi + 1, 2):
                d = det * f + c
                if d:
                    out.append(GramMatrix((*head, (*v, f)), d))
    return out


def _leading_block(upper, m):
    """(rows, det, adjugate) of the symmetric m x m matrix with this row-major
    upper triangle; adj[i][j] = (-1)^(i+j) det(B with row j and column i removed)."""
    rows = [[0] * m for _ in range(m)]
    for (i, j), x in zip([(i, j) for i in range(m) for j in range(i, m)], upper):
        rows[i][j] = rows[j][i] = x

    def det(matrix):
        return _det_bareiss(matrix) if matrix else 1

    adj = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(rows) if k != j]
            adj[i][j] = adj[j][i] = (-1) ** (i + j) * det(minor)
    return tuple(map(tuple, rows)), det(rows), adj


@record
class ModularClass:
    """One equivalence class: canonical key, first witness, twist multiset."""

    canonical: bytes
    witness: GramMatrix
    twist_multiset: tuple[str, ...]


@record
class ClassificationResult:
    by_rank: tuple[tuple[int, tuple[ModularClass, ...]], ...]

    def classes(self, rank: int) -> tuple[ModularClass, ...]:
        for r, cs in self.by_rank:
            if r == rank:
                return cs
        return ()

    def class_count(self, rank: int) -> int:
        return len(self.classes(rank))


def _upper_triangle(entries) -> tuple[int, ...]:
    return tuple(x for i, row in enumerate(entries) for x in row[i:])


def _signed_permutations(entries):
    """The upper triangle of every (DP)^T B (DP), for P a permutation and
    D = diag(+-1): entry (i, j) is d_i d_j B[p_i][p_j]. D and -D give the same
    image, so d_0 = 1."""
    n = len(entries)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for perm in itertools.permutations(range(n)):
        upper = [entries[perm[i]][perm[j]] for i, j in pairs]
        for signs in itertools.product((1, -1), repeat=n - 1):
            signs = (1, *signs)
            yield tuple(signs[i] * signs[j] * x for (i, j), x in zip(pairs, upper))


def classify(corpus) -> ClassificationResult:
    """Group the pointed data of a corpus by rank, deduplicated by canonical form.

    The class sets are independent of corpus order; witnesses are the first
    matrix (in the given order) realizing each class.

    Two skips keep the result byte-identical to one canonical form per matrix:

    - A matrix that is a signed permutation (DP)^T B (DP) of an earlier one
      is skipped before its Smith form. The two have isometric discriminant
      forms (Conway-Sloane, SPLAG ch. 15; Nikulin 1979), so the same class,
      and the same determinant, so the same rank. The earlier matrix comes
      first, so it stays the witness of that class, and if the rank is over
      MAX_CANONICAL_RANK the call has already raised there.
    - from_lattice and canonical_form run on the first matrix of each exponent
      table (n, s, t) only. This is exact: from_lattice builds e(s[i][j]/n) and
      e(t[i]/2n) from that table, and canonical_form reads only their tokens.
      The rank is len(t), so the first matrix over MAX_CANONICAL_RANK is
      first with its table. Different orbits often share a table (the 212
      matrices of dimension <= 2 and |entry| <= 8 fall in 67 orbits, whose
      first matrices have 41 tables), so this skip saves canonical forms the
      first cannot.
    """
    buckets: dict[int, dict[bytes, ModularClass]] = {}
    seen = set()
    tables = set()
    for gram in corpus:
        if _upper_triangle(gram.entries) in seen:
            continue
        seen.update(_signed_permutations(gram.entries))
        group = discriminant_group(gram)
        table = pairing_exponents(gram, group)
        if table in tables:
            continue
        tables.add(table)
        md = from_lattice(gram, group)
        key = canonical_form(md)
        bucket = buckets.setdefault(md.rank, {})
        if key not in bucket:
            twists = tuple(map(format_root, sorted(md.twists, key=Cyclotomic.root_exponent)))
            bucket[key] = ModularClass(key, gram, twists)
    return ClassificationResult(tuple(
        (rank, tuple(bucket[key] for key in sorted(bucket)))
        for rank, bucket in sorted(buckets.items())
    ))


def format_classification(result: ClassificationResult) -> str:
    """Plain-text classification table: rank, class count, witnesses, twists."""
    lines = ["rank  classes"]
    for rank, classes in result.by_rank:
        lines.append(f"{rank:<5} {len(classes)}")
        for idx, cls in enumerate(classes, start=1):
            twists = ",".join(cls.twist_multiset)
            lines.append(f"    class {idx}: twists {twists}  witness [{format_gram(cls.witness)}]")
    return "\n".join(lines) + "\n"
