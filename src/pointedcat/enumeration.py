"""Corpus generation, canonical forms and small-rank classification.

Generates every symmetric even-diagonal nonsingular integer matrix within
bounds, takes the integer exponent table of the pointed data of each, and
groups the tables by rank up to relabeling equivalence (canonical_key).
Class counts are emitted as data; nothing here asserts agreement with any
published table. Everything here is integer arithmetic on exponent tables
and their tokens, with no cyclo; lattice.table_tokens writes the tokens of a
table, here and for moddata.canonical_form, which calls canonical_key on the
tokens of a ModularData.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter, mul

from .errors import MAX_CANDIDATES, MAX_CANONICAL_RANK, MAX_RANK, ValidationError
from .lattice import GramMatrix, discriminant_group, format_gram, pairing_exponents
from .lattice import _det_bareiss, root_token, table_tokens
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

    Only the kept matrices are built. Write a candidate of dimension n >= 2 as
    B = [[B', v], [v^T, f]], with f = B[n-1][n-1]. Cofactor expansion along
    the last row and column gives det B = f det B' - v^T adj(B') v, so once
    det B' and adj(B') are known (once per distinct leading block B'), each
    prefix (every upper-triangle entry but f) fixes c = -v^T adj(B') v, and
    the even f in range with 0 < |det B' f + c| <= max_rank form one interval
    of even integers less the root of det B = 0, solved by exact floor and
    ceiling division. The last two entries of the row-major upper triangle
    are x = B[n-2][n-1] and f, so for v = (w, x) the loop runs over the
    entries before x, and then c = -(q0 + x (q1 + x q2)) with q0 = w^T adj w,
    q1 = 2 adj[n-2][:n-2] . w and q2 = adj[n-2][n-2] is a quadratic in x.
    Ascending x, then f, keeps the order above. The kept matrices are
    symmetric and even by construction, so need no check_gram.
    """
    even = spec.max_entry - spec.max_entry % 2
    cap = spec.max_rank
    bound = min(even, cap - cap % 2)  # dimension 1: [[f]] with f even and 0 < |f| <= cap
    out = [GramMatrix(((f,),), f) for f in range(-bound, bound + 1, 2) if f]
    entry_range = range(-spec.max_entry, spec.max_entry + 1)
    for n in range(2, spec.max_dim + 1):
        m = n - 1
        outer = [(i, j) for i in range(n) for j in range(i, n)][:-2]
        block_at = [k for k, (i, j) in enumerate(outer) if j < m]
        w_at = [k for k, (i, j) in enumerate(outer) if j == m]
        ranges = [range(-even, even + 1, 2) if i == j else entry_range for i, j in outer]
        blocks = {}
        for combo in itertools.product(*ranges):
            key = tuple([combo[k] for k in block_at])
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = _leading_block(key, m)
            rows, det, adj = block
            w = [combo[k] for k in w_at]
            q0 = sum([a * sum(map(mul, row, w)) for a, row in zip(w, adj)])
            q1 = 2 * sum(map(mul, adj[m - 1], w))
            q2 = adj[m - 1][m - 1]
            head = tuple([(*row, a) for row, a in zip(rows, w)])
            for x in entry_range:
                c = -(q0 + x * (q1 + x * q2))
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
                top = (*head, (*rows[m - 1], x))
                for f in range(lo, hi + 1, 2):
                    d = det * f + c
                    if d:
                        out.append(GramMatrix((*top, (*w, x, f)), d))
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


def canonical_key(twist_tok: list[str], s_tok: list[list[str]]) -> bytes:
    """Lexicographically minimal serialization ``twists:...|s:...`` of a token
    table (twist tokens, S~ entry tokens) over all relabelings that fix the
    tensor unit.

    The minimum is found by ordered-partition refinement (McKay, "Practical graph
    isomorphism", 1981): labels start in classes of sorted twist, and each
    position is filled by every label of its class whose row, with the
    classes split by that row, is least; only ties branch. Every symmetry
    of the data that fixes the unit still gets its own branch, and the
    symmetries can number up to (rank-1)!: three toric codes (rank 64, 40320
    symmetries) take minutes. The rank bound keeps that cost bounded.
    """
    rank = len(twist_tok)
    if rank > MAX_CANONICAL_RANK:
        raise ValidationError(f"rank {rank} exceeds the bound {MAX_CANONICAL_RANK}")
    start = [[0], *_split([list(range(1, rank))], twist_tok)]
    best_rows = None
    # Each entry: labels placed in the first positions, the cells that fill
    # the rest in order, and the row string of each placed label.
    stack = [([], start, [])]
    while stack:
        placed, cells, rows = stack.pop()
        if not cells:
            if best_rows is None or rows < best_rows:
                best_rows = rows
            continue
        first, rest = cells[0], cells[1:]
        options = []
        for x in first:
            refined = _split([[y for y in first if y != x], *rest], s_tok[x])
            order = placed + [x] + [y for cell in refined for y in cell]
            row = ",".join(s_tok[x][y] for y in order) + (";" if refined else "")
            options.append((row, x, refined))
        rows = rows + [min(option[0] for option in options)]
        if best_rows is not None and rows > best_rows[:len(rows)]:
            continue
        stack.extend((placed + [x], refined, rows)
                     for row, x, refined in options if row == rows[-1])
    # every leaf keeps the order of the twist classes
    twists = ",".join(twist_tok[x] for cell in start for x in cell)
    return f"twists:{twists}|s:{''.join(best_rows)}".encode("ascii")


def _split(cells, tokens):
    """Split each cell into runs of equal token, ordered by token + ','.

    A token can be a prefix of another ("-1" and "-1*e(2/5)+..."); inside a
    row each token is followed by ',', so that is the order of the key.
    """
    out = []
    for cell in cells:
        runs = {}
        for x in cell:
            runs.setdefault(tokens[x], []).append(x)
        out.extend(runs[token] for token in sorted(runs, key=lambda token: token + ","))
    return out


@lru_cache(maxsize=None)
def _orbit_tables(n: int):
    """Getters of dimension n, made once, on the row-major entries of B
    followed by their negations: the upper triangle of B, and the upper
    triangle of every (DP)^T B (DP), for P a permutation and D = diag(+-1),
    whose entry (i, j) is d_i d_j B[p_i][p_j]. D and -D give the same image,
    so d_0 = 1. (For n = 1 a getter returns the one entry, not a 1-tuple,
    which keys the same.)"""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    images = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n - 1):
            signs = (1, *signs)
            images.append(itemgetter(*[perm[i] * n + perm[j] + (signs[i] != signs[j]) * n * n
                                       for i, j in pairs]))
    return itemgetter(*[i * n + j for i, j in pairs]), images


def classify(corpus) -> tuple[tuple[int, tuple[ModularClass, ...]], ...]:
    """Group the pointed data of a corpus by rank, deduplicated by canonical
    key: one (rank, classes) pair per rank, ascending, each class list sorted
    by key.

    The class sets are independent of corpus order; witnesses are the first
    matrix (in the given order) realizing each class. The key of a class is
    canonical_key of the tokens of its exponent table (n, s, t)
    (lattice.table_tokens), integers and tokens only, and its twist multiset
    is sorted(t) tokenized the same way.

    Two skips keep the result byte-identical to one canonical key per matrix:

    - A matrix that is a signed permutation (DP)^T B (DP) of an earlier one
      is skipped before its Smith form. The two have isometric discriminant
      forms (Conway-Sloane, SPLAG ch. 15; Nikulin 1979), so the same class,
      and the same determinant, so the same rank. The earlier matrix comes
      first, so it stays the witness of that class, and if the rank is over
      MAX_CANONICAL_RANK the call has already raised there. Each image is
      one getter call (_orbit_tables).
    - canonical_key runs on the first matrix of each exponent table only:
      the key is a function of the table. The rank is len(t), so the first
      matrix over MAX_CANONICAL_RANK is first with its table. Different
      orbits often share a table (the 212 matrices of dimension <= 2 and
      |entry| <= 8 fall in 67 orbits, whose first matrices have 41 tables),
      so this skip saves keys the first cannot.
    """
    buckets: dict[int, dict[bytes, ModularClass]] = {}
    seen = set()
    tables = set()
    for gram in corpus:
        upper, images = _orbit_tables(gram.n)
        entries = tuple(itertools.chain.from_iterable(gram.entries))
        if upper(entries) in seen:
            continue
        entries += tuple([-x for x in entries])
        seen.update([image(entries) for image in images])
        table = pairing_exponents(gram, discriminant_group(gram))
        if table in tables:
            continue
        tables.add(table)
        n, _, t = table
        key = canonical_key(*table_tokens(*table))
        bucket = buckets.setdefault(len(t), {})
        if key not in bucket:
            bucket[key] = ModularClass(key, gram, tuple(root_token(k, 2 * n) for k in sorted(t)))
    return tuple((rank, tuple(bucket[key] for key in sorted(bucket)))
                 for rank, bucket in sorted(buckets.items()))


def corpus_report(max_dim: int, max_entry: int, max_rank: int) -> str:
    """The text of CLI enumerate: the size of the corpus within the bounds
    (CorpusSpec), then its classes by rank (format_classification). A rank
    cap past MAX_CANONICAL_RANK is refused before the corpus is generated."""
    spec = CorpusSpec(max_dim=max_dim, max_entry=max_entry, max_rank=max_rank)
    if max_rank > MAX_CANONICAL_RANK:
        raise ValidationError(
            f"rank cap {max_rank} exceeds the relabeling bound {MAX_CANONICAL_RANK}")
    corpus = generate_gram_matrices(spec)
    return f"corpus: {len(corpus)} matrices\n" + format_classification(classify(corpus))


def format_classification(by_rank) -> str:
    """Plain-text classification table of classify's (rank, classes) pairs:
    rank, class count, witnesses, twists."""
    lines = ["rank  classes"]
    for rank, classes in by_rank:
        lines.append(f"{rank:<5} {len(classes)}")
        for idx, cls in enumerate(classes, start=1):
            twists = ",".join(cls.twist_multiset)
            lines.append(f"    class {idx}: twists {twists}  witness [{format_gram(cls.witness)}]")
    return "\n".join(lines) + "\n"
