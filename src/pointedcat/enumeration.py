"""Corpus generation and small-rank classification.

Generates every symmetric even-diagonal nonsingular integer matrix within
bounds, constructs the pointed data of each, and groups the results by rank
up to relabeling equivalence (canonical_form). Class counts are emitted as
data; nothing here asserts agreement with any published table.
"""

from __future__ import annotations

import itertools

from .cyclo import Cyclotomic, format_root
from .errors import MAX_CANONICAL_RANK, MAX_RANK
from .lattice import GramMatrix, discriminant_group, format_gram, pairing_exponents
from .lattice import _det_bareiss
from .moddata import canonical_form, from_lattice
from .record import record


@record
class CorpusSpec:
    """Finite, deterministic generation bounds."""

    max_dim: int
    max_entry: int
    max_rank: int | None = None

    def __post_init__(self):
        if self.max_dim < 1 or self.max_entry < 1:
            raise ValueError("bounds must be positive")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be positive when set")
        if self.max_rank is not None and self.max_rank > MAX_RANK:
            raise ValueError(f"max_rank {self.max_rank} exceeds the rank bound {MAX_RANK}")


def generate_gram_matrices(spec: CorpusSpec) -> list[GramMatrix]:
    """All valid construction inputs within bounds.

    Ordered by dimension, then lexicographically by row-major entries (which
    coincides with lexicographic order on the upper triangle read row-wise).
    Singular matrices, and |det| > max_rank when set, are skipped by determinant;
    the rest are symmetric and even by construction, so need no check_gram.
    """
    out = []
    for n in range(1, spec.max_dim + 1):
        positions = [(i, j) for i in range(n) for j in range(i, n)]
        even_bound = spec.max_entry - (spec.max_entry % 2)
        ranges = [
            range(-even_bound, even_bound + 1, 2) if i == j
            else range(-spec.max_entry, spec.max_entry + 1)
            for (i, j) in positions
        ]
        for combo in itertools.product(*ranges):
            rows = [[0] * n for _ in range(n)]
            for (i, j), value in zip(positions, combo):
                rows[i][j] = value
                rows[j][i] = value
            det = _det_bareiss(rows)
            if det == 0 or spec.max_rank is not None and abs(det) > spec.max_rank:
                continue
            out.append(GramMatrix(tuple(map(tuple, rows)), det))
    return out


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


def classify(corpus, max_rank: int = MAX_CANONICAL_RANK) -> ClassificationResult:
    """Group the pointed data of a corpus by rank, deduplicated by canonical form.

    The class sets are independent of corpus order; witnesses are the first
    matrix (in the given order) realizing each class.

    from_lattice and canonical_form run on the first matrix of each exponent
    table (n, s, t) only. This is exact: from_lattice builds e(s[i][j]/n) and
    e(t[i]/2n) from that table, and canonical_form reads only their tokens.
    The rank is len(t), so the first matrix over max_rank is first with its table.
    """
    buckets: dict[int, dict[bytes, ModularClass]] = {}
    tables = set()
    for gram in corpus:
        group = discriminant_group(gram)
        table = pairing_exponents(gram, group)
        if table in tables:
            continue
        tables.add(table)
        md = from_lattice(gram, group)
        key = canonical_form(md, max_rank=max_rank)
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
