"""
A small classification landscape
================================

Enumerate every valid Gram matrix with dimension <= 2 and entries bounded
by 3, build the data of each, and count equivalence classes per rank.
Distinct matrices frequently give the same theory; the classes are what
remain after deduplicating by canonical form.
"""

from pointedcat import (
    CorpusSpec,
    classify,
    format_classification,
    generate_gram_matrices,
)

spec = CorpusSpec(max_dim=2, max_entry=3, max_rank=8)
corpus = generate_gram_matrices(spec)
print(f"{len(corpus)} matrices with dim <= {spec.max_dim}, "
      f"|entries| <= {spec.max_entry}, rank <= {spec.max_rank}\n")

by_rank = classify(corpus)
print(format_classification(by_rank))

total = sum(len(classes) for _, classes in by_rank)
print(f"{total} distinct theories in this window")
