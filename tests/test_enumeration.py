import random

import pytest

import oracle
from pointedcat import (
    CorpusSpec,
    canonical_form,
    check_gram,
    classify,
    direct_sum,
    format_classification,
    from_lattice,
    generate_gram_matrices,
)
from pointedcat.errors import MAX_RANK

# Corpus sizes frozen from the independent enumeration in tests/oracle.py.
FROZEN_COUNTS = {(2, 2): 38, (2, 3): 56, (2, 4): 212}


@pytest.fixture(scope="module")
def wide_corpus():
    return generate_gram_matrices(CorpusSpec(max_dim=3, max_entry=3, max_rank=4))


class TestGeneration:
    def test_one_dimensional_small(self):
        corpus = generate_gram_matrices(CorpusSpec(max_dim=1, max_entry=2))
        assert [g.entries for g in corpus] == [((-2,),), ((2,),)]

    def test_one_dimensional_wider(self):
        corpus = generate_gram_matrices(CorpusSpec(max_dim=1, max_entry=4))
        assert [g.entries for g in corpus] == [((-4,),), ((-2,),), ((2,),), ((4,),)]

    @pytest.mark.parametrize("max_dim, max_entry", sorted(FROZEN_COUNTS))
    def test_frozen_counts(self, max_dim, max_entry):
        corpus = generate_gram_matrices(CorpusSpec(max_dim=max_dim, max_entry=max_entry))
        assert len(corpus) == FROZEN_COUNTS[(max_dim, max_entry)]

    def test_matches_independent_enumeration(self):
        corpus = generate_gram_matrices(CorpusSpec(max_dim=2, max_entry=3))
        assert [g.entries for g in corpus] == oracle.enumerate_even_symmetric(2, 3)

    def test_wide_corpus_matches_independent_enumeration(self, wide_corpus):
        # singular and over-cap candidates are dropped by determinant alone
        assert len(wide_corpus) == 1666
        assert [g.entries for g in wide_corpus] == oracle.enumerate_even_symmetric(3, 3, 4)

    def test_max_rank_cap(self):
        corpus = generate_gram_matrices(CorpusSpec(max_dim=2, max_entry=4, max_rank=6))
        assert corpus
        assert all(abs(g.determinant) <= 6 for g in corpus)

    def test_deterministic_order(self):
        spec = CorpusSpec(max_dim=2, max_entry=3)
        first = generate_gram_matrices(spec)
        second = generate_gram_matrices(spec)
        assert [g.entries for g in first] == [g.entries for g in second]

    def test_no_duplicates(self):
        corpus = generate_gram_matrices(CorpusSpec(max_dim=2, max_entry=4))
        assert len({g.entries for g in corpus}) == len(corpus)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            CorpusSpec(max_dim=0, max_entry=3)
        with pytest.raises(ValueError, match="exceeds the rank bound"):
            CorpusSpec(max_dim=1, max_entry=2, max_rank=MAX_RANK + 1)


class TestClassify:
    def test_semion_chiralities(self):
        corpus = [check_gram([[2]]), check_gram([[-2]])]
        result = classify(corpus)
        assert result.class_count(2) == 2

    def test_trivial_class(self):
        result = classify([check_gram([[0, 1], [1, 0]])])
        assert result.class_count(1) == 1

    def test_rank_four_split(self):
        corpus = [check_gram([[0, 2], [2, 0]]), check_gram([[2, 0], [0, 2]])]
        result = classify(corpus)
        assert result.class_count(4) == 2
        twist_sets = {cls.twist_multiset for cls in result.classes(4)}
        assert ("e(0/1)", "e(0/1)", "e(0/1)", "e(1/2)") in twist_sets
        assert ("e(0/1)", "e(1/4)", "e(1/4)", "e(1/2)") in twist_sets

    def test_order_independent(self):
        spec = CorpusSpec(max_dim=2, max_entry=2, max_rank=8)
        corpus = generate_gram_matrices(spec)
        shuffled = list(corpus)
        random.Random(99).shuffle(shuffled)
        keys = lambda result: {
            rank: {cls.canonical for cls in classes}
            for rank, classes in result.by_rank
        }
        assert keys(classify(corpus)) == keys(classify(shuffled))

    @pytest.mark.parametrize("name", ["deep", "wide", "wide shuffled"])
    def test_table_cache_matches_per_matrix_loop(self, name, wide_corpus):
        # keys, witnesses and twist multisets, with one canonical form per
        # exponent table against one per matrix
        if name == "deep":
            corpus = generate_gram_matrices(CorpusSpec(max_dim=2, max_entry=8, max_rank=8))
        else:
            corpus = list(wide_corpus)
        if name == "wide shuffled":
            random.Random(7).shuffle(corpus)
        assert classify(corpus) == oracle.classify_each(corpus)

    def test_idempotent(self):
        corpus = generate_gram_matrices(CorpusSpec(max_dim=1, max_entry=4))
        once = classify(corpus)
        twice = classify(corpus)
        assert once == twice

    def test_witness_reconstructs_key(self):
        corpus = generate_gram_matrices(CorpusSpec(max_dim=2, max_entry=2, max_rank=8))
        result = classify(corpus)
        for _, classes in result.by_rank:
            for cls in classes:
                assert canonical_form(from_lattice(cls.witness)) == cls.canonical

    def test_class_counts_dim3_entry2(self):
        # Counts from the exhaustive (rank-1)! search over the same corpus.
        corpus = generate_gram_matrices(CorpusSpec(max_dim=3, max_entry=2, max_rank=8))
        assert len(corpus) == 1910
        result = classify(corpus)
        assert {rank: len(classes) for rank, classes in result.by_rank} == \
            {1: 1, 2: 2, 3: 2, 4: 8, 5: 1, 6: 4, 8: 9}

    def test_direct_sum_respects_product_bound(self):
        b_list = [check_gram([[2]]), check_gram([[-2]])]
        corpus = list(b_list)
        for b1 in b_list:
            for b2 in b_list:
                corpus.append(direct_sum(b1, b2))
        result = classify(corpus)
        base = result.class_count(2)
        assert result.class_count(4) <= base * base


class TestReportTable:
    def test_format_contains_counts_and_witness(self):
        corpus = [check_gram([[2]]), check_gram([[-2]])]
        text = format_classification(classify(corpus))
        assert text.startswith("rank  classes\n")
        assert "2     2" in text
        assert "witness [2]" in text and "witness [-2]" in text
        assert "e(0/1),e(1/4)" in text

    def test_format_deterministic(self):
        corpus = generate_gram_matrices(CorpusSpec(max_dim=2, max_entry=2, max_rank=8))
        assert format_classification(classify(corpus)) == \
            format_classification(classify(corpus))
