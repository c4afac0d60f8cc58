import itertools
import random
import time
from fractions import Fraction

import pytest

import oracle
from pointedcat import (
    CorpusSpec,
    canonical_form,
    check_gram,
    classify,
    format_classification,
    from_lattice,
    generate_gram_matrices,
    root_of_unity,
)
from pointedcat import enumeration, lattice
from pointedcat.cyclo import format_root, format_rows, format_value
from pointedcat.enumeration import canonical_key
from pointedcat.lattice import pairing_exponents, root_token, table_tokens
from pointedcat.lattice import value_token
from pointedcat.errors import MAX_CANDIDATES, MAX_CANONICAL_RANK, MAX_RANK, ValidationError

# Corpus sizes frozen from the independent enumeration in tests/oracle.py.
FROZEN_COUNTS = {(2, 2): 38, (2, 3): 56, (2, 4): 212}


@pytest.fixture(scope="module")
def wide_corpus():
    return generate_gram_matrices(CorpusSpec(max_dim=3, max_entry=3, max_rank=4))


@pytest.fixture(scope="module")
def deep_corpus():
    return generate_gram_matrices(CorpusSpec(max_dim=2, max_entry=8, max_rank=8))


def signed_permutation(gram, perm, signs):
    """(DP)^t B (DP) by matrix products, for P e_j = e_perm[j] and D = diag(signs)."""
    n = gram.n
    m = [[signs[i] * (perm[j] == i) for j in range(n)] for i in range(n)]
    bm = [[sum(gram.entries[i][k] * m[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return check_gram([[sum(m[k][i] * bm[k][j] for k in range(n)) for j in range(n)]
                       for i in range(n)])


def random_image(gram, rng):
    perm = list(range(gram.n))
    rng.shuffle(perm)
    return signed_permutation(gram, perm, [rng.choice((1, -1)) for _ in perm])


@pytest.fixture(scope="module")
def mixed_corpus():
    """Dimensions 1-3, with exact repeats and signed permutations of earlier
    and later matrices, shuffled."""
    rng = random.Random(5)
    base = generate_gram_matrices(CorpusSpec(max_dim=2, max_entry=4, max_rank=8))
    base += rng.sample(generate_gram_matrices(CorpusSpec(max_dim=3, max_entry=2, max_rank=8)), 80)
    corpus = base + rng.sample(base, 40) + [random_image(g, rng) for g in rng.sample(base, 120)]
    rng.shuffle(corpus)
    return corpus


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

    @pytest.mark.parametrize("max_dim, max_entry",
                             [(1, 4), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1)])
    def test_solved_last_entry_matches_independent_enumeration(self, max_dim, max_entry):
        # det B = f det B' - v^T adj(B') v solved for f, against one cofactor
        # determinant per candidate; the grid has leading blocks B' with
        # det B' = 0 and with det B' < 0, and keeps matrices over both
        full = oracle.enumerate_even_symmetric(max_dim, max_entry)
        dets = [oracle.det_cofactor(b) for b in full]
        leading = {oracle.det_cofactor([row[:-1] for row in b[:-1]]) for b in full if len(b) > 1}
        if max_dim > 1:
            assert 0 in leading and min(leading) < 0
        # the default cap, MAX_RANK, keeps the whole grid
        assert max(map(abs, dets)) <= MAX_RANK
        for cap in (1, 2, 4, 8, MAX_RANK):
            corpus = generate_gram_matrices(CorpusSpec(max_dim, max_entry, cap))
            expected = [(b, d) for b, d in zip(full, dets) if abs(d) <= cap]
            assert [(g.entries, g.determinant) for g in corpus] == expected

    def test_one_determinant_per_leading_block_and_minor(self, monkeypatch):
        # wide bench corpus: det and three 1x1 minors for each of the 63 leading
        # 2x2 blocks, det for each of the 3 leading 1x1 blocks (one per
        # candidate, 9327, before the last entry was solved for)
        original = enumeration._det_bareiss
        calls = []
        monkeypatch.setattr(enumeration, "_det_bareiss",
                            lambda rows: calls.append(rows) or original(rows))
        corpus = generate_gram_matrices(CorpusSpec(max_dim=3, max_entry=3, max_rank=4))
        assert len(corpus) == 1666
        assert len(calls) == 63 * 4 + 3 <= 400

    def test_wide_entry_range_keeps_only_the_capped_diagonals(self):
        # 10^6 diagonal candidates, of which |det| <= 8 keeps 8, without
        # building the others
        start = time.perf_counter()
        corpus = generate_gram_matrices(CorpusSpec(max_dim=1, max_entry=999998, max_rank=8))
        assert time.perf_counter() - start < 1.0
        assert [g.entries for g in corpus] == [((f,),) for f in (-8, -6, -4, -2, 2, 4, 6, 8)]

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
        for max_dim, max_entry in ((0, 3), (1, 0)):
            with pytest.raises(ValidationError, match="^bounds must be positive$"):
                CorpusSpec(max_dim=max_dim, max_entry=max_entry)
        with pytest.raises(ValidationError, match="^max_rank must be positive$"):
            CorpusSpec(max_dim=1, max_entry=2, max_rank=0)
        with pytest.raises(ValidationError, match="^max_rank 513 exceeds the rank bound 512$"):
            CorpusSpec(max_dim=1, max_entry=2, max_rank=MAX_RANK + 1)

    def test_candidate_bound_edge_in_dimension_1(self):
        # |entry| <= 999999 has the even diagonals -999998..999998: 999999
        # candidates, within the bound; |entry| <= 10^6 has 1000001
        assert CorpusSpec(1, 999999).max_entry == 999999
        with pytest.raises(ValidationError, match="^1000001 candidate matrices up to "
                                                  "dimension 1 exceed the bound 1000000$"):
            CorpusSpec(1, 1000000)

    def test_candidate_bound(self, monkeypatch):
        # dim <= 3, |entry| <= 4: 5 + 5^2 9 + 5^3 9^3 = 91355 candidates, the
        # largest corpus in CI, exactly at a bound of 91355 and just over 91354
        CorpusSpec(max_dim=3, max_entry=4, max_rank=8)
        monkeypatch.setattr(enumeration, "MAX_CANDIDATES", 91355)
        CorpusSpec(max_dim=3, max_entry=4, max_rank=8)
        monkeypatch.setattr(enumeration, "MAX_CANDIDATES", 91354)
        with pytest.raises(ValidationError, match="91355 candidate matrices up to dimension 3"):
            CorpusSpec(max_dim=3, max_entry=4, max_rank=8)
        monkeypatch.undo()
        # dimension 6 alone has 3^15; the sum stops there, whatever max_dim is
        for max_dim in (6, 10 ** 9):
            with pytest.raises(ValidationError, match=f"14408716 candidate matrices up to "
                               f"dimension 6 exceed the bound {MAX_CANDIDATES}"):
                CorpusSpec(max_dim=max_dim, max_entry=1)


class TestClassify:
    def test_semion_chiralities(self):
        corpus = [check_gram([[2]]), check_gram([[-2]])]
        result = classify(corpus)
        assert len(dict(result)[2]) == 2

    def test_trivial_class(self):
        result = classify([check_gram([[0, 1], [1, 0]])])
        assert len(dict(result)[1]) == 1

    def test_rank_four_split(self):
        corpus = [check_gram([[0, 2], [2, 0]]), check_gram([[2, 0], [0, 2]])]
        result = classify(corpus)
        assert len(dict(result)[4]) == 2
        twist_sets = {cls.twist_multiset for cls in dict(result)[4]}
        assert ("e(0/1)", "e(0/1)", "e(0/1)", "e(1/2)") in twist_sets
        assert ("e(0/1)", "e(1/4)", "e(1/4)", "e(1/2)") in twist_sets

    def test_order_independent(self):
        spec = CorpusSpec(max_dim=2, max_entry=2, max_rank=8)
        corpus = generate_gram_matrices(spec)
        shuffled = list(corpus)
        random.Random(99).shuffle(shuffled)
        keys = lambda result: {
            rank: {cls.canonical for cls in classes}
            for rank, classes in result
        }
        assert keys(classify(corpus)) == keys(classify(shuffled))

    @pytest.mark.parametrize("name", [
        "deep", "wide", "wide shuffled", "wide reversed", "mixed with duplicates"])
    def test_table_cache_matches_per_matrix_loop(self, name, deep_corpus, wide_corpus,
                                                 mixed_corpus):
        # keys, witnesses and twist multisets, with one Smith form per
        # signed-permutation orbit and one canonical form per exponent table,
        # against both per matrix
        corpus = {"deep": deep_corpus, "wide": wide_corpus, "wide shuffled": wide_corpus,
                  "wide reversed": wide_corpus[::-1], "mixed with duplicates": mixed_corpus}
        corpus = list(corpus[name])
        if name == "wide shuffled":
            random.Random(7).shuffle(corpus)
        assert classify(corpus) == oracle.classify_each(corpus)

    def test_one_smith_form_per_orbit(self, deep_corpus, monkeypatch):
        def orbit(gram):
            return min(signed_permutation(gram, perm, signs).entries
                       for perm in itertools.permutations(range(gram.n))
                       for signs in itertools.product((1, -1), repeat=gram.n))

        firsts = {}
        for gram in deep_corpus:
            firsts.setdefault(orbit(gram), gram)
        original = lattice.discriminant_group
        calls = []
        monkeypatch.setattr(lattice, "discriminant_group",
                            lambda gram: calls.append(gram) or original(gram))
        classify(deep_corpus)
        assert calls == list(firsts.values()) and len(calls) == 67

    def test_signed_permutations_keep_the_class(self, deep_corpus, wide_corpus):
        rng = random.Random(11)
        for gram in rng.sample(deep_corpus, 30) + rng.sample(wide_corpus, 30):
            image = random_image(gram, rng)
            assert image.determinant == gram.determinant
            assert canonical_form(from_lattice(image)) == canonical_form(from_lattice(gram))

    def test_signed_permutation_by_hand(self):
        gram = check_gram([[2, 1, 0], [1, 4, -1], [0, -1, 6]])
        image = signed_permutation(gram, (2, 0, 1), (1, -1, 1))
        assert image.entries == ((6, 0, 1), (0, 2, -1), (1, -1, 4))

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_too_large_at_first_over_cap_matrix(self, seed):
        # every matrix has an equivalent one elsewhere in the corpus, before
        # or after it; the first over the cap in corpus order is named
        rng = random.Random(seed)
        corpus = [check_gram(b) for b in (
            [[2]], [[0, 1], [1, 0]], [[2, 1], [1, 2]], [[2, 1, 0], [1, 2, 0], [0, 0, 2]],
            [[2, 1], [1, -4]], [[2, 1], [1, 6]], [[4, 2], [2, -2]])]
        corpus += [random_image(g, rng) for g in corpus]
        rng.shuffle(corpus)
        cap = MAX_CANONICAL_RANK
        first = next(g for g in corpus if abs(g.determinant) > cap)
        with pytest.raises(ValidationError) as raised:
            classify(corpus)
        assert str(raised.value) == f"rank {abs(first.determinant)} exceeds the bound {cap}"
        # the per-matrix loop stops at the same matrix
        with pytest.raises(ValidationError) as each:
            oracle.classify_each(corpus)
        assert str(each.value) == str(raised.value)

    def test_idempotent(self):
        corpus = generate_gram_matrices(CorpusSpec(max_dim=1, max_entry=4))
        once = classify(corpus)
        twice = classify(corpus)
        assert once == twice

    def test_witness_reconstructs_key(self):
        corpus = generate_gram_matrices(CorpusSpec(max_dim=2, max_entry=2, max_rank=8))
        result = classify(corpus)
        for _, classes in result:
            for cls in classes:
                assert canonical_form(from_lattice(cls.witness)) == cls.canonical

    def test_class_counts_dim3_entry2(self):
        # Counts from the exhaustive (rank-1)! search over the same corpus.
        corpus = generate_gram_matrices(CorpusSpec(max_dim=3, max_entry=2, max_rank=8))
        assert len(corpus) == 1910
        result = classify(corpus)
        assert {rank: len(classes) for rank, classes in result} == \
            {1: 1, 2: 2, 3: 2, 4: 8, 5: 1, 6: 4, 8: 9}

    def test_direct_sum_respects_product_bound(self):
        b_list = [check_gram([[2]]), check_gram([[-2]])]
        corpus = list(b_list)
        for b1 in b_list:
            for b2 in b_list:
                corpus.append(oracle.direct_sum(b1, b2))
        result = classify(corpus)
        counts = {rank: len(classes) for rank, classes in result}
        assert counts[4] <= counts[2] * counts[2]


class TestCanonicalKey:
    """The refinement search on token tables, against the exhaustive search."""

    def test_ties_that_are_not_symmetries(self):
        # Labels 1, 3 and 4 give the same row at position 1; 1 and 4 are
        # swapped by a symmetry, 3 is not, and only 3 leads to the minimum.
        adjacency = ((1, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 1, 1, 0),
                     (0, 0, 1, 0, 0), (0, 1, 0, 0, 0))
        twists, rows = ["e(0/1)"] * 5, [[str(x) for x in row] for row in adjacency]
        key = oracle.canonical_form_exhaustive(twists, rows)
        assert canonical_key(twists, rows) == key
        perm = (0, 3, 2, 1, 4)  # position i holds label perm[i]
        assert canonical_key(twists, [[rows[i][j] for j in perm] for i in perm]) == key

    def test_token_that_extends_another_token(self):
        # "-1" is a prefix of v's token, and "-1," sorts after "-1*": label 2
        # must precede label 1, which comparing bare tokens gets wrong.
        v = format_value(-root_of_unity(Fraction(2, 5)) - root_of_unity(Fraction(3, 5)))
        assert v == "-1*e(2/5)+-1*e(3/5)"
        twists, rows = ["e(0/1)"] * 3, [["1", "-1", v], ["-1", "1", "1"], [v, "1", "1"]]
        key = canonical_key(twists, rows)
        assert key == oracle.canonical_form_exhaustive(twists, rows)
        assert key.startswith(b"twists:e(0/1),e(0/1),e(0/1)|s:1,-1*e(2/5)+-1*e(3/5),-1;")


class TestIntegerKey:
    """classify keys each exponent table by integers and tokens alone; that key
    must be canonical_form of the ModularData from_lattice builds from it."""

    def test_tokens_match_cyclo(self):
        for n in range(1, 65):
            for k in range(n):
                root = root_of_unity(Fraction(k, n))
                assert root_token(k, n) == format_root(root)
                assert value_token(k, n) == format_value(root)

    @pytest.mark.parametrize("spec", [(3, 4, 8), (2, 8, 8)])
    def test_table_key_is_canonical_form(self, spec, monkeypatch):
        # every orbit representative, that is every matrix classify takes the
        # Smith form of, and a seeded signed permutation of each
        original = lattice.discriminant_group
        firsts = []
        monkeypatch.setattr(lattice, "discriminant_group",
                            lambda gram: firsts.append(gram) or original(gram))
        classify(generate_gram_matrices(CorpusSpec(*spec)))
        monkeypatch.undo()
        assert len(firsts) == {(3, 4, 8): 751, (2, 8, 8): 67}[spec]

        def table_key(gram):
            return canonical_key(*table_tokens(*pairing_exponents(gram)))

        rng = random.Random(str(spec))
        for gram in firsts:
            # the data's table is printed by the same tokens, so compare with
            # its values formatted through cyclo
            md = from_lattice(gram)
            key = canonical_key([format_root(t) for t in md.twists], format_rows(md.s_tilde))
            assert canonical_form(md) == table_key(gram) == key
            assert table_key(random_image(gram, rng)) == key


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
