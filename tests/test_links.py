import random

import pytest

import oracle
from pointedcat import (
    ModularData,
    ValidationError,
    check_gram,
    colored_link_invariant,
    framed_link,
    parse,
    root_of_unity,
    serialize,
)
from pointedcat.links import link_exponent
from pointedcat.moddata import dual_permutation

HOPF = [[0, 1], [1, 0]]


class TestLinkValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            framed_link([[0, 1], [2, 0]], [0, 0])

    def test_color_count(self):
        with pytest.raises(ValidationError):
            framed_link(HOPF, [0])

    def test_color_range(self, semion):
        link = framed_link(HOPF, [0, 5])
        with pytest.raises(ValidationError):
            colored_link_invariant(semion, link)


class TestHopfLink:
    def test_semion_nontrivial_pair(self, semion):
        assert colored_link_invariant(semion, framed_link(HOPF, [1, 1])) == -1

    def test_reproduces_matrix(self, semion, toric, z3):
        for md in (semion, toric, z3):
            for i in range(md.rank):
                for j in range(md.rank):
                    value = colored_link_invariant(md, framed_link(HOPF, [i, j]))
                    assert value == md.s_tilde[i][j]

    def test_dual_color_conjugates(self, z3):
        conj = dual_permutation(z3)
        for i in range(z3.rank):
            for j in range(z3.rank):
                flipped = colored_link_invariant(z3, framed_link(HOPF, [conj[i], j]))
                plain = colored_link_invariant(z3, framed_link(HOPF, [i, j]))
                assert flipped == plain.conjugate()


class TestUnknots:
    def test_zero_framing_gives_dimension(self, semion, z3):
        for md in (semion, z3):
            for i in range(md.rank):
                assert colored_link_invariant(md, framed_link([[0]], [i])) == 1

    def test_unit_framing_gives_twist(self, semion, toric, z3):
        for md in (semion, toric, z3):
            for i in range(md.rank):
                assert colored_link_invariant(md, framed_link([[1]], [i])) == md.twists[i]

    def test_framing_powers_twist(self, z3):
        for i in range(z3.rank):
            for framing in range(-3, 4):
                expected = root_of_unity(framing * z3.twists[i].root_exponent())
                assert colored_link_invariant(z3, framed_link([[framing]], [i])) == expected

    def test_two_component_unlink(self, toric):
        for i in range(toric.rank):
            for j in range(toric.rank):
                value = colored_link_invariant(
                    toric, framed_link([[0, 0], [0, 0]], [i, j]))
                assert value == 1  # d_i * d_j for pointed data


class TestLargerLinks:
    def test_multiplicative_over_split_components(self, z3):
        # split union of two framed unknots = product of the single invariants
        rng = random.Random(3)
        for _ in range(20):
            f1, f2 = rng.randint(-2, 2), rng.randint(-2, 2)
            c1, c2 = rng.randrange(z3.rank), rng.randrange(z3.rank)
            split = framed_link([[f1, 0], [0, f2]], [c1, c2])
            product = (colored_link_invariant(z3, framed_link([[f1]], [c1]))
                       * colored_link_invariant(z3, framed_link([[f2]], [c2])))
            assert colored_link_invariant(z3, split) == product

    def test_empty_link_is_one(self, semion):
        assert colored_link_invariant(semion, framed_link([], [])) == 1

    def test_three_component_chain(self, toric):
        chain = framed_link([[0, 1, 0], [1, 0, 1], [0, 1, 0]], [1, 2, 3])
        value = colored_link_invariant(toric, chain)
        expected = (toric.s_tilde[1][2] * toric.s_tilde[2][3])
        assert value == expected


class TestFractionOracle:
    def test_random_links_on_corpus(self, corpus4_data):
        # e(sum_i L_ii q(v_i)/2 + sum_{i<j} L_ij b(v_i, v_j)) over the grid
        # representatives, on the built data and on its parsed document
        rng = random.Random(61)
        for gram, md in corpus4_data:
            rows = [list(r) for r in gram.entries]
            reps = oracle.brute_representatives(rows)
            parsed = parse(serialize(md))
            for _ in range(5):
                m = rng.randint(1, 3)
                linking = [[0] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i, m):
                        linking[i][j] = linking[j][i] = rng.randint(-3, 3)
                colors = [rng.randrange(md.rank) for _ in range(m)]
                v = [reps[c] for c in colors]
                expected = root_of_unity(sum(
                    linking[i][i] * oracle.quadratic_fraction(rows, v[i]) / 2
                    + sum(linking[i][j] * oracle.bilinear_fraction(rows, v[i], v[j])
                          for j in range(i + 1, m))
                    for i in range(m)))
                link = framed_link(linking, colors)
                assert colored_link_invariant(md, link) == expected, (gram, link)
                assert colored_link_invariant(parsed, link) == expected, (gram, link)


class TestProvenanceGuard:
    def test_generic_data_refused(self, semion):
        stripped = ModularData(rank=2, s_tilde=semion.s_tilde, twists=semion.twists)
        with pytest.raises(ValidationError, match="link invariants need lattice-constructed data"):
            colored_link_invariant(stripped, framed_link(HOPF, [0, 1]))

    def test_values_without_a_table_refused_under_a_provenance(self, su2):
        # SU(2)_2 has a quantum dimension sqrt(2), so it holds no exponent
        # table, whatever provenance it carries
        md = su2(2)
        carried = ModularData(md.rank, md.s_tilde, md.twists, check_gram([[2]]))
        for invariant in (colored_link_invariant, link_exponent):
            with pytest.raises(ValidationError,
                               match="link invariants need lattice-constructed data"):
                invariant(carried, framed_link(HOPF, [0, 1]))
