import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pointedcat.errors import ValidationError
from pointedcat.lattice import (
    _det_bareiss,
    check_gram,
    discriminant_group,
    pairing_exponents,
    quadratic_mod2,
    smith_normal_form,
    table_tokens,
)

SMALL_MATRICES = [
    [[2]], [[-2]], [[4]], [[2, 1], [1, 2]], [[0, 2], [2, 0]],
    [[2, 3], [3, 2]], [[4, 1], [1, -2]], [[-2, 1], [1, -2]],
    [[2, 0, 1], [0, 2, 1], [1, 1, 4]],
]


def _random_gram(rng, max_dim=4, max_entry=4):
    while True:
        n = rng.randint(1, max_dim)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 2 * rng.randint(-max_entry // 2, max_entry // 2)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(-max_entry, max_entry)
        if _det_bareiss(rows) != 0:
            return rows


def _matmul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


class TestCheckGram:
    def test_minimal_valid(self):
        gram = check_gram([[2]])
        assert gram.n == 1 and gram.determinant == 2

    def test_odd_diagonal(self):
        with pytest.raises(ValidationError, match=re.escape("diagonal entry (0,0) = 1 is odd")):
            check_gram([[1]])

    def test_not_symmetric(self):
        with pytest.raises(ValidationError, match=re.escape("entries (0,1) and (1,0) differ")):
            check_gram([[2, 1], [0, 2]])

    def test_singular(self):
        with pytest.raises(ValidationError, match="matrix has determinant 0"):
            check_gram([[2, 2], [2, 2]])

    def test_non_square(self):
        for rows in ([[2, 0]], [], [[2, 0], [0]]):
            with pytest.raises(ValidationError, match="expected a nonempty square integer matrix"):
                check_gram(rows)

    def test_determinant_matches_cofactor_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            rows = _random_gram(rng)
            assert check_gram(rows).determinant == oracle.det_cofactor(rows)


class TestSmithNormalForm:
    @pytest.mark.parametrize("rows, diag", [
        ([[2]], (2,)),
        ([[2, 1], [1, 2]], (1, 3)),      # gcd 1 pivot, |det| 3
        ([[0, 2], [2, 0]], (2, 2)),      # gcd 2 pivot, |det| 4
    ])
    def test_examples(self, rows, diag):
        assert smith_normal_form(check_gram(rows))[1] == diag

    def test_properties_random(self):
        rng = random.Random(23)
        for _ in range(200):
            rows = _random_gram(rng)
            gram = check_gram(rows)
            v, diag = smith_normal_form(gram)
            v = [list(r) for r in v]
            # U B V = D for a unimodular U exactly when B V = U^-1 D: column j
            # of B V is d_j times column j of a matrix W = U^-1 with det +-1
            product = _matmul([list(r) for r in gram.entries], v)
            assert all(x % d == 0 for row in product for x, d in zip(row, diag))
            w = [[x // d for x, d in zip(row, diag)] for row in product]
            assert abs(_det_bareiss(w)) == 1
            assert abs(_det_bareiss(v)) == 1
            assert all(diag[i + 1] % diag[i] == 0 for i in range(gram.n - 1))
            assert math.prod(diag) == abs(gram.determinant)


class TestDiscriminantGroup:
    def test_order_two(self):
        group = discriminant_group(check_gram([[2]]))
        assert group.representatives == ((0,), (1,))
        assert group.exponent == 2
        assert smith_normal_form(check_gram([[2]]))[1] == (2,)

    def test_klein_four(self):
        group = discriminant_group(check_gram([[0, 2], [2, 0]]))
        assert group.representatives == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert group.exponent == 2
        assert smith_normal_form(check_gram([[0, 2], [2, 0]]))[1] == (2, 2)

    def test_unimodular_is_trivial(self):
        group = discriminant_group(check_gram([[0, 1], [1, 0]]))
        assert group.order == 1
        assert group.representatives == ((0, 0),)
        assert group.exponent == 1
        assert smith_normal_form(check_gram([[0, 1], [1, 0]]))[1] == (1, 1)

    @pytest.mark.parametrize("rows", SMALL_MATRICES)
    def test_matches_brute_force(self, rows):
        group = discriminant_group(check_gram(rows))
        vectors = [tuple(F(k, group.exponent) for k in u) for u in group.representatives]
        assert vectors == oracle.brute_representatives(rows)

    @pytest.mark.parametrize("rows", SMALL_MATRICES)
    def test_group_closure_and_zero_first(self, rows):
        group = discriminant_group(check_gram(rows))
        n, reps = group.exponent, set(group.representatives)
        assert not any(group.representatives[0])
        for u in group.representatives:
            for w in group.representatives:
                assert tuple((a + b) % n for a, b in zip(u, w)) in reps

    def test_order_equals_det(self):
        rng = random.Random(37)
        for _ in range(50):
            rows = _random_gram(rng, max_dim=3, max_entry=3)
            gram = check_gram(rows)
            group = discriminant_group(gram)
            assert group.order == abs(gram.determinant)
            assert math.prod(smith_normal_form(gram)[1]) == group.order


class TestForms:
    """Over the exponent n, v = u/n: s[i][j] = n <v_i, v_j> mod n,
    t[i] = quadratic_mod2 = n q(v_i) mod 2n."""

    def test_bilinear_examples(self):
        gram = check_gram([[2]])
        assert pairing_exponents(gram, discriminant_group(gram))[1][1][1] == 1  # <1/2, 1/2> = 1/2
        gram = check_gram([[0, 2], [2, 0]])
        n, s, _ = pairing_exponents(gram, discriminant_group(gram))
        assert n == 2
        assert s[2][1] == 1  # <(1/2, 0), (0, 1/2)> = 1/2
        assert s[0][3] == 0  # <(0, 0), (1/2, 1/2)> = 0

    def test_quadratic_examples(self):
        assert quadratic_mod2(check_gram([[2]]), (1,), 2) == 1  # q(1/2) = 1/2
        gram = check_gram([[0, 2], [2, 0]])
        assert quadratic_mod2(gram, (1, 1), 2) == 2  # q(1/2, 1/2) = 1
        assert quadratic_mod2(gram, (0, 0), 2) == 0

    def test_membership_guard(self):
        gram = check_gram([[2]])
        with pytest.raises(ValidationError, match=re.escape("B*(1,) is not divisible by 3")):
            quadratic_mod2(gram, (1,), 3)  # 1/3 is not in B^{-1}Z
        with pytest.raises(ValidationError, match=re.escape("B*(1, 0) is not divisible by 3")):
            quadratic_mod2(check_gram([[2, 1], [1, 2]]), (1, 0), 3)  # B(1, 0) = (2, 1)

    @given(st.integers(0, len(SMALL_MATRICES) - 1), st.data())
    @settings(max_examples=120, deadline=None)
    def test_representative_independence(self, pick, data):
        rows = SMALL_MATRICES[pick]
        gram = check_gram(rows)
        group = discriminant_group(gram)
        n, s, _ = pairing_exponents(gram, group)
        i = data.draw(st.integers(0, group.order - 1))
        j = data.draw(st.integers(0, group.order - 1))
        u, w = group.representatives[i], group.representatives[j]
        shift = data.draw(st.lists(
            st.integers(-3, 3), min_size=gram.n, max_size=gram.n))
        shifted = tuple(a + n * z for a, z in zip(u, shift))
        q_shifted = quadratic_mod2(gram, shifted, n)
        q_sum = quadratic_mod2(gram, tuple(a + b for a, b in zip(shifted, w)), n)
        assert (q_sum - q_shifted - quadratic_mod2(gram, w, n)) % (2 * n) == 2 * s[i][j]
        assert q_shifted == quadratic_mod2(gram, u, n)

    @pytest.mark.parametrize("rows", SMALL_MATRICES)
    def test_bilinearity_and_polarization(self, rows):
        gram = check_gram(rows)
        group = discriminant_group(gram)
        n, s, t = pairing_exponents(gram, group)
        reps = group.representatives
        index = {u: k for k, u in enumerate(reps)}

        def plus(i, j):
            return index[tuple((a + b) % n for a, b in zip(reps[i], reps[j]))]

        rng = random.Random(5)
        for _ in range(40):
            i = rng.randrange(group.order)
            ip = rng.randrange(group.order)
            j = rng.randrange(group.order)
            assert s[plus(i, ip)][j] == (s[i][j] + s[ip][j]) % n
            assert t[plus(i, j)] == (t[i] + t[j] + 2 * s[i][j]) % (2 * n)


class TestTableTokens:
    """The text cyclo prints for the same roots: S~ entries as format_value
    (1 and -1 bare), twists as format_root, both in lowest terms."""

    def test_lattice_tables(self):
        gram = check_gram([[2]])
        assert table_tokens(*pairing_exponents(gram, discriminant_group(gram))) == (
            ["e(0/1)", "e(1/4)"], [["1", "1"], ["1", "-1"]])
        gram = check_gram([[2, 1], [1, 2]])
        assert table_tokens(*pairing_exponents(gram, discriminant_group(gram))) == (
            ["e(0/1)", "e(1/3)", "e(1/3)"],
            [["1", "1", "1"], ["1", "e(2/3)", "e(1/3)"], ["1", "e(1/3)", "e(2/3)"]])

    def test_lowest_terms(self):
        # S~ over n = 6 and twists over 2n = 12
        assert table_tokens(6, ((0, 3), (2, 4)), (0, 3, 6, 8)) == (
            ["e(0/1)", "e(1/4)", "e(1/2)", "e(2/3)"], [["1", "-1"], ["e(1/3)", "e(2/3)"]])


class TestDirectSum:
    def test_block_layout(self):
        total = oracle.direct_sum(check_gram([[2]]), check_gram([[2]]))
        assert total.entries == ((2, 0), (0, 2))

    def test_determinant_multiplies(self):
        b1 = check_gram([[2, 1], [1, 2]])
        b2 = check_gram([[-2]])
        assert oracle.direct_sum(b1, b2).determinant == b1.determinant * b2.determinant
