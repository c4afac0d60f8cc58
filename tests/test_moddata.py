import itertools
import math
import random
import re
from collections import namedtuple
from fractions import Fraction as F

import pytest

import oracle
from pointedcat import (
    ModularData,
    NotModular,
    ValidationError,
    canonical_form,
    check_gram,
    from_lattice,
    fusion_probabilities,
    gauss_data,
    root_of_unity,
    serialize,
    verify_all,
    verlinde_fusion,
)
from pointedcat import cyclo, moddata
from pointedcat.cyclo import Cyclotomic, dot
from pointedcat.lattice import discriminant_group
from pointedcat.moddata import (
    RelationCheck, check_modular_relations, check_unitarity, dual_permutation,
    quantum_dimensions,
)
from pointedcat.values import tokens as data_tokens

ONE = Cyclotomic.from_rational(1)
I = root_of_unity(F(1, 4))

# Expected exponent tables frozen from tests/oracle.py (grid scan, no SNF).
SEMION_S_EXPONENTS = [[F(0), F(0)], [F(0), F(1, 2)]]
SEMION_TWIST_EXPONENTS = [F(0), F(1, 4)]
TORIC_TWIST_EXPONENTS = [F(0), F(0), F(0), F(1, 2)]
Z3_TWIST_EXPONENTS = [F(0), F(1, 3), F(1, 3)]


def tokens(md):
    """Twist and entry tokens, the input of oracle.canonical_form_exhaustive."""
    return ([cyclo.format_root(t) for t in md.twists],
            [[cyclo.format_value(x) for x in row] for row in md.s_tilde])


def corrupted_semion(semion):
    # Twist of the nontrivial label replaced by 1; symmetry still holds.
    return ModularData(rank=2, s_tilde=semion.s_tilde, twists=(ONE, ONE))


class TestFixtures:
    def test_semion_values(self, semion):
        assert semion.rank == 2
        for i in range(2):
            for j in range(2):
                assert semion.s_tilde[i][j] == root_of_unity(SEMION_S_EXPONENTS[i][j])
        assert semion.s_tilde[1][1] == -1
        assert [*semion.twists] == [root_of_unity(q) for q in SEMION_TWIST_EXPONENTS]
        assert semion.twists[1] == I

    def test_anti_semion_twist(self, anti_semion):
        assert anti_semion.twists[1] == root_of_unity(F(3, 4))

    def test_toric_values(self, toric):
        assert toric.rank == 4
        assert [*toric.twists] == [root_of_unity(q) for q in TORIC_TWIST_EXPONENTS]
        exponent, representatives = discriminant_group(toric.provenance)
        assert exponent == 2
        # entries (-1)^(ad+bc) over the integer labels (a,b) = u_i, (c,d) = u_j
        for i, (a, b) in enumerate(representatives):
            for j, (c, d) in enumerate(representatives):
                assert toric.s_tilde[i][j] == (-1) ** ((a * d + b * c) % 2)

    def test_z3_values(self, z3):
        assert z3.rank == 3
        assert [*z3.twists] == [root_of_unity(q) for q in Z3_TWIST_EXPONENTS]
        assert z3.s_tilde[1][1] == root_of_unity(F(2, 3))

    def test_pairings_match_oracle(self, corpus4_data):
        for gram, md in corpus4_data:
            rows = [list(r) for r in gram.entries]
            assert [[x.root_exponent() for x in row] for row in md.s_tilde] == \
                oracle.s_exponents(rows)
            assert [t.root_exponent() for t in md.twists] == oracle.twist_exponents(rows)

    def test_rank_equals_det(self, corpus3_data):
        for gram, md in corpus3_data:
            assert md.rank == abs(gram.determinant)


class TestQuantumDimensions:
    def test_all_one_for_pointed(self, semion, toric):
        assert all(d == 1 for d in quantum_dimensions(semion))
        assert all(d == 1 for d in quantum_dimensions(toric))

    def test_unit_dimension(self, z3, ising):
        assert quantum_dimensions(z3)[0] == 1
        assert quantum_dimensions(ising)[0] == 1


class TestGaussData:
    def test_semion(self, semion):
        gauss = gauss_data(semion)
        assert gauss.d_squared == 2
        assert gauss.p_plus == 1 + I
        assert gauss.p_minus == 1 - I
        assert gauss.identity_holds

    def test_trivial_rank_one(self):
        md = from_lattice(check_gram([[0, 1], [1, 0]]))
        gauss = gauss_data(md)
        assert gauss.d_squared == 1 and gauss.p_plus == 1 and gauss.p_minus == 1
        assert gauss.identity_holds

    def test_toric(self, toric):
        gauss = gauss_data(toric)
        assert gauss.d_squared == 4
        assert gauss.p_plus == 2 and gauss.p_minus == 2
        assert gauss.identity_holds

    def test_corrupted_fails(self, semion):
        assert not gauss_data(corrupted_semion(semion)).identity_holds

    def test_corrupted_values_fail(self, su2):
        # data whose values are not all roots of unity holds no exponent
        # table, so p+ p- = D^2 is decided on the sums of its values:
        # SU(2)_3 with the twist of label 1 replaced by 1
        md = su2(3)
        bad = ModularData(rank=md.rank, s_tilde=md.s_tilde, twists=(ONE, ONE, *md.twists[2:]))
        assert md._exponents is None and bad._exponents is None
        assert gauss_data(md).identity_holds and not gauss_data(bad).identity_holds

    def test_table_sums_are_those_of_its_values(self):
        # A table's Gauss sums are counts of the roots e(k/2n), printed at
        # conductor 2n (gauss.gauss_vectors) as the sums of its values print
        # (oracle.gauss_sums), and tested for p+ p- = D^2 on the integers
        # (gauss.gauss_identity), whatever its row 0: d_a = e(1/4), whose
        # square is rational, roots of odd order beside -1, and so on. Its
        # gauss_data is the sums of its values, those of the same data built
        # from values, repr included.
        from pointedcat.cyclo_core import format_vector
        from pointedcat.gauss import gauss_identity, gauss_vectors
        from pointedcat.moddata import from_table

        rng = random.Random(38)
        # theta_1 d_1^2 = e(1/3) e(1/4)^2 lies at conductor 3, not 12 or 24
        tables = [(12, (0, 3), (0, 8)), (4, (0, 1, 3, 2), (0, 1, 3, 6)),
                  (6, (0, 2, 3, 1), (0, 3, 4, 6))]
        for n in (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15):
            for rank in (1, 2, 3, 4, 6):
                for _ in range(3):
                    tables.append((n, (0, *(rng.randrange(n) for _ in range(rank - 1))),
                                   (0, *(rng.randrange(2 * n) for _ in range(rank - 1)))))
        identities = set()
        for n, row, t in tables:
            s = (row, *((b,) + (0,) * (len(row) - 1) for b in row[1:]))  # symmetric
            md = from_table((n, s, t))
            want = oracle.gauss_sums(md)
            text = [format_vector(2 * n, x) for x in gauss_vectors(n, s, t)]
            assert text == list(map(cyclo.format_value, want)), (n, s, t)
            identity = gauss_identity(n, s, t)
            assert identity == (want[1] * want[2] - want[0]).is_zero(), (n, s, t)
            identities.add(identity)
            values = ModularData(
                rank=len(t), twists=tuple(root_of_unity(F(a, 2 * n)) for a in t),
                s_tilde=tuple(tuple(root_of_unity(F(x, n)) for x in r) for r in s))
            assert repr(gauss_data(md)) == repr(gauss_data(values)), (n, s, t)
            assert gauss_data(md) == gauss_data(values), (n, s, t)
        assert identities == {True, False}

    def test_milgram_formula_on_corpus(self, corpus4_data):
        # p+ = sqrt(|det B|) e(sigma(B)/8), with sigma from the oracle's exact
        # inertia: this pins the twists the cube check rests on. The square
        # fixes sigma mod 4; the sign of the real root (|root| >= 1, so the
        # float is unambiguous) fixes it mod 8.
        signatures = set()
        for gram, md in corpus4_data:
            sigma = oracle.signature(gram.entries)
            signatures.add(sigma)
            root = gauss_data(md).p_plus * root_of_unity(F(-sigma, 8))
            assert root * root == abs(oracle.det_cofactor(gram.entries)), gram.entries
            assert root == root.conjugate() and root.approx_complex()[0] > 0, gram.entries
        assert signatures == {-2, -1, 0, 1, 2}


class TestVerlindeFusion:
    def test_semion_table(self, semion):
        ft = verlinde_fusion(semion)
        assert ft[1][1][0] == 1 and ft[1][1][1] == 0
        assert ft[0][1][1] == 1 and ft[0][1][0] == 0

    def test_unit_row_is_identity(self, z3, toric, ising):
        for md in (z3, toric, ising):
            ft = verlinde_fusion(md)
            for j in range(md.rank):
                for k in range(md.rank):
                    assert ft[0][j][k] == (1 if j == k else 0)

    @pytest.mark.parametrize("rows", [
        [[2]], [[-2]], [[2, 1], [1, 2]], [[0, 2], [2, 0]], [[2, 3], [3, 2]],
    ])
    def test_matches_group_addition(self, rows):
        md = from_lattice(check_gram(rows))
        ft = verlinde_fusion(md)
        table = oracle.addition_table(oracle.brute_representatives(rows))
        for i in range(md.rank):
            for j in range(md.rank):
                for k in range(md.rank):
                    assert ft[i][j][k] == (1 if table[i][j] == k else 0)

    def test_commutativity_invariant(self, toric):
        ft = verlinde_fusion(toric)
        mats = [ft[i] for i in range(toric.rank)]

        def matmul(a, b):
            n = len(a)
            return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
                    for i in range(n)]

        for a in mats:
            for b in mats:
                assert matmul(a, b) == matmul(b, a)

    def test_non_integral_rejected(self, ising):
        # swapping one sign in the sqrt(2) column breaks integrality
        rows = [list(row) for row in ising.s_tilde]
        rows[2][1] = ising.s_tilde[0][1]
        rows[1][2] = ising.s_tilde[0][1]
        broken = ModularData(rank=3, s_tilde=tuple(tuple(r) for r in rows),
                             twists=ising.twists)
        with pytest.raises(NotModular, match=re.escape(
                "N(0,0)^1 = 1/2*e(1/8)+-1/2*e(3/8) is not a non-negative integer")):
            verlinde_fusion(broken)

    def test_zero_global_dimension_rejected(self):
        # d = (1, i): every d_a is nonzero, but D^2 = 1 + i^2 = 0
        md = ModularData(rank=2, s_tilde=((ONE, I), (I, ONE)), twists=(ONE, ONE))
        with pytest.raises(NotModular, match="^global dimension is zero$"):
            verlinde_fusion(md)


class TestFusionMatrices:
    def test_unit_matrix(self, z3):
        ft = verlinde_fusion(z3)
        assert ft[0] == tuple(
            tuple(1 if i == j else 0 for j in range(3)) for i in range(3))

    def test_semion_regular_representation(self, semion):
        ft = verlinde_fusion(semion)
        assert ft[1] == ((0, 1), (1, 0))

    def test_unit_appears_in_self_dual_product(self, corpus3_data):
        for _, md in corpus3_data[:20]:
            ft = verlinde_fusion(md)
            conj = dual_permutation(md)
            for i in range(md.rank):
                ni = ft[i]
                nc = ft[conj[i]]
                n = md.rank
                product = [[sum(ni[r][t] * nc[t][c] for t in range(n))
                            for c in range(n)] for r in range(n)]
                assert product[0][0] == 1


class TestFusionProbabilities:
    def test_deterministic_for_pointed(self, semion, toric):
        assert fusion_probabilities(semion, 1, 1) == ((0, F(1)),)
        assert fusion_probabilities(semion, 0, 1) == ((1, F(1)),)
        assert fusion_probabilities(toric, 1, 2) == ((3, F(1)),)

    def test_unit_fuses_trivially(self, z3):
        for j in range(z3.rank):
            assert fusion_probabilities(z3, 0, j) == ((j, F(1)),)

    def test_split_outcome_for_ising(self, ising):
        assert fusion_probabilities(ising, 1, 1) == ((0, F(1, 2)), (2, F(1, 2)))

    def test_probabilities_sum_to_one(self, toric, z3, ising):
        for md in (toric, z3, ising):
            for i in range(md.rank):
                for j in range(md.rank):
                    total = sum(p for _, p in fusion_probabilities(md, i, j))
                    assert total == 1

    def test_labels_outside_the_range_rejected(self, toric, ising):
        # on data with a group law (toric) and on dense data (Ising)
        for md in (toric, ising):
            for i, j in ((-1, 0), (0, -1), (md.rank, 0), (0, md.rank)):
                with pytest.raises(ValidationError, match=re.escape(
                        f"labels must lie in [0, {md.rank})")):
                    fusion_probabilities(md, i, j)

    def test_weights_that_are_not_probabilities_rejected(self, su2):
        zero = Cyclotomic.from_rational(0)
        md = ModularData(rank=2, s_tilde=((ONE, zero), (zero, ONE)), twists=(ONE, ONE))
        # verlinde_fusion refuses the zero dimension before any weight is formed
        with pytest.raises(ValidationError, match="^zero quantum dimension$"):
            fusion_probabilities(md, 1, 0)
        # N from verlinde_fusion is a non-negative integer, but d_1 = -1
        # makes the weight of outcome 1 of 0 x 0 negative
        three = Cyclotomic.from_rational(3)
        md = ModularData(rank=2, s_tilde=((ONE, -ONE), (-ONE, -three)), twists=(ONE, ONE))
        assert verlinde_fusion(md)[0][0] == (1, 1)
        with pytest.raises(ValidationError, match="^weight for outcome 1 is negative: -1$"):
            fusion_probabilities(md, 0, 0)
        md = su2(8)
        with pytest.raises(ValidationError, match=re.escape(
                "weight for outcome 1 is irrational: -3+-2*e(2/5)+-2*e(3/5)")):
            fusion_probabilities(md, 2, 3)


class TestDualPermutation:
    def test_examples(self, semion, toric, z3):
        assert dual_permutation(semion) == (0, 1)
        assert dual_permutation(toric) == (0, 1, 2, 3)
        assert dual_permutation(z3) == (0, 2, 1)

    def test_matches_negation_oracle(self, corpus3_data):
        for gram, md in corpus3_data:
            rows = [list(r) for r in gram.entries]
            expected = tuple(oracle.dual_indices(oracle.brute_representatives(rows)))
            assert dual_permutation(md) == expected

    def test_degenerate_rejected(self):
        flat = ModularData(rank=2, s_tilde=((ONE, ONE), (ONE, ONE)), twists=(ONE, ONE))
        with pytest.raises(NotModular, match=re.escape(
                "row 0 of S~^2 is not D^2 times a unit vector")):
            dual_permutation(flat)

    @pytest.mark.parametrize("pool", ["rational", "root", "mixed"])
    def test_a_returned_conjugation_fixes_the_unit_and_is_an_involution(
            self, pool, z3, toric, ising, su2):
        # dual_permutation raises only for a row of S~^2 that is not D^2 times a
        # unit vector; any C it returns fixes 0 and has C^2 = I (its docstring
        # says why), on unitary and non-unitary data alike
        roots = [root_of_unity(F(a, b)) for a, b in ((0, 1), (1, 2), (1, 4), (3, 4),
                                                      (1, 3), (2, 3), (1, 8))]
        rationals = [ONE * q for q in (0, 1, -1, 2, F(1, 2), F(3, 5), F(4, 5))]
        values = {"rational": rationals, "root": roots,
                  "mixed": rationals + roots + [1 + I, 2 * roots[4]]}[pool]
        known = [z3, toric, ising, su2(3), from_lattice(check_gram([[4]]))]
        rng = random.Random(f"dual-{pool}")

        def symmetric(rank):
            s = [[ONE] * rank for _ in range(rank)]
            for i, j in itertools.combinations_with_replacement(range(rank), 2):
                if (i, j) != (0, 0):
                    s[i][j] = s[j][i] = rng.choice(values)
            return s

        def data(s):
            twists = (ONE, *(rng.choice(roots) for _ in s[1:]))
            return ModularData(rank=len(s), s_tilde=tuple(map(tuple, s)), twists=twists)

        seen = set()
        for _ in range(200):
            kind = rng.choice(("random", "product", "signed"))
            if kind == "random":
                md = data(symmetric(rng.choice((2, 2, 3, 4))))
            elif kind == "product":  # S~ of a Kronecker product squares factorwise
                a, b = symmetric(2), symmetric(2)
                md = data([[a[i // 2][j // 2] * b[i % 2][j % 2] for j in range(4)]
                           for i in range(4)])
            else:  # modular data with rows and columns of S~ negated (not row 0)
                base = rng.choice(known)
                signs = [1] + [rng.choice((1, -1)) for _ in range(base.rank - 1)]
                md = data([[x * u * v for x, v in zip(row, signs)]
                           for row, u in zip(base.s_tilde, signs)])
            conjugation = check_modular_relations(md).checks[2]
            try:
                c = dual_permutation(md)
            except NotModular as exc:
                assert re.fullmatch(r"row \d+ of S~\^2 is not D\^2 times a unit vector", str(exc))
                assert (conjugation.passed, conjugation.detail) == (False, str(exc))
                seen.add(("raised", gauss_data(md).d_squared.is_zero()))
                continue
            assert c[0] == 0 and all(c[c[i]] == i for i in range(md.rank))
            assert conjugation.passed
            seen.add(("returned", check_unitarity(md), c != tuple(range(md.rank))))
        assert {("raised", False), ("returned", True, False), ("returned", True, True)} <= seen
        if pool != "rational":
            assert {("raised", True), ("returned", False, False)} <= seen


class TestModularRelations:
    def test_semion_passes_with_explicit_cube(self, semion):
        report = check_modular_relations(semion)
        assert report.passed
        # (S~T)^3 = (2+2i) I, exactly p+ * D^2 * I for the semion
        s, t = semion.s_tilde, semion.twists
        st = [[s[i][j] * t[j] for j in range(2)] for i in range(2)]
        cols = [tuple(st[i][j] for i in range(2)) for j in range(2)]
        st2 = [[dot(st[i], cols[j]) for j in range(2)] for i in range(2)]
        st3 = [[dot(st2[i], cols[j]) for j in range(2)] for i in range(2)]
        assert st3[0][0] == 2 + 2 * I
        assert st3[1][1] == 2 + 2 * I
        assert st3[0][1].is_zero() and st3[1][0].is_zero()

    def test_ising_passes(self, ising):
        assert check_modular_relations(ising).passed
        assert check_unitarity(ising)
        assert gauss_data(ising).identity_holds

    def test_corrupted_fails_cube_only_structure(self, semion):
        report = check_modular_relations(corrupted_semion(semion))
        assert not report.passed
        failing = [c.name for c in report.checks if not c.passed]
        assert "st_cubed" in failing
        assert "s_symmetric" not in failing

    def test_unitarity(self, semion, toric, z3):
        assert check_unitarity(semion)
        assert check_unitarity(toric)
        assert check_unitarity(z3)


class TestGaloisConjugates:
    """sigma_ell maps every identity of S~ and T to the same identity of their
    conjugates, and fixes the integers N(i,j)^k: each check of a datum and of
    its conjugate decides alike, for ell = -1 and the least prime coprime to
    the lcm of the datum's conductors."""

    def test_checks_agree(self, su2):
        fib = oracle.fibonacci()
        compared = 0
        for md in [su2(k) for k in range(2, 9)] + [fib, oracle.deligne(fib, fib)]:
            for datum in (md, oracle.with_twist_one(md), oracle.with_pair_one(md),
                          oracle.with_row_sign(md)):
                conductor = math.lcm(*(x.conductor for row in datum.s_tilde for x in row),
                                     *(t.conductor for t in datum.twists))
                report = verify_all(datum)
                for ell in (-1, oracle.least_prime_coprime(conductor)):
                    image = verify_all(oracle.galois_conjugate(datum, ell))
                    assert [(c.name, c.passed) for c in image.checks] == [
                        (c.name, c.passed) for c in report.checks], (md.rank, ell)
                    if report.passed:
                        assert serialize(image).body == serialize(report).body
                    compared += 1
        assert compared == 72


def checks(report):
    return [(c.name, c.passed) for c in report.checks]


class TestDeligneAndRelabelling:
    """A ⊠ B with A modular decides each check as B does: S~, T, D^2, p+ and
    the fusion rules of A ⊠ B are Kronecker products with A's, which are
    invertible or nonzero, and N_A(0,0)^0 = 1. A relabelling that fixes the
    unit permutes every identity, so each check decides alike and a passing
    report is unchanged."""

    @pytest.fixture(scope="class")
    def cases(self, semion, z3, su2):
        fib = oracle.fibonacci()
        return [datum for md in (semion, z3, fib, su2(2), su2(3), su2(4))
                for datum in (md, oracle.with_twist_one(md), oracle.with_pair_one(md),
                              oracle.with_row_sign(md))]

    def test_deligne_products(self, cases, su2):
        compared = 0
        for a in (oracle.fibonacci(), su2(2)):
            assert verify_all(a).passed
            for b in cases:
                assert checks(verify_all(oracle.deligne(a, b))) == checks(verify_all(b)), (
                    a.rank, b.rank)
                compared += 1
        assert compared == 48

    def test_relabelings(self, cases):
        compared = 0
        for b in (b for b in cases if b.rank >= 3):
            report = verify_all(b)
            for seed in (1, 2):
                perm = [0] + random.Random(seed).sample(range(1, b.rank), b.rank - 1)
                image = verify_all(oracle.relabel(b, perm))
                assert checks(image) == checks(report), (b.rank, perm)
                if report.passed:
                    assert serialize(image).body == serialize(report).body
                compared += 1
        assert compared == 32


class TestConstructionValidation:
    def test_twist_must_be_root(self, semion):
        with pytest.raises(ValidationError):
            ModularData(rank=2, s_tilde=semion.s_tilde,
                        twists=(ONE, ONE + ONE))

    def test_asymmetric_rejected(self, semion):
        rows = ((ONE, ONE), (-ONE, -ONE))
        with pytest.raises(ValidationError):
            ModularData(rank=2, s_tilde=rows, twists=semion.twists)

    def test_unit_twist_enforced(self, semion):
        with pytest.raises(ValidationError):
            ModularData(rank=2, s_tilde=semion.s_tilde, twists=(I, I))

    def test_unknown_attribute_of_a_table(self):
        # a table-backed instance builds only s_tilde and twists on first read
        md = from_lattice(check_gram([[2]]))
        with pytest.raises(AttributeError, match="'ModularData' object has no attribute 'dims'"):
            md.dims
        assert "s_tilde" not in vars(md) and md.twists == (ONE, I)


class TestModularDataValue:
    """ModularData is a frozen value of its five fields, and not a tuple."""

    def test_positional_keyword_and_default_arguments(self, semion):
        rows, twists, names = semion.s_tilde, semion.twists, ("1", "s")
        assert (ModularData(2, rows, twists, None, names)
                == ModularData(rank=2, s_tilde=rows, twists=twists, label_names=names)
                == ModularData(2, rows, label_names=names, twists=twists))
        md = ModularData(2, rows, twists)
        assert (md.rank, md.provenance, md.label_names) == (2, None, None)

    @pytest.mark.parametrize("call, message", [
        (lambda s: ModularData(2, s.s_tilde, s.twists, None, None, 6),
         "positional arguments but 7 were given"),
        (lambda s: ModularData(2, s.s_tilde), "missing 1 required positional argument: 'twists'"),
        (lambda s: ModularData(2, s.s_tilde, s.twists, z=2), "unexpected keyword argument 'z'"),
        (lambda s: ModularData(2, s.s_tilde, s.twists, rank=2), "multiple values for argument"),
    ])
    def test_bad_arguments_raise_type_error(self, semion, call, message):
        with pytest.raises(TypeError, match=message):
            call(semion)

    def test_construction_checks_the_fields(self, semion):
        with pytest.raises(ValidationError, match="^label_names length does not match rank$"):
            ModularData(2, semion.s_tilde, semion.twists, label_names=("1",))

    def test_equality_and_hash_by_field_values(self, semion):
        # a table-backed instance equals the same data built from values
        values = ModularData(2, semion.s_tilde, semion.twists, semion.provenance)
        assert values == semion
        assert ModularData(2, semion.s_tilde, semion.twists, label_names=("1", "s")) != values
        # the hash is that of the fields, and Cyclotomic values are unhashable
        for md in (semion, values):
            with pytest.raises(TypeError, match="unhashable type: 'Cyclotomic'"):
                hash(md)

    def test_not_equal_to_another_class_or_a_tuple(self, semion):
        fields = ("rank", "s_tilde", "twists", "provenance", "label_names")
        values = tuple(getattr(semion, name) for name in fields)
        assert semion != namedtuple("Other", fields)(*values)
        assert semion != values

    def test_repr(self, semion):
        assert repr(semion) == (
            "ModularData(rank=2, s_tilde=((Cyclotomic(1, (1,)), Cyclotomic(1, (1,))), "
            "(Cyclotomic(1, (1,)), Cyclotomic(1, (-1,)))), twists=(Cyclotomic(1, (1,)), "
            "Cyclotomic(4, (0, 1))), provenance=GramMatrix(entries=((2,),), determinant=2), "
            "label_names=None)")

    def test_assignment_and_deletion_raise(self):
        md = from_lattice(check_gram([[2]]))
        for action in (lambda: setattr(md, "rank", 3), lambda: setattr(md, "z", 2),
                       lambda: delattr(md, "rank")):
            with pytest.raises(AttributeError):
                action()
        assert md.rank == 2 and "z" not in vars(md)
        assert md == from_lattice(check_gram([[2]]))

    def test_cached_property_is_kept_out_of_equality(self):
        md = from_lattice(check_gram([[2]]))
        assert md._law == ((0, 1), (1, 0))
        assert "_law" in vars(md)
        assert md == from_lattice(check_gram([[2]]))


class TestRelationCheck:
    def test_default_repr_and_frozen_fields(self):
        check = RelationCheck("unitarity", True)
        assert check == RelationCheck(name="unitarity", passed=True, detail="")
        assert repr(check) == "RelationCheck(name='unitarity', passed=True, detail='')"
        with pytest.raises(AttributeError):
            check.passed = False
        assert check.passed


class TestDirectSum:
    def test_rank_multiplies(self):
        b1 = check_gram([[2]])
        b2 = check_gram([[2, 1], [1, 2]])
        total = from_lattice(oracle.direct_sum(b1, b2))
        assert total.rank == 2 * 3

    def test_kronecker_structure(self, semion, z3):
        b1 = check_gram([[2]])
        b2 = check_gram([[2, 1], [1, 2]])
        summed = from_lattice(oracle.direct_sum(b1, b2))
        pairs = [(i, j) for i in range(2) for j in range(3)]
        kron_s = tuple(
            tuple(semion.s_tilde[a1][c1] * z3.s_tilde[a2][c2] for (c1, c2) in pairs)
            for (a1, a2) in pairs
        )
        kron_t = tuple(semion.twists[a] * z3.twists[b] for (a, b) in pairs)
        kron = ModularData(rank=6, s_tilde=kron_s, twists=kron_t)
        assert canonical_form(summed) == canonical_form(kron)


class TestCanonicalForm:
    def test_orbit_invariance(self, z3):
        # relabel 1 <-> 2 by hand; the canonical forms must agree
        perm = (0, 2, 1)
        s = tuple(
            tuple(z3.s_tilde[perm[i]][perm[j]] for j in range(3)) for i in range(3))
        t = tuple(z3.twists[p] for p in perm)
        relabeled = ModularData(rank=3, s_tilde=s, twists=t)
        assert canonical_form(relabeled) == canonical_form(z3)

    def test_distinguishes_semion_chirality(self, semion, anti_semion):
        assert canonical_form(semion) != canonical_form(anti_semion)

    def test_distinguishes_toric_from_double_semion_product(self, toric):
        double = from_lattice(check_gram([[2, 0], [0, 2]]))
        assert canonical_form(toric) != canonical_form(double)

    def test_constant_on_orbits_at_small_rank(self, corpus3_data):
        small = [md for _, md in corpus3_data if md.rank <= 4]
        for md in small[:12]:
            reference = canonical_form(md)
            for tail in itertools.permutations(range(1, md.rank)):
                assert canonical_form(oracle.relabel(md, (0,) + tail)) == reference

    def test_matches_exhaustive_search_on_corpus(self, corpus4_data):
        small = [md for _, md in corpus4_data if md.rank <= 8]
        assert len(small) == 104
        for md in small:
            assert canonical_form(md) == oracle.canonical_form_exhaustive(*tokens(md))

    def test_matches_exhaustive_search_on_every_relabeling(self, ising, su2):
        for md in [ising] + [su2(k) for k in range(2, 6)]:
            expected = oracle.canonical_form_exhaustive(*tokens(md))
            for tail in itertools.permutations(range(1, md.rank)):
                assert canonical_form(oracle.relabel(md, (0,) + tail)) == expected

    def test_complete_within_orbits_at_small_rank(self, corpus3_data):
        # matching canonical forms must come from an explicit relabeling
        small = [md for _, md in corpus3_data if md.rank <= 4]
        for a in small[:10]:
            for b in small[:10]:
                if canonical_form(a) != canonical_form(b):
                    continue
                found = False
                for tail in itertools.permutations(range(1, a.rank)):
                    perm = (0,) + tail
                    if (all(a.twists[perm[i]] == b.twists[i] for i in range(a.rank))
                            and all(a.s_tilde[perm[i]][perm[j]] == b.s_tilde[i][j]
                                    for i in range(a.rank) for j in range(a.rank))):
                        found = True
                        break
                assert found

    def test_rank_bound(self):
        big = from_lattice(check_gram([[4, 1], [1, -2]]))  # rank 9
        with pytest.raises(ValidationError, match="^rank 9 exceeds the bound 8$"):
            canonical_form(big)
        canonical_form(from_lattice(check_gram([[2, 0], [0, 4]])))  # rank 8, at the bound


class TestTokens:
    """values.tokens (data_tokens) is the one writer of the token text of
    modular data: from its exponent table where it has one
    (lattice.table_tokens), else from its values. Either way it is the text of the per-entry reference
    (tokens), so serialize and canonical_form cannot tell a table from the
    same data held as values."""

    def test_tables_and_relabeled_values(self, corpus4_data):
        rng = random.Random(31)
        for gram, md in corpus4_data:
            # a fresh instance, so that the check sees no values built earlier
            fresh = moddata.from_lattice(gram)
            assert data_tokens(fresh) == tokens(md), gram.entries
            assert "s_tilde" not in vars(fresh) and "twists" not in vars(fresh)
            perm = (0, *rng.sample(range(1, md.rank), md.rank - 1))
            copy = oracle.relabel(md, perm)
            # built from values, it holds the lattice's table relabelled
            n, s, t = vars(md)["_exponents"]
            assert vars(copy)["_exponents"] == (
                n, tuple(tuple(s[a][b] for b in perm) for a in perm), tuple(t[a] for a in perm))
            assert data_tokens(copy) == tokens(copy), gram.entries

    def test_values_without_a_table(self, ising, su2):
        for md in [ising] + [su2(k) for k in range(2, 9)]:
            assert md._exponents is None
            assert data_tokens(md) == tokens(md)

    def test_table_and_its_values_write_the_same_text(self, corpus4_data):
        for gram, md in corpus4_data:
            values = ModularData(rank=md.rank, s_tilde=md.s_tilde, twists=md.twists,
                                 provenance=md.provenance, label_names=md.label_names)
            assert vars(values)["_exponents"] == vars(md)["_exponents"]
            assert serialize(values) == serialize(md), gram.entries
            if md.rank <= 8:
                assert canonical_form(values) == canonical_form(md), gram.entries


class TestVerifyAll:
    def test_shared_values_computed_once(self, monkeypatch):
        # Gauss data is formed once however many checks read it, and not at
        # all for pointed data whose group law passes the cube check, which
        # implies p+ p- = D^2. S~^2 is formed only without unitarity, once; a
        # group law (and, for other unitary data, a conjugate-row lookup)
        # gives C without it.
        from pointedcat import dense

        calls = {"gauss": 0, "sum_values": 0, "square": 0}
        gauss, sum_values, products = moddata.GaussData, cyclo.sum_values, dense.products

        def counting_gauss(*args):
            calls["gauss"] += 1
            return gauss(*args)

        def counting_sums(values):
            calls["sum_values"] += 1
            return sum_values(values)

        def counting_squares(n, left, right, *compared):
            calls["square"] += left is right  # S~ S~, the only product of a matrix with itself
            return products(n, left, right, *compared)

        monkeypatch.setattr(moddata, "GaussData", counting_gauss)
        monkeypatch.setattr(cyclo, "sum_values", counting_sums)
        monkeypatch.setattr(dense, "products", counting_squares)
        md = from_lattice(check_gram([[2, 1], [1, 2]]))
        assert verify_all(md).passed
        assert calls == {"gauss": 0, "sum_values": 0, "square": 0}
        rows = [list(row) for row in md.s_tilde]
        rows[1][2] = rows[2][1] = md.twists[0]  # symmetric, not unitary
        broken = ModularData(rank=3, s_tilde=tuple(map(tuple, rows)), twists=md.twists)
        failing = [c.name for c in verify_all(broken).checks if not c.passed]
        assert failing[:2] == ["unitarity", "verlinde_integral"]
        assert calls["gauss"] == 1 and calls["square"] == 1
