"""Group-law verification of pointed data against the dense exact paths.

Pointed data (every S~ entry and twist a root of unity, every d_a = 1) whose
rows form a group under the entrywise product is verified through that group
law. The dense routines of pointedcat.dense check any data; hiding the law
makes every check take them, and the two paths must give identical reports,
fusion tensors, charge conjugations and error messages.
"""

import contextlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracle
from oracle import fresh, with_pair_one, with_row_sign, with_twist_one
from pointedcat import (
    Document,
    ModularData,
    NotModular,
    PointedCatError,
    canonical_form,
    check_gram,
    colored_link_invariant,
    framed_link,
    from_lattice,
    parse,
    root_of_unity,
    serialize,
    verify_all,
    verlinde_fusion,
)
from pointedcat import dense, moddata
from pointedcat.cyclo import Cyclotomic
from pointedcat.links import link_exponent
from pointedcat.moddata import check_modular_relations, dual_permutation

ONE = root_of_unity(0)


CORRUPTIONS = (with_twist_one, with_pair_one, with_row_sign)


def run(fn, md):
    try:
        return fn(md)
    except (PointedCatError, ZeroDivisionError) as exc:
        return exc


def same_outcome(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


@contextlib.contextmanager
def dense_once(memo):
    """Run each dense routine once per S~ object, or per S~ and T object where
    it reads T: the packing, unitarity, the conjugation and the Verlinde sum
    read nothing else, so the fast path's fallbacks, the dense reference and
    data that shares S~ share one computation."""
    def once(fn, reads_twists):
        def wrapper(md):
            key = (fn.__name__, id(md.s_tilde)) + ((id(md.twists),) if reads_twists else ())
            if key not in memo:
                memo[key] = (md, run(fn, md))  # md keeps ids alive
            outcome = memo[key][1]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        return wrapper

    reads_twists = {"packed": False, "unitary": False, "conjugation": False,
                    "verlinde": False, "st_cubed": True}
    with pytest.MonkeyPatch.context() as mp:
        for name, reads in reads_twists.items():
            mp.setattr(dense, name, once(getattr(dense, name), reads))
        yield


def conjugation_from_square(md):
    """Charge conjugation read off S~^2 = D^2 C, with every row of S~^2 formed
    by the packed kernel, unitary or not."""
    p = md._packed
    unit = dense.scaled(p.n, [md._gauss.d_squared], p.den ** 2)[0]
    _, (unit,), rows = dense.products(p.n, p.s, p.s, unit)
    perm = []
    for i, row in enumerate(dense.mirrored(list(rows))):
        hits = [j for j, x in enumerate(row) if x]
        if len(hits) != 1 or row[hits[0]] != unit:
            raise NotModular(f"row {i} of S~^2 is not D^2 times a unit vector")
        perm.append(hits[0])
    if perm[0] != 0:
        raise NotModular("charge conjugation does not fix the tensor unit")
    if any(perm[perm[i]] != i for i in range(md.rank)):
        raise NotModular("charge conjugation is not an involution")
    return tuple(perm)


def st_cubed_check(md):
    return next(c.passed for c in check_modular_relations(md).checks if c.name == "st_cubed")


def assert_paths_agree(md, memo):
    """verify_all, verlinde_fusion and dual_permutation agree with the dense
    routines on md."""
    fast = fresh(md)
    if fast._exponents is None:
        return  # the dense routines are the only path
    with dense_once(memo):
        slow = fresh(md)
        assert same_outcome(run(dual_permutation, fast), run(conjugation_from_square, slow))
        if fast._law is None:
            return  # the other comparisons would run the same dense routines on both sides
        report = verify_all(fast)
        fusion = run(verlinde_fusion, fast)
        assert same_outcome(fusion, run(dense.verlinde, slow))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moddata.ModularData, "_law", property(lambda self: None))
            assert verify_all(slow) == report


def assert_cube_forms_agree(md):
    """The report's (S~ T)^3 = p+ D^2 I check, by the law's twist check where
    there is a law, agrees with dense.st_cubed; returns the outcome."""
    md = fresh(md)
    cubed = dense.st_cubed(md)
    assert st_cubed_check(md) == cubed
    return cubed


@pytest.fixture(scope="module")
def small_corpus(corpus4_data):
    return [md for _, md in corpus4_data if md.rank <= 12]


class TestCorpusEquivalence:
    def test_corpus_size(self, small_corpus):
        assert len(small_corpus) == 146
        assert all(md._law is not None for md in small_corpus)

    def test_clean_and_corrupted(self, small_corpus):
        for md in small_corpus:
            memo = {}  # the twist corruption shares S~ with md
            assert_paths_agree(md, memo)
            if md.rank >= 2:
                for corrupt in CORRUPTIONS:
                    assert_paths_agree(corrupt(md), memo)

    def test_corruptions_take_the_intended_paths(self, small_corpus):
        md = next(md for md in small_corpus if md.rank == 12)
        twist, pair, sign = (fresh(c(md)) for c in CORRUPTIONS)
        assert twist._law is not None and twist._unitary
        assert not verify_all(twist).passed
        assert pair._exponents is not None and pair._law is None and not pair._unitary
        # row 1 negated puts a -1 in row 0: still a table, but no law
        assert sign._exponents is not None and sign._law is None and sign._unitary
        assert any(c.name == "verlinde_integral" and not c.passed for c in verify_all(sign).checks)


def unmemoised(md):
    """The same data, without provenance, with each distinct entry and twist
    rebuilt from its coefficients, so that no root_exponent memo is set."""
    copies = {}

    def copy(x):
        return copies.setdefault(id(x), Cyclotomic(x.conductor, x._coeffs))

    return ModularData(rank=md.rank, s_tilde=tuple(tuple(map(copy, row)) for row in md.s_tilde),
                       twists=tuple(map(copy, md.twists)))


def test_verification_takes_no_float(su2, small_corpus, no_floats):
    # every root of unity is decided exactly, whichever check or printer asks
    cases = [su2(k) for k in range(2, 17)] + small_corpus
    expected = [(serialize(verify_all(unmemoised(md))).body, serialize(unmemoised(md)).body)
                for md in cases]
    no_floats()
    for md, (report, document) in zip(cases, expected):
        md = unmemoised(md)
        assert serialize(verify_all(md)).body == report
        assert serialize(md).body == document


def table_law(md):
    """The pair loop of tests/oracle.py on the exponent table of md."""
    n, s, _ = md._exponents
    return oracle.group_law_pairs(n, s)


class TestGroupLaw:
    def test_law_and_duals_match_oracle(self, corpus4_data):
        for gram, md in corpus4_data:
            reps = oracle.brute_representatives(gram.entries)
            assert [list(row) for row in md._law] == oracle.addition_table(reps)
            assert list(dual_permutation(md)) == oracle.dual_indices(reps)

    def test_generators_match_pair_loop(self, corpus4_data):
        # sums of several blocks need several generators; relabeling moves them
        blocks = ([[2, 1], [1, 2]], [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                                     [0, -1, 0, 2]], [[0, 2], [2, 0]], [[6]])
        sums = [oracle.direct_sum(check_gram(a), check_gram(b))
                for a, b in itertools.combinations_with_replacement(blocks, 2)]
        sums.append(oracle.direct_sum(sums[0], check_gram(blocks[0])))  # A2^3, rank 27
        rng = random.Random(16)
        cases = [md for _, md in corpus4_data] + [from_lattice(gram) for gram in sums]
        for md in cases:
            assert md._law is not None and md._law == table_law(md)
            sigma = [0] + rng.sample(range(1, md.rank), md.rank - 1)
            # label a moves to position sigma[a]
            moved = oracle.relabel(md, sorted(range(md.rank), key=sigma.__getitem__))
            assert moved._law == table_law(moved)
            labels = range(md.rank)
            assert all(moved._law[sigma[a]][sigma[b]] == sigma[md._law[a][b]]
                       for a in labels for b in labels)

    def test_none_without_closure_or_distinct_rows(self):
        e = root_of_unity
        # distinct rows, but row 1 times row 1 is (1, e(1/2), 1), not a row
        open_rows = ModularData(rank=3, s_tilde=(
            (ONE, ONE, ONE),
            (ONE, e(F(1, 4)), e(F(1, 2))),
            (ONE, e(F(1, 2)), e(F(1, 2)))), twists=(ONE, e(F(1, 3)), e(F(1, 5))))
        repeated = ModularData(rank=2, s_tilde=((ONE, ONE), (ONE, ONE)), twists=(ONE, ONE))
        for md in (open_rows, repeated, TestRowProductNotARow.hadamard()):
            assert md._exponents is not None
            assert md._law is None and table_law(md) is None


class TestCubeForms:
    def test_pointed(self, small_corpus):
        outcomes = set()
        for md in small_corpus:
            if md.rank <= 8:
                assert assert_cube_forms_agree(md) is True
                if md.rank >= 2:
                    outcomes.add(assert_cube_forms_agree(with_twist_one(md)))
        assert outcomes == {True, False}

    def test_generic(self, ising, su2):
        cases = [ising] + [su2(k) for k in range(2, 7)]
        outcomes = set()
        for md in cases:
            assert md._exponents is None
            assert verify_all(md).passed
            assert assert_cube_forms_agree(md) is True
            # Ising and SU(2)_2 still pass with twist 1 set to 1 (test_kernel
            # checks that against ref_st_cubed)
            outcomes.add(assert_cube_forms_agree(with_twist_one(md)))
        assert outcomes == {True, False}


class TestRowProductNotARow:
    """A unitary, symmetric complex Hadamard matrix of roots of unity whose
    row products are not rows: there is no group law, and the dense Verlinde
    raises."""

    @staticmethod
    def hadamard():
        e = root_of_unity
        w = e(F(1, 8))  # the free phase of the 4x4 Hadamard family
        i, m = e(F(1, 4)), e(F(1, 2))
        rows = (
            (ONE, ONE, ONE, ONE),
            (ONE, i * w, m, m * i * w),
            (ONE, m, ONE, m),
            (ONE, m * i * w, m, i * w),
        )
        twists = (ONE, e(F(1, 3)), e(F(1, 2)), e(F(1, 5)))
        return ModularData(rank=4, s_tilde=rows, twists=twists)

    def test_fast_table_and_unitarity(self):
        md = self.hadamard()
        assert md._exponents is not None and md._law is None
        assert md._unitary  # by the dense packed check

    def test_dense_error_message(self):
        md = self.hadamard()
        with pytest.raises(PointedCatError) as fast:
            verlinde_fusion(md)
        with pytest.raises(PointedCatError) as slow:
            dense.verlinde(fresh(md))
        assert str(fast.value) == str(slow.value)
        assert_paths_agree(md, {})


even_gram = st.one_of(
    st.integers(-20, 20).filter(bool).map(lambda a: [[2 * a]]),
    st.tuples(st.integers(-5, 5), st.integers(-8, 8), st.integers(-5, 5)).map(
        lambda t: [[2 * t[0], t[1]], [t[1], 2 * t[2]]]),
)


def group_fusion(rows):
    """Fusion tensor of the oracle's group addition: N_ij^k = 1 iff k = i + j."""
    table = oracle.addition_table(oracle.brute_representatives(rows))
    rank = len(table)
    return tuple(tuple(tuple(int(table[i][j] == k) for k in range(rank)) for j in range(rank))
                 for i in range(rank))


@settings(max_examples=10, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(rows=even_gram, corruption=st.sampled_from((None,) + CORRUPTIONS))
def test_random_lattices_agree(rows, corruption):
    det = rows[0][0] if len(rows) == 1 else rows[0][0] * rows[1][1] - rows[0][1] ** 2
    assume(det != 0 and abs(det) <= 40)
    md = from_lattice(check_gram(rows))
    # For lattice S~ the dense Verlinde outcome is the group addition
    # (acceptance criterion 3), so the oracle stands in for it where S~ is
    # intact; the other corruptions run the dense Verlinde itself.
    memo = {("verlinde", id(md.s_tilde)): (md, group_fusion(rows))}
    if corruption is not None:
        assume(md.rank >= 2)
        md = corruption(md)
    assert_paths_agree(md, memo)
    # the dense (S~ T)^3 check takes any data, unitary or not
    if md.rank <= 16:
        assert_cube_forms_agree(md)


class TestRegressionPins:
    def test_rank_62_fusion_is_group_addition(self):
        md = from_lattice(check_gram([[62]]))
        assert verify_all(md).passed
        assert verlinde_fusion(md) == group_fusion([[62]])

    def test_rank_62_without_unitarity_report(self):
        # Every dense check runs, the (S~ T)^3 one as S~ T S~ and S~ T S~ T S~ on i <= j.
        md = with_pair_one(from_lattice(check_gram([[62]])))
        assert serialize(verify_all(md)).body == (
            "kind: report\n"
            "check: gauss_identity pass: p+ p- = D^2\n"
            "check: unitarity fail: S~ conj(S~)^t = D^2 I\n"
            "check: verlinde_integral fail: N(0,0)^1 = 1/62+1/62*e(16/31) "
            "is not a non-negative integer\n"
            "check: twists_unit pass: twist of the unit is 1\n"
            "check: s_symmetric pass: S~ = S~^t\n"
            "check: charge_conjugation fail: row 0 of S~^2 is not D^2 times a unit vector\n"
            "check: conjugation_involution fail: C undefined\n"
            "check: st_cubed fail: (S~ T)^3 = p+ D^2 I\n"
            "result: fail\n")

    def test_pointed_verify_takes_no_dense_product(self, monkeypatch):
        calls = {"reduced": 0, "inverse": 0}
        reduced, inverse = dense.reduced, Cyclotomic.inverse

        def counting_reduced(*args):
            calls["reduced"] += 1  # one call per sum the dense kernel forms
            return reduced(*args)

        def counting_inverse(self):
            calls["inverse"] += 1
            return inverse(self)

        monkeypatch.setattr(dense, "reduced", counting_reduced)
        monkeypatch.setattr(Cyclotomic, "inverse", counting_inverse)
        md = from_lattice(check_gram([[4, 4], [4, -4]]))
        assert md.rank == 32
        assert verify_all(md).passed
        assert calls == {"reduced": 0, "inverse": 0}
        assert "_packed" not in vars(md)  # the dense kernel's table was never built


def materialized(md):
    """The same data, provenance and labels included, built from its
    Cyclotomic values, which computes its exponent table at construction."""
    return ModularData(md.rank, md.s_tilde, md.twists, md.provenance, md.label_names)


def table_outcomes(md):
    """Everything the CLI prints from pointed data: the document, the report,
    link values and the canonical form, or the exception of each."""
    hopf = framed_link([[0, 1], [1, 0]], [1 % md.rank, md.rank - 1])
    chain = framed_link([[2, 1, 0], [1, -1, 1], [0, 1, 3]],
                        [md.rank - 1, md.rank // 2, 1 % md.rank])
    return [run(lambda m: serialize(m).body, md), run(lambda m: serialize(verify_all(m)).body, md),
            run(lambda m: colored_link_invariant(m, hopf), md),
            run(lambda m: colored_link_invariant(m, chain), md),
            run(lambda m: link_exponent(m, chain), md), run(canonical_form, md)]


class TestTableBacked:
    """from_lattice and the integer parse give ModularData that holds only its
    exponent table; everything read from it must equal what the same data
    built from Cyclotomic values gives."""

    def test_corpus_and_corruptions(self, corpus4):
        # all of corpus4, and the twist and pair corruptions of its theories
        # of rank 8 or less, written and parsed as documents
        outcomes = set()
        for gram in corpus4:
            md = from_lattice(gram)
            cases = [(from_lattice(gram), materialized(from_lattice(gram)))]
            if 2 <= md.rank <= 8:  # the pair corruption takes the dense checks
                for corrupt in (with_twist_one, with_pair_one):
                    body = serialize(corrupt(md)).body
                    cases.append((parse(Document("modular_data", body)), corrupt(md)))
            for table, values in cases:
                # the values hold, from construction, the table of the
                # lattice or of the parse of the same data in root tokens
                assert "s_tilde" not in vars(table)
                assert vars(values)["_exponents"] == vars(table)["_exponents"]
                got, want = table_outcomes(table), table_outcomes(values)
                # only data without a law, or whose law fails the cube check,
                # needs values: the dense checks or the exact Gauss sums
                assert "s_tilde" not in vars(table) or not table._cubed
                assert all(map(same_outcome, got, want)), (gram, got, want)
                assert repr(table) == repr(values)  # canonical coefficients
                assert md.rank > 6 or table == values
                for data in (table, values):
                    with pytest.raises(TypeError, match="unhashable type: 'Cyclotomic'"):
                        hash(data)
                outcomes.add(tuple(isinstance(x, Exception) for x in got))
        # passing and failing reports, links refused without provenance, and
        # canonical forms refused past the rank bound all occur
        assert len(outcomes) >= 3

    def test_gauss_theorem_agrees_with_the_exact_sums(self, corpus4_data):
        # a group law that passes the cube check implies p+ p- = D^2, so
        # verify_all forms no Gauss sum; check that against the sums
        outcomes = set()
        for _, md in corpus4_data:
            twisted = [] if md.rank < 2 else [with_twist_one(md), with_conjugate_twist(md)]
            for data in [fresh(md), *twisted]:
                assert data._law is not None
                report = verify_all(data)
                gauss = next(c.passed for c in report.checks if c.name == "gauss_identity")
                assert gauss == data._gauss.identity_holds
                assert gauss or not data._cubed
                outcomes.add((data._cubed, gauss))
        assert outcomes == {(True, True), (False, True), (False, False)}


def with_conjugate_twist(md):
    """Twist 1 conjugated: the law stays, and the cube check usually fails."""
    twists = list(md.twists)
    twists[1] = twists[1].conjugate()
    return ModularData(rank=md.rank, s_tilde=md.s_tilde, twists=tuple(twists))
