"""The packed-integer kernel against plain Cyclotomic arithmetic.

The checks of pointedcat.dense (unitarity, S~^2, the one- and two-product
(S~ T)^3 and Verlinde) pack integer coefficients into big integers
(Kronecker substitution). Each is compared here with a reference that
multiplies and adds Cyclotomic values one at a time, as cyclo.dot does.
"""

import random
import time
from fractions import Fraction as F
from math import comb, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from pointedcat import (
    FusionTensor,
    ModularData,
    NonIntegralFusion,
    PointedCatError,
    dense,
    parse,
    root_of_unity,
    serialize,
    verify_all,
)
from pointedcat.cyclo import Cyclotomic, dot, sum_values
from pointedcat.dense import from_integers, integer_coefficients, pack, slot_width, unpack

ONE = root_of_unity(0)
BIG = 2 ** 70


def values_at(n):
    """Sums of up to three terms c * e(k/m) with m dividing n, so conductors mix."""
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    numerator = st.one_of(st.integers(-9, 9), st.integers(BIG - 9, BIG + 9),
                          st.integers(-BIG - 9, -BIG + 9))
    coeff = st.builds(F, numerator, st.integers(1, 6))
    term = st.tuples(coeff, st.sampled_from(divisors), st.integers(0, 59))
    return st.lists(term, max_size=3).map(lambda terms: sum_values(
        Cyclotomic.from_rational(c) * root_of_unity(F(k, m)) for c, m, k in terms))


def packed_dot(xs, ys):
    """sum_i xs[i]*ys[i] on the dense kernel: the values' integer coefficients
    are packed, the products summed as integers, and the sum unpacked once."""
    values = [v for pair in zip(xs, ys) for v in pair]
    n = lcm(*(v.conductor for v in values))
    den, rows = integer_coefficients(values, n)
    pairs = list(zip(rows[0::2], rows[1::2]))
    # each 1-norm counts as at least 1, so the bound covers every input too
    bound = sum(max(1, sum(map(abs, u))) * max(1, sum(map(abs, v))) for u, v in pairs)
    width = slot_width(bound)
    total = sum(pack(u, width) * pack(v, width) for u, v in pairs)
    return from_integers(n, unpack(total, width, n), den * den)


pair_lists = st.integers(1, 60).flatmap(
    lambda n: st.lists(st.tuples(values_at(n), values_at(n)), max_size=4))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(pair_lists)
@example([(Cyclotomic.from_rational(BIG + 1), Cyclotomic.from_rational(BIG + 3))] * 3)
@example([(Cyclotomic.from_rational(F(-BIG, 3)), Cyclotomic.from_rational(F(BIG - 1, 5)))])
def test_dot_matches_sum_of_products(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    expected = sum_values(x * y for x, y in pairs)
    assert packed_dot(xs, ys) == expected
    assert dot(xs, ys) == expected


def test_dot_fills_its_slots():
    # Equal signs and rational values reach the width bound exactly.
    xs = [Cyclotomic.from_rational(BIG - 1)] * 4
    for inner in (packed_dot, dot):
        assert inner(xs, xs) == 4 * (BIG - 1) ** 2
        assert inner(xs, [-x for x in xs]) == -4 * (BIG - 1) ** 2


# -- byte-slot packing against the shift loops --------------------------------

signed_rows = st.integers(1, 2 ** 80).flatmap(
    lambda bound: st.tuples(st.just(bound), st.lists(st.integers(-bound, bound), max_size=90)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(signed_rows, st.integers(1, 60))
@example((255, [255, -255, 0, -1, 1]), 3)  # the slot bound, at a byte boundary
@example((2 ** 64, [-(2 ** 64)] * 9), 4)
def test_pack_and_unpack_match_shift_loops(row, n):
    bound, coeffs = row
    width = slot_width(bound)
    assert width % 8 == 0 and width >= bound.bit_length() + 2
    value = pack(coeffs, width)
    assert value == oracle.pack_by_shifts(coeffs, width)
    folded = oracle.unpack_by_shifts(value, width, n)
    assert unpack(value, width, n) == oracle.reduce_mod_phi(n, folded)


def test_pack_and_unpack_are_linear():
    # 100k coefficients at width 40: the shift loops took 20 s to pack and 30 s to unpack
    rng = random.Random(20)
    coeffs = [rng.randint(-2 ** 37, 2 ** 37) for _ in range(100_000)]
    width = slot_width(2 ** 37)
    start = time.perf_counter()
    folded = unpack(pack(coeffs, width), width, 2)  # modulo Phi_2 = x + 1
    assert time.perf_counter() - start < 1.0
    assert width == 40 and folded == (sum(coeffs[0::2]) - sum(coeffs[1::2]),)


# -- plain references -------------------------------------------------------

def product(a, b):
    return [[sum_values(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b))]
            for row in a]


def ref_square(md):
    s = md.s_tilde
    return tuple(tuple(sum_values(x * y for x, y in zip(si, sj)) for sj in s) for si in s)


def ref_unitary(md):
    d_squared = md._gauss.d_squared
    s = md.s_tilde
    return all(
        sum_values(x * y.conjugate() for x, y in zip(si, sj)) == (d_squared if i == j else 0)
        for i, si in enumerate(s) for j, sj in enumerate(s))


def ref_st_cubed(md):
    st = [[x * t for x, t in zip(row, md.twists)] for row in md.s_tilde]
    cube = product(product(st, st), st)
    scalar = md._gauss.p_plus * md._gauss.d_squared
    return all(x == (scalar if i == j else 0)
               for i, row in enumerate(cube) for j, x in enumerate(row))


def ref_verlinde(md):
    s = md.s_tilde
    inv_d2 = md._gauss.d_squared.inverse()
    weights = [[x.conjugate() * d.inverse() for x, d in zip(row, s[0])] for row in s]
    table = [[None] * md.rank for _ in s]
    for i in range(md.rank):
        for j in range(i, md.rank):
            prods = [x * y for x, y in zip(s[i], s[j])]
            entries = []
            for k, row in enumerate(weights):
                value = sum_values(p * w for p, w in zip(prods, row)) * inv_d2
                if not (value.is_rational() and value.as_rational().denominator == 1
                        and value.as_rational() >= 0):
                    raise NonIntegralFusion(
                        f"N({i},{j})^{k} = {value} is not a non-negative integer")
                entries.append(int(value.as_rational()))
            table[i][j] = table[j][i] = tuple(entries)
    return FusionTensor(tuple(map(tuple, table)))


# -- data -------------------------------------------------------------------

def fresh(md):
    return ModularData(rank=md.rank, s_tilde=md.s_tilde, twists=md.twists)


def with_twist_one(md):
    """Twist 1 set to 1: unitarity and fusion stay, (S~ T)^3 breaks."""
    twists = (ONE, ONE) + md.twists[2:]
    return ModularData(rank=md.rank, s_tilde=md.s_tilde, twists=twists)


def with_pair_one(md):
    """Entries (1, rank-1) and (rank-1, 1) set to 1: breaks unitarity."""
    rows = [list(row) for row in md.s_tilde]
    last = md.rank - 1
    rows[1][last] = rows[last][1] = ONE
    return ModularData(rank=md.rank, s_tilde=tuple(map(tuple, rows)), twists=md.twists)


def with_half(md):
    """Entry (1, 1) halved: a denominator, and a non-integral fusion entry."""
    rows = [list(row) for row in md.s_tilde]
    rows[1][1] = rows[1][1] * F(1, 2)
    return ModularData(rank=md.rank, s_tilde=tuple(map(tuple, rows)), twists=md.twists)


def outcome(fn, md):
    try:
        return fn(md)
    except PointedCatError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def cases(ising, su2):
    clean = [ising] + [su2(k) for k in range(2, 9)]
    # D^2 = 1 + (1 + e(4/5))^2 has constant coefficient 0 at conductor 5, so
    # the Verlinde test must pivot on another coefficient.
    d = ONE + root_of_unity(F(4, 5))
    pivot = ModularData(rank=2, s_tilde=((ONE, d), (d, ONE)), twists=(ONE, ONE))
    return [corrupt(md) for md in clean
            for corrupt in (fresh, with_twist_one, with_pair_one, with_half)] + [pivot]


class TestDenseChecks:
    def test_packed_rows(self, cases):
        # S~ alone packs at its own conductor, S~T at the lcm with the twists'
        assert max(md._packed.den for md in cases) == 2  # the halved entries
        for md in cases:
            untwisted, p = md._packed, dense.packed(md, twists=True)
            assert untwisted.n == lcm(*(x.conductor for row in md.s_tilde for x in row))
            assert p.n == lcm(untwisted.n, *(t.root_exponent().denominator for t in md.twists))
            assert untwisted.st == untwisted.t == ()
            for i, row in enumerate(md.s_tilde):
                for j, x in enumerate(row):
                    for q in (untwisted, p):
                        assert from_integers(q.n, q.s[i][j], q.den) == x
                        assert from_integers(q.n, q.conj[i][j], q.den) == x.conjugate()
                    assert from_integers(p.n, p.st[i][j], p.den ** 2) == x * md.twists[j]

    def test_unitarity_and_square(self, cases):
        for md in cases:
            assert dense.unitary(md) == ref_unitary(md)
            assert dense.square(md) == ref_square(md)

    def test_conjugation(self, cases):
        # the unitary lookup and the formed S~^2 against the plain S~^2
        unitary = 0
        for md in cases:
            d_squared = md._gauss.d_squared
            expected = []
            for row in ref_square(md):
                hits = [j for j, x in enumerate(row) if x != 0]
                expected.append(hits[0] if len(hits) == 1 and row[hits[0]] == d_squared else None)
            assert dense.conjugation(md) == expected
            unitary += md._unitary
        assert 0 < unitary < len(cases)

    def test_st_cubed(self, cases):
        unitary_outcomes = set()
        for md in cases:
            expected = ref_st_cubed(md)
            assert dense.st_cubed(md) == expected
            if md._unitary:
                assert dense.st_cubed_one_product(md) == expected
                unitary_outcomes.add(expected)
        assert unitary_outcomes == {True, False}

    def test_zero_side_leaves_room_for_the_other(self):
        # (S~ T)^2 = 0 and p+ = 1 - 169/25 + 144/25 = 0, so both (S~ T)^3 checks
        # multiply an all-zero side by coefficients up to 169 = 25 * 169/25.
        r = [F(1), F(13, 5), F(12, 5)]
        s_tilde = tuple(tuple(Cyclotomic.from_rational(x * y) for y in r) for x in r)
        md = ModularData(rank=3, s_tilde=s_tilde,
                         twists=(ONE, root_of_unity(F(1, 2)), ONE))
        assert md._gauss.p_plus.is_zero()
        assert dense.st_cubed(md) is dense.st_cubed_one_product(md) is ref_st_cubed(md) is True

    def test_verlinde(self, cases):
        references = {}  # the twist corruption keeps S~
        failures = 0
        for md in cases:
            key = id(md.s_tilde)
            if key not in references:
                references[key] = outcome(ref_verlinde, md)
            assert outcome(dense.verlinde, md) == references[key]
            failures += isinstance(references[key], tuple)
        assert failures >= len(cases) // 4  # the pair and halved corruptions raise


# -- the symmetric Verlinde pass ----------------------------------------------

def fibonacci():
    phi = ONE + root_of_unity(F(1, 5)) + root_of_unity(F(4, 5))  # the golden ratio
    return ModularData(rank=2, s_tilde=((ONE, phi), (phi, -ONE)),
                       twists=(ONE, root_of_unity(F(2, 5))))


def deligne(a, b):
    """a ⊠ b: S~ and T as Kronecker products, label (i, x) at i * b.rank + x."""
    s_tilde = tuple(tuple(x * y for x in ai for y in bx) for ai in a.s_tilde for bx in b.s_tilde)
    twists = tuple(t * u for t in a.twists for u in b.twists)
    return ModularData(rank=a.rank * b.rank, s_tilde=s_tilde, twists=twists)


def copied(md):
    """The same data with every entry a new object (sum_values builds one)."""
    return ModularData(rank=md.rank, twists=md.twists,
                       s_tilde=tuple(tuple(sum_values([x]) for x in row) for row in md.s_tilde))


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSymmetricVerlinde:
    """With every conj(row k) a row C(k), dense.verlinde sums only i <= j <= k;
    any failure reruns the (i <= j, all k) pass, which names the first bad entry.
    Each outcome is compared with ref_verlinde, exception text included."""

    def test_non_self_dual(self, z3, monkeypatch):
        md = deligne(fibonacci(), z3)
        assert md._law is None and md._unitary
        duals = md._duals
        assert None not in duals and duals != list(range(md.rank))  # C is not the identity
        expected = ref_verlinde(md)
        unpacks = counting(monkeypatch, dense, "unpack")
        assert dense.verlinde(md) == expected
        # one sum per i <= j <= k, and one reduction per weight S~_ka / d_a
        assert len(unpacks) == comb(md.rank + 2, 3) + md.rank ** 2
        assert verify_all(fresh(md)).passed

    def test_conj_rows_are_rows_but_fusion_is_not_integral(self, monkeypatch):
        # N(1,1)^1 = (2^3 + (-1)^3 / 2) / 5 = 3/2
        rows = ((1, 2), (2, -1))
        md = ModularData(rank=2, s_tilde=tuple(tuple(map(Cyclotomic.from_rational, row))
                                               for row in rows), twists=(ONE, ONE))
        assert md._duals == [0, 1]
        expected = (NonIntegralFusion, "N(1,1)^1 = 3/2 is not a non-negative integer")
        assert outcome(ref_verlinde, md) == expected
        unpacks = counting(monkeypatch, dense, "unpack")
        assert outcome(dense.verlinde, md) == expected
        # the symmetric pass fails at its last sum; the full pass reruns to (1, 1, 1)
        assert len(unpacks) == (comb(4, 3) + 4) + (6 + 4)

    def test_first_bad_entry_is_named_after_a_symmetric_failure(self, z3):
        # R is orthogonal with R^2 = 9 I, but sum_a R_1a^3 / d_a = 9/2. In R ⊠ Z3,
        # relabeled so that labels 3, 4, 5 are (1, 1), (1, 2), (1, 0), the
        # symmetric pass first fails at Y(3, 3, 3) = N(3,3)^C(3) = N(3,3)^4,
        # and the full pass must name that entry, not (3, 3, 3).
        rows = ((1, 2, 2), (2, -2, 1), (2, 1, -2))
        r = ModularData(rank=3, s_tilde=tuple(tuple(map(Cyclotomic.from_rational, row))
                                              for row in rows), twists=(ONE,) * 3)
        md = deligne(r, z3)
        order = [0, 1, 2, 4, 5, 3, 6, 7, 8]
        md = ModularData(rank=9, s_tilde=tuple(tuple(md.s_tilde[a][b] for b in order)
                                               for a in order),
                         twists=tuple(md.twists[a] for a in order))
        assert md._duals == [0, 2, 1, 4, 3, 5, 6, 8, 7] and md._unitary
        expected = (NonIntegralFusion, "N(3,3)^4 = 1/2 is not a non-negative integer")
        assert outcome(ref_verlinde, md) == expected
        assert outcome(dense.verlinde, md) == expected

    def test_equal_entries_as_distinct_objects(self, su2):
        for md in (su2(8), with_half(su2(8))):
            copy = copied(md)
            assert copy.s_tilde[1][1] is not md.s_tilde[1][1]
            assert outcome(dense.verlinde, copy) == outcome(ref_verlinde, md)

    @pytest.mark.parametrize("k", [6, 7])
    def test_each_distinct_dimension_is_inverted_once(self, su2, monkeypatch, k):
        # parsed values sit at their minimal conductor, so d_a = d_(k-a) share
        # (conductor, coefficients) as different objects
        md = parse(serialize(su2(k)))
        expected = ref_verlinde(md)
        md._duals, md._packed, md._gauss  # cached before counting
        inverses = counting(monkeypatch, Cyclotomic, "inverse")
        assert dense.verlinde(md) == expected
        assert len(inverses) == k // 2 + 1

    def test_equal_dimensions_at_different_conductors_are_inverted_once(self, su2, monkeypatch):
        # built in code, SU(2)_9 holds d_a at conductor 22 and the equal d_(9-a)
        # at 11 (Q(zeta_22) = Q(zeta_11)); its 5 distinct dimensions are keyed
        # by their packed rows, not by (conductor, coefficients)
        k = 9
        md = su2(k)
        dims = md.s_tilde[0]
        assert dims[1] == dims[8] and dims[1].conductor != dims[8].conductor
        md._duals, md._packed, md._gauss  # cached before counting
        inverses = counting(monkeypatch, Cyclotomic, "inverse")
        fusion = dense.verlinde(md)
        assert len(inverses) == 5
        # the truncated Clebsch-Gordan rule of SU(2)_k
        labels = range(k + 1)
        assert fusion.multiplicities == tuple(tuple(tuple(
            int(abs(i - j) <= c <= min(i + j, 2 * k - i - j) and (i + j + c) % 2 == 0)
            for c in labels) for j in labels) for i in labels)


def test_integer_coefficients_converts_each_distinct_value_once(monkeypatch):
    third = root_of_unity(F(1, 3))
    values = [sum_values([third]) for _ in range(4)] + [Cyclotomic.from_rational(F(1, 2))] * 3
    values += [third * F(2, 5)]
    reductions = counting(monkeypatch, dense, "_reduce")
    den, rows = integer_coefficients(values, 12)
    assert len(reductions) == 3 and den == 10
    assert all(from_integers(12, row, den) == x for row, x in zip(rows, values))
    assert len(rows) == len(values) and rows[0] is rows[3]
