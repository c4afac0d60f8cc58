"""The packed-integer kernel against plain Cyclotomic arithmetic.

The checks of pointedcat.dense (unitarity, S~^2, (S~ T)^3 and Verlinde)
pack integer coefficients into big integers (Kronecker substitution) and
reduce each sum modulo Phi_n as one integer. Each is compared here with a
reference that multiplies and adds Cyclotomic values one at a time, as
cyclo.dot does, and the reduction with oracle.reduce_mod_phi.
"""

import random
import time
from fractions import Fraction as F
from math import comb, lcm
from operator import mul

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracle
from oracle import deligne, fibonacci, fresh, with_pair_one, with_twist_one
from pointedcat import (
    ModularData,
    NotModular,
    PointedCatError,
    ValidationError,
    check_gram,
    dense,
    from_lattice,
    parse,
    root_of_unity,
    serialize,
    verify_all,
)
from pointedcat.cyclo import Cyclotomic, dot, sum_values
from pointedcat.cyclo_core import _cyclotomic_poly
from pointedcat.dense import integer_coefficients, pack, reduced, ring, slot_width, slots

ONE = root_of_unity(0)
BIG = 2 ** 70


def from_integers(n, coeffs, den):
    """The value with coefficients coeffs / den at conductor n (reduced)."""
    return Cyclotomic(n, tuple(F(c, den) for c in coeffs))


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
    are packed, the products summed as integers, and the sum reduced once and
    its slots read."""
    values = [v for pair in zip(xs, ys) for v in pair]
    n = lcm(*(v.conductor for v in values))
    den, rows = integer_coefficients(values, n)
    pairs = list(zip(rows[0::2], rows[1::2]))
    # each 1-norm counts as at least 1, so the bound covers every input too
    bound = sum(max(1, sum(map(abs, u))) * max(1, sum(map(abs, v))) for u, v in pairs)
    width, field = ring(n, bound)
    total = sum(pack(u, width) * pack(v, width) for u, v in pairs)
    phi = len(_cyclotomic_poly(n)) - 1
    return from_integers(n, slots(reduced(total, field), width, phi), den * den)


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
@given(signed_rows)
@example((255, [255, -255, 0, -1, 1]))  # the slot bound, at a byte boundary
@example((2 ** 64, [-(2 ** 64)] * 9))
def test_pack_and_slots_match_shift_loops(row):
    bound, coeffs = row
    width = slot_width(bound)
    assert width % 8 == 0 and width >= bound.bit_length() + 2
    value = pack(coeffs, width)
    assert value == oracle.pack_by_shifts(coeffs, width)
    digits = oracle.unpack_by_shifts(value, width, len(coeffs))
    assert list(slots(value, width, len(coeffs))) == digits
    assert slots(value, width, len(coeffs) + 2) == (*coeffs, 0, 0)


def test_pack_and_reduced_are_linear():
    # 100k coefficients: at width 40 the shift loops took 20 s to pack and 30 s
    # to unpack; reduced modulo Phi_2 = x + 1 (a 1-norm of about 2^52, width 56)
    rng = random.Random(20)
    coeffs = [rng.randint(-2 ** 37, 2 ** 37) for _ in range(100_000)]
    width, field = ring(2, sum(map(abs, coeffs)))
    start = time.perf_counter()
    folded = slots(reduced(pack(coeffs, width), field), width, 1)
    assert time.perf_counter() - start < 1.0
    assert width == 56 and folded == (sum(coeffs[0::2]) - sum(coeffs[1::2]),)


# -- reduction modulo Phi_n as one integer, against the synthetic division -----

# 105 = 3 5 7 is the least n with a coefficient of Phi_n (and of some x^k
# reduced) of 2, and 595 = 5 7 17 has an x^k reduced with a coefficient of 4,
# more than the two spare bits of slot_width cover
CONDUCTORS = [1, 2, 4, 8, 9, 12, 15, 36, 68, 72, 105, 595]


def reduced_rows(n, bound):
    """Raw coefficients of 1-norm about bound (up to 2n of them, as in a sum
    of products of reduced rows): a multiple of Phi_n, or anything."""
    phi = _cyclotomic_poly(n)

    def times_phi(q):
        out = [0] * (len(q) + len(phi) - 1)
        for i, c in enumerate(q):
            for j, t in enumerate(phi):
                out[i + j] += c * t
        return out

    multiple = st.lists(st.integers(-3, 3), min_size=1, max_size=n + 1).filter(any).map(times_phi)
    anything = st.lists(st.integers(-3, 3), min_size=1, max_size=2 * n).filter(any)
    return st.one_of(multiple, anything).map(
        lambda raw: [c * max(1, bound // sum(map(abs, raw))) for c in raw])


# bounds at byte boundaries, and one whose Phi_n(2^width) is long enough
# (past 3072 + 64 n bits) to be reduced from its slots
BOUNDS = [1, 63, 2 ** 14 - 1, 2 ** 40 + 5, 2 ** 62 - 1, 2 ** 9000 + 5]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from(CONDUCTORS).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from(BOUNDS).flatmap(lambda bound: reduced_rows(n, bound)))))
@example((595, [0] * 401 + [2 ** 14 - 1]))  # a slot of 4 (2^14 - 1) once reduced
@example((105, [0] * 48 + [-(2 ** 14 - 1)]))
@example((12, [0] * 4 + [63, 0, -63, 0, 63]))  # 63 x^4 Phi_12 = 0 modulo Phi_12
def test_reduced_matches_synthetic_division(case):
    n, raw = case
    bound = sum(map(abs, raw))  # the sum is at its bound
    expected = oracle.reduce_mod_phi(n, raw)
    width, field = ring(n, bound)
    assert field == (oracle.pack_by_shifts(oracle.cyclotomic_poly(n), width), width, n)
    x = reduced(pack(raw, width), field)  # at 2^9000 + 5, by its slots
    event("zero" if not any(expected) else "nonzero")
    assert slots(x, width, len(expected)) == tuple(expected)
    assert x == pack(expected, width) and (x == 0) == (not any(expected))
    # X = m unit exactly when the residue is m times unit packed, m unit in range
    unit = expected if any(expected) else (1,) + (0,) * (len(expected) - 1)
    for m in range(3):
        target = oracle.reduce_mod_phi(n, [m * c for c in unit])
        assert (x == m * pack(unit, width)) == (tuple(expected) == target)


def test_long_moduli_are_reduced_from_the_slots():
    # CPython divides in quadratic time: at n = 12 and 16k bits of Phi_n(2^w),
    # reading, folding and reducing the slots of a sum of products was
    # measured 8x faster than dividing it alone
    n, width, rng = 12, 4096, random.Random(5)
    field = (pack(_cyclotomic_poly(n), width), width, n)
    half = field[0] >> 1
    rows = [pack([rng.randrange(-2 ** 2000, 2 ** 2000) for _ in range(4)], width)
            for _ in range(84)]
    values = [sum(map(mul, rows[k:k + 7], rows[k + 7:k + 14])) for k in range(0, 84, 14)]

    def best(reduce):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            out = [reduce(x) for x in values]
            times.append(time.perf_counter() - start)
        return min(times), out

    fast, out = best(lambda x: reduced(x, field))
    slow, expected = best(lambda x: (x + half) % field[0] - half)
    assert out == expected
    assert 3 * fast < slow


def test_long_moduli_fold_every_slot_of_a_long_sum():
    # past the 3072 + 64 n bit bound, a sum of 3n + 5 slots folds all of them
    # by x^n = 1 and keeps the symmetric residue of dividing it alone
    rng = random.Random(7)
    for n, width in ((12, 1024), (16, 576)):
        field = (pack(_cyclotomic_poly(n), width), width, n)
        assert field[0].bit_length() > 3072 + 64 * n
        half = field[0] >> 1
        for _ in range(5):
            x = pack([rng.randrange(-2 ** 200, 2 ** 200) for _ in range(3 * n + 5)], width)
            assert reduced(x, field) == (x + half) % field[0] - half


def test_ring_width_covers_the_largest_reduced_monomial():
    for n in list(range(1, 73)) + [105]:
        top = max(max(map(abs, oracle.reduce_mod_phi(n, [0] * k + [1]))) for k in range(n))
        for bound in (1, 63, 2 ** 14 - 1):
            assert ring(n, bound)[0] == slot_width(bound * top), n
    # the largest is 1 for 104, 2 for 105, 3 for 385 and 4 for 595
    assert [ring(n, 63)[0] for n in (104, 105, 385)] == [8, 16, 16]
    assert -4 in oracle.reduce_mod_phi(595, [0] * 401 + [1])
    assert ring(595, 2 ** 14 - 1)[0] == slot_width(4 * (2 ** 14 - 1)) == 24


def test_ring_finds_its_bound_once_per_conductor(monkeypatch):
    # ring reads Phi_n on each call, and the O(n phi(n)) recurrence for the
    # largest reduced monomial reads it once more, on the first call at n only
    dense._largest_monomial.cache_clear()
    polys = counting(monkeypatch, dense, "_cyclotomic_poly")
    widths = [ring(n, bound)[0] for n in (1020, 1024, 1020) for bound in (1, 63, 2 ** 14 - 1)]
    assert len(polys) == len(widths) + 2
    assert widths[:3] == widths[6:] and widths[3:6] == [8, 8, 16]


# -- plain references -------------------------------------------------------

def product(a, b):
    return [[sum_values(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b))]
            for row in a]


def ref_square(md):
    s = md.s_tilde
    return tuple(tuple(sum_values(x * y for x, y in zip(si, sj)) for sj in s) for si in s)


def ref_conjugation(md):
    """For each row i of the plain S~^2, the c with that row D^2 e_c, or None."""
    d_squared = md._gauss.d_squared
    perm = []
    for row in ref_square(md):
        hits = [j for j, x in enumerate(row) if x != 0]
        perm.append(hits[0] if len(hits) == 1 and row[hits[0]] == d_squared else None)
    return perm


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
                    raise NotModular(
                        f"N({i},{j})^{k} = {value} is not a non-negative integer")
                entries.append(int(value.as_rational()))
            table[i][j] = table[j][i] = tuple(entries)
    return tuple(map(tuple, table))


# -- data -------------------------------------------------------------------

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


def z3_fibonacci():
    """Z/3 from [[2,1],[1,2]] with both non-unit twists set to e(2/3), times
    Fibonacci: rank 6, not self-dual, on the dense path; its cube check fails."""
    z3 = from_lattice(check_gram([[2, 1], [1, 2]]))
    z3_t = (ONE, root_of_unity(F(2, 3)), root_of_unity(F(2, 3)))
    phi = ONE + root_of_unity(F(1, 5)) + root_of_unity(F(4, 5))
    fib_s, fib_t = ((ONE, phi), (phi, -ONE)), (ONE, root_of_unity(F(2, 5)))
    labels = [(a, f) for a in range(3) for f in range(2)]
    return ModularData(rank=6, twists=tuple(z3_t[a] * fib_t[f] for a, f in labels),
                       s_tilde=tuple(tuple(z3.s_tilde[a][b] * fib_s[f][g] for b, g in labels)
                                     for a, f in labels))


class TestDenseChecks:
    def test_packed_rows(self, cases):
        # S~ and conj(S~) pack at the conductor of S~; the cube check takes S~
        # and S~T at the lcm n_t with the twists', theta_a = e(t[a]/n_t)
        assert max(md._packed.den for md in cases) == 2  # the halved entries
        for md in cases:
            p = md._packed
            n, den, s, st = dense.twisted(md)
            assert p.n == lcm(*(x.conductor for row in md.s_tilde for x in row))
            assert p.n_t == n == lcm(p.n, *(t.root_exponent().denominator for t in md.twists))
            assert [root_of_unity(F(t, p.n_t)) for t in p.t] == list(md.twists)
            assert den == p.den
            for i, row in enumerate(md.s_tilde):
                for j, x in enumerate(row):
                    assert from_integers(p.n, p.s[i][j], p.den) == x
                    assert from_integers(p.n, p.conj[i][j], p.den) == x.conjugate()
                    assert from_integers(n, s[i][j], den) == x
                    assert from_integers(n, st[i][j], den ** 2) == x * md.twists[j]

    def test_unitarity_and_square(self, cases):
        # S~ conj(S~)^t against D^2 I, and the packed S~^2 that conjugation
        # reads without unitarity, reduced and read, against the plain products
        for md in cases:
            assert dense.unitary(md) == ref_unitary(md)
            p = md._packed
            width, _, rows = dense.products(p.n, p.s, p.s)
            phi = len(p.s[0][0])
            square = [[from_integers(p.n, slots(x, width, phi), p.den ** 2) for x in row]
                      for row in dense.mirrored(list(rows))]
            assert square == list(map(list, ref_square(md)))

    def test_conjugation(self, cases):
        # the unitary lookup and the formed S~^2 against the plain S~^2
        unitary = 0
        for md in cases:
            assert dense.conjugation(md) == ref_conjugation(md)
            unitary += md._unitary
        assert 0 < unitary < len(cases)
        # S~^2 = diag(1, 4, 1) has one nonzero entry per row, but D^2 = 1
        zero, two = Cyclotomic.from_rational(0), Cyclotomic.from_rational(2)
        md = ModularData(rank=3, s_tilde=((ONE, zero, zero), (zero, two, zero), (zero, zero, ONE)),
                         twists=(ONE,) * 3)
        assert dense.conjugation(md) == ref_conjugation(md) == [0, None, 2]

    def test_st_cubed(self, cases):
        # one check for every input: unitary or not, clean or with a twist corrupted
        outcomes = set()
        for md in cases:
            expected = ref_st_cubed(md)
            assert dense.st_cubed(md) == expected
            outcomes.add((md._unitary, expected))
        assert {(True, True), (True, False), (False, False)} <= outcomes

    def test_st_cubed_reads_every_row(self):
        # Charge conjugation swaps the two non-unit Z/3 labels and fixes 0, and
        # the corruption is C-symmetric, so row 0 of S~ T S~ T S~ (and row 1) is
        # right; rows 2-5 are not. A cube check that compared row 0 only would
        # pass this data.
        md = z3_fibonacci()
        assert md._exponents is None
        assert [c.name for c in verify_all(md).checks if not c.passed] == ["st_cubed"]
        assert dense.st_cubed(md) is ref_st_cubed(md) is False
        n, den, s, st = dense.twisted(md)
        width, _, a = dense.products(n, st, s)
        a = dense.mirrored([[slots(x, width, len(s[0][0])) for x in row] for row in a])
        target = md._gauss.p_plus * md._gauss.d_squared
        expected = dense.scaled(n, [target * t.conjugate() for t in md.twists], den ** 5)
        _, expected, rows = dense.products(n, a, st, *expected)
        assert [row == [want] + [0] * (len(row) - 1) for row, want in zip(rows, expected)] == \
            [True, True, False, False, False, False]

    def test_s_tilde_is_converted_once(self, su2, monkeypatch):
        # conj(S~), S~ T and the cube's right side are the Galois map of the
        # packed rows of S~: packing converts the values once and conjugates
        # none, and the cube check multiplies two values, p+ and D^2
        conjugates = counting(monkeypatch, Cyclotomic, "conjugate")
        conversions = counting(monkeypatch, dense, "integer_coefficients")
        products = counting(monkeypatch, Cyclotomic, "__mul__")
        for md, passes in ((fresh(su2(8)), True), (z3_fibonacci(), False)):
            del conjugates[:], conversions[:]
            md._packed
            assert conjugates == [] and len(conversions) == 1
            md._gauss
            del conjugates[:], products[:]
            assert dense.st_cubed(md) is passes
            assert len(products) == 1 and conjugates == []

    def test_zero_side_leaves_room_for_the_other(self):
        # S~ T S~ = 0 and p+ = 1 - 169/25 + 144/25 = 0, so (S~ T S~) T S~ multiplies
        # an all-zero side by coefficients up to 169/25 times den^2 = 625.
        r = [F(1), F(13, 5), F(12, 5)]
        s_tilde = tuple(tuple(Cyclotomic.from_rational(x * y) for y in r) for x in r)
        md = ModularData(rank=3, s_tilde=s_tilde,
                         twists=(ONE, root_of_unity(F(1, 2)), ONE))
        assert md._gauss.p_plus.is_zero() and not dense.unitary(md)
        assert dense.st_cubed(md) is ref_st_cubed(md) is True

    def test_products_form_the_upper_triangle_only(self, su2, monkeypatch):
        # S~ conj(S~)^t, S~^2, S~ T S~ and S~ T S~ T S~ are symmetric or Hermitian;
        # each sum the kernel forms is reduced once
        md = su2(6)
        pair = with_pair_one(md)  # S~^2 is formed only without unitarity
        r = md.rank
        md._packed, pair._packed  # packing converts coefficients, with no sum
        assert not pair._unitary
        calls = counting(monkeypatch, dense, "reduced")
        assert dense.unitary(md)
        assert len(calls) == r * (r + 1) // 2
        del calls[:]
        assert dense.conjugation(pair) == ref_conjugation(pair)
        assert len(calls) == r * (r + 1) // 2
        del calls[:]
        assert dense.st_cubed(md)
        assert len(calls) == r * (r + 1)

    def test_passing_data_reads_no_decided_entry(self, su2, monkeypatch):
        # a passing SU(2)_16 verify decides every entry of unitarity, Verlinde
        # and the cube on its reduced integer, each sum reduced once; slots
        # reads only the entries of S~ T S~, each distinct one once, whose
        # 1-norms size the second cube product. The inverses of the 9 distinct
        # d_a read the slots of their own products, each once, and are counted
        # apart.
        md = parse(serialize(su2(16)))
        sums = counting(monkeypatch, dense, "reduced")
        reads = counting(monkeypatch, dense, "slots")
        products = counting(monkeypatch, dense, "_times")
        inverse, inverted, inverse_reads = Cyclotomic.inverse, [], []

        def counted_inverse(x):
            inverted.append(x)
            before = len(reads)
            result = inverse(x)
            inverse_reads.extend(reads[before:])
            del reads[before:]
            return result

        monkeypatch.setattr(Cyclotomic, "inverse", counted_inverse)
        assert verify_all(md).passed
        r = md.rank
        assert len(sums) == r * (r + 1) // 2 + comb(r + 2, 3) + r * r + r * (r + 1)
        assert len(set(reads)) == len(reads) < r * (r + 1) // 2
        assert len(inverted) == 9 and sum(not x.is_rational() for x in inverted) == 8
        assert 8 <= len(inverse_reads) == len(products)

    def test_cube_check_alone_is_work_bounded(self, su2, monkeypatch):
        # S~_ij (i, j >= 1) times 10^4000 + 7: 53 s of dense work, refused by
        # the cube check before any product when it is the first dense call
        md, f = su2(16), 10 ** 4000 + 7
        rows = tuple(tuple(x if 0 in (i, j) else x * f for j, x in enumerate(row))
                     for i, row in enumerate(md.s_tilde))
        scaled = ModularData(rank=md.rank, s_tilde=rows, twists=md.twists)
        calls = counting(monkeypatch, dense, "reduced")
        with pytest.raises(ValidationError, match="exceeds the bound 2500000000"):
            dense.st_cubed(scaled)
        assert calls == []

    def test_inverse_bound_is_checked_before_any_inverse(self, monkeypatch):
        # 1/d_1 for d_1 = 1 + 10^6 e(1/1021) took 15-20 s of descent
        d = ONE + 10 ** 6 * root_of_unity(F(1, 1021))
        md = ModularData(rank=2, s_tilde=((ONE, d), (d, -ONE)),
                         twists=(ONE, root_of_unity(F(1, 1021))))
        calls = counting(monkeypatch, dense, "norm_cofactor")
        with pytest.raises(ValidationError, match="^estimated inverse work 3706436400 exceeds"):
            dense.packed(md)
        assert calls == []

    def test_a_zero_dimension_is_refused(self):
        zero = Cyclotomic.from_rational(0)
        md = ModularData(rank=2, s_tilde=((ONE, zero), (zero, ONE)), twists=(ONE, ONE))
        with pytest.raises(ValidationError, match="^zero quantum dimension$"):
            dense.verlinde(md)

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
    """dense.verlinde reads N(i,j)^k in naming order (i <= j, then k) in one pass.
    Where conj(row k) is row C(k), the entry is the sum Y over rows i, j, C(k),
    which is symmetric, so each Y is formed and checked once, at its first read:
    the first bad read is the first bad entry. Each outcome is compared with
    ref_verlinde, exception text included."""

    def test_non_self_dual(self, z3, monkeypatch):
        md = deligne(fibonacci(), z3)
        assert md._law is None and md._unitary
        duals = md._packed.duals
        assert None not in duals and duals != list(range(md.rank))  # C is not the identity
        expected = ref_verlinde(md)
        sums = counting(monkeypatch, dense, "reduced")
        assert dense.verlinde(md) == expected
        # one sum per i <= j <= k, and one reduction per weight S~_ka / d_a
        assert len(sums) == comb(md.rank + 2, 3) + md.rank ** 2
        assert verify_all(fresh(md)).passed

    def test_conj_rows_are_rows_but_fusion_is_not_integral(self, monkeypatch):
        # N(1,1)^1 = (2^3 + (-1)^3 / 2) / 5 = 3/2
        rows = ((1, 2), (2, -1))
        md = ModularData(rank=2, s_tilde=tuple(tuple(map(Cyclotomic.from_rational, row))
                                               for row in rows), twists=(ONE, ONE))
        assert md._packed.duals == [0, 1]
        expected = (NotModular, "N(1,1)^1 = 3/2 is not a non-negative integer")
        assert outcome(ref_verlinde, md) == expected
        sums = counting(monkeypatch, dense, "reduced")
        assert outcome(dense.verlinde, md) == expected
        # one reduction per weight, then one sum per sorted triple up to (1, 1, 1)
        assert len(sums) == 4 + comb(4, 3)

    def test_conj_rows_that_are_no_rows(self, z3, monkeypatch):
        # S~_12 = S~_21 = 1 in Z/3: conj(row 1) and conj(row 2) are no rows of S~
        rows = [list(row) for row in z3.s_tilde]
        rows[1][2] = rows[2][1] = ONE
        md = ModularData(rank=3, s_tilde=tuple(map(tuple, rows)), twists=z3.twists)
        assert md._packed.duals == [0, None, None]
        expected = outcome(ref_verlinde, md)
        assert expected == (NotModular, "N(0,0)^1 = 2/3+1/3*e(1/3) is not a non-negative integer")
        sums = counting(monkeypatch, dense, "reduced")
        assert outcome(dense.verlinde, md) == expected
        r, e = md.rank, 2
        assert len(sums) <= r * (r + e) + comb(r + 2, 3) + e * comb(r + 1, 2)
        assert len(sums) == r * r + 2  # the weights, then (0, 0)^0 and (0, 0)^1

    @pytest.mark.parametrize("corrupt", ["pair", "doubled"])
    def test_failing_su2_8_forms_each_sum_once(self, su2, monkeypatch, corrupt):
        # S~_18 = S~_81 = 1, or S~_ij doubled for i, j >= 1: every conj row is
        # still a row, and N(0,0)^1 fails at the second sum, after the 81 weights
        md = su2(8)
        if corrupt == "pair":
            md = with_pair_one(md)
        else:
            md = ModularData(rank=md.rank, twists=md.twists, s_tilde=tuple(
                tuple(x if 0 in (i, j) else x * 2 for j, x in enumerate(row))
                for i, row in enumerate(md.s_tilde)))
        assert md._packed.duals == list(range(md.rank))
        expected = outcome(ref_verlinde, md)
        assert expected[0] is NotModular and expected[1].startswith("N(0,0)^1 = ")
        sums = counting(monkeypatch, dense, "reduced")
        assert outcome(dense.verlinde, md) == expected
        assert len(sums) == 83

    def test_first_bad_entry_is_named_after_a_symmetric_failure(self, z3):
        # R is orthogonal with R^2 = 9 I, but sum_a R_1a^3 / d_a = 9/2. In R ⊠ Z3,
        # relabeled so that labels 3, 4, 5 are (1, 1), (1, 2), (1, 0), the
        # first bad sum is Y(3, 3, 3), first read in naming order as
        # N(3,3)^C(3) = N(3,3)^4, so that entry is named, not (3, 3, 3).
        rows = ((1, 2, 2), (2, -2, 1), (2, 1, -2))
        r = ModularData(rank=3, s_tilde=tuple(tuple(map(Cyclotomic.from_rational, row))
                                              for row in rows), twists=(ONE,) * 3)
        md = deligne(r, z3)
        order = [0, 1, 2, 4, 5, 3, 6, 7, 8]
        md = ModularData(rank=9, s_tilde=tuple(tuple(md.s_tilde[a][b] for b in order)
                                               for a in order),
                         twists=tuple(md.twists[a] for a in order))
        assert md._packed.duals == [0, 2, 1, 4, 3, 5, 6, 8, 7] and md._unitary
        expected = (NotModular, "N(3,3)^4 = 1/2 is not a non-negative integer")
        assert outcome(ref_verlinde, md) == expected
        assert outcome(dense.verlinde, md) == expected

    def test_an_entry_d2_times_a_root_of_unity_is_no_integer(self):
        # S~_11 = -1 - 2i: X(0,0,1) = 1 + conj(S~_11) = 2i is D^2 i, whose
        # reduced sum is exactly 2^width times D^2 packed, past the slots
        x = Cyclotomic.from_rational(-1) - 2 * root_of_unity(F(1, 4))
        md = ModularData(rank=2, s_tilde=((ONE, ONE), (ONE, x)), twists=(ONE, ONE))
        expected = (NotModular, "N(0,0)^1 = e(1/4) is not a non-negative integer")
        assert outcome(ref_verlinde, md) == expected
        assert outcome(dense.verlinde, md) == expected

    def test_a_rational_d2_at_a_large_conductor_takes_no_descent(self, monkeypatch):
        # d_1 = e(1/251) and d_2 = i d_1 give D^2 = 1 + d_1^2 - d_1^2 = 1 at
        # conductor 1004. The failure is named by 1/D^2 = 1, a rational, with no
        # norm descent: the only descents are those of 1/d_1 from 251 and 1/d_2
        # from 1004, each down to conductor 1 or 2.
        d = root_of_unity(F(1, 251))
        minus = Cyclotomic.from_rational(-1)
        i = root_of_unity(F(1, 4))
        md = ModularData(rank=3, s_tilde=((ONE, d, i * d), (d, minus, ONE), (i * d, ONE, minus)),
                         twists=(ONE,) * 3)
        assert md._gauss.d_squared == 1 and md._packed.n == 1004
        descents = counting(monkeypatch, dense, "norm_cofactor")
        expected = (NotModular, "N(0,0)^1 = -1*e(1/251)+e(255/1004)+-1*e(249/502)"
                                " is not a non-negative integer")
        assert outcome(dense.verlinde, md) == expected
        assert [n for n, _ in descents] == [251, 1, 1004, 4, 2]
        assert outcome(ref_verlinde, md) == expected

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
        md._packed, md._gauss  # cached before counting
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
        md._packed, md._gauss  # cached before counting
        inverses = counting(monkeypatch, Cyclotomic, "inverse")
        fusion = dense.verlinde(md)
        assert len(inverses) == 5
        # the truncated Clebsch-Gordan rule of SU(2)_k
        labels = range(k + 1)
        assert fusion == tuple(tuple(tuple(
            int(abs(i - j) <= c <= min(i + j, 2 * k - i - j) and (i + j + c) % 2 == 0)
            for c in labels) for j in labels) for i in labels)


def test_integer_coefficients_converts_each_distinct_value_once(monkeypatch):
    third = root_of_unity(F(1, 3))
    values = [sum_values([third]) for _ in range(4)] + [Cyclotomic.from_rational(F(1, 2))] * 3
    values += [third * F(2, 5)]
    conversions = counting(monkeypatch, dense, "_galois")
    den, rows = integer_coefficients(values, 12)
    assert len(conversions) == 3 and den == 10
    assert all(from_integers(12, row, den) == x for row, x in zip(rows, values))
    assert len(rows) == len(values) and rows[0] is rows[3]
