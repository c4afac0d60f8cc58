import cmath
import math
import operator
import time
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracle
from pointedcat import cyclo_core, dense
from pointedcat.cyclo import (
    Cyclotomic,
    _galois,
    _reduce,
    dot,
    format_root,
    format_value,
    parse_value,
    root_of_unity,
    sum_values,
)
from pointedcat.cyclo_core import _cyclotomic_poly
from pointedcat.errors import MAX_DENSE_WORK, ValidationError

ONE = Cyclotomic.from_rational(1)
I = root_of_unity(F(1, 4))
W = root_of_unity(F(1, 3))


# strategies bounded so every lcm conductor divides 24*5*7 (small fields only)
_denoms = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 12, 24])
_exponents = st.builds(lambda n, d: F(n, d), st.integers(-30, 30), _denoms)
_coeffs = st.builds(lambda n, d: F(n, d), st.integers(-6, 6), st.integers(1, 4))
_sums = st.lists(st.tuples(_coeffs, _exponents), min_size=0, max_size=4).map(
    lambda terms: sum_values([Cyclotomic.from_rational(c) * root_of_unity(q)
                              for c, q in terms])
)
# pure roots of unity and their negations
_roots = st.tuples(_exponents, st.booleans()).map(
    lambda qn: -root_of_unity(qn[0]) if qn[1] else root_of_unity(qn[0])
)
_elements = st.one_of(_sums, _roots, _coeffs.map(Cyclotomic.from_rational))


class TestRootOfUnity:
    def test_identity(self):
        assert root_of_unity(0) == 1

    def test_half_turn(self):
        assert root_of_unity(F(1, 2)) == -1

    def test_quarter_turn_squares_to_minus_one(self):
        assert I * I == root_of_unity(F(1, 2))

    def test_reduced_mod_one(self):
        assert root_of_unity(F(5, 4)) == I
        assert root_of_unity(F(-1, 4)) == I.conjugate()

    @given(_exponents, _exponents)
    def test_exponent_addition(self, p, q):
        assert root_of_unity(p) * root_of_unity(q) == root_of_unity((p + q) % 1)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_power_cycle(self, n):
        for k in range(n):
            x = root_of_unity(F(k, n))
            power = ONE
            for _ in range(n):
                power = power * x
            assert power == 1


def _roots_up_to(bound):
    return [F(a, b) for b in range(1, bound + 1) for a in range(b) if math.gcd(a, b) == 1]


class TestRootExponentAfterArithmetic:
    """No value records its exponent: root_of_unity's result and every
    arithmetic result find it from the coefficients, which this covers for
    all e(a/b), b <= 48."""

    @staticmethod
    def assert_root(x, q):
        q %= 1
        assert x.root_exponent() == q
        token = f"e({q.numerator}/{q.denominator})"
        assert format_root(x) == token
        assert format_value(x) == ({0: "1", F(1, 2): "-1"}.get(q, token))

    def test_exact_exponents(self):
        partners = _roots_up_to(6)
        for k, q in enumerate(_roots_up_to(48)):
            x = root_of_unity(q)
            p = partners[k % len(partners)]
            self.assert_root(-x, q + F(1, 2))
            self.assert_root(x.conjugate(), -q)
            self.assert_root(x.inverse(), -q)
            self.assert_root(x * x, 2 * q)
            self.assert_root(x * root_of_unity(p), q + p)
            self.assert_root(x.minimal(), q)

    def test_non_roots(self):
        for x in (ONE + I, 2 * W, Cyclotomic.from_rational(0), Cyclotomic.from_rational(F(1, 2)),
                  ONE - W, W + W * W + I):
            assert x.root_exponent() is None


def candidate_root_exponent(x):
    """Reference: build e(k/2N) for the three k nearest the float argument of x
    (N its conductor) and compare each with x by equality across conductors."""
    if x.is_rational():
        return {1: F(0), -1: F(1, 2)}.get(x.as_rational())
    n2 = 2 * x.conductor
    re, im = x.approx_complex()
    guess = round(cmath.phase(complex(re, im)) / (2 * math.pi) * n2)
    for k in (guess, guess + 1, guess - 1):
        if x == root_of_unity(F(k, n2)):
            return F(k % n2, n2)
    return None


class TestRootExponentAgainstCandidates:
    """root_exponent tests +-1 coefficients after at most ceil(N/phi(N))
    shifts at the value's own conductor N, with no float; the reference
    builds candidate roots at 2N from the float argument."""

    def test_every_signed_power_up_to_48(self, no_floats):
        cases = []
        for n in range(1, 49):
            for j in range(n):
                for sign in (1, -1):
                    # a fresh object at conductor n, which need not be minimal
                    x = Cyclotomic(n, tuple(sign * c for c in _galois(n, (1,), 1, j)))
                    expected = candidate_root_exponent(x)
                    assert expected == (F(j, n) + F(1 - sign, 4)) % 1
                    cases.append((Cyclotomic(n, x._coeffs), expected))
        assert len(cases) == 2 * sum(range(1, 49))
        no_floats()
        for x, expected in cases:
            assert x.root_exponent() == expected

    def test_su2_entries_and_sums(self, su2):
        values = [x for k in range(2, 17) for row in su2(k).s_tilde for x in row]
        values += [ONE + I, 2 * W, ONE - W, W + W * W + I, -W * I, (ONE + I) * F(1, 2)]
        found = 0
        for x in values:
            assert x.root_exponent() == candidate_root_exponent(x)
            found += x.root_exponent() is not None
        assert 0 < found < len(values)

    def test_a_fraction_coefficient_is_no_root(self, monkeypatch):
        # every +-zeta^k has integer coefficients, so a value with a fraction
        # among its own is refused before any shift is reduced
        refused = [root_of_unity(F(1, 1024)) * F(1, 2), (1 + root_of_unity(F(1, 1020))) / 3,
                   (ONE + I) * F(1, 2), W + F(1, 3)]
        reductions, reduce = [], cyclo_core._reduce
        monkeypatch.setattr(cyclo_core, "_reduce",
                            lambda n, raw: reductions.append(n) or reduce(n, raw))
        assert [x.root_exponent() for x in refused] == [None] * 4
        assert reductions == []
        # coefficients that are Fractions of denominator 1 are integers
        x = root_of_unity(F(1, 12)) * F(1, 2) * 2
        assert any(isinstance(c, F) for c in x._coeffs) and x.root_exponent() == F(1, 12)


def brute_root_exponent(x):
    """Reference: compare x with every e(k/2N), N its conductor, by exact
    equality; at most one can match."""
    n2 = 2 * x.conductor
    found = [F(k, n2) for k in range(n2) if x == root_of_unity(F(k, n2))]
    assert len(found) <= 1
    return found[0] if found else None


BIG = 10 ** 400
_signed_roots = st.none() | st.tuples(_exponents, st.sampled_from([1, -1]))
_big_terms = st.lists(st.tuples(st.sampled_from([1, -1, 2, F(-1, 3), BIG, -BIG, F(1, BIG + 1)]),
                                _exponents), max_size=3)


class TestRootExponentBeyondFloatRange:
    """Coefficients past float range decide exactly, without approx_complex."""

    @given(_signed_roots, _big_terms, st.booleans())
    @example((F(1, 3), -1), [(BIG, F(1, 4))], True)  # -e(1/3) held at conductor 12
    @example((F(1, 4), 1), [(F(1, BIG + 1), F(1, 5))], False)
    @example(None, [(-BIG, F(3, 8))], False)
    @example(None, [(1, F(1, 3)), (1, F(2, 3))], False)  # -1 as a sum at conductor 3
    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sums_against_every_root(self, no_floats, root, terms, cancel):
        no_floats()
        parts = [] if root is None else [root[1] * root_of_unity(root[0])]
        parts += [Cyclotomic.from_rational(c) * root_of_unity(q) for c, q in terms]
        if cancel:  # the same root, held at the lcm conductor of all the terms
            parts += [Cyclotomic.from_rational(-c) * root_of_unity(q) for c, q in terms]
        x = sum_values(parts)
        expected = brute_root_exponent(x)
        assert x.root_exponent() == expected
        if root is not None and cancel:
            assert expected == (root[0] + F(1 - root[1], 4)) % 1


class TestArithmetic:
    def test_add_examples(self):
        assert (ONE + (-ONE)).is_zero()
        assert W + root_of_unity(F(2, 3)) == -1
        assert I + I == 2 * I

    def test_mul_examples(self):
        assert W * W == root_of_unity(F(2, 3))
        assert (1 + I) * (1 - I) == 2
        assert (Cyclotomic.from_rational(0) * (1 + W)).is_zero()

    def test_is_zero_examples(self):
        assert (1 + root_of_unity(F(1, 2))).is_zero()
        assert (W + root_of_unity(F(2, 3)) + 1).is_zero()
        assert not (root_of_unity(F(1, 5)) - root_of_unity(F(2, 5))).is_zero()

    def test_division(self):
        x = 1 + I
        assert x / x == 1
        s2 = root_of_unity(F(1, 8)) + root_of_unity(F(7, 8))
        assert s2 * s2 == 2
        assert (1 / s2) * s2 == 1
        with pytest.raises(ZeroDivisionError):
            x / Cyclotomic.from_rational(0)

    def test_other_types_are_not_values(self):
        # a str or an object is no operand, either side, and equal to no
        # value; the TypeError names the operator and the operands in order
        # (str's own + and * fail as sequence operations, in str's words)
        for op, symbol in (("add", "+"), ("sub", "-"), ("mul", "*"), ("truediv", "/")):
            for other in ("w", object()):
                for a, b in ((W, other), (other, W)):
                    with pytest.raises(TypeError) as info:
                        getattr(operator, op)(a, b)
                    if other != "w" or symbol in "-/":
                        names = f"'{type(a).__name__}' and '{type(b).__name__}'"
                        assert f"for {symbol}: {names}" in str(info.value)
        # refused before any inverse is formed, so no ZeroDivisionError
        with pytest.raises(TypeError, match="for /: 'str' and 'Cyclotomic'"):
            "w" / Cyclotomic.from_rational(0)
        assert W != "e(1/3)" and not W == "e(1/3)"

    def test_as_rational_of_an_irrational_raises(self):
        assert (W + root_of_unity(F(2, 3))).as_rational() == -1
        with pytest.raises(ValueError, match=r"Cyclotomic\(3, \(0, 1\)\) is not rational"):
            W.as_rational()

    def test_negated_root_times_general(self):
        # regression: -e(1/3) carries exponent 5/6 while living at conductor 3
        y = 1 + root_of_unity(F(1, 5))
        assert (-W) * y == -(W * y)
        assert y * (-W) == -(y * W)

    @given(_elements, _elements, _elements)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x

    @given(_elements)
    @settings(max_examples=60, deadline=None)
    def test_additive_inverse_is_zero(self, x):
        assert (x + (-x)).is_zero()


# Small conductors; 105 = 3 5 7, where Phi_n first has a coefficient 2; 136 =
# 8 17 and 255 = 3 5 17, which descend by p = 17 first (|K| = 16); 256 and 1024,
# towers of steps p = 2 (|K| = 2); 595 = 5 7 17; and the primes 1019 and 1021,
# one step of |K| = p - 1 conjugates, formed by doubling
INVERSE_CONDUCTORS = [1, 2, 4, 7, 12, 60, 105, 136, 255, 256, 595, 1019, 1021, 1024]


def sparse_at(n):
    """Sums of one to three terms c e(k/n), c = +-1, +-2 or +-1/2: nonzero, and
    irrational where Q(zeta_n) is not Q."""
    coeff = st.builds(F, st.sampled_from([-2, -1, 1, 2]), st.integers(1, 2))
    terms = st.lists(st.tuples(coeff, st.integers(0, n - 1)), min_size=1, max_size=3)
    return terms.map(lambda terms: sum_values([
        Cyclotomic.from_rational(c) * root_of_unity(F(k, n)) for c, k in terms])).filter(
            lambda x: not x.is_zero() and (n <= 2 or not x.is_rational()))


def integral(x):
    """(d x, d) for the least d making every coefficient of x an integer."""
    d = math.lcm(*(F(c).denominator for c in x._coeffs))
    return Cyclotomic(x.conductor, tuple(int(c * d) for c in x._coeffs)), d


def assert_inverse(x, inverse):
    # x x^-1 = 1, multiplied with integer coefficients, (dx x)(di x^-1) = dx di:
    # exact, with no Fraction product
    (a, da), (b, db) = integral(x), integral(inverse)
    assert a * b == da * db


class TestInverse:
    @pytest.mark.parametrize("n", INVERSE_CONDUCTORS)
    @settings(max_examples=2, derandomize=True, deadline=None)
    @given(st.data())
    def test_inverse_is_exact(self, n, data):
        # the relative-norm descent, and against the extended Euclid of
        # tests/oracle.py where that finishes within the budget (n <= 136)
        x = data.draw(sparse_at(n))
        inverse = x.inverse()
        assert_inverse(x, inverse)
        if x.conductor <= 136:
            assert inverse == oracle.field_inverse(x)

    @staticmethod
    def widths(monkeypatch):
        """Bits of the first packed operand of each product dense._times forms."""
        widths, times = [], dense._times

        def counted(n, x, y):
            widths.append(len(x) * dense.slot_width(sum(map(abs, x)) * sum(map(abs, y))))
            return times(n, x, y)

        monkeypatch.setattr(dense, "_times", counted)
        return widths

    def test_values_the_extended_euclid_took_seconds_on(self, monkeypatch):
        # D^2 of the rank-2 document with this S~_01 and S~_11 = -1, at conductor
        # 256 (34 s by the extended Euclid), and D^2 = 1 + e(2/1021) of the
        # conductor-1021 document of test_cli, a unit. Each inverse took 4 ms and
        # 45 ms in-process on a 2-core Xeon; their work is pinned, not their time:
        # the packed products and the bits of the widest operand.
        entry = parse_value("-1*e(11/256)+2*e(23/256)+2*e(3/16)+-3*e(107/256)+-2*e(7/16)")
        for x, count, widest in ((1 + entry * entry.conjugate(), 14, 65536),
                                 (1 + root_of_unity(F(2, 1021)), 19, 57120)):
            widths = self.widths(monkeypatch)
            inverse = x.inverse()
            assert len(widths) == count and max(widths) == widest
            assert_inverse(x, inverse)

    def test_a_scaled_root_at_a_large_prime_is_inverted_as_the_root(self, monkeypatch):
        # 10^100 e(1/1021) has content 10^100 and the primitive row of e(1/1021):
        # its norm is 1, not the 10^102000 of the row as it stands, whose
        # descent would multiply integers of about 40 MB
        x = 10 ** 100 * root_of_unity(F(1, 1021))
        assert dense.inverse_work(x)[0] < MAX_DENSE_WORK // 50
        widths = self.widths(monkeypatch)
        assert x.inverse() == root_of_unity(F(-1, 1021)) / 10 ** 100
        assert len(widths) == 19 and max(widths) == 16320

    def test_an_inverse_beyond_the_work_bound_is_refused_before_any_product(self, monkeypatch):
        # 1 + 10^100 e(1/1021) is primitive: its norm has about 340000 bits, and
        # the extended Euclid took 140 s on it
        x = 1 + 10 ** 100 * root_of_unity(F(1, 1021))
        widths = self.widths(monkeypatch)
        work = dense.inverse_work(x)[0]
        assert work > 100 * MAX_DENSE_WORK
        with pytest.raises(ValidationError, match=(
                f"^estimated inverse work {work} exceeds the bound {MAX_DENSE_WORK}$")):
            x.inverse()
        assert widths == []


class TestInverseOfRoots:
    def test_inverse_of_a_root_is_its_conjugate(self):
        # all 712 values e(a/b) with b <= 48: the descent's cofactor over N = +-1
        # gives e(-a/b), the conjugate
        for b in range(1, 49):
            for a in range(b):
                if math.gcd(a, b) == 1:
                    x = root_of_unity(F(a, b))
                    inverse = x.inverse()
                    assert inverse == x.conjugate()
                    assert inverse.root_exponent() == F(-a, b) % 1


class TestConjugation:
    def test_examples(self):
        assert I.conjugate() == root_of_unity(F(3, 4))
        assert Cyclotomic.from_rational(F(7, 3)).conjugate() == F(7, 3)
        assert W.conjugate().conjugate() == W

    @given(_elements, _elements)
    @settings(max_examples=60, deadline=None)
    def test_multiplicative(self, x, y):
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    @given(_elements)
    @settings(max_examples=60, deadline=None)
    def test_norm_is_real(self, x):
        _, imag = (x * x.conjugate()).approx_complex()
        assert abs(imag) < 1e-9


class TestApprox:
    def test_one(self):
        assert root_of_unity(0).approx_complex() == (1.0, 0.0)

    def test_quarter(self):
        re, im = I.approx_complex()
        assert abs(re) < 1e-12 and abs(im - 1.0) < 1e-12

    def test_beyond_float_range_raises(self):
        # a coefficient float() cannot take, and a sum of floats that overflows
        huge = Cyclotomic.from_rational(10 ** 308)
        for x in (10 ** 400 * I, sum_values(huge * root_of_unity(F(k, 16)) for k in (0, 1, 2))):
            with pytest.raises(OverflowError):
                x.approx_complex()

    def test_third_against_cmath(self):
        # independent oracle: cos/sin of 2*pi/3
        expected = cmath.exp(2j * math.pi / 3)
        re, im = W.approx_complex()
        assert abs(re - expected.real) < 1e-12
        assert abs(im - expected.imag) < 1e-12


class TestCanonicalForm:
    def test_equality_across_conductors(self):
        # e(1/6) constructed at conductor 6 equals its conductor-3 expression
        e6 = root_of_unity(F(1, 6))
        assert e6 == 1 + W
        assert e6.minimal().conductor == 3

    def test_rational_normalisation(self):
        assert root_of_unity(F(1, 2)).conductor == 1
        total = W + W.conjugate()  # zeta_3 + zeta_3^2 = -1
        assert total.is_rational() and total.as_rational() == -1
        assert total.conductor == 1

    def test_root_detection_untagged(self):
        y = Cyclotomic(3, root_of_unity(F(2, 3))._coeffs)
        assert y.root_exponent() == F(2, 3)
        s2 = root_of_unity(F(1, 8)) + root_of_unity(F(7, 8))
        assert s2.root_exponent() is None

    def test_root_of_unity_power_basis_invariant(self):
        x = root_of_unity(F(1, 5))
        assert len(x._coeffs) == 4  # phi(5)
        assert x.conductor == 5


class TestCyclotomicPolynomial:
    """The Moebius product for Phi_n against dense division (tests/oracle.py)."""

    def test_matches_dense_division(self):
        for n in range(1, 301):
            assert _cyclotomic_poly(n) == oracle.cyclotomic_poly(n), n

    def test_product_over_divisors(self):
        for n in range(1, 121):
            product = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    phi = _cyclotomic_poly(d)
                    out = [0] * (len(product) + len(phi) - 1)
                    for i, a in enumerate(product):
                        for j, b in enumerate(phi):
                            out[i + j] += a * b
                    product = out
            assert product == [-1] + [0] * (n - 1) + [1], n


# primes, prime powers, 2 * odd, 210 = 2*3*5*7, and any n up to 250
_reduce_conductors = st.one_of(
    st.sampled_from([2, 3, 5, 7, 11, 13, 97, 241,
                     4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 243,
                     6, 10, 14, 18, 30, 42, 50, 66, 90, 126, 198, 210]),
    st.integers(1, 250))
_raw_entries = st.one_of(st.integers(-40, 40),
                         st.fractions(min_value=-40, max_value=40, max_denominator=9))
# a length-n buffer with up to 12 nonzero entries at random positions
_raw_buffers = _reduce_conductors.flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), _raw_entries), max_size=12)))


@given(_raw_buffers)
@example((210, [(k, 1) for k in range(210)]))
@example((243, [(k, F(k, 7)) for k in range(243)]))
@settings(max_examples=50, deadline=None)
def test_reduce_matches_dense_division(case):
    # the fold of the top 1/p, then synthetic division, against division by Phi_n
    n, terms = case
    raw = [0] * n
    for k, c in terms:
        raw[k] += c
    assert _reduce(n, raw) == oracle.reduce_mod_phi(n, raw)


# -- the one Galois map: sigma_k, then times zeta_n^s ---------------------------

def _sparse_row(length):
    """A row of at most length entries, up to 12 of them nonzero."""
    def build(terms):
        row = [0] * (1 + max((j for j, _ in terms), default=-1))
        for j, c in terms:
            row[j] += c
        return row

    return st.lists(st.tuples(st.integers(0, length - 1), _raw_entries), max_size=12).map(build)


def _galois_cases(n):
    """(n, k, row, s): k = -1 or a unit mod n, with a row of up to 2n + 1 entries
    (longer than n, so the scatter folds), or k = n/m for a row at m | n; s one of
    0, +-1, n/2 and n - 1."""
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    acting = st.sampled_from([-1] + units).flatmap(
        lambda k: st.tuples(st.just(k), _sparse_row(2 * n + 1)))
    embedding = st.sampled_from(divisors).flatmap(
        lambda m: st.tuples(st.just(n // m), _sparse_row(len(_cyclotomic_poly(m)) - 1)))
    return st.tuples(st.just(n), st.one_of(acting, embedding),
                     st.sampled_from([0, 1, -1, n // 2, n - 1]))


@given(st.sampled_from([1, 2, 4, 12, 15, 36, 68, 105, 136, 595]).flatmap(_galois_cases))
@example((12, (-1, [0, 1]), 0))  # conj(zeta_12) = zeta_12^11 = zeta_12 - zeta_12^3
@example((136, (2, [F(1, 3)] * 32), 68))  # a full row at 68, embedded and negated
@example((15, (1, [0] * 30 + [5]), -1))  # x^30 folds to 1, times zeta_15^-1
@settings(max_examples=80, derandomize=True, deadline=None)
def test_galois_matches_brute_force_scatter(case):
    n, (k, row), s = case
    raw = [0] * n
    for j, c in enumerate(row):
        raw[(j * k + s) % n] += c
    assert _galois(n, row, k, s) == oracle.reduce_mod_phi(n, raw)


@given(_elements, _elements)
@example(root_of_unity(F(1, 3)), root_of_unity(F(1, 4)))
@example(Cyclotomic.from_rational(F(-2, 3)), root_of_unity(F(5, 8)) * F(1, 2))
@settings(max_examples=80, derandomize=True, deadline=None)
def test_product_matches_brute_force(x, y):
    # every pair of terms multiplied at the lcm conductor, reduced by division by Phi_n
    n = math.lcm(x.conductor, y.conductor)
    raw = [0] * n
    for j, c in enumerate(x._coeffs):
        for k, d in enumerate(y._coeffs):
            raw[(j * (n // x.conductor) + k * (n // y.conductor)) % n] += c * d
    expected = oracle.reduce_mod_phi(n, raw)
    if not any(expected[1:]):
        n, expected = 1, expected[:1]
    product = x * y
    assert (product.conductor, product._coeffs) == (n, expected)


def _assert_minimal_matches_oracle(x):
    m = x.minimal()
    assert m == x
    expected = oracle.minimal_conductor_form(x.conductor, x._coeffs)
    assert (m.conductor, m._coeffs) == expected
    return m


# a sum with Fraction coefficients of m-th roots of unity, embedded at n = m*k
# through a cancelling pair of n-th roots (sum_values keeps the lcm conductor)
_field_pairs = st.tuples(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 18]),
                         st.sampled_from([1, 2, 3, 4, 5]))
_terms = st.lists(st.tuples(_coeffs, st.integers(0, 17)), min_size=1, max_size=4)


class TestMinimal:
    """minimal() by structural descent against the Fraction Gauss-Jordan
    descent of tests/oracle.py."""

    def test_roots_of_unity(self):
        for q in _roots_up_to(48):
            m = _assert_minimal_matches_oracle(root_of_unity(q))
            assert m.conductor == q.denominator // (2 if q.denominator % 4 == 2 else 1)

    def test_rational_is_unchanged(self):
        x = Cyclotomic.from_rational(F(-3, 7))
        assert x.minimal() is x

    @given(_field_pairs, _terms)
    @example((3, 3), [(F(1), 1), (F(-1, 2), 2)])  # p^2 | n: 9 -> 3
    @example((4, 2), [(F(2, 3), 1), (F(1), 3)])  # p^2 | n: 8 -> 4
    @example((3, 2), [(F(1), 1), (F(5, 4), 0)])  # p || n, p = 2: 6 -> 3
    @example((5, 3), [(F(1), 1), (F(-2), 3)])  # p || n, p = 3: 15 -> 5
    @example((7, 1), [(F(1), 1), (F(1, 3), 3)])  # prime n: 7 does not descend to 1
    @example((1, 5), [(F(3, 2), 0)])  # rational, normalised to conductor 1
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_embedded_sums(self, field, terms):
        m, k = field
        n = m * k
        x = sum_values(Cyclotomic.from_rational(c) * root_of_unity(F(j, m)) for c, j in terms)
        shift = root_of_unity(F(1, n))
        y = sum_values([x, shift, -shift])
        assert y.conductor == n or y.is_rational()
        assert m % _assert_minimal_matches_oracle(y).conductor == 0

    @pytest.mark.parametrize("p", [4001, 10007])
    def test_format_at_large_prime_is_fast(self, p):
        # root_exponent compares with a power of zeta at the value's own conductor
        x = root_of_unity(F(1, p))
        start = time.perf_counter()
        text = format_value(x * x + x)
        assert time.perf_counter() - start < 1.0
        assert text == f"e(1/{p})+e(2/{p})"


class TestValueGrammar:
    @pytest.mark.parametrize("value, text", [
        (ONE, "1"),
        (-ONE, "-1"),
        (I, "e(1/4)"),
        (root_of_unity(F(2, 3)), "e(2/3)"),
        (Cyclotomic.from_rational(F(1, 2)), "1/2"),
        (1 + I, "1+e(1/4)"),
        (1 - W, "1+-1*e(1/3)"),
    ])
    def test_format(self, value, text):
        assert format_value(value) == text

    def test_repeated_root_token_is_one_value(self):
        # a document repeats few root tokens; equal entries then compare by identity
        assert parse_value("e(1/3)") is parse_value("e(1/3)")

    def test_format_root_unit(self):
        assert format_root(ONE) == "e(0/1)"
        assert format_root(I) == "e(1/4)"
        with pytest.raises(ValueError):
            format_root(1 + I)

    @given(_elements)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, x):
        assert parse_value(format_value(x)) == x

    @given(_elements)
    @settings(max_examples=40, deadline=None)
    def test_format_is_value_canonical(self, x):
        # re-serialising the parsed value must give identical text
        text = format_value(x)
        assert format_value(parse_value(text)) == text

    @pytest.mark.parametrize("bad", ["", "e(1/3", "e[1/3]", "1//2", "+", "2*", "q"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_value(bad)


class TestBulkHelpers:
    def test_sum_of_all_fifth_roots_vanishes(self):
        assert sum_values(root_of_unity(F(k, 5)) for k in range(5)).is_zero()

    def test_dot_matches_pairwise(self):
        xs = [I, W, 1 + I]
        ys = [W, I.conjugate(), 2 * ONE]
        expected = xs[0] * ys[0] + xs[1] * ys[1] + xs[2] * ys[2]
        assert dot(xs, ys) == expected
