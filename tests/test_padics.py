"""Lattice distance, and the group/tree correspondence."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeschur.errors import NotPrime, ZeroDenominator
from treeschur.padics import PMatrix2, _ladder, _multiplicity, _valuation, correspondence_check, is_prime, lattice_distance, mautner_spherical
from treeschur.spherical import spherical_values_closed_form
from treeschur.verify import check_chain_powers, check_group_tree_correspondence, check_left_invariance


def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(2 ** 61 - 1)
    assert not is_prime(1) and not is_prime(9) and not is_prime(2 ** 61 - 3)
    with pytest.raises(NotPrime):
        PMatrix2.from_rationals(4, [[1, 0], [0, 1]])


def diag(q, top, bottom):
    return PMatrix2.from_rationals(q, [[top, 0], [0, bottom]])


def test_lattice_distance_examples():
    q = 3
    ident = diag(q, 1, 1)
    assert lattice_distance(ident, diag(q, 9, 1)) == 2
    a = PMatrix2.from_rationals(q, [["5/2", 3], [1, 2]])
    assert lattice_distance(a, a) == 0


def test_lattice_distance_unit_column_transform():
    # right factors in GL2(Zq) fix the lattice: distance stays 1
    rng = np.random.default_rng(44)
    for q in (2, 3, 5):
        ident = diag(q, 1, 1)
        for _ in range(10):
            while True:
                m = rng.integers(-6, 7, size=4)
                det = int(m[0] * m[3] - m[1] * m[2])
                if det != 0 and det % q != 0:
                    break
            v = PMatrix2.from_rationals(q, [[int(m[0]), int(m[1])], [int(m[2]), int(m[3])]])
            product = diag(q, q, 1) @ v
            assert lattice_distance(ident, product) == 1


def test_lattice_distance_powers_and_invariance():
    rng = np.random.default_rng(45)
    assert check_chain_powers((2, 3, 5)).passed
    for q in (2, 3, 5):
        res = check_left_invariance(q, [[9, 0], [0, 2]], [[3, 1], [0, "1/3"]], rng, draws=8, scales=(-2, -1, 1, 2))
        assert res.passed, q


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        PMatrix2.from_rationals(3, [[1, 2], [2, 4]])


def test_malformed_entries_rejected():
    with pytest.raises(ZeroDenominator):
        PMatrix2.from_rationals(3, [["1/0", 0], [0, 1]])
    with pytest.raises(ValueError):
        PMatrix2.from_rationals(3, [[float("inf"), 0], [0, 1]])


def test_product_over_different_q_rejected():
    with pytest.raises(ValueError):
        _ = diag(3, 1, 1) @ diag(5, 1, 1)
    with pytest.raises(ValueError):
        lattice_distance(diag(3, 1, 1), diag(5, 1, 1))


@pytest.mark.parametrize("e", [10, 40, 63, 64, 70, 100])
def test_lattice_distance_deep_cancellation(e):
    # the columns (1, 1) and (1, 1 + 3^e) span a sublattice L of Z_3^2 with
    # Z_3^2 / L cyclic of order 3^e, so L lies e steps from the standard vertex
    a = PMatrix2.from_rationals(3, [[1, 1], [1, 1 + 3 ** e]])
    assert lattice_distance(a, diag(3, 1, 1)) == e
    assert lattice_distance(diag(3, 1, 1), a) == e


def valuation_one_step(x, q):
    """The reference: strip one factor of q per step."""
    num, den, v = x.numerator, x.denominator, 0
    while num % q == 0:
        num //= q
        v += 1
    while den % q == 0:
        den //= q
        v -= 1
    return v


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from((2, 3, 5, 7, 101)),
    st.integers(-(10**30), 10**30).filter(lambda n: n != 0),
    st.integers(1, 10**30),
    st.integers(0, 300),
    st.integers(0, 300),
)
def test_valuation_matches_the_one_step_loop(q, num, den, up, down):
    # a unit times q^(up - down), with multiples of q in the unit too
    x = Fraction(num * q**up, den * q**down)
    assert _valuation(x, q) == valuation_one_step(x, q)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.integers(-(10**30), 10**30).map(lambda u: 2 * u + 1),
        st.integers(1, 20000).map(lambda k: 3**k),
    ),
    st.booleans(),
    st.one_of(st.integers(0, 64), st.integers(0, 5000)),
)
def test_multiplicity_at_two_matches_the_ladder(odd, negative, v):
    # the trailing zero bits of +-odd * 2^v, odd units of up to 31,700 bits
    n = (-odd if negative else odd) << v
    assert _multiplicity(n, 2) == _ladder(n, 2) == v


@pytest.mark.parametrize("q", [2, 5])
def test_lattice_distance_of_a_short_entry_with_a_huge_exponent(q):
    # 1e20000 = 2^20000 5^20000: its valuation takes O(log 20000) divisions
    a = PMatrix2.from_rationals(q, [["1e20000", "0"], ["0", "1"]])
    assert _valuation(a.a, q) == 20000
    assert lattice_distance(a, diag(q, 1, 1)) == 20000


def int_matrices(q, unit):
    """Integer 2x2 matrices with nonzero determinant, prime to q if ``unit``."""
    def admissible(m):
        det = m[0] * m[3] - m[1] * m[2]
        return det != 0 and (det % q != 0 or not unit)

    entries = st.lists(st.integers(-12, 12), min_size=4, max_size=4).filter(admissible)
    return entries.map(lambda m: PMatrix2.from_rationals(q, [m[:2], m[2:]]))


@st.composite
def cartan_pairs(draw):
    """(g, g diag(q^i, q^j) u, |i - j|) with u in GL_2(Z_q)."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    i, j = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    g = draw(int_matrices(q, unit=False))
    u = draw(int_matrices(q, unit=True))
    return g, g @ diag(q, Fraction(q) ** i, Fraction(q) ** j) @ u, abs(i - j)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cartan_pairs())
def test_lattice_distance_cartan_decomposition(case):
    # g diag(q^i, q^j) u with u in GL_2(Z_q) lies |i - j| steps from g; u with
    # zero entries (e.g. the identity) puts exact zeros into g^-1 b
    a, b, want = case
    assert lattice_distance(a, b) == want
    assert lattice_distance(b, a) == want


def _fraction_distance(a, b):
    """The lattice distance in Fraction arithmetic on the entries themselves:
    v(det a) + v(det b) - 2 min v((adj(a) b)_ij)."""
    q = a.q
    m = (a.d * b.a - a.b * b.c, a.d * b.b - a.b * b.d, a.a * b.c - a.c * b.a, a.a * b.d - a.c * b.b)
    return _valuation(a.det, q) + _valuation(b.det, q) - 2 * min(_valuation(e, q) for e in m if e != 0)


def assert_integer_multiple(m):
    """The stored integers are s times the entries, s the lcm of their denominators."""
    entries = (m.a, m.b, m.c, m.d)
    s = math.lcm(*(x.denominator for x in entries))
    assert all(type(n) is int and Fraction(n, s) == x for n, x in zip(m._ints, entries))


def scaled_matrices(q):
    """Invertible matrices of entries num q^up / (den q^down), units of up to 40 bits."""
    entry = st.builds(
        lambda num, den, up, down: Fraction(num * q**up, den * q**down),
        st.integers(-(10**12), 10**12), st.integers(1, 10**12), st.integers(0, 60), st.integers(0, 60),
    )
    rows = st.lists(entry, min_size=4, max_size=4).filter(lambda e: e[0] * e[3] != e[1] * e[2])
    return rows.map(lambda e: PMatrix2(q, *e))


@st.composite
def scaled_pairs(draw):
    """(x y, x z) for three drawn matrices x, y, z over one q."""
    q = draw(st.sampled_from((2, 3, 5, 7, 101)))
    x, y, z = (draw(scaled_matrices(q)) for _ in range(3))
    return x @ y, x @ z


_SHARED = PMatrix2.from_rationals(3, [["5/18", "-4"], ["27/7", "1/45"]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scaled_pairs())
@example((_SHARED, _SHARED))  # adj(a) a = det(a) I: two exact zeros
@example((_SHARED, _SHARED @ diag(3, "1/9", 6)))
@example((  # denominators prime to q, and an exact zero in b
    PMatrix2.from_rationals(5, [["1/3", "2/7"], ["4/11", "-1/13"]]),
    PMatrix2.from_rationals(5, [["3/7", "0"], ["1/9", "5/2"]]),
))
def test_lattice_distance_matches_the_fraction_formula(pair):
    a, b = pair
    assert_integer_multiple(a)
    assert_integer_multiple(b)
    assert lattice_distance(a, b) == _fraction_distance(a, b)
    assert lattice_distance(b, a) == _fraction_distance(b, a)


def test_mautner_normalization_and_values():
    for q in (2, 3, 5):
        for z in (0.2, 0.7 + 0.3j, 0.1 - 1.1j):
            assert mautner_spherical(q, z, 0) == pytest.approx(1.0, abs=1e-12)
    # z = 0 gives the constant spherical function
    assert mautner_spherical(3, 0.0, 1) == pytest.approx(1.0, abs=1e-12)
    vals = spherical_values_closed_form(3, 0.3, 3)
    assert mautner_spherical(3, 0.3, 2) == pytest.approx(vals[2], abs=1e-10)


def test_correspondence_including_confluent():
    rng = np.random.default_rng(46)
    res = check_group_tree_correspondence((2, 3, 5), rng, draws=6, im_span=1.5, extra_z=(0.5,))
    assert res.max_err <= 1e-9


def test_correspondence_fails_on_nan(monkeypatch):
    # a NaN at one n or at one z fails the check instead of dropping out of the maximum
    monkeypatch.setattr("treeschur.padics.mautner_spherical", lambda q, z, n: np.nan if n == 3 else 1.0)
    assert np.isnan(correspondence_check(3, 0.2, 20))
    monkeypatch.setattr("treeschur.verify.correspondence_check", lambda q, z, n_max: np.nan if z == 0.5 else 0.0)
    assert not check_group_tree_correspondence((3,), np.random.default_rng(0), 2, 1.0, extra_z=(0.5,)).passed
