"""p-adic arithmetic, lattice distance, and the group/tree correspondence."""

import numpy as np
import pytest

from treeschur.errors import NotPrime, PrecisionExhausted, ZeroDenominator
from treeschur.padics import (
    PAdic,
    PMatrix2,
    correspondence_check,
    is_prime,
    lattice_distance,
    mautner_spherical,
    padic_from_rational,
    padic_zero,
)
from treeschur.spherical import spherical_values_closed_form
from treeschur.verify import check_chain_powers, check_group_tree_correspondence, check_left_invariance


def rational_pairs(rng, count, span=40):
    for _ in range(count):
        num = int(rng.integers(-span, span + 1))
        den = int(rng.integers(1, span))
        yield num, den


def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(2 ** 61 - 1)
    assert not is_prime(1) and not is_prime(9) and not is_prime(2 ** 61 - 3)
    with pytest.raises(NotPrime):
        padic_from_rational(4, 1, 1)


def test_from_rational_examples():
    x = padic_from_rational(3, 12, 1)
    assert x.v == 1 and x.norm() == pytest.approx(1.0 / 3.0)
    y = padic_from_rational(3, 5, 3)
    assert y.v == -1 and y.norm() == pytest.approx(3.0)
    z = padic_from_rational(5, 0, 1)
    assert z.is_zero and z.norm() == 0.0
    with pytest.raises(ZeroDenominator):
        padic_from_rational(3, 1, 0)


def test_digits_leading_nonzero():
    x = padic_from_rational(3, 5, 7)
    digs = x.digits()
    assert len(digs) == x.prec
    assert digs[0] != 0
    assert all(0 <= d < 3 for d in digs)


def test_add_cancellation_and_inverse():
    q = 3
    x = padic_from_rational(q, 7, 2)
    s = x + (-x)
    assert s.is_zero
    two = padic_from_rational(q, 2, 1)
    half = padic_from_rational(q, 1, 2)
    assert two.inv().congruent(half)
    prod = two * two.inv()
    one = padic_from_rational(q, 1, 1)
    assert prod.congruent(one)


def test_norm_multiplicativity_exact():
    rng = np.random.default_rng(41)
    for q in (2, 3, 5):
        pairs = list(rational_pairs(rng, 200))
        for (n1, d1), (n2, d2) in zip(pairs[::2], pairs[1::2]):
            if n1 == 0 or n2 == 0:
                continue
            x = padic_from_rational(q, n1, d1)
            y = padic_from_rational(q, n2, d2)
            # |xy| = |x||y| exactly: valuations add (float powers would round)
            assert (x * y).valuation() == x.valuation() + y.valuation()


def test_ultrametric_exact():
    rng = np.random.default_rng(42)
    for q in (2, 3, 5):
        pairs = list(rational_pairs(rng, 700))
        for (n1, d1), (n2, d2) in zip(pairs[::2], pairs[1::2]):
            x = padic_from_rational(q, n1, d1)
            y = padic_from_rational(q, n2, d2)
            exact = padic_from_rational(q, n1 * d2 + n2 * d1, d1 * d2)
            assert exact.norm() <= max(x.norm(), y.norm())
            s = x + y
            if not s.is_zero:
                assert s.norm() == exact.norm()


def test_ring_axioms_within_precision():
    rng = np.random.default_rng(43)
    q = 3
    triples = list(rational_pairs(rng, 300))
    for (n1, d1), (n2, d2), (n3, d3) in zip(triples[::3], triples[1::3], triples[2::3]):
        x = padic_from_rational(q, n1, d1)
        y = padic_from_rational(q, n2, d2)
        z = padic_from_rational(q, n3, d3)
        assert ((x + y) + z).congruent(x + (y + z), digits=40)
        lhs = x * (y + z)
        rhs = x * y + x * z
        assert lhs.congruent(rhs, digits=40)


def diag(q, top, bottom, prec=64):
    return PMatrix2.from_rationals(q, [[top, 0], [0, bottom]], prec)


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
    # exact singularity is indistinguishable from cancellation past the
    # certified digits, so either rejection is acceptable
    with pytest.raises((ValueError, PrecisionExhausted)):
        PMatrix2.from_rationals(3, [[1, 2], [2, 4]])


def test_zero_times_value():
    q = 3
    z = padic_zero(q)
    x = padic_from_rational(q, 7, 5)
    assert (z * x).is_zero
    assert (z + x).congruent(x, digits=40)


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


def test_precision_exhausted_on_uncertain_zero():
    q = 3
    x = padic_from_rational(q, 1, 1, prec=4)
    noisy_zero = PAdic(q, 0, 0, 0)  # certified 0 only mod q^0: no digits survive
    with pytest.raises(PrecisionExhausted):
        _ = noisy_zero + x
    coarse_zero = PAdic(q, 2, 0, 0)  # certified mod q^2: two digits survive
    s = coarse_zero + x
    assert s.prec == 2 and s.congruent(padic_from_rational(q, 1, 1, prec=2))
