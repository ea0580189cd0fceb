"""Spherical recurrence/closed form agreement and the closed-form norms."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeschur.spherical import (
    CONFLUENCE_EPS,
    axis_ratio,
    characteristic_roots,
    eigenvalue_from_z,
    ellipse_margin,
    hankel_product_sum,
    schur_norm_in_s,
    schur_norm_in_z,
    spherical_symbol,
    spherical_values,
    spherical_values_closed_form,
)
from treeschur.errors import NoConvergence, NonFinite
from treeschur.symbols import INF, N_CAP, N_START, Geometric, _budget, schur_norm


def is_multiplier_eigenvalue(q, s: complex) -> bool:
    """Strict ellipse membership plus the two isolated points +-1."""
    s = complex(s)
    return s == 1 or s == -1 or ellipse_margin(q, s) > 0.0


def strip_points(rng, count):
    return [complex(rng.uniform(0.05, 0.95), rng.uniform(-2.0, 2.0)) for _ in range(count)]


def test_eigenvalue_from_z_examples():
    assert eigenvalue_from_z(3, 0.5) == pytest.approx(math.sqrt(3) / 2, abs=1e-14)
    for q in (2, 3, 7):
        assert eigenvalue_from_z(q, 0.0) == pytest.approx(1.0, abs=1e-14)
    z = 1j * math.pi / math.log(3)
    assert eigenvalue_from_z(3, z) == pytest.approx(-1.0, abs=1e-12)


def test_recurrence_values():
    vals = spherical_values(3, math.sqrt(3) / 2, 3)
    assert vals[2] == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert spherical_values(INF, 0.5, 4)[3] == pytest.approx(0.125)
    for q in (2, 5):
        assert np.allclose(spherical_values(q, 1.0, 40), 1.0, atol=1e-12)


def test_closed_form_examples():
    assert np.allclose(spherical_values_closed_form(3, 0.0, 10), 1.0, atol=1e-12)
    assert spherical_values_closed_form(3, 0.3, 5)[0] == pytest.approx(1.0, abs=1e-12)
    z = 1j * math.pi / math.log(3)  # eigenvalue -1
    vals = spherical_values_closed_form(3, z, 8)
    assert np.allclose(vals, [(-1.0) ** n for n in range(8)], atol=1e-10)


def test_recurrence_matches_closed_form_on_strip():
    rng = np.random.default_rng(21)
    for q in (2, 3, 5):
        for z in strip_points(rng, 20):
            s = eigenvalue_from_z(q, z)
            rec = spherical_values(q, s, 61)
            closed = spherical_values_closed_form(q, z, 61)
            assert np.max(np.abs(rec - closed)) <= 1e-10


def spherical_values_numpy_loop(q, s, count):
    """The reference: the recurrence over numpy complex scalars."""
    out = np.empty(count, dtype=complex)
    out[0] = 1.0
    if count > 1:
        out[1] = s
    coeff = s * (1.0 + 1.0 / q)
    inv_q = 1.0 / q
    for n in range(1, count - 1):
        out[n + 1] = coeff * out[n] - inv_q * out[n - 1]
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 5, 7, 1000]),
    st.floats(-1.5, 1.5),
    st.floats(-1.5, 1.5),
    st.integers(1, 300),
)
def test_recurrence_has_the_bits_of_the_numpy_loop(q, re_s, im_s, count):
    s = complex(re_s, im_s)
    assert np.array_equal(spherical_values(q, s, count), spherical_values_numpy_loop(q, s, count))


def test_overflowing_recurrence_is_non_finite_without_a_warning():
    # s = 1e100 is finite and far outside the ellipse: phi(4) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = spherical_values(3, 1e100, 8)
        assert np.isfinite(vals[:4]).all() and not np.isfinite(vals[4:]).any()
        with pytest.raises(NonFinite):
            schur_norm(spherical_symbol(3, s=1e100), 3)


def test_membership_far_outside_the_ellipse():
    # the squares of s overflow from |s| ~ 1.3e154; the margin then reads -inf
    for s in (2.0, 1e200, -1e200j, complex(1e300, -1e300)):
        assert ellipse_margin(3, s) < 0 and schur_norm_in_s(3, s) is None
    assert ellipse_margin(3, 1e200) == -math.inf
    assert schur_norm_in_s(INF, 1e308) is None
    # at finite q an s whose adjacency eigenvalue (q+1) s overflows is refused
    with pytest.raises(ValueError):
        schur_norm_in_s(3, 1e308)


def test_laplace_eigen_relation():
    rng = np.random.default_rng(22)
    for q in (2, 3):
        for z in strip_points(rng, 5):
            s = eigenvalue_from_z(q, z)
            phi = spherical_values(q, s, 62)
            for n in range(1, 61):
                lhs = (q * phi[n + 1] + phi[n - 1]) / (q + 1.0)
                assert abs(lhs - s * phi[n]) <= 1e-12


def test_schur_norm_in_s_examples():
    assert schur_norm_in_s(3, 0.4j) == pytest.approx(29.0 / 9.0, abs=1e-12)
    for s in (-0.8, -0.2, 0.35, 0.9):
        assert schur_norm_in_s(4, s) == pytest.approx(1.0, abs=1e-14)
    assert schur_norm_in_s(5, 0.9j) is None
    assert schur_norm_in_s(2, 1.0) == 1.0
    assert schur_norm_in_s(INF, -1.0) == 1.0
    assert schur_norm_in_s(INF, 0.5j) == pytest.approx(5.0 / 3.0, abs=1e-14)


def test_ellipse_membership_strict():
    # boundary points other than +-1 are excluded
    assert not is_multiplier_eigenvalue(3, 0.5j)  # (4/2)^2 * 0.25 = 1 exactly
    assert is_multiplier_eigenvalue(3, 0.49j)
    assert is_multiplier_eigenvalue(INF, 0.999)
    assert not is_multiplier_eigenvalue(INF, 1j)
    assert axis_ratio(INF) == 1.0


def test_schur_norm_in_z_matches_s_form():
    rng = np.random.default_rng(23)
    for q in (2, 3, 5):
        for z in strip_points(rng, 17):
            in_z = schur_norm_in_z(q, z)
            in_s = schur_norm_in_s(q, eigenvalue_from_z(q, z))
            assert in_z is not None and in_s is not None
            assert abs(in_z - in_s) <= 1e-12 * max(1.0, in_s)


def s_form_norm_mp(q: int, z: complex) -> float:
    """|1 - s^2| / (1 - Re(s)^2 - ((q+1)/(q-1))^2 Im(s)^2) at s = s_z, in
    700-digit arithmetic from the float value of z, which resolves the
    margin's cancellation down to Re(z) = 1e-300."""
    import mpmath

    with mpmath.workdps(700):
        zm, qm = mpmath.mpc(z.real, z.imag), mpmath.mpf(q)
        s = (qm ** -zm + qm ** (zm - 1)) / (1 + 1 / qm)
        rho = (qm + 1) / (qm - 1)
        return float(abs(1 - s * s) / (1 - s.real ** 2 - (rho * s.imag) ** 2))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_schur_norm_in_z_near_the_strip_edges(q):
    # 1 - q^w cancels as Re(z) nears 0 or 1; Im(z) stays off the lattice
    # (pi/ln q)Z, where the float product Im(z) ln q would set the error
    for x in (1e-300, 1e-100, 1e-17, 1e-12, 1e-6, 0.25, 0.5, 1.0 - 1e-12, 1.0 - 2.0 ** -52):
        for y in (0.0, 1.0, -0.3, 7.5):
            z = complex(x, y)
            exact = s_form_norm_mp(q, z)
            assert abs(schur_norm_in_z(q, z) - exact) <= 1e-14 * exact, z
    # subnormal Re(z): 1 on the real segment; off it the norm is about
    # 1/Re(z), beyond float range, and reads inf, never NaN or an exception
    for x in (5e-324, 1e-320, 1e-310):
        assert schur_norm_in_z(q, complex(x, 0.0)) == pytest.approx(1.0, abs=1e-12)
        assert schur_norm_in_z(q, complex(x, 1.0)) > 1e300


def test_non_finite_eigenvalue_raises():
    for s in (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 0.0)):
        with pytest.raises(ValueError):
            ellipse_margin(3, s)
        with pytest.raises(ValueError):
            schur_norm_in_s(3, s)


def test_schur_norm_in_z_lattice_and_outside():
    assert schur_norm_in_z(3, 0.0) == 1.0
    assert schur_norm_in_z(3, 1.0 + 1j * math.pi / math.log(3)) == 1.0
    assert schur_norm_in_z(3, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert schur_norm_in_z(3, -0.2) is None
    assert schur_norm_in_z(3, 0.5j) is None  # Re z = 0 off the lattice


def test_parameter_symmetries():
    rng = np.random.default_rng(24)
    for q in (2, 5):
        period = 2.0 * math.pi / math.log(q)
        for z in strip_points(rng, 10):
            base = schur_norm_in_z(q, z)
            assert abs(schur_norm_in_z(q, 1.0 - z) - base) <= 1e-12 * max(1.0, base)
            assert abs(schur_norm_in_z(q, z + 1j * period) - base) <= 1e-12 * max(1.0, base)


def test_boundary_consistency_along_real_axis():
    for q in (2, 3, INF):
        for s in (0.999999, -0.999999):
            assert schur_norm_in_s(q, s) == pytest.approx(1.0, abs=1e-9)


def test_spherical_symbol_tail_model():
    sym = spherical_symbol(3, s=0.4j)
    assert isinstance(sym.tail, Geometric)
    a, b = characteristic_roots(3, 0.4j)
    assert sym.tail.ratio == pytest.approx(max(abs(a), abs(b)))
    sym_inf = spherical_symbol(INF, s=0.3 + 0.2j)
    assert sym_inf.tail.ratio == pytest.approx(abs(0.3 + 0.2j))


@pytest.mark.parametrize("s", [1.0, -1.0])
@pytest.mark.parametrize("q", [2, 11, 34, INF])
def test_spherical_symbol_at_plus_minus_one_is_exact(q, s):
    # a parity layer over the zero symbol: the values are 1 or (-1)^n with
    # no drift of the recurrence, the norm is 1 and the head one value
    sym = spherical_symbol(q, s=s)
    assert np.array_equal(sym.values(4200), s ** np.arange(4200))
    assert schur_norm(sym, q).total == 1.0
    assert len(sym._env.head) == 1


def test_oracle_agreement_with_hankel_pipeline():
    # closed form against the truncated trace-norm route on a small grid
    for q, s in [(3, 0.4j), (2, 0.25 + 0.1j), (5, -0.5 + 0.2j), (INF, 0.5j), (INF, -0.35)]:
        closed = schur_norm_in_s(q, s)
        rep = schur_norm(spherical_symbol(q, s=s), q, target_err=1e-8)
        assert abs(rep.total - closed) <= 1e-6


def test_hankel_product_sum_trivial_and_geometric():
    assert hankel_product_sum(0, 0, 0, 0) == pytest.approx(1.0)
    s = 0.37 + 0.21j
    assert hankel_product_sum(s, 0, s, 0) == pytest.approx(1.0 / (1.0 - s * s), abs=1e-14)


def series_oracle(a, b, c, d, terms=200):
    total = 0.0 + 0.0j
    for n in range(terms):
        if abs(a - b) < CONFLUENCE_EPS:
            u = (n + 1) * (0.5 * (a + b)) ** n
        else:
            u = (a ** (n + 1) - b ** (n + 1)) / (a - b)
        if abs(c - d) < CONFLUENCE_EPS:
            v = (n + 1) * (0.5 * (c + d)) ** n
        else:
            v = (c ** (n + 1) - d ** (n + 1)) / (c - d)
        total += u * v
    return total


def test_hankel_product_sum_against_series():
    rng = np.random.default_rng(25)
    for _ in range(50):
        a, b, c, d = (rng.uniform(0.05, 0.6) * cmath.exp(2j * math.pi * rng.uniform()) for _ in range(4))
        assert abs(hankel_product_sum(a, b, c, d) - series_oracle(a, b, c, d)) <= 1e-10


def test_hankel_product_sum_confluent_cases():
    a = 0.4 + 0.2j
    c, d = 0.3, -0.25 + 0.1j
    assert abs(hankel_product_sum(a, a, c, d) - series_oracle(a, a, c, d)) <= 1e-10
    assert abs(hankel_product_sum(a, a, c, c) - series_oracle(a, a, c, c)) <= 1e-10
    assert abs(hankel_product_sum(c, d, a, a) - series_oracle(c, d, a, a)) <= 1e-10


def test_eigenvalue_map_cosh_form():
    # s_z = 2 sqrt(q)/(q+1) cosh(ln(q)(z - 1/2)), an independent route
    rng = np.random.default_rng(26)
    for q in (2, 3, 7):
        for _ in range(10):
            z = complex(rng.uniform(-1, 2), rng.uniform(-3, 3))
            lhs = eigenvalue_from_z(q, z)
            rhs = 2 * math.sqrt(q) / (q + 1) * cmath.cosh(math.log(q) * (z - 0.5))
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_spherical_hankel_rank_one_closed_forms():
    # h[i,j] and the resolvent image have explicit rank-one forms in the
    # characteristic roots; both must match the recurrence/window route
    from treeschur.symbols import _ResolventImage, build_hankel

    rng = np.random.default_rng(27)
    for q in (2, 3, 5):
        for _ in range(5):
            z = complex(rng.uniform(0.1, 0.9), rng.uniform(-1, 1))
            s = eigenvalue_from_z(q, z)
            a, b = characteristic_roots(q, s)
            if abs(a - b) < 1e-6:
                continue
            sym = spherical_symbol(q, s=s)
            h = build_hankel(sym, 8)
            hp = _ResolventImage(h, q).dense()

            def xi(n, _a=a, _b=b):
                return (_a ** (n + 1) - _b ** (n + 1)) / (_a - _b)

            pref = (1 - a * a) * (1 - b * b) / (1 + 1.0 / q)
            pref_p = (1 - 1.0 / q) * pref
            for i in range(8):
                for j in range(8):
                    assert abs(h.entries[i, j] - pref * xi(i + j)) <= 1e-12
                    assert abs(hp[i, j] - pref_p * xi(i) * xi(j)) <= 1e-12


@pytest.mark.parametrize("q, ladder", [
    (2, [0.2j, 0.3j, 0.32j, 0.325j, 0.32575j, 0.33j, 0.6 + 0.2j]),
    (3, [0.4j, 0.45j, 0.48j, 0.49j, 0.491j, 0.4926j, 0.495j, 0.7 + 0.3j]),
    (INF, [0.9, 0.98, 0.99, 0.9925, 0.995, 0.99j, 0.6 + 0.79j]),
])
def test_boundary_ladder_certifies_truly_or_gives_up(q, ladder):
    # spherical symbols toward the edge of the multiplier ellipse, down to
    # margins where the 4096-row cap binds: each certified report lies within
    # its certified error of the closed form, and the rest end in NoConvergence
    at_cap = given_up = 0
    for s in ladder:
        try:
            rep = schur_norm(spherical_symbol(q, s=s), q)
        except NoConvergence:
            given_up += 1
            continue
        assert rep.certified
        assert abs(rep.total - schur_norm_in_s(q, s)) <= rep.certified_error, s
        at_cap += rep.truncation_n == N_CAP
    assert at_cap >= 1 and given_up >= 1


# the spans of the bands the near-boundary benchmark draws from: Re z (tail
# ratio q^-Re z) for finite q, |s| for q = inf
_BOUNDARY_BANDS = {2: (0.050, 0.140), 3: (0.016, 0.085), INF: (0.910, 0.966)}


def test_right_sized_windows_certify_near_the_boundary():
    # the window is never wider than the first power-of-two fit, and its
    # smaller slack still covers the distance to the closed form
    rng = np.random.default_rng(31)
    for q, (lo, hi) in _BOUNDARY_BANDS.items():
        for _ in range(4):
            u, t = rng.uniform(lo, hi), rng.uniform(0.0, 1.0)
            if q == INF:
                s = u * cmath.exp(2j * math.pi * t)
            else:
                s = eigenvalue_from_z(q, complex(u, 2.0 * math.pi * t / math.log(q)))
            sym = spherical_symbol(q, s=s)
            rep = schur_norm(sym, q)
            n = N_START
            while _budget(sym, q, n).total > 1e-8:
                n *= 2
            assert rep.certified and rep.truncation_n <= n, s
            assert rep.certified_error <= 1e-8
            assert abs(rep.total - schur_norm_in_s(q, s)) <= rep.certified_error, s
