"""Disc quadrature, gamma identities, moment recovery, and the norm sandwich."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeschur.disc import (
    EIGHT_OVER_PI,
    AnalyticDiscFunction,
    DiscMeasure,
    PolarQuadrature,
    _density_factor,
    _radial_rule,
    _ring_l1,
    coeff_hankel,
    difference_sequence,
    disc_l1_norm,
    g_from_symbol,
    gamma_coeffs,
    measure_bound,
    moments_from_g,
    optimal_measure,
    peller_sandwich,
)
from treeschur.errors import UndeclaredTail
from treeschur.spectral import _Matrix, _svd_allowance, trace_norm
from treeschur.spherical import axis_ratio, spherical_symbol
from treeschur.symbols import (
    INF,
    explicit_symbol,
    lacunary_counterexample,
    parity_symbol,
    power_symbol,
    scale_symbol,
)
from treeschur.verify import SANDWICH_POINTS, check_moment_round_trip, check_optimal_measure


@pytest.fixture(scope="module")
def quad():
    return PolarQuadrature()


def rank_one_coeffs(s):
    """c_n = (1-s^2) s^n, the difference sequence of phi(n) = s^n."""
    return scale_symbol(power_symbol(s), 1.0 - s * s)


def test_gamma_values():
    g = gamma_coeffs(2)
    assert g[0] == pytest.approx(1.0)
    assert g[1] == pytest.approx(1.5)
    assert g[2] == pytest.approx(15.0 / 8.0)
    # against the Gamma-function definition
    for n in (5, 17, 40):
        direct = math.gamma(n + 1.5) / (math.gamma(1.5) * math.gamma(n + 1))
        assert gamma_coeffs(n)[n] == pytest.approx(direct, rel=1e-13)


def test_quadrature_moment_exactness(quad):
    # (1/pi) int z^a conj(z)^b (1-|z|^2): 1/((a+1)(a+2)) on the diagonal, else 0
    for a in range(0, 13, 3):
        for b in range(0, 13, 4):
            vals = quad.nodes ** a * np.conj(quad.nodes) ** b * (1.0 - np.abs(quad.nodes) ** 2)
            got = quad.integrate(vals)
            want = 1.0 / ((a + 1.0) * (a + 2.0)) if a == b else 0.0
            assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("n_r", [3, 6, 7, 80])
@pytest.mark.parametrize("n_theta", [8, 12, 13, 256])
def test_quadrature_validation_matches_node_loop(n_r, n_theta):
    # reference: the 13 x 13 moment matrix summed node by node over a power table
    from treeschur.errors import NoConvergence

    quad = PolarQuadrature(n_r, n_theta, validate=False)
    powers = quad.nodes[None, :] ** np.arange(13)[:, None]
    moments = (powers * quad.weights * (1.0 - np.abs(quad.nodes) ** 2)) @ powers.conj().T
    exact = np.allclose(moments, np.diag(1.0 / ((np.arange(13) + 1.0) * (np.arange(13) + 2.0))), atol=1e-12)
    if exact:
        PolarQuadrature(n_r, n_theta)
    else:
        with pytest.raises(NoConvergence):
            PolarQuadrature(n_r, n_theta)


def test_g_from_symbol_examples():
    g = g_from_symbol(explicit_symbol([1.0]))
    assert g.coeffs[0] == pytest.approx(2.0)
    assert np.all(g.coeffs[1:] == 0)

    g0 = g_from_symbol(explicit_symbol([]))
    assert np.all(g0.coeffs == 0)

    s = 0.5
    gr = g_from_symbol(rank_one_coeffs(s))
    z = np.array([0.3 + 0.2j, -0.4j, 0.0])
    closed = 2.0 * (1.0 - s * s) / (1.0 - s * z) ** 3
    assert np.max(np.abs(gr.eval(z) - closed)) <= 1e-12


def test_g_requires_certified_tail():
    with pytest.raises(UndeclaredTail):
        g_from_symbol(lacunary_counterexample())


def horner_scale(g, quad):
    """sum_n |g_n| r_max^n: the size of the rounding error Horner's rule makes at the outermost ring."""
    return float(np.sum(np.abs(g.coeffs) * quad.max_radius ** np.arange(len(g.coeffs))))


@st.composite
def ring_grids(draw):
    """(n_r, n_theta, coefficient count, seed); counts run to 3 n_theta, exact multiples included, so the fold wraps."""
    n_theta = draw(st.sampled_from((4, 8, 256)))
    n_r = draw(st.sampled_from((2, 5, 80)))
    count = draw(st.one_of(st.sampled_from((0, n_theta, 2 * n_theta, 3 * n_theta)), st.integers(0, 3 * n_theta)))
    return n_r, n_theta, count, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ring_grids())
def test_on_rings_matches_horner_at_the_nodes(grid):
    n_r, n_theta, count, seed = grid
    rng = np.random.default_rng(seed)
    g = AnalyticDiscFunction(coeffs=rng.normal(size=count) + 1j * rng.normal(size=count))
    quad = PolarQuadrature(n_r, n_theta, validate=False)
    tol = 1e-13 * horner_scale(g, quad)
    on_rings = g.on_rings(quad.radii, n_theta)
    assert on_rings.shape == (n_r, n_theta)
    assert np.max(np.abs(on_rings.ravel() - g.eval(quad.nodes))) <= tol
    conj = g.on_rings(quad.radii, n_theta, conj=True).ravel()
    assert np.max(np.abs(conj - g.eval(np.conj(quad.nodes)))) <= tol


def moments_by_node_loop(g, quad, maxdeg):
    """Reference for ``moments_from_g``: the quadrature sum over every node,
    with g by Horner's rule and a running power of z, one n at a time."""
    base = quad.weights * g.eval(np.conj(quad.nodes)) * (1.0 - np.abs(quad.nodes) ** 2)
    out = np.empty(maxdeg + 1, dtype=complex)
    zpow = np.ones_like(quad.nodes)
    for n in range(maxdeg + 1):
        out[n] = np.sum(base * zpow)
        zpow = zpow * quad.nodes
    return out


@pytest.mark.parametrize("n_r, n_theta, maxdeg", [(80, 256, 10), (80, 256, 300), (5, 8, 6), (5, 8, 30)])
def test_moments_from_g_matches_node_loop(n_r, n_theta, maxdeg):
    # maxdeg past n_theta: the angular sum aliases, in the node loop and the fold alike
    rng = np.random.default_rng(n_r * n_theta + maxdeg)
    count = 3 * n_theta + 5
    g = AnalyticDiscFunction(coeffs=(rng.normal(size=count) + 1j * rng.normal(size=count)) * 0.99 ** np.arange(count))
    quad = PolarQuadrature(n_r, n_theta, validate=False)
    got = moments_from_g(g, quad, maxdeg)
    assert got.shape == (maxdeg + 1,)
    assert np.max(np.abs(got - moments_by_node_loop(g, quad, maxdeg))) <= 1e-13 * horner_scale(g, quad)


def ring_folds_full_width(g, radii, n_theta):
    """Reference for ``ring_folds``: the same Horner loop over blocks, with
    every step applied to all n_theta columns, occupied or not."""
    radii = np.asarray(radii, dtype=float)
    acc = np.zeros((radii.size, n_theta), dtype=complex)
    r_block = (radii ** n_theta)[:, None]
    for start in range((len(g.coeffs) - 1) // n_theta * n_theta, -1, -n_theta):
        block = g.coeffs[start:start + n_theta]
        acc *= r_block
        acc[:, :len(block)] += block
    acc *= radii[:, None] ** np.arange(n_theta)
    return acc


@pytest.mark.parametrize("n_r, n_theta", [(80, 256), (160, 512)])
def test_ring_folds_match_the_full_width_loop_bit_for_bit(n_r, n_theta):
    rng = np.random.default_rng(n_theta)
    radii = PolarQuadrature(n_r, n_theta, validate=False).radii
    for count in (0, 1, n_theta - 1, n_theta, n_theta + 1, 3 * n_theta + 5):
        coeffs = rng.normal(size=count) + 1j * rng.normal(size=count)
        coeffs[: count // 7] = -0.0  # signed zeros in the head
        g = AnalyticDiscFunction(coeffs=coeffs)
        got = g.ring_folds(radii, n_theta)
        assert got.dtype == complex and got.shape == (n_r, n_theta)
        assert got.tobytes() == ring_folds_full_width(g, radii, n_theta).tobytes(), count


def test_ring_folds_memory_stays_at_grid_size(quad):
    # a power table over all 200,000 coefficients would take 80 x 200,000 x 16 bytes (256 MB)
    g = AnalyticDiscFunction(coeffs=np.full(200_000, 1.0 + 1.0j))
    tracemalloc.start()
    try:
        folds = g.ring_folds(quad.radii, quad.n_theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert folds.shape == (quad.n_r, quad.n_theta)
    assert peak < 8_000_000


def ring_l1_whole_grid(g, radii, radial_weights, n_theta):
    """Reference for ``_ring_l1``: w |g| summed over the whole grid at once."""
    return float(np.sum((radial_weights / n_theta)[:, None] * np.abs(g.on_rings(radii, n_theta))))


def sandwich_g(s):
    return g_from_symbol(rank_one_coeffs(s))


@pytest.mark.parametrize("n_r, n_theta", [(80, 256), (160, 512)])
def test_ring_blocks_match_the_whole_grid_sum(n_r, n_theta):
    # the ring blocks reorder the sum only; the block edges fall inside the
    # grid (32 and 16 rings), and a coefficient count past n_theta folds
    radii, radial_weights = _radial_rule(n_r)
    rng = np.random.default_rng(n_r)
    count = 3 * n_theta + 5
    noise = AnalyticDiscFunction(coeffs=(rng.normal(size=count) + 1j * rng.normal(size=count)) * 0.99 ** np.arange(count))
    for g in [sandwich_g(s) for s in SANDWICH_POINTS] + [noise]:
        want = ring_l1_whole_grid(g, radii, radial_weights, n_theta)
        assert _ring_l1(g, radii, radial_weights, n_theta) == pytest.approx(want, rel=1e-14, abs=0)


def test_disc_l1_norm_matches_the_whole_grid_sum_at_its_last_level(quad):
    for s in SANDWICH_POINTS:
        g = sandwich_g(s)
        res = disc_l1_norm(g, quad, target_err=1e-6)
        assert (res.n_r, res.n_theta) == (160, 512)
        want = ring_l1_whole_grid(g, *_radial_rule(160), 512)
        assert res.value == pytest.approx(want, rel=1e-14, abs=0)


def test_disc_l1_norm_memory_stays_at_ring_blocks(quad):
    # the whole-grid sum held four 160 x 512 temporaries: a 2.6 MB peak
    g = sandwich_g(0.8 * cmath.exp(1j * math.pi / 5))
    disc_l1_norm(g, quad, target_err=1e-6)  # the radial rules are cached
    tracemalloc.start()
    try:
        res = disc_l1_norm(g, quad, target_err=1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.n_r == 160
    assert peak < 1_000_000


def test_disc_l1_norm_examples(quad):
    g2 = AnalyticDiscFunction(coeffs=np.array([2.0 + 0j]))
    res = disc_l1_norm(g2, quad)
    assert res.value == pytest.approx(2.0, abs=1e-12)

    gz = AnalyticDiscFunction(coeffs=np.array([0.0, 1.0 + 0j]))
    res2 = disc_l1_norm(gz, quad, target_err=1e-7)
    assert res2.value == pytest.approx(2.0 / 3.0, abs=1e-6)

    g_rank = g_from_symbol(rank_one_coeffs(0.5))
    res3 = disc_l1_norm(g_rank, quad)
    assert 1.0 - 1e-6 <= res3.value <= EIGHT_OVER_PI + 1e-6


def test_disc_l1_scaling(quad):
    g = g_from_symbol(rank_one_coeffs(0.4))
    alpha = 3.7
    scaled = AnalyticDiscFunction(coeffs=alpha * g.coeffs, tail_ratio=g.tail_ratio, tail_bound=alpha * g.tail_bound)
    v1 = disc_l1_norm(g, quad).value
    v2 = disc_l1_norm(scaled, quad).value
    assert v2 == pytest.approx(alpha * v1, rel=1e-13)


def test_moments_examples(quad):
    g2 = AnalyticDiscFunction(coeffs=np.array([2.0 + 0j]))
    mom = moments_from_g(g2, quad, 6)
    assert mom[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(mom[1:])) <= 1e-12

    s = 0.5
    mom_r = moments_from_g(g_from_symbol(rank_one_coeffs(s)), quad, 10)
    want = (1.0 - s * s) * s ** np.arange(11)
    assert np.max(np.abs(mom_r - want)) <= 1e-8

    gz = AnalyticDiscFunction(coeffs=np.zeros(1, dtype=complex))
    assert np.all(moments_from_g(gz, quad, 5) == 0)


def test_moment_round_trip_with_difference_sequence(quad):
    # build_hankel entries equal the recovered moments of g(diff phi)
    symbols = (power_symbol(0.5), power_symbol(0.37 + 0.4j), parity_symbol(0.3, -0.2, power_symbol(-0.45)))
    assert check_moment_round_trip(symbols, quad).max_err <= 1e-8


def test_moment_round_trip_fails_on_nan(quad, monkeypatch):
    # a NaN moment fails the check instead of dropping out of the maximum
    monkeypatch.setattr(
        "treeschur.verify.moments_from_g", lambda *args: np.where(np.arange(11) == 3, np.nan, moments_from_g(*args))
    )
    assert not check_moment_round_trip((power_symbol(0.5),), quad).passed


def test_peller_sandwich_cases(quad):
    zero = explicit_symbol([])
    rep0 = peller_sandwich(coeff_hankel(zero, 8), g_from_symbol(zero), quad)
    assert rep0.holds and rep0.lhs == 0.0 and rep0.mid == pytest.approx(0.0, abs=1e-14)

    c = rank_one_coeffs(0.5)
    rep = peller_sandwich(coeff_hankel(c, 48), g_from_symbol(c), quad)
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)
    assert rep.holds

    c2 = rank_one_coeffs(0.8 * cmath.exp(1j * math.pi / 5))
    rep2 = peller_sandwich(coeff_hankel(c2, 96), g_from_symbol(c2), quad, target_err=1e-6)
    assert rep2.holds
    assert rep2.lhs - rep2.slack <= rep2.mid <= EIGHT_OVER_PI * rep2.lhs + EIGHT_OVER_PI * rep2.slack


def test_peller_reads_its_window_through_the_window_operator(quad):
    # the sandwich's ||H||_1 comes from the same operator schur_norm reads: the
    # dense window's bits below 128 rows, within the SVD allowance from 128
    # rows, where a window the sketch certifies forms no N x N array.  The
    # window is real, so the operator reads it in real arithmetic, and the
    # reference is its real dense form
    coeffs = difference_sequence(spherical_symbol(INF, s=0.9))
    g = g_from_symbol(coeffs)
    h = coeff_hankel(coeffs, 96)
    assert not h.entries.imag.any()
    assert peller_sandwich(h, g, quad).lhs == trace_norm(_Matrix(h.entries.real))
    n = 1024
    peller_sandwich(coeff_hankel(coeffs, 128), g, quad)
    h = coeff_hankel(coeffs, n)
    tracemalloc.start()
    try:
        rep = peller_sandwich(h, g, quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 16 * n * n
    assert abs(rep.lhs - trace_norm(h.entries)) <= _svd_allowance(n)


def test_coeff_hankel_tail_dominates_truncation():
    c = rank_one_coeffs(0.6)
    big = coeff_hankel(c, 200).entries
    small = coeff_hankel(c, 12)
    padded = np.zeros_like(big)
    padded[:12, :12] = small.entries
    assert trace_norm(big - padded) <= small.tail_bound + 1e-12


def test_measure_bound_single_atom():
    s = 0.5
    mu = DiscMeasure(atoms_z=np.array([s + 0j]), atoms_w=np.array([1.0 + 0j]))
    rep = measure_bound(power_symbol(s), mu)
    assert rep.matches and rep.max_mismatch <= 1e-12
    assert rep.upper == pytest.approx(abs(1 - s * s) / (1 - s * s), abs=1e-12)
    assert rep.bound_holds


def test_measure_bound_constant_and_two_atoms():
    from treeschur.symbols import constant_symbol

    empty = DiscMeasure(atoms_z=np.zeros(0, dtype=complex), atoms_w=np.zeros(0, dtype=complex), c_plus=1.0)
    rep = measure_bound(constant_symbol(1.0), empty)
    assert rep.matches and rep.upper == pytest.approx(1.0)

    two = DiscMeasure(atoms_z=np.array([0.5, -0.5], dtype=complex), atoms_w=np.array([1.0, 1.0], dtype=complex))
    target = explicit_symbol([], tail=None)

    def fn(n):
        return 0.5 ** n + (-0.5) ** n

    from treeschur.symbols import Geometric, RadialSymbol

    sym = RadialSymbol(fn=fn, tail=Geometric(ratio=0.5, bound=2.0))
    rep2 = measure_bound(sym, two)
    assert rep2.matches
    assert rep2.upper == pytest.approx(2.0, abs=1e-12)
    assert rep2.bound_holds
    # the recovery constant (8/pi)(q+1)/(q-1) at q = 3
    assert EIGHT_OVER_PI * axis_ratio(3) == pytest.approx(EIGHT_OVER_PI * 2.0)


def test_measure_moments_match_moment():
    rng = np.random.default_rng(5)
    z = 0.9 * rng.uniform(size=40) * np.exp(2j * np.pi * rng.uniform(size=40))
    mu = DiscMeasure(atoms_z=z, atoms_w=rng.normal(size=40) + 1j * rng.normal(size=40), c_plus=0.3, c_minus=-0.2j)
    want = np.array([mu.moment(n) for n in range(25)])
    assert np.max(np.abs(mu.moments(25) - want)) <= 1e-13 * np.sum(np.abs(mu.atoms_w))
    empty = DiscMeasure(atoms_z=np.zeros(0, dtype=complex), atoms_w=np.zeros(0, dtype=complex), c_plus=1.0, c_minus=0.5)
    assert np.array_equal(empty.moments(4), [1.5, 0.5, 1.5, 0.5])


@pytest.mark.parametrize("n_r, n_theta", [(6, 16), (80, 256)])
def test_ring_moments_match_the_running_product(n_r, n_theta):
    # the same atoms without their ring layout take the running product;
    # counts past n_theta alias in both
    quad = PolarQuadrature(n_r, n_theta, validate=False)
    mu = optimal_measure(g_from_symbol(difference_sequence(power_symbol(0.45 - 0.3j))), quad, c_plus=0.3, c_minus=-0.2j)
    plain = DiscMeasure(atoms_z=mu.atoms_z, atoms_w=mu.atoms_w, c_plus=mu.c_plus, c_minus=mu.c_minus)
    count = 3 * n_theta + 5
    want = plain.moments(count)
    tol = 1e-13 * np.sum(np.abs(mu.atoms_w))
    assert np.max(np.abs(mu.moments(count) - want)) <= tol
    assert max(abs(mu.moment(n) - want[n]) for n in range(count)) <= tol


@pytest.mark.parametrize("n_r, n_theta, order", [
    (80, 256, 8), (80, 256, 19), (80, 256, 60), (80, 256, 512), (160, 512, 19), (160, 512, 512),
])
def test_density_factor_matches_the_quotient_in_mpmath(n_r, n_theta, order):
    # (1 - z^(2K+2)) / (1 - z^2) at z = r e^(2 pi i j / n_theta), 40 digits,
    # on every ring at the angles next to z = +-1 and +-i and a stride of
    # others; K = 19 is the order of the measure of verify's optimal-measure
    # check, and 512 is the cap.  The same quotient in floats at the float
    # nodes is off by up to 7e-12 of the largest factor near z = +-1
    radii, _ = _radial_rule(n_r)
    got = _density_factor(radii, n_theta, order)
    h = n_theta // 2
    angles = sorted({0, 1, h // 2, h - 1, h, h + 1, n_theta - 1} | set(range(3, n_theta, 29)))
    n = 2 * order + 2
    with mpmath.workdps(40):
        want = np.array([[
            complex((1 - z ** n) / (1 - z * z))
            for z in (mpmath.mpf(float(r)) * mpmath.expjpi(mpmath.mpf(2 * j) / n_theta) for j in angles)
        ] for r in radii])
    assert np.max(np.abs(got[:, angles] - want)) <= 1e-14 * np.max(np.abs(got))


def test_optimal_measure_reproduces_symbol(quad):
    # moments within 1e-6; the measure's mass is the disc integral, hence within the (8/pi) bound
    res = check_optimal_measure(power_symbol(0.45 - 0.3j), quad)
    assert res.passed and res.max_err <= 1e-6
    # a finite-support symbol: g has no tail, so its series order is read off its coefficients
    res = check_optimal_measure(explicit_symbol([1, 0.5, -0.25, 0.125]), quad)
    assert res.passed and res.max_err <= 1e-6


def test_finite_q_recovery_constant_chain(quad):
    # the optimal measure's total bound stays below (8/pi)(q+1)/(q-1) times
    # the finite-degree Schur norm, through the subtree comparison
    from treeschur.symbols import schur_norm

    sym = power_symbol(0.45 - 0.3j)
    mu = optimal_measure(g_from_symbol(difference_sequence(sym)), quad)
    for q in (2, 3):
        rep = measure_bound(sym, mu, match_tol=1e-6)
        assert rep.matches
        norm_q = schur_norm(sym, q, target_err=1e-8).total
        assert rep.upper <= EIGHT_OVER_PI * axis_ratio(q) * norm_q + 1e-6


def test_coeff_hankel_ratio_zero_tail_bound_dominates_discarded_part():
    # Geometric with ratio 0 and onset 8 is finite support from index 8 on
    from treeschur.symbols import Geometric

    vals = [1.0, 0.5, 0.25, 0.125, 0.9, -0.7, 0.3j, 0.6]
    sym = explicit_symbol(vals, tail=Geometric(ratio=0.0, bound=1.0, onset=8))
    h3 = coeff_hankel(sym, 3)
    full = coeff_hankel(sym, 16).entries
    padded = np.zeros_like(full)
    padded[:3, :3] = h3.entries
    assert trace_norm(full - padded) <= h3.tail_bound + 1e-12
    assert coeff_hankel(sym, 8).tail_bound == 0.0


def test_coeff_hankel_rejects_parity_part():
    sym = parity_symbol(1.0, 0.0, power_symbol(0.5))
    with pytest.raises(UndeclaredTail):
        coeff_hankel(sym, 8)
