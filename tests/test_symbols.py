"""Radial symbols, Hankel windows, resolvent, parity limits, Schur norms."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeschur.corpus import trace_class_corpus
from treeschur.disc import coeff_hankel
from treeschur.errors import DivergentDiagonals, DivergentSeries, NonFinite
from treeschur.spectral import _svd_allowance, trace_norm
from treeschur.spherical import schur_norm_in_s, spherical_symbol
from treeschur.symbols import (
    INF,
    N_CAP,
    FiniteSupport,
    Geometric,
    RadialSymbol,
    Undeclared,
    _border_width,
    _evaluate_window,
    _Majorant,
    _ResolventImage,
    apply_resolvent,
    build_hankel,
    constant_symbol,
    counterexample_block_lower_bound,
    explicit_symbol,
    extract_parity,
    hankel_tail_bound,
    lacunary_counterexample,
    ma_upper_bound,
    parity_symbol,
    power_symbol,
    resolvent_spill_bound,
    scale_symbol,
    schur_norm,
)
from treeschur.verify import _sandwich


def half_symbol():
    return power_symbol(0.5)


def parity_plus_half():
    # phi(n) = 2 + 3(-1)^n + 2^-n
    return parity_symbol(2.0, 3.0, half_symbol())


# ---------------------------------------------------------------------------
# symbols and tail models
# ---------------------------------------------------------------------------

def test_geometric_spot_check_rejects_bad_bound():
    with pytest.raises(ValueError):
        RadialSymbol(fn=lambda n: 1.0, tail=Geometric(ratio=0.5, bound=1.0))


def test_finite_support_spot_check():
    with pytest.raises(ValueError):
        RadialSymbol(fn=lambda n: 1.0, tail=FiniteSupport(3))


@pytest.mark.parametrize("f, tail", [
    (lambda n: 0.35 ** n * math.cos(1.3 * n), Undeclared()),  # the benchmark's undeclared damped cosine
    (lambda n: 0.5 ** n * math.cos(0.7 * n), Geometric(ratio=0.5, bound=1.0)),
], ids=["undeclared", "geometric"])
def test_scalar_fn_builds_the_same_symbol_as_its_values_fn(f, tail):
    # the generator a scalar fn becomes: its values index by index, as a complex array
    by_fn = RadialSymbol(fn=f, tail=tail)
    by_values = RadialSymbol(tail=tail, values_fn=lambda count: np.array([f(n) for n in range(count)], dtype=complex))
    assert np.array_equal(by_fn.values(300), by_values.values(300))
    assert all(by_fn.eval(n) == by_values.eval(n) == complex(f(n)) for n in (0, 1, 7, 40))
    env_fn, env_values = by_fn._env, by_values._env
    if env_fn is None:
        assert env_values is None
    else:
        assert (env_fn.c_plus, env_fn.c_minus, env_fn.c, env_fn.r) == (
            env_values.c_plus, env_values.c_minus, env_values.c, env_values.r)
        assert np.array_equal(env_fn.head, env_values.head)
    for q in (3, INF):
        assert schur_norm(by_fn, q) == schur_norm(by_values, q)


def test_declared_tail_checked_on_every_stored_value():
    # a spike far from the onset used to slip between sampled check offsets
    spike = np.zeros(400)
    spike[0], spike[300] = 1.0, 0.5
    with pytest.raises(ValueError, match="n=300"):
        explicit_symbol(spike, tail=Geometric(ratio=0.1, bound=1.0))
    # stored values past the onset + 1024 check window are checked too
    long = np.zeros(2000)
    long[0], long[1500] = 1.0, 0.5
    with pytest.raises(ValueError, match="n=1500"):
        explicit_symbol(long, tail=Geometric(ratio=0.1, bound=1.0))


def test_explicit_symbol_rejects_non_finite_values():
    with pytest.raises(ValueError):
        explicit_symbol([1.0, float("nan")])


@pytest.mark.parametrize("ratio, bound", [(float("nan"), 1.0), (0.5, float("inf")), (0.5, float("nan")), (0.5, -1.0)])
def test_geometric_tail_needs_a_finite_bound_and_ratio(ratio, bound):
    # an infinite bound would only surface later as a cap with no fitting window
    with pytest.raises(ValueError):
        explicit_symbol([1.0, 0.5], tail=Geometric(ratio=ratio, bound=bound))


def test_explicit_symbol_memory_does_not_grow_with_declared_onset():
    # phi is 0 past the stored values, so a later onset declares nothing more
    # than finite support; an onset-sized exact head would hold 2e6 complex
    # values (32 MB)
    tracemalloc.start()
    try:
        sym = explicit_symbol([1, 0.5], tail=Geometric(0.5, 1.0, onset=2_000_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert sym.tail == FiniteSupport(2)


def test_explicit_symbol_values():
    sym = explicit_symbol([1.0, 2.0, 3.0])
    assert sym(1) == 2.0
    assert sym(17) == 0.0
    assert np.allclose(sym.values(5), [1, 2, 3, 0, 0])


def test_lacunary_values():
    sym = lacunary_counterexample()
    assert sym(2) == pytest.approx(0.5)        # k = 1
    assert sym(3) == 0.0                       # not a power of two
    assert sym(8) == pytest.approx(1.0 / 24.0)  # k = 3
    assert sym(1) == 0.0
    vec = sym.values(40)
    assert vec[4] == pytest.approx(1.0 / 8.0)
    assert vec[32] == pytest.approx(1.0 / (5 * 32))


# ---------------------------------------------------------------------------
# Hankel windows
# ---------------------------------------------------------------------------

def test_build_hankel_half_symbol_entry():
    h = build_hankel(half_symbol(), 4)
    assert h.entries[0, 0] == pytest.approx(0.75)
    # Hankel structure: entries constant on antidiagonals
    for m in range(4):
        vals = [h.entries[i, m - i] for i in range(m + 1)]
        assert max(abs(v - vals[0]) for v in vals) == 0.0


def test_build_hankel_constant_and_alternating_are_zero():
    h1 = build_hankel(constant_symbol(1.0), 8)
    assert np.all(h1.entries == 0)
    alt = parity_symbol(0.0, 1.0, explicit_symbol([]))
    h2 = build_hankel(alt, 8)
    assert np.all(h2.entries == 0)


def test_tail_bound_decreases_and_certifies():
    sym = half_symbol()
    b8, b16 = hankel_tail_bound(sym, 8), hankel_tail_bound(sym, 16)
    assert 0 < b16 < b8 < 1.0
    # bound really dominates the discarded trace norm (rank-one exact tail)
    big, small = 400, 8
    h_big = build_hankel(sym, big).entries
    padded = np.zeros_like(h_big)
    padded[:small, :small] = h_big[:small, :small]
    discarded = trace_norm(h_big - padded)
    assert discarded <= hankel_tail_bound(sym, small) + 1e-12


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

def test_apply_resolvent_window_values():
    h = build_hankel(half_symbol(), 6)
    hp = apply_resolvent(h.entries, 3)
    assert hp[0, 0] == pytest.approx(0.5)       # (2/3)(3/4)
    assert hp[1, 1] == pytest.approx(7.0 / 24.0)  # (2/3)(3/16 + 1/4)


def test_apply_resolvent_zero():
    hp = apply_resolvent(np.zeros((5, 5), dtype=complex), 4)
    assert np.all(hp == 0)


def test_resolvent_inverse_recovers_window():
    # (I - tau/q) applied entrywise undoes the window recurrence exactly
    rng = np.random.default_rng(3)
    t = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    q = 5
    tp = apply_resolvent(t, q) / (1.0 - 1.0 / q)
    back = tp.copy()
    back[1:, 1:] -= tp[:-1, :-1] / q
    assert np.max(np.abs(back - t)) <= 1e-13


def reference_hankel(sym, n):
    """The window gathered twice from the values, as first written."""
    vals = sym.values(2 * n + 1)
    idx = np.add.outer(np.arange(n), np.arange(n))
    return vals[idx] - vals[idx + 2]


# unit roundoff of binary64
UNIT = 2.0 ** -53


def gamma(k):
    return k * UNIT / (1.0 - k * UNIT)


def resolvent_oracle(d, n, q, antidiagonals):
    """{(i, j): h'[i, j]} on the antidiagonals i + j = u given, from the
    definition (1-c) sum_{s <= min(i,j)} c^s d[i+j-2s] at 40 digits, with c
    the double 1.0/q taken exactly; each antidiagonal is one prefix sum over s."""
    out = {}
    with mpmath.workdps(40):
        c = mpmath.mpf(1.0 / q)
        for u in antidiagonals:
            total, power = mpmath.mpc(0), mpmath.mpf(1)
            for s in range(u // 2 + 1):
                total += power * mpmath.mpc(d[u - 2 * s])
                power *= c
                if u - s < n:  # min(i, j) = s on this antidiagonal
                    out[s, u - s] = out[u - s, s] = (1 - c) * total
    return out


def check_resolvent_against_oracle(d, n, q, image):
    """Every entry of ``image`` on the checked antidiagonals is within

        (1-c) [ gamma_(3T+5) (A[i+j] + c^(m+1) A[|i-j|-2]) + [m >= k] 2^-60 A[|i-j|-2] ]

    of the oracle, where m = min(i, j), A[u] = sum_s c^s |d[u-2s]| (0 for
    u < 0), T is the number of steps of the scan that makes F, and k is the
    border width, the first index with c^(k+1) <= 2^-60 (at most n).

    The derivation.  The image is (1-c) F[i+j] - (1-c) c^(m+1) F[|i-j|-2]
    with F[u] = sum_s c^s d[u-2s], which is the definition sum exactly.  Each
    of the T scan steps multiplies a partial sum by a rounded power of c (two
    roundings) and adds it (one), so |fl(F) - F| <= gamma_(3T) A
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    ch. 3; real and imaginary parts round apart, and Minkowski's inequality
    takes the componentwise bound to the modulus).  The scale 1 - c, the
    power c^(m+1), their product, the product with F and the final
    subtraction add at most five roundings.  For m >= k the correction is
    dropped, and it is at most (1-c) 2^-60 |F| <= (1-c) 2^-60 A there.  A is
    summed in floats; its own relative rounding, below 1e-12, is far inside
    the factor gamma.
    """
    c = 1.0 / q
    steps = sum(1 for t in range(1, 64) if 2 ** t < 2 * n - 1)
    k = next(k for k in range(n + 1) if k == n or c ** (k + 1) <= 2.0 ** -60)
    a = np.abs(d)
    for u in range(2, len(a)):
        a[u] += c * a[u - 2]
    antidiagonals = range(2 * n - 1)
    if n > 64:  # the definition sum costs O(n^2) at 40 digits: check a spread of antidiagonals
        antidiagonals = sorted({0, 1, 2, 3, 2 * k - 1, 2 * k, 2 * k + 1, 2 * k + 2, n - 1, n, 2 * n - 3, 2 * n - 2})
    for (i, j), value in resolvent_oracle(d, n, q, antidiagonals).items():
        m, diff = min(i, j), abs(i - j) - 2
        a_diff = a[diff] if diff >= 0 else 0.0
        bound = (1 - c) * (gamma(3 * steps + 5) * (a[i + j] + c ** (m + 1) * a_diff) + (m >= k) * 2.0 ** -60 * a_diff)
        assert float(abs(image[i, j] - value)) <= bound, (q, i, j)


@pytest.mark.parametrize("n", [1, 7, 64, 513])
def test_window_and_resolvent_match_reference_bit_for_bit(n):
    # the window and the coefficient window bit for bit; the resolvent image,
    # made in closed form from F, within the rounding bound of the definition sum
    rng = np.random.default_rng(n)
    values = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
    for sym in (explicit_symbol(values), power_symbol(0.9 + 0.1j)):
        h = build_hankel(sym, n)
        assert np.array_equal(h.entries, reference_hankel(sym, n))
        for q in (2, 3, 5):
            check_resolvent_against_oracle(h.d, n, q, _ResolventImage(h, q).dense())
        vals = sym.values(2 * n - 1)
        assert np.array_equal(coeff_hankel(sym, n).entries, vals[np.add.outer(np.arange(n), np.arange(n))])


def complex_image_reference(d, n, q):
    """The resolvent image in complex arithmetic from the closed form
    (1-c) F[i+j] - (1-c) c^(min(i,j)+1) F[|i-j|-2], with F from the scan by
    c and the weight p[min(i,j)] read as max(p[i], p[j]), as the operator
    made every window before real windows took the real form."""
    c = 0.0 if q == INF else 1.0 / q
    f, lag = d.astype(complex), 2
    while c and lag < len(f):
        f[lag:] += c ** (lag // 2) * f[:-lag]
        lag *= 2
    g = (1.0 - c) * f if c else f
    i, j = np.ogrid[:n, :n]
    p = np.zeros(n)
    k = _border_width(c, n)
    p[:k] = (1.0 - c) * c ** np.arange(1.0, k + 1.0)
    lagged = np.where(np.abs(i - j) >= 2, f[np.maximum(np.abs(i - j) - 2, 0)], 0.0)
    return g[i + j] - np.maximum.outer(p, p) * lagged


TURNED = {
    "real": lambda n: explicit_symbol(np.random.default_rng(n).standard_normal(2 * n + 1)),
    "turned": lambda n: explicit_symbol(
        np.random.default_rng(n).standard_normal(2 * n + 1) * np.array([1, 1j, -1, -1j])[np.arange(2 * n + 1) % 4]
    ),
    "spherical-0.4i": lambda n: spherical_symbol(3, s=0.4j),
}


@pytest.mark.parametrize("kind", sorted(TURNED))
@pytest.mark.parametrize("n", [1, 7, 64, 513])
def test_real_windows_hold_the_bits_of_the_complex_image_under_the_exact_phase(kind, n):
    # a real d, or one real up to i^u (phi(n) in i^n R), gives a real operator
    # whose dense matrix is D* A D* bit for bit, A the complex image and
    # D = diag(i^u) (the identity for a real d): the rotation by +-1 and +-i
    # is exact, and the scan by -c and the signed border weights round as
    # the complex closed form does
    h = build_hankel(TURNED[kind](n), n)
    for q in (2, 3, 5, INF):
        op = _ResolventImage(h, q)
        assert not np.iscomplexobj(op.g) and (op.phase is None) == (not h.d.imag.any())
        turns = np.array([1, -1j, -1, 1j])[np.add.outer(np.arange(n), np.arange(n)) % 4]
        rotated = complex_image_reference(h.d, n, q) * (1.0 if op.phase is None else turns)
        assert not rotated.imag.any() and np.array_equal(op.dense(), rotated.real), q


# ---------------------------------------------------------------------------
# powers on the axes, in their exact phase class
# ---------------------------------------------------------------------------

AXIS_POWERS = (0.9j, -0.9)


def off_class(values, s):
    """How many values leave the class of s^n: R for a real s, i^n R for an imaginary one."""
    if s.imag == 0:
        return int(np.count_nonzero(values.imag))
    return int(np.count_nonzero(values.real[1::2]) + np.count_nonzero(values.imag[::2]))


@pytest.mark.parametrize("s", AXIS_POWERS + (-0.4j, 0.5, 0.0))
def test_axis_powers_stay_in_their_phase_class(s):
    # numpy's power of s leaves residue off the class from n = 100 on; the
    # symbol's 300 values, and the q = inf spherical values, have none, and
    # below 100 they are the bits of numpy's power
    from treeschur.spherical import spherical_values

    s = complex(s)
    for values in (power_symbol(s).values(300), spherical_values(INF, s, 300)):
        assert off_class(values, s) == 0
        assert np.array_equal(values[:100], s ** np.arange(100))
        assert np.max(np.abs(values - s ** np.arange(300))) <= 1e-15


@pytest.mark.parametrize("s", AXIS_POWERS)
def test_axis_power_windows_reach_the_real_path(s):
    # the 224-row q = 3 window of 0.9i^n or (-0.9)^n is read by a real
    # operator (up to the phase i^m for 0.9i), and its trace norm agrees with
    # that of the complex window of numpy's powers within the allowance
    n, q, s = 224, 3, complex(s)
    sym = power_symbol(s)
    rep = schur_norm(sym, q)
    assert (rep.truncation_n, rep.sketch_width) == (n, 39)
    op = _ResolventImage(build_hankel(sym, n), q)
    assert op.dtype == np.float64 and (op.phase is None) == (s.imag == 0)
    complex_op = _ResolventImage(build_hankel(RadialSymbol(values_fn=lambda count: s ** np.arange(count)), n), q)
    assert complex_op.dtype == np.complex128
    assert abs(trace_norm(op) - trace_norm(complex_op)) <= _svd_allowance(n)
    # at q = inf the spherical function is s^n, and its norm is the closed form
    rep = schur_norm(spherical_symbol(INF, s=s), INF)
    assert rep.certified and abs(rep.total - schur_norm_in_s(INF, s)) <= rep.certified_error


# ---------------------------------------------------------------------------
# values generated once
# ---------------------------------------------------------------------------

def counted(values_fn, calls):
    """values_fn, appending each count it is called with to ``calls``."""
    return lambda count: calls.append(count) or values_fn(count)


def test_kept_values_are_those_of_the_generator():
    calls = []
    sym = RadialSymbol(tail=Geometric(ratio=0.9, bound=1.0), values_fn=counted(lambda c: 0.9 ** np.arange(c) * 1j, calls))
    assert calls == [1025]  # the construction check
    for k in (1, 700, 1025, 1026, 3000, 2 * N_CAP + 2):
        assert np.array_equal(sym.values(k), 0.9 ** np.arange(k) * 1j), k
    # the reads up to the stored length ran nothing; 3000 was kept, so only
    # the reads past it and the one past 2 N_CAP + 1 ran the generator
    assert calls == [1025, 1026, 3000, 2 * N_CAP + 2]
    assert sym.eval(2999) == 0.9 ** 2999 * 1j and len(calls) == 4


def test_writing_into_read_values_leaves_later_reads_unchanged():
    sym = power_symbol(0.5)
    for k in (2000, 10, 1025):  # a read that runs the generator, then reads of the kept prefix
        sym.values(k)[:] = 7.0
    assert np.array_equal(sym.values(2000), sym.values_fn(2000))


@pytest.mark.parametrize("q", [2, 3, INF])
def test_windows_up_to_511_rows_run_no_generator_after_construction(q):
    calls = []
    from treeschur.spherical import spherical_values

    s = 0.9 if q == INF else 0.5 + 0.2j
    sym = RadialSymbol(tail=Geometric(ratio=0.95, bound=2.0), values_fn=counted(lambda c: spherical_values(q, s, c), calls))
    del calls[:]
    for n in (32, 64, 256, 511):
        _evaluate_window(sym, q, n)
    schur_norm(sym, q)
    assert calls == []


def test_a_read_past_the_longest_window_keeps_nothing():
    sym = power_symbol(0.5)
    count = 2 * N_CAP + 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        values = sym.values(count)
        assert len(values) == count
        del values
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 16 * 1024  # the read's 131 KB are not kept
    assert len(sym.values(1025)) == 1025


def reference_parity(sym, entries):
    """(c_plus, c_minus, Cauchy error) from np.diagonal sums of the dense window, as first written."""
    n = entries.shape[0]
    diag, sub = np.diagonal(entries), np.diagonal(entries, offset=-1)
    diag_sum, sub_sum = complex(np.sum(diag)), complex(np.sum(sub))
    half = max(n // 2, 1)
    err = abs(diag_sum - complex(np.sum(diag[:half]))) + abs(sub_sum - complex(np.sum(sub[: max(half - 1, 0)])))
    phi = sym.values(2)
    even, odd = complex(phi[0]) - diag_sum, complex(phi[1]) - sub_sum
    return 0.5 * (even + odd), 0.5 * (even - odd), err


@pytest.mark.parametrize("n", [1, 7, 64, 128, 513])
def test_evaluated_window_and_parity_match_the_dense_references(monkeypatch, n):
    # the window reaches _factorize as an operator whose matrix is the
    # gathered dense window at q = inf, bit for bit, and the resolvent image
    # within the rounding bound of the definition sum at finite q; the parity
    # limits of the declared symbol are its envelope's, (0j, 0j) exactly, and
    # those of the undeclared one come from d, with the bits of the dense
    # diagonal sums and their half-window error
    import treeschur.symbols as symbols

    seen = []
    real = symbols._factorize
    monkeypatch.setattr(symbols, "_factorize", lambda m: seen.append(m.dense()) or real(m))
    rng = np.random.default_rng(100 + n)
    values = 0.7 ** np.arange(2 * n + 1) * np.exp(2j * np.pi * rng.random(2 * n + 1))
    declared = explicit_symbol(values)
    undeclared = RadialSymbol(tail=Undeclared(), values_fn=lambda count: values[:count])
    for sym in (declared, undeclared):
        dense = reference_hankel(sym, n)
        vals = sym.values(2 * n + 1)
        cp, cm, half_err = reference_parity(sym, dense)
        for q in (2, 3, 5, INF):
            w = symbols._evaluate_window(sym, q, n)
            if q == INF:
                assert np.array_equal(seen.pop(), dense)
            else:
                check_resolvent_against_oracle(vals[:-2] - vals[2:], n, q, seen.pop())
            if sym is declared:
                assert (w.parity.c_plus, w.parity.c_minus, w.parity.certified_error) == (0j, 0j, 0.0)
            else:
                assert (w.parity.c_plus, w.parity.c_minus, w.parity.certified_error) == (cp, cm, half_err)


def test_finite_degree_window_keeps_one_n_by_n_array():
    # no dense H and no gather index at finite q: the resolvent image is the
    # one N x N array (16 N^2 bytes), with the residual block of the range finder
    import treeschur.symbols as symbols
    from treeschur.spherical import spherical_symbol

    sym, n = spherical_symbol(3, s=0.4j), 1024
    symbols._evaluate_window(sym, 3, 128)
    tracemalloc.start()
    try:
        symbols._evaluate_window(sym, 3, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 16 * n * n


@pytest.mark.parametrize("n, share", [(2048, 0.25), (4096, 0.125)])
def test_certified_window_forms_no_n_by_n_array(n, share):
    # from 128 rows a window the sketch certifies is read through its
    # operator: FFT products, the border slab and 128-row residual blocks
    import treeschur.symbols as symbols
    from treeschur.spherical import spherical_symbol

    sym = spherical_symbol(3, s=0.4j)
    symbols._evaluate_window(sym, 3, 128)
    tracemalloc.start()
    try:
        w = symbols._evaluate_window(sym, 3, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.q_basis is not None
    assert peak < share * 16 * n * n


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
@pytest.mark.parametrize("q", [2, 3, INF])
def test_non_finite_values_never_certify(q, bad):
    # a values_fn that returns inf or NaN: the window checks d and F, which
    # are 2N values, and raises before any sketch or SVD
    def values_fn(count, at=5):
        out = 0.5 ** np.arange(count) + 0j
        out[at : at + 1] = bad
        return out

    with pytest.raises(NonFinite):
        schur_norm(RadialSymbol(tail=Undeclared(), values_fn=values_fn), q)
    # on the sketch path too, with the bad value deep in a 1024-row window,
    # found in the 2N values of d and F before any N x N array is made
    n = 1024
    tracemalloc.start()
    try:
        with pytest.raises(NonFinite):
            _evaluate_window(RadialSymbol(tail=Undeclared(), values_fn=lambda count: values_fn(count, at=1500)), q, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 16 * n * n


@pytest.mark.parametrize("n", [32, 256])
def test_overflowing_resolvent_sequence_never_certifies(n):
    # d is finite but F[2] = d[2] + d[0] / 2 = 2.25e308 overflows at q = 2
    values = np.zeros(2 * n + 1, dtype=complex)
    values[0], values[4] = 1.5e308, -1.5e308
    sym = RadialSymbol(tail=Undeclared(), values_fn=lambda count: values[:count])
    assert np.all(np.isfinite(build_hankel(sym, n).d))
    with pytest.raises(NonFinite):
        _evaluate_window(sym, 2, n)
    with pytest.raises(NonFinite):
        _ResolventImage(build_hankel(sym, n), 2)
    if n == 32:
        with pytest.raises(NonFinite):
            schur_norm(sym, 2)


@pytest.mark.parametrize("n", [128, 257, 1024])
@pytest.mark.parametrize("q", [2, 3, 5, INF])
def test_resolvent_operator_products_and_blocks(q, n):
    # the FFT product agrees with the dense product of the operator's own
    # matrix, which is complex symmetric, and its row blocks, as residuals
    # from any column on, are that matrix
    from treeschur.spherical import spherical_symbol

    rng = np.random.default_rng(n)
    random_values = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for sym in (explicit_symbol(random_values), spherical_symbol(3, s=0.4j)):
        op = _ResolventImage(build_hankel(sym, n), q)
        a = op.dense()
        # A convolution of length L = 2N by FFT errs by at most about
        # 3 kappa sqrt(L) ||G||_2 ||x||_2 in each entry, with
        # kappa = log2(L) eta / (1 - log2(L) eta) and eta <= 8u for accurate
        # twiddle factors (Higham, 2nd ed., 2002, thm 24.2, applied to the two
        # forward transforms, the pointwise product and the inverse); the
        # dense products and the border add gamma_n |A| |x|
        size = 2 * n
        kappa = math.log2(size) * 8 * UNIT / (1 - math.log2(size) * 8 * UNIT)
        fft_err = 3 * (kappa + gamma(4)) * math.sqrt(size) * np.linalg.norm(op.g)
        dense_err = gamma(n) * (np.abs(a) @ np.abs(x))
        assert np.all(np.abs(op.matmul(x) - a @ x) <= fft_err * np.linalg.norm(x, axis=0) + 2 * dense_err)
        assert np.array_equal(a, a.T)
        # rows i .. i+r-1 from column j on, to the last column or short of it,
        # for row blocks of 128 and of 8 (the byte-sized blocks of wide windows),
        # with columns that start inside the border (below 59 at q = 2) and past it
        for rows in (128, 8):
            for i in range(0, n, rows):
                r = min(rows, n - i)
                for j in sorted({0, 1, 30, i, min(i + 3, n - 1), n - 1}):
                    for width in {n - j, min(40, n - j)}:
                        residual = np.zeros((r, width), dtype=complex)
                        op.subtract_block(i, j, residual)
                        assert np.array_equal(residual, a[i : i + r, j : j + width])


def test_shift_conjugation_preserves_trace_norm():
    rng = np.random.default_rng(4)
    for _ in range(5):
        t = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        shifted = np.zeros((8, 8), dtype=complex)
        shifted[1:, 1:] = t
        assert abs(trace_norm(shifted) - trace_norm(t)) <= 1e-10


# ---------------------------------------------------------------------------
# parity extraction
# ---------------------------------------------------------------------------

def test_extract_parity_examples():
    sym = parity_plus_half()
    h = build_hankel(sym, 64)
    dec = extract_parity(sym, h)
    assert dec.c_plus == pytest.approx(2.0, abs=1e-12)
    assert dec.c_minus == pytest.approx(3.0, abs=1e-12)

    one = constant_symbol(1.0)
    dec1 = extract_parity(one, build_hankel(one, 16))
    assert dec1.c_plus == pytest.approx(1.0, abs=1e-14)
    assert dec1.c_minus == pytest.approx(0.0, abs=1e-14)

    geo = power_symbol(0.7)
    decg = extract_parity(geo, build_hankel(geo, 128))
    assert abs(decg.c_plus) < 1e-12 and abs(decg.c_minus) < 1e-12


def test_parity_reconstruction_consistency():
    sym = parity_symbol(0.4 - 0.1j, -0.25j, power_symbol(0.6j))
    dec = extract_parity(sym, build_hankel(sym, 128))
    assert abs(dec.c_plus - (0.4 - 0.1j)) <= 1e-12
    assert abs(dec.c_minus - (-0.25j)) <= 1e-12


# ---------------------------------------------------------------------------
# Schur norm
# ---------------------------------------------------------------------------

def test_schur_norm_parity_plus_half_infinite_degree():
    rep = schur_norm(parity_plus_half(), INF, target_err=1e-9)
    assert rep.total == pytest.approx(6.0, abs=1e-8)
    assert rep.hankel_term == pytest.approx(1.0, abs=1e-8)
    assert rep.certified


def test_schur_norm_constant_any_degree():
    for q in (2, 5, INF):
        rep = schur_norm(constant_symbol(1.0), q)
        assert rep.total == pytest.approx(1.0, abs=1e-10)


def test_schur_norm_spherical_style_power():
    rep = schur_norm(power_symbol(0.5j), INF, target_err=1e-9)
    assert rep.total == pytest.approx(5.0 / 3.0, abs=1e-8)


def test_schur_norm_homogeneity_and_entry_domination():
    sym = power_symbol(0.4 + 0.3j)
    rep = schur_norm(sym, 3, target_err=1e-9)
    rep2 = schur_norm(scale_symbol(sym, -2.5j), 3, target_err=1e-9)
    assert rep2.total == pytest.approx(2.5 * rep.total, abs=1e-7)
    sup = max(abs(sym(n)) for n in range(32))
    assert rep.total >= sup - 1e-9


def test_schur_norm_lacunary_diverges(monkeypatch):
    # the parity Cauchy test of the doubling loop rejects it at its first
    # window, 32 rows, at every degree
    import treeschur.symbols as symbols

    real = symbols.build_hankel
    for q in (2, 3, 5, INF):
        calls = []
        monkeypatch.setattr(symbols, "build_hankel", lambda *a: calls.append(a[1]) or real(*a))
        with pytest.raises(DivergentDiagonals, match="diagonal partial sums fail the Cauchy criterion"):
            schur_norm(lacunary_counterexample(), q, target_err=1e-8)
        assert calls == [32], q


def _cancelling_diagonals():
    # phi(4j + 2) = -1/(j + 1), else 0: d[4j] = 1/(j + 1), d[4j + 2] = -1/(j + 1)
    # and d odd vanish, so every window's diagonal sums cancel exactly and the
    # parity test passes, but the Hankel matrix is not trace class
    def values_fn(count):
        m = np.arange(count)
        return np.where(m % 4 == 2, -1.0 / (m // 4 + 1), 0.0)

    return RadialSymbol(tail=Undeclared(), values_fn=values_fn)


@pytest.mark.parametrize("q", [2, 3, INF])
def test_doubling_rule_stops_on_trace_norms_that_fail_to_shrink(q):
    # the ratio rule of the partial trace norms raises
    with pytest.raises(DivergentDiagonals, match="partial trace norms fail the Cauchy criterion"):
        schur_norm(_cancelling_diagonals(), q, target_err=1e-8)


def test_doubling_rule_gives_up_at_the_cap(monkeypatch):
    # with the cap at 64 rows the loop sees two windows, too few for the
    # ratio rule, and they do not agree: the cap raises
    import treeschur.symbols as symbols
    from treeschur.errors import NoConvergence

    monkeypatch.setattr(symbols, "N_CAP", 64)
    with pytest.raises(NoConvergence, match="truncation cap 64 reached"):
        schur_norm(_cancelling_diagonals(), 3, target_err=1e-8)


def test_lacunary_truncated_norms_grow_past_block_bound():
    sym = lacunary_counterexample()
    prev = 0.0
    for n in (64, 128, 256):
        t = trace_norm(build_hankel(sym, n).entries)
        assert t > prev
        assert t >= counterexample_block_lower_bound(n)
        prev = t


# ---------------------------------------------------------------------------
# multiplier-algebra bound and the counterexample
# ---------------------------------------------------------------------------

def test_ma_upper_bound_indicator():
    assert ma_upper_bound(explicit_symbol([1.0])) == pytest.approx(1.0)


def test_ma_upper_bound_half_symbol():
    # sum (n+1)^2 4^-n = (1+x)/(1-x)^3 at x=1/4  ->  80/27
    assert ma_upper_bound(half_symbol()) == pytest.approx(math.sqrt(80.0 / 27.0), abs=1e-12)


def test_ma_upper_bound_lacunary_within_analytic_bound():
    val = ma_upper_bound(lacunary_counterexample())
    assert val ** 2 <= 3.0 * math.pi ** 2 / 8.0 + 1e-9
    assert val <= 1.9245
    # independent oracle: direct term summation over the support
    direct = sum((2.0 ** k + 1) ** 2 / (k * 2.0 ** k) ** 2 for k in range(1, 40))
    assert val ** 2 >= direct
    assert val ** 2 - direct <= 1.0 / 39.0  # remaining 1/k^2 mass


def test_ma_upper_bound_divergent_for_parity():
    with pytest.raises(DivergentSeries):
        ma_upper_bound(constant_symbol(1.0))
    # the scaled lacunary symbol keeps no tail: the series is refused, not
    # summed as the unscaled symbol's closed form
    with pytest.raises(DivergentSeries):
        ma_upper_bound(scale_symbol(lacunary_counterexample(), 2))
    # so does a parity layer over it, whose tail is undeclared
    layered = parity_symbol(1.0, 0.5, lacunary_counterexample())
    assert layered.tail == Undeclared()
    with pytest.raises(DivergentSeries):
        ma_upper_bound(layered)


def test_block_lower_bound_values():
    assert counterexample_block_lower_bound(64) == pytest.approx(0.2375, abs=1e-12)
    assert counterexample_block_lower_bound(40) == pytest.approx(0.25 * (1 / 3 + 1 / 4 + 1 / 5), abs=1e-12)
    assert counterexample_block_lower_bound(5) == 0.0


# ---------------------------------------------------------------------------
# subtree sandwich
# ---------------------------------------------------------------------------

def test_subtree_sandwich_examples():
    def sandwich(sym, q, target_err=1e-8):
        rep_q, rep_inf = schur_norm(sym, q, target_err=target_err), schur_norm(sym, INF, target_err=target_err)
        allowance = rep_q.certified_error + rep_inf.certified_error + target_err
        return rep_q.total, rep_inf.total, _sandwich(q, rep_q.total, rep_inf.total, allowance)[1]

    norm_q, _, holds = sandwich(constant_symbol(1.0), 2)
    assert holds and norm_q == pytest.approx(1.0, abs=1e-9)

    norm_q, norm_inf, holds = sandwich(half_symbol(), 3, target_err=1e-9)
    assert holds and norm_q <= norm_inf + 1e-8

    sym = power_symbol(-0.3)
    assert sandwich(sym, 2, target_err=1e-9)[2]


@pytest.mark.parametrize("norm_q, norm_inf, allowance, slack, holds", [
    # at q = 3 the lower side is 0.5 ||phi||_inf <= ||phi||_q; dyadic totals round nowhere
    (1.0, 1.5, 0.0, -0.25, True),
    (0.5 - 2.0 ** -9, 1.0, 2.0 ** -10, 2.0 ** -9, False),  # below the lower side by twice the allowance
    (1.0 + 2.0 ** -9, 1.0, 2.0 ** -10, 2.0 ** -9, False),  # above the upper side by twice the allowance
    (0.25, 1.0, 0.25, 0.25, True),  # on the lower side's allowance exactly
    (1.25, 1.0, 0.25, 0.25, True),  # on the upper side's allowance exactly
    (0.25, 1.0, 0.125, 0.25, False),
    (1.25, 1.0, 0.125, 0.25, False),
])
def test_subtree_sandwich_decides_each_side(norm_q, norm_inf, allowance, slack, holds):
    assert _sandwich(3, norm_q, norm_inf, allowance) == (slack, holds)


# ---------------------------------------------------------------------------
# the border of the resolvent image
# ---------------------------------------------------------------------------

def first_border_k(c, n):
    """The definition: the first k with c^(k+1) <= 2^-60, at most n."""
    return next(k for k in range(n + 1) if k == n or c ** (k + 1) <= 2.0 ** -60)


def test_border_width_is_the_first_k_of_its_definition():
    # every degree up to 5000 and, where the log2 estimate is off by one either
    # way, each c = 2^(-60/m) and its two float neighbours
    cs = [1.0 / q for q in range(2, 5001)]
    for m in range(1, 2000):
        b = 2.0 ** (-60.0 / m)
        cs += [math.nextafter(b, 0.0), b, math.nextafter(b, 1.0)]
    for c in cs:
        assert _border_width(c, 10 ** 6) == first_border_k(c, 10 ** 6), c
    assert _border_width(0.0, 64) == 0
    assert (_border_width(0.5, 64), _border_width(0.5, 40)) == (59, 40)


# ---------------------------------------------------------------------------
# degenerate degrees and uncertified paths
# ---------------------------------------------------------------------------

def test_degenerate_degrees_rejected():
    from treeschur.symbols import check_degree

    for bad in (0, 1, -3, 2.5, True):
        with pytest.raises(ValueError):
            check_degree(bad)
    assert check_degree(2) == 2
    assert check_degree(INF) == INF
    with pytest.raises(ValueError):
        schur_norm(half_symbol(), 1)


def test_schur_norm_uncertified_tail_converges_with_flag():
    sym = RadialSymbol(fn=lambda n: 0.5 ** n, tail=Undeclared())
    rep = schur_norm(sym, INF, target_err=1e-8)
    assert not rep.certified
    assert rep.total == pytest.approx(1.0, abs=1e-7)
    # scaling or shifting a symbol without a decay certificate gives none either
    for derived in (scale_symbol(sym, 2.0), parity_symbol(0.5, 0.25, sym)):
        assert not schur_norm(derived, INF, target_err=1e-8).certified


def test_schur_norm_cap_raises_no_convergence():
    from treeschur.errors import NoConvergence

    with pytest.raises(NoConvergence):
        schur_norm(power_symbol(0.9), INF, target_err=1e-14)


# ---------------------------------------------------------------------------
# one truncation rule: the budget picks the window
# ---------------------------------------------------------------------------

def _spherical_04j():
    from treeschur.spherical import spherical_symbol

    return spherical_symbol(3, s=0.4j)


_CERTIFIED_CASES = {
    "power-inf": (half_symbol, INF, 1e-9),
    "parity-q3": (parity_plus_half, 3, 1e-8),
    "spherical-q3": (_spherical_04j, 3, 1e-8),
    "finite-q2": (lambda: explicit_symbol([1.0, 0.5, 0.25, -0.125]), 2, 1e-8),
    "spherical-q3-tight": (_spherical_04j, 3, 1e-9),
}


@pytest.mark.parametrize("case", sorted(_CERTIFIED_CASES))
def test_certified_norm_builds_one_window_at_the_first_fitting_n(monkeypatch, case):
    import treeschur.symbols as symbols

    make, q, target = _CERTIFIED_CASES[case]
    sym = make()
    built = []
    real = symbols.build_hankel
    monkeypatch.setattr(symbols, "build_hankel", lambda s, n: built.append(n) or real(s, n))
    rep = schur_norm(sym, q, target_err=target)
    assert built == [rep.truncation_n]
    b = rep.budget
    assert rep.certified and b == symbols._budget(sym, q, rep.truncation_n)
    assert rep.certified_error == b.tail + b.spill + b.parity + b.svd <= target
    # n is the first power-of-two fit; the window is the first of n * {5, 6, 7, 8}/8 that fits
    n = symbols.N_START
    while symbols._budget(sym, q, n).total > target:
        n *= 2
    scan = [n * 5 // 8, n * 6 // 8, n * 7 // 8, n]
    assert rep.truncation_n in scan
    for m in scan[: scan.index(rep.truncation_n)]:
        assert symbols._budget(sym, q, m).total > target, m


def test_unreachable_target_raises_before_any_svd(monkeypatch):
    from treeschur.errors import NoConvergence

    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real(*a, **k))
    with pytest.raises(NoConvergence):
        schur_norm(_spherical_04j(), 3, target_err=1e-12)
    assert calls == []


def test_overflowing_budget_never_fits():
    # [1e308, 5e307] at q = 3 must not pass for a fit: its bounds stay finite,
    # but the rounding of its float total dwarfs the target
    from treeschur.errors import NoConvergence

    with np.errstate(all="ignore"), pytest.raises(NoConvergence):
        schur_norm(explicit_symbol([1e308, 5e307]), 3)


def test_rounding_refusal_comes_before_any_window(monkeypatch):
    # sup |phi| = 1e308 bounds the norm below, so the stored head alone shows
    # that the rounding of the norm dwarfs the target: no window is built
    import treeschur.symbols as symbols
    from treeschur.errors import NoConvergence

    def no_window(*args, **kwargs):
        raise AssertionError("a window was built")

    monkeypatch.setattr(symbols, "_evaluate_window", no_window)
    with pytest.raises(NoConvergence, match="rounding of the norm, at least 1.000e[+]308"):
        schur_norm(explicit_symbol([1e308, 5e307]), 3)


def test_huge_entries_keep_finite_bounds_and_are_refused_for_their_rounding():
    # the square of 1e200 overflows, but the l2 suffix is taken at the scale of
    # the largest entry: tail and spill scale with it exactly, as at 1.0
    from treeschur.errors import NoConvergence

    values = np.array([1.0, 0.5, 0.25, 0.125])
    huge, unit = explicit_symbol(1e200 * values), explicit_symbol(values)
    for n in (1, 2, 32, 448):
        assert math.isclose(hankel_tail_bound(huge, n), 1e200 * hankel_tail_bound(unit, n), rel_tol=1e-15)
        assert math.isclose(resolvent_spill_bound(huge, n, 3), 1e200 * resolvent_spill_bound(unit, n, 3), rel_tol=1e-15)
    assert hankel_tail_bound(unit, 1) > 0.0
    # the budget fits, and the refusal names the rounding of the norm, which
    # exceeds any absolute target far below 1e184
    with np.errstate(all="ignore"), pytest.raises(NoConvergence, match="rounding of the norm"):
        schur_norm(explicit_symbol([1e200]), 3)
    rep = schur_norm(explicit_symbol([1e7]), 3)
    assert rep.certified and rep.total == pytest.approx(1e7, rel=1e-12)


def _doubling_reference(sym, q, target_err):
    """The doubling rule for a symbol without a tail certificate, written out:
    refuse a parity Cauchy error above max(target_err, 1e-9), stop when two
    windows agree, report their difference, the parity Cauchy error and
    1e-12 per row."""
    n, prev = 32, None
    while True:
        h = build_hankel(sym, n)
        term = trace_norm(_ResolventImage(h, q))
        par = extract_parity(sym, h)
        if par.certified_error > max(target_err, 1e-9):
            raise DivergentDiagonals("diagonal partial sums fail the Cauchy criterion")
        total = abs(par.c_plus) + abs(par.c_minus) + term
        if prev is not None and abs(total - prev) + par.certified_error <= target_err:
            return total, abs(total - prev) + par.certified_error + 1e-12 * n, n
        prev, n = total, 2 * n


@pytest.mark.parametrize("q", [INF, 2, 3])
def test_undeclared_tail_keeps_the_doubling_rule(q):
    sym = RadialSymbol(values_fn=lambda count: 0.3 ** np.arange(count) * np.cos(1.3 * np.arange(count)))
    rep = schur_norm(sym, q, target_err=1e-8)
    assert (rep.total, rep.certified_error, rep.truncation_n) == _doubling_reference(sym, q, 1e-8)
    assert not rep.certified and rep.budget is None


def _three_exponentials():
    """0.9^n + (-0.8)^n + (0.7i)^n: its window has rank 3 past the resolvent
    border too, so neither the probe nor the split basis certifies it, and the
    basis grows below the border."""
    return RadialSymbol(
        values_fn=lambda count: sum(a ** np.arange(count) for a in (0.9, -0.8, 0.7j)),
        tail=Geometric(ratio=0.9, bound=3.0),
    )


@pytest.mark.parametrize("make, q, width", [
    (lambda: power_symbol(0.5), 3, 0),  # a 40-row window: the dense SVD
    (lambda: spherical_symbol(3, s=0.4j), 3, 2),  # rank 2 at its own degree: the probe
    (lambda: spherical_symbol(3, s=0.4j), 2, 61),  # read at q = 2: the split basis, 59 border rows + 2
    (_three_exponentials, 2, None),  # a 256-row window at q = 2: grown below the 59 border rows
], ids=["dense", "probe", "split", "grown"])
def test_report_names_the_sketch_width(make, q, width):
    rep = schur_norm(make(), q)
    w = _evaluate_window(make(), q, rep.truncation_n)
    assert rep.sketch_width == (0 if w.q_basis is None else w.q_basis.shape[1])
    if width is None:
        assert 61 < rep.sketch_width <= 59 + rep.truncation_n / 4
    else:
        assert rep.sketch_width == width
    assert schur_norm(make(), q).sketch_width == rep.sketch_width


# units alpha with |alpha| = 1.0 exactly in floats; none is +-1, so alpha phi
# leaves both phase classes and takes the complex path
UNITS = (1j, -1j, complex(0.6, 0.8), complex(0.8, -0.6), complex(5 / 13, 12 / 13), complex(-20 / 29, 21 / 29))
_REAL = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def real_up_to_a_phase(draw):
    """Symbols whose windows are real, or real up to the phase i^m: real
    explicit values, powers of a real or an imaginary s (in their class at
    every n), spherical functions on the imaginary axis, a parity layer over
    a real power, and corpus 6."""
    kind = draw(st.sampled_from(["explicit", "power", "power-i", "spherical-i", "parity", "corpus6"]))
    if kind == "explicit":
        return explicit_symbol(draw(st.lists(_REAL, min_size=1, max_size=12).filter(any)))
    if kind in ("power", "power-i"):
        return power_symbol(draw(st.floats(-0.9, 0.9, allow_subnormal=False)) * (1j if kind == "power-i" else 1.0))
    if kind == "spherical-i":  # inside the ellipse: |Im s| < (p-1)/(p+1) on the imaginary axis
        p = draw(st.sampled_from([2, 3, 5]))
        return spherical_symbol(p, s=1j * draw(st.floats(-0.7, 0.7)) * (p - 1) / (p + 1))
    if kind == "parity":
        return parity_symbol(draw(_REAL), draw(_REAL), power_symbol(draw(st.floats(-0.9, 0.9, allow_subnormal=False))))
    return trace_class_corpus()[6]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sym=real_up_to_a_phase(), q=st.sampled_from([2, 3, 5, INF]), alpha=st.sampled_from(UNITS))
@example(sym=trace_class_corpus()[6], q=2, alpha=complex(0.6, 0.8))  # the split, 256 rows
@example(sym=trace_class_corpus()[6], q=3, alpha=1j)  # the probe, 256 rows
@example(sym=explicit_symbol([1.0, -0.5, 0.25, 0.3]), q=2, alpha=-1j)  # dense, 32 rows
def test_unit_phase_leaves_the_norm_window_and_basis_width(sym, q, alpha):
    # ||alpha phi||_S = ||phi||_S for |alpha| = 1: the real path of phi and
    # the complex path of alpha phi read the same window through a basis of
    # the same width, and their totals agree within the SVD allowance
    assert abs(alpha) == 1.0
    rep, turned = schur_norm(sym, q), schur_norm(scale_symbol(sym, alpha), q)
    n = rep.truncation_n
    assert np.iscomplexobj(_ResolventImage(build_hankel(scale_symbol(sym, alpha), n), q).g)
    assert (turned.truncation_n, turned.sketch_width) == (n, rep.sketch_width)
    assert abs(turned.total - rep.total) <= _svd_allowance(n)


def _slack_probe():
    # 1200 values of 0.9e-9 (1, 1, -1, -1, ...) after phi(0) = 0, declared
    # under 1e-12 * 0.5**n: each value fits the absolute slack of the check
    vals = np.zeros(1200)
    vals[1:] = 0.9e-9 * np.resize([1.0, 1.0, -1.0, -1.0], 1199)
    return vals, explicit_symbol(vals, tail=Geometric(ratio=0.5, bound=1e-12))


def test_declared_tail_slack_is_read_from_the_values():
    vals, sym = _slack_probe()
    rep = schur_norm(sym, INF, target_err=1e-7)
    # phi is 0 past the list, so the whole 1200 x 1200 Hankel is exact
    idx = np.add.outer(np.arange(1200), np.arange(1200))
    padded = np.concatenate([vals, np.zeros(2 * 1200 + 2)])
    exact = float(np.sum(np.linalg.svd(padded[idx] - padded[idx + 2], compute_uv=False)))
    assert exact == pytest.approx(7.608267792867e-6, rel=1e-12)
    assert rep.certified and abs(rep.total - exact) <= rep.certified_error


def test_declared_tail_bounds_read_stored_values_past_the_check_span():
    # values under the slack but over the cap, only past the onset + 1024 span
    vals = np.zeros(2000)
    vals[1100:] = 0.9e-9
    sym = explicit_symbol(vals, tail=Geometric(ratio=0.5, bound=1e-12))
    h = vals[:-2] - vals[2:]
    for n in (32, 1024):
        assert hankel_tail_bound(sym, n) >= float(np.sum((np.arange(n, 1998) + 1.0) * np.abs(h[n:])))


_COMPLEX = st.builds(lambda m, t: m * cmath.exp(1j * t), st.floats(0.0, 2.0), st.floats(0.0, 2.0 * math.pi))


@st.composite
def tail_shapes(draw, scaled=True):
    """Symbols of every tail shape the envelope merges: finite support,
    Geometric with onset > 0, Geometric with ratio 0 and onset > 0, parity
    plus power, and a scaled symbol."""
    shapes = ["finite", "geometric-onset", "ratio0-onset", "parity-power"] + (["scaled"] if scaled else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "scaled":
        return scale_symbol(draw(tail_shapes(scaled=False)), draw(_COMPLEX))
    if shape == "finite":
        return explicit_symbol(draw(st.lists(_COMPLEX, min_size=1, max_size=12)))
    if shape == "parity-power":
        return parity_symbol(draw(_COMPLEX), draw(_COMPLEX), power_symbol(0.3 * draw(_COMPLEX)))
    onset = draw(st.integers(1, 10))
    head = draw(st.lists(_COMPLEX, min_size=onset, max_size=onset))
    if shape == "ratio0-onset":
        return explicit_symbol(head, tail=Geometric(ratio=0.0, bound=1.0, onset=onset))
    ratio, bound = draw(st.floats(0.1, 0.6)), draw(st.floats(0.1, 2.0))
    phase = st.floats(0.0, 2.0 * math.pi).map(lambda t: cmath.exp(1j * t))
    decay = [bound * ratio ** n * draw(st.floats(0.0, 1.0)) * draw(phase) for n in range(onset, onset + 40)]
    return explicit_symbol(head + decay, tail=Geometric(ratio=ratio, bound=bound, onset=onset))


def _spherical(q, s):
    from treeschur.spherical import spherical_symbol

    return spherical_symbol(q, s=s)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    sym=tail_shapes(),
    q=st.sampled_from((2, 3, 5)),
    ns=st.lists(st.sampled_from((2, 4, 8, 16, 32)), min_size=1, max_size=3, unique=True),
    big=st.just(128),
)
@example(sym=_spherical(3, 0.4j), q=3, ns=[48, 64, 96], big=640)
@example(sym=_spherical(2, 0.2j), q=2, ns=[48, 64, 96], big=640)
@example(sym=_spherical(5, -0.5 + 0.2j), q=5, ns=[48, 64, 96], big=640)
@example(sym=explicit_symbol([0, 1]), q=3, ns=[3, 5], big=128)
@example(sym=explicit_symbol([0, 1]), q=5, ns=[3, 5], big=128)
# singular leading blocks, where the probe's 2 x 2 solve raises inside it
@example(sym=explicit_symbol([1.0, 0.0, 1.0], tail=Geometric(ratio=0.0, bound=1.0, onset=3)), q=2, ns=[2], big=128)
@example(sym=explicit_symbol([0.0, 0.0, 0.0, 0.0, 1.0, -0.5, 0.25]), q=3, ns=[4, 8], big=128)
def test_tail_plus_spill_budget_dominates_window_gap(sym, q, ns, big):
    # the certified budget (Hankel tail + resolvent spill) must dominate the
    # true window-to-window change in the resolvent trace norm, up to the
    # spectral accuracy term tol*n that schur_norm accounts separately.  The
    # delta at 1 has no tail from n = 2 on, and its gap at n = 3 takes 0.568
    # of the spill at q = 3 and 0.695 at q = 5, so a spill halved fails here
    from treeschur.symbols import hankel_tail_bound, resolvent_spill_bound

    t_big = trace_norm(_ResolventImage(build_hankel(sym, big), q))
    for n in ns:
        t_n = trace_norm(_ResolventImage(build_hankel(sym, n), q))
        budget = hankel_tail_bound(sym, n) + resolvent_spill_bound(sym, n, q)
        assert abs(t_big - t_n) <= budget + 1e-12 * n, (q, n)


def _direct_bounds(maj, n, q):
    """tail(N) and spill(N) of a majorant summed over explicit arrays:
    M(m) written out up to m = max(len(major), 2N), S(k) by a reversed cumsum
    of M^2 over that range plus the squares past it, and only the geometric
    remainders past the range in closed form."""
    size, c, r = len(maj.major), maj.c, maj.r
    end = max(size, 2 * n) + 1
    m_all = np.concatenate([maj.major, c * r ** np.arange(size, end)])
    past = c * r**end
    s = np.sqrt(np.cumsum((m_all * m_all)[::-1])[::-1] + past * past / (1.0 - r * r))
    tail = float(np.sum(s[n : 2 * n]) + np.sum(s[n:])) + c / math.sqrt(1.0 - r * r) * r**end / (1.0 - r)
    spill = 2.0 * float(np.sum(float(q) ** -(n - np.arange(n, dtype=float)) * s[:n]))
    return tail, spill


def _antidiagonal_tail(maj, n):
    """The rank-one-per-antidiagonal bound sum_{m >= N} (m+1) M(m) on the
    discarded part of H, which the column-norm tail never exceeds."""
    major, c, r = maj.major, maj.c, maj.r
    size = len(major)
    k = max(n, size)
    total = c * r**k * ((k + 1) * (1.0 - r) + r) / (1.0 - r) ** 2
    if n < size:
        total += float(np.sum((np.arange(n, size) + 1.0) * major[n:]))
    return total


def _l1_spill(maj, n, q):
    """The spill with each border row charged its l1 norm sum_{m >= i} M(m),
    (1-1/q) sum_k q^-k l1(border of width k), which the l2 spill never
    exceeds."""
    major, c, r = maj.major, maj.c, maj.r
    size = len(major)
    suffix = c * r ** np.maximum(np.arange(n), size) / (1.0 - r)
    suffix[:size] += np.cumsum(major[::-1])[::-1][:n]
    border = 2.0 * np.cumsum(suffix[::-1])
    weights = float(q) ** -np.arange(1.0, n + 1.0)
    return (1.0 - 1.0 / q) * (float(np.dot(weights, border)) + border[-1] * q ** float(-n) / (q - 1.0))


@st.composite
def majorants(draw):
    """(majorant, q, N): a head of 0-60 entries, some small enough that their
    squares underflow, and r = 0, r in [0, 0.99] or r within 1e-3 of 1/q,
    where sum q^-(N-i) r^i has nearly equal terms."""
    q = draw(st.sampled_from((2, 3, 5)))
    entry = st.one_of(st.floats(0.0, 2.0), st.just(1e-170))
    major = np.array(draw(st.lists(entry, min_size=0, max_size=60)), dtype=float)
    r = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99), st.floats(-1e-3, 1e-3).map(lambda e: 1.0 / q + e)))
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, 4096)))  # N < len(major) or past it
    return _Majorant(major, draw(st.floats(0.0, 2.0)), r), q, n


_SPILL_EDGES = [
    # qr = 1 up to rounding: the terms of the geometric part are equal
    (_Majorant(np.ones(3), 1.0, 1.0 / 3.0), 3, 200),
    (_Majorant(np.zeros(0), 1.0, 0.2), 5, 100),
    (_Majorant(np.zeros(0), 1.0, (1.0 + 1.2345e-9) / 3.0), 3, 200),
    (_Majorant(np.ones(3), 1.0, np.nextafter(0.5, 1.0)), 2, 300),
    (_Majorant(np.zeros(0), 1.0, 0.0), 5, 7),  # r = 0 and no head: M(0) = c alone
    (_Majorant(np.full(60, 1e-170), 1e-3, 0.01), 5, 4096),  # underflowing squares and terms
    # N inside a long head: the spill prefix stops at N, or runs to the 5,000th entry
    (_Majorant(np.abs(np.sin(np.arange(5000.0))) * 0.999 ** np.arange(5000.0), 1e-3, 0.9), 3, 64),
    (_Majorant(np.abs(np.sin(np.arange(5000.0))) * 0.999 ** np.arange(5000.0), 1e-3, 0.9), 2, 4096),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=majorants())
@example(case=_SPILL_EDGES[0])
@example(case=_SPILL_EDGES[1])
@example(case=_SPILL_EDGES[2])
@example(case=_SPILL_EDGES[3])
@example(case=_SPILL_EDGES[4])
@example(case=_SPILL_EDGES[5])
@example(case=_SPILL_EDGES[6])
@example(case=_SPILL_EDGES[7])
def test_closed_form_bounds_match_their_direct_sums_and_undercut_the_l1_forms(case):
    maj, q, n = case
    tail, spill = maj.tail(n), maj.spill(n, q)
    # squares under 2^-1022 are subnormal or 0 in both evaluations, and each
    # loses under 1e-161 of its S(k); 1e-150 covers that over 10^4 terms
    for got, want in zip((tail, spill), _direct_bounds(maj, n, q)):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-150), (got, want)
    # never above the forms they replace; the two evaluations round the same
    # sums in other orders, by a relative 1e-12 at most
    assert tail <= _antidiagonal_tail(maj, n) * (1.0 + 1e-12) + 1e-150
    assert spill <= _l1_spill(maj, n, q) * (1.0 + 1e-12) + 1e-150


def test_spill_prefix_does_not_depend_on_call_history():
    # one majorant read at interleaved degrees, N ascending then descending on
    # both sides of its 40-entry head, answers bit for bit as a fresh one does
    def make():
        return _Majorant(0.8 ** np.arange(40.0), 0.5, 0.7)

    shared = make()
    ns = [1, 7, 39, 40, 41, 64, 300]
    for n in ns + ns[::-1]:
        for q in (2, 3, 5):
            assert shared.spill(n, q) == make().spill(n, q), (n, q)


def test_majorant_reads_past_earlier_reads_match_a_fresh_majorant():
    # a 20,000-entry head read first at small N, then at N past everything
    # read so far (inside the head, at 2 N_CAP and past the head), answers
    # tail and spill bit for bit as a fresh majorant does
    def make():
        rng = np.random.default_rng(8)
        return _Majorant(np.abs(rng.standard_normal(20_000)) * 0.9995 ** np.arange(20_000.0), 1e-3, 0.9995)

    shared = make()
    for n in (20, 32, 4096, 2 * N_CAP, 10_000, 20_000, 25_000):
        for q in (2, 3):
            fresh = make()
            got = shared.tail(n), shared.spill(n, q)
            assert got == (fresh.tail(n), fresh.spill(n, q)), (n, q)
            assert all(type(v) is float for v in got)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sym=tail_shapes(), n=st.integers(1, 128))
@example(sym=_spherical(2, 0.3j), n=64)
@example(sym=_spherical(3, 0.4j), n=20)
def test_column_norm_tail_dominates_the_discarded_trace_norm(sym, n):
    # H_big minus its zero-padded N-window is a compression of the discarded
    # infinite part, so its trace norm (dense SVD) is at most the tail bound
    big = 256
    h_big = build_hankel(sym, big).entries
    padded = np.zeros_like(h_big)
    padded[:n, :n] = h_big[:n, :n]
    discarded = float(np.sum(np.linalg.svd(h_big - padded, compute_uv=False)))
    assert discarded <= hankel_tail_bound(sym, n) + 1e-12 * big


def test_resolvent_trace_norm_sandwich_on_random_windows():
    # (q-1)/(q+1) ||T||_1 <= ||T'||_1 <= ||T||_1 for T' the resolvent image;
    # T' is read off a padded window wide enough that the neglected geometric
    # tail is far below the tolerance
    rng = np.random.default_rng(5)
    pad = 120
    for q in (2, 3, 7):
        for _ in range(4):
            size = int(rng.integers(3, 10))
            t = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            padded = np.zeros((size + pad, size + pad), dtype=complex)
            padded[:size, :size] = t
            t_norm = trace_norm(t)
            tp_norm = trace_norm(apply_resolvent(padded, q))
            assert (q - 1.0) / (q + 1.0) * t_norm <= tp_norm + 1e-10
            assert tp_norm <= t_norm + 1e-10


# ---------------------------------------------------------------------------
# parity limits of certified symbols
# ---------------------------------------------------------------------------

@st.composite
def declared_parity(draw, q, scaled=True):
    """(symbol, closed-form norm or None) at degree q: parity_symbol(c+, c-, psi)
    with psi a power, explicit or spherical symbol, constant_symbol,
    spherical_symbol(q, s=+-1), and scale_symbol of one of them at any scale.
    The closed form is known for a spherical psi read at its own degree, for
    a power psi at q = inf, and for the constant and s = +-1 symbols; scaled
    totals are left out."""
    shapes = ["power", "explicit", "spherical", "constant", "pm1"] + (["scaled"] if scaled else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "scaled":
        sym, _ = draw(declared_parity(q, scaled=False))
        scale = draw(st.one_of(st.just(0j), st.builds(lambda e, u: 10.0**e * u, st.floats(-6.0, 6.0), _COMPLEX)))
        return scale_symbol(sym, scale), None
    if shape == "constant":
        c = draw(_COMPLEX)
        return constant_symbol(c), abs(c)
    if shape == "pm1":
        return spherical_symbol(q, s=draw(st.sampled_from((1.0, -1.0)))), 1.0
    cp, cm = draw(_COMPLEX), draw(_COMPLEX)
    if shape == "power":
        s = 0.3 * draw(_COMPLEX)
        closed = abs(cp) + abs(cm) + abs(1.0 - s * s) / (1.0 - abs(s) ** 2)
        return parity_symbol(cp, cm, power_symbol(s)), closed if q == INF else None
    if shape == "explicit":
        return parity_symbol(cp, cm, explicit_symbol(draw(st.lists(_COMPLEX, min_size=1, max_size=12)))), None
    s = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.15, 0.15)))
    return parity_symbol(cp, cm, spherical_symbol(q, s=s)), abs(cp) + abs(cm) + schur_norm_in_s(q, s)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=st.sampled_from((2, 3, 5, INF)).flatmap(lambda q: st.tuples(st.just(q), declared_parity(q))))
@example(case=(2, (spherical_symbol(2, s=-1.0), 1.0)))
@example(case=(3, (scale_symbol(parity_symbol(2.0, 3.0, half_symbol()), 1e6j), None)))
def test_certified_parity_limits_are_the_envelopes_and_cost_no_budget(case):
    # the limits of a certified symbol are declared: the report carries the
    # envelope's c+- bit for bit, and the budget charges nothing for them
    q, (sym, closed) = case
    env = sym._env
    # a target relative to the envelope's lower bound on the norm, so that a
    # symbol scaled by up to 1e6 is not refused for the rounding of its total
    rep = schur_norm(sym, q, target_err=1e-8 * max(1.0, env.norm_floor))
    assert rep.certified
    assert (rep.c_plus, rep.c_minus) == (env.c_plus, env.c_minus)
    assert rep.budget.parity == 0.0
    if closed is not None:
        assert abs(rep.total - closed) <= rep.certified_error, (rep.total, closed)
