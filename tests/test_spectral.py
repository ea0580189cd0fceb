"""Singular values, trace norm and its lower bound, operator norm: examples, oracle, invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import treeschur.spectral as spectral
from treeschur.corpus import trace_class_corpus
from treeschur.errors import NonFinite
from treeschur.spectral import DEFAULT_TOL, _factorize, _Matrix, _svdvals, as_cmatrix, trace_norm
from treeschur.spherical import eigenvalue_from_z, schur_norm_in_s, spherical_symbol
from treeschur.symbols import (
    INF,
    Geometric,
    RadialSymbol,
    _evaluate_window,
    _ResolventImage,
    build_hankel,
    explicit_symbol,
    power_symbol,
    schur_norm,
)


def singular_values(m):
    """Reference: the singular values of a validated matrix, descending."""
    return _svdvals(as_cmatrix(m))


def operator_norm(m):
    """Reference: the largest singular value."""
    return float(singular_values(m)[0])


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def charpoly_eigenvalues(g):
    """Independent oracle: eigenvalues of a small Hermitian matrix via the
    characteristic polynomial (Faddeev-LeVerrier coefficients, then roots)."""
    n = g.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(g)
    for k in range(1, n + 1):
        m = g @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(g @ m) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def test_identity_singular_values():
    assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0], atol=1e-14)


def test_rank_one_outer_product():
    # ||xi (x) eta||_1 = ||xi||_2 ||eta||_2 with norms 2 and 3
    xi = np.array([2.0, 0.0])
    eta = np.array([0.0, 3.0])
    m = np.outer(xi, eta.conj())
    assert np.allclose(singular_values(m), [6.0, 0.0], atol=1e-12)


def test_random_4x4_against_charpoly_oracle():
    rng = np.random.default_rng(7)
    m = random_complex(rng, 4, 4)
    gram = m.conj().T @ m
    expected = np.sqrt(np.maximum(charpoly_eigenvalues(gram), 0.0))
    got = singular_values(m)
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_trace_norm_identity_and_diagonal():
    assert trace_norm(np.eye(3)) == pytest.approx(3.0, abs=1e-12)
    assert trace_norm(np.diag([1.0, -2.0, 3.0j])) == pytest.approx(6.0, abs=1e-12)


def test_trace_norm_geometric_hankel_truncation():
    # h[i,j] = 2^-(i+j) - 2^-(i+j+2) is rank one with trace norm -> 1
    n = 30
    vals = 2.0 ** -np.arange(2 * n + 1)
    idx = np.add.outer(np.arange(n), np.arange(n))
    h = vals[idx] - vals[idx + 2]
    assert trace_norm(h) == pytest.approx(1.0, abs=1e-9)


def test_operator_norm_examples():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-13)
    xi = np.array([2.0, 0.0])
    eta = np.array([0.0, 3.0])
    assert operator_norm(np.outer(xi, eta.conj())) == pytest.approx(6.0, abs=1e-12)
    # all-ones 3x3 = 3 * (uniform rank-one projector)
    assert operator_norm(np.ones((3, 3))) == pytest.approx(3.0, abs=1e-12)


def test_nonfinite_rejected():
    with pytest.raises(NonFinite):
        singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(NonFinite):
        trace_norm(np.array([[np.inf]]))


def test_finiteness_check_survives_an_overflowing_sum():
    # the sum of a matrix is tested first; an overflowing sum of finite
    # entries takes the entrywise test and passes, an inf or NaN never does
    big = np.full((4, 4), 1e308)
    with np.errstate(over="ignore"):
        assert not np.isfinite(big.sum())
    assert as_cmatrix(big) is not None
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.nan)):
        m = big.astype(complex)
        m[3, 1] = bad
        with pytest.raises(NonFinite):
            as_cmatrix(m)
        with pytest.raises(NonFinite):
            trace_norm(m)


def test_sketch_that_overflows_goes_to_the_dense_path(monkeypatch):
    # the entries are finite but the QR of the probe's first two columns and
    # every product A Omega overflow: the probe fails after its one QR, the
    # first sample is not finite, so no other QR runs, and A itself is returned
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: calls.append(a.shape) or qr(a, *args, **kw))
    m = np.full((256, 256), 1e308, dtype=complex)
    f = _factorize(_Matrix(m))
    assert f.basis is None and f.core is m and f.half_width == 0.0
    assert (f.path, f.draws, f.passes) == ("dense", (2,), ())
    assert calls == [(256, 2)]


def test_shape_validation():
    with pytest.raises(ValueError):
        as_cmatrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_cmatrix(np.zeros(4))


def test_unitary_invariance():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = random_complex(rng, 6, 6)
        u, _ = np.linalg.qr(random_complex(rng, 6, 6))
        v, _ = np.linalg.qr(random_complex(rng, 6, 6))
        assert abs(trace_norm(u @ m @ v) - trace_norm(m)) <= 1e-9


def test_triangle_inequality():
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = random_complex(rng, 5, 7)
        b = random_complex(rng, 5, 7)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9


def test_duality_sanity():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = random_complex(rng, 6, 6)
        b = random_complex(rng, 6, 6)
        assert abs(np.trace(a @ b)) <= operator_norm(a) * trace_norm(b) + 1e-9


def test_adjoint_has_same_singular_values():
    rng = np.random.default_rng(14)
    for _ in range(5):
        m = random_complex(rng, 5, 8)
        s1 = singular_values(m)
        s2 = singular_values(m.conj().T)
        assert np.max(np.abs(s1 - s2)) <= 1e-10


# ---------------------------------------------------------------------------
# the dual lower bound on the trace norm
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 7),
    cols=st.integers(1, 7),
    entries=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=49, max_size=49),
    scale=st.sampled_from((1.0, 2.0**-30, 3e5)),
)
def test_trace_norm_below_is_under_the_exact_norm(rows, cols, entries, scale):
    # Gaussian-integer matrices times a scale, against their singular values
    # at 50 digits: the bound never exceeds the exact norm and is near it
    import mpmath

    m = scale * np.array([complex(a, b) for a, b in entries[: rows * cols]]).reshape(rows, cols)
    below = spectral._trace_norm_below(m)
    with mpmath.workdps(50):
        exact = mpmath.fsum(mpmath.svd_c(mpmath.matrix(m.tolist()), compute_uv=False))
        assert mpmath.mpf(below) <= exact
        assert exact - mpmath.mpf(below) <= 1e-12 * exact


@pytest.mark.parametrize("n", [1, 2, 17, 53, 100])
def test_trace_norm_below_the_all_ones_matrix(n):
    # ||J||_1 = n exactly, while the sum of the computed singular values can read above it
    assert n * (1.0 - 1e-10) <= spectral._trace_norm_below(np.ones((n, n))) <= n


def test_trace_norm_below_zero_matrix_and_overflow_give_zero():
    # 0 is the trivial bound, also where the pairing overflows
    assert spectral._trace_norm_below(np.zeros((3, 4))) == 0.0
    assert spectral._trace_norm_below(np.full((5, 5), 1e308)) == 0.0


# ---------------------------------------------------------------------------
# the certified range finder inside trace_norm (n >= 64)
# ---------------------------------------------------------------------------

def low_rank_complex(rng, n, rank, scale):
    """A complex n x n matrix of the given rank (None: full) with entries of order ``scale``."""
    if rank is None:
        return scale * random_complex(rng, n, n)
    x = random_complex(rng, n, rank)
    y = random_complex(rng, n, rank)
    return scale * (x @ y.conj().T) / rank


def low_rank_symmetric(rng, n, rank, scale):
    """The complex symmetric form x diag(w) x^T of :func:`low_rank_complex`,
    made exactly symmetric, with entries of order ``scale``."""
    x = random_complex(rng, n, n if rank is None else rank)
    m = scale * (x * random_complex(rng, 1, x.shape[1])) @ x.T / x.shape[1]
    return 0.5 * (m + m.T)


def dense_trace_norm(m):
    return float(np.sum(singular_values(m)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([64, 128, 256, 512]),
    st.one_of(st.integers(1, 12), st.none()),
    st.integers(-3, 3),
    st.integers(0, 2**32 - 1),
)
def test_trace_norm_agrees_with_the_dense_sum(n, rank, exponent, seed):
    # compares the two routes with each other: the allowance DEFAULT_TOL * n is
    # absolute, so against the true value it is too small at scales of 1e6 and
    # above whichever route runs
    m = low_rank_symmetric(np.random.default_rng(seed), n, rank, 10.0 ** exponent)
    assert abs(trace_norm(_Matrix(m)) - dense_trace_norm(m)) <= DEFAULT_TOL * n


def test_trace_norm_below_64_rows_is_the_dense_sum(monkeypatch):
    rng = np.random.default_rng(21)
    for n in (1, 7, 63):
        m = low_rank_symmetric(rng, n, 1, 1.0)
        f = _factorize(_Matrix(m))
        assert (f.path, f.draws, f.passes) == ("dense", (), ())
        assert f.trace_norm == dense_trace_norm(m)
    # from 64 rows a full-rank symmetric matrix fails the probe and, with no
    # border to split below 128 rows, takes the dense sum without a sample
    for n in (64, 127):
        m = low_rank_symmetric(rng, n, None, 1.0)
        f = _factorize(_Matrix(m))
        assert (f.path, f.draws, f.passes) == ("dense", (), ((0, 2, False),))
        assert f.trace_norm == dense_trace_norm(m)
    # a plain matrix is never factorized
    monkeypatch.setattr(spectral, "_factorize", None)
    wide = low_rank_complex(rng, 63, 1, 1.0) @ random_complex(rng, 63, 300)
    assert trace_norm(wide) == dense_trace_norm(wide)


def test_probe_answers_a_rank_one_matrix_from_64_rows(monkeypatch):
    rng = np.random.default_rng(21)
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
    for n in (64, 96, 127):
        m = low_rank_symmetric(rng, n, 1, 1.0)
        f = _factorize(_Matrix(m))
        assert (f.path, f.draws, f.passes) == ("probe", (), ((0, 2, True),))
        assert abs(f.trace_norm - dense_trace_norm(m)) <= DEFAULT_TOL * n
    # a plain matrix, here not square or not its own transpose, is never
    # factorized: it takes the dense SVD
    monkeypatch.setattr(spectral, "_factorize", None)
    wide = low_rank_complex(rng, 127, 1, 1.0) @ random_complex(rng, 127, 300)
    assert trace_norm(wide) == dense_trace_norm(wide)
    square = low_rank_complex(rng, 127, 1, 1.0)
    assert trace_norm(square) == dense_trace_norm(square)
    # one SVD of the 2 x 2 core per trace norm, then the dense references
    assert shapes == [(2, 2), (64, 64), (2, 2), (96, 96), (2, 2), (127, 127)] + [(127, 300)] * 2 + [(127, 127)] * 2


def spherical_window(q, n):
    """The operator of the n-window of a spherical function read at its own
    degree q, a two-term exponential sum (s^n alone at q = inf)."""
    sym = spherical_symbol(q, s=0.9 * np.exp(0.7j)) if q == INF else spherical_symbol(q, z=complex(0.1, 0.7))
    return _ResolventImage(build_hankel(sym, n), q)


@pytest.mark.parametrize("q", [2, 3, INF])
@pytest.mark.parametrize("n", [128, 320, 512])
def test_probe_certifies_spherical_windows_with_no_product_and_no_draw(monkeypatch, q, n):
    # the first two columns of a window of rank 2 span its range: the probe
    # certifies from them alone, with no product A X (no FFT) and no sample
    products = []
    matmul = _ResolventImage.matmul
    monkeypatch.setattr(_ResolventImage, "matmul", lambda op, x: products.append(x.shape) or matmul(op, x))
    op = spherical_window(q, n)
    f = _factorize(op)
    assert f.basis.shape == (n, 2) and f.core.shape == (2, 2)
    assert (f.path, f.draws, f.passes) == ("probe", (), ((0, 2, True),)) and products == []
    assert f.half_width <= 0.01 * spectral._svd_allowance(n) / 2
    assert abs(f.trace_norm - dense_trace_norm(op.dense())) <= spectral._svd_allowance(n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([64, 128, 256, 512]),
    st.lists(st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 1.0)), min_size=2, max_size=2),
    st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 1.0)), min_size=2, max_size=2),
)
def test_probe_certifies_two_term_exponential_sums(n, roots, weights):
    # w_a a^m + w_b b^m with a != b and nonzero weights, read at q = inf: its
    # window has rank 2 and its first two columns span the range, since
    # det [[w_a, w_b], [w_a a, w_b b]] = w_a w_b (b - a) != 0
    (a, b), (w_a, w_b) = ([r * np.exp(2j * np.pi * t) for r, t in pairs] for pairs in (roots, weights))
    assume(a != b)
    sym = RadialSymbol(values_fn=lambda count: w_a * a ** np.arange(count) + w_b * b ** np.arange(count))
    op = _ResolventImage(build_hankel(sym, n), INF)
    f = _factorize(op)
    assert (f.path, f.draws, f.passes) == ("probe", (), ((0, 2, True),))
    assert abs(f.trace_norm - dense_trace_norm(op.dense())) <= spectral._svd_allowance(n)


def leading_zeros():
    """A symbol whose first four values are 0 and 0.8^n after them: its
    window's leading 2 x 2 block is singular at every degree."""
    return RadialSymbol(values_fn=lambda count: np.where(np.arange(count) < 4, 0.0, 0.8 ** np.arange(count)) + 0j)


@pytest.mark.parametrize("make, q, n", [
    (lambda: explicit_symbol([1.0, 0.0, 1.0], tail=Geometric(ratio=0.0, bound=1.0, onset=3)), 2, 128),
    (leading_zeros, INF, 96),
    (leading_zeros, INF, 256),
    (leading_zeros, 3, 128),
], ids=["ratio0-onset3-q2", "zeros-inf-96", "zeros-inf-256", "zeros-q3-128"])
def test_a_singular_leading_block_fails_the_probe_without_a_pass(make, q, n):
    # the probe's 2 x 2 solve meets a singular Q[:2, :] and raises inside the
    # probe, which then fails without a pass; the split, the growth or the
    # dense SVD answers within the allowance
    op = _ResolventImage(build_hankel(make(), n), q)
    assert spectral._kronecker(op) is None
    f = _factorize(op)
    assert abs(f.trace_norm - dense_trace_norm(op.dense())) <= spectral._svd_allowance(n)
    assert (0, 2, False) not in f.passes and (0, 2, True) not in f.passes


@pytest.mark.parametrize("n", [64, 1024])
def test_plain_symmetric_matrix_takes_the_dense_sum_without_a_sample(monkeypatch, n):
    # only a window's operator is factorized: a plain matrix, even a complex
    # symmetric one of rank 1 that the probe would certify, is the dense sum
    monkeypatch.setattr(spectral, "_factorize", None)
    m = low_rank_symmetric(np.random.default_rng(27), n, 1, 1.0)
    assert np.array_equal(m, m.T)
    assert trace_norm(m) == float(np.sum(np.linalg.svd(m, compute_uv=False)))


def test_trace_norm_falls_back_to_the_dense_sum_at_full_rank():
    m = low_rank_symmetric(np.random.default_rng(22), 256, None, 1.0)
    assert trace_norm(_Matrix(m)) == dense_trace_norm(m)


def test_trace_norm_reads_the_residual_of_every_row_block():
    # rank one plus symmetric noise on the last 128 rows and columns of 256,
    # which make the last of its two row blocks of 128.  The noise lies past
    # the probe's two columns and is orthogonal to the first draw (the seeded
    # stream's first two columns), so the probe's basis and the sample's hold
    # the rank-one part and the first block's residual fits the limit: only
    # the last block shows that the sketch misses mass.  No basis of n/4 columns holds the noise's rank of 126, so
    # the dense SVD must answer
    rng = np.random.default_rng(25)
    n = 256
    m = low_rank_symmetric(rng, n, 1, 1.0)
    omega = np.random.default_rng(0).standard_normal((n, 2))[128:]
    p = np.eye(128) - omega @ np.linalg.pinv(omega)
    noise = 1e-13 * random_complex(rng, 128, 128)
    noise = p @ (noise + noise.T) @ p
    m[128:, 128:] += 0.5 * (noise + noise.T)
    assert trace_norm(_Matrix(m)) == dense_trace_norm(m)


def test_trace_norm_reads_the_doubled_upper_residual_of_a_symmetric_matrix():
    # a complex symmetric rank-one matrix plus noise only below the diagonal
    # (rows 256-511, columns 0-255), mirrored: the pass reads the mirror above
    # the diagonal only and counts it twice.  The noise is 0.9 of the residual
    # limit: read once it would fit, read twice it does not.  It is a scaled
    # unitary block, whose 512 equal singular values no basis of n/4 columns
    # can reduce enough, so the dense SVD must answer
    rng = np.random.default_rng(25)
    n = 512
    x = random_complex(rng, n, 1)
    m = x @ x.T / n
    limit = 0.5 * DEFAULT_TOL * n / np.sqrt(n)
    noise = np.linalg.qr(random_complex(rng, 256, 256))[0]
    noise *= 0.9 * limit / np.linalg.norm(noise)
    m[256:, :256] += noise
    m[:256, 256:] += noise.T
    assert np.array_equal(m, m.T)
    assert trace_norm(_Matrix(m)) == dense_trace_norm(m)
    # the pass alone, on the basis of the rank-one part (the sampled bases are
    # tilted by the noise, which adds to their residual): the noise read
    # twice is over the limit, and its half-width is sqrt(n) times the noise
    q = x / np.linalg.norm(x)
    buf = np.empty(64 * n, dtype=complex)
    assert spectral._certify(_Matrix(m), q, limit, buf) is None
    half_width = spectral._certify(_Matrix(m), q, 2 * limit, buf)[1]
    assert half_width == pytest.approx(np.sqrt(n) * np.sqrt(2) * 0.9 * limit, rel=1e-3)


def test_range_finder_answers_a_low_rank_window_with_one_small_svd(monkeypatch):
    # rank 3: the probe fails, the first fresh block widens the basis to 10
    # columns, and the next block's estimate lets it certify
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    trace_norm(_Matrix(low_rank_symmetric(np.random.default_rng(26), 512, 3, 1.0)))
    assert shapes == [(10, 10)]


def test_width_two_probe_answers_a_rank_one_window(monkeypatch):
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
    s, n = 0.999 + 0.001j, 2048
    w = _evaluate_window(power_symbol(s), INF, n)
    # h[i, j] = (1 - s^2) s^i s^j has trace norm |1 - s^2| sum |s|^(2i)
    exact = abs(1 - s * s) * np.sum(abs(s) ** (2 * np.arange(n)))
    assert abs(w.factorization.trace_norm - exact) <= DEFAULT_TOL * n
    assert shapes == [(2, 2)]


def test_grown_basis_extends_the_probe_sample():
    # one seeded stream, drawn after the probe fails: the first sample of
    # width 2, then fresh blocks of 8; the basis is the Householder Q of the whole
    # sample so far, and the trace norm is that of its core C = Q* A conj(Q)
    m = low_rank_symmetric(np.random.default_rng(26), 512, 3, 1.0)
    rng = np.random.default_rng(0)
    probe = m @ rng.standard_normal((512, 2))
    first_block = m @ rng.standard_normal((512, 8))
    q, _ = np.linalg.qr(np.hstack([probe, first_block]))
    f = _factorize(_Matrix(m))
    assert np.array_equal(f.basis, q) and (f.path, f.draws) == ("grown", (2, 8, 8))
    assert np.linalg.norm(f.core - q.conj().T @ m @ q.conj()) <= 1e-13 * np.linalg.norm(m)
    assert trace_norm(_Matrix(m)) == float(np.sum(np.linalg.svd(f.core, compute_uv=False)))


def test_trace_norm_is_deterministic():
    m = low_rank_symmetric(np.random.default_rng(23), 512, 3, 1.0)
    assert trace_norm(_Matrix(m)) == trace_norm(_Matrix(m))


def test_range_finder_memory_stays_at_block_size():
    op = _Matrix(low_rank_symmetric(np.random.default_rng(24), 1024, 1, 1.0))
    tracemalloc.start()
    try:
        trace_norm(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_range_finder_spherical_norm_at_2048_rows():
    # a hankel-boundary point at q = 3: tail ratio 3^-0.013 first fits at N = 2048,
    # and none of 1280, 1536 and 1792 below it does (at 3^-0.015, 1792 fits)
    s = eigenvalue_from_z(3, complex(0.013, 0.7))
    rep = schur_norm(spherical_symbol(3, s=s), 3)
    exact = schur_norm_in_s(3, s)
    assert rep.certified and rep.truncation_n == 2048
    assert abs(rep.total - exact) <= rep.certified_error + 1e-11 * exact


# ---------------------------------------------------------------------------
# the bases of resolvent images: probe, split, growth below the border
# ---------------------------------------------------------------------------

def resolvent_window(p, z, q, n):
    """The operator of the n-window of spherical(p, z) read at degree q."""
    return _ResolventImage(build_hankel(spherical_symbol(p, z=z), n), q)


def exponential_sum(roots):
    """The symbol sum_a a^n, whose Hankel window has rank len(roots) (distinct a)."""
    return RadialSymbol(values_fn=lambda count: sum(a ** np.arange(count) for a in roots))


THREE_EXPONENTIALS = (0.9, -0.8, 0.7j)


def check_certified_factorization(op, f):
    """The Q of a certified factorization f of op is orthonormal to 10 k eps, its core C is
    k x k and exactly symmetric, and its half-width is
    sqrt(n) ||A - Q C Q^T||_F recomputed densely, within rounding and the
    mirror term below.  The blocked and the dense residual round the same
    products and differences, in another order, so they differ by a few
    units u (|A| + |Q| |B|) per entry, B = C Q^T.  (The
    worst-case bound gamma_(k+2) of Higham, 2nd ed., 2002, lemma 3.5, would
    exceed the half-width itself.)

    The pass reads the residual R on and past the diagonal blocks only, each
    block past the diagonal block counted twice.  The rounding of B makes R
    differ from its transpose by at most ``term`` = 2 gamma_2k || |Q| |C|^T ||_F
    in Frobenius norm.  The half-width adds sqrt(n) term to sqrt(n) times
    the norm of the mirrored upper part, which is within sqrt(n) term of the
    dense residual, so it lies between the dense residual and the dense
    residual plus 2 sqrt(n) term.  A pass of one block with no border reads
    all of R, so its half-width is the dense residual plus sqrt(n) term,
    within rounding.

    A basis with a border (a certifying pass whose lead is m > 0, the split
    or a growth below it) has Q = E_m (+) Q_J, E_m the first m =
    ``border_rows`` unit vectors, exactly, and 2 to n/4 columns in Q_J.  Then
    the m x m corner of the residual is 0, and its half-width is the dense
    residual plus sqrt(n) term, within rounding: the mirrored part differs
    from the dense one by the rounding of B, which is far below its bound
    ``term`` here."""
    q_basis, c, half_width = f.basis, f.core, f.half_width
    assert q_basis is not None and f.passes[-1][1:] == (f.width, True)
    n, k = op.shape[0], f.width
    assert c.shape == (k, k) and np.array_equal(c, c.T)
    eps = np.finfo(float).eps
    assert np.linalg.norm(q_basis.conj().T @ q_basis - np.eye(k), 2) <= 10 * k * eps
    a = op.dense()
    b = c @ q_basis.T
    residual = a - q_basis @ b
    dense_half_width = np.sqrt(n) * np.linalg.norm(residual)
    rounding = 4 * np.sqrt(n) * (eps / 2) * np.linalg.norm(np.abs(a) + np.abs(q_basis) @ np.abs(b))
    lead = f.passes[-1][0]
    if lead:
        assert lead == op.border_rows
        assert lead + 2 <= k <= lead + n / 4
        assert not q_basis[:lead, lead:].any() and not q_basis[lead:, :lead].any()
        assert not residual[:lead, :lead].any()
    gamma_2k = 2 * k * (eps / 2) / (1 - 2 * k * (eps / 2))
    term = 2 * gamma_2k * np.linalg.norm(np.abs(q_basis) @ np.abs(c).T)
    assert np.linalg.norm(residual - residual.T) / np.sqrt(2) <= term
    assert half_width >= (1 - 1e-9) * np.sqrt(n) * term
    assert -rounding <= half_width - dense_half_width <= 2 * np.sqrt(n) * term + rounding
    # blocks of at most _BLOCK_BYTES
    block_rows = min(n, 128, max(8, spectral._BLOCK_BYTES // (16 * n)))
    if lead or block_rows == n:
        assert abs(half_width - np.sqrt(n) * term - dense_half_width) <= rounding
    return k


@pytest.mark.parametrize("p, q, n", [(3, 2, 320), (2, 3, 512), (2, 5, 128), (3, 5, 320)])
def test_grown_basis_is_orthonormal_and_its_half_width_is_the_dense_residual(p, q, n):
    # spherical symbols read at another degree have numerical rank well above
    # 2; they now certify on the split basis (border rows + 2 columns), whose
    # factorization passes the same check as a grown one
    op = resolvent_window(p, complex(0.4, 0.7), q, n)
    f = _factorize(op)
    assert f.path == "split" and 2 < check_certified_factorization(op, f) <= n / 4


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([(2, 3), (2, 5), (3, 2), (3, 5), (5, 2), (5, 3)]),
    st.sampled_from([64, 96, 128, 320, 512]),
    st.floats(0.05, 0.95),
    st.floats(0.0, 1.0),
)
def test_trace_norm_of_mismatched_resolvent_images(degrees, n, re_z, turn):
    # the symbol of degree p read at degree q: |trace_norm - dense| within the
    # allowance, whichever path answers
    p, q = degrees
    op = resolvent_window(p, complex(re_z, 2 * np.pi * turn / np.log(p)), q, n)
    f = _factorize(op)
    assert abs(f.trace_norm - dense_trace_norm(op.dense())) <= DEFAULT_TOL * n
    if f.basis is not None:
        check_certified_factorization(op, f)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 5, INF]),
    st.sampled_from([2, 3, 5]),
    st.sampled_from([64, 127, 128, 257, 1024]),
    st.floats(0.05, 0.95),
    st.floats(0.0, 1.0),
)
def test_two_sided_half_width_of_resolvent_images(q, p, n, re_z, turn):
    # a spherical symbol read at its own degree, or at q = inf, has a window of
    # rank 2 that the probe certifies; read at another degree it may take a
    # grown basis or the dense SVD.  N = 64 to 128 fit one block, N = 257
    # takes blocks of 127 rows with a last one of 3, and N = 1024 blocks of
    # 32 rows
    op = resolvent_window(p, complex(re_z, 2 * np.pi * turn / np.log(p)), q, n)
    f = _factorize(op)
    if p == q or q == INF:
        assert f.basis is not None
    if f.basis is not None:
        check_certified_factorization(op, f)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([64, 127, 128, 257, 1024]),
    st.integers(1, 12),
    st.integers(-3, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_half_width_of_plain_matrices(n, rank, exponent, symmetric, seed):
    # x diag(w) y^T / n, with y = x made exactly symmetric or y drawn apart,
    # plus noise of a tenth of the residual limit (symmetric with the
    # matrix), so that the residual stands above the rounding of the check:
    # the probe certifies rank <= 2 at scales up to 1 (the limit is absolute,
    # so larger entries may end dense), and from 128 rows a grown basis may
    # certify a higher rank.  A matrix that is not symmetric is no window:
    # trace_norm takes one dense SVD of it and never factorizes it (the path
    # alone is checked, with the SVD stubbed, as no value is at stake)
    rng = np.random.default_rng(seed)
    x = random_complex(rng, n, rank)
    y = x if symmetric else random_complex(rng, n, rank)
    m = 10.0**exponent * (x * random_complex(rng, 1, rank)) @ y.T / (rank * n)
    noise = random_complex(rng, n, n)
    if symmetric:
        m, noise = 0.5 * (m + m.T), noise + noise.T
    m += 0.1 * (0.5 * DEFAULT_TOL * np.sqrt(n)) * noise / np.linalg.norm(noise)
    assert np.array_equal(m, m.T) == symmetric
    if not symmetric:
        shapes = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_factorize", None)
            patch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or np.zeros(min(a.shape)))
            assert trace_norm(m) == 0.0
        assert shapes == [(n, n)]
        return
    op = _Matrix(m)
    f = _factorize(op)
    if exponent <= 0 and rank <= 2:
        assert f.basis is not None
    if f.basis is not None:
        check_certified_factorization(op, f)


def test_corpus_tail_item_takes_no_window_sized_svd(monkeypatch):
    # spherical q = 3, s = 0.4i read at q = 2 has a 256-row window whose rows
    # past the 59-row border are numerically of rank 2 or less: the split
    # basis E_59 (+) orth(Y[59:]) of the sample drawn after the probe
    # certifies it.  The only SVD is that of the 61 x 61 core, and the only
    # QRs are those of the probe's 256 x 2 first columns and of the sample's
    # (256 - 59) x 2 part below the border
    f = _evaluate_window(trace_class_corpus()[6], 2, 256).factorization
    assert (f.path, f.draws) == ("split", (2,))
    shapes, qrs = [], []
    svd, qr = np.linalg.svd, np.linalg.qr
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw))
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: qrs.append(np.shape(a)) or qr(a, *args, **kw))
    rep = schur_norm(trace_class_corpus()[6], 2)
    assert rep.truncation_n == 256 and rep.sketch_width == 61
    assert shapes == [(61, 61)]
    assert qrs == [(256, 2), (256 - 59, 2)]


def test_real_windows_reach_the_real_svd(monkeypatch):
    # the path pin: a real 32-row window passes a real 32 x 32 array to the
    # SVD, the corpus-6 window at q = 2 (real up to i^m) its real 61 x 61
    # core, and a generic complex symbol (corpus 7 at q = 3, on its 39-column
    # split) a complex core
    seen = []
    svd = spectral._svd
    monkeypatch.setattr(spectral, "_svd", lambda m, **kw: seen.append((m.dtype, m.shape)) or svd(m, **kw))
    trace_norm(_ResolventImage(build_hankel(power_symbol(0.5), 32), 3))
    schur_norm(trace_class_corpus()[6], 2)
    schur_norm(trace_class_corpus()[7], 3)
    assert seen == [(np.dtype(float), (32, 32)), (np.dtype(float), (61, 61)), (np.dtype(complex), (39, 39))]


@pytest.mark.parametrize("make, q, n, path, width, turned", [
    (lambda: power_symbol(0.5j), 3, 32, "dense", 0, True),
    (lambda: spherical_symbol(3, s=0.4j), 3, 320, "probe", 2, True),
    (lambda: spherical_symbol(3, s=0.4j), 2, 256, "split", 61, True),
    (lambda: spherical_symbol(2, z=complex(0.3, 0.2)), 3, 128, "split", 39, False),
    (lambda: exponential_sum(THREE_EXPONENTIALS), 2, 256, "grown", 69, False),
    (lambda: explicit_symbol(np.random.default_rng(30).standard_normal(300)), 3, 96, "dense", 0, False),
], ids=["turned-dense-32", "probe-320", "turned-split-256", "complex-split-128", "grown-256", "dense-after-probe-96"])
def test_factorization_svd_reproduces_the_window(make, q, n, path, width, turned):
    # U S V* of the record is the SVD of the window D A' D itself: Q' and the
    # phase D applied to both factors, within the residual half-width and the
    # rounding of the SVD
    op = _ResolventImage(build_hankel(make(), n), q)
    f = _factorize(op)
    assert (f.path, f.width, f.phase is not None) == (path, width, turned)
    a = op.dense()
    if turned:
        a = f.phase[:, None] * a * f.phase
    u, s, vh = f.svd()
    rounding = 4 * n * np.finfo(f.core.dtype).eps * np.linalg.norm(a)
    assert np.linalg.norm((u * s) @ vh - a) <= f.half_width / np.sqrt(n) + rounding


# ---------------------------------------------------------------------------
# the split basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "p, q, n",
    [(3, 2, 256), (3, 2, 320), (2, 3, 512), (2, 3, 112), (2, 5, 64), (2, 5, 112), (3, 5, 224), (5, 3, 128)],
)
def test_split_basis_is_certified_and_its_half_width_is_the_dense_residual(p, q, n):
    # a spherical symbol read at another degree: the probe fails and the split
    # basis certifies, in blocks of 128 rows from 129 rows and in one block
    # below; its width is the border plus the probe's 2 columns
    op = resolvent_window(p, complex(0.4, 0.7), q, n)
    assert op.border_rows == {2: 59, 3: 37, 5: 25}[q]
    f = _factorize(op)
    assert f.path == "split" and check_certified_factorization(op, f) == op.border_rows + 2
    assert np.array_equal(f.basis[: op.border_rows, : op.border_rows], np.eye(op.border_rows))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([(2, 3), (2, 5), (3, 2), (3, 5), (5, 2), (5, 3)]),
    st.sampled_from([64, 96, 112, 128, 224, 256, 320, 512]),
    st.floats(0.05, 0.95),
    st.floats(0.0, 1.0),
)
@example((5, 2), 512, 0.33, 0.42)
@example((3, 5), 64, 0.4, 0.1)
def test_every_path_of_mismatched_windows_keeps_the_allowance(degrees, n, re_z, turn):
    # the probe, the split basis, a grown basis or the dense SVD: whichever
    # answers, |trace_norm - dense| <= 1e-12 N, and a certified basis passes
    # the factorization check
    p, q = degrees
    op = resolvent_window(p, complex(re_z, 2 * np.pi * turn / np.log(p)), q, n)
    f = _factorize(op)
    assert abs(f.trace_norm - dense_trace_norm(op.dense())) <= 1e-12 * n
    if f.basis is not None:
        check_certified_factorization(op, f)


def test_a_failed_split_grows_below_the_border():
    # 0.9^n + (-0.8)^n + (0.7i)^n has rank 3 past the border: the probe and
    # the split pass fail, and the growth keeps the 59 border rows as unit
    # vectors and adds a fresh block of 8 from the same stream to the sample
    # below them
    op = _ResolventImage(build_hankel(exponential_sum(THREE_EXPONENTIALS), 256), 2)
    f = _factorize(op)
    assert check_certified_factorization(op, f) == 69
    assert (f.path, f.draws, f.passes) == ("grown", (2, 8, 8), ((0, 2, False), (59, 61, False), (59, 69, True)))


def test_plain_matrices_and_infinite_degree_have_no_border():
    assert _Matrix(np.eye(3)).border_rows == 0
    assert resolvent_window(3, complex(0.4, 0.7), INF, 128).border_rows == 0
    assert resolvent_window(3, complex(0.4, 0.7), 3, 16).border_rows == 16  # at most n


# the path of every corpus norm that reaches the probe, (symbol index, q):
# (path, samples drawn, residual passes); the other norms read windows under
# 64 rows, which the dense SVD answers with no sample and no pass.  The probe
# draws nothing, and a 64-row window with no admissible split (q = 2, 3) goes
# dense after it without a sample
CORPUS_PATHS = {
    (6, 2): ("split", 1, 2), (6, 3): ("probe", 0, 1), (6, 5): ("split", 1, 2), (6, INF): ("probe", 0, 1),
    (7, 2): ("probe", 0, 1), (7, 3): ("split", 1, 2), (7, 5): ("split", 1, 2), (7, INF): ("probe", 0, 1),
    (9, 2): ("dense", 0, 1), (9, 3): ("dense", 0, 1), (9, 5): ("split", 1, 2), (9, INF): ("probe", 0, 1),
}


def test_corpus_norms_take_their_pinned_paths():
    # a change that moves a corpus window to a costlier path (the split to a
    # grown basis, the probe to the dense SVD) or adds samples or passes fails
    # here; every corpus symbol is certified, so its norm reads the one window
    # at its truncation_n
    for k, sym in enumerate(trace_class_corpus()):
        for q in (2, 3, 5, INF):
            rep = schur_norm(sym, q)
            f = _evaluate_window(sym, q, rep.truncation_n).factorization
            assert rep.certified and rep.sketch_width == f.width
            assert (f.path, len(f.draws), len(f.passes)) == CORPUS_PATHS.get((k, q), ("dense", 0, 0)), (k, q)


# the window of 0.9^n + (-0.8)^n + (0.7i)^n (rank 3 past the border) read at
# degree q, N rows: (lead, width) of the basis that certifies.  The probe
# fails, the split fails on the sample of width 2 drawn after it, one block
# of 8 joins that sample below the border, and the next block's estimate lets
# the pass certify
GROWN_PATHS = {
    (2, 128): (59, 69), (2, 256): (59, 69), (3, 128): (37, 47), (3, 256): (37, 47),
    (5, 128): (25, 35), (5, 256): (25, 35), (INF, 128): (0, 10), (INF, 256): (0, 10),
}


@pytest.mark.parametrize("q, n", list(GROWN_PATHS), ids=[f"q{q}-{n}" for q, n in GROWN_PATHS])
def test_three_exponentials_take_their_pinned_growth(q, n):
    f = _factorize(_ResolventImage(build_hankel(exponential_sum(THREE_EXPONENTIALS), n), q))
    lead, width = GROWN_PATHS[q, n]
    assert (f.path, f.width, f.draws) == ("grown", width, (2, 8, 8))
    assert f.passes[-1] == (lead, width, True) and not any(found for *_, found in f.passes[:-1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 5, INF]),
    st.sampled_from([128, 256, 512]),
    st.lists(st.tuples(st.floats(0.5, 0.95), st.floats(0.0, 1.0)), min_size=3, max_size=6),
)
def test_exponential_sums_keep_the_allowance_at_every_degree(q, n, roots):
    # sum_a a^n over 3-6 roots 0.5 <= |a| <= 0.95 has a window of rank up to
    # 6, also past the border, so about half the examples grow: whichever
    # basis answers, |trace_norm - dense| <= 1e-12 N, a certified basis passes
    # the factorization check, and its columns past the border stay within N/4
    op = _ResolventImage(build_hankel(exponential_sum([r * np.exp(2j * np.pi * t) for r, t in roots]), n), q)
    f = _factorize(op)
    assert abs(f.trace_norm - dense_trace_norm(op.dense())) <= 1e-12 * n
    if f.basis is not None:
        check_certified_factorization(op, f)
        assert f.width - f.passes[-1][0] <= n / 4
